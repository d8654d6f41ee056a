//! A job set's client-side lookups cost the same however much the
//! client's listener has heard.
//!
//! The client learns a set's fate, its working directories and its job
//! EPRs from the notifications on its listener. That listener keeps
//! every event of every set the client ever submitted, so a lookup that
//! copies the log grows with the grid's history. Here the same lookups
//! run on two fresh grids whose listeners first hear 100 and 10 000
//! unrelated notifications; a counting global allocator in this binary
//! pins their allocations to one small, fixed number at both sizes.
//!
//! Allocations are counted per thread: on a manual clock every lookup
//! runs on the calling thread, and parallel tests do not disturb each
//! other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

use wsrf_grid::notification::message::NotificationMessage;
use wsrf_grid::prelude::*;

/// Counts the allocations made by the current thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn counted() {
    // `try_with`: the allocator can run while the thread's locals are
    // being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; the counter
// only observes calls and never touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        counted();
        // SAFETY: the caller's `layout` contract passes straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        counted();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from this allocator (i.e. from `System`)
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(p, layout) }
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        counted();
        // SAFETY: as for `dealloc`, with the caller's `new_size` contract.
        unsafe { System.realloc(p, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocs<T>(f: impl FnOnce() -> T) -> usize {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    let after = ALLOCS.with(Cell::get);
    drop(out);
    after - before
}

/// Allocation counts of one grid's lookups.
#[derive(Debug, PartialEq)]
struct Lookups {
    pending_outcome: usize,
    completed_outcome: usize,
    job_dir: usize,
    job_epr: usize,
}

/// A grid whose client listener first hears `history` unrelated
/// notifications, then sees one set complete and another stay pending.
fn lookups_after(history: usize) -> Lookups {
    let grid = CampusGrid::build(GridConfig::with_machines(2), Clock::manual());
    let client = grid.client("scientist");
    let listener = client.listener().epr();
    for i in 0..history {
        let msg = NotificationMessage::new(
            format!("jobset-elsewhere{i}/job/j/started").as_str(),
            listener.to_element_named("urn:test", "JobEpr"),
        );
        grid.net
            .send_oneway(&listener.address, msg.to_envelope(&listener))
            .unwrap();
    }
    assert_eq!(client.listener().count(), history);

    client.put_file("C:\\quick.exe", JobProgram::compute(1.0).to_manifest());
    client.put_file("C:\\slow.exe", JobProgram::compute(1e6).to_manifest());
    let set = |name: &str, exe: &str| {
        let spec = JobSetSpec::new(name).job(JobSpec::new("job1", FileRef::parse(exe).unwrap()));
        client.submit(&spec, "griduser", "gridpass").unwrap()
    };
    let done = set("done", "local://C:\\quick.exe");
    grid.clock.advance(Duration::from_secs(10));
    let pending = set("pending", "local://C:\\slow.exe");
    grid.clock.advance(Duration::from_secs(10));

    assert_eq!(done.outcome(), Some(JobSetOutcome::Completed));
    assert_eq!(pending.outcome(), None);
    assert!(done.job_dir("job1").is_some());
    assert!(done.job_epr("job1").is_some());
    Lookups {
        pending_outcome: allocs(|| pending.outcome()),
        completed_outcome: allocs(|| done.outcome()),
        job_dir: allocs(|| done.job_dir("job1")),
        job_epr: allocs(|| done.job_epr("job1")),
    }
}

#[test]
fn lookups_do_not_grow_with_listener_history() {
    let small = lookups_after(100);
    let large = lookups_after(10_000);
    assert_eq!(small, large, "allocations grew with the listener's history");
    for (what, n) in [
        ("pending outcome", large.pending_outcome),
        ("completed outcome", large.completed_outcome),
        ("job_dir", large.job_dir),
        ("job_epr", large.job_epr),
    ] {
        assert!(n <= 64, "{what} made {n} allocations");
    }
}
