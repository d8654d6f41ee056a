//! Benchmark-side spans around the calls into each layer.
//!
//! A span has a layer name, start, end, the span that caused it and
//! the id of the job set (or RP operation) it belongs to. Each thread
//! keeps its own stack of open spans. A call that hops to another
//! thread over a socket links up through the callee thread's *caller*:
//! a [`ThreadCtx`] the relay handed over when it opened the
//! connection (see `wire::hello`), whose atomics always hold the
//! caller's innermost open span. Every hop in this benchmark is
//! synchronous, so a callee's span always lies inside its caller's.
//!
//! Spans are recorded only while tracing is on, kept in memory and
//! turned into the per-layer ledger when the run ends.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<SpanRec>> = Mutex::new(Vec::new());
static CTXS: Mutex<Vec<Arc<ThreadCtx>>> = Mutex::new(Vec::new());

/// Turn span recording on or off (process-wide).
pub fn set_enabled(on: bool) {
    ON.store(on, Ordering::SeqCst);
}

/// Is span recording on?
pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u64,
    /// 0 for a root.
    pub parent: u64,
    /// The job set (or operation) this span works for; 0 for none.
    pub group: u64,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// What a thread publishes for the threads it calls into: its
/// innermost open span and that span's group.
pub struct ThreadCtx {
    token: u64,
    top: AtomicU64,
    group: AtomicU64,
}

impl ThreadCtx {
    /// The id a relay sends across a connection to name this thread.
    pub fn token(&self) -> u64 {
        self.token
    }
}

struct Local {
    stack: Vec<(u64, u64)>,
    ctx: Arc<ThreadCtx>,
    caller: Option<Arc<ThreadCtx>>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        stack: Vec::new(),
        ctx: register_ctx(),
        caller: None,
    });
}

fn register_ctx() -> Arc<ThreadCtx> {
    let mut all = CTXS.lock().expect("ctx registry poisoned");
    let ctx = Arc::new(ThreadCtx {
        token: all.len() as u64,
        top: AtomicU64::new(0),
        group: AtomicU64::new(0),
    });
    all.push(ctx.clone());
    ctx
}

/// The calling thread's published context.
pub fn current_ctx() -> Arc<ThreadCtx> {
    LOCAL.with(|l| l.borrow().ctx.clone())
}

/// Look a thread context up by the token a relay sent.
pub fn ctx_by_token(token: u64) -> Option<Arc<ThreadCtx>> {
    CTXS.lock()
        .expect("ctx registry poisoned")
        .get(token as usize)
        .cloned()
}

/// Declare which thread this (server) thread works for.
pub fn set_caller(caller: Arc<ThreadCtx>) {
    LOCAL.with(|l| l.borrow_mut().caller = Some(caller));
}

/// An open span; records itself when dropped.
pub struct Span {
    id: u64,
    parent: u64,
    group: u64,
    layer: &'static str,
    start: Instant,
}

/// Open a span under the innermost open span of this thread (or of
/// its caller). `None` while tracing is off.
pub fn span(layer: &'static str) -> Option<Span> {
    open(layer, None)
}

/// Open a root span for group `group` (a job set or an operation).
pub fn root(layer: &'static str, group: u64) -> Option<Span> {
    open(layer, Some(group))
}

fn open(layer: &'static str, root_group: Option<u64>) -> Option<Span> {
    if !enabled() {
        return None;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, group) = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let (parent, group) = match (root_group, l.stack.last()) {
            (Some(g), _) => (0, g),
            (None, Some(&(p, g))) => (p, g),
            (None, None) => match &l.caller {
                Some(c) => (c.top.load(Ordering::SeqCst), c.group.load(Ordering::SeqCst)),
                None => (0, 0),
            },
        };
        l.stack.push((id, group));
        l.ctx.top.store(id, Ordering::SeqCst);
        l.ctx.group.store(group, Ordering::SeqCst);
        (parent, group)
    });
    Some(Span {
        id,
        parent,
        group,
        layer,
        start: Instant::now(),
    })
}

impl Drop for Span {
    fn drop(&mut self) {
        let end = Instant::now();
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            l.stack.pop();
            let (top, group) = l.stack.last().copied().unwrap_or((0, 0));
            l.ctx.top.store(top, Ordering::SeqCst);
            l.ctx.group.store(group, Ordering::SeqCst);
        });
        let e = epoch();
        let rec = SpanRec {
            id: self.id,
            parent: self.parent,
            group: self.group,
            layer: self.layer,
            start_ns: self.start.saturating_duration_since(e).as_nanos() as u64,
            end_ns: end.saturating_duration_since(e).as_nanos() as u64,
        };
        if let Ok(mut spans) = SPANS.lock() {
            spans.push(rec);
        }
    }
}

/// Take every span recorded so far.
pub fn take_spans() -> Vec<SpanRec> {
    std::mem::take(&mut *SPANS.lock().expect("span log poisoned"))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Tracing is process-wide; tests that switch it serialize here.
    pub(crate) static TRACE_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn spans_nest_within_a_thread_and_across_a_caller_handoff() {
        let _g = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        take_spans();
        {
            let _root = root("root", 7);
            let _child = span("child");
            let caller = current_ctx();
            let token = caller.token();
            std::thread::spawn(move || {
                set_caller(ctx_by_token(token).expect("registered"));
                let _remote = span("remote");
            })
            .join()
            .expect("remote thread");
        }
        set_enabled(false);
        let spans = take_spans();
        let by = |l: &str| spans.iter().find(|s| s.layer == l).expect("span").clone();
        let (root, child, remote) = (by("root"), by("child"), by("remote"));
        assert_eq!((root.parent, root.group), (0, 7));
        assert_eq!((child.parent, child.group), (root.id, 7));
        assert_eq!((remote.parent, remote.group), (child.id, 7));
    }
}
