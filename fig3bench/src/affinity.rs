//! Thread-to-CPU pinning, so that a client thread and the server
//! thread answering it share one CPU. A request/response ping-pong
//! between two CPUs pays a cross-CPU wake-up per message, whose cost
//! depends on where the scheduler happens to place the threads and on
//! what else runs on the host; on one CPU the hand-off is a plain
//! context switch.

/// 64-bit words in the kernel's default `cpu_set_t` (1024 CPUs).
const SET_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on, ascending.
pub fn allowed() -> Vec<usize> {
    let mut mask = [0u64; SET_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..SET_WORDS * 64)
        .filter(|&cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect()
}

/// The CPU that pair `slot` runs on: the `slot`-th allowed CPU, wrapping.
pub fn cpu_for(slot: usize) -> Option<usize> {
    let cpus = allowed();
    (!cpus.is_empty()).then(|| cpus[slot % cpus.len()])
}

/// Pin the calling thread to `cpu`. Returns whether the kernel agreed;
/// a refusal leaves the thread where it was.
pub fn pin_current(cpu: usize) -> bool {
    if cpu >= SET_WORDS * 64 {
        return false;
    }
    let mut mask = [0u64; SET_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_to_an_allowed_cpu_narrows_the_mask() {
        let cpu = cpu_for(1).expect("some CPU is allowed");
        std::thread::spawn(move || {
            assert!(pin_current(cpu));
            assert_eq!(allowed(), vec![cpu]);
        })
        .join()
        .unwrap();
        assert!(!pin_current(SET_WORDS * 64));
    }
}
