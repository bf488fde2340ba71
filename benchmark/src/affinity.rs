//! Processor placement of the benchmark's own threads.
//!
//! On a two-processor box the scheduler keeps moving a closed-loop client
//! and the threads that answer it between "same processor" (two context
//! switches per round trip) and "other processor" (an inter-processor
//! wake-up each way). The two regimes differ by tens of percent and flip
//! every few seconds, which no amount of averaging inside one run removes.
//! So placement is fixed: client `c` runs on the `c`-th processor this
//! process may use (wrapping around), and so do the threads a server starts
//! for that client's connection. Engine background threads are left alone.
//! A failed call leaves the thread where the scheduler puts it.

/// Bits of one affinity mask: processors 0..1024.
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Processors this process was allowed to use when it started.
fn allowed() -> &'static [usize] {
    static ALLOWED: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    ALLOWED.get_or_init(|| {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `mask` is a live, writable buffer of the size passed.
        let rc = unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..MASK_WORDS * 64)
            .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    })
}

/// Pin thread `tid` (0 = the calling thread) to the processor of client
/// `client`.
pub fn pin_thread(tid: i32, client: usize) {
    let cpus = allowed();
    if cpus.is_empty() {
        return;
    }
    let cpu = cpus[client % cpus.len()];
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of the size passed; the call only
    // reads it.
    unsafe { sched_setaffinity(tid, size_of_val(&mask), mask.as_ptr()) };
}

pub fn pin_current(client: usize) {
    pin_thread(0, client);
}

/// Kernel ids of this process's threads.
pub fn thread_ids() -> Vec<i32> {
    std::fs::read_dir("/proc/self/task")
        .map(|dir| {
            dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_the_calling_thread_to_one_allowed_processor() {
        let cpus = allowed().to_vec();
        assert!(!cpus.is_empty());
        std::thread::spawn(move || {
            assert!(thread_ids().len() >= 2);
            pin_current(1);
            let mut mask = [0u64; MASK_WORDS];
            // SAFETY: `mask` is a live, writable buffer of the size passed.
            let rc = unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) };
            assert_eq!(rc, 0);
            let want = cpus[1 % cpus.len()];
            assert_eq!(mask.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
            assert_eq!(mask[want / 64] >> (want % 64) & 1, 1);
        })
        .join()
        .unwrap();
    }
}
