//! Pinning the calling thread to one CPU. `serve_live` pins its threads
//! because on a small virtual machine the wake-up of a thread on another,
//! idle, CPU costs more — and varies more between identical runs — than the
//! query it serves; see README.md ("Thread placement").

extern "C" {
    /// `sched_setaffinity(2)` from the C library the standard library
    /// already links against.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread (and the threads it spawns from now on) to
/// CPU `cpu`. Returns whether the kernel accepted the mask; a refusal (a
/// container that forbids it, a CPU outside the allowed set) leaves the
/// thread where it was, which costs steadiness, not correctness.
pub fn pin_current_thread(cpu: usize) -> bool {
    if cpu >= 64 {
        return false;
    }
    let mask: u64 = 1 << cpu;
    // SAFETY: `pid` 0 names the calling thread; `mask` is a live, aligned
    // 8-byte bitmask and `cpusetsize` is exactly its size, so the kernel
    // reads only memory we own. The call has no other side effect on memory.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) };
    rc == 0
}
