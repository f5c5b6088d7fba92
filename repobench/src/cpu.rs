//! Process CPU time, the clock every workload times its work with (only
//! serve-mix's request latencies are wall clock).
//!
//! On a shared virtual machine the hypervisor lends the cores to other
//! guests: on a 2-vCPU one, wall-clock time of the same work swung by more
//! than 2x with the steal time in `/proc/stat`. CPU time counts only the
//! time this process's threads actually ran, so it follows the work done
//! rather than the neighbours.

/// CPU time consumed so far by every thread of this process, in seconds.
#[cfg(target_os = "linux")]
pub fn process_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux), and `clock_gettime` writes only into it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is always available on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Jiffies the hypervisor stole from this guest's CPUs so far, summed over
/// CPUs (the `steal` column of `/proc/stat`), with the total of all columns.
pub fn steal_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    #[test]
    fn cpu_time_advances_with_work() {
        // Other tests run in parallel threads of this process, so only a
        // lower bound holds: this thread's own busy time.
        let (t0, wall) = (super::process_seconds(), Instant::now());
        let mut spins = 0u64;
        while wall.elapsed() < Duration::from_millis(50) {
            spins = std::hint::black_box(spins + 1);
        }
        let busy = super::process_seconds() - t0;
        assert!(busy >= 0.01, "50 ms of spinning cost only {busy} s of CPU");
        let (stolen, total) = super::steal_jiffies().expect("/proc/stat is readable");
        assert!(stolen <= total);
    }
}
