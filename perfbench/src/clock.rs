//! The host clock: CPU time of this process.
//!
//! Wall time on a shared virtual machine also counts the time the
//! hypervisor gives other tenants. On a 2-vCPU KVM guest, while 24% of
//! the CPU was stolen, a `scan_latency` pass took 1.75x its usual wall
//! time but 1.25x its usual CPU time: the kernel leaves stolen time out
//! of a process's CPU time. So the host cost of simulation is timed on
//! this clock.

/// CPU seconds this process has used so far, over all its threads,
/// including threads that have already exited (a launch's block
/// threads).
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the whole call, and `clock_gettime`
    // writes nothing but it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU-time clock is unavailable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_work_on_other_threads() {
        let t0 = cpu_seconds();
        std::thread::spawn(|| {
            let mut x = 0u64;
            for i in 0..20_000_000u64 {
                x = std::hint::black_box(x.wrapping_add(i));
            }
        })
        .join()
        .unwrap();
        assert!(cpu_seconds() > t0, "an exited thread's CPU time is counted");
    }
}
