//! The handful of Linux calls the harness needs and `std` does not
//! expose: thread pinning, per-thread CPU time, per-thread context
//! switches, and the process's peak resident set.
//!
//! Declared directly as `extern "C"` (the workspace vendors no libc
//! crate; `netgrid::sys` does the same for epoll). Struct layouts are the
//! LP64 Linux ABI. Every call degrades to `None`/`false` elsewhere, and
//! the harness records that it ran unpinned rather than failing.

#[cfg(target_os = "linux")]
mod ffi {
    use std::os::raw::{c_int, c_long};

    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: c_long,
        pub tv_nsec: c_long,
    }

    /// `struct rusage`: two `timeval`s (4 longs) then 14 longs;
    /// `ru_nvcsw`/`ru_nivcsw` are the last two.
    pub type RUsage = [c_long; 18];

    pub const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
    pub const RUSAGE_THREAD: c_int = 1;

    extern "C" {
        pub fn clock_gettime(clk: c_int, ts: *mut Timespec) -> c_int;
        pub fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
        pub fn getrusage(who: c_int, usage: *mut RUsage) -> c_int;
    }
}

/// Pins the calling thread to `core`. Returns whether the kernel took it.
pub fn pin_current_thread(core: usize) -> bool {
    #[cfg(target_os = "linux")]
    {
        if core >= 64 {
            return false;
        }
        let mask: u64 = 1 << core;
        // SAFETY: `mask` outlives the call and `cpusetsize` is its size;
        // pid 0 addresses the calling thread.
        unsafe { ffi::sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = core;
        false
    }
}

/// CPU seconds the calling thread has consumed (`CLOCK_THREAD_CPUTIME_ID`).
pub fn thread_cpu_seconds() -> Option<f64> {
    #[cfg(target_os = "linux")]
    {
        let mut ts = ffi::Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable timespec for the call.
        let rc = unsafe { ffi::clock_gettime(ffi::CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        (rc == 0).then_some(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Voluntary + involuntary context switches of the calling thread
/// (`getrusage(RUSAGE_THREAD)`).
pub fn thread_context_switches() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let mut ru: ffi::RUsage = [0; 18];
        // SAFETY: `ru` has the size and alignment of `struct rusage`.
        let rc = unsafe { ffi::getrusage(ffi::RUSAGE_THREAD, &mut ru) };
        (rc == 0).then(|| (ru[16] + ru[17]) as u64)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Peak resident set of this process in MB (`VmHWM` in
/// `/proc/self/status`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Filesystem type holding `path`, from `/proc/self/mountinfo` (longest
/// mount-point prefix wins). `journal.*` numbers mean little without it:
/// an fsync on tmpfs is free, on a real disk it is the p99.
pub fn filesystem_of(path: &std::path::Path) -> Option<String> {
    let path = path.canonicalize().ok()?;
    let info = std::fs::read_to_string("/proc/self/mountinfo").ok()?;
    info.lines()
        .filter_map(|line| {
            let (left, right) = line.split_once(" - ")?;
            let mount_point = left.split_whitespace().nth(4)?;
            let fstype = right.split_whitespace().next()?;
            path.starts_with(mount_point)
                .then(|| (mount_point.len(), fstype.to_string()))
        })
        .max_by_key(|&(len, _)| len)
        .map(|(_, fstype)| fstype)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_time_advances_with_work() {
        let Some(before) = thread_cpu_seconds() else {
            return; // not Linux
        };
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        let after = thread_cpu_seconds().unwrap();
        assert!(after > before, "{before} -> {after} ({x})");
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if let Some(mb) = peak_rss_mb() {
            assert!(mb > 0.0);
        }
    }
}
