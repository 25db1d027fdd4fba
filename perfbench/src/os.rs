//! Operating-system accounting: thread and process CPU clocks, per-thread
//! scheduler statistics from `/proc/self/task/*/schedstat`, peak resident
//! memory, the host fingerprint, and a sub-millisecond `ppoll(2)` for the
//! generator's sockets. Hand-rolled FFI because the build is offline and has
//! no `libc` crate; every call here is a plain Linux system call.

use std::collections::HashMap;
use std::os::unix::io::RawFd;
use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
pub struct PollFd {
    pub fd: RawFd,
    pub events: i16,
    pub revents: i16,
}

pub const POLLIN: i16 = 0x001;

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

fn read_clock(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, properly aligned repr(C) timespec that the call
    // only writes through for its duration; both clock ids are valid on Linux.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// On-CPU nanoseconds of the calling thread.
pub fn thread_cpu_ns() -> u64 {
    read_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// On-CPU nanoseconds of the whole process: every thread, live or exited.
pub fn process_cpu_ns() -> u64 {
    read_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// Waits up to `timeout` for any of `fds` to become readable.
pub fn poll_readable(fds: &mut [PollFd], timeout: Duration) {
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: timeout.subsec_nanos() as i64,
    };
    // SAFETY: `fds` is a live slice of repr(C) pollfd structs and `ts` a live
    // timespec; the kernel reads/writes them only during the call. A null
    // signal mask keeps the caller's mask.
    unsafe {
        ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null());
    }
}

/// The kernel thread id of the calling thread.
pub fn current_tid() -> u64 {
    std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name()?.to_str()?.parse().ok())
        .expect("/proc/thread-self names the calling thread")
}

/// One thread's scheduler counters: on-CPU time and run-queue wait (ns).
#[derive(Debug, Clone, Copy, Default)]
pub struct Sched {
    pub run_ns: u64,
    pub wait_ns: u64,
}

/// `tid -> (comm, counters)` for every live thread of this process.
pub fn sample_threads() -> HashMap<u64, (String, Sched)> {
    let mut out = HashMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let path = entry.path();
        let (Ok(comm), Ok(stat)) = (
            std::fs::read_to_string(path.join("comm")),
            std::fs::read_to_string(path.join("schedstat")),
        ) else {
            continue; // the thread exited between listing and reading
        };
        let mut fields = stat
            .split_whitespace()
            .map(|f| f.parse::<u64>().unwrap_or(0));
        let sched = Sched {
            run_ns: fields.next().unwrap_or(0),
            wait_ns: fields.next().unwrap_or(0),
        };
        out.insert(tid, (comm.trim().to_string(), sched));
    }
    out
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// `(nproc, cpu model)` of this host.
pub fn host_fingerprint() -> (usize, String) {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    (nproc, model)
}
