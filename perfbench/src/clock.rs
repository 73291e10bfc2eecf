//! Host clocks. The benchmark host is a shared 2-vCPU virtual machine
//! whose hypervisor steals 10–30% of the vCPUs' time in bursts, so the
//! wall-clock time of the same work swings by up to 2×. The times the
//! benchmark gates on are therefore CPU time, which the kernel accounts
//! without stolen time: the whole process's for a timed section (every
//! thread, exited ones included) and the calling thread's for set-up and
//! for the single-threaded layer probes, both read at nanosecond
//! resolution with `clock_gettime`. Wall time is recorded alongside,
//! with the time the hypervisor stole from the host's vCPUs meanwhile
//! (`steal` in `/proc/stat`), so that elapsed time can be reported net
//! of it.

use std::time::Instant;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    // The C library's clock_gettime(2) and sysconf(3), which std links
    // on Linux.
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sysconf(name: i32) -> i64;
}

/// `_SC_CLK_TCK`: the unit of the tick counts in `/proc/stat`.
const SC_CLK_TCK: i32 = 2;

/// `CLOCK_PROCESS_CPUTIME_ID`: every thread of the process, exited
/// ones included.
const PROCESS_CPU: i32 = 2;
/// `CLOCK_THREAD_CPUTIME_ID`: the calling thread.
const THREAD_CPU: i32 = 3;

fn cpu_clock_s(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the whole
    // call, and both clock ids exist on every Linux since 2.6.12.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds of every thread of this process, live or exited.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(PROCESS_CPU)
}

/// CPU seconds the calling thread has run.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(THREAD_CPU)
}

/// Seconds stolen from the average vCPU of the host since boot: the
/// `steal` ticks of every CPU in `/proc/stat`, over the CPU count. 0
/// where the kernel does not report steal.
pub fn steal_s() -> f64 {
    let Ok(text) = std::fs::read_to_string("/proc/stat") else {
        return 0.0;
    };
    let ticks: f64 = text
        .lines()
        .next()
        .and_then(|all| all.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0);
    let cpus = text
        .lines()
        .filter(|l| l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit))
        .count()
        .max(1);
    // SAFETY: sysconf takes no pointers; `_SC_CLK_TCK` exists on Linux.
    let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1);
    ticks / hz as f64 / cpus as f64
}

/// Wall, stolen and process CPU seconds of one timed section.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timed {
    pub wall_s: f64,
    /// Seconds the hypervisor stole from the average vCPU meanwhile.
    pub steal_s: f64,
    pub cpu_s: f64,
}

impl Timed {
    /// Elapsed seconds net of stolen time.
    pub fn elapsed_s(&self) -> f64 {
        self.wall_s - self.steal_s
    }
}

/// Runs `f`, timing it on the wall clock and the process CPU clock.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Timed) {
    let (s0, c0, t0) = (steal_s(), process_cpu_s(), Instant::now());
    let out = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - c0;
    let steal_s = steal_s() - s0;
    (
        out,
        Timed {
            wall_s,
            steal_s,
            cpu_s,
        },
    )
}

/// Runs `f`, returning its result and the calling thread's CPU seconds.
pub fn thread_timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let c0 = thread_cpu_s();
    let out = f();
    (out, thread_cpu_s() - c0)
}
