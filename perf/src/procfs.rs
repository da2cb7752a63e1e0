//! Process counters from `/proc/self`: CPU time, peak resident set and
//! thread count.

use std::time::{Duration, Instant};

/// Clock ticks per second of the `/proc/<pid>/stat` time fields (`USER_HZ`,
/// 100 on every Linux architecture the repository builds on).
const USER_HZ: u64 = 100;

/// User and system CPU time of the whole process, every thread included.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuTimes {
    /// Time in user mode.
    pub user: Duration,
    /// Time in the kernel.
    pub system: Duration,
}

/// Parse `utime` and `stime` (fields 14 and 15) of a `/proc/<pid>/stat`
/// line. The command name (field 2) may hold spaces and parentheses, so
/// fields are counted from its closing `)`.
pub fn parse_stat(stat: &str) -> Option<CpuTimes> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let ticks = |f: Option<&str>| -> Option<Duration> {
        let t: u64 = f?.parse().ok()?;
        Some(Duration::from_millis(t * 1000 / USER_HZ))
    };
    let user = ticks(fields.next())?;
    let system = ticks(fields.next())?;
    Some(CpuTimes { user, system })
}

/// The number in a `Key:   value [kB]` line of `/proc/<pid>/status`.
pub fn parse_status(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// CPU time of this process so far.
pub fn cpu_times() -> CpuTimes {
    parse_stat(&read("/proc/self/stat")).unwrap_or_default()
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    parse_status(&read("/proc/self/status"), "VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Live threads of this process.
pub fn threads() -> u64 {
    parse_status(&read("/proc/self/status"), "Threads").unwrap_or(0)
}

/// CPU time the calling thread has consumed, in ns
/// (`CLOCK_THREAD_CPUTIME_ID`). Unlike wall time it leaves out the time
/// other processes held the core.
#[allow(unsafe_code)]
pub fn thread_cpu_ns() -> u64 {
    /// `struct timespec` of 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable timespec with the layout the C
    // library expects on 64-bit Linux (the only target this package
    // builds for), and clock_gettime writes nothing but that struct.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// A measurement window: wall clock and process CPU between open and close.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    wall: Instant,
    cpu: CpuTimes,
}

/// What a [`Window`] saw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowStats {
    /// Wall time between open and close.
    pub wall: Duration,
    /// Process CPU time over wall time.
    pub cpu_cores: f64,
    /// Share of that CPU time spent in the kernel.
    pub cpu_sys_share: f64,
    /// Live threads at close.
    pub threads: u64,
}

impl Window {
    /// Open a window now.
    pub fn open() -> Window {
        Window { wall: Instant::now(), cpu: cpu_times() }
    }

    /// Close the window now.
    pub fn close(&self) -> WindowStats {
        let cpu = cpu_times();
        let wall = self.wall.elapsed();
        let user = cpu.user.saturating_sub(self.cpu.user).as_secs_f64();
        let system = cpu.system.saturating_sub(self.cpu.system).as_secs_f64();
        WindowStats {
            wall,
            cpu_cores: (user + system) / wall.as_secs_f64(),
            cpu_sys_share: crate::stats::ratio(system, user + system),
            threads: threads(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        let line = "4242 (ssr perf (x)) S 1 4242 4242 0 -1 4194304 1200 0 3 0 \
                    250 37 0 0 20 0 5 0 12345 1000000 2000 18446744073709551615";
        let cpu = parse_stat(line).unwrap();
        assert_eq!(cpu.user, Duration::from_millis(2500));
        assert_eq!(cpu.system, Duration::from_millis(370));
        assert_eq!(parse_stat("garbage"), None);
        assert_eq!(parse_stat("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_lines_yield_their_number() {
        let status = "Name:\tssr-perf\nVmPeak:\t  20000 kB\nVmHWM:\t   10240 kB\n\
                      VmRSS:\t    9000 kB\nThreads:\t17\n";
        assert_eq!(parse_status(status, "VmHWM"), Some(10240));
        assert_eq!(parse_status(status, "Threads"), Some(17));
        assert_eq!(parse_status(status, "VmSwap"), None);
    }

    #[test]
    fn thread_cpu_clock_counts_only_running_time() {
        let before = thread_cpu_ns();
        std::thread::sleep(Duration::from_millis(30));
        let slept = thread_cpu_ns() - before;
        assert!(slept < 10_000_000, "sleeping cost {slept} ns of CPU");
        let busy = Instant::now();
        let mut x = 0u64;
        while busy.elapsed() < Duration::from_millis(30) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(thread_cpu_ns() - before > 20_000_000, "spinning was not counted");
    }

    #[test]
    fn this_process_is_readable() {
        assert!(peak_rss_mb() > 0.0);
        assert!(threads() >= 1);
        let window = Window::open();
        let mut x = 0u64;
        let busy = Instant::now();
        while busy.elapsed() < Duration::from_millis(50) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let stats = window.close();
        assert!(stats.wall >= Duration::from_millis(50));
        assert!((0.0..=1.0).contains(&stats.cpu_sys_share));
    }
}
