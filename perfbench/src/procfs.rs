//! Process counters: peak RSS and CPU time from `/proc/self`, context
//! switches from `getrusage`.
//!
//! `/proc/self/status` reports context switches for the main thread only,
//! and worker threads that exit take theirs with them; `getrusage`
//! (`RUSAGE_SELF`) counts every thread the process ever ran, which is
//! what thread churn shows up in.

/// Clock ticks per second of `/proc/self/stat` times (`USER_HZ`, 100 on
/// every Linux architecture this builds for).
const TICKS_PER_SEC: f64 = 100.0;

/// `VmHWM` (peak resident set, KiB) from `/proc/self/status` text.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kib = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(kib)
}

/// User and system CPU seconds from `/proc/self/stat` text (fields 14
/// and 15). The command name in field 2 may hold spaces and parentheses,
/// so fields are counted after its last `)`.
pub fn parse_cpu_secs(stat: &str) -> Option<(f64, f64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `fields[0]` is field 3 (state), so field 14 is `fields[11]`.
    let ticks = |i: usize| fields.get(i)?.parse::<u64>().ok();
    Some((
        ticks(11)? as f64 / TICKS_PER_SEC,
        ticks(12)? as f64 / TICKS_PER_SEC,
    ))
}

/// This process's peak RSS in KiB.
pub fn vm_hwm_kib() -> Option<u64> {
    parse_vm_hwm_kib(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// A point-in-time reading of the process counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcSample {
    /// User CPU seconds, all threads.
    pub user_s: f64,
    /// System CPU seconds, all threads.
    pub sys_s: f64,
    /// Voluntary plus involuntary context switches, all threads.
    pub ctx_switches: u64,
}

impl ProcSample {
    /// Reads the counters now; a counter that cannot be read reads 0.
    pub fn now() -> Self {
        let (user_s, sys_s) = std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|s| parse_cpu_secs(&s))
            .unwrap_or((0.0, 0.0));
        ProcSample {
            user_s,
            sys_s,
            ctx_switches: ctx_switches().unwrap_or(0),
        }
    }

    /// Counter growth from `earlier` to `self`.
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
        }
    }
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn ctx_switches() -> Option<u64> {
    /// `struct rusage` on 64-bit Linux: two `struct timeval`s (user and
    /// system time, two longs each), then fourteen longs ending in
    /// `ru_nvcsw` and `ru_nivcsw`.
    #[repr(C)]
    struct Rusage {
        // Written by `getrusage`; CPU time is read from `/proc/self/stat`.
        #[allow(dead_code)]
        times: [i64; 4],
        counters: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage {
        times: [0; 4],
        counters: [0; 14],
    };
    // SAFETY: `Rusage` has the layout of 64-bit Linux `struct rusage`, and
    // `getrusage` only writes one such struct through the pointer, which
    // points at a live, aligned local.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    (rc == 0).then(|| (usage.counters[12] + usage.counters[13]) as u64)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn ctx_switches() -> Option<u64> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tentk-perfbench\nVmPeak:\t  250000 kB\n\
        VmHWM:\t   53124 kB\nVmRSS:\t   50000 kB\nThreads:\t3\n\
        voluntary_ctxt_switches:\t120\nnonvoluntary_ctxt_switches:\t7\n";

    #[test]
    fn vm_hwm_parses_from_status() {
        assert_eq!(parse_vm_hwm_kib(STATUS), Some(53124));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\nVmRSS:\t5 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t5 MB\n"), None);
    }

    #[test]
    fn cpu_times_parse_from_stat_with_awkward_command_names() {
        let stat = "4242 (perf (bench) x) R 1 4242 4242 0 -1 4194560 \
                    900 0 0 0 250 37 0 0 20 0 3 0 12345 0 0";
        assert_eq!(parse_cpu_secs(stat), Some((2.5, 0.37)));
        assert_eq!(parse_cpu_secs("4242 (x) R 1 2"), None);
        assert_eq!(parse_cpu_secs("no parenthesis"), None);
    }

    #[test]
    fn live_counters_read_and_grow() {
        let a = ProcSample::now();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        std::thread::spawn(|| ()).join().expect("thread ran");
        let d = ProcSample::now().since(&a);
        assert!(d.user_s >= 0.0 && d.sys_s >= 0.0);
        assert!(vm_hwm_kib().is_some_and(|k| k > 0));
        assert!(ctx_switches().is_some_and(|c| c > 0), "{x}");
    }
}
