//! What the kernel says about this process and this machine: CPU time,
//! context switches, threads, peak resident memory, load average.
//!
//! Everything is read from `/proc`; the parsers take the file's text so the
//! unit tests can feed them fixed samples.

use std::fs;

/// Kernel clock ticks per second for `utime`/`stime` in `/proc/<pid>/stat`.
/// Linux has reported 100 to user space on every architecture since 2.6,
/// whatever the kernel's own HZ.
const TICKS_PER_SEC: f64 = 100.0;

/// CPU time a process has used, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CpuTimes {
    pub user_secs: f64,
    pub sys_secs: f64,
}

/// Parses the `utime` and `stime` fields (14 and 15) of `/proc/<pid>/stat`.
///
/// The second field is the command name in parentheses and may itself
/// contain spaces and parentheses, so fields are counted from the *last*
/// closing parenthesis.
pub fn parse_stat_cpu(stat: &str) -> Option<CpuTimes> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // after_comm starts at field 3 (state): utime is the 12th field of it.
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some(CpuTimes {
        user_secs: utime / TICKS_PER_SEC,
        sys_secs: stime / TICKS_PER_SEC,
    })
}

/// Value of a `Key:   <number> [kB]` line of `/proc/<pid>/status`.
pub fn parse_status_field(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_ascii_whitespace().next()?.parse().ok()
    })
}

/// Peak resident set size (`VmHWM`) in MB (10^6 bytes) from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    parse_status_field(status, "VmHWM").map(|kb| kb as f64 * 1024.0 / 1e6)
}

/// Voluntary plus involuntary context switches of one task.
pub fn parse_ctx_switches(status: &str) -> Option<u64> {
    Some(
        parse_status_field(status, "voluntary_ctxt_switches")?
            + parse_status_field(status, "nonvoluntary_ctxt_switches")?,
    )
}

/// The 1-minute load average from the text of `/proc/loadavg`.
pub fn parse_loadavg_1m(loadavg: &str) -> Option<f64> {
    loadavg.split_ascii_whitespace().next()?.parse().ok()
}

/// Process counters sampled at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ProcSample {
    pub cpu: CpuTimes,
    /// Context switches summed over the threads alive at the sample.
    pub ctx_switches: u64,
    pub threads: u64,
}

/// Samples this process. Counters of threads that have already exited are
/// not in `/proc/self/task`, so callers sample while the threads they care
/// about are still alive. A file that cannot be read counts as zero: the
/// per-layer numbers built on this are diagnostics, not results.
pub fn sample_self() -> ProcSample {
    let cpu = fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu(&s))
        .unwrap_or_default();
    let mut ctx_switches = 0;
    let mut threads = 0;
    if let Ok(tasks) = fs::read_dir("/proc/self/task") {
        for task in tasks.flatten() {
            if let Ok(status) = fs::read_to_string(task.path().join("status")) {
                threads += 1;
                ctx_switches += parse_ctx_switches(&status).unwrap_or(0);
            }
        }
    }
    ProcSample {
        cpu,
        ctx_switches,
        threads,
    }
}

/// Peak resident set size of this process in MB.
pub fn peak_rss_mb() -> Option<f64> {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_mb(&s))
}

pub fn loadavg_1m() -> Option<f64> {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| parse_loadavg_1m(&s))
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (bench (v2) x) S 1 4242 4242 0 -1 4194560 2153 0 0 0 \
                        1234 5678 0 0 20 0 11 0 123456 2500000000 9000 18446744073709551615 \
                        1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";

    const STATUS: &str = "Name:\tbenchmark\nUmask:\t0022\nState:\tS (sleeping)\n\
        VmPeak:\t  250000 kB\nVmSize:\t  240000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t   40000 kB\n\
        Threads:\t11\nvoluntary_ctxt_switches:\t1500\nnonvoluntary_ctxt_switches:\t25\n";

    #[test]
    fn stat_cpu_fields_survive_a_hostile_command_name() {
        let cpu = parse_stat_cpu(STAT).unwrap();
        assert_eq!(cpu.user_secs, 12.34);
        assert_eq!(cpu.sys_secs, 56.78);
        assert!(parse_stat_cpu("4242 (short) S 1 2").is_none());
        assert!(parse_stat_cpu("no parenthesis at all").is_none());
    }

    #[test]
    fn status_fields_parse_with_and_without_units() {
        assert_eq!(parse_status_field(STATUS, "Threads"), Some(11));
        assert_eq!(parse_status_field(STATUS, "VmHWM"), Some(51_200));
        // `VmHWM` must not match as a prefix of another key, nor `Vm` of it.
        assert_eq!(parse_status_field(STATUS, "Vm"), None);
        assert_eq!(parse_status_field(STATUS, "Missing"), None);
        assert_eq!(parse_vm_hwm_mb(STATUS), Some(51_200.0 * 1024.0 / 1e6));
        assert_eq!(parse_ctx_switches(STATUS), Some(1525));
        assert_eq!(parse_ctx_switches("voluntary_ctxt_switches:\t3\n"), None);
    }

    #[test]
    fn loadavg_takes_the_first_field() {
        assert_eq!(parse_loadavg_1m("0.08 0.45 0.99 3/87 14756\n"), Some(0.08));
        assert_eq!(parse_loadavg_1m(""), None);
    }

    #[test]
    fn live_sample_reads_this_process() {
        let sample = sample_self();
        assert!(sample.threads >= 1);
        assert!(peak_rss_mb().unwrap() > 0.0);
        assert!(loadavg_1m().is_some());
    }
}
