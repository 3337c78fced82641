//! `/proc/<pid>` readers: the server's CPU time, resident-set high
//! water and context switches, sampled from outside the process.

use std::io;

/// `(utime, stime)` in clock ticks from the text of `/proc/<pid>/stat`.
/// The process name (field 2) is parenthesised and may itself contain
/// spaces and `)`, so fields are counted from the *last* `)`.
pub fn parse_stat_ticks(stat: &str) -> Option<(u64, u64)> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // After the name: state ppid pgrp session tty tpgid flags minflt
    // cminflt majflt cmajflt utime stime ...
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    Some((fields.next()?.parse().ok()?, fields.next()?.parse().ok()?))
}

/// A `Key:   <n> kB` (or bare-number) field of a `status` file.
pub fn parse_status_field(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_ascii_whitespace().next()?.parse().ok()
    })
}

/// On-CPU nanoseconds of one thread: the first field of its `schedstat`.
pub fn parse_schedstat_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_ascii_whitespace().next()?.parse().ok()
}

/// One reading of a process's counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// CPU time consumed so far, in nanoseconds.
    pub cpu_ns: u64,
    /// Voluntary + involuntary context switches over all live threads.
    pub ctx_switches: u64,
}

/// Reads counters of one process.
pub struct ProcReader {
    pid: u32,
    ns_per_tick: u64,
    /// Whether the kernel keeps per-thread on-CPU time (`schedstat`).
    /// Then CPU time is the sum over live threads, to the nanosecond;
    /// otherwise utime + stime of `stat`, in 10 ms clock ticks — too
    /// coarse for `mine_lifecycle`'s load, whose CPU time repeats to
    /// the tick. Threads live through the timed windows (connections
    /// open before warm-up and close after), so the sum loses nothing
    /// there.
    per_thread_ns: bool,
}

impl ProcReader {
    pub fn new(pid: u32) -> Self {
        let per_thread_ns = std::fs::read_to_string(format!("/proc/{pid}/schedstat"))
            .ok()
            .and_then(|s| parse_schedstat_ns(&s))
            .is_some_and(|ns| ns > 0);
        ProcReader {
            pid,
            ns_per_tick: 1_000_000_000 / clock_ticks_per_second(),
            per_thread_ns,
        }
    }

    pub fn sample(&self) -> io::Result<ProcSample> {
        let mut sample = ProcSample::default();
        for task in std::fs::read_dir(format!("/proc/{}/task", self.pid))? {
            // A thread may exit between readdir and read; it is then
            // simply not counted.
            let task = task?.path();
            if let Ok(status) = std::fs::read_to_string(task.join("status")) {
                sample.ctx_switches += parse_status_field(&status, "voluntary_ctxt_switches")
                    .unwrap_or(0)
                    + parse_status_field(&status, "nonvoluntary_ctxt_switches").unwrap_or(0);
            }
            if self.per_thread_ns {
                if let Ok(schedstat) = std::fs::read_to_string(task.join("schedstat")) {
                    sample.cpu_ns += parse_schedstat_ns(&schedstat).unwrap_or(0);
                }
            }
        }
        if !self.per_thread_ns {
            let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid))?;
            let (utime, stime) = parse_stat_ticks(&stat).ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, "malformed /proc stat")
            })?;
            sample.cpu_ns = (utime + stime) * self.ns_per_tick;
        }
        Ok(sample)
    }

    /// Peak resident set (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid))?;
        parse_status_field(&status, "VmHWM")
            .map(|kb| kb as f64 / 1024.0)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM in /proc status"))
    }
}

/// `sysconf(_SC_CLK_TCK)` by way of `getconf` (no libc binding here);
/// 100, the value on every mainstream Linux ABI, when that fails.
fn clock_ticks_per_second() -> u64 {
    std::process::Command::new("getconf")
        .arg("CLK_TCK")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.trim().parse().ok())
        .filter(|&t| t > 0)
        .unwrap_or(100)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parsing_survives_parens_and_spaces_in_the_name() {
        let plain =
            "42 (frapp-serve) S 1 42 42 0 -1 4194560 500 0 0 0 1234 567 0 0 20 0 3 0 100 0 0";
        assert_eq!(parse_stat_ticks(plain), Some((1234, 567)));
        let nasty = "42 (a) b (c)) d) R 1 42 42 0 -1 4194560 500 0 0 0 9 8 0 0 20 0 3 0 100 0 0";
        assert_eq!(parse_stat_ticks(nasty), Some((9, 8)));
        assert_eq!(parse_stat_ticks("42 (truncated) S 1 2"), None);
        assert_eq!(parse_stat_ticks("no parens"), None);
    }

    #[test]
    fn status_fields() {
        let status = "Name:\tx\nVmHWM:\t   3584 kB\nvoluntary_ctxt_switches:\t17\nnonvoluntary_ctxt_switches:\t4\n";
        assert_eq!(parse_status_field(status, "VmHWM"), Some(3584));
        assert_eq!(
            parse_status_field(status, "voluntary_ctxt_switches"),
            Some(17)
        );
        assert_eq!(
            parse_status_field(status, "nonvoluntary_ctxt_switches"),
            Some(4)
        );
        assert_eq!(parse_status_field(status, "VmRSS"), None);
    }

    #[test]
    fn schedstat_run_time_is_the_first_field() {
        assert_eq!(
            parse_schedstat_ns("517213731 215262441 436\n"),
            Some(517213731)
        );
        assert_eq!(parse_schedstat_ns(""), None);
    }

    #[test]
    fn reads_this_process() {
        let reader = ProcReader::new(std::process::id());
        assert!(reader.peak_rss_mb().unwrap() > 0.0);
        reader.sample().unwrap();
    }
}
