//! CPU time and memory of a process, read from `/proc`.

use std::fs;

/// Kernel clock ticks per second (`USER_HZ`); 100 on every Linux the
/// ledger runs on, and not discoverable from std.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds of `pid` so far (all threads), from
/// `/proc/<pid>/stat`; `None` if the process is gone.
#[must_use]
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may contain spaces; fields resume after ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SECOND)
}

/// CPU seconds of `pid` so far at nanosecond resolution: the run time
/// of every live thread from `/proc/<pid>/task/*/schedstat`.  Threads
/// that exited are not counted, so this is for processes whose threads
/// outlive the measurement (the `gemmd-serve` child: its pool workers
/// retire only after 30 idle seconds); it matters there because the
/// server burns ~25 of `/proc/<pid>/stat`'s 10 ms ticks in a run.
/// Falls back to [`cpu_seconds`] where schedstats are unavailable.
#[must_use]
pub fn cpu_seconds_fine(pid: u32) -> Option<f64> {
    let tasks = fs::read_dir(format!("/proc/{pid}/task")).ok()?;
    let mut total_ns = 0u64;
    for task in tasks.flatten() {
        let Ok(text) = fs::read_to_string(task.path().join("schedstat")) else {
            return cpu_seconds(pid);
        };
        match text
            .split_whitespace()
            .next()
            .and_then(|f| f.parse::<u64>().ok())
        {
            Some(ns) => total_ns += ns,
            None => return cpu_seconds(pid),
        }
    }
    Some(total_ns as f64 / 1e9)
}

fn status_mb(pid: u32, key: &str) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set (`VmHWM`) of `pid` in MB.
#[must_use]
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    status_mb(pid, "VmHWM:")
}

/// Current resident set (`VmRSS`) of `pid` in MB.
#[must_use]
pub fn rss_mb(pid: u32) -> Option<f64> {
    status_mb(pid, "VmRSS:")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_process() {
        let me = std::process::id();
        assert!(cpu_seconds(me).unwrap() >= 0.0);
        let hwm = peak_rss_mb(me).unwrap();
        assert!(hwm > 0.0 && hwm >= rss_mb(me).unwrap() * 0.5);
        assert!(cpu_seconds(u32::MAX - 1).is_none());
        let before = cpu_seconds_fine(me).unwrap();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds_fine(me).unwrap() > before);
        assert!(cpu_seconds_fine(u32::MAX - 1).is_none());
    }
}
