//! Order statistics over timing samples, and the two `/proc` readers the
//! benchmark needs (peak resident set and process CPU time).

/// Sorted copy of `xs` (NaN-free input; the benchmark only sorts timings).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle pair for even counts); `None` when empty.
#[must_use]
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so the
/// spread printed here matches the one an outside checker computes. Needs at
/// least two samples.
#[must_use]
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    if v.len() < 2 {
        return None;
    }
    let m = v.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

/// The 1-based nearest rank of the `p`-th percentile among `n` samples.
/// The tolerance keeps `99.9 % of 10000` at rank 9990 despite rounding.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64) / 100.0 - 1e-9).ceil() as usize
}

/// The nearest-rank `p`-th percentile (`0 < p <= 100`); `None` when empty.
#[must_use]
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let v = sorted(xs);
    if v.is_empty() {
        return None;
    }
    Some(v[rank(p, v.len()).clamp(1, v.len()) - 1])
}

/// Percentiles a tail is reported at, highest first.
const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest of [`TAIL_CANDIDATES`] that still has at least ten of `n`
/// samples strictly beyond its rank — the tail a sample of this size can
/// actually support. `None` below eleven samples.
#[must_use]
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| n >= 11 && n.saturating_sub(rank(p, n)) >= 10)
}

/// Peak resident set size (`VmHWM`) in bytes, parsed from the text of a
/// `/proc/<pid>/status` file.
#[must_use]
pub fn vm_hwm_bytes(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let value: u64 = parts.next()?.parse().ok()?;
    match parts.next() {
        Some("kB") => Some(value * 1024),
        _ => None,
    }
}

/// Peak resident set size of process `pid` (`"self"` for this one) in MiB.
#[must_use]
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    vm_hwm_bytes(&status).map(|b| b as f64 / (1024.0 * 1024.0))
}

/// `utime + stime` in clock ticks from the text of a `/proc/<pid>/stat`
/// file. The command name may contain spaces and parentheses, so fields are
/// counted from the last `)`.
#[must_use]
pub fn cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Linux reports `/proc` CPU times in USER_HZ ticks, which is 100 on every
/// architecture the kernel exports to user space.
const TICKS_PER_SECOND: f64 = 100.0;

/// CPU seconds (user + system, all threads) process `pid` (`"self"` for
/// this one) has used so far.
#[must_use]
pub fn cpu_seconds(pid: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    cpu_ticks(&stat).map(|t| t as f64 / TICKS_PER_SECOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: with two
        // samples the cut points extrapolate past the sample range.
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some((1.0, 5.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 99.0), Some(99.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn supported_tail_keeps_ten_samples_beyond() {
        assert_eq!(supported_tail(10), None);
        assert_eq!(supported_tail(11), None, "p50 of 11 has only 5 beyond");
        assert_eq!(supported_tail(20), Some(50.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(999), Some(95.0));
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
    }

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tbenchmark\nVmPeak:\t  300000 kB\nVmHWM:\t   20480 kB\nVmRSS:\t1 kB\n";
        assert_eq!(vm_hwm_bytes(status), Some(20480 * 1024));
        assert_eq!(vm_hwm_bytes("Name:\tx\n"), None);
        assert_eq!(vm_hwm_bytes("VmHWM:\tlots kB\n"), None);
        assert!(peak_rss_mb("self").is_some_and(|mb| mb > 0.0));
    }

    #[test]
    fn parses_stat_cpu_ticks_past_a_tricky_comm() {
        // pid (comm) state ppid pgrp session tty tpgid flags minflt cminflt
        // majflt cmajflt utime stime ...
        let stat = "42 (a) b (c)) S 1 42 42 0 -1 4194560 100 0 0 0 250 37 0 0 20 0 3";
        assert_eq!(cpu_ticks(stat), Some(287));
        assert_eq!(cpu_ticks("42 (x) S 1"), None);
        assert!(cpu_seconds("self").is_some());
    }
}
