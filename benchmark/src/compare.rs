//! `benchmark compare`: judges two result sets, metric by metric and
//! workload by workload, against the bounds `BENCHMARK.json` fixes.

use crate::stats::{median, quartiles};
use shm_scenario::json::{self, Value};
use std::collections::BTreeMap;

/// The verdict for one (metric, workload).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B beats A by more than either set's run-to-run spread.
    Better,
    /// B is within the bound of A and not clearly better.
    Same,
    /// B is worse than A by more than the bound.
    Worse,
    /// The spread of A or B exceeds the bound, so the runs cannot tell
    /// (unless every B run beats every A run).
    Unresolved,
}

/// Interquartile range as a share of the median (0 below two samples).
fn spread(xs: &[f64]) -> f64 {
    match (quartiles(xs), median(xs)) {
        (Some((q1, q3)), Some(m)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// Judges runs `b` against base runs `a`; `higher` says which way is better.
#[must_use]
pub fn verdict(a: &[f64], b: &[f64], higher: bool, bound: f64) -> Verdict {
    let (Some(ma), Some(mb)) = (median(a), median(b)) else {
        return Verdict::Unresolved;
    };
    let worse_by = if higher { ma - mb } else { mb - ma } / ma.abs().max(f64::MIN_POSITIVE);
    let fold = |xs: &[f64], max: bool| {
        xs.iter().copied().fold(
            if max { f64::MIN } else { f64::MAX },
            if max { f64::max } else { f64::min },
        )
    };
    let all_better = if higher {
        fold(b, false) > fold(a, true)
    } else {
        fold(b, true) < fold(a, false)
    };
    let (sa, sb) = (spread(a), spread(b));
    if sa.max(sb) > bound && !all_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > sa.max(sb) {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// `(workload, metric) → values` of the untraced runs in a result set (one
/// `all --out` JSON object per line).
fn samples(text: &str) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if v.get("trace").and_then(Value::as_u64) != Some(0) {
            continue;
        }
        let w = v
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {}: no workload", i + 1))?;
        let Some(Value::Obj(metrics)) = v.get("result").and_then(|r| r.get("metrics")) else {
            return Err(format!("line {}: no result metrics", i + 1));
        };
        for (name, m) in metrics {
            if let Some(x) = m.get("value").and_then(Value::as_f64) {
                out.entry((w.to_owned(), name.clone())).or_default().push(x);
            }
        }
    }
    Ok(out)
}

/// One printed line per (workload, end-to-end metric) present in both sets.
pub fn compare(bench_json: &str, a: &str, b: &str) -> Result<Vec<String>, String> {
    let spec = json::parse(bench_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let metrics = spec
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let (sa, sb) = (samples(a)?, samples(b)?);
    let mut workloads: Vec<&String> = sa.keys().map(|(w, _)| w).collect();
    workloads.dedup();
    let mut lines = Vec::new();
    for w in workloads {
        for m in metrics {
            let name = m.get("name").and_then(Value::as_str).unwrap_or_default();
            let higher = m.get("better").and_then(Value::as_str) == Some("higher");
            let bound = m.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
            let key = (w.clone(), name.to_owned());
            let (Some(xa), Some(xb)) = (sa.get(&key), sb.get(&key)) else {
                continue;
            };
            let (ma, mb) = (median(xa).unwrap_or(0.0), median(xb).unwrap_or(0.0));
            lines.push(format!(
                "{w:<17} {name:<18} A {ma:>14.4} (spread {:>5.1}%, n={}) B {mb:>14.4} (spread {:>5.1}%, n={}) \
                 change {:>+6.1}% bound {:.0}%: {:?}",
                spread(xa) * 100.0,
                xa.len(),
                spread(xb) * 100.0,
                xb.len(),
                (mb - ma) / ma.abs().max(f64::MIN_POSITIVE) * 100.0,
                bound * 100.0,
                verdict(xa, xb, higher, bound),
            ));
        }
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: [f64; 5] = [100.0, 101.0, 99.0, 100.5, 99.5];

    #[test]
    fn verdicts() {
        let shift = |k: f64| A.map(|x| x * k);
        // Throughput (higher is better) with a 10 % bound.
        assert_eq!(verdict(&A, &shift(1.0), true, 0.1), Verdict::Same);
        assert_eq!(verdict(&A, &shift(0.95), true, 0.1), Verdict::Same);
        assert_eq!(verdict(&A, &shift(0.8), true, 0.1), Verdict::Worse);
        assert_eq!(verdict(&A, &shift(1.2), true, 0.1), Verdict::Better);
        // Latency (lower is better): the same shifts read the other way.
        assert_eq!(verdict(&A, &shift(1.2), false, 0.1), Verdict::Worse);
        assert_eq!(verdict(&A, &shift(0.8), false, 0.1), Verdict::Better);
        // A spread wider than the bound cannot resolve a small change...
        let noisy = [50.0, 150.0, 100.0, 70.0, 130.0];
        assert_eq!(
            verdict(&noisy, &shift(0.95), true, 0.1),
            Verdict::Unresolved
        );
        // ...unless every B run beats every A run.
        assert_eq!(verdict(&noisy, &[200.0, 210.0], true, 0.1), Verdict::Better);
    }

    #[test]
    fn compares_result_sets_against_the_bounds() {
        let bench = r#"{"end_to_end": [
            {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}"#;
        let line = |w: &str, v: f64, trace: u8| {
            format!(
                r#"{{"workload": "{w}", "seed": 1, "trace": {trace}, "result": {{"correct": true, "attempted": 1, "failed": 0, "metrics": {{"latency_p50_ms": {{"value": {v}, "unit": "ms"}}}}}}}}"#
            )
        };
        let a = [line("x", 10.0, 0), line("x", 10.1, 0), line("x", 99.0, 1)].join("\n");
        let b = [line("x", 13.0, 0), line("x", 13.1, 0)].join("\n");
        let lines = compare(bench, &a, &b).expect("compares");
        assert_eq!(lines.len(), 1);
        assert!(lines[0].ends_with("Worse"), "{}", lines[0]);
        assert!(compare(bench, "not json", &b).is_err());
    }
}
