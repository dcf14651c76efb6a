//! The result of one run: named metrics with units and sample counts, a
//! human-readable summary, and the one-line JSON object that ends stdout.

use shm_scenario::json;

/// One measured metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// How many samples the value summarizes (1 for a single measurement
    /// or a count).
    pub samples: usize,
}

/// Everything one `run` reports.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Operations attempted: reps, probes and requests, each verified.
    pub attempted: u64,
    /// Attempted operations whose output failed verification.
    pub failed: u64,
    /// Every verification failure, for the log.
    pub errors: Vec<String>,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl RunReport {
    /// Records one verified operation; `errors` empty means it passed.
    pub fn record(&mut self, what: &str, errors: &[String]) {
        self.attempted += 1;
        if !errors.is_empty() {
            self.failed += 1;
            self.errors
                .extend(errors.iter().map(|e| format!("{what}: {e}")));
        }
    }

    /// Adds a metric. A non-finite value (a ratio over nothing) is recorded
    /// as a failure instead, since JSON cannot carry it.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        if value.is_finite() {
            self.metrics.push(Metric {
                name,
                value,
                unit,
                samples,
            });
        } else {
            self.errors
                .push(format!("metric {name} is not finite ({value})"));
        }
    }

    /// Whether every operation verified and every metric was measured.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// Prints the human-readable lines (one per metric, then any errors)
    /// to stdout.
    pub fn print_summary(&self, workload: &str) {
        for m in &self.metrics {
            println!(
                "{workload:<17} {:<34} {:>16} {:<6} (n={})",
                m.name,
                format_value(m.value),
                m.unit,
                m.samples
            );
        }
        for e in &self.errors {
            println!("{workload:<17} FAILED: {e}");
        }
    }

    /// The result object that ends stdout: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, on one line.
    #[must_use]
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    json::escape(m.name),
                    m.value,
                    json::escape(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn format_value(v: f64) -> String {
    if v.abs() >= 1e6 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_exactly_the_four_keys_and_parses() {
        let mut r = RunReport::default();
        r.record("rep", &[]);
        r.record("rep", &["explored: got 1, expected 2".into()]);
        r.metric("latency_p50_ms", 1.25, "ms", 9);
        r.metric("ratio", f64::NAN, "1", 1);
        let text = r.to_json();
        let v = json::parse(&text).expect("valid JSON");
        let json::Value::Obj(fields) = &v else {
            panic!("not an object: {text}");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct").and_then(json::Value::as_bool), Some(false));
        assert_eq!(v.get("attempted").and_then(json::Value::as_u64), Some(2));
        assert_eq!(v.get("failed").and_then(json::Value::as_u64), Some(1));
        let m = v.get("metrics").and_then(|m| m.get("latency_p50_ms"));
        assert_eq!(
            m.and_then(|m| m.get("value")).and_then(json::Value::as_f64),
            Some(1.25)
        );
        assert!(v.get("metrics").and_then(|m| m.get("ratio")).is_none());
    }
}
