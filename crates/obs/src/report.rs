//! Deterministic sinks: the in-memory [`MetricsReport`] (canonical JSON)
//! and the JSONL event stream.

use crate::{registry, CounterKey, Snapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escapes `s` for a JSON string literal: backslashes and double quotes.
pub(crate) fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// In-memory aggregation of a snapshot's **deterministic** counters:
/// per-counter totals with per-scope, per-cost-model, per-process, and
/// per-location breakdowns (the RMR/local-access histograms of the
/// issue). Byte-identical across thread counts by construction, because
/// the underlying snapshot is.
#[derive(Clone, Debug, Default)]
pub struct MetricsReport {
    cells: BTreeMap<CounterKey, u64>,
}

impl MetricsReport {
    /// Aggregates `snap` across tracks, keeping deterministic counters only.
    #[must_use]
    pub fn from_snapshot(snap: &Snapshot) -> MetricsReport {
        let mut cells: BTreeMap<CounterKey, u64> = BTreeMap::new();
        for (_path, data) in &snap.tracks {
            for (key, v) in &data.counters {
                if registry::is_deterministic(key.name) {
                    *cells.entry(key.clone()).or_default() += v;
                }
            }
        }
        MetricsReport { cells }
    }

    /// Counter names present in the report, in canonical order.
    #[must_use]
    pub fn names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self.cells.keys().map(|k| k.name).collect();
        names.dedup();
        names
    }

    /// Total of counter `name` over all attribution dimensions.
    #[must_use]
    pub fn total(&self, name: &str) -> u64 {
        self.filtered(name, |_| true)
    }

    /// Total of counter `name` within phase `scope`.
    #[must_use]
    pub fn scoped(&self, name: &str, scope: &str) -> u64 {
        self.filtered(name, |k| k.scope == Some(scope))
    }

    /// Per-cost-model totals of counter `name`.
    #[must_use]
    pub fn by_model(&self, name: &str) -> BTreeMap<&'static str, u64> {
        self.marginal(name, |k| k.model)
    }

    /// Per-scope totals of counter `name`.
    #[must_use]
    pub fn by_scope(&self, name: &str) -> BTreeMap<&'static str, u64> {
        self.marginal(name, |k| k.scope)
    }

    /// Per-process totals of counter `name`.
    #[must_use]
    pub fn by_process(&self, name: &str) -> BTreeMap<u32, u64> {
        self.marginal(name, |k| k.pid)
    }

    /// Per-location totals of counter `name`.
    #[must_use]
    pub fn by_location(&self, name: &str) -> BTreeMap<u32, u64> {
        self.marginal(name, |k| k.loc)
    }

    fn filtered(&self, name: &str, pred: impl Fn(&CounterKey) -> bool) -> u64 {
        self.cells
            .iter()
            .filter(|(k, _)| k.name == name && pred(k))
            .map(|(_, v)| v)
            .sum()
    }

    fn marginal<D: Ord>(
        &self,
        name: &str,
        dim: impl Fn(&CounterKey) -> Option<D>,
    ) -> BTreeMap<D, u64> {
        let mut out = BTreeMap::new();
        for (k, v) in &self.cells {
            if k.name == name {
                if let Some(d) = dim(k) {
                    *out.entry(d).or_default() += v;
                }
            }
        }
        out
    }

    /// Canonical JSON: `schema` tag plus one object per counter with its
    /// total and the non-empty marginal breakdowns. Stable key order
    /// (BTreeMap everywhere), 2-space indentation, no timestamps —
    /// byte-identical across runs and thread counts.
    #[must_use]
    pub fn to_json(&self) -> String {
        fn map_block<K: std::fmt::Display>(
            out: &mut String,
            label: &str,
            m: &BTreeMap<K, u64>,
            trailing: bool,
        ) {
            if m.is_empty() {
                return;
            }
            let _ = write!(out, ",\n      \"{label}\": {{");
            for (i, (k, v)) in m.iter().enumerate() {
                let sep = if i == 0 { "" } else { "," };
                let _ = write!(out, "{sep}\n        \"{k}\": {v}");
            }
            out.push_str("\n      }");
            let _ = trailing;
        }

        let mut out = String::from("{\n  \"schema\": \"shm-obs/metrics/v1\",\n  \"counters\": {");
        let names = self.names();
        for (i, name) in names.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    \"{}\": {{\n      \"total\": {}",
                json_escape(name),
                self.total(name)
            );
            map_block(&mut out, "by_scope", &self.by_scope(name), false);
            map_block(&mut out, "by_model", &self.by_model(name), false);
            map_block(&mut out, "by_process", &self.by_process(name), false);
            map_block(&mut out, "by_location", &self.by_location(name), false);
            out.push_str("\n    }");
        }
        if names.is_empty() {
            out.push_str("},\n");
        } else {
            out.push_str("\n  },\n");
        }
        let _ = write!(out, "  \"counter_count\": {}\n}}\n", self.cells.len());
        out
    }
}

/// JSONL event stream: one line per span boundary or counter cell, tracks
/// in canonical order, stable field order. Without `wall`, lanes,
/// timestamps, and nondeterministic counters are omitted so the stream is
/// byte-deterministic across runs and thread counts; with `wall`,
/// `t_ns`/`lane` fields and the scheduling-dependent counters appear.
#[must_use]
pub fn jsonl(snap: &Snapshot, wall: bool) -> String {
    fn path_json(path: &[u32]) -> String {
        let parts: Vec<String> = path.iter().map(u32::to_string).collect();
        format!("[{}]", parts.join(","))
    }

    let mut out = String::new();
    for (path, data) in &snap.tracks {
        let track = path_json(path);
        for ev in &data.spans {
            let ty = if ev.begin { "span_begin" } else { "span_end" };
            let _ = write!(
                out,
                "{{\"type\":\"{ty}\",\"track\":{track},\"name\":\"{}\"",
                json_escape(ev.name)
            );
            if wall {
                let _ = write!(out, ",\"lane\":{},\"t_ns\":{}", ev.lane, ev.t_ns);
            }
            out.push_str("}\n");
        }
        for (key, value) in &data.counters {
            if !wall && !registry::is_deterministic(key.name) {
                continue;
            }
            let _ = write!(
                out,
                "{{\"type\":\"counter\",\"track\":{track},\"name\":\"{}\"",
                json_escape(key.name)
            );
            if let Some(s) = key.scope {
                let _ = write!(out, ",\"scope\":\"{}\"", json_escape(s));
            }
            if let Some(m) = key.model {
                let _ = write!(out, ",\"model\":\"{}\"", json_escape(m));
            }
            if let Some(p) = key.pid {
                let _ = write!(out, ",\"pid\":{p}");
            }
            if let Some(l) = key.loc {
                let _ = write!(out, ",\"loc\":{l}");
            }
            let _ = writeln!(out, ",\"value\":{value}}}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SpanEvent, TrackData};

    fn sample() -> Snapshot {
        let mut t0 = TrackData::default();
        t0.spans.push(SpanEvent {
            name: "phase",
            begin: true,
            lane: 0,
            t_ns: 10,
        });
        t0.spans.push(SpanEvent {
            name: "phase",
            begin: false,
            lane: 0,
            t_ns: 90,
        });
        t0.counters.insert(
            CounterKey {
                scope: Some("part1"),
                model: Some("dsm"),
                pid: Some(3),
                loc: Some(1),
                ..CounterKey::plain("sim.rmr")
            },
            7,
        );
        t0.counters.insert(
            CounterKey {
                scope: Some("chase"),
                model: Some("dsm"),
                pid: Some(0),
                loc: Some(1),
                ..CounterKey::plain("sim.rmr")
            },
            5,
        );
        t0.counters.insert(CounterKey::plain("pool.steal"), 99); // nondeterministic
        Snapshot {
            tracks: vec![(vec![0], t0)],
        }
    }

    #[test]
    fn report_marginals_aggregate_correctly() {
        let r = MetricsReport::from_snapshot(&sample());
        assert_eq!(r.total("sim.rmr"), 12);
        assert_eq!(r.scoped("sim.rmr", "part1"), 7);
        assert_eq!(r.scoped("sim.rmr", "chase"), 5);
        assert_eq!(r.by_model("sim.rmr").get("dsm"), Some(&12));
        assert_eq!(r.by_process("sim.rmr").get(&3), Some(&7));
        assert_eq!(r.by_location("sim.rmr").get(&1), Some(&12));
        assert_eq!(r.total("pool.steal"), 0, "nondeterministic excluded");
    }

    #[test]
    fn json_is_stable_and_excludes_nondeterministic() {
        let r = MetricsReport::from_snapshot(&sample());
        let a = r.to_json();
        let b = MetricsReport::from_snapshot(&sample()).to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"schema\": \"shm-obs/metrics/v1\""));
        assert!(a.contains("\"sim.rmr\""));
        assert!(a.contains("\"by_scope\""));
        assert!(!a.contains("pool.steal"));
        assert!(a.ends_with("}\n"));
    }

    #[test]
    fn jsonl_hides_wall_fields_unless_requested() {
        let snap = sample();
        let plain = jsonl(&snap, false);
        assert!(plain.contains("\"type\":\"span_begin\""));
        assert!(!plain.contains("t_ns"));
        assert!(!plain.contains("pool.steal"));
        let wall = jsonl(&snap, true);
        assert!(wall.contains("\"t_ns\":10"));
        assert!(wall.contains("\"lane\":0"));
        assert!(wall.contains("pool.steal"));
        // Every line parses as a braced object with stable leading field.
        for line in plain.lines() {
            assert!(line.starts_with("{\"type\":\""));
            assert!(line.ends_with('}'));
        }
    }
}
