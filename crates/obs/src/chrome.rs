//! Chrome `trace_event` / Perfetto exporter: phase timelines with one lane
//! (tid) per pool worker.
//!
//! Load the output at `chrome://tracing` or <https://ui.perfetto.dev>. The
//! format is the JSON Array Format of the Trace Event spec: `B`/`E`
//! duration events with microsecond timestamps, `C` counter events for the
//! recorded counter-series samples (spilled bytes, frontier length, … as
//! area charts on the timeline), plus `thread_name`
//! metadata events naming lane 0 `main` and lane *w* `worker-w`. This sink
//! is intentionally wall-clock based and therefore *not* deterministic —
//! the deterministic sinks are `MetricsReport` and the JSONL stream.

use crate::report::json_escape;
use crate::Snapshot;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Renders `snap` as a Trace Event JSON document.
#[must_use]
pub fn chrome_trace(snap: &Snapshot) -> String {
    // (t_ns, lane, begin, name, track) — sorted so begins/ends nest sanely
    // for the viewer even though tracks are captured independently.
    let mut events: Vec<(u64, u32, bool, &'static str, String)> = Vec::new();
    let mut lanes: BTreeSet<u32> = BTreeSet::new();
    for (path, data) in &snap.tracks {
        let track: Vec<String> = path.iter().map(u32::to_string).collect();
        let track = track.join(".");
        for ev in &data.spans {
            lanes.insert(ev.lane);
            events.push((ev.t_ns, ev.lane, ev.begin, ev.name, track.clone()));
        }
    }
    events.sort_by(|a, b| (a.0, a.1, !a.2, a.3).cmp(&(b.0, b.1, !b.2, b.3)));

    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for lane in &lanes {
        let name = if *lane == 0 {
            "main".to_string()
        } else {
            format!("worker-{lane}")
        };
        let sep = if first { "" } else { "," };
        first = false;
        let _ = write!(
            out,
            "{sep}\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{lane},\
             \"args\":{{\"name\":\"{name}\"}}}}"
        );
    }
    for (t_ns, lane, begin, name, track) in &events {
        let ph = if *begin { "B" } else { "E" };
        let us_whole = t_ns / 1_000;
        let us_frac = t_ns % 1_000;
        let sep = if first { "" } else { "," };
        first = false;
        let _ = write!(
            out,
            "{sep}\n{{\"name\":\"{}\",\"ph\":\"{ph}\",\"pid\":1,\"tid\":{lane},\
             \"ts\":{us_whole}.{us_frac:03},\"args\":{{\"track\":\"{}\"}}}}",
            json_escape(name),
            json_escape(track)
        );
    }

    // Counter-series samples become "C" events: one timeline area chart per
    // series name. t_ns-sorted across tracks so the viewer sees a monotone
    // series.
    let mut samples: Vec<(u64, &'static str, u64)> = snap
        .tracks
        .iter()
        .flat_map(|(_, data)| data.samples.iter().map(|s| (s.t_ns, s.name, s.value)))
        .collect();
    samples.sort_unstable();
    for (t_ns, name, value) in &samples {
        let us_whole = t_ns / 1_000;
        let us_frac = t_ns % 1_000;
        let sep = if first { "" } else { "," };
        first = false;
        let _ = write!(
            out,
            "{sep}\n{{\"name\":\"{}\",\"ph\":\"C\",\"pid\":1,\
             \"ts\":{us_whole}.{us_frac:03},\"args\":{{\"value\":{value}}}}}",
            json_escape(name)
        );
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SpanEvent, TrackData};

    #[test]
    fn emits_metadata_and_nested_duration_events() {
        let mut t = TrackData::default();
        t.spans.push(SpanEvent {
            name: "round",
            begin: true,
            lane: 2,
            t_ns: 1_500,
        });
        t.spans.push(SpanEvent {
            name: "round",
            begin: false,
            lane: 2,
            t_ns: 4_000,
        });
        let snap = Snapshot {
            tracks: vec![(vec![1], t)],
        };
        let json = chrome_trace(&snap);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"name\":\"worker-2\""));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"ts\":4.000"));
        assert!(json.contains("\"track\":\"1\""));
        assert!(json.trim_end().ends_with("\"displayTimeUnit\":\"ms\"}"));
    }

    #[test]
    fn emits_counter_series_samples_as_c_events() {
        use crate::CounterSample;
        let mut t = TrackData::default();
        t.samples.push(CounterSample {
            name: "spilled_bytes",
            t_ns: 9_000,
            value: 4096,
        });
        t.samples.push(CounterSample {
            name: "frontier",
            t_ns: 2_500,
            value: 64,
        });
        let snap = Snapshot {
            tracks: vec![(vec![0], t)],
        };
        let json = chrome_trace(&snap);
        assert!(json.contains(
            "{\"name\":\"spilled_bytes\",\"ph\":\"C\",\"pid\":1,\
             \"ts\":9.000,\"args\":{\"value\":4096}}"
        ));
        let frontier = json.find("\"name\":\"frontier\"").unwrap();
        let spilled = json.find("\"name\":\"spilled_bytes\"").unwrap();
        assert!(frontier < spilled, "samples are sorted by timestamp");
    }

    #[test]
    fn empty_snapshot_is_valid_document() {
        let json = chrome_trace(&Snapshot::default());
        assert_eq!(json, "{\"traceEvents\":[\n],\"displayTimeUnit\":\"ms\"}\n");
    }
}
