//! The flight-recorder contract, end to end: with a collector AND a
//! progress sink installed, the canon rows, the metrics report, the
//! deterministic JSONL event stream, and the sorted progress JSONL must
//! all be byte-identical at `threads = 1` and `threads = 4`; wall fields
//! leak into the progress stream only under the `--trace-wall` convention;
//! and the span-time profile aggregates the real experiment spans.
//!
//! The collector slot, the progress sink slot, and `shm_pool::set_threads`
//! are all process-global, so every test serializes on one mutex.

use bench::history::{self, Record};
use bench::{e10_pct, e2_dsm_lower_with, e9_explore};
use shm_obs::progress::{self, Config};
use shm_scenario::canon;
use std::collections::BTreeMap;
use std::sync::Mutex;

static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` at a fixed pool size, restoring the auto default afterwards.
fn at_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    shm_pool::set_threads(n);
    let r = f();
    shm_pool::set_threads(0);
    r
}

/// Everything a telemetry-enabled run renders deterministically.
struct Streams {
    canon: String,
    metrics: String,
    jsonl: String,
    progress: String,
}

/// Audited E2 with collector + progress sink (cadence 1: a frame per
/// adversary round and per audited step), all four streams captured.
fn audited_e2_streams(threads: usize, wall: bool) -> Streams {
    at_threads(threads, || {
        let c = shm_obs::Collector::new();
        shm_obs::install_collector(&c);
        progress::install(Config {
            every: Some(1),
            ticker: false,
            wall,
        });
        let rows = e2_dsm_lower_with(&[8, 12], true);
        let progress_out = progress::finish().expect("sink installed");
        shm_obs::uninstall();
        let snap = c.snapshot();
        Streams {
            canon: canon::e2_json(&rows),
            metrics: shm_obs::MetricsReport::from_snapshot(&snap).to_json(),
            jsonl: shm_obs::jsonl(&snap, false),
            progress: progress_out,
        }
    })
}

#[test]
fn audited_e2_all_streams_are_thread_count_independent_with_telemetry_on() {
    let _guard = TELEMETRY_LOCK.lock().unwrap();
    let serial = audited_e2_streams(1, false);
    let parallel = audited_e2_streams(4, false);
    assert_eq!(
        serial.progress, parallel.progress,
        "sorted progress JSONL must not depend on scheduling"
    );
    assert_eq!(serial.metrics, parallel.metrics);
    assert_eq!(serial.jsonl, parallel.jsonl);
    assert_eq!(serial.canon, parallel.canon);
    // The adversary emits one frame per round plus a summary; the audit
    // meters its walk's steps and sums it up.
    assert!(
        serial.progress.contains("\"source\":\"adversary\""),
        "{}",
        serial.progress
    );
    assert!(serial.progress.contains("\"source\":\"audit\""));
    assert!(serial.progress.contains("\"type\":\"progress_summary\""));
    assert!(serial.progress.contains("\"erased\":"));
    assert!(serial.progress.contains("\"models\":4"));
    // The progress-frame counter is declared nondeterministic, so the
    // metrics report (a deterministic sink) must not carry it.
    assert!(
        !serial.metrics.contains("progress.frames"),
        "{}",
        serial.metrics
    );
}

#[test]
fn e9_progress_stream_is_thread_count_independent_and_carries_trajectory() {
    let _guard = TELEMETRY_LOCK.lock().unwrap();
    let run = |threads: usize| {
        at_threads(threads, || {
            progress::install(Config {
                every: Some(50),
                ticker: false,
                wall: false,
            });
            let rows = e9_explore(2, 1);
            let out = progress::finish().expect("sink installed");
            (canon::e9_json(&rows), out)
        })
    };
    let (canon_1, progress_1) = run(1);
    let (canon_4, progress_4) = run(4);
    assert_eq!(progress_1, progress_4);
    assert_eq!(canon_1, canon_4);
    // Cadence 50 is far below the shipped state spaces, so periodic
    // explorer frames appear alongside the per-row summaries, and the
    // summaries carry the full memory trajectory that used to be printed
    // on stdout.
    assert!(
        progress_1.contains("\"source\":\"explore\""),
        "{progress_1}"
    );
    assert!(progress_1.contains("\"seq\":1"));
    assert!(progress_1.contains("\"type\":\"progress_summary\""));
    assert!(progress_1.contains("\"peak_frontier\":"));
    assert!(progress_1.contains("\"peak_visited_bytes\":"));
    assert!(progress_1.contains("\"spilled_bytes\":"));
    assert!(progress_1.contains("seeded-buggy"));
    assert!(
        !progress_1.contains("\"wall_ms\""),
        "wall fields are opt-in: {progress_1}"
    );
}

#[test]
fn e10_pct_fanout_emits_deterministic_schedule_frames() {
    let _guard = TELEMETRY_LOCK.lock().unwrap();
    let run = |threads: usize| {
        at_threads(threads, || {
            progress::install(Config {
                every: Some(16),
                ticker: false,
                wall: false,
            });
            let _rows = e10_pct(&[3], 1, 7);
            progress::finish().expect("sink installed")
        })
    };
    let serial = run(1);
    assert_eq!(serial, run(4));
    assert!(serial.contains("\"source\":\"pct\""), "{serial}");
    assert!(serial.contains("\"type\":\"progress_summary\""));
    assert!(serial.contains("\"distinct_fingerprints\":"));
}

#[test]
fn wall_fields_appear_only_under_trace_wall() {
    let _guard = TELEMETRY_LOCK.lock().unwrap();
    let with_wall = audited_e2_streams(1, true);
    assert!(
        with_wall.progress.contains("\"wall_ms\":"),
        "{}",
        with_wall.progress
    );
    assert!(with_wall.progress.contains("\"rate\":"));
    if cfg!(target_os = "linux") {
        assert!(with_wall.progress.contains("\"rss_kb\":"));
    }
    let without = audited_e2_streams(1, false);
    assert!(!without.progress.contains("\"wall_ms\""));
    assert!(!without.progress.contains("\"rss_kb\""));
    // The deterministic prefix is unchanged by the wall suffix: stripping
    // everything from `,"wall_ms"` on must reproduce the gated stream.
    let stripped: String = with_wall
        .progress
        .lines()
        .map(|l| {
            let det = l.split(",\"wall_ms\"").next().unwrap();
            let mut s = det.to_string();
            if !s.ends_with('}') {
                s.push('}');
            }
            s.push('\n');
            s
        })
        .collect();
    assert_eq!(stripped, without.progress);
}

#[test]
fn profile_aggregates_real_experiment_spans() {
    let _guard = TELEMETRY_LOCK.lock().unwrap();
    let snap = at_threads(2, || {
        let c = shm_obs::Collector::new();
        shm_obs::install_collector(&c);
        let _rows = e2_dsm_lower_with(&[8], true);
        shm_obs::uninstall();
        c.snapshot()
    });
    let p = shm_obs::profile(&snap);
    for name in [
        "part1.round",
        "part1.advance",
        "part1.resolve",
        "audit.walk",
    ] {
        let stats = p
            .by_name
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert!(stats.count > 0, "{name}");
        assert!(stats.total_ns > 0, "{name}");
    }
    assert_eq!(p.unmatched, 0, "all spans properly nested");
    // Rendered forms: top-N table, folded stacks, JSON.
    let table = p.table(10);
    assert!(table.contains("part1.round"), "{table}");
    let folded = p.folded();
    assert!(
        folded
            .lines()
            .any(|l| l.contains(';') && l.contains("part1.")),
        "nested stacks present: {folded}"
    );
    let json = p.to_json();
    assert!(
        json.contains("\"schema\": \"shm-obs/profile/v1\""),
        "{json}"
    );
    assert!(json.contains("\"by_stack\""));
}

#[test]
fn history_ledger_round_trips_through_disk_and_diff_flags_synthetic_2x() {
    let _guard = TELEMETRY_LOCK.lock().unwrap();
    let mk = |sha: &str, wall: f64| {
        let mut metrics = BTreeMap::new();
        metrics.insert("wall_ms.exp_e9_explore".to_string(), wall);
        metrics.insert("wall_ms.total".to_string(), 1000.0);
        Record {
            git_sha: sha.to_string(),
            utc_date: "2026-08-10".to_string(),
            threads: 4,
            metrics,
        }
    };
    let path = std::env::temp_dir().join("cc_dsm_telemetry_history_test.jsonl");
    let _ = std::fs::remove_file(&path);
    let path_str = path.to_str().expect("utf-8 temp path");
    for r in [mk("aaaa111", 400.0), mk("bbbb222", 900.0)] {
        r.append_to(path_str).expect("append to ledger");
    }
    let read_back = std::fs::read_to_string(&path).expect("read ledger");
    let records = history::parse_records(&read_back);
    assert_eq!(records.len(), 2);
    assert_eq!(records[0].git_sha, "aaaa111");
    assert_eq!(records[1].metrics["wall_ms.exp_e9_explore"], 900.0);
    let (latest, prior) = records.split_last().expect("two records");
    let entries = history::diff(latest, prior);
    let e9 = entries
        .iter()
        .find(|e| e.name == "wall_ms.exp_e9_explore")
        .expect("e9 wall compared");
    assert!(e9.regression, "2.25x wall growth must flag: {e9:?}");
    let total = entries
        .iter()
        .find(|e| e.name == "wall_ms.total")
        .expect("total wall compared");
    assert!(!total.regression, "unchanged wall passes");
    let _ = std::fs::remove_file(&path);
}
