//! Determinism contract of the parallel orchestration: every sweep merges
//! rows by submission index, so the canonical (timing-free) JSON of E1, E2
//! (including the audited adversary) and E8 must be byte-identical at
//! `threads = 1` (the exact serial path) and `threads = 4`.
//!
//! `shm_pool::set_threads` is process-global, so the tests serialize on a
//! mutex and restore the default afterwards.

use bench::{e1_cc_upper, e2_dsm_lower_with, e8_transformation_with, e9_explore};
use shm_scenario::canon;
use std::sync::Mutex;

static POOL_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` at a fixed pool size, restoring the auto default afterwards.
fn at_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    shm_pool::set_threads(n);
    let r = f();
    shm_pool::set_threads(0);
    r
}

#[test]
fn e1_canonical_json_is_thread_count_independent() {
    let _guard = POOL_LOCK.lock().unwrap();
    let serial = at_threads(1, || canon::e1_json(&e1_cc_upper(&[4, 16], 10)));
    let parallel = at_threads(4, || canon::e1_json(&e1_cc_upper(&[4, 16], 10)));
    assert_eq!(serial, parallel);
    assert!(serial.contains("\"model\""));
}

#[test]
fn audited_e2_canonical_json_is_thread_count_independent() {
    let _guard = POOL_LOCK.lock().unwrap();
    // Audit on: each row audits its recordings inside its row job.
    let serial = at_threads(1, || canon::e2_json(&e2_dsm_lower_with(&[8, 12], true)));
    let parallel = at_threads(4, || canon::e2_json(&e2_dsm_lower_with(&[8, 12], true)));
    assert_eq!(serial, parallel);
    assert!(
        serial.contains("\"audit_clean\": true"),
        "audited rows present: {serial}"
    );
}

/// The full observability pipeline is part of the determinism contract:
/// with a collector installed, the audited E2 sweep's metrics report (every
/// counter cell, including per-process/per-location RMR attribution) and
/// its JSONL event stream must be byte-identical at `--threads 1` and
/// `--threads 4`, and the canon rows must be the ones rendered without a
/// collector.
#[test]
fn e2_metrics_report_is_byte_identical_across_thread_counts() {
    let _guard = POOL_LOCK.lock().unwrap();
    let run = |threads: usize| {
        at_threads(threads, || {
            let c = shm_obs::Collector::new();
            shm_obs::install_collector(&c);
            let rows = e2_dsm_lower_with(&[8, 12], true);
            shm_obs::uninstall();
            let snap = c.snapshot();
            (
                canon::e2_json(&rows),
                shm_obs::MetricsReport::from_snapshot(&snap).to_json(),
                shm_obs::jsonl(&snap, false),
            )
        })
    };
    let (canon_1, metrics_1, jsonl_1) = run(1);
    let (canon_4, metrics_4, jsonl_4) = run(4);
    assert_eq!(
        metrics_1, metrics_4,
        "metrics report must not depend on scheduling"
    );
    assert_eq!(
        jsonl_1, jsonl_4,
        "JSONL stream must not depend on scheduling"
    );
    assert_eq!(canon_1, canon_4);
    assert_eq!(
        canon_1,
        canon::e2_json(&e2_dsm_lower_with(&[8, 12], true)),
        "a collector must not change the canon rows"
    );
    assert!(metrics_1.contains("\"sim.rmr\""), "{metrics_1}");
    assert!(metrics_1.contains("\"audit.rmr\""), "{metrics_1}");
    assert!(metrics_1.contains("\"part2.rmr.signaler\""), "{metrics_1}");
}

/// E9 nests the explorer's own frontier fan-out inside the row sweep's pool
/// jobs, so this exercises determinism of both layers at once — including
/// the embedded (shrunk) counterexample JSON of the seeded-buggy row.
#[test]
fn e9_canonical_json_is_thread_count_independent() {
    let _guard = POOL_LOCK.lock().unwrap();
    let serial = at_threads(1, || canon::e9_json(&e9_explore(2, 1)));
    let parallel = at_threads(4, || canon::e9_json(&e9_explore(2, 1)));
    assert_eq!(serial, parallel);
    assert!(serial.contains("\"max_signaler_rmrs\""));
    assert!(
        serial.contains("\"algorithm\": \"seeded-buggy\""),
        "negative control row present: {serial}"
    );
    assert!(
        serial.contains("\"schedule\":["),
        "embedded counterexample present: {serial}"
    );
}

#[test]
fn e8_canonical_json_is_thread_count_independent() {
    let _guard = POOL_LOCK.lock().unwrap();
    let serial = at_threads(1, || {
        canon::e8_json(&e8_transformation_with(&[8, 16], false))
    });
    let parallel = at_threads(4, || {
        canon::e8_json(&e8_transformation_with(&[8, 16], false))
    });
    assert_eq!(serial, parallel);
    assert!(serial.contains("\"variant\""));
}
