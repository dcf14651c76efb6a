//! The explorer's work counts are deterministic, so they are pinned: a
//! change that makes the explorer snapshot, restore, step, dedup or prune
//! more (or less) than it did moves one of these numbers even when every
//! report byte stays the same.
//!
//! The input is the repository benchmark's toy explore rep: the E9 deep
//! scenario (single-waiter, DSM, one signaler pre-poll) at 2 waiters and 1
//! poll, 19,478 explored states, run through `check` as the benchmark runs
//! it. This test is the only one in its binary, because the collector it
//! installs records every thread of the process.

use shm_explore::{check, Bounds, ScenarioSpec};
use shm_sim::CostModel;
use signaling::algorithms::SingleWaiter;

const PINNED: [(&str, u64); 6] = [
    // Taken only where a second candidate outside the sleep set may need
    // the node state back, or in the breadth-first phase.
    ("ckpt.snapshot", 7_135),
    ("ckpt.restore", 19_458),
    ("sim.steps", 35_434),
    ("explore.states", 19_478),
    ("explore.dedup", 5_241),
    ("explore.sleep_pruned", 21_777),
];

fn counts_at(threads: usize) -> Vec<(&'static str, u64)> {
    let algo = SingleWaiter;
    let scenario = ScenarioSpec {
        algorithm: &algo,
        waiters: 2,
        max_polls: 1,
        signaler_polls_first: 1,
        model: CostModel::Dsm,
        seed: None,
    };
    shm_pool::set_threads(threads);
    let c = shm_obs::Collector::new();
    shm_obs::install_collector(&c);
    let out = check(&scenario, &Bounds::exhaustive());
    shm_obs::uninstall();
    shm_pool::set_threads(0);
    assert_eq!(out.report.explored, 19_478, "threads {threads}");
    let report = shm_obs::MetricsReport::from_snapshot(&c.snapshot());
    PINNED
        .iter()
        .map(|&(name, _)| (name, report.total(name)))
        .collect()
}

#[test]
fn toy_explore_work_counts_are_pinned() {
    for threads in [1, 2] {
        assert_eq!(counts_at(threads), PINNED, "threads {threads}");
    }
}
