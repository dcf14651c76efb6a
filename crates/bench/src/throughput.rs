//! The two microbenchmarks `cc-dsm all --json` records next to the
//! experiment walls, so the simulator hot-loop and explorer trajectories
//! are tracked run over run. Each prints its cases, adds its throughputs to
//! the perf-ledger metric map, and returns its `BENCH_experiments.json`
//! entry.
//!
//! **Steps per second** ([`step_throughput`]) of the simulator hot loop on a
//! fixed E2-style workload: `Broadcast` signaling under the DSM model, 64
//! waiters each polling up to 192 times, and one signaler that makes 192
//! unsuccessful polls before signaling — so the waiters spin for the whole
//! measured window, exactly the §6 wild-goose-chase pattern. The schedule
//! is round-robin, so the step count is fixed across runs and machines and
//! `steps/sec = steps / wall` tracks the per-step cost of the engine alone.
//! The threaded case runs `2 × threads` independent copies through the
//! work-stealing pool and reports aggregate steps/sec.
//!
//! **States per second** ([`explore_throughput`]) of the exhaustive
//! explorer on the largest state space in the E9 sweep: `SingleWaiter`
//! under DSM at 2 waiters (max 2 polls) + 1 signaler (1 pre-poll). Four
//! cases: serial and threaded, each unbudgeted (all-RAM visited set +
//! frontier) and under a 64 KiB budget that forces the visited store to
//! spill delta-compressed runs to disk and the frontier to pack nodes out.
//! The ratio of budgeted to unbudgeted states/sec is the spill tax — the
//! price of exploring a space that does not fit in memory.

use crate::timing::{bench, report};
use shm_explore::{check, Bounds, ScenarioSpec};
use shm_sim::{CostModel, RoundRobin, Simulator};
use signaling::algorithms::{Broadcast, SingleWaiter};
use signaling::{Role, Scenario};
use std::collections::BTreeMap;
use std::time::Instant;

/// Step workload shape: waiters spin while the signaler stalls.
const STEP_WAITERS: usize = 64;
const STEP_POLLS: u64 = 192;
/// Measured iterations of the serial step case.
const STEP_ITERS: u32 = 10;
/// Independent copies per pool thread in the threaded step case.
const COPIES_PER_THREAD: usize = 2;

/// Explore workload shape: the E9 sweep's biggest space.
const EXPLORE_WAITERS: usize = 2;
const EXPLORE_MAX_POLLS: u64 = 2;
/// The forcing budget: far below the workload's ~1.7 MB unbudgeted peak,
/// so both the visited runs and the frontier ring must spill.
const BUDGET: usize = 64 * 1024;
/// Measured iterations per explore case.
const EXPLORE_ITERS: u32 = 5;

fn step_once() -> u64 {
    let mut roles = vec![
        Role::Waiter {
            max_polls: Some(STEP_POLLS),
        };
        STEP_WAITERS
    ];
    roles.push(Role::Signaler {
        polls_first: STEP_POLLS,
    });
    let scenario = Scenario {
        algorithm: &Broadcast,
        roles,
        model: CostModel::Dsm,
    };
    let spec = scenario.build();
    let mut sim = Simulator::new(&spec);
    let mut sched = RoundRobin::new();
    let steps = shm_sim::run(&mut sim, &mut sched, u64::MAX);
    assert!(sim.all_done(), "workload must run to completion");
    steps
}

/// Measures serial steps/sec, then aggregate steps/sec of the threaded
/// case on `threads` workers; records `steps_per_sec.{serial,threaded}`.
pub fn step_throughput(threads: usize, metrics: &mut BTreeMap<String, f64>) -> String {
    let steps = step_once();
    let r = bench(
        &format!("step_throughput/serial/{STEP_WAITERS}w"),
        STEP_ITERS,
        || assert_eq!(step_once(), steps, "step count must be deterministic"),
    );
    report(&r);
    let serial = (steps as f64 / (r.median_ms / 1e3)).round();
    println!("serial:   {steps} steps/iter, {serial:.0} steps/sec (median)");

    let copies = threads * COPIES_PER_THREAD;
    let t = Instant::now();
    let per_copy = shm_pool::map_indexed(threads, (0..copies).collect(), |_, _| step_once());
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    let total_steps: u64 = per_copy.iter().sum();
    let threaded = (total_steps as f64 / (wall_ms / 1e3)).round();
    println!(
        "threaded: {copies} copies on {threads} threads, {total_steps} steps \
         in {wall_ms:.3} ms, {threaded:.0} steps/sec"
    );
    metrics.insert("steps_per_sec.serial".into(), serial);
    metrics.insert("steps_per_sec.threaded".into(), threaded);
    format!(
        concat!(
            "{{\"experiment\": \"bench_step_throughput\", \"iters\": {}, ",
            "\"wall_ms\": {:.3}, \"steps_per_iter\": {}, ",
            "\"serial_steps_per_sec\": {:.0}, \"threads\": {}, ",
            "\"threaded_steps_per_sec\": {:.0}}}"
        ),
        STEP_ITERS, r.median_ms, steps, serial, threads, threaded,
    )
}

fn explore_once(mem_budget: Option<usize>) -> u64 {
    let scenario = ScenarioSpec {
        algorithm: &SingleWaiter,
        waiters: EXPLORE_WAITERS,
        max_polls: EXPLORE_MAX_POLLS,
        signaler_polls_first: 1,
        model: CostModel::Dsm,
        seed: None,
    };
    let bounds = Bounds {
        mem_budget,
        ..Bounds::exhaustive()
    };
    let out = check(&scenario, &bounds);
    assert!(out.report.exhaustive, "workload must explore exhaustively");
    if mem_budget.is_some() {
        assert!(out.report.spilled_bytes > 0, "budget must force spilling");
    }
    out.report.explored
}

/// Benches one (threads, budget) case; returns (explored, states/sec,
/// median wall ms).
fn explore_case(label: &str, threads: usize, mem_budget: Option<usize>) -> (u64, f64, f64) {
    shm_pool::set_threads(threads);
    let explored = explore_once(mem_budget);
    let r = bench(
        &format!("explore_throughput/{label}"),
        EXPLORE_ITERS,
        || {
            let again = explore_once(mem_budget);
            assert_eq!(again, explored, "explored count must be deterministic");
        },
    );
    report(&r);
    let sps = explored as f64 / (r.median_ms / 1e3);
    println!("{label}: {explored} states/iter, {sps:.0} states/sec (median)\n");
    (explored, sps.round(), r.median_ms)
}

/// Measures the four explore cases (the threaded ones on `threads`
/// workers, leaving the pool there); records
/// `explore_states_per_sec.{serial,serial_spill,threaded,threaded_spill}`
/// and `spill_tax_pct.serial`.
pub fn explore_throughput(threads: usize, metrics: &mut BTreeMap<String, f64>) -> String {
    let (explored, serial, median_ms) = explore_case("serial/unbudgeted", 1, None);
    let (_, serial_spill, _) = explore_case("serial/64k-budget", 1, Some(BUDGET));
    let (_, threaded, _) = explore_case("threaded/unbudgeted", threads, None);
    let (_, threaded_spill, _) = explore_case("threaded/64k-budget", threads, Some(BUDGET));
    let serial_tax = (1.0 - serial_spill / serial) * 100.0;
    println!(
        "spill tax: serial {serial_tax:.1}%, threaded {:.1}% (states/sec lost to a \
         {BUDGET}-byte budget)",
        (1.0 - threaded_spill / threaded) * 100.0,
    );
    for (key, v) in [
        ("serial", serial),
        ("serial_spill", serial_spill),
        ("threaded", threaded),
        ("threaded_spill", threaded_spill),
    ] {
        metrics.insert(format!("explore_states_per_sec.{key}"), v);
    }
    if serial > 0.0 {
        metrics.insert("spill_tax_pct.serial".into(), serial_tax);
    }
    format!(
        concat!(
            "{{\"experiment\": \"bench_explore_throughput\", \"iters\": {}, ",
            "\"wall_ms\": {:.3}, \"states_per_iter\": {}, \"mem_budget_bytes\": {}, ",
            "\"serial_states_per_sec\": {:.0}, \"serial_spill_states_per_sec\": {:.0}, ",
            "\"threads\": {}, \"threaded_states_per_sec\": {:.0}, ",
            "\"threaded_spill_states_per_sec\": {:.0}}}"
        ),
        EXPLORE_ITERS,
        median_ms,
        explored,
        BUDGET,
        serial,
        serial_spill,
        threads,
        threaded,
        threaded_spill,
    )
}
