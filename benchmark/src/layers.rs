//! Per-layer timings for the traced run, taken from outside: each layer's
//! public functions are timed on one fixed input, taken from the workload
//! whose end-to-end metrics that layer should move (README.md names it for
//! each metric). The benchmark's result format asks every traced run for
//! every per-layer metric, so every traced run times every layer on these
//! same inputs: compare a layer metric across commits on one workload, not
//! across workloads. Only the pool's dispatch cost depends on the workload,
//! through its fan-out. Nothing here adds a span or counter to the program;
//! the counts come from the `shm-obs` collector installed around a traced
//! rep.

use crate::report::RunReport;
use crate::serve_mix;
use crate::stats::median;
use crate::workloads::{self, Size, Workload, SPILL_BUDGET};
use rmr_adversary::{run_lower_bound, LowerBoundConfig, Part1Config, Part1Runner};
use shm_explore::spill::{decode_block_into, Key, RunEncoder};
use shm_explore::store::{frontier_hot_cap, Lookup, Popped, SpillQueue};
use shm_explore::{
    check, check_random, shrink_schedule, Bounds, Oracle, PollingSpecOracle, RandomBounds,
    ScenarioSpec, VisitedStore,
};
use shm_sim::rng::mix64;
use shm_sim::{CostModel, PctScheduler, ProcId, Scheduler, SeededRandom, Simulator};
use signaling::algorithms::{Broadcast, SeededBuggy, SingleWaiter};
use signaling::SignalingAlgorithm;
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Collects timed samples until `budget` has elapsed and at least five
/// were taken; `sample` returns the duration that counts (so it can leave
/// its own set-up out) and how many operations it covered. Returns the
/// median nanoseconds per operation and the number of operations timed.
fn sample_ns(budget: Duration, mut sample: impl FnMut() -> (Duration, usize)) -> (f64, usize) {
    let start = Instant::now();
    let mut xs = Vec::new();
    let mut ops = 0;
    while xs.len() < 5 || start.elapsed() < budget {
        let (d, n) = sample();
        ops += n;
        xs.push(d.as_secs_f64() * 1e9 / n.max(1) as f64);
    }
    (median(&xs).unwrap_or(0.0), ops)
}

/// Per-microbenchmark time budget.
const BUDGET: Duration = Duration::from_millis(150);
/// Steps per stepping batch.
const STEP_BATCH: usize = 4096;
/// Keys fed through the visited store, the run codec and the queue.
const KEYS: u64 = 50_000;
/// Calls per sample of the checkpoint and fingerprint timings.
const REPS: usize = 64;

/// Times every layer, appending one metric each. `w` only sets the pool
/// fan-out; every other input is fixed (`seed` seeds the schedulers).
pub fn measure(w: Workload, seed: u64, report: &mut RunReport) {
    let mut errors = Vec::new();
    step_layer(seed, report);
    checkpoint_layer(seed, report);
    adversary_layer(report, &mut errors);
    explore_layer(seed, report, &mut errors);
    pool_and_scenario(w, seed, report, &mut errors);
    report.record("layer checks", &errors);
}

/// `Simulator::step` and `Simulator::new` on pct-n64's input: broadcast at
/// 64 waiters under PCT priorities, a fresh simulator per finished run.
fn step_layer(seed: u64, report: &mut RunReport) {
    let (waiters, _) = workloads::pct_shape(Size::Full);
    let spec = workloads::pct_scenario(&Broadcast, waiters, CostModel::Dsm).build();
    let n = spec.n();
    let pct = |run: u64| {
        PctScheduler::new(
            mix64(seed ^ run),
            n,
            workloads::PCT_DEPTH,
            workloads::PCT_STEPS,
        )
    };
    let mut news = Vec::new();
    let mut run = 0u64;
    let mut sim = Simulator::new(&spec);
    let mut sched = pct(run);
    let (step_ns, steps) = sample_ns(BUDGET, || {
        let t = Instant::now();
        let mut in_new = Duration::ZERO;
        let mut steps = 0;
        while steps < STEP_BATCH {
            match sched.next(&sim) {
                Some(p) => {
                    sim.step(p);
                    steps += 1;
                }
                None => {
                    run += 1;
                    let t_new = Instant::now();
                    sim = Simulator::new(&spec);
                    let d = t_new.elapsed();
                    in_new += d;
                    news.push(d.as_secs_f64() * 1e6);
                    sched = pct(run);
                }
            }
        }
        (t.elapsed() - in_new, STEP_BATCH)
    });
    report.metric("shm.step_ns", step_ns, "ns", steps);
    report.metric("shm.new_us", median(&news).unwrap_or(0.0), "us", news.len());
}

/// Checkpoints, fingerprints and the oracle on explore-n4's input: the E9
/// deep scenario halfway through a seeded random walk (one path of the
/// space the explorer visits).
fn checkpoint_layer(seed: u64, report: &mut RunReport) {
    let algo = SingleWaiter;
    let spec = workloads::explore_scenario(&algo, Size::Full).build();
    let walk = |steps: usize| {
        let mut sim = Simulator::new(&spec);
        let mut sched = SeededRandom::new(mix64(seed));
        for _ in 0..steps {
            let Some(p) = sched.next(&sim) else { break };
            sim.step(p);
        }
        sim
    };
    let done = walk(usize::MAX);
    let mut mid = walk(done.schedule().len() / 2);

    let mut ckpt = Some(mid.snapshot());
    let (snapshot_ns, k) = sample_ns(BUDGET, || {
        let t = Instant::now();
        for _ in 0..REPS {
            ckpt = Some(black_box(mid.snapshot_reuse(ckpt.take())));
        }
        (t.elapsed(), REPS)
    });
    report.metric("shm.snapshot_ns", snapshot_ns, "ns", k);

    let base = mid.snapshot();
    let mover = mid.runnable().first().copied();
    let (restore_ns, k) = sample_ns(BUDGET, || {
        let mut d = Duration::ZERO;
        for _ in 0..REPS {
            if let Some(p) = mover {
                mid.step(p);
            }
            let t = Instant::now();
            mid.restore(&base);
            d += t.elapsed();
        }
        (d, REPS)
    });
    report.metric("shm.restore_ns", restore_ns, "ns", k);

    let mut scratch = Vec::new();
    let (fp_ns, k) = sample_ns(BUDGET, || {
        let t = Instant::now();
        for _ in 0..REPS {
            black_box(mid.state_fingerprint_with(&mut scratch));
        }
        (t.elapsed(), REPS)
    });
    report.metric("shm.fingerprint_ns", fp_ns, "ns", k);

    let oracle = PollingSpecOracle {
        max_concurrent_waiters: algo.max_concurrent_waiters(),
    };
    let (oracle_ns, k) = sample_ns(BUDGET, || {
        let t = Instant::now();
        for _ in 0..16 {
            let _ = black_box(oracle.check(&done));
        }
        (t.elapsed(), 16)
    });
    report.metric("explore.oracle_ns", oracle_ns, "ns", k);
}

/// The adversary's phases, replay, erasure and audit on adversary-n1024's
/// input: broadcast at n = 1024.
fn adversary_layer(report: &mut RunReport, errors: &mut Vec<String>) {
    let algo = Broadcast;
    let n = workloads::adversary_n(Size::Full);
    let t = Instant::now();
    let lb = run_lower_bound(&algo, LowerBoundConfig::for_n(n));
    let total_ms = t.elapsed().as_secs_f64() * 1e3;
    let part1_ms = lb.timings.record_ms + lb.timings.rounds_ms;
    report.metric("adversary.part1_ms", part1_ms, "ms", 1);
    report.metric("adversary.part2_ms", total_ms - part1_ms, "ms", 1);

    // Replay, erasure and audit of the finished Part-1 execution: erase
    // each of the first stable waiters (what the chase does) from its own
    // copy.
    let mut runner = Part1Runner::new(
        &algo,
        Part1Config {
            n,
            ..Part1Config::default()
        },
    );
    runner.run();
    let steps = runner.sim.schedule().len().max(1);
    let none = BTreeSet::new();
    let (replay_ns, k) = sample_ns(BUDGET, || {
        let t = Instant::now();
        let replayed = Simulator::replay(&runner.spec, runner.sim.schedule(), &none);
        let d = t.elapsed();
        if replayed.state_fingerprint() != runner.sim.state_fingerprint() {
            errors.push("replay of the Part-1 execution reached a different state".into());
        }
        (d, steps)
    });
    report.metric("shm.replay_ns_per_step", replay_ns, "ns", k);

    let mut candidates: Vec<ProcId> = runner.stable.iter().copied().collect();
    candidates.truncate(16);
    let mut erase_us = Vec::new();
    for &p in &candidates {
        let mut copy = runner.sim.clone();
        let batch = BTreeSet::from([p]);
        let t = Instant::now();
        black_box(copy.erase_certified_in_place(&runner.spec, &batch));
        erase_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    if erase_us.is_empty() {
        errors.push("the Part-1 execution has no stable waiter to erase".into());
    }
    report.metric(
        "shm.erase_us",
        median(&erase_us).unwrap_or(0.0),
        "us",
        erase_us.len(),
    );

    let t = Instant::now();
    let audit = runner.sim.audit_with_threads(&runner.spec, 1);
    let audit_ns = t.elapsed().as_secs_f64() * 1e9 / steps as f64;
    if !audit.is_clean() {
        errors.push(format!(
            "audit of the Part-1 execution diverged: {}",
            audit.to_json()
        ));
    }
    report.metric("shm.audit_ns_per_step", audit_ns, "ns", steps);
}

/// `KEYS` distinct keys with scrambled fingerprints (insertion order is not
/// sorted order, as in exploration).
fn keys() -> Vec<Key> {
    (0..KEYS)
        .map(|i| {
            let fp = (u128::from(mix64(!i)) << 64) | u128::from(mix64(i));
            (fp, i % 3, 0, i % 7)
        })
        .collect()
}

/// Inserts every key twice; returns ns per insert.
fn store_insert_ns(budget: Option<usize>, keys: &[Key], errors: &mut Vec<String>) -> f64 {
    let mut store = VisitedStore::new(budget, None);
    let t = Instant::now();
    let fresh = keys
        .iter()
        .filter(|&&k| store.insert(k, Vec::new) == Lookup::New)
        .count();
    let dups = keys
        .iter()
        .filter(|&&k| store.insert(k, Vec::new) != Lookup::New)
        .count();
    let ns = t.elapsed().as_secs_f64() * 1e9 / (2 * keys.len()) as f64;
    if fresh != keys.len() || dups != keys.len() {
        errors.push(format!(
            "visited store (budget {budget:?}): {fresh} new and {dups} duplicate of {} keys",
            keys.len()
        ));
    }
    ns
}

/// The explorer's layers: a whole check of the n = 3 E9 space, the visited
/// store hot (explore-n4) and under the spill budget (explore-n4-spill),
/// the spill codec and frontier queue at that budget, and PCT sampling and
/// shrinking (pct-n64).
fn explore_layer(seed: u64, report: &mut RunReport, errors: &mut Vec<String>) {
    let algo = SingleWaiter;
    let toy = workloads::explore_scenario(&algo, Size::Toy);
    let (ns, k) = sample_ns(BUDGET, || {
        let t = Instant::now();
        black_box(check(&toy, &Bounds::exhaustive()));
        (t.elapsed(), 1)
    });
    report.metric("explore.check_ms", ns / 1e6, "ms", k);

    let keys = keys();
    let hot = store_insert_ns(None, &keys, errors);
    report.metric("explore.store_hot_insert_ns", hot, "ns", 2 * keys.len());
    let cold = store_insert_ns(Some(SPILL_BUDGET), &keys, errors);
    report.metric("explore.store_cold_insert_ns", cold, "ns", 2 * keys.len());

    let mut sorted = keys.clone();
    sorted.sort_unstable();
    let t = Instant::now();
    let mut enc = RunEncoder::new();
    for &k in &sorted {
        enc.push(k);
    }
    let (bytes, fences, count, _) = enc.finish();
    let encode = t.elapsed().as_secs_f64() * 1e9 / sorted.len() as f64;
    let t = Instant::now();
    let mut decoded = Vec::with_capacity(sorted.len());
    for f in &fences {
        let at = f.offset as usize;
        decode_block_into(&bytes[at..at + f.len as usize], f.count, &mut decoded);
    }
    let decode = t.elapsed().as_secs_f64() * 1e9 / sorted.len() as f64;
    if decoded != sorted || count != sorted.len() as u64 {
        errors.push("spill run codec did not round-trip its keys".into());
    }
    report.metric(
        "explore.spill_encode_ns_per_key",
        encode,
        "ns",
        sorted.len(),
    );
    report.metric(
        "explore.spill_decode_ns_per_key",
        decode,
        "ns",
        sorted.len(),
    );

    let mut queue: SpillQueue<u64> = SpillQueue::new(frontier_hot_cap(Some(SPILL_BUDGET)));
    let t = Instant::now();
    for v in 0..KEYS {
        queue.push(v, |v, out| out.extend_from_slice(&v.to_le_bytes()));
    }
    let mut in_order = true;
    for want in 0..KEYS {
        let got = match queue.pop() {
            Some(Popped::Live(v)) => Some(v),
            Some(Popped::Packed(b)) => b.try_into().ok().map(u64::from_le_bytes),
            None => None,
        };
        in_order &= got == Some(want);
    }
    let queue_ns = t.elapsed().as_secs_f64() * 1e9 / KEYS as f64;
    if !in_order {
        errors.push("frontier queue did not pop in push order".into());
    }
    report.metric("explore.queue_push_pop_ns", queue_ns, "ns", KEYS as usize);

    const SCHEDULES: u64 = 32;
    let (waiters, _) = workloads::pct_shape(Size::Full);
    let t = Instant::now();
    let out = check_random(
        &workloads::pct_scenario(&Broadcast, waiters, CostModel::Dsm),
        &RandomBounds::pct(seed, SCHEDULES, workloads::PCT_DEPTH, workloads::PCT_STEPS),
    );
    let pct_us = t.elapsed().as_secs_f64() * 1e6 / SCHEDULES as f64;
    if out.report.schedules_run != SCHEDULES {
        errors.push(format!("pct ran {} schedules", out.report.schedules_run));
    }
    report.metric("explore.pct_schedule_us", pct_us, "us", SCHEDULES as usize);

    // Shrinking needs a violation. The E10 negative control at 8 waiters
    // is caught at E10's own seed and budget; larger populations would
    // make one greedy shrink take minutes, so the size is fixed here.
    let buggy = SeededBuggy::new(1);
    let scenario = ScenarioSpec {
        algorithm: &buggy,
        waiters: 8,
        max_polls: 2,
        signaler_polls_first: 1,
        model: CostModel::Dsm,
        seed: Some(1),
    };
    let found = check_random(
        &scenario,
        &RandomBounds::pct(
            0xE10,
            bench::E10_SCHEDULES,
            bench::E10_DEPTH_D,
            bench::E10_STEPS,
        ),
    );
    match (found.report.violations.first(), &found.counterexample) {
        (Some(v), Some(cx)) => {
            let spec = scenario.build();
            let oracle = PollingSpecOracle {
                max_concurrent_waiters: buggy.max_concurrent_waiters(),
            };
            let keep = |sim: &Simulator| {
                oracle.check(sim).is_err() && oracle.in_contract(sim) == v.in_contract
            };
            let t = Instant::now();
            let shrunk = shrink_schedule(&spec, &v.schedule, keep);
            report.metric(
                "explore.shrink_ms",
                t.elapsed().as_secs_f64() * 1e3,
                "ms",
                1,
            );
            if shrunk != cx.schedule {
                errors.push("shrinking is not deterministic".into());
            }
        }
        _ => errors.push("the seeded-buggy control found no violation to shrink".into()),
    }
}

/// Pool dispatch at `w`'s fan-out, and manifest parsing of serve-mix's
/// fresh E10 job.
fn pool_and_scenario(w: Workload, seed: u64, report: &mut RunReport, errors: &mut Vec<String>) {
    let jobs = w.pool_fanout();
    let (dispatch_ns, k) = sample_ns(BUDGET, || {
        let t = Instant::now();
        black_box(shm_pool::map_indexed(
            crate::run::THREADS,
            vec![0u8; jobs],
            |_, x| black_box(x),
        ));
        (t.elapsed(), 1)
    });
    report.metric("pool.dispatch_us_per_call", dispatch_ns / 1e3, "us", k);

    let manifest = serve_mix::e10_line(seed, 2);
    let mut parsed = true;
    let (parse_ns, k) = sample_ns(BUDGET, || {
        let t = Instant::now();
        for _ in 0..64 {
            match shm_scenario::Manifest::from_json(&manifest) {
                Ok(m) => {
                    black_box(m.job_id());
                }
                Err(_) => parsed = false,
            }
        }
        (t.elapsed(), 64)
    });
    if !parsed {
        errors.push(format!("manifest does not parse: {manifest}"));
    }
    report.metric("scenario.parse_us", parse_ns / 1e3, "us", k);
}
