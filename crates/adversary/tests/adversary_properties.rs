//! Property-style tests for the lower-bound machinery: bookkeeping
//! invariants, certification soundness, determinism across the algorithm
//! zoo, and equivalence of the incremental replay engine with the reference
//! from-scratch path. Driven by seeded deterministic loops (the workspace is
//! dependency-free, so no proptest).

use rmr_adversary::{
    choose_signaler, run_lower_bound, run_signal_phase, LowerBoundConfig, Part1Config, Part1Runner,
    ReadWriteTransformed, SignalRun,
};
use shm_sim::{ProcId, XorShift64};
use signaling::algorithms::{
    Broadcast, CasList, CcFlag, FixedSignaler, QueueSignaling, SingleWaiter,
};
use signaling::SignalingAlgorithm;
use std::collections::BTreeSet;

fn algo(which: usize) -> Box<dyn SignalingAlgorithm> {
    match which {
        0 => Box::new(Broadcast),
        1 => Box::new(CcFlag),
        2 => Box::new(SingleWaiter),
        3 => Box::new(QueueSignaling),
        4 => Box::new(FixedSignaler {
            signaler: ProcId(0),
        }),
        _ => Box::new(CasList),
    }
}

/// Part-1 bookkeeping invariants hold for every algorithm and size:
/// erased/finished/stable are disjoint where they must be, erased
/// processes leave no trace, and parked ⊆ stable.
#[test]
fn part1_bookkeeping_invariants() {
    let mut rng = XorShift64::new(0x0B00);
    for _case in 0..24 {
        let which = rng.range_usize(0, 6);
        let n = rng.range_usize(8, 40);
        let rounds = rng.range_usize(2, 12);
        let a = algo(which);
        let cfg = Part1Config {
            n,
            max_rounds: rounds,
            ..Part1Config::default()
        };
        let mut runner = Part1Runner::new(a.as_ref(), cfg);
        let out = runner.run();
        assert!(out.erased.is_disjoint(&out.finished), "{}", a.name());
        assert!(out.erased.is_disjoint(&out.stable), "{}", a.name());
        assert!(out.stable.is_disjoint(&out.finished), "{}", a.name());
        assert!(out.parked.is_subset(&out.stable), "{}", a.name());
        let participants = runner.sim.history().participants();
        for q in &out.erased {
            assert!(
                !participants.contains(q),
                "{}: erased {q} participates",
                a.name()
            );
        }
        assert_eq!(out.total_rmrs, runner.sim.totals().rmrs);
        // stabilized ⇒ no active process has a pending RMR: every active is
        // stable or finished.
        if out.stabilized {
            for i in 0..n as u32 {
                let p = ProcId(i);
                let accounted =
                    out.erased.contains(&p) || out.finished.contains(&p) || out.stable.contains(&p);
                assert!(accounted, "{}: {p} unaccounted", a.name());
            }
        }
    }
}

/// Certified erasures really are transparent: after `run()`, replaying
/// the final schedule with the erased set removed must equal the final
/// history (it *is* the final history, by construction — this asserts
/// the runner's state is exactly the filtered replay).
#[test]
fn final_state_is_a_filtered_replay() {
    let mut rng = XorShift64::new(0xF11);
    for _case in 0..24 {
        let which = rng.range_usize(0, 6);
        let n = rng.range_usize(8, 24);
        let a = algo(which);
        let cfg = Part1Config {
            n,
            max_rounds: 6,
            ..Part1Config::default()
        };
        let mut runner = Part1Runner::new(a.as_ref(), cfg);
        let _ = runner.run();
        let replayed =
            shm_sim::Simulator::replay(&runner.spec, runner.sim.schedule(), &BTreeSet::new());
        assert_eq!(replayed.history().to_vec(), runner.sim.history().to_vec());
    }
}

/// The full lower-bound pipeline is deterministic for every algorithm.
#[test]
fn pipeline_is_deterministic() {
    let mut rng = XorShift64::new(0xDE7);
    for _case in 0..12 {
        let which = rng.range_usize(0, 6);
        let n = rng.range_usize(8, 32);
        let run = || {
            let a = algo(which);
            let r = run_lower_bound(a.as_ref(), LowerBoundConfig::for_n(n));
            (
                r.part1.stabilized,
                r.part1.stable.len(),
                r.part1.erased.len(),
                r.worst_amortized().to_bits(),
                r.chase
                    .as_ref()
                    .map(|c| (c.signaler_rmrs, c.erased.len(), c.blocked)),
            )
        };
        assert_eq!(run(), run());
    }
}

/// Amortized cost is monotone-ish in the data the adversary reports:
/// worst_amortized is at least the Part-1 amortized cost.
#[test]
fn worst_amortized_dominates_part1() {
    let mut rng = XorShift64::new(0x0A3);
    for _case in 0..24 {
        let which = rng.range_usize(0, 6);
        let n = rng.range_usize(8, 32);
        let a = algo(which);
        let r = run_lower_bound(a.as_ref(), LowerBoundConfig::for_n(n));
        if r.part1.participants > 0 {
            let p1 = r.part1.total_rmrs as f64 / r.part1.participants as f64;
            assert!(r.worst_amortized() >= p1 - 1e-9);
        }
    }
}

/// The incremental replay engine and the reference from-scratch path are
/// observationally identical: every outcome of the full pipeline — Part-1
/// populations, RMR counts, chase/discovery results — matches exactly with
/// `incremental` on and off, for every algorithm at n = 20, and at n = 256
/// (the largest size of E2's default sweep) for broadcast, single-waiter
/// and queue-faa.
#[test]
fn incremental_engine_matches_reference_pipeline() {
    let summarize = |a: &dyn SignalingAlgorithm, n: usize, incremental: bool| {
        let mut cfg = LowerBoundConfig::for_n(n);
        cfg.part1.incremental = incremental;
        let r = run_lower_bound(a, cfg);
        let run_key = |s: &rmr_adversary::SignalRun| {
            (
                s.signaler,
                s.signaler_rmrs,
                s.erased.clone(),
                s.blocked,
                s.survivors,
                s.signal_completed,
                s.post_polls_skipped,
                s.post_spec,
                s.total_rmrs,
                s.participants,
            )
        };
        (
            r.part1.stabilized,
            r.part1.stable.clone(),
            r.part1.finished.clone(),
            r.part1.erased.clone(),
            r.part1.parked.clone(),
            r.part1.blocked_erasures,
            r.part1.total_rmrs,
            r.part1.participants,
            r.part1.regular,
            r.chase.as_ref().map(run_key),
            r.discovery.as_ref().map(run_key),
        )
    };
    let cases = (0..6)
        .map(|which| (which, 20))
        .chain([(0, 256), (2, 256), (3, 256)]);
    for (which, n) in cases {
        let a = algo(which);
        let reference = summarize(a.as_ref(), n, false);
        let inc = summarize(a.as_ref(), n, true);
        assert_eq!(
            inc,
            reference,
            "{} n={n}: incremental differs from reference",
            a.name()
        );
    }
}

/// A refused erasure leaves the execution unchanged, so when the chase
/// erases no one the report's discovery is the chase's run with `blocked`
/// 0. It equals a forced no-erasure run in every field, the audit
/// included: single-waiter and queue-faa as E2 runs them at n = 32 and
/// 256, and E8's cas-list and queue-faa rows at n = 32 (E8's cas-list+rw
/// leaves no stable waiter, so it has neither phase). Broadcast's chase
/// erases, so its discovery is a run of its own, equal to the forced one.
#[test]
fn erasure_free_chase_doubles_as_discovery() {
    // E2 runs the default 8 Part-1 rounds, E8 up to 64.
    let cfg = |n, max_rounds| {
        let mut cfg = LowerBoundConfig::for_n(n);
        cfg.part1.max_rounds = max_rounds;
        cfg.part1.audit = true;
        cfg
    };
    let cases: [(Box<dyn SignalingAlgorithm>, _); 8] = [
        (Box::new(SingleWaiter), cfg(32, 8)),
        (Box::new(SingleWaiter), cfg(256, 8)),
        (Box::new(QueueSignaling), cfg(32, 8)),
        (Box::new(QueueSignaling), cfg(256, 8)),
        (Box::new(CasList), cfg(32, 64)),
        (
            Box::new(ReadWriteTransformed::new(Box::new(CasList))),
            cfg(32, 64),
        ),
        (Box::new(QueueSignaling), cfg(32, 64)),
        (Box::new(Broadcast), cfg(32, 8)),
    ];
    for (a, cfg) in cases {
        let ctx = format!("{} n={}", a.name(), cfg.part1.n);
        let report = run_lower_bound(a.as_ref(), cfg);
        let (Some(chase), Some(discovery)) = (&report.chase, &report.discovery) else {
            assert!(
                report.chase.is_none() && report.discovery.is_none(),
                "{ctx}"
            );
            assert!(report.part1.stable.is_empty(), "{ctx}");
            continue;
        };
        assert_eq!(chase.erased.is_empty(), a.name() != "broadcast", "{ctx}");
        if chase.erased.is_empty() {
            assert_eq!(
                discovery,
                &SignalRun {
                    blocked: 0,
                    ..chase.clone()
                },
                "{ctx}"
            );
        }
        let mut runner = Part1Runner::new(a.as_ref(), cfg.part1);
        runner.run();
        let s = choose_signaler(&runner, cfg.part1.n).expect("a signaler");
        let forced = run_signal_phase(&runner, s, false, cfg.max_chase_steps);
        assert!(forced.audit.as_ref().is_some_and(|a| a.is_clean()), "{ctx}");
        assert_eq!(&forced, discovery, "{ctx}");
    }
}
