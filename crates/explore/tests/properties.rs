//! Property tests for the explorer: DPOR agrees with naive enumeration,
//! shrinking preserves classification, the negative control is caught,
//! reports are byte-identical at any thread count, and the one-step state
//! fingerprints it keys states on equal the full hash.

use shm_explore::{check, explore, Bounds, PollingSpecOracle, ProcRmrs, ScenarioSpec};
use shm_sim::{CostModel, ProcId, Simulator, StateHasher, TransitionPeek, XorShift64};
use signaling::algorithms::{
    Broadcast, CasList, CcFlag, FixedSignaler, FixedWaiters, QueueSignaling, SeededBuggy,
    SingleWaiter,
};
use signaling::SignalingAlgorithm;
use std::sync::Mutex;

/// Thread-count changes are process-global; serialize the tests that touch
/// them.
static POOL_LOCK: Mutex<()> = Mutex::new(());

fn scenario<'a>(
    algo: &'a dyn SignalingAlgorithm,
    waiters: usize,
    max_polls: u64,
) -> ScenarioSpec<'a> {
    ScenarioSpec {
        algorithm: algo,
        waiters,
        max_polls,
        signaler_polls_first: 0,
        model: CostModel::Dsm,
        seed: None,
    }
}

/// DPOR + dedup must reach the same verdict and the same RMR maximum as the
/// naive full enumeration, while exploring strictly fewer states.
#[test]
fn dpor_matches_naive_verdict_and_maximum_with_fewer_states() {
    let algos: Vec<Box<dyn SignalingAlgorithm>> = vec![
        Box::new(Broadcast),
        Box::new(CcFlag),
        Box::new(SingleWaiter),
        Box::new(SeededBuggy::new(2)),
    ];
    for algo in &algos {
        let s = scenario(algo.as_ref(), 2, 1);
        let spec = s.build();
        let oracle = PollingSpecOracle {
            max_concurrent_waiters: algo.max_concurrent_waiters(),
        };
        let objective = ProcRmrs(s.signaler());
        let naive = explore(&spec, &[&oracle], Some(&objective), &Bounds::naive());
        let dpor = explore(&spec, &[&oracle], Some(&objective), &Bounds::exhaustive());
        assert!(naive.exhaustive && dpor.exhaustive, "{}", algo.name());
        // Same verdict (violation existence and its contract classification)…
        assert_eq!(
            naive.violations_found > 0,
            dpor.violations_found > 0,
            "{}: naive {naive:?} vs dpor {dpor:?}",
            algo.name()
        );
        assert_eq!(
            naive.violations_in_contract > 0,
            dpor.violations_in_contract > 0,
            "{}",
            algo.name()
        );
        // …same empirical RMR maximum…
        assert_eq!(
            naive.max_objective.as_ref().map(|m| m.value),
            dpor.max_objective.as_ref().map(|m| m.value),
            "{}",
            algo.name()
        );
        // …strictly fewer explored states (the point of the reductions).
        assert!(
            dpor.explored < naive.explored,
            "{}: dpor explored {} vs naive {}",
            algo.name(),
            dpor.explored,
            naive.explored
        );
    }
}

/// Regression (satellite 2): shrinking a SingleWaiter violation found with
/// 2 concurrent waiters must preserve the out-of-contract classification —
/// the shrunk schedule must never be reported as an in-contract violation
/// of the algorithm.
#[test]
fn shrinking_single_waiter_violation_stays_out_of_contract() {
    let s = scenario(&SingleWaiter, 2, 2);
    let out = check(&s, &Bounds::exhaustive());
    assert!(out.report.exhaustive);
    assert_eq!(
        out.in_contract_violations, 0,
        "single-waiter must be clean within its contract"
    );
    assert!(
        out.out_of_contract_violations > 0,
        "2 waiters against a 1-waiter contract must violate somewhere"
    );
    let cx = out.counterexample.expect("violations ⇒ counterexample");
    assert!(
        !cx.in_contract,
        "shrunk counterexample flipped to in-contract"
    );
    assert!(cx.audit_clean);
    assert!(cx.schedule.len() <= cx.shrunk_from);
    // Independent re-validation: replay the shrunk schedule and re-judge it
    // from scratch with a fresh oracle.
    let spec = s.build();
    let sim = shm_explore::replay(&spec, &cx.schedule);
    let oracle = PollingSpecOracle {
        max_concurrent_waiters: SingleWaiter.max_concurrent_waiters(),
    };
    use shm_explore::Oracle as _;
    assert!(
        oracle.check(&sim).is_err(),
        "shrunk schedule must still violate"
    );
    assert!(
        !oracle.in_contract(&sim),
        "shrunk schedule must still exceed the 1-waiter contract"
    );
}

/// Negative control (every seeded bug family): exploration finds an
/// in-contract violation, shrinks it, and the shrunk replay passes the
/// differential audit.
#[test]
fn seeded_buggy_variants_are_found_shrunk_and_audited() {
    for seed in 0..3 {
        let algo = SeededBuggy::new(seed);
        let s = scenario(&algo, 2, 2);
        let out = check(&s, &Bounds::exhaustive());
        assert!(out.report.exhaustive, "seed {seed}");
        assert!(
            out.in_contract_violations > 0,
            "seed {seed}: the injected bug must be found in contract"
        );
        let cx = out.counterexample.expect("violations ⇒ counterexample");
        assert!(cx.in_contract, "seed {seed}");
        assert!(cx.audit_clean, "seed {seed}");
        assert!(
            cx.schedule.len() <= cx.shrunk_from,
            "seed {seed}: shrinking must never grow the schedule"
        );
        assert_eq!(cx.algorithm, "seeded-buggy");
        // The JSON form round-trips the schedule digits faithfully.
        let json = cx.to_json();
        let digits: Vec<String> = cx.schedule.iter().map(|p| p.0.to_string()).collect();
        assert!(json.contains(&format!("\"schedule\":[{}]", digits.join(","))));
    }
}

/// The full report — counts, retained schedules, argmax — is identical
/// whether the frontier fan-out runs on 1 worker or 4.
#[test]
fn reports_are_identical_at_any_thread_count() {
    let _guard = POOL_LOCK.lock().unwrap();
    let algos: Vec<Box<dyn SignalingAlgorithm>> = vec![
        Box::new(Broadcast),
        Box::new(SingleWaiter),
        Box::new(SeededBuggy::new(0)),
    ];
    for algo in &algos {
        let s = scenario(algo.as_ref(), 2, 2);
        let spec = s.build();
        let oracle = PollingSpecOracle {
            max_concurrent_waiters: algo.max_concurrent_waiters(),
        };
        let objective = ProcRmrs(ProcId(2));
        shm_pool::set_threads(1);
        let one = explore(&spec, &[&oracle], Some(&objective), &Bounds::exhaustive());
        shm_pool::set_threads(4);
        let four = explore(&spec, &[&oracle], Some(&objective), &Bounds::exhaustive());
        shm_pool::set_threads(0);
        assert_eq!(
            format!("{one:?}"),
            format!("{four:?}"),
            "{}: report differs across thread counts",
            algo.name()
        );
    }
}

/// The explorer fingerprints each child from its node's `StateSum` and the
/// words its step changed. On seeded random walks of every shipped
/// algorithm and the three seeded-buggy variants, under DSM and the default
/// CC model, that one-step value must equal the full
/// `Simulator::state_fingerprint` after every step.
#[test]
fn one_step_fingerprints_equal_the_full_hash_on_random_walks() {
    const WAITERS: usize = 3;
    const MAX_STEPS: usize = 2_000;
    let fixed: Vec<ProcId> = (0..WAITERS as u32).map(ProcId).collect();
    let signaler = ProcId(WAITERS as u32);
    let algos: Vec<Box<dyn SignalingAlgorithm>> = vec![
        Box::new(Broadcast),
        Box::new(CcFlag),
        Box::new(SingleWaiter),
        Box::new(QueueSignaling),
        Box::new(CasList),
        Box::new(FixedWaiters::eager(fixed.clone())),
        Box::new(FixedWaiters::awaiting(fixed, signaler)),
        Box::new(FixedSignaler { signaler }),
        Box::new(SeededBuggy::new(0)),
        Box::new(SeededBuggy::new(1)),
        Box::new(SeededBuggy::new(2)),
    ];
    let walks: u64 = if cfg!(debug_assertions) { 8 } else { 40 };
    for algo in &algos {
        for model in [CostModel::Dsm, CostModel::cc_default()] {
            let spec = ScenarioSpec {
                algorithm: algo.as_ref(),
                waiters: WAITERS,
                max_polls: 2,
                signaler_polls_first: 1,
                model,
                seed: None,
            }
            .build();
            for seed in 0..walks {
                let mut rng = XorShift64::new(seed);
                let mut sim = Simulator::new(&spec);
                let mut hasher = StateHasher::new();
                let mut sum = hasher.sum(&sim);
                let mut runnable = Vec::new();
                for step in 0..MAX_STEPS {
                    sim.runnable_into(&mut runnable);
                    if runnable.is_empty() {
                        break;
                    }
                    let pid = runnable[(rng.next_u64() % runnable.len() as u64) as usize];
                    let addr = match sim.peek_transition(pid) {
                        TransitionPeek::Access(op) => Some(op.addr()),
                        _ => None,
                    };
                    let before = sim.step_words(pid, addr);
                    let _ = sim.step(pid);
                    sum = hasher.advance(&sim, sum, &before);
                    assert_eq!(
                        hasher.fingerprint(&sim, sum),
                        sim.state_fingerprint(),
                        "{} under {}, walk {seed}, step {step} ({pid})",
                        algo.name(),
                        shm_sim::model_tag(model)
                    );
                }
            }
        }
    }
}
