//! The experiment implementations. See the crate docs for the claim map.
//!
//! Every sweep below is embarrassingly parallel: each (algorithm, size,
//! model) row is an independent deterministic simulation. The loops submit
//! one job per row to [`shm_pool::map_indexed`] and merge results by
//! submission index, so the returned row order — and any table/JSON rendered
//! from it — is byte-identical to the serial run at every thread count
//! (`--threads 1` / `CC_DSM_THREADS=1` is the exact serial path).

use rmr_adversary::{fixed_waiters_signaler_cost, run_lower_bound, LowerBoundConfig};
use shm_mutex::{run_lock_workload, LockWorkloadConfig, MutexAlgorithm};
use shm_pool::map_indexed;
use shm_sim::{CcConfig, CostModel, Interconnect, ProcId, Protocol, Scripted, SimSpec, Simulator};
use signaling::algorithms::{
    Broadcast, CcFlag, FixedSignaler, FixedWaiters, QueueSignaling, SingleWaiter,
};
use signaling::{check_polling, Role, Scenario, SignalingAlgorithm};

// The row schemas live in `shm-scenario` now (shared with the `shm-serve`
// job server); re-exported here so `bench::E9Row` et al. keep working.
pub use shm_scenario::rows::{
    E10Row, E1Row, E2Row, E3Row, E4Row, E5Row, E6Row, E7Row, E8Row, E9Row,
};

/// Builds the scripted "everyone polls `polls`× before the signal" schedule
/// used by E1/E3: an adversarial but model-independent interleaving, so the
/// identical execution is priced under every cost model.
fn poll_heavy_schedule(n_waiters: u32, polls: u32) -> Vec<ProcId> {
    let mut order = Vec::new();
    for _ in 0..polls {
        for w in 0..n_waiters {
            // Generous per-poll step allowance (first polls register).
            order.extend(std::iter::repeat_n(ProcId(w), 10));
        }
    }
    for p in 0..=n_waiters {
        order.extend(std::iter::repeat_n(ProcId(p), 4 * n_waiters as usize + 16));
    }
    // Final drain so every waiter observes the signal.
    for w in 0..n_waiters {
        order.extend(std::iter::repeat_n(ProcId(w), 12));
    }
    order
}

fn run_poll_heavy(
    algo: &dyn SignalingAlgorithm,
    n_waiters: u32,
    polls: u32,
    model: CostModel,
) -> Simulator {
    let mut roles = vec![Role::waiter(); n_waiters as usize];
    roles.push(Role::signaler());
    let scenario = Scenario {
        algorithm: algo,
        roles,
        model,
    };
    let spec: SimSpec = scenario.build();
    let mut sim = Simulator::new(&spec);
    let mut sched = Scripted::new(poll_heavy_schedule(n_waiters, polls));
    shm_sim::run(&mut sim, &mut sched, 100_000_000);
    assert_eq!(
        check_polling(sim.history()),
        Ok(()),
        "{}: spec violated",
        algo.name()
    );
    sim
}

// ---------------------------------------------------------------- E1 ----

/// E1 — §5 upper bound: the single-Boolean algorithm costs O(1) RMRs per
/// process in every CC variant, independent of N and of how long waiters
/// poll; the same execution in DSM costs Θ(polls) per waiter.
#[must_use]
pub fn e1_cc_upper(sizes: &[u32], polls: u32) -> Vec<E1Row> {
    let models: [(&'static str, CostModel); 4] = [
        ("cc-write-through", CostModel::Cc(CcConfig::default())),
        (
            "cc-write-back",
            CostModel::Cc(CcConfig {
                protocol: Protocol::WriteBack,
                ..Default::default()
            }),
        ),
        (
            "cc-lfcu",
            CostModel::Cc(CcConfig {
                lfcu: true,
                ..Default::default()
            }),
        ),
        ("dsm", CostModel::Dsm),
    ];
    let mut jobs = Vec::new();
    for &n in sizes {
        for (label, model) in models {
            jobs.push((n, label, model));
        }
    }
    map_indexed(shm_pool::threads(), jobs, |_, (n, label, model)| {
        let sim = run_poll_heavy(&CcFlag, n, polls, model);
        sim.obs_flush("e1");
        let max = (0..=n)
            .map(|i| sim.proc_stats(ProcId(i)).rmrs)
            .max()
            .unwrap_or(0);
        E1Row {
            model: label,
            n_waiters: n,
            polls,
            max_rmrs_per_proc: max,
            total_rmrs: sim.totals().rmrs,
        }
    })
}

// ---------------------------------------------------------------- E2 ----

/// E2 — Theorem 6.2: runs the full adversary against the read/write
/// algorithms (amortized cost must grow with N, or safety must break) and
/// against the FAA queue (the adversary must fail).
#[must_use]
pub fn e2_dsm_lower(sizes: &[usize]) -> Vec<E2Row> {
    e2_dsm_lower_with(sizes, false)
}

/// [`e2_dsm_lower`] with the differential audit optionally enabled: every
/// phase's final history is shadow-executed under naive reference
/// implementations of all four cost models and diffed against the
/// incremental path ([`shm_sim::Simulator::audit`]).
#[must_use]
pub fn e2_dsm_lower_with(sizes: &[usize], audit: bool) -> Vec<E2Row> {
    let algos: Vec<Box<dyn SignalingAlgorithm>> = vec![
        Box::new(Broadcast),
        Box::new(CcFlag),
        Box::new(SingleWaiter),
        Box::new(QueueSignaling),
    ];
    let mut jobs = Vec::new();
    for &n in sizes {
        for k in 0..algos.len() {
            jobs.push((n, k));
        }
    }
    let algos = &algos;
    map_indexed(shm_pool::threads(), jobs, move |_, (n, k)| {
        let mut cfg = LowerBoundConfig::for_n(n);
        cfg.part1.audit = audit;
        let report = run_lower_bound(algos[k].as_ref(), cfg);
        let (chase_rmrs, chase_erased, blocked) = report
            .chase
            .as_ref()
            .map_or((0, 0, 0), |c| (c.signaler_rmrs, c.erased.len(), c.blocked));
        E2Row {
            algorithm: report.algorithm.clone(),
            n,
            stabilized: report.part1.stabilized,
            stable: report.part1.stable.len(),
            chase_signaler_rmrs: chase_rmrs,
            chase_erased,
            blocked,
            amortized: report.worst_amortized(),
            violation: report.found_violation(),
            out_of_contract: report.out_of_contract(),
            audit_clean: report.audit_clean(),
            audit_divergence: report.first_divergence().map(|d| d.to_json()),
            timings: report.timings,
        }
    })
}

// ---------------------------------------------------------------- E3 ----

/// E3 — §7 variant upper bounds, measured. One signaler, `n_waiters`
/// waiters, poll-heavy schedule, both models.
#[must_use]
pub fn e3_variants(n_waiters: u32, polls: u32) -> Vec<E3Row> {
    let signaler = ProcId(n_waiters);
    let fixed: Vec<ProcId> = (0..n_waiters).map(ProcId).collect();
    let algos: Vec<(Box<dyn SignalingAlgorithm>, &'static str)> = vec![
        (Box::new(CcFlag), "O(1) CC / unbounded DSM"),
        (Box::new(SingleWaiter), "O(1) both (1 waiter)"),
        (
            Box::new(FixedWaiters::eager(fixed.clone())),
            "O(W) signaler, O(1) waiters",
        ),
        (
            Box::new(FixedWaiters::awaiting(fixed, signaler)),
            "O(1) amortized (terminating)",
        ),
        (
            Box::new(FixedSignaler { signaler }),
            "O(1) waiters, O(k) signaler",
        ),
        (Box::new(QueueSignaling), "O(1) amortized (FAA)"),
    ];
    let mut jobs = Vec::new();
    for k in 0..algos.len() {
        for (label, model) in [("cc", CostModel::cc_default()), ("dsm", CostModel::Dsm)] {
            jobs.push((k, label, model));
        }
    }
    let algos = &algos;
    map_indexed(shm_pool::threads(), jobs, move |_, (k, label, model)| {
        let (algo, paper_bound) = &algos[k];
        // SingleWaiter is only specified for one waiter.
        let waiters = if algo.name() == "single-waiter" {
            1
        } else {
            n_waiters
        };
        let sim = run_poll_heavy(algo.as_ref(), waiters, polls, model);
        let max_waiter = (0..waiters)
            .map(|i| sim.proc_stats(ProcId(i)).rmrs)
            .max()
            .unwrap_or(0);
        let participants = (0..=waiters)
            .filter(|&i| sim.proc_stats(ProcId(i)).steps > 0)
            .count()
            .max(1);
        E3Row {
            algorithm: algo.name().to_owned(),
            model: label,
            max_waiter_rmrs: max_waiter,
            signaler_rmrs: sim.proc_stats(ProcId(waiters)).rmrs,
            amortized: sim.totals().rmrs as f64 / participants as f64,
            paper_bound,
        }
    })
}

// ---------------------------------------------------------------- E4 ----

/// E4 — the primitive boundary of Corollary 6.14: under the same adversary,
/// broadcast's amortized cost grows ~linearly with N while the FAA queue's
/// stays flat, because erasure certification fails on FAA dependencies.
#[must_use]
pub fn e4_primitives(sizes: &[usize]) -> Vec<E4Row> {
    map_indexed(shm_pool::threads(), sizes.to_vec(), |_, n| {
        let b = run_lower_bound(&Broadcast, LowerBoundConfig::for_n(n));
        let q = run_lower_bound(&QueueSignaling, LowerBoundConfig::for_n(n));
        E4Row {
            n,
            broadcast_amortized: b.worst_amortized(),
            queue_amortized: q.worst_amortized(),
            queue_blocked: q.chase.as_ref().map_or(0, |c| c.blocked),
        }
    })
}

// ---------------------------------------------------------------- E5 ----

/// E5 — §8's "exchange rate": the same executions priced under a shared
/// bus (messages ≈ RMRs), an ideal directory (messages ≈ RMRs +
/// invalidations, and invalidations ≤ RMRs), and a stateless broadcast
/// fabric (superfluous invalidation messages inflate the ratio).
#[must_use]
pub fn e5_messages(n: u32) -> Vec<E5Row> {
    let interconnects: [(&'static str, Interconnect); 3] = [
        ("bus", Interconnect::Bus),
        ("ideal-directory", Interconnect::IdealDirectory),
        ("stateless-broadcast", Interconnect::StatelessBroadcast),
    ];
    let rows = map_indexed(
        shm_pool::threads(),
        interconnects.to_vec(),
        |_, (ic_label, ic)| {
            let model = CostModel::Cc(CcConfig {
                interconnect: ic,
                ..Default::default()
            });
            // Workload 1: signaling, poll-heavy.
            let sim = run_poll_heavy(&CcFlag, n, 20, model);
            let t = sim.totals();
            let signaling = E5Row {
                workload: "signaling(cc-flag)",
                interconnect: ic_label,
                seed: None,
                rmrs: t.rmrs,
                messages: t.messages,
                invalidations: t.invalidations,
                messages_per_rmr: t.messages as f64 / t.rmrs.max(1) as f64,
            };
            // Workload 2: contended TTAS lock (write-heavy, invalidation
            // storms).
            let seed = 5;
            let r = run_lock_workload(
                &shm_mutex::TtasLock,
                &LockWorkloadConfig {
                    n: n as usize,
                    cycles: 4,
                    seed,
                    model,
                },
            );
            let t = r.totals;
            let mutex = E5Row {
                workload: "mutex(ttas)",
                interconnect: ic_label,
                seed: Some(seed),
                rmrs: t.rmrs,
                messages: t.messages,
                invalidations: t.invalidations,
                messages_per_rmr: t.messages as f64 / t.rmrs.max(1) as f64,
            };
            [signaling, mutex]
        },
    );
    rows.into_iter().flatten().collect()
}

// ---------------------------------------------------------------- E6 ----

/// E6 — the classical mutual-exclusion landscape on our simulator: local-
/// spin locks (MCS, tournament) cost the same in CC and DSM (O(1) and
/// O(log N)); Anderson is local-spin in CC only; TAS/TTAS grow with
/// contention in at least one model.
#[must_use]
pub fn e6_mutex(sizes: &[usize], cycles: u64) -> Vec<E6Row> {
    let locks: Vec<Box<dyn MutexAlgorithm>> = vec![
        Box::new(shm_mutex::TasLock),
        Box::new(shm_mutex::TtasLock),
        Box::new(shm_mutex::AndersonLock),
        Box::new(shm_mutex::McsLock),
        Box::new(shm_mutex::TournamentLock),
    ];
    let mut jobs = Vec::new();
    for &n in sizes {
        for k in 0..locks.len() {
            for (label, model) in [("cc", CostModel::cc_default()), ("dsm", CostModel::Dsm)] {
                jobs.push((n, k, label, model));
            }
        }
    }
    let locks = &locks;
    map_indexed(shm_pool::threads(), jobs, move |_, (n, k, label, model)| {
        let lock = &locks[k];
        let seed = 42;
        let r = run_lock_workload(
            lock.as_ref(),
            &LockWorkloadConfig {
                n,
                cycles,
                seed,
                model,
            },
        );
        assert!(r.completed, "{} n={n} {label}", lock.name());
        assert_eq!(r.violations, Vec::new(), "{} n={n} {label}", lock.name());
        E6Row {
            lock: lock.name().to_owned(),
            model: label,
            n,
            seed,
            rmrs_per_passage: r.rmrs_per_passage(),
        }
    })
}

// ---------------------------------------------------------------- E7 ----

/// E7 — the §7 Ω(W) bound: when all W fixed waiters participate, the
/// signaler performs at least W−1 remote writes; our algorithms meet the
/// bound with small constants.
#[must_use]
pub fn e7_fixed_w(sizes: &[usize]) -> Vec<E7Row> {
    let mut jobs = Vec::new();
    for &w in sizes {
        for k in 0..4 {
            jobs.push((w, k));
        }
    }
    map_indexed(shm_pool::threads(), jobs, |_, (w, k)| {
        let fixed: Vec<ProcId> = (0..w as u32).map(ProcId).collect();
        let algo: Box<dyn SignalingAlgorithm> = match k {
            0 => Box::new(FixedWaiters::eager(fixed)),
            1 => Box::new(FixedWaiters::awaiting(fixed, ProcId(w as u32))),
            2 => Box::new(Broadcast),
            _ => Box::new(QueueSignaling),
        };
        let cost = fixed_waiters_signaler_cost(algo.as_ref(), w);
        assert_eq!(cost.post_spec, Ok(()), "{} w={w}", algo.name());
        E7Row {
            algorithm: algo.name().to_owned(),
            w,
            signaler_rmrs: cost.signaler_rmrs,
            amortized: cost.amortized,
        }
    })
}

// ---------------------------------------------------------------- E8 ----

/// E8 — Corollary 6.14: comparison primitives do not escape the bound.
/// Attacks the CAS-scan algorithm natively, after the read/write
/// transformation (mutex-emulated CAS), and the FAA queue as the contrast
/// that *does* escape.
#[must_use]
pub fn e8_transformation(sizes: &[usize]) -> Vec<E8Row> {
    e8_transformation_with(sizes, false)
}

/// [`e8_transformation`] with the differential audit optionally enabled.
#[must_use]
pub fn e8_transformation_with(sizes: &[usize], audit: bool) -> Vec<E8Row> {
    use rmr_adversary::{Part1Config, ReadWriteTransformed};
    use signaling::algorithms::CasList;
    let mut jobs = Vec::new();
    for &n in sizes {
        for k in 0..3 {
            jobs.push((n, k));
        }
    }
    map_indexed(shm_pool::threads(), jobs, |_, (n, k)| {
        let mut cfg = LowerBoundConfig::for_n(n);
        cfg.part1 = Part1Config {
            n,
            max_rounds: 64,
            audit,
            ..Part1Config::default()
        };
        let (variant, algo): (String, Box<dyn SignalingAlgorithm>) = match k {
            0 => ("cas-list".into(), Box::new(CasList)),
            1 => (
                "cas-list+rw".into(),
                Box::new(ReadWriteTransformed::new(Box::new(CasList))),
            ),
            _ => ("queue-faa".into(), Box::new(QueueSignaling)),
        };
        let r = run_lower_bound(algo.as_ref(), cfg);
        let signal_stuck = r.chase.as_ref().is_some_and(|c| !c.signal_completed)
            || r.discovery.as_ref().is_some_and(|d| !d.signal_completed);
        E8Row {
            variant,
            n,
            stabilized: r.part1.stabilized,
            stable: r.part1.stable.len(),
            amortized: r.worst_amortized(),
            blocked: r.part1.blocked_erasures + r.chase.as_ref().map_or(0, |c| c.blocked),
            signal_stuck,
            audit_clean: r.audit_clean(),
            timings: r.timings,
        }
    })
}

// ---------------------------------------------------------------- E9 ----

/// E9 — bounded model checking as an experiment: exhaustively explores every
/// schedule of each shipped signaling algorithm (plus the seeded-buggy
/// negative control) at n = `waiters`+1 under both cost models, certifying
/// Specification 4.1 within each algorithm's participation contract and
/// measuring the true maximum of the signaler's RMRs. On the DSM rows of the
/// E2 algorithms the row also runs the §6 wild-goose-chase adversary at the
/// same n: its constructed cost is a lower bound on the reachable maximum,
/// so `max_signaler_rmrs >= chase_signaler_rmrs` cross-validates both layers.
#[must_use]
pub fn e9_explore(waiters: usize, max_polls: u64) -> Vec<E9Row> {
    e9_explore_with(waiters, max_polls, None)
}

/// [`e9_explore`] under an exploration memory budget
/// ([`shm_explore::Bounds::mem_budget`]): the visited store and frontier
/// spill delta-compressed runs to disk beyond it. Every verdict, count,
/// maximum, and counterexample is byte-identical to the unbudgeted run —
/// only the memory-trajectory fields (`peak_*`, `spilled_bytes`) move.
#[must_use]
pub fn e9_explore_with(waiters: usize, max_polls: u64, mem_budget: Option<usize>) -> Vec<E9Row> {
    use shm_explore::{check, Bounds, ScenarioSpec};
    use signaling::algorithms::{CasList, SeededBuggy};
    let algos: Vec<(Box<dyn SignalingAlgorithm>, Option<u64>)> = vec![
        (Box::new(Broadcast), None),
        (Box::new(CcFlag), None),
        (Box::new(SingleWaiter), None),
        (Box::new(QueueSignaling), None),
        (Box::new(CasList), None),
        (Box::new(SeededBuggy::new(1)), Some(1)),
    ];
    // Where the §6 adversary runs: the four E2 algorithms, under DSM.
    let chase_algos = ["broadcast", "cc-flag", "single-waiter", "queue-faa"];
    let mut jobs = Vec::new();
    for k in 0..algos.len() {
        for (label, model) in [("dsm", CostModel::Dsm), ("cc", CostModel::cc_default())] {
            jobs.push((k, label, model));
        }
    }
    let algos = &algos;
    map_indexed(shm_pool::threads(), jobs, move |_, (k, label, model)| {
        let (algo, seed) = &algos[k];
        let scenario = ScenarioSpec {
            algorithm: algo.as_ref(),
            waiters,
            max_polls,
            // The chase's signaler polls before it signals (those polls count
            // toward its RMRs), so the explored space must admit the same
            // pre-poll for the maxima to be comparable.
            signaler_polls_first: 1,
            model,
            seed: *seed,
        };
        let bounds = Bounds {
            mem_budget,
            ..Bounds::exhaustive()
        };
        let out = check(&scenario, &bounds);
        let chase = (label == "dsm" && chase_algos.contains(&algo.name())).then(|| {
            let r = run_lower_bound(algo.as_ref(), LowerBoundConfig::for_n(scenario.n()));
            r.chase.as_ref().map_or(0, |c| c.signaler_rmrs)
        });
        e9_row(&scenario, label, &out, chase)
    })
}

/// Packs a check outcome into an [`E9Row`] (shared by the sweep and the
/// deep row).
fn e9_row(
    scenario: &shm_explore::ScenarioSpec<'_>,
    label: &'static str,
    out: &shm_explore::CheckOutcome,
    chase: Option<u64>,
) -> E9Row {
    E9Row {
        algorithm: scenario.algorithm.name().to_owned(),
        model: label,
        n: scenario.n(),
        seed: scenario.seed,
        explored: out.report.explored,
        terminals: out.report.terminals,
        exhaustive: out.report.exhaustive,
        violations_found: out.report.violations_found,
        violations_in_contract: out.in_contract_violations,
        max_signaler_rmrs: out.max_signaler_rmrs().unwrap_or(0),
        chase_signaler_rmrs: chase,
        peak_frontier: out.report.peak_frontier,
        peak_visited_bytes: out.report.peak_visited_bytes,
        spilled_bytes: out.report.spilled_bytes,
        counterexample: out
            .counterexample
            .as_ref()
            .map(shm_explore::Counterexample::to_json),
    }
}

/// The E9 deep row's scenario size: 3 waiters + the signaler.
pub const E9_DEEP_WAITERS: usize = 3;
/// The E9 deep row's per-waiter poll budget.
pub const E9_DEEP_MAX_POLLS: u64 = 1;

/// The E9 **deep row**: one algorithm (single-waiter — the largest state
/// space among the shipped algorithms at equal n) × DSM at n = 4,
/// exhaustive. This is the row the in-memory explorer could not afford:
/// run under a `mem_budget` (and, in CI, a hard address-space cap) it
/// certifies Specification 4.1 and the true signaler-RMR maximum one size
/// deeper than the E9 sweep, with the visited set and frontier spilled to
/// compressed disk runs. The chase cross-check runs at the same n, exactly
/// like the sweep rows.
#[must_use]
pub fn e9_deep(mem_budget: Option<usize>) -> Vec<E9Row> {
    use shm_explore::{check, Bounds, ScenarioSpec};
    let algo = SingleWaiter;
    let scenario = ScenarioSpec {
        algorithm: &algo,
        waiters: E9_DEEP_WAITERS,
        max_polls: E9_DEEP_MAX_POLLS,
        signaler_polls_first: 1,
        model: CostModel::Dsm,
        seed: None,
    };
    let bounds = Bounds {
        mem_budget,
        ..Bounds::exhaustive()
    };
    let out = check(&scenario, &bounds);
    let chase = {
        let r = run_lower_bound(&algo, LowerBoundConfig::for_n(scenario.n()));
        Some(r.chase.as_ref().map_or(0, |c| c.signaler_rmrs))
    };
    vec![e9_row(&scenario, "dsm", &out, chase)]
}

// --------------------------------------------------------------- E10 ----

/// The documented E10 budget: schedules per (algorithm, model, n) row and
/// the PCT depth/step parameters. The negative-control guarantee tests and
/// the CI `pct` job hold the experiment to exactly this budget.
pub const E10_SCHEDULES: u64 = 256;
/// PCT bug depth used by E10 (two priority-change points per schedule).
pub const E10_DEPTH_D: usize = 3;
/// Per-schedule step budget used by E10 (generous: give-up bounds end the
/// sampled runs far earlier at every E10 size).
pub const E10_STEPS: u64 = 20_000;

/// E10 — seeded PCT exploration at adversary scale: samples
/// [`E10_SCHEDULES`] priority schedules per row for every shipped signaling
/// algorithm (plus all three seeded-buggy negative-control variants) at
/// n = `waiters`+1 for each entry of `sizes`, under both cost models —
/// sizes far beyond exhaustive reach, where the §6 sweeps actually run.
/// Each end state is judged by the Specification 4.1 oracle and violations
/// go through the same shrink → audit pipeline as E9's. Deterministic at
/// any thread count for a fixed `pct_seed`.
#[must_use]
pub fn e10_pct(sizes: &[usize], max_polls: u64, pct_seed: u64) -> Vec<E10Row> {
    e10_pct_with(sizes, max_polls, pct_seed, None)
}

/// [`e10_pct`] under an exploration memory budget: the end-state
/// fingerprint coverage set spills delta-compressed runs to disk beyond
/// it. `distinct_fingerprints` and every verdict are identical at any
/// budget — only `peak_visited_bytes`/`spilled_bytes` move.
#[must_use]
pub fn e10_pct_with(
    sizes: &[usize],
    max_polls: u64,
    pct_seed: u64,
    mem_budget: Option<usize>,
) -> Vec<E10Row> {
    use shm_explore::{check_random, RandomBounds, ScenarioSpec};
    use signaling::algorithms::{CasList, SeededBuggy};
    let algos: Vec<(Box<dyn SignalingAlgorithm>, Option<u64>)> = vec![
        (Box::new(Broadcast), None),
        (Box::new(CcFlag), None),
        (Box::new(SingleWaiter), None),
        (Box::new(QueueSignaling), None),
        (Box::new(CasList), None),
        (Box::new(SeededBuggy::new(0)), Some(0)),
        (Box::new(SeededBuggy::new(1)), Some(1)),
        (Box::new(SeededBuggy::new(2)), Some(2)),
    ];
    let mut jobs = Vec::new();
    for &waiters in sizes {
        for k in 0..algos.len() {
            for (label, model) in [("dsm", CostModel::Dsm), ("cc", CostModel::cc_default())] {
                jobs.push((waiters, k, label, model));
            }
        }
    }
    let algos = &algos;
    map_indexed(
        shm_pool::threads(),
        jobs,
        move |_, (waiters, k, label, model)| {
            let (algo, seed) = &algos[k];
            let scenario = ScenarioSpec {
                algorithm: algo.as_ref(),
                waiters,
                max_polls,
                signaler_polls_first: 1,
                model,
                seed: *seed,
            };
            let bounds = RandomBounds {
                mem_budget,
                ..RandomBounds::pct(pct_seed, E10_SCHEDULES, E10_DEPTH_D, E10_STEPS)
            };
            let out = check_random(&scenario, &bounds);
            E10Row {
                algorithm: algo.name().to_owned(),
                model: label,
                n: scenario.n(),
                seed: *seed,
                pct_seed,
                schedules: out.report.schedules_run,
                depth_d: bounds.depth_d,
                steps_budget: bounds.steps,
                terminals: out.report.terminals,
                distinct_fingerprints: out.report.distinct_fingerprints,
                violations_found: out.report.violations_found,
                violations_in_contract: out.in_contract_violations,
                max_signaler_rmrs: out.max_signaler_rmrs().unwrap_or(0),
                peak_visited_bytes: out.report.peak_visited_bytes,
                spilled_bytes: out.report.spilled_bytes,
                counterexample: out
                    .counterexample
                    .as_ref()
                    .map(shm_explore::Counterexample::to_json),
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_cc_constant_dsm_linear() {
        let rows = e1_cc_upper(&[4, 16], 10);
        for r in &rows {
            if r.model.starts_with("cc") {
                assert!(r.max_rmrs_per_proc <= 3, "{r:?}");
            } else {
                assert!(r.max_rmrs_per_proc >= 10, "{r:?}");
            }
        }
    }

    #[test]
    fn e4_gap_grows() {
        let rows = e4_primitives(&[16, 64]);
        assert!(rows[1].broadcast_amortized > rows[0].broadcast_amortized);
        for r in &rows {
            assert!(r.queue_amortized < 8.0, "{r:?}");
            assert!(r.queue_blocked > 0, "{r:?}");
        }
    }

    #[test]
    fn e5_bus_is_at_par_and_invalidations_bounded() {
        let rows = e5_messages(8);
        for r in &rows {
            assert!(r.invalidations <= r.rmrs, "{r:?}");
            if r.interconnect == "bus" {
                assert!(r.messages_per_rmr <= 2.0, "{r:?}");
            }
        }
    }

    #[test]
    fn e7_signaler_meets_omega_w() {
        let rows = e7_fixed_w(&[8, 16]);
        for r in &rows {
            assert!(r.signaler_rmrs + 1 >= r.w as u64, "{r:?}");
        }
    }

    #[test]
    fn e10_catches_every_control_variant_beyond_exhaustive_reach() {
        // One size and the full algorithm set; the bin and the CI pct job
        // run n ∈ {8, 16, 32} in release.
        let rows = e10_pct(&[8], 2, 0xE10);
        assert_eq!(rows.len(), 16);
        for r in &rows {
            assert_eq!(r.schedules, E10_SCHEDULES, "{r:?}");
            assert!(r.terminals > 0, "{r:?}");
            // End-state fingerprints can all coincide (order-dependent
            // verdicts are invisible in state), but never be absent.
            assert!(r.distinct_fingerprints > 0, "{r:?}");
            if r.algorithm == "seeded-buggy" {
                assert!(
                    r.violations_in_contract > 0,
                    "negative control missed: {r:?}"
                );
                assert!(r.counterexample.is_some(), "{r:?}");
            } else {
                assert_eq!(r.violations_in_contract, 0, "{r:?}");
            }
        }
    }

    #[test]
    fn e9_certifies_shipped_algorithms_and_catches_the_control() {
        // Small poll budget keeps the debug-mode sweep fast; the bin and the
        // CI explore job run the full budget (and the chase dominance check)
        // in release.
        let rows = e9_explore(2, 1);
        assert_eq!(rows.len(), 12);
        for r in &rows {
            assert!(r.exhaustive, "{r:?}");
            assert!(r.terminals > 0, "{r:?}");
            if r.algorithm == "seeded-buggy" {
                assert!(
                    r.violations_in_contract > 0,
                    "negative control missed: {r:?}"
                );
                assert!(r.counterexample.is_some());
                assert_eq!(r.seed, Some(1));
            } else {
                assert_eq!(r.violations_in_contract, 0, "{r:?}");
            }
        }
    }
}
