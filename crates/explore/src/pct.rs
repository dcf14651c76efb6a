//! Seeded randomized exploration: PCT priority sampling and plain random
//! walks at sizes exhaustive search cannot reach.
//!
//! The exhaustive explorer proves Specification 4.1 conformance at n ≤ 3;
//! the §6 adversary sweeps run at n = 256+. This module covers the gap with
//! probabilistic concurrency testing ([`shm_sim::PctScheduler`]): each
//! sampled schedule runs the scenario once under a freshly seeded priority
//! scheduler, the end state is judged by the same [`Oracle`]s the
//! exhaustive checker uses, and any violation goes through the identical
//! shrink → audit pipeline — so a PCT-found counterexample is exactly as
//! trustworthy as an exhaustive one.
//!
//! Judging the **end state** of each schedule is sound for the polling
//! spec: its violation conditions are facts about the recorded event
//! sequence (a poll that returned true before any signal began stays in
//! the history forever), so a verdict that held at any intermediate state
//! still holds at the end of the run.
//!
//! Schedules fan out over [`shm_pool`] one job per schedule, with
//! per-schedule seeds derived from the base seed by a splitmix64 stream
//! (`mix64(seed + (i+1)·φ)` — the job index alone decides the seed), and
//! results merge in submission-index order: reports are byte-identical at
//! any thread count.

use crate::check::{CheckOutcome, ScenarioSpec};
use crate::counterexample::{replay, shrink_schedule, Counterexample};
use crate::explorer::{ExploreReport, FoundViolation, ObjectiveResult};
use crate::oracle::{Objective, Oracle, PollingSpecOracle, ProcRmrs};
use crate::store::VisitedStore;
use shm_sim::rng::mix64;
use shm_sim::{model_tag, PctScheduler, ProcId, SeededRandom, SimSpec, Simulator};

/// Parameters of a randomized ([`check_random`]) exploration.
#[derive(Clone, Copy, Debug)]
pub struct RandomBounds {
    /// Base seed; every sampled schedule derives its own seed from this and
    /// its submission index, so the whole run is a pure function of the
    /// bounds and the scenario.
    pub seed: u64,
    /// Number of schedules to sample.
    pub schedules: u64,
    /// PCT bug depth `d`: `d − 1` priority-change points per schedule.
    /// `0` selects a plain seeded random walk ([`shm_sim::SeededRandom`])
    /// instead of priority scheduling.
    pub depth_d: usize,
    /// Per-schedule step budget `k`. With give-up scenario bounds the run
    /// usually terminates earlier; the budget also caps runaway schedules.
    pub steps: u64,
    /// Byte budget for the distinct-fingerprint coverage set (the one
    /// per-run structure that grows with `schedules`): beyond it,
    /// fingerprints spill to delta-compressed disk runs exactly like the
    /// exhaustive visited store ([`crate::store`]). `None` = unbounded.
    /// Never changes a count — only where fingerprints live.
    pub mem_budget: Option<usize>,
}

impl RandomBounds {
    /// PCT sampling: `schedules` runs at bug depth `d` over a `steps`
    /// budget.
    #[must_use]
    pub fn pct(seed: u64, schedules: u64, depth_d: usize, steps: u64) -> Self {
        assert!(depth_d >= 1, "PCT depth must be at least 1 (0 = walk mode)");
        RandomBounds {
            seed,
            schedules,
            depth_d,
            steps,
            mem_budget: None,
        }
    }

    /// Plain seeded random-walk sampling (uniform over runnable processes
    /// each step).
    #[must_use]
    pub fn walk(seed: u64, schedules: u64, steps: u64) -> Self {
        RandomBounds {
            seed,
            schedules,
            depth_d: 0,
            steps,
            mem_budget: None,
        }
    }
}

/// The i-th schedule's seed: position `i` of a splitmix64 stream starting
/// at `base`. Depends only on `(base, i)`, never on thread interleaving.
#[must_use]
pub fn schedule_seed(base: u64, i: u64) -> u64 {
    mix64(base.wrapping_add((i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// Statistics of one randomized exploration, alongside the violation and
/// objective fields shared with [`ExploreReport`].
#[derive(Clone, Debug, Default)]
pub struct RandomReport {
    /// Schedules sampled (always `RandomBounds::schedules`).
    pub schedules_run: u64,
    /// Simulator steps taken across all schedules.
    pub steps_taken: u64,
    /// Schedules that ran every process to termination within the budget.
    pub terminals: u64,
    /// Distinct end-state fingerprints over all sampled schedules — a
    /// coverage proxy (how much of the space the sampling actually spread
    /// over).
    pub distinct_fingerprints: u64,
    /// Schedules whose end state violated an oracle.
    pub violations_found: u64,
    /// How many of those were within the participation contract.
    pub violations_in_contract: u64,
    /// Retained violation records in submission-index order (capped at
    /// [`RandomReport::KEEP_VIOLATIONS`]).
    pub violations: Vec<FoundViolation>,
    /// Maximum objective value over terminal schedules, with the earliest
    /// (by submission index) schedule reaching it.
    pub max_objective: Option<ObjectiveResult>,
    /// Peak logical bytes of the fingerprint coverage set (deterministic
    /// [`crate::store::SLOT_BYTES`]-per-key accounting, not an RSS
    /// reading).
    pub peak_visited_bytes: u64,
    /// Delta-compressed bytes the coverage set spilled to disk (0 when
    /// [`RandomBounds::mem_budget`] never forced a spill).
    pub spilled_bytes: u64,
}

impl RandomReport {
    /// Cap on retained violation records (matching
    /// [`crate::Bounds::exhaustive`]'s default).
    pub const KEEP_VIOLATIONS: usize = 16;

    /// Violations found outside the participation contract.
    #[must_use]
    pub fn out_of_contract_violations(&self) -> u64 {
        self.violations_found - self.violations_in_contract
    }

    /// Views the randomized run as an [`ExploreReport`] (never exhaustive;
    /// sampling-specific counters have no equivalent and are dropped) so
    /// report consumers can share code with the exhaustive checker.
    #[must_use]
    pub fn as_explore_report(&self) -> ExploreReport {
        ExploreReport {
            explored: self.schedules_run,
            terminals: self.terminals,
            violations_found: self.violations_found,
            violations_in_contract: self.violations_in_contract,
            violations: self.violations.clone(),
            max_objective: self.max_objective.clone(),
            exhaustive: false,
            peak_visited_bytes: self.peak_visited_bytes,
            spilled_bytes: self.spilled_bytes,
            ..ExploreReport::default()
        }
    }
}

/// The result of [`check_random`]: sampling statistics plus the same
/// contract classification and shrunk, audited counterexample that
/// [`crate::check()`] produces.
pub struct RandomOutcome {
    /// Sampling statistics and retained findings.
    pub report: RandomReport,
    /// Violations within the algorithm's participation contract.
    pub in_contract_violations: u64,
    /// Violations outside the contract (recorded, not held against the
    /// algorithm).
    pub out_of_contract_violations: u64,
    /// The first violation in submission-index order, shrunk by greedy
    /// step-deletion (preserving the oracle verdict and the contract
    /// classification) and re-validated through the differential RMR audit.
    pub counterexample: Option<Counterexample>,
}

impl RandomOutcome {
    /// Whether sampling found no in-contract violation. Never a proof —
    /// randomized exploration is an under-approximation by construction.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.in_contract_violations == 0
    }

    /// The empirical maximum of the signaler's RMRs over terminal sampled
    /// schedules, if any schedule terminated.
    #[must_use]
    pub fn max_signaler_rmrs(&self) -> Option<u64> {
        self.report.max_objective.as_ref().map(|m| m.value)
    }

    /// Views this outcome as a [`CheckOutcome`] (via
    /// [`RandomReport::as_explore_report`]).
    #[must_use]
    pub fn as_check_outcome(&self) -> CheckOutcome {
        CheckOutcome {
            report: self.report.as_explore_report(),
            in_contract_violations: self.in_contract_violations,
            out_of_contract_violations: self.out_of_contract_violations,
            counterexample: self.counterexample.clone(),
        }
    }
}

/// What one sampled schedule contributes to the merge. Only violating jobs
/// carry their schedule; the objective argmax schedule is reconstructed
/// afterwards by re-running the winning seed (cheaper than shipping every
/// terminal schedule back).
struct ScheduleResult {
    steps: u64,
    terminal: bool,
    fingerprint: u128,
    objective: Option<u64>,
    violation: Option<(String, bool, Vec<ProcId>)>,
}

/// Runs schedule `i` of the sampling plan: one fresh simulator under a
/// scheduler seeded with [`schedule_seed`]`(bounds.seed, i)`.
fn run_schedule(spec: &SimSpec, n: usize, bounds: &RandomBounds, i: u64) -> (Simulator, u64) {
    let seed = schedule_seed(bounds.seed, i);
    let mut sim = Simulator::new(spec);
    let taken = if bounds.depth_d == 0 {
        let mut sched = SeededRandom::new(seed);
        shm_sim::run(&mut sim, &mut sched, bounds.steps)
    } else {
        let mut sched = PctScheduler::new(seed, n, bounds.depth_d, bounds.steps);
        shm_sim::run(&mut sim, &mut sched, bounds.steps)
    };
    (sim, taken)
}

/// Samples `bounds.schedules` randomized schedules of `scenario`, judging
/// each end state with the Specification 4.1 polling oracle (under the
/// algorithm's `max_concurrent_waiters` contract) and maximizing the
/// signaler's RMRs over terminal schedules — the randomized counterpart of
/// [`crate::check()`]. Deterministic at any thread count: seeds derive from
/// submission indices and results merge in submission order.
#[must_use]
pub fn check_random(scenario: &ScenarioSpec<'_>, bounds: &RandomBounds) -> RandomOutcome {
    let spec = scenario.build();
    let oracle = PollingSpecOracle {
        max_concurrent_waiters: scenario.algorithm.max_concurrent_waiters(),
    };
    let objective = ProcRmrs(scenario.signaler());
    let n = scenario.n();

    // Created on the serial submitting path, so the meter's track (and with
    // it the sorted frame stream) is thread-count independent; parallel
    // jobs tick one unit each, emitting at every cadence crossing.
    let label = format!(
        "{}/{}/n={}",
        scenario.algorithm.name(),
        model_tag(scenario.model),
        n
    );
    let meter = shm_obs::progress::SharedMeter::new("pct", &label, 64, Some(bounds.schedules));

    let jobs: Vec<u64> = (0..bounds.schedules).collect();
    let results = shm_pool::map_indexed(shm_pool::threads(), jobs, |_, i| {
        shm_obs::counter!("pct.schedules");
        if let Some(m) = &meter {
            m.tick();
        }
        let (sim, taken) = run_schedule(&spec, n, bounds, i);
        shm_obs::counter!("pct.steps", taken);
        let terminal = sim.all_done();
        let violation = oracle.check(&sim).err().map(|desc| {
            shm_obs::counter!("pct.oracle_failures");
            (desc, oracle.in_contract(&sim), sim.schedule().to_vec())
        });
        ScheduleResult {
            steps: taken,
            terminal,
            fingerprint: sim.state_fingerprint(),
            objective: terminal.then(|| objective.measure(&sim)),
            violation,
        }
    });

    // Submission-index merge: every fold below visits results in job order.
    // The fingerprint coverage set is the one structure that grows with the
    // schedule count, so it takes the memory budget (spilling to compressed
    // disk runs beyond it, which changes no count — only where keys live).
    let mut report = RandomReport::default();
    let mut fingerprints = VisitedStore::new(bounds.mem_budget, None);
    let mut best: Option<(u64, u64)> = None; // (value, job index)
    for (i, r) in results.iter().enumerate() {
        report.schedules_run += 1;
        report.steps_taken += r.steps;
        report.terminals += u64::from(r.terminal);
        fingerprints.insert((r.fingerprint, 0, 0, 0), Vec::new);
        if let Some((desc, in_contract, schedule)) = &r.violation {
            report.violations_found += 1;
            report.violations_in_contract += u64::from(*in_contract);
            if report.violations.len() < RandomReport::KEEP_VIOLATIONS {
                report.violations.push(FoundViolation {
                    oracle: oracle.name(),
                    description: desc.clone(),
                    in_contract: *in_contract,
                    schedule: schedule.clone(),
                });
            }
        }
        if let Some(v) = r.objective {
            // Strict >: ties keep the earliest submission index.
            if best.is_none_or(|(bv, _)| v > bv) {
                best = Some((v, i as u64));
            }
        }
    }
    report.distinct_fingerprints = fingerprints.len();
    report.peak_visited_bytes = fingerprints.peak_bytes();
    report.spilled_bytes = fingerprints.spilled_bytes();
    shm_obs::counter!("pct.distinct_fingerprints", report.distinct_fingerprints);
    if let Some(m) = &meter {
        m.summary(&[
            ("schedules", report.schedules_run),
            ("steps", report.steps_taken),
            ("terminals", report.terminals),
            ("distinct_fingerprints", report.distinct_fingerprints),
            ("violations", report.violations_found),
            ("peak_visited_bytes", report.peak_visited_bytes),
            ("spilled_bytes", report.spilled_bytes),
        ]);
    }
    report.max_objective = best.map(|(value, i)| {
        let (sim, _) = run_schedule(&spec, n, bounds, i);
        ObjectiveResult {
            name: objective.name(),
            value,
            schedule: sim.schedule().to_vec(),
        }
    });

    // Identical packaging to `check`: shrink the first violation preserving
    // verdict + contract classification, then re-validate through the
    // differential RMR audit. Replay is a pure function of
    // `(spec, schedule)` — no scheduler or rng state is involved — so the
    // serialized counterexample alone reproduces the violating state.
    let counterexample = report.violations.first().map(|v| {
        let want_in_contract = v.in_contract;
        let keep = |sim: &Simulator| {
            oracle.check(sim).is_err() && oracle.in_contract(sim) == want_in_contract
        };
        let schedule = shrink_schedule(&spec, &v.schedule, keep);
        let audit_clean = replay(&spec, &schedule).audit(&spec).is_clean();
        Counterexample {
            algorithm: scenario.algorithm.name().to_owned(),
            oracle: v.oracle.to_owned(),
            description: v.description.clone(),
            in_contract: v.in_contract,
            model: model_tag(scenario.model),
            n: scenario.n(),
            seed: scenario.seed,
            schedule,
            shrunk_from: v.schedule.len(),
            max_depth: Some(bounds.steps as usize),
            max_preemptions: None,
            audit_clean,
        }
    });

    RandomOutcome {
        in_contract_violations: report.violations_in_contract,
        out_of_contract_violations: report.out_of_contract_violations(),
        counterexample,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shm_sim::CostModel;
    use signaling::algorithms::Broadcast;
    use signaling::SignalingAlgorithm;

    fn scenario<'a>(algo: &'a dyn SignalingAlgorithm, waiters: usize) -> ScenarioSpec<'a> {
        ScenarioSpec {
            algorithm: algo,
            waiters,
            max_polls: 2,
            signaler_polls_first: 1,
            model: CostModel::Dsm,
            seed: None,
        }
    }

    #[test]
    fn derived_seeds_are_index_pure_and_distinct() {
        let a: Vec<u64> = (0..64).map(|i| schedule_seed(42, i)).collect();
        let b: Vec<u64> = (0..64).map(|i| schedule_seed(42, i)).collect();
        assert_eq!(a, b);
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 64, "splitmix stream collides within 64 draws");
        assert_ne!(schedule_seed(42, 0), schedule_seed(43, 0));
    }

    #[test]
    fn broadcast_is_clean_under_pct_at_n8() {
        let out = check_random(&scenario(&Broadcast, 8), &RandomBounds::pct(7, 64, 3, 4000));
        assert!(out.is_clean(), "{:?}", out.report.violations);
        assert_eq!(out.report.schedules_run, 64);
        assert!(out.report.terminals > 0, "give-up bounds terminate runs");
        assert!(out.report.distinct_fingerprints > 1, "sampling spread out");
        assert!(out.max_signaler_rmrs().is_some());
    }

    #[test]
    fn walk_mode_is_clean_and_deterministic() {
        let run = || {
            let out = check_random(&scenario(&Broadcast, 4), &RandomBounds::walk(9, 32, 4000));
            (
                out.report.terminals,
                out.report.distinct_fingerprints,
                out.max_signaler_rmrs(),
                out.report
                    .max_objective
                    .as_ref()
                    .map(|m| m.schedule.clone()),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn pct_outcome_views_as_check_outcome() {
        let out = check_random(&scenario(&Broadcast, 2), &RandomBounds::pct(3, 8, 2, 2000));
        let as_check = out.as_check_outcome();
        assert!(!as_check.report.exhaustive, "sampling is never a proof");
        assert_eq!(as_check.report.explored, 8);
        assert_eq!(as_check.is_clean(), out.is_clean());
    }
}
