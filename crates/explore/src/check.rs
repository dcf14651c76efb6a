//! High-level entry point: explore a signaling scenario, classify what was
//! found, and package the first violation as a shrunk, audited
//! counterexample.

use crate::bounds::Bounds;
use crate::counterexample::{replay, shrink_schedule, Counterexample};
use crate::explorer::{explore_labelled, ExploreReport, FoundViolation};
use crate::oracle::{Oracle, PollingSpecOracle, ProcRmrs};
use shm_sim::{model_tag, CostModel, ProcId, SimSpec, Simulator};
use signaling::{Role, Scenario, SignalingAlgorithm};

/// A signaling scenario suitable for exhaustive exploration: `waiters`
/// give-up waiters (processes `0..waiters`, each polling at most
/// `max_polls` times) plus one signaler (process `waiters`, optionally
/// polling before it signals). Give-up bounds keep the schedule space
/// finite without any depth bound, so verdicts at small n are proofs.
pub struct ScenarioSpec<'a> {
    /// The algorithm under test.
    pub algorithm: &'a dyn SignalingAlgorithm,
    /// Number of waiter processes.
    pub waiters: usize,
    /// Give-up bound: each waiter polls at most this many times.
    pub max_polls: u64,
    /// Unsuccessful polls the signaler makes before signaling.
    pub signaler_polls_first: u64,
    /// Cost model to price accesses under.
    pub model: CostModel,
    /// Seed recorded in counterexamples when a seeded component (e.g. a
    /// seeded-buggy algorithm variant) is part of the scenario; exploration
    /// itself is seedless.
    pub seed: Option<u64>,
}

impl ScenarioSpec<'_> {
    /// Total number of processes (waiters + the signaler).
    #[must_use]
    pub fn n(&self) -> usize {
        self.waiters + 1
    }

    /// The signaler's process ID.
    #[must_use]
    pub fn signaler(&self) -> ProcId {
        ProcId(self.waiters as u32)
    }

    /// Builds the executable spec via the §4 scenario harness.
    #[must_use]
    pub fn build(&self) -> SimSpec {
        let mut roles = vec![
            Role::Waiter {
                max_polls: Some(self.max_polls),
            };
            self.waiters
        ];
        roles.push(Role::Signaler {
            polls_first: self.signaler_polls_first,
        });
        Scenario {
            algorithm: self.algorithm,
            roles,
            model: self.model,
        }
        .build()
    }

    /// The `algorithm/model/n=` label of this scenario's progress frames.
    pub(crate) fn label(&self) -> String {
        format!(
            "{}/{}/n={}",
            self.algorithm.name(),
            model_tag(self.model),
            self.n()
        )
    }

    /// Packages violation `v` of `spec` (this scenario, built) as a
    /// counterexample: shrinks its schedule by greedy step-deletion,
    /// preserving `oracle`'s verdict *and* the contract classification,
    /// then re-validates the shrunk replay through the differential RMR
    /// audit. `max_depth` and `max_preemptions` record the bounds `v` was
    /// found under. Replay is a pure function of `(spec, schedule)`, so
    /// the serialized counterexample alone reproduces the violating state.
    pub(crate) fn counterexample(
        &self,
        spec: &SimSpec,
        oracle: &dyn Oracle,
        v: &FoundViolation,
        max_depth: Option<usize>,
        max_preemptions: Option<usize>,
    ) -> Counterexample {
        let keep = |sim: &Simulator| {
            oracle.check(sim).is_err() && oracle.in_contract(sim) == v.in_contract
        };
        let schedule = shrink_schedule(spec, &v.schedule, keep);
        let audit_clean = replay(spec, &schedule).audit(spec).is_clean();
        Counterexample {
            algorithm: self.algorithm.name().to_owned(),
            oracle: v.oracle.to_owned(),
            description: v.description.clone(),
            in_contract: v.in_contract,
            model: model_tag(self.model),
            n: self.n(),
            seed: self.seed,
            schedule,
            shrunk_from: v.schedule.len(),
            max_depth,
            max_preemptions,
            audit_clean,
        }
    }
}

/// The result of [`check`]: the raw exploration report plus the contract
/// classification and (when anything violated) a shrunk counterexample.
pub struct CheckOutcome {
    /// The underlying exploration report.
    pub report: ExploreReport,
    /// Violations within the algorithm's participation contract — these
    /// count against the algorithm.
    pub in_contract_violations: u64,
    /// Violations outside the contract — recorded, not held against the
    /// algorithm.
    pub out_of_contract_violations: u64,
    /// The first violation in deterministic exploration order, shrunk by
    /// greedy step-deletion (preserving the oracle verdict *and* the
    /// contract classification) and re-validated through the differential
    /// RMR audit.
    pub counterexample: Option<Counterexample>,
}

impl CheckOutcome {
    /// Whether the scenario is clean: no in-contract violation found. Only a
    /// proof when [`ExploreReport::exhaustive`] also holds.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.in_contract_violations == 0
    }

    /// The empirical maximum of the signaler's RMRs over all complete
    /// schedules, if any terminal state was reached.
    #[must_use]
    pub fn max_signaler_rmrs(&self) -> Option<u64> {
        self.report.max_objective.as_ref().map(|m| m.value)
    }
}

/// Explores every schedule of `scenario` under `bounds`, checking
/// Specification 4.1 (polling semantics) with the algorithm's
/// `max_concurrent_waiters` contract, and maximizing the signaler's RMRs
/// over terminal states. Deterministic at any thread count.
#[must_use]
pub fn check(scenario: &ScenarioSpec<'_>, bounds: &Bounds) -> CheckOutcome {
    let spec = scenario.build();
    let oracle = PollingSpecOracle {
        max_concurrent_waiters: scenario.algorithm.max_concurrent_waiters(),
    };
    let objective = ProcRmrs(scenario.signaler());
    let report = explore_labelled(
        &spec,
        &[&oracle],
        Some(&objective),
        bounds,
        &scenario.label(),
    );
    let counterexample = report.violations.first().map(|v| {
        scenario.counterexample(&spec, &oracle, v, bounds.max_depth, bounds.max_preemptions)
    });
    CheckOutcome {
        in_contract_violations: report.violations_in_contract,
        out_of_contract_violations: report.out_of_contract_violations(),
        counterexample,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use signaling::algorithms::{Broadcast, CcFlag};

    fn scenario<'a>(algo: &'a dyn SignalingAlgorithm, model: CostModel) -> ScenarioSpec<'a> {
        ScenarioSpec {
            algorithm: algo,
            waiters: 2,
            max_polls: 1,
            signaler_polls_first: 0,
            model,
            seed: None,
        }
    }

    #[test]
    fn broadcast_is_clean_and_exhaustive_at_small_n() {
        let out = check(&scenario(&Broadcast, CostModel::Dsm), &Bounds::exhaustive());
        assert!(out.report.exhaustive);
        assert!(out.is_clean(), "{:?}", out.report.violations);
        assert_eq!(out.report.violations_found, 0);
        assert!(out.counterexample.is_none());
        assert!(out.max_signaler_rmrs().is_some());
    }

    #[test]
    fn cc_flag_is_clean_under_cc() {
        let out = check(
            &scenario(&CcFlag, CostModel::cc_default()),
            &Bounds::exhaustive(),
        );
        assert!(out.report.exhaustive);
        assert!(out.is_clean(), "{:?}", out.report.violations);
    }
}
