//! Pluggable oracles (safety checkers) and objectives (schedule-space
//! maximization targets).

use shm_sim::{CallRecord, ProcId, Simulator};
use signaling::{check_blocking_calls, check_polling_calls, kinds, waiter_processes};
use std::sync::Arc;

/// A safety oracle checked on every explored state.
///
/// The explorer judges every generated state on its own path (before any
/// deduplication) and treats a violating state as a leaf. That makes the
/// search sound for *history* properties — not just state predicates —
/// provided two contracts hold:
///
/// * **Earliest-witness detection**: every violating execution must pass
///   through a state at which `check` already rejects (the Specification
///   4.1 checkers satisfy this — a violation is visible the moment the
///   offending call returns — and so does a mutual-exclusion check phrased
///   as "two critical sections are open *now*").
/// * **Context completeness** ([`Oracle::dedup_context`]): any fact about
///   the *past event order* that can change the verdict of a *future*
///   state must be folded into the context word. States are merged only
///   when their fingerprints **and** contexts agree, so a clean history's
///   future verdicts become a function of (state, context, future steps).
pub trait Oracle: Send + Sync {
    /// Short identifier used in reports and counterexamples.
    fn name(&self) -> &'static str;

    /// `Ok(())` or a human-readable description of the first violation.
    /// `calls` is exactly `sim.history().calls()`: the explorer judges *and*
    /// dedup-contexts every generated state, so it reconstructs the records
    /// once per state and shares them; oracles that judge the state alone
    /// ignore them.
    ///
    /// # Errors
    ///
    /// Returns the violation description.
    fn check_with(&self, sim: &Simulator, calls: &[CallRecord]) -> Result<(), String>;

    /// [`Oracle::check_with`] on records reconstructed from `sim`.
    ///
    /// # Errors
    ///
    /// Returns the violation description.
    fn check(&self, sim: &Simulator) -> Result<(), String> {
        self.check_with(sim, &sim.history().calls())
    }

    /// Whether the history is within the algorithm's participation contract.
    /// Violations found out of contract are recorded but say nothing about
    /// the algorithm (PR 2's classification); defaults to `true`.
    fn in_contract(&self, _sim: &Simulator) -> bool {
        true
    }

    /// A word capturing every past order fact that can affect the verdict of
    /// a future state (see the trait docs); `calls` as in
    /// [`Oracle::check_with`]. The default (0) is correct for oracles whose
    /// verdicts are functions of the current state alone.
    ///
    /// Example: `FalseAfterSignalCompleted` condemns a *pending* poll that
    /// was invoked after a completed signal once it returns false — whether
    /// the invoke came before or after the signal's return is invisible in
    /// the per-process state, so [`PollingSpecOracle`] encodes it here.
    fn dedup_context(&self, _sim: &Simulator, _calls: &[CallRecord]) -> u64 {
        0
    }
}

/// Specification 4.1 (polling semantics), with the algorithm's
/// `max_concurrent_waiters` participation contract.
#[derive(Clone, Copy, Debug)]
pub struct PollingSpecOracle {
    /// The algorithm's contract ([`signaling::SignalingAlgorithm::max_concurrent_waiters`]);
    /// `None` = arbitrarily many waiters allowed.
    pub max_concurrent_waiters: Option<usize>,
}

impl Oracle for PollingSpecOracle {
    fn name(&self) -> &'static str {
        "spec4.1-polling"
    }

    fn check_with(&self, _sim: &Simulator, calls: &[CallRecord]) -> Result<(), String> {
        check_polling_calls(calls).map_err(|v| format!("{v:?}"))
    }

    fn in_contract(&self, sim: &Simulator) -> bool {
        self.max_concurrent_waiters
            .is_none_or(|m| waiter_processes(sim.history()).len() <= m)
    }

    /// `FalseAfterSignalCompleted` is the one Specification 4.1 clause whose
    /// verdict hinges on an *invoke-time* order fact: a pending poll invoked
    /// after the earliest signal completion must not return false, while a
    /// state-identical pending poll invoked *before* it may. The context is
    /// the bitmask of processes holding such a condemned-if-false pending
    /// poll. (The other clauses compare against the *return* step, which is
    /// in the future for every pending call, so they need no witness.)
    fn dedup_context(&self, _sim: &Simulator, calls: &[CallRecord]) -> u64 {
        let first_signal_complete = calls
            .iter()
            .filter(|c| c.kind == kinds::SIGNAL)
            .filter_map(|c| c.returned_at)
            .min();
        let Some(sc) = first_signal_complete else {
            return 0;
        };
        let mut mask = 0u64;
        for c in calls {
            if c.kind == kinds::POLL && c.returned_at.is_none() && c.invoked_at > sc {
                mask |= 1 << (c.pid.0 % 64);
            }
        }
        mask
    }
}

/// The blocking-semantics contract ("`Wait()` returns only after some
/// `Signal()` has begun"), with the same participation contract.
#[derive(Clone, Copy, Debug)]
pub struct BlockingSpecOracle {
    /// The algorithm's participation contract; `None` = unbounded.
    pub max_concurrent_waiters: Option<usize>,
}

impl Oracle for BlockingSpecOracle {
    fn name(&self) -> &'static str {
        "spec4.1-blocking"
    }

    fn check_with(&self, _sim: &Simulator, calls: &[CallRecord]) -> Result<(), String> {
        check_blocking_calls(calls).map_err(|v| format!("{v:?}"))
    }

    fn in_contract(&self, sim: &Simulator) -> bool {
        self.max_concurrent_waiters
            .is_none_or(|m| waiter_processes(sim.history()).len() <= m)
    }
}

/// A user invariant hook: any `Fn(&Simulator) -> Result<(), String>`.
#[derive(Clone)]
pub struct FnOracle {
    name: &'static str,
    #[allow(clippy::type_complexity)]
    f: Arc<dyn Fn(&Simulator) -> Result<(), String> + Send + Sync>,
}

impl FnOracle {
    /// Wraps a closure as an oracle.
    pub fn new(
        name: &'static str,
        f: impl Fn(&Simulator) -> Result<(), String> + Send + Sync + 'static,
    ) -> Self {
        FnOracle {
            name,
            f: Arc::new(f),
        }
    }
}

impl Oracle for FnOracle {
    fn name(&self) -> &'static str {
        self.name
    }

    fn check_with(&self, sim: &Simulator, _calls: &[CallRecord]) -> Result<(), String> {
        (self.f)(sim)
    }
}

/// A quantity maximized over all *terminal* states (states where every
/// process has terminated). Objectives must be functions of the state, which
/// makes the maximum invariant under both reductions: commuting reorders and
/// fingerprint-equal merges preserve every process's accumulated charges.
pub trait Objective: Send + Sync {
    /// Label used in reports (e.g. `rmrs(p2)`).
    fn name(&self) -> String;

    /// The value of this terminal state.
    fn measure(&self, sim: &Simulator) -> u64;
}

/// RMRs accumulated by one process — `ProcRmrs(signaler)` is the quantity
/// the §6 lower bound argues about.
#[derive(Clone, Copy, Debug)]
pub struct ProcRmrs(pub ProcId);

impl Objective for ProcRmrs {
    fn name(&self) -> String {
        format!("rmrs({})", self.0)
    }

    fn measure(&self, sim: &Simulator) -> u64 {
        sim.proc_stats(self.0).rmrs
    }
}

/// Total RMRs across all processes.
#[derive(Clone, Copy, Debug)]
pub struct TotalRmrs;

impl Objective for TotalRmrs {
    fn name(&self) -> String {
        "rmrs(total)".to_owned()
    }

    fn measure(&self, sim: &Simulator) -> u64 {
        sim.totals().rmrs
    }
}
