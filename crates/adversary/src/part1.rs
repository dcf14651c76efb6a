//! Part 1 of the lower-bound proof (§6.2), executable.
//!
//! All N processes participate as waiters, repeatedly calling `Poll()`. The
//! runner builds a history round by round:
//!
//! 1. **Advance**: each active, unstable process takes local steps until it
//!    is *about to* perform an RMR (detected with [`shm_sim::Simulator::peek_transition`],
//!    which inspects the deterministic step machine without touching
//!    memory). A process that completes `probe_calls` whole `Poll()` calls
//!    without reaching an RMR is declared **stable** (Definition 6.8,
//!    decided by a bounded solo probe — exact for all algorithms shipped
//!    here, whose per-call behaviour is eventually periodic).
//! 2. **Resolve**: pending RMRs that would *see* or *touch* an active
//!    process (Definitions 6.4/6.5) are resolved by erasing processes —
//!    a greedy independent set of the conflict graph survives (Turán's
//!    theorem, as in the paper). Pending writes to the same variable
//!    trigger the paper's case split: with ⌊√X⌋ writers on one variable the
//!    **roll-forward** case applies (apply those writes, roll the last
//!    writer forward to completion, erasing whomever it meets); otherwise
//!    the **erasing** case keeps one writer per variable and resolves
//!    prior-writer conflicts (regularity condition 3) with a second
//!    independent set.
//! 3. **Apply**: surviving pending reads, then writes, are executed.
//!
//! Every erasure is implemented as *filtered replay* of the recorded
//! schedule and certified by survivor-projection equality (Lemma 6.7). When
//! certification fails — possible only with primitives outside the
//! read/write/CAS/LLSC class, such as FAA — the erasure is abandoned and
//! counted in [`RoundReport::blocked_erasures`].
//!
//! The loop ends when every active process is stable (proceed to Part 2),
//! or after `max_rounds` rounds (the algorithm never stabilizes — its
//! waiters pay unbounded RMRs themselves, the other horn of the bound).

use crate::graph::ConflictGraph;
use crate::report::RoundReport;
use shm_sim::{
    CostModel, Op, ProcId, RepeatUntil, ScriptedCall, SimSpec, Simulator, StepReport,
    TransitionPeek,
};
use signaling::{kinds, AlgorithmInstance, SignalingAlgorithm};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Minimum steps between the simulator checkpoints erasure starts from
/// (the effective interval is `max(CHECKPOINT_INTERVAL, n)`).
const CHECKPOINT_INTERVAL: usize = 128;

/// Tuning knobs for the Part-1 construction.
#[derive(Clone, Copy, Debug)]
pub struct Part1Config {
    /// Number of processes (the paper's N).
    pub n: usize,
    /// Maximum rounds before giving up on stabilization (the paper's c; our
    /// algorithms stabilize within 3 rounds or never).
    pub max_rounds: usize,
    /// Complete `Poll()` calls without an RMR required to declare a process
    /// stable.
    pub probe_calls: u64,
    /// Local steps without an RMR after which a process that has *not*
    /// completed a call is declared stable anyway ("parked"): it busy-waits
    /// on local memory mid-call, which satisfies Definition 6.8 (a solo run
    /// incurs zero RMRs) without ever reaching a call boundary. Lock-based
    /// algorithms — e.g. the Corollary 6.14 read/write transformation —
    /// park waiters like this.
    pub max_local_steps: u64,
    /// Erase in place with [`Simulator::erase_certified_in_place`], from
    /// the simulator's checkpoints. When `false`, every erasure is certified
    /// by a from-scratch replay plus full projection comparison — the
    /// reference path the incremental one is tested against.
    pub incremental: bool,
    /// Run the differential audit ([`Simulator::audit`]) over the final
    /// history of each phase: a naive shadow executor re-runs the recorded
    /// schedule under reference implementations of all four cost models and
    /// diffs every charge, cache state and memory image against the
    /// incremental path. Expensive (full re-execution × 4 models); off by
    /// default.
    pub audit: bool,
}

impl Default for Part1Config {
    fn default() -> Self {
        Part1Config {
            n: 64,
            max_rounds: 8,
            probe_calls: 3,
            max_local_steps: 4_096,
            incremental: true,
            audit: false,
        }
    }
}

/// Result of running Part 1.
#[derive(Clone, Debug)]
pub struct Part1Outcome {
    /// Per-round reports.
    pub rounds: Vec<RoundReport>,
    /// Whether every surviving active process stabilized.
    pub stabilized: bool,
    /// The stable survivors (the waiters Part 2 will hide from the signaler).
    pub stable: BTreeSet<ProcId>,
    /// Rolled-forward processes (completed a call and terminated).
    pub finished: BTreeSet<ProcId>,
    /// Erased processes.
    pub erased: BTreeSet<ProcId>,
    /// Stable processes that are *parked*: busy-waiting on local memory in
    /// the middle of a call (they can never complete a poll solo; see
    /// [`Part1Config::max_local_steps`]).
    pub parked: BTreeSet<ProcId>,
    /// Total erasures rejected by projection certification.
    pub blocked_erasures: usize,
    /// Total RMRs in the constructed history.
    pub total_rmrs: u64,
    /// Number of processes that took at least one step.
    pub participants: usize,
    /// Whether the constructed history is regular (Definition 6.6, with the
    /// adversary's finished set).
    pub regular: bool,
    /// Wall-clock milliseconds spent advancing processes (recording steps).
    pub record_ms: f64,
    /// Wall-clock milliseconds spent on round machinery other than
    /// recording: conflict resolution, erasure replays, roll-forwards.
    pub rounds_ms: f64,
    /// Differential audit of the final Part-1 history against the naive
    /// reference executor (present iff [`Part1Config::audit`]).
    pub audit: Option<shm_sim::AuditReport>,
}

/// Verdict of advancing one process through its local steps.
enum Advance {
    /// Completed `probe_calls` calls without an RMR (stable at a boundary).
    Stable,
    /// Exceeded the local-step horizon without an RMR or a completed call:
    /// busy-waiting on local memory mid-call (stable, but *parked*).
    Parked,
    /// About to perform this RMR.
    Pending(Op),
    /// Source exhausted.
    Terminated,
}

/// The Part-1 construction driver. Owns the evolving simulator so Part 2
/// can continue from the stabilized state.
pub struct Part1Runner {
    /// The reusable initial conditions (needed by replay).
    pub spec: SimSpec,
    /// The algorithm instance (needed by Part 2 to build the signal call).
    pub instance: Arc<dyn AlgorithmInstance>,
    /// The evolving execution.
    pub sim: Simulator,
    /// Erased processes.
    pub erased: BTreeSet<ProcId>,
    /// Rolled-forward (finished) processes.
    pub finished: BTreeSet<ProcId>,
    /// Stable processes.
    pub stable: BTreeSet<ProcId>,
    /// Stable processes parked mid-call (subset of `stable`).
    pub parked: BTreeSet<ProcId>,
    /// The algorithm's participation contract
    /// ([`SignalingAlgorithm::max_concurrent_waiters`]): histories whose
    /// peak concurrent-waiter count exceeds this are out of contract, and
    /// safety failures in them must not be reported as violations.
    pub contract_waiters: Option<usize>,
    cfg: Part1Config,
    blocked: usize,
    /// Wall-clock nanoseconds spent advancing processes (history recording).
    record_nanos: u128,
    /// Algorithm name, for progress-frame labels.
    algo_name: String,
}

impl Part1Runner {
    /// Sets up N waiters running `algo` in the DSM model.
    #[must_use]
    pub fn new(algo: &dyn SignalingAlgorithm, cfg: Part1Config) -> Self {
        let mut layout = shm_sim::MemLayout::new();
        let instance = algo.instantiate(&mut layout, cfg.n);
        let sources = (0..cfg.n)
            .map(|i| {
                let pid = ProcId(i as u32);
                let inst = Arc::clone(&instance);
                let poll =
                    ScriptedCall::new(kinds::POLL, "Poll", Arc::new(move || inst.poll_call(pid)));
                // Unbounded polling; the §4 variation lets waiters stop after
                // finitely many polls, which the adversary exercises through
                // erasing (zero polls) and rolling forward (stop now).
                Box::new(RepeatUntil::new(poll, 1)) as Box<dyn shm_sim::CallSource>
            })
            .collect();
        let spec = SimSpec {
            layout,
            sources,
            model: CostModel::Dsm,
        };
        let mut sim = Simulator::new(&spec);
        if cfg.incremental {
            // Scale the interval with n: the schedule grows ~n steps per
            // round, so this keeps the checkpoint count O(rounds) while the
            // event-walk certifier stays cheap over an interval-long span.
            sim.enable_checkpoints(CHECKPOINT_INTERVAL.max(cfg.n));
        }
        Part1Runner {
            spec,
            instance,
            sim,
            erased: BTreeSet::new(),
            finished: BTreeSet::new(),
            stable: BTreeSet::new(),
            parked: BTreeSet::new(),
            contract_waiters: algo.max_concurrent_waiters(),
            cfg,
            blocked: 0,
            record_nanos: 0,
            algo_name: algo.name().to_owned(),
        }
    }

    /// The configuration this runner was built with.
    #[must_use]
    pub fn config(&self) -> &Part1Config {
        &self.cfg
    }

    /// Processes that are neither erased nor finished.
    #[must_use]
    pub fn active(&self) -> Vec<ProcId> {
        (0..self.cfg.n as u32)
            .map(ProcId)
            .filter(|p| !self.erased.contains(p) && !self.finished.contains(p))
            .collect()
    }

    fn is_active(&self, p: ProcId) -> bool {
        !self.erased.contains(&p) && !self.finished.contains(&p)
    }

    /// Attempts to erase `batch`, certifying via survivor projections.
    /// Returns `true` on success (state replaced by the filtered replay).
    pub fn try_erase(&mut self, batch: &BTreeSet<ProcId>) -> bool {
        if batch.is_empty() {
            return true;
        }
        let mut new_erased = self.erased.clone();
        new_erased.extend(batch.iter().copied());
        if self.cfg.incremental {
            // Incremental path: certify from the last checkpoint before the
            // batch's first step and apply the erasure in place, so the
            // shared history prefix is never re-executed.
            // (`erase_certified_in_place` takes the *full* erased set:
            // previously erased processes have no recorded steps, so they
            // never move the splice point.)
            if self.sim.erase_certified_in_place(&self.spec, &new_erased) {
                self.erased = new_erased;
                true
            } else {
                false
            }
        } else {
            // Reference path: from-scratch replay + exact projection
            // comparison (what the incremental path is certified against).
            let replayed = Simulator::replay(&self.spec, self.sim.schedule(), &new_erased);
            let ok = (0..self.cfg.n as u32).map(ProcId).all(|p| {
                new_erased.contains(&p)
                    || replayed.history().projection(p) == self.sim.history().projection(p)
            });
            if ok {
                self.erased = new_erased;
                self.sim = replayed;
                true
            } else {
                false
            }
        }
    }

    /// Tries to erase `batch` — all at once first (one replay), then member
    /// by member for the stragglers. Returns (erased, blocked).
    fn erase_individually(&mut self, batch: &BTreeSet<ProcId>) -> (BTreeSet<ProcId>, usize) {
        if self.try_erase(batch) {
            return (batch.clone(), 0);
        }
        let mut done = BTreeSet::new();
        let mut blocked = 0;
        for &q in batch {
            if self.try_erase(&BTreeSet::from([q])) {
                done.insert(q);
            } else {
                blocked += 1;
            }
        }
        (done, blocked)
    }

    /// Advances `p` through local steps until it is about to perform an RMR
    /// (leaving that RMR as its very next step), stabilizes, or terminates.
    fn advance(&mut self, p: ProcId) -> Advance {
        let start_calls = self.sim.proc_stats(p).calls_completed;
        let mut steps = 0u64;
        loop {
            match self.sim.peek_transition(p) {
                TransitionPeek::NotRunnable | TransitionPeek::WillTerminate => {
                    return Advance::Terminated;
                }
                TransitionPeek::Return { .. } => {
                    let _ = self.sim.step(p);
                }
                TransitionPeek::Access(op) => {
                    if self.sim.op_would_be_rmr(p, &op) {
                        return Advance::Pending(op);
                    }
                    let _ = self.sim.step(p);
                }
            }
            if self.sim.proc_stats(p).calls_completed - start_calls >= self.cfg.probe_calls {
                return Advance::Stable;
            }
            steps += 1;
            if steps >= self.cfg.max_local_steps {
                return Advance::Parked;
            }
        }
    }

    /// Executes the access that `advance` left pending for `p`. Returns the
    /// operation actually performed.
    fn apply_pending(&mut self, p: ProcId) -> Op {
        match self.sim.step(p) {
            StepReport::Access { op, .. } => op,
            other => panic!("expected pending access for {p}, got {other:?}"),
        }
    }

    /// Whether `op`, executed now, would perform a nontrivial write.
    fn op_writes(&self, op: &Op) -> bool {
        match *op {
            Op::Write(..) | Op::Faa(..) | Op::Fas(..) | Op::Tas(_) => true,
            Op::Cas(a, expected, _) => self.sim.memory().peek(a) == expected,
            Op::Sc(..) => true, // conservative
            Op::Read(_) | Op::Ll(_) => false,
        }
    }

    /// Runs one round. Returns its report; `pending == 0` means everything
    /// active is stable and the construction is complete.
    pub fn run_round(&mut self, index: usize) -> RoundReport {
        let _span = shm_obs::Span::enter("part1.round");
        shm_obs::counter!("part1.rounds");
        let mut report = RoundReport {
            index,
            ..RoundReport::default()
        };

        // Phase 1: advance unstable actives to their next RMR. Advancing in
        // *descending* pid order is deliberate: signalers typically visit
        // waiters in ascending pid order, so the waiters erased first during
        // the wild goose chase are the ones whose first recorded step is
        // latest — which keeps the incremental replay's suffix (everything
        // after the erased process's first step) short. Any fair order is a
        // legal adversary schedule; the reference path uses the same one.
        let advance_start = std::time::Instant::now();
        let advance_span = shm_obs::Span::enter("part1.advance");
        let mut pending: BTreeMap<ProcId, Op> = BTreeMap::new();
        for p in self.active().into_iter().rev() {
            if self.stable.contains(&p) {
                continue;
            }
            match self.advance(p) {
                Advance::Stable => {
                    self.stable.insert(p);
                    report.newly_stable += 1;
                }
                Advance::Parked => {
                    self.stable.insert(p);
                    self.parked.insert(p);
                    report.newly_stable += 1;
                }
                Advance::Pending(op) => {
                    pending.insert(p, op);
                }
                Advance::Terminated => {
                    self.finished.insert(p);
                }
            }
        }
        drop(advance_span);
        self.record_nanos += advance_start.elapsed().as_nanos();
        report.pending = pending.len();
        if pending.is_empty() {
            return report;
        }

        // Phase 2: conflict resolution fixpoint. Erasing can change what a
        // pending access would observe (the last writer of its cell may
        // change), so iterate until clean.
        let resolve_span = shm_obs::Span::enter("part1.resolve");
        for _ in 0..self.cfg.n + 2 {
            let mut to_erase: BTreeSet<ProcId> = BTreeSet::new();
            let mut graph = ConflictGraph::new(pending.keys().copied());
            // Conflicts with quiet (non-pending) active processes: erasing
            // the quiet hub is cheaper when several pending RMRs converge on
            // it; a singleton conflict erases the issuer instead, keeping
            // the stable population large.
            let mut quiet_conflicts: BTreeMap<ProcId, Vec<ProcId>> = BTreeMap::new();
            for (&p, op) in &pending {
                let (sees, touches) = self.sim.op_observation(p, op);
                for q in [sees, touches].into_iter().flatten() {
                    if self.is_active(q) && q != p {
                        if pending.contains_key(&q) {
                            graph.add_edge(p, q);
                        } else {
                            quiet_conflicts.entry(q).or_default().push(p);
                        }
                    }
                }
            }
            for (q, issuers) in &quiet_conflicts {
                if issuers.len() >= 2 {
                    to_erase.insert(*q);
                } else {
                    to_erase.extend(issuers.iter().copied());
                }
            }
            let keep = graph.greedy_independent_set();
            for p in pending.keys() {
                if !keep.contains(p) {
                    to_erase.insert(*p);
                }
            }
            if to_erase.is_empty() {
                break;
            }
            let (erased, blocked) = self.erase_individually(&to_erase);
            report.blocked_erasures += blocked;
            self.blocked += blocked;
            for q in &erased {
                pending.remove(q);
                self.stable.remove(q);
                report.erased.insert(*q);
            }
            if erased.is_empty() {
                // Nothing certifiable: give up on minimality this round and
                // apply the conflicting accesses as they are.
                break;
            }
        }
        drop(resolve_span);

        // Phase 3: apply surviving reads.
        let (reads, writes): (Vec<_>, Vec<_>) = pending
            .iter()
            .map(|(&p, &op)| (p, op))
            .partition(|(_, op)| !self.op_writes(op));
        for &(p, _) in &reads {
            let _ = self.apply_pending(p);
            report.applied_reads += 1;
        }

        // Phase 4: writes — the paper's case split.
        if writes.is_empty() {
            return report;
        }
        let mut by_addr: BTreeMap<shm_sim::Addr, Vec<ProcId>> = BTreeMap::new();
        for &(p, op) in &writes {
            by_addr.entry(op.addr()).or_default().push(p);
        }
        let x = writes.len();
        let threshold = ((x as f64).sqrt().floor() as usize).max(2);
        let biggest = by_addr
            .values()
            .max_by_key(|v| v.len())
            .expect("non-empty")
            .clone();

        if biggest.len() >= threshold {
            // Roll-forward case: erase all other pending writers, apply the
            // pile-up in ID order, roll the last writer forward.
            report.roll_forward_case = true;
            let group: BTreeSet<ProcId> = biggest.iter().copied().collect();
            let others: BTreeSet<ProcId> = writes
                .iter()
                .map(|&(p, _)| p)
                .filter(|p| !group.contains(p))
                .collect();
            let (erased, blocked) = self.erase_individually(&others);
            report.blocked_erasures += blocked;
            self.blocked += blocked;
            for q in &erased {
                report.erased.insert(*q);
                self.stable.remove(q);
            }
            let mut appliers: Vec<ProcId> = group.iter().copied().collect();
            appliers.sort_unstable();
            for &p in &appliers {
                let _ = self.apply_pending(p);
                report.applied_writes += 1;
            }
            // The last writer is rolled forward: it completes its pending
            // call (erasing active processes it is about to see or touch)
            // and terminates.
            let r = *appliers.last().expect("non-empty group");
            let chase_erased = self.roll_forward(r, &mut report);
            for q in chase_erased {
                report.erased.insert(q);
            }
            report.rolled_forward = Some(r);
            self.finished.insert(r);
        } else {
            // Erasing case: keep one writer per variable.
            let resolve_span = shm_obs::Span::enter("part1.resolve");
            let mut to_erase: BTreeSet<ProcId> = BTreeSet::new();
            let mut kept: Vec<ProcId> = Vec::new();
            for procs in by_addr.values() {
                let mut sorted = procs.clone();
                sorted.sort_unstable();
                kept.push(sorted[0]);
                to_erase.extend(sorted[1..].iter().copied());
            }
            // Prior-writer conflicts (regularity condition 3): a kept writer
            // about to write a cell previously written by another active
            // process conflicts with it.
            let mut graph = ConflictGraph::new(kept.iter().copied());
            let writers = self.sim.history().cell_writers();
            for &p in &kept {
                let Some(prior) = writers.get(&pending[&p].addr()) else {
                    continue;
                };
                for &q in &prior.all {
                    if q != p && self.is_active(q) {
                        if kept.contains(&q) {
                            graph.add_edge(p, q);
                        } else {
                            to_erase.insert(p);
                        }
                    }
                }
            }
            let keep = graph.greedy_independent_set();
            for p in &kept {
                if !keep.contains(p) {
                    to_erase.insert(*p);
                }
            }
            let (erased, blocked) = self.erase_individually(&to_erase);
            report.blocked_erasures += blocked;
            self.blocked += blocked;
            for q in &erased {
                report.erased.insert(*q);
                self.stable.remove(q);
            }
            drop(resolve_span);
            let mut survivors: Vec<ProcId> = writes
                .iter()
                .map(|&(p, _)| p)
                .filter(|p| self.is_active(*p))
                .collect();
            survivors.sort_unstable();
            for p in survivors {
                let _ = self.apply_pending(p);
                report.applied_writes += 1;
            }
        }
        report
    }

    /// Rolls `r` forward: completes its current call, erasing (when
    /// certified) any active process it is about to see or touch. Returns
    /// the processes erased along the way.
    fn roll_forward(&mut self, r: ProcId, report: &mut RoundReport) -> BTreeSet<ProcId> {
        let _span = shm_obs::Span::enter("part1.rollforward");
        shm_obs::counter!("part1.rollforward");
        let mut erased_here = BTreeSet::new();
        let mut guard = 0u64;
        while self.sim.has_pending_call(r) && self.sim.is_runnable(r) {
            guard += 1;
            assert!(
                guard < self.cfg.max_local_steps,
                "roll-forward of {r} did not terminate"
            );
            if let TransitionPeek::Access(op) = self.sim.peek_transition(r) {
                let (sees, touches) = self.sim.op_observation(r, &op);
                let mut retry = false;
                for q in [sees, touches].into_iter().flatten() {
                    if q != r && self.is_active(q) && !erased_here.contains(&q) {
                        if self.try_erase(&BTreeSet::from([q])) {
                            self.stable.remove(&q);
                            erased_here.insert(q);
                            retry = true;
                        } else {
                            report.blocked_erasures += 1;
                            self.blocked += 1;
                        }
                    }
                }
                if retry {
                    // Erasure may have changed what the access observes;
                    // re-evaluate before stepping.
                    continue;
                }
            }
            let _ = self.sim.step(r);
        }
        erased_here
    }

    /// Runs rounds until stabilization or the round budget is exhausted.
    pub fn run(&mut self) -> Part1Outcome {
        let total_start = std::time::Instant::now();
        let record_base = self.record_nanos;
        let label = format!("{}/n={}", self.algo_name, self.cfg.n);
        let mut meter =
            shm_obs::progress::Meter::new("adversary", &label, 1, Some(self.cfg.max_rounds as u64));
        let mut rounds = Vec::new();
        let mut stabilized = false;
        for i in 1..=self.cfg.max_rounds {
            let report = self.run_round(i);
            let done = report.pending == 0;
            rounds.push(report);
            if let Some(m) = meter.as_mut() {
                if m.tick(1) {
                    let fields = [
                        ("erased", self.erased.len() as u64),
                        ("stable", self.stable.len() as u64),
                        ("finished", self.finished.len() as u64),
                        ("blocked", self.blocked as u64),
                    ];
                    m.emit(&fields);
                }
            }
            if done {
                stabilized = true;
                break;
            }
        }
        if let Some(m) = meter.as_mut() {
            m.summary(&[
                ("rounds", rounds.len() as u64),
                ("erased", self.erased.len() as u64),
                ("stable", self.stable.len() as u64),
                ("finished", self.finished.len() as u64),
                ("stabilized", u64::from(stabilized)),
            ]);
        }
        let total_nanos = total_start.elapsed().as_nanos();
        let record_nanos = self.record_nanos - record_base;
        let participants = (0..self.cfg.n as u32)
            .map(ProcId)
            .filter(|&p| self.sim.proc_stats(p).steps > 0)
            .count();
        let mut fin_for_regularity = self.finished.clone();
        // Stable processes are *active* in the paper's terms; only finished
        // ones count towards Fin.
        fin_for_regularity.retain(|p| !self.erased.contains(p));
        let regular = self
            .sim
            .history()
            .regularity_violations_given_fin(&fin_for_regularity)
            .is_empty();
        self.parked
            .retain(|p| self.stable.contains(p) && !self.erased.contains(p));
        // Attribute the surviving history's access costs to the part1 phase
        // (no-op unless an shm-obs collector is installed).
        self.sim.obs_flush("part1");
        let audit = self.cfg.audit.then(|| self.sim.audit(&self.spec));
        Part1Outcome {
            rounds,
            stabilized,
            stable: self.stable.clone(),
            finished: self.finished.clone(),
            erased: self.erased.clone(),
            parked: self.parked.clone(),
            blocked_erasures: self.blocked,
            total_rmrs: self.sim.totals().rmrs,
            participants,
            regular,
            record_ms: record_nanos as f64 / 1e6,
            rounds_ms: total_nanos.saturating_sub(record_nanos) as f64 / 1e6,
            audit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use signaling::algorithms::{Broadcast, CcFlag, FixedSignaler, QueueSignaling, SingleWaiter};

    fn cfg(n: usize) -> Part1Config {
        Part1Config {
            n,
            ..Part1Config::default()
        }
    }

    #[test]
    fn broadcast_stabilizes_immediately_with_everyone() {
        let mut runner = Part1Runner::new(&Broadcast, cfg(32));
        let out = runner.run();
        assert!(out.stabilized);
        assert_eq!(
            out.stable.len(),
            32,
            "polling the local flag is stable from the start"
        );
        assert_eq!(out.total_rmrs, 0);
        assert!(out.regular);
    }

    #[test]
    fn cc_flag_never_stabilizes_in_dsm() {
        let mut runner = Part1Runner::new(&CcFlag, cfg(16));
        let out = runner.run();
        assert!(!out.stabilized, "every poll of the global flag is an RMR");
        assert!(out.stable.is_empty());
        // Each round applies one read-RMR per active process.
        assert!(out.total_rmrs >= (16 * out.rounds.len()) as u64 / 2);
        assert!(out.regular, "reads of an unwritten global never see anyone");
    }

    #[test]
    fn single_waiter_triggers_roll_forward_and_stabilizes() {
        let mut runner = Part1Runner::new(&SingleWaiter, cfg(64));
        let out = runner.run();
        assert!(out.stabilized);
        assert!(
            out.rounds.iter().any(|r| r.roll_forward_case),
            "all first polls write W: the same-variable pile-up must trigger roll-forward"
        );
        assert!(out.finished.len() <= out.rounds.len());
        assert!(!out.stable.is_empty());
        assert!(out.regular, "rounds: {:?}", out.rounds);
        // Survivor count ~ sqrt(N) as in the paper's recursion.
        assert!(out.stable.len() >= 3, "stable: {}", out.stable.len());
    }

    #[test]
    fn fixed_signaler_stabilizes_by_erasing_the_flag_host() {
        let mut runner = Part1Runner::new(
            &FixedSignaler {
                signaler: ProcId(0),
            },
            cfg(32),
        );
        let out = runner.run();
        assert!(out.stabilized);
        // Every waiter's registration touches p0's module; the conflict
        // resolution must erase p0 (the star hub) and keep the others.
        assert!(out.erased.contains(&ProcId(0)));
        assert!(out.stable.len() >= 16);
        assert!(out.regular);
    }

    #[test]
    fn queue_faa_stabilizes_but_blocks_some_erasures_later() {
        let mut runner = Part1Runner::new(&QueueSignaling, cfg(64));
        let out = runner.run();
        assert!(out.stabilized);
        assert!(!out.stable.is_empty());
        // FAA pile-up on the ticket counter triggers roll-forward.
        assert!(out.rounds.iter().any(|r| r.roll_forward_case));
    }

    #[test]
    fn erasure_certification_rejects_faa_dependencies() {
        // Directly: two processes FAA the same counter; erasing the first
        // changes the second's ticket, so certification must fail.
        let mut runner = Part1Runner::new(&QueueSignaling, cfg(4));
        // Drive two processes through their FAAs manually.
        for p in [ProcId(0), ProcId(1)] {
            loop {
                match runner.sim.peek_transition(p) {
                    TransitionPeek::Access(op) => {
                        let _ = runner.sim.step(p);
                        if matches!(op, Op::Faa(..)) {
                            break;
                        }
                    }
                    _ => {
                        let _ = runner.sim.step(p);
                    }
                }
            }
        }
        assert!(
            !runner.try_erase(&BTreeSet::from([ProcId(0)])),
            "erasing the first FAA issuer must fail certification"
        );
        assert!(
            runner.try_erase(&BTreeSet::from([ProcId(1)])),
            "erasing the *last* FAA issuer is transparent"
        );
    }

    #[test]
    fn erased_processes_leave_no_trace() {
        let mut runner = Part1Runner::new(&SingleWaiter, cfg(32));
        let out = runner.run();
        let participants = runner.sim.history().participants();
        for q in &out.erased {
            assert!(!participants.contains(q), "{q} was erased but participates");
        }
    }

    #[test]
    fn audited_part1_run_is_clean() {
        // The audit shadow-executes the heavily erased/spliced Part-1
        // history under all four cost models and diffs it against the
        // incremental path.
        let mut runner = Part1Runner::new(
            &SingleWaiter,
            Part1Config {
                n: 32,
                audit: true,
                ..Part1Config::default()
            },
        );
        let out = runner.run();
        let audit = out.audit.expect("audit enabled");
        assert!(audit.is_clean(), "{}", audit.divergence.unwrap());
        assert_eq!(audit.models_checked, 4);
    }

    #[test]
    fn contract_waiters_reflects_the_algorithm() {
        assert_eq!(
            Part1Runner::new(&SingleWaiter, cfg(8)).contract_waiters,
            Some(1)
        );
        assert_eq!(Part1Runner::new(&Broadcast, cfg(8)).contract_waiters, None);
    }

    #[test]
    fn part1_is_deterministic() {
        let run = || {
            let mut runner = Part1Runner::new(&SingleWaiter, cfg(48));
            let out = runner.run();
            (out.stable, out.erased, out.finished, out.total_rmrs)
        };
        assert_eq!(run(), run());
    }

    /// A test algorithm replaying a fixed script per process: poll `k` of
    /// `p` reads `p`'s local counter `C[p]`, bumps it and performs entry
    /// `k` of `p`'s script, `(true, i)` a write of global `G[i]` and
    /// `(false, i)` a read, so each entry is one Part-1 round's pending RMR.
    /// Past its script a poll only reads `C[p]`: `p` is stable. One value
    /// is both the algorithm instance and, with `me` and `at` set, a poll.
    #[derive(Clone)]
    struct Scripted {
        script: Arc<Vec<Vec<(bool, usize)>>>,
        g: shm_sim::AddrRange,
        c: shm_sim::AddrRange,
        me: usize,
        at: u8,
    }

    impl SignalingAlgorithm for Scripted {
        fn name(&self) -> &'static str {
            "scripted"
        }
        fn primitive_class(&self) -> signaling::PrimitiveClass {
            signaling::PrimitiveClass::ReadWrite
        }
        fn instantiate(
            &self,
            layout: &mut shm_sim::MemLayout,
            n: usize,
        ) -> Arc<dyn AlgorithmInstance> {
            let g = layout.alloc_global_array(4, 0);
            let c = layout.alloc_per_process_array(n, 0);
            Arc::new(Scripted {
                g,
                c,
                ..self.clone()
            })
        }
    }

    impl AlgorithmInstance for Scripted {
        fn signal_call(&self, _pid: ProcId) -> Box<dyn shm_sim::ProcedureCall> {
            Box::new(shm_sim::ReturnConst(0))
        }
        fn poll_call(&self, pid: ProcId) -> Box<dyn shm_sim::ProcedureCall> {
            Box::new(Scripted {
                me: pid.index(),
                ..self.clone()
            })
        }
    }

    impl shm_sim::ProcedureCall for Scripted {
        fn step(&mut self, last: Option<shm_sim::Word>) -> shm_sim::Step {
            let (script, c) = (&self.script[self.me], self.c.at(self.me));
            self.at += 1;
            shm_sim::Step::Op(match (self.at, last.map(|w| w as usize)) {
                (1, _) => Op::Read(c),
                (2, Some(k)) if k < script.len() => Op::Write(c, k as u64 + 1),
                (3, Some(k)) => match script[k - 1] {
                    (true, i) => Op::Write(self.g.at(i), 1),
                    (false, i) => Op::Read(self.g.at(i)),
                },
                _ => return shm_sim::Step::Return(0),
            })
        }
        fn clone_call(&self) -> Box<dyn shm_sim::ProcedureCall> {
            Box::new(self.clone())
        }
    }

    /// Part 1's prior-writer check (regularity condition 3) in the erasing
    /// case. Round 1: p0 writes `G[0]`, p3 writes `G[2]`, and p1, p2 and p4
    /// read. Round 2: p0 writes `G[1]`, p1 writes `G[0]` and p4 writes
    /// `G[2]`, one writer per cell, so every writer is kept at first.
    /// * p1's prior writer p0 is a kept writer too: the conflict graph gets
    ///   the edge p0–p1, and its independent set keeps p0 (lower pid).
    /// * p4's prior writer p3 is active but not a kept writer (it is
    ///   stable): p4 is erased.
    /// * p2 only read `G[1]`, so p0's write there conflicts with no one.
    ///
    /// Both erasure paths erase exactly {p1, p4}, in round 2.
    #[test]
    fn erasing_case_resolves_prior_writer_conflicts() {
        let (r, w) = (|i| (false, i), |i| (true, i));
        let unset = shm_sim::MemLayout::new().alloc_global_array(0, 0);
        let algo = Scripted {
            script: Arc::new(vec![
                vec![w(0), w(1)],
                vec![r(3), w(0)],
                vec![r(1)],
                vec![w(2)],
                vec![r(3), w(2)],
            ]),
            g: unset,
            c: unset,
            me: 0,
            at: 0,
        };
        for incremental in [true, false] {
            let cfg = Part1Config {
                n: 5,
                incremental,
                ..Part1Config::default()
            };
            let mut runner = Part1Runner::new(&algo, cfg);
            let out = runner.run();
            let erased: Vec<_> = out.rounds.iter().map(|r| r.erased.clone()).collect();
            let p14 = BTreeSet::from([ProcId(1), ProcId(4)]);
            assert_eq!(
                erased,
                [BTreeSet::new(), p14, BTreeSet::new()],
                "{incremental}"
            );
            assert!(out.stabilized && out.regular && out.blocked_erasures == 0);
            assert!(out.rounds.iter().all(|r| !r.roll_forward_case));
            assert_eq!(
                out.stable,
                BTreeSet::from([ProcId(0), ProcId(2), ProcId(3)])
            );
        }
    }
}
