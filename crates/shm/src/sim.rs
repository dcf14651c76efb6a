//! The simulator: deterministic execution of step machines over shared
//! memory with exact cost accounting, schedule recording, and replay.

use crate::event::{Event, History};
use crate::ids::{Addr, ProcId, Word};
use crate::machine::{Call, CallKind, Step};
use crate::mem::{CellUndo, MemLayout, Memory};
use crate::model::{AccessCost, CostModel, CostState};
use crate::op::Op;
use crate::source::CallSource;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Everything needed to (re)start an execution from the initial state.
///
/// Replaying a recorded schedule against a fresh simulator built from the
/// same spec reproduces the execution exactly; replaying it with some
/// processes *erased* implements Lemma 6.7's history surgery.
#[derive(Clone, Debug)]
pub struct SimSpec {
    /// The shared-memory allocation plan.
    pub layout: MemLayout,
    /// Per-process call sources; `sources.len()` is the number of processes.
    pub sources: Vec<Box<dyn CallSource>>,
    /// The cost model to price accesses under.
    pub model: CostModel,
}

impl SimSpec {
    /// Number of processes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.sources.len()
    }
}

/// Execution status of a process.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Status {
    /// Still able to take steps.
    Runnable,
    /// Call source exhausted; the process terminated normally.
    Terminated,
    /// Stopped while performing a procedure call.
    Crashed,
}

/// Per-process statistics.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ProcStats {
    /// Steps taken (state-machine transitions, including returns).
    pub steps: u64,
    /// Memory accesses performed.
    pub accesses: u64,
    /// Remote memory references incurred.
    pub rmrs: u64,
    /// Interconnect messages generated.
    pub messages: u64,
    /// Procedure calls completed.
    pub calls_completed: u64,
}

/// Aggregate statistics for the whole execution.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Totals {
    /// Steps taken by all processes.
    pub steps: u64,
    /// Memory accesses performed by all processes.
    pub accesses: u64,
    /// Total RMRs.
    pub rmrs: u64,
    /// Total interconnect messages.
    pub messages: u64,
    /// Total cache invalidations (CC models only).
    pub invalidations: u64,
}

/// What one `step` call did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepReport {
    /// The process performed a memory access.
    Access {
        /// The operation performed.
        op: Op,
        /// The operation's result word.
        result: Word,
        /// The access's price.
        cost: AccessCost,
    },
    /// The process's current call returned.
    Returned {
        /// Domain tag of the completed call.
        kind: CallKind,
        /// Returned word.
        value: Word,
    },
    /// The process terminated (its source is exhausted).
    Terminated,
    /// The process was not runnable; nothing happened and the step was not
    /// recorded in the schedule.
    NotRunnable,
}

/// What one *single* `step` call would do next (see
/// [`Simulator::peek_transition`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransitionPeek {
    /// The step will perform this memory access.
    Access(Op),
    /// The step will complete the current (or immediately invoked) call.
    Return {
        /// Domain tag of the completing call.
        kind: CallKind,
        /// The value it will return.
        value: Word,
    },
    /// The step will terminate the process.
    WillTerminate,
    /// The process is not runnable.
    NotRunnable,
}

#[derive(Clone, Debug)]
pub(crate) struct ProcState {
    pub(crate) source: Box<dyn CallSource>,
    pub(crate) current: Option<Call>,
    pub(crate) last_op_result: Option<Word>,
    pub(crate) last_return: Option<Word>,
    pub(crate) status: Status,
    pub(crate) stats: ProcStats,
}

impl ProcState {
    /// The state [`Simulator::new`] starts every process in.
    fn initial(source: Box<dyn CallSource>) -> Self {
        ProcState {
            source,
            current: None,
            last_op_result: None,
            last_return: None,
            status: Status::Runnable,
            stats: ProcStats::default(),
        }
    }

    /// Whether this is still [`ProcState::initial`]. A source only advances
    /// inside a step, which counts in `stats.steps`; a crash or an injected
    /// call changes `status` or `current` without one.
    fn is_initial(&self) -> bool {
        self.status == Status::Runnable
            && self.current.is_none()
            && self.last_op_result.is_none()
            && self.last_return.is_none()
            && self.stats == ProcStats::default()
    }
}

/// An injected call, recorded so the re-step erasure path and the audit can
/// re-apply it.
///
/// `at` is the schedule position the injection preceded: the call was
/// injected after schedule entry `at - 1` executed and before entry `at`.
#[derive(Clone, Debug)]
pub(crate) struct Injection {
    pub(crate) at: usize,
    pub(crate) pid: ProcId,
    pub(crate) call: Call,
}

/// An O(live-state) snapshot of a [`Simulator`] mid-execution: memory
/// cells, cost-model validity state, per-process call state and stats,
/// aggregate totals, and the per-process projection fingerprints — but
/// *not* the event log or the schedule (both stay in the recording
/// simulator).
///
/// Taken every [`Simulator::enable_checkpoints`] interval during recording,
/// checkpoints let [`Simulator::erase_certified_in_place`] start from the
/// latest state before the erased processes' first step instead of from
/// scratch — the re-step path restores one; the DSM event walk rolls each
/// live cell it reaches back to one's memory image, cell by cell, and
/// bounds where the history surgery starts. The audit diffs its walk against
/// each one it passes, and seeds nothing from them.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    schedule_len: usize,
    history_len: usize,
    memory: Memory,
    cost: CostState,
    procs: Vec<Arc<ProcState>>,
    totals: Totals,
    injected: u64,
    proj_hash: Vec<u128>,
    first_touch: Vec<Option<usize>>,
    first_write: Vec<Option<usize>>,
    injections_len: usize,
}

impl Checkpoint {
    /// Number of schedule entries the checkpoint covers.
    #[must_use]
    pub fn schedule_len(&self) -> usize {
        self.schedule_len
    }

    /// Number of history events the checkpoint covers.
    #[must_use]
    pub fn history_len(&self) -> usize {
        self.history_len
    }

    /// The snapshotted memory image (the audit's boundary diff).
    pub(crate) fn memory(&self) -> &Memory {
        &self.memory
    }

    /// The snapshotted cost-model state (the audit's boundary diff).
    pub(crate) fn cost(&self) -> &CostState {
        &self.cost
    }

    /// The snapshotted per-process state (the audit's boundary diff reads
    /// the stats).
    pub(crate) fn procs(&self) -> &[Arc<ProcState>] {
        &self.procs
    }

    /// The snapshotted aggregate totals (the audit's boundary diff).
    pub(crate) fn totals(&self) -> Totals {
        self.totals
    }
}

/// Whether `pid` performing `op` against `memory` *sees* another process
/// (Definition 6.4): the cell's last writer, if distinct from `pid`, for
/// every value-returning operation. Must be taken before the access
/// mutates the cell.
#[inline]
fn sees_of(memory: &Memory, pid: ProcId, op: &Op) -> Option<ProcId> {
    if matches!(op, Op::Write(..)) {
        None
    } else {
        memory.last_writer(op.addr()).filter(|&q| q != pid)
    }
}

/// Deterministic shared-memory simulator.
///
/// A `Simulator` advances processes one step at a time under the control of
/// a scheduler (or the lower-bound adversary), records the schedule and a
/// typed [`History`], and prices every access under its [`CostModel`].
///
/// Cloning a simulator snapshots the *entire* execution state — memory,
/// caches, process machines, history — which the adversary uses for
/// tentative exploration.
///
/// # Examples
///
/// ```
/// use shm_sim::{CostModel, MemLayout, Op, OpSequence, Script, ScriptedCall, CallKind, SimSpec, Simulator, ProcId};
/// use std::sync::Arc;
///
/// let mut layout = MemLayout::new();
/// let flag = layout.alloc_global(0);
/// let writer = Script::new(vec![ScriptedCall::new(
///     CallKind(0),
///     "set",
///     Arc::new(move || Box::new(OpSequence::new(vec![Op::Write(flag, 1)]))),
/// )]);
/// let spec = SimSpec { layout, sources: vec![Box::new(writer)], model: CostModel::Dsm };
/// let mut sim = Simulator::new(&spec);
/// while sim.step(ProcId(0)) != shm_sim::StepReport::NotRunnable {}
/// assert_eq!(sim.memory().peek(flag), 1);
/// ```
#[derive(Clone, Debug)]
pub struct Simulator {
    memory: Memory,
    cost: CostState,
    /// Per-process machines, copy-on-write: clones, snapshots and restores
    /// share them by refcount, and [`Arc::make_mut`] clones a process's
    /// state only when it actually steps.
    procs: Vec<Arc<ProcState>>,
    history: History,
    schedule: Vec<ProcId>,
    totals: Totals,
    injected: u64,
    /// `first_touch[p]` = schedule index of p's first step, if any.
    first_touch: Vec<Option<usize>>,
    /// `first_write[p]` = schedule index of p's first *nontrivial* (memory-
    /// mutating) access, if any. Trivial accesses touch no survivor-visible
    /// state, so the DSM erasure walk only needs to start from here rather
    /// than from the process's first step.
    first_write: Vec<Option<usize>>,
    /// Injected calls in injection order (`at` is nondecreasing).
    injections: Vec<Injection>,
    /// Periodic snapshots in increasing `schedule_len` order. `Arc` so a
    /// clone (such as the re-step path's working copy) carries them by
    /// reference instead of deep-cloning O(checkpoints x live state).
    checkpoints: Vec<Arc<Checkpoint>>,
    /// Steps between snapshots; 0 = checkpointing disabled.
    ckpt_interval: usize,
}

impl Simulator {
    /// Builds a fresh simulator in the initial state of `spec`.
    #[must_use]
    pub fn new(spec: &SimSpec) -> Self {
        let memory = Memory::from_layout(&spec.layout);
        let cost = CostState::new(spec.model, spec.n(), spec.layout.len());
        let procs = spec
            .sources
            .iter()
            .map(|s| Arc::new(ProcState::initial(s.clone())))
            .collect();
        let n = spec.n();
        Simulator {
            memory,
            cost,
            procs,
            history: History::new(),
            schedule: Vec::new(),
            totals: Totals::default(),
            injected: 0,
            first_touch: vec![None; n],
            first_write: vec![None; n],
            injections: Vec::new(),
            checkpoints: Vec::new(),
            ckpt_interval: 0,
        }
    }

    /// Replays `schedule` against a fresh simulator built from `spec`,
    /// skipping all steps of processes in `erased`.
    ///
    /// This is the executable form of *erasing* (Lemma 6.7): because step
    /// machines are deterministic and only communicate through memory, the
    /// filtered replay is a legal history, and it is identical (from every
    /// surviving process's point of view) whenever no survivor saw an erased
    /// process.
    #[must_use]
    pub fn replay(
        spec: &SimSpec,
        schedule: &[ProcId],
        erased: &std::collections::BTreeSet<ProcId>,
    ) -> Self {
        let mut sim = Simulator::new(spec);
        for &pid in schedule {
            if !erased.contains(&pid) {
                let _ = sim.step(pid);
            }
        }
        sim
    }

    /// Maximum checkpoints retained before thinning (drop every other one and
    /// double the interval). Bounds checkpoint memory to O(96 × live state).
    const MAX_CHECKPOINTS: usize = 96;

    /// Turns on periodic checkpointing every `interval` steps (0 disables).
    ///
    /// An initial checkpoint of the *current* state is taken immediately, so
    /// erasure always has a base to start from even when the erased
    /// process's first step predates every periodic snapshot.
    pub fn enable_checkpoints(&mut self, interval: usize) {
        self.ckpt_interval = interval;
        if interval > 0 && self.checkpoints.is_empty() {
            let snap = self.snapshot();
            self.checkpoints.push(Arc::new(snap));
        }
    }

    /// The configured checkpoint interval (0 = disabled).
    #[must_use]
    pub fn checkpoint_interval(&self) -> usize {
        self.ckpt_interval
    }

    /// Number of checkpoints currently retained.
    #[must_use]
    pub fn checkpoint_count(&self) -> usize {
        self.checkpoints.len()
    }

    /// Captures the current execution state as an O(live-state) checkpoint.
    ///
    /// The checkpoint holds memory, cost state, process machines, totals and
    /// the history's per-process fingerprints — everything needed to resume
    /// stepping — but not the event log or schedule, which remain in `self`.
    #[must_use]
    pub fn snapshot(&self) -> Checkpoint {
        let _span = shm_obs::Span::enter("sim.snapshot");
        shm_obs::counter!("ckpt.snapshot");
        Checkpoint {
            schedule_len: self.schedule.len(),
            history_len: self.history.len(),
            memory: self.memory.clone(),
            cost: self.cost.clone(),
            procs: self.procs.clone(),
            totals: self.totals,
            injected: self.injected,
            proj_hash: self.history.fingerprints(),
            first_touch: self.first_touch.clone(),
            first_write: self.first_write.clone(),
            injections_len: self.injections.len(),
        }
    }

    /// [`Simulator::snapshot`] recycling a previously returned checkpoint's
    /// allocations. The explorer snapshots every expanded node that may
    /// roll back to step a second child; pooling the checkpoints makes
    /// that allocation-free at steady state.
    #[must_use]
    pub fn snapshot_reuse(&self, prev: Option<Checkpoint>) -> Checkpoint {
        let Some(mut c) = prev else {
            return self.snapshot();
        };
        let _span = shm_obs::Span::enter("sim.snapshot");
        shm_obs::counter!("ckpt.snapshot");
        c.schedule_len = self.schedule.len();
        c.history_len = self.history.len();
        c.memory.copy_from(&self.memory);
        c.cost.copy_from(&self.cost);
        if c.procs.len() == self.procs.len() {
            for (dst, src) in c.procs.iter_mut().zip(&self.procs) {
                if !Arc::ptr_eq(dst, src) {
                    *dst = Arc::clone(src);
                }
            }
        } else {
            c.procs.clone_from(&self.procs);
        }
        c.totals = self.totals;
        c.injected = self.injected;
        self.history.fingerprints_into(&mut c.proj_hash);
        c.first_touch.clone_from(&self.first_touch);
        c.first_write.clone_from(&self.first_write);
        c.injections_len = self.injections.len();
        c
    }

    /// Rolls this simulator back to `ckpt`, which must have been taken from
    /// this simulator (or an ancestor clone): the schedule and event log up
    /// to the checkpoint must be the ones the checkpoint was taken under.
    ///
    /// The schedule and history are truncated to the checkpoint; checkpoints
    /// newer than `ckpt` are dropped.
    ///
    /// # Panics
    ///
    /// Panics if `ckpt` is from a longer execution than `self` currently
    /// holds (i.e. it does not describe a prefix of this simulator).
    pub fn restore(&mut self, ckpt: &Checkpoint) {
        let _span = shm_obs::Span::enter("sim.restore");
        shm_obs::counter!("ckpt.restore");
        assert!(
            ckpt.schedule_len <= self.schedule.len() && ckpt.history_len <= self.history.len(),
            "restore: checkpoint does not describe a prefix of this execution"
        );
        self.memory.copy_from(&ckpt.memory);
        self.cost.copy_from(&ckpt.cost);
        if self.procs.len() == ckpt.procs.len() {
            // Fast path for the explorer's step/rollback cycle: only the
            // processes that actually stepped since the checkpoint hold
            // diverged machines; everyone else still shares the snapshot's
            // `Arc` and needs no refcount traffic at all.
            for (dst, src) in self.procs.iter_mut().zip(&ckpt.procs) {
                if !Arc::ptr_eq(dst, src) {
                    *dst = Arc::clone(src);
                }
            }
        } else {
            self.procs.clone_from(&ckpt.procs);
        }
        self.totals = ckpt.totals;
        self.injected = ckpt.injected;
        self.schedule.truncate(ckpt.schedule_len);
        self.history.rewind(ckpt.history_len, &ckpt.proj_hash);
        self.first_touch.clone_from(&ckpt.first_touch);
        self.first_write.clone_from(&ckpt.first_write);
        self.injections.truncate(ckpt.injections_len);
        self.checkpoints
            .retain(|c| c.schedule_len <= ckpt.schedule_len);
    }

    fn maybe_checkpoint(&mut self) {
        if self.ckpt_interval == 0 || self.schedule.len() % self.ckpt_interval != 0 {
            return;
        }
        if self.checkpoints.len() >= Self::MAX_CHECKPOINTS {
            // Thin: keep every other checkpoint and double the interval so
            // memory stays bounded while coverage stays roughly uniform.
            let mut keep = 0usize;
            self.checkpoints.retain(|_| {
                keep += 1;
                (keep - 1) % 2 == 0
            });
            self.ckpt_interval *= 2;
            if self.schedule.len() % self.ckpt_interval != 0 {
                return;
            }
        }
        let snap = self.snapshot();
        self.checkpoints.push(Arc::new(snap));
    }

    /// Where erasing the processes marked in `gone` first changes the
    /// recorded execution: the earliest schedule position an erased process
    /// stepped at or was injected into, and the index of the first injection
    /// into an erased process. A checkpoint at or before both is a state of
    /// the erased execution too.
    fn splice_point(&self, gone: &[bool]) -> (usize, usize) {
        let mut splice = self.schedule.len();
        for (&g, &first) in gone.iter().zip(&self.first_touch) {
            if let (true, Some(t)) = (g, first) {
                splice = splice.min(t);
            }
        }
        let first_inj = self
            .injections
            .iter()
            .position(|inj| gone[inj.pid.index()])
            .unwrap_or(self.injections.len());
        if let Some(inj) = self.injections.get(first_inj) {
            splice = splice.min(inj.at);
        }
        (splice, first_inj)
    }

    /// Erases `batch` from this execution if no surviving process can tell
    /// (Lemma 6.7's soundness condition: every surviving projection is
    /// unchanged). On success the erasure is applied to `self` and the
    /// result equals [`Simulator::replay`] of the schedule without `batch`;
    /// on refusal (`false`) `self` is unchanged.
    ///
    /// The path is picked from the cost model:
    ///
    /// * **DSM** — an event walk in place: no step machine re-executed and
    ///   no memory image copied. A survivor's machine state is a function
    ///   of the results it has observed, so it suffices to re-apply the
    ///   recorded `Access` ops of survivors against the filtered memory and
    ///   compare each result with the recording: the first mismatch is
    ///   exactly the first projection divergence, and a mismatch-free walk
    ///   proves every surviving projection unchanged. The walk starts at
    ///   the latest checkpoint preceding the erased processes' first
    ///   nontrivial access and runs on the live memory: the first access to
    ///   a cell rolls that cell back to the checkpoint's state, saving its
    ///   live state in an undo log that a refusal plays back. A cell the
    ///   walk never reaches was not accessed since the checkpoint, so its
    ///   live state already is the filtered one. Acceptance is applied by
    ///   surgery — memory keeps the walk's image; the erased events and
    ///   steps are filtered out of the log and schedule from the first
    ///   erased one on, the prefix staying shared; survivors' `sees`
    ///   attributions are recomputed against the filtered image; and the
    ///   erased machines not already in their initial state reset. DSM
    ///   access costs depend only on the static cell placement, so survivor
    ///   stats are reused verbatim.
    /// * **CC models** — re-execution of the schedule suffix from the latest
    ///   checkpoint at or before the splice point, since erasing a process
    ///   rewrites cache-validity history and every later charge must be
    ///   re-derived.
    ///
    /// In debug builds (or with the `exact-fingerprints` cargo feature) the
    /// DSM surgery is cross-checked against the re-step path — verdict,
    /// history, schedule, totals and every cell's value, last writer,
    /// writer set and reservations — and the re-step path's fingerprint
    /// verdict against an exact projection comparison.
    pub fn erase_certified_in_place(&mut self, spec: &SimSpec, batch: &BTreeSet<ProcId>) -> bool {
        let _span = shm_obs::Span::enter("sim.erase");
        let n = self.n();
        let mut gone = vec![false; n];
        for &pid in batch {
            gone[pid.index()] = true;
        }
        if self.cost.model() != CostModel::Dsm {
            let ok = self.erase_by_restep(spec, &gone);
            shm_obs::count(if ok { "erase.replay" } else { "erase.refused" }, 1);
            return ok;
        }
        #[cfg(any(debug_assertions, feature = "exact-fingerprints"))]
        let mut shadow = self.clone();
        #[cfg(any(debug_assertions, feature = "exact-fingerprints"))]
        shm_obs::counter!("fingerprint.exact_check");

        let (splice, first_gone_inj) = self.splice_point(&gone);
        // Survivor-visible values can only diverge at an erased process's
        // first nontrivial access; walk from the latest checkpoint before
        // that point.
        let mut wsplice = self.schedule.len();
        for &pid in batch {
            if let Some(t) = self.first_write[pid.index()] {
                wsplice = wsplice.min(t);
            }
        }
        let wbase = self
            .checkpoints
            .iter()
            .rev()
            .find(|c| c.schedule_len <= wsplice);
        let seed;
        let (base, start_events) = match wbase {
            Some(c) => (&c.memory, c.history_len),
            None => {
                seed = Memory::from_layout(&spec.layout);
                (&seed, 0)
            }
        };
        // Certification walk: re-apply survivors' recorded accesses against
        // the filtered memory. Invoke/Return/Terminate events are machine-
        // internal — they cannot change while every observed result is
        // unchanged — so only Access events are checked. A survivor may see
        // a different (surviving) last writer with an unchanged result, so
        // `sees` is recomputed here; `touches` (the static owner) and `wrote`
        // (a function of op and result) cannot change. Every access, erased
        // or not, first rolls its cell back to `base`: a cell touched only
        // by erased processes ends in its base state.
        let mut rolled_back = vec![false; self.memory.len()];
        let mut undo = CellUndo::default();
        let mut sees_fixes: Vec<(usize, Option<ProcId>)> = Vec::new();
        let mut walked = 0u64;
        let mut diverged = false;
        for (k, e) in self.history.events_from(start_events).enumerate() {
            walked += 1;
            let Event::Access {
                pid,
                op,
                result,
                sees,
                ..
            } = e
            else {
                continue;
            };
            let cell = op.addr().index();
            if !rolled_back[cell] {
                rolled_back[cell] = true;
                self.memory.save_cell(cell, &mut undo);
                self.memory.copy_cell_from(base, cell);
            }
            if gone[pid.index()] {
                continue;
            }
            let now_sees = sees_of(&self.memory, *pid, op);
            if now_sees != *sees {
                sees_fixes.push((start_events + k, now_sees));
            }
            if self.memory.apply(*pid, *op).result != *result {
                diverged = true;
                break;
            }
        }
        shm_obs::counter!("erase.walk_events", walked);
        if diverged {
            self.memory.restore_cells(&undo);
            #[cfg(any(debug_assertions, feature = "exact-fingerprints"))]
            {
                // Suppress recording: the shadow re-step is a pure
                // cross-check, not part of the execution's cost.
                let _quiet = shm_obs::suppress();
                assert!(
                    !shadow.erase_by_restep(spec, &gone),
                    "event-walk refused an erasure the re-step path accepts"
                );
            }
            shm_obs::counter!("erase.refused");
            return false;
        }

        // Accepted: apply the erasure by surgery. No event before the
        // latest checkpoint preceding every erased step and injection is
        // erased, unless an erased process crashed without a step.
        let history_from = if batch
            .iter()
            .any(|p| self.procs[p.index()].status == Status::Crashed)
        {
            0
        } else {
            self.checkpoints
                .iter()
                .rev()
                .find(|c| c.schedule_len <= splice && c.injections_len <= first_gone_inj)
                .map_or(0, |c| c.history_len)
        };
        self.memory.purge_reservations(&gone);
        for &pid in batch {
            let p = &mut self.procs[pid.index()];
            // Previously erased processes are in the batch too, still in
            // their initial state: nothing to subtract or reset.
            if p.is_initial() {
                continue;
            }
            let st = p.stats;
            self.totals.steps -= st.steps;
            self.totals.accesses -= st.accesses;
            self.totals.rmrs -= st.rmrs;
            self.totals.messages -= st.messages;
            *p = Arc::new(ProcState::initial(spec.sources[pid.index()].clone()));
        }
        // Filter the schedule from the splice point on (no erased process
        // steps before it), remembering how many erased steps precede each
        // position so recorded indices can be shifted.
        let len = self.schedule.len();
        let mut removed_before: Vec<u32> = Vec::with_capacity(len - splice + 1);
        let mut kept = splice;
        for i in splice..len {
            removed_before.push((i - kept) as u32);
            let pid = self.schedule[i];
            if !gone[pid.index()] {
                self.schedule[kept] = pid;
                kept += 1;
            }
        }
        removed_before.push((len - kept) as u32);
        self.schedule.truncate(kept);
        let shift = |t: usize| {
            if t < splice {
                t
            } else {
                t - removed_before[t - splice] as usize
            }
        };
        for (i, &g) in gone.iter().enumerate() {
            if g {
                self.first_touch[i] = None;
                self.first_write[i] = None;
            } else {
                self.first_touch[i] = self.first_touch[i].map(shift);
                self.first_write[i] = self.first_write[i].map(shift);
            }
        }
        let mut dropped_inj = 0u64;
        self.injections.retain_mut(|inj| {
            if gone[inj.pid.index()] {
                dropped_inj += 1;
                false
            } else {
                inj.at = shift(inj.at);
                true
            }
        });
        self.injected -= dropped_inj;
        self.history.erase_pids(&gone, &sees_fixes, history_from);
        // Checkpoints past the splice captured erased-process state; drop
        // them (recording rebuilds coverage as stepping continues). The
        // retained ones precede every erased step and injection, so their
        // recorded lengths and indices need no shifting.
        self.checkpoints
            .retain(|c| c.schedule_len <= splice && c.injections_len <= first_gone_inj);

        #[cfg(any(debug_assertions, feature = "exact-fingerprints"))]
        {
            // Suppress recording: the shadow re-step is a pure cross-check.
            let _quiet = shm_obs::suppress();
            assert!(
                shadow.erase_by_restep(spec, &gone),
                "event-walk accepted an erasure the re-step path refuses"
            );
            assert_eq!(
                shadow.history.to_vec(),
                self.history.to_vec(),
                "surgery: history mismatch"
            );
            assert_eq!(shadow.schedule, self.schedule, "surgery: schedule mismatch");
            assert_eq!(shadow.totals, self.totals, "surgery: totals mismatch");
            assert_eq!(
                shadow.first_touch, self.first_touch,
                "surgery: first_touch mismatch"
            );
            assert_eq!(
                shadow.first_write, self.first_write,
                "surgery: first_write mismatch"
            );
            for i in 0..n {
                let p = ProcId(i as u32);
                assert_eq!(
                    shadow.history.fingerprint(p),
                    self.history.fingerprint(p),
                    "surgery: fingerprint mismatch for {p}"
                );
            }
            for a in 0..spec.layout.len() {
                let addr = Addr(a as u32);
                assert_eq!(
                    shadow.memory.peek(addr),
                    self.memory.peek(addr),
                    "surgery: memory value mismatch at cell {a}"
                );
                assert_eq!(
                    shadow.memory.last_writer(addr),
                    self.memory.last_writer(addr),
                    "surgery: last-writer mismatch at cell {a}"
                );
                assert!(
                    shadow.memory.writers(addr).eq(self.memory.writers(addr)),
                    "surgery: writer-set mismatch at cell {a}"
                );
                assert!(
                    shadow
                        .memory
                        .reservations(addr)
                        .eq(self.memory.reservations(addr)),
                    "surgery: reservation mismatch at cell {a}"
                );
            }
        }
        shm_obs::counter!("erase.surgery");
        true
    }

    /// The re-step erasure path behind [`Simulator::erase_certified_in_place`]
    /// (CC models, and the reference the DSM surgery is checked against):
    /// restores a copy of `self` to the latest checkpoint at or before the
    /// splice point (or starts afresh when there is none), re-steps the recorded
    /// schedule suffix without the `gone` processes — re-applying survivors'
    /// injections at their recorded positions — and adopts the copy only if
    /// every survivor's projection fingerprint is unchanged.
    fn erase_by_restep(&mut self, spec: &SimSpec, gone: &[bool]) -> bool {
        let (splice, first_inj) = self.splice_point(gone);
        let base = self
            .checkpoints
            .iter()
            .rev()
            .find(|c| c.schedule_len <= splice && c.injections_len <= first_inj);
        let mut sim = match base {
            Some(c) => {
                let mut sim = self.clone();
                sim.restore(c);
                sim
            }
            None => {
                let mut sim = Simulator::new(spec);
                sim.enable_checkpoints(self.ckpt_interval);
                sim
            }
        };
        let mut next_inj = sim.injections.len();
        let mut stepped = 0u64;
        for i in sim.schedule.len()..self.schedule.len() {
            while let Some(inj) = self.injections.get(next_inj).filter(|inj| inj.at <= i) {
                next_inj += 1;
                if !gone[inj.pid.index()] {
                    sim.inject_call(inj.pid, inj.call.clone());
                }
            }
            let pid = self.schedule[i];
            if !gone[pid.index()] {
                let _ = sim.step(pid);
                stepped += 1;
            }
        }
        // Injections recorded after the last schedule entry.
        for inj in &self.injections[next_inj..] {
            if !gone[inj.pid.index()] {
                sim.inject_call(inj.pid, inj.call.clone());
            }
        }
        shm_obs::counter!("replay.steps", stepped);
        let survivors = || {
            (0..self.n())
                .filter(|&i| !gone[i])
                .map(|i| ProcId(i as u32))
        };
        let ok = survivors().all(|p| sim.history.fingerprint(p) == self.history.fingerprint(p));
        #[cfg(any(debug_assertions, feature = "exact-fingerprints"))]
        {
            shm_obs::counter!("fingerprint.exact_check");
            let exact =
                survivors().all(|p| sim.history.projection(p) == self.history.projection(p));
            assert_eq!(
                ok, exact,
                "fingerprint verdict disagrees with the exact projection comparison"
            );
        }
        if ok {
            *self = sim;
        }
        ok
    }

    /// Number of processes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.procs.len()
    }

    /// Read access to shared memory (inspection; not a step).
    #[must_use]
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// The recorded history so far.
    #[must_use]
    pub fn history(&self) -> &History {
        &self.history
    }

    /// The recorded schedule: one entry per effective step, in order.
    #[must_use]
    pub fn schedule(&self) -> &[ProcId] {
        &self.schedule
    }

    /// Aggregate statistics.
    #[must_use]
    pub fn totals(&self) -> Totals {
        self.totals
    }

    /// Statistics of one process.
    #[must_use]
    pub fn proc_stats(&self, pid: ProcId) -> ProcStats {
        self.procs[pid.index()].stats
    }

    /// Execution status of one process.
    #[must_use]
    pub fn status(&self, pid: ProcId) -> Status {
        self.procs[pid.index()].status
    }

    /// Whether the process can still take steps.
    #[must_use]
    pub fn is_runnable(&self, pid: ProcId) -> bool {
        self.procs[pid.index()].status == Status::Runnable
    }

    /// IDs of all runnable processes.
    #[must_use]
    pub fn runnable(&self) -> Vec<ProcId> {
        let mut out = Vec::new();
        self.runnable_into(&mut out);
        out
    }

    /// Fills `out` with the IDs of all runnable processes (ascending),
    /// reusing its allocation — the per-step form of
    /// [`Simulator::runnable`] for schedulers and explorers that query the
    /// runnable set on every step.
    pub fn runnable_into(&self, out: &mut Vec<ProcId>) {
        out.clear();
        out.extend(
            self.procs
                .iter()
                .enumerate()
                .filter(|(_, p)| p.status == Status::Runnable)
                .map(|(i, _)| ProcId(i as u32)),
        );
    }

    /// Whether every process has terminated or crashed.
    #[must_use]
    pub fn all_done(&self) -> bool {
        self.procs.iter().all(|p| p.status != Status::Runnable)
    }

    /// Number of calls injected via [`Simulator::inject_call`]. When nonzero,
    /// the recorded schedule alone no longer reconstructs this execution;
    /// callers doing replay-based surgery must re-inject manually.
    #[must_use]
    pub fn injected_calls(&self) -> u64 {
        self.injected
    }

    /// The recorded injections, in injection order (`at` nondecreasing).
    pub(crate) fn injections(&self) -> &[Injection] {
        &self.injections
    }

    /// The live cost-model state (cache validity under CC).
    pub(crate) fn cost_state(&self) -> &CostState {
        &self.cost
    }

    /// The recorded checkpoints, in increasing `schedule_len` order. The
    /// audit diffs its walk against each interior one as it passes it.
    pub(crate) fn checkpoints(&self) -> &[Arc<Checkpoint>] {
        &self.checkpoints
    }

    /// Mutable access to the recorded event log, bypassing fingerprint
    /// maintenance. For audit-layer tamper tests only.
    #[cfg(test)]
    pub(crate) fn history_mut(&mut self) -> &mut History {
        &mut self.history
    }

    /// Differentially audits this execution against a naive shadow executor:
    /// one serial walk re-runs the recorded schedule (and injections) step by
    /// step from the spec's initial state under an independent reference
    /// implementation of memory semantics, pricing every access under each
    /// of the four standard cost models — no state restored from a
    /// checkpoint, no fingerprints, no event-walk surgery — and every
    /// per-step result, RMR/message/invalidation charge and cache-validity
    /// set, the state at each retained checkpoint, and the final memory image
    /// and [`Totals`]/per-process stats are diffed against the fast
    /// incremental path. See [`crate::audit`] for the report format.
    ///
    /// `spec` must be the spec this simulator was built from. The audit is
    /// read-only and returns on the *first* divergence found.
    #[must_use]
    pub fn audit(&self, spec: &SimSpec) -> crate::audit::AuditReport {
        crate::audit::run_audit(self, spec)
    }

    /// [`Simulator::audit`]. The audit is one serial walk, so `_threads` is
    /// ignored; the repository benchmark (`benchmark/src/layers.rs`) still
    /// calls this form.
    #[must_use]
    pub fn audit_with_threads(&self, spec: &SimSpec, _threads: usize) -> crate::audit::AuditReport {
        self.audit(spec)
    }

    /// Flushes the **final** history's per-access cost attribution to the
    /// installed `shm-obs` collector under phase `scope`: `sim.rmr`,
    /// `sim.local`, and `sim.inval` counter cells keyed by process, memory
    /// location, and the cost-model tag.
    ///
    /// Counting at access time could never reconcile with
    /// [`Simulator::totals`]: erasure subtracts erased processes'
    /// statistics, and replay re-executes steps. Flushing the *surviving*
    /// history once the execution is final makes the flushed totals equal
    /// `totals()` by construction — `sim.rmr + sim.local == accesses`,
    /// `sim.rmr == rmrs`, `sim.inval == invalidations` — which the metrics
    /// tests pin exactly. No-op when recording is disabled.
    pub fn obs_flush(&self, scope: &'static str) {
        if !shm_obs::enabled() {
            return;
        }
        let model = crate::model::model_tag(self.cost.model());
        for e in self.history.events() {
            if let Event::Access { pid, op, cost, .. } = e {
                let (p, loc) = (pid.0, op.addr().0);
                let name = if cost.rmr { "sim.rmr" } else { "sim.local" };
                shm_obs::counter!(name, 1, scope: scope, model: model, pid: p, loc: loc);
                shm_obs::counter!(
                    "sim.inval",
                    cost.invalidations,
                    scope: scope,
                    model: model,
                    pid: p,
                    loc: loc
                );
            }
        }
    }

    /// Advances `pid` by one step.
    ///
    /// One step is one state-machine transition: it performs exactly one
    /// memory access, or completes a call, or terminates the process. If the
    /// process has no call in progress, the next call is fetched from its
    /// source (and its first transition executed) within the same step.
    pub fn step(&mut self, pid: ProcId) -> StepReport {
        if self.procs[pid.index()].status != Status::Runnable {
            return StepReport::NotRunnable;
        }
        if self.first_touch[pid.index()].is_none() {
            self.first_touch[pid.index()] = Some(self.schedule.len());
        }
        self.schedule.push(pid);
        self.totals.steps += 1;
        shm_obs::counter!("sim.steps");
        let report = self.transition(pid);
        self.maybe_checkpoint();
        report
    }

    /// The body of one step after schedule/stat bookkeeping: fetch a call if
    /// needed, then run exactly one machine transition.
    fn transition(&mut self, pid: ProcId) -> StepReport {
        // Split-borrow the process entry alongside the shared state so the
        // whole step pays exactly one COW fault (`Arc::make_mut` locks the
        // weak count with a CAS — doing it three or four times per step was
        // the single largest fixed cost on the hot loop).
        let Simulator {
            procs,
            memory,
            cost,
            history,
            totals,
            first_write,
            schedule,
            ..
        } = self;
        let p = Arc::make_mut(&mut procs[pid.index()]);
        p.stats.steps += 1;

        // Fetch the next call if none is in progress.
        if p.current.is_none() {
            match p.source.next_call(p.last_return) {
                None => {
                    p.status = Status::Terminated;
                    history.push(Event::Terminate { pid });
                    return StepReport::Terminated;
                }
                Some(call) => {
                    history.push(Event::Invoke {
                        pid,
                        kind: call.kind,
                        name: call.name,
                    });
                    p.current = Some(call);
                    p.last_op_result = None;
                }
            }
        }

        // One machine transition.
        let last = p.last_op_result;
        let step = p
            .current
            .as_mut()
            .expect("current call set above")
            .machine
            .step(last);
        match step {
            Step::Op(op) => {
                // `sees` must be computed from the cell's last writer
                // *before* the access mutates it.
                let addr = op.addr();
                let sees = sees_of(memory, pid, &op);
                let touches = memory.owner(addr).filter(|&q| q != pid);
                let applied = memory.apply(pid, op);
                if applied.nontrivial && first_write[pid.index()].is_none() {
                    first_write[pid.index()] = Some(schedule.len() - 1);
                }
                let acost = cost.charge(pid, addr, memory.owner(addr), &applied);
                p.stats.accesses += 1;
                p.stats.rmrs += u64::from(acost.rmr);
                p.stats.messages += acost.messages;
                totals.accesses += 1;
                totals.rmrs += u64::from(acost.rmr);
                totals.messages += acost.messages;
                totals.invalidations += acost.invalidations;
                history.push(Event::Access {
                    pid,
                    op,
                    result: applied.result,
                    wrote: applied.nontrivial,
                    cost: acost,
                    sees,
                    touches,
                });
                p.last_op_result = Some(applied.result);
                StepReport::Access {
                    op,
                    result: applied.result,
                    cost: acost,
                }
            }
            Step::Return(value) => {
                let call = p.current.take().expect("current call");
                history.push(Event::Return {
                    pid,
                    kind: call.kind,
                    value,
                });
                p.last_return = Some(value);
                p.stats.calls_completed += 1;
                StepReport::Returned {
                    kind: call.kind,
                    value,
                }
            }
        }
    }

    /// Computes what the next *single* `step(pid)` call would do, without
    /// executing it or touching shared memory. It reports exactly the next
    /// step's effect, which the lower-bound adversary needs to stop a
    /// process precisely "just before" an access. Step machines receive
    /// values only through their `last` argument, so the effect is a pure
    /// function of the process's private state.
    #[must_use]
    pub fn peek_transition(&self, pid: ProcId) -> TransitionPeek {
        let p = &self.procs[pid.index()];
        if p.status != Status::Runnable {
            return TransitionPeek::NotRunnable;
        }
        let (mut current, last_op_result) = match &p.current {
            Some(call) => (call.clone(), p.last_op_result),
            None => {
                let mut source = p.source.clone();
                match source.next_call(p.last_return) {
                    None => return TransitionPeek::WillTerminate,
                    Some(call) => (call, None),
                }
            }
        };
        match current.machine.step(last_op_result) {
            Step::Op(op) => TransitionPeek::Access(op),
            Step::Return(value) => TransitionPeek::Return {
                kind: current.kind,
                value,
            },
        }
    }

    /// Whether executing `op` right now on behalf of `pid` would be an RMR.
    ///
    /// Exact for every operation: CAS/SC success is decided against current
    /// memory contents, so the trivial/nontrivial distinction is resolved
    /// precisely.
    #[must_use]
    pub fn op_would_be_rmr(&self, pid: ProcId, op: &Op) -> bool {
        let addr = op.addr();
        let nontrivial = match *op {
            Op::Read(_) | Op::Ll(_) => false,
            Op::Write(..) | Op::Faa(..) | Op::Fas(..) | Op::Tas(_) => true,
            Op::Cas(a, expected, _) => self.memory.peek(a) == expected,
            // Conservative: we cannot inspect reservations cheaply here, but
            // a successful SC requires a prior LL by the same process, whose
            // reservation state is in memory; treat as nontrivial iff it
            // would succeed is not observable, so price as nontrivial (the
            // more expensive case) — exact for DSM where it is irrelevant.
            Op::Sc(..) => true,
        };
        crate::model::would_be_rmr(&self.cost, pid, addr, self.memory.owner(addr), nontrivial)
    }

    /// Observation footprint of executing `op` as `pid` right now:
    /// `(sees, touches)` per Definitions 6.4/6.5. Used by the adversary to
    /// decide whether to erase a process *before* letting a step happen.
    #[must_use]
    pub fn op_observation(&self, pid: ProcId, op: &Op) -> (Option<ProcId>, Option<ProcId>) {
        let touches = self.memory.owner(op.addr()).filter(|&q| q != pid);
        (sees_of(&self.memory, pid, op), touches)
    }

    /// Injects a procedure call into `pid`, reviving it if it had terminated.
    ///
    /// Used by the lower-bound adversary (proof Part 2) to direct a chosen
    /// process to call `Signal()` after the waiter population has stabilized:
    /// in the history family `H_A` (Definition 6.1) every process may make
    /// calls in arbitrary order before terminating, so injection just selects
    /// a longer call sequence for that process. Replay via the recorded
    /// schedule does **not** reproduce injected calls — callers replay the
    /// pre-injection prefix and re-inject (see [`Simulator::injected_calls`]).
    ///
    /// # Panics
    ///
    /// Panics if the process currently has a call in progress or crashed.
    pub fn inject_call(&mut self, pid: ProcId, call: Call) {
        let p = Arc::make_mut(&mut self.procs[pid.index()]);
        assert!(
            p.current.is_none(),
            "inject_call: {pid} has a call in progress"
        );
        assert!(p.status != Status::Crashed, "inject_call: {pid} crashed");
        p.status = Status::Runnable;
        self.history.push(Event::Invoke {
            pid,
            kind: call.kind,
            name: call.name,
        });
        p.current = Some(call.clone());
        p.last_op_result = None;
        self.injected += 1;
        self.injections.push(Injection {
            at: self.schedule.len(),
            pid,
            call,
        });
    }

    /// Whether `pid` has a procedure call in progress.
    #[must_use]
    pub fn has_pending_call(&self, pid: ProcId) -> bool {
        self.procs[pid.index()].current.is_some()
    }

    /// A canonical word encoding of everything that determines this
    /// simulator's *future* behavior and pricing: per-process projection
    /// fingerprints (which pin each process's local history — call sequence,
    /// operations, and results — and therefore its opaque machine state),
    /// statuses, pending-call flags, last results, per-process stats, the
    /// memory image with last-writer attribution, and the cost-model state.
    ///
    /// Two simulators with equal encodings are behaviorally identical from
    /// here on (every continuation produces the same events, charges, and
    /// verdicts), because a step machine's state is a deterministic function
    /// of its local history. The schedule-space explorer deduplicates on
    /// [`Simulator::state_fingerprint`] and uses this encoding as the exact
    /// fallback that rules out hash collisions in debug builds.
    #[must_use]
    pub fn state_words(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(16 * self.procs.len() + 2 * self.memory.len());
        self.state_words_into(&mut out);
        out
    }

    /// [`Simulator::state_words`] into a caller-owned buffer (cleared first),
    /// so per-state dedup keys in hot exploration loops allocate nothing.
    ///
    /// The layout: 13 words per process in pid order, then 2 per memory
    /// cell in address order, then the cost-model words, whose number
    /// varies with the cache state (none under DSM).
    pub fn state_words_into(&self, out: &mut Vec<u64>) {
        out.clear();
        for i in 0..self.procs.len() {
            out.extend(self.proc_words(ProcId(i as u32)));
        }
        for a in 0..self.memory.len() {
            out.extend(self.cell_words(Addr(a as u32)));
        }
        self.cost.encode_state(out);
    }

    /// Process `pid`'s words of [`Simulator::state_words`]: its projection
    /// fingerprint, status, pending-call flag, last results and stats. Only
    /// a step of `pid` changes them.
    #[inline]
    fn proc_words(&self, pid: ProcId) -> [u64; PROC_WORDS] {
        let p = &self.procs[pid.index()];
        let fp = self.history.fingerprint(pid);
        [
            (fp >> 64) as u64,
            fp as u64,
            match p.status {
                Status::Runnable => 0,
                Status::Terminated => 1,
                Status::Crashed => 2,
            },
            u64::from(p.current.is_some()),
            // Option<Word> as (presence, value) pairs: Word is the full u64
            // range (NIL = u64::MAX), so a +1 offset encoding would overflow.
            u64::from(p.last_op_result.is_some()),
            p.last_op_result.unwrap_or(0),
            u64::from(p.last_return.is_some()),
            p.last_return.unwrap_or(0),
            p.stats.steps,
            p.stats.accesses,
            p.stats.rmrs,
            p.stats.messages,
            p.stats.calls_completed,
        ]
    }

    /// Cell `addr`'s words of [`Simulator::state_words`]: its value and last
    /// writer. Only an access to `addr` changes them.
    #[inline]
    fn cell_words(&self, addr: Addr) -> [u64; CELL_WORDS] {
        [
            self.memory.peek(addr),
            self.memory
                .last_writer(addr)
                .map_or(0, |p| 1 + u64::from(p.0)),
        ]
    }

    /// Number of [`Simulator::state_words`] before the cost-model words.
    fn fixed_words(&self) -> usize {
        PROC_WORDS * self.procs.len() + CELL_WORDS * self.memory.len()
    }

    /// The state words a step of `pid` can change, read before the step:
    /// `pid`'s own and, when the step accesses memory, those of the cell at
    /// `addr` (`None` for a step that returns or terminates). Hand the
    /// result to [`StateHasher::advance`] once the step is taken.
    #[must_use]
    #[inline]
    pub fn step_words(&self, pid: ProcId, addr: Option<Addr>) -> StepWords {
        StepWords {
            pid,
            proc: self.proc_words(pid),
            cell: addr.map(|a| (a, self.cell_words(a))),
        }
    }

    /// A 128-bit fingerprint of [`Simulator::state_words`] (same polynomial
    /// family as the history projection fingerprints). Equal fingerprints
    /// certify behaviorally identical simulator states up to hash collision;
    /// the explorer's debug fallback compares the full word encodings.
    /// [`StateHasher`] computes the same value in time proportional to
    /// what one step changed.
    #[must_use]
    pub fn state_fingerprint(&self) -> u128 {
        crate::event::fingerprint_words(&self.state_words())
    }

    /// [`Simulator::state_fingerprint`] computed through a caller-owned
    /// scratch buffer, avoiding the per-call word-vector allocation.
    #[must_use]
    pub fn state_fingerprint_with(&self, scratch: &mut Vec<u64>) -> u128 {
        self.state_words_into(scratch);
        crate::event::fingerprint_words(scratch)
    }

    /// Crashes `pid`: it stops taking steps, mid-call or not.
    ///
    /// Models the paper's crash (§2: a process crashes if it terminates while
    /// performing a procedure call). Used for failure-injection tests.
    pub fn crash(&mut self, pid: ProcId) {
        let p = Arc::make_mut(&mut self.procs[pid.index()]);
        if p.status == Status::Runnable {
            p.status = Status::Crashed;
            self.history.push(Event::Crash { pid });
        }
    }

    /// Runs `pid` alone until its current call completes (or it terminates),
    /// up to `max_steps`. Returns the number of steps taken, or `None` if the
    /// budget was exhausted first.
    pub fn run_solo_until_call_boundary(&mut self, pid: ProcId, max_steps: u64) -> Option<u64> {
        let mut taken = 0;
        while taken < max_steps {
            if !self.has_pending_call(pid) || !self.is_runnable(pid) {
                return Some(taken);
            }
            let _ = self.step(pid);
            taken += 1;
        }
        if !self.has_pending_call(pid) || !self.is_runnable(pid) {
            Some(taken)
        } else {
            None
        }
    }
}

/// Words each process contributes to [`Simulator::state_words`].
const PROC_WORDS: usize = 13;

/// Words each memory cell contributes to [`Simulator::state_words`].
const CELL_WORDS: usize = 2;

/// The words one step can change, read before the step by
/// [`Simulator::step_words`] and consumed by [`StateHasher::advance`].
#[derive(Clone, Copy, Debug)]
pub struct StepWords {
    pid: ProcId,
    proc: [u64; PROC_WORDS],
    cell: Option<(Addr, [u64; CELL_WORDS])>,
}

/// The part of a state's fingerprint that its process and cell words make
/// up (see [`StateHasher`]). Only a hasher makes or advances one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StateSum(u128);

/// [`Simulator::state_fingerprint`] kept up to date one step at a time.
///
/// The fingerprint of the words `w_0 .. w_{L-1}` is the polynomial
/// `mix64(L)·M^L + Σ mix64(w_i)·M^(L-1-i)` mod 2^128. The first `P` words,
/// 13 per process and then 2 per memory cell, sit at fixed positions; the
/// `ℓ = L - P` cost-model words after them vary in number.
/// So the fingerprint is `mix64(L)·M^L + S·M^ℓ + (the cost-model words
/// folded alone)`, where the [`StateSum`] `S = Σ_{i<P} mix64(w_i)·M^(P-1-i)`.
///
/// A step of `pid` changes only pid's words and those of the cell it
/// accesses; every other word keeps its value and so its term. The next
/// state's sum is therefore the last one plus, for each word the step
/// changed, `(mix64(new) - mix64(old))·M^(P-1-i)` — exact, not an
/// approximation, because the polynomial is linear in its terms.
/// [`StateHasher::fingerprint`] then folds in the cost-model words (none
/// under DSM) and the length term.
#[derive(Clone, Debug, Default)]
pub struct StateHasher {
    /// `pow[k] = M^k`, grown on demand to the longest encoding seen: at
    /// most twice the size of the encoding itself.
    pow: Vec<u128>,
    /// Scratch for the cost-model words.
    suffix: Vec<u64>,
}

impl StateHasher {
    /// A hasher with no powers computed yet.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// `M^k`.
    fn pow(&mut self, k: usize) -> u128 {
        while self.pow.len() <= k {
            let next = self
                .pow
                .last()
                .map_or(1, |&p| p.wrapping_mul(crate::event::FP_MUL));
            self.pow.push(next);
        }
        self.pow[k]
    }

    /// The sum of `sim`'s process and cell terms, folded from scratch:
    /// O(processes + cells). A walk computes it once, at its root, and
    /// [`StateHasher::advance`]s it from there.
    #[must_use]
    pub fn sum(&self, sim: &Simulator) -> StateSum {
        let mut h = 0;
        for i in 0..sim.procs.len() {
            for w in sim.proc_words(ProcId(i as u32)) {
                h = crate::event::fp_absorb(h, w);
            }
        }
        for a in 0..sim.memory.len() {
            for w in sim.cell_words(Addr(a as u32)) {
                h = crate::event::fp_absorb(h, w);
            }
        }
        StateSum(h)
    }

    /// The sum of `sim`'s state, one step after the state whose sum is
    /// `sum` and whose words `before` was read from. Only the terms of the
    /// words that step changed are recomputed.
    #[must_use]
    #[inline]
    pub fn advance(&mut self, sim: &Simulator, sum: StateSum, before: &StepWords) -> StateSum {
        // Word `i` carries `M^(top - i)`.
        let top = sim.fixed_words() - 1;
        let mut h = sum.0;
        let base = PROC_WORDS * before.pid.index();
        for (j, (&old, new)) in before
            .proc
            .iter()
            .zip(sim.proc_words(before.pid))
            .enumerate()
        {
            if old != new {
                h = h.wrapping_add(self.term_change(old, new, top - (base + j)));
            }
        }
        if let Some((addr, cell)) = before.cell {
            let base = PROC_WORDS * sim.procs.len() + CELL_WORDS * addr.index();
            for (j, (&old, new)) in cell.iter().zip(sim.cell_words(addr)).enumerate() {
                if old != new {
                    h = h.wrapping_add(self.term_change(old, new, top - (base + j)));
                }
            }
        }
        StateSum(h)
    }

    /// How a word's term moves when its value goes from `old` to `new` at
    /// weight `M^exp`.
    fn term_change(&mut self, old: u64, new: u64, exp: usize) -> u128 {
        let mixed = |w| u128::from(crate::rng::mix64(w));
        mixed(new)
            .wrapping_sub(mixed(old))
            .wrapping_mul(self.pow(exp))
    }

    /// `sim`'s [`Simulator::state_fingerprint`], given the sum of its
    /// process and cell terms: folds in the cost-model words and the length
    /// term, O(cost-model words).
    #[must_use]
    pub fn fingerprint(&mut self, sim: &Simulator, sum: StateSum) -> u128 {
        self.suffix.clear();
        sim.cost.encode_state(&mut self.suffix);
        let mut h = sum.0;
        for &w in &self.suffix {
            h = crate::event::fp_absorb(h, w);
        }
        let len = sim.fixed_words() + self.suffix.len();
        h.wrapping_add(u128::from(crate::rng::mix64(len as u64)).wrapping_mul(self.pow(len)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::OpSequence;
    use crate::source::{RepeatUntil, Script, ScriptedCall};
    use std::collections::BTreeSet;
    use std::sync::Arc;

    /// The parallel orchestration (row fan-outs) depends on whole
    /// simulators being shareable across scoped workers.
    #[test]
    fn simulator_state_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimSpec>();
        assert_send_sync::<Simulator>();
        assert_send_sync::<Checkpoint>();
    }

    fn write_then_read_spec() -> (SimSpec, crate::ids::Addr) {
        let mut layout = MemLayout::new();
        let flag = layout.alloc_global(0);
        let writer = Script::new(vec![ScriptedCall::new(
            CallKind(0),
            "set",
            Arc::new(move || Box::new(OpSequence::new(vec![Op::Write(flag, 1)]))),
        )]);
        let reader = Script::new(vec![ScriptedCall::new(
            CallKind(1),
            "get",
            Arc::new(move || Box::new(OpSequence::new(vec![Op::Read(flag)]))),
        )]);
        (
            SimSpec {
                layout,
                sources: vec![Box::new(writer), Box::new(reader)],
                model: CostModel::Dsm,
            },
            flag,
        )
    }

    fn drain(sim: &mut Simulator, pid: ProcId) {
        while sim.step(pid) != StepReport::NotRunnable {}
    }

    #[test]
    fn basic_execution_and_accounting() {
        let (spec, flag) = write_then_read_spec();
        let mut sim = Simulator::new(&spec);
        drain(&mut sim, ProcId(0));
        drain(&mut sim, ProcId(1));
        assert_eq!(sim.memory().peek(flag), 1);
        assert!(sim.all_done());
        // Both accesses hit a global cell: 2 RMRs in DSM.
        assert_eq!(sim.totals().rmrs, 2);
        assert_eq!(sim.proc_stats(ProcId(0)).calls_completed, 1);
        assert_eq!(sim.history().calls().len(), 2);
    }

    #[test]
    fn reader_sees_writer() {
        let (spec, _) = write_then_read_spec();
        let mut sim = Simulator::new(&spec);
        drain(&mut sim, ProcId(0));
        drain(&mut sim, ProcId(1));
        assert!(sim.history().sees_pairs().contains(&(ProcId(1), ProcId(0))));
    }

    #[test]
    fn replay_reproduces_execution() {
        let (spec, _) = write_then_read_spec();
        let mut sim = Simulator::new(&spec);
        // Interleave.
        let _ = sim.step(ProcId(0));
        let _ = sim.step(ProcId(1));
        let _ = sim.step(ProcId(0));
        let _ = sim.step(ProcId(1));
        let replayed = Simulator::replay(&spec, sim.schedule(), &BTreeSet::new());
        assert_eq!(replayed.history().to_vec(), sim.history().to_vec());
        assert_eq!(replayed.totals(), sim.totals());
    }

    #[test]
    fn replay_with_erasure_removes_process() {
        let (spec, flag) = write_then_read_spec();
        let mut sim = Simulator::new(&spec);
        drain(&mut sim, ProcId(0));
        drain(&mut sim, ProcId(1));
        let erased = BTreeSet::from([ProcId(0)]);
        let replayed = Simulator::replay(&spec, sim.schedule(), &erased);
        assert_eq!(replayed.memory().peek(flag), 0, "writer erased");
        assert!(!replayed.history().participants().contains(&ProcId(0)));
        // The reader now reads 0 instead of 1 — erasure is only *legal* when
        // nobody saw the erased process; here it changes the outcome, which
        // is exactly why the adversary must check visibility first.
        let calls = replayed.history().calls();
        assert_eq!(calls[0].return_value, Some(0));
    }

    #[test]
    fn peek_detects_termination() {
        let (spec, _) = write_then_read_spec();
        let mut sim = Simulator::new(&spec);
        let _ = sim.step(ProcId(0)); // write (invoke + op)
        let _ = sim.step(ProcId(0)); // return
        assert_eq!(
            sim.peek_transition(ProcId(0)),
            TransitionPeek::WillTerminate
        );
    }

    #[test]
    fn op_would_be_rmr_in_dsm() {
        let mut layout = MemLayout::new();
        let mine = layout.alloc_local(ProcId(0), 0);
        let theirs = layout.alloc_local(ProcId(1), 0);
        let spec = SimSpec {
            layout,
            sources: vec![Box::new(crate::source::Idle), Box::new(crate::source::Idle)],
            model: CostModel::Dsm,
        };
        let sim = Simulator::new(&spec);
        assert!(!sim.op_would_be_rmr(ProcId(0), &Op::Read(mine)));
        assert!(sim.op_would_be_rmr(ProcId(0), &Op::Read(theirs)));
    }

    #[test]
    fn inject_call_revives_terminated_process() {
        let (spec, flag) = write_then_read_spec();
        let mut sim = Simulator::new(&spec);
        drain(&mut sim, ProcId(0));
        assert_eq!(sim.status(ProcId(0)), Status::Terminated);
        sim.inject_call(
            ProcId(0),
            Call::new(
                CallKind(9),
                "extra",
                Box::new(OpSequence::new(vec![Op::Write(flag, 7)])),
            ),
        );
        assert!(sim.is_runnable(ProcId(0)));
        let _ = sim.step(ProcId(0));
        assert_eq!(sim.memory().peek(flag), 7);
        assert_eq!(sim.injected_calls(), 1);
    }

    #[test]
    fn crash_mid_call_is_recorded() {
        let (spec, _) = write_then_read_spec();
        let mut sim = Simulator::new(&spec);
        let _ = sim.step(ProcId(0)); // in the middle of "set"
        assert!(sim.has_pending_call(ProcId(0)));
        sim.crash(ProcId(0));
        assert_eq!(sim.status(ProcId(0)), Status::Crashed);
        assert!(sim.history().finished().contains(&ProcId(0)));
        assert_eq!(sim.step(ProcId(0)), StepReport::NotRunnable);
    }

    #[test]
    fn run_solo_until_call_boundary_completes_call() {
        let (spec, _) = write_then_read_spec();
        let mut sim = Simulator::new(&spec);
        let _ = sim.step(ProcId(0)); // invoke + write
        assert!(sim.has_pending_call(ProcId(0)));
        let taken = sim.run_solo_until_call_boundary(ProcId(0), 100).unwrap();
        assert_eq!(taken, 1, "one more step to return");
        assert!(!sim.has_pending_call(ProcId(0)));
    }

    #[test]
    fn repeat_until_source_busy_waits() {
        let mut layout = MemLayout::new();
        let flag = layout.alloc_global(0);
        let poll = ScriptedCall::new(
            CallKind(1),
            "poll",
            Arc::new(move || Box::new(OpSequence::new(vec![Op::Read(flag)]))),
        );
        let waiter = RepeatUntil::new(poll, 1);
        let setter = Script::new(vec![ScriptedCall::new(
            CallKind(0),
            "set",
            Arc::new(move || Box::new(OpSequence::new(vec![Op::Write(flag, 1)]))),
        )]);
        let spec = SimSpec {
            layout,
            sources: vec![Box::new(waiter), Box::new(setter)],
            model: CostModel::Dsm,
        };
        let mut sim = Simulator::new(&spec);
        // Waiter polls three times (sees 0 each time).
        for _ in 0..6 {
            let _ = sim.step(ProcId(0));
        }
        assert!(sim.is_runnable(ProcId(0)));
        drain(&mut sim, ProcId(1));
        drain(&mut sim, ProcId(0));
        assert_eq!(sim.status(ProcId(0)), Status::Terminated);
        assert_eq!(sim.proc_stats(ProcId(0)).calls_completed, 4);
    }

    #[test]
    fn cloned_simulator_diverges_independently() {
        let (spec, flag) = write_then_read_spec();
        let mut sim = Simulator::new(&spec);
        let mut snap = sim.clone();
        drain(&mut sim, ProcId(0));
        assert_eq!(sim.memory().peek(flag), 1);
        assert_eq!(snap.memory().peek(flag), 0);
        drain(&mut snap, ProcId(1));
        assert_eq!(snap.history().calls()[0].return_value, Some(0));
    }
}
