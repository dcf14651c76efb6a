//! The bounded exhaustive scheduler: sleep-set DPOR over the simulator's
//! enabled steps, fingerprint deduplication, CHESS-style bounds, and a
//! deterministic parallel frontier fan-out.

use crate::bounds::Bounds;
use crate::counterexample::replay;
use crate::oracle::{Objective, Oracle};
use crate::spill::{self, Corrupt, Key};
use crate::store::{frontier_hot_cap, Lookup, Popped, SpillQueue, VisitedStore};
use shm_pool::map_indexed;
use shm_sim::{
    CallRecord, Checkpoint, Op, ProcId, SimSpec, Simulator, StateHasher, StateSum, TransitionPeek,
};

/// Target frontier size for the parallel fan-out: the serial breadth-first
/// phase stops once this many open nodes exist, and the rest of the space
/// is explored as one pool job per frontier node. Thread-count independent
/// (the frontier is fixed before any job runs).
const FRONTIER: usize = 64;

/// Cap on retained violation records, shared with
/// [`crate::RandomReport::KEEP_VIOLATIONS`]: every violation is still
/// *counted*; this only caps the retained schedules.
pub(crate) const KEEP_VIOLATIONS: usize = 16;

/// One violation found during exploration.
#[derive(Clone, Debug)]
pub struct FoundViolation {
    /// Name of the oracle that rejected the state.
    pub oracle: &'static str,
    /// Human-readable violation description.
    pub description: String,
    /// Whether the violating history was within the algorithm's
    /// participation contract (PR 2's classification — out-of-contract
    /// violations say nothing about the algorithm).
    pub in_contract: bool,
    /// The schedule that reached the violating state.
    pub schedule: Vec<ProcId>,
}

/// The argmax schedule for an objective.
#[derive(Clone, Debug)]
pub struct ObjectiveResult {
    /// Objective label.
    pub name: String,
    /// Maximum value over all explored terminal states.
    pub value: u64,
    /// A schedule reaching that value (the first one in deterministic
    /// exploration order).
    pub schedule: Vec<ProcId>,
}

/// The outcome of one exploration. All counts and retained schedules are
/// byte-deterministic at any thread count: the frontier is fixed serially
/// and per-frontier results merge by submission index.
#[derive(Clone, Debug, Default)]
pub struct ExploreReport {
    /// States expanded (distinct under dedup; per-subtree distinct when the
    /// frontier fan-out splits the space).
    pub explored: u64,
    /// Child states pruned because their dedup key was already visited.
    pub deduped: u64,
    /// Transitions skipped by sleep sets (redundant orders of commuting
    /// steps).
    pub sleep_pruned: u64,
    /// Transitions cut by the depth or preemption bound.
    pub bound_pruned: u64,
    /// Terminal states reached (every process terminated).
    pub terminals: u64,
    /// Total violating states found. States are judged on their own path
    /// *before* deduplication (a verdict can depend on the event order, not
    /// just the state), so a violating state reachable along several
    /// non-commuting paths counts once per path.
    pub violations_found: u64,
    /// How many of [`ExploreReport::violations_found`] were within the
    /// algorithm's participation contract. Counted at find time for *every*
    /// violation (not just the retained records), so "zero in-contract
    /// violations" claims are exact.
    pub violations_in_contract: u64,
    /// Retained violation records, in deterministic exploration order
    /// (at most [`RandomReport::KEEP_VIOLATIONS`]).
    ///
    /// [`RandomReport::KEEP_VIOLATIONS`]: crate::RandomReport::KEEP_VIOLATIONS
    pub violations: Vec<FoundViolation>,
    /// Maximum objective value over terminal states, with its schedule.
    pub max_objective: Option<ObjectiveResult>,
    /// Number of frontier nodes handed to the pool (0 = the serial phase
    /// covered the whole space).
    pub frontier: usize,
    /// `true` iff no bound (depth or preemptions) cut any branch: the
    /// report covers the entire schedule space and a clean verdict is a
    /// proof at this scenario size, not an under-approximation.
    pub exhaustive: bool,
    /// Peak number of nodes ever queued in the breadth-first frontier
    /// (hot + spilled). A logical count — identical at any `mem_budget`
    /// and thread count.
    pub peak_frontier: u64,
    /// Peak logical bytes of visited-store residency, summed over the
    /// serial phase and every frontier walker (each contributes its own
    /// peak). Logical accounting ([`crate::store::SLOT_BYTES`] per hot
    /// key plus the resident run indexes), never an allocator or RSS
    /// reading, and deterministic at any thread count.
    ///
    /// The sum is not a residency any run reaches: it counts every
    /// walker's store as if all peaked at once, but each store drops when
    /// its walk ends (the serial phase's before the fan-out, a frontier
    /// walker's with its pool job), so at most `threads` are alive
    /// together. On the unbudgeted E9 deep row it reads 120,339,560
    /// bytes, the sum over ~65 walkers, while the process peaks at about
    /// 16 MiB of RSS.
    pub peak_visited_bytes: u64,
    /// Total delta-compressed bytes spilled to disk (visited runs + packed
    /// frontier nodes). 0 whenever the budget never forced a spill.
    pub spilled_bytes: u64,
}

impl ExploreReport {
    /// Violations found *outside* the participation contract — recorded but
    /// not held against the algorithm (PR 2's classification).
    #[must_use]
    pub fn out_of_contract_violations(&self) -> u64 {
        self.violations_found - self.violations_in_contract
    }
}

/// What one `step(pid)` would do, reduced to the facts the dependency
/// relation needs: call-boundary-ness and the memory footprint.
#[derive(Clone, Copy, Debug)]
struct Class {
    /// The step emits an `Invoke` or `Return` event (call boundary). The
    /// spec checkers judge cross-process invoke/return order, so boundary
    /// steps of different processes never commute.
    boundary: bool,
    /// The step terminates the process (no event the oracles observe; no
    /// memory access) — independent of everything.
    terminate: bool,
    /// The memory access the step performs, if any.
    op: Option<Op>,
}

fn classify(sim: &Simulator, pid: ProcId) -> Option<Class> {
    match sim.peek_transition(pid) {
        TransitionPeek::NotRunnable => None,
        TransitionPeek::WillTerminate => Some(Class {
            boundary: false,
            terminate: true,
            op: None,
        }),
        TransitionPeek::Return { .. } => Some(Class {
            boundary: true,
            terminate: false,
            op: None,
        }),
        TransitionPeek::Access(op) => Some(Class {
            // A step on a process with no open call fetches the next call
            // (emitting Invoke) before its first access, within the same
            // step.
            boundary: !sim.has_pending_call(pid),
            terminate: false,
            op: Some(op),
        }),
    }
}

/// Two steps commute iff they touch disjoint locations or are both plain
/// reads, and they are not both call boundaries. Valid independence for both
/// cost models: per-location validity means disjoint-location and read-read
/// reorders leave every charge unchanged, and one process's step never
/// changes what another's next transition is (machine state is process-
/// local) nor whether it is enabled.
fn independent(a: Class, b: Class) -> bool {
    if a.terminate || b.terminate {
        return true;
    }
    if a.boundary && b.boundary {
        return false;
    }
    match (a.op, b.op) {
        (Some(x), Some(y)) => {
            x.addr() != y.addr() || (matches!(x, Op::Read(_)) && matches!(y, Op::Read(_)))
        }
        _ => true,
    }
}

/// A node of the exploration tree: a simulator state plus the path-dependent
/// context (sleep set, preemptions used so far).
struct Node {
    sim: Simulator,
    /// Bitmask of sleeping process IDs.
    sleep: u64,
    /// Preemptive context switches on the path to this node.
    preempts: u32,
}

/// What a walk carries into a node's expansion besides the simulator state:
/// everything here is the parent's, changed only by the one step between
/// them (see [`Walker::child_frame`]), so no field is rebuilt from the
/// whole history or the whole state except at a walk's root.
struct Frame {
    /// Bitmask of sleeping process IDs.
    sleep: u64,
    /// Preemptive context switches on the path to this node.
    preempts: u32,
    /// One entry per enabled process, in ascending pid order.
    classes: Vec<(ProcId, Class)>,
    /// The node history's call records.
    calls: Vec<CallRecord>,
    /// Open-call map paired with [`Frame::calls`].
    open: Vec<usize>,
    /// The process-and-cell part of the node's state fingerprint.
    sum: StateSum,
}

/// A claimed child: the step that reaches it and its path context.
#[derive(Clone, Copy)]
struct Child {
    pid: ProcId,
    sleep: u64,
    preempts: u32,
    /// The process-and-cell part of the child's state fingerprint.
    sum: StateSum,
}

// The dedup [`Key`] (state fingerprint + sleep set + bound word + oracle
// order-witness context) lives in `crate::spill`; two histories may only
// merge when every past fact that can sway a future verdict agrees. When
// preemption bounding is active the bound word carries the last-scheduled
// pid and the *remaining* preemption budget: equal remaining budget ⇒ equal
// explorable continuations.

/// Where the claim pass left the simulator relative to the node it expanded.
#[derive(Clone, Copy, PartialEq, Eq)]
enum SimAt {
    /// At the node state itself (no rollback needed before stepping).
    Node,
    /// At the state of the *last* surviving child (the chain fast path).
    LastChild,
    /// At some other stepped-but-pruned state; restore before using.
    Stale,
}

struct Walker<'a> {
    oracles: &'a [&'a dyn Oracle],
    objective: Option<&'a dyn Objective>,
    bounds: &'a Bounds,
    /// The two-tier visited set (hot table + spilled cold runs). The
    /// exact-state collision cross-check of debug and `exact-fingerprints`
    /// builds lives inside the store, preserved across tiers.
    visited: VisitedStore,
    rep: ExploreReport,
    /// Call records of the state just stepped to: its node's records plus
    /// the one or two events its step appended
    /// ([`shm_sim::History::calls_extend`]), built once and shared between
    /// the oracle checks and the dedup contexts. The chain fast path moves
    /// them into the child's frame.
    calls_buf: Vec<CallRecord>,
    /// Open-call map paired with [`Walker::calls_buf`].
    open_buf: Vec<usize>,
    /// Computes each child's state fingerprint from its node's
    /// [`StateSum`] and the words its step changed.
    hasher: StateHasher,
    /// Recycled node checkpoints: [`Simulator::snapshot_reuse`] makes the
    /// per-node snapshot allocation-free at steady state.
    ckpt_pool: Vec<Checkpoint>,
    /// Recycled frames (see [`Walker::frame`]).
    frame_pool: Vec<Frame>,
    /// Live progress meter (`None` when no progress sink is installed).
    /// Each walker runs on one serial path whose track the pool fixed by
    /// submission index, so every field it emits is deterministic.
    meter: Option<shm_obs::progress::Meter>,
}

/// Default progress cadence for the explorer: one frame per this many
/// expanded states (overridden by `--progress=N`).
const PROGRESS_EVERY_STATES: u64 = 100_000;

impl<'a> Walker<'a> {
    fn new(
        oracles: &'a [&'a dyn Oracle],
        objective: Option<&'a dyn Objective>,
        bounds: &'a Bounds,
        label: &str,
    ) -> Self {
        Walker {
            oracles,
            objective,
            bounds,
            visited: VisitedStore::new(bounds.mem_budget, None),
            rep: ExploreReport {
                exhaustive: true,
                ..ExploreReport::default()
            },
            meter: shm_obs::progress::Meter::new("explore", label, PROGRESS_EVERY_STATES, None),
            calls_buf: Vec::new(),
            open_buf: Vec::new(),
            hasher: StateHasher::new(),
            ckpt_pool: Vec::new(),
            frame_pool: Vec::new(),
        }
    }

    fn key_of(
        &mut self,
        sim: &Simulator,
        sleep: u64,
        last: ProcId,
        preempts: u32,
        calls: &[CallRecord],
        sum: StateSum,
    ) -> Key {
        // The bound word encodes the *remaining* budget, not the used
        // count; within a run the two are bijective, so dedup is the same
        // either way.
        let aux = if let Some(cap) = self.bounds.max_preemptions {
            (u64::from(last.0) + 1) << 32 | (cap as u64 - u64::from(preempts))
        } else {
            0
        };
        let mut ctx = 0u64;
        for oracle in self.oracles {
            ctx = ctx.rotate_left(7) ^ oracle.dedup_context(sim, calls);
        }
        let fp = self.hasher.fingerprint(sim, sum);
        #[cfg(any(debug_assertions, feature = "exact-fingerprints"))]
        assert_eq!(
            fp,
            sim.state_fingerprint(),
            "one-step state fingerprint differs from the full hash"
        );
        (fp, sleep, aux, ctx)
    }

    /// Marks `key` visited; returns `false` (and counts a dedup hit) when it
    /// already was — in any tier.
    fn visit(&mut self, key: Key, sim: &Simulator) -> bool {
        match self.visited.insert(key, || sim.state_words()) {
            Lookup::New => true,
            Lookup::Hot | Lookup::Cold => {
                self.rep.deduped += 1;
                shm_obs::counter!("explore.dedup");
                false
            }
        }
    }

    /// Extracts the report, folding in the visited store's memory
    /// trajectory. The store drops here, so a pool job frees its walker's
    /// keys (and removes its spill files) before the fan-out ends.
    fn into_report(self) -> ExploreReport {
        let mut rep = self.rep;
        rep.spilled_bytes += self.visited.spilled_bytes();
        rep.peak_visited_bytes = self.visited.peak_bytes();
        rep
    }

    /// Expands one node *in place*: counts it, measures terminals, and
    /// claims every candidate child in deterministic ascending-pid order —
    /// stepping `sim`, judging and dedup-checking the stepped state, and
    /// rolling back through the snapshot lazily (only when the next
    /// candidate actually needs the node state). Returns the node's
    /// checkpoint (if one was taken), the surviving children to descend
    /// into, and whether `sim` was left sitting at the *last* surviving
    /// child's state (the chain fast path: a single-child node descends
    /// without a restore or a re-step); `None` when the node is terminal.
    ///
    /// The checkpoint is only restored to step a second candidate or to
    /// re-step a second child, so it is taken only when `node` has two or
    /// more candidates outside its sleep set, or when `keep_node` asks for
    /// the node state back afterwards (the breadth-first phase).
    ///
    /// Claiming *all* siblings before any descent keeps the visited-set
    /// insertion order — and with it every dedup, sleep, and bound count —
    /// identical to the historical clone-per-child expansion, while the
    /// snapshot/restore cycle replaces the per-candidate deep clone of the
    /// whole simulator (history and schedule rewind in place; process
    /// machines roll back by swapping refcounted pointers).
    fn expand(
        &mut self,
        sim: &mut Simulator,
        node: &Frame,
        keep_node: bool,
    ) -> Option<(Option<Checkpoint>, Vec<Child>, SimAt)> {
        self.rep.explored += 1;
        shm_obs::counter!("explore.states");
        if self.meter.as_mut().is_some_and(|m| m.tick(1)) {
            let fields = [
                ("visited", self.visited.len()),
                ("visited_bytes", self.visited.peak_bytes()),
                ("spilled_bytes", self.visited.spilled_bytes()),
                ("deduped", self.rep.deduped),
                ("terminals", self.rep.terminals),
            ];
            self.meter.as_mut().expect("just ticked").emit(&fields);
        }
        if node.classes.is_empty() {
            self.rep.terminals += 1;
            shm_obs::counter!("explore.terminals");
            if let Some(obj) = self.objective {
                let value = obj.measure(sim);
                let better = self
                    .rep
                    .max_objective
                    .as_ref()
                    .is_none_or(|m| value > m.value);
                if better {
                    self.rep.max_objective = Some(ObjectiveResult {
                        name: obj.name(),
                        value,
                        schedule: sim.schedule().to_vec(),
                    });
                }
            }
            return None;
        }
        let last = sim.schedule().last().copied();
        let depth = sim.schedule().len();
        let candidates = node
            .classes
            .iter()
            .filter(|&&(pid, _)| node.sleep >> pid.0 & 1 == 0)
            .count();
        let ckpt = (keep_node || candidates > 1).then(|| sim.snapshot_reuse(self.ckpt_pool.pop()));
        let node_len = sim.history().len();
        let mut children = Vec::new();
        // Pids already covered from this node (executed, deduped, or judged
        // violating): sleep-set candidates for later siblings.
        let mut done: u64 = 0;
        // Where `sim` currently sits relative to the checkpoint; stepped
        // states roll back lazily, only when the next candidate needs the
        // node state.
        let mut at = SimAt::Node;
        for &(pid, class) in &node.classes {
            if node.sleep >> pid.0 & 1 == 1 {
                self.rep.sleep_pruned += 1;
                shm_obs::counter!("explore.sleep_pruned");
                continue;
            }
            if self.bounds.max_depth.is_some_and(|d| depth + 1 > d) {
                self.rep.bound_pruned += 1;
                self.rep.exhaustive = false;
                shm_obs::counter!("explore.bound_pruned");
                continue;
            }
            if at != SimAt::Node {
                sim.restore(ckpt.as_ref().expect("a second candidate has a checkpoint"));
                at = SimAt::Node;
            }
            let preempt = last.is_some_and(|l| l != pid && sim.is_runnable(l));
            let preempts = node.preempts + u32::from(preempt);
            if self
                .bounds
                .max_preemptions
                .is_some_and(|m| preempts as usize > m)
            {
                self.rep.bound_pruned += 1;
                self.rep.exhaustive = false;
                shm_obs::counter!("explore.bound_pruned");
                continue;
            }
            // The child's sleep set: everything covered so far that commutes
            // with the step being taken (classic sleep-set propagation).
            let sleep = if self.bounds.dpor {
                let mut s = 0u64;
                for &(q, qc) in &node.classes {
                    let covered = (node.sleep | done) >> q.0 & 1 == 1;
                    if covered && independent(qc, class) {
                        s |= 1 << q.0;
                    }
                }
                s
            } else {
                0
            };
            let before = sim.step_words(pid, class.op.map(|op| op.addr()));
            let _ = sim.step(pid);
            at = SimAt::Stale;
            let sum = self.hasher.advance(sim, node.sum, &before);
            // Judge *before* the dedup check: a verdict can depend on the
            // event order of the path, so a violating state must never be
            // skipped because a clean reordering of it was visited first.
            // The call records feed both the judging oracles and the dedup
            // contexts, so build them once per stepped state.
            let mut calls = std::mem::take(&mut self.calls_buf);
            let mut open = std::mem::take(&mut self.open_buf);
            calls.clone_from(&node.calls);
            open.clone_from(&node.open);
            sim.history().calls_extend(node_len, &mut calls, &mut open);
            let verdict = self.judge(sim, &calls);
            let key = (verdict.is_none() && self.bounds.dedup)
                .then(|| self.key_of(sim, sleep, pid, preempts, &calls, sum));
            self.calls_buf = calls;
            self.open_buf = open;
            if let Some(v) = verdict {
                // A violating state is a leaf: every extension carries the
                // same first violation, so descending would only re-report.
                self.rep.violations_found += 1;
                self.rep.violations_in_contract += u64::from(v.in_contract);
                shm_obs::counter!("explore.violations");
                if self.rep.violations.len() < KEEP_VIOLATIONS {
                    self.rep.violations.push(v);
                }
                done |= 1 << pid.0;
                continue;
            }
            if let Some(key) = key {
                if !self.visit(key, sim) {
                    done |= 1 << pid.0;
                    continue;
                }
            }
            done |= 1 << pid.0;
            children.push(Child {
                pid,
                sleep,
                preempts,
                sum,
            });
            at = SimAt::LastChild;
        }
        Some((ckpt, children, at))
    }

    fn judge(&self, sim: &Simulator, calls: &[CallRecord]) -> Option<FoundViolation> {
        for oracle in self.oracles {
            if let Err(description) = oracle.check_with(sim, calls) {
                return Some(FoundViolation {
                    oracle: oracle.name(),
                    description,
                    in_contract: oracle.in_contract(sim),
                    schedule: sim.schedule().to_vec(),
                });
            }
        }
        None
    }

    /// Depth-first exploration of the whole subtree above `sim`'s current
    /// state, mutating `sim` in place: each surviving child is re-stepped
    /// from the node checkpoint and descended into. No simulator is ever
    /// cloned on this path, and a single-child node (the common chain case)
    /// descends directly into the state the claim pass left behind, with no
    /// rollback or re-step at all.
    ///
    /// On return `sim` sits at or below the entry state — callers that need
    /// the entry state back restore to their own checkpoint, which stays
    /// valid for any descendant state.
    fn dfs(&mut self, sim: &mut Simulator, node: Frame) {
        let Some((ckpt, children, at)) = self.expand(sim, &node, false) else {
            self.frame_pool.push(node);
            return;
        };
        match children[..] {
            [] => self.ckpt_pool.extend(ckpt),
            [child] if at == SimAt::LastChild => {
                // The claim pass left `sim` at the child's state and the
                // child's call records in `calls_buf`.
                let mut frame = self.child_frame(&node, sim, child);
                std::mem::swap(&mut frame.calls, &mut self.calls_buf);
                std::mem::swap(&mut frame.open, &mut self.open_buf);
                self.ckpt_pool.extend(ckpt);
                self.frame_pool.push(node);
                self.dfs(sim, frame);
                return;
            }
            _ => {
                // Two or more children, or one that a later candidate's
                // rollback or step left behind: either way at least two
                // candidates stepped, so the node has a checkpoint.
                let ckpt = ckpt.expect("a node with two candidates has a checkpoint");
                let mut at_node = at == SimAt::Node;
                for &child in &children {
                    if !at_node {
                        sim.restore(&ckpt);
                    }
                    let _ = sim.step(child.pid);
                    let mut frame = self.child_frame(&node, sim, child);
                    frame.calls.extend_from_slice(&node.calls);
                    frame.open.extend_from_slice(&node.open);
                    sim.history().calls_extend(
                        ckpt.history_len(),
                        &mut frame.calls,
                        &mut frame.open,
                    );
                    self.dfs(sim, frame);
                    at_node = false;
                }
                self.ckpt_pool.push(ckpt);
            }
        }
        self.frame_pool.push(node);
    }

    /// A recycled frame with empty tables.
    fn frame(&mut self, sleep: u64, preempts: u32, sum: StateSum) -> Frame {
        match self.frame_pool.pop() {
            Some(mut f) => {
                f.sleep = sleep;
                f.preempts = preempts;
                f.sum = sum;
                f.classes.clear();
                f.calls.clear();
                f.open.clear();
                f
            }
            None => Frame {
                sleep,
                preempts,
                classes: Vec::new(),
                calls: Vec::new(),
                open: Vec::new(),
                sum,
            },
        }
    }

    /// The frame of a walk's root, `sim`'s current state, built from
    /// scratch: one peek per process, the call records from event 0, and
    /// the full state sum.
    fn root_frame(&mut self, sim: &Simulator, sleep: u64, preempts: u32) -> Frame {
        let sum = self.hasher.sum(sim);
        let mut f = self.frame(sleep, preempts, sum);
        f.classes.extend((0..sim.n()).filter_map(|i| {
            let pid = ProcId(i as u32);
            classify(sim, pid).map(|c| (pid, c))
        }));
        sim.history().calls_into_open(&mut f.calls, &mut f.open);
        f
    }

    /// The frame of `child`, whose state `sim` holds, reached by one step
    /// from the node whose frame is `parent`. Its call records are left
    /// empty for the caller to fill. A step only mutates the stepped
    /// process's machine — every transition peek is process-local — so the
    /// child's class table is the parent's with the one entry re-peeked
    /// (and dropped when the process terminated), not `n` fresh peeks, each
    /// of which deep-clones a machine.
    fn child_frame(&mut self, parent: &Frame, sim: &Simulator, child: Child) -> Frame {
        let mut f = self.frame(child.sleep, child.preempts, child.sum);
        f.classes.extend_from_slice(&parent.classes);
        let idx = f
            .classes
            .iter()
            .position(|&(p, _)| p == child.pid)
            .expect("stepped pid was an enabled candidate");
        match classify(sim, child.pid) {
            Some(c) => f.classes[idx].1 = c,
            None => {
                f.classes.remove(idx);
            }
        }
        f
    }
}

/// Merges sub-reports in submission-index order.
fn merge(into: &mut ExploreReport, part: ExploreReport) {
    into.explored += part.explored;
    into.deduped += part.deduped;
    into.sleep_pruned += part.sleep_pruned;
    into.bound_pruned += part.bound_pruned;
    into.terminals += part.terminals;
    into.violations_found += part.violations_found;
    into.violations_in_contract += part.violations_in_contract;
    into.exhaustive &= part.exhaustive;
    into.spilled_bytes += part.spilled_bytes;
    into.peak_visited_bytes += part.peak_visited_bytes;
    into.peak_frontier = into.peak_frontier.max(part.peak_frontier);
    for v in part.violations {
        if into.violations.len() < KEEP_VIOLATIONS {
            into.violations.push(v);
        }
    }
    // Strict `>` keeps the earliest (lowest submission index) argmax.
    if part.max_objective.as_ref().is_some_and(|p| {
        into.max_objective
            .as_ref()
            .is_none_or(|m| p.value > m.value)
    }) {
        into.max_objective = part.max_objective;
    }
}

/// Explores the schedule space of `spec` under `bounds`, checking `oracles`
/// on every reached state and maximizing `objective` over terminal states.
///
/// A serial breadth-first phase expands the root until 64 open nodes exist
/// (or the space is exhausted); the frontier then fans out across
/// [`shm_pool`] workers, one job per node, and the sub-reports merge by
/// submission index — so every count, verdict, and retained schedule is
/// byte-identical at any thread count (`threads = 1` runs the identical
/// two-phase structure serially).
///
/// # Panics
///
/// If `spec` has more than 64 processes: sleep sets are `u64` pid masks.
#[must_use]
pub fn explore(
    spec: &SimSpec,
    oracles: &[&dyn Oracle],
    objective: Option<&dyn Objective>,
    bounds: &Bounds,
) -> ExploreReport {
    explore_labelled(spec, oracles, objective, bounds, "")
}

/// Packs a frontier node for the spill queue: the schedule (which replays
/// to the identical simulator state) plus the path context. The simulator
/// itself is never serialized.
fn pack_node(node: &Node, out: &mut Vec<u8>) {
    spill::push_varint(out, node.sleep);
    spill::push_varint(out, u64::from(node.preempts));
    let schedule = node.sim.schedule();
    spill::push_varint(out, schedule.len() as u64);
    for pid in schedule {
        spill::push_varint(out, u64::from(pid.0));
    }
}

/// Inverse of [`pack_node`]: the sleep set, preemption count and schedule
/// of a packed entry, or [`Corrupt`] when the entry is truncated, a word
/// is out of range, or bytes are left over.
fn unpack_node(buf: &[u8]) -> Result<(u64, u32, Vec<ProcId>), Corrupt> {
    let mut pos = 0usize;
    let sleep = spill::read_varint(buf, &mut pos)?;
    let word32 =
        |pos: &mut usize| u32::try_from(spill::read_varint(buf, pos)?).map_err(|_| Corrupt);
    let preempts = word32(&mut pos)?;
    let len = spill::read_varint(buf, &mut pos)?;
    // Every pid takes at least one byte: bound the length before
    // allocating for it.
    if len > (buf.len() - pos) as u64 {
        return Err(Corrupt);
    }
    let mut schedule = Vec::with_capacity(len as usize);
    for _ in 0..len {
        schedule.push(ProcId(word32(&mut pos)?));
    }
    if pos != buf.len() {
        return Err(Corrupt);
    }
    Ok((sleep, preempts, schedule))
}

/// Re-materializes a popped frontier entry; packed nodes replay their
/// schedule from the root, which is deterministic, so a node that took the
/// disk detour expands exactly as a resident one would.
fn materialize(spec: &SimSpec, popped: Popped<Node>) -> Result<Node, Corrupt> {
    match popped {
        Popped::Live(node) => Ok(node),
        Popped::Packed(buf) => {
            let (sleep, preempts, schedule) = unpack_node(&buf)?;
            Ok(Node {
                sim: replay(spec, &schedule),
                sleep,
                preempts,
            })
        }
    }
}

/// [`explore`] with `label` naming the run in its progress frames.
pub(crate) fn explore_labelled(
    spec: &SimSpec,
    oracles: &[&dyn Oracle],
    objective: Option<&dyn Objective>,
    bounds: &Bounds,
    label: &str,
) -> ExploreReport {
    let n = spec.sources.len();
    // Sleep sets, the per-node `done` mask and the polling oracle's dedup
    // context are `u64` masks indexed by pid: pid 64 would alias pid 0.
    assert!(
        n <= 64,
        "explore tracks processes in u64 masks: n = {n} exceeds 64"
    );
    let _span = shm_obs::Span::enter("explore.run");
    // The run meter exists only for the final summary frame (periodic
    // frames come from the per-walker meters); created first so its wall
    // clock covers the whole run.
    let mut run_meter =
        shm_obs::progress::Meter::new("explore", label, PROGRESS_EVERY_STATES, None);
    let root = Node {
        sim: Simulator::new(spec),
        sleep: 0,
        preempts: 0,
    };
    let mut phase1 = Walker::new(oracles, objective, bounds, label);
    let mut queue: SpillQueue<Node> = SpillQueue::new(frontier_hot_cap(bounds.mem_budget));
    queue.push(root, pack_node);
    while queue.len() < FRONTIER {
        let Some(popped) = queue.pop() else {
            break;
        };
        let mut node = materialize(spec, popped).expect("frontier spill entry decodes");
        let frame = phase1.root_frame(&node.sim, node.sleep, node.preempts);
        let expanded = phase1.expand(&mut node.sim, &frame, true);
        phase1.frame_pool.push(frame);
        let Some((ckpt, children, at)) = expanded else {
            continue;
        };
        let ckpt = ckpt.expect("the breadth-first phase keeps every node's checkpoint");
        if at != SimAt::Node {
            node.sim.restore(&ckpt);
        }
        for child in children {
            // The breadth-first frontier needs materialized child states:
            // re-step the claimed child and clone it off before rolling
            // back. This phase touches at most `FRONTIER` nodes (and the
            // queue spills the excess beyond the hot ring).
            let _ = node.sim.step(child.pid);
            let sim = node.sim.clone();
            node.sim.restore(&ckpt);
            queue.push(
                Node {
                    sim,
                    sleep: child.sleep,
                    preempts: child.preempts,
                },
                pack_node,
            );
        }
        phase1.ckpt_pool.push(ckpt);
    }
    let mut report = phase1.into_report();
    report.frontier = queue.len();
    report.peak_frontier = queue.peak_len() as u64;
    report.spilled_bytes += queue.spilled_bytes();
    if !queue.is_empty() {
        let mut jobs: Vec<Popped<Node>> = Vec::new();
        while let Some(popped) = queue.pop() {
            jobs.push(popped);
        }
        let parts = map_indexed(shm_pool::threads(), jobs, |_, popped| {
            let _span = shm_obs::Span::enter("explore.subtree");
            let mut w = Walker::new(oracles, objective, bounds, label);
            let Node {
                mut sim,
                sleep,
                preempts,
            } = materialize(spec, popped).expect("frontier spill entry decodes");
            let root = w.root_frame(&sim, sleep, preempts);
            w.dfs(&mut sim, root);
            w.into_report()
        });
        for part in parts {
            merge(&mut report, part);
        }
    }
    drop(queue);
    if let Some(m) = run_meter.as_mut() {
        // The memory-trajectory summary: one deterministic frame per run
        // (this is the progress-JSONL home of the figures the E9 deep row
        // used to print ad hoc).
        let _ = m.tick(report.explored);
        m.summary(&[
            ("explored", report.explored),
            ("terminals", report.terminals),
            ("deduped", report.deduped),
            ("violations", report.violations_found),
            ("frontier", report.frontier as u64),
            ("peak_frontier", report.peak_frontier),
            ("peak_visited_bytes", report.peak_visited_bytes),
            ("spilled_bytes", report.spilled_bytes),
        ]);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{FnOracle, TotalRmrs};
    use shm_sim::{CallKind, CostModel, MemLayout, OpSequence, Script, ScriptedCall};
    use std::sync::Arc;

    /// `n` writers each write their pid to a private slot of a global array:
    /// all steps commute, so DPOR should collapse the n! orders.
    fn disjoint_writers(n: usize) -> SimSpec {
        let mut layout = MemLayout::new();
        let cells = layout.alloc_global_array(n, 0);
        let sources = (0..n)
            .map(|i| {
                let a = cells.at(i);
                let call = ScriptedCall::new(
                    CallKind(0),
                    "write",
                    Arc::new(move || {
                        Box::new(OpSequence::new(vec![Op::Write(a, 1)]))
                            as Box<dyn shm_sim::ProcedureCall>
                    }),
                );
                Box::new(Script::new(vec![call])) as Box<dyn shm_sim::CallSource>
            })
            .collect();
        SimSpec {
            layout,
            sources,
            model: CostModel::Dsm,
        }
    }

    #[test]
    fn explores_all_interleavings_of_two_writers() {
        let spec = disjoint_writers(2);
        let rep = explore(&spec, &[], Some(&TotalRmrs), &Bounds::naive());
        assert!(rep.exhaustive);
        assert_eq!(rep.violations_found, 0);
        assert!(rep.terminals >= 2, "{rep:?}");
        assert!(rep.max_objective.is_some());
    }

    #[test]
    fn dpor_explores_fewer_states_than_naive_on_commuting_writers() {
        let spec = disjoint_writers(3);
        let naive = explore(&spec, &[], None, &Bounds::naive());
        let dpor = explore(&spec, &[], None, &Bounds::exhaustive());
        assert!(naive.exhaustive && dpor.exhaustive);
        assert!(
            dpor.explored + dpor.deduped < naive.explored,
            "dpor {dpor:?} vs naive {naive:?}"
        );
    }

    #[test]
    fn fn_oracle_violations_are_found_and_counted() {
        let spec = disjoint_writers(2);
        // "Nobody may ever complete a call": violated as soon as any write
        // call returns.
        let oracle = FnOracle::new("no-completions", |sim: &Simulator| {
            if sim.history().calls().iter().any(|c| c.is_complete()) {
                Err("a call completed".to_owned())
            } else {
                Ok(())
            }
        });
        let rep = explore(&spec, &[&oracle], None, &Bounds::exhaustive());
        assert!(rep.violations_found > 0);
        assert!(!rep.violations.is_empty());
        assert_eq!(rep.violations[0].oracle, "no-completions");
        assert!(rep.violations[0].in_contract);
    }

    #[test]
    fn depth_bound_marks_report_non_exhaustive() {
        let spec = disjoint_writers(3);
        let rep = explore(&spec, &[], None, &Bounds::bounded(2, None));
        assert!(!rep.exhaustive);
        assert!(rep.bound_pruned > 0);
    }

    #[test]
    fn preemption_bound_zero_allows_only_run_to_completion_orders() {
        let spec = disjoint_writers(3);
        let mut b = Bounds::exhaustive();
        b.max_preemptions = Some(0);
        b.dpor = false;
        b.dedup = false;
        let rep = explore(&spec, &[], None, &b);
        // With zero preemptions each process runs to termination once
        // scheduled: 3! = 6 complete orders.
        assert_eq!(rep.terminals, 6, "{rep:?}");
        assert!(!rep.exhaustive);
    }

    #[test]
    #[should_panic(expected = "n = 65 exceeds 64")]
    fn explore_rejects_more_processes_than_its_masks_hold() {
        let _ = explore(&disjoint_writers(65), &[], None, &Bounds::exhaustive());
    }

    #[test]
    fn packed_frontier_entries_unpack_or_report_corruption() {
        let spec = disjoint_writers(3);
        let schedule = [ProcId(2), ProcId(0), ProcId(1)];
        let node = Node {
            sim: replay(&spec, &schedule),
            sleep: 0b101,
            preempts: 300,
        };
        let mut buf = Vec::new();
        pack_node(&node, &mut buf);
        assert_eq!(unpack_node(&buf), Ok((0b101, 300, schedule.to_vec())));
        for cut in 0..buf.len() {
            assert_eq!(unpack_node(&buf[..cut]), Err(Corrupt), "cut at {cut}");
        }
        let mut x = 0xF0_u64;
        for _ in 0..500 {
            x = shm_sim::rng::mix64(x);
            let mut bad = buf.clone();
            bad[x as usize % buf.len()] ^= (x >> 32) as u8 | 1;
            let _ = unpack_node(&bad);
        }
        // A length past the bytes left, a pid past u32, trailing bytes.
        for bad in [
            vec![0, 0, 9, 1],
            vec![0, 0, 1, 0xff, 0xff, 0xff, 0xff, 0x7f],
            [&buf[..], &[0]].concat(),
        ] {
            assert_eq!(unpack_node(&bad), Err(Corrupt), "{bad:?}");
        }
    }
}
