//! Schedulers: strategies for picking which process steps next.
//!
//! The paper's histories allow arbitrary interleavings ("process steps can
//! be scheduled arbitrarily", §2). Experiments use fair schedulers; the
//! lower-bound adversary constructs schedules by hand instead.

use crate::ids::ProcId;
use crate::rng::XorShift64;
use crate::sim::{Simulator, StepReport};

/// A scheduling strategy.
pub trait Scheduler {
    /// Chooses the next process to step, or `None` to stop (e.g. everyone
    /// has terminated).
    fn next(&mut self, sim: &Simulator) -> Option<ProcId>;
}

/// Fair round-robin over runnable processes.
#[derive(Clone, Debug, Default)]
pub struct RoundRobin {
    cursor: usize,
}

impl RoundRobin {
    /// Creates a round-robin scheduler starting at process 0.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for RoundRobin {
    fn next(&mut self, sim: &Simulator) -> Option<ProcId> {
        let n = sim.n();
        for offset in 0..n {
            let i = (self.cursor + offset) % n;
            let pid = ProcId(i as u32);
            if sim.is_runnable(pid) {
                self.cursor = (i + 1) % n;
                return Some(pid);
            }
        }
        None
    }
}

/// Uniformly random choice among runnable processes, from a seeded RNG.
///
/// Deterministic for a fixed seed, so experiments are reproducible.
#[derive(Clone, Debug)]
pub struct SeededRandom {
    rng: XorShift64,
    /// Reused runnable-set buffer; cleared and refilled each step.
    buf: Vec<ProcId>,
}

impl SeededRandom {
    /// Creates a random scheduler with the given seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SeededRandom {
            rng: XorShift64::new(seed),
            buf: Vec::new(),
        }
    }
}

impl Scheduler for SeededRandom {
    fn next(&mut self, sim: &Simulator) -> Option<ProcId> {
        sim.runnable_into(&mut self.buf);
        if self.buf.is_empty() {
            None
        } else {
            Some(*self.rng.choose(&self.buf))
        }
    }
}

/// Probabilistic concurrency testing (PCT): a priority scheduler whose
/// random choices are all made up front, giving the classic
/// `1 / (n · k^(d−1))` detection guarantee for bugs of depth `d` within a
/// `k`-step budget.
///
/// Construction draws, from a seeded RNG:
/// - a random permutation of `n` distinct base priorities `d … d+n−1`, and
/// - `d − 1` random *priority-change points*: step indices in `[0, k)`.
///
/// Every step schedules the highest-priority runnable process. When the
/// step counter hits the `i`-th change point (0-based, in sorted order),
/// the process that would have been scheduled first has its priority
/// dropped to `d − 2 − i`, below every base priority and below every earlier
/// drop, and the choice is re-evaluated.
///
/// Priorities are positional: `order` lists the processes by descending
/// priority (the base order, then dropped processes in drop order), and
/// every process before the cursor `head` has already been found not
/// runnable. A pick advances `head` past processes that are not runnable; a
/// drop moves `order[head]` to the back. A pick is O(1) amortized.
///
/// Caller contract: between two calls to [`Scheduler::next`], no process
/// that was not runnable becomes runnable again. Stepping the simulator
/// never revives a process, so [`run`], or any loop that only steps the
/// returned process, meets it; [`Simulator::inject_call`] on a terminated
/// process breaks it. Debug builds check it on every call.
///
/// Deterministic for a fixed `(seed, n, d, k)`, so a PCT run is replayable
/// from its parameters alone.
#[derive(Clone, Debug)]
pub struct PctScheduler {
    /// Every process, by descending priority.
    order: Vec<ProcId>,
    /// Index into `order`: every process before it is not runnable.
    head: usize,
    /// Sorted step indices at which the next scheduled process is deprioritized.
    change_at: Vec<u64>,
    /// Change points already consumed.
    next_change: usize,
    /// Steps scheduled so far.
    steps: u64,
}

impl PctScheduler {
    /// Creates a PCT scheduler for `n` processes with bug depth `d` over a
    /// `k`-step budget, drawing all randomness from `seed`.
    ///
    /// # Panics
    /// If `d == 0` (depth counts at least the final ordering constraint).
    #[must_use]
    pub fn new(seed: u64, n: usize, d: usize, k: u64) -> Self {
        assert!(d > 0, "PCT depth must be at least 1");
        let mut rng = XorShift64::new(seed);
        // Base priorities d .. d+n-1 (all above every drop priority d-2-i),
        // dealt by a Fisher-Yates shuffle that starts with process p at d+p.
        // Each is kept as its process's position in `order`: priority
        // d+n-1-j sits at position j, so process p starts at n-1-p.
        let mut at: Vec<usize> = (0..n).rev().collect();
        for i in (1..n).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            at.swap(i, j);
        }
        let mut order = vec![ProcId(0); n];
        for (p, &j) in at.iter().enumerate() {
            order[j] = ProcId(p as u32);
        }
        let mut change_at: Vec<u64> = (0..d - 1).map(|_| rng.below(k.max(1))).collect();
        change_at.sort_unstable();
        PctScheduler {
            order,
            head: 0,
            change_at,
            next_change: 0,
            steps: 0,
        }
    }
}

impl Scheduler for PctScheduler {
    fn next(&mut self, sim: &Simulator) -> Option<ProcId> {
        debug_assert!(
            self.order[..self.head].iter().all(|&p| !sim.is_runnable(p)),
            "PctScheduler: a process behind the cursor is runnable again"
        );
        loop {
            while !sim.is_runnable(*self.order.get(self.head)?) {
                self.head += 1;
            }
            // Consume every change point due at this step: the process that
            // would run drops below everyone, and the choice is re-made.
            if self.next_change < self.change_at.len()
                && self.steps >= self.change_at[self.next_change]
            {
                self.order[self.head..].rotate_left(1);
                self.next_change += 1;
            } else {
                self.steps += 1;
                return Some(self.order[self.head]);
            }
        }
    }
}

/// Runs only the given process (the paper's "solo" executions).
#[derive(Clone, Copy, Debug)]
pub struct Solo(pub ProcId);

impl Scheduler for Solo {
    fn next(&mut self, sim: &Simulator) -> Option<ProcId> {
        sim.is_runnable(self.0).then_some(self.0)
    }
}

/// Replays a fixed sequence of process IDs, skipping non-runnable entries.
#[derive(Clone, Debug)]
pub struct Scripted {
    order: Vec<ProcId>,
    next: usize,
}

impl Scripted {
    /// Creates a scripted scheduler from an explicit step order.
    #[must_use]
    pub fn new(order: Vec<ProcId>) -> Self {
        Scripted { order, next: 0 }
    }
}

impl Scheduler for Scripted {
    fn next(&mut self, sim: &Simulator) -> Option<ProcId> {
        while self.next < self.order.len() {
            let pid = self.order[self.next];
            self.next += 1;
            if sim.is_runnable(pid) {
                return Some(pid);
            }
        }
        None
    }
}

/// Replays an explicit pid sequence exactly: each entry is stepped once, and
/// entries naming a non-runnable process are dropped silently (they record
/// nothing, matching [`Scripted`]'s skip semantics). Returns the number of
/// steps actually taken.
///
/// This is the schedule-space explorer's replay hook: a serialized
/// counterexample schedule — possibly with entries deleted by shrinking —
/// re-executes through here, and the steps that survive are exactly the
/// recorded [`Simulator::schedule`] of the replayed run.
pub fn run_exact(sim: &mut Simulator, order: &[ProcId]) -> u64 {
    let mut taken = 0;
    for &pid in order {
        match sim.step(pid) {
            StepReport::NotRunnable => {}
            _ => taken += 1,
        }
    }
    taken
}

/// Drives `sim` under `sched` until the scheduler stops or `max_steps` steps
/// have been taken. Returns the number of steps taken.
pub fn run(sim: &mut Simulator, sched: &mut dyn Scheduler, max_steps: u64) -> u64 {
    let mut taken = 0;
    while taken < max_steps {
        let Some(pid) = sched.next(sim) else { break };
        match sim.step(pid) {
            StepReport::NotRunnable => {}
            _ => taken += 1,
        }
    }
    taken
}

/// Runs until every process has terminated (or `max_steps` is exhausted).
/// Returns `true` if all processes finished.
pub fn run_to_completion(sim: &mut Simulator, sched: &mut dyn Scheduler, max_steps: u64) -> bool {
    run(sim, sched, max_steps);
    sim.all_done()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Call, CallKind, OpSequence};
    use crate::mem::MemLayout;
    use crate::model::CostModel;
    use crate::op::Op;
    use crate::sim::SimSpec;
    use crate::source::{Script, ScriptedCall};
    use std::sync::Arc;

    fn spec_with_counter_writers(n: usize) -> SimSpec {
        let mut layout = MemLayout::new();
        let c = layout.alloc_global(0);
        let sources = (0..n)
            .map(|_| {
                let call = ScriptedCall::new(
                    CallKind(0),
                    "inc",
                    Arc::new(move || Box::new(OpSequence::new(vec![Op::Faa(c, 1)]))),
                );
                Box::new(Script::new(vec![call])) as Box<dyn crate::source::CallSource>
            })
            .collect();
        SimSpec {
            layout,
            sources,
            model: CostModel::Dsm,
        }
    }

    #[test]
    fn round_robin_completes_everyone() {
        let spec = spec_with_counter_writers(5);
        let mut sim = crate::sim::Simulator::new(&spec);
        assert!(run_to_completion(&mut sim, &mut RoundRobin::new(), 10_000));
        assert_eq!(sim.memory().peek(crate::ids::Addr(0)), 5);
    }

    #[test]
    fn seeded_random_is_deterministic() {
        let spec = spec_with_counter_writers(4);
        let run_once = |seed| {
            let mut sim = crate::sim::Simulator::new(&spec);
            run_to_completion(&mut sim, &mut SeededRandom::new(seed), 10_000);
            sim.schedule().to_vec()
        };
        assert_eq!(run_once(7), run_once(7));
        // Two seeds almost surely give different schedules for 4 processes.
        assert_ne!(run_once(7), run_once(8));
    }

    #[test]
    fn solo_runs_only_one_process() {
        let spec = spec_with_counter_writers(3);
        let mut sim = crate::sim::Simulator::new(&spec);
        run(&mut sim, &mut Solo(ProcId(1)), 10_000);
        assert_eq!(sim.memory().peek(crate::ids::Addr(0)), 1);
        assert!(sim.history().participants().iter().all(|&p| p == ProcId(1)));
    }

    #[test]
    fn scripted_follows_order_and_skips_dead() {
        let spec = spec_with_counter_writers(2);
        let mut sim = crate::sim::Simulator::new(&spec);
        let order = vec![ProcId(0); 10]
            .into_iter()
            .chain(vec![ProcId(1); 10])
            .collect();
        let mut sched = Scripted::new(order);
        run(&mut sim, &mut sched, 10_000);
        assert!(sim.all_done());
    }

    #[test]
    fn pct_is_deterministic_and_complete() {
        let spec = spec_with_counter_writers(4);
        let run_once = |seed| {
            let mut sim = crate::sim::Simulator::new(&spec);
            let mut sched = PctScheduler::new(seed, 4, 3, 10_000);
            run_to_completion(&mut sim, &mut sched, 10_000);
            (
                sim.schedule().to_vec(),
                sim.memory().peek(crate::ids::Addr(0)),
            )
        };
        let (sched_a, sum_a) = run_once(11);
        assert_eq!((sched_a.clone(), sum_a), run_once(11));
        assert_eq!(sum_a, 4, "priority scheduling still completes everyone");
        // Different seeds almost surely permute priorities differently.
        assert_ne!(sched_a, run_once(12).0);
    }

    #[test]
    fn pct_priorities_are_distinct_and_drops_sink() {
        let sched = PctScheduler::new(99, 8, 4, 500);
        let mut seen = sched.order.clone();
        seen.sort_unstable();
        assert_eq!(
            seen,
            (0..8).map(ProcId).collect::<Vec<_>>(),
            "order is a permutation of the processes"
        );
        assert_eq!(sched.change_at.len(), 3, "d-1 change points");
        assert!(sched.change_at.windows(2).all(|w| w[0] <= w[1]), "sorted");

        // k = 1 puts all three change points at step 0: the first pick drops
        // the three highest base priorities, each below the one before.
        let spec = spec_with_counter_writers(8);
        let sim = crate::sim::Simulator::new(&spec);
        let mut sched = PctScheduler::new(99, 8, 4, 1);
        let base = sched.order.clone();
        assert_eq!(sched.next(&sim), Some(base[3]));
        let sunk: Vec<ProcId> = base[3..].iter().chain(&base[..3]).copied().collect();
        assert_eq!(sched.order, sunk);
    }

    /// The PCT scheduler before the cursor, kept verbatim as the reference:
    /// explicit priorities and an O(n) max over the runnable processes.
    struct ScanPct {
        prio: Vec<u64>,
        change_at: Vec<u64>,
        next_change: usize,
        steps: u64,
    }

    impl ScanPct {
        fn new(seed: u64, n: usize, d: usize, k: u64) -> Self {
            assert!(d > 0, "PCT depth must be at least 1");
            let mut rng = XorShift64::new(seed);
            let mut prio: Vec<u64> = (0..n as u64).map(|i| d as u64 + i).collect();
            for i in (1..n).rev() {
                let j = rng.below(i as u64 + 1) as usize;
                prio.swap(i, j);
            }
            let mut change_at: Vec<u64> = (0..d - 1).map(|_| rng.below(k.max(1))).collect();
            change_at.sort_unstable();
            ScanPct {
                prio,
                change_at,
                next_change: 0,
                steps: 0,
            }
        }

        fn best(&self, sim: &Simulator) -> Option<ProcId> {
            (0..self.prio.len())
                .map(|i| ProcId(i as u32))
                .filter(|&p| sim.is_runnable(p))
                .max_by_key(|p| self.prio[p.index()])
        }
    }

    impl Scheduler for ScanPct {
        fn next(&mut self, sim: &Simulator) -> Option<ProcId> {
            let mut pid = self.best(sim)?;
            while self.next_change < self.change_at.len()
                && self.steps >= self.change_at[self.next_change]
            {
                self.prio[pid.index()] = (self.change_at.len() - self.next_change) as u64 - 1;
                self.next_change += 1;
                pid = self.best(sim)?;
            }
            self.steps += 1;
            Some(pid)
        }
    }

    /// `n` processes that each make 1 to 3 calls of 1 to 4 operations on a
    /// shared counter and a cell of their own, the counts drawn from `rng`,
    /// so that processes terminate at different steps.
    fn spec_with_ragged_calls(n: usize, rng: &mut XorShift64) -> SimSpec {
        let mut layout = MemLayout::new();
        let c = layout.alloc_global(0);
        let sources = (0..n)
            .map(|_| {
                let own = layout.alloc_global(0);
                let calls = (0..rng.range_usize(1, 4))
                    .map(|_| {
                        let ops: Vec<Op> = (0..rng.range_usize(1, 5))
                            .map(|i| {
                                if i % 2 == 0 {
                                    Op::Faa(c, 1)
                                } else {
                                    Op::Write(own, 1)
                                }
                            })
                            .collect();
                        ScriptedCall::new(
                            CallKind(0),
                            "ragged",
                            Arc::new(move || Box::new(OpSequence::new(ops.clone()))),
                        )
                    })
                    .collect();
                Box::new(Script::new(calls)) as Box<dyn crate::source::CallSource>
            })
            .collect();
        SimSpec {
            layout,
            sources,
            model: CostModel::Dsm,
        }
    }

    #[test]
    fn pct_cursor_matches_priority_scan() {
        // k = 1 puts every change point at step 0; n = 1 with d >= 3 drops
        // the same process more than once.
        const BUDGETS: [u64; 6] = [1, 2, 3, 10, 50, 20_000];
        // Debug builds also run the O(n) contract check on every pick.
        let cases = if cfg!(debug_assertions) { 500 } else { 3000 };
        let mut rng = XorShift64::new(0x5C4_7C75);
        for case in 0..cases {
            let n = rng.range_usize(1, 131);
            let d = rng.range_usize(1, 6);
            let k = *rng.choose(&BUDGETS);
            let seed = rng.next_u64();
            let spec = spec_with_ragged_calls(n, &mut rng);
            let drive = |sched: &mut dyn Scheduler| {
                let mut sim = crate::sim::Simulator::new(&spec);
                assert!(
                    run_to_completion(&mut sim, sched, u64::MAX),
                    "case {case}: n = {n}, d = {d}, k = {k} did not complete"
                );
                sim.schedule().to_vec()
            };
            assert_eq!(
                drive(&mut PctScheduler::new(seed, n, d, k)),
                drive(&mut ScanPct::new(seed, n, d, k)),
                "case {case}: n = {n}, d = {d}, k = {k}, seed = {seed:#x}"
            );
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "behind the cursor")]
    fn pct_debug_check_catches_a_revived_process() {
        // Outside the caller contract: after a full run the cursor has
        // passed every process, and an injected call revives one of them.
        let spec = spec_with_counter_writers(2);
        let mut sim = crate::sim::Simulator::new(&spec);
        let mut sched = PctScheduler::new(1, 2, 1, 100);
        assert!(run_to_completion(&mut sim, &mut sched, 100));
        let op = OpSequence::new(vec![Op::Faa(crate::ids::Addr(0), 1)]);
        sim.inject_call(ProcId(0), Call::new(CallKind(0), "inc", Box::new(op)));
        let _ = sched.next(&sim);
    }

    #[test]
    fn pct_depth_one_never_preempts_by_priority() {
        // d = 1 means no change points: the highest-priority runnable
        // process runs solo until it blocks or finishes.
        let spec = spec_with_counter_writers(3);
        let mut sim = crate::sim::Simulator::new(&spec);
        let mut sched = PctScheduler::new(5, 3, 1, 1000);
        run_to_completion(&mut sim, &mut sched, 1000);
        let schedule = sim.schedule().to_vec();
        // Each process's steps form one contiguous run.
        let mut seen_done: Vec<ProcId> = Vec::new();
        for w in schedule.windows(2) {
            if w[0] != w[1] {
                assert!(
                    !seen_done.contains(&w[1]),
                    "process resumed after preemption"
                );
                seen_done.push(w[0]);
            }
        }
    }

    #[test]
    fn run_respects_step_budget() {
        let spec = spec_with_counter_writers(5);
        let mut sim = crate::sim::Simulator::new(&spec);
        let taken = run(&mut sim, &mut RoundRobin::new(), 3);
        assert_eq!(taken, 3);
        assert!(!sim.all_done());
    }
}
