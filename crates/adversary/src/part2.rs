//! Part 2 of the lower-bound proof (§6.3): the wild goose chase.
//!
//! After Part 1 leaves a population of *stable* waiters (spinning on local
//! memory, mutually invisible), a signaler `s` is chosen whose memory
//! module was never written (Lemma 6.13 guarantees one exists for large N)
//! and directed to call `Signal()`. The chase rule: whenever `s` is about
//! to *see* or *touch* a stable waiter, erase that waiter just before the
//! step — certified by survivor-projection replay — and let `s` take the
//! step. A correct algorithm's signaler must reach every stable waiter, so
//! it is forced into RMR after RMR; an algorithm whose signaler stays cheap
//! necessarily leaves some hidden waiter unsignaled, which the **post-poll
//! check** converts into a visible Specification 4.1 violation.
//!
//! Two complementary runs:
//!
//! * **chase** — erase-on-sight, measuring how many RMRs the erasures force
//!   and whether any erasure is blocked by certification (FAA algorithms);
//! * **discovery** — no erasures, measuring the signaler's natural cost
//!   against the full stable population (Ω(#stable) for correct broadcast-
//!   style algorithms) and checking the spec with post-signal polls.
//!
//! A refused erasure leaves the execution unchanged, so a chase that erased
//! no one stepped exactly the execution discovery would step: its run
//! doubles as the discovery ([`run_lower_bound`]).
//!
//! The headline quantity is `amortized = total RMRs / participants` of the
//! final history; Theorem 6.2 says it exceeds any constant for read/write/
//! CAS/LLSC algorithms once N is large enough.

use crate::part1::{Part1Config, Part1Outcome, Part1Runner};
use crate::report::PhaseTimings;
use shm_sim::{AuditDivergence, AuditReport, Call, ProcId, Simulator, TransitionPeek};
use signaling::{check_polling, kinds, peak_concurrent_waiters, waiter_processes, SpecViolation};
use std::collections::BTreeSet;
use std::time::Instant;

/// Configuration for the full lower-bound run (Part 1 + Part 2).
#[derive(Clone, Copy, Debug)]
pub struct LowerBoundConfig {
    /// Part-1 knobs.
    pub part1: Part1Config,
    /// Force a specific signaler instead of the lemma's "unwritten module"
    /// choice (ablation: running the chase with the algorithm's *intended*
    /// fixed signaler shows why the fixed-signaler variant escapes the
    /// bound).
    pub force_signaler: Option<ProcId>,
    /// Cap on chase iterations (each erasure re-certifies; the cap is a
    /// guard far above N).
    pub max_chase_steps: u64,
}

impl LowerBoundConfig {
    /// Defaults for `n` processes.
    #[must_use]
    pub fn for_n(n: usize) -> Self {
        LowerBoundConfig {
            part1: Part1Config {
                n,
                ..Part1Config::default()
            },
            force_signaler: None,
            max_chase_steps: 10_000_000,
        }
    }
}

/// Result of one phase of Part 2 (chase or discovery). A discovery taken
/// over from an erasure-free chase is the chase's run with `blocked` 0.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SignalRun {
    /// The signaler used.
    pub signaler: ProcId,
    /// RMRs the signaler incurred completing `Signal()`.
    pub signaler_rmrs: u64,
    /// Stable waiters erased during the run (chase only).
    pub erased: BTreeSet<ProcId>,
    /// Erasure attempts rejected by projection certification.
    pub blocked: usize,
    /// Stable waiters remaining after the run.
    pub survivors: usize,
    /// Whether the injected `Signal()` completed within the step budget.
    /// Busy-waiting algorithms (e.g. the Corollary 6.14 read/write
    /// transformation) can leave a solo signaler blocked behind parked
    /// waiters — the "bounded exit breaks" phenomenon the paper notes.
    pub signal_completed: bool,
    /// Post-signal polls skipped because the waiter is parked mid-call (its
    /// pending poll cannot complete solo) or exceeded the step budget.
    pub post_polls_skipped: usize,
    /// Safety verdict after every survivor performed one more `Poll()`.
    pub post_spec: Result<(), SpecViolation>,
    /// Distinct processes that acted as waiters in the final history
    /// ([`waiter_processes`]).
    pub distinct_waiters: usize,
    /// Peak number of concurrently open `Poll()`/`Wait()` calls anywhere in
    /// the final history ([`peak_concurrent_waiters`]).
    pub peak_waiters: usize,
    /// Whether the history exceeds the algorithm's participation contract
    /// ([`Part1Runner::contract_waiters`], checked against
    /// `distinct_waiters`). The adversary drives up to n−1 waiters against
    /// every algorithm, so limited-contract algorithms (e.g. single-waiter,
    /// contract ≤ 1) legitimately fail Specification 4.1 here — such
    /// failures say nothing about the algorithm and are excluded from
    /// [`LowerBoundReport::found_violation`].
    pub out_of_contract: bool,
    /// Total RMRs in the final history.
    pub total_rmrs: u64,
    /// Processes that took at least one step in the final history.
    pub participants: usize,
    /// Differential audit of the final phase history against the naive
    /// reference executor (present iff [`Part1Config::audit`]).
    pub audit: Option<AuditReport>,
}

impl SignalRun {
    /// Total RMRs divided by participants — the amortized complexity the
    /// theorem bounds from below.
    #[must_use]
    pub fn amortized_rmrs(&self) -> f64 {
        if self.participants == 0 {
            0.0
        } else {
            self.total_rmrs as f64 / self.participants as f64
        }
    }
}

/// Combined report of the executable lower bound.
#[derive(Clone, Debug)]
pub struct LowerBoundReport {
    /// Algorithm under attack.
    pub algorithm: String,
    /// Number of processes.
    pub n: usize,
    /// Part-1 outcome.
    pub part1: Part1Outcome,
    /// Erase-on-sight run (absent when Part 1 never stabilized).
    pub chase: Option<SignalRun>,
    /// No-erasure run (absent when Part 1 never stabilized). When the chase
    /// erased no one it stepped this very execution, so this is the chase's
    /// run with `blocked` set to 0 and discovery is not run again.
    pub discovery: Option<SignalRun>,
    /// Wall-clock breakdown of the run's phases.
    pub timings: PhaseTimings,
}

impl LowerBoundReport {
    /// The single "how bad is it" number for tables: the worst amortized
    /// RMR count the adversary achieved across its runs, or the Part-1
    /// amortized cost for never-stabilizing algorithms.
    #[must_use]
    pub fn worst_amortized(&self) -> f64 {
        let p1 = if self.part1.participants == 0 {
            0.0
        } else {
            self.part1.total_rmrs as f64 / self.part1.participants as f64
        };
        [
            Some(p1),
            self.chase.as_ref().map(SignalRun::amortized_rmrs),
            self.discovery.as_ref().map(SignalRun::amortized_rmrs),
        ]
        .into_iter()
        .flatten()
        .fold(0.0, f64::max)
    }

    /// Whether the adversary exposed a genuine safety violation — a
    /// Specification 4.1 failure in a history *within* the algorithm's
    /// participation contract. Failures in out-of-contract histories (see
    /// [`SignalRun::out_of_contract`]) are excluded: they reflect the
    /// adversary exceeding the algorithm's premise, not an algorithm bug.
    #[must_use]
    pub fn found_violation(&self) -> bool {
        let in_contract_failure = |r: &SignalRun| r.post_spec.is_err() && !r.out_of_contract;
        self.chase.as_ref().is_some_and(in_contract_failure)
            || self.discovery.as_ref().is_some_and(in_contract_failure)
    }

    /// Whether some Part-2 history exceeded the algorithm's participation
    /// contract (always `false` for algorithms with an unbounded contract).
    #[must_use]
    pub fn out_of_contract(&self) -> bool {
        self.chase.as_ref().is_some_and(|r| r.out_of_contract)
            || self.discovery.as_ref().is_some_and(|r| r.out_of_contract)
    }

    /// Combined differential-audit verdict: `None` when no audits ran
    /// (auditing disabled, [`Part1Config::audit`]), otherwise whether every
    /// audited phase was divergence-free.
    #[must_use]
    pub fn audit_clean(&self) -> Option<bool> {
        let audits: Vec<&AuditReport> = [
            self.part1.audit.as_ref(),
            self.chase.as_ref().and_then(|r| r.audit.as_ref()),
            self.discovery.as_ref().and_then(|r| r.audit.as_ref()),
        ]
        .into_iter()
        .flatten()
        .collect();
        if audits.is_empty() {
            None
        } else {
            Some(audits.iter().all(|a| a.is_clean()))
        }
    }

    /// The first audit divergence across all audited phases, if any.
    #[must_use]
    pub fn first_divergence(&self) -> Option<&AuditDivergence> {
        [
            self.part1.audit.as_ref(),
            self.chase.as_ref().and_then(|r| r.audit.as_ref()),
            self.discovery.as_ref().and_then(|r| r.audit.as_ref()),
        ]
        .into_iter()
        .flatten()
        .find_map(|a| a.divergence.as_ref())
    }
}

/// Picks the signaler: a process that took no steps and whose memory module
/// was never written (the lemma's choice), falling back to any non-finished
/// process with an unwritten module. A module's writers are read off the
/// Part-1 history ([`shm_sim::History::cell_writers`]).
#[must_use]
pub fn choose_signaler(runner: &Part1Runner, n: usize) -> Option<ProcId> {
    let mem = runner.sim.memory();
    // Only writes by *other* processes disqualify a module: the lemma needs
    // "p has never written memory local to s", and a process writing its
    // own module is harmless.
    let written_modules: BTreeSet<ProcId> = runner
        .sim
        .history()
        .cell_writers()
        .into_iter()
        .filter_map(|(a, w)| mem.owner(a).filter(|&o| w.all.iter().any(|&q| q != o)))
        .collect();
    let candidates: Vec<ProcId> = (0..n as u32).map(ProcId).collect();
    // A process with a call in progress cannot start Signal(): only
    // between-calls (or never-scheduled) processes qualify. Parked waiters
    // are therefore never signalers — if *every* process is parked, the
    // algorithm's Poll() does not terminate in fair histories, putting it
    // outside the §4 problem class, and there is no chase to run.
    let eligible = |p: &ProcId| !runner.sim.has_pending_call(*p) && !written_modules.contains(p);
    candidates
        .iter()
        .copied()
        .find(|p| runner.sim.proc_stats(*p).steps == 0 && eligible(p))
        .or_else(|| {
            candidates
                .iter()
                .copied()
                .find(|p| !runner.finished.contains(p) && eligible(p))
        })
}

/// Rebuilds the pre-chase state: replay the base schedule without `erased`,
/// inject the signal call into `s`, and re-execute `s`'s committed steps.
fn rebuild(
    runner: &Part1Runner,
    base: &[ProcId],
    erased: &BTreeSet<ProcId>,
    s: ProcId,
    committed_signal_steps: u64,
) -> Simulator {
    let mut sim = Simulator::replay(&runner.spec, base, erased);
    sim.inject_call(
        s,
        Call::new(kinds::SIGNAL, "Signal", runner.instance.signal_call(s)),
    );
    for _ in 0..committed_signal_steps {
        let _ = sim.step(s);
    }
    sim
}

/// Runs one signal phase of `s`'s `Signal()` against `runner`'s Part-1
/// execution, with at most `max_steps` signaler steps. `erase_on_sight`
/// distinguishes the chase (erase every stable waiter `s` is about to see
/// or touch) from discovery.
#[must_use]
pub fn run_signal_phase(
    runner: &Part1Runner,
    s: ProcId,
    erase_on_sight: bool,
    max_steps: u64,
) -> SignalRun {
    let scope: &'static str = if erase_on_sight { "chase" } else { "discovery" };
    let _span = shm_obs::Span::enter(if erase_on_sight {
        "adv.chase"
    } else {
        "adv.discovery"
    });
    let incremental = runner.config().incremental;
    let base: Vec<ProcId> = runner.sim.schedule().to_vec();
    let mut erased = runner.erased.clone();
    let mut blocked_set: BTreeSet<ProcId> = BTreeSet::new();
    let mut committed: u64 = 0;
    let mut sim = if incremental {
        // Incremental path: continue the Part-1 simulator directly (with its
        // checkpoints); the injection is recorded, so
        // `erase_certified_in_place` keeps it for surviving targets.
        let mut sim = runner.sim.clone();
        sim.inject_call(
            s,
            Call::new(kinds::SIGNAL, "Signal", runner.instance.signal_call(s)),
        );
        sim
    } else {
        rebuild(runner, &base, &erased, s, committed)
    };
    let pre_rmrs = sim.proc_stats(s).rmrs;
    let mut guard = 0u64;
    let mut signal_completed = false;
    loop {
        guard += 1;
        if guard >= max_steps {
            break; // e.g. a solo signaler blocked behind a parked lock holder
        }
        match sim.peek_transition(s) {
            TransitionPeek::NotRunnable | TransitionPeek::WillTerminate => break,
            TransitionPeek::Return { kind, .. } => {
                let _ = sim.step(s);
                committed += 1;
                if kind == kinds::SIGNAL {
                    signal_completed = true;
                    break;
                }
            }
            TransitionPeek::Access(op) => {
                if erase_on_sight {
                    let (sees, touches) = sim.op_observation(s, &op);
                    let target = [sees, touches].into_iter().flatten().find(|q| {
                        *q != s
                            && runner.stable.contains(q)
                            && !erased.contains(q)
                            && !blocked_set.contains(q)
                    });
                    if let Some(q) = target {
                        // Tentative erase of q, certified in the rebuilt
                        // world (including s's committed signal prefix).
                        let mut new_erased = erased.clone();
                        new_erased.insert(q);
                        if incremental {
                            // Shares the checkpointed prefix before q's first
                            // step; survivors certified online against the
                            // recorded log, applied in place (no history
                            // copy).
                            if sim.erase_certified_in_place(&runner.spec, &new_erased) {
                                erased = new_erased;
                                // Re-evaluate the same pending access in
                                // the new world before stepping.
                                continue;
                            }
                            blocked_set.insert(q);
                        } else {
                            let candidate = rebuild(runner, &base, &new_erased, s, committed);
                            let consistent = (0..runner.spec.n() as u32).map(ProcId).all(|p| {
                                new_erased.contains(&p)
                                    || candidate.history().projection(p)
                                        == sim.history().projection(p)
                            });
                            if consistent {
                                erased = new_erased;
                                sim = candidate;
                                // Re-evaluate the same pending access in the
                                // new world before stepping.
                                continue;
                            }
                            blocked_set.insert(q);
                        }
                    }
                }
                let _ = sim.step(s);
                committed += 1;
            }
        }
    }
    let signaler_rmrs = sim.proc_stats(s).rmrs - pre_rmrs;

    // Post-poll check: every surviving stable waiter performs one more
    // complete Poll(); with Signal() completed, any `false` is a
    // Specification 4.1 violation.
    let survivors: Vec<ProcId> = runner
        .stable
        .iter()
        .copied()
        .filter(|q| !erased.contains(q) && *q != s)
        .collect();
    let mut post_polls_skipped = 0usize;
    for &q in &survivors {
        if runner.parked.contains(&q) {
            // Parked mid-call: its pending poll cannot complete solo.
            post_polls_skipped += 1;
            continue;
        }
        let start = sim.proc_stats(q).calls_completed;
        let mut poll_guard = 0u64;
        while sim.proc_stats(q).calls_completed == start && poll_guard < 1_000_000 {
            let _ = sim.step(q);
            poll_guard += 1;
        }
        if sim.proc_stats(q).calls_completed == start {
            post_polls_skipped += 1;
        }
    }
    let post_spec = check_polling(sim.history());
    let distinct_waiters = waiter_processes(sim.history()).len();
    let peak_waiters = peak_concurrent_waiters(sim.history());
    let out_of_contract = runner
        .contract_waiters
        .is_some_and(|limit| distinct_waiters > limit);
    let participants = (0..runner.spec.n() as u32)
        .map(ProcId)
        .filter(|&p| sim.proc_stats(p).steps > 0)
        .count();
    if shm_obs::enabled() {
        // Final-history RMR attribution for this phase: per-process cells
        // (sim.rmr/sim.local/sim.inval) plus the signaler-vs-waiters split.
        // `part2.rmr.signaler` is the signaler's own erase-chase delta (the
        // quantity the lower bound argues about, = `chase_signaler_rmrs` in
        // the bench rows); `part2.rmr.waiters` is everything the surviving
        // history charges to other processes.
        sim.obs_flush(scope);
        shm_obs::counter!("part2.rmr.signaler", signaler_rmrs, scope: scope, pid: s.0);
        shm_obs::counter!(
            "part2.rmr.waiters",
            sim.totals().rmrs - sim.proc_stats(s).rmrs,
            scope: scope
        );
        let newly_erased = erased.difference(&runner.erased).count() as u64;
        shm_obs::counter!("part2.erased", newly_erased, scope: scope);
        shm_obs::counter!("part2.blocked", blocked_set.len() as u64, scope: scope);
    }
    let audit = runner.config().audit.then(|| sim.audit(&runner.spec));
    SignalRun {
        signaler: s,
        signaler_rmrs,
        erased: erased.difference(&runner.erased).copied().collect(),
        blocked: blocked_set.len(),
        survivors: survivors.len(),
        signal_completed,
        post_polls_skipped,
        post_spec,
        distinct_waiters,
        peak_waiters,
        out_of_contract,
        total_rmrs: sim.totals().rmrs,
        participants,
        audit,
    }
}

/// Runs the complete executable lower bound (Part 1 + both Part-2 phases)
/// against `algo` with `cfg.part1.n` processes in the DSM model.
///
/// Discovery runs only when the chase erased someone. A refused erasure
/// leaves the simulator unchanged, so an erasure-free chase stepped the
/// same deterministic execution from the same Part-1 clone as discovery
/// would, and its [`SignalRun`], with `blocked` set to 0, is the discovery.
/// The `discovery`-scoped counters and the `adv.discovery` span then do not
/// appear, and `discovery_ms` stays 0.
pub fn run_lower_bound(
    algo: &dyn signaling::SignalingAlgorithm,
    cfg: LowerBoundConfig,
) -> LowerBoundReport {
    let mut runner = Part1Runner::new(algo, cfg.part1);
    let part1 = runner.run();
    let n = cfg.part1.n;
    let mut timings = PhaseTimings {
        record_ms: part1.record_ms,
        rounds_ms: part1.rounds_ms,
        ..PhaseTimings::default()
    };
    let (chase, discovery) = if part1.stabilized && !part1.stable.is_empty() {
        let s = cfg.force_signaler.or_else(|| choose_signaler(&runner, n));
        match s {
            Some(s) => {
                let t = Instant::now();
                let chase = run_signal_phase(&runner, s, true, cfg.max_chase_steps);
                timings.chase_ms = t.elapsed().as_secs_f64() * 1e3;
                let discovery = if chase.erased.is_empty() {
                    SignalRun {
                        blocked: 0,
                        ..chase.clone()
                    }
                } else {
                    let t = Instant::now();
                    let discovery = run_signal_phase(&runner, s, false, cfg.max_chase_steps);
                    timings.discovery_ms = t.elapsed().as_secs_f64() * 1e3;
                    discovery
                };
                (Some(chase), Some(discovery))
            }
            None => (None, None),
        }
    } else {
        (None, None)
    };
    LowerBoundReport {
        algorithm: algo.name().to_owned(),
        n,
        part1,
        chase,
        discovery,
        timings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use signaling::algorithms::{Broadcast, CcFlag, FixedSignaler, QueueSignaling, SingleWaiter};

    #[test]
    fn broadcast_chase_forces_n_rmrs_on_the_signaler() {
        let report = run_lower_bound(&Broadcast, LowerBoundConfig::for_n(32));
        assert!(report.part1.stabilized);
        let chase = report.chase.expect("stabilized");
        // Signal() writes all 31 other flags: each is an RMR, and each
        // stable waiter is erased just before its flag is touched.
        assert_eq!(chase.signaler_rmrs, 31);
        assert!(chase.erased.len() >= 30, "erased {}", chase.erased.len());
        assert_eq!(chase.post_spec, Ok(()));
        // Amortized cost explodes: ~31 RMRs over a handful of participants.
        assert!(
            chase.amortized_rmrs() > 5.0,
            "amortized {}",
            chase.amortized_rmrs()
        );
    }

    #[test]
    fn broadcast_discovery_is_safe_but_expensive() {
        let report = run_lower_bound(&Broadcast, LowerBoundConfig::for_n(16));
        let disc = report.discovery.expect("stabilized");
        assert_eq!(disc.signaler_rmrs, 15);
        assert_eq!(disc.post_spec, Ok(()), "broadcast is correct");
        assert_eq!(disc.survivors, 15);
    }

    #[test]
    fn cc_flag_never_stabilizes_so_waiters_pay() {
        let report = run_lower_bound(&CcFlag, LowerBoundConfig::for_n(16));
        assert!(!report.part1.stabilized);
        assert!(report.chase.is_none());
        // Amortized cost from Part 1 alone grows with the round budget.
        assert!(
            report.worst_amortized() >= 4.0,
            "got {}",
            report.worst_amortized()
        );
    }

    #[test]
    fn single_waiter_misuse_is_out_of_contract_not_a_violation() {
        // SingleWaiter's contract is ≤ 1 concurrent waiter; the adversary
        // drives n−1 of them, so the discovery run's Specification 4.1
        // failure (Signal() completes, hidden waiters still poll false) must
        // be classified as out-of-contract — the algorithm is correct within
        // its §7 premise — and not reported as a violation.
        let report = run_lower_bound(&SingleWaiter, LowerBoundConfig::for_n(64));
        assert!(report.part1.stabilized);
        let disc = report.discovery.as_ref().expect("stabilized");
        assert!(
            disc.post_spec.is_err(),
            "the spec failure itself is still observed: {disc:?}"
        );
        assert!(
            disc.distinct_waiters > 1,
            "waiters: {}",
            disc.distinct_waiters
        );
        assert!(report.out_of_contract());
        assert!(!report.found_violation(), "report: {report:?}");
    }

    #[test]
    fn unbounded_contract_algorithms_are_never_out_of_contract() {
        let report = run_lower_bound(&Broadcast, LowerBoundConfig::for_n(16));
        assert!(!report.out_of_contract());
        let disc = report.discovery.expect("stabilized");
        assert!(
            disc.distinct_waiters > 1,
            "the adversary drives many waiters: {}",
            disc.distinct_waiters
        );
    }

    #[test]
    fn audited_lower_bound_runs_clean() {
        for (algo, name) in [
            (
                &Broadcast as &dyn signaling::SignalingAlgorithm,
                "broadcast",
            ),
            (&SingleWaiter, "single-waiter"),
        ] {
            let mut cfg = LowerBoundConfig::for_n(24);
            cfg.part1.audit = true;
            let report = run_lower_bound(algo, cfg);
            assert_eq!(
                report.audit_clean(),
                Some(true),
                "{name}: {:?}",
                report.first_divergence()
            );
            assert!(report.part1.audit.is_some());
        }
    }

    #[test]
    fn queue_faa_defeats_the_adversary() {
        let report = run_lower_bound(&QueueSignaling, LowerBoundConfig::for_n(64));
        assert!(report.part1.stabilized);
        let chase = report.chase.expect("stabilized");
        // The chase cannot hide registered waiters: erasing them would
        // change other processes' FAA tickets, so certification blocks it.
        assert!(chase.blocked > 0, "FAA must block erasures");
        assert_eq!(chase.post_spec, Ok(()));
        let disc = report.discovery.expect("stabilized");
        assert_eq!(disc.post_spec, Ok(()));
        // Amortized cost stays modest: the signaler pays O(registered), and
        // every registered waiter is a participant.
        assert!(
            disc.amortized_rmrs() <= 8.0,
            "amortized {}",
            disc.amortized_rmrs()
        );
    }

    #[test]
    fn fixed_signaler_with_its_intended_host_is_cheap() {
        // Ablation: force the chase to use the algorithm's fixed signaler
        // p0. Registration flags live in p0's module, so the scan is local
        // and the chase achieves nothing — the restricted variant escapes
        // the bound (§7).
        let n = 32;
        let mut cfg = LowerBoundConfig::for_n(n);
        cfg.force_signaler = Some(ProcId(0));
        let report = run_lower_bound(
            &FixedSignaler {
                signaler: ProcId(0),
            },
            cfg,
        );
        assert!(report.part1.stabilized);
        let disc = report.discovery.expect("stabilized");
        assert_eq!(disc.post_spec, Ok(()));
        // Signaler cost: 1 (global S) + one write per surviving registered
        // waiter — O(participants), not O(N): amortized O(1).
        assert!(
            disc.amortized_rmrs() <= 4.0,
            "amortized {}",
            disc.amortized_rmrs()
        );
    }

    #[test]
    fn chase_erasures_leave_no_trace_of_erased_waiters() {
        let report = run_lower_bound(&Broadcast, LowerBoundConfig::for_n(16));
        let chase = report.chase.expect("stabilized");
        assert!(!chase.erased.is_empty());
        // Erased + survivors partition the stable set (minus the signaler,
        // which here is itself drawn from the stable population).
        let s_in_stable = usize::from(report.part1.stable.contains(&chase.signaler));
        assert_eq!(
            chase.erased.len() + chase.survivors,
            report.part1.stable.len() - s_in_stable,
            "every stable waiter is either erased or a survivor"
        );
    }

    #[test]
    fn lower_bound_run_is_deterministic() {
        let run = || {
            let r = run_lower_bound(&Broadcast, LowerBoundConfig::for_n(24));
            let c = r.chase.unwrap();
            (c.signaler_rmrs, c.erased, c.total_rmrs, c.participants)
        };
        assert_eq!(run(), run());
    }
}
