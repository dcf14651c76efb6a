//! # shm-explore: a bounded schedule-space model checker for the simulator
//!
//! Every other crate in this workspace measures *constructed* schedules: the
//! §6 adversary's erase/roll-forward rounds, the §7 scenario harness, the
//! experiment binaries' scripted interleavings. This crate turns the
//! deterministic step-machine substrate into a verification tool: it drives
//! [`shm_sim::Simulator`] over **all** interleavings of a scenario's enabled
//! steps (up to configurable bounds) and checks pluggable oracles —
//! Specification 4.1, mutual exclusion, user invariants — on every path,
//! while simultaneously searching for the schedule that maximizes an
//! objective such as the signaler's RMR count. At small n this exhaustively
//! certifies the shipped algorithms and cross-validates that the wild-goose-
//! chase adversary's constructed cost is actually reachable-extremal.
//!
//! ## How the state space stays small
//!
//! * **Sleep-set partial-order reduction** ([`Bounds::dpor`]): two enabled
//!   steps commute iff they touch disjoint locations or are both reads, and
//!   neither pair is a call boundary (invoke/return ordering is what the
//!   spec checkers judge, so boundary steps never commute with each other).
//!   Redundant orders of commuting steps are pruned without loss: the
//!   oracles and the RMR objective are invariant across a Mazurkiewicz trace
//!   (disjoint-location and read-read reorders leave every DSM charge and CC
//!   validity transition unchanged).
//! * **State deduplication** ([`Bounds::dedup`]): states are keyed by
//!   [`shm_sim::Simulator::state_fingerprint`] — the per-process projection
//!   fingerprints of PR 1 plus memory, cost-model, and stats state — so
//!   different interleavings of the same per-process behaviors converge.
//!   Equal fingerprints certify identical *state* futures, but an oracle
//!   verdict can also depend on the cross-process invoke/return **order** of
//!   the path (e.g. `FalseAfterSignalCompleted` condemns a pending poll only
//!   if it was invoked after a signal completed — invisible in the state).
//!   Two guards make dedup sound for such history properties: every
//!   generated state is judged on its own path *before* the dedup check, and
//!   the key also carries each oracle's order-witness word
//!   ([`Oracle::dedup_context`]), so histories merge only when every past
//!   order fact that can sway a future verdict agrees. Merging is exact up
//!   to hash collision; debug builds (and this crate's
//!   `exact-fingerprints` feature) keep the full
//!   [`shm_sim::Simulator::state_words`] encoding and assert every hit.
//! * **Preemption bounding + depth limits** ([`Bounds`]): beyond the
//!   exhaustive regime, exploration degrades gracefully into a CHESS-style
//!   bounded search. Bounded runs are *under-approximations*: a clean
//!   verdict means no violation within the bound, not absence of one.
//! * **Disk-backed memory bounding** ([`Bounds::mem_budget`], [`store`],
//!   [`spill`]): the visited set and the breadth-first frontier live in a
//!   bounded hot tier backed by sorted, delta-compressed runs (and packed
//!   replayable nodes) spilled to disk — deeper exhaustive verdicts become
//!   a disk-budget question instead of a RAM wall, and spilling never
//!   changes a count, verdict, or schedule.
//!
//! Frontiers fan out across [`shm_pool`] workers with submission-index
//! merging, so verdicts, explored-state counts, and the argmax schedule are
//! byte-deterministic at any thread count. Every violation (and the
//! RMR-extremal schedule) serializes as a JSON [`Counterexample`], shrinks
//! by greedy step-deletion against the replay engine, and re-validates
//! through [`shm_sim::Simulator::audit`].
//!
//! Beyond the exhaustive regime, [`check_random`] samples seeded PCT
//! priority schedules (or plain random walks) at adversary scale — n = 8,
//! 16, 32 and up — judging each run with the same oracles and feeding any
//! violation through the identical shrink/audit pipeline (see [`pct`]).

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod bounds;
pub mod check;
pub mod counterexample;
pub mod explorer;
pub mod oracle;
pub mod pct;
pub mod spill;
pub mod store;

pub use bounds::Bounds;
pub use check::{check, CheckOutcome, ScenarioSpec};
pub use counterexample::{replay, shrink_schedule, Counterexample};
pub use explorer::{explore, ExploreReport, FoundViolation, ObjectiveResult};
pub use oracle::{
    BlockingSpecOracle, FnOracle, Objective, Oracle, PollingSpecOracle, ProcRmrs, TotalRmrs,
};
pub use pct::{check_random, schedule_seed, RandomBounds, RandomOutcome, RandomReport};
pub use store::VisitedStore;
