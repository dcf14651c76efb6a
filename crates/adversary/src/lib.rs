//! # rmr-adversary: the §6 lower bound, executable
//!
//! Theorem 6.2 of Golab (PODC 2011): no deterministic terminating algorithm
//! solves the signaling problem (polling semantics, one signaler, many
//! waiters with unknown IDs) in the DSM model with O(1) *amortized* RMRs
//! using reads, writes, CAS or LL/SC. The proof is constructive — an
//! adversary builds a bad history — and this crate *runs that adversary*
//! against concrete algorithms:
//!
//! * **Part 1** ([`part1`]): starting from N waiters polling, rounds of
//!   Kim–Anderson-style **erasing** and **rolling forward** keep processes
//!   mutually invisible until the surviving waiters *stabilize* (busy-wait
//!   on local memory only).
//! * **Part 2** ([`part2`]): a signaler whose memory module nobody wrote is
//!   sent on the **wild goose chase**: every time its `Signal()` is about to
//!   see or touch a surviving waiter, that waiter is erased and the call
//!   restarted — forcing one RMR per stable waiter, or a safety violation.
//!
//! Mechanized soundness: erasing is implemented as *replay of the recorded
//! schedule without the erased process's steps*, and every erasure is
//! certified by checking that all survivors' history **projections** are
//! unchanged (Lemma 6.7's conclusion, checked rather than assumed). When an
//! algorithm uses Fetch-And-Add, erasures fail this certification — FAA
//! leaks information without any process "seeing" another — and the
//! adversary records the defeat instead of cheating: that is exactly how §7's
//! queue-based algorithm escapes the bound, reproduced in experiment E4.
//!
//! The simplified Ω(W) bound for the fixed-waiters variant (§7) is in
//! [`fixed_w`].

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod fixed_w;
pub mod graph;
pub mod part1;
pub mod part2;
pub mod report;
pub mod transform;

pub use fixed_w::{fixed_waiters_signaler_cost, FixedWaitersCost};
pub use graph::ConflictGraph;
pub use part1::{Part1Config, Part1Outcome, Part1Runner};
pub use part2::{
    choose_signaler, run_lower_bound, run_signal_phase, LowerBoundConfig, LowerBoundReport,
    SignalRun,
};
pub use report::{PhaseTimings, RoundReport};
pub use transform::{ReadWriteTransformed, RwEmulation};
