//! # shm-sim: a deterministic shared-memory multiprocessor simulator
//!
//! This crate is the machine-model substrate for an executable reproduction
//! of W. Golab, *A Complexity Separation Between the Cache-Coherent and
//! Distributed Shared Memory Models* (PODC 2011). It provides:
//!
//! * **Shared memory** with the paper's atomic primitives — reads, writes,
//!   CAS, LL/SC (§2) — plus Fetch-And-Add, Fetch-And-Store and Test-And-Set
//!   (used in §7 and by the mutual-exclusion substrate). See [`mem`], [`op`].
//! * **Two cost models** pricing the *same* execution: the DSM rule (an
//!   access is an RMR iff the cell lives in another processor's memory
//!   module) and the CC rule (an access is an RMR iff it misses the ideal
//!   cache), with configurable write-through/write-back protocols, LFCU
//!   semantics, and per-interconnect message counting. See [`model`].
//! * **Step machines**: algorithms are deterministic, cloneable state
//!   machines advanced one atomic access at a time, which makes the
//!   lower-bound adversary's *erasing* and *rolling forward* executable as
//!   schedule surgery plus replay. See [`machine`], [`source`].
//! * **Histories** with the queries of §6: participants, *sees*, *touches*,
//!   and regularity per Definition 6.6. See [`event`].
//! * **The simulator** itself, with schedule recording, deterministic
//!   replay-with-erasure, memory-free peeking at a process's next operation,
//!   and call injection. See [`sim`], [`sched`].
//!
//! ## Quick example
//!
//! The paper's §5 upper bound in one screen: a single shared Boolean solves
//! the signaling problem with O(1) RMRs per process in the CC model.
//!
//! ```
//! use shm_sim::*;
//! use std::sync::Arc;
//!
//! let mut layout = MemLayout::new();
//! let flag = layout.alloc_global(0);
//!
//! // Signal(): write true. Poll(): read the flag.
//! let signaler = Script::new(vec![ScriptedCall::new(
//!     CallKind(0), "Signal",
//!     Arc::new(move || Box::new(OpSequence::new(vec![Op::Write(flag, 1)])) as Box<dyn ProcedureCall>),
//! )]);
//! let waiter = RepeatUntil::new(
//!     ScriptedCall::new(CallKind(1), "Poll",
//!         Arc::new(move || Box::new(OpSequence::new(vec![Op::Read(flag)])) as Box<dyn ProcedureCall>)),
//!     1,
//! );
//!
//! let spec = SimSpec {
//!     layout,
//!     sources: vec![Box::new(signaler), Box::new(waiter)],
//!     model: CostModel::cc_default(),
//! };
//! let mut sim = Simulator::new(&spec);
//! let mut sched = RoundRobin::new();
//! assert!(run_to_completion(&mut sim, &mut sched, 100_000));
//! // The waiter busy-waited but cached the flag: O(1) RMRs.
//! assert!(sim.proc_stats(ProcId(1)).rmrs <= 2);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod audit;
pub mod event;
pub mod history_label;
pub mod ids;
pub mod machine;
pub mod mem;
pub mod model;
pub mod op;
pub mod rng;
pub mod sched;
pub mod sim;
pub mod source;
pub mod trace;

pub use audit::{AuditDivergence, AuditReport};
pub use event::{
    fingerprint_words, CallRecord, CellWriters, Event, History, ProjectedEvent, RegularityViolation,
};
pub use history_label::Labels;
pub use ids::{Addr, AddrRange, ProcId, Word, NIL};
pub use machine::{Call, CallKind, OpSequence, ProcedureCall, ReturnConst, Step};
pub use mem::{MemLayout, Memory};
pub use model::{model_tag, AccessCost, CcConfig, CostModel, CostState, Interconnect, Protocol};
pub use op::{Applied, Op};
pub use rng::XorShift64;
pub use sched::{
    run, run_exact, run_to_completion, PctScheduler, RoundRobin, Scheduler, Scripted, SeededRandom,
    Solo,
};
pub use sim::{
    Checkpoint, ProcStats, SimSpec, Simulator, StateHasher, StateSum, Status, StepReport,
    StepWords, Totals, TransitionPeek,
};
pub use source::{CallFactory, CallSource, Chain, Idle, RepeatUntil, Script, ScriptedCall};
pub use trace::{render, render_with, RenderOptions};
