//! # bench: experiment harness regenerating every claim of the paper
//!
//! The paper is a theory paper — its "evaluation" is a set of proved bounds
//! rather than measured tables. Each experiment here renders one claim as a
//! measured table on the simulator (the experiment ↔ claim map lives in
//! `DESIGN.md`; measured-vs-paper commentary in `EXPERIMENTS.md`):
//!
//! | ID | Claim | Function |
//! |----|-------|----------|
//! | E1 | §5: CC upper bound — O(1) RMRs/process, wait-free, reads/writes | [`e1_cc_upper`] |
//! | E2 | §6: DSM lower bound — amortized RMRs exceed any constant | [`e2_dsm_lower`] |
//! | E3 | §7: variant upper bounds | [`e3_variants`] |
//! | E4 | §6/§7 boundary: FAA escapes the bound, CAS does not | [`e4_primitives`] |
//! | E5 | §8: RMRs vs interconnect messages | [`e5_messages`] |
//! | E6 | §3/§8 context: mutual exclusion RMRs agree across models | [`e6_mutex`] |
//! | E7 | §7: Ω(W) signaler cost for fixed waiters | [`e7_fixed_w`] |
//! | E8 | Corollary 6.14: CAS (native or transformed to reads/writes) stays bounded by the adversary; FAA escapes | [`e8_transformation`] |
//! | E9 | Spec 4.1 certified over *every* schedule at small n; explored RMR maximum dominates the §6 chase cost | [`e9_explore`] |
//!
//! Every function returns structured rows (so the integration tests assert
//! on them); [`run::run_rows`] dispatches a manifest to them and
//! [`run::Rows`] prints the tables `cc-dsm run <kind>` shows. The adversary
//! experiments have `*_with(sizes, audit)` variants that additionally run
//! the differential RMR audit ([`shm_sim::Simulator::audit`]) over every
//! phase; `cc-dsm run e2|e8` exposes this as `--audit` and exits nonzero on
//! any divergence.
//!
//! Sweeps fan their rows out over the in-tree work-stealing pool
//! (`shm-pool`) and merge results by submission index, so
//! tables and JSON are byte-identical at every thread count. Thread count:
//! `--threads N` on the command line, the `CC_DSM_THREADS` environment
//! variable, or available parallelism, in that precedence; `1` is the exact
//! serial path. [`run::Rows::canon`] renders rows as canonical
//! (timing-free) JSON for byte-equality checks across thread counts.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod cli;
pub mod experiments;
pub mod history;
pub mod run;
pub mod table;

/// The shared scenario schema (manifests, row types, canonical JSON).
pub use shm_scenario::{ExperimentKind, Manifest, ManifestError};

pub use experiments::*;
