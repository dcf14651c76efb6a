//! `shm-scenario`: the shared scenario schema of the cc-dsm workspace.
//!
//! One crate, no dependencies, four pieces:
//!
//! - [`manifest`] — the versioned `cc-dsm/manifest/v1` job manifest: an
//!   experiment kind (E1–E10) plus its scenario parameters, with strict
//!   validation (structured `cc-dsm/error/v1` errors) and a canonical
//!   serialization whose content hash is the job ID.
//! - [`rows`] — the experiment row schemas, lifted out of `bench` so the
//!   `cc-dsm` front end and the `shm-serve` job server share one definition.
//! - [`canon`] — the canonical (timing-free, byte-deterministic) JSON
//!   serializers for those rows.
//! - [`json`] / [`hash`] / [`cli`] — the dependency-free JSON parser, the
//!   FNV-1a-128 content hash, and the scenario-flag parsing that turns a
//!   `cc-dsm run` command line into a manifest.
//!
//! `bench` re-exports `rows` (so existing `bench::E9Row` paths still work),
//! and `rmr-adversary` re-exports [`PhaseTimings`]. The determinism
//! contract — canonical output identical across thread counts — is what
//! lets the job server promise that a served manifest equals the
//! corresponding `cc-dsm run --canon` output exactly, and what makes the job
//! log replayable.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod canon;
pub mod cli;
pub mod hash;
pub mod json;
pub mod manifest;
pub mod rows;

pub use hash::content_hash;
pub use manifest::{ExperimentKind, Manifest, ManifestError, ALL_KINDS, MANIFEST_SCHEMA};
pub use rows::*;
