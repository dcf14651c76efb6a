//! `shm-serve`: simulation-as-a-service over the cc-dsm experiments.
//!
//! A long-running batch job server that ingests versioned scenario
//! manifests (`cc-dsm/manifest/v1`, defined in `shm-scenario`) from a
//! watched spool directory and line-delimited TCP/Unix sockets, validates
//! and content-hashes them into job IDs (resubmission is idempotent),
//! answers cached and rejected submissions at once, executes fresh jobs
//! sequentially on the in-process pool at each manifest's thread count,
//! and streams the canonical row JSON back — byte-identical
//! to the corresponding `cc-dsm run --canon` output, at any thread
//! count. Every accepted manifest and every outcome is appended to a
//! record/replay job log (`cc-dsm/joblog/v1`); [`replay::replay`]
//! re-executes the log and asserts the recomputed results hash byte-for-
//! byte to the recorded completions.
//!
//! Module map: [`server`] (ingestion, admission, execution), [`joblog`]
//! (the event log), [`replay`](mod@replay) (byte-identity verification). The
//! `cc-dsm serve` subcommands front all three (`run` / `replay` /
//! `submit`).

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod joblog;
pub mod replay;
pub mod server;

pub use replay::{replay, ReplayReport, REPLAY_SCHEMA};
pub use server::{read_reply, submit_stream, Reply, ServeConfig, ServeStats, Server, SERVE_SCHEMA};

/// Rows in a canonical result body (shared by the server's completion
/// events and replay's row check).
#[must_use]
pub fn server_row_count(body: &[u8]) -> u64 {
    let text = String::from_utf8_lossy(body);
    text.lines()
        .filter(|l| {
            let t = l.trim();
            !t.is_empty() && t != "[" && t != "]"
        })
        .count() as u64
}
