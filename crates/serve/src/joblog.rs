//! The append-only record/replay job log (`cc-dsm/joblog/v1`).
//!
//! Every external input the server acts on lands here as one JSON line:
//! accepted manifests (`submitted`, with the full canonical manifest
//! embedded), their outcomes (`completed` with the result's content hash,
//! `failed` with the panic message), and invalid submissions (`rejected`
//! with the structured error). That discipline is what makes the server
//! replayable: `cc-dsm serve replay` re-executes every completed job from the
//! log alone and asserts the recomputed result bytes hash to the recorded
//! `result_sha` — and it doubles as restart-safe idempotency, because a
//! restarting server rebuilds its completed-jobs map by scanning the log.
//!
//! `wall_ms` on `completed` events is wall-clock telemetry, NOT part of the
//! determinism contract; replay compares `result_sha`, `result_bytes`, and
//! `rows` only.

use shm_scenario::json::{self, Value};
use shm_scenario::{Manifest, ManifestError};
use std::io::Write as _;
use std::path::Path;

/// Schema tag every v1 job-log line carries.
pub const JOBLOG_SCHEMA: &str = "cc-dsm/joblog/v1";

/// One job-log event.
#[derive(Clone, Debug)]
pub enum Event {
    /// A new manifest was accepted and queued.
    Submitted {
        /// Content hash of the canonical manifest (the job ID).
        job_id: String,
        /// Where it came from (`"spool"`, `"socket"`, `"cli"`).
        source: String,
        /// The normalized manifest, embedded in full so replay needs
        /// nothing but the log (boxed: it dwarfs the other variants).
        manifest: Box<Manifest>,
    },
    /// A job ran to completion and its result was written.
    Completed {
        /// The job ID.
        job_id: String,
        /// Content hash of the canonical result bytes.
        result_sha: String,
        /// Result length in bytes.
        result_bytes: u64,
        /// Number of result rows.
        rows: u64,
        /// Wall-clock milliseconds (telemetry only — not replayed).
        wall_ms: f64,
    },
    /// A job panicked; the server survived and recorded why.
    Failed {
        /// The job ID.
        job_id: String,
        /// The panic payload, as text.
        error: String,
    },
    /// A submission failed validation and was never assigned a job ID.
    Rejected {
        /// Where it came from.
        source: String,
        /// The structured validation error.
        error: ManifestError,
    },
}

impl Event {
    /// Renders the event as one JSONL line (no trailing newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        match self {
            Event::Submitted {
                job_id,
                source,
                manifest,
            } => format!(
                "{{\"schema\":\"{JOBLOG_SCHEMA}\",\"event\":\"submitted\",\"job_id\":\"{job_id}\",\"source\":\"{}\",\"manifest\":{}}}",
                json::escape(source),
                manifest.canonical_json(),
            ),
            Event::Completed {
                job_id,
                result_sha,
                result_bytes,
                rows,
                wall_ms,
            } => format!(
                "{{\"schema\":\"{JOBLOG_SCHEMA}\",\"event\":\"completed\",\"job_id\":\"{job_id}\",\"result_sha\":\"{result_sha}\",\"result_bytes\":{result_bytes},\"rows\":{rows},\"wall_ms\":{wall_ms:.3}}}",
            ),
            Event::Failed { job_id, error } => format!(
                "{{\"schema\":\"{JOBLOG_SCHEMA}\",\"event\":\"failed\",\"job_id\":\"{job_id}\",\"error\":\"{}\"}}",
                json::escape(error),
            ),
            Event::Rejected { source, error } => format!(
                "{{\"schema\":\"{JOBLOG_SCHEMA}\",\"event\":\"rejected\",\"source\":\"{}\",\"error\":{}}}",
                json::escape(source),
                error.to_json(),
            ),
        }
    }

    /// Parses one job-log line. `Err` carries a description; a malformed
    /// line is fatal to [`read_all`] and `recover` (an append-only log
    /// this process also writes must parse) unless it is a torn final line.
    pub fn parse_line(line: &str) -> Result<Event, String> {
        let v = json::parse(line).map_err(|e| format!("bad joblog line: {e}"))?;
        if v.get("schema").and_then(Value::as_str) != Some(JOBLOG_SCHEMA) {
            return Err(format!("bad joblog schema in line {line:?}"));
        }
        let field = |k: &str| -> Result<String, String> {
            v.get(k)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("joblog line missing \"{k}\": {line:?}"))
        };
        let num = |k: &str| -> Result<u64, String> {
            v.get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("joblog line missing \"{k}\": {line:?}"))
        };
        match field("event")?.as_str() {
            "submitted" => {
                let manifest = v
                    .get("manifest")
                    .ok_or_else(|| format!("submitted line missing manifest: {line:?}"))?;
                let manifest = Manifest::from_value(manifest)
                    .map_err(|e| format!("submitted line has invalid manifest: {e}"))?;
                Ok(Event::Submitted {
                    job_id: field("job_id")?,
                    source: field("source")?,
                    manifest: Box::new(manifest),
                })
            }
            "completed" => Ok(Event::Completed {
                job_id: field("job_id")?,
                result_sha: field("result_sha")?,
                result_bytes: num("result_bytes")?,
                rows: num("rows")?,
                wall_ms: v
                    .get("wall_ms")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("completed line missing wall_ms: {line:?}"))?,
            }),
            "failed" => Ok(Event::Failed {
                job_id: field("job_id")?,
                error: field("error")?,
            }),
            "rejected" => {
                let e = v
                    .get("error")
                    .ok_or_else(|| format!("rejected line missing error: {line:?}"))?;
                let code = e.get("code").and_then(Value::as_str).unwrap_or("unknown");
                // Codes are a closed set of static strings; map back to the
                // static str (or a generic bucket for forward compatibility).
                const CODES: [&str; 12] = [
                    "bad_json",
                    "bad_schema",
                    "bad_type",
                    "unknown_kind",
                    "unknown_field",
                    "empty_sizes",
                    "duplicate_size",
                    "size_out_of_range",
                    "field_out_of_range",
                    "unsupported_field",
                    "conflicting_fields",
                    "bad_enum",
                ];
                let code = CODES
                    .iter()
                    .find(|&&c| c == code)
                    .copied()
                    .unwrap_or("unknown");
                Ok(Event::Rejected {
                    source: field("source")?,
                    error: ManifestError {
                        code,
                        field: e
                            .get("field")
                            .and_then(Value::as_str)
                            .unwrap_or_default()
                            .to_owned(),
                        message: e
                            .get("message")
                            .and_then(Value::as_str)
                            .unwrap_or_default()
                            .to_owned(),
                    },
                })
            }
            other => Err(format!("unknown joblog event {other:?}")),
        }
    }
}

/// Appends one event to the log file (creating it if needed) and flushes.
pub fn append(path: &Path, event: &Event) -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{}", event.to_line())?;
    f.flush()
}

/// Parses every line of a job log. Empty/missing file parses to no events.
///
/// A crash mid-[`append`] can leave the last line without its newline. If
/// that line still parses it is a whole record and is kept; if not, it is
/// a torn tail, dropped with a one-line notice on stderr. A malformed line
/// that ends in a newline is an error: a torn append cannot leave one.
pub fn read_all(path: &Path) -> Result<Vec<Event>, String> {
    Ok(scan(path)?.0)
}

/// [`read_all`] for a server about to append to the log: a torn tail is
/// also cut from the file, and a whole but unterminated last record gets
/// its newline, so the next append starts a line of its own.
pub(crate) fn recover(path: &Path) -> Result<Vec<Event>, String> {
    let (events, end) = scan(path)?;
    let repaired = match end {
        End::Clean => Ok(()),
        End::Unterminated => std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(b"\n")),
        End::Torn { at } => std::fs::OpenOptions::new()
            .write(true)
            .open(path)
            .and_then(|f| f.set_len(at)),
    };
    repaired.map_err(|e| format!("repair {}: {e}", path.display()))?;
    Ok(events)
}

/// How a job log ends.
enum End {
    /// Empty, or every line ends in a newline.
    Clean,
    /// The last line is a whole record without its newline.
    Unterminated,
    /// The last line is a torn record starting at byte `at`.
    Torn { at: u64 },
}

/// Parses a job log and reports how it ends (see [`read_all`]).
fn scan(path: &Path) -> Result<(Vec<Event>, End), String> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("read {}: {e}", path.display())),
    };
    let mut events = Vec::new();
    let mut start = 0;
    while let Some(k) = bytes[start..].iter().position(|&b| b == b'\n') {
        let line = std::str::from_utf8(&bytes[start..start + k])
            .map_err(|e| format!("bad joblog line at byte {start}: {e}"))?;
        if !line.trim().is_empty() {
            events.push(Event::parse_line(line)?);
        }
        start += k + 1;
    }
    let tail = &bytes[start..];
    let end = if tail.is_empty() {
        End::Clean
    } else if let Some(e) = std::str::from_utf8(tail)
        .ok()
        .and_then(|l| Event::parse_line(l).ok())
    {
        events.push(e);
        End::Unterminated
    } else {
        eprintln!(
            "joblog {}: dropped a torn {}-byte final line",
            path.display(),
            tail.len()
        );
        End::Torn { at: start as u64 }
    };
    Ok((events, end))
}

#[cfg(test)]
mod tests {
    use super::*;
    use shm_scenario::ExperimentKind;

    #[test]
    fn events_round_trip_through_lines() {
        let manifest = Manifest::new(ExperimentKind::E9).normalized().unwrap();
        let events = [
            Event::Submitted {
                job_id: manifest.job_id(),
                source: "socket".into(),
                manifest: Box::new(manifest.clone()),
            },
            Event::Completed {
                job_id: manifest.job_id(),
                result_sha: "ab".repeat(16),
                result_bytes: 123,
                rows: 4,
                wall_ms: 1.5,
            },
            Event::Failed {
                job_id: manifest.job_id(),
                error: "panicked: \"boom\"".into(),
            },
            Event::Rejected {
                source: "spool".into(),
                error: ManifestError {
                    code: "duplicate_size",
                    field: "sizes".into(),
                    message: "size 32 appears more than once".into(),
                },
            },
        ];
        for e in &events {
            let line = e.to_line();
            let back = Event::parse_line(&line).unwrap();
            assert_eq!(back.to_line(), line, "round trip differs for {line}");
        }
    }
}
