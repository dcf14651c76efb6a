//! Canonical JSON serialization of experiment rows.
//!
//! These serializers emit only the *deterministic* fields of each row — no
//! wall-clock timings, no thread counts — with a fixed key order and fixed
//! float formatting, so the output is byte-identical across thread counts
//! and across machines. The determinism tests and the `--canon` flags of
//! `cc-dsm` compare these byte-for-byte between `--threads 1` and
//! multi-threaded runs, and the `shm-serve` job server streams exactly these
//! bytes back to clients (so a served job equals the corresponding
//! `cc-dsm run --canon` output byte-for-byte).

use crate::rows::{E10Row, E1Row, E2Row, E3Row, E4Row, E5Row, E6Row, E7Row, E8Row, E9Row};

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn opt_u64(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_owned(), |x| x.to_string())
}

fn join_rows(rows: Vec<String>) -> String {
    let mut out = String::from("[\n");
    let n = rows.len();
    for (i, r) in rows.into_iter().enumerate() {
        out.push_str("  ");
        out.push_str(&r);
        out.push_str(if i + 1 < n { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

/// Canonical JSON for E1 rows (stable key order, deterministic fields only).
#[must_use]
pub fn e1_json(rows: &[E1Row]) -> String {
    join_rows(
        rows.iter()
            .map(|r| {
                format!(
                    concat!(
                        "{{\"model\": \"{}\", \"n_waiters\": {}, \"polls\": {}, ",
                        "\"max_rmrs_per_proc\": {}, \"total_rmrs\": {}}}"
                    ),
                    json_escape(r.model),
                    r.n_waiters,
                    r.polls,
                    r.max_rmrs_per_proc,
                    r.total_rmrs,
                )
            })
            .collect(),
    )
}

/// Canonical JSON for E2 rows: the deterministic adversary outcome fields,
/// without the per-phase timings (those are printed in the E2 table only).
#[must_use]
pub fn e2_json(rows: &[E2Row]) -> String {
    join_rows(
        rows.iter()
            .map(|r| {
                let audit_clean = r
                    .audit_clean
                    .map_or_else(|| "null".to_string(), |c| c.to_string());
                // The divergence is already a JSON object; embed it verbatim.
                let audit_divergence = r.audit_divergence.clone().unwrap_or_else(|| "null".into());
                format!(
                    concat!(
                        "{{\"algorithm\": \"{}\", \"n\": {}, \"stabilized\": {}, ",
                        "\"stable\": {}, \"chase_signaler_rmrs\": {}, \"chase_erased\": {}, ",
                        "\"blocked\": {}, \"amortized\": {:.4}, \"violation\": {}, ",
                        "\"out_of_contract\": {}, \"audit_clean\": {}, \"audit_divergence\": {}}}"
                    ),
                    json_escape(&r.algorithm),
                    r.n,
                    r.stabilized,
                    r.stable,
                    r.chase_signaler_rmrs,
                    r.chase_erased,
                    r.blocked,
                    r.amortized,
                    r.violation,
                    r.out_of_contract,
                    audit_clean,
                    audit_divergence,
                )
            })
            .collect(),
    )
}

/// Canonical JSON for E3 rows (deterministic fields only; new with the
/// scenario crate so the job server can serve E3 manifests).
#[must_use]
pub fn e3_json(rows: &[E3Row]) -> String {
    join_rows(
        rows.iter()
            .map(|r| {
                format!(
                    concat!(
                        "{{\"algorithm\": \"{}\", \"model\": \"{}\", ",
                        "\"max_waiter_rmrs\": {}, \"signaler_rmrs\": {}, ",
                        "\"amortized\": {:.4}, \"paper_bound\": \"{}\"}}"
                    ),
                    json_escape(&r.algorithm),
                    json_escape(r.model),
                    r.max_waiter_rmrs,
                    r.signaler_rmrs,
                    r.amortized,
                    json_escape(r.paper_bound),
                )
            })
            .collect(),
    )
}

/// Canonical JSON for E4 rows (deterministic fields only).
#[must_use]
pub fn e4_json(rows: &[E4Row]) -> String {
    join_rows(
        rows.iter()
            .map(|r| {
                format!(
                    concat!(
                        "{{\"n\": {}, \"broadcast_amortized\": {:.4}, ",
                        "\"queue_amortized\": {:.4}, \"queue_blocked\": {}}}"
                    ),
                    r.n, r.broadcast_amortized, r.queue_amortized, r.queue_blocked,
                )
            })
            .collect(),
    )
}

/// Canonical JSON for E5 rows. The `seed` key records the randomized lock
/// scheduler's seed on the mutex rows and is `null` on the scripted
/// (seedless) signaling rows.
#[must_use]
pub fn e5_json(rows: &[E5Row]) -> String {
    join_rows(
        rows.iter()
            .map(|r| {
                format!(
                    concat!(
                        "{{\"workload\": \"{}\", \"interconnect\": \"{}\", \"seed\": {}, ",
                        "\"rmrs\": {}, \"messages\": {}, \"invalidations\": {}, ",
                        "\"messages_per_rmr\": {:.4}}}"
                    ),
                    json_escape(r.workload),
                    json_escape(r.interconnect),
                    opt_u64(r.seed),
                    r.rmrs,
                    r.messages,
                    r.invalidations,
                    r.messages_per_rmr,
                )
            })
            .collect(),
    )
}

/// Canonical JSON for E6 rows, including the workload scheduler's seed.
#[must_use]
pub fn e6_json(rows: &[E6Row]) -> String {
    join_rows(
        rows.iter()
            .map(|r| {
                format!(
                    concat!(
                        "{{\"lock\": \"{}\", \"model\": \"{}\", \"n\": {}, \"seed\": {}, ",
                        "\"rmrs_per_passage\": {:.4}}}"
                    ),
                    json_escape(&r.lock),
                    json_escape(r.model),
                    r.n,
                    r.seed,
                    r.rmrs_per_passage,
                )
            })
            .collect(),
    )
}

/// Canonical JSON for E7 rows (deterministic fields only).
#[must_use]
pub fn e7_json(rows: &[E7Row]) -> String {
    join_rows(
        rows.iter()
            .map(|r| {
                format!(
                    concat!(
                        "{{\"algorithm\": \"{}\", \"w\": {}, ",
                        "\"signaler_rmrs\": {}, \"amortized\": {:.4}}}"
                    ),
                    json_escape(&r.algorithm),
                    r.w,
                    r.signaler_rmrs,
                    r.amortized,
                )
            })
            .collect(),
    )
}

/// Canonical JSON for E8 rows (deterministic fields only).
#[must_use]
pub fn e8_json(rows: &[E8Row]) -> String {
    join_rows(
        rows.iter()
            .map(|r| {
                let audit_clean = r
                    .audit_clean
                    .map_or_else(|| "null".to_string(), |c| c.to_string());
                format!(
                    concat!(
                        "{{\"variant\": \"{}\", \"n\": {}, \"stabilized\": {}, ",
                        "\"stable\": {}, \"amortized\": {:.4}, \"blocked\": {}, ",
                        "\"signal_stuck\": {}, \"audit_clean\": {}}}"
                    ),
                    json_escape(&r.variant),
                    r.n,
                    r.stabilized,
                    r.stable,
                    r.amortized,
                    r.blocked,
                    r.signal_stuck,
                    audit_clean,
                )
            })
            .collect(),
    )
}

/// Canonical JSON for E10 rows: the PCT sampling parameters and verdicts,
/// with the shrunk counterexample (already canonical JSON) embedded
/// verbatim. Everything here is a pure function of the row's scenario and
/// `pct_seed`, so the output is byte-identical across thread counts.
#[must_use]
pub fn e10_json(rows: &[E10Row]) -> String {
    join_rows(
        rows.iter()
            .map(|r| {
                let counterexample = r.counterexample.clone().unwrap_or_else(|| "null".into());
                format!(
                    concat!(
                        "{{\"algorithm\": \"{}\", \"model\": \"{}\", \"n\": {}, \"seed\": {}, ",
                        "\"pct_seed\": {}, \"schedules\": {}, \"depth_d\": {}, ",
                        "\"steps_budget\": {}, \"terminals\": {}, ",
                        "\"distinct_fingerprints\": {}, \"violations_found\": {}, ",
                        "\"violations_in_contract\": {}, \"max_signaler_rmrs\": {}, ",
                        "\"peak_visited_bytes\": {}, \"spilled_bytes\": {}, ",
                        "\"counterexample\": {}}}"
                    ),
                    json_escape(&r.algorithm),
                    json_escape(r.model),
                    r.n,
                    opt_u64(r.seed),
                    r.pct_seed,
                    r.schedules,
                    r.depth_d,
                    r.steps_budget,
                    r.terminals,
                    r.distinct_fingerprints,
                    r.violations_found,
                    r.violations_in_contract,
                    r.max_signaler_rmrs,
                    r.peak_visited_bytes,
                    r.spilled_bytes,
                    counterexample,
                )
            })
            .collect(),
    )
}

/// Canonical JSON for E9 rows: the exploration verdicts, the empirical RMR
/// maximum and the chase comparison, with the shrunk counterexample (already
/// canonical JSON) embedded verbatim.
#[must_use]
pub fn e9_json(rows: &[E9Row]) -> String {
    join_rows(
        rows.iter()
            .map(|r| {
                let counterexample = r.counterexample.clone().unwrap_or_else(|| "null".into());
                format!(
                    concat!(
                        "{{\"algorithm\": \"{}\", \"model\": \"{}\", \"n\": {}, \"seed\": {}, ",
                        "\"explored\": {}, \"terminals\": {}, \"exhaustive\": {}, ",
                        "\"violations_found\": {}, \"violations_in_contract\": {}, ",
                        "\"max_signaler_rmrs\": {}, \"chase_signaler_rmrs\": {}, ",
                        "\"peak_frontier\": {}, \"peak_visited_bytes\": {}, ",
                        "\"spilled_bytes\": {}, \"counterexample\": {}}}"
                    ),
                    json_escape(&r.algorithm),
                    json_escape(r.model),
                    r.n,
                    opt_u64(r.seed),
                    r.explored,
                    r.terminals,
                    r.exhaustive,
                    r.violations_found,
                    r.violations_in_contract,
                    r.max_signaler_rmrs,
                    opt_u64(r.chase_signaler_rmrs),
                    r.peak_frontier,
                    r.peak_visited_bytes,
                    r.spilled_bytes,
                    counterexample,
                )
            })
            .collect(),
    )
}
