//! The `cc-dsm` front end end to end: strict argv (bad input is a
//! structured `cc-dsm/error/v1` object and exit 2, never a panic or a
//! silent default) and `run --canon` writing exactly the bytes
//! `bench::run::run_manifest` — the job server's dispatch — returns.

use bench::history::Record;
use bench::run::run_manifest;
use shm_scenario::{json, Manifest};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Output};

fn cc_dsm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cc-dsm"))
        .args(args)
        .output()
        .expect("launch cc-dsm")
}

/// Asserts `args` is rejected as bad input: exit 2, no panic, and a
/// `cc-dsm/error/v1` object with `code` on stderr.
fn assert_rejected(args: &[&str], code: &str) {
    let out = cc_dsm(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    let err = json::parse(stderr.trim()).unwrap_or_else(|e| panic!("{args:?}: {e}: {stderr}"));
    assert_eq!(
        err.get("schema").and_then(json::Value::as_str),
        Some("cc-dsm/error/v1")
    );
    assert_eq!(
        err.get("code").and_then(json::Value::as_str),
        Some(code),
        "{stderr}"
    );
}

fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("cli-{}-{name}", std::process::id()))
}

/// Runs `cc-dsm run <args> --canon F` and returns the bytes written to F.
fn canon_of(args: &[&str], name: &str) -> String {
    let path = scratch(name);
    let path_str = path.to_str().expect("utf-8 path");
    let out = cc_dsm(&[args, &["--canon", path_str]].concat());
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let bytes = std::fs::read_to_string(&path).expect("canon file written");
    let _ = std::fs::remove_file(&path);
    bytes
}

#[test]
fn misspelt_flag_is_rejected() {
    assert_rejected(&["run", "e9", "--size", "4"], "unknown_flag");
}

/// `run` writes no timing file for any kind: the perf ledger (`all --json`)
/// is the only one.
#[test]
fn timing_flags_are_rejected_for_every_kind() {
    assert_rejected(&["run", "e1", "--speedup"], "unknown_flag");
    assert_rejected(&["run", "e5", "--json"], "unknown_flag");
    assert_rejected(&["run", "e2", "--json"], "unknown_flag");
    assert_rejected(&["run", "e2", "--speedup"], "unknown_flag");
}

/// Asserts `args` fails at run time: exit 1, a `cc-dsm: write PATH: ...`
/// message on stderr, and no panic.
fn assert_write_fails(args: &[&str], path: &str) {
    let out = cc_dsm(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(
        stderr.contains(&format!("cc-dsm: write {path}: ")),
        "{args:?}: {stderr}"
    );
}

#[test]
fn unwritable_output_files_exit_1_without_a_panic() {
    let canon = "/nonexistent-dir/e5.json";
    assert_write_fails(&["run", "e5", "--canon", canon], canon);
    let metrics = "/nonexistent-dir/m.json";
    assert_write_fails(&["run", "e5", "--metrics", metrics], metrics);
    // `diff` writes its artifact even with no baseline, so one record does.
    let ledger = scratch("history.jsonl");
    let ledger_str = ledger.to_str().expect("utf-8 path");
    Record::now(1, BTreeMap::from([("wall_ms.total".to_string(), 10.0)]))
        .append_to(ledger_str)
        .expect("write ledger");
    let out = "/nonexistent-dir/d.json";
    assert_write_fails(&["diff", "--history", ledger_str, "--out", out], out);
    let _ = std::fs::remove_file(&ledger);
}

#[test]
fn malformed_numbers_are_structured_errors_not_panics() {
    assert_rejected(&["serve", "run", "--max-jobs", "x"], "bad_type");
    assert_rejected(&["run", "e9", "--progress=x"], "bad_type");
    assert_rejected(&["run", "e1", "--threads", "0"], "field_out_of_range");
    assert_rejected(&["all", "--threads", "0"], "field_out_of_range");
}

#[test]
fn missing_values_and_unknown_commands_are_rejected() {
    assert_rejected(&["run", "e1", "--canon"], "missing_value");
    assert_rejected(&["run", "e11"], "unknown_kind");
    assert_rejected(&["exp_all"], "unknown_command");
    assert_rejected(&["serve", "replay"], "missing_flag");
}

/// The drift this front end removes: a filtered E9 scenario must write the
/// one row the server streams, not the whole sweep.
#[test]
fn filtered_e9_canon_equals_run_manifest() {
    let args = [
        "run",
        "e9",
        "--threads",
        "1",
        "--waiters",
        "2",
        "--max-polls",
        "1",
        "--algorithm",
        "broadcast",
        "--model",
        "dsm",
    ];
    let written = canon_of(&args, "e9.json");
    let m = Manifest::from_json(
        r#"{"schema":"cc-dsm/manifest/v1","kind":"e9","threads":1,"waiters":2,
            "max_polls":1,"algorithm":"broadcast","model":"dsm"}"#,
    )
    .unwrap();
    assert_eq!(written, run_manifest(&m));
    let rows = json::parse(&written).unwrap();
    assert_eq!(
        rows.as_arr().map(<[json::Value]>::len),
        Some(1),
        "{written}"
    );
}

#[test]
fn e3_canon_equals_run_manifest() {
    let written = canon_of(&["run", "e3", "--waiters", "4", "--polls", "3"], "e3.json");
    let m =
        Manifest::from_json(r#"{"schema":"cc-dsm/manifest/v1","kind":"e3","waiters":4,"polls":3}"#)
            .unwrap();
    assert_eq!(written, run_manifest(&m));
}
