//! Spill byte-identity: the E9 canonical JSON under a forcing memory
//! budget must equal the unbudgeted JSON byte for byte — at `threads = 1`
//! (the exact serial path) and `threads = 4` — once the memory-trajectory
//! fields (`peak_frontier`, `peak_visited_bytes`, `spilled_bytes`) are
//! normalized out. Those three are the *only* keys a budget may move:
//! every verdict, count, maximum, and shrunk counterexample is produced
//! from the identical traversal, whether the visited set and frontier live
//! in RAM or in delta-compressed runs on disk.
//!
//! The budgeted rows themselves, memory-trajectory fields included, are
//! pinned to `tests/golden/e9_budget_8k.json` at both thread counts, so a
//! change to the spill encoding, flush points or merge schedule shows up as
//! a moved `spilled_bytes` or `peak_visited_bytes`. Regenerate after a
//! deliberate change with
//! `BLESS_GOLDEN=1 cargo test -p bench --test spill_identity`.
//!
//! `shm_pool::set_threads` is process-global, so the tests serialize on a
//! shared lock (same pattern as the determinism suite).

use bench::{e9_explore_with, E9Row};
use shm_scenario::canon;
use std::path::PathBuf;
use std::sync::Mutex;

static POOL_LOCK: Mutex<()> = Mutex::new(());

/// The forcing budget: 8 KiB caps the hot visited tier at its 64-key floor
/// and the frontier ring at its 4-node floor, far below the ~19k states of
/// the single-waiter row, so both spill paths must engage.
const TINY_BUDGET: usize = 8 * 1024;

fn at_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    shm_pool::set_threads(n);
    let r = f();
    shm_pool::set_threads(0);
    r
}

/// Zeroes the memory-trajectory fields so budgeted and unbudgeted rows can
/// be compared on their logical content alone.
fn normalize(mut rows: Vec<E9Row>) -> Vec<E9Row> {
    for r in &mut rows {
        r.peak_frontier = 0;
        r.peak_visited_bytes = 0;
        r.spilled_bytes = 0;
    }
    rows
}

/// Compares the un-normalized canon of the budgeted sweep against the
/// committed fixture, or rewrites the fixture when `BLESS_GOLDEN` is set.
fn check_budgeted_fixture(threads: usize, budgeted: &[E9Row]) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/e9_budget_8k.json");
    let actual = canon::e9_json(budgeted);
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(&path, &actual).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {} (BLESS_GOLDEN=1 to create): {e}", path.display()));
    assert_eq!(
        expected, actual,
        "threads={threads}: the budgeted memory trajectory drifted from the committed fixture"
    );
}

fn identity_at(threads: usize) {
    let unbudgeted = at_threads(threads, || e9_explore_with(2, 1, None));
    let budgeted = at_threads(threads, || e9_explore_with(2, 1, Some(TINY_BUDGET)));
    assert!(
        unbudgeted.iter().all(|r| r.spilled_bytes == 0),
        "unbudgeted run must not spill"
    );
    assert!(
        budgeted.iter().any(|r| r.spilled_bytes > 0),
        "a {TINY_BUDGET}-byte budget must force spilling somewhere in the sweep"
    );
    let single_waiter_dsm = budgeted
        .iter()
        .find(|r| r.algorithm == "single-waiter" && r.model == "dsm")
        .expect("sweep contains single-waiter x dsm");
    assert!(
        single_waiter_dsm.spilled_bytes > 0,
        "the largest row must have spilled"
    );
    check_budgeted_fixture(threads, &budgeted);
    assert_eq!(
        canon::e9_json(&normalize(unbudgeted)),
        canon::e9_json(&normalize(budgeted)),
        "threads={threads}: spilling changed a logical field"
    );
}

#[test]
fn e9_canon_is_byte_identical_spilled_vs_not_at_threads_1() {
    let _guard = POOL_LOCK.lock().unwrap();
    identity_at(1);
}

#[test]
fn e9_canon_is_byte_identical_spilled_vs_not_at_threads_4() {
    let _guard = POOL_LOCK.lock().unwrap();
    identity_at(4);
}

/// Cross-thread, cross-budget: the serial unbudgeted run and the threaded
/// budgeted run — opposite corners of the (threads, budget) matrix — agree
/// on every logical byte.
#[test]
fn e9_canon_spilled_threaded_matches_serial_unspilled() {
    let _guard = POOL_LOCK.lock().unwrap();
    let serial = at_threads(1, || e9_explore_with(2, 1, None));
    let threaded = at_threads(4, || e9_explore_with(2, 1, Some(TINY_BUDGET)));
    assert_eq!(
        canon::e9_json(&normalize(serial)),
        canon::e9_json(&normalize(threaded)),
        "opposite corners of the (threads, budget) matrix disagree"
    );
}
