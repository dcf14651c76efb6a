//! Golden byte-equality pins: the canonical (timing-free) JSON of one small
//! manifest per experiment kind, rendered through `bench::run::run_manifest`
//! — the bytes the job server streams and `--canon` writes — must match the
//! fixtures committed in `tests/golden/` *byte for byte*, at 1 and at 4
//! threads. The determinism tests prove the output is thread-count
//! independent; these prove it does not drift across code changes at all —
//! any rewrite of the simulator core, pricing state, explorer, or dispatch
//! that alters a single byte fails here and must either be a bug or a
//! deliberate, reviewed fixture update.
//!
//! Scaled-down parameters keep the debug-build runtime tractable; the same
//! dispatch and serializers produce the full-size runs' `--canon` output.
//!
//! Regenerate after a deliberate output change with:
//! `BLESS_GOLDEN=1 cargo test -p bench --test golden`

use bench::run::run_manifest;
use bench::Manifest;
use std::path::PathBuf;
use std::sync::Mutex;

static POOL_LOCK: Mutex<()> = Mutex::new(());

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `actual` against the committed fixture, or rewrites the fixture
/// when `BLESS_GOLDEN` is set.
fn check(name: &str, actual: &str) {
    let path = fixture_path(name);
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {} (BLESS_GOLDEN=1 to create): {e}", path.display()));
    assert_eq!(
        expected, actual,
        "{name} drifted from the committed fixture; if the change is \
         deliberate, regenerate with BLESS_GOLDEN=1"
    );
}

/// Runs `f` at a fixed pool size, restoring the auto default afterwards.
fn at_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    shm_pool::set_threads(n);
    let r = f();
    shm_pool::set_threads(0);
    r
}

/// Renders `manifest` at 1 and 4 threads, requires the two renders to agree,
/// and pins them to `tests/golden/<kind>.json`. Returns the bytes.
fn pin(manifest: &str) -> String {
    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let m = Manifest::from_json(manifest).expect("valid manifest");
    let serial = at_threads(1, || run_manifest(&m));
    let parallel = at_threads(4, || run_manifest(&m));
    assert_eq!(serial, parallel, "{manifest}: thread count moved a byte");
    check(&format!("{}.json", m.kind.as_str()), &serial);
    serial
}

#[test]
fn e1_canon_matches_committed_fixture() {
    pin(r#"{"schema":"cc-dsm/manifest/v1","kind":"e1","sizes":[4,8],"polls":5}"#);
}

#[test]
fn e2_audited_canon_matches_committed_fixture() {
    let json = pin(r#"{"schema":"cc-dsm/manifest/v1","kind":"e2","sizes":[8,12],"audit":true}"#);
    assert!(json.contains("\"audit_clean\": true"), "{json}");
}

#[test]
fn e3_canon_matches_committed_fixture() {
    pin(r#"{"schema":"cc-dsm/manifest/v1","kind":"e3","waiters":4,"polls":3}"#);
}

#[test]
fn e4_canon_matches_committed_fixture() {
    pin(r#"{"schema":"cc-dsm/manifest/v1","kind":"e4","sizes":[8,16]}"#);
}

#[test]
fn e5_canon_matches_committed_fixture() {
    pin(r#"{"schema":"cc-dsm/manifest/v1","kind":"e5","n":4}"#);
}

#[test]
fn e6_canon_matches_committed_fixture() {
    pin(r#"{"schema":"cc-dsm/manifest/v1","kind":"e6","sizes":[2,4],"cycles":2}"#);
}

#[test]
fn e7_canon_matches_committed_fixture() {
    pin(r#"{"schema":"cc-dsm/manifest/v1","kind":"e7","sizes":[4,8]}"#);
}

#[test]
fn e8_audited_canon_matches_committed_fixture() {
    let json = pin(r#"{"schema":"cc-dsm/manifest/v1","kind":"e8","sizes":[8],"audit":true}"#);
    assert!(json.contains("\"audit_clean\": true"), "{json}");
}

#[test]
fn e9_canon_matches_committed_fixture() {
    let json = pin(r#"{"schema":"cc-dsm/manifest/v1","kind":"e9","waiters":2,"max_polls":1}"#);
    assert!(json.contains("\"max_signaler_rmrs\""), "{json}");
}

#[test]
fn e10_canon_matches_committed_fixture() {
    pin(r#"{"schema":"cc-dsm/manifest/v1","kind":"e10","sizes":[3],"max_polls":1,"seed":7}"#);
}
