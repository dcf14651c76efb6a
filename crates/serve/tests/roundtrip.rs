//! Server round-trip suite: manifests in via spool and socket, canonical
//! bytes out, byte-identical to the direct library calls at threads 1 and
//! 4, idempotent on resubmission (including across a server restart), and
//! reproducible from the job log alone via replay.
//!
//! The pool thread count is process-global, and the server sets it per
//! job, so every test serializes on one mutex (the same pattern as
//! `bench/tests/determinism.rs`).

use bench::{e10_pct_with, e5_messages, e9_explore_with};
use shm_scenario::canon;
use shm_scenario::json::{self, Value};
use shm_serve::{replay, ServeConfig, Server};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Mutex;

static POOL_LOCK: Mutex<()> = Mutex::new(());

fn at_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    shm_pool::set_threads(n);
    let r = f();
    shm_pool::set_threads(0);
    r
}

/// A fresh scratch directory for one test, safe for parallel test
/// *binaries* (pid-scoped) while the mutex serializes tests within this
/// one.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("shm-serve-rt-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn header_field<'a>(header: &'a Value, key: &str) -> &'a Value {
    header
        .get(key)
        .unwrap_or_else(|| panic!("header missing {key:?}: {header:?}"))
}

/// Submits one manifest line over TCP and returns the parsed header plus
/// raw body bytes.
fn submit_tcp(addr: &std::net::SocketAddr, manifest: &str) -> (Value, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let (header, body) = shm_serve::submit_stream(&mut stream, manifest).expect("submit");
    (json::parse(&header).expect("header parses"), body)
}

#[test]
fn e9_e10_round_trip_spool_socket_and_replay() {
    let _guard = POOL_LOCK.lock().unwrap();
    let dir = scratch("e9e10");
    let results = dir.join("results");
    let spool = dir.join("spool");
    let joblog = dir.join("JOBLOG.jsonl");
    std::fs::create_dir_all(&spool).unwrap();

    // What the server must stream back, byte for byte: the same canonical
    // JSON `cc-dsm run --canon` writes, at both thread counts.
    let e9_expected = at_threads(1, || canon::e9_json(&e9_explore_with(2, 1, None)));
    let e9_expected_t4 = at_threads(4, || canon::e9_json(&e9_explore_with(2, 1, None)));
    assert_eq!(
        e9_expected, e9_expected_t4,
        "library canon must be thread-invariant"
    );
    let e10_expected = at_threads(1, || canon::e10_json(&e10_pct_with(&[3], 1, 7, None)));

    let e9_t1 =
        r#"{"schema":"cc-dsm/manifest/v1","kind":"e9","waiters":2,"max_polls":1,"threads":1}"#;
    let e9_t4 =
        r#"{"schema":"cc-dsm/manifest/v1","kind":"e9","waiters":2,"max_polls":1,"threads":4}"#;
    let e10_t1 = r#"{"schema":"cc-dsm/manifest/v1","kind":"e10","sizes":[3],"max_polls":1,"seed":7,"threads":1}"#;
    let e10_t4 = r#"{"schema":"cc-dsm/manifest/v1","kind":"e10","sizes":[3],"max_polls":1,"seed":7,"threads":4}"#;
    let bad = r#"{"schema":"cc-dsm/manifest/v1","kind":"e2","sizes":[32,32]}"#;

    // Job 1 arrives through the spool before the server even starts.
    std::fs::write(spool.join("a_e9.json"), e9_t1).unwrap();

    let server = Server::bind(ServeConfig {
        results_dir: results.clone(),
        joblog: joblog.clone(),
        spool: Some(spool.clone()),
        tcp: Some("127.0.0.1:0".into()),
        max_jobs: Some(6),
        idle_exit_ms: Some(30_000),
        poll_ms: 5,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.tcp_addr().expect("tcp addr");
    let handle = std::thread::spawn(move || server.run().expect("server run"));

    // Jobs 2-4: fresh work over the socket at both thread counts.
    let (h_e9_t4, b_e9_t4) = submit_tcp(&addr, e9_t4);
    let (h_e10_t1, b_e10_t1) = submit_tcp(&addr, e10_t1);
    let (h_e10_t4, b_e10_t4) = submit_tcp(&addr, e10_t4);
    // Job 5: resubmitting the spool job's manifest replays stored bytes.
    let (h_cached, b_cached) = submit_tcp(&addr, e9_t1);
    // Job 6: a duplicate-size manifest is rejected with a structured error.
    let (h_bad, b_bad) = submit_tcp(&addr, bad);

    let stats = handle.join().expect("server thread");
    shm_pool::set_threads(0);
    assert_eq!(stats.completed, 4, "{stats:?}");
    assert_eq!(stats.deduped, 1, "{stats:?}");
    assert_eq!(stats.rejected, 1, "{stats:?}");
    assert_eq!(stats.failed, 0, "{stats:?}");

    // Streamed bytes are the canonical library output, at every thread
    // count, for both kinds.
    assert_eq!(b_e9_t4, e9_expected.as_bytes(), "e9 threads=4 socket body");
    assert_eq!(
        b_e10_t1,
        e10_expected.as_bytes(),
        "e10 threads=1 socket body"
    );
    assert_eq!(
        b_e10_t4,
        e10_expected.as_bytes(),
        "e10 threads=4 socket body"
    );
    assert_eq!(b_cached, e9_expected.as_bytes(), "cached e9 body");

    for h in [&h_e9_t4, &h_e10_t1, &h_e10_t4, &h_cached] {
        assert_eq!(header_field(h, "schema").as_str(), Some("cc-dsm/serve/v1"));
        assert_eq!(header_field(h, "status").as_str(), Some("ok"));
    }
    // `threads` is part of the canonical manifest, so the same scenario at
    // 1 vs 4 threads is two jobs — whose result hashes must still agree.
    assert_ne!(
        header_field(&h_e10_t1, "job_id").as_str(),
        header_field(&h_e10_t4, "job_id").as_str(),
    );
    assert_eq!(
        header_field(&h_e10_t1, "result_sha").as_str(),
        header_field(&h_e10_t4, "result_sha").as_str(),
    );
    assert_eq!(header_field(&h_cached, "cached"), &Value::Bool(true));
    assert_eq!(header_field(&h_e9_t4, "cached"), &Value::Bool(false));

    assert_eq!(header_field(&h_bad, "status").as_str(), Some("error"));
    let err = header_field(&h_bad, "error");
    assert_eq!(header_field(err, "code").as_str(), Some("duplicate_size"));
    assert!(b_bad.is_empty(), "error replies carry no body");

    // The spool job's result landed on disk (and the spool file is gone).
    let spool_job_id = header_field(&h_cached, "job_id").as_str().unwrap();
    let stored = std::fs::read(results.join(format!("{spool_job_id}.json"))).unwrap();
    assert_eq!(stored, e9_expected.as_bytes(), "stored spool result");
    assert!(!spool.join("a_e9.json").exists(), "spool file consumed");

    // A restarted server rebuilds the completed map from the log: the same
    // manifest is served from the store without re-running.
    let server2 = Server::bind(ServeConfig {
        results_dir: results.clone(),
        joblog: joblog.clone(),
        tcp: Some("127.0.0.1:0".into()),
        max_jobs: Some(1),
        idle_exit_ms: Some(30_000),
        poll_ms: 5,
        ..ServeConfig::default()
    })
    .expect("rebind");
    let addr2 = server2.tcp_addr().expect("tcp addr");
    let handle2 = std::thread::spawn(move || server2.run().expect("server2 run"));
    let (h_restart, b_restart) = submit_tcp(&addr2, e10_t4);
    let stats2 = handle2.join().expect("server2 thread");
    shm_pool::set_threads(0);
    assert_eq!(header_field(&h_restart, "cached"), &Value::Bool(true));
    assert_eq!(
        b_restart,
        e10_expected.as_bytes(),
        "restart-cached e10 body"
    );
    assert_eq!(stats2.deduped, 1, "{stats2:?}");
    assert_eq!(stats2.completed, 0, "{stats2:?}");

    // Replay reproduces every completed job from the log alone, and the
    // stored result files byte-match the re-executions.
    let report = replay(&joblog, Some(&results)).expect("replay");
    shm_pool::set_threads(0);
    assert!(report.clean(), "replay mismatches: {:?}", report.mismatches);
    assert_eq!(report.jobs, 4, "{report:?}");
    assert_eq!(report.verified, 4, "{report:?}");
}

#[test]
fn unix_socket_round_trip() {
    let _guard = POOL_LOCK.lock().unwrap();
    let dir = scratch("unix");
    let sock = dir.join("serve.sock");
    let joblog = dir.join("JOBLOG.jsonl");

    let expected = at_threads(1, || canon::e5_json(&e5_messages(4)));

    let server = Server::bind(ServeConfig {
        results_dir: dir.join("results"),
        joblog: joblog.clone(),
        unix: Some(sock.clone()),
        max_jobs: Some(1),
        idle_exit_ms: Some(30_000),
        poll_ms: 5,
        ..ServeConfig::default()
    })
    .expect("bind");
    let handle = std::thread::spawn(move || server.run().expect("server run"));

    let mut stream = UnixStream::connect(&sock).expect("connect unix");
    let (header, body) = shm_serve::submit_stream(
        &mut stream,
        r#"{"schema":"cc-dsm/manifest/v1","kind":"e5","n":4}"#,
    )
    .expect("submit");
    let stats = handle.join().expect("server thread");
    shm_pool::set_threads(0);

    let header = json::parse(&header).expect("header parses");
    assert_eq!(header_field(&header, "status").as_str(), Some("ok"));
    assert_eq!(header_field(&header, "kind").as_str(), Some("e5"));
    assert_eq!(body, expected.as_bytes(), "unix socket e5 body");
    assert_eq!(stats.completed, 1, "{stats:?}");

    let report = replay(&joblog, None).expect("replay");
    shm_pool::set_threads(0);
    assert!(report.clean(), "replay mismatches: {:?}", report.mismatches);
    assert_eq!(report.verified, 1, "{report:?}");
}

#[test]
fn spool_reject_leaves_structured_error_file() {
    let _guard = POOL_LOCK.lock().unwrap();
    let dir = scratch("reject");
    let results = dir.join("results");
    let spool = dir.join("spool");
    std::fs::create_dir_all(&spool).unwrap();
    // n outside 2..=512 must be rejected at validation, not panic mid-run.
    std::fs::write(
        spool.join("bad_e5.json"),
        r#"{"schema":"cc-dsm/manifest/v1","kind":"e5","n":1000}"#,
    )
    .unwrap();

    let server = Server::bind(ServeConfig {
        results_dir: results.clone(),
        joblog: dir.join("JOBLOG.jsonl"),
        spool: Some(spool.clone()),
        max_jobs: Some(1),
        idle_exit_ms: Some(30_000),
        poll_ms: 5,
        ..ServeConfig::default()
    })
    .expect("bind");
    let stats = server.run().expect("server run");
    shm_pool::set_threads(0);
    assert_eq!(stats.rejected, 1, "{stats:?}");

    let err_text = std::fs::read_to_string(results.join("bad_e5.error.json")).expect("error file");
    let header = json::parse(err_text.trim()).expect("error file parses");
    assert_eq!(header_field(&header, "status").as_str(), Some("error"));
    let err = header_field(&header, "error");
    assert_eq!(
        header_field(err, "code").as_str(),
        Some("field_out_of_range")
    );
    assert_eq!(header_field(err, "field").as_str(), Some("n"));
    assert!(!spool.join("bad_e5.json").exists(), "spool file consumed");
}
