//! The serve-mix workload: a child job server and a closed loop of TCP
//! clients replaying the repository's own job traffic against it.
//!
//! The traffic is the submissions the repository already makes to the
//! server, not a guessed mix: the CI `serve` job submits the E9 sweep, the
//! E10 sweep at 8 waiters, the E9 sweep again (answered from the results
//! store) and the same E10 sweep at 1 thread (a distinct job whose bytes
//! must match); the server round-trip suite adds a duplicate-size manifest
//! that must be rejected. Each client repeats that sequence (see
//! [`CYCLE`]). Two things are the benchmark's own choices: each cycle's
//! E10 pair gets a new seed drawn from the run's seed, so that it stays
//! fresh work, and the load is two clients, one per core.
//!
//! The loop is closed: each client sends its next request only after the
//! reply to the previous one arrived, so a slower server receives less
//! load. The server runs jobs one at a time, so a cached reply that arrives
//! behind a fresh job waits for it; that queueing is part of what the
//! latency metrics show.

use crate::stats;
use shm_scenario::json::{self, Value};
use shm_sim::rng::{mix64, XorShift64};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Concurrent clients in the closed loop.
pub const CLIENTS: usize = 2;
/// Requests sent before the measured window opens.
pub const WARMUP_REQUESTS: u64 = 20;
/// Fresh E10 jobs kept for re-running in process after the window.
const INPROCESS_CHECKS: usize = 5;
/// The CI `serve` job's E9 submission.
const E9_LINE: &str = r#"{"schema":"cc-dsm/manifest/v1","kind":"e9","threads":2}"#;
/// The server round-trip suite's rejected submission: a duplicated size.
const INVALID_LINE: &str = r#"{"schema":"cc-dsm/manifest/v1","kind":"e2","sizes":[32,32]}"#;
/// The error code the server must answer [`INVALID_LINE`] with.
const INVALID_CODE: &str = "duplicate_size";
/// A child server with no submissions for this long exits by itself, so a
/// benchmark killed before it could stop its server leaves nothing behind.
const SERVER_IDLE_EXIT_MS: u64 = 30_000;

/// The CI `serve` job's E10 submission (a PCT sweep at 8 waiters) with an
/// explicit seed, at `threads` pool threads.
#[must_use]
pub fn e10_line(seed: u64, threads: u64) -> String {
    format!(
        r#"{{"schema":"cc-dsm/manifest/v1","kind":"e10","sizes":[8],"seed":{seed},"threads":{threads}}}"#
    )
}

/// One request of the cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Request {
    /// The cycle's E10 sweep at this many threads.
    E10 { threads: u64 },
    /// The E9 sweep.
    E9,
    /// The duplicate-size manifest.
    Invalid,
}

/// The sequence each client repeats: the CI `serve` job's four
/// submissions, started at its second one (so a fresh server's first reply
/// is an E10 job, as in set-up), then the round-trip suite's rejection.
/// Once the first E9 job has run, a cycle is 2 fresh jobs, 2 cached
/// replies and 1 rejection.
const CYCLE: [Request; 5] = [
    Request::E10 { threads: 2 },
    Request::E9,
    Request::E10 { threads: 1 },
    Request::E9,
    Request::Invalid,
];

impl Request {
    fn line(self, e10_seed: u64) -> String {
        match self {
            Request::E10 { threads } => e10_line(e10_seed, threads),
            Request::E9 => E9_LINE.to_owned(),
            Request::Invalid => INVALID_LINE.to_owned(),
        }
    }
}

// ------------------------------------------------------------- server ----

/// A `benchmark serve` child process bound to an ephemeral TCP port. Dropping
/// it kills the process and waits for it.
pub struct ServerChild {
    child: Child,
    stdout: BufReader<ChildStdout>,
    /// The bound `HOST:PORT`.
    pub addr: String,
    /// The server's results directory and job log live here.
    pub dir: PathBuf,
}

impl ServerChild {
    /// Spawns a server over a fresh `dir` and waits until it listens. With
    /// `trace_max_jobs`, the server records counters and exits by itself
    /// after that many submissions (see [`ServerChild::finish`]).
    pub fn spawn(dir: &Path, trace_max_jobs: Option<u64>) -> std::io::Result<ServerChild> {
        std::fs::create_dir_all(dir)?;
        let mut cmd = Command::new(std::env::current_exe()?);
        cmd.arg("serve").arg("--dir").arg(dir);
        if let Some(n) = trace_max_jobs {
            cmd.arg("--trace-max-jobs").arg(n.to_string());
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut server = ServerChild {
            child,
            stdout: BufReader::new(stdout),
            addr: String::new(),
            dir: dir.to_path_buf(),
        };
        let mut line = String::new();
        server.stdout.read_line(&mut line)?;
        match line.trim().strip_prefix("listening tcp ") {
            Some(addr) => server.addr = addr.to_owned(),
            None => {
                return Err(std::io::Error::other(format!(
                    "server did not start: {line:?}"
                )))
            }
        }
        Ok(server)
    }

    /// The server's peak resident set so far, in MiB.
    #[must_use]
    pub fn peak_rss_mb(&self) -> Option<f64> {
        stats::peak_rss_mb(&self.child.id().to_string())
    }

    /// CPU seconds the server has used so far.
    #[must_use]
    pub fn cpu_seconds(&self) -> Option<f64> {
        stats::cpu_seconds(&self.child.id().to_string())
    }

    /// The `completed` wall time the server logged per job ID.
    #[must_use]
    pub fn exec_ms(&self) -> HashMap<String, f64> {
        let events =
            shm_serve::joblog::read_all(&self.dir.join("JOBLOG.jsonl")).unwrap_or_default();
        events
            .into_iter()
            .filter_map(|e| match e {
                shm_serve::joblog::Event::Completed {
                    job_id, wall_ms, ..
                } => Some((job_id, wall_ms)),
                _ => None,
            })
            .collect()
    }

    /// Waits for a `trace_max_jobs` server to exit by itself and returns the
    /// counter totals it printed (name → total).
    pub fn finish(mut self) -> std::io::Result<HashMap<String, u64>> {
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest)?;
        let status = self.child.wait()?;
        if !status.success() {
            return Err(std::io::Error::other(format!(
                "server exited with {status}"
            )));
        }
        let line = rest.lines().last().unwrap_or_default();
        let v = json::parse(line).map_err(std::io::Error::other)?;
        let Value::Obj(fields) = v else {
            return Err(std::io::Error::other("counter line is not an object"));
        };
        Ok(fields
            .into_iter()
            .filter_map(|(k, v)| v.as_u64().map(|n| (k, n)))
            .collect())
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The `serve` subcommand: what `shm-serve run --tcp 127.0.0.1:0` does,
/// through the same library calls, over `dir`. With `trace_max_jobs` it
/// installs a collector, exits after that many submissions, and prints the
/// counter totals as the last line of stdout.
pub fn serve_child(dir: &Path, trace_max_jobs: Option<u64>) -> i32 {
    let collector = trace_max_jobs.map(|_| {
        let c = shm_obs::Collector::new();
        shm_obs::install_collector(&c);
        c
    });
    let cfg = shm_serve::ServeConfig {
        results_dir: dir.join("results"),
        joblog: dir.join("JOBLOG.jsonl"),
        tcp: Some("127.0.0.1:0".into()),
        max_jobs: trace_max_jobs,
        idle_exit_ms: Some(SERVER_IDLE_EXIT_MS),
        ..shm_serve::ServeConfig::default()
    };
    let server = match shm_serve::Server::bind(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("benchmark serve: bind: {e}");
            return 1;
        }
    };
    match server.tcp_addr() {
        Some(addr) => println!("listening tcp {addr}"),
        None => return 1,
    }
    let _ = std::io::stdout().flush();
    if let Err(e) = server.run() {
        eprintln!("benchmark serve: {e}");
        return 1;
    }
    if let Some(c) = collector {
        shm_obs::uninstall();
        let totals = crate::counter_totals(&c.snapshot());
        let fields: Vec<String> = totals
            .iter()
            .map(|(k, v)| format!("\"{}\": {v}", json::escape(k)))
            .collect();
        println!("{{{}}}", fields.join(", "));
    }
    0
}

// ------------------------------------------------------------- client ----

/// What a reply turned out to be.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Executed for this request.
    Fresh,
    /// Served from the results store.
    Cached,
    /// Refused at validation.
    Rejected,
}

/// One answered request.
#[derive(Clone, Debug)]
pub struct Sample {
    /// The realized class.
    pub class: Class,
    /// Connect to last reply byte.
    pub latency_ms: f64,
    /// The job the reply named (none for a rejection).
    pub job_id: Option<String>,
}

/// Shared client state: the first bytes of each job, and every sample and
/// verification failure.
#[derive(Default)]
pub struct Session {
    /// The bytes of each job's first reply, by job ID.
    first_body: HashMap<String, Vec<u8>>,
    /// The first fresh E10 jobs: manifest line and the bytes served.
    pub fresh_e10: Vec<(String, Vec<u8>)>,
    /// Every answered request, in completion order.
    pub samples: Vec<Sample>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests whose reply failed verification.
    pub failed: u64,
    /// The verification failures.
    pub errors: Vec<String>,
}

/// What a reply must be, beyond a body that its `result_sha` and `bytes`
/// describe and that equals the job's first reply.
#[derive(Clone, Copy, Debug)]
pub enum Expect<'a> {
    /// Any result.
    Ok,
    /// A result whose `result_sha` is this one: the same sweep run at
    /// another thread count.
    SameResult(&'a str),
    /// A rejection with this error code.
    Error(&'a str),
}

/// Sends one manifest line on a fresh connection and reads the reply.
pub fn submit(addr: &str, line: &str) -> std::io::Result<(String, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    shm_serve::submit_stream(&mut stream, line)
}

/// Checks one reply against what the request must produce and records it.
/// Returns the reply's `result_sha` when it verified as a result.
pub fn check_reply(
    session: &Mutex<Session>,
    line: &str,
    expect: Expect,
    reply: std::io::Result<(String, Vec<u8>)>,
    latency_ms: f64,
) -> Option<String> {
    let verdict = verify(session, line, expect, reply);
    let mut s = session.lock().expect("session lock");
    s.attempted += 1;
    match verdict {
        Ok((class, job_id, sha)) => {
            s.samples.push(Sample {
                class,
                latency_ms,
                job_id,
            });
            sha
        }
        Err(e) => {
            s.failed += 1;
            s.errors.push(e);
            None
        }
    }
}

/// The reply's class, job ID and `result_sha`, or why it is wrong.
type Verdict = (Class, Option<String>, Option<String>);

fn verify(
    session: &Mutex<Session>,
    line: &str,
    expect: Expect,
    reply: std::io::Result<(String, Vec<u8>)>,
) -> Result<Verdict, String> {
    let (header, body) = reply.map_err(|e| format!("request failed: {e}"))?;
    let h = json::parse(&header).map_err(|e| format!("bad reply header {header:?}: {e}"))?;
    let status = h.get("status").and_then(Value::as_str).unwrap_or_default();
    if let Expect::Error(code) = expect {
        let got = h
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_str);
        return if status == "error" && got == Some(code) {
            Ok((Class::Rejected, None, None))
        } else {
            Err(format!("expected error {code}, got {header}"))
        };
    }
    if status != "ok" {
        return Err(format!("expected ok for {line}, got {header}"));
    }
    let field = |k: &str| {
        h.get(k)
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_owned()
    };
    let job_id = field("job_id");
    let sha = field("result_sha");
    if sha != shm_scenario::content_hash(&body) {
        return Err(format!("job {job_id}: result_sha does not hash the body"));
    }
    if h.get("bytes").and_then(Value::as_u64) != Some(body.len() as u64) {
        return Err(format!("job {job_id}: bytes field disagrees with the body"));
    }
    if let Expect::SameResult(want) = expect {
        if sha != want {
            return Err(format!(
                "job {job_id}: result {sha} differs from the same sweep at 2 threads ({want})"
            ));
        }
    }
    let cached = h.get("cached").and_then(Value::as_bool) == Some(true);
    let mut s = session.lock().expect("session lock");
    match s.first_body.get(&job_id) {
        Some(first) if *first != body => {
            return Err(format!("job {job_id}: bytes differ from its first reply"));
        }
        Some(_) => {}
        None => {
            s.first_body.insert(job_id.clone(), body.clone());
            if !cached && line.contains("\"e10\"") && s.fresh_e10.len() < INPROCESS_CHECKS {
                s.fresh_e10.push((line.to_owned(), body));
            }
        }
    }
    let class = if cached { Class::Cached } else { Class::Fresh };
    Ok((class, Some(job_id), Some(sha)))
}

/// When a closed loop stops.
#[derive(Clone, Copy)]
pub enum Stop {
    /// After this many requests in total across clients.
    Requests(u64),
    /// At this instant (requests in flight complete).
    At(Instant),
}

/// Runs the closed loop: [`CLIENTS`] clients, each repeating [`CYCLE`] with
/// its own stream of E10 seeds (`round` separates the warm-up's stream from
/// the window's).
pub fn drive(addr: &str, seed: u64, round: u64, stop: Stop, session: &Mutex<Session>) {
    let sent = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for client in 0..CLIENTS as u64 {
            let sent = &sent;
            scope.spawn(move || {
                let mut rng = XorShift64::new(mix64(seed ^ mix64(round * 16 + client + 1)));
                let mut e10_seed = 0;
                // The result of this cycle's E10 sweep at 2 threads, which
                // the same sweep at 1 thread must reproduce.
                let mut e10_sha: Option<String> = None;
                for request in CYCLE.into_iter().cycle() {
                    let go = match stop {
                        Stop::Requests(n) => sent.fetch_add(1, Ordering::SeqCst) < n,
                        Stop::At(t) => Instant::now() < t,
                    };
                    if !go {
                        break;
                    }
                    let expect = match request {
                        Request::E10 { threads: 2 } => {
                            e10_seed = rng.next_u64();
                            Expect::Ok
                        }
                        Request::E10 { .. } => {
                            e10_sha.as_deref().map_or(Expect::Ok, Expect::SameResult)
                        }
                        Request::E9 => Expect::Ok,
                        Request::Invalid => Expect::Error(INVALID_CODE),
                    };
                    let line = request.line(e10_seed);
                    let t = Instant::now();
                    let reply = submit(addr, &line);
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    let sha = check_reply(session, &line, expect, reply, ms);
                    if request == (Request::E10 { threads: 2 }) {
                        e10_sha = sha;
                    }
                }
            });
        }
    });
}

/// Latencies of the samples in `class` (all samples for `None`).
#[must_use]
pub fn latencies(samples: &[Sample], class: Option<Class>) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| class.is_none_or(|c| s.class == c))
        .map(|s| s.latency_ms)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_lines_are_valid_manifests_except_the_invalid_one() {
        let id = |line: &str| {
            shm_scenario::Manifest::from_json(line)
                .expect("valid manifest")
                .job_id()
        };
        let [two, e9, one, e9_again, invalid] = CYCLE.map(|r| r.line(9));
        assert_eq!(e9, e9_again);
        id(&e9);
        // The E10 pair is one sweep at two thread counts: two job IDs.
        assert_ne!(id(&two), id(&one));
        assert_ne!(id(&two), id(&CYCLE[0].line(10)), "a new seed is a new job");
        let err = shm_scenario::Manifest::from_json(&invalid).expect_err("invalid");
        assert_eq!(err.code, INVALID_CODE);
    }
}
