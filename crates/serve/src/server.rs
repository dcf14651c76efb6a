//! The job server: spool + socket ingestion, admission on the connection
//! thread, sequential deterministic execution, and the record/replay job
//! log.
//!
//! Submissions arrive from a watched spool directory (`*.json` manifest
//! files, scanned every `poll_ms`) and from line-delimited TCP/Unix
//! sockets. One acceptor thread per listener blocks in `accept` and hands
//! each connection to a thread of its own, which reads one manifest line
//! and admits it: an invalid manifest is logged as `rejected` and answered
//! with a structured error, and a manifest whose job already completed is
//! answered with the stored bytes (`"cached":true`), both right there, never
//! behind a running job. Only fresh jobs queue for the executor. It admits
//! each one again (a duplicate that queued while its twin ran is then
//! served from the store), appends it to the job log, executes it on the
//! in-process pool at the manifest's thread count, writes its canonical
//! result bytes to the results directory and streams them back. Because the
//! completed-jobs map is rebuilt from the job log at startup, idempotency
//! survives restarts.
//!
//! Jobs execute **sequentially** on purpose: the pool thread count is
//! process-global state (each job runs at its manifest's `threads`), and
//! the determinism contract makes concurrency a latency optimization only —
//! canonical results are identical at any thread count. Multi-tenancy means
//! fair FIFO queueing, not parallel jobs.

use crate::joblog::{self, Event};
use shm_scenario::json::{self, Value};
use shm_scenario::{Manifest, ManifestError};
use std::collections::BTreeMap;
use std::io::{BufRead as _, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Schema tag of socket reply headers.
pub const SERVE_SCHEMA: &str = "cc-dsm/serve/v1";

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Directory receiving `<job_id>.json` result files (created if absent).
    pub results_dir: PathBuf,
    /// The append-only job log.
    pub joblog: PathBuf,
    /// Watched spool directory: drop `*.json` manifest files here to submit.
    pub spool: Option<PathBuf>,
    /// TCP listen address (e.g. `127.0.0.1:0` for an ephemeral port).
    pub tcp: Option<String>,
    /// Unix socket path (removed and re-bound at startup).
    pub unix: Option<PathBuf>,
    /// Exit after processing this many submissions (tests/CI).
    pub max_jobs: Option<u64>,
    /// Exit after this long with no submissions (tests/CI).
    pub idle_exit_ms: Option<u64>,
    /// Spool scan cadence in milliseconds. Sockets do not poll: each
    /// connection is served as it arrives.
    pub poll_ms: u64,
}

/// The longest manifest line a socket may send, newline excluded. A longer
/// line is rejected as `bad_json` without reading the rest of it.
pub const MAX_LINE_BYTES: usize = 64 << 10;

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            results_dir: PathBuf::from("serve-results"),
            joblog: PathBuf::from("JOBLOG.jsonl"),
            spool: None,
            tcp: None,
            unix: None,
            max_jobs: None,
            idle_exit_ms: None,
            poll_ms: 20,
        }
    }
}

/// Counters describing one server run.
#[derive(Clone, Debug, Default)]
pub struct ServeStats {
    /// Jobs executed to completion.
    pub completed: u64,
    /// Resubmissions served from the results store.
    pub deduped: u64,
    /// Submissions rejected at validation.
    pub rejected: u64,
    /// Jobs that panicked (the server survived).
    pub failed: u64,
    /// Total execution wall-clock per experiment kind (telemetry for the
    /// perf-history ledger; not part of the determinism contract).
    pub wall_ms_by_kind: BTreeMap<String, f64>,
}

impl ServeStats {
    /// Total submissions processed (any outcome).
    #[must_use]
    pub fn processed(&self) -> u64 {
        self.completed + self.deduped + self.rejected + self.failed
    }

    fn count(&mut self, answer: Answer) {
        match answer {
            Answer::Cached => self.deduped += 1,
            Answer::Rejected => self.rejected += 1,
        }
    }
}

/// One reply to a submission: a single-line JSON header and (on success)
/// the raw canonical result bytes. The header's `"bytes"` field is the
/// body length, so multi-line canon JSON survives a line-delimited
/// protocol byte-for-byte.
#[derive(Clone, Debug)]
pub struct Reply {
    /// One-line JSON header (no trailing newline).
    pub header: String,
    /// Raw result bytes (empty on error).
    pub body: Vec<u8>,
}

impl Reply {
    fn ok(job_id: &str, kind: &str, sha: &str, body: Vec<u8>, cached: bool) -> Reply {
        Reply {
            header: format!(
                "{{\"schema\":\"{SERVE_SCHEMA}\",\"status\":\"ok\",\"job_id\":\"{job_id}\",\"kind\":\"{kind}\",\"result_sha\":\"{sha}\",\"bytes\":{},\"cached\":{cached}}}",
                body.len(),
            ),
            body,
        }
    }

    fn error(e: &ManifestError) -> Reply {
        Reply {
            header: format!(
                "{{\"schema\":\"{SERVE_SCHEMA}\",\"status\":\"error\",\"error\":{}}}",
                e.to_json(),
            ),
            body: Vec::new(),
        }
    }
}

/// A submission answered without running a job.
#[derive(Clone, Copy, Debug)]
enum Answer {
    /// Served from the results store.
    Cached,
    /// Refused at validation.
    Rejected,
}

/// How admission settled one submission.
enum Admission {
    /// Answered without running anything.
    Answered(Reply, Answer),
    /// A valid manifest whose job has not completed: the executor runs it.
    Run(Box<Manifest>),
}

/// What connection threads tell the executor.
enum Msg {
    /// A fresh job from a socket. The connection travels with it, so the
    /// executor writes the reply itself and cannot hit an exit condition
    /// with that reply still in flight.
    Job {
        text: String,
        source: &'static str,
        conn: Box<dyn Write + Send>,
    },
    /// A connection thread answered a submission itself and has already
    /// written the reply, so `max_jobs` only counts replies out the door.
    Answered(Answer),
}

/// What the executor and the connection threads share.
struct Shared {
    cfg: ServeConfig,
    /// job_id → result_sha of every job whose result bytes are on disk.
    completed: RwLock<BTreeMap<String, String>>,
    /// Held across each job-log append.
    log_lock: Mutex<()>,
}

impl Shared {
    /// Admits one submission: validates `text`, logging and answering a
    /// rejection; serves a completed job's stored bytes; or hands back the
    /// manifest of a job that has yet to run. Connection threads call it on
    /// arrival and the executor again before running a job.
    fn admit(&self, text: &str, source: &str) -> Admission {
        let manifest = match Manifest::from_json(text) {
            Ok(m) => m,
            Err(e) => return Admission::Answered(self.reject(source, e), Answer::Rejected),
        };
        let job_id = manifest.job_id();
        let sha = self
            .completed
            .read()
            .expect("completed map poisoned")
            .get(&job_id)
            .cloned();
        if let Some(sha) = sha {
            if let Ok(body) = std::fs::read(self.result_path(&job_id)) {
                shm_obs::counter!("serve.dedup");
                let reply = Reply::ok(&job_id, manifest.kind.as_str(), &sha, body, true);
                return Admission::Answered(reply, Answer::Cached);
            }
            // Result bytes vanished since bind(): forget the job and re-run.
            self.completed
                .write()
                .expect("completed map poisoned")
                .remove(&job_id);
        }
        Admission::Run(Box::new(manifest))
    }

    /// Logs a rejected submission and returns its error reply.
    fn reject(&self, source: &str, error: ManifestError) -> Reply {
        let reply = Reply::error(&error);
        self.log(&Event::Rejected {
            source: source.into(),
            error,
        });
        reply
    }

    fn result_path(&self, job_id: &str) -> PathBuf {
        self.cfg.results_dir.join(format!("{job_id}.json"))
    }

    fn log(&self, event: &Event) {
        let _serial = self.log_lock.lock().expect("job-log lock poisoned");
        if let Err(e) = joblog::append(&self.cfg.joblog, event) {
            eprintln!("serve: append {}: {e}", self.cfg.joblog.display());
        }
    }
}

/// The bound server. [`Server::bind`] creates listeners (so tests can read
/// the ephemeral [`Server::tcp_addr`] before serving); [`Server::run`]
/// blocks until an exit condition fires.
pub struct Server {
    shared: Arc<Shared>,
    tcp: Option<TcpListener>,
    unix: Option<UnixListener>,
    stats: ServeStats,
}

impl Server {
    /// Creates the results directory, rebuilds the completed-jobs map from
    /// the job log, and binds the configured listeners.
    pub fn bind(cfg: ServeConfig) -> std::io::Result<Server> {
        std::fs::create_dir_all(&cfg.results_dir)?;
        if let Some(spool) = &cfg.spool {
            std::fs::create_dir_all(spool)?;
        }
        let mut completed = BTreeMap::new();
        let events = joblog::recover(&cfg.joblog)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        for ev in events {
            if let Event::Completed {
                job_id, result_sha, ..
            } = ev
            {
                // Trust the log only as far as the bytes still exist: a
                // wiped results dir means the job re-runs.
                if cfg.results_dir.join(format!("{job_id}.json")).is_file() {
                    completed.insert(job_id, result_sha);
                }
            }
        }
        let tcp = cfg.tcp.as_ref().map(TcpListener::bind).transpose()?;
        let unix = match &cfg.unix {
            Some(path) => {
                let _ = std::fs::remove_file(path);
                Some(UnixListener::bind(path)?)
            }
            None => None,
        };
        Ok(Server {
            shared: Arc::new(Shared {
                cfg,
                completed: RwLock::new(completed),
                log_lock: Mutex::new(()),
            }),
            tcp,
            unix,
            stats: ServeStats::default(),
        })
    }

    /// The bound TCP address, when a TCP listener was configured.
    #[must_use]
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp.as_ref().and_then(|l| l.local_addr().ok())
    }

    /// Serves until `max_jobs` submissions were processed or the server sat
    /// idle for `idle_exit_ms` (whichever is configured; with neither it
    /// serves forever). Returns the run's stats once every listener is
    /// closed and the Unix socket path removed.
    pub fn run(mut self) -> std::io::Result<ServeStats> {
        let (tx, rx) = mpsc::channel::<Msg>();
        let stop = Arc::new(AtomicBool::new(false));
        let mut acceptors = Vec::new();
        if let Some(l) = self.tcp.take() {
            let mut wake_addr = l.local_addr()?;
            if wake_addr.ip().is_unspecified() {
                wake_addr.set_ip(match wake_addr {
                    SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
                });
            }
            let accept = move || l.accept().map(|(s, _)| s);
            acceptors.push(Acceptor {
                thread: self.spawn_acceptor(accept, "tcp", &stop, &tx),
                wake: Box::new(move || TcpStream::connect(wake_addr).map(drop)),
            });
        }
        if let (Some(l), Some(path)) = (self.unix.take(), self.shared.cfg.unix.clone()) {
            let accept = move || l.accept().map(|(s, _)| s);
            acceptors.push(Acceptor {
                thread: self.spawn_acceptor(accept, "unix", &stop, &tx),
                wake: Box::new(move || UnixStream::connect(&path).map(drop)),
            });
        }
        self.execute_loop(&rx);
        stop.store(true, Ordering::SeqCst);
        for a in acceptors {
            // An acceptor wakes only on a connection; if none can be made,
            // it is left blocked rather than waited for.
            if (a.wake)().is_ok() {
                let _ = a.thread.join();
            }
        }
        Ok(std::mem::take(&mut self.stats))
    }

    /// Starts a thread that accepts connections until `stop` is set, giving
    /// each its own [`handle_conn`] thread. Connection threads are not
    /// joined: a client may hold its connection open indefinitely.
    fn spawn_acceptor<S, A>(
        &self,
        accept: A,
        source: &'static str,
        stop: &Arc<AtomicBool>,
        tx: &mpsc::Sender<Msg>,
    ) -> JoinHandle<()>
    where
        S: Read + Write + Send + 'static,
        A: Fn() -> std::io::Result<S> + Send + 'static,
    {
        let (shared, stop, tx) = (Arc::clone(&self.shared), Arc::clone(stop), tx.clone());
        std::thread::spawn(move || loop {
            let conn = accept();
            if stop.load(Ordering::SeqCst) {
                return;
            }
            match conn {
                Ok(stream) => {
                    let (shared, tx) = (Arc::clone(&shared), tx.clone());
                    std::thread::spawn(move || handle_conn(stream, source, &shared, &tx));
                }
                // Out of descriptors or a connection aborted before it was
                // accepted: back off so a persistent error cannot spin.
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        })
    }

    /// The executor: runs fresh jobs one at a time in arrival order, scans
    /// the spool every `poll_ms` and counts every answered submission. It
    /// blocks on the channel until the next message, spool scan or idle
    /// deadline, and returns when an exit condition fires.
    fn execute_loop(&mut self, rx: &mpsc::Receiver<Msg>) {
        let poll = Duration::from_millis(self.shared.cfg.poll_ms);
        let idle = self.shared.cfg.idle_exit_ms.map(Duration::from_millis);
        let has_spool = self.shared.cfg.spool.is_some();
        let mut last_activity = Instant::now();
        let mut next_scan = Instant::now();
        loop {
            if let Some(max) = self.shared.cfg.max_jobs {
                if self.stats.processed() >= max {
                    return;
                }
            }
            if has_spool && Instant::now() >= next_scan {
                if self.scan_spool() {
                    last_activity = Instant::now();
                }
                next_scan = Instant::now() + poll;
                continue;
            }
            let idle_deadline = idle.map(|d| last_activity + d);
            if idle_deadline.is_some_and(|d| Instant::now() >= d) {
                return;
            }
            let deadline = [has_spool.then_some(next_scan), idle_deadline]
                .into_iter()
                .flatten()
                .min();
            let msg = match deadline {
                Some(d) => rx.recv_timeout(d.saturating_duration_since(Instant::now())),
                None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
            };
            match msg {
                Ok(Msg::Answered(answer)) => self.stats.count(answer),
                Ok(Msg::Job {
                    text,
                    source,
                    mut conn,
                }) => {
                    let reply = self.process(&text, source);
                    // A client that hung up just loses its reply.
                    let _ = write_reply(&mut conn, &reply);
                }
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => return,
            }
            last_activity = Instant::now();
        }
    }

    /// Ingests every `*.json` file in the spool directory, in sorted-name
    /// order (deterministic given a fixed set of files). Each file is
    /// removed once processed; rejects leave a `<stem>.error.json` next to
    /// the results so the submitter can see why.
    fn scan_spool(&mut self) -> bool {
        let Some(spool) = self.shared.cfg.spool.clone() else {
            return false;
        };
        let Ok(entries) = std::fs::read_dir(&spool) else {
            return false;
        };
        let mut files: Vec<PathBuf> = entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "json"))
            .collect();
        files.sort();
        let mut any = false;
        for path in files {
            let Ok(text) = std::fs::read_to_string(&path) else {
                continue;
            };
            shm_obs::counter!("serve.jobs");
            let reply = self.process(&text, "spool");
            if reply.body.is_empty() {
                let stem = path
                    .file_stem()
                    .map_or_else(|| "submission".into(), |s| s.to_string_lossy().into_owned());
                let err_path = self
                    .shared
                    .cfg
                    .results_dir
                    .join(format!("{stem}.error.json"));
                let _ = std::fs::write(err_path, format!("{}\n", reply.header));
            }
            let _ = std::fs::remove_file(&path);
            any = true;
        }
        any
    }

    /// Admits one submission on the executor and runs it if it is still a
    /// fresh job.
    fn process(&mut self, text: &str, source: &str) -> Reply {
        let _span = shm_obs::Span::enter("serve.job");
        match self.shared.admit(text, source) {
            Admission::Answered(reply, answer) => {
                self.stats.count(answer);
                reply
            }
            Admission::Run(manifest) => self.execute(&manifest, source),
        }
    }

    /// Logs, executes, stores and records one fresh job.
    fn execute(&mut self, manifest: &Manifest, source: &str) -> Reply {
        let shared = &self.shared;
        let job_id = manifest.job_id();
        let result_path = shared.result_path(&job_id);
        shared.log(&Event::Submitted {
            job_id: job_id.clone(),
            source: source.into(),
            manifest: Box::new(manifest.clone()),
        });
        shm_pool::set_threads(manifest.effective_threads());
        let t = Instant::now();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            bench::run::run_manifest(manifest)
        }));
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        match outcome {
            Ok(result) => {
                let body = result.into_bytes();
                let sha = shm_scenario::content_hash(&body);
                if let Err(e) = std::fs::write(&result_path, &body) {
                    eprintln!("serve: write {}: {e}", result_path.display());
                }
                shared.log(&Event::Completed {
                    job_id: job_id.clone(),
                    result_sha: sha.clone(),
                    result_bytes: body.len() as u64,
                    rows: crate::server_row_count(&body),
                    wall_ms,
                });
                shared
                    .completed
                    .write()
                    .expect("completed map poisoned")
                    .insert(job_id.clone(), sha.clone());
                self.stats.completed += 1;
                *self
                    .stats
                    .wall_ms_by_kind
                    .entry(manifest.kind.as_str().to_owned())
                    .or_insert(0.0) += wall_ms;
                Reply::ok(&job_id, manifest.kind.as_str(), &sha, body, false)
            }
            Err(panic) => {
                let msg = panic_text(&panic);
                shared.log(&Event::Failed {
                    job_id,
                    error: msg.clone(),
                });
                self.stats.failed += 1;
                Reply::error(&ManifestError {
                    code: "job_panicked",
                    field: String::new(),
                    message: msg,
                })
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(path) = &self.shared.cfg.unix {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// One listener's acceptor thread, and how to wake it from `accept`.
struct Acceptor {
    thread: JoinHandle<()>,
    /// Connects to the listener's own address.
    wake: Box<dyn Fn() -> std::io::Result<()>>,
}

fn panic_text(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "job panicked".to_owned()
    }
}

/// Serves one socket connection: reads one manifest line of at most
/// [`MAX_LINE_BYTES`] and admits it. A rejection or a stored result is
/// answered here and then reported to the executor; a fresh job is queued
/// together with the connection, and the executor writes its reply
/// (`header\n` + `bytes` raw body bytes).
fn handle_conn<S: Read + Write + Send + 'static>(
    mut stream: S,
    source: &'static str,
    shared: &Shared,
    tx: &mpsc::Sender<Msg>,
) {
    let mut line = Vec::new();
    let cap = MAX_LINE_BYTES as u64 + 1;
    if BufReader::new((&mut stream).take(cap))
        .read_until(b'\n', &mut line)
        .is_err()
    {
        return;
    }
    let too_long = line.len() > MAX_LINE_BYTES && line.last() != Some(&b'\n');
    let text = if too_long {
        None
    } else {
        // The line keeps its newline, so parse errors name the same byte
        // offsets as they always have.
        match String::from_utf8(line) {
            Ok(text) if !text.trim().is_empty() => Some(text),
            // Blank or not UTF-8: no submission, so no reply.
            _ => return,
        }
    };
    shm_obs::counter!("serve.jobs");
    let (reply, answer) = match text {
        None => {
            let error = ManifestError {
                code: "bad_json",
                field: String::new(),
                message: format!("manifest line longer than {MAX_LINE_BYTES} bytes"),
            };
            (shared.reject(source, error), Answer::Rejected)
        }
        Some(text) => match shared.admit(&text, source) {
            Admission::Answered(reply, answer) => (reply, answer),
            Admission::Run(_) => {
                let _ = tx.send(Msg::Job {
                    text,
                    source,
                    conn: Box::new(stream),
                });
                return;
            }
        },
    };
    // A client that hung up just loses its reply.
    let _ = write_reply(&mut stream, &reply);
    let _ = tx.send(Msg::Answered(answer));
}

fn write_reply<W: Write>(w: &mut W, reply: &Reply) -> std::io::Result<()> {
    w.write_all(reply.header.as_bytes())?;
    w.write_all(b"\n")?;
    w.write_all(&reply.body)?;
    w.flush()
}

/// Reads one framed reply from a server stream: the header line, then
/// exactly `bytes` body bytes. Shared by the `submit` subcommand and the
/// round-trip tests.
pub fn read_reply<R: Read>(r: &mut R) -> std::io::Result<(String, Vec<u8>)> {
    let mut reader = BufReader::new(r);
    let mut header = String::new();
    reader.read_line(&mut header)?;
    let header = header.trim_end().to_owned();
    let n = json::parse(&header)
        .ok()
        .and_then(|v| v.get("bytes").and_then(Value::as_u64))
        .unwrap_or(0);
    let mut body = vec![0u8; n as usize];
    reader.read_exact(&mut body)?;
    Ok((header, body))
}

/// Submits one manifest line over a connected stream and reads the framed
/// reply.
pub fn submit_stream<S: Read + Write>(
    stream: &mut S,
    manifest_line: &str,
) -> std::io::Result<(String, Vec<u8>)> {
    stream.write_all(manifest_line.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()?;
    read_reply(stream)
}
