//! The job server: spool + socket ingestion, sequential deterministic
//! execution, and the record/replay job log.
//!
//! Submissions arrive from a watched spool directory (`*.json` manifest
//! files) and from line-delimited TCP/Unix sockets. Each is validated and
//! content-hashed into a job ID; new jobs are appended to the job log,
//! executed on the in-process pool at the manifest's thread count, and
//! their canonical result bytes written to the results directory and
//! streamed back to socket clients. Resubmitting a manifest that already
//! completed replays the stored bytes (`"cached":true`) without re-running
//! — and because the completed-jobs map is rebuilt from the job log at
//! startup, idempotency survives restarts.
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
use std::sync::mpsc;
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
    /// Spool scan / accept-loop cadence in milliseconds.
    pub poll_ms: u64,
}

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

struct SocketJob {
    text: String,
    source: &'static str,
    /// The connection to write the framed reply to. Held through the
    /// channel so the core loop writes replies synchronously — the server
    /// cannot hit an exit condition with a reply still in flight.
    conn: Box<dyn Write + Send>,
}

/// The bound server. [`Server::bind`] creates listeners (so tests can read
/// the ephemeral [`Server::tcp_addr`] before serving); [`Server::run`]
/// blocks until an exit condition fires.
pub struct Server {
    cfg: ServeConfig,
    tcp: Option<TcpListener>,
    unix: Option<UnixListener>,
    /// job_id → result_sha of every job whose result bytes are on disk.
    completed: BTreeMap<String, String>,
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
        let tcp = match &cfg.tcp {
            Some(addr) => {
                let l = TcpListener::bind(addr)?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        let unix = match &cfg.unix {
            Some(path) => {
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        Ok(Server {
            cfg,
            tcp,
            unix,
            completed,
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
    /// serves forever). Returns the run's stats.
    pub fn run(mut self) -> std::io::Result<ServeStats> {
        let (tx, rx) = mpsc::channel::<SocketJob>();
        let mut last_activity = Instant::now();
        let mut last_spool_scan = Instant::now() - Duration::from_secs(3600);
        loop {
            let mut active = false;
            // Accept every waiting connection; each gets a handler thread
            // that reads one manifest line and waits for its reply.
            if let Some(l) = &self.tcp {
                while let Ok((stream, _)) = l.accept() {
                    let tx = tx.clone();
                    std::thread::spawn(move || handle_conn(stream, "tcp", &tx));
                    active = true;
                }
            }
            if let Some(l) = &self.unix {
                while let Ok((stream, _)) = l.accept() {
                    let tx = tx.clone();
                    std::thread::spawn(move || handle_conn(stream, "unix", &tx));
                    active = true;
                }
            }
            if last_spool_scan.elapsed() >= Duration::from_millis(self.cfg.poll_ms) {
                last_spool_scan = Instant::now();
                active |= self.scan_spool();
            }
            while let Ok(mut job) = rx.try_recv() {
                let reply = self.execute(&job.text, job.source);
                // A client that hung up just loses its reply.
                let _ = write_reply(&mut job.conn, &reply);
                active = true;
            }
            if active {
                last_activity = Instant::now();
            }
            if let Some(max) = self.cfg.max_jobs {
                if self.stats.processed() >= max {
                    break;
                }
            }
            if let Some(idle) = self.cfg.idle_exit_ms {
                if last_activity.elapsed() >= Duration::from_millis(idle) {
                    break;
                }
            }
            if !active {
                std::thread::sleep(Duration::from_millis(self.cfg.poll_ms.min(5)));
            }
        }
        Ok(std::mem::take(&mut self.stats))
    }

    /// Ingests every `*.json` file in the spool directory, in sorted-name
    /// order (deterministic given a fixed set of files). Each file is
    /// removed once processed; rejects leave a `<stem>.error.json` next to
    /// the results so the submitter can see why.
    fn scan_spool(&mut self) -> bool {
        let Some(spool) = self.cfg.spool.clone() else {
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
            let reply = self.execute(&text, "spool");
            if reply.body.is_empty() {
                let stem = path
                    .file_stem()
                    .map_or_else(|| "submission".into(), |s| s.to_string_lossy().into_owned());
                let err_path = self.cfg.results_dir.join(format!("{stem}.error.json"));
                let _ = std::fs::write(err_path, format!("{}\n", reply.header));
            }
            let _ = std::fs::remove_file(&path);
            any = true;
        }
        any
    }

    /// Validates, dedups, logs, and (for new jobs) executes one submission.
    fn execute(&mut self, text: &str, source: &str) -> Reply {
        let _span = shm_obs::Span::enter("serve.job");
        shm_obs::counter!("serve.jobs");
        let manifest = match Manifest::from_json(text) {
            Ok(m) => m,
            Err(e) => {
                self.stats.rejected += 1;
                self.log(&Event::Rejected {
                    source: source.into(),
                    error: e.clone(),
                });
                return Reply::error(&e);
            }
        };
        let job_id = manifest.job_id();
        let result_path = self.cfg.results_dir.join(format!("{job_id}.json"));
        if let Some(sha) = self.completed.get(&job_id) {
            if let Ok(body) = std::fs::read(&result_path) {
                shm_obs::counter!("serve.dedup");
                self.stats.deduped += 1;
                return Reply::ok(&job_id, manifest.kind.as_str(), sha, body, true);
            }
            // Result bytes vanished since bind(): fall through and re-run.
            self.completed.remove(&job_id);
        }
        self.log(&Event::Submitted {
            job_id: job_id.clone(),
            source: source.into(),
            manifest: Box::new(manifest.clone()),
        });
        shm_pool::set_threads(manifest.effective_threads());
        let t = Instant::now();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            bench::run::run_manifest(&manifest)
        }));
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        match outcome {
            Ok(result) => {
                let body = result.into_bytes();
                let sha = shm_scenario::content_hash(&body);
                if let Err(e) = std::fs::write(&result_path, &body) {
                    eprintln!("serve: write {}: {e}", result_path.display());
                }
                self.log(&Event::Completed {
                    job_id: job_id.clone(),
                    result_sha: sha.clone(),
                    result_bytes: body.len() as u64,
                    rows: crate::server_row_count(&body),
                    wall_ms,
                });
                self.completed.insert(job_id.clone(), sha.clone());
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
                self.log(&Event::Failed {
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

    fn log(&self, event: &Event) {
        if let Err(e) = joblog::append(&self.cfg.joblog, event) {
            eprintln!("serve: append {}: {e}", self.cfg.joblog.display());
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(path) = &self.cfg.unix {
            let _ = std::fs::remove_file(path);
        }
    }
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

/// Serves one socket connection: reads one manifest line and queues it
/// together with the connection; the core loop executes the job and writes
/// the reply (`header\n` + `bytes` raw body bytes) before it can exit.
fn handle_conn<S: Read + Write + SetBlocking + Send + 'static>(
    stream: S,
    source: &'static str,
    tx: &mpsc::Sender<SocketJob>,
) {
    let mut stream = stream;
    // Accepted sockets may inherit the listener's nonblocking flag.
    let _ = stream.set_blocking();
    let mut reader = BufReader::new(&mut stream);
    let mut line = String::new();
    if reader.read_line(&mut line).is_err() || line.trim().is_empty() {
        return;
    }
    let _ = tx.send(SocketJob {
        text: line,
        source,
        conn: Box::new(stream),
    });
}

fn write_reply<W: Write>(w: &mut W, reply: &Reply) -> std::io::Result<()> {
    w.write_all(reply.header.as_bytes())?;
    w.write_all(b"\n")?;
    w.write_all(&reply.body)?;
    w.flush()
}

/// The one stream capability the handler needs beyond Read+Write.
trait SetBlocking {
    fn set_blocking(&mut self) -> std::io::Result<()>;
}

impl SetBlocking for TcpStream {
    fn set_blocking(&mut self) -> std::io::Result<()> {
        self.set_nonblocking(false)
    }
}

impl SetBlocking for UnixStream {
    fn set_blocking(&mut self) -> std::io::Result<()> {
        self.set_nonblocking(false)
    }
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
