//! One `run` of one workload: set-up, then either the measured window
//! (end-to-end metrics) or the traced pass (per-layer metrics).

use crate::layers;
use crate::report::RunReport;
use crate::serve_mix::{self, Class, Expect, ServerChild, Session, Stop};
use crate::stats::{self, median, percentile};
use crate::workloads::{run_rep, RepResult, Size, Workload};
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Pool threads every workload runs at (the benchmark host has 2 cores).
pub const THREADS: usize = 2;
/// Set-ups per run; `setup_s` is their median. A set-up takes milliseconds,
/// so one reading moves with every wake-up delay on the host; a run takes
/// many.
const SETUP_REPEATS: usize = 21;
/// Full-size probes per rep-workload run; `peak_rss_mb` is their median.
/// Each runs one full rep, so they are few.
const RSS_PROBES: usize = 3;
/// Measured reps a window holds at least, after the warm-up rep.
const MIN_MEASURED_REPS: usize = 3;
/// Requests per traced serve session (after the warm-up).
const TRACE_SESSION_REQUESTS: u64 = 120;
/// The counters the traced pass reports, with their units.
const COUNTS: [(&str, &str); 19] = [
    ("sim.steps", "count"),
    ("ckpt.snapshot", "count"),
    ("ckpt.restore", "count"),
    ("replay.steps", "count"),
    ("erase.surgery", "count"),
    ("erase.refused", "count"),
    ("audit.steps", "count"),
    ("explore.states", "count"),
    ("explore.dedup", "count"),
    ("explore.sleep_pruned", "count"),
    ("store.hot_hits", "count"),
    ("store.cold_probes", "count"),
    ("store.spilled_bytes", "bytes"),
    ("store.runs_merged", "count"),
    ("pct.steps", "count"),
    ("pct.distinct_fingerprints", "count"),
    ("explore.shrink_replays", "count"),
    ("pool.steal", "count"),
    ("pool.idle", "count"),
];

/// Runs workload `w` and returns its report. `scratch` is a private
/// directory under the checkout for spill files and server state.
#[must_use]
pub fn run(w: Workload, seed: u64, seconds: u64, trace: bool, scratch: &Path) -> RunReport {
    shm_pool::set_threads(THREADS);
    let mut report = RunReport::default();
    let window = Duration::from_secs(seconds);
    match (w, trace) {
        (Workload::ServeMix, false) => serve_window(seed, window, scratch, &mut report),
        (Workload::ServeMix, true) => serve_traced(seed, scratch, &mut report),
        (_, false) => rep_window(w, seed, window, &mut report),
        (_, true) => rep_traced(w, seed, window, scratch, &mut report),
    }
    report
}

// ------------------------------------------------------- rep workloads ----

/// One timed rep plus the digest check against the run's first rep.
struct Timed {
    wall: f64,
    result: RepResult,
}

fn timed_rep(w: Workload, seed: u64, first: &mut Option<String>, report: &mut RunReport) -> Timed {
    let t = Instant::now();
    let mut result = run_rep(w, Size::Full, seed);
    let wall = t.elapsed().as_secs_f64();
    match first {
        None => *first = Some(result.digest.clone()),
        Some(d) if *d != result.digest => result.errors.push(format!(
            "output differs from the first rep: {} vs {d}",
            result.digest
        )),
        Some(_) => {}
    }
    report.record("rep", &result.errors);
    Timed { wall, result }
}

/// Set-up and memory of a rep workload, from fresh processes (see the
/// `probe` subcommand). `setup_s` is spawn to the first line of a probe
/// that verified the toy-size rep: pool start-up, input building and every
/// lazy initialization a user pays per invocation. `peak_rss_mb` is the
/// peak resident set of a probe that ran one full-size rep. Both are
/// medians over their probes.
fn rep_probes(w: Workload, seed: u64, report: &mut RunReport) {
    let mut secs = Vec::new();
    for _ in 0..SETUP_REPEATS {
        match probe(w, seed, Size::Toy) {
            Ok((s, _)) => {
                secs.push(s);
                report.record("set-up probe", &[]);
            }
            Err(e) => report.record("set-up probe", &[e]),
        }
    }
    report.metric("setup_s", median(&secs).unwrap_or(0.0), "s", secs.len());
    let mut rss = Vec::new();
    for _ in 0..RSS_PROBES {
        let mb = probe(w, seed, Size::Full).and_then(|(_, line)| {
            line.parse::<f64>()
                .map_err(|_| format!("probe reported {line:?}, not a peak resident set"))
        });
        match mb {
            Ok(mb) => {
                rss.push(mb);
                report.record("memory probe", &[]);
            }
            Err(e) => report.record("memory probe", &[e]),
        }
    }
    report.metric("peak_rss_mb", median(&rss).unwrap_or(0.0), "MiB", rss.len());
}

/// Runs one probe at `size`; returns seconds from spawn to its only line
/// of output, and that line.
fn probe(w: Workload, seed: u64, size: Size) -> Result<(f64, String), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let start = Instant::now();
    let mut child = Command::new(exe)
        .args(["probe", "--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--size", size.name()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("probe did not start: {e}"))?;
    let mut lines = BufReader::new(child.stdout.take().expect("stdout was piped")).lines();
    let line = lines.next().transpose().map_err(|e| e.to_string())?;
    let secs = start.elapsed().as_secs_f64();
    let status = child.wait().map_err(|e| e.to_string())?;
    match line {
        Some(line) if status.success() => Ok((secs, line)),
        _ => Err(format!("{size:?} probe failed ({status}, output {line:?})")),
    }
}

fn rep_window(w: Workload, seed: u64, window: Duration, report: &mut RunReport) {
    rep_probes(w, seed, report);
    let start = Instant::now();
    let mut first = None;
    let mut reps = Vec::new();
    loop {
        reps.push(timed_rep(w, seed, &mut first, report));
        if start.elapsed() >= window && reps.len() > MIN_MEASURED_REPS {
            break;
        }
    }
    // The first rep warms caches and the allocator; it is verified but
    // not timed.
    let measured = &reps[1..];
    let walls: Vec<f64> = measured.iter().map(|r| r.wall).collect();
    let p50 = median(&walls).unwrap_or(0.0);
    let work = measured[0].result.work as f64;
    report.metric("throughput_per_s", work / p50, "1/s", walls.len());
    report.metric("latency_p50_ms", p50 * 1e3, "ms", walls.len());
    let ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    println!(
        "{}: {} reps of {work} {} each, the first one warm-up; highest rep-wall tail with ten \
         samples beyond: {}",
        w.name(),
        reps.len(),
        w.work_unit(),
        tail(&ms)
    );
}

/// The highest percentile a sample supports (ten samples beyond it), for
/// the printed summary.
fn tail(ms: &[f64]) -> String {
    stats::supported_tail(ms.len())
        .and_then(|p| percentile(ms, p).map(|v| format!("p{p} {v:.3} ms of {}", ms.len())))
        .unwrap_or_else(|| format!("none ({} samples)", ms.len()))
}

fn rep_traced(w: Workload, seed: u64, window: Duration, scratch: &Path, report: &mut RunReport) {
    // Untraced reps give the baseline the traced rep is compared with.
    let start = Instant::now();
    let mut first = None;
    let mut walls = Vec::new();
    let mut cpu = 0.0;
    let mut wall_sum = 0.0;
    timed_rep(w, seed, &mut first, report);
    while walls.len() < 2 || start.elapsed() < window / 3 {
        let cpu0 = stats::cpu_seconds("self").unwrap_or(0.0);
        let r = timed_rep(w, seed, &mut first, report);
        cpu += stats::cpu_seconds("self").unwrap_or(0.0) - cpu0;
        wall_sum += r.wall;
        walls.push(r.wall);
    }
    let untraced = median(&walls).unwrap_or(0.0);

    // Thread-count determinism: the serial rep must match the digest.
    shm_pool::set_threads(1);
    let serial = timed_rep(w, seed, &mut first, report);
    shm_pool::set_threads(THREADS);

    let collector = shm_obs::Collector::new();
    shm_obs::install_collector(&collector);
    let traced = timed_rep(w, seed, &mut first, report);
    shm_obs::uninstall();
    let counts = crate::counter_totals(&collector.snapshot());
    drop(collector);

    report_counts(&counts, report);
    report.metric("pool.speedup_2v1", serial.wall / untraced, "x", 1);
    report.metric("pool.cpu_per_wall", cpu / wall_sum, "ratio", walls.len());
    report.metric(
        "trace_overhead_pct",
        (traced.wall / untraced - 1.0) * 100.0,
        "%",
        1,
    );
    layers::measure(w, seed, report);
    if let Some(run) = serve_session(seed, scratch.join("serve"), false, report) {
        absorb(&run.session, report);
        serve_layers(&run, report);
    }
}

/// Reports every counter of [`COUNTS`] and the dedup ratio.
fn report_counts(counts: &HashMap<String, u64>, report: &mut RunReport) {
    let get = |k: &str| counts.get(k).copied().unwrap_or(0);
    for (name, unit) in COUNTS {
        report.metric(name, get(name) as f64, unit, 1);
    }
    let (states, dedup) = (get("explore.states"), get("explore.dedup"));
    let ratio = if states + dedup == 0 {
        0.0
    } else {
        dedup as f64 / (states + dedup) as f64
    };
    report.metric("explore.dedup_ratio", ratio, "ratio", 1);
}

// ------------------------------------------------------------- serving ----

/// Folds a session's verification results into the run report.
fn absorb(session: &Session, report: &mut RunReport) {
    report.attempted += session.attempted;
    report.failed += session.failed;
    report.errors.extend(session.errors.iter().cloned());
}

/// The serve-layer metrics of one session (`exec` from the job log).
fn serve_metrics(session: &Session, exec: &HashMap<String, f64>, report: &mut RunReport) {
    let samples = &session.samples;
    for (name, class) in [
        ("serve.fresh_latency_p50_ms", Class::Fresh),
        ("serve.cached_latency_p50_ms", Class::Cached),
        ("serve.rejected_latency_p50_ms", Class::Rejected),
    ] {
        let xs = serve_mix::latencies(samples, Some(class));
        report.metric(name, median(&xs).unwrap_or(0.0), "ms", xs.len());
    }
    let (mut execs, mut waits) = (Vec::new(), Vec::new());
    for s in samples.iter().filter(|s| s.class == Class::Fresh) {
        if let Some(ms) = s.job_id.as_ref().and_then(|id| exec.get(id)) {
            execs.push(*ms);
            waits.push(s.latency_ms - ms);
        }
    }
    report.metric(
        "serve.exec_ms_p50",
        median(&execs).unwrap_or(0.0),
        "ms",
        execs.len(),
    );
    report.metric(
        "serve.wait_ms_p50",
        median(&waits).unwrap_or(0.0),
        "ms",
        waits.len(),
    );
    let cached = samples.iter().filter(|s| s.class == Class::Cached).count();
    report.metric(
        "serve.cached_share",
        cached as f64 / samples.len().max(1) as f64,
        "ratio",
        samples.len(),
    );
}

/// Milliseconds of an in-process `run_manifest` of `line` at `threads` (the
/// dispatch a server job goes through), checked byte for byte against
/// `served`.
fn run_manifest_ms(line: &str, served: &[u8], threads: usize, report: &mut RunReport) -> f64 {
    let m = match shm_scenario::Manifest::from_json(line) {
        Ok(m) => m,
        Err(e) => {
            report.record("run_manifest", &[format!("{line}: {}", e.to_json())]);
            return 0.0;
        }
    };
    shm_pool::set_threads(threads);
    let t = Instant::now();
    let bytes = bench::run::run_manifest(&m);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    shm_pool::set_threads(THREADS);
    let errors = if served == bytes.as_bytes() {
        Vec::new()
    } else {
        vec![format!(
            "in-process bytes at threads {threads} differ from the served bytes"
        )]
    };
    report.record("run_manifest", &errors);
    ms
}

/// The serve-layer metrics of an untraced session, and `run.manifest_ms`:
/// the session's first fresh E10 job re-run in process at 2 threads.
/// Returns that job's manifest line, served bytes and in-process time.
fn serve_layers<'a>(
    run: &'a SessionRun,
    report: &mut RunReport,
) -> Option<(&'a str, &'a [u8], f64)> {
    serve_metrics(&run.session, &run.exec, report);
    let Some((line, served)) = run.session.fresh_e10.first() else {
        report.record("serve", &["no fresh E10 job completed".into()]);
        return None;
    };
    let ms = run_manifest_ms(line, served, THREADS, report);
    report.metric("run.manifest_ms", ms, "ms", 1);
    Some((line, served, ms))
}

/// Starts a server and times spawn → first verified reply.
fn serve_setup(dir: PathBuf, seed: u64, session: &Mutex<Session>) -> (Option<ServerChild>, f64) {
    let t = Instant::now();
    let server = match ServerChild::spawn(&dir, None) {
        Ok(s) => s,
        Err(e) => {
            let mut s = session.lock().expect("session lock");
            s.attempted += 1;
            s.failed += 1;
            s.errors.push(format!("server did not start: {e}"));
            return (None, t.elapsed().as_secs_f64());
        }
    };
    let line = serve_mix::e10_line(seed, 2);
    let reply = serve_mix::submit(&server.addr, &line);
    let secs = t.elapsed().as_secs_f64();
    serve_mix::check_reply(session, &line, Expect::Ok, reply, secs * 1e3);
    (Some(server), secs)
}

fn serve_window(seed: u64, window: Duration, scratch: &Path, report: &mut RunReport) {
    // Set-up: spawn until the first reply, to the request a client's cycle
    // starts with, repeatedly on fresh state; the last server carries the
    // measured window.
    let setup_session = Mutex::new(Session::default());
    let mut secs = Vec::new();
    let mut server = None;
    for i in 0..SETUP_REPEATS as u64 {
        drop(server.take());
        let (s, t) = serve_setup(
            scratch.join(format!("serve-{i}")),
            seed ^ (i + 1),
            &setup_session,
        );
        secs.push(t);
        server = s;
    }
    let setup_session = setup_session.into_inner().expect("session lock");
    absorb(&setup_session, report);
    report.metric("setup_s", median(&secs).unwrap_or(0.0), "s", secs.len());
    let Some(server) = server else {
        return;
    };

    let session = Mutex::new(Session::default());
    serve_mix::drive(
        &server.addr,
        seed,
        0,
        Stop::Requests(serve_mix::WARMUP_REQUESTS),
        &session,
    );
    let warm = session.lock().expect("session lock").samples.len();
    let start = Instant::now();
    serve_mix::drive(&server.addr, seed, 1, Stop::At(start + window), &session);
    let wall = start.elapsed().as_secs_f64();
    let rss = server.peak_rss_mb();
    drop(server);

    let session = session.into_inner().expect("session lock");
    absorb(&session, report);
    for (line, served) in &session.fresh_e10 {
        run_manifest_ms(line, served, THREADS, report);
    }

    let samples = &session.samples[warm.min(session.samples.len())..];
    let lat = serve_mix::latencies(samples, None);
    report.metric(
        "throughput_per_s",
        lat.len() as f64 / wall,
        "1/s",
        lat.len(),
    );
    report.metric(
        "latency_p50_ms",
        median(&lat).unwrap_or(0.0),
        "ms",
        lat.len(),
    );
    report.metric("peak_rss_mb", rss.unwrap_or(0.0), "MiB", 1);

    let share =
        |c| samples.iter().filter(|s| s.class == c).count() as f64 / samples.len().max(1) as f64;
    println!(
        "serve-mix: {} replies in {wall:.3} s after {warm} warm-up; realized shares fresh {:.3}, \
         cached {:.3}, rejected {:.3}; p99 {:.3} ms; highest tail with ten samples beyond: {}",
        lat.len(),
        share(Class::Fresh),
        share(Class::Cached),
        share(Class::Rejected),
        percentile(&lat, 99.0).unwrap_or(0.0),
        tail(&lat),
    );
}

/// What one fixed-length serve session measured.
struct SessionRun {
    /// The measured requests (warm-up removed).
    session: Session,
    /// Job-log execution milliseconds by job ID.
    exec: HashMap<String, f64>,
    /// The server's CPU seconds per wall second over the measured requests.
    cpu_per_wall: f64,
    /// The server's counter totals (traced sessions only).
    counts: HashMap<String, u64>,
}

/// One fixed-length closed-loop session against a fresh server.
fn serve_session(
    seed: u64,
    dir: PathBuf,
    traced: bool,
    report: &mut RunReport,
) -> Option<SessionRun> {
    let total = serve_mix::WARMUP_REQUESTS + TRACE_SESSION_REQUESTS;
    let server = match ServerChild::spawn(&dir, traced.then_some(total)) {
        Ok(s) => s,
        Err(e) => {
            report.record("serve", &[format!("server did not start: {e}")]);
            return None;
        }
    };
    let session = Mutex::new(Session::default());
    let warm = Stop::Requests(serve_mix::WARMUP_REQUESTS);
    serve_mix::drive(&server.addr, seed, 0, warm, &session);
    let warm = session.lock().expect("session lock").samples.len();
    let cpu0 = server.cpu_seconds().unwrap_or(0.0);
    let t = Instant::now();
    let measured = Stop::Requests(TRACE_SESSION_REQUESTS);
    serve_mix::drive(&server.addr, seed, 1, measured, &session);
    let wall = t.elapsed().as_secs_f64();
    let cpu = server.cpu_seconds().unwrap_or(0.0) - cpu0;
    let exec = server.exec_ms();
    let counts = if traced {
        match server.finish() {
            Ok(c) => c,
            Err(e) => {
                report.record("serve", &[format!("traced server: {e}")]);
                HashMap::new()
            }
        }
    } else {
        HashMap::new()
    };
    let mut session = session.into_inner().expect("session lock");
    session.samples.drain(..warm.min(session.samples.len()));
    Some(SessionRun {
        session,
        exec,
        cpu_per_wall: cpu / wall,
        counts,
    })
}

fn serve_traced(seed: u64, scratch: &Path, report: &mut RunReport) {
    let Some(untraced) = serve_session(seed, scratch.join("serve-untraced"), false, report) else {
        return;
    };
    let Some(traced) = serve_session(seed, scratch.join("serve-traced"), true, report) else {
        return;
    };
    let session = &untraced.session;
    absorb(session, report);
    absorb(&traced.session, report);
    let untraced_p50 = median(&serve_mix::latencies(&session.samples, None)).unwrap_or(0.0);
    let traced_p50 = median(&serve_mix::latencies(&traced.session.samples, None)).unwrap_or(0.0);

    report_counts(&traced.counts, report);
    report.metric("pool.cpu_per_wall", untraced.cpu_per_wall, "ratio", 1);
    report.metric(
        "trace_overhead_pct",
        (traced_p50 / untraced_p50 - 1.0) * 100.0,
        "%",
        session.samples.len(),
    );
    // The first fresh E10 job in process at 1 thread too: it must also
    // match the served bytes.
    if let Some((line, served, two)) = serve_layers(&untraced, report) {
        let one = run_manifest_ms(line, served, 1, report);
        report.metric("pool.speedup_2v1", one / two, "x", 1);
    }
    layers::measure(Workload::ServeMix, seed, report);
}
