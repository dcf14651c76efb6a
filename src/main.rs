//! `cc-dsm`: the command-line front end of the reproduction.
//!
//! ```text
//! cc-dsm run <e1..e10> [scenario flags] [--canon FILE] [obs flags]
//! cc-dsm all [--threads N] [--canon-dir DIR] [--obs-dir DIR] [--json]
//!            [--obs-summary] [--trace-wall] [--progress[=N]] [--profile[=N]]
//! cc-dsm serve run [--results DIR] [--joblog FILE] [--spool DIR] [--tcp ADDR]
//!                  [--unix PATH] [--max-jobs N] [--idle-exit-ms N]
//!                  [--poll-ms N] [--history FILE]
//! cc-dsm serve replay --joblog FILE [--results DIR] [--json FILE]
//! cc-dsm serve submit (--tcp ADDR | --unix PATH) --manifest FILE [--out FILE]
//! cc-dsm diff [--history FILE] [--out FILE] [--strict]
//! ```
//!
//! Every subcommand reads argv through one strict parser over a table of
//! the flags it accepts: an unknown token, a flag missing its value, or a
//! malformed number prints a `cc-dsm/error/v1` object on stderr and exits 2.
//! Scenario flags become a normalized manifest
//! ([`shm_scenario::cli::manifest_from_args`]), and every experiment runs
//! through [`bench::run::run_rows`] — the dispatch the job server uses — so
//! `run --canon` writes exactly the bytes a served job streams.
//!
//! - `run` prints the table, writes `--canon` and the observability sinks,
//!   then the paper tie-in and the verdict.
//! - `all` runs E1–E10 in order in this process. `--canon-dir` writes every
//!   `eN.json`; `--obs-dir` writes each kind's metrics, Chrome trace,
//!   progress frames, and profile; `--json` appends one record of the walls
//!   to the `BENCH_history.jsonl` perf ledger, the only timing record the
//!   front end writes.
//! - `serve` is the deterministic batch job server ([`shm_serve`]): `run`
//!   serves manifests from a spool directory and sockets (with `--tcp` the
//!   bound address is printed as `listening tcp HOST:PORT`; `--poll-ms` is
//!   the spool-scan cadence, default 20, and sockets never wait on it;
//!   `--history` appends the per-kind walls to the ledger), `replay`
//!   re-executes a job log and asserts byte-identical results, `submit`
//!   sends one manifest over a socket.
//! - `diff` compares the latest ledger record against the per-metric
//!   median of the previous runs (`--strict` fails on a regression).
//!
//! Exit codes: 0 success; 1 a failing verdict, a replay mismatch, or a
//! runtime error; 2 bad input or a rejected submission.

use bench::cli::{obs_finish, obs_install, ObsFlags};
use bench::history::{self, DiffEntry, Record};
use bench::run::{heading, run_rows, Rows};
use shm_scenario::cli::manifest_from_args;
use shm_scenario::{ExperimentKind, Manifest, ManifestError, ALL_KINDS};
use shm_serve::{replay, ServeConfig, Server};
use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Why a subcommand stopped early.
enum Stop {
    /// Bad input: a `cc-dsm/error/v1` object on stderr, exit 2.
    Usage(ManifestError),
    /// A runtime failure (I/O, sockets): a message on stderr, exit 1.
    Failed(String),
}

impl From<ManifestError> for Stop {
    fn from(e: ManifestError) -> Self {
        Stop::Usage(e)
    }
}

/// A subcommand's exit code, or why it stopped early.
type Outcome = Result<i32, Stop>;

fn usage(code: &'static str, field: &str, message: impl Into<String>) -> Stop {
    Stop::Usage(ManifestError {
        code,
        field: field.into(),
        message: message.into(),
    })
}

fn failed<E: Display>(context: impl Display) -> impl FnOnce(E) -> Stop {
    move |e| Stop::Failed(format!("{context}: {e}"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match dispatch(&args) {
        Ok(code) => code,
        Err(Stop::Usage(e)) => {
            eprintln!("{}", e.to_json());
            2
        }
        Err(Stop::Failed(message)) => {
            eprintln!("cc-dsm: {message}");
            1
        }
    };
    std::process::exit(code);
}

fn dispatch(args: &[String]) -> Outcome {
    let expected = "expected `run <e1..e10>`, `all`, `serve run|replay|submit`, or `diff`";
    let Some((cmd, rest)) = args.split_first() else {
        return Err(usage("unknown_command", "", expected));
    };
    match (cmd.as_str(), rest.split_first()) {
        ("run", _) => cmd_run(rest),
        ("all", _) => cmd_all(rest),
        ("serve", Some((sub, rest))) if sub == "run" => serve_run(rest),
        ("serve", Some((sub, rest))) if sub == "replay" => serve_replay(rest),
        ("serve", Some((sub, rest))) if sub == "submit" => serve_submit(rest),
        ("diff", _) => cmd_diff(rest),
        _ => Err(usage("unknown_command", cmd, expected)),
    }
}

// ------------------------------------------------------------- parser ----

/// How a flag takes its value.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Arity {
    /// A bare switch: `--audit`.
    Switch,
    /// The next token: `--canon FILE`.
    Value,
    /// The next token, a non-negative integer: `--max-jobs 4`.
    Count,
    /// Bare, or `=N` with a positive integer: `--progress`, `--progress=50`.
    OptEq,
}

/// A table of accepted flags.
type Table = &'static [(&'static str, Arity)];

use Arity::{Count, OptEq, Switch, Value};

/// The scenario flags [`manifest_from_args`] reads.
const SCENARIO: Table = &[
    ("--sizes", Value),
    ("--seed", Value),
    ("--threads", Value),
    ("--polls", Value),
    ("--waiters", Value),
    ("--n", Value),
    ("--cycles", Value),
    ("--max-polls", Value),
    ("--mem-budget", Value),
    ("--deep", Switch),
    ("--audit", Switch),
    ("--algorithm", Value),
    ("--model", Value),
    ("--oracle", Value),
    ("--objective", Value),
];

/// The observability sinks ([`ObsFlags`]).
const OBS: Table = &[
    ("--metrics", Value),
    ("--trace-chrome", Value),
    ("--trace-jsonl", Value),
    ("--obs-summary", Switch),
    ("--trace-wall", Switch),
    ("--progress", OptEq),
    ("--progress-jsonl", Value),
    ("--profile", OptEq),
    ("--profile-folded", Value),
    ("--profile-json", Value),
];

const RUN: Table = &[("--canon", Value)];
const ALL: Table = &[
    ("--threads", Value),
    ("--json", Switch),
    ("--canon-dir", Value),
    ("--obs-dir", Value),
    ("--obs-summary", Switch),
    ("--trace-wall", Switch),
    ("--progress", OptEq),
    ("--profile", OptEq),
];
const SERVE_RUN: Table = &[
    ("--results", Value),
    ("--joblog", Value),
    ("--spool", Value),
    ("--tcp", Value),
    ("--unix", Value),
    ("--max-jobs", Count),
    ("--idle-exit-ms", Count),
    ("--poll-ms", Count),
    ("--history", Value),
];
const SERVE_REPLAY: Table = &[("--joblog", Value), ("--results", Value), ("--json", Value)];
const SERVE_SUBMIT: Table = &[
    ("--tcp", Value),
    ("--unix", Value),
    ("--manifest", Value),
    ("--out", Value),
];
const DIFF: Table = &[("--history", Value), ("--out", Value), ("--strict", Switch)];

/// A parsed command line: each accepted flag with its value, if any.
struct Flags(Vec<(&'static str, Option<String>)>);

impl Flags {
    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|(f, _)| *f == flag)
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(f, _)| *f == flag)
            .and_then(|(_, v)| v.as_deref())
    }

    /// The value of a [`Count`] or [`OptEq`] flag (validated by [`parse`]).
    fn count(&self, flag: &str) -> Option<u64> {
        self.get(flag).and_then(|v| v.parse().ok())
    }

    fn path(&self, flag: &str) -> Option<PathBuf> {
        self.get(flag).map(PathBuf::from)
    }
}

/// Parses `args` against the union of `tables`, rejecting any token that
/// is not an accepted flag, a repeated flag, a flag missing its value, and
/// a malformed number.
fn parse(args: &[String], tables: &[Table]) -> Result<Flags, Stop> {
    let mut flags = Flags(Vec::new());
    let mut tokens = args.iter();
    while let Some(token) = tokens.next() {
        let (name, eq) = match token.split_once('=') {
            Some((name, v)) => (name, Some(v)),
            None => (token.as_str(), None),
        };
        let found = tables
            .iter()
            .flat_map(|t| t.iter())
            .find(|(f, _)| *f == name);
        let Some(&(flag, arity)) = found.filter(|(_, a)| eq.is_none() || *a == OptEq) else {
            return Err(usage(
                "unknown_flag",
                token,
                format!("unknown flag {token:?}"),
            ));
        };
        if flags.has(flag) {
            return Err(usage("duplicate_flag", flag, format!("{flag} given twice")));
        }
        let value = match (arity, eq) {
            (Switch | OptEq, None) => None,
            (_, Some(v)) if v.parse::<u64>().is_ok_and(|n| n > 0) => Some(v.to_string()),
            (_, Some(v)) => {
                let message = format!("{flag}=N takes a positive integer (got {v:?})");
                return Err(usage("bad_type", flag, message));
            }
            (Value | Count, None) => {
                let Some(v) = tokens.next().filter(|v| !v.starts_with("--")) else {
                    return Err(usage(
                        "missing_value",
                        flag,
                        format!("{flag} takes a value"),
                    ));
                };
                if arity == Count && v.parse::<u64>().is_err() {
                    let message = format!("{flag} takes a non-negative integer (got {v:?})");
                    return Err(usage("bad_type", flag, message));
                }
                Some(v.clone())
            }
        };
        flags.0.push((flag, value));
    }
    Ok(flags)
}

fn obs_flags(f: &Flags) -> ObsFlags {
    let owned = |flag| f.get(flag).map(str::to_owned);
    ObsFlags {
        metrics: owned("--metrics"),
        trace_chrome: owned("--trace-chrome"),
        trace_jsonl: owned("--trace-jsonl"),
        summary: f.has("--obs-summary"),
        wall: f.has("--trace-wall"),
        progress: f.has("--progress"),
        progress_every: f.count("--progress"),
        progress_jsonl: owned("--progress-jsonl"),
        profile_top: f
            .has("--profile")
            .then(|| f.count("--profile").map_or(20, |n| n as usize)),
        profile_folded: owned("--profile-folded"),
        profile_json: owned("--profile-json"),
    }
}

fn apply_threads(m: &Manifest) {
    if let Some(t) = m.threads {
        shm_pool::set_threads(t as usize);
    }
}

fn write(path: &str, body: &str) -> Result<(), Stop> {
    std::fs::write(path, body).map_err(failed(format!("write {path}")))
}

// ---------------------------------------------------------------- run ----

fn cmd_run(args: &[String]) -> Outcome {
    let expected = "`cc-dsm run` takes an experiment kind, e1..e10";
    let Some((kind, rest)) = args.split_first() else {
        return Err(usage("unknown_kind", "", expected));
    };
    let kind = ExperimentKind::parse(kind).ok_or_else(|| usage("unknown_kind", kind, expected))?;
    let flags = parse(rest, &[SCENARIO, OBS, RUN])?;
    let m = manifest_from_args(kind, rest)?;
    apply_threads(&m);
    let (_, pass) = run_one(&m, flags.get("--canon"), &obs_flags(&flags))?;
    Ok(if pass { 0 } else { 1 })
}

/// Runs one experiment end to end: heading, table, canonical file,
/// observability sinks, then the tie-in and verdict. Every file is written
/// before the verdict, so a failing run still leaves its counterexamples
/// behind. Returns the rows and whether the verdict passed.
fn run_one(m: &Manifest, canon: Option<&str>, obs: &ObsFlags) -> Result<(Rows, bool), Stop> {
    let collector = obs_install(obs);
    println!("{}\n", heading(m));
    let rows = run_rows(m);
    rows.print_table();
    if let Some(path) = canon {
        write(path, &rows.canon())?;
        println!("\nwrote {path}");
    }
    obs_finish(obs, collector.as_ref()).map_err(Stop::Failed)?;
    let pass = rows.report(m);
    Ok((rows, pass))
}

// ---------------------------------------------------------------- all ----

/// The name each kind's wall is recorded under in the perf ledger (and its
/// `--obs-dir` files are named after), in [`ALL_KINDS`] order — the
/// experiments' historical names, kept so the ledger's baseline carries
/// over.
const LEDGER_NAMES: [&str; 10] = [
    "exp_e1_cc_upper",
    "exp_e2_dsm_lower",
    "exp_e3_variants",
    "exp_e4_primitives",
    "exp_e5_messages",
    "exp_e6_mutex",
    "exp_e7_fixed_w",
    "exp_e8_transformation",
    "exp_e9_explore",
    "exp_e10_pct",
];

fn cmd_all(args: &[String]) -> Outcome {
    let flags = parse(args, &[ALL])?;
    let manifests = ALL_KINDS
        .iter()
        .map(|&kind| manifest_from_args(kind, args))
        .collect::<Result<Vec<_>, _>>()?;
    let canon_dir = flags.get("--canon-dir");
    let obs_dir = flags.get("--obs-dir");
    for dir in canon_dir.iter().chain(&obs_dir) {
        std::fs::create_dir_all(dir).map_err(failed(format!("create {dir}")))?;
    }
    apply_threads(&manifests[0]);
    let base_obs = obs_flags(&flags);
    let mut metrics = BTreeMap::new();
    let mut total_ms = 0.0;
    for (m, name) in manifests.iter().zip(LEDGER_NAMES) {
        println!("\n================================================================");
        println!("== cc-dsm run {}", m.kind.as_str());
        println!("================================================================\n");
        let in_obs_dir = |suffix: &str| obs_dir.map(|d| format!("{d}/{name}.{suffix}"));
        let obs = ObsFlags {
            metrics: in_obs_dir("metrics.json"),
            trace_chrome: in_obs_dir("trace.json"),
            progress_jsonl: in_obs_dir("progress.jsonl"),
            profile_json: in_obs_dir("profile.json"),
            ..base_obs.clone()
        };
        let canon = canon_dir.map(|d| format!("{d}/{}.json", m.kind.as_str()));
        let t = Instant::now();
        let (rows, pass) = run_one(m, canon.as_deref(), &obs)?;
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        if !pass {
            return Ok(1);
        }
        total_ms += wall_ms;
        metrics.insert(format!("wall_ms.{name}"), wall_ms);
        if let Rows::E9(rows) = &rows {
            // The E9 rows carry the deterministic memory trajectory; summed
            // over rows they give the suite's logical peak/spill figures.
            let sum = |f: fn(&shm_scenario::E9Row) -> u64| rows.iter().map(f).sum::<u64>() as f64;
            metrics.insert(
                "e9.peak_visited_bytes".into(),
                sum(|r| r.peak_visited_bytes),
            );
            metrics.insert("e9.spilled_bytes".into(), sum(|r| r.spilled_bytes));
        }
    }
    metrics.insert("wall_ms.total".into(), total_ms);
    if flags.has("--json") {
        // One record in the ledger `cc-dsm diff` compares the latest record
        // of against the per-metric median of the previous runs.
        let record = Record::now(shm_pool::threads(), metrics);
        let ledger = "BENCH_history.jsonl";
        record
            .append_to(ledger)
            .map_err(failed(format!("append {ledger}")))?;
        println!("\nappended {ledger} ({})", record.git_sha);
    }
    Ok(0)
}

// -------------------------------------------------------------- serve ----

fn serve_run(args: &[String]) -> Outcome {
    let flags = parse(args, &[SERVE_RUN])?;
    let cfg = ServeConfig {
        results_dir: flags.path("--results").unwrap_or("serve-results".into()),
        joblog: flags.path("--joblog").unwrap_or("JOBLOG.jsonl".into()),
        spool: flags.path("--spool"),
        tcp: flags.get("--tcp").map(str::to_owned),
        unix: flags.path("--unix"),
        max_jobs: flags.count("--max-jobs"),
        idle_exit_ms: flags.count("--idle-exit-ms"),
        poll_ms: flags.count("--poll-ms").unwrap_or(20),
    };
    let server = Server::bind(cfg).map_err(failed("serve: bind"))?;
    if let Some(addr) = server.tcp_addr() {
        println!("listening tcp {addr}");
        let _ = std::io::stdout().flush();
    }
    let stats = server.run().map_err(failed("serve"))?;
    println!(
        "served {} job(s): {} completed, {} cached, {} rejected, {} failed",
        stats.processed(),
        stats.completed,
        stats.deduped,
        stats.rejected,
        stats.failed,
    );
    if let Some(path) = flags.get("--history") {
        let mut metrics: BTreeMap<String, f64> = stats
            .wall_ms_by_kind
            .iter()
            .map(|(kind, ms)| (format!("serve_wall_ms.{kind}"), *ms))
            .collect();
        metrics.insert("serve_jobs".into(), stats.processed() as f64);
        match Record::now(shm_pool::threads(), metrics).append_to(path) {
            Ok(()) => println!("appended serve walls to {path}"),
            Err(e) => eprintln!("cc-dsm: serve: append {path}: {e}"),
        }
    }
    Ok(0)
}

fn serve_replay(args: &[String]) -> Outcome {
    let flags = parse(args, &[SERVE_REPLAY])?;
    let Some(joblog) = flags.path("--joblog") else {
        return Err(usage(
            "missing_flag",
            "--joblog",
            "serve replay needs --joblog FILE",
        ));
    };
    let results = flags.path("--results");
    let report = replay(&joblog, results.as_deref()).map_err(failed("serve replay"))?;
    let json = report.to_json();
    if let Some(path) = flags.get("--json") {
        std::fs::write(path, &json).map_err(failed(format!("serve replay: write {path}")))?;
        println!("wrote {path}");
    }
    print!("{json}");
    if report.clean() {
        println!(
            "replay clean: {}/{} completed job(s) reproduced byte-for-byte",
            report.verified, report.jobs,
        );
        return Ok(0);
    }
    for m in &report.mismatches {
        eprintln!("REPLAY MISMATCH: {m}");
    }
    Ok(1)
}

fn serve_submit(args: &[String]) -> Outcome {
    let flags = parse(args, &[SERVE_SUBMIT])?;
    let Some(manifest) = flags.get("--manifest") else {
        return Err(usage(
            "missing_flag",
            "--manifest",
            "serve submit needs --manifest FILE",
        ));
    };
    let text = std::fs::read_to_string(manifest).map_err(|e| {
        usage(
            "bad_manifest_file",
            "--manifest",
            format!("read {manifest}: {e}"),
        )
    })?;
    // The socket protocol is line-delimited: collapse the manifest to one
    // line (JSON whitespace is insignificant; job IDs hash the canonical
    // form, so formatting never changes the job).
    let line = text.replace('\n', " ");
    let reply = match (flags.get("--tcp"), flags.get("--unix")) {
        (Some(addr), _) => std::net::TcpStream::connect(addr)
            .and_then(|mut s| shm_serve::submit_stream(&mut s, &line)),
        (None, Some(path)) => std::os::unix::net::UnixStream::connect(path)
            .and_then(|mut s| shm_serve::submit_stream(&mut s, &line)),
        (None, None) => {
            let message = "serve submit needs --tcp ADDR or --unix PATH";
            return Err(usage("missing_flag", "--tcp", message));
        }
    };
    let (header, body) = reply.map_err(failed("serve submit"))?;
    println!("{header}");
    if header.contains("\"status\":\"error\"") {
        return Ok(2);
    }
    match flags.get("--out") {
        Some(path) => {
            std::fs::write(path, &body).map_err(failed(format!("serve submit: write {path}")))?
        }
        None => {
            let _ = std::io::stdout().write_all(&body);
        }
    }
    Ok(0)
}

// --------------------------------------------------------------- diff ----

fn fmt_val(v: f64) -> String {
    if v.abs() >= 10_000.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

/// The `cc-dsm/bench-diff/v1` artifact.
fn diff_artifact(entries: &[DiffEntry], regressions: usize) -> String {
    let mut out = format!(
        "{{\n  \"schema\": \"cc-dsm/bench-diff/v1\",\n  \"regressions\": {regressions},\n  \"metrics\": [\n"
    );
    for (i, e) in entries.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"latest\": {}, \"baseline\": {}, \"delta_pct\": {}, \"regression\": {}}}{}",
            e.name,
            fmt_val(e.latest),
            e.baseline.map_or("null".into(), fmt_val),
            e.delta_pct.map_or("null".into(), |d| format!("{d:.1}")),
            e.regression,
            if i + 1 < entries.len() { "," } else { "" },
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Compares the latest ledger record against its baseline (per-metric
/// median of the previous runs) with noise-aware thresholds: a metric
/// regresses when it is ≥ 1.5× worse than its baseline (walls additionally
/// need ≥ 50 ms of absolute growth). Regressions print GitHub `::warning`
/// annotations — a soft gate — unless `--strict` makes them fail. Fewer
/// than two records is a pass: no baseline yet.
fn cmd_diff(args: &[String]) -> Outcome {
    let flags = parse(args, &[DIFF])?;
    let path = flags.get("--history").unwrap_or("BENCH_history.jsonl");
    let text = std::fs::read_to_string(path)
        .map_err(|e| usage("bad_history", "--history", format!("read {path}: {e}")))?;
    let records = history::parse_records(&text);
    let Some((latest, prior)) = records.split_last() else {
        let message = format!("{path} holds no {} records", history::SCHEMA);
        return Err(usage("bad_history", "--history", message));
    };
    println!(
        "cc-dsm diff: latest {} ({} threads, {}) vs {} prior record(s)",
        latest.git_sha,
        latest.threads,
        latest.utc_date,
        prior.len()
    );
    let entries = if prior.is_empty() {
        println!("no baseline yet — nothing to compare (pass)");
        Vec::new()
    } else {
        history::diff(latest, prior)
    };
    let regressions = entries.iter().filter(|e| e.regression).count();
    if !entries.is_empty() {
        println!(
            "\n{:<40} {:>14} {:>14} {:>9}  status",
            "metric", "latest", "baseline", "delta"
        );
    }
    for e in &entries {
        let status = match (e.regression, e.baseline) {
            (true, _) => "REGRESSION",
            (false, None) => "new",
            (false, Some(_)) => "ok",
        };
        println!(
            "{:<40} {:>14} {:>14} {:>9}  {status}",
            e.name,
            fmt_val(e.latest),
            e.baseline.map_or_else(|| "-".into(), fmt_val),
            e.delta_pct
                .map_or_else(|| "-".into(), |d| format!("{d:+.1}%")),
        );
    }
    for e in entries.iter().filter(|e| e.regression) {
        // GitHub annotation syntax: surfaces on the workflow summary page
        // without failing the job (the soft gate).
        println!(
            "::warning title=perf regression::{} is {} vs baseline {} ({:+.1}%)",
            e.name,
            fmt_val(e.latest),
            fmt_val(e.baseline.unwrap_or(0.0)),
            e.delta_pct.unwrap_or(0.0)
        );
    }
    if let Some(out) = flags.get("--out") {
        write(out, &diff_artifact(&entries, regressions))?;
        println!("wrote {out}");
    }
    if regressions == 0 {
        if !prior.is_empty() {
            println!("\nno regressions against the noise-aware thresholds");
        }
        return Ok(0);
    }
    println!("\n{regressions} regression(s) flagged");
    Ok(if flags.has("--strict") { 1 } else { 0 })
}
