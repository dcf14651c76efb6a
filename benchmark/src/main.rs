//! `benchmark` — the cc-dsm repository benchmark.
//!
//! ```text
//! benchmark run --workload W --seed N --seconds S --trace 0|1
//! benchmark all [--seed N] [--trace] [--out FILE]
//! benchmark compare A.jsonl B.jsonl [--bench-json FILE]
//! ```
//!
//! `run` measures one workload and ends stdout with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`, where `metrics` holds
//! every end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`). `all` runs every workload for `BENCHMARK.json`'s
//! `run_seconds`, each in its own child process (so peak memory is per
//! workload), and exits nonzero if any output failed
//! verification. `compare` judges two sets of `all --out` results against
//! the bounds in `BENCHMARK.json`. Two more subcommands are internal: the
//! set-up `probe` and the child job server `serve`. See README.md.

mod compare;
mod layers;
mod report;
mod run;
mod serve_mix;
mod stats;
mod workloads;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use workloads::{Size, Workload};

/// Sums every counter of a collector snapshot by name, over all tracks.
#[must_use]
pub fn counter_totals(snap: &shm_obs::Snapshot) -> HashMap<String, u64> {
    let mut totals = HashMap::new();
    for (_, track) in &snap.tracks {
        for (key, v) in &track.counters {
            *totals.entry(key.name.to_owned()).or_insert(0) += v;
        }
    }
    totals
}

/// Command-line flags of one subcommand: `--name value` pairs and bare
/// `--name` switches, checked against what the subcommand accepts.
struct Flags {
    values: HashMap<String, String>,
    positional: Vec<String>,
}

impl Flags {
    /// Parses `args`; `valued` flags take a value, `switches` do not.
    fn parse(args: &[String], valued: &[&str], switches: &[&str]) -> Result<Flags, String> {
        let mut values = HashMap::new();
        let mut positional = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if valued.contains(&name) {
                    let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    values.insert(name.to_owned(), v.clone());
                } else if switches.contains(&name) {
                    values.insert(name.to_owned(), String::new());
                } else {
                    return Err(format!("unknown flag --{name}"));
                }
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Flags { values, positional })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    fn has(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    fn num(&self, name: &str, default: Option<u64>) -> Result<u64, String> {
        match self.get(name) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} takes a whole number, got {v:?}")),
            None => default.ok_or_else(|| format!("--{name} is required")),
        }
    }

    fn workload(&self) -> Result<Workload, String> {
        let name = self.get("workload").ok_or("--workload is required")?;
        Workload::from_name(name).ok_or_else(|| {
            let all: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload {name:?} (expected one of {all:?})")
        })
    }
}

/// A private directory under the checkout for spill files and server
/// state, removed when dropped. `TMPDIR` points at it so the explorer's
/// spill files stay inside the checkout too.
struct Scratch(PathBuf);

impl Scratch {
    fn create() -> std::io::Result<Scratch> {
        let dir = std::env::current_dir()?
            .join(".bench_tmp")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)?;
        // Single-threaded here: no other thread can be reading the
        // environment yet.
        std::env::set_var("TMPDIR", &dir);
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds when no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let rest = args.get(2..).unwrap_or_default();
    let result = match args.get(1).map(String::as_str) {
        Some("run") => cmd_run(rest),
        Some("all") => cmd_all(rest),
        Some("compare") => cmd_compare(rest),
        Some("probe") => cmd_probe(rest),
        Some("serve") => cmd_serve(rest),
        _ => Err("usage: benchmark run|all|compare [flags] (see README.md)".into()),
    };
    match result {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(2);
        }
    }
}

fn cmd_run(args: &[String]) -> Result<i32, String> {
    let f = Flags::parse(args, &["workload", "seed", "seconds", "trace"], &[])?;
    let w = f.workload()?;
    let seed = f.num("seed", None)?;
    let seconds = f.num("seconds", None)?;
    let trace = match f.num("trace", Some(0))? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace takes 0 or 1, got {t}")),
    };
    if !f.positional.is_empty() {
        return Err(format!("unexpected arguments {:?}", f.positional));
    }
    let scratch = Scratch::create().map_err(|e| format!("scratch directory: {e}"))?;
    println!(
        "{}: seed {seed}, {seconds} s, trace {}, {} pool threads, {} cores available",
        w.name(),
        u8::from(trace),
        run::THREADS,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let report = run::run(w, seed, seconds, trace, &scratch.0);
    drop(scratch);
    report.print_summary(w.name());
    println!("{}", report.to_json());
    Ok(if report.correct() { 0 } else { 1 })
}

/// The probe a rep workload's run starts in fresh processes: it runs one
/// rep at `--size toy` (the parent times set-up up to its line of output)
/// or `--size full`, then prints one line: its peak resident set in MiB.
/// Exits 1 when the rep fails verification.
fn cmd_probe(args: &[String]) -> Result<i32, String> {
    let f = Flags::parse(args, &["workload", "seed", "size"], &[])?;
    let w = f.workload()?;
    let seed = f.num("seed", None)?;
    let size = [Size::Toy, Size::Full]
        .into_iter()
        .find(|s| Some(s.name()) == f.get("size"))
        .ok_or("--size takes toy or full")?;
    if w == Workload::ServeMix {
        return Err("serve-mix sets up by starting a server, not by probing".into());
    }
    shm_pool::set_threads(run::THREADS);
    let r = workloads::run_rep(w, size, seed);
    for e in &r.errors {
        eprintln!("probe {} ({size:?}): {e}", w.name());
    }
    println!("{}", stats::peak_rss_mb("self").unwrap_or(0.0));
    Ok(i32::from(!r.errors.is_empty()))
}

fn cmd_serve(args: &[String]) -> Result<i32, String> {
    let f = Flags::parse(args, &["dir", "trace-max-jobs"], &[])?;
    let dir = f.get("dir").ok_or("--dir is required")?;
    let max_jobs = f
        .has("trace-max-jobs")
        .then(|| f.num("trace-max-jobs", None))
        .transpose()?;
    Ok(serve_mix::serve_child(Path::new(dir), max_jobs))
}

/// `BENCHMARK.json` in the working directory (the repository root), which
/// fixes the run length and the metric bounds.
const BENCH_JSON: &str = "BENCHMARK.json";

fn cmd_all(args: &[String]) -> Result<i32, String> {
    let f = Flags::parse(args, &["seed", "out"], &["trace"])?;
    let seed = f.num("seed", Some(1))?;
    let spec = std::fs::read_to_string(BENCH_JSON)
        .map_err(|e| format!("read {BENCH_JSON} (run from the repository root): {e}"))?;
    let seconds = shm_scenario::json::parse(&spec)
        .ok()
        .and_then(|v| {
            v.get("run_seconds")
                .and_then(shm_scenario::json::Value::as_u64)
        })
        .ok_or(format!("{BENCH_JSON} has no whole-number run_seconds"))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut out = match f.get("out") {
        Some(path) => Some(
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("open {path}: {e}"))?,
        ),
        None => None,
    };
    let traces: &[u8] = if f.has("trace") { &[0, 1] } else { &[0] };
    let mut ok = true;
    for w in Workload::ALL {
        for &trace in traces {
            let output = Command::new(&exe)
                .args(["run", "--workload", w.name()])
                .args([
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                ])
                .args(["--trace", &trace.to_string()])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("spawn {}: {e}", w.name()))?;
            let text = String::from_utf8_lossy(&output.stdout);
            print!("{text}");
            let last = text.lines().last().unwrap_or_default();
            let parsed = shm_scenario::json::parse(last).ok();
            let correct = parsed
                .as_ref()
                .and_then(|v| v.get("correct"))
                .and_then(shm_scenario::json::Value::as_bool);
            if !output.status.success() || correct != Some(true) {
                eprintln!(
                    "benchmark all: {} (trace {trace}) failed verification",
                    w.name()
                );
                ok = false;
            }
            if let (Some(file), Some(_)) = (out.as_mut(), parsed) {
                use std::io::Write as _;
                writeln!(
                    file,
                    "{{\"workload\": \"{}\", \"seed\": {seed}, \"trace\": {trace}, \"result\": {last}}}",
                    w.name()
                )
                .map_err(|e| format!("write results: {e}"))?;
            }
        }
    }
    Ok(if ok { 0 } else { 1 })
}

fn cmd_compare(args: &[String]) -> Result<i32, String> {
    let f = Flags::parse(args, &["bench-json"], &[])?;
    let [a, b] = f.positional.as_slice() else {
        return Err("usage: benchmark compare A.jsonl B.jsonl [--bench-json FILE]".into());
    };
    let bench_json = f.get("bench-json").unwrap_or(BENCH_JSON);
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"));
    let lines = compare::compare(&read(bench_json)?, &read(a)?, &read(b)?)?;
    for line in lines {
        println!("{line}");
    }
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn flags_reject_unknown_and_valueless() {
        let ok = Flags::parse(
            &strs(&["--seed", "3", "--trace", "x"]),
            &["seed"],
            &["trace"],
        );
        let f = ok.expect("parses");
        assert_eq!(f.num("seed", None), Ok(3));
        assert!(f.has("trace"));
        assert_eq!(f.positional, ["x"]);
        assert!(Flags::parse(&strs(&["--size", "3"]), &["seed"], &[]).is_err());
        assert!(Flags::parse(&strs(&["--seed"]), &["seed"], &[]).is_err());
        let f = Flags::parse(&strs(&["--seed", "x"]), &["seed"], &[]).expect("parses");
        assert!(f.num("seed", None).is_err());
    }
}
