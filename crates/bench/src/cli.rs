//! The observability sinks of the `cc-dsm` front end: [`ObsFlags`] names
//! the requested outputs (the front end's argv parser fills it in),
//! [`obs_install`] installs the collector before an experiment runs, and
//! [`obs_finish`] writes the sinks and uninstalls it afterwards.

/// Observability outputs requested on the command line: `--metrics
/// out.json` (deterministic counter report), `--trace-jsonl out.jsonl`
/// (event stream), `--trace-chrome out.json`
/// (Chrome `trace_event` timeline), `--obs-summary` (counter totals on
/// stdout), `--trace-wall` (adds wall-clock timestamps, lanes, and
/// scheduling-dependent counters to the JSONL stream, giving up its
/// byte-determinism), `--progress[=N]` (live stderr ticker, cadence
/// override N; `--progress-jsonl out.jsonl` also writes the sorted frame
/// stream), and `--profile[=N]` (top-N span self-time table on stdout;
/// `--profile-folded`/`--profile-json` write flamegraph folded stacks and
/// the profile JSON).
#[derive(Clone, Debug, Default)]
pub struct ObsFlags {
    /// `--metrics <path>`: write the deterministic metrics JSON.
    pub metrics: Option<String>,
    /// `--trace-chrome <path>`: write a Chrome/Perfetto trace.
    pub trace_chrome: Option<String>,
    /// `--trace-jsonl <path>`: write the JSONL event stream.
    pub trace_jsonl: Option<String>,
    /// `--obs-summary`: print deterministic counter totals on stdout.
    pub summary: bool,
    /// `--trace-wall`: include timestamps/lanes/nondeterministic counters
    /// in the JSONL stream — and wall/rate/ETA/RSS fields in the progress
    /// JSONL stream.
    pub wall: bool,
    /// `--progress[=N]`: live stderr progress ticker (and enable frame
    /// collection), emitting every N units where given.
    pub progress: bool,
    /// Cadence override from `--progress=N`.
    pub progress_every: Option<u64>,
    /// `--progress-jsonl <path>`: write the sorted progress-frame JSONL
    /// stream (implies frame collection, without the stderr ticker).
    pub progress_jsonl: Option<String>,
    /// `--profile[=N]`: print the top-N span self-time table on stdout
    /// (default 20).
    pub profile_top: Option<usize>,
    /// `--profile-folded <path>`: write folded stacks for flamegraph
    /// tooling.
    pub profile_folded: Option<String>,
    /// `--profile-json <path>`: write the `shm-obs/profile/v1` JSON.
    pub profile_json: Option<String>,
}

impl ObsFlags {
    /// Whether progress frames were requested in any form.
    #[must_use]
    pub fn progress_on(&self) -> bool {
        self.progress || self.progress_jsonl.is_some()
    }

    /// Whether a sink backed by the span/counter collector was requested.
    /// Progress frames alone deliberately do NOT require one: the progress
    /// sink buffers its own frames, so progress-only runs skip span and
    /// counter recording entirely (the ≤ 2% enabled-overhead budget).
    #[must_use]
    pub fn collector_on(&self) -> bool {
        self.metrics.is_some()
            || self.trace_chrome.is_some()
            || self.trace_jsonl.is_some()
            || self.summary
            || self.profile_on()
    }

    /// Whether a span-time profile was requested in any form.
    #[must_use]
    pub fn profile_on(&self) -> bool {
        self.profile_top.is_some() || self.profile_folded.is_some() || self.profile_json.is_some()
    }
}

/// Installs an `shm-obs` collector when a collector-backed sink was
/// requested; recording stays zero-cost-disabled otherwise. Also installs
/// the progress sink when progress frames were requested — on its own
/// that skips span/counter recording entirely (frames self-buffer), so
/// `--progress` / `--progress-jsonl` cost only the cadence checks.
#[must_use]
pub fn obs_install(flags: &ObsFlags) -> Option<std::sync::Arc<shm_obs::Collector>> {
    if flags.progress_on() {
        shm_obs::progress::install(shm_obs::progress::Config {
            every: flags.progress_every,
            ticker: flags.progress,
            wall: flags.wall,
        });
    }
    flags.collector_on().then(|| {
        let c = shm_obs::Collector::new();
        shm_obs::install_collector(&c);
        c
    })
}

/// Writes the requested sinks from the collector installed by
/// [`obs_install`] and uninstalls it. No-op when `collector` is
/// `None`. A sink that cannot be written stops the rest and comes back as
/// `write PATH: ERR`; the collector is uninstalled either way.
pub fn obs_finish(
    flags: &ObsFlags,
    collector: Option<&std::sync::Arc<shm_obs::Collector>>,
) -> Result<(), String> {
    let sink = |path: &Option<String>, body: &dyn Fn() -> String| -> Result<(), String> {
        if let Some(path) = path {
            std::fs::write(path, body()).map_err(|e| format!("write {path}: {e}"))?;
            println!("wrote {path}");
        }
        Ok(())
    };
    // Drain the progress sink before uninstalling the collector: rendering
    // happens here, so the frame stream is sorted (deterministic order)
    // whatever order workers emitted in. Progress needs no collector.
    let progress_out = shm_obs::progress::finish();
    if collector.is_some() {
        shm_obs::uninstall();
    }
    sink(&flags.progress_jsonl, &|| {
        progress_out.clone().unwrap_or_default()
    })?;
    let Some(c) = collector else { return Ok(()) };
    let snap = c.snapshot();
    if flags.profile_on() {
        let prof = shm_obs::profile(&snap);
        if let Some(n) = flags.profile_top {
            println!("\nspan self-time profile (top {n}):");
            print!("{}", prof.table(n));
        }
        sink(&flags.profile_folded, &|| prof.folded())?;
        sink(&flags.profile_json, &|| prof.to_json())?;
    }
    let report = || shm_obs::MetricsReport::from_snapshot(&snap);
    sink(&flags.metrics, &|| report().to_json())?;
    sink(&flags.trace_jsonl, &|| shm_obs::jsonl(&snap, flags.wall))?;
    sink(&flags.trace_chrome, &|| shm_obs::chrome_trace(&snap))?;
    if flags.summary {
        let report = report();
        println!("\nobs summary (deterministic counter totals):");
        for name in report.names() {
            println!("  {:<24} {}", name, report.total(name));
        }
    }
    Ok(())
}
