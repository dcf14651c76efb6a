//! Live progress telemetry: periodic frames on a deterministic step-count
//! cadence, surfaced as a human stderr ticker and a sorted JSONL stream.
//!
//! The design splits every frame into two halves with different contracts:
//!
//! * **Deterministic fields** (`count` plus whatever the emitting site
//!   passes) are pure functions of the workload. A [`Meter`] lives on one
//!   serial code path (the explorer's breadth-first phase, a subtree
//!   walker, the adversary's round loop), so everything it can see —
//!   frontier length, spilled bytes, deduplicated states — is thread-count
//!   independent. A [`SharedMeter`] is ticked one unit at a time from
//!   *parallel* jobs; it emits a frame exactly when the shared count
//!   crosses a cadence multiple, and because increments are unit-sized
//!   every multiple up to the final total is crossed exactly once — the
//!   *set* of emitted frames is identical at any thread count even though
//!   which worker emits each one is not. Shared frames therefore carry
//!   only the crossing count.
//! * **Wall fields** (`wall_ms`, `rate`, `eta_ms`, `rss_kb`) are
//!   scheduling- and machine-dependent by nature — exactly like the
//!   `pool.*` counters, they are declared nondeterministic and appear in
//!   the JSONL stream only when the sink was configured with
//!   [`Config::wall`] (the `--trace-wall` convention). The stderr ticker
//!   always shows them; it is human-facing and makes no determinism claim.
//!
//! Frames are buffered in a process-global sink and rendered at
//! [`finish`] time sorted by their deterministic content, so the JSONL
//! stream (without wall fields) is byte-identical at threads 1 vs 4. The
//! live ticker prints in real time, in completion order.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

/// Configuration of the progress sink.
#[derive(Clone, Debug, Default)]
pub struct Config {
    /// Cadence override: emit a frame every `every` units at every site.
    /// `None` keeps each site's own default (states for the explorer,
    /// schedules for PCT, rounds for the adversary, steps for the audit).
    pub every: Option<u64>,
    /// Print a live ticker line to stderr on each emitted frame
    /// (throttled to roughly 10 lines per second).
    pub ticker: bool,
    /// Include the wall fields (`wall_ms`, `rate`, `eta_ms`, `rss_kb`) in
    /// the rendered JSONL stream, giving up its byte-determinism — the
    /// `--trace-wall` convention.
    pub wall: bool,
}

/// One buffered progress frame.
#[derive(Clone, Debug)]
struct Frame {
    source: &'static str,
    label: String,
    track: Vec<u32>,
    /// Frame index within its meter (crossing count for [`SharedMeter`]);
    /// `u64::MAX` marks the summary frame so it sorts last.
    seq: u64,
    /// Deterministic fields, starting with `("count", n)`.
    fields: Vec<(&'static str, u64)>,
    wall_ms: f64,
    rate: f64,
    eta_ms: Option<f64>,
    rss_kb: Option<u64>,
}

impl Frame {
    /// The deterministic JSONL prefix (no closing brace): sort key and the
    /// byte-deterministic half of the rendered line.
    fn det_prefix(&self) -> String {
        let ty = if self.seq == u64::MAX {
            "progress_summary"
        } else {
            "progress"
        };
        let track: Vec<String> = self.track.iter().map(u32::to_string).collect();
        let mut out = format!(
            "{{\"type\":\"{ty}\",\"source\":\"{}\",\"label\":\"{}\",\"track\":[{}]",
            self.source,
            crate::report::json_escape(&self.label),
            track.join(",")
        );
        if self.seq != u64::MAX {
            let _ = write!(out, ",\"seq\":{}", self.seq);
        }
        for (k, v) in &self.fields {
            let _ = write!(out, ",\"{k}\":{v}");
        }
        out
    }

    fn wall_suffix(&self) -> String {
        let mut out = format!(",\"wall_ms\":{:.3},\"rate\":{:.1}", self.wall_ms, self.rate);
        if let Some(eta) = self.eta_ms {
            let _ = write!(out, ",\"eta_ms\":{eta:.0}");
        }
        if let Some(rss) = self.rss_kb {
            let _ = write!(out, ",\"rss_kb\":{rss}");
        }
        out
    }
}

struct Sink {
    cfg: Config,
    frames: Mutex<Vec<Frame>>,
    /// Nanoseconds (since `base`) before which the ticker stays quiet.
    ticker_quiet_until: AtomicU64,
    base: Instant,
}

static PROGRESS_ON: AtomicBool = AtomicBool::new(false);

fn sink_slot() -> &'static RwLock<Option<Arc<Sink>>> {
    static SLOT: OnceLock<RwLock<Option<Arc<Sink>>>> = OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(None))
}

/// Whether a progress sink is installed. Meter constructors return `None`
/// when it is not, so instrumented loops pay one branch on a held `None`.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    PROGRESS_ON.load(Ordering::Relaxed)
}

/// Installs a process-global progress sink.
pub fn install(cfg: Config) {
    *sink_slot().write().unwrap() = Some(Arc::new(Sink {
        cfg,
        frames: Mutex::new(Vec::new()),
        ticker_quiet_until: AtomicU64::new(0),
        base: Instant::now(),
    }));
    PROGRESS_ON.store(true, Ordering::SeqCst);
}

/// Uninstalls the sink and renders every buffered frame as JSONL, sorted
/// by deterministic content (wall fields appended only when the sink was
/// configured with [`Config::wall`]). `None` when no sink was installed.
#[must_use]
pub fn finish() -> Option<String> {
    PROGRESS_ON.store(false, Ordering::SeqCst);
    let sink = sink_slot().write().unwrap().take()?;
    let frames = std::mem::take(&mut *sink.frames.lock().unwrap());
    let mut lines: Vec<(String, String)> = frames
        .iter()
        .map(|f| {
            let suffix = if sink.cfg.wall {
                f.wall_suffix()
            } else {
                String::new()
            };
            (f.det_prefix(), suffix)
        })
        .collect();
    lines.sort();
    let mut out = String::new();
    for (prefix, suffix) in lines {
        out.push_str(&prefix);
        out.push_str(&suffix);
        out.push_str("}\n");
    }
    Some(out)
}

fn sink() -> Option<Arc<Sink>> {
    if !enabled() {
        return None;
    }
    sink_slot().read().unwrap().clone()
}

/// The current process's resident set size in KiB, from
/// `/proc/self/status` (`None` off Linux or when the read fails).
#[must_use]
pub fn rss_kb() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
        line.split_whitespace().nth(1)?.parse().ok()
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

impl Sink {
    fn push(&self, frame: Frame) {
        if self.cfg.ticker {
            self.tick_line(&frame);
        }
        crate::count("progress.frames", 1);
        self.frames.lock().unwrap().push(frame);
    }

    /// Prints a human line to stderr, throttled to ~10 lines/sec (summary
    /// frames always print).
    fn tick_line(&self, f: &Frame) {
        let now_ns = u64::try_from(self.base.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if f.seq != u64::MAX {
            let quiet = self.ticker_quiet_until.load(Ordering::Relaxed);
            if now_ns < quiet
                || self
                    .ticker_quiet_until
                    .compare_exchange(
                        quiet,
                        now_ns + 100_000_000,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    )
                    .is_err()
            {
                return;
            }
        }
        let mut line = format!("[progress] {} {}:", f.source, f.label);
        for (k, v) in &f.fields {
            let _ = write!(line, " {k}={v}");
        }
        let _ = write!(line, " ({:.0}/s", f.rate);
        if let Some(eta) = f.eta_ms {
            let _ = write!(line, ", eta {:.1}s", eta / 1e3);
        }
        if let Some(rss) = f.rss_kb {
            let _ = write!(line, ", rss {:.1} MiB", rss as f64 / 1024.0);
        }
        line.push(')');
        eprintln!("{line}");
    }
}

// Both meter shapes funnel through here; the argument list is the frame.
#[allow(clippy::too_many_arguments)]
fn build_frame(
    sink: &Sink,
    source: &'static str,
    label: &str,
    track: &[u32],
    seq: u64,
    count: u64,
    extra: &[(&'static str, u64)],
    t0: Instant,
    bound: Option<u64>,
) -> Frame {
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let rate = if wall_ms > 0.0 {
        count as f64 / (wall_ms / 1e3)
    } else {
        0.0
    };
    let eta_ms =
        bound.and_then(|b| (rate > 0.0 && b > count).then(|| (b - count) as f64 / rate * 1e3));
    let mut fields = Vec::with_capacity(extra.len() + 1);
    fields.push(("count", count));
    fields.extend_from_slice(extra);
    // Counter-series samples make the trajectory visible on the Chrome
    // trace timeline (ignored by every deterministic sink).
    for &(k, v) in &fields {
        crate::sample(k, v);
    }
    // The /proc read is the one non-trivial per-frame cost; skip it when
    // neither the ticker nor the wall-field suffix would ever show it.
    let rss_kb = if sink.cfg.ticker || sink.cfg.wall {
        rss_kb()
    } else {
        None
    };
    Frame {
        source,
        label: label.to_owned(),
        track: track.to_vec(),
        seq,
        fields,
        wall_ms,
        rate,
        eta_ms,
        rss_kb,
    }
}

// ---------------------------------------------------------- serial meter ----

/// A progress meter for a **serial** code path: everything it is handed is
/// a pure function of the workload, so its frames carry arbitrary
/// deterministic fields. Construct with [`Meter::new`] (returns `None`
/// when no sink is installed); call [`Meter::tick`] once per unit and emit
/// when it returns `true`.
pub struct Meter {
    sink: Arc<Sink>,
    source: &'static str,
    label: String,
    track: Vec<u32>,
    every: u64,
    bound: Option<u64>,
    count: u64,
    seq: u64,
    t0: Instant,
}

impl Meter {
    /// A meter emitting every `default_every` units (overridden by
    /// [`Config::every`]), with an optional known total for ETA. Captures
    /// the current thread's track path.
    #[must_use]
    pub fn new(
        source: &'static str,
        label: &str,
        default_every: u64,
        bound: Option<u64>,
    ) -> Option<Meter> {
        let sink = sink()?;
        let every = sink.cfg.every.unwrap_or(default_every).max(1);
        Some(Meter {
            sink,
            source,
            label: label.to_owned(),
            track: crate::track_path(),
            every,
            bound,
            count: 0,
            seq: 0,
            t0: Instant::now(),
        })
    }

    /// Counts `delta` units; `true` when a cadence boundary was crossed
    /// and the caller should [`Meter::emit`].
    #[must_use]
    pub fn tick(&mut self, delta: u64) -> bool {
        let before = self.count / self.every;
        self.count += delta;
        self.count / self.every > before
    }

    /// Units counted so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Emits a periodic frame carrying `count` plus `extra` fields.
    pub fn emit(&mut self, extra: &[(&'static str, u64)]) {
        self.seq += 1;
        let frame = build_frame(
            &self.sink,
            self.source,
            &self.label,
            &self.track,
            self.seq,
            self.count,
            extra,
            self.t0,
            self.bound,
        );
        self.sink.push(frame);
    }

    /// Emits the final summary frame (sorts after every periodic frame of
    /// this meter).
    pub fn summary(&mut self, extra: &[(&'static str, u64)]) {
        let frame = build_frame(
            &self.sink,
            self.source,
            &self.label,
            &self.track,
            u64::MAX,
            self.count,
            extra,
            self.t0,
            self.bound,
        );
        self.sink.push(frame);
    }
}

// ---------------------------------------------------------- shared meter ----

/// A progress meter ticked one unit at a time from **parallel** jobs.
///
/// The label and track path are captured at construction (on the serial
/// submitting path), and a frame is emitted exactly when the shared count
/// crosses a cadence multiple. Because every tick is unit-sized, each
/// multiple of the cadence up to the final total is crossed exactly once,
/// whatever the interleaving — so the set of frames (and hence the sorted
/// JSONL stream) is deterministic even though the emitting worker is not.
/// Shared frames carry only the crossing count; put the rich per-run
/// fields in a serial [`Meter`]'s summary instead.
pub struct SharedMeter {
    sink: Arc<Sink>,
    source: &'static str,
    label: String,
    track: Vec<u32>,
    every: u64,
    bound: Option<u64>,
    count: AtomicU64,
    t0: Instant,
}

impl SharedMeter {
    /// A shared meter emitting every `default_every` units (overridden by
    /// [`Config::every`]), with an optional known total for ETA.
    #[must_use]
    pub fn new(
        source: &'static str,
        label: &str,
        default_every: u64,
        bound: Option<u64>,
    ) -> Option<Arc<SharedMeter>> {
        let sink = sink()?;
        let every = sink.cfg.every.unwrap_or(default_every).max(1);
        Some(Arc::new(SharedMeter {
            sink,
            source,
            label: label.to_owned(),
            track: crate::track_path(),
            every,
            bound,
            count: AtomicU64::new(0),
            t0: Instant::now(),
        }))
    }

    /// Counts one unit from any thread; emits a frame at each cadence
    /// crossing.
    pub fn tick(&self) {
        let v = self.count.fetch_add(1, Ordering::Relaxed) + 1;
        if v % self.every == 0 {
            let frame = build_frame(
                &self.sink,
                self.source,
                &self.label,
                &self.track,
                v / self.every,
                v,
                &[],
                self.t0,
                self.bound,
            );
            self.sink.push(frame);
        }
    }

    /// Units counted so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Emits the final summary frame with rich deterministic fields — call
    /// from the serial path after the fan-out merged.
    pub fn summary(&self, extra: &[(&'static str, u64)]) {
        let frame = build_frame(
            &self.sink,
            self.source,
            &self.label,
            &self.track,
            u64::MAX,
            self.count(),
            extra,
            self.t0,
            self.bound,
        );
        self.sink.push(frame);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TEST_LOCK;

    fn with_sink<R>(cfg: Config, f: impl FnOnce() -> R) -> (R, String) {
        let _guard = TEST_LOCK.lock().unwrap();
        install(cfg);
        let r = f();
        let out = finish().expect("sink was installed");
        (r, out)
    }

    #[test]
    fn disabled_meters_are_none() {
        let _guard = TEST_LOCK.lock().unwrap();
        let _ = finish();
        assert!(!enabled());
        assert!(Meter::new("x", "l", 10, None).is_none());
        assert!(SharedMeter::new("x", "l", 10, None).is_none());
    }

    #[test]
    fn serial_meter_emits_on_cadence_and_summary_sorts_last() {
        let ((), out) = with_sink(Config::default(), || {
            let mut m = Meter::new("explore", "demo", 10, Some(25)).expect("installed");
            for _ in 0..25 {
                if m.tick(1) {
                    m.emit(&[("frontier", 7)]);
                }
            }
            m.summary(&[("explored", 25), ("spilled_bytes", 0)]);
        });
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3, "{out}");
        assert!(lines[0].contains("\"seq\":1") && lines[0].contains("\"count\":10"));
        assert!(lines[1].contains("\"seq\":2") && lines[1].contains("\"count\":20"));
        assert!(lines[2].contains("\"type\":\"progress_summary\""));
        assert!(lines[2].contains("\"explored\":25"));
        assert!(!out.contains("wall_ms"), "wall fields are opt-in");
        assert!(!out.contains("rss_kb"));
    }

    #[test]
    fn wall_fields_appear_only_when_configured() {
        let wall_cfg = Config {
            wall: true,
            ..Config::default()
        };
        let ((), out) = with_sink(wall_cfg, || {
            let mut m = Meter::new("explore", "demo", 1, Some(100)).expect("installed");
            assert!(m.tick(1));
            m.emit(&[]);
        });
        assert!(out.contains("\"wall_ms\":"), "{out}");
        assert!(out.contains("\"rate\":"));
        // ETA present when a bound is known and unreached.
        assert!(out.contains("\"eta_ms\":"));
        if cfg!(target_os = "linux") {
            assert!(out.contains("\"rss_kb\":"));
        }
    }

    #[test]
    fn shared_meter_crossing_set_is_thread_count_invariant() {
        let run = |threads: usize| {
            let ((), out) = with_sink(Config::default(), || {
                let m = SharedMeter::new("pct", "demo", 16, Some(96)).expect("installed");
                std::thread::scope(|s| {
                    for _ in 0..threads {
                        let m = &m;
                        s.spawn(move || {
                            for _ in 0..(96 / threads) {
                                m.tick();
                            }
                        });
                    }
                });
                assert_eq!(m.count(), 96);
                m.summary(&[("terminals", 42)]);
            });
            out
        };
        let serial = run(1);
        assert_eq!(serial, run(4), "sorted frames are byte-identical");
        assert_eq!(serial.lines().count(), 6 + 1, "6 crossings + summary");
        assert!(serial.contains("\"seq\":6") && serial.contains("\"count\":96"));
        assert!(serial.lines().last().unwrap().contains("\"terminals\":42"));
    }

    #[test]
    fn cadence_override_applies_everywhere() {
        let cfg = Config {
            every: Some(5),
            ..Config::default()
        };
        let (due, out) = with_sink(cfg, || {
            let mut m = Meter::new("x", "l", 1000, None).expect("installed");
            let mut due = 0;
            for _ in 0..10 {
                if m.tick(1) {
                    due += 1;
                    m.emit(&[]);
                }
            }
            due
        });
        assert_eq!(due, 2);
        assert_eq!(out.lines().count(), 2);
    }

    #[test]
    fn rss_sample_reads_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(rss_kb().unwrap_or(0) > 0);
        }
    }
}
