//! # shm-obs: spans, attributed counters, and deterministic sinks
//!
//! Dependency-free observability layer for the cc-dsm workspace. The design
//! constraints come from the repo's determinism contract:
//!
//! * **Zero-cost when disabled.** All instrumentation goes through free
//!   functions ([`count`], [`Span::enter`]) that check one relaxed atomic
//!   load and return immediately when no [`Recorder`] is installed. The
//!   default recorder is a no-op; hot loops pay one predictable branch.
//! * **Deterministic merging.** Recording threads write into *track*-local
//!   buffers. A track is a path of submission indices (`[2, 1]` = shard 1
//!   of row job 2) maintained by `shm-pool`: the pool pushes the job index
//!   on both its serial and parallel paths, so the set of tracks — and
//!   every deterministic counter in them — is byte-identical at every
//!   thread count. [`Collector::snapshot`] merges tracks in lexicographic
//!   path order, never in completion order.
//! * **Attributed counts, not just totals.** A [`CounterKey`] carries
//!   optional process / memory-location / cost-model / scope dimensions, so
//!   RMRs can be charged "to the signaler during the chase under DSM"
//!   rather than to a single global bucket (§8's RMR-vs-messages
//!   distinction needs exactly this).
//! * **Declared nondeterminism.** Scheduling-dependent counters (the
//!   pool's steal/idle counts) are registered as nondeterministic in
//!   [`registry`] and excluded from the deterministic sinks
//!   ([`MetricsReport`], the no-wall JSONL stream, `--canon` obs blocks).
//!
//! Three sinks consume a [`Collector`] snapshot: the in-memory
//! [`MetricsReport`] (canonical JSON, byte-identical across thread counts),
//! a JSONL event stream ([`jsonl`]), and a Chrome `trace_event` exporter
//! ([`chrome_trace`]) with one lane per pool worker.

#![warn(missing_docs)]
#![warn(clippy::all)]

mod chrome;
pub mod profile;
pub mod progress;
mod report;

pub use chrome::chrome_trace;
pub use profile::{profile, Profile};
pub use report::{jsonl, MetricsReport};

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

// ------------------------------------------------------------------ keys ----

/// Identity of one counter cell: a static name plus optional attribution
/// dimensions. Totals are kept per distinct key; sinks aggregate over the
/// dimensions they care about.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct CounterKey {
    /// Counter name from the [`registry`] (free-form names are allowed but
    /// get the registry's defaults: deterministic, no help text).
    pub name: &'static str,
    /// Phase scope, e.g. `part1` / `chase` / `discovery`.
    pub scope: Option<&'static str>,
    /// Cost-model tag, e.g. `dsm` / `cc-wt-dir`.
    pub model: Option<&'static str>,
    /// Process the count is attributed to.
    pub pid: Option<u32>,
    /// Memory location (cell address) the count is attributed to.
    pub loc: Option<u32>,
}

impl CounterKey {
    /// A key with no attribution dimensions.
    #[must_use]
    pub fn plain(name: &'static str) -> Self {
        CounterKey {
            name,
            scope: None,
            model: None,
            pid: None,
            loc: None,
        }
    }
}

/// One span boundary, as recorded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name (static, from the instrumentation site).
    pub name: &'static str,
    /// `true` for the opening boundary, `false` for the closing one.
    pub begin: bool,
    /// Worker lane the event was recorded on (0 = main thread).
    pub lane: u32,
    /// Nanoseconds since the collector was created (wall clock).
    pub t_ns: u64,
}

/// One timestamped counter-series sample (a point on a trajectory, not an
/// increment): value of `name` at `t_ns`. Samples are wall-timestamped and
/// feed only the nondeterministic sinks (Chrome trace `"C"` events); every
/// deterministic sink ignores them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterSample {
    /// Series name (e.g. `spilled_bytes`, `frontier`).
    pub name: &'static str,
    /// Nanoseconds since the collector was created (wall clock).
    pub t_ns: u64,
    /// Sampled value.
    pub value: u64,
}

/// Everything one track recorded: ordered span boundaries plus aggregated
/// counter cells.
#[derive(Clone, Debug, Default)]
pub struct TrackData {
    /// Span boundaries in recording order (properly nested per thread).
    pub spans: Vec<SpanEvent>,
    /// Counter totals by key.
    pub counters: BTreeMap<CounterKey, u64>,
    /// Counter-series samples in recording order (wall-clocked; excluded
    /// from the deterministic sinks).
    pub samples: Vec<CounterSample>,
}

/// A deterministic snapshot of a [`Collector`]: tracks in lexicographic
/// path order.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// `(track path, data)` pairs, sorted by path.
    pub tracks: Vec<(Vec<u32>, TrackData)>,
}

// ------------------------------------------------------------- registry ----

/// Static registry of the workspace's counters. Names not listed here are
/// accepted and treated as deterministic.
pub mod registry {
    /// One registered counter.
    pub struct CounterDef {
        /// Counter name.
        pub name: &'static str,
        /// Whether the counter's value is a pure function of the workload
        /// (thread-count and scheduling independent). Nondeterministic
        /// counters are excluded from the deterministic sinks.
        pub deterministic: bool,
        /// One-line description.
        pub help: &'static str,
    }

    /// The registered counters, in canonical order.
    pub const COUNTERS: &[CounterDef] = &[
        CounterDef {
            name: "sim.steps",
            deterministic: true,
            help: "simulator state-machine transitions executed (includes replay work)",
        },
        CounterDef {
            name: "sim.rmr",
            deterministic: true,
            help: "remote memory references in a flushed final history",
        },
        CounterDef {
            name: "sim.local",
            deterministic: true,
            help: "local (non-RMR) accesses in a flushed final history",
        },
        CounterDef {
            name: "sim.inval",
            deterministic: true,
            help: "cache invalidations in a flushed final history",
        },
        CounterDef {
            name: "ckpt.snapshot",
            deterministic: true,
            help: "checkpoints captured",
        },
        CounterDef {
            name: "ckpt.restore",
            deterministic: true,
            help: "checkpoint restores",
        },
        CounterDef {
            name: "replay.steps",
            deterministic: true,
            help: "schedule entries re-stepped by the erasure re-step path",
        },
        CounterDef {
            name: "erase.surgery",
            deterministic: true,
            help: "erasures applied by DSM event-walk surgery",
        },
        CounterDef {
            name: "erase.replay",
            deterministic: true,
            help: "erasures applied by the re-step path (CC models)",
        },
        CounterDef {
            name: "erase.refused",
            deterministic: true,
            help: "erasures refused by projection certification",
        },
        CounterDef {
            name: "fingerprint.exact_check",
            deterministic: true,
            help: "exact projection cross-checks of the rolling-hash fingerprints",
        },
        CounterDef {
            name: "audit.shards",
            deterministic: true,
            help: "differential-audit shards walked",
        },
        CounterDef {
            name: "audit.steps",
            deterministic: true,
            help: "schedule steps shadow-executed by the audit",
        },
        CounterDef {
            name: "audit.events",
            deterministic: true,
            help: "recorded events diffed by the audit",
        },
        CounterDef {
            name: "audit.rmr",
            deterministic: true,
            help: "RMRs re-priced by the audit's naive shadow executor",
        },
        CounterDef {
            name: "part1.rounds",
            deterministic: true,
            help: "Part-1 adversary rounds executed",
        },
        CounterDef {
            name: "part1.rollforward",
            deterministic: true,
            help: "Part-1 rounds that hit the roll-forward case",
        },
        CounterDef {
            name: "part2.rmr.signaler",
            deterministic: true,
            help: "RMRs attributed to the signaler in a Part-2 phase",
        },
        CounterDef {
            name: "part2.rmr.waiters",
            deterministic: true,
            help: "RMRs attributed to waiters in a Part-2 phase",
        },
        CounterDef {
            name: "part2.erased",
            deterministic: true,
            help: "stable waiters erased during the wild goose chase",
        },
        CounterDef {
            name: "part2.blocked",
            deterministic: true,
            help: "chase erasures blocked by certification",
        },
        CounterDef {
            name: "explore.states",
            deterministic: true,
            help: "schedule-space states expanded by the explorer",
        },
        CounterDef {
            name: "explore.dedup",
            deterministic: true,
            help: "child states pruned by state-fingerprint deduplication",
        },
        CounterDef {
            name: "explore.sleep_pruned",
            deterministic: true,
            help: "transitions skipped by sleep-set partial-order reduction",
        },
        CounterDef {
            name: "explore.bound_pruned",
            deterministic: true,
            help: "transitions cut by the depth or preemption bound",
        },
        CounterDef {
            name: "explore.terminals",
            deterministic: true,
            help: "terminal (all-processes-done) states reached by the explorer",
        },
        CounterDef {
            name: "explore.violations",
            deterministic: true,
            help: "oracle-violating states found by the explorer",
        },
        CounterDef {
            name: "explore.shrink_replays",
            deterministic: true,
            help: "candidate replays tried by counterexample shrinking",
        },
        CounterDef {
            name: "store.hot_hits",
            deterministic: true,
            help: "visited-store dedup hits answered by the hot in-memory tier",
        },
        CounterDef {
            name: "store.cold_probes",
            deterministic: true,
            help: "visited-store disk-run probes (prefilter passes; includes false positives)",
        },
        CounterDef {
            name: "store.spilled_bytes",
            deterministic: true,
            help: "delta-compressed bytes spilled to disk (visited runs + packed frontier nodes)",
        },
        CounterDef {
            name: "store.runs_merged",
            deterministic: true,
            help: "cold runs consumed by log-structured k-way merges",
        },
        CounterDef {
            name: "progress.frames",
            deterministic: false,
            help: "progress frames emitted (which worker crosses a cadence boundary is scheduling-dependent)",
        },
        CounterDef {
            name: "pool.execute",
            deterministic: false,
            help: "jobs executed per worker lane",
        },
        CounterDef {
            name: "pool.steal",
            deterministic: false,
            help: "jobs stolen from another worker's queue",
        },
        CounterDef {
            name: "pool.idle",
            deterministic: false,
            help: "steal sweeps that found no work",
        },
        CounterDef {
            name: "serve.jobs",
            deterministic: false,
            help: "submissions processed by the job server (external-input driven)",
        },
        CounterDef {
            name: "serve.dedup",
            deterministic: false,
            help: "resubmissions served from the results store without re-execution",
        },
    ];

    /// Whether `name` is registered as deterministic (unregistered names
    /// default to deterministic).
    #[must_use]
    pub fn is_deterministic(name: &str) -> bool {
        COUNTERS
            .iter()
            .find(|c| c.name == name)
            .is_none_or(|c| c.deterministic)
    }
}

// ------------------------------------------------------------- recorder ----

/// Consumer of instrumentation events. The default recorder is a no-op;
/// [`Collector`] is the buffering implementation behind every sink.
pub trait Recorder: Send + Sync {
    /// A span named `name` opened on the current thread.
    fn span_begin(&self, name: &'static str);
    /// The innermost open span named `name` closed on the current thread.
    fn span_end(&self, name: &'static str);
    /// `delta` added to the counter cell `key`.
    fn count(&self, key: CounterKey, delta: u64);
    /// A counter-series sample: `name` had `value` at the call's wall time.
    /// Default: dropped (kept a defaulted method so existing recorders stay
    /// source-compatible).
    fn sample(&self, name: &'static str, value: u64) {
        let _ = (name, value);
    }
}

/// The no-op default recorder (every method does nothing).
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn span_begin(&self, _name: &'static str) {}
    fn span_end(&self, _name: &'static str) {}
    fn count(&self, _key: CounterKey, _delta: u64) {}
}

static ENABLED: AtomicBool = AtomicBool::new(false);

#[allow(clippy::type_complexity)]
fn recorder_slot() -> &'static RwLock<Option<Arc<dyn Recorder>>> {
    static SLOT: OnceLock<RwLock<Option<Arc<dyn Recorder>>>> = OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(None))
}

fn collector_slot() -> &'static RwLock<Option<Arc<Collector>>> {
    static SLOT: OnceLock<RwLock<Option<Arc<Collector>>>> = OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(None))
}

/// Whether a recorder is installed. Instrumentation sites branch on this;
/// it is the *only* cost they pay when observability is off.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Installs `r` as the process-wide recorder.
pub fn install(r: Arc<dyn Recorder>) {
    *recorder_slot().write().unwrap() = Some(r);
    *collector_slot().write().unwrap() = None;
    ENABLED.store(true, Ordering::SeqCst);
}

/// Installs a [`Collector`] as the process-wide recorder, keeping a typed
/// handle so sinks and [`totals_mark`] can reach it.
pub fn install_collector(c: &Arc<Collector>) {
    *recorder_slot().write().unwrap() = Some(Arc::clone(c) as Arc<dyn Recorder>);
    *collector_slot().write().unwrap() = Some(Arc::clone(c));
    ENABLED.store(true, Ordering::SeqCst);
}

/// Uninstalls any recorder (instrumentation reverts to the no-op default).
pub fn uninstall() {
    ENABLED.store(false, Ordering::SeqCst);
    *recorder_slot().write().unwrap() = None;
    *collector_slot().write().unwrap() = None;
}

/// The installed [`Collector`], if the recorder was installed via
/// [`install_collector`].
#[must_use]
pub fn collector() -> Option<Arc<Collector>> {
    collector_slot().read().unwrap().clone()
}

fn with_recorder(f: impl FnOnce(&dyn Recorder)) {
    if suppressed() {
        return;
    }
    if let Some(r) = recorder_slot().read().unwrap().as_ref() {
        f(&**r);
    }
}

thread_local! {
    static SUPPRESS: Cell<bool> = const { Cell::new(false) };
}

fn suppressed() -> bool {
    SUPPRESS.with(Cell::get)
}

/// RAII guard restoring the recording state changed by [`suppress`].
pub struct SuppressGuard {
    saved: bool,
}

impl Drop for SuppressGuard {
    fn drop(&mut self) {
        SUPPRESS.with(|s| s.set(self.saved));
    }
}

/// Suppresses recording on the current thread until the guard drops.
///
/// For instrumented code that re-enters other instrumented code as a pure
/// cross-check (e.g. the replay engine's debug-build shadow verification):
/// the check's internal work would otherwise count double and make metrics
/// differ between debug and release builds.
#[must_use]
pub fn suppress() -> SuppressGuard {
    let saved = SUPPRESS.with(|s| s.replace(true));
    SuppressGuard { saved }
}

// ------------------------------------------------------- tracks & lanes ----

thread_local! {
    static TRACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    static LANE: Cell<u32> = const { Cell::new(0) };
}

/// RAII guard for one track segment (see [`enter_track`]).
pub struct TrackGuard {
    pushed: bool,
}

impl Drop for TrackGuard {
    fn drop(&mut self) {
        if self.pushed {
            TRACK.with(|t| {
                t.borrow_mut().pop();
            });
        }
    }
}

/// Pushes submission index `i` onto the current thread's track path until
/// the guard drops. No-op (and allocation-free) when recording is
/// disabled. A progress sink alone keeps track bookkeeping on — frames
/// carry track paths for attribution — without paying for span/counter
/// recording (that still requires a collector).
#[must_use]
pub fn enter_track(i: u32) -> TrackGuard {
    if !enabled() && !progress::enabled() {
        return TrackGuard { pushed: false };
    }
    TRACK.with(|t| t.borrow_mut().push(i));
    TrackGuard { pushed: true }
}

/// The current thread's track path.
#[must_use]
pub fn track_path() -> Vec<u32> {
    TRACK.with(|t| t.borrow().clone())
}

/// RAII guard restoring the track path replaced by [`adopt_track_path`].
pub struct AdoptGuard {
    saved: Option<Vec<u32>>,
}

impl Drop for AdoptGuard {
    fn drop(&mut self) {
        if let Some(saved) = self.saved.take() {
            TRACK.with(|t| *t.borrow_mut() = saved);
        }
    }
}

/// Replaces the current thread's track path with `path` (pool workers adopt
/// the submitting thread's path so nested fan-outs stay rooted correctly).
#[must_use]
pub fn adopt_track_path(path: Vec<u32>) -> AdoptGuard {
    if !enabled() {
        return AdoptGuard { saved: None };
    }
    let saved = TRACK.with(|t| std::mem::replace(&mut *t.borrow_mut(), path));
    AdoptGuard { saved: Some(saved) }
}

/// RAII guard restoring the lane set by [`set_lane`].
pub struct LaneGuard {
    saved: Option<u32>,
}

impl Drop for LaneGuard {
    fn drop(&mut self) {
        if let Some(saved) = self.saved.take() {
            LANE.with(|l| l.set(saved));
        }
    }
}

/// Sets the current thread's worker lane (0 = main; pool workers use
/// `worker index + 1`). Lanes only affect span events (Chrome trace rows).
#[must_use]
pub fn set_lane(lane: u32) -> LaneGuard {
    if !enabled() {
        return LaneGuard { saved: None };
    }
    let saved = LANE.with(|l| l.replace(lane));
    LaneGuard { saved: Some(saved) }
}

// ------------------------------------------------------- span & counter ----

/// RAII span: records a begin boundary on [`Span::enter`] and the matching
/// end boundary on drop. Inert (no recording, no clock reads) when
/// observability is disabled.
pub struct Span {
    name: Option<&'static str>,
}

impl Span {
    /// Opens a span named `name` on the current thread.
    #[must_use]
    pub fn enter(name: &'static str) -> Span {
        if !enabled() || suppressed() {
            return Span { name: None };
        }
        with_recorder(|r| r.span_begin(name));
        Span { name: Some(name) }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(name) = self.name {
            with_recorder(|r| r.span_end(name));
        }
    }
}

/// Adds `delta` to the unattributed counter `name`. Zero deltas are
/// dropped (they would only materialize empty cells in the sinks).
#[inline]
pub fn count(name: &'static str, delta: u64) {
    if delta > 0 && enabled() {
        with_recorder(|r| r.count(CounterKey::plain(name), delta));
    }
}

/// Adds `delta` to the counter cell identified by `key`. Zero deltas are
/// dropped.
#[inline]
pub fn count_key(key: CounterKey, delta: u64) {
    if delta > 0 && enabled() {
        with_recorder(|r| r.count(key, delta));
    }
}

/// Records a counter-series sample: `name` has `value` now. Feeds only the
/// nondeterministic sinks (Chrome trace counter rows); deterministic sinks
/// ignore samples entirely, so sampling never perturbs canon streams.
#[inline]
pub fn sample(name: &'static str, value: u64) {
    if enabled() {
        with_recorder(|r| r.sample(name, value));
    }
}

/// `counter!(name)`, `counter!(name, delta)`, or
/// `counter!(name, delta, scope: s, model: m, pid: p, loc: l)` with any
/// subset of dimensions — the `counter!`-style front end over [`count_key`].
#[macro_export]
macro_rules! counter {
    ($name:expr) => {
        $crate::count($name, 1)
    };
    ($name:expr, $delta:expr) => {
        $crate::count($name, $delta)
    };
    ($name:expr, $delta:expr $(, $dim:ident : $val:expr)+ $(,)?) => {{
        if $crate::enabled() {
            #[allow(clippy::needless_update)]
            let key = $crate::CounterKey {
                $($dim: Some($val),)+
                ..$crate::CounterKey::plain($name)
            };
            $crate::count_key(key, $delta);
        }
    }};
}

// ------------------------------------------------------------ collector ----

static COLLECTOR_EPOCH: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Per-thread cache of the buffer for (collector epoch, track path) so
    /// steady-state recording takes one uncontended mutex, not the registry
    /// lock.
    #[allow(clippy::type_complexity)]
    static BUF_CACHE: RefCell<Option<(u64, Vec<u32>, Arc<Mutex<TrackData>>)>> =
        const { RefCell::new(None) };
}

/// The buffering recorder: track-local buffers, merged deterministically by
/// track path (submission-index order) at [`Collector::snapshot`] time.
pub struct Collector {
    epoch: u64,
    base: Instant,
    tracks: Mutex<BTreeMap<Vec<u32>, Arc<Mutex<TrackData>>>>,
}

impl Collector {
    /// Creates an empty collector. Install it with [`install_collector`].
    #[must_use]
    pub fn new() -> Arc<Collector> {
        Arc::new(Collector {
            epoch: COLLECTOR_EPOCH.fetch_add(1, Ordering::SeqCst),
            base: Instant::now(),
            tracks: Mutex::new(BTreeMap::new()),
        })
    }

    fn buffer(&self) -> Arc<Mutex<TrackData>> {
        BUF_CACHE.with(|cache| {
            // Hot path: compare the current track path against the cached one
            // in place (no allocation) before falling back to the registry.
            {
                let cache = cache.borrow();
                if let Some((epoch, cached_path, buf)) = cache.as_ref() {
                    if *epoch == self.epoch && TRACK.with(|t| *t.borrow() == *cached_path) {
                        return Arc::clone(buf);
                    }
                }
            }
            let path = track_path();
            let buf = Arc::clone(self.tracks.lock().unwrap().entry(path.clone()).or_default());
            *cache.borrow_mut() = Some((self.epoch, path, Arc::clone(&buf)));
            buf
        })
    }

    fn span_event(&self, name: &'static str, begin: bool) {
        let t_ns = u64::try_from(self.base.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let lane = LANE.with(Cell::get);
        self.buffer().lock().unwrap().spans.push(SpanEvent {
            name,
            begin,
            lane,
            t_ns,
        });
    }

    /// Deterministic snapshot: tracks in lexicographic path order, counters
    /// in key order. Non-destructive.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let tracks = self.tracks.lock().unwrap();
        Snapshot {
            tracks: tracks
                .iter()
                .map(|(path, buf)| (path.clone(), buf.lock().unwrap().clone()))
                .collect(),
        }
    }

    /// Clears all recorded data in place (buffers stay registered, so
    /// cached handles on other threads remain valid).
    pub fn clear(&self) {
        for buf in self.tracks.lock().unwrap().values() {
            let mut buf = buf.lock().unwrap();
            buf.spans.clear();
            buf.counters.clear();
            buf.samples.clear();
        }
    }

    /// Per-name totals of the deterministic counters recorded under tracks
    /// with the given path prefix.
    #[must_use]
    pub fn subtree_totals(&self, prefix: &[u32]) -> BTreeMap<&'static str, u64> {
        let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (path, buf) in self.tracks.lock().unwrap().iter() {
            if !path.starts_with(prefix) {
                continue;
            }
            for (key, v) in &buf.lock().unwrap().counters {
                if registry::is_deterministic(key.name) {
                    *totals.entry(key.name).or_default() += v;
                }
            }
        }
        totals
    }
}

impl Recorder for Collector {
    fn span_begin(&self, name: &'static str) {
        self.span_event(name, true);
    }

    fn span_end(&self, name: &'static str) {
        self.span_event(name, false);
    }

    fn count(&self, key: CounterKey, delta: u64) {
        *self
            .buffer()
            .lock()
            .unwrap()
            .counters
            .entry(key)
            .or_default() += delta;
    }

    fn sample(&self, name: &'static str, value: u64) {
        let t_ns = u64::try_from(self.base.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.buffer()
            .lock()
            .unwrap()
            .samples
            .push(CounterSample { name, t_ns, value });
    }
}

// ---------------------------------------------------------- totals mark ----

/// A mark of the current track subtree's deterministic counter totals, for
/// computing a delta at the end of a unit of work (one `--canon` row).
pub struct TotalsMark {
    collector: Arc<Collector>,
    prefix: Vec<u32>,
    base: BTreeMap<&'static str, u64>,
}

/// Marks the current track subtree's totals, or `None` when no collector is
/// installed. Take the mark at the start of a job; [`TotalsMark::delta_json`]
/// at the end yields the job's own counter totals as canonical JSON.
#[must_use]
pub fn totals_mark() -> Option<TotalsMark> {
    let collector = collector()?;
    let prefix = track_path();
    let base = collector.subtree_totals(&prefix);
    Some(TotalsMark {
        collector,
        prefix,
        base,
    })
}

impl TotalsMark {
    /// Canonical JSON object (`{"name": total, ...}`, sorted by name) of the
    /// deterministic counters recorded under the marked subtree since the
    /// mark was taken.
    #[must_use]
    pub fn delta_json(&self) -> String {
        let now = self.collector.subtree_totals(&self.prefix);
        let mut out = String::from("{");
        let mut first = true;
        for (name, v) in now {
            let delta = v - self.base.get(name).copied().unwrap_or(0);
            if delta == 0 {
                continue;
            }
            if !first {
                out.push_str(", ");
            }
            first = false;
            out.push_str(&format!("\"{name}\": {delta}"));
        }
        out.push('}');
        out
    }
}

/// The one lock every test that touches the process-wide recorder takes.
/// The collector tests below and the progress-sink tests in [`progress`]
/// share the recorder, so without it a progress test's frames would count
/// into a collector another test installed.
#[cfg(test)]
static TEST_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    fn with_collector<R>(f: impl FnOnce(&Arc<Collector>) -> R) -> R {
        let _guard = TEST_LOCK.lock().unwrap();
        let c = Collector::new();
        install_collector(&c);
        let r = f(&c);
        uninstall();
        r
    }

    #[test]
    fn disabled_recording_is_inert() {
        let _guard = TEST_LOCK.lock().unwrap();
        uninstall();
        assert!(!enabled());
        counter!("sim.rmr");
        let _span = Span::enter("phase");
        let _t = enter_track(3);
        assert!(
            track_path().is_empty(),
            "tracks are not maintained when off"
        );
        assert!(totals_mark().is_none());
    }

    #[test]
    fn counters_aggregate_by_key() {
        with_collector(|c| {
            counter!("sim.rmr", 2, pid: 1, model: "dsm");
            counter!("sim.rmr", 3, pid: 1, model: "dsm");
            counter!("sim.rmr", 5, pid: 2, model: "dsm");
            counter!("sim.steps");
            let snap = c.snapshot();
            assert_eq!(snap.tracks.len(), 1);
            let (path, data) = &snap.tracks[0];
            assert!(path.is_empty());
            let cell = |pid| {
                data.counters
                    .get(&CounterKey {
                        pid: Some(pid),
                        model: Some("dsm"),
                        ..CounterKey::plain("sim.rmr")
                    })
                    .copied()
            };
            assert_eq!(cell(1), Some(5));
            assert_eq!(cell(2), Some(5));
            assert_eq!(
                data.counters.get(&CounterKey::plain("sim.steps")).copied(),
                Some(1)
            );
        });
    }

    #[test]
    fn interleaved_thread_local_collectors_merge_canonically() {
        // Four threads record into distinct tracks in scrambled start/finish
        // order; the snapshot must come out in lexicographic track order with
        // per-track data intact, independent of scheduling.
        let run = || {
            with_collector(|c| {
                std::thread::scope(|scope| {
                    for i in [3u32, 1, 0, 2] {
                        scope.spawn(move || {
                            let _adopt = adopt_track_path(vec![7]);
                            let _t = enter_track(i);
                            let span = Span::enter("job");
                            for k in 0..=i {
                                counter!("sim.rmr", u64::from(k + 1), pid: i);
                            }
                            drop(span);
                        });
                    }
                });
                counter!("sim.steps", 9);
                c.snapshot()
            })
        };
        let snap = run();
        let paths: Vec<Vec<u32>> = snap.tracks.iter().map(|(p, _)| p.clone()).collect();
        assert_eq!(
            paths,
            vec![vec![], vec![7, 0], vec![7, 1], vec![7, 2], vec![7, 3]],
            "tracks merge in submission-index order, not completion order"
        );
        for (path, data) in &snap.tracks[1..] {
            let i = path[1];
            let expect: u64 = (1..=u64::from(i) + 1).sum();
            let got: u64 = data.counters.values().sum();
            assert_eq!(got, expect, "track {path:?}");
            assert_eq!(data.spans.len(), 2);
            assert!(data.spans[0].begin && !data.spans[1].begin);
        }
        // And the merged deterministic view is identical run to run.
        let again = run();
        let totals = |s: &Snapshot| {
            let mut m: BTreeMap<CounterKey, u64> = BTreeMap::new();
            for (_, d) in &s.tracks {
                for (k, v) in &d.counters {
                    *m.entry(k.clone()).or_default() += v;
                }
            }
            m
        };
        assert_eq!(totals(&snap), totals(&again));
    }

    #[test]
    fn subtree_totals_and_marks_are_scoped_and_deterministic_only() {
        with_collector(|c| {
            {
                let _t = enter_track(0);
                let mark = totals_mark().expect("collector installed");
                counter!("sim.rmr", 4);
                counter!("pool.steal", 2, pid: 0); // nondeterministic: excluded
                {
                    let _inner = enter_track(1);
                    counter!("audit.steps", 6);
                }
                assert_eq!(mark.delta_json(), "{\"audit.steps\": 6, \"sim.rmr\": 4}");
            }
            {
                let _t = enter_track(1);
                counter!("sim.rmr", 100);
            }
            assert_eq!(c.subtree_totals(&[0]).get("sim.rmr"), Some(&4));
            assert_eq!(c.subtree_totals(&[]).get("sim.rmr"), Some(&104));
            assert!(!c.subtree_totals(&[]).contains_key("pool.steal"));
        });
    }

    #[test]
    fn marks_measure_deltas_not_absolutes() {
        with_collector(|_c| {
            let _t = enter_track(5);
            counter!("sim.rmr", 7);
            let mark = totals_mark().expect("collector installed");
            counter!("sim.rmr", 2);
            assert_eq!(mark.delta_json(), "{\"sim.rmr\": 2}");
        });
    }

    #[test]
    fn suppression_hides_nested_recording() {
        with_collector(|c| {
            counter!("sim.rmr", 1);
            {
                let _s = suppress();
                counter!("sim.rmr", 10);
                let span = Span::enter("hidden");
                drop(span);
            }
            counter!("sim.rmr", 2);
            assert_eq!(c.subtree_totals(&[]).get("sim.rmr"), Some(&3));
            assert!(c.snapshot().tracks[0].1.spans.is_empty());
        });
    }

    #[test]
    fn clear_resets_but_keeps_buffers_live() {
        with_collector(|c| {
            counter!("sim.rmr", 3);
            c.clear();
            counter!("sim.rmr", 2);
            let snap = c.snapshot();
            let total: u64 = snap.tracks[0].1.counters.values().sum();
            assert_eq!(total, 2);
        });
    }

    #[test]
    fn registry_flags_pool_counters_nondeterministic() {
        assert!(registry::is_deterministic("sim.rmr"));
        assert!(registry::is_deterministic("some.unregistered.counter"));
        assert!(!registry::is_deterministic("pool.steal"));
        assert!(!registry::is_deterministic("pool.idle"));
        assert!(!registry::is_deterministic("pool.execute"));
    }
}
