//! # shm-obs: spans, attributed counters, and deterministic sinks
//!
//! Dependency-free observability layer for the cc-dsm workspace. The design
//! constraints come from the repo's determinism contract:
//!
//! * **Zero-cost when disabled.** All instrumentation goes through free
//!   functions ([`count`], [`Span::enter`]) that load one atomic, the
//!   installed [`Collector`]'s epoch (0 = none), and return at once when it
//!   is 0; hot loops pay one predictable branch.
//! * **One recording path.** With a collector installed, a probe writes
//!   straight into its thread's track buffer, a handle cached per thread and
//!   reused while the cached epoch is the installed one and the cached path
//!   is the thread's track path. Only a miss (a new track, a new collector)
//!   takes the process-wide lock on the installed collector.
//! * **Deterministic merging.** Recording threads write into *track*-local
//!   buffers. A track is a path of submission indices (`[2, 1]` = inner
//!   job 1 of row job 2) maintained by `shm-pool`: the pool pushes the job
//!   index on both its serial and parallel paths, so the set of tracks — and
//!   every deterministic counter in them — is byte-identical at every
//!   thread count. [`Collector::snapshot`] merges tracks in lexicographic
//!   path order, never in completion order.
//! * **Attributed counts, not just totals.** A [`CounterKey`] carries
//!   optional process / memory-location / cost-model / scope dimensions, so
//!   RMRs can be charged "to the signaler during the chase under DSM"
//!   rather than to a single global bucket (§8's RMR-vs-messages
//!   distinction needs exactly this).
//! * **Declared nondeterminism.** Six scheduling- or input-dependent
//!   counters (progress frames, the pool's execute/steal/idle counts, the
//!   job server's jobs and dedup hits) are named in
//!   [`registry::is_deterministic`] and excluded from the deterministic
//!   sinks ([`MetricsReport`] and the no-wall JSONL stream); every other
//!   name is deterministic.
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
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

// ------------------------------------------------------------------ keys ----

/// Identity of one counter cell: a static name plus optional attribution
/// dimensions. Totals are kept per distinct key; sinks aggregate over the
/// dimensions they care about.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct CounterKey {
    /// Counter name (any static name; [`registry::is_deterministic`] says
    /// whether the deterministic sinks keep it).
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

/// Which counters the deterministic sinks drop.
pub mod registry {
    /// The counters whose values depend on scheduling or on outside input:
    /// which worker crosses a progress cadence boundary, which lane runs or
    /// steals a job, what a job server was sent.
    const NONDETERMINISTIC: [&str; 6] = [
        "progress.frames",
        "pool.execute",
        "pool.steal",
        "pool.idle",
        "serve.jobs",
        "serve.dedup",
    ];

    /// Whether `name` is a pure function of the workload, independent of
    /// thread count and scheduling. Every name but the six nondeterministic
    /// ones (`progress.frames`, `pool.{execute,steal,idle}`,
    /// `serve.{jobs,dedup}`) is.
    #[must_use]
    pub fn is_deterministic(name: &str) -> bool {
        !NONDETERMINISTIC.contains(&name)
    }
}

// ------------------------------------------------------------ installed ----

/// Epoch of the installed [`Collector`], 0 when none is. Every probe loads
/// it first; a disabled probe loads nothing else. Relaxed loads suffice:
/// the epoch publishes no data, since a hit writes only into the buffer
/// this thread cached and a miss reads the collector under its lock.
static INSTALLED: AtomicU64 = AtomicU64::new(0);

/// The installed collector itself, read only when a thread's cached buffer
/// misses (see `record`) and by [`collector`].
static COLLECTOR: RwLock<Option<Arc<Collector>>> = RwLock::new(None);

/// Whether a collector is installed. Instrumentation sites branch on this;
/// it is the *only* cost they pay when observability is off.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    INSTALLED.load(Ordering::Relaxed) != 0
}

/// Installs `c` as the process-wide collector.
pub fn install_collector(c: &Arc<Collector>) {
    *COLLECTOR.write().expect("collector slot poisoned") = Some(Arc::clone(c));
    INSTALLED.store(c.epoch, Ordering::SeqCst);
}

/// Uninstalls the collector (instrumentation goes inert again).
pub fn uninstall() {
    INSTALLED.store(0, Ordering::SeqCst);
    *COLLECTOR.write().expect("collector slot poisoned") = None;
}

/// The installed [`Collector`], if any.
#[must_use]
pub fn collector() -> Option<Arc<Collector>> {
    COLLECTOR.read().expect("collector slot poisoned").clone()
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
pub struct TrackGuard(());

impl Drop for TrackGuard {
    fn drop(&mut self) {
        TRACK.with(|t| {
            t.borrow_mut().pop();
        });
    }
}

/// Pushes submission index `i` onto the current thread's track path until
/// the guard drops. Tracks are kept whatever is installed, so a frame or a
/// counter is attributed to the same path at every thread count.
#[must_use]
pub fn enter_track(i: u32) -> TrackGuard {
    TRACK.with(|t| t.borrow_mut().push(i));
    TrackGuard(())
}

/// The current thread's track path.
#[must_use]
pub fn track_path() -> Vec<u32> {
    TRACK.with(|t| t.borrow().clone())
}

/// RAII guard restoring the track path replaced by [`adopt_track_path`].
pub struct AdoptGuard {
    saved: Vec<u32>,
}

impl Drop for AdoptGuard {
    fn drop(&mut self) {
        let saved = std::mem::take(&mut self.saved);
        TRACK.with(|t| *t.borrow_mut() = saved);
    }
}

/// Replaces the current thread's track path with `path` (pool workers adopt
/// the submitting thread's path so nested fan-outs stay rooted correctly).
#[must_use]
pub fn adopt_track_path(path: Vec<u32>) -> AdoptGuard {
    let saved = TRACK.with(|t| std::mem::replace(&mut *t.borrow_mut(), path));
    AdoptGuard { saved }
}

/// RAII guard restoring the lane set by [`set_lane`].
pub struct LaneGuard {
    saved: u32,
}

impl Drop for LaneGuard {
    fn drop(&mut self) {
        LANE.with(|l| l.set(self.saved));
    }
}

/// Sets the current thread's worker lane (0 = main; pool workers use
/// `worker index + 1`). Lanes only affect span events (Chrome trace rows).
#[must_use]
pub fn set_lane(lane: u32) -> LaneGuard {
    LaneGuard {
        saved: LANE.with(|l| l.replace(lane)),
    }
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
        span_event(name, true);
        Span { name: Some(name) }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(name) = self.name {
            span_event(name, false);
        }
    }
}

fn span_event(name: &'static str, begin: bool) {
    let lane = LANE.with(Cell::get);
    record(|buf, base| {
        buf.spans.push(SpanEvent {
            name,
            begin,
            lane,
            t_ns: nanos_since(base),
        });
    });
}

/// Adds `delta` to the unattributed counter `name`. Zero deltas are
/// dropped (they would only materialize empty cells in the sinks).
#[inline]
pub fn count(name: &'static str, delta: u64) {
    if delta > 0 && enabled() {
        record(|buf, _| *buf.counters.entry(CounterKey::plain(name)).or_default() += delta);
    }
}

/// Adds `delta` to the counter cell identified by `key`. Zero deltas are
/// dropped.
#[inline]
pub fn count_key(key: CounterKey, delta: u64) {
    if delta > 0 && enabled() {
        record(|buf, _| *buf.counters.entry(key).or_default() += delta);
    }
}

/// Records a counter-series sample: `name` has `value` now. Feeds only the
/// nondeterministic sinks (Chrome trace counter rows); deterministic sinks
/// ignore samples entirely, so sampling never perturbs canon streams.
#[inline]
pub fn sample(name: &'static str, value: u64) {
    if enabled() {
        record(|buf, base| {
            buf.samples.push(CounterSample {
                name,
                t_ns: nanos_since(base),
                value,
            });
        });
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

/// A thread's handle on its track buffer in one collector.
struct CachedBuf {
    epoch: u64,
    path: Vec<u32>,
    base: Instant,
    buf: Arc<Mutex<TrackData>>,
}

thread_local! {
    /// The buffer of the last (collector epoch, track path) this thread
    /// recorded into, so steady-state recording takes one uncontended
    /// mutex and no process-wide lock.
    static BUF_CACHE: RefCell<Option<CachedBuf>> = const { RefCell::new(None) };
}

/// Runs `f` on the current thread's track buffer in the installed collector,
/// with that collector's clock base. Nothing happens when no collector is
/// installed or recording is suppressed. A cached buffer is used when its
/// epoch is the installed one and its path is the thread's track path;
/// otherwise the buffer is looked up (or made) under the collector's locks
/// and cached.
fn record(f: impl FnOnce(&mut TrackData, Instant)) {
    let epoch = INSTALLED.load(Ordering::Relaxed);
    if epoch == 0 || suppressed() {
        return;
    }
    BUF_CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        let hit = cache
            .as_ref()
            .is_some_and(|c| c.epoch == epoch && TRACK.with(|t| *t.borrow() == c.path));
        if !hit {
            let Some(collector) = collector() else {
                return;
            };
            let path = track_path();
            let mut tracks = collector.tracks.lock().expect("track map poisoned");
            let buf = Arc::clone(tracks.entry(path.clone()).or_default());
            *cache = Some(CachedBuf {
                epoch: collector.epoch,
                path,
                base: collector.base,
                buf,
            });
        }
        let c = cache.as_ref().expect("filled above");
        f(&mut c.buf.lock().expect("track buffer poisoned"), c.base);
    });
}

fn nanos_since(base: Instant) -> u64 {
    u64::try_from(base.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The recording sink: track-local buffers, merged deterministically by
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
}

/// The one lock every test that touches the process-wide collector takes.
/// The collector tests below and the progress-sink tests in [`progress`]
/// share the installed state, so without it a progress test's frames would count
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
            assert_eq!(
                MetricsReport::from_snapshot(&c.snapshot()).total("sim.rmr"),
                3
            );
            assert!(c.snapshot().tracks[0].1.spans.is_empty());
        });
    }

    #[test]
    fn a_thread_outliving_a_collector_switch_records_into_the_installed_one() {
        // The worker's first record caches its buffer in A; after the switch
        // that cache must miss (B's epoch differs), and after the last
        // uninstall nothing may land anywhere.
        let _guard = TEST_LOCK.lock().unwrap();
        let (a, b) = (Collector::new(), Collector::new());
        install_collector(&a);
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let worker = std::thread::spawn(move || {
            for delta in [1, 2, 4] {
                go_rx.recv().unwrap();
                counter!("sim.rmr", delta);
                drop(Span::enter("rec"));
                done_tx.send(()).unwrap();
            }
        });
        go_tx.send(()).unwrap();
        done_rx.recv().unwrap();
        uninstall();
        install_collector(&b);
        go_tx.send(()).unwrap();
        done_rx.recv().unwrap();
        uninstall();
        go_tx.send(()).unwrap();
        done_rx.recv().unwrap();
        worker.join().unwrap();
        for (c, want) in [(&a, 1), (&b, 2)] {
            assert_eq!(
                MetricsReport::from_snapshot(&c.snapshot()).total("sim.rmr"),
                want
            );
            let spans: usize = c.snapshot().tracks.iter().map(|(_, d)| d.spans.len()).sum();
            assert_eq!(spans, 2, "one span, begin and end");
        }
    }

    #[test]
    fn registry_flags_pool_counters_nondeterministic() {
        for name in [
            "progress.frames",
            "pool.execute",
            "pool.steal",
            "pool.idle",
            "serve.jobs",
            "serve.dedup",
        ] {
            assert!(!registry::is_deterministic(name), "{name}");
        }
        for name in [
            "sim.rmr",
            "pct.steps",
            "explore.states",
            "some.unregistered.counter",
        ] {
            assert!(registry::is_deterministic(name), "{name}");
        }
    }
}
