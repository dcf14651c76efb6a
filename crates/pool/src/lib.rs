//! Dependency-free scoped work-stealing thread pool with deterministic,
//! index-ordered result merging.
//!
//! The workspace is offline (no rayon), so parallel fan-outs are built on
//! [`std::thread::scope`]. The one primitive exported here, [`map_indexed`],
//! runs `f(i, item)` for every item of a `Vec` on a small crew of scoped
//! workers and returns the results **in submission order** — so callers that
//! build tables or JSON from the result vector produce byte-identical output
//! regardless of thread count or scheduling.
//!
//! Design points:
//!
//! - **Work stealing.** Job indices are dealt round-robin into per-worker
//!   deques; a worker pops its own queue from the front and, when empty,
//!   steals from the back of the others. This keeps big jobs (large `n`
//!   adversary rows) from serializing behind a single worker while remaining
//!   simple enough to audit.
//! - **Exact serial path.** `threads <= 1` (or a single item) runs the plain
//!   `for` loop inline on the caller's thread: no spawns, no mutexes, no
//!   behavioural difference from the pre-pool code.
//! - **No nested oversubscription.** A `map_indexed` issued from inside a
//!   pool worker runs serially: the outermost parallel construct owns the
//!   cores. (E.g. an audited E2 row parallelizes across rows; the audit's own
//!   shards then run inline within that row's worker.)
//! - **Thread-count resolution.** [`threads`] resolves, in order: an explicit
//!   [`set_threads`] call, the `CC_DSM_THREADS` environment variable, then
//!   [`std::thread::available_parallelism`].
//! - **Observability.** Every job runs under `shm-obs` track segment `i`
//!   (its submission index), whether or not anything is installed, and in a
//!   `pool.job` span when a collector is — identically on the serial and
//!   parallel paths, so the deterministic view of the recording and of the
//!   progress frames is thread-count independent. Workers adopt the
//!   submitting thread's track path (nested fan-outs stay rooted
//!   correctly), claim Chrome-trace lane `w + 1`, and additionally emit the
//!   scheduling-dependent `pool.execute` / `pool.steal` / `pool.idle`
//!   counters, which `shm-obs` registers as nondeterministic and keeps out
//!   of the deterministic sinks.

#![warn(missing_docs)]
#![warn(clippy::all)]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Explicit thread-count override; 0 means "not set" (fall back to env/HW).
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// True while the current thread is a pool worker; nested `map_indexed`
    /// calls observe this and degrade to the serial path.
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Set the process-wide thread count used by [`threads`]. `0` clears the
/// override (reverting to `CC_DSM_THREADS` / available parallelism).
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::SeqCst);
}

/// Resolve the effective thread count: [`set_threads`] override, else the
/// `CC_DSM_THREADS` environment variable, else available parallelism, else 1.
pub fn threads() -> usize {
    let explicit = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if explicit > 0 {
        return explicit;
    }
    if let Ok(v) = std::env::var("CC_DSM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run `f(i, item)` over every item on up to `threads` scoped workers and
/// return the results in submission (index) order.
///
/// With `threads <= 1`, a single item, or when called from inside another
/// `map_indexed` worker, this is exactly the serial loop on the current
/// thread. Panics in `f` propagate to the caller (via scope join).
pub fn map_indexed<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    // Job index as an obs track segment (saturating: tracks are labels).
    fn seg(i: usize) -> u32 {
        u32::try_from(i).unwrap_or(u32::MAX)
    }

    let nested = IN_WORKER.with(|w| w.get());
    let nworkers = threads.min(items.len());
    if nworkers <= 1 || nested {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                let _track = shm_obs::enter_track(seg(i));
                let _span = shm_obs::Span::enter("pool.job");
                f(i, t)
            })
            .collect();
    }

    let njobs = items.len();
    // Job payloads, taken by index exactly once.
    let payloads: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    // Result slots, filled by index; unwrapped in order afterwards.
    let results: Vec<Mutex<Option<R>>> = (0..njobs).map(|_| Mutex::new(None)).collect();
    // Per-worker deques of job indices, dealt round-robin.
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..nworkers)
        .map(|w| Mutex::new((w..njobs).step_by(nworkers).collect()))
        .collect();

    // Workers adopt the submitting thread's track path so the tracks they
    // open per job (`base ++ [i]`) match the serial path exactly.
    let base_track = shm_obs::track_path();

    std::thread::scope(|scope| {
        for w in 0..nworkers {
            let queues = &queues;
            let payloads = &payloads;
            let results = &results;
            let f = &f;
            let base_track = &base_track;
            scope.spawn(move || {
                IN_WORKER.with(|flag| flag.set(true));
                let _adopt = shm_obs::adopt_track_path(base_track.clone());
                let _lane = shm_obs::set_lane(seg(w + 1));
                loop {
                    // Own queue first (front), then steal from others (back).
                    let mut job = queues[w].lock().unwrap().pop_front();
                    let mut stolen = false;
                    if job.is_none() {
                        for v in 1..nworkers {
                            let victim = (w + v) % nworkers;
                            job = queues[victim].lock().unwrap().pop_back();
                            if job.is_some() {
                                stolen = true;
                                break;
                            }
                        }
                    }
                    let Some(i) = job else {
                        shm_obs::counter!("pool.idle", 1, pid: seg(w));
                        break;
                    };
                    if stolen {
                        shm_obs::counter!("pool.steal", 1, pid: seg(w));
                    }
                    shm_obs::counter!("pool.execute", 1, pid: seg(w));
                    let item = payloads[i].lock().unwrap().take().expect("job taken twice");
                    let r = {
                        let _track = shm_obs::enter_track(seg(i));
                        let _span = shm_obs::Span::enter("pool.job");
                        f(i, item)
                    };
                    *results[i].lock().unwrap() = Some(r);
                }
            });
        }
    });

    results
        .into_iter()
        .map(|slot| slot.into_inner().unwrap().expect("job not run"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn results_are_in_submission_order() {
        for threads in [1, 2, 4, 7] {
            let items: Vec<usize> = (0..37).collect();
            let out = map_indexed(threads, items, |i, x| {
                assert_eq!(i, x);
                x * 10 + 1
            });
            let expect: Vec<usize> = (0..37).map(|x| x * 10 + 1).collect();
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn parallel_matches_serial_for_nontrivial_work() {
        let work = |_, seed: u64| {
            // Deterministic per-item computation (xorshift-style mix).
            let mut x = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
            for _ in 0..1000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            x
        };
        let items: Vec<u64> = (0..64).collect();
        let serial = map_indexed(1, items.clone(), work);
        let parallel = map_indexed(4, items, work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let out = map_indexed(16, vec![5usize, 6], |_, x| x + 1);
        assert_eq!(out, vec![6, 7]);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = map_indexed(4, Vec::<u32>::new(), |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn nested_map_runs_serially_in_worker() {
        let saw_nested_parallelism = AtomicBool::new(false);
        let out = map_indexed(4, (0..8).collect::<Vec<usize>>(), |_, x| {
            // Inside a worker: this inner call must take the serial path, so
            // the inner closure always runs on the current (worker) thread.
            let outer_thread = std::thread::current().id();
            let inner: Vec<usize> = map_indexed(4, (0..4).collect(), |_, y| {
                if std::thread::current().id() != outer_thread {
                    saw_nested_parallelism.store(true, Ordering::SeqCst);
                }
                y + x
            });
            inner.iter().sum::<usize>()
        });
        assert_eq!(out.len(), 8);
        assert!(!saw_nested_parallelism.load(Ordering::SeqCst));
    }

    #[test]
    fn obs_recording_is_thread_count_independent() {
        // Deterministic view of a recorded fan-out (track set, span names,
        // deterministic counters) must not depend on the worker count. The
        // collector is process-global, so scope this test's data under a
        // unique track prefix and compare relative to it.
        let collector = shm_obs::Collector::new();
        shm_obs::install_collector(&collector);
        let run = |tag: u32, threads: usize| {
            let _base = shm_obs::adopt_track_path(vec![4242, tag]);
            map_indexed(threads, (0..16).collect::<Vec<u64>>(), |i, x| {
                shm_obs::counter!("sim.steps", x + 1);
                i as u64 + x
            })
        };
        assert_eq!(run(1, 1), run(2, 4));
        shm_obs::uninstall();

        let snap = collector.snapshot();
        let view = |tag: u32| {
            snap.tracks
                .iter()
                .filter(|(p, _)| p.starts_with(&[4242, tag]))
                .map(|(p, d)| {
                    let spans: Vec<&str> = d.spans.iter().map(|s| s.name).collect();
                    let counters: Vec<(shm_obs::CounterKey, u64)> = d
                        .counters
                        .iter()
                        .filter(|(k, _)| shm_obs::registry::is_deterministic(k.name))
                        .map(|(k, v)| (k.clone(), *v))
                        .collect();
                    (p[2..].to_vec(), spans, counters)
                })
                // A track holding only nondeterministic counters (the base
                // path, where workers count steals) is invisible to the
                // deterministic sinks; drop it from the view too.
                .filter(|(_, spans, counters)| !spans.is_empty() || !counters.is_empty())
                .collect::<Vec<_>>()
        };
        let serial = view(1);
        let parallel = view(2);
        assert_eq!(serial.len(), 16, "one track per job");
        assert_eq!(serial, parallel);
    }

    #[test]
    fn progress_frames_keep_the_submitting_track_without_a_collector() {
        // Only a progress sink is installed. The one-item outer map runs
        // inline at any thread count, so at 4 threads the inner map is the
        // parallel one: its workers must still track jobs under `[0, i]`.
        let run = |threads: usize| {
            shm_obs::progress::install(shm_obs::progress::Config::default());
            map_indexed(threads, vec![()], |_, ()| {
                map_indexed(threads, vec![(); 4], |_, ()| {
                    let mut meter = shm_obs::progress::Meter::new("pool", "inner", 1, None)
                        .expect("sink installed");
                    assert!(meter.tick(1));
                    meter.emit(&[]);
                });
            });
            shm_obs::progress::finish().expect("sink installed")
        };
        let serial = run(1);
        assert_eq!(serial, run(4));
        assert!(serial.contains("\"track\":[0,3]"), "{serial}");
    }

    #[test]
    fn set_threads_overrides_env_and_hw() {
        set_threads(3);
        assert_eq!(threads(), 3);
        set_threads(0);
        assert!(threads() >= 1);
    }
}
