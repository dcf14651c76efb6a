//! The experiment row schemas (E1–E10), lifted out of `bench` so the
//! `cc-dsm` front end and the `shm-serve` job server share one definition.
//!
//! Each struct is the structured result of one table row; the canonical
//! (timing-free) JSON serializers live in [`crate::canon`]. The `bench`
//! crate re-exports everything here, so existing `bench::E9Row` paths (and
//! the golden byte-equality fixtures) are untouched.

/// Wall-clock phase breakdown of one adversary run (record / rounds /
/// chase / discovery). Non-canonical: it never appears in `--canon`
/// output, only in the E2 and E8 tables' phase columns. Defined here
/// (rather than in `rmr-adversary`, which re-exports it) so the E2/E8 row
/// schemas are self-contained.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimings {
    /// Milliseconds spent advancing processes in Part 1 (recording steps).
    pub record_ms: f64,
    /// Milliseconds spent on Part-1 round machinery: conflict resolution,
    /// erasure replays and certification, roll-forwards.
    pub rounds_ms: f64,
    /// Milliseconds spent on the Part-2 erase-on-sight chase.
    pub chase_ms: f64,
    /// Milliseconds spent on the Part-2 no-erasure discovery run.
    pub discovery_ms: f64,
}

/// One row of E1: the §5 algorithm priced under one cost model.
#[derive(Clone, Debug)]
pub struct E1Row {
    /// Cost-model label.
    pub model: &'static str,
    /// Number of waiters.
    pub n_waiters: u32,
    /// Polls per waiter before the signal.
    pub polls: u32,
    /// Maximum RMRs incurred by any process.
    pub max_rmrs_per_proc: u64,
    /// Total RMRs.
    pub total_rmrs: u64,
    /// Deterministic counter totals for this row (canonical JSON object),
    /// recorded only when an `shm-obs` collector is installed.
    pub obs: Option<String>,
}

/// One row of E2: the lower-bound adversary against one algorithm at one N.
#[derive(Clone, Debug)]
pub struct E2Row {
    /// Algorithm name.
    pub algorithm: String,
    /// Number of processes.
    pub n: usize,
    /// Whether the waiter population stabilized (Part 1).
    pub stabilized: bool,
    /// Stable waiters surviving Part 1.
    pub stable: usize,
    /// RMRs forced on the signaler in the erase-on-sight chase.
    pub chase_signaler_rmrs: u64,
    /// Waiters hidden by certified erasure during the chase.
    pub chase_erased: usize,
    /// Erasures blocked by projection certification (FAA leakage).
    pub blocked: usize,
    /// Worst amortized RMRs (total / participants) across runs.
    pub amortized: f64,
    /// Whether a genuine (in-contract) Specification 4.1 violation was
    /// exposed.
    pub violation: bool,
    /// Whether some Part-2 history exceeded the algorithm's participation
    /// contract (safety failures in such histories are *not* counted as
    /// violations — e.g. single-waiter under the adversary's many waiters).
    pub out_of_contract: bool,
    /// Differential-audit verdict: `None` when auditing was off, otherwise
    /// whether every audited phase matched the naive reference executor.
    pub audit_clean: Option<bool>,
    /// First audit divergence, rendered as a JSON object (present only on a
    /// failed audit).
    pub audit_divergence: Option<String>,
    /// Deterministic counter totals for this row (canonical JSON object),
    /// recorded only when an `shm-obs` collector is installed.
    pub obs: Option<String>,
    /// Per-phase wall-clock (record / rounds / chase / discovery).
    pub timings: PhaseTimings,
}

/// One row of E3: a §7 variant algorithm measured under one model.
#[derive(Clone, Debug)]
pub struct E3Row {
    /// Algorithm name.
    pub algorithm: String,
    /// Cost-model label.
    pub model: &'static str,
    /// Worst per-waiter RMRs across the run.
    pub max_waiter_rmrs: u64,
    /// Signaler RMRs.
    pub signaler_rmrs: u64,
    /// Total RMRs / participants.
    pub amortized: f64,
    /// The paper's stated bound for this variant (for the table).
    pub paper_bound: &'static str,
}

/// One row of E4: amortized adversarial cost as N grows, read/write
/// broadcast vs FAA queue.
#[derive(Clone, Debug)]
pub struct E4Row {
    /// Number of processes.
    pub n: usize,
    /// Amortized RMRs the adversary achieves against `broadcast`.
    pub broadcast_amortized: f64,
    /// Amortized RMRs the adversary achieves against `queue-faa`.
    pub queue_amortized: f64,
    /// Blocked erasures against the queue (> 0 = certification refused).
    pub queue_blocked: usize,
}

/// One row of E5: message accounting under one interconnect.
#[derive(Clone, Debug)]
pub struct E5Row {
    /// Workload label.
    pub workload: &'static str,
    /// Interconnect label.
    pub interconnect: &'static str,
    /// Seed of the workload's randomized scheduler; `None` for the scripted
    /// (seedless) signaling workload.
    pub seed: Option<u64>,
    /// Total RMRs.
    pub rmrs: u64,
    /// Total interconnect messages.
    pub messages: u64,
    /// Total cache invalidations.
    pub invalidations: u64,
    /// Messages per RMR.
    pub messages_per_rmr: f64,
}

/// One row of E6: a lock's RMR cost per passage in one model at one N.
#[derive(Clone, Debug)]
pub struct E6Row {
    /// Lock name.
    pub lock: String,
    /// Cost-model label.
    pub model: &'static str,
    /// Number of contenders.
    pub n: usize,
    /// Seed of the workload's randomized scheduler.
    pub seed: u64,
    /// Average RMRs per passage.
    pub rmrs_per_passage: f64,
}

/// One row of E7: signaler cost for a fully participating fixed waiter set.
#[derive(Clone, Debug)]
pub struct E7Row {
    /// Algorithm name.
    pub algorithm: String,
    /// Number of fixed waiters (all participating).
    pub w: usize,
    /// Signaler RMRs in a solo `Signal()`.
    pub signaler_rmrs: u64,
    /// Amortized RMRs over W+1 participants.
    pub amortized: f64,
}

/// One row of E8: the Corollary 6.14 transformation pipeline at one N.
#[derive(Clone, Debug)]
pub struct E8Row {
    /// Algorithm variant.
    pub variant: String,
    /// Number of processes.
    pub n: usize,
    /// Whether Part 1 stabilized within the round budget.
    pub stabilized: bool,
    /// Stable survivors.
    pub stable: usize,
    /// Worst amortized RMRs achieved by the adversary.
    pub amortized: f64,
    /// Chase erasures blocked by certification.
    pub blocked: usize,
    /// Whether the solo signaler failed to complete (busy-waiting).
    pub signal_stuck: bool,
    /// Differential-audit verdict: `None` when auditing was off, otherwise
    /// whether every audited phase matched the naive reference executor.
    pub audit_clean: Option<bool>,
    /// Deterministic counter totals for this row (canonical JSON object),
    /// recorded only when an `shm-obs` collector is installed.
    pub obs: Option<String>,
    /// Per-phase wall-clock (record / rounds / chase / discovery).
    pub timings: PhaseTimings,
}

/// One row of E9: exhaustive schedule-space exploration of one algorithm
/// under one cost model at small n.
#[derive(Clone, Debug)]
pub struct E9Row {
    /// Algorithm name.
    pub algorithm: String,
    /// Cost-model label.
    pub model: &'static str,
    /// Number of processes (waiters + the signaler).
    pub n: usize,
    /// Seed of the seeded component of the scenario (the seeded-buggy
    /// negative control); `None` for the deterministic shipped algorithms —
    /// exploration itself is seedless.
    pub seed: Option<u64>,
    /// States expanded.
    pub explored: u64,
    /// Terminal (all-processes-done) states reached.
    pub terminals: u64,
    /// Whether no bound cut any branch — a clean verdict is then a proof at
    /// this scenario size.
    pub exhaustive: bool,
    /// Violating states found (per reaching path).
    pub violations_found: u64,
    /// Violations within the algorithm's participation contract.
    pub violations_in_contract: u64,
    /// Empirical maximum of the signaler's RMRs over all complete schedules.
    pub max_signaler_rmrs: u64,
    /// The §6 adversary's constructed chase cost at the same n (DSM rows of
    /// the E2 algorithms only). The chase is one reachable schedule, so the
    /// explored maximum must dominate this.
    pub chase_signaler_rmrs: Option<u64>,
    /// Peak number of nodes ever queued in the breadth-first frontier
    /// (hot + spilled; a logical count, thread-count independent).
    pub peak_frontier: u64,
    /// Peak logical bytes of visited-store residency, summed over walkers
    /// (deterministic slot accounting, never an RSS reading).
    pub peak_visited_bytes: u64,
    /// Delta-compressed bytes spilled to disk (0 unless a `mem_budget`
    /// forced spilling).
    pub spilled_bytes: u64,
    /// The first violation, shrunk and audited, as a canonical JSON object.
    pub counterexample: Option<String>,
    /// Deterministic counter totals for this row (canonical JSON object),
    /// recorded only when an `shm-obs` collector is installed.
    pub obs: Option<String>,
}

/// One row of E10: seeded PCT sampling of one algorithm under one cost
/// model at adversary scale.
#[derive(Clone, Debug)]
pub struct E10Row {
    /// Algorithm name.
    pub algorithm: String,
    /// Cost-model label.
    pub model: &'static str,
    /// Number of processes (waiters + the signaler).
    pub n: usize,
    /// Seed of the seeded component of the scenario (the seeded-buggy
    /// negative-control variants); `None` for the shipped algorithms.
    pub seed: Option<u64>,
    /// Base sampling seed (per-schedule seeds derive from it by index).
    pub pct_seed: u64,
    /// Schedules sampled.
    pub schedules: u64,
    /// PCT bug depth `d` (`d − 1` priority-change points per schedule).
    pub depth_d: usize,
    /// Per-schedule step budget.
    pub steps_budget: u64,
    /// Schedules that ran every process to termination.
    pub terminals: u64,
    /// Distinct end-state fingerprints across sampled schedules.
    pub distinct_fingerprints: u64,
    /// Schedules whose end state violated the polling spec.
    pub violations_found: u64,
    /// Violations within the algorithm's participation contract.
    pub violations_in_contract: u64,
    /// Empirical maximum of the signaler's RMRs over terminal schedules.
    pub max_signaler_rmrs: u64,
    /// Peak logical bytes of the fingerprint coverage set (deterministic
    /// slot accounting, never an RSS reading).
    pub peak_visited_bytes: u64,
    /// Delta-compressed bytes the coverage set spilled to disk (0 unless a
    /// `mem_budget` forced spilling).
    pub spilled_bytes: u64,
    /// The first violation, shrunk and audited, as a canonical JSON object.
    pub counterexample: Option<String>,
    /// Deterministic counter totals for this row (canonical JSON object),
    /// recorded only when an `shm-obs` collector is installed.
    pub obs: Option<String>,
}
