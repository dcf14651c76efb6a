//! The five workloads: their inputs, one repetition of each, and the known
//! answers every repetition is checked against.
//!
//! A repetition ("rep") is one unit of work a user waits for: one
//! exhaustive proof, one 4-row adversary sweep, one 10-row PCT sweep. The
//! serve workload has no reps; it is a closed request loop (see
//! [`crate::serve_mix`]).

use bench::{E9_DEEP_MAX_POLLS, E9_DEEP_WAITERS};
use rmr_adversary::{run_lower_bound, LowerBoundConfig, LowerBoundReport};
use shm_explore::{check, check_random, Bounds, RandomBounds, ScenarioSpec};
use shm_sim::CostModel;
use signaling::algorithms::{Broadcast, CasList, CcFlag, QueueSignaling, SingleWaiter};
use signaling::SignalingAlgorithm;

/// The CI deep-explore memory budget: the n = 4 working set is about 80x
/// this, so every visited-store tier and the frontier ring spill.
pub const SPILL_BUDGET: usize = 256 * 1024;

/// Every workload, in the order `all` runs them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Exhaustive E9 deep-row proof, all in memory.
    ExploreN4,
    /// The same proof under [`SPILL_BUDGET`].
    ExploreN4Spill,
    /// The §6 adversary with audit at n = 1024, four algorithms.
    AdversaryN1024,
    /// PCT sampling of the five shipped algorithms at 64 waiters.
    PctN64,
    /// A closed loop of two clients against a child job server.
    ServeMix,
}

impl Workload {
    /// All workloads.
    pub const ALL: [Workload; 5] = [
        Workload::ExploreN4,
        Workload::ExploreN4Spill,
        Workload::AdversaryN1024,
        Workload::PctN64,
        Workload::ServeMix,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ExploreN4 => "explore-n4",
            Workload::ExploreN4Spill => "explore-n4-spill",
            Workload::AdversaryN1024 => "adversary-n1024",
            Workload::PctN64 => "pct-n64",
            Workload::ServeMix => "serve-mix",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Jobs per pool call in the workload: the explorer fans the E9 deep
    /// row's 65 open frontier nodes out, the adversary sweep its 4 rows,
    /// PCT its 1024 schedules, and a served E10 job its 16 rows.
    #[must_use]
    pub fn pool_fanout(self) -> usize {
        match self {
            Workload::ExploreN4 | Workload::ExploreN4Spill => 65,
            Workload::AdversaryN1024 => 4,
            Workload::PctN64 => 1024,
            Workload::ServeMix => 16,
        }
    }

    /// What one unit of [`RepResult::work`] is, for the printed summary.
    #[must_use]
    pub fn work_unit(self) -> &'static str {
        match self {
            Workload::ExploreN4 | Workload::ExploreN4Spill => "explored states",
            Workload::AdversaryN1024 => "lower-bound rows",
            Workload::PctN64 => "simulator steps",
            Workload::ServeMix => "replies",
        }
    }
}

/// Full size is what the benchmark measures; toy size is the same code on
/// inputs small enough for a debug-build test and for the set-up probe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The published workload.
    Full,
    /// A seconds-in-debug miniature with its own known answers.
    Toy,
}

impl Size {
    /// The name the `probe` subcommand takes.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Toy => "toy",
        }
    }
}

/// What one rep produced.
#[derive(Clone, Debug, Default)]
pub struct RepResult {
    /// Work units done (see [`Workload::work_unit`]).
    pub work: u64,
    /// Every deterministic output field, rendered; two reps of the same
    /// input must agree on it at any thread count.
    pub digest: String,
    /// Known-answer mismatches; empty when the rep verified.
    pub errors: Vec<String>,
}

impl RepResult {
    fn expect<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: T, want: T) {
        if got != want {
            self.errors
                .push(format!("{what}: got {got:?}, expected {want:?}"));
        }
    }
}

/// Runs one rep of a rep-based workload. `seed` only reaches inputs that
/// are seeded (PCT); the exhaustive and adversary workloads are fixed.
///
/// # Panics
///
/// Panics when called for [`Workload::ServeMix`], which has no reps.
#[must_use]
pub fn run_rep(w: Workload, size: Size, seed: u64) -> RepResult {
    match w {
        Workload::ExploreN4 => explore_rep(size, None),
        Workload::ExploreN4Spill => explore_rep(size, Some(spill_budget(size))),
        Workload::AdversaryN1024 => adversary_rep(size),
        Workload::PctN64 => pct_rep(size, seed),
        Workload::ServeMix => panic!("serve-mix is a request loop, not a rep workload"),
    }
}

/// The spill workload's budget; the toy space needs a smaller one to spill.
fn spill_budget(size: Size) -> usize {
    match size {
        Size::Full => SPILL_BUDGET,
        Size::Toy => 8 * 1024,
    }
}

// ------------------------------------------------------------ explore ----

/// `(waiters, max_polls)` of the exhaustively explored scenario.
#[must_use]
pub fn explore_shape(size: Size) -> (usize, u64) {
    match size {
        Size::Full => (E9_DEEP_WAITERS, E9_DEEP_MAX_POLLS),
        Size::Toy => (2, 1),
    }
}

/// The E9 deep scenario (single-waiter, DSM, one signaler pre-poll) at the
/// given shape.
#[must_use]
pub fn explore_scenario(algo: &dyn SignalingAlgorithm, size: Size) -> ScenarioSpec<'_> {
    let (waiters, max_polls) = explore_shape(size);
    ScenarioSpec {
        algorithm: algo,
        waiters,
        max_polls,
        signaler_polls_first: 1,
        model: CostModel::Dsm,
        seed: None,
    }
}

/// Known answers of the explored scenario: explored states, max signaler
/// RMRs, and bytes spilled under the spill workload's budget.
fn explore_answers(size: Size) -> (u64, u64, u64) {
    match size {
        Size::Full => (1_367_496, 5, 21_612_739),
        Size::Toy => (19_478, 5, 337_575),
    }
}

fn explore_rep(size: Size, mem_budget: Option<usize>) -> RepResult {
    let algo = SingleWaiter;
    let scenario = explore_scenario(&algo, size);
    let out = check(
        &scenario,
        &Bounds {
            mem_budget,
            ..Bounds::exhaustive()
        },
    );
    let r = &out.report;
    let mut res = RepResult {
        work: r.explored,
        digest: format!(
            "explored={} deduped={} sleep_pruned={} terminals={} violations={} in_contract={} \
             max_signaler_rmrs={:?} peak_frontier={} peak_visited_bytes={} spilled_bytes={}",
            r.explored,
            r.deduped,
            r.sleep_pruned,
            r.terminals,
            r.violations_found,
            out.in_contract_violations,
            out.max_signaler_rmrs(),
            r.peak_frontier,
            r.peak_visited_bytes,
            r.spilled_bytes,
        ),
        errors: Vec::new(),
    };
    let (explored, max_rmrs, spilled) = explore_answers(size);
    res.expect("explored", r.explored, explored);
    res.expect("exhaustive", r.exhaustive, true);
    res.expect("in-contract violations", out.in_contract_violations, 0);
    res.expect("max signaler RMRs", out.max_signaler_rmrs(), Some(max_rmrs));
    let want_spilled = if mem_budget.is_some() { spilled } else { 0 };
    res.expect("spilled bytes", r.spilled_bytes, want_spilled);
    res
}

// ---------------------------------------------------------- adversary ----

/// The four §6 algorithms the adversary attacks, in row order.
#[must_use]
pub fn adversary_algorithms() -> [&'static dyn SignalingAlgorithm; 4] {
    [&Broadcast, &CcFlag, &SingleWaiter, &QueueSignaling]
}

/// Processes in the adversary sweep.
#[must_use]
pub fn adversary_n(size: Size) -> usize {
    match size {
        Size::Full => 1024,
        Size::Toy => 32,
    }
}

/// Chase signaler RMRs per row (cc-flag never stabilizes, so it has no
/// chase and reads 0).
fn adversary_answers(size: Size) -> [u64; 4] {
    match size {
        Size::Full => [1023, 0, 3, 2049],
        Size::Toy => [31, 0, 3, 65],
    }
}

fn adversary_rep(size: Size) -> RepResult {
    let n = adversary_n(size);
    let algos = adversary_algorithms();
    let reports: Vec<LowerBoundReport> =
        shm_pool::map_indexed(shm_pool::threads(), (0..algos.len()).collect(), |_, k| {
            let mut cfg = LowerBoundConfig::for_n(n);
            cfg.part1.audit = true;
            run_lower_bound(algos[k], cfg)
        });
    let mut res = RepResult {
        work: reports.len() as u64,
        ..RepResult::default()
    };
    let chase: Vec<u64> = reports
        .iter()
        .map(|r| r.chase.as_ref().map_or(0, |c| c.signaler_rmrs))
        .collect();
    res.digest = reports
        .iter()
        .map(|r| {
            let (erased, blocked) = r
                .chase
                .as_ref()
                .map_or((0, 0), |c| (c.erased.len(), c.blocked));
            format!(
                "{} n={} stabilized={} stable={} chase={:?} erased={erased} blocked={blocked} \
                 amortized={:.9} violation={} out_of_contract={} audit_clean={:?}",
                r.algorithm,
                r.n,
                r.part1.stabilized,
                r.part1.stable.len(),
                r.chase.as_ref().map(|c| c.signaler_rmrs),
                r.worst_amortized(),
                r.found_violation(),
                r.out_of_contract(),
                r.audit_clean(),
            )
        })
        .collect::<Vec<_>>()
        .join("; ");
    res.expect(
        "chase signaler RMRs",
        chase,
        adversary_answers(size).to_vec(),
    );
    for r in &reports {
        res.expect(
            &format!("{} audit clean", r.algorithm),
            r.audit_clean(),
            Some(true),
        );
        res.expect(
            &format!("{} violation", r.algorithm),
            r.found_violation(),
            false,
        );
    }
    res
}

// ---------------------------------------------------------------- pct ----

/// The five shipped algorithms PCT samples.
#[must_use]
pub fn shipped_algorithms() -> [&'static dyn SignalingAlgorithm; 5] {
    [
        &Broadcast,
        &CcFlag,
        &SingleWaiter,
        &QueueSignaling,
        &CasList,
    ]
}

/// PCT parameters: waiters, schedules per row; the poll budget, bug depth
/// and step budget are fixed.
#[must_use]
pub fn pct_shape(size: Size) -> (usize, u64) {
    match size {
        Size::Full => (64, 1024),
        Size::Toy => (8, 16),
    }
}

/// Per-waiter poll budget of the PCT scenario.
pub const PCT_MAX_POLLS: u64 = 3;
/// PCT bug depth.
pub const PCT_DEPTH: usize = 3;
/// PCT per-schedule step budget.
pub const PCT_STEPS: u64 = 20_000;

/// The PCT scenario for one row.
#[must_use]
pub fn pct_scenario(
    algo: &dyn SignalingAlgorithm,
    waiters: usize,
    model: CostModel,
) -> ScenarioSpec<'_> {
    ScenarioSpec {
        algorithm: algo,
        waiters,
        max_polls: PCT_MAX_POLLS,
        signaler_polls_first: 1,
        model,
        seed: None,
    }
}

fn pct_rep(size: Size, seed: u64) -> RepResult {
    let (waiters, schedules) = pct_shape(size);
    let bounds = RandomBounds::pct(seed, schedules, PCT_DEPTH, PCT_STEPS);
    let mut res = RepResult::default();
    let mut digest = Vec::new();
    for algo in shipped_algorithms() {
        for (label, model) in [("dsm", CostModel::Dsm), ("cc", CostModel::cc_default())] {
            let out = check_random(&pct_scenario(algo, waiters, model), &bounds);
            let r = &out.report;
            res.work += r.steps_taken;
            digest.push(format!(
                "{}/{label} steps={} terminals={} distinct={} violations={} in_contract={} max={:?}",
                algo.name(),
                r.steps_taken,
                r.terminals,
                r.distinct_fingerprints,
                r.violations_found,
                out.in_contract_violations,
                out.max_signaler_rmrs(),
            ));
            res.expect(
                &format!("{}/{label} in-contract violations", algo.name()),
                out.in_contract_violations,
                0,
            );
        }
    }
    res.digest = digest.join("; ");
    res
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(w: Workload) -> RepResult {
        let r = run_rep(w, Size::Toy, 7);
        assert_eq!(r.errors, Vec::<String>::new(), "{}", w.name());
        assert!(r.work > 0, "{}", w.name());
        r
    }

    #[test]
    fn toy_explore_verifies_in_memory_and_spilled() {
        let mem = toy(Workload::ExploreN4);
        let spill = toy(Workload::ExploreN4Spill);
        assert_eq!(mem.work, spill.work, "spilling never changes the count");
    }

    #[test]
    fn toy_adversary_verifies() {
        let r = toy(Workload::AdversaryN1024);
        assert_eq!(r.work, 4);
    }

    #[test]
    fn toy_pct_verifies_and_repeats_its_digest() {
        let a = toy(Workload::PctN64);
        let b = toy(Workload::PctN64);
        assert_eq!(a.digest, b.digest);
        assert_ne!(a.digest, run_rep(Workload::PctN64, Size::Toy, 8).digest);
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
