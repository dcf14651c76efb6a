//! Exploration bounds: the knobs that take the search from exhaustive to
//! CHESS-style bounded.

/// Limits and reductions applied to a schedule-space exploration.
///
/// The default ([`Bounds::exhaustive`]) explores the whole space with both
/// reductions on — sound and complete for terminating scenarios. Setting
/// [`Bounds::max_depth`] or [`Bounds::max_preemptions`] turns the run into a
/// bounded under-approximation (see the crate docs); [`ExploreReport::exhaustive`]
/// records whether any bound actually cut a branch.
///
/// [`ExploreReport::exhaustive`]: crate::ExploreReport::exhaustive
#[derive(Clone, Copy, Debug)]
pub struct Bounds {
    /// Maximum schedule length (steps from the initial state); `None` =
    /// unbounded. Needed for scenarios whose processes can take unboundedly
    /// many steps (e.g. spinning lock acquires): the projection-fingerprint
    /// dedup merges interleavings, not loops, so cyclic behaviors only
    /// terminate under a depth bound.
    pub max_depth: Option<usize>,
    /// Maximum number of preemptive context switches per schedule (a switch
    /// away from a process that is still runnable), CHESS-style. `None` =
    /// unbounded.
    pub max_preemptions: Option<usize>,
    /// Deduplicate states on [`shm_sim::Simulator::state_fingerprint`]
    /// (keyed together with the sleep set and, when preemption bounding is
    /// active, the remaining budget — so dedup never prunes a state whose
    /// continuations could differ).
    pub dedup: bool,
    /// Sleep-set partial-order reduction.
    pub dpor: bool,
    /// Byte budget for exploration memory: the visited hot tier and the
    /// resident frontier ring together stay under (a logical accounting of)
    /// this many bytes, spilling delta-compressed runs / packed nodes to
    /// disk beyond it (see [`crate::store`]). `None` = unbounded, fully
    /// in-memory. Spilling never changes any count, verdict, or schedule in
    /// the report — only where keys and nodes live.
    pub mem_budget: Option<usize>,
}

impl Bounds {
    /// Full exploration: no depth or preemption limits, both reductions on.
    #[must_use]
    pub fn exhaustive() -> Self {
        Bounds {
            max_depth: None,
            max_preemptions: None,
            dedup: true,
            dpor: true,
            mem_budget: None,
        }
    }

    /// Bounded exploration: depth-limited (and optionally preemption-
    /// limited), both reductions on.
    #[must_use]
    pub fn bounded(max_depth: usize, max_preemptions: Option<usize>) -> Self {
        Bounds {
            max_depth: Some(max_depth),
            max_preemptions,
            ..Bounds::exhaustive()
        }
    }

    /// Naive enumeration: no partial-order reduction and no deduplication.
    /// Exponentially slower; exists as the differential reference the
    /// property tests compare DPOR against.
    #[must_use]
    pub fn naive() -> Self {
        Bounds {
            dedup: false,
            dpor: false,
            ..Bounds::exhaustive()
        }
    }
}

impl Default for Bounds {
    fn default() -> Self {
        Bounds::exhaustive()
    }
}
