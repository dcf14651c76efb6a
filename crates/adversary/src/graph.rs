//! Conflict graphs and independent sets.
//!
//! The proof's rounds resolve conflicts ("p's next RMR sees or touches q")
//! by keeping an independent set of the conflict graph and erasing the rest.
//! Turán's theorem guarantees an independent set of size ≥ n/(d̄+1) where d̄
//! is the average degree; the classic greedy (repeatedly take a
//! minimum-degree vertex, discard its neighbours) achieves that bound, which
//! the proof uses with d̄ ≤ 4 (sees/touches graph) and d̄ ≤ 2 (prior-writer
//! graph).

use shm_sim::ProcId;
use std::collections::{BTreeMap, BTreeSet};

/// An undirected conflict graph over process IDs.
#[derive(Clone, Debug, Default)]
pub struct ConflictGraph {
    adj: BTreeMap<ProcId, BTreeSet<ProcId>>,
}

impl ConflictGraph {
    /// Creates a graph with the given vertices and no edges.
    pub fn new<I: IntoIterator<Item = ProcId>>(vertices: I) -> Self {
        let adj = vertices.into_iter().map(|v| (v, BTreeSet::new())).collect();
        ConflictGraph { adj }
    }

    /// Adds an undirected edge; vertices are added implicitly. Self-loops
    /// are ignored.
    pub fn add_edge(&mut self, p: ProcId, q: ProcId) {
        if p == q {
            return;
        }
        self.adj.entry(p).or_default().insert(q);
        self.adj.entry(q).or_default().insert(p);
    }

    /// Number of vertices.
    #[must_use]
    pub fn vertex_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.adj.values().map(BTreeSet::len).sum::<usize>() / 2
    }

    /// Average degree (0 for the empty graph).
    #[must_use]
    pub fn average_degree(&self) -> f64 {
        if self.adj.is_empty() {
            0.0
        } else {
            2.0 * self.edge_count() as f64 / self.adj.len() as f64
        }
    }

    /// Greedy maximum independent set: repeatedly pick a minimum-degree
    /// vertex and delete its neighbourhood.
    ///
    /// A vertex's degree counts only its neighbours still in play, and ties
    /// go to the lowest pid. The candidates wait in a queue ordered by
    /// (degree, pid): each pick pops the minimum, and deleting a neighbour
    /// re-keys each of its own neighbours still queued, so a call costs
    /// O((V+E) log V) and picks exactly what a scan of every remaining
    /// vertex would.
    ///
    /// Guaranteed size ≥ n/(d̄+1) (Turán bound), which the unit and property
    /// tests verify.
    #[must_use]
    pub fn greedy_independent_set(&self) -> BTreeSet<ProcId> {
        let mut degree: BTreeMap<ProcId, usize> =
            self.adj.iter().map(|(&v, ns)| (v, ns.len())).collect();
        let mut queue: BTreeSet<(usize, ProcId)> = degree.iter().map(|(&v, &d)| (d, v)).collect();
        let mut chosen = BTreeSet::new();
        while let Some((_, v)) = queue.pop_first() {
            chosen.insert(v);
            for u in &self.adj[&v] {
                if queue.remove(&(degree[u], *u)) {
                    // Deleting u lowers its queued neighbours' degrees.
                    for w in &self.adj[u] {
                        let d = degree.get_mut(w).expect("every neighbour is a vertex");
                        if queue.remove(&(*d, *w)) {
                            *d -= 1;
                            queue.insert((*d, *w));
                        }
                    }
                }
            }
        }
        chosen
    }

    /// Checks that `set` is independent in this graph.
    #[must_use]
    pub fn is_independent(&self, set: &BTreeSet<ProcId>) -> bool {
        set.iter().all(|v| {
            self.adj
                .get(v)
                .is_none_or(|ns| ns.iter().all(|u| !set.contains(u)))
        })
    }

    /// Exact maximum independent set by branch and bound — exponential, for
    /// cross-checking the greedy on small graphs in tests only.
    #[must_use]
    pub fn exact_max_independent_set(&self) -> BTreeSet<ProcId> {
        fn solve(
            g: &ConflictGraph,
            verts: &[ProcId],
            idx: usize,
            current: &mut BTreeSet<ProcId>,
            best: &mut BTreeSet<ProcId>,
        ) {
            if idx == verts.len() {
                if current.len() > best.len() {
                    *best = current.clone();
                }
                return;
            }
            if current.len() + (verts.len() - idx) <= best.len() {
                return; // prune
            }
            let v = verts[idx];
            let compatible = g.adj[&v].iter().all(|u| !current.contains(u));
            if compatible {
                current.insert(v);
                solve(g, verts, idx + 1, current, best);
                current.remove(&v);
            }
            solve(g, verts, idx + 1, current, best);
        }
        let verts: Vec<ProcId> = self.adj.keys().copied().collect();
        assert!(
            verts.len() <= 24,
            "exact solver is for small test graphs only"
        );
        let mut best = BTreeSet::new();
        solve(self, &verts, 0, &mut BTreeSet::new(), &mut best);
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcId {
        ProcId(i)
    }

    /// The full-rescan greedy that the queue replaced, kept verbatim as the
    /// reference: every pick scans all remaining vertices for the minimum
    /// (degree, pid), O(V² log V) per call.
    fn scan_greedy_independent_set(g: &ConflictGraph) -> BTreeSet<ProcId> {
        let mut degree: BTreeMap<ProcId, usize> =
            g.adj.iter().map(|(&v, ns)| (v, ns.len())).collect();
        let mut alive: BTreeSet<ProcId> = g.adj.keys().copied().collect();
        let mut chosen = BTreeSet::new();
        while let Some((&v, _)) = degree
            .iter()
            .filter(|(v, _)| alive.contains(v))
            .min_by_key(|&(v, &d)| (d, *v))
        {
            chosen.insert(v);
            alive.remove(&v);
            let neighbours: Vec<ProcId> = g.adj[&v].iter().copied().collect();
            for u in neighbours {
                if alive.remove(&u) {
                    // Removing u lowers its alive neighbours' degrees.
                    for w in &g.adj[&u] {
                        if let Some(d) = degree.get_mut(w) {
                            *d = d.saturating_sub(1);
                        }
                    }
                }
            }
            degree.remove(&v);
        }
        chosen
    }

    /// The queue greedy picks the reference scan's set, which is
    /// independent and meets the Turán bound n/(d̄+1) = n²/(2E+n).
    fn assert_matches_scan(g: &ConflictGraph, what: &str) {
        let set = g.greedy_independent_set();
        assert_eq!(set, scan_greedy_independent_set(g), "{what}");
        assert!(g.is_independent(&set), "{what}");
        let (n, e) = (g.vertex_count(), g.edge_count());
        assert!(
            set.len() * (2 * e + n) >= n * n,
            "{what}: {} below the Turán bound ({n} vertices, {e} edges)",
            set.len()
        );
    }

    #[test]
    fn empty_graph_yields_empty_set() {
        let g = ConflictGraph::default();
        assert!(g.greedy_independent_set().is_empty());
        assert_eq!(g.average_degree(), 0.0);
    }

    #[test]
    fn edgeless_graph_keeps_everything() {
        let g = ConflictGraph::new((0..5).map(p));
        assert_eq!(g.greedy_independent_set().len(), 5);
    }

    #[test]
    fn triangle_keeps_one() {
        let mut g = ConflictGraph::new((0..3).map(p));
        g.add_edge(p(0), p(1));
        g.add_edge(p(1), p(2));
        g.add_edge(p(0), p(2));
        let s = g.greedy_independent_set();
        assert_eq!(s.len(), 1);
        assert!(g.is_independent(&s));
    }

    #[test]
    fn star_keeps_the_leaves() {
        let mut g = ConflictGraph::new((0..6).map(p));
        for i in 1..6 {
            g.add_edge(p(0), p(i));
        }
        let s = g.greedy_independent_set();
        assert_eq!(s.len(), 5, "all leaves survive, hub erased");
        assert!(!s.contains(&p(0)));
    }

    #[test]
    fn self_loops_are_ignored() {
        let mut g = ConflictGraph::new((0..2).map(p));
        g.add_edge(p(0), p(0));
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.greedy_independent_set().len(), 2);
    }

    #[test]
    fn turan_bound_holds_on_a_path() {
        // Path 0-1-2-...-9: greedy should find the 5 odd/even vertices.
        let mut g = ConflictGraph::new((0..10).map(p));
        for i in 0..9 {
            g.add_edge(p(i), p(i + 1));
        }
        let s = g.greedy_independent_set();
        assert!(g.is_independent(&s));
        let bound = (10.0 / (g.average_degree() + 1.0)).ceil() as usize;
        assert!(s.len() >= bound, "{} < Turán bound {bound}", s.len());
        assert_eq!(s.len(), 5, "greedy is optimal on paths");
    }

    #[test]
    fn greedy_matches_exact_on_small_random_graphs() {
        let mut rng = shm_sim::XorShift64::new(99);
        for _ in 0..30 {
            let n = rng.range_usize(4, 12) as u32;
            let mut g = ConflictGraph::new((0..n).map(p));
            for i in 0..n {
                for j in (i + 1)..n {
                    if rng.chance(3, 10) {
                        g.add_edge(p(i), p(j));
                    }
                }
            }
            let greedy = g.greedy_independent_set();
            let exact = g.exact_max_independent_set();
            assert!(g.is_independent(&greedy));
            // Greedy need not be optimal, but must meet the Turán bound and
            // never exceed the optimum.
            let turan = (f64::from(n) / (g.average_degree() + 1.0)).floor() as usize;
            assert!(greedy.len() >= turan.max(1));
            assert!(greedy.len() <= exact.len());
        }
    }

    #[test]
    fn queue_greedy_matches_scan_on_random_graphs() {
        // Release builds run ten times the cases; the scan costs about
        // 10 ms per edgeless 1,024-vertex call there.
        let scale = if cfg!(debug_assertions) { 1 } else { 10 };
        let mut rng = shm_sim::XorShift64::new(0x7A2A);
        for n in [0u32, 1, 2, 3, 17, 64, 130, 1024] {
            let cases = if n == 1024 { 4 } else { 60 } * scale;
            for case in 0..cases {
                // Edge probability in per mille, up to 60 %; the sparse end
                // is where the adversary's graphs live (d̄ ≤ 4).
                let per_mille = *rng.choose(&[0, 1, 2, 4, 10, 50, 150, 300, 600]);
                // Sparse, shifted pids; about one vertex in eight is left
                // out of `new` and appears only if an edge names it.
                let stride = rng.range_usize(1, 4) as u32;
                let offset = rng.range_usize(0, 100) as u32;
                let ids: Vec<ProcId> = (0..n).map(|i| p(offset + i * stride)).collect();
                let mut g = ConflictGraph::new(ids.iter().copied().filter(|_| !rng.chance(1, 8)));
                for (i, &a) in ids.iter().enumerate() {
                    for &b in &ids[i + 1..] {
                        if rng.chance(per_mille, 1000) {
                            g.add_edge(a, b);
                        }
                    }
                }
                assert_matches_scan(&g, &format!("n={n} case={case} per_mille={per_mille}"));
            }
        }
    }

    #[test]
    fn queue_greedy_matches_scan_on_shaped_graphs() {
        for n in [1u32, 2, 3, 4, 5, 17, 64, 130] {
            let vertices = || (0..n).map(p);
            let isolated = ConflictGraph::new(vertices());
            assert_matches_scan(&isolated, &format!("isolated n={n}"));
            let mut low_hub = ConflictGraph::new(vertices());
            let mut high_hub = ConflictGraph::new(vertices());
            let mut path = ConflictGraph::new(vertices());
            let mut clique = ConflictGraph::new(vertices());
            let mut matching = ConflictGraph::new(vertices());
            for i in 1..n {
                low_hub.add_edge(p(0), p(i));
                high_hub.add_edge(p(n - 1), p(i - 1));
                path.add_edge(p(i - 1), p(i));
                for j in 0..i {
                    clique.add_edge(p(j), p(i));
                }
                if i % 2 == 1 {
                    matching.add_edge(p(i - 1), p(i));
                }
            }
            assert_matches_scan(&low_hub, &format!("star, hub 0, n={n}"));
            assert_matches_scan(&high_hub, &format!("star, hub {}, n={n}", n - 1));
            assert_matches_scan(&path, &format!("path n={n}"));
            assert_matches_scan(&clique, &format!("clique n={n}"));
            assert_matches_scan(&matching, &format!("matching n={n}"));
            // Vertices named only by edges: a path and a matching built
            // from the empty graph, and a star whose leaves `new` omits.
            let mut edge_only = ConflictGraph::default();
            let mut leaves_by_edge = ConflictGraph::new([p(n)]);
            for i in 1..n {
                edge_only.add_edge(p(3 * i), p(3 * (i - 1)));
                edge_only.add_edge(p(3 * i + 1), p(3 * i + 2));
                leaves_by_edge.add_edge(p(n), p(i));
            }
            assert_matches_scan(&edge_only, &format!("edge-only n={n}"));
            assert_matches_scan(&leaves_by_edge, &format!("edge-only leaves n={n}"));
        }
    }
}
