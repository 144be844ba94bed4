//! The Ahn–Guha–McGregor connectivity sketch (Proposition 8.1).
//!
//! Every vertex `v` owns the *signed edge-incidence vector* `a_v`, indexed by
//! ordered vertex pairs: for an edge `{u, v}` with `u < v`, coordinate
//! `(u, v)` of `a_u` is `+1` and of `a_v` is `−1`; all other coordinates are
//! zero. The crucial linearity property: for any vertex set `S`, the non-zero
//! coordinates of `Σ_{v∈S} a_v` are exactly the edges with one endpoint in
//! `S` — internal edges cancel.
//!
//! Each vertex keeps `t = O(log n)` independent ℓ0-samplers of `a_v` (stored
//! flat, see [`kernel`](crate::kernel)). Borůvka then runs entirely in sketch
//! space: in phase `i`, every current component sums its members' `i`-th
//! samplers, samples one outgoing edge (if any), and the sampled edges merge
//! components. Using a *fresh* sampler per phase keeps the samples
//! independent of the merging decisions — the same "fresh randomness per
//! phase" idea the paper reuses for its leader-election algorithm in
//! Section 6. After `O(log n)` phases no component has an outgoing edge and
//! the components are exactly the connected components of the graph.

use crate::kernel::{ComponentRows, SketchKeys, VertexSketch};

use wcc_graph::{ComponentLabels, UnionFind};

/// The full AGM connectivity sketch of a graph on `n` vertices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnectivitySketch {
    n: usize,
    keys: SketchKeys,
    vertices: Vec<VertexSketch>,
}

impl ConnectivitySketch {
    /// Creates a sketch for a graph on `n` vertices using a default number of
    /// Borůvka phases (`2·⌈log₂ n⌉ + 2`) and a fixed seed.
    pub fn new(n: usize, seed: u64) -> Self {
        let phases = 2 * (usize::BITS - n.max(2).leading_zeros()) as usize + 2;
        Self::with_phases(n, phases, seed)
    }

    /// Creates a sketch with an explicit number of Borůvka phases. More
    /// phases increase both the success probability and the message size.
    ///
    /// All vertices share the same per-phase hash seeds — this is the
    /// "players have access to `polylog(n)` shared random bits" requirement
    /// of Proposition 8.1, and it is what makes sketches of different
    /// vertices addable.
    pub fn with_phases(n: usize, num_phases: usize, seed: u64) -> Self {
        let keys = SketchKeys::new(num_phases, seed);
        let vertices = vec![keys.empty_vertex(num_phases); n];
        ConnectivitySketch { n, keys, vertices }
    }

    /// Reassembles a sketch from per-vertex messages built independently
    /// with [`ConnectivitySketch::vertex_sketch_for`] under the same `keys`
    /// — the fan-in half of a per-vertex parallel construction. Equivalent
    /// to feeding every edge through [`ConnectivitySketch::add_edge`]
    /// (sketch updates are linear, so per-vertex construction order cannot
    /// matter).
    ///
    /// # Panics
    ///
    /// Panics if `vertices.len() != n` or a message has a different phase
    /// count than `keys`.
    pub fn from_vertex_sketches(n: usize, keys: SketchKeys, vertices: Vec<VertexSketch>) -> Self {
        assert_eq!(vertices.len(), n, "one message per vertex required");
        assert!(
            vertices.iter().all(|v| v.num_phases() == keys.num_phases()),
            "messages must be built under `keys`"
        );
        ConnectivitySketch { n, keys, vertices }
    }

    /// Builds the message of a single vertex of an `n`-vertex graph from its
    /// neighbour list (as stored by
    /// [`Graph::neighbors`](wcc_graph::Graph::neighbors); self-loops are
    /// ignored, parallel edges counted with multiplicity). A pure function
    /// of `(keys, v, neighbors)`, so callers build the keys once, share them
    /// by reference across any execution backend's fan-out, and reassemble
    /// with [`ConnectivitySketch::from_vertex_sketches`].
    pub fn vertex_sketch_for(
        keys: &SketchKeys,
        n: usize,
        v: usize,
        neighbors: &[u32],
    ) -> VertexSketch {
        assert!(v < n, "vertex out of range");
        let mut sketch = keys.empty_vertex(keys.num_phases());
        for &w in neighbors {
            let w = w as usize;
            if w == v {
                continue;
            }
            let (a, b) = if v < w { (v, w) } else { (w, v) };
            let idx = a as u64 * n as u64 + b as u64;
            keys.update(&mut sketch, idx, if v == a { 1 } else { -1 });
        }
        sketch
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    fn decode_edge(&self, index: u64) -> (usize, usize) {
        (
            (index / self.n as u64) as usize,
            (index % self.n as u64) as usize,
        )
    }

    /// Adds `delta` copies of the undirected edge `{u, v}`: ordered pair
    /// `(a, b)`, `a < b`, lives at ℓ0 coordinate `a·n + b`.
    fn apply_edge(&mut self, u: usize, v: usize, delta: i64) {
        assert!(u < self.n && v < self.n, "edge endpoint out of range");
        if u == v {
            return;
        }
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        let idx = a as u64 * self.n as u64 + b as u64;
        let phases = 0..self.keys.num_phases();
        self.keys
            .update_edge(&mut self.vertices, a, b, idx, delta, phases);
    }

    /// Inserts the undirected edge `{u, v}`. Self-loops are ignored (they are
    /// irrelevant for connectivity and have no slot in the incidence vector).
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn add_edge(&mut self, u: usize, v: usize) {
        self.apply_edge(u, v, 1);
    }

    /// Deletes the undirected edge `{u, v}` (the sketch is linear, so
    /// deletions are just negative updates).
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn remove_edge(&mut self, u: usize, v: usize) {
        self.apply_edge(u, v, -1);
    }

    /// The per-vertex message for vertex `v` (what each "player" sends to the
    /// coordinator in Proposition 8.1).
    pub fn vertex_sketch(&self, v: usize) -> &VertexSketch {
        &self.vertices[v]
    }

    /// Total size of all messages, in words.
    pub fn total_size_in_words(&self) -> usize {
        self.n * self.keys.words_per_vertex()
    }

    /// The coordinator's computation: recovers the connected components from
    /// the vertex sketches alone by sketch-space Borůvka.
    ///
    /// With the default number of phases the output equals the true
    /// components with high probability; it is always a *refinement* of the
    /// true components (the sketch can fail to merge, but a sampled edge is
    /// always a real edge thanks to the fingerprint test).
    pub fn components(&self) -> ComponentLabels {
        let mut uf = UnionFind::new(self.n);
        // Components are visited in first-seen vertex order, which keeps the
        // union order deterministic.
        let mut rows = ComponentRows::new(self.n, self.vertices.iter());
        for phase in 0..self.keys.num_phases() {
            // Sum the phase-th sampler of each component.
            rows.clear();
            for (v, sketch) in self.vertices.iter().enumerate() {
                rows.add(uf.find(v), sketch, phase);
            }
            // A phase may merge nothing just because every component's sample
            // failed (each fails with constant probability) — that is not
            // convergence, and later phases have fresh randomness. Exit early
            // only when no component has an outgoing edge, i.e. no row is
            // non-zero (a false "zero" requires a fingerprint collision,
            // probability O(n²/p) per check).
            let mut all_zero = true;
            for row in rows.nonzero() {
                all_zero = false;
                if let Some((idx, _weight)) = self.keys.sample(phase, row) {
                    let (u, v) = self.decode_edge(idx);
                    if u < self.n && v < self.n {
                        uf.union(u, v);
                    }
                }
            }
            if all_zero {
                break;
            }
        }
        uf.into_labels()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use wcc_graph::prelude::*;

    fn sketch_components(g: &Graph, seed: u64) -> ComponentLabels {
        let mut sk = ConnectivitySketch::new(g.num_vertices(), seed);
        for (u, v) in g.edge_iter() {
            sk.add_edge(u, v);
        }
        sk.components()
    }

    #[test]
    fn per_vertex_construction_matches_add_edge() {
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let g = generators::random_out_degree_graph(80, 6, &mut rng);
        let n = g.num_vertices();
        let (phases, seed) = (20, 99);
        let mut incremental = ConnectivitySketch::with_phases(n, phases, seed);
        for (u, v) in g.edge_iter() {
            incremental.add_edge(u, v);
        }
        let keys = SketchKeys::new(phases, seed);
        let messages: Vec<VertexSketch> = (0..n)
            .map(|v| ConnectivitySketch::vertex_sketch_for(&keys, n, v, g.neighbors(v)))
            .collect();
        let assembled = ConnectivitySketch::from_vertex_sketches(n, keys, messages);
        assert_eq!(incremental, assembled);
    }

    #[test]
    fn empty_graph_has_all_singletons() {
        let g = Graph::empty(10);
        let labels = sketch_components(&g, 1);
        assert_eq!(labels.num_components(), 10);
    }

    #[test]
    fn cycle_is_one_component() {
        let g = generators::cycle(50);
        assert_eq!(sketch_components(&g, 2).num_components(), 1);
    }

    #[test]
    fn two_cliques_stay_separate() {
        let (g, _) =
            generators::disjoint_union_of(&[generators::complete(8), generators::complete(9)]);
        let truth = connected_components(&g);
        let got = sketch_components(&g, 3);
        assert!(got.same_partition(&truth));
    }

    #[test]
    fn random_graphs_match_ground_truth() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for seed in 0..5u64 {
            let g = generators::erdos_renyi(120, 0.02, &mut rng);
            let truth = connected_components(&g);
            let got = sketch_components(&g, seed);
            assert!(
                got.same_partition(&truth),
                "seed {seed}: sketch {} vs truth {} components",
                got.num_components(),
                truth.num_components()
            );
        }
    }

    #[test]
    fn output_is_always_a_refinement_even_with_too_few_phases() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let g = generators::random_out_degree_graph(200, 8, &mut rng);
        let truth = connected_components(&g);
        let mut sk = ConnectivitySketch::with_phases(g.num_vertices(), 1, 7);
        for (u, v) in g.edge_iter() {
            sk.add_edge(u, v);
        }
        let got = sk.components();
        assert!(got.is_refinement_of(&truth));
    }

    #[test]
    fn deletion_stream_is_supported() {
        // Build a cycle, then delete one edge: still connected. Delete another: splits.
        let n = 30;
        let mut sk = ConnectivitySketch::new(n, 9);
        for i in 0..n {
            sk.add_edge(i, (i + 1) % n);
        }
        sk.remove_edge(0, 1);
        assert_eq!(sk.components().num_components(), 1);
        sk.remove_edge(15, 16);
        assert_eq!(sk.components().num_components(), 2);
    }

    #[test]
    fn self_loops_are_ignored() {
        let mut sk = ConnectivitySketch::new(5, 4);
        sk.add_edge(2, 2);
        assert_eq!(sk.components().num_components(), 5);
    }

    #[test]
    fn message_size_is_polylogarithmic() {
        let sk = ConnectivitySketch::new(1 << 12, 0);
        let per_vertex = sk.vertex_sketch(0).size_in_words();
        // O(log^2)-ish words per vertex; definitely far below n.
        assert!(per_vertex < 10_000, "per-vertex message {per_vertex} words");
        assert_eq!(sk.total_size_in_words(), per_vertex * (1 << 12));
    }

    #[test]
    fn planted_expanders_recovered() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let g = generators::planted_expander_components(&[40, 60, 80], 8, &mut rng);
        let truth = connected_components(&g);
        let got = sketch_components(&g, 13);
        assert!(got.same_partition(&truth));
    }
}
