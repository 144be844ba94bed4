//! Graph generators: the random-graph families of the paper plus the
//! structured families used by the experiment harness.
//!
//! Two random families come straight from the paper:
//!
//! * [`random_out_degree_graph`] — the distribution `G(n, d)` of Section 2.3:
//!   every vertex picks `⌊d/2⌋` out-neighbours uniformly at random with
//!   replacement, then edge directions are dropped. This is the distribution
//!   the randomization step (Section 5) produces and the leader-election
//!   analysis (Section 6) consumes.
//! * [`random_regular_permutation_graph`] — the distribution `G_{n,d}` of
//!   Section 4, Eq. (1): the union of `d/2` uniformly random permutations,
//!   which is `d`-regular (with self-loops and parallel edges) and an
//!   expander with high probability (Friedman's theorem, Proposition 4.3).
//!
//! The structured families (cycles, paths, trees, grids, rings of cliques,
//! two expanders joined by a bridge, …) realise different spectral gaps and
//! are used to sweep `λ` in the experiments.

use crate::components::connected_components;
use crate::graph::{Graph, GraphBuilder};
use crate::spectral;

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The paper's random graph distribution `G(n, d)` (Section 2.3).
///
/// Every vertex picks `⌊d/2⌋` out-neighbours uniformly at random *with
/// replacement* from the whole vertex set; directions are then dropped. The
/// result has `n·⌊d/2⌋` (multi-)edges, is `(1 ± ε)d`-almost-regular for
/// `d ≥ 4 ln n / ε²` (Proposition 2.3) and is connected w.h.p. for
/// `d ≥ c·log n` (Proposition 2.4).
pub fn random_out_degree_graph<R: Rng + ?Sized>(n: usize, d: usize, rng: &mut R) -> Graph {
    let half = d / 2;
    let mut builder = GraphBuilder::with_capacity(n, n * half);
    for u in 0..n {
        for _ in 0..half {
            let v = rng.gen_range(0..n);
            builder
                .add_edge(u, v)
                .expect("generator produces in-range vertices");
        }
    }
    builder.build()
}

/// The permutation-based random `d`-regular graph `G_{n,d}` of Section 4,
/// Eq. (1): the union of `d/2` uniformly random permutations of `[n]`.
///
/// Permutations are resampled until they are fixed-point free so the result
/// is *exactly* `d`-regular under this crate's "self-loops count once"
/// degree convention (the paper allows fixed points because it implicitly
/// counts a loop twice; conditioning on no fixed point changes each
/// permutation's distribution by `O(1)` total variation and preserves
/// Friedman's spectral-gap bound, Proposition 4.3).
///
/// # Panics
///
/// Panics if `d` is odd (the construction needs `d/2` whole permutations) or
/// if `n < 2`.
pub fn random_regular_permutation_graph<R: Rng + ?Sized>(n: usize, d: usize, rng: &mut R) -> Graph {
    assert!(
        d.is_multiple_of(2),
        "permutation model requires even degree, got {d}"
    );
    assert!(n >= 2, "permutation model requires at least 2 vertices");
    let mut builder = GraphBuilder::with_capacity(n, n * d / 2);
    let mut perm: Vec<usize> = (0..n).collect();
    for _ in 0..d / 2 {
        // Rejection-sample a fixed-point-free permutation (success probability
        // tends to 1/e, so this terminates after a handful of attempts).
        loop {
            perm.shuffle(rng);
            if perm.iter().enumerate().all(|(i, &pi)| i != pi) {
                break;
            }
        }
        for (i, &pi) in perm.iter().enumerate() {
            builder
                .add_edge(i, pi)
                .expect("generator produces in-range vertices");
        }
    }
    builder.build()
}

/// A `d`-regular expander on `n` vertices with normalized-Laplacian spectral
/// gap at least `min_gap`, produced by rejection sampling from
/// [`random_regular_permutation_graph`].
///
/// This mirrors step 1 of `RegularGraphConstruction` in Section 4 (sample,
/// check `λ₂ ≥ 4/5`, retry). The gap is estimated by power iteration with
/// `power_iters` iterations.
///
/// # Panics
///
/// Panics if no sample reaches `min_gap` within `max_attempts` attempts —
/// with the paper's parameters (`d = 100`, `min_gap = 4/5`) this happens with
/// probability `O(n^{-5})` per attempt, so a panic indicates a caller bug
/// (e.g. asking a 2-regular graph for a constant gap).
pub fn random_regular_expander<R: Rng + ?Sized>(
    n: usize,
    d: usize,
    min_gap: f64,
    power_iters: usize,
    max_attempts: usize,
    rng: &mut R,
) -> Graph {
    assert!(n >= 1);
    if n == 1 {
        // A single vertex with d/2 self-loops; trivially "connected".
        return Graph::from_edges_unchecked(1, (0..d / 2).map(|_| (0, 0)));
    }
    if n == 2 {
        // Two vertices joined by d parallel edges: the complete multigraph.
        return Graph::from_edges_unchecked(2, (0..d / 2).map(|_| (0, 1)));
    }
    for _ in 0..max_attempts {
        let g = random_regular_permutation_graph(n, d, rng);
        if connected_components(&g).num_components() == 1
            && spectral::spectral_gap(&g, power_iters) >= min_gap
        {
            return g;
        }
    }
    panic!(
        "failed to sample a {d}-regular expander on {n} vertices with gap >= {min_gap} \
         in {max_attempts} attempts"
    )
}

/// Erdős–Rényi graph `G(n, p)` using geometric gap-skipping so that the cost
/// is proportional to the number of edges rather than `n²`.
pub fn erdos_renyi<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Graph {
    assert!((0.0..=1.0).contains(&p), "p must be a probability, got {p}");
    let mut builder = GraphBuilder::new(n);
    if p == 0.0 || n < 2 {
        return builder.build();
    }
    if p >= 1.0 {
        for u in 0..n {
            for v in (u + 1)..n {
                builder.add_edge(u, v).unwrap();
            }
        }
        return builder.build();
    }
    // Enumerate pairs (u, v), u < v, in lexicographic order and skip ahead by
    // geometric jumps.
    let log_q = (1.0 - p).ln();
    let mut u = 0usize;
    let mut v = 0usize; // current column within row u (v > u required)
    loop {
        let r: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let skip = (r.ln() / log_q).floor() as usize + 1;
        v += skip;
        while u < n && v >= n {
            v = v - n + u + 2; // wrap to the next row, first valid column is u+2 there
            u += 1;
        }
        if u >= n - 1 {
            break;
        }
        builder.add_edge(u, v).unwrap();
    }
    builder.build()
}

/// Cycle on `n ≥ 3` vertices (`λ₂ = Θ(1/n²)` — the canonical "badly
/// connected" sparse graph).
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle requires at least 3 vertices");
    Graph::from_edges_unchecked(n, (0..n).map(|i| (i, (i + 1) % n)))
}

/// Path on `n ≥ 2` vertices.
pub fn path(n: usize) -> Graph {
    assert!(n >= 2, "path requires at least 2 vertices");
    Graph::from_edges_unchecked(n, (0..n - 1).map(|i| (i, i + 1)))
}

/// Star with centre `0` and `n - 1` leaves — the canonical "hub" graph on
/// which naive random-walk stitching fails to produce independent walks
/// (Section 3, Step 2 discussion).
pub fn star(n: usize) -> Graph {
    assert!(n >= 2, "star requires at least 2 vertices");
    Graph::from_edges_unchecked(n, (1..n).map(|i| (0, i)))
}

/// Complete graph on `n` vertices.
pub fn complete(n: usize) -> Graph {
    let mut builder = GraphBuilder::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            builder.add_edge(u, v).unwrap();
        }
    }
    builder.build()
}

/// Complete binary tree on `n` vertices (vertex `i` has children `2i+1`,
/// `2i+2`).
pub fn binary_tree(n: usize) -> Graph {
    let mut builder = GraphBuilder::new(n);
    for i in 1..n {
        builder.add_edge(i, (i - 1) / 2).unwrap();
    }
    builder.build()
}

/// `rows × cols` grid graph.
pub fn grid(rows: usize, cols: usize) -> Graph {
    let idx = |r: usize, c: usize| r * cols + c;
    let mut builder = GraphBuilder::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                builder.add_edge(idx(r, c), idx(r, c + 1)).unwrap();
            }
            if r + 1 < rows {
                builder.add_edge(idx(r, c), idx(r + 1, c)).unwrap();
            }
        }
    }
    builder.build()
}

/// A ring of `k` cliques of size `s`, consecutive cliques joined by a single
/// edge. Spectral gap shrinks as `k` grows while each clique stays perfectly
/// connected — a family interpolating between expander-like and cycle-like.
pub fn ring_of_cliques(num_cliques: usize, clique_size: usize) -> Graph {
    assert!(num_cliques >= 3 && clique_size >= 1);
    let n = num_cliques * clique_size;
    let mut builder = GraphBuilder::new(n);
    for c in 0..num_cliques {
        let base = c * clique_size;
        for i in 0..clique_size {
            for j in (i + 1)..clique_size {
                builder.add_edge(base + i, base + j).unwrap();
            }
        }
        let next_base = ((c + 1) % num_cliques) * clique_size;
        builder.add_edge(base, next_base).unwrap();
    }
    builder.build()
}

/// Two `d`-regular expanders on `n_each` vertices joined by a single bridge
/// edge. This is the instance the paper contrasts with Andoni et al. \[6\]
/// (Section 1.3): the diameter is small but the spectral gap is `O(1/n)`.
pub fn two_expanders_bridge<R: Rng + ?Sized>(n_each: usize, d: usize, rng: &mut R) -> Graph {
    let a = random_regular_permutation_graph(n_each, d, rng);
    let b = random_regular_permutation_graph(n_each, d, rng);
    let mut union = a.disjoint_union(&b);
    let mut edges: Vec<(usize, usize)> = union.edge_iter().collect();
    edges.push((0, n_each));
    union = Graph::from_edges_unchecked(2 * n_each, edges);
    union
}

/// Barabási–Albert-style preferential attachment with `m` edges per new
/// vertex. Produces the heavy-tailed degree distribution that motivates the
/// regularization step (a few huge-degree hubs).
pub fn preferential_attachment<R: Rng + ?Sized>(n: usize, m: usize, rng: &mut R) -> Graph {
    assert!(n >= 2 && m >= 1);
    let mut builder = GraphBuilder::new(n);
    // Degree-proportional sampling via a repeated-endpoint list.
    let mut endpoints: Vec<usize> = vec![0, 1];
    builder.add_edge(0, 1).unwrap();
    for v in 2..n {
        let targets = m.min(v);
        for _ in 0..targets {
            let t = endpoints[rng.gen_range(0..endpoints.len())];
            builder.add_edge(v, t).unwrap();
            endpoints.push(v);
            endpoints.push(t);
        }
    }
    builder.build()
}

/// Disjoint union of the given graphs, relabelling vertices consecutively.
/// Returns the union and, for each input graph, the offset of its vertex ids.
pub fn disjoint_union_of(graphs: &[Graph]) -> (Graph, Vec<usize>) {
    let total: usize = graphs.iter().map(|g| g.num_vertices()).sum();
    let mut builder = GraphBuilder::new(total);
    let mut offsets = Vec::with_capacity(graphs.len());
    let mut offset = 0usize;
    for g in graphs {
        offsets.push(offset);
        for (u, v) in g.edge_iter() {
            builder.add_edge(u + offset, v + offset).unwrap();
        }
        offset += g.num_vertices();
    }
    (builder.build(), offsets)
}

/// A union of planted `d`-regular expander components with the given sizes.
/// Each component is sampled independently; the whole graph therefore has one
/// connected component per planted size (w.h.p.), each with constant spectral
/// gap — the paper's flagship "well-connected components" instance.
pub fn planted_expander_components<R: Rng + ?Sized>(
    sizes: &[usize],
    d: usize,
    rng: &mut R,
) -> Graph {
    let parts: Vec<Graph> = sizes
        .iter()
        .map(|&s| {
            if s == 1 {
                Graph::empty(1)
            } else if s == 2 {
                Graph::from_edges_unchecked(2, vec![(0, 1)])
            } else {
                random_regular_permutation_graph(s, d, rng)
            }
        })
        .collect();
    disjoint_union_of(&parts).0
}

/// Randomly permutes vertex labels. Useful for destroying accidental locality
/// in structured generators before handing graphs to the MPC simulator (the
/// MPC model assumes an adversarial initial distribution of the input).
pub fn relabel_random<R: Rng + ?Sized>(g: &Graph, rng: &mut R) -> Graph {
    let n = g.num_vertices();
    let mut perm: Vec<usize> = (0..n).collect();
    perm.shuffle(rng);
    Graph::from_edges_unchecked(n, g.edge_iter().map(|(u, v)| (perm[u], perm[v])))
}

/// A named graph family, used by the experiment harness to sweep instance
/// types uniformly. Each family is parameterised only by the target number of
/// vertices; the actual vertex count may differ slightly (e.g. grids round to
/// a rectangle).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum GraphFamily {
    /// Single `d`-regular expander (permutation model).
    Expander {
        /// Degree of the expander (must be even).
        degree: usize,
    },
    /// The paper's `G(n, d)` out-degree model.
    PaperRandom {
        /// Average degree `d` (each vertex picks `d/2` out-neighbours).
        degree: usize,
    },
    /// Union of equally sized planted expander components.
    PlantedExpanders {
        /// Number of planted components.
        num_components: usize,
        /// Degree of each component (must be even).
        degree: usize,
    },
    /// Cycle graph — spectral gap `Θ(1/n²)`.
    Cycle,
    /// Path graph — spectral gap `Θ(1/n²)`.
    Path,
    /// Complete binary tree — spectral gap `Θ(1/n)`.
    BinaryTree,
    /// Square-ish grid — spectral gap `Θ(1/n)`.
    Grid,
    /// Ring of cliques of the given size — gap `Θ(clique³/n²)` territory.
    RingOfCliques {
        /// Size of each clique.
        clique_size: usize,
    },
    /// Two expanders joined by one bridge edge — small diameter, tiny gap.
    TwoExpandersBridge {
        /// Degree of each expander half (must be even).
        degree: usize,
    },
    /// Star graph — the hub stress-test.
    Star,
    /// Preferential attachment — heavy-tailed degrees.
    PreferentialAttachment {
        /// Edges added per new vertex.
        edges_per_vertex: usize,
    },
}

impl GraphFamily {
    /// A short machine-readable name for reports.
    pub fn name(&self) -> String {
        match self {
            GraphFamily::Expander { degree } => format!("expander_d{degree}"),
            GraphFamily::PaperRandom { degree } => format!("paper_random_d{degree}"),
            GraphFamily::PlantedExpanders {
                num_components,
                degree,
            } => format!("planted_{num_components}x_d{degree}"),
            GraphFamily::Cycle => "cycle".to_string(),
            GraphFamily::Path => "path".to_string(),
            GraphFamily::BinaryTree => "binary_tree".to_string(),
            GraphFamily::Grid => "grid".to_string(),
            GraphFamily::RingOfCliques { clique_size } => {
                format!("ring_of_cliques_{clique_size}")
            }
            GraphFamily::TwoExpandersBridge { degree } => {
                format!("two_expanders_bridge_d{degree}")
            }
            GraphFamily::Star => "star".to_string(),
            GraphFamily::PreferentialAttachment { edges_per_vertex } => {
                format!("pref_attach_m{edges_per_vertex}")
            }
        }
    }

    /// Generates an instance with roughly `n` vertices.
    pub fn generate<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Graph {
        match self {
            GraphFamily::Expander { degree } => {
                random_regular_permutation_graph(n.max(3), *degree, rng)
            }
            GraphFamily::PaperRandom { degree } => random_out_degree_graph(n.max(2), *degree, rng),
            GraphFamily::PlantedExpanders {
                num_components,
                degree,
            } => {
                let size = (n / num_components).max(3);
                let sizes = vec![size; *num_components];
                planted_expander_components(&sizes, *degree, rng)
            }
            GraphFamily::Cycle => cycle(n.max(3)),
            GraphFamily::Path => path(n.max(2)),
            GraphFamily::BinaryTree => binary_tree(n.max(2)),
            GraphFamily::Grid => {
                let side = (n as f64).sqrt().round().max(2.0) as usize;
                grid(side, side)
            }
            GraphFamily::RingOfCliques { clique_size } => {
                let k = (n / clique_size).max(3);
                ring_of_cliques(k, *clique_size)
            }
            GraphFamily::TwoExpandersBridge { degree } => {
                two_expanders_bridge((n / 2).max(3), *degree, rng)
            }
            GraphFamily::Star => star(n.max(2)),
            GraphFamily::PreferentialAttachment { edges_per_vertex } => {
                preferential_attachment(n.max(2), *edges_per_vertex, rng)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::connected_components;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn paper_random_graph_has_expected_edge_count_and_connectivity() {
        let mut r = rng(1);
        let n = 400;
        let d = 4 * ((n as f64).ln().ceil() as usize); // comfortably above c log n
        let g = random_out_degree_graph(n, d, &mut r);
        assert_eq!(g.num_edges(), n * (d / 2));
        assert_eq!(connected_components(&g).num_components(), 1);
    }

    #[test]
    fn paper_random_graph_is_almost_regular_for_large_d() {
        // Proposition 2.3 with eps = 0.5: d >= 4 ln n / eps^2.
        let mut r = rng(2);
        let n = 300;
        let eps = 0.5;
        let d = ((4.0 * (n as f64).ln() / (eps * eps)).ceil() as usize).next_multiple_of(2);
        let g = random_out_degree_graph(n, d, &mut r);
        assert!(g.is_almost_regular(d as f64, eps));
    }

    #[test]
    fn permutation_graph_is_exactly_regular() {
        let mut r = rng(3);
        let g = random_regular_permutation_graph(200, 10, &mut r);
        assert!(
            g.is_regular(10),
            "degrees: {:?}",
            (0..5).map(|v| g.degree(v)).collect::<Vec<_>>()
        );
        assert_eq!(g.num_edges(), 200 * 5);
    }

    #[test]
    #[should_panic(expected = "even degree")]
    fn permutation_graph_rejects_odd_degree() {
        let mut r = rng(4);
        let _ = random_regular_permutation_graph(10, 3, &mut r);
    }

    #[test]
    fn expander_sampler_reaches_requested_gap() {
        let mut r = rng(5);
        let g = random_regular_expander(128, 10, 0.3, 200, 20, &mut r);
        assert!(g.is_regular(10));
        assert!(spectral::spectral_gap(&g, 300) >= 0.3);
    }

    #[test]
    fn erdos_renyi_edge_count_is_close_to_expectation() {
        let mut r = rng(6);
        let n = 500;
        let p = 0.02;
        let g = erdos_renyi(n, p, &mut r);
        let expected = p * (n * (n - 1) / 2) as f64;
        let got = g.num_edges() as f64;
        assert!(
            (got - expected).abs() < 0.25 * expected,
            "expected about {expected}, got {got}"
        );
        // No duplicate pairs and no self loops in ER.
        assert!(!g.has_self_loops());
    }

    #[test]
    fn erdos_renyi_extremes() {
        let mut r = rng(7);
        assert_eq!(erdos_renyi(50, 0.0, &mut r).num_edges(), 0);
        assert_eq!(erdos_renyi(10, 1.0, &mut r).num_edges(), 45);
    }

    #[test]
    fn structured_families_have_expected_shape() {
        assert!(cycle(10).is_regular(2));
        assert_eq!(path(10).num_edges(), 9);
        assert_eq!(star(10).degree(0), 9);
        assert_eq!(complete(6).num_edges(), 15);
        assert_eq!(binary_tree(7).num_edges(), 6);
        let g = grid(3, 4);
        assert_eq!(g.num_vertices(), 12);
        assert_eq!(g.num_edges(), 3 * 3 + 4 * 2);
        let rc = ring_of_cliques(4, 5);
        assert_eq!(rc.num_vertices(), 20);
        assert_eq!(connected_components(&rc).num_components(), 1);
    }

    #[test]
    fn two_expanders_bridge_is_connected_with_tiny_gap() {
        let mut r = rng(8);
        let g = two_expanders_bridge(100, 8, &mut r);
        assert_eq!(g.num_vertices(), 200);
        assert_eq!(connected_components(&g).num_components(), 1);
        let gap = spectral::spectral_gap(&g, 400);
        assert!(
            gap < 0.05,
            "bridge graph should have a small gap, got {gap}"
        );
    }

    #[test]
    fn planted_components_match_sizes() {
        let mut r = rng(9);
        let g = planted_expander_components(&[50, 30, 20], 8, &mut r);
        let cc = connected_components(&g);
        assert_eq!(cc.num_components(), 3);
        let mut sizes = cc.component_sizes();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![20, 30, 50]);
    }

    #[test]
    fn preferential_attachment_has_heavy_hub() {
        let mut r = rng(10);
        let g = preferential_attachment(500, 2, &mut r);
        assert_eq!(connected_components(&g).num_components(), 1);
        assert!(
            g.max_degree() > 10,
            "expected a hub, max degree {}",
            g.max_degree()
        );
    }

    #[test]
    fn relabel_preserves_structure() {
        let mut r = rng(11);
        let g = ring_of_cliques(5, 4);
        let h = relabel_random(&g, &mut r);
        assert_eq!(g.num_vertices(), h.num_vertices());
        assert_eq!(g.num_edges(), h.num_edges());
        assert_eq!(
            connected_components(&g).num_components(),
            connected_components(&h).num_components()
        );
        let mut gd: Vec<_> = (0..g.num_vertices()).map(|v| g.degree(v)).collect();
        let mut hd: Vec<_> = (0..h.num_vertices()).map(|v| h.degree(v)).collect();
        gd.sort_unstable();
        hd.sort_unstable();
        assert_eq!(gd, hd);
    }

    #[test]
    fn families_generate_and_name() {
        let mut r = rng(12);
        let fams = [
            GraphFamily::Expander { degree: 8 },
            GraphFamily::PaperRandom { degree: 16 },
            GraphFamily::PlantedExpanders {
                num_components: 4,
                degree: 8,
            },
            GraphFamily::Cycle,
            GraphFamily::Path,
            GraphFamily::BinaryTree,
            GraphFamily::Grid,
            GraphFamily::RingOfCliques { clique_size: 5 },
            GraphFamily::TwoExpandersBridge { degree: 8 },
            GraphFamily::Star,
            GraphFamily::PreferentialAttachment {
                edges_per_vertex: 2,
            },
        ];
        for f in fams {
            let g = f.generate(120, &mut r);
            assert!(g.num_vertices() >= 2, "{} too small", f.name());
            assert!(!f.name().is_empty());
        }
    }
}
