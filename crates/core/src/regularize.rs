//! Step 1 — Regularization (Section 4, Lemma 4.1).
//!
//! The pipeline first turns the arbitrary sparse input graph `G` into a
//! constant-degree regular graph `H` with the same component structure and
//! (up to constants) the same per-component spectral gap, by taking the
//! replacement product of `G` with a family of clouds chosen by
//! [`cloud_sizes`]. Only what is irregular is regularized:
//!
//! * a *light* vertex, `1 ≤ deg(v) ≤ d+1`, already fits the product's degree
//!   `d+1` and stays whole: one vertex keeping all its incident edges, padded
//!   with `d+1−deg(v)` self-loops (for `deg(v) = 1` this *is* the classic
//!   one-vertex cloud with `d` loops);
//! * a *heavy* vertex gets a `d`-regular expander cloud of size `deg(v)`,
//!   one port per cloud vertex, sampled with `RegularGraphConstruction`:
//!   clouds that fit in one machine (`deg(v) ≤ m^δ`) are rejection-sampled
//!   locally until their spectral gap clears the threshold (Corollary 4.4);
//!   larger clouds are built distributively: sample a random value per
//!   (vertex, permutation) pair, sort to obtain random permutations, read the
//!   edges off the sorted order (Lemma 4.5). The simulator executes this
//!   locally but charges the `O(1/δ)` sort rounds of the lemma.
//!
//! `H` is `(d+1)`-regular on `Σ_v c(v) ≤ 2m` vertices. Lemma 4.1's guarantees
//! survive because a whole vertex is a cloud with perfect internal mixing;
//! DESIGN.md §14 has the argument and the measured gaps (an already regular
//! input of degree `Δ ≤ d+1` keeps `Δ/(d+1)` of its gap instead of the
//! `Θ(1/d)` the all-cloud product leaves).
//!
//! The output records the cloud layout so component labels of `H` can be
//! pulled back to `G` ([`RegularizedGraph::pull_back_labels`]).

use crate::params::Params;
use crate::products::{cloud_sizes, replacement_product, whole_vertex_cloud, ProductLayout};

use rand::Rng;
use wcc_graph::{generators, ComponentLabels, Graph};
use wcc_mpc::{MpcContext, MpcError};

/// Errors produced by the pipeline steps in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The supplied parameters are inconsistent.
    BadParams(String),
    /// The MPC simulator rejected the run (memory budget exceeded, …).
    Mpc(MpcError),
    /// An internal sampling step exhausted its retry budget.
    SamplingFailed(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::BadParams(msg) => write!(f, "invalid parameters: {msg}"),
            CoreError::Mpc(e) => write!(f, "MPC simulation error: {e}"),
            CoreError::SamplingFailed(msg) => write!(f, "sampling failed: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<MpcError> for CoreError {
    fn from(e: MpcError) -> Self {
        CoreError::Mpc(e)
    }
}

/// The result of the regularization step.
#[derive(Debug, Clone)]
pub struct RegularizedGraph {
    /// The `(d+1)`-regular replacement product.
    pub graph: Graph,
    /// Degree of the regular graph (`expander_degree + 1`).
    pub degree: usize,
    /// For every vertex of `graph`, the original vertex whose cloud it
    /// belongs to.
    pub cloud_of: Vec<usize>,
    /// Number of vertices of the original graph.
    pub original_vertices: usize,
}

impl RegularizedGraph {
    /// Pulls component labels of the regularized graph back to the original
    /// vertex set (Lemma 4.1's one-to-one correspondence between components).
    ///
    /// Original vertices whose cloud is empty — i.e. isolated vertices of the
    /// input, which the paper excludes by assumption — are given fresh
    /// singleton labels.
    pub fn pull_back_labels(&self, labels: &ComponentLabels) -> ComponentLabels {
        let mut raw = vec![usize::MAX; self.original_vertices];
        for (idx, &orig) in self.cloud_of.iter().enumerate() {
            if raw[orig] == usize::MAX {
                raw[orig] = labels.label(idx);
            }
        }
        // Isolated original vertices get fresh labels after all real ones.
        let mut next = labels.num_components();
        for slot in raw.iter_mut() {
            if *slot == usize::MAX {
                *slot = next;
                next += 1;
            }
        }
        ComponentLabels::from_raw_labels(&raw)
    }
}

/// Builds a `d`-regular cloud on `size` vertices (`d =
/// params.expander_degree`) with spectral gap at least
/// `params.expander_min_gap` (for `size > 2`), mirroring
/// `RegularGraphConstruction`.
///
/// Sizes 1 and 2 get the canonical degenerate clouds (`d` self-loops /
/// `d` parallel edges); everything else is rejection-sampled from the
/// permutation model and retried until the gap clears the threshold.
///
/// # Errors
///
/// Returns [`CoreError::SamplingFailed`] when no sample reaches the gap
/// within `params.expander_max_attempts` attempts.
pub fn sample_cloud<R: Rng + ?Sized>(
    size: usize,
    params: &Params,
    rng: &mut R,
) -> Result<Graph, CoreError> {
    let d = params.expander_degree;
    match size {
        0 => Ok(Graph::empty(0)),
        1 => Ok(Graph::from_edges_unchecked(1, (0..d).map(|_| (0, 0)))),
        2 => Ok(Graph::from_edges_unchecked(2, (0..d).map(|_| (0, 1)))),
        _ => {
            for _ in 0..params.expander_max_attempts {
                let g = generators::random_regular_permutation_graph(size, d, rng);
                // For clouds barely larger than d the permutation model is
                // automatically a very good expander; only run the (costly)
                // gap estimate for sizes where it could plausibly fail.
                if size <= d
                    || wcc_graph::spectral::spectral_gap(&g, params.expander_gap_iters)
                        >= params.expander_min_gap
                {
                    return Ok(g);
                }
            }
            Err(CoreError::SamplingFailed(format!(
                "no {d}-regular expander on {size} vertices reached gap {} in {} attempts",
                params.expander_min_gap, params.expander_max_attempts
            )))
        }
    }
}

/// Step 1 of the pipeline: Lemma 4.1.
///
/// Returns the `(d+1)`-regular graph `H = G ⓡ H` on `Σ_v c(v) ≤ 2m` vertices
/// ([`cloud_sizes`]) together with the cloud mapping. Charges the `O(1/δ)` rounds of Lemmas 4.5 and 4.6 (expander
/// construction by distributed sorting + one shuffle to assemble the
/// product).
///
/// # Errors
///
/// Returns [`CoreError::BadParams`] for inconsistent parameters,
/// [`CoreError::SamplingFailed`] if an expander cloud cannot be sampled, or a
/// wrapped [`MpcError`] if the simulated cluster cannot hold the product.
pub fn regularize<R: Rng + ?Sized>(
    g: &Graph,
    params: &Params,
    ctx: &mut MpcContext,
    rng: &mut R,
) -> Result<RegularizedGraph, CoreError> {
    params.validate().map_err(CoreError::BadParams)?;
    let d = params.expander_degree;
    ctx.begin_phase("regularize");

    // Light vertices stay whole: their "cloud" is one vertex holding the
    // padding loops. Lemma 4.5 (RegularGraphConstruction) is for the heavy
    // ones: clouds of size <= m^delta are sampled locally (one round); larger
    // clouds are built by the sample-and-sort construction, costing one
    // distributed sort over their total size.
    let m = g.num_edges().max(1);
    let local_threshold = ctx.config().memory_per_machine;
    let mut clouds = Vec::with_capacity(g.num_vertices());
    let mut large_cloud_words = 0usize;
    for (v, size) in cloud_sizes(g, d).enumerate() {
        let dv = g.degree(v);
        if size == 1 {
            clouds.push(whole_vertex_cloud(dv, d));
            continue;
        }
        if dv > local_threshold {
            large_cloud_words += dv * d / 2;
        }
        clouds.push(sample_cloud(dv, params, rng)?);
    }
    // Local sampling of small clouds: one round of local work + verification.
    ctx.charge(1, 0);
    if large_cloud_words > 0 {
        // Distributed permutation-by-sorting for the oversized clouds.
        ctx.charge_sort(large_cloud_words);
    }

    // Lemma 4.6: the replacement product itself — every edge of G generates
    // one inter-cloud edge, assembled with a single shuffle keyed by port.
    let (product, layout) = replacement_product(g, &clouds);
    ctx.charge_shuffle(2 * m);
    ctx.record_balanced_load(2 * product.num_edges())?;
    ctx.end_phase();

    let ProductLayout { cloud_of, .. } = layout;
    Ok(RegularizedGraph {
        degree: d + 1,
        cloud_of,
        original_vertices: g.num_vertices(),
        graph: product,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use wcc_graph::prelude::*;
    use wcc_mpc::MpcConfig;

    fn ctx_for(g: &Graph) -> MpcContext {
        MpcContext::new(MpcConfig::for_input_size(2 * g.num_edges() + 16, 0.5).permissive())
    }

    fn params() -> Params {
        Params::test_scale()
    }

    #[test]
    fn output_is_regular_and_component_preserving() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let g = generators::planted_expander_components(&[40, 25, 10], 6, &mut rng);
        let mut ctx = ctx_for(&g);
        let reg = regularize(&g, &params(), &mut ctx, &mut rng).unwrap();
        assert!(reg.graph.is_regular(reg.degree));
        let base_cc = connected_components(&g);
        let reg_cc = connected_components(&reg.graph);
        assert_eq!(base_cc.num_components(), reg_cc.num_components());
        let pulled = reg.pull_back_labels(&reg_cc);
        assert!(pulled.same_partition(&base_cc));
        assert!(ctx.stats().total_rounds() >= 2);
    }

    /// How many product vertices stand for each original vertex.
    fn cloud_census(reg: &RegularizedGraph) -> Vec<usize> {
        let mut census = vec![0usize; reg.original_vertices];
        for &v in &reg.cloud_of {
            census[v] += 1;
        }
        census
    }

    #[test]
    fn heavy_hub_graph_is_regularized() {
        // The star is the worst case for the walk step; regularization must
        // flatten its huge hub into a cloud. The 199 leaves stay whole, so
        // `n_reg = 2m` here by coincidence: pin the split, not the sum.
        let g = generators::star(200);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut ctx = ctx_for(&g);
        let reg = regularize(&g, &params(), &mut ctx, &mut rng).unwrap();
        assert!(reg.graph.is_regular(reg.degree));
        let census = cloud_census(&reg);
        assert_eq!(census[0], 199, "the hub is a cloud with one port per leaf");
        assert!(census[1..].iter().all(|&c| c == 1), "leaves stay whole");
        assert_eq!(connected_components(&reg.graph).num_components(), 1);
    }

    #[test]
    fn only_vertices_over_the_degree_budget_get_a_cloud() {
        // Degrees 0, 1, d+1 and d+2 in one graph (d = 8): vertex 0 and 1 are
        // heavy and adjacent, 2 is light at exactly d+1 with a self-loop, a
        // doubled edge to 3 and an edge to heavy 0, 4 is isolated, the rest
        // are leaves.
        let d = params().expander_degree;
        let mut edges = vec![(0, 1), (0, 2), (2, 2), (2, 3), (2, 3)];
        let mut leaf = 5;
        for (hub, leaves) in [(0, d), (1, d + 1), (2, d - 3)] {
            edges.extend((leaf..leaf + leaves).map(|l| (hub, l)));
            leaf += leaves;
        }
        let g = Graph::from_edges_unchecked(leaf, edges);
        assert_eq!(
            [0, 1, 2, 3, 4, 5].map(|v| g.degree(v)),
            [d + 2, d + 2, d + 1, 2, 0, 1]
        );
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut ctx = ctx_for(&g);
        let reg = regularize(&g, &params(), &mut ctx, &mut rng).unwrap();
        assert!(reg.graph.is_regular(d + 1));
        let census = cloud_census(&reg);
        assert_eq!(census, cloud_sizes(&g, d).collect::<Vec<_>>());
        assert_eq!(&census[..6], &[d + 2, d + 2, 1, 1, 0, 1]);
        assert!(reg.graph.num_vertices() < 2 * g.num_edges());
        let pulled = reg.pull_back_labels(&connected_components(&reg.graph));
        assert!(pulled.same_partition(&connected_components(&g)));
    }

    #[test]
    fn all_heavy_input_gets_the_classic_product_edge_for_edge() {
        // No vertex within the degree budget: the generator is consumed
        // exactly as when every vertex got a cloud, so the product equals the
        // classic replacement product over full-size clouds built from the
        // same seed, and the charges are the classic ones.
        let p = params();
        let d = p.expander_degree;
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let (g, _) = generators::disjoint_union_of(&[
            generators::planted_expander_components(&[60, 40], 12, &mut rng),
            Graph::empty(3),
        ]);
        assert!(g
            .vertices()
            .all(|v| g.degree(v) == 0 || g.degree(v) > d + 1));

        let mut ctx = ctx_for(&g);
        let reg = regularize(&g, &p, &mut ctx, &mut ChaCha8Rng::seed_from_u64(21)).unwrap();

        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let clouds: Vec<Graph> = g
            .vertices()
            .map(|v| sample_cloud(g.degree(v), &p, &mut rng).unwrap())
            .collect();
        let (classic, layout) = replacement_product(&g, &clouds);
        assert_eq!(reg.graph.num_vertices(), 2 * g.num_edges());
        assert_eq!(reg.graph.edges(), classic.edges());
        assert_eq!(reg.cloud_of, layout.cloud_of);
        assert_eq!(ctx.stats().total_rounds(), 2);
        assert_eq!(
            ctx.stats().total_communication_words(),
            2 * g.num_edges() as u64
        );
    }

    #[test]
    fn gap_of_expander_survives_regularization() {
        let p = params();
        let d = p.expander_degree;
        // Heavy input: Proposition 4.2's constant-factor bound.
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let g = generators::random_regular_permutation_graph(100, d + 2, &mut rng);
        let gap_before = spectral::spectral_gap(&g, 300);
        let reg = regularize(&g, &p, &mut ctx_for(&g), &mut rng).unwrap();
        let gap_after = spectral::spectral_gap(&reg.graph, 600);
        assert!(gap_before > 0.2);
        assert!(gap_after > 0.01, "gap collapsed to {gap_after}");

        // Δ-regular input within the budget: the product is the input plus
        // d+1−Δ loops per vertex, so the gap is scaled by exactly Δ/(d+1).
        for delta in [4, d] {
            let g = generators::random_regular_permutation_graph(100, delta, &mut rng);
            let gap_before = spectral::spectral_gap(&g, 2000);
            let reg = regularize(&g, &p, &mut ctx_for(&g), &mut rng).unwrap();
            assert_eq!(reg.graph.num_vertices(), g.num_vertices());
            let gap_after = spectral::spectral_gap(&reg.graph, 2000);
            let expected = delta as f64 / (d + 1) as f64 * gap_before;
            assert!(
                (gap_after - expected).abs() <= 1e-3 * expected,
                "Δ = {delta}: gap {gap_before} -> {gap_after}, expected {expected}"
            );
        }
    }

    #[test]
    fn isolated_vertices_get_singleton_labels_on_pull_back() {
        let g = Graph::from_edges_unchecked(5, vec![(0, 1), (1, 2)]); // 3, 4 isolated
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut ctx = ctx_for(&g);
        let reg = regularize(&g, &params(), &mut ctx, &mut rng).unwrap();
        let reg_cc = connected_components(&reg.graph);
        let pulled = reg.pull_back_labels(&reg_cc);
        assert_eq!(pulled.len(), 5);
        assert_eq!(pulled.num_components(), 3);
        assert!(pulled.same_component(0, 2));
        assert!(!pulled.same_component(3, 4));
    }

    #[test]
    fn bad_params_are_reported() {
        let g = generators::cycle(10);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut ctx = ctx_for(&g);
        let mut p = params();
        p.expander_degree = 5; // odd
        assert!(matches!(
            regularize(&g, &p, &mut ctx, &mut rng),
            Err(CoreError::BadParams(_))
        ));
    }

    #[test]
    fn sample_cloud_degenerate_sizes() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let p = Params {
            expander_degree: 6,
            ..params()
        };
        let c1 = sample_cloud(1, &p, &mut rng).unwrap();
        assert!(c1.is_regular(6));
        let c2 = sample_cloud(2, &p, &mut rng).unwrap();
        assert!(c2.is_regular(6));
        let c9 = sample_cloud(9, &p, &mut rng).unwrap();
        assert!(c9.is_regular(6));
        assert_eq!(connected_components(&c9).num_components(), 1);
    }
}
