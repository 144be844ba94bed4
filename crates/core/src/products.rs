//! The replacement product for (possibly non-regular) base graphs (Section 4
//! and Appendix C of the paper).
//!
//! Given a base graph `G` and a family `H = {H_v}` where `H_v` is a
//! `d`-regular graph on `deg_G(v)` vertices, the replacement product
//! `G ⓡ H` replaces every vertex by its "cloud" `H_v` and connects clouds
//! along the edges of `G` using a fixed *port numbering*: if the edge
//! `{u, v}` is `u`'s `i`-th edge and `v`'s `j`-th edge, then cloud vertex
//! `(u, i)` is joined to `(v, j)`. The result is `(d+1)`-regular on
//! `Σ_v deg(v)` vertices, preserves connected components one-to-one, and
//! preserves the spectral gap up to a factor `Θ(1/d)` (Proposition 4.2 /
//! Appendix C) — which is exactly what the regularization step needs.
//!
//! A vertex whose degree already fits the product's degree budget,
//! `1 ≤ deg(v) ≤ d+1`, needs no cloud to become `(d+1)`-regular: it may stay
//! *whole* — a one-vertex cloud on which every port lands, padded with
//! `d+1−deg(v)` self-loops. [`cloud_sizes`] is that rule, and the product then
//! has `Σ_v c(v) ≤ 2m` vertices (DESIGN.md §14).
//!
//! The paper's Appendix C states its gap bound for the zig-zag product
//! first and derives the replacement product's from it; the pipeline needs
//! only the replacement product, so only it is built here.

use wcc_graph::{Graph, GraphBuilder};

/// The cloud-size rule of the regularization step: for every vertex `v` of
/// `g` in order, the number `c(v)` of product vertices that stand for it when
/// the clouds are `d`-regular — `0` for an isolated vertex, `1` for a *light*
/// vertex (`1 ≤ deg(v) ≤ d+1`, kept whole) and `deg(v)` for a *heavy* one
/// (replaced by an expander cloud with one port per vertex).
///
/// `Σ_v c(v)` is the regularized graph's vertex count; it is at most `2m`,
/// with equality exactly when no vertex has degree in `2..=d+1`.
pub fn cloud_sizes(g: &Graph, d: usize) -> impl Iterator<Item = usize> + '_ {
    g.vertices().map(move |v| match g.degree(v) {
        deg if deg <= d + 1 => deg.min(1),
        deg => deg,
    })
}

/// The one-vertex cloud of a light vertex of degree `deg` (`1 ≤ deg ≤ d+1`):
/// the `d+1−deg` self-loops that pad it to the product's degree once all its
/// ports land on it.
pub(crate) fn whole_vertex_cloud(deg: usize, d: usize) -> Graph {
    Graph::from_edges_unchecked(1, (deg..=d).map(|_| (0, 0)))
}

/// The vertex layout of a product graph: cloud vertex `(v, port)` of the base
/// graph maps to the flat index `offsets[v] + port`, or to `offsets[v]` when
/// `v`'s cloud is a single vertex.
#[derive(Debug, Clone)]
pub struct ProductLayout {
    /// Prefix sums of the cloud sizes; `offsets[v]` is the first flat index
    /// of `v`'s cloud and `offsets[n]` is the total vertex count.
    pub offsets: Vec<usize>,
    /// For every flat index, the base vertex whose cloud it belongs to.
    pub cloud_of: Vec<usize>,
}

impl ProductLayout {
    /// Builds the layout from the cloud size of every base vertex, in vertex
    /// order.
    pub fn new(cloud_sizes: impl IntoIterator<Item = usize>) -> Self {
        let mut offsets = vec![0usize];
        let mut cloud_of = Vec::new();
        for (v, size) in cloud_sizes.into_iter().enumerate() {
            offsets.push(offsets[v] + size);
            cloud_of.resize(offsets[v + 1], v);
        }
        ProductLayout { offsets, cloud_of }
    }

    /// Flat index of cloud vertex `(v, port)`; every port of a one-vertex
    /// cloud is that vertex.
    pub fn index(&self, v: usize, port: usize) -> usize {
        match self.offsets[v + 1] - self.offsets[v] {
            1 => self.offsets[v],
            _ => self.offsets[v] + port,
        }
    }

    /// Total number of product vertices (the sum of the cloud sizes).
    pub fn num_vertices(&self) -> usize {
        *self.offsets.last().unwrap_or(&0)
    }
}

/// Port numbering of the base graph: for every edge (in edge-list order), the
/// position it occupies in each endpoint's adjacency list. Matches the order
/// in which [`Graph::neighbors`] lists neighbours.
fn port_assignment(g: &Graph) -> Vec<(usize, usize)> {
    let mut next_port = vec![0usize; g.num_vertices()];
    let mut ports = Vec::with_capacity(g.num_edges());
    for &(u, v) in g.edges() {
        let (u, v) = (u as usize, v as usize);
        if u == v {
            let p = next_port[u];
            next_port[u] += 1;
            ports.push((p, p));
        } else {
            let pu = next_port[u];
            next_port[u] += 1;
            let pv = next_port[v];
            next_port[v] += 1;
            ports.push((pu, pv));
        }
    }
    ports
}

/// Checks that `clouds` has one cloud per base vertex, each on `deg(v)`
/// vertices or, for `deg(v) ≥ 1`, on a single vertex.
fn check_cloud_family(g: &Graph, clouds: &[Graph]) {
    assert_eq!(
        clouds.len(),
        g.num_vertices(),
        "need exactly one cloud per base vertex"
    );
    for (v, cloud) in clouds.iter().enumerate() {
        let (deg, size) = (g.degree(v), cloud.num_vertices());
        assert!(
            size == deg || (size == 1 && deg >= 1),
            "cloud of vertex {v} must have deg({v}) = {deg} vertices or one, got {size}"
        );
    }
}

/// The replacement product `G ⓡ H`.
///
/// `clouds[v]` must be a graph on `deg_G(v)` vertices, one per port, or — for
/// `deg_G(v) ≥ 1` — on a single vertex that takes all of `v`'s ports (`v`
/// stays whole). If every full-size cloud is `d`-regular and every one-vertex
/// cloud carries `d+1−deg_G(v)` self-loops, the product is `(d+1)`-regular
/// (with this crate's convention that a base self-loop becomes a product
/// self-loop contributing one to the degree).
///
/// Returns the product graph together with its [`ProductLayout`].
///
/// # Panics
///
/// Panics if `clouds` has the wrong length or a cloud has the wrong size.
pub fn replacement_product(g: &Graph, clouds: &[Graph]) -> (Graph, ProductLayout) {
    check_cloud_family(g, clouds);
    let layout = ProductLayout::new(clouds.iter().map(Graph::num_vertices));
    let total = layout.num_vertices();
    let intra_edges: usize = clouds.iter().map(Graph::num_edges).sum();
    let mut builder = GraphBuilder::with_capacity(total, intra_edges + g.num_edges());

    // Intra-cloud edges: a copy of H_v on v's ports.
    for (v, cloud) in clouds.iter().enumerate() {
        for (a, b) in cloud.edge_iter() {
            builder
                .add_edge(layout.index(v, a), layout.index(v, b))
                .expect("cloud indices in range");
        }
    }
    // Inter-cloud edges along the port numbering.
    for (&(u, v), &(pu, pv)) in g.edges().iter().zip(port_assignment(g).iter()) {
        let (u, v) = (u as usize, v as usize);
        builder
            .add_edge(layout.index(u, pu), layout.index(v, pv))
            .expect("port indices in range");
    }
    (builder.build(), layout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use wcc_graph::prelude::*;

    /// A d-regular cloud on `size` vertices for tests (complete-ish multigraph
    /// via the permutation model; handles the tiny sizes specially).
    fn cloud(size: usize, d: usize, rng: &mut ChaCha8Rng) -> Graph {
        match size {
            0 => Graph::empty(0),
            1 => Graph::from_edges_unchecked(1, (0..d).map(|_| (0, 0))),
            2 => Graph::from_edges_unchecked(
                2,
                (0..d / 2).map(|_| (0, 1)).chain((0..d / 2).map(|_| (0, 1))),
            ),
            _ => generators::random_regular_permutation_graph(size, d, rng),
        }
    }

    fn cloud_family(g: &Graph, d: usize, seed: u64) -> Vec<Graph> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..g.num_vertices())
            .map(|v| cloud(g.degree(v), d, &mut rng))
            .collect()
    }

    /// The mixed family [`cloud_sizes`] asks for: a whole vertex padded with
    /// `d+1−deg(v)` self-loops where it says 1, a full-size cloud elsewhere.
    fn mixed_cloud_family(g: &Graph, d: usize, seed: u64) -> Vec<Graph> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        cloud_sizes(g, d)
            .enumerate()
            .map(|(v, size)| match size {
                1 => whole_vertex_cloud(g.degree(v), d),
                _ => cloud(size, d, &mut rng),
            })
            .collect()
    }

    #[test]
    fn cloud_sizes_keep_light_vertices_whole() {
        // Degrees 0, 1, d+1 and d+2 for d = 4: vertex 0 is isolated, 1 a
        // leaf, 2 has degree 5 (one of it a self-loop, counted once) and 3
        // has degree 6.
        let g = Graph::from_edges_unchecked(
            12,
            vec![
                (1, 2),
                (2, 2),
                (2, 3),
                (2, 4),
                (2, 4),
                (3, 5),
                (3, 6),
                (3, 7),
                (3, 8),
                (3, 9),
            ],
        );
        let degrees: Vec<usize> = g.vertices().map(|v| g.degree(v)).collect();
        assert_eq!(&degrees[..4], &[0, 1, 5, 6]);
        let sizes: Vec<usize> = cloud_sizes(&g, 4).collect();
        assert_eq!(sizes, vec![0, 1, 1, 6, 1, 1, 1, 1, 1, 1, 0, 0]);
        // With a budget no vertex fits, the rule is the classic one.
        let classic: Vec<usize> = cloud_sizes(&g, 0).collect();
        assert_eq!(classic, degrees);
    }

    #[test]
    fn layout_offsets_follow_the_cloud_sizes() {
        let g = generators::star(5);
        // d = 2: the centre (degree 4) is heavy, the leaves are whole.
        let layout = ProductLayout::new(cloud_sizes(&g, 2));
        assert_eq!(layout.offsets, vec![0, 4, 5, 6, 7, 8]);
        assert_eq!(layout.cloud_of, vec![0, 0, 0, 0, 1, 2, 3, 4]);
        assert_eq!(layout.index(0, 3), 3);
        // d = 4: the centre fits the budget too and all its ports are one
        // vertex.
        let layout = ProductLayout::new(cloud_sizes(&g, 4));
        assert_eq!(layout.num_vertices(), 5);
        assert_eq!(layout.index(0, 3), 0);
        assert_eq!(layout.index(4, 0), 4);
    }

    #[test]
    fn whole_vertices_keep_loops_parallel_edges_and_both_kinds_of_neighbour() {
        // d = 4. Vertices 0 and 1 are heavy (degree 6) and adjacent; 2 is
        // light at exactly d+1 = 5 with a self-loop, a doubled edge to the
        // light vertex 3 and an edge to heavy 0; 4.. are leaves; 13 is
        // isolated.
        let d = 4;
        let mut edges = vec![(0, 1), (0, 2), (2, 2), (2, 3), (2, 3), (2, 4)];
        edges.extend((5..9).map(|leaf| (0, leaf)));
        edges.extend((9..13).map(|leaf| (1, leaf)));
        edges.push((1, 4));
        let g = Graph::from_edges_unchecked(14, edges);
        assert_eq!(
            [0, 1, 2, 3, 13].map(|v| g.degree(v)),
            [d + 2, d + 2, d + 1, 2, 0]
        );
        let clouds = mixed_cloud_family(&g, d, 11);
        let (product, layout) = replacement_product(&g, &clouds);
        assert!(product.is_regular(d + 1));
        assert_eq!(
            product.num_vertices(),
            cloud_sizes(&g, d).sum::<usize>(),
            "n_reg is the sum of the cloud sizes"
        );
        assert_eq!(product.num_vertices(), 6 + 6 + 1 + 1 + 9);
        let count = |from: usize, to: usize| {
            product
                .neighbors(from)
                .iter()
                .filter(|&&w| w as usize == to)
                .count()
        };
        let (two, three) = (layout.index(2, 0), layout.index(3, 0));
        // Vertex 2 is full: its own loop survives and it gets no padding.
        assert_eq!(count(two, two), 1);
        assert_eq!(count(two, three), 2);
        // Vertex 3 has degree 2: both parallel edges plus d−1 padding loops.
        assert_eq!(count(three, two), 2);
        assert_eq!(count(three, three), d - 1);
        // The light–heavy edge {0, 2} lands on port 1 of 0's cloud.
        assert_eq!(count(two, layout.index(0, 1)), 1);
        // Components correspond one to one (the isolated vertex has no
        // product vertex at all).
        let base_cc = connected_components(&g);
        let prod_cc = connected_components(&product);
        assert_eq!(prod_cc.num_components() + 1, base_cc.num_components());
        for idx in 0..product.num_vertices() {
            assert!(base_cc.same_component(layout.cloud_of[idx], 0));
        }
    }

    #[test]
    #[should_panic(expected = "must have deg")]
    fn one_vertex_cloud_on_an_isolated_vertex_panics() {
        let g = Graph::from_edges_unchecked(3, vec![(0, 1)]);
        let clouds: Vec<Graph> = (0..3).map(|_| Graph::empty(1)).collect();
        let _ = replacement_product(&g, &clouds);
    }

    #[test]
    fn replacement_product_is_d_plus_1_regular() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let g = generators::random_out_degree_graph(60, 10, &mut rng);
        let d = 4;
        let clouds = cloud_family(&g, d, 2);
        let (product, layout) = replacement_product(&g, &clouds);
        assert_eq!(product.num_vertices(), layout.num_vertices());
        assert_eq!(
            product.num_vertices(),
            2 * g.num_edges() - g.edges().iter().filter(|&&(u, v)| u == v).count()
        );
        assert!(
            product.is_regular(d + 1),
            "degrees: min {} max {}",
            product.min_degree(),
            product.max_degree()
        );
    }

    #[test]
    fn replacement_product_preserves_components_one_to_one() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let g = generators::planted_expander_components(&[20, 30, 15], 6, &mut rng);
        let clouds = cloud_family(&g, 4, 4);
        let (product, layout) = replacement_product(&g, &clouds);
        let base_cc = connected_components(&g);
        let prod_cc = connected_components(&product);
        assert_eq!(base_cc.num_components(), prod_cc.num_components());
        // Two product vertices are in the same product component iff their
        // base vertices are in the same base component.
        for idx in 0..product.num_vertices() {
            for jdx in (idx + 1)..product.num_vertices().min(idx + 50) {
                let same_base = base_cc.same_component(layout.cloud_of[idx], layout.cloud_of[jdx]);
                let same_prod = prod_cc.same_component(idx, jdx);
                assert_eq!(same_base, same_prod, "vertices {idx},{jdx}");
            }
        }
    }

    #[test]
    fn replacement_product_roughly_preserves_spectral_gap_of_expanders() {
        // Proposition 4.2: λ₂(G ⓡ H) = Ω(λ_G · λ_H² / d). With constant-degree
        // expander clouds the product gap must stay bounded away from zero.
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let g = generators::random_regular_permutation_graph(80, 12, &mut rng);
        let gap_g = spectral::spectral_gap(&g, 300);
        let clouds = cloud_family(&g, 6, 6);
        let (product, _) = replacement_product(&g, &clouds);
        let gap_p = spectral::spectral_gap(&product, 600);
        assert!(gap_g > 0.2);
        assert!(
            gap_p > 0.01,
            "product gap collapsed: base {gap_g}, product {gap_p}"
        );
    }

    #[test]
    fn replacement_product_handles_self_loops_and_degree_one_vertices() {
        // A path with a pendant self-loop: degrees 1, 2, 2 (loop counts once).
        let g = Graph::from_edges_unchecked(3, vec![(0, 1), (1, 2), (2, 2)]);
        let clouds = vec![
            cloud(1, 4, &mut ChaCha8Rng::seed_from_u64(0)),
            cloud(2, 4, &mut ChaCha8Rng::seed_from_u64(0)),
            cloud(2, 4, &mut ChaCha8Rng::seed_from_u64(0)),
        ];
        let (product, _) = replacement_product(&g, &clouds);
        assert_eq!(product.num_vertices(), 5);
        assert_eq!(connected_components(&product).num_components(), 1);
        assert!(
            product.is_regular(5),
            "max {} min {}",
            product.max_degree(),
            product.min_degree()
        );
    }

    #[test]
    #[should_panic(expected = "one cloud per base vertex")]
    fn wrong_cloud_count_panics() {
        let g = generators::cycle(4);
        let _ = replacement_product(&g, &[]);
    }

    #[test]
    #[should_panic(expected = "must have deg")]
    fn wrong_cloud_size_panics() {
        let g = generators::cycle(4);
        let clouds: Vec<Graph> = (0..4).map(|_| Graph::empty(3)).collect();
        let _ = replacement_product(&g, &clouds);
    }
}
