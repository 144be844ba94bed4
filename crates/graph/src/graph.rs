//! Sparse undirected multigraph representation.
//!
//! The paper works with undirected graphs that may contain parallel edges and
//! self-loops (both show up naturally: parallel edges in the permutation-based
//! regular random graphs of Section 4, self-loops when lazifying random walks
//! in Section 5.2). We therefore represent a graph as an explicit undirected
//! edge list plus a compressed-sparse-row (CSR) adjacency structure derived
//! from it.
//!
//! ## Degree convention
//!
//! A self-loop `(v, v)` contributes **one** entry to `v`'s adjacency list and
//! therefore **one** to `deg(v)`. This is exactly the convention required by
//! the lazification trick of Section 5.2: adding `Δ` self-loops to every
//! vertex of a `Δ`-regular graph yields a `2Δ`-regular graph in which a
//! uniformly random neighbour step stays put with probability `1/2`.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Errors returned by graph constructors and accessors.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum GraphError {
    /// An edge endpoint was at least the declared number of vertices.
    VertexOutOfRange {
        /// The offending endpoint.
        vertex: usize,
        /// The number of vertices of the graph being built.
        num_vertices: usize,
    },
    /// An operation that requires a non-empty graph was called on an empty one.
    EmptyGraph,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => write!(
                f,
                "vertex {vertex} out of range for graph with {num_vertices} vertices"
            ),
            GraphError::EmptyGraph => write!(f, "operation requires a non-empty graph"),
        }
    }
}

impl std::error::Error for GraphError {}

/// An undirected sparse multigraph with CSR adjacency.
///
/// Vertices are `0..num_vertices()`. Parallel edges and self-loops are
/// allowed and preserved; see the module documentation for the degree
/// convention of self-loops.
#[derive(Clone, Serialize, Deserialize)]
pub struct Graph {
    num_vertices: usize,
    /// Undirected edge list; each undirected edge appears exactly once,
    /// normalised so that `u <= v`.
    edges: Vec<(u32, u32)>,
    /// CSR offsets: `offsets[v]..offsets[v + 1]` indexes into `adjacency`.
    offsets: Vec<usize>,
    /// Flattened adjacency lists. A self-loop appears once in its vertex's
    /// list; every other edge appears once in each endpoint's list.
    adjacency: Vec<u32>,
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("num_vertices", &self.num_vertices)
            .field("num_edges", &self.edges.len())
            .field("max_degree", &self.max_degree())
            .finish()
    }
}

impl Graph {
    /// Creates a graph with `num_vertices` vertices and no edges.
    pub fn empty(num_vertices: usize) -> Self {
        Graph {
            num_vertices,
            edges: Vec::new(),
            offsets: vec![0; num_vertices + 1],
            adjacency: Vec::new(),
        }
    }

    /// Builds a graph from an undirected edge list.
    ///
    /// Edges may be listed in either orientation; parallel edges and
    /// self-loops are kept.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] if an endpoint is `>= num_vertices`.
    pub fn from_edges<I>(num_vertices: usize, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let mut builder = GraphBuilder::new(num_vertices);
        for (u, v) in edges {
            builder.add_edge(u, v)?;
        }
        Ok(builder.build())
    }

    /// Builds a graph from an undirected edge list, panicking on bad input.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= num_vertices`. Intended for tests and
    /// internal generators where the input is known to be valid.
    pub fn from_edges_unchecked<I>(num_vertices: usize, edges: I) -> Self
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        Self::from_edges(num_vertices, edges).expect("edge endpoint out of range")
    }

    /// Builds a graph from an edge list already normalised so that `u <= v`
    /// (the layout [`edges`](Self::edges) returns), taking the list as the
    /// graph's own: the CSR build's degree pass checks every edge, and there
    /// is no builder, per-edge conversion or re-normalisation. Field for
    /// field the graph [`from_edges_unchecked`](Self::from_edges_unchecked)
    /// builds from the same list.
    ///
    /// # Panics
    ///
    /// Panics if an edge has `u > v` or `v >= num_vertices`.
    pub fn from_normalized_edges(num_vertices: usize, edges: Vec<(u32, u32)>) -> Self {
        let (offsets, adjacency) = Self::rebuild_csr(num_vertices, &edges);
        Graph {
            num_vertices,
            edges,
            offsets,
            adjacency,
        }
    }

    /// A graph from CSR parts its builder already made consistent: a
    /// row-major edge list and the matching offsets and adjacency.
    pub(crate) fn from_csr_parts(
        num_vertices: usize,
        edges: Vec<(u32, u32)>,
        offsets: Vec<usize>,
        adjacency: Vec<u32>,
    ) -> Graph {
        debug_assert_eq!(offsets.len(), num_vertices + 1);
        debug_assert_eq!(offsets.last().copied(), Some(adjacency.len()));
        Graph {
            num_vertices,
            edges,
            offsets,
            adjacency,
        }
    }

    /// The CSR of a normalised edge list.
    ///
    /// # Panics
    ///
    /// Panics if an edge has `u > v` or `v >= num_vertices`.
    fn rebuild_csr(num_vertices: usize, edges: &[(u32, u32)]) -> (Vec<usize>, Vec<u32>) {
        let mut degree = vec![0usize; num_vertices];
        for &(u, v) in edges {
            assert!(
                u <= v && (v as usize) < num_vertices,
                "edge not normalised or out of range"
            );
            degree[u as usize] += 1;
            if u != v {
                degree[v as usize] += 1;
            }
        }
        let mut offsets = vec![0usize; num_vertices + 1];
        for v in 0..num_vertices {
            offsets[v + 1] = offsets[v] + degree[v];
        }
        let mut cursor = offsets.clone();
        let mut adjacency = vec![0u32; offsets[num_vertices]];
        for &(u, v) in edges {
            adjacency[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            if u != v {
                adjacency[cursor[v as usize]] = u;
                cursor[v as usize] += 1;
            }
        }
        (offsets, adjacency)
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of undirected edges (parallel edges counted with multiplicity,
    /// self-loops counted once).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over vertices `0..num_vertices()`.
    pub fn vertices(&self) -> std::ops::Range<usize> {
        0..self.num_vertices
    }

    /// The undirected edge list (normalised so `u <= v`).
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// Iterator over edges as `(usize, usize)` pairs.
    pub fn edge_iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.edges.iter().map(|&(u, v)| (u as usize, v as usize))
    }

    /// Degree of `v` (self-loops count once; parallel edges with multiplicity).
    ///
    /// # Panics
    ///
    /// Panics if `v >= num_vertices()`.
    pub fn degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// The neighbours of `v` in a fixed (arbitrary but stable) order, with
    /// multiplicity. The *i*-th element is "the *i*-th neighbour of `v`" in
    /// the sense used by the replacement product of Section 4.
    ///
    /// # Panics
    ///
    /// Panics if `v >= num_vertices()`.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.adjacency[self.offsets[v]..self.offsets[v + 1]]
    }

    /// The `i`-th neighbour of `v` (0-indexed), if it exists.
    pub fn nth_neighbor(&self, v: usize, i: usize) -> Option<usize> {
        self.neighbors(v).get(i).map(|&u| u as usize)
    }

    /// The CSR offset array: `csr_offsets()[v]..csr_offsets()[v + 1]` indexes
    /// [`csr_adjacency`](Self::csr_adjacency) with `v`'s neighbour list. On a
    /// `d`-regular graph `csr_offsets()[v] == v * d`, which lets flat kernels
    /// address adjacency closed-form.
    pub fn csr_offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The flattened adjacency array backing [`neighbors`](Self::neighbors):
    /// entry order within each vertex's slice is exactly the `neighbors`
    /// order (the one `nth_neighbor` indexes).
    pub fn csr_adjacency(&self) -> &[u32] {
        &self.adjacency
    }

    /// Maximum degree over all vertices (`0` for an empty vertex set).
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Minimum degree over all vertices (`0` for an empty vertex set).
    pub fn min_degree(&self) -> usize {
        (0..self.num_vertices)
            .map(|v| self.degree(v))
            .min()
            .unwrap_or(0)
    }

    /// Sum of all degrees; equals `2 * #non-loop edges + #loops`.
    pub fn degree_sum(&self) -> usize {
        self.adjacency.len()
    }

    /// Returns `true` if every vertex has degree exactly `d`.
    pub fn is_regular(&self, d: usize) -> bool {
        (0..self.num_vertices).all(|v| self.degree(v) == d)
    }

    /// Returns `true` if the graph is `[(1 - eps) * d, (1 + eps) * d]`-almost
    /// regular in the sense of Section 2 of the paper.
    pub fn is_almost_regular(&self, d: f64, eps: f64) -> bool {
        let lo = (1.0 - eps) * d;
        let hi = (1.0 + eps) * d;
        (0..self.num_vertices).all(|v| {
            let deg = self.degree(v) as f64;
            deg >= lo && deg <= hi
        })
    }

    /// Returns `true` if the graph has at least one vertex with a self-loop.
    pub fn has_self_loops(&self) -> bool {
        self.edges.iter().any(|&(u, v)| u == v)
    }

    /// Returns `true` if `u` and `v` are joined by at least one edge.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).iter().any(|&w| w as usize == b)
    }

    /// Adds `count` self-loops to every vertex, returning a new graph.
    ///
    /// This is the lazification step of Section 5.2: applied to a
    /// `Δ`-regular graph with `count = Δ` it yields a `2Δ`-regular graph on
    /// which uniform neighbour steps simulate a lazy random walk.
    pub fn with_self_loops(&self, count: usize) -> Graph {
        let mut edges = self.edges.clone();
        edges.reserve(self.num_vertices * count);
        for v in 0..self.num_vertices as u32 {
            for _ in 0..count {
                edges.push((v, v));
            }
        }
        let (offsets, adjacency) = Self::rebuild_csr(self.num_vertices, &edges);
        Graph {
            num_vertices: self.num_vertices,
            edges,
            offsets,
            adjacency,
        }
    }

    /// Returns the subgraph induced on `vertices`, together with the mapping
    /// from new vertex ids to the original ids (`mapping[new] = old`).
    ///
    /// Vertices listed more than once are deduplicated; ordering of the
    /// returned mapping follows the first occurrence.
    pub fn induced_subgraph(&self, vertices: &[usize]) -> (Graph, Vec<usize>) {
        let mut old_to_new = vec![usize::MAX; self.num_vertices];
        let mut mapping = Vec::with_capacity(vertices.len());
        for &v in vertices {
            if old_to_new[v] == usize::MAX {
                old_to_new[v] = mapping.len();
                mapping.push(v);
            }
        }
        let mut edges = Vec::new();
        for &(u, v) in &self.edges {
            let (u, v) = (u as usize, v as usize);
            let (nu, nv) = (old_to_new[u], old_to_new[v]);
            if nu != usize::MAX && nv != usize::MAX {
                edges.push((nu, nv));
            }
        }
        (Graph::from_edges_unchecked(mapping.len(), edges), mapping)
    }

    /// Disjoint union of `self` and `other`; vertices of `other` are shifted
    /// by `self.num_vertices()`.
    pub fn disjoint_union(&self, other: &Graph) -> Graph {
        let shift = self.num_vertices;
        let edges = self
            .edge_iter()
            .chain(other.edge_iter().map(|(u, v)| (u + shift, v + shift)));
        Graph::from_edges_unchecked(self.num_vertices + other.num_vertices, edges)
    }

    /// Stationary distribution `π(v) = deg(v) / Σ deg` of the random walk.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::EmptyGraph`] if the graph has no edges.
    pub fn stationary_distribution(&self) -> Result<Vec<f64>, GraphError> {
        let total = self.degree_sum();
        if total == 0 {
            return Err(GraphError::EmptyGraph);
        }
        Ok((0..self.num_vertices)
            .map(|v| self.degree(v) as f64 / total as f64)
            .collect())
    }

    /// Total memory footprint of the edge representation in machine words,
    /// used by the MPC accounting layer (`wcc-mpc`).
    pub fn size_in_words(&self) -> usize {
        // One word per endpoint of every stored edge.
        2 * self.edges.len()
    }
}

/// Incremental builder for [`Graph`].
///
/// ```
/// use wcc_graph::{Graph, GraphBuilder};
/// let mut b = GraphBuilder::new(4);
/// b.add_edge(0, 1).unwrap();
/// b.add_edge(1, 2).unwrap();
/// b.add_edge(2, 3).unwrap();
/// let g: Graph = b.build();
/// assert_eq!(g.num_edges(), 3);
/// assert_eq!(g.degree(1), 2);
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    num_vertices: usize,
    edges: Vec<(u32, u32)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        GraphBuilder {
            num_vertices,
            edges: Vec::new(),
        }
    }

    /// Creates a builder with pre-allocated capacity for `num_edges` edges.
    pub fn with_capacity(num_vertices: usize, num_edges: usize) -> Self {
        GraphBuilder {
            num_vertices,
            edges: Vec::with_capacity(num_edges),
        }
    }

    /// Number of vertices the built graph will have.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of edges added so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds an undirected edge `{u, v}` (self-loops and parallel edges allowed).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] if `u` or `v` is out of range.
    pub fn add_edge(&mut self, u: usize, v: usize) -> Result<(), GraphError> {
        if u >= self.num_vertices {
            return Err(GraphError::VertexOutOfRange {
                vertex: u,
                num_vertices: self.num_vertices,
            });
        }
        if v >= self.num_vertices {
            return Err(GraphError::VertexOutOfRange {
                vertex: v,
                num_vertices: self.num_vertices,
            });
        }
        let (a, b) = if u <= v { (u, v) } else { (v, u) };
        self.edges.push((a as u32, b as u32));
        Ok(())
    }

    /// Adds a batch of undirected edges in one call. This is the fan-in path
    /// of the parallel walk builders: workers produce per-vertex edge lists
    /// and the calling thread appends them in vertex order.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] on the first out-of-range
    /// endpoint; edges before it have been added, edges after it have not.
    pub fn add_edges(
        &mut self,
        edges: impl IntoIterator<Item = (usize, usize)>,
    ) -> Result<(), GraphError> {
        let iter = edges.into_iter();
        let (lower, _) = iter.size_hint();
        self.edges.reserve(lower);
        for (u, v) in iter {
            self.add_edge(u, v)?;
        }
        Ok(())
    }

    /// Finishes the builder and produces the CSR-backed [`Graph`].
    pub fn build(self) -> Graph {
        let (offsets, adjacency) = Graph::rebuild_csr(self.num_vertices, &self.edges);
        Graph {
            num_vertices: self.num_vertices,
            edges: self.edges,
            offsets,
            adjacency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_edges_batches_match_single_adds() {
        let mut one = GraphBuilder::new(5);
        one.add_edge(0, 1).unwrap();
        one.add_edge(3, 2).unwrap();
        let mut batch = GraphBuilder::new(5);
        batch.add_edges([(0, 1), (3, 2)]).unwrap();
        assert_eq!(one.build().edges(), batch.build().edges());
        let mut bad = GraphBuilder::new(5);
        assert!(bad.add_edges([(0, 1), (9, 2)]).is_err());
    }

    #[test]
    fn normalized_edges_build_the_graph_the_builder_builds() {
        // Loops, parallel edges and an unsorted order: the list is kept as
        // given, exactly as the builder keeps it.
        let edges = vec![(2u32, 4u32), (0, 1), (3, 3), (0, 1), (1, 4), (0, 0)];
        let got = Graph::from_normalized_edges(6, edges.clone());
        let want =
            Graph::from_edges_unchecked(6, edges.iter().map(|&(u, v)| (u as usize, v as usize)));
        assert_eq!(got.num_vertices(), want.num_vertices());
        assert_eq!(got.edges(), want.edges());
        assert_eq!(got.csr_offsets(), want.csr_offsets());
        assert_eq!(got.csr_adjacency(), want.csr_adjacency());
        let empty = Graph::from_normalized_edges(3, Vec::new());
        assert_eq!(empty.csr_offsets(), Graph::empty(3).csr_offsets());
        for bad in [vec![(1u32, 0u32)], vec![(0, 6)], vec![(6, 6)]] {
            assert!(std::panic::catch_unwind(|| Graph::from_normalized_edges(6, bad)).is_err());
        }
    }

    #[test]
    fn empty_graph_has_no_edges() {
        let g = Graph::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert!((0..5).all(|v| g.degree(v) == 0));
    }

    #[test]
    fn triangle_degrees() {
        let g = Graph::from_edges_unchecked(3, vec![(0, 1), (1, 2), (2, 0)]);
        assert_eq!(g.num_edges(), 3);
        for v in 0..3 {
            assert_eq!(g.degree(v), 2);
        }
        assert!(g.is_regular(2));
        assert!(g.has_edge(0, 2));
        assert!(!g.has_edge(0, 0));
    }

    #[test]
    fn self_loop_counts_once_in_degree() {
        let g = Graph::from_edges_unchecked(2, vec![(0, 0), (0, 1)]);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 1);
        assert!(g.has_self_loops());
        assert!(g.has_edge(0, 0));
    }

    #[test]
    fn parallel_edges_preserved() {
        let g = Graph::from_edges_unchecked(2, vec![(0, 1), (1, 0), (0, 1)]);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(1), 3);
    }

    #[test]
    fn out_of_range_edge_is_an_error() {
        let mut b = GraphBuilder::new(3);
        let err = b.add_edge(0, 3).unwrap_err();
        assert_eq!(
            err,
            GraphError::VertexOutOfRange {
                vertex: 3,
                num_vertices: 3
            }
        );
    }

    #[test]
    fn with_self_loops_makes_regular_graph_lazier() {
        // A 4-cycle is 2-regular; adding 2 self-loops per vertex makes it 4-regular.
        let g = Graph::from_edges_unchecked(4, vec![(0, 1), (1, 2), (2, 3), (3, 0)]);
        let lazy = g.with_self_loops(2);
        assert!(lazy.is_regular(4));
        assert_eq!(lazy.num_edges(), 4 + 4 * 2);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let g = Graph::from_edges_unchecked(5, vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let (sub, mapping) = g.induced_subgraph(&[0, 1, 2]);
        assert_eq!(sub.num_vertices(), 3);
        assert_eq!(sub.num_edges(), 2);
        assert_eq!(mapping, vec![0, 1, 2]);
    }

    #[test]
    fn disjoint_union_shifts_labels() {
        let a = Graph::from_edges_unchecked(2, vec![(0, 1)]);
        let b = Graph::from_edges_unchecked(3, vec![(0, 1), (1, 2)]);
        let u = a.disjoint_union(&b);
        assert_eq!(u.num_vertices(), 5);
        assert_eq!(u.num_edges(), 3);
        assert!(u.has_edge(2, 3));
        assert!(!u.has_edge(1, 2));
    }

    #[test]
    fn stationary_distribution_sums_to_one() {
        let g = Graph::from_edges_unchecked(4, vec![(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        let pi = g.stationary_distribution().unwrap();
        let sum: f64 = pi.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        // Vertex 0 has degree 3, total degree 10.
        assert!((pi[0] - 0.3).abs() < 1e-12);
    }

    #[test]
    fn stationary_distribution_empty_graph_errors() {
        let g = Graph::empty(3);
        assert_eq!(
            g.stationary_distribution().unwrap_err(),
            GraphError::EmptyGraph
        );
    }

    #[test]
    fn nth_neighbor_is_stable_and_in_bounds() {
        let g = Graph::from_edges_unchecked(4, vec![(0, 1), (0, 2), (0, 3)]);
        let all: Vec<_> = (0..g.degree(0))
            .map(|i| g.nth_neighbor(0, i).unwrap())
            .collect();
        let mut sorted = all.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2, 3]);
        assert_eq!(g.nth_neighbor(0, 3), None);
    }
}
