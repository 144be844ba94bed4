//! A random batch as the walks write it — an endpoint table — and the one
//! counting build that contracts tables and graphs by a partition.
//!
//! Step 2 of the pipeline connects every vertex `v` of an `n`-vertex graph
//! to `w` random-walk endpoints. Section 6 reads such a batch only through
//! its contraction graph, so the batch is never built as a [`Graph`]: it
//! stays the `n·w` endpoints the walks produced, vertex-major. Edge `j` of
//! vertex `v` is `(v, ends[v·w + j])`, self-loops and repeated endpoints
//! included, which is the multiset a [`GraphBuilder`](crate::GraphBuilder)
//! fed the same pairs keeps.

use std::ops::Range;

use crate::graph::Graph;
use crate::partition::Partition;

/// `n·w` walk endpoints, `w` per vertex: edge `j` of vertex `v` is
/// `(v, ends()[v·w + j])`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EndpointTable {
    walks_per_vertex: usize,
    ends: Vec<u32>,
}

impl EndpointTable {
    /// Takes `ends` (vertex-major, `walks_per_vertex` entries per vertex) as
    /// the table of `ends.len() / walks_per_vertex` vertices.
    ///
    /// # Panics
    ///
    /// Panics if `walks_per_vertex` is zero or does not divide `ends.len()`,
    /// or if an entry is not a vertex of the table.
    pub fn new(walks_per_vertex: usize, ends: Vec<u32>) -> Self {
        assert!(
            walks_per_vertex > 0 && ends.len().is_multiple_of(walks_per_vertex),
            "an endpoint table of {} entries cannot have {walks_per_vertex} per vertex",
            ends.len(),
        );
        let n = ends.len() / walks_per_vertex;
        assert!(
            ends.iter().all(|&u| (u as usize) < n),
            "endpoint out of range for {n} vertices"
        );
        EndpointTable {
            walks_per_vertex,
            ends,
        }
    }

    /// Number of vertices `n`.
    pub fn num_vertices(&self) -> usize {
        self.ends.len() / self.walks_per_vertex
    }

    /// Number of edges `n·w`, loops and repeats included.
    pub fn num_edges(&self) -> usize {
        self.ends.len()
    }

    /// Endpoints per vertex `w`.
    pub fn walks_per_vertex(&self) -> usize {
        self.walks_per_vertex
    }

    /// The flat table: vertex `v`'s endpoints are
    /// `ends()[v·w..(v + 1)·w]`.
    pub fn ends(&self) -> &[u32] {
        &self.ends
    }

    /// Vertex `v`'s endpoints.
    fn row(&self, v: usize) -> &[u32] {
        let w = self.walks_per_vertex;
        &self.ends[v * w..(v + 1) * w]
    }

    /// The multigraph of the table's edges, field for field the graph a
    /// [`GraphBuilder`](crate::GraphBuilder) builds from the pairs
    /// `(v, ends[v·w + j])` in table order.
    pub fn to_graph(&self) -> Graph {
        let w = self.walks_per_vertex;
        let edges = self
            .ends
            .chunks_exact(w)
            .enumerate()
            .flat_map(|(v, row)| {
                let v = v as u32;
                row.iter().map(move |&u| (v.min(u), v.max(u)))
            })
            .collect();
        Graph::from_normalized_edges(self.num_vertices(), edges)
    }
}

/// Where a contraction reads its edges: a [`Graph`]'s edge list, or a
/// random batch as the walks wrote it, an [`EndpointTable`] (edge
/// `(v, ends[v·w + j])`, loops and repeats included). A table and the graph
/// [`EndpointTable::to_graph`] builds from it are the same edge multiset,
/// so they contract to the same graph.
#[derive(Debug, Clone, Copy)]
pub enum EdgeSource<'a> {
    /// The edges of a graph.
    Graph(&'a Graph),
    /// The edges of a random batch.
    Table(&'a EndpointTable),
}

impl<'a> From<&'a Graph> for EdgeSource<'a> {
    fn from(g: &'a Graph) -> Self {
        EdgeSource::Graph(g)
    }
}

impl<'a> From<&'a EndpointTable> for EdgeSource<'a> {
    fn from(table: &'a EndpointTable) -> Self {
        EdgeSource::Table(table)
    }
}

impl EdgeSource<'_> {
    /// Number of vertices of the source.
    pub fn num_vertices(&self) -> usize {
        match self {
            EdgeSource::Graph(g) => g.num_vertices(),
            EdgeSource::Table(t) => t.num_vertices(),
        }
    }

    /// Number of edges, loops and repeats included.
    pub fn num_edges(&self) -> usize {
        match self {
            EdgeSource::Graph(g) => g.num_edges(),
            EdgeSource::Table(t) => t.num_edges(),
        }
    }

    /// How many units [`for_each_edge`](Self::for_each_edge) ranges over: a
    /// graph's edges, a table's vertices (rows of `w` edges).
    pub fn units(&self) -> usize {
        match self {
            EdgeSource::Graph(g) => g.num_edges(),
            EdgeSource::Table(t) => t.num_vertices(),
        }
    }

    /// Calls `f(u, v)` on every edge of the units `units`, in source order.
    #[inline]
    pub fn for_each_edge(&self, units: Range<usize>, mut f: impl FnMut(u32, u32)) {
        match self {
            EdgeSource::Graph(g) => {
                for &(u, v) in &g.edges()[units] {
                    f(u, v);
                }
            }
            EdgeSource::Table(t) => {
                let w = t.walks_per_vertex;
                let rows = t.ends[units.start * w..units.end * w].chunks_exact(w);
                for (v, row) in units.zip(rows) {
                    for &u in row {
                        f(v as u32, u);
                    }
                }
            }
        }
    }
}

/// The contraction graph (Definition 2) of the disjoint edge-set union of
/// `sources` by `partition`: one vertex per part, one edge per pair of
/// distinct parts joined by at least one edge, built with no comparison
/// sort. Rows come out sorted and distinct and the edge list row-major —
/// field for field the graph of the relabelled edges sorted and
/// deduplicated.
///
/// Both passes of the build walk the parts `x` ascending and visit the row
/// of every neighbour part `r` of `x`, in both directions and with
/// repeats: the first counts `x` into row `r` unless `r = x` (a loop of
/// the contraction) or `x` is already the row's last entry (a repeat: all
/// of `x`'s visits come together); the second writes `x` into each row at
/// its final offset, so no row needs a sort or a compaction. The edges
/// `(r, x)`, `x > r`, are read off the rows. Where the neighbour parts of
/// `x` come from depends on the partition:
///
/// * the identity (phase 1 of the growth stage): the parts are the
///   vertices and nothing is relabelled. A graph's neighbours are its own
///   CSR row; a table's are its own endpoints plus its in-list, which one
///   ascending scatter of the table builds;
/// * any other partition: one counting pass and one scatter over every
///   source's edges bucket each relabelled non-loop edge `(a, b)` under
///   both `a` and `b`, so the passes read every part's neighbours
///   contiguously instead of chasing its members' rows across the
///   sources.
///
/// # Panics
///
/// Panics if a source's vertex count differs from the partition's, or if
/// the part count exceeds the `u32` id space.
pub fn counting_contraction(sources: &[EdgeSource<'_>], partition: &Partition) -> Graph {
    let n = partition.len();
    assert!(
        sources.iter().all(|src| src.num_vertices() == n),
        "every source must be on the partition's {n} vertices"
    );
    let k = partition.num_parts();
    assert!(
        k as u64 <= u64::from(u32::MAX) + 1,
        "{k} parts break the u32 id space"
    );
    if partition.is_identity() {
        let rows: Vec<Neighbours<'_>> = sources.iter().map(Neighbours::of).collect();
        build(&Unlabelled { n, rows })
    } else {
        build(&Buckets::of(sources, partition))
    }
}

/// The neighbour parts of every part, both directions, repeats included:
/// what the two passes of [`counting_contraction`] read.
trait NeighbourParts {
    /// Number of parts.
    fn count(&self) -> usize;
    /// Calls `f(r)` on every neighbour part `r` of part `x`.
    fn each(&self, x: usize, f: impl FnMut(u32));
}

/// The identity partition: a part is its vertex, and its neighbours are
/// read off every source in place.
struct Unlabelled<'a> {
    n: usize,
    rows: Vec<Neighbours<'a>>,
}

/// One source's neighbours of every vertex, loops once.
enum Neighbours<'a> {
    Graph(&'a Graph),
    Table {
        table: &'a EndpointTable,
        /// `in_sources[in_offsets[u]..in_offsets[u + 1]]`: the vertices
        /// whose endpoints include `u`, ascending, once per occurrence.
        in_offsets: Vec<usize>,
        in_sources: Vec<u32>,
    },
}

impl<'a> Neighbours<'a> {
    fn of(src: &EdgeSource<'a>) -> Self {
        let table = match *src {
            EdgeSource::Graph(g) => return Neighbours::Graph(g),
            EdgeSource::Table(t) => t,
        };
        let n = table.num_vertices();
        let mut in_offsets = vec![0usize; n + 1];
        for &u in &table.ends {
            in_offsets[u as usize + 1] += 1;
        }
        for v in 0..n {
            in_offsets[v + 1] += in_offsets[v];
        }
        let mut cursor = in_offsets[..n].to_vec();
        let mut in_sources = vec![0u32; table.num_edges()];
        for (v, row) in table.ends.chunks_exact(table.walks_per_vertex).enumerate() {
            for &u in row {
                let c = &mut cursor[u as usize];
                in_sources[*c] = v as u32;
                *c += 1;
            }
        }
        Neighbours::Table {
            table,
            in_offsets,
            in_sources,
        }
    }
}

impl NeighbourParts for Unlabelled<'_> {
    fn count(&self) -> usize {
        self.n
    }

    #[inline]
    fn each(&self, x: usize, mut f: impl FnMut(u32)) {
        for src in &self.rows {
            match src {
                Neighbours::Graph(g) => g.neighbors(x).iter().for_each(|&u| f(u)),
                Neighbours::Table {
                    table,
                    in_offsets,
                    in_sources,
                } => {
                    let ins = &in_sources[in_offsets[x]..in_offsets[x + 1]];
                    ins.iter().chain(table.row(x)).for_each(|&u| f(u));
                }
            }
        }
    }
}

/// Any other partition: `parts[offsets[x]..offsets[x + 1]]` lists the
/// other part of every relabelled non-loop edge at part `x`.
struct Buckets {
    offsets: Vec<usize>,
    parts: Vec<u32>,
}

impl Buckets {
    fn of(sources: &[EdgeSource<'_>], partition: &Partition) -> Self {
        let k = partition.num_parts();
        let labels: Vec<u32> = partition
            .part_of_slice()
            .iter()
            .map(|&p| p as u32)
            .collect();
        let mut offsets = vec![0usize; k + 1];
        each_relabelled_edge(sources, &labels, |a, b| {
            offsets[a + 1] += 1;
            offsets[b + 1] += 1;
        });
        for x in 0..k {
            offsets[x + 1] += offsets[x];
        }
        let mut cursor = offsets[..k].to_vec();
        let mut parts = vec![0u32; offsets[k]];
        each_relabelled_edge(sources, &labels, |a, b| {
            parts[cursor[a]] = b as u32;
            cursor[a] += 1;
            parts[cursor[b]] = a as u32;
            cursor[b] += 1;
        });
        Buckets { offsets, parts }
    }
}

/// Calls `f(a, b)` on the parts of the endpoints of every edge of
/// `sources` that joins two parts.
fn each_relabelled_edge(
    sources: &[EdgeSource<'_>],
    labels: &[u32],
    mut f: impl FnMut(usize, usize),
) {
    for src in sources {
        src.for_each_edge(0..src.units(), |u, v| {
            let (a, b) = (labels[u as usize], labels[v as usize]);
            if a != b {
                f(a as usize, b as usize);
            }
        });
    }
}

impl NeighbourParts for Buckets {
    fn count(&self) -> usize {
        self.offsets.len() - 1
    }

    #[inline]
    fn each(&self, x: usize, f: impl FnMut(u32)) {
        self.parts[self.offsets[x]..self.offsets[x + 1]]
            .iter()
            .copied()
            .for_each(f);
    }
}

/// The counting and the filling pass of [`counting_contraction`], then the
/// edge list read off the rows.
fn build(neighbours: &impl NeighbourParts) -> Graph {
    let k = neighbours.count();
    let mut offsets = vec![0usize; k + 1];
    each_new_neighbour(neighbours, |r, _| offsets[r + 1] += 1);
    for x in 0..k {
        offsets[x + 1] += offsets[x];
    }
    let mut adjacency = vec![0u32; offsets[k]];
    let mut cursor = offsets[..k].to_vec();
    each_new_neighbour(neighbours, |r, x| {
        adjacency[cursor[r]] = x;
        cursor[r] += 1;
    });

    let mut edges = Vec::with_capacity(adjacency.len() / 2);
    for r in 0..k {
        let row = &adjacency[offsets[r]..offsets[r + 1]];
        let above = row.partition_point(|&x| (x as usize) < r);
        edges.extend(row[above..].iter().map(|&x| (r as u32, x)));
    }
    Graph::from_csr_parts(k, edges, offsets, adjacency)
}

/// Calls `push(r, x)` once per distinct neighbour part `x ≠ r` of every
/// part `r`, `x` ascending. `last[r]` is the row's last entry, `r` itself
/// while the row is empty, which no `x` that reaches the row can equal.
fn each_new_neighbour(neighbours: &impl NeighbourParts, mut push: impl FnMut(usize, u32)) {
    let k = neighbours.count();
    let mut last: Vec<u32> = (0..k).map(|r| r as u32).collect();
    for x in 0..k {
        let xi = x as u32;
        neighbours.each(x, |r| {
            let r = r as usize;
            if last[r] != xi && r != x {
                last[r] = xi;
                push(r, xi);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Both readings of the neighbour parts on the same identity request:
    /// the relabelled buckets and the sources read in place must build the
    /// same graph, and that graph is the sources' non-loop edges sorted and
    /// deduplicated.
    #[test]
    fn bucketed_and_unlabelled_readings_of_the_identity_agree() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        for n in [0usize, 1, 2, 7, 60] {
            for w in [1usize, 3] {
                let bound = (n / 2).max(1) as u32;
                let ends = (0..n * w).map(|_| rng.gen_range(0..bound)).collect();
                let table = EndpointTable::new(w, ends);
                let graph = Graph::from_edges_unchecked(
                    n,
                    (0..2 * n).map(|_| (rng.gen_range(0..n), rng.gen_range(0..n))),
                );
                let sources = [EdgeSource::Table(&table), EdgeSource::Graph(&graph)];
                for sources in [&sources[..1], &sources[1..], &sources[..]] {
                    let identity = Partition::singletons(n);
                    let labelled = build(&Buckets::of(sources, &identity));
                    let unlabelled = build(&Unlabelled {
                        n,
                        rows: sources.iter().map(Neighbours::of).collect(),
                    });
                    let mut spec: Vec<(usize, usize)> = sources
                        .iter()
                        .flat_map(|src| match src {
                            EdgeSource::Graph(g) => g.edge_iter().collect::<Vec<_>>(),
                            EdgeSource::Table(t) => t.to_graph().edge_iter().collect(),
                        })
                        .filter(|&(u, v)| u != v)
                        .collect();
                    spec.sort_unstable();
                    spec.dedup();
                    let spec = Graph::from_edges_unchecked(n, spec);
                    for got in [&labelled, &unlabelled] {
                        assert_eq!(got.edges(), spec.edges(), "n={n}, w={w}");
                        assert_eq!(got.csr_offsets(), spec.csr_offsets(), "n={n}, w={w}");
                        assert_eq!(got.csr_adjacency(), spec.csr_adjacency(), "n={n}, w={w}");
                    }
                }
            }
        }
    }
}
