//! A random batch as the walks write it: an endpoint table.
//!
//! Step 2 of the pipeline connects every vertex `v` of an `n`-vertex graph
//! to `w` random-walk endpoints. Section 6 reads such a batch only through
//! its contraction graph, so the batch is never built as a [`Graph`]: it
//! stays the `n·w` endpoints the walks produced, vertex-major. Edge `j` of
//! vertex `v` is `(v, ends[v·w + j])`, self-loops and repeated endpoints
//! included, which is the multiset a [`GraphBuilder`](crate::GraphBuilder)
//! fed the same pairs keeps.

use crate::graph::Graph;

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

    /// The simple graph underneath the table, field for field
    /// [`to_graph`](Self::to_graph)`.`[`simple`](Graph::simple)`()`, built
    /// with no comparison sort:
    ///
    /// 1. one ascending scatter of the table gives every vertex's in-list,
    ///    sorted by source;
    /// 2. a pass over `x` ascending visits every row `r` in
    ///    `in(x) ∪ own(x)` — the vertices `x` shares an edge with — and
    ///    counts `x` into the row unless `r = x` (a loop) or `x` is already
    ///    the row's last entry (a repeat: all of `x`'s visits come
    ///    together);
    /// 3. a second such pass writes `x` into each row at its final offset,
    ///    so every row comes out sorted and the adjacency needs no
    ///    compaction; the edges `(r, x)`, `x > r`, are read off it row by
    ///    row.
    pub fn simple_graph(&self) -> Graph {
        let (n, w) = (self.num_vertices(), self.walks_per_vertex);
        let ends = &self.ends;
        let mut in_offsets = vec![0usize; n + 1];
        for &u in ends {
            in_offsets[u as usize + 1] += 1;
        }
        for v in 0..n {
            in_offsets[v + 1] += in_offsets[v];
        }
        let mut cursor = in_offsets[..n].to_vec();
        let mut sources = vec![0u32; ends.len()];
        for (v, row) in ends.chunks_exact(w).enumerate() {
            for &u in row {
                let c = &mut cursor[u as usize];
                sources[*c] = v as u32;
                *c += 1;
            }
        }

        let mut offsets = vec![0usize; n + 1];
        each_new_neighbour(ends, w, &in_offsets, &sources, |r, _| offsets[r + 1] += 1);
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut adjacency = vec![0u32; offsets[n]];
        let mut cursor = offsets[..n].to_vec();
        each_new_neighbour(ends, w, &in_offsets, &sources, |r, x| {
            adjacency[cursor[r]] = x;
            cursor[r] += 1;
        });

        let mut edges = Vec::with_capacity(adjacency.len() / 2);
        for r in 0..n {
            let row = &adjacency[offsets[r]..offsets[r + 1]];
            let above = row.partition_point(|&x| (x as usize) < r);
            edges.extend(row[above..].iter().map(|&x| (r as u32, x)));
        }
        Graph::from_csr_parts(n, edges, offsets, adjacency)
    }
}

/// Calls `push(r, x)` once per distinct non-loop neighbour `x` of every
/// row `r` of the table's simple graph, `x` ascending: `x`'s neighbours are
/// its in-list `sources[in_offsets[x]..in_offsets[x + 1]]` and its own
/// endpoints. `last[r]` is the row's last entry, `r` itself while the row
/// is empty, which no `x` that reaches the row can equal.
fn each_new_neighbour(
    ends: &[u32],
    w: usize,
    in_offsets: &[usize],
    sources: &[u32],
    mut push: impl FnMut(usize, u32),
) {
    let n = in_offsets.len() - 1;
    let mut last: Vec<u32> = (0..n).map(|r| r as u32).collect();
    for x in 0..n {
        let xi = x as u32;
        let own = &ends[x * w..(x + 1) * w];
        for &r in sources[in_offsets[x]..in_offsets[x + 1]].iter().chain(own) {
            let r = r as usize;
            if last[r] != xi && r != x {
                last[r] = xi;
                push(r, xi);
            }
        }
    }
}
