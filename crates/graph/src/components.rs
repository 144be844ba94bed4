//! Exact (sequential) connectivity: union–find, BFS components, spanning
//! forests.
//!
//! These are the ground-truth oracles every MPC algorithm in this workspace is
//! tested against, and also the "single machine" baseline used by the
//! experiment harness.

use crate::graph::Graph;
use crate::hash::IdMap;

use serde::{Deserialize, Serialize};

/// A disjoint-set (union–find) structure with path compression and union by
/// size.
///
/// ```
/// use wcc_graph::UnionFind;
/// let mut uf = UnionFind::new(4);
/// uf.union(0, 1);
/// uf.union(2, 3);
/// assert!(uf.same_set(0, 1));
/// assert!(!uf.same_set(1, 2));
/// assert_eq!(uf.num_sets(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<usize>,
    size: Vec<usize>,
    num_sets: usize,
}

impl UnionFind {
    /// Creates `n` singleton sets `{0}, {1}, …, {n-1}`.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            size: vec![1; n],
            num_sets: n,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Returns `true` if there are no elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Appends a new element as its own singleton set, returning its index.
    ///
    /// This is what lets long-lived structures (the streaming ingestion
    /// engine) admit vertices that arrive after construction.
    pub fn push(&mut self) -> usize {
        let id = self.parent.len();
        self.parent.push(id);
        self.size.push(1);
        self.num_sets += 1;
        id
    }

    /// Representative of the set containing `x`.
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Merges the sets containing `x` and `y`; returns `true` if they were
    /// previously distinct.
    pub fn union(&mut self, x: usize, y: usize) -> bool {
        let (rx, ry) = (self.find(x), self.find(y));
        if rx == ry {
            return false;
        }
        let (big, small) = if self.size[rx] >= self.size[ry] {
            (rx, ry)
        } else {
            (ry, rx)
        };
        self.parent[small] = big;
        self.size[big] += self.size[small];
        self.num_sets -= 1;
        true
    }

    /// Returns `true` if `x` and `y` are in the same set.
    pub fn same_set(&mut self, x: usize, y: usize) -> bool {
        self.find(x) == self.find(y)
    }

    /// Number of disjoint sets.
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Size of the set containing `x`.
    pub fn set_size(&mut self, x: usize) -> usize {
        let r = self.find(x);
        self.size[r]
    }

    /// Converts into canonical component labels (labels are `0..k` in order of
    /// first appearance).
    pub fn into_labels(mut self) -> ComponentLabels {
        let n = self.parent.len();
        let mut canonical = vec![usize::MAX; n];
        let mut labels = vec![0usize; n];
        let mut next = 0usize;
        for (v, label) in labels.iter_mut().enumerate() {
            let r = self.find(v);
            if canonical[r] == usize::MAX {
                canonical[r] = next;
                next += 1;
            }
            *label = canonical[r];
        }
        ComponentLabels {
            labels,
            num_components: next,
        }
    }
}

/// Connected-component labels: `labels[v]` is the component index of vertex
/// `v`, with components numbered `0..num_components` in order of first
/// appearance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ComponentLabels {
    labels: Vec<usize>,
    num_components: usize,
}

impl ComponentLabels {
    /// Builds labels from an arbitrary labelling (canonicalising label values).
    pub fn from_raw_labels(raw: &[usize]) -> Self {
        let mut map: IdMap<usize, usize> = IdMap::default();
        let mut labels = Vec::with_capacity(raw.len());
        for &r in raw {
            let next = map.len();
            let id = *map.entry(r).or_insert(next);
            labels.push(id);
        }
        ComponentLabels {
            labels,
            num_components: map.len(),
        }
    }

    /// Number of vertices labelled.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` if no vertices are labelled.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of distinct components.
    pub fn num_components(&self) -> usize {
        self.num_components
    }

    /// Component index of vertex `v`.
    pub fn label(&self, v: usize) -> usize {
        self.labels[v]
    }

    /// The full label vector.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Returns `true` if `u` and `v` are in the same component.
    pub fn same_component(&self, u: usize, v: usize) -> bool {
        self.labels[u] == self.labels[v]
    }

    /// Sizes of the components, indexed by component id.
    pub fn component_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_components];
        for &l in &self.labels {
            sizes[l] += 1;
        }
        sizes
    }

    /// The vertex sets of each component, indexed by component id.
    pub fn component_members(&self) -> Vec<Vec<usize>> {
        let mut members = vec![Vec::new(); self.num_components];
        for (v, &l) in self.labels.iter().enumerate() {
            members[l].push(v);
        }
        members
    }

    /// Returns `true` if `self` and `other` describe the *same partition* of
    /// the vertex set (label values are allowed to differ).
    pub fn same_partition(&self, other: &ComponentLabels) -> bool {
        if self.labels.len() != other.labels.len() || self.num_components != other.num_components {
            return false;
        }
        let mut fwd = vec![usize::MAX; self.num_components];
        for (a, b) in self.labels.iter().zip(other.labels.iter()) {
            if fwd[*a] == usize::MAX {
                fwd[*a] = *b;
            } else if fwd[*a] != *b {
                return false;
            }
        }
        true
    }

    /// Returns `true` if every part of `self` is contained in a single part of
    /// `other` (i.e. `self` refines `other`).
    pub fn is_refinement_of(&self, other: &ComponentLabels) -> bool {
        if self.labels.len() != other.labels.len() {
            return false;
        }
        let mut rep = vec![usize::MAX; self.num_components];
        for (v, &a) in self.labels.iter().enumerate() {
            let b = other.labels[v];
            if rep[a] == usize::MAX {
                rep[a] = b;
            } else if rep[a] != b {
                return false;
            }
        }
        true
    }
}

/// Computes the connected components of `g` by breadth-first search.
///
/// Runs in `O(n + m)` time; the result is the ground truth used by all tests.
pub fn connected_components(g: &Graph) -> ComponentLabels {
    let n = g.num_vertices();
    let mut labels = vec![usize::MAX; n];
    let mut num_components = 0usize;
    let mut queue = std::collections::VecDeque::new();
    for start in 0..n {
        if labels[start] != usize::MAX {
            continue;
        }
        labels[start] = num_components;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            for &w in g.neighbors(v) {
                let w = w as usize;
                if labels[w] == usize::MAX {
                    labels[w] = num_components;
                    queue.push_back(w);
                }
            }
        }
        num_components += 1;
    }
    ComponentLabels {
        labels,
        num_components,
    }
}

/// Computes connected components via union–find over the edge list.
///
/// Same output as [`connected_components`]; kept as an independent oracle for
/// cross-checking in tests.
pub fn connected_components_union_find(g: &Graph) -> ComponentLabels {
    let mut uf = UnionFind::new(g.num_vertices());
    for (u, v) in g.edge_iter() {
        uf.union(u, v);
    }
    uf.into_labels()
}

/// A spanning forest: one BFS tree edge list per connected component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanningForest {
    /// Tree edges, as pairs of original vertex ids.
    pub edges: Vec<(usize, usize)>,
    /// The component labelling the forest spans.
    pub components: ComponentLabels,
}

/// Computes a BFS spanning forest of `g`.
pub fn spanning_forest(g: &Graph) -> SpanningForest {
    let n = g.num_vertices();
    let mut labels = vec![usize::MAX; n];
    let mut edges = Vec::new();
    let mut num_components = 0usize;
    let mut queue = std::collections::VecDeque::new();
    for start in 0..n {
        if labels[start] != usize::MAX {
            continue;
        }
        labels[start] = num_components;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            for &w in g.neighbors(v) {
                let w = w as usize;
                if labels[w] == usize::MAX {
                    labels[w] = num_components;
                    edges.push((v, w));
                    queue.push_back(w);
                }
            }
        }
        num_components += 1;
    }
    SpanningForest {
        edges,
        components: ComponentLabels {
            labels,
            num_components,
        },
    }
}

/// Checks that `forest_edges` is a spanning forest of `g`: every edge exists
/// in `g`, the edges are acyclic, and they connect exactly the connected
/// components of `g`.
pub fn verify_spanning_forest(g: &Graph, forest_edges: &[(usize, usize)]) -> bool {
    let truth = connected_components(g);
    let mut uf = UnionFind::new(g.num_vertices());
    for &(u, v) in forest_edges {
        if u >= g.num_vertices() || v >= g.num_vertices() || !g.has_edge(u, v) {
            return false;
        }
        if !uf.union(u, v) {
            // Cycle among forest edges.
            return false;
        }
    }
    uf.into_labels().same_partition(&truth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn two_triangles() -> Graph {
        Graph::from_edges_unchecked(6, vec![(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    }

    #[test]
    fn union_find_basic_merging() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.num_sets(), 5);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert!(uf.union(1, 2));
        assert_eq!(uf.num_sets(), 3);
        assert_eq!(uf.set_size(2), 3);
        assert!(uf.same_set(0, 2));
        assert!(!uf.same_set(0, 4));
    }

    #[test]
    fn push_grows_the_universe_with_singletons() {
        let mut uf = UnionFind::new(2);
        uf.union(0, 1);
        let v = uf.push();
        assert_eq!(v, 2);
        assert_eq!(uf.len(), 3);
        assert_eq!(uf.num_sets(), 2);
        assert!(!uf.same_set(0, 2));
        uf.union(1, 2);
        assert_eq!(uf.num_sets(), 1);
        assert_eq!(uf.set_size(2), 3);
    }

    #[test]
    fn bfs_and_union_find_agree() {
        let g = two_triangles();
        let a = connected_components(&g);
        let b = connected_components_union_find(&g);
        assert!(a.same_partition(&b));
        assert_eq!(a.num_components(), 2);
        assert_eq!(a.component_sizes(), vec![3, 3]);
    }

    #[test]
    fn isolated_vertices_are_their_own_components() {
        let g = Graph::from_edges_unchecked(4, vec![(0, 1)]);
        let cc = connected_components(&g);
        assert_eq!(cc.num_components(), 3);
        assert!(cc.same_component(0, 1));
        assert!(!cc.same_component(2, 3));
    }

    #[test]
    fn same_partition_ignores_label_values() {
        let a = ComponentLabels::from_raw_labels(&[7, 7, 9, 9]);
        let b = ComponentLabels::from_raw_labels(&[1, 1, 0, 0]);
        assert!(a.same_partition(&b));
        let c = ComponentLabels::from_raw_labels(&[1, 0, 0, 1]);
        assert!(!a.same_partition(&c));
    }

    #[test]
    fn refinement_detection() {
        let fine = ComponentLabels::from_raw_labels(&[0, 0, 1, 2]);
        let coarse = ComponentLabels::from_raw_labels(&[0, 0, 0, 1]);
        assert!(fine.is_refinement_of(&coarse));
        assert!(!coarse.is_refinement_of(&fine));
        assert!(fine.is_refinement_of(&fine));
    }

    #[test]
    fn spanning_forest_is_valid() {
        let g = two_triangles();
        let f = spanning_forest(&g);
        assert_eq!(f.edges.len(), 4); // (3 - 1) per triangle
        assert!(verify_spanning_forest(&g, &f.edges));
    }

    #[test]
    fn verify_spanning_forest_rejects_cycles_and_foreign_edges() {
        let g = two_triangles();
        // A cycle.
        assert!(!verify_spanning_forest(
            &g,
            &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)]
        ));
        // An edge not in the graph.
        assert!(!verify_spanning_forest(
            &g,
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
        ));
        // Incomplete (does not span).
        assert!(!verify_spanning_forest(&g, &[(0, 1), (3, 4)]));
    }
}
