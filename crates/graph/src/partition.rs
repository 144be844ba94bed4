//! Vertex partitions ("component-partitions" in the paper's terminology).
//!
//! The leader-election algorithm of Section 6 maintains a partition
//! `C_i = {C_{i,1}, …, C_{i,k}}` of the vertex set that is repeatedly
//! *coarsened*: each phase groups the parts of `C_i` (via the contraction
//! graph) and merges every group into a single part of `C_{i+1}`. This module
//! provides that data structure together with the invariant checks used by
//! tests (is it a partition? is it a refinement of the true components? are
//! part sizes within the bounds of the Equipartition Lemma 6.4?).

use crate::components::ComponentLabels;

use serde::{Deserialize, Serialize};

/// A partition of the vertex set `{0, …, n-1}` into `num_parts` parts,
/// numbered `0..num_parts`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partition {
    part_of: Vec<usize>,
    num_parts: usize,
}

impl Partition {
    /// The partition of `{0, …, n-1}` into singletons, with part `v = {v}`.
    pub fn singletons(n: usize) -> Self {
        Partition {
            part_of: (0..n).collect(),
            num_parts: n,
        }
    }

    /// Builds a partition from a map `part_of[v] = part index`.
    ///
    /// Part indices must form a contiguous range `0..num_parts`.
    ///
    /// # Panics
    ///
    /// Panics if some part index `>= num_parts` appears, or if some part in
    /// `0..num_parts` is empty.
    pub fn from_part_of(part_of: Vec<usize>, num_parts: usize) -> Self {
        let mut seen = vec![false; num_parts];
        for &p in &part_of {
            assert!(p < num_parts, "part index {p} out of range {num_parts}");
            seen[p] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "every part index in 0..num_parts must be non-empty"
        );
        Partition { part_of, num_parts }
    }

    /// Builds a partition from arbitrary (possibly sparse) raw labels,
    /// canonicalising part indices in order of first appearance.
    pub fn from_raw_labels(raw: &[usize]) -> Self {
        let labels = ComponentLabels::from_raw_labels(raw);
        Partition {
            num_parts: labels.num_components(),
            part_of: labels.labels().to_vec(),
        }
    }

    /// Number of elements (vertices) partitioned.
    pub fn len(&self) -> usize {
        self.part_of.len()
    }

    /// Returns `true` if the ground set is empty.
    pub fn is_empty(&self) -> bool {
        self.part_of.is_empty()
    }

    /// Number of parts.
    pub fn num_parts(&self) -> usize {
        self.num_parts
    }

    /// `true` iff vertex `v` is alone in part `v`, for every `v` — the
    /// labelling [`singletons`](Self::singletons) produces, under which
    /// contracting a graph relabels nothing. A permuted singleton labelling
    /// is not the identity.
    pub fn is_identity(&self) -> bool {
        self.num_parts == self.part_of.len()
            && self.part_of.iter().enumerate().all(|(v, &p)| p == v)
    }

    /// The part containing vertex `v`.
    pub fn part_of(&self, v: usize) -> usize {
        self.part_of[v]
    }

    /// The full part-of vector.
    pub fn part_of_slice(&self) -> &[usize] {
        &self.part_of
    }

    /// Sizes of each part, indexed by part id.
    pub fn part_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_parts];
        for &p in &self.part_of {
            sizes[p] += 1;
        }
        sizes
    }

    /// The members of each part, indexed by part id.
    pub fn members(&self) -> Vec<Vec<usize>> {
        let mut members = vec![Vec::new(); self.num_parts];
        for (v, &p) in self.part_of.iter().enumerate() {
            members[p].push(v);
        }
        members
    }

    /// Largest part size (`0` when the ground set is empty).
    pub fn max_part_size(&self) -> usize {
        self.part_sizes().into_iter().max().unwrap_or(0)
    }

    /// Smallest part size (`0` when the ground set is empty).
    pub fn min_part_size(&self) -> usize {
        self.part_sizes().into_iter().min().unwrap_or(0)
    }

    /// Coarsens the partition: `group_of_part[p]` assigns every current part
    /// `p` to a group; parts in the same group are merged. Group indices may
    /// be sparse — they are canonicalised.
    ///
    /// # Panics
    ///
    /// Panics if `group_of_part.len() != self.num_parts()`.
    pub fn coarsen(&self, group_of_part: &[usize]) -> Partition {
        assert_eq!(
            group_of_part.len(),
            self.num_parts,
            "coarsen requires one group per existing part"
        );
        let canon = ComponentLabels::from_raw_labels(group_of_part);
        let part_of = self
            .part_of
            .iter()
            .map(|&p| canon.label(p))
            .collect::<Vec<_>>();
        Partition {
            part_of,
            num_parts: canon.num_components(),
        }
    }

    /// Converts to [`ComponentLabels`] (the two types are isomorphic; this is
    /// the interface the rest of the workspace consumes).
    pub fn to_component_labels(&self) -> ComponentLabels {
        ComponentLabels::from_raw_labels(&self.part_of)
    }

    /// Returns `true` if every part is contained in a single component of
    /// `truth` — i.e. the partition never merges vertices from different true
    /// components. This is the safety invariant of every leader-election
    /// phase (Lemma 6.7(I)).
    pub fn respects(&self, truth: &ComponentLabels) -> bool {
        self.to_component_labels().is_refinement_of(truth)
    }

    /// Returns `true` if the partition equals the true component partition.
    pub fn equals_components(&self, truth: &ComponentLabels) -> bool {
        self.to_component_labels().same_partition(truth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_have_one_vertex_each() {
        let p = Partition::singletons(4);
        assert_eq!(p.num_parts(), 4);
        assert_eq!(p.part_sizes(), vec![1, 1, 1, 1]);
        assert_eq!(p.max_part_size(), 1);
    }

    #[test]
    fn coarsen_merges_parts() {
        let p = Partition::singletons(5);
        // Merge parts {0,1} and {2,3,4}.
        let q = p.coarsen(&[10, 10, 20, 20, 20]);
        assert_eq!(q.num_parts(), 2);
        assert_eq!(q.part_of(0), q.part_of(1));
        assert_eq!(q.part_of(2), q.part_of(4));
        assert_ne!(q.part_of(0), q.part_of(2));
        assert_eq!(q.part_sizes(), vec![2, 3]);
    }

    #[test]
    fn coarsen_twice_composes() {
        let p = Partition::singletons(6);
        let q = p.coarsen(&[0, 0, 1, 1, 2, 2]);
        let r = q.coarsen(&[0, 0, 1]);
        assert_eq!(r.num_parts(), 2);
        assert_eq!(r.part_sizes(), vec![4, 2]);
    }

    #[test]
    #[should_panic(expected = "one group per existing part")]
    fn coarsen_with_wrong_length_panics() {
        let p = Partition::singletons(3);
        let _ = p.coarsen(&[0, 0]);
    }

    #[test]
    fn respects_true_components() {
        let truth = ComponentLabels::from_raw_labels(&[0, 0, 0, 1, 1]);
        let fine = Partition::from_raw_labels(&[0, 0, 1, 2, 2]);
        assert!(fine.respects(&truth));
        assert!(!fine.equals_components(&truth));
        let exact = Partition::from_raw_labels(&[5, 5, 5, 9, 9]);
        assert!(exact.equals_components(&truth));
        let bad = Partition::from_raw_labels(&[0, 0, 1, 1, 1]);
        assert!(!bad.respects(&truth));
    }

    #[test]
    fn from_part_of_validates_contiguity() {
        let p = Partition::from_part_of(vec![0, 1, 1, 0], 2);
        assert_eq!(p.num_parts(), 2);
        assert_eq!(p.members(), vec![vec![0, 3], vec![1, 2]]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn from_part_of_rejects_empty_parts() {
        let _ = Partition::from_part_of(vec![0, 0, 2, 2], 3);
    }
}
