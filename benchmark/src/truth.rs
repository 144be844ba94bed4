//! Ground truth for the streaming workloads: the op schedule replayed
//! through a plain interner, a live-edge multiset and `UnionFind`, sharing no
//! code with the engine under test.

use std::collections::HashMap;

use wcc_graph::io::{EdgeOp, OpKind};
use wcc_graph::{ComponentLabels, UnionFind};

/// The surviving edge multiset of a schedule prefix, on dense ids assigned in
/// order of first appearance (`u` before `v`) — the engine's documented
/// interning order, so label vectors compare position by position.
#[derive(Debug, Default, Clone)]
pub struct Replay {
    index: HashMap<u64, u32>,
    raw_of: Vec<u64>,
    live: HashMap<(u32, u32), u32>,
}

impl Replay {
    pub fn apply(&mut self, ops: &[EdgeOp]) {
        for op in ops {
            let u = self.intern(op.u);
            let v = self.intern(op.v);
            let copies = self.live.entry((u.min(v), u.max(v))).or_insert(0);
            match op.kind {
                OpKind::Insert => *copies += 1,
                OpKind::Delete => {
                    *copies = copies
                        .checked_sub(1)
                        .expect("the generated schedule never over-deletes");
                }
            }
        }
    }

    fn intern(&mut self, raw: u64) -> u32 {
        let next = self.raw_of.len() as u32;
        *self.index.entry(raw).or_insert_with(|| {
            self.raw_of.push(raw);
            next
        })
    }

    /// Canonical component labels of the live multiset, from scratch.
    pub fn labels(&self) -> ComponentLabels {
        let mut uf = UnionFind::new(self.raw_of.len());
        for (&(u, v), &copies) in &self.live {
            if copies > 0 {
                uf.union(u as usize, v as usize);
            }
        }
        uf.into_labels()
    }

    /// What the query service must answer at this point of the schedule.
    pub fn table(&self) -> TruthTable {
        let labels = self.labels();
        let mut size = vec![0u32; labels.num_components()];
        // Labels are numbered by first appearance, so the first vertex seen
        // with a label is that component's oldest member — its served id.
        let mut oldest_raw = vec![u64::MAX; labels.num_components()];
        for (dense, &label) in labels.labels().iter().enumerate() {
            size[label] += 1;
            if oldest_raw[label] == u64::MAX {
                oldest_raw[label] = self.raw_of[dense];
            }
        }
        TruthTable {
            label_of: self
                .raw_of
                .iter()
                .zip(labels.labels())
                .map(|(&raw, &label)| (raw, label as u32))
                .collect(),
            oldest_raw,
            size,
        }
    }
}

/// The exact answers of one epoch: every known vertex's component, each
/// component's served id (its oldest member's raw id) and size. A vertex
/// absent from the table must be answered `NotFound`.
#[derive(Debug, Clone)]
pub struct TruthTable {
    label_of: HashMap<u64, u32>,
    oldest_raw: Vec<u64>,
    size: Vec<u32>,
}

impl TruthTable {
    pub fn same_component(&self, u: u64, v: u64) -> Option<bool> {
        Some(self.label_of.get(&u)? == self.label_of.get(&v)?)
    }

    pub fn component_of(&self, v: u64) -> Option<u64> {
        self.label_of.get(&v).map(|&l| self.oldest_raw[l as usize])
    }

    pub fn component_size(&self, v: u64) -> Option<u64> {
        self.label_of
            .get(&v)
            .map(|&l| u64::from(self.size[l as usize]))
    }

    /// Test hook: makes the table wrong about its first component's id and
    /// size.
    pub fn corrupt(&mut self) {
        if let (Some(id), Some(size)) = (self.oldest_raw.first_mut(), self.size.first_mut()) {
            *id = u64::MAX - 1;
            *size += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_tracks_merges_splits_and_arrival_order() {
        let mut r = Replay::default();
        r.apply(&[
            EdgeOp::insert(10, 20),
            EdgeOp::insert(30, 40),
            EdgeOp::insert(20, 30),
        ]);
        let t = r.table();
        assert_eq!(r.labels().num_components(), 1);
        assert_eq!(t.component_of(40), Some(10));
        assert_eq!(t.component_size(30), Some(4));
        assert_eq!(t.same_component(10, 99), None);
        r.apply(&[EdgeOp::delete(30, 20)]);
        let t = r.table();
        assert_eq!(r.labels().num_components(), 2);
        assert_eq!(t.component_of(40), Some(30));
        assert_eq!(t.same_component(10, 40), Some(false));
    }
}
