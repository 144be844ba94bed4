//! Epoch-versioned immutable snapshots of the streaming decomposition, and
//! the double-buffered cell that hands them to concurrent readers.
//!
//! The concurrency contract of `wcc serve` is asymmetric: one ingest thread
//! owns the [`crate::stream::IncrementalComponents`] engine and mutates it
//! freely (union–find path compression mutates on *reads*, so the engine can
//! never be shared), while many connection threads answer component queries
//! at rates past 10⁵/s. The bridge is a [`ComponentSnapshot`]: a frozen copy
//! of the labelling, published at batch boundaries and never mutated again.
//!
//! * [`SnapshotCell`] is the publication point — an epoch counter
//!   ([`AtomicU64`]) next to a mutex-guarded `Arc` slot. Publishing stores
//!   the new `Arc` under the lock and *then* bumps the epoch with `Release`
//!   ordering.
//! * [`SnapshotReader`] is the per-connection view — it caches the last
//!   `Arc` it saw and revalidates with a single `Acquire` epoch load per
//!   query. The mutex is touched only on the query *after* a publish (to
//!   clone the new `Arc`); in the steady state between batches the read path
//!   is one atomic load plus array indexing, and readers never contend with
//!   each other or with the publisher.
//!
//! This is the classic epoch/RCU read-mostly shape built from `std` parts
//! only. Readers can lag a publish by at most the in-flight query (they
//! linearize before it), but can never observe a *torn* labelling: every
//! answer comes from exactly one immutable snapshot, and carries that
//! snapshot's epoch so the differential suite can check it against
//! from-scratch ground truth for that exact prefix of the stream.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use wcc_graph::IdMap;

/// An immutable point-in-time view of the component decomposition, answering
/// the full query surface of the serve protocol without locks.
///
/// Component ids are stable, meaningful names: the component of a vertex is
/// the **raw id of its oldest member** (the member that appeared earliest in
/// the stream). Fast-path growth — new vertices attaching to a standing
/// component — therefore preserves the component's id across epochs; ids
/// change only when components merge (the older side's id wins) or a
/// recompute reshapes the decomposition.
///
/// The heavy payloads (`index`, `raw_of`, `rep`, `size`) sit behind their own
/// `Arc`s so the engine can republish unchanged parts in O(1): a batch of
/// duplicate edges produces a new snapshot (fresh epoch and edge count) whose
/// arrays are *shared* with the previous one.
#[derive(Debug, Clone)]
pub struct ComponentSnapshot {
    epoch: u64,
    /// Raw (external) vertex id → dense id, frozen at publish time: a copy
    /// of the engine's interner, of the same type and hash key.
    index: Arc<IdMap<u64, u32>>,
    /// `raw_of[dense] = raw`, the inverse of `index`.
    raw_of: Arc<Vec<u64>>,
    /// `rep[dense]` = dense id of the oldest member of `dense`'s component.
    rep: Arc<Vec<u32>>,
    /// `size[r]` = component size, valid where `r` is an oldest-member id.
    size: Arc<Vec<u32>>,
    num_components: usize,
    edges: u64,
    batches: u64,
    recomputes: u64,
}

impl ComponentSnapshot {
    /// The snapshot a [`SnapshotCell`] starts from: epoch 0, no vertices —
    /// every lookup misses until the first publish.
    pub fn empty() -> Self {
        ComponentSnapshot {
            epoch: 0,
            index: Arc::default(),
            raw_of: Arc::new(Vec::new()),
            rep: Arc::new(Vec::new()),
            size: Arc::new(Vec::new()),
            num_components: 0,
            edges: 0,
            batches: 0,
            recomputes: 0,
        }
    }

    /// Assembles a snapshot from engine-built parts (see
    /// `IncrementalComponents::snapshot`, the only production caller).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        epoch: u64,
        index: Arc<IdMap<u64, u32>>,
        raw_of: Arc<Vec<u64>>,
        rep: Arc<Vec<u32>>,
        size: Arc<Vec<u32>>,
        num_components: usize,
        edges: u64,
        batches: u64,
        recomputes: u64,
    ) -> Self {
        debug_assert_eq!(index.len(), raw_of.len());
        debug_assert_eq!(raw_of.len(), rep.len());
        ComponentSnapshot {
            epoch,
            index,
            raw_of,
            rep,
            size,
            num_components,
            edges,
            batches,
            recomputes,
        }
    }

    /// The epoch this snapshot was published as (= batches ingested when it
    /// was built; 0 only for [`ComponentSnapshot::empty`]).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Distinct vertices in the snapshot.
    pub fn num_vertices(&self) -> usize {
        self.raw_of.len()
    }

    /// Components in the snapshot.
    pub fn num_components(&self) -> usize {
        self.num_components
    }

    /// Accumulated edges (duplicates and self-loops count, matching
    /// [`crate::stream::IncrementalComponents::num_edges`]).
    pub fn num_edges(&self) -> u64 {
        self.edges
    }

    /// Batches the engine had applied when this snapshot was built.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Slow-path recomputes the engine had performed.
    pub fn recomputes(&self) -> u64 {
        self.recomputes
    }

    fn dense(&self, raw: u64) -> Option<usize> {
        self.index.get(&raw).map(|&d| d as usize)
    }

    /// Whether raw vertices `u` and `v` are in the same component; `None` if
    /// either id has not appeared in the stream.
    pub fn same_component(&self, u: u64, v: u64) -> Option<bool> {
        let (du, dv) = (self.dense(u)?, self.dense(v)?);
        Some(self.rep[du] == self.rep[dv])
    }

    /// The component id of raw vertex `v` (the raw id of its component's
    /// oldest member); `None` if `v` has not appeared in the stream.
    pub fn component_of(&self, v: u64) -> Option<u64> {
        let d = self.dense(v)?;
        Some(self.raw_of[self.rep[d] as usize])
    }

    /// The size of the component containing raw vertex `c`. Accepts *any*
    /// member id, so `component_size(component_of(v)) == component_size(v)`;
    /// `None` if `c` has not appeared in the stream.
    pub fn component_size(&self, c: u64) -> Option<u64> {
        let d = self.dense(c)?;
        Some(u64::from(self.size[self.rep[d] as usize]))
    }

    /// `true` when both snapshots share the same underlying label arrays
    /// (i.e. one was republished from the other in O(1) because no batch in
    /// between changed the decomposition). Used by tests and benches to pin
    /// the quiet-republish fast path.
    pub fn shares_structure(&self, other: &ComponentSnapshot) -> bool {
        Arc::ptr_eq(&self.rep, &other.rep) && Arc::ptr_eq(&self.size, &other.size)
    }

    /// `true` when both snapshots share the vertex index (no new vertices
    /// between their builds).
    pub fn shares_index(&self, other: &ComponentSnapshot) -> bool {
        Arc::ptr_eq(&self.index, &other.index) && Arc::ptr_eq(&self.raw_of, &other.raw_of)
    }
}

/// The publication point between the ingest thread and the readers: an epoch
/// counter plus a mutex-guarded `Arc` slot (see the module docs for the
/// ordering argument).
#[derive(Debug)]
pub struct SnapshotCell {
    epoch: AtomicU64,
    slot: Mutex<Arc<ComponentSnapshot>>,
}

impl Default for SnapshotCell {
    fn default() -> Self {
        SnapshotCell::new()
    }
}

impl SnapshotCell {
    /// A cell holding the empty epoch-0 snapshot.
    pub fn new() -> Self {
        SnapshotCell {
            epoch: AtomicU64::new(0),
            slot: Mutex::new(Arc::new(ComponentSnapshot::empty())),
        }
    }

    /// The epoch of the current snapshot. One `Acquire` load — this is the
    /// only thing a reader pays per query in the steady state.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Publishes a snapshot, making it visible to all readers, and returns
    /// its epoch. Epochs must increase strictly — the engine derives them
    /// from its batch counter, which only moves forward.
    ///
    /// The slot is replaced under the lock *before* the epoch is bumped with
    /// `Release`: a reader that observes the new epoch (`Acquire`) and takes
    /// the lock is therefore guaranteed to find a snapshot at least that new
    /// in the slot.
    pub fn publish(&self, snapshot: ComponentSnapshot) -> u64 {
        let epoch = snapshot.epoch();
        let mut slot = self.slot.lock().expect("snapshot slot poisoned");
        debug_assert!(
            epoch > self.epoch.load(Ordering::Relaxed),
            "snapshot epochs must increase strictly ({} then {})",
            self.epoch.load(Ordering::Relaxed),
            epoch
        );
        *slot = Arc::new(snapshot);
        self.epoch.store(epoch, Ordering::Release);
        epoch
    }

    /// Clones the current snapshot `Arc` (takes the lock; readers only call
    /// this through [`SnapshotReader`] when the epoch moved).
    pub fn load(&self) -> Arc<ComponentSnapshot> {
        self.slot.lock().expect("snapshot slot poisoned").clone()
    }
}

/// A per-reader cached view of a [`SnapshotCell`]: revalidates with one
/// atomic load per query and re-clones the `Arc` only when the epoch moved.
#[derive(Debug)]
pub struct SnapshotReader {
    cached: Arc<ComponentSnapshot>,
}

impl SnapshotReader {
    /// A reader primed with the cell's current snapshot.
    pub fn new(cell: &SnapshotCell) -> Self {
        SnapshotReader {
            cached: cell.load(),
        }
    }

    /// The freshest snapshot the cell has published. Steady state: one
    /// `Acquire` load and no locking. An in-flight publish may serve the
    /// previous snapshot for one more query (the query linearizes before the
    /// publish); it can never serve a torn one.
    #[inline]
    pub fn current(&mut self, cell: &SnapshotCell) -> &ComponentSnapshot {
        if cell.epoch() != self.cached.epoch() {
            self.cached = cell.load();
        }
        &self.cached
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn singleton_snapshot(epoch: u64, raws: &[u64]) -> ComponentSnapshot {
        let index: IdMap<u64, u32> = raws
            .iter()
            .enumerate()
            .map(|(d, &r)| (r, d as u32))
            .collect();
        let n = raws.len();
        ComponentSnapshot::assemble(
            epoch,
            Arc::new(index),
            Arc::new(raws.to_vec()),
            Arc::new((0..n as u32).collect()),
            Arc::new(vec![1; n]),
            n,
            0,
            epoch,
            0,
        )
    }

    #[test]
    fn empty_snapshot_misses_everything() {
        let s = ComponentSnapshot::empty();
        assert_eq!(s.epoch(), 0);
        assert_eq!(s.same_component(0, 1), None);
        assert_eq!(s.component_of(0), None);
        assert_eq!(s.component_size(0), None);
    }

    #[test]
    fn cell_publish_and_reader_revalidation() {
        let cell = SnapshotCell::new();
        let mut reader = SnapshotReader::new(&cell);
        assert_eq!(reader.current(&cell).epoch(), 0);

        cell.publish(singleton_snapshot(1, &[10, 20]));
        let s = reader.current(&cell);
        assert_eq!(s.epoch(), 1);
        assert_eq!(s.same_component(10, 20), Some(false));
        assert_eq!(s.component_of(20), Some(20));
        assert_eq!(s.component_size(10), Some(1));
        assert_eq!(s.same_component(10, 99), None);

        // A stale reader serves its cache until the epoch moves, then
        // re-clones exactly once.
        cell.publish(singleton_snapshot(2, &[10, 20, 30]));
        assert_eq!(reader.current(&cell).epoch(), 2);
        assert_eq!(reader.current(&cell).num_vertices(), 3);
    }

    #[test]
    #[should_panic(expected = "increase strictly")]
    #[cfg(debug_assertions)]
    fn non_monotone_publish_is_rejected() {
        let cell = SnapshotCell::new();
        cell.publish(singleton_snapshot(2, &[1]));
        cell.publish(singleton_snapshot(1, &[1]));
    }

    #[test]
    fn concurrent_readers_always_see_a_coherent_epoch() {
        let cell = Arc::new(SnapshotCell::new());
        let stop = Arc::new(AtomicU64::new(0));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut reader = SnapshotReader::new(&cell);
                    let mut last = 0u64;
                    while stop.load(Ordering::Acquire) == 0 {
                        let s = reader.current(&cell);
                        // Epochs only move forward, and a snapshot's vertex
                        // count equals its epoch by construction below —
                        // a torn or stale-slot read would break either.
                        assert!(s.epoch() >= last);
                        assert_eq!(s.num_vertices() as u64, s.epoch());
                        last = s.epoch();
                    }
                })
            })
            .collect();
        for e in 1..=100u64 {
            let raws: Vec<u64> = (0..e).collect();
            cell.publish(singleton_snapshot(e, &raws));
        }
        stop.store(1, Ordering::Release);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(cell.epoch(), 100);
    }
}
