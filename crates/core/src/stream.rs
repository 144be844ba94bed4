//! Streaming ingestion: incremental maintenance of the component labelling
//! under batches of edge insertions and deletions.
//!
//! [`IncrementalComponents`] keeps the decomposition alive between batches,
//! with the classic fast-path/slow-path split of dynamic connectivity
//! (DESIGN.md §7 and §12 have the full account):
//!
//! * **Fast path** — a deterministic union–find pass over the current labels,
//!   modelling Liu–Tarjan's concurrent label-merging (*Simple Concurrent
//!   Labeling Algorithms for Connected Components*), charged `O(1)`
//!   simulated rounds. It is taken unless the batch is the first, merges two
//!   *standing* components (both existed before the batch began) or deletes
//!   the last copy of an edge (see deletions below).
//! * **Slow path** — an *escalation* ([`BatchPath::Recompute`]): a
//!   classification of the batch plus its charge of one round of `n` words.
//!   Inserts keep the union–find and the spanning forest exact, so an
//!   escalation rebuilds nothing; a cut in the batch goes through the same
//!   repair as on the repair path. This is Behnezhad et al.'s "work only
//!   when structure changes" (arXiv:1910.05385); the paper's Theorem 4
//!   stays the one-shot entry points' job and the differential suites'
//!   oracle.
//!
//! ## Deletions: a spanning forest certifies, the live pairs repair
//!
//! Batches may carry deletions ([`IncrementalComponents::apply_ops_batch`]
//! on `WCCS` op streams). The engine keeps the live edge multiset, not its
//! history: one map from each live normalized pair to its copies and a
//! forest flag. A deletion can only *split* its component, and two things
//! decide whether it did:
//!
//! * A **spanning forest of the live multiset**, the connectivity
//!   certificate: the link forest of Liu–Tarjan's labeling, which the fast
//!   path's union–find computes anyway (an insert whose union joins two sets
//!   flags its pair). Only deleting the last copy of a forest pair — a
//!   **cut** ([`BatchReport::forest_cuts`]) — can disconnect anything; a
//!   component that lost no forest edge is re-certified at no cost.
//! * A **scoped search** of the live pairs as the replacement-edge oracle.
//!   A component with `c` cuts is `c + 1` surviving trees. A union–find
//!   over its members, seeded with those trees and then fed every other live
//!   pair inside the component in sorted order, either re-links them (the
//!   pairs that join two sets join the forest) or leaves the exact split.
//!   The engine holds the live multiset exactly, so it needs no sketch of
//!   it: Proposition 8.1's AGM sketch (`wcc_sketch`) is for a coordinator
//!   that cannot hold a component's edges (Theorem 2, [`crate::sublinear`]),
//!   and on the paper's sparse inputs a member's sketch is thousands of
//!   words against a handful of adjacency.
//!
//! Such a batch reports [`BatchPath::SketchRepair`]. A batch that also
//! escalates runs the same repair and reports the escalation (with no
//! splits or re-certifications counted).
//!
//! **Charges.** The two exchanges every batch pays carry each edge's forest
//! flag, so a cut-free batch pays nothing more. The components a batch cut
//! are gathered at coordinators — on the repair path and on an escalation
//! alike: their live copies in (`2 · edges` words) and a label per member
//! back (`members` words), one round each. An escalation also pays one
//! round of `n` words (the labels back to every vertex).
//!
//! A batch deleting an edge with no live copy is refused whole before any
//! state changes. Replayed labels equal the exact components of the
//! surviving multiset, pinned against from-scratch pipeline runs by
//! `tests/streaming_differential.rs` and `tests/dynamic_differential.rs`.

use std::collections::hash_map::Entry;
use std::sync::Arc;

use crate::regularize::CoreError;
use crate::serve::snapshot::ComponentSnapshot;

use wcc_graph::io::{EdgeOp, OpKind};
use wcc_graph::{ComponentLabels, Graph, IdMap, IdSet, UnionFind};
use wcc_mpc::{MpcConfig, MpcContext, RoundStats};

/// Tunables of the streaming engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamParams {
    /// Worker threads of the engine's simulated cluster (`1` = sequential
    /// backend, `0` = resolve from `WCC_THREADS`, whose own `0` means one
    /// worker per available CPU).
    pub threads: usize,
    /// Not read by the engine, which repairs cuts from the live pairs (see
    /// the module docs). The benchmark package's standalone sketch probe
    /// still sizes its sketch from it, so it stays until that probe takes
    /// its own constant.
    pub sketch_phases: usize,
}

impl StreamParams {
    /// The defaults every caller uses: threads from `WCC_THREADS` (and the
    /// unread `sketch_phases` at 26).
    pub fn laptop_scale() -> Self {
        StreamParams {
            threads: 0,
            sketch_phases: 26,
        }
    }

    /// Returns a copy using the given number of worker threads (see
    /// [`StreamParams::threads`]).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// Why a batch escalated to the slow path. An escalation is a
/// classification plus its `n`-word charge: the union–find already holds
/// the partition, and a cut goes through the repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecomputeReason {
    /// The first non-empty batch.
    Bootstrap,
    /// The batch merged two standing components (components that both
    /// existed before the batch began).
    StandingMerge,
}

/// Which path a batch took through the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchPath {
    /// Union–find label maintenance only.
    FastPath,
    /// Component-local re-certify-or-split of the components touched by
    /// structural deletions — by the spanning forest where it lost no edge,
    /// by a scoped search of the live pairs where it was cut. The name (and
    /// the `"sketch-repair"` label) is the turnstile sketch's, which did the
    /// search before; the benchmark package still reads both.
    SketchRepair,
    /// Escalation: the batch is charged one round of `n` words on top of
    /// what it would otherwise pay. Partition and forest are the union–find's
    /// and the repair's, as on the other paths.
    Recompute(RecomputeReason),
}

impl BatchPath {
    /// `true` for [`BatchPath::FastPath`].
    pub fn is_fast(&self) -> bool {
        matches!(self, BatchPath::FastPath)
    }

    /// A short machine-readable label (used by `wcc stream --json`).
    pub fn label(&self) -> &'static str {
        match self {
            BatchPath::FastPath => "fast-path",
            BatchPath::SketchRepair => "sketch-repair",
            BatchPath::Recompute(RecomputeReason::Bootstrap) => "recompute:bootstrap",
            BatchPath::Recompute(RecomputeReason::StandingMerge) => "recompute:standing-merge",
        }
    }
}

/// What one batch did and what it was charged, in the same shape `wcc
/// --json` reports run-level quantities (rounds, words).
///
/// The per-batch counts are `u32`: a batch that would push the live edges
/// or the vertex ids past `u32::MAX` is refused, and every count is bounded
/// by one of the two. A caller that keeps a stream's reports (`wcc stream`
/// keeps them all) keeps 64 bytes per batch, so what the caller already
/// knows stays with the caller: the batch's index is
/// [`IncrementalComponents::batches_applied`] before the call, and its
/// wall time is the caller's to take.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// Ops contained in the batch (insertions + deletions, including
    /// duplicates and self-loops).
    pub edges_in_batch: usize,
    /// Edge insertions in the batch.
    pub insertions: u32,
    /// Edge deletions in the batch.
    pub deletions: u32,
    /// Vertex ids seen for the first time in this batch.
    pub new_vertices: u32,
    /// Unions that joined two standing components (any non-zero count
    /// escalates).
    pub standing_merges: u32,
    /// Components minted by repair splits in this batch (a component
    /// splitting into `k` parts counts `k − 1`).
    pub splits: u32,
    /// Deletion-touched components re-certified as still connected in this
    /// batch. Those that lost no forest edge — all of them when
    /// `forest_cuts` is zero — are certified by the spanning forest itself,
    /// for free; the others by the scoped search re-linking the cut pieces.
    /// (Named for the sketch that did that search before; the benchmark
    /// package still reads the name.)
    pub sketch_recertifies: u32,
    /// Forest edges whose last live copy this batch deleted (cuts). Only a
    /// component with a cut is searched.
    pub forest_cuts: u32,
    /// The path the batch took.
    pub path: BatchPath,
    /// Components after the batch.
    pub components_after: usize,
    /// Simulated MPC rounds charged by this batch: the two exchanges every
    /// batch pays, plus the repair or escalation it ran (see the module
    /// docs' charges).
    pub rounds: u64,
    /// Words of simulated communication charged by this batch.
    pub communication_words: u64,
}

/// The streaming engine: see the module docs for the fast/slow path
/// contract.
#[derive(Debug, Clone)]
pub struct IncrementalComponents {
    params: StreamParams,
    /// Raw (external) vertex id → dense id. The snapshot index has its type:
    /// a build from nothing copies the table, later builds add the arrivals.
    interner: IdMap<u64, u32>,
    /// `original_ids[dense] = raw`, in order of first appearance.
    original_ids: Vec<u64>,
    /// The live edge multiset: every normalized dense endpoint pair with a
    /// live copy. A pair whose last copy is deleted leaves the map, so its
    /// length is the number of live distinct pairs.
    live: IdMap<(u32, u32), LivePair>,
    /// Live copies summed over `live`.
    live_edges: usize,
    /// Cumulative components minted by repair splits.
    splits_total: usize,
    /// Cumulative re-certifications (by the forest or the scoped search).
    sketch_recertifies_total: usize,
    /// The maintained labelling.
    uf: UnionFind,
    /// Smallest dense id in each set (valid at roots) — the "how old is this
    /// component" tag the standing-merge test reads.
    oldest: Vec<u32>,
    /// The accounting context charged by every path. Replaced at an
    /// escalation (and absorbed into `prior_stats`) when the grown input
    /// outsizes its cluster.
    ctx: MpcContext,
    /// Statistics of retired contexts.
    prior_stats: RoundStats,
    batches_applied: usize,
    recomputes: usize,
    bootstrapped: bool,
    /// Cached `Arc`-shared parts of the last built snapshot, so quiet
    /// batches republish in O(1) (see [`IncrementalComponents::snapshot`]).
    snap_cache: Option<SnapCache>,
    /// The parts the cache held before the last rebuild: the next rebuild
    /// extends whichever of them no reader holds any more past what changed
    /// since they were built (see [`IncrementalComponents::snapshot`]).
    snap_retired: Option<SnapCache>,
    /// The lowest dense id whose component name (its oldest member) may have
    /// changed since the cache was built: `u32::MAX` when none may have, `0`
    /// before the first build and after a split. A union renames only the
    /// younger set, whose members all sit at or above its oldest id;
    /// arrivals are not marked (they sit past the cached arrays).
    snap_rep_low: u32,
}

/// One live pair of the multiset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LivePair {
    /// Live copies, at least one.
    copies: u32,
    /// The pair is an edge of the maintained spanning forest (exact between
    /// batches; inside one a cut leaves its tree in two pieces).
    forest: bool,
}

/// Refuses a batch that would push a `u32`-bounded count past `u32::MAX`:
/// the live edges (which bound every pair's `copies`) or the vertex ids (the
/// interner and `live` index by them). `adding` may be an upper bound.
fn check_u32_room(what: &str, count: usize, adding: usize) -> Result<(), CoreError> {
    match count.checked_add(adding) {
        Some(total) if total <= u32::MAX as usize => Ok(()),
        _ => Err(CoreError::BadParams(format!(
            "stream: more than {} {what} ({count} + up to {adding} in this batch)",
            u32::MAX
        ))),
    }
}

/// The `Arc`-shared payloads of the last snapshot build — see
/// [`IncrementalComponents::snapshot`] for the reuse contract.
#[derive(Debug, Clone)]
struct SnapCache {
    index: Arc<IdMap<u64, u32>>,
    raw_of: Arc<Vec<u64>>,
    rep: Arc<Vec<u32>>,
    size: Arc<Vec<u32>>,
    num_components: usize,
    /// The mark this build consumed: the lowest dense id renamed between
    /// the build before it and this one.
    rep_low: u32,
}

/// `retired` when nothing else shares it, so its allocation and contents can
/// be extended in place ([`Arc::get_mut`] succeeds on the result); a fresh
/// default (empty) value otherwise.
fn reclaim<T: Default>(retired: Option<Arc<T>>) -> Arc<T> {
    let mut arc = retired.unwrap_or_default();
    if Arc::get_mut(&mut arc).is_none() {
        arc = Arc::default();
    }
    arc
}

const RECLAIMED: &str = "unshared: reclaimed or just made";

impl IncrementalComponents {
    /// Creates an empty engine. The first non-empty batch escalates as the
    /// bootstrap, which sizes the simulated cluster for the input. The
    /// engine draws no randomness, so `seed` changes nothing; callers that
    /// seed every entry point pass one alike.
    pub fn new(params: StreamParams, _seed: u64) -> Self {
        // A placeholder cluster for the bootstrap batch's charges; the
        // bootstrap's escalation resizes it for the real input.
        let config = MpcConfig::with_memory(1024, 64)
            .permissive()
            .with_threads(params.threads);
        IncrementalComponents {
            params,
            interner: IdMap::default(),
            original_ids: Vec::new(),
            live: IdMap::default(),
            live_edges: 0,
            splits_total: 0,
            sketch_recertifies_total: 0,
            uf: UnionFind::new(0),
            oldest: Vec::new(),
            ctx: MpcContext::new(config),
            prior_stats: RoundStats::default(),
            batches_applied: 0,
            recomputes: 0,
            bootstrapped: false,
            snap_cache: None,
            snap_retired: None,
            snap_rep_low: 0,
        }
    }

    /// Rejects any delete op that would over-delete: at its position in the
    /// batch there must be a live copy of the edge, counting the batch's own
    /// earlier inserts/deletes (prefix semantics). Counts first
    /// ([`deletions_fit`](Self::deletions_fit)); only a batch that count
    /// cannot clear pays for the exact prefix replay, which alone names the
    /// offending op.
    fn validate_deletions(&self, batch: &[EdgeOp], deletions: usize) -> Result<(), CoreError> {
        if self.deletions_fit(batch, deletions) {
            return Ok(());
        }
        // Running per-pair delta over the batch prefix, on raw-id pairs.
        let mut delta: IdMap<(u64, u64), i64> = IdMap::default();
        for op in batch {
            let key = (op.u.min(op.v), op.u.max(op.v));
            let d = delta.entry(key).or_insert(0);
            match op.kind {
                OpKind::Insert => *d += 1,
                OpKind::Delete => {
                    *d -= 1;
                    if *d < 0 && self.live_copies(op.u, op.v) as i64 + *d < 0 {
                        return Err(CoreError::BadParams(format!(
                            "stream: deletion of edge ({}, {}) with no live copy \
                             (never inserted, or already deleted)",
                            op.u, op.v
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Whether every pair the batch deletes has at least as many live
    /// copies as the batch deletes of it (`deletions` of them in all). Then
    /// no prefix can over-delete, whatever the batch inserts, so the batch
    /// is valid; `false` says nothing either way.
    fn deletions_fit(&self, batch: &[EdgeOp], deletions: usize) -> bool {
        let mut deleted: IdMap<(u64, u64), usize> =
            IdMap::with_capacity_and_hasher(deletions, Default::default());
        for op in batch.iter().filter(|op| op.kind == OpKind::Delete) {
            *deleted.entry((op.u.min(op.v), op.u.max(op.v))).or_insert(0) += 1;
        }
        deleted
            .iter()
            .all(|(&(a, b), &count)| self.live_copies(a, b) >= count)
    }

    /// Live copies of the raw edge `{a, b}` in the standing multiset.
    fn live_copies(&self, a: u64, b: u64) -> usize {
        let (Some(&u), Some(&v)) = (self.interner.get(&a), self.interner.get(&b)) else {
            return 0;
        };
        let key = (u.min(v), u.max(v));
        self.live.get(&key).map_or(0, |pair| pair.copies as usize)
    }

    /// Applies one op batch (insertions and deletions on raw `u64` vertex
    /// ids, as decoded from a `WCCS` chunk) and reports which path it took and
    /// what it cost. An insert-only batch is [`EdgeOp::inserts`] of its edges.
    ///
    /// # Errors
    ///
    /// The whole batch is validated **before any state changes**, so a batch
    /// rejected for one of these three reasons leaves the engine exactly as
    /// it was (each is a [`CoreError::BadParams`]):
    ///
    /// * a deletion with no live copy to remove — an edge never inserted, or
    ///   already deleted, accounting for earlier ops *in the same batch*;
    /// * inserts that would push the live edges past `u32::MAX`;
    /// * arrivals that would push the distinct vertex ids past `u32::MAX`.
    ///
    /// A batch that passes validation is applied in full.
    pub fn apply_ops_batch(&mut self, batch: &[EdgeOp]) -> Result<BatchReport, CoreError> {
        // Whole-batch pre-validation: nothing is touched until every check
        // passes.
        let len = batch.len();
        let inserts = batch.iter().filter(|op| op.kind == OpKind::Insert).count();
        if inserts < len {
            self.validate_deletions(batch, len - inserts)?;
        }
        check_u32_room("live edges", self.live_edges, inserts)?;
        // Every insert brings at most two new ids; only a batch that fails
        // this cheap bound pays for the exact count of unseen ones.
        let n = self.original_ids.len();
        if check_u32_room("vertex ids", n, inserts.saturating_mul(2)).is_err() {
            let unseen: IdSet<u64> = batch
                .iter()
                .filter(|op| op.kind == OpKind::Insert)
                .flat_map(|op| [op.u, op.v])
                .filter(|raw| !self.interner.contains_key(raw))
                .collect();
            check_u32_room("vertex ids", n, unseen.len())?;
        }

        let rounds_before = self.total_rounds();
        let words_before = self.total_communication_words();
        self.batches_applied += 1;

        let bootstrap = !self.bootstrapped && len > 0;
        let n0 = n as u32;

        self.ctx.begin_phase("stream-ingest");
        // Fast-path cost model (Liu–Tarjan concurrent labeling): one round
        // routing every op to its endpoints' label holders (two words per
        // op), one round of merge responses (one word per op). A repair and
        // an escalation charge their own work on top.
        self.ctx.charge_shuffle(2 * len);
        self.ctx.charge_shuffle(len);
        let _ = self.ctx.record_balanced_load(2 * len);

        let mut new_vertices = 0usize;
        let mut insertions = 0usize;
        let mut deletions = 0usize;
        let mut standing_merges = 0usize;
        // Vertices whose component lost the last live copy of an edge this
        // batch (its component is re-certified or split at the end of the
        // batch), and those of them whose edge was a forest edge: a cut.
        let mut dirty: Vec<u32> = Vec::new();
        let mut cut: Vec<u32> = Vec::new();

        for op in batch {
            match op.kind {
                OpKind::Insert => {
                    insertions += 1;
                    let u = self.intern(op.u, &mut new_vertices) as usize;
                    let v = self.intern(op.v, &mut new_vertices) as usize;
                    self.live_edges += 1;
                    let key = (u.min(v) as u32, u.max(v) as u32);
                    let (ru, rv) = (self.uf.find(u), self.uf.find(v));
                    let pair = self.live.entry(key).or_insert(LivePair {
                        copies: 0,
                        forest: false,
                    });
                    pair.copies += 1;
                    // A union that joins two sets joins two trees: the link
                    // forest of Liu–Tarjan. (A pair with a live copy already
                    // lies inside one set, so only a new pair can join.)
                    pair.forest |= ru != rv;
                    if ru != rv {
                        // Classify the union *before* the roots are
                        // destroyed: a merge of two standing components
                        // escalates.
                        if self.oldest[ru] < n0 && self.oldest[rv] < n0 {
                            standing_merges += 1;
                        }
                        let (a, b) = (self.oldest[ru], self.oldest[rv]);
                        // The set whose oldest member is younger takes the
                        // other's name; its members all sit at or above it.
                        self.snap_rep_low = self.snap_rep_low.min(a.max(b));
                        self.uf.union(ru, rv);
                        let r = self.uf.find(ru);
                        self.oldest[r] = a.min(b);
                    }
                }
                OpKind::Delete => {
                    deletions += 1;
                    // Both lookups succeed: `validate_deletions` guaranteed a
                    // live copy exists at this prefix position.
                    let u = self.interner[&op.u] as usize;
                    let v = self.interner[&op.v] as usize;
                    let key = (u.min(v) as u32, u.max(v) as u32);
                    let Entry::Occupied(mut pair) = self.live.entry(key) else {
                        unreachable!("validated: live copy exists");
                    };
                    pair.get_mut().copies -= 1;
                    let last_copy = pair.get().copies == 0;
                    let forest = last_copy && pair.remove().forest;
                    self.live_edges -= 1;

                    if u != v && last_copy {
                        // Structural: no surviving parallel copy keeps the
                        // endpoints adjacent. Only if the pair was a forest
                        // edge can the component have split.
                        dirty.push(u as u32);
                        if forest {
                            cut.push(u as u32);
                        }
                    }
                }
            }
        }

        let (mut splits, mut recertifies) = (0, 0);
        let path = if bootstrap {
            BatchPath::Recompute(RecomputeReason::Bootstrap)
        } else if standing_merges > 0 {
            BatchPath::Recompute(RecomputeReason::StandingMerge)
        } else if !dirty.is_empty() {
            BatchPath::SketchRepair
        } else {
            BatchPath::FastPath
        };
        match path {
            BatchPath::FastPath => {}
            BatchPath::SketchRepair => {
                (splits, recertifies) = self.repair(&dirty, &cut);
                self.splits_total += splits;
                self.sketch_recertifies_total += recertifies;
            }
            BatchPath::Recompute(_) => self.recompute(&dirty, &cut),
        }
        self.ctx.end_phase();

        // Every count is bounded by the live edges or the vertex ids, whose
        // room was checked above.
        let count = |n: usize| u32::try_from(n).expect("bounded by the u32 room checks");
        Ok(BatchReport {
            edges_in_batch: len,
            insertions: count(insertions),
            deletions: count(deletions),
            new_vertices: count(new_vertices),
            standing_merges: count(standing_merges),
            splits: count(splits),
            sketch_recertifies: count(recertifies),
            forest_cuts: count(cut.len()),
            path,
            components_after: self.uf.num_sets(),
            rounds: self.total_rounds() - rounds_before,
            communication_words: self.total_communication_words() - words_before,
        })
    }

    /// Re-certify-or-split every component touched by a structural deletion
    /// (`dirty`: one endpoint per last-copy deletion; `cut`: those whose pair
    /// was a forest edge), returning `(splits, recertifies)`.
    ///
    /// A touched component that lost no forest edge is still spanned by its
    /// tree: certified connected with no member scan and no charge. A
    /// component with `c` cuts is `c + 1` trees, and the scoped search is
    /// Kruskal from them: a union–find over its members is seeded with its
    /// surviving forest pairs (each joins two sets, as a forest's edges
    /// must), then takes every other live non-loop pair inside it in sorted
    /// `(u, v)` order. A pair whose union joins two sets becomes a forest
    /// link, and the sets left are the component's exact parts.
    ///
    /// Soundness of searching one maintained component alone: the
    /// maintained partition is always *over-coarse* (never splits a true
    /// component across two maintained ones), so every live pair at a
    /// member lies inside the member's component.
    fn repair(&mut self, dirty: &[u32], cut: &[u32]) -> (usize, usize) {
        let touched = self.roots_of(dirty).len();
        let roots = self.roots_of(cut);
        let mut recertifies = touched - roots.len();
        if roots.is_empty() {
            return (0, recertifies);
        }
        let slot_of_root = self.gather_cut(&roots);

        // The cut components are disjoint, so one union–find searches them
        // all; every other vertex stays a singleton in it.
        let n = self.original_ids.len();
        let uf = &mut self.uf;
        let mut pairs: Vec<((u32, u32), &mut LivePair)> = self
            .live
            .iter_mut()
            .filter(|&(&(u, v), _)| u != v && slot_of_root[uf.find(u as usize)] != usize::MAX)
            .map(|(&key, pair)| (key, pair))
            .collect();
        // Any order of the forest pairs joins them all, but `live` iterates
        // in a per-process hash order: sorting them too keeps the roots —
        // after a split, the labelling's — a function of the schedule.
        pairs.sort_unstable_by_key(|(key, pair)| (!pair.forest, *key));
        let mut scoped = UnionFind::new(n);
        for ((u, v), pair) in pairs {
            pair.forest |= scoped.union(u as usize, v as usize);
        }

        // A part's union–find root is one of its members.
        let mut parts = vec![0usize; roots.len()];
        for v in 0..n {
            let slot = slot_of_root[self.uf.find(v)];
            if slot != usize::MAX && scoped.find(v) == v {
                parts[slot] += 1;
            }
        }
        let mut splits = 0;
        for &count in &parts {
            if count == 1 {
                recertifies += 1;
            } else {
                splits += count - 1;
            }
        }
        if splits > 0 {
            // A union–find cannot split, so the scoped one becomes the
            // labelling, with every component that had no cut joined back
            // into it wholesale.
            for v in 0..n {
                let r = self.uf.find(v);
                if slot_of_root[r] == usize::MAX {
                    scoped.union(r, v);
                }
            }
            self.uf = scoped;
            // Split-off parts mint fresh component ids through the
            // snapshot's oldest-member rule; the part keeping the old oldest
            // member keeps the old id.
            self.refresh_oldest();
            self.snap_rep_low = 0;
        }
        (splits, recertifies)
    }

    /// The distinct union–find roots of `vertices`, sorted.
    fn roots_of(&mut self, vertices: &[u32]) -> Vec<usize> {
        let mut roots: Vec<usize> = vertices.iter().map(|&v| self.uf.find(v as usize)).collect();
        roots.sort_unstable();
        roots.dedup();
        roots
    }

    /// Gathers the components with the given `roots` (the ones a batch cut)
    /// at coordinators, charging the exchange: every live copy inside them
    /// in (`2 · edges` words) and a label per member back (`members` words),
    /// one round each. Returns each root's index in `roots`, by root
    /// (`usize::MAX` for every other vertex).
    fn gather_cut(&mut self, roots: &[usize]) -> Vec<usize> {
        let mut slot_of_root = vec![usize::MAX; self.original_ids.len()];
        let mut members = 0;
        for (slot, &r) in roots.iter().enumerate() {
            slot_of_root[r] = slot;
            members += self.uf.set_size(r);
        }
        let uf = &mut self.uf;
        let edges: usize = self
            .live
            .iter()
            .filter(|&(&(u, _), _)| slot_of_root[uf.find(u as usize)] != usize::MAX)
            .map(|(_, pair)| pair.copies as usize)
            .sum();
        self.ctx.charge_shuffle(2 * edges);
        self.ctx.charge_shuffle(members);
        slot_of_root
    }

    /// Applies a whole op schedule in order, returning one report per batch.
    ///
    /// # Errors
    ///
    /// See [`IncrementalComponents::apply_ops_batch`]; the first failing
    /// batch aborts the replay.
    pub fn apply_ops_schedule<C: AsRef<[EdgeOp]>>(
        &mut self,
        batches: &[C],
    ) -> Result<Vec<BatchReport>, CoreError> {
        batches
            .iter()
            .map(|batch| self.apply_ops_batch(batch.as_ref()))
            .collect()
    }

    /// Dense id of `raw`, minting the next one for an id never seen. Cannot
    /// run out of `u32`s: `apply_ops_batch` refused the batch up front
    /// ([`check_u32_room`]) if its arrivals would not fit.
    fn intern(&mut self, raw: u64, new_vertices: &mut usize) -> u32 {
        let id = self.original_ids.len();
        debug_assert!(id < u32::MAX as usize, "vertex room is pre-validated");
        match self.interner.entry(raw) {
            Entry::Occupied(known) => return *known.get(),
            Entry::Vacant(slot) => _ = slot.insert(id as u32),
        }
        self.original_ids.push(raw);
        self.oldest.push(id as u32);
        let pushed = self.uf.push();
        debug_assert_eq!(pushed, id);
        *new_vertices += 1;
        id as u32
    }

    /// Slow path: charge the escalation, resizing the simulated cluster
    /// first when the live input outgrew it. The union–find already holds
    /// the batch's partition; a batch with a cut runs the
    /// [`repair`](Self::repair) (`dirty` and `cut` as there), whose split and
    /// re-certification counts an escalated batch does not report.
    fn recompute(&mut self, dirty: &[u32], cut: &[u32]) {
        let n = self.original_ids.len();
        // Resize the simulated cluster when the live input outsizes it; the
        // retired context's statistics stay in the cumulative record, and
        // the batch's phase goes on in the new context.
        let want = MpcConfig::for_input_size(2 * self.live_edges + n, 0.5)
            .permissive()
            .with_threads(self.params.threads);
        let have = self.ctx.config();
        if want.memory_per_machine > have.memory_per_machine
            || want.num_machines > have.num_machines
        {
            let retired = std::mem::replace(&mut self.ctx, MpcContext::new(want));
            self.prior_stats.absorb(retired.into_stats());
            self.ctx.begin_phase("stream-ingest");
        }
        // The labels go back to every vertex.
        self.ctx.charge_shuffle(n);
        if !cut.is_empty() {
            self.repair(dirty, cut);
        }
        self.recomputes += 1;
        self.bootstrapped = true;
    }

    /// Re-derives the oldest-member tags over a rebuilt union–find: each
    /// root gets its set's smallest dense id (the last one written, going
    /// down).
    fn refresh_oldest(&mut self) {
        for v in (0..self.oldest.len()).rev() {
            let r = self.uf.find(v);
            self.oldest[r] = v as u32;
        }
    }

    /// Builds a publishable [`ComponentSnapshot`] of the current
    /// decomposition, stamped with `epoch` (callers use the number of
    /// batches applied — see `wcc serve` — so epochs strictly increase).
    ///
    /// Publication costs O(what changed since the build before last): the
    /// vertices that arrived since, plus the vertices at or above the
    /// rename mark of either interval.
    ///
    /// * **Quiet.** No vertex arrived and no component was renamed since the
    ///   last build (only duplicate or intra-component edges came): the
    ///   cached `Arc`s are republished in O(1).
    /// * **Otherwise** the arrays go into the allocations they had two builds
    ///   ago when no reader holds those any more, and are extended rather
    ///   than rewritten. The vertex index and `raw_of` are append-only, so
    ///   only the ids that arrived since are added; with no arrival the
    ///   current index is shared. `rep` keeps its prefix below the rename
    ///   marks of both intervals and recomputes the suffix; `size` is
    ///   assigned each suffix vertex's set size at its component's name,
    ///   exact because every component whose size changed has a member in
    ///   the suffix.
    ///
    /// A full rebuild is the same pass with nothing reusable: the first
    /// build, a retired buffer a reader still holds, or a mark at 0 (after a
    /// split, on either path): the suffix then starts at 0, and an index
    /// with nothing to extend is one copy of the interner. Steady publishing
    /// neither allocates nor leaves readers to free what the writer
    /// allocated.
    pub fn snapshot(&mut self, epoch: u64) -> ComponentSnapshot {
        let n = self.original_ids.len();
        let arrived = self.snap_cache.as_ref().is_none_or(|c| c.raw_of.len() != n);
        if arrived || self.snap_rep_low != u32::MAX {
            let (index, raw_of, rep, size) = self
                .snap_retired
                .take()
                .map_or((None, None, None, None), |c| {
                    (Some(c.index), Some(c.raw_of), Some(c.rep), Some(c.size))
                });
            let (index, raw_of) = match &self.snap_cache {
                Some(cache) if !arrived => (Arc::clone(&cache.index), Arc::clone(&cache.raw_of)),
                _ => {
                    let (mut index, mut raw_of) = (reclaim(index), reclaim(raw_of));
                    let map = Arc::get_mut(&mut index).expect(RECLAIMED);
                    if map.is_empty() {
                        map.clone_from(&self.interner);
                    } else {
                        let known = map.len();
                        map.extend(
                            self.original_ids[known..]
                                .iter()
                                .copied()
                                .zip(known as u32..),
                        );
                    }
                    let ids = Arc::get_mut(&mut raw_of).expect(RECLAIMED);
                    ids.extend_from_slice(&self.original_ids[ids.len()..]);
                    (index, raw_of)
                }
            };
            let (mut rep, mut size) = (reclaim(rep), reclaim(size));
            let (names, sizes) = (
                Arc::get_mut(&mut rep).expect(RECLAIMED),
                Arc::get_mut(&mut size).expect(RECLAIMED),
            );
            // The retired arrays are two builds old: valid below their
            // length and below the marks of both intervals since.
            let prior_low = self.snap_cache.as_ref().map_or(0, |c| c.rep_low);
            let start = (prior_low.min(self.snap_rep_low) as usize)
                .min(names.len())
                .min(sizes.len());
            names.truncate(start);
            sizes.resize(n, 0);
            for v in start..n {
                let r = self.uf.find(v);
                // `oldest` is valid at roots; the oldest member's dense id
                // doubles as the component's stable name.
                let name = self.oldest[r];
                names.push(name);
                sizes[name as usize] = self.uf.set_size(r) as u32;
            }
            self.snap_retired = self.snap_cache.replace(SnapCache {
                index,
                raw_of,
                rep,
                size,
                num_components: self.uf.num_sets(),
                rep_low: self.snap_rep_low,
            });
            self.snap_rep_low = u32::MAX;
        }
        let cache = self.snap_cache.as_ref().expect("just built");
        ComponentSnapshot::assemble(
            epoch,
            Arc::clone(&cache.index),
            Arc::clone(&cache.raw_of),
            Arc::clone(&cache.rep),
            Arc::clone(&cache.size),
            cache.num_components,
            self.live_edges as u64,
            self.batches_applied as u64,
            self.recomputes as u64,
        )
    }

    /// The current labelling, canonicalised in dense-id (arrival) order.
    /// Bit-identical for a fixed seed and schedule regardless of the thread
    /// count.
    pub fn labels(&self) -> ComponentLabels {
        self.uf.clone().into_labels()
    }

    /// `original_ids()[dense] = raw`: the raw id each dense vertex id (the
    /// index space of [`IncrementalComponents::labels`]) arrived as.
    pub fn original_ids(&self) -> &[u64] {
        &self.original_ids
    }

    /// Projects the labelling onto the vertex universe `0..n`, reading each
    /// raw id as a vertex index: `result.label(v)` is the component of the
    /// vertex that arrived as raw id `v`, and ids the stream never saw get
    /// fresh singleton labels after the real ones — exactly the labelling a
    /// from-scratch run on the final graph (isolated vertices included)
    /// would produce, up to label renaming. This is how the differential
    /// suite compares a replay against the one-shot pipeline.
    ///
    /// # Panics
    ///
    /// Panics if a seen raw id is `>= n` (the stream does not fit the
    /// claimed universe).
    pub fn labels_for_universe(&self, n: usize) -> ComponentLabels {
        let labels = self.labels();
        let mut raw = vec![usize::MAX; n];
        for (dense, &orig) in self.original_ids.iter().enumerate() {
            assert!(
                (orig as usize) < n,
                "raw id {orig} outside the universe 0..{n}"
            );
            raw[orig as usize] = labels.label(dense);
        }
        let mut next = labels.num_components();
        for slot in raw.iter_mut() {
            if *slot == usize::MAX {
                *slot = next;
                next += 1;
            }
        }
        ComponentLabels::from_raw_labels(&raw)
    }

    /// Number of components currently maintained.
    pub fn num_components(&self) -> usize {
        self.uf.num_sets()
    }

    /// Number of distinct vertices seen so far.
    pub fn num_vertices(&self) -> usize {
        self.original_ids.len()
    }

    /// Number of live (surviving) edges: inserted and not deleted.
    /// Duplicates and self-loops count.
    pub fn num_edges(&self) -> usize {
        self.live_edges
    }

    /// Number of batches applied so far.
    pub fn batches_applied(&self) -> usize {
        self.batches_applied
    }

    /// Number of slow-path recomputes performed so far.
    pub fn recomputes(&self) -> usize {
        self.recomputes
    }

    /// Cumulative components minted by repair splits.
    pub fn splits(&self) -> usize {
        self.splits_total
    }

    /// Cumulative deletion-touched components re-certified as still
    /// connected (see [`BatchReport::sketch_recertifies`]).
    pub fn sketch_recertifies(&self) -> usize {
        self.sketch_recertifies_total
    }

    /// Always `false`: no sketch backs the engine (cuts are repaired from
    /// the live pairs). It stays until the benchmark package, which still
    /// reads it, stops doing so.
    pub fn sketch_active(&self) -> bool {
        false
    }

    /// Materialises the surviving (live-edge) graph on the dense vertex set:
    /// the live pairs `(u, v)`, `u <= v`, in sorted order, each repeated once
    /// per copy — a function of the live multiset alone.
    pub fn current_graph(&self) -> Graph {
        let mut pairs: Vec<_> = self.live.iter().collect();
        pairs.sort_unstable_by_key(|&(&key, _)| key);
        Graph::from_edges_unchecked(
            self.original_ids.len(),
            pairs.into_iter().flat_map(|(&(u, v), pair)| {
                std::iter::repeat_n((u as usize, v as usize), pair.copies as usize)
            }),
        )
    }

    /// The maintained spanning forest of the live edge multiset as sorted
    /// dense-id pairs `(u, v)`, `u < v` (the vertex numbering of
    /// [`current_graph`](Self::current_graph)), exact after every batch.
    pub fn spanning_forest(&self) -> Vec<(u32, u32)> {
        let mut forest: Vec<(u32, u32)> = self
            .live
            .iter()
            .filter_map(|(&key, pair)| pair.forest.then_some(key))
            .collect();
        forest.sort_unstable();
        forest
    }

    /// Cumulative simulated-resource statistics across every batch and
    /// recompute so far (model quantities only are compared by `Eq` — see
    /// [`wcc_mpc::PhaseStats`]).
    pub fn stats(&self) -> RoundStats {
        let mut total = self.prior_stats.clone();
        total.absorb(self.ctx.stats().clone());
        total
    }

    fn total_rounds(&self) -> u64 {
        self.prior_stats.total_rounds() + self.ctx.stats().total_rounds()
    }

    fn total_communication_words(&self) -> u64 {
        self.prior_stats.total_communication_words() + self.ctx.stats().total_communication_words()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    /// Whether [`check_u32_room`] lets `count + adding` through; it refuses
    /// with `BadParams`.
    fn u32_room(count: usize, adding: usize) -> bool {
        let checked = check_u32_room("things", count, adding);
        assert!(matches!(checked, Ok(()) | Err(CoreError::BadParams(_))));
        checked.is_ok()
    }

    #[test]
    fn live_edge_room_is_checked_at_the_u32_boundary() {
        let max = u32::MAX as usize;
        assert!(u32_room(0, 0) && u32_room(max - 5, 5) && u32_room(max, 0));
        for (live, inserts) in [(max - 5, 6), (max, 1), (0, max + 1), (usize::MAX, 1)] {
            assert!(
                !u32_room(live, inserts),
                "{live} + {inserts} must be refused"
            );
        }
    }

    #[test]
    fn vertex_room_is_checked_at_the_u32_boundary() {
        let max = u32::MAX as usize;
        // Totals of u32::MAX − 1 and u32::MAX distinct ids fit; one more does
        // not, and neither does an overflowing sum.
        assert!(u32_room(0, 0) && u32_room(max - 3, 2) && u32_room(max - 3, 3));
        assert!(u32_room(max, 0));
        for (vertices, arrivals) in [(max - 3, 4), (max, 1), (0, max + 1), (1, usize::MAX)] {
            assert!(
                !u32_room(vertices, arrivals),
                "{vertices} + {arrivals} must be refused"
            );
        }
    }

    /// The per-batch counts are `u32` (the room checks above bound them)
    /// and the index and wall time are the caller's, so a kept report costs
    /// what the type's docs say.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_batch_report_is_64_bytes() {
        assert_eq!(std::mem::size_of::<BatchReport>(), 64);
    }

    /// A live pair is its copies and its forest flag: the map holds 8 bytes
    /// of value per live distinct pair.
    #[test]
    fn a_live_pair_is_8_bytes() {
        assert_eq!(std::mem::size_of::<LivePair>(), 8);
    }

    use proptest::prelude::*;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use wcc_graph::prelude::*;

    fn params() -> StreamParams {
        StreamParams::laptop_scale()
    }

    /// One batch per `sizes` entry, raw ids shifted so batches are disjoint
    /// expander components.
    fn expander_batches(sizes: &[usize], degree: usize, seed: u64) -> Vec<Vec<EdgeOp>> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut batches = Vec::new();
        let mut shift = 0u64;
        for &s in sizes {
            let g = generators::random_regular_permutation_graph(s, degree, &mut rng);
            batches.push(
                g.edge_iter()
                    .map(|(u, v)| EdgeOp::insert(u as u64 + shift, v as u64 + shift))
                    .collect(),
            );
            shift += s as u64;
        }
        batches
    }

    #[test]
    fn bootstrap_recomputes_then_intra_edges_ride_the_fast_path() {
        let mut engine = IncrementalComponents::new(params(), 11);
        let batches = expander_batches(&[60], 8, 5);
        let r0 = engine.apply_ops_batch(&batches[0]).unwrap();
        assert_eq!(r0.path, BatchPath::Recompute(RecomputeReason::Bootstrap));
        assert_eq!(engine.recomputes(), 1);
        assert_eq!(engine.num_components(), 1);

        // Duplicates of existing intra-component edges: pure fast path.
        let r1 = engine.apply_ops_batch(&batches[0][..20]).unwrap();
        assert_eq!(r1.path, BatchPath::FastPath);
        assert_eq!(r1.standing_merges, 0);
        assert_eq!(r1.new_vertices, 0);
        assert_eq!(engine.recomputes(), 1);
        // The fast path charges O(1) rounds.
        assert_eq!(r1.rounds, 2);
        assert_eq!(engine.num_components(), 1);
    }

    #[test]
    fn merging_standing_components_escalates() {
        let mut engine = IncrementalComponents::new(params(), 3);
        let batches = expander_batches(&[50, 40], 8, 9);
        engine.apply_ops_batch(&batches[0]).unwrap();
        let r1 = engine.apply_ops_batch(&batches[1]).unwrap();
        // The second expander is brand new in its batch: no standing merge.
        assert_eq!(r1.standing_merges, 0);
        assert_eq!(r1.path, BatchPath::FastPath);
        assert_eq!(engine.num_components(), 2);

        // A bridge between the two standing components escalates.
        let bridge = vec![(0u64, 50u64)];
        let r2 = engine.apply_ops_batch(&EdgeOp::inserts(&bridge)).unwrap();
        assert_eq!(
            r2.path,
            BatchPath::Recompute(RecomputeReason::StandingMerge)
        );
        assert_eq!(r2.standing_merges, 1);
        assert_eq!(engine.num_components(), 1);

        let truth = connected_components(&engine.current_graph());
        assert!(engine.labels().same_partition(&truth));

        // A standing merge beside a bridge deletion: the path 0–1–2 and the
        // edge 3–4, then (2, 3) joins them as (0, 1) cuts 0 off. The batch
        // escalates, the repair splits 0 off, and the escalated report counts
        // no split.
        let mut engine = IncrementalComponents::new(params(), 3);
        engine
            .apply_ops_batch(&EdgeOp::inserts(&[(0, 1), (1, 2), (3, 4)]))
            .unwrap();
        let r = engine
            .apply_ops_batch(&[EdgeOp::insert(2, 3), EdgeOp::delete(0, 1)])
            .unwrap();
        assert_eq!(r.path, BatchPath::Recompute(RecomputeReason::StandingMerge));
        assert_eq!((r.standing_merges, r.forest_cuts), (1, 1));
        assert_eq!((r.splits, r.sketch_recertifies, engine.splits()), (0, 0, 0));
        assert_eq!(r.components_after, 2);
        // Two exchanges (3 words per op), the escalation's round of `n`
        // words, and the cut component gathered: 3 live copies in, 5 labels
        // back.
        assert_eq!((r.rounds, r.communication_words), (5, 6 + 5 + 6 + 5));
        let truth = connected_components(&engine.current_graph());
        assert!(engine.labels().same_partition(&truth));
        assert_spans_without_a_cycle(&engine, "merge beside a cut");
    }

    /// Degree skew is no reason to escalate: a pendant newcomer and a hub
    /// pile-up on a bootstrapped expander are plain unions and duplicates.
    #[test]
    fn pendants_and_hub_pileups_ride_the_fast_path() {
        let mut engine = IncrementalComponents::new(params(), 7);
        let batches = expander_batches(&[60], 8, 13);
        engine.apply_ops_batch(&batches[0]).unwrap();

        // A degree-1 pendant vertex, then 40 parallel intra-component edges
        // piled onto vertex 0 (degree 8 → 48).
        let pendant = vec![(2000u64, 0u64)];
        let pile: Vec<(u64, u64)> = (0..40).map(|i| (0u64, 1 + (i % 3) as u64)).collect();
        for edges in [pendant, pile] {
            let r = engine.apply_ops_batch(&EdgeOp::inserts(&edges)).unwrap();
            assert_eq!(r.path, BatchPath::FastPath);
            assert_eq!(r.rounds, 2, "only the two per-batch exchanges");
            assert_eq!(r.communication_words, 3 * edges.len() as u64);
            let truth = connected_components(&engine.current_graph());
            assert!(engine.labels().same_partition(&truth));
        }
        assert_eq!(engine.recomputes(), 1, "the bootstrap only");
        assert_eq!(engine.num_components(), 1);
    }

    #[test]
    fn empty_batches_are_free_no_ops() {
        let mut engine = IncrementalComponents::new(params(), 29);
        let r = engine.apply_ops_batch(&[]).unwrap();
        assert_eq!(r.path, BatchPath::FastPath);
        assert_eq!(r.rounds, 2); // the constant fast-path charge
        assert_eq!(r.communication_words, 0);
        assert_eq!(engine.num_vertices(), 0);
        assert_eq!(engine.num_components(), 0);
        assert!(engine.labels().is_empty());
        assert_eq!(engine.recomputes(), 0, "an empty batch must not bootstrap");
    }

    #[test]
    fn random_schedule_replay_matches_ground_truth() {
        let mut graph_rng = ChaCha8Rng::seed_from_u64(31);
        let g = generators::planted_expander_components(&[40, 30, 20], 8, &mut graph_rng);
        let mut edges: Vec<(u64, u64)> = g.edge_iter().map(|(u, v)| (u as u64, v as u64)).collect();
        edges.shuffle(&mut graph_rng);

        let mut engine = IncrementalComponents::new(params(), 37);
        for chunk in edges.chunks(37) {
            engine.apply_ops_batch(&EdgeOp::inserts(chunk)).unwrap();
        }
        assert_eq!(engine.num_edges(), g.num_edges());

        // Map dense labels back to the generator's vertex numbering.
        let got = engine.labels_for_universe(g.num_vertices());
        assert!(got.same_partition(&connected_components(&g)));
    }

    #[test]
    fn snapshots_answer_queries_and_reuse_arcs_for_quiet_batches() {
        let mut engine = IncrementalComponents::new(params(), 43);
        let batches = expander_batches(&[50], 8, 23);
        engine.apply_ops_batch(&batches[0]).unwrap();
        let s1 = engine.snapshot(1);
        assert_eq!(s1.epoch(), 1);
        assert_eq!(s1.num_vertices(), 50);
        assert_eq!(s1.num_components(), 1);
        assert_eq!(s1.same_component(0, 1), Some(true));
        assert_eq!(s1.component_of(7), s1.component_of(0));
        assert_eq!(s1.component_size(7), Some(50));
        assert_eq!(s1.same_component(0, 999), None);
        assert_eq!(s1.component_of(999), None);

        // Duplicate edges leave the decomposition untouched: the snapshot is
        // republished in O(1), sharing every array with its predecessor.
        engine.apply_ops_batch(&batches[0][..10]).unwrap();
        let s2 = engine.snapshot(2);
        assert!(s2.shares_structure(&s1) && s2.shares_index(&s1));
        assert_eq!(s2.epoch(), 2);
        assert!(s2.num_edges() > s1.num_edges());

        // A well-attached newcomer dirties both the index and the labels,
        // but the component keeps its id (the oldest member's raw id).
        let attach = vec![(1000u64, 0u64), (1000, 1), (1000, 2)];
        engine.apply_ops_batch(&EdgeOp::inserts(&attach)).unwrap();
        let s3 = engine.snapshot(3);
        assert!(!s3.shares_structure(&s2) && !s3.shares_index(&s2));
        assert_eq!(s3.component_of(1000), s2.component_of(0));
        assert_eq!(s3.component_size(0), Some(51));
    }

    #[test]
    fn merge_only_batches_rebuild_labels_but_share_the_index() {
        let mut engine = IncrementalComponents::new(params(), 47);
        let batches = expander_batches(&[40, 30], 8, 29);
        engine.apply_ops_batch(&batches[0]).unwrap();
        engine.apply_ops_batch(&batches[1]).unwrap();
        let before = engine.snapshot(2);
        assert_eq!(before.num_components(), 2);
        assert_eq!(before.same_component(0, 40), Some(false));

        // A bridge between standing components: no new vertices, so the
        // rebuilt snapshot shares the index maps but not the label arrays,
        // and the merged component takes the older side's id.
        engine.apply_ops_batch(&[EdgeOp::insert(0, 40)]).unwrap();
        let after = engine.snapshot(3);
        assert!(after.shares_index(&before));
        assert!(!after.shares_structure(&before));
        assert_eq!(after.same_component(0, 40), Some(true));
        assert_eq!(after.component_of(40), before.component_of(0));
        assert_eq!(after.component_size(40), Some(70));
        assert_eq!(after.num_components(), 1);
    }

    #[test]
    fn rebuilds_refill_only_arrays_no_reader_holds() {
        let mut engine = IncrementalComponents::new(params(), 53);
        let rep_at = |engine: &IncrementalComponents| {
            Arc::as_ptr(&engine.snap_cache.as_ref().expect("built").rep)
        };
        // A batch of three fresh vertices in a path, then a snapshot.
        let arrive = |engine: &mut IncrementalComponents, lo: u64, epoch: u64| {
            let path = [(lo, lo + 1), (lo + 1, lo + 2)];
            engine.apply_ops_batch(&EdgeOp::inserts(&path)).unwrap();
            engine.snapshot(epoch)
        };
        let first = arrive(&mut engine, 0, 1);
        let first_rep = rep_at(&engine);
        drop(arrive(&mut engine, 10, 2));
        let second_rep = rep_at(&engine);
        // `first` is still held, so the third build allocates afresh.
        let third = arrive(&mut engine, 20, 3);
        assert!(rep_at(&engine) != first_rep && rep_at(&engine) != second_rep);
        // Nothing holds the second build's arrays any more: the fourth
        // refills them and leaves every held snapshot as it was.
        let fourth = arrive(&mut engine, 30, 4);
        assert_eq!(rep_at(&engine), second_rep);
        assert_eq!(first.num_vertices(), 3);
        assert_eq!(first.component_of(20), None);
        assert_eq!(third.num_vertices(), 9);
        assert_eq!(third.component_of(30), None);
        assert_eq!(fourth.num_vertices(), 12);
        assert_eq!(fourth.component_size(31), Some(3));
        assert_eq!(fourth.same_component(0, 30), Some(false));
        assert_eq!(fourth.component_of(22), third.component_of(20));
    }

    /// The rename mark: arrivals leave it at or above the vertices the batch
    /// found (and their build extends the arrays of two builds ago), a union
    /// lowers it to the younger side's oldest id, and a split — on the
    /// repair path or an escalation's — resets it to 0.
    #[test]
    fn the_rename_mark_covers_what_a_batch_can_rename() {
        let mut engine = IncrementalComponents::new(params(), 89);
        let buffers = |engine: &IncrementalComponents| {
            let cache = engine.snap_cache.as_ref().expect("built");
            (Arc::as_ptr(&cache.rep), Arc::as_ptr(&cache.index))
        };
        // Two 6-cliques, interned in ascending order so dense == raw.
        let mut ops = clique_ops(0, 6);
        ops.extend(clique_ops(6, 12));
        engine.apply_ops_batch(&ops).unwrap();
        drop(engine.snapshot(1));
        assert_eq!(engine.snap_rep_low, u32::MAX, "a build consumes the mark");
        let first = buffers(&engine);
        for (epoch, arrivals) in [(2, [(12, 0), (13, 12)]), (3, [(14, 6), (15, 16)])] {
            let before = engine.num_vertices() as u32;
            let r = engine.apply_ops_batch(&EdgeOp::inserts(&arrivals)).unwrap();
            assert_eq!(r.path, BatchPath::FastPath);
            assert!(engine.snap_rep_low >= before, "batch {epoch}");
            drop(engine.snapshot(epoch));
        }
        assert_eq!(
            buffers(&engine),
            first,
            "the third build extends the first's"
        );
        let s = engine.snapshot(4);
        assert_eq!(
            (s.component_of(13), s.component_size(12)),
            (Some(0), Some(8))
        );
        assert_eq!(
            (s.component_of(14), s.component_size(14)),
            (Some(6), Some(7))
        );
        assert_eq!((s.component_of(16), s.num_components()), (Some(15), 3));

        // A standing merge with no cut: the escalation keeps the union–find's
        // partition, so only the younger side (oldest id 6) is renamed.
        let r = engine.apply_ops_batch(&[EdgeOp::insert(0, 6)]).unwrap();
        assert_eq!(r.path, BatchPath::Recompute(RecomputeReason::StandingMerge));
        assert_eq!(engine.snap_rep_low, 6);
        let s = engine.snapshot(5);
        assert_eq!(
            (s.component_of(14), s.component_size(14)),
            (Some(0), Some(15))
        );

        // Cutting the bridge splits: names may move anywhere.
        let r = engine.apply_ops_batch(&[EdgeOp::delete(0, 6)]).unwrap();
        assert_eq!((r.path, r.splits), (BatchPath::SketchRepair, 1));
        assert_eq!(engine.snap_rep_low, 0);
        let s = engine.snapshot(6);
        assert_eq!(
            (s.component_of(14), s.component_size(0)),
            (Some(6), Some(8))
        );

        // An escalation whose cut splits resets it too.
        let ops = [EdgeOp::delete(15, 16), EdgeOp::insert(0, 6)];
        let r = engine.apply_ops_batch(&ops).unwrap();
        assert_eq!(r.path, BatchPath::Recompute(RecomputeReason::StandingMerge));
        assert_eq!((r.forest_cuts, engine.snap_rep_low), (1, 0));
        let s = engine.snapshot(7);
        assert_eq!(
            (s.component_of(16), s.component_of(14)),
            (Some(16), Some(0))
        );
        assert_eq!(s.num_components(), 3);
    }

    /// Every answer a snapshot gives over `probes`, plus its counts.
    fn snapshot_answers(snap: &ComponentSnapshot, probes: &[u64]) -> Vec<[Option<u64>; 4]> {
        let counts = [snap.num_vertices(), snap.num_components()].map(|c| Some(c as u64));
        let mut answers = vec![[counts[0], counts[1], None, None]];
        for (i, &u) in probes.iter().enumerate() {
            let partner = probes[(7 * i + 3) % probes.len()];
            answers.push([
                snap.component_of(u),
                snap.component_size(u),
                snap.same_component(u, partner).map(u64::from),
                snap.same_component(u, probes[0]).map(u64::from),
            ]);
        }
        answers
    }

    /// After every batch of random schedules mixing arrivals, repeated
    /// pairs, standing merges and deletions, the snapshot extended past the
    /// mark answers exactly like one built from nothing (a clone with its
    /// cache dropped and its mark reset). Every fifth seed deletes only in
    /// bursts of a third of its edges, so one repair searches many cut
    /// components at once; a quarter of the snapshots are
    /// held across later builds, so a retired buffer is sometimes a
    /// reader's and the build starts over — and a held snapshot still
    /// answers as it did when it was published.
    #[test]
    fn delta_snapshots_answer_like_from_scratch_ones() {
        use rand::Rng;
        const UNSEEN: [u64; 2] = [u64::MAX, u64::MAX - 1];
        let mut paths = HashSet::new();
        for seed in 0..40u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(0xD1FF + seed);
            let bursts = seed % 5 == 4;
            let mut engine = IncrementalComponents::new(params().with_threads(1), seed);
            // Live copies by raw pair, and held snapshots with their answers.
            let mut live: Vec<(u64, u64)> = Vec::new();
            let mut held = Vec::new();
            for b in 0..60u64 {
                let ids = engine.original_ids().to_vec();
                let labels = engine.labels();
                let mut members = vec![Vec::new(); labels.num_components()];
                for (dense, &raw) in ids.iter().enumerate() {
                    members[labels.label(dense)].push(raw);
                }
                let fresh = |rng: &mut ChaCha8Rng| rng.gen_range(0..1u64 << 40);
                let known = |rng: &mut ChaCha8Rng| match ids.len() {
                    0 => fresh(rng),
                    len => ids[rng.gen_range(0..len)],
                };
                let mut ops = Vec::new();
                for _ in 0..rng.gen_range(0..24) {
                    let pair = match rng.gen_range(0..10) {
                        0..=1 => (fresh(&mut rng), known(&mut rng)),
                        2 => (fresh(&mut rng), fresh(&mut rng)),
                        3 if !live.is_empty() => live[rng.gen_range(0..live.len())],
                        // A chord inside a standing component.
                        4..=5 if !ids.is_empty() => {
                            let members = &members[labels.label(rng.gen_range(0..ids.len()))];
                            let mut member = || members[rng.gen_range(0..members.len())];
                            (member(), member())
                        }
                        6 if rng.gen_bool(0.2) => (known(&mut rng), known(&mut rng)),
                        _ if !bursts && !live.is_empty() => {
                            let (u, v) = live.swap_remove(rng.gen_range(0..live.len()));
                            ops.push(EdgeOp::delete(v, u));
                            continue;
                        }
                        _ => continue,
                    };
                    live.push(pair);
                    ops.push(EdgeOp::insert(pair.0, pair.1));
                }
                if bursts && b % 10 == 9 {
                    for _ in 0..live.len() / 3 {
                        let (u, v) = live.swap_remove(rng.gen_range(0..live.len()));
                        ops.push(EdgeOp::delete(u, v));
                    }
                }
                let r = engine.apply_ops_batch(&ops).unwrap();
                paths.insert(r.path.label());

                let snap = engine.snapshot(b + 1);
                let mut twin = engine.clone();
                (twin.snap_cache, twin.snap_retired, twin.snap_rep_low) = (None, None, 0);
                let mut probes = engine.original_ids().to_vec();
                probes.extend(UNSEEN);
                let want = snapshot_answers(&twin.snapshot(b + 1), &probes);
                assert_eq!(
                    snapshot_answers(&snap, &probes),
                    want,
                    "seed {seed}, batch {b}"
                );
                if rng.gen_bool(0.25) {
                    held.push((snap, probes, want));
                }
                if !held.is_empty() && rng.gen_bool(0.3) {
                    let (snap, probes, want) = held.swap_remove(rng.gen_range(0..held.len()));
                    assert_eq!(
                        snapshot_answers(&snap, &probes),
                        want,
                        "seed {seed}, batch {b}"
                    );
                }
            }
        }
        let all = [
            BatchPath::FastPath,
            BatchPath::SketchRepair,
            BatchPath::Recompute(RecomputeReason::Bootstrap),
            BatchPath::Recompute(RecomputeReason::StandingMerge),
        ];
        for path in all {
            assert!(paths.contains(path.label()), "no {} batch", path.label());
        }
    }

    /// All `(i, j)` pairs of a clique on raw ids `lo..hi` as insert ops.
    fn clique_ops(lo: u64, hi: u64) -> Vec<EdgeOp> {
        let mut ops = Vec::new();
        for i in lo..hi {
            for j in (i + 1)..hi {
                ops.push(EdgeOp::insert(i, j));
            }
        }
        ops
    }

    #[test]
    fn non_structural_deletions_ride_the_fast_path() {
        let mut engine = IncrementalComponents::new(params(), 53);
        let batches = expander_batches(&[40], 8, 35);
        engine.apply_ops_batch(&batches[0]).unwrap();
        // A parallel copy and a self-loop...
        engine
            .apply_ops_batch(&[
                EdgeOp::insert(0, 1),
                EdgeOp::insert(0, 1),
                EdgeOp::insert(5, 5),
            ])
            .unwrap();
        let recomputes_before = engine.recomputes();
        // ...whose deletion leaves a surviving copy (or is a self-loop):
        // nothing structural, no repair, no recompute.
        let r = engine
            .apply_ops_batch(&[EdgeOp::delete(0, 1), EdgeOp::delete(5, 5)])
            .unwrap();
        assert_eq!(r.path, BatchPath::FastPath);
        assert_eq!(r.deletions, 2);
        assert_eq!(r.splits, 0);
        assert_eq!(r.sketch_recertifies, 0);
        assert_eq!(engine.recomputes(), recomputes_before);
    }

    #[test]
    fn structural_deletion_in_an_expander_recertifies_without_recompute() {
        let mut engine = IncrementalComponents::new(params(), 57);
        let batches = expander_batches(&[60], 8, 37);
        engine.apply_ops_batch(&batches[0]).unwrap();
        let recomputes_before = engine.recomputes();
        // Delete one expander edge with no parallel copy (so the deletion is
        // structural): the component stays connected, the repair certifies
        // it, and the batch does not escalate.
        let mut copies = std::collections::HashMap::new();
        let pairs: Vec<(u64, u64)> = batches[0].iter().map(|op| (op.u, op.v)).collect();
        for &(a, b) in &pairs {
            *copies.entry((a.min(b), a.max(b))).or_insert(0u32) += 1;
        }
        let (a, b) = pairs
            .iter()
            .copied()
            .find(|&(a, b)| a != b && copies[&(a.min(b), a.max(b))] == 1)
            .expect("expander has a non-loop simple edge");
        let r = engine.apply_ops_batch(&[EdgeOp::delete(a, b)]).unwrap();
        assert_eq!(r.path, BatchPath::SketchRepair);
        assert_eq!(r.sketch_recertifies, 1);
        assert_eq!(r.splits, 0);
        assert_eq!(engine.recomputes(), recomputes_before);
        assert_eq!(engine.num_components(), 1);
        let truth = connected_components(&engine.current_graph());
        assert!(engine.labels().same_partition(&truth));
    }

    #[test]
    fn bridge_deletion_splits_and_mints_component_ids_by_the_oldest_member_rule() {
        let mut engine = IncrementalComponents::new(params(), 59);
        // Two 6-cliques joined by one bridge; raw ids are interned in
        // ascending order so dense == raw.
        let mut ops = clique_ops(0, 6);
        ops.extend(clique_ops(6, 12));
        ops.push(EdgeOp::insert(0, 6));
        engine.apply_ops_batch(&ops).unwrap();
        assert_eq!(engine.num_components(), 1);
        let before = engine.snapshot(1);
        assert_eq!(before.component_of(9), Some(0));

        let recomputes_before = engine.recomputes();
        let r = engine.apply_ops_batch(&[EdgeOp::delete(0, 6)]).unwrap();
        assert_eq!(r.path, BatchPath::SketchRepair);
        assert_eq!(r.splits, 1);
        assert_eq!(r.components_after, 2);
        assert_eq!(engine.recomputes(), recomputes_before, "no escalation");
        assert_eq!(engine.splits(), 1);

        // The part keeping the oldest member keeps the component id; the
        // split-off part mints its own oldest member's raw id as a fresh id.
        let after = engine.snapshot(2);
        assert_eq!(after.component_of(3), Some(0));
        assert_eq!(after.component_of(9), Some(6));
        assert_eq!(after.component_size(0), Some(6));
        assert_eq!(after.component_size(9), Some(6));
        assert_eq!(after.same_component(0, 6), Some(false));

        let truth = connected_components(&engine.current_graph());
        assert!(engine.labels().same_partition(&truth));
    }

    #[test]
    fn full_component_teardown_ends_in_singletons() {
        let mut engine = IncrementalComponents::new(params(), 61);
        // A 5-clique torn down edge by edge.
        let ops = clique_ops(0, 5);
        engine.apply_ops_batch(&ops).unwrap();
        assert_eq!(engine.num_components(), 1);
        let recomputes_before = engine.recomputes();
        for op in &ops {
            let r = engine
                .apply_ops_batch(&[EdgeOp::delete(op.u, op.v)])
                .unwrap();
            assert!(
                matches!(r.path, BatchPath::SketchRepair),
                "teardown stays on the repair path, got {:?}",
                r.path
            );
        }
        assert_eq!(engine.recomputes(), recomputes_before);
        assert_eq!(engine.num_components(), 5);
        assert_eq!(engine.num_edges(), 0);
        // Total minted components: 5 singletons out of 1 original.
        assert_eq!(engine.splits(), 4);
    }

    #[test]
    fn over_deletion_is_a_hard_error_that_leaves_the_engine_untouched() {
        let mut engine = IncrementalComponents::new(params(), 63);
        let batches = expander_batches(&[40], 8, 41);
        engine.apply_ops_batch(&batches[0]).unwrap();
        let snapshot_before = engine.snapshot(1);
        let batches_before = engine.batches_applied();
        let edges_before = engine.num_edges();

        // Never-inserted edge between seen vertices.
        let err = engine.apply_ops_batch(&[EdgeOp::delete(0, 0)]).unwrap_err();
        assert!(matches!(err, CoreError::BadParams(_)), "got {err:?}");
        // Never-seen vertex.
        assert!(engine
            .apply_ops_batch(&[EdgeOp::delete(99_999, 0)])
            .is_err());
        // Double delete within one batch: the second has no live copy left.
        let (a, b) = (batches[0][0].u, batches[0][0].v);
        assert!(engine
            .apply_ops_batch(&[
                EdgeOp::delete(a, b),
                EdgeOp::delete(a, b),
                EdgeOp::delete(a, b)
            ])
            .is_err());
        // Delete-before-insert of a brand-new edge in one batch.
        assert!(engine
            .apply_ops_batch(&[EdgeOp::delete(500, 501), EdgeOp::insert(500, 501)])
            .is_err());

        // Nothing was applied: batch counter, edges and labelling untouched.
        assert_eq!(engine.batches_applied(), batches_before);
        assert_eq!(engine.num_edges(), edges_before);
        let after = engine.snapshot(2);
        assert!(after.shares_structure(&snapshot_before));
    }

    #[test]
    fn a_rejected_batch_leaves_forest_and_live_untouched() {
        let mut engine = IncrementalComponents::new(params(), 65);
        // Two 6-cliques and a bridge, plus a two-vertex tail hanging off
        // vertex 11.
        let mut ops = clique_ops(0, 6);
        ops.extend(clique_ops(6, 12));
        ops.extend([
            EdgeOp::insert(0, 6),
            EdgeOp::insert(0, 1),
            EdgeOp::insert(11, 12),
            EdgeOp::insert(12, 13),
        ]);
        engine.apply_ops_batch(&ops).unwrap();
        // A parallel copy goes and a cut splits the tail off.
        engine
            .apply_ops_batch(&[EdgeOp::delete(0, 1), EdgeOp::delete(11, 12)])
            .unwrap();
        let live_before = engine.live.clone();
        assert!(live_before[&(0, 6)].forest);

        // A cut, an insert and a last-copy deletion, all valid — and then
        // one deletion too many.
        let err = engine.apply_ops_batch(&[
            EdgeOp::delete(0, 6),
            EdgeOp::insert(3, 9),
            EdgeOp::delete(1, 2),
            EdgeOp::delete(0, 6),
        ]);
        assert!(matches!(err, Err(CoreError::BadParams(_))), "got {err:?}");
        assert_eq!(engine.live, live_before);
        assert_eq!(engine.num_components(), 2);
    }

    /// The forest flags span each maintained component without a cycle.
    fn assert_spans_without_a_cycle(engine: &IncrementalComponents, context: &str) {
        let mut uf = UnionFind::new(engine.num_vertices());
        for (u, v) in engine.spanning_forest() {
            let joins = uf.union(u as usize, v as usize);
            assert!(joins, "{context}: forest pair ({u}, {v}) closes a cycle");
        }
        let spans = uf.into_labels().same_partition(&engine.labels());
        assert!(spans, "{context}: the forest does not span the components");
    }

    #[test]
    fn live_state_holds_exactly_the_live_multiset_under_churn() {
        let mut engine = IncrementalComponents::new(params(), 69);
        // An expander, and a two-vertex component.
        let mut ops = expander_batches(&[60], 8, 45).remove(0);
        ops.push(EdgeOp::insert(500, 501));
        let used: HashSet<(u64, u64)> = ops.iter().map(|op| (op.u, op.v)).collect();
        // Then pairs the expander does not use, five per batch (the first of
        // them twice, plus a self-loop), recycled once dead; each batch
        // deletes every copy the previous one inserted. Every 25th batch
        // also hangs a fresh vertex off 501 and the next one cuts it off.
        let mut fresh = (0..60u64)
            .flat_map(|u| (u + 1..60).map(move |v| (u, v)))
            .filter(|&(u, v)| !used.contains(&(u, v)) && !used.contains(&(v, u)))
            .collect::<Vec<_>>()
            .into_iter()
            .cycle();
        let (mut live, mut previous) = (HashMap::new(), Vec::new());
        for batch in 0..=2000u64 {
            for op in &ops {
                let count = live.entry((op.u.min(op.v), op.u.max(op.v))).or_insert(0);
                match op.kind {
                    OpKind::Insert => *count += 1,
                    OpKind::Delete => *count -= 1,
                }
            }
            live.retain(|_, count| *count > 0);
            engine.apply_ops_batch(&ops).unwrap();
            let raw = |dense: u32| engine.original_ids()[dense as usize];
            let held: HashMap<(u64, u64), u32> = engine
                .live
                .iter()
                .map(|(&(u, v), pair)| ((raw(u).min(raw(v)), raw(u).max(raw(v))), pair.copies))
                .collect();
            assert_eq!(held, live, "batch {batch}");
            assert_spans_without_a_cycle(&engine, &format!("batch {batch}"));

            ops = previous
                .drain(..)
                .map(|(u, v)| EdgeOp::delete(v, u))
                .collect();
            previous.extend(fresh.by_ref().take(5));
            previous.extend([previous[0], (batch % 60, batch % 60)]);
            if batch % 25 == 0 {
                previous.push((501, 1000 + batch));
            }
            ops.extend(previous.iter().map(|&(u, v)| EdgeOp::insert(u, v)));
        }
        assert_eq!(engine.splits(), 80);
        assert_eq!(engine.num_edges(), live.values().sum::<u32>() as usize);
    }

    #[test]
    fn delete_reinsert_cycles_keep_the_labelling_exact() {
        let mut engine = IncrementalComponents::new(params(), 67);
        let batches = expander_batches(&[50], 8, 43);
        engine.apply_ops_batch(&batches[0]).unwrap();
        let (a, b) = (batches[0][3].u, batches[0][3].v);
        // Delete then reinsert the same edge across batches, twice.
        for _ in 0..2 {
            engine.apply_ops_batch(&[EdgeOp::delete(a, b)]).unwrap();
            engine.apply_ops_batch(&[EdgeOp::insert(a, b)]).unwrap();
        }
        // And once within a single batch.
        let r = engine
            .apply_ops_batch(&[EdgeOp::delete(a, b), EdgeOp::insert(a, b)])
            .unwrap();
        assert_eq!(r.insertions, 1);
        assert_eq!(r.deletions, 1);
        assert_eq!(engine.num_edges(), batches[0].len());
        let truth = connected_components(&engine.current_graph());
        assert!(engine.labels().same_partition(&truth));
    }

    /// Validation's oracle, independent of the engine: replays the batch's
    /// running per-pair delta against `live` (raw pair → live copies).
    fn replayed_validation(
        live: &HashMap<(u64, u64), i64>,
        batch: &[EdgeOp],
    ) -> Result<(), String> {
        let mut delta = HashMap::new();
        for op in batch {
            let key = (op.u.min(op.v), op.u.max(op.v));
            let d = delta.entry(key).or_insert(0);
            *d += if op.kind == OpKind::Insert { 1 } else { -1 };
            if live.get(&key).copied().unwrap_or(0) + *d < 0 {
                return Err(format!(
                    "stream: deletion of edge ({}, {}) with no live copy \
                     (never inserted, or already deleted)",
                    op.u, op.v
                ));
            }
        }
        Ok(())
    }

    /// Applies `batch` to `engine` and checks it is refused or accepted
    /// exactly as [`replayed_validation`] says, with the same message;
    /// whether the count alone cleared it comes back.
    fn check_validation(
        engine: &mut IncrementalComponents,
        live: &mut HashMap<(u64, u64), i64>,
        batch: &[EdgeOp],
    ) -> bool {
        let want = replayed_validation(live, batch);
        let deletions = batch.iter().filter(|op| op.kind == OpKind::Delete).count();
        let fit = deletions > 0 && engine.deletions_fit(batch, deletions);
        assert!(!fit || want.is_ok(), "the count cleared an invalid batch");
        match (engine.apply_ops_batch(batch), want) {
            (Ok(_), Ok(())) => {
                for op in batch {
                    let count = live.entry((op.u.min(op.v), op.u.max(op.v))).or_insert(0);
                    *count += if op.kind == OpKind::Insert { 1 } else { -1 };
                }
            }
            (Err(CoreError::BadParams(got)), Err(want)) => assert_eq!(got, want),
            (got, want) => panic!("engine {got:?}, oracle {want:?} on {batch:?}"),
        }
        fit
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Counting first, then replaying only what the count cannot clear,
        /// accepts and refuses exactly the batches the prefix replay does:
        /// random batches over six ids (repeated pairs, parallel copies,
        /// self-loops, over-deletes), then fixed probes that reach each
        /// branch.
        #[test]
        fn count_first_validation_matches_the_prefix_replay(
            batches in proptest::collection::vec(
                proptest::collection::vec((0u8..5, 0u64..6, 0u64..6), 0..12),
                1..30,
            )
        ) {
            let mut engine = IncrementalComponents::new(params().with_threads(1), 5);
            let mut live = HashMap::new();
            for batch in &batches {
                let ops: Vec<EdgeOp> = batch
                    .iter()
                    .map(|&(kind, u, v)| match kind {
                        0..=1 => EdgeOp::delete(u, v),
                        _ => EdgeOp::insert(u, v),
                    })
                    .collect();
                check_validation(&mut engine, &mut live, &ops);
            }
            let (ins, del) = (EdgeOp::insert, EdgeOp::delete);
            for (probe, fits) in [
                // Two parallel copies, both deleted: the count clears it.
                (vec![ins(100, 101), ins(101, 100)], false),
                (vec![del(100, 101), del(101, 100)], true),
                // Insert-then-delete of a fresh pair: only the replay clears it.
                (vec![ins(102, 103), del(103, 102)], false),
                // An over-delete, after and before an insert of the pair.
                (vec![ins(100, 101), del(100, 101), del(100, 101)], false),
                (vec![del(100, 101), ins(100, 101)], false),
            ] {
                prop_assert_eq!(check_validation(&mut engine, &mut live, &probe), fits);
            }
            prop_assert_eq!(live.get(&(102, 103)), Some(&0));
        }

        /// After every batch of a random churn schedule over twelve ids —
        /// arrivals, parallel copies, self-loops and deletions of random live
        /// copies, so a batch may cut several forest pairs in one component
        /// or in several — the maintained partition is the components of the
        /// live graph, and the forest flags span each component without a
        /// cycle.
        #[test]
        fn repairs_keep_partition_and_forest_exact_under_random_churn(
            batches in proptest::collection::vec(
                proptest::collection::vec((0u8..3, 0u64..12, 0u64..12), 0..16),
                1..40,
            )
        ) {
            let mut engine = IncrementalComponents::new(params().with_threads(1), 3);
            let mut live: Vec<(u64, u64)> = Vec::new();
            for (b, batch) in batches.iter().enumerate() {
                let ops: Vec<EdgeOp> = batch
                    .iter()
                    .map(|&(kind, u, v)| {
                        if kind == 0 && !live.is_empty() {
                            let (x, y) = live.swap_remove((u * 12 + v) as usize % live.len());
                            EdgeOp::delete(y, x)
                        } else {
                            live.push((u, v));
                            EdgeOp::insert(u, v)
                        }
                    })
                    .collect();
                engine.apply_ops_batch(&ops).unwrap();
                let truth = connected_components(&engine.current_graph());
                prop_assert!(engine.labels().same_partition(&truth), "batch {}", b);
                assert_spans_without_a_cycle(&engine, &format!("batch {b}"));
            }
        }
    }

    #[test]
    fn deletion_heavy_replay_matches_ground_truth_on_the_surviving_graph() {
        let mut rng = ChaCha8Rng::seed_from_u64(71);
        let g = generators::planted_expander_components(&[30, 25], 8, &mut rng);
        let edges: Vec<(u64, u64)> = g.edge_iter().map(|(u, v)| (u as u64, v as u64)).collect();
        let mut engine = IncrementalComponents::new(params(), 73);
        engine.apply_ops_batch(&EdgeOp::inserts(&edges)).unwrap();
        // Delete a third of the edges (every third one), batched.
        let doomed: Vec<EdgeOp> = edges
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 3 == 0)
            .map(|(_, &(u, v))| EdgeOp::delete(u, v))
            .collect();
        for chunk in doomed.chunks(11) {
            engine.apply_ops_batch(chunk).unwrap();
        }
        assert_eq!(engine.num_edges(), edges.len() - doomed.len());
        let truth = connected_components(&engine.current_graph());
        assert!(engine.labels().same_partition(&truth));
    }

    /// FNV-1a over a word stream.
    fn fnv(h: &mut u64, x: u64) {
        for b in x.to_le_bytes() {
            *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// A `stream_churn`-shaped schedule: a bootstrap batch of two planted
    /// 8-regular expanders of `half` vertices, then 48 batches that each
    /// delete the previous batch's `per_batch` fresh intra-community edges
    /// (every deletion structural) and insert as many new ones, plus three
    /// bridge pairs — a standing merge, then a cut that splits.
    fn churn_schedule(half: u64, per_batch: usize, seed: u64) -> Vec<Vec<EdgeOp>> {
        use rand::Rng;
        const BRIDGES: [usize; 3] = [10, 26, 42];
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g =
            generators::planted_expander_components(&[half as usize, half as usize], 8, &mut rng);
        let boot: Vec<EdgeOp> = g
            .edge_iter()
            .map(|(u, v)| EdgeOp::insert(u as u64, v as u64))
            .collect();
        let mut seen: HashSet<(u64, u64)> = boot
            .iter()
            .map(|op| (op.u.min(op.v), op.u.max(op.v)))
            .collect();
        let mut schedule = vec![boot];
        let mut previous: Vec<(u64, u64)> = Vec::new();
        for b in 0..48 {
            let mut ops: Vec<EdgeOp> = previous
                .drain(..)
                .map(|(u, v)| EdgeOp::delete(u, v))
                .collect();
            if b > 0 && BRIDGES.contains(&(b - 1)) {
                ops.push(EdgeOp::delete(0, half));
            }
            while previous.len() < per_batch {
                let c = rng.gen_range(0..2u64) * half;
                let (u, v) = (c + rng.gen_range(0..half), c + rng.gen_range(0..half));
                if u != v && seen.insert((u.min(v), u.max(v))) {
                    ops.push(EdgeOp::insert(u, v));
                    previous.push((u, v));
                }
            }
            if BRIDGES.contains(&b) {
                ops.push(EdgeOp::insert(0, half));
            }
            schedule.push(ops);
        }
        schedule
    }

    /// Folds what a batch decided — its path, splits, re-certifications,
    /// cuts and the component count after it — into `digest`.
    fn fnv_decisions(digest: &mut u64, r: &BatchReport) {
        for b in r.path.label().bytes() {
            fnv(digest, u64::from(b));
        }
        for x in [
            u64::from(r.splits),
            u64::from(r.sketch_recertifies),
            u64::from(r.forest_cuts),
            r.components_after as u64,
        ] {
            fnv(digest, x);
        }
    }

    /// Every batch's decisions and the final labels on two `stream_churn`
    /// schedules, with no charge in the hash: recorded while escalations
    /// still ran Theorem 4, so it pins that adopting the union–find's
    /// partition instead moved what a batch costs and nothing it decides.
    #[test]
    fn churn_decisions_and_labels_match_the_parent_digest() {
        let mut digest = 0xCBF2_9CE4_8422_2325_u64;
        for (half, per_batch, seed) in [(100, 40, 7), (300, 120, 11)] {
            let mut engine = IncrementalComponents::new(params().with_threads(1), seed);
            let reports = engine
                .apply_ops_schedule(&churn_schedule(half, per_batch, seed))
                .unwrap();
            for r in &reports {
                fnv_decisions(&mut digest, r);
            }
            for &l in engine.labels().labels() {
                fnv(&mut digest, l as u64);
            }
        }
        assert_eq!(
            digest, 0xb4f5_c571_36f4_9225,
            "decision digest {digest:#018x}"
        );
    }

    /// Every batch's decisions and charges on a 1/10-scale `stream_churn`,
    /// and the final labels. Moving it means the engine's observable
    /// behaviour moved.
    #[test]
    fn churn_reports_and_labels_match_the_recorded_digest() {
        let mut engine = IncrementalComponents::new(params().with_threads(1), 7);
        let reports = engine
            .apply_ops_schedule(&churn_schedule(100, 40, 7))
            .unwrap();
        let count = |path: BatchPath| reports.iter().filter(|r| r.path == path).count();
        assert!(count(BatchPath::SketchRepair) >= 40);
        assert_eq!(
            count(BatchPath::Recompute(RecomputeReason::StandingMerge)),
            3
        );
        assert_eq!(engine.splits(), 3);

        let mut digest = 0xCBF2_9CE4_8422_2325_u64;
        for r in &reports {
            fnv_decisions(&mut digest, r);
            fnv(&mut digest, r.rounds);
            fnv(&mut digest, r.communication_words);
        }
        for &l in engine.labels().labels() {
            fnv(&mut digest, l as u64);
        }
        assert_eq!(digest, 0xed50_ad1b_a18b_b764, "churn digest {digest:#018x}");
    }

    #[test]
    fn stats_accumulate_across_batches_and_context_upgrades() {
        let mut engine = IncrementalComponents::new(params(), 41);
        let batches = expander_batches(&[30, 40], 8, 19);
        // An escalation pays the two per-batch exchanges (3 words per op)
        // and one aggregation round of a word per vertex.
        let boot = engine.apply_ops_batch(&batches[0]).unwrap();
        assert_eq!(boot.path, BatchPath::Recompute(RecomputeReason::Bootstrap));
        let ops = batches[0].len() as u64;
        assert_eq!((boot.rounds, boot.communication_words), (3, 3 * ops + 30));
        engine.apply_ops_batch(&batches[1]).unwrap();
        let merge = engine
            .apply_ops_batch(&EdgeOp::inserts(&[(0, 30)]))
            .unwrap();
        assert_eq!(
            merge.path,
            BatchPath::Recompute(RecomputeReason::StandingMerge)
        );
        assert_eq!((merge.rounds, merge.communication_words), (3, 3 + 70));

        let stats = engine.stats();
        assert_eq!(stats.total_rounds(), 3 + 2 + 3);
        // No pipeline phase (`regularize`, `randomize`, `grow-components`,
        // `low-diameter-bfs`) ever appears. The merge outgrew the
        // bootstrap's cluster, so its batch is one `stream-ingest` phase per
        // context, and every charge — those after the upgrade included —
        // lands in one.
        let names: Vec<&str> = stats.phases().iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["stream-ingest"; 4]);
        assert_eq!(stats.rounds_in_phase("stream-ingest"), stats.total_rounds());
    }
}
