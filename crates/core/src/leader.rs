//! Step 3 — Connectivity on random graphs (Section 6).
//!
//! The centrepiece of the paper: a leader-election algorithm whose components
//! grow *quadratically* per phase instead of by a constant factor. Phase `i`
//! works on the contraction graph `H_i` of the `i`-th fresh random batch
//! `G̃_i` with respect to the current component-partition `C_i`:
//!
//! 1. every super-vertex (part) becomes a **leader** independently with
//!    probability `≈ 1/Δ_i`;
//! 2. every non-leader that has a leader neighbour in `H_i` attaches to a
//!    uniformly random one (`M(v)`), forming stars of expected size `Δ_i`
//!    (Equipartition Lemma 6.4);
//! 3. the stars are contracted, squaring the part size
//!    (`Δ_{i+1} = Δ_i²`, Lemma 6.7) while the *fresh* batch used in the next
//!    phase keeps the contracted graph distributed like a random graph.
//!
//! After `F = O(log log n)` phases the parts have size `n^{Ω(1)}`, the
//! contraction of the full graph has `O(1)` diameter (Claim 6.13), and an
//! exact component search on it finishes the job (Claim 6.14). Every phase
//! costs `O(1)` MPC rounds (a constant number of shuffles / sort batches).
//!
//! The paper finishes with a BFS, which is `O(1)` rounds under its promise
//! and `Θ(D)` on a contraction of diameter `D` when the promise fails. The
//! endgame here ([`finish_with_bfs_over_refs`]) iterates Liu–Tarjan's
//! parent-connect and shortcut steps instead: three exchanges on a
//! constant-diameter contraction, about `2·log₂ D` otherwise, exact either
//! way (DESIGN.md §13).

use crate::params::Params;
use crate::regularize::CoreError;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use wcc_graph::{components, ComponentLabels, Graph, GraphBuilder, Partition};
use wcc_mpc::{derive_stream_seed, pack_edge, Executor, MpcContext, TupleWidth};

/// The grouping decided by one leader-election round on a contraction graph.
#[derive(Debug, Clone)]
pub struct LeaderElectionOutcome {
    /// For every vertex of the contraction graph, the index (in
    /// `0..num_groups`) of the star it joined. Leaders and orphans form their
    /// own groups.
    pub group_of: Vec<usize>,
    /// Number of groups (= leaders + orphans).
    pub num_groups: usize,
    /// Number of vertices elected leader.
    pub num_leaders: usize,
    /// Number of non-leaders with no leader neighbour (`M(v) = ⊥`); the paper
    /// shows this is empty w.h.p. in the parameter regime of Lemma 6.4.
    pub orphans: usize,
}

/// One leader-election round (`LeaderElection(H, d)` in the paper, with the
/// corrected leader probability `1/d`): vertices of `h` become leaders with
/// probability `leader_prob`; every non-leader joins a uniformly random
/// leader neighbour.
///
/// Charges two MPC rounds (one to announce leaders to neighbours, one for the
/// join messages). Both per-vertex passes — the leader coins and the
/// reservoir-sampled attachments — run on the context's execution backend,
/// each vertex on its own ChaCha8 stream derived from one draw of the master
/// generator, so the outcome is bit-identical for every backend and thread
/// count.
pub fn leader_election<R: Rng + ?Sized>(
    h: &Graph,
    leader_prob: f64,
    ctx: &mut MpcContext,
    rng: &mut R,
) -> LeaderElectionOutcome {
    let k = h.num_vertices();
    let p = leader_prob.clamp(0.0, 1.0);
    let executor = ctx.executor();
    let coin_base = rng.gen::<u64>();
    let is_leader: Vec<bool> = executor.map_indexed(k, |v| {
        ChaCha8Rng::seed_from_u64(derive_stream_seed(coin_base, v as u64)).gen_bool(p)
    });
    ctx.charge_shuffle(2 * h.num_edges());
    let _ = ctx.record_balanced_load(2 * h.num_edges());

    // M(v): a uniformly random leader neighbour (reservoir sampling over the
    // adjacency list so parallel edges weight leaders proportionally, exactly
    // like the paper's uniform choice over N_L(v)).
    ctx.charge_shuffle(2 * h.num_edges());
    let attach_base = rng.gen::<u64>();
    let choices: Vec<usize> = executor.map_indexed(k, |v| {
        if is_leader[v] {
            return v;
        }
        let mut vrng = ChaCha8Rng::seed_from_u64(derive_stream_seed(attach_base, v as u64));
        let mut chosen: Option<usize> = None;
        let mut seen = 0usize;
        for &w in h.neighbors(v) {
            let w = w as usize;
            if w != v && is_leader[w] {
                seen += 1;
                if vrng.gen_range(0..seen) == 0 {
                    chosen = Some(w);
                }
            }
        }
        // M(v) = ⊥ (no leader neighbour): stay a singleton group this phase.
        chosen.unwrap_or(v)
    });
    let num_leaders = is_leader.iter().filter(|&&b| b).count();
    let orphans = choices
        .iter()
        .enumerate()
        .filter(|&(v, &c)| c == v && !is_leader[v])
        .count();
    let canonical = ComponentLabels::from_raw_labels(&choices);
    LeaderElectionOutcome {
        num_groups: canonical.num_components(),
        group_of: canonical.labels().to_vec(),
        num_leaders,
        orphans,
    }
}

/// Builds the contraction graph (Definition 2) of `g` with respect to
/// `partition`: one vertex per part, one edge per pair of parts joined by at
/// least one edge of `g` (no self-loops, no parallel edges).
///
/// Charges one sort over the edge list (contract + dedup). See
/// [`contraction_graph_of_refs`] for the data-plane layout.
pub fn contraction_graph(g: &Graph, partition: &Partition, ctx: &mut MpcContext) -> Graph {
    contraction_graph_of_refs(&[g], partition, ctx)
}

/// Ceiling on `parts²` for the dense-pair contraction: one bit per ordered
/// pair of parts, of which every edge sets one at random, must fit 2 MiB —
/// one core's L2 on the hosts this was tuned on. Past it — 4096 parts — the
/// bucketed build takes over.
const DENSE_PAIR_BITS: usize = 1 << 24;

/// [`contraction_graph`] over the disjoint edge-set union of `graphs`
/// (all on `partition`'s vertex set) **without materialising the union**:
/// the contraction only needs to see every edge once, so building the
/// union's CSR (the single largest allocation of the old endgame) is pure
/// waste.
///
/// All paths build the same graph — the one `contract_edges_wide`, the
/// executable spec, defines: sorted distinct rows, row-major edge list.
/// Which one runs depends only on the shape of the request, and the cheap
/// ones **deduplicate before materialising** anything per edge:
///
/// * the partition is the identity and there is one graph (phase 1 of
///   [`grow_components`]): nothing is relabelled, so the contraction is
///   [`Graph::simple`], read off the graph's own CSR rows;
/// * `parts² ≤` `DENSE_PAIR_BITS`: `contract_edges_dense` streams the
///   edges once into a pair bitmap and reads the sorted distinct edge list
///   off the set bits — millions of edges collapsing onto a few hundred
///   pairs never exist as tuples;
/// * otherwise the tuple width negotiated via [`TupleWidth::negotiate`] over
///   the part count decides: compact — always, unless the vertex set exceeds
///   `u32` range, which the `(u32, u32)`-backed [`Graph`] only allows via
///   isolated vertices — packs each relabelled edge `(a, b)`, `a ≤ b`, into
///   the key [`pack_edge`]`(a, b)` and hands the unsorted key multiset to
///   [`Graph::from_packed_edge_multiset`], whose bucket-by-endpoint build
///   (histogram + scatter + per-row sort/dedup) replaces the full
///   multi-pass sort with one scatter and cache-resident row sorts. The wide
///   `(usize, usize)` path is the fallback for part counts beyond the
///   compact identifier space — negotiation, never truncation.
///
/// Charges one sort over the *total* edge count, exactly what one call on
/// the materialised union charged, with the byte column at the negotiated
/// width — whichever path then does the grouping work the charged sort
/// models (the same convention as the identity-shuffle short circuit). The
/// per-edge passes fan out over contiguous edge chunks on the context's
/// backend; the grouping that follows erases the (already deterministic)
/// chunk order.
///
/// # Panics
///
/// Panics if a graph's vertex count differs from the partition's.
pub fn contraction_graph_of_refs(
    graphs: &[&Graph],
    partition: &Partition,
    ctx: &mut MpcContext,
) -> Graph {
    for g in graphs {
        assert_eq!(
            g.num_vertices(),
            partition.len(),
            "contraction_graph_of_refs: a graph on {} vertices cannot be contracted by a \
             partition of {} vertices",
            g.num_vertices(),
            partition.len(),
        );
    }
    let total_edges: usize = graphs.iter().map(|g| g.num_edges()).sum();
    let parts = partition.num_parts();
    let width = TupleWidth::negotiate(parts);
    ctx.charge_sort_with_bytes(total_edges.max(1), width.edge_bytes());
    if graphs.len() == 1 && partition.is_identity() {
        graphs[0].simple()
    } else if parts * parts <= DENSE_PAIR_BITS {
        let edges = contract_edges_dense(graphs, partition, &ctx.executor());
        Graph::from_edges_unchecked(parts, edges)
    } else if width.is_compact() {
        let packed = contract_edges_compact(graphs, partition, &ctx.executor());
        Graph::from_packed_edge_multiset(parts, &packed)
    } else {
        let edges = contract_edges_wide(graphs, partition, &ctx.executor());
        Graph::from_edges_unchecked(parts, edges)
    }
}

/// The partition's labels in a flat compact-width table. The relabel passes
/// make two random lookups per edge, and halving the table's bytes (vs the
/// usize-backed `part_of`) keeps it cache-resident at the vertex counts
/// where they are hot. Caller must have negotiated [`TupleWidth::Compact`]
/// for `partition.num_parts()`, which makes the cast lossless.
fn compact_labels(partition: &Partition) -> Vec<u32> {
    partition
        .part_of_slice()
        .iter()
        .map(|&p| p as u32)
        .collect()
}

/// The dense-pair contraction: the sorted list of distinct contracted edges
/// `(a, b)`, `a < b`, read off a `parts × parts` bitmap in which every
/// relabelled non-loop edge set bit `a·parts + b` — ascending bit order *is*
/// the wide spec's lexicographic order. Each executor range fills a bitmap
/// of its own and the bitmaps are OR-ed together, so the split cannot show
/// in the result. Caller must keep `parts²` within [`DENSE_PAIR_BITS`].
fn contract_edges_dense(
    graphs: &[&Graph],
    partition: &Partition,
    executor: &Executor,
) -> Vec<(usize, usize)> {
    let parts = partition.num_parts();
    debug_assert!(parts * parts <= DENSE_PAIR_BITS);
    let words = (parts * parts).div_ceil(64);
    if words == 0 {
        return Vec::new();
    }
    let mut pairs = vec![0u64; words];
    let labels = compact_labels(partition);
    for g in graphs {
        let raw = g.edges();
        // One `words`-long bitmap per range, concatenated in range order.
        let per_range: Vec<u64> = executor.flat_map_ranges(raw.len(), |range| {
            let mut local = vec![0u64; words];
            for &(u, v) in &raw[range] {
                let (a, b) = (labels[u as usize] as usize, labels[v as usize] as usize);
                if a != b {
                    let bit = a.min(b) * parts + a.max(b);
                    local[bit / 64] |= 1 << (bit % 64);
                }
            }
            local
        });
        for local in per_range.chunks_exact(words) {
            for (acc, &w) in pairs.iter_mut().zip(local) {
                *acc |= w;
            }
        }
    }
    let mut edges = Vec::with_capacity(pairs.iter().map(|w| w.count_ones() as usize).sum());
    for (i, &word) in pairs.iter().enumerate() {
        let mut rest = word;
        while rest != 0 {
            let bit = i * 64 + rest.trailing_zeros() as usize;
            edges.push((bit / parts, bit % parts));
            rest &= rest - 1;
        }
    }
    edges
}

/// The compact contraction data plane's relabel pass: each surviving edge
/// becomes one `u64`-packed key, `(a << 32) | b` with `a ≤ b`, self-loops
/// dropped. The key **multiset** is returned in deterministic chunk order
/// but otherwise unsorted — sorting and deduplication happen inside
/// [`Graph::from_packed_edge_multiset`], bucketed per endpoint instead of
/// globally. No wide tuples are ever materialised. Caller must have
/// negotiated [`TupleWidth::Compact`] for `partition.num_parts()`.
fn contract_edges_compact(
    graphs: &[&Graph],
    partition: &Partition,
    executor: &Executor,
) -> Vec<u64> {
    let total_edges: usize = graphs.iter().map(|g| g.num_edges()).sum();
    let labels = compact_labels(partition);
    let mut packed: Vec<u64> = Vec::new();
    for (gi, g) in graphs.iter().enumerate() {
        let raw = g.edges();
        let chunk: Vec<u64> = executor.flat_map_ranges(raw.len(), |range| {
            raw[range]
                .iter()
                .filter_map(|&(u, v)| {
                    let a = labels[u as usize];
                    let b = labels[v as usize];
                    match a.cmp(&b) {
                        std::cmp::Ordering::Less => Some(pack_edge(a as usize, b as usize)),
                        std::cmp::Ordering::Greater => Some(pack_edge(b as usize, a as usize)),
                        std::cmp::Ordering::Equal => None,
                    }
                })
                .collect()
        });
        if gi == 0 {
            packed = chunk;
            packed.reserve(total_edges.saturating_sub(packed.len()));
        } else {
            packed.extend_from_slice(&chunk);
        }
    }
    packed
}

/// The wide contraction data plane, kept as the executable specification of
/// [`contract_edges_compact`] (differentially tested below) and the
/// fallback when the part count exceeds the compact identifier space.
fn contract_edges_wide(
    graphs: &[&Graph],
    partition: &Partition,
    executor: &Executor,
) -> Vec<(usize, usize)> {
    let total_edges: usize = graphs.iter().map(|g| g.num_edges()).sum();
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for (gi, g) in graphs.iter().enumerate() {
        let raw = g.edges();
        let chunk: Vec<(usize, usize)> = executor.flat_map_ranges(raw.len(), |range| {
            raw[range]
                .iter()
                .map(|&(u, v)| {
                    let (a, b) = (partition.part_of(u as usize), partition.part_of(v as usize));
                    if a <= b {
                        (a, b)
                    } else {
                        (b, a)
                    }
                })
                .filter(|&(a, b)| a != b)
                .collect()
        });
        if gi == 0 {
            edges = chunk;
            edges.reserve(total_edges.saturating_sub(edges.len()));
        } else {
            edges.extend_from_slice(&chunk);
        }
    }
    edges.sort_unstable();
    edges.dedup();
    edges
}

/// Per-phase statistics recorded by [`grow_components`] — the measurements
/// behind experiment E3 (quadratic growth) and the discrepancy drift the
/// proof of Lemma 6.7 tracks.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GrowPhaseStats {
    /// Phase index (1-based, as in the paper).
    pub phase: usize,
    /// The schedule degree `Δ_i` the phase targeted.
    pub target_degree: u64,
    /// Number of parts before the phase.
    pub parts_before: usize,
    /// Number of parts after the phase.
    pub parts_after: usize,
    /// Largest part size after the phase.
    pub max_part_size: usize,
    /// Median part size after the phase.
    pub median_part_size: usize,
    /// Mean degree of the contraction graph the phase worked on.
    pub mean_contraction_degree: f64,
    /// Leaders elected in the phase.
    pub leaders: usize,
    /// Non-leaders that found no leader neighbour.
    pub orphans: usize,
}

/// The outcome of the growth stage.
#[derive(Debug, Clone)]
pub struct GrowOutcome {
    /// The component-partition after the last phase (a refinement of the true
    /// components; usually much coarser than singletons).
    pub partition: Partition,
    /// Per-phase statistics.
    pub phases: Vec<GrowPhaseStats>,
}

/// `GrowComponents(G̃, Δ)` (Section 6.1): one leader-election phase per fresh
/// batch, with the degree schedule `Δ_i = Δ^{2^{i-1}}`.
///
/// `batches` are the edge batches `G̃_1, …, G̃_F` (all on the same vertex
/// set). The returned partition never merges vertices from different true
/// components of the union of the batches, because every merge follows an
/// actual edge.
///
/// # Errors
///
/// Returns [`CoreError::BadParams`] if the batches disagree on the vertex
/// count or there are none.
pub fn grow_components<R: Rng + ?Sized>(
    batches: &[Graph],
    params: &Params,
    ctx: &mut MpcContext,
    rng: &mut R,
) -> Result<GrowOutcome, CoreError> {
    let n = match batches.first() {
        Some(b) => b.num_vertices(),
        None => {
            return Err(CoreError::BadParams(
                "grow_components needs at least one batch".to_string(),
            ))
        }
    };
    if batches.iter().any(|b| b.num_vertices() != n) {
        return Err(CoreError::BadParams(
            "all batches must share one vertex set".to_string(),
        ));
    }
    ctx.begin_phase("grow-components");
    let schedule = params.degree_schedule(n);
    let s = params.s_factor(n) as f64;
    let mut partition = Partition::singletons(n);
    let mut phases = Vec::new();

    for (i, batch) in batches.iter().enumerate() {
        let target_degree = *schedule.get(i).unwrap_or(schedule.last().unwrap_or(&2));
        let h = contraction_graph(batch, &partition, ctx);
        let mean_degree = if h.num_vertices() == 0 {
            0.0
        } else {
            h.degree_sum() as f64 / h.num_vertices() as f64
        };
        // Leader probability 1/Δ_i, but never so small that the expected
        // number of leaders drops below a handful (the endgame picks up any
        // slack, exactly as the paper stops growing at Δ_F ≈ n^{1/100}).
        let leader_prob = (1.0 / target_degree as f64)
            .max(s / h.num_vertices().max(1) as f64)
            .min(1.0);
        let outcome = leader_election(&h, leader_prob, ctx, rng);
        partition = partition.coarsen(&outcome.group_of);

        let mut sizes = partition.part_sizes();
        sizes.sort_unstable();
        phases.push(GrowPhaseStats {
            phase: i + 1,
            target_degree,
            parts_before: h.num_vertices(),
            parts_after: partition.num_parts(),
            max_part_size: *sizes.last().unwrap_or(&0),
            median_part_size: sizes.get(sizes.len() / 2).copied().unwrap_or(0),
            mean_contraction_degree: mean_degree,
            leaders: outcome.num_leaders,
            orphans: outcome.orphans,
        });
    }
    ctx.end_phase();
    Ok(GrowOutcome { partition, phases })
}

/// The endgame (Claims 6.13 / 6.14): contract the *whole* graph `g` with
/// respect to `partition`, find the connected components of the contraction
/// with Liu–Tarjan's parent-connect + shortcut iteration (see
/// `parent_connect_components` in this module) and coarsen the partition
/// accordingly.
///
/// The result is exactly the component-partition of `g` (the endgame
/// finishes any merges the randomized phases left undone, so correctness
/// never depends on the probabilistic analysis). The second value is the
/// number of iterations the contraction needed, the one that found nothing
/// left to change included: `0` when every part was already a whole
/// component, two or three when the growth stage left an `O(1)`-diameter
/// contraction (Claim 6.13), about `log₂` of the contraction's diameter in
/// general.
pub fn finish_with_bfs(
    g: &Graph,
    partition: &Partition,
    ctx: &mut MpcContext,
) -> (Partition, usize) {
    finish_with_bfs_over_refs(&[g], partition, ctx)
}

/// [`finish_with_bfs`] on the disjoint union of `graphs` without ever
/// materialising the union: the endgame only reads the union through its
/// contraction, so [`contraction_graph_of_refs`] feeds the component search
/// directly. Rounds and words charged are identical to building the union
/// first: one sort over the total edge count, then what the iterations
/// exchange on the contraction.
///
/// (The name and the `"low-diameter-bfs"` phase date from the level-by-level
/// BFS this function used to run; callers and recorded statistics key on
/// both, so they stay.)
pub fn finish_with_bfs_over_refs(
    graphs: &[&Graph],
    partition: &Partition,
    ctx: &mut MpcContext,
) -> (Partition, usize) {
    ctx.begin_phase("low-diameter-bfs");
    let h = contraction_graph_of_refs(graphs, partition, ctx);
    let (parents, iterations) = parent_connect_components(&h, ctx);
    ctx.end_phase();
    (partition.coarsen(&parents), iterations)
}

/// Exact connected components of `h` by Liu–Tarjan's algorithm A
/// (arXiv:1812.06177): `O(log² k)` MPC rounds on `k` vertices in the worst
/// case, about `2·log₂ D` on the diameter-`D` graphs measured in DESIGN.md
/// §13. Every vertex starts as its own parent; one iteration is
///
/// 1. *parent-connect* over the live edges: for an edge `{v, w}` whose
///    endpoints' parents differ, the larger parent takes the smaller one as
///    its own parent if that is below the parent it has
///    (`v.p.p ← min(v.p.p, w.p)`), every read seeing the parents as they
///    stood before the step;
/// 2. *shortcut*: `v.p ← v.p.p` for every vertex;
/// 3. *alter*: every live edge is lifted to its endpoints' parents, loops are
///    dropped and parallel edges deduplicated.
///
/// The loop ends with the first iteration that changes no parent; the forest
/// is then flat and `parents[v]` is the smallest vertex of `v`'s component.
/// Returns the parents and the number of iterations run.
///
/// Parents only ever decrease, which rules out cycles. Linking the *parents*
/// is what keeps the iteration count logarithmic under every vertex
/// numbering: minimum-label propagation with pointer jumping needs `Θ(k)`
/// iterations on a path whose ids are shuffled (table in DESIGN.md §13).
///
/// Charging follows `wcc_baselines::shiloach_vishkin`: one shuffle of
/// `2·live_edges` words per parent-connect and one shuffle of `k` words per
/// shortcut — the last one, which moves no pointer, included, since that
/// exchange is how the machines learn nothing moved. Alter has no exchange
/// of its own: the parent lookup of the next connect delivers the lifted
/// endpoints. An exchange is skipped only when it provably moves nothing — no
/// live edge, no connect; an edgeless `h`, nothing at all.
pub(crate) fn parent_connect_components(h: &Graph, ctx: &mut MpcContext) -> (Vec<usize>, usize) {
    let k = h.num_vertices();
    let mut parent: Vec<usize> = (0..k).collect();
    let mut live: Vec<(usize, usize)> = h.edge_iter().collect();
    // `h` may be any multigraph: under identity parents the first alter only
    // normalises its edge list.
    alter(&mut live, &parent);
    let mut iterations = 0;
    let mut settled = live.is_empty();
    let (mut before, mut linked) = (Vec::new(), Vec::new());
    while !settled {
        iterations += 1;
        before.clone_from(&parent);
        if !live.is_empty() {
            ctx.charge_shuffle(2 * live.len());
            for &(v, w) in &live {
                let (lo, hi) = (before[v].min(before[w]), before[v].max(before[w]));
                if lo < parent[hi] {
                    parent[hi] = lo;
                }
            }
        }
        ctx.charge_shuffle(k);
        // One exchange moves every pointer exactly one hop, so jump through
        // the parents as they stand after the connect, not through entries
        // this pass has already rewritten.
        linked.clone_from(&parent);
        for p in &mut parent {
            *p = linked[*p];
        }
        settled = parent == before;
        alter(&mut live, &parent);
    }
    (parent, iterations)
}

/// The alter step of [`parent_connect_components`]: lifts every edge to its
/// endpoints' parents (smaller first), drops loops and deduplicates.
fn alter(live: &mut Vec<(usize, usize)>, parent: &[usize]) {
    for e in live.iter_mut() {
        let (a, b) = (parent[e.0], parent[e.1]);
        *e = (a.min(b), a.max(b));
    }
    live.retain(|&(a, b)| a != b);
    live.sort_unstable();
    live.dedup();
}

/// Convenience: the exact connected components of a union of random batches,
/// i.e. `grow_components` followed by [`finish_with_bfs`] on the union —
/// Lemma 6.2 / Lemma 6.1 packaged together.
///
/// # Errors
///
/// Propagates [`CoreError`] from [`grow_components`].
pub fn components_of_random_union<R: Rng + ?Sized>(
    batches: &[Graph],
    params: &Params,
    ctx: &mut MpcContext,
    rng: &mut R,
) -> Result<(ComponentLabels, GrowOutcome, usize), CoreError> {
    let grow = grow_components(batches, params, ctx, rng)?;
    let refs: Vec<&Graph> = batches.iter().collect();
    let (final_partition, bfs_levels) = finish_with_bfs_over_refs(&refs, &grow.partition, ctx);
    Ok((final_partition.to_component_labels(), grow, bfs_levels))
}

/// Disjoint-edge-set union of batches sharing a vertex set.
pub fn union_of(batches: &[Graph]) -> Graph {
    union_of_refs(&batches.iter().collect::<Vec<_>>())
}

/// Like [`union_of`] but over borrowed graphs, so callers can union batches
/// with another graph (the pipeline's exact endgame adds the regularized
/// graph itself) without cloning anything.
pub fn union_of_refs(batches: &[&Graph]) -> Graph {
    let n = batches.first().map_or(0, |g| g.num_vertices());
    let total_edges: usize = batches.iter().map(|g| g.num_edges()).sum();
    let mut builder = GraphBuilder::with_capacity(n, total_edges);
    for b in batches {
        for (u, v) in b.edge_iter() {
            builder.add_edge(u, v).expect("batch edges in range");
        }
    }
    builder.build()
}

/// Sanity helper used by tests and experiments: `true` iff `partition` never
/// merges two vertices that lie in different components of `g`.
pub fn respects_components(g: &Graph, partition: &Partition) -> bool {
    partition.respects(&components::connected_components(g))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use wcc_graph::prelude::*;
    use wcc_mpc::{unpack_edge, MpcConfig};

    fn ctx() -> MpcContext {
        ctx_on(1)
    }

    fn ctx_on(threads: usize) -> MpcContext {
        MpcContext::new(
            MpcConfig::for_input_size(1 << 16, 0.5)
                .permissive()
                .with_threads(threads),
        )
    }

    /// Every field of the two graphs equal: vertex count, edge list, CSR
    /// offsets and CSR adjacency.
    fn assert_same_graph(got: &Graph, want: &Graph, what: &str) {
        assert_eq!(got.num_vertices(), want.num_vertices(), "{what}: vertices");
        assert_eq!(got.edges(), want.edges(), "{what}: edge list");
        assert_eq!(got.csr_offsets(), want.csr_offsets(), "{what}: offsets");
        assert_eq!(
            got.csr_adjacency(),
            want.csr_adjacency(),
            "{what}: adjacency"
        );
    }

    /// One contraction request through every data plane that admits it —
    /// each called directly, whatever the switch would pick — and through
    /// the public entry point, all against the wide spec, on 1, 2 and 8
    /// threads.
    fn check_contraction_paths(refs: &[&Graph], part: &Partition) {
        let parts = part.num_parts();
        for threads in [1usize, 2, 8] {
            let what = format!("parts={parts}, threads={threads}");
            let executor = Executor::threaded(threads);
            let spec =
                Graph::from_edges_unchecked(parts, contract_edges_wide(refs, part, &executor));
            let bucketed = Graph::from_packed_edge_multiset(
                parts,
                &contract_edges_compact(refs, part, &executor),
            );
            assert_same_graph(&bucketed, &spec, &format!("bucketed, {what}"));
            if parts * parts <= DENSE_PAIR_BITS {
                let dense =
                    Graph::from_edges_unchecked(parts, contract_edges_dense(refs, part, &executor));
                assert_same_graph(&dense, &spec, &format!("dense, {what}"));
            }
            if refs.len() == 1 && part.is_identity() {
                assert_same_graph(&refs[0].simple(), &spec, &format!("identity, {what}"));
            }
            let mut c = ctx_on(threads);
            let dispatched = contraction_graph_of_refs(refs, part, &mut c);
            assert_same_graph(&dispatched, &spec, &format!("dispatched, {what}"));
        }
    }

    /// Strategy: up to three multigraphs on one vertex set (self-loops and
    /// parallel edges included; enough edges that 8 threads split them into
    /// several ranges) and a random labelling of the vertices.
    fn arb_contraction() -> impl Strategy<Value = (Vec<Graph>, Partition)> {
        (1usize..70, 1usize..4).prop_flat_map(|(n, refs)| {
            let graphs = proptest::collection::vec(
                proptest::collection::vec((0..n, 0..n), 0..700)
                    .prop_map(move |edges| Graph::from_edges_unchecked(n, edges)),
                refs..refs + 1,
            );
            let labels = (1..n + 1)
                .prop_flat_map(move |max_label| proptest::collection::vec(0..max_label, n..n + 1));
            (graphs, labels)
                .prop_map(|(graphs, labels)| (graphs, Partition::from_raw_labels(&labels)))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn dense_bucketed_identity_and_wide_contractions_agree(request in arb_contraction()) {
            let (graphs, part) = request;
            let refs: Vec<&Graph> = graphs.iter().collect();
            check_contraction_paths(&refs, &part);
            // The same graphs under the identity and under one all-covering
            // part (every edge a loop of the contraction).
            let n = part.len();
            check_contraction_paths(&refs, &Partition::singletons(n));
            check_contraction_paths(&refs[..1], &Partition::singletons(n));
            check_contraction_paths(&refs, &Partition::from_raw_labels(&vec![0; n]));
        }

        #[test]
        fn endgame_matches_both_oracles_on_arbitrary_requests(request in arb_contraction()) {
            let (graphs, part) = request;
            let refs: Vec<&Graph> = graphs.iter().collect();
            check_endgame(&refs, &part);
            check_endgame(&refs, &Partition::singletons(part.len()));
        }
    }

    #[test]
    fn contraction_paths_agree_on_both_sides_of_the_dense_switch() {
        // 4096² = DENSE_PAIR_BITS exactly: 4095 and 4096 parts take the
        // bitmap, 4097 the bucketed build.
        assert_eq!(4096 * 4096, DENSE_PAIR_BITS);
        let n = 5000;
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let g1 = generators::random_out_degree_graph(n, 3, &mut rng);
        let g2 = Graph::from_edges_unchecked(n, (0..n).map(|v| (v, (7 * v + 1) % n)));
        for parts in [4095usize, 4096, 4097] {
            let mut labels: Vec<usize> = (0..n).map(|v| v % parts).collect();
            labels.shuffle(&mut rng);
            let part = Partition::from_raw_labels(&labels);
            assert_eq!(part.num_parts(), parts);
            check_contraction_paths(&[&g1, &g2], &part);
        }
    }

    #[test]
    fn contraction_of_loop_only_and_empty_graphs_is_edgeless() {
        let loops = Graph::from_edges_unchecked(5, (0..5).map(|v| (v, v)));
        let empty = Graph::empty(5);
        for part in [
            Partition::singletons(5),
            Partition::from_raw_labels(&[0, 1, 0, 1, 2]),
            Partition::from_raw_labels(&[0; 5]),
        ] {
            check_contraction_paths(&[&loops], &part);
            check_contraction_paths(&[&empty], &part);
            check_contraction_paths(&[&loops, &empty], &part);
            let h = contraction_graph(&loops, &part, &mut ctx());
            assert_eq!((h.num_vertices(), h.num_edges()), (part.num_parts(), 0));
        }
        // No vertices at all: zero parts, zero bitmap words.
        check_contraction_paths(&[&Graph::empty(0)], &Partition::singletons(0));
    }

    #[test]
    fn identity_shortcut_is_for_the_identity_labelling_only() {
        let mut rng = ChaCha8Rng::seed_from_u64(43);
        let g = generators::random_out_degree_graph(300, 4, &mut rng).with_self_loops(1);
        assert!(Partition::singletons(300).is_identity());
        check_contraction_paths(&[&g], &Partition::singletons(300));
        // Singleton parts under a permuted labelling: same part count, but
        // the contraction relabels every edge, so `simple()` is the wrong
        // graph and must not be what comes back.
        let mut labels: Vec<usize> = (0..300).collect();
        labels.shuffle(&mut rng);
        let permuted = Partition::from_part_of(labels, 300);
        assert!(!permuted.is_identity());
        check_contraction_paths(&[&g], &permuted);
        let h = contraction_graph(&g, &permuted, &mut ctx());
        assert_ne!(h.edges(), g.simple().edges());
        // Coarser partitions are never the identity either.
        assert!(!Partition::from_raw_labels(&[0, 0, 1]).is_identity());
    }

    #[test]
    #[should_panic(
        expected = "a graph on 12 vertices cannot be contracted by a partition of 10 vertices"
    )]
    fn contraction_rejects_a_graph_on_another_vertex_set() {
        let part = Partition::singletons(10);
        let (fits, too_big) = (generators::cycle(10), generators::cycle(12));
        let _ = contraction_graph_of_refs(&[&fits, &too_big], &part, &mut ctx());
    }

    fn batches_for(n: usize, degree: usize, count: usize, rng: &mut ChaCha8Rng) -> Vec<Graph> {
        (0..count)
            .map(|_| generators::random_out_degree_graph(n, degree, rng))
            .collect()
    }

    #[test]
    fn leader_election_partitions_all_vertices() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let h = generators::random_out_degree_graph(500, 40, &mut rng);
        let mut c = ctx();
        let out = leader_election(&h, 1.0 / 10.0, &mut c, &mut rng);
        assert_eq!(out.group_of.len(), 500);
        assert_eq!(
            out.num_groups,
            *out.group_of.iter().max().unwrap() + 1,
            "group ids must be contiguous"
        );
        assert!(out.num_leaders > 10);
        // With degree ~40 and leader probability 1/10 orphans are rare.
        assert!(out.orphans < 25, "too many orphans: {}", out.orphans);
        // Groups are stars around leaders: every group is a component of H.
        let part = Partition::from_raw_labels(&out.group_of);
        assert!(respects_components(&h, &part));
    }

    #[test]
    fn leader_election_with_probability_one_keeps_singletons() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let h = generators::cycle(20);
        let mut c = ctx();
        let out = leader_election(&h, 1.0, &mut c, &mut rng);
        assert_eq!(out.num_groups, 20);
        assert_eq!(out.num_leaders, 20);
    }

    #[test]
    fn leader_election_grows_stars_of_expected_size() {
        // Equipartition Lemma 6.4 (qualitatively): on a d·s-regular random
        // graph with leader probability 1/d, star sizes concentrate around d.
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let d = 8usize;
        let s = 16usize;
        let h = generators::random_out_degree_graph(4000, d * s, &mut rng);
        let mut c = ctx();
        let out = leader_election(&h, 1.0 / d as f64, &mut c, &mut rng);
        let part = Partition::from_raw_labels(&out.group_of);
        let sizes = part.part_sizes();
        let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        assert!(
            (mean - d as f64).abs() < 0.5 * d as f64,
            "mean star size {mean}, expected about {d}"
        );
        assert!(
            out.orphans == 0,
            "orphans on a dense random graph: {}",
            out.orphans
        );
    }

    #[test]
    fn contraction_graph_drops_loops_and_parallels() {
        let g =
            Graph::from_edges_unchecked(6, vec![(0, 1), (1, 2), (3, 4), (4, 5), (2, 3), (0, 2)]);
        let part = Partition::from_raw_labels(&[0, 0, 0, 1, 1, 1]);
        let mut c = ctx();
        let h = contraction_graph(&g, &part, &mut c);
        assert_eq!(h.num_vertices(), 2);
        assert_eq!(
            h.num_edges(),
            1,
            "parallel contracted edges must be deduplicated"
        );
        assert!(!h.has_self_loops());
    }

    #[test]
    fn compact_contraction_matches_wide_spec() {
        // The u64-packed path (relabel to an unsorted key multiset, then
        // the bucket-by-endpoint graph build) and the wide (usize, usize)
        // spec (global sort + dedup) must produce identical graphs on the
        // same inputs, across thread counts, graph shapes and seeds.
        for threads in [1usize, 2, 8] {
            let executor = Executor::threaded(threads);
            for seed in [3u64, 11, 29] {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let g1 = generators::planted_expander_components(&[90, 70], 6, &mut rng);
                let g2 = generators::random_out_degree_graph(160, 5, &mut rng);
                let labels: Vec<usize> = (0..160).map(|v| v % 37).collect();
                let part = Partition::from_raw_labels(&labels);
                let refs = [&g1, &g2];
                let packed = contract_edges_compact(&refs, &part, &executor);
                {
                    let mut sorted = packed.clone();
                    sorted.sort_unstable();
                    sorted.dedup();
                    let unpacked: Vec<(usize, usize)> =
                        sorted.iter().map(|&k| unpack_edge(k)).collect();
                    let wide = contract_edges_wide(&refs, &part, &executor);
                    assert_eq!(
                        unpacked, wide,
                        "compact/wide divergence at threads={threads}, seed={seed}"
                    );
                }
                let compact_graph = Graph::from_packed_edge_multiset(part.num_parts(), &packed);
                let wide_graph = Graph::from_edges_unchecked(
                    part.num_parts(),
                    contract_edges_wide(&refs, &part, &executor),
                );
                assert_eq!(
                    compact_graph.edges(),
                    wide_graph.edges(),
                    "bucket-build/wide edge divergence at threads={threads}, seed={seed}"
                );
                for v in 0..part.num_parts() {
                    assert_eq!(
                        compact_graph.neighbors(v),
                        wide_graph.neighbors(v),
                        "adjacency row divergence at v={v}, threads={threads}, seed={seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn contraction_negotiates_compact_width_for_graph_scale_parts() {
        // Any partition a (u32, u32)-backed Graph can produce fits the
        // compact identifier space; the byte column of the charged sort
        // reflects the packed-u64 representation.
        let g = Graph::from_edges_unchecked(4, vec![(0, 1), (2, 3)]);
        let part = Partition::from_raw_labels(&[0, 0, 1, 1]);
        assert!(TupleWidth::negotiate(part.num_parts()).is_compact());
        let mut c = ctx();
        c.begin_phase("contract");
        let h = contraction_graph(&g, &part, &mut c);
        c.end_phase();
        assert_eq!(h.num_vertices(), 2);
        let stats = c.into_stats();
        let words = stats.total_communication_words();
        assert_eq!(
            stats.shuffled_bytes_in_phase("contract"),
            words * TupleWidth::Compact.edge_bytes() as u64,
            "compact contraction must charge 8 bytes per sorted item-word"
        );
    }

    #[test]
    fn grow_components_squares_part_sizes_per_phase() {
        // E3 in miniature: with batches of degree Δ·s and the schedule
        // Δ, Δ², …, the max part size should grow super-linearly per phase.
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let params = Params::laptop_scale();
        let n = 6000;
        let degree = params.batch_degree(n);
        let f = params.num_phases(n);
        let batches = batches_for(n, degree, f, &mut rng);
        let mut c = ctx();
        let grow = grow_components(&batches, &params, &mut c, &mut rng).unwrap();
        assert_eq!(grow.phases.len(), f);
        // Sizes grow phase over phase, and by more than a constant factor.
        let sizes: Vec<usize> = grow.phases.iter().map(|p| p.median_part_size).collect();
        assert!(
            sizes.windows(2).all(|w| w[1] >= w[0]),
            "median part sizes must be monotone: {sizes:?}"
        );
        let growth_first = grow.phases[0].median_part_size.max(1);
        let growth_last = grow.phases.last().unwrap().median_part_size;
        assert!(
            growth_last >= growth_first * growth_first / 2,
            "expected roughly quadratic growth, got {growth_first} -> {growth_last}"
        );
        // Safety: never merges across true components.
        let union = union_of(&batches);
        assert!(respects_components(&union, &grow.partition));
    }

    #[test]
    fn grow_components_rejects_mismatched_batches() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let params = Params::test_scale();
        let mut c = ctx();
        let batches = vec![generators::cycle(10), generators::cycle(12)];
        assert!(matches!(
            grow_components(&batches, &params, &mut c, &mut rng),
            Err(CoreError::BadParams(_))
        ));
        let empty: Vec<Graph> = Vec::new();
        assert!(matches!(
            grow_components(&empty, &params, &mut c, &mut rng),
            Err(CoreError::BadParams(_))
        ));
    }

    #[test]
    fn finish_with_bfs_recovers_exact_components() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let g = generators::planted_expander_components(&[80, 60, 40], 8, &mut rng);
        let truth = connected_components(&g);
        let mut c = ctx();
        // Start from singletons: the endgame alone must still find the exact
        // answer (just in log-diameter many iterations).
        let (part, iterations) =
            finish_with_bfs(&g, &Partition::singletons(g.num_vertices()), &mut c);
        assert!(part.equals_components(&truth));
        assert!(iterations >= 1);
    }

    /// Algorithm A as Liu–Tarjan state it, one edge and one vertex at a
    /// time, counting what it exchanges: the reference for both the result
    /// and the charging convention of [`parent_connect_components`].
    /// Returns `(parents, iterations, exchanges, words)`.
    fn algorithm_a_spec(h: &Graph) -> (Vec<usize>, usize, u64, u64) {
        use std::collections::BTreeSet;
        let k = h.num_vertices();
        let mut p: Vec<usize> = (0..k).collect();
        let mut edges: BTreeSet<(usize, usize)> = h
            .edge_iter()
            .filter(|&(v, w)| v != w)
            .map(|(v, w)| (v.min(w), v.max(w)))
            .collect();
        let (mut iterations, mut exchanges, mut words) = (0usize, 0u64, 0u64);
        if edges.is_empty() {
            return (p, iterations, exchanges, words);
        }
        loop {
            iterations += 1;
            let at_start = p.clone();
            if !edges.is_empty() {
                exchanges += 1;
                words += 2 * edges.len() as u64;
                let o = p.clone();
                for &(v, w) in &edges {
                    if o[v] > o[w] {
                        p[o[v]] = p[o[v]].min(o[w]);
                    } else {
                        p[o[w]] = p[o[w]].min(o[v]);
                    }
                }
            }
            exchanges += 1;
            words += k as u64;
            let o = p.clone();
            for v in 0..k {
                p[v] = o[o[v]];
            }
            edges = edges
                .iter()
                .filter(|&&(v, w)| p[v] != p[w])
                .map(|&(v, w)| (p[v].min(p[w]), p[v].max(p[w])))
                .collect();
            if p == at_start {
                return (p, iterations, exchanges, words);
            }
        }
    }

    /// Runs the endgame on `graphs` under `part` at 1, 2 and 8 threads and
    /// checks the result against `connected_components` and
    /// `shiloach_vishkin` — both on the union with every part's members
    /// chained together, which is the union itself whenever `part` respects
    /// its components — and the iterations, rounds and words against
    /// [`algorithm_a_spec`] on the contraction. Returns the iteration count
    /// and the exchanges charged past the contraction's sort.
    fn check_endgame(graphs: &[&Graph], part: &Partition) -> (usize, u64) {
        let mut glued: Vec<(usize, usize)> = graphs.iter().flat_map(|g| g.edge_iter()).collect();
        for members in part.members() {
            glued.extend(members.windows(2).map(|w| (w[0], w[1])));
        }
        let glued = Graph::from_edges_unchecked(part.len(), glued);
        let truth = connected_components(&glued);
        let sv = wcc_baselines::shiloach_vishkin(&glued, &mut ctx());

        let mut sort_only = ctx();
        let h = contraction_graph_of_refs(graphs, part, &mut sort_only);
        let (spec_parents, spec_iterations, spec_exchanges, spec_words) = algorithm_a_spec(&h);
        let sort_only = sort_only.into_stats();

        for threads in [1usize, 2, 8] {
            let mut c = ctx_on(threads);
            let (finished, iterations) = finish_with_bfs_over_refs(graphs, part, &mut c);
            assert!(
                finished.equals_components(&truth),
                "vs connected_components"
            );
            assert!(finished.equals_components(&sv), "vs shiloach_vishkin");
            assert_eq!(finished, part.coarsen(&spec_parents), "vs algorithm A");
            assert_eq!(iterations, spec_iterations, "iterations, threads={threads}");
            let stats = c.into_stats();
            assert_eq!(
                stats.rounds_in_phase("low-diameter-bfs"),
                stats.total_rounds(),
                "every charge lands in the endgame's phase"
            );
            assert_eq!(
                stats.total_rounds() - sort_only.total_rounds(),
                spec_exchanges,
                "rounds charged == exchanges executed, threads={threads}"
            );
            assert_eq!(
                stats.total_communication_words() - sort_only.total_communication_words(),
                spec_words,
                "words charged == words exchanged, threads={threads}"
            );
        }
        (spec_iterations, spec_exchanges)
    }

    /// The four vertex numberings the endgame is pinned under, as maps from
    /// the generator's id to the new one.
    fn id_orders(n: usize, rng: &mut ChaCha8Rng) -> [(&'static str, Vec<usize>); 4] {
        let mut shuffled: Vec<usize> = (0..n).collect();
        shuffled.shuffle(rng);
        [
            ("monotone", (0..n).collect()),
            ("reversed", (0..n).rev().collect()),
            (
                "zig-zag",
                (0..n)
                    .map(|v| if v % 2 == 0 { v / 2 } else { n - 1 - v / 2 })
                    .collect(),
            ),
            ("shuffled", shuffled),
        ]
    }

    fn renumbered(g: &Graph, order: &[usize]) -> Graph {
        Graph::from_edges_unchecked(
            g.num_vertices(),
            g.edge_iter().map(|(u, v)| (order[u], order[v])),
        )
    }

    #[test]
    fn endgame_matches_both_oracles_across_families_partitions_and_id_orders() {
        let mut rng = ChaCha8Rng::seed_from_u64(61);
        let zoo = [
            ("path", generators::path(97)),
            ("cycle", generators::cycle(64)),
            ("binary_tree", generators::binary_tree(127)),
            ("star", generators::star(50)),
            ("ring_of_cliques", generators::ring_of_cliques(12, 5)),
            ("grid", generators::grid(7, 9)),
            // ln(200)/200 ≈ 0.026 is the connectivity threshold.
            ("er_below", generators::erdos_renyi(200, 0.004, &mut rng)),
            ("er_above", generators::erdos_renyi(200, 0.05, &mut rng)),
            (
                "multigraph",
                Graph::from_edges_unchecked(
                    10,
                    vec![
                        (0, 0),
                        (0, 1),
                        (1, 0),
                        (0, 1),
                        (2, 3),
                        (3, 3),
                        (3, 2),
                        (4, 5),
                        (5, 6),
                        (6, 4),
                        (6, 4),
                        (8, 8),
                    ],
                ),
            ),
        ];
        for (family, g) in &zoo {
            let n = g.num_vertices();
            for (order_name, order) in id_orders(n, &mut rng) {
                let g = renumbered(g, &order);
                let truth = connected_components(&g);
                let refinement: Vec<usize> = (0..n)
                    .map(|v| 4 * truth.label(v) + rng.gen_range(0..4))
                    .collect();
                let what = format!("{family}, {order_name} ids");

                let (iterations, exchanges) = check_endgame(&[&g], &Partition::singletons(n));
                assert_eq!(iterations == 0, g.simple().num_edges() == 0, "{what}");
                assert!(exchanges <= 2 * iterations as u64, "{what}");
                check_endgame(&[&g], &Partition::from_raw_labels(&refinement));
                // Every part already a whole component: nothing is exchanged.
                let done = check_endgame(&[&g], &Partition::from_raw_labels(truth.labels()));
                assert_eq!(done, (0, 0), "{what}, final partition");
            }
        }
    }

    #[test]
    fn endgame_iterations_are_logarithmic_for_every_id_order() {
        // Minimum-label propagation with pointer jumping passes this on
        // monotone ids and needs thousands of iterations on shuffled ones;
        // parent-connect stays within log₂ k + 3 under all four.
        let mut rng = ChaCha8Rng::seed_from_u64(67);
        for log_k in [8u32, 12, 16] {
            let k = 1usize << log_k;
            for (family, g) in [
                ("path", generators::path(k)),
                ("cycle", generators::cycle(k)),
            ] {
                for (order_name, order) in id_orders(k, &mut rng) {
                    let g = renumbered(&g, &order);
                    let (part, iterations) =
                        finish_with_bfs(&g, &Partition::singletons(k), &mut ctx());
                    assert_eq!(part.num_parts(), 1);
                    assert!(
                        iterations <= (crate::walks::ceil_log2(k) + 3) as usize,
                        "{family} on {k} vertices, {order_name} ids: {iterations} iterations"
                    );
                }
            }
        }
    }

    #[test]
    fn endgame_on_a_star_is_connect_shortcut_and_one_quiet_shortcut() {
        // Claim 6.13's O(1)-diameter case.
        let g = generators::star(100);
        let (iterations, exchanges) = check_endgame(&[&g], &Partition::singletons(100));
        assert_eq!((iterations, exchanges), (2, 3));
    }

    #[test]
    fn endgame_exchanges_nothing_on_an_edgeless_contraction() {
        let mut rng = ChaCha8Rng::seed_from_u64(71);
        let g = generators::planted_expander_components(&[40, 30, 20], 6, &mut rng);
        let truth = connected_components(&g);
        let done = Partition::from_raw_labels(truth.labels());
        for (graph, part) in [
            (&g, &done),
            (&Graph::empty(5), &Partition::singletons(5)),
            (&Graph::empty(0), &Partition::singletons(0)),
        ] {
            // Zero exchanges past the contraction's sort.
            assert_eq!(check_endgame(&[graph], part), (0, 0));
        }
    }

    #[test]
    fn components_of_random_union_matches_ground_truth() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let params = Params::laptop_scale();
        let n = 1500;
        let degree = params.batch_degree(n);
        let f = params.num_phases(n);
        let batches = batches_for(n, degree, f, &mut rng);
        let mut c = ctx();
        let (labels, _grow, bfs_levels) =
            components_of_random_union(&batches, &params, &mut c, &mut rng).unwrap();
        let truth = connected_components(&union_of(&batches));
        assert!(labels.same_partition(&truth));
        // The endgame on a dense random union must be very shallow.
        assert!(bfs_levels <= 4, "endgame took {bfs_levels} iterations");
    }

    #[test]
    fn grow_components_round_cost_is_constant_per_phase() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let params = Params::laptop_scale();
        let n = 2000;
        let degree = params.batch_degree(n);
        let f = params.num_phases(n);
        let batches = batches_for(n, degree, f, &mut rng);
        let mut c = ctx();
        let _ = grow_components(&batches, &params, &mut c, &mut rng).unwrap();
        let rounds = c.stats().rounds_in_phase("grow-components");
        // A constant number of shuffles/sorts per phase; generous bound.
        assert!(
            rounds <= 8 * f as u64,
            "{rounds} rounds for {f} phases is not O(1) per phase"
        );
    }

    #[test]
    fn union_respects_vertex_set() {
        let a = generators::cycle(10);
        let b = generators::path(10);
        let u = union_of(&[a.clone(), b.clone()]);
        assert_eq!(u.num_vertices(), 10);
        assert_eq!(u.num_edges(), a.num_edges() + b.num_edges());
    }
}
