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
//! endgame here ([`finish_with_bfs_over`]) iterates Liu–Tarjan's
//! parent-connect and shortcut steps instead: three exchanges on a
//! constant-diameter contraction, about `2·log₂ D` otherwise, exact either
//! way (DESIGN.md §13).

use crate::params::Params;
use crate::regularize::CoreError;

use rand::{Rng, SeedableRng};
use rand_chacha::{ChaCha8Batch, ChaCha8Rng};
use serde::{Deserialize, Serialize};
use wcc_graph::{
    counting_contraction, ComponentLabels, EdgeSource, Graph, GraphBuilder, Partition,
};
use wcc_mpc::{derive_stream_seed, Executor, MpcContext};

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
/// count. The coins are drawn sixteen streams per batched keystream refill;
/// every coin is the one the vertex's own `ChaCha8Rng` would draw.
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
    let is_leader = leader_coins(k, p, coin_base, &executor);
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

/// Vertices whose leader coins one batched keystream refill draws.
const COIN_LANES: usize = 16;

/// The leader coins of vertices `0..k`: vertex `v`'s coin is
/// `ChaCha8Rng::seed_from_u64(derive_stream_seed(coin_base, v)).gen_bool(p)`.
/// `gen_bool` reads one `u64`, words 0 and 1 of the stream's first block, so
/// a [`ChaCha8Batch`] of [`COIN_LANES`] streams yields every lane's coin from
/// one refill with no word moved; the last `k mod COIN_LANES` vertices take
/// the scalar form.
///
/// # Panics
///
/// Panics if `p` is not in `[0, 1]`.
fn leader_coins(k: usize, p: f64, coin_base: u64, executor: &Executor) -> Vec<bool> {
    /// Hands `gen_bool` the one word it reads.
    struct Drawn(u64);
    impl rand::RngCore for Drawn {
        fn next_u32(&mut self) -> u32 {
            unreachable!("gen_bool reads one u64")
        }
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }
    let seed = |v: usize| derive_stream_seed(coin_base, v as u64);
    executor.flat_map_ranges(k.div_ceil(COIN_LANES), |groups| {
        let mut coins = Vec::with_capacity(groups.len() * COIN_LANES);
        let mut block = [[0u32; COIN_LANES]; 16];
        for first in groups.map(|g| g * COIN_LANES) {
            if first + COIN_LANES <= k {
                let seeds: [u64; COIN_LANES] = std::array::from_fn(|l| seed(first + l));
                ChaCha8Batch::<COIN_LANES>::seed_from_u64s(&seeds).refill(&mut block);
                coins.extend((0..COIN_LANES).map(|l| {
                    let word = u64::from(block[1][l]) << 32 | u64::from(block[0][l]);
                    Drawn(word).gen_bool(p)
                }));
            } else {
                coins.extend((first..k).map(|v| ChaCha8Rng::seed_from_u64(seed(v)).gen_bool(p)));
            }
        }
        coins
    })
}

/// Builds the contraction graph (Definition 2) of `g` with respect to
/// `partition`: one vertex per part, one edge per pair of parts joined by at
/// least one edge of `g` (no self-loops, no parallel edges).
///
/// Charges one sort over the edge list (contract + dedup). See
/// [`contraction_graph_of_refs`] for the data-plane layout.
pub fn contraction_graph(g: &Graph, partition: &Partition, ctx: &mut MpcContext) -> Graph {
    contraction_graph_of_refs(&[EdgeSource::Graph(g)], partition, ctx)
}

/// Ceiling on `parts²` for the dense-pair contraction: one bit per ordered
/// pair of parts, of which every edge sets one at random, must fit 2 MiB —
/// one core's L2 on the hosts this was tuned on. Past it — 4096 parts — the
/// counting build takes over.
const DENSE_PAIR_BITS: usize = 1 << 24;

/// [`contraction_graph`] over the disjoint edge-set union of `sources`
/// (all on `partition`'s vertex set) **without materialising the union**:
/// the contraction only needs to see every edge once, so building the
/// union's CSR (the single largest allocation of the old endgame) is pure
/// waste. A source is a [`Graph`] or a random batch as the walks wrote it,
/// an [`EndpointTable`](wcc_graph::EndpointTable) of `n·w` endpoints that
/// is never built as a graph ([`EdgeSource`]); both builds below read
/// either kind.
///
/// Both builds make the same graph — the one the `(usize, usize)` sort and
/// dedup of this module's test oracle defines: sorted distinct rows,
/// row-major edge list. Which one runs depends only on the part count:
///
/// * `parts² ≤` `DENSE_PAIR_BITS`: `contract_edges_dense` streams the
///   edges once into a pair bitmap and reads the sorted distinct edge list
///   off the set bits — millions of edges collapsing onto a few hundred
///   pairs never exist as tuples;
/// * otherwise [`counting_contraction`] fills every part's row in
///   ascending order from a counting and a filling pass over each part's
///   neighbour parts, with no comparison sort. Under the identity
///   partition (phase 1 of [`grow_components_over`]) it reads the sources
///   in place and relabels nothing.
///
/// Part ids fit a `u32`: the part count is at most the vertex count, and
/// the `(u32, u32)`-backed [`Graph`] reaches past `2^32` vertices only
/// through isolated ones, whose CSR offsets alone would take 32 GiB. The
/// function asserts that invariant once, which is what lets both builds
/// carry `u32` labels.
///
/// Charges one sort over the *total* edge count, exactly what one call on
/// the materialised union charged — whichever build then does the grouping
/// work the charged sort models (the same convention as the
/// identity-shuffle short circuit). The bitmap pass fans out over
/// contiguous edge chunks on the context's backend and ORs the chunks'
/// bitmaps, which erases the chunk order; the counting build is
/// sequential.
///
/// # Panics
///
/// Panics if a source's vertex count differs from the partition's, or if
/// the part count exceeds the `u32` id space.
pub fn contraction_graph_of_refs(
    sources: &[EdgeSource<'_>],
    partition: &Partition,
    ctx: &mut MpcContext,
) -> Graph {
    for src in sources {
        assert_eq!(
            src.num_vertices(),
            partition.len(),
            "contraction_graph_of_refs: a graph on {} vertices cannot be contracted by a \
             partition of {} vertices",
            src.num_vertices(),
            partition.len(),
        );
    }
    let total_edges: usize = sources.iter().map(EdgeSource::num_edges).sum();
    let parts = partition.num_parts();
    assert!(
        parts as u64 <= u64::from(u32::MAX) + 1,
        "contraction_graph_of_refs: {parts} parts break the u32 id-space invariant \
         (part ids must fit a u32)"
    );
    ctx.charge_sort(total_edges.max(1));
    if parts * parts <= DENSE_PAIR_BITS {
        let edges = contract_edges_dense(sources, partition, &ctx.executor());
        Graph::from_normalized_edges(parts, edges)
    } else {
        counting_contraction(sources, partition)
    }
}

/// The dense-pair contraction: the sorted list of distinct contracted edges
/// `(a, b)`, `a < b`, read off a `parts × parts` bitmap in which every
/// relabelled non-loop edge set bit `a·parts + b` — ascending bit order *is*
/// the test oracle's lexicographic order. Each executor range fills a bitmap
/// of its own and the bitmaps are OR-ed together, so the split cannot show
/// in the result. The pairs come out as `u32`s in the graph's own edge
/// layout, so [`Graph::from_normalized_edges`] takes the list as it is.
/// Caller must keep `parts²` within [`DENSE_PAIR_BITS`].
fn contract_edges_dense(
    sources: &[EdgeSource<'_>],
    partition: &Partition,
    executor: &Executor,
) -> Vec<(u32, u32)> {
    let parts = partition.num_parts();
    debug_assert!(parts * parts <= DENSE_PAIR_BITS);
    let words = (parts * parts).div_ceil(64);
    if words == 0 {
        return Vec::new();
    }
    // Two random label lookups per edge: a `u32` table is half the bytes of
    // the partition's own, so it stays cache-resident where this is hot.
    let labels: Vec<u32> = partition
        .part_of_slice()
        .iter()
        .map(|&p| p as u32)
        .collect();
    // The first range's bitmap is the accumulator the others are OR-ed
    // into, so one range (one thread) allocates one bitmap.
    let mut pairs: Vec<u64> = Vec::new();
    for src in sources {
        let per_range = executor.map_ranges(src.units(), |range| {
            let mut local = vec![0u64; words];
            src.for_each_edge(range, |u, v| {
                let (a, b) = (labels[u as usize] as usize, labels[v as usize] as usize);
                if a != b {
                    let bit = a.min(b) * parts + a.max(b);
                    local[bit / 64] |= 1 << (bit % 64);
                }
            });
            local
        });
        for local in per_range {
            if pairs.is_empty() {
                pairs = local;
            } else {
                for (acc, w) in pairs.iter_mut().zip(local) {
                    *acc |= w;
                }
            }
        }
    }
    let mut edges = Vec::with_capacity(pairs.iter().map(|w| w.count_ones() as usize).sum());
    for (i, &word) in pairs.iter().enumerate() {
        let mut rest = word;
        while rest != 0 {
            let bit = i * 64 + rest.trailing_zeros() as usize;
            edges.push(((bit / parts) as u32, (bit % parts) as u32));
            rest &= rest - 1;
        }
    }
    edges
}

/// Per-phase statistics recorded by [`grow_components_over`] — the measurements
/// behind experiment E3 (quadratic growth) and the discrepancy drift the
/// proof of Lemma 6.7 tracks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

/// [`grow_components_over`] on batches built as graphs.
///
/// Kept until ROADMAP 1b only because the frozen benchmark still calls it
/// (and experiment E3 feeds it `G(n, d)` graphs).
///
/// # Errors
///
/// As [`grow_components_over`].
pub fn grow_components<R: Rng + ?Sized>(
    batches: &[Graph],
    params: &Params,
    ctx: &mut MpcContext,
    rng: &mut R,
) -> Result<GrowOutcome, CoreError> {
    let sources: Vec<EdgeSource<'_>> = batches.iter().map(EdgeSource::from).collect();
    grow_components_over(&sources, params, ctx, rng)
}

/// `GrowComponents(G̃, Δ)` (Section 6.1): one leader-election phase per fresh
/// batch, with the degree schedule `Δ_i = Δ^{2^{i-1}}`.
///
/// `batches` are the edge batches `G̃_1, …, G̃_F` (all on the same vertex
/// set), normally the walks' endpoint tables. Phase `i` reads batch `i` only
/// through its contraction `H_i` ([`contraction_graph_of_refs`]), so no
/// batch is ever built as a graph. The returned partition never merges
/// vertices from different true components of the union of the batches,
/// because every merge follows an actual edge.
///
/// # Errors
///
/// Returns [`CoreError::BadParams`] if the batches disagree on the vertex
/// count or there are none.
pub fn grow_components_over<R: Rng + ?Sized>(
    batches: &[EdgeSource<'_>],
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
        let h = contraction_graph_of_refs(std::slice::from_ref(batch), &partition, ctx);
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
    finish_with_bfs_over(&[EdgeSource::Graph(g)], partition, ctx)
}

/// [`finish_with_bfs_over`] on graphs.
///
/// Kept until ROADMAP 1b only because the frozen benchmark still calls it.
pub fn finish_with_bfs_over_refs(
    graphs: &[&Graph],
    partition: &Partition,
    ctx: &mut MpcContext,
) -> (Partition, usize) {
    let sources: Vec<EdgeSource<'_>> = graphs.iter().map(|&g| EdgeSource::Graph(g)).collect();
    finish_with_bfs_over(&sources, partition, ctx)
}

/// [`finish_with_bfs`] on the disjoint union of `sources` — the random
/// batches' endpoint tables and, in the exact variant, the regularized
/// graph — without ever materialising the union: the endgame only reads the
/// union through its contraction, so [`contraction_graph_of_refs`] feeds
/// the component search directly. Rounds and words charged are identical to
/// building the union first: one sort over the total edge count, then what
/// the iterations exchange on the contraction.
///
/// (The name and the `"low-diameter-bfs"` phase date from the level-by-level
/// BFS this function used to run; callers and recorded statistics key on
/// both, so they stay.)
pub fn finish_with_bfs_over(
    sources: &[EdgeSource<'_>],
    partition: &Partition,
    ctx: &mut MpcContext,
) -> (Partition, usize) {
    ctx.begin_phase("low-diameter-bfs");
    let h = contraction_graph_of_refs(sources, partition, ctx);
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

/// Disjoint-edge-set union of batches sharing a vertex set.
pub fn union_of(batches: &[Graph]) -> Graph {
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

/// `true` iff `partition` never merges two vertices that lie in different
/// components of `g`: the safety oracle of the growth tests.
#[cfg(test)]
fn respects_components(g: &Graph, partition: &Partition) -> bool {
    partition.respects(&wcc_graph::connected_components(g))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use wcc_graph::prelude::*;
    use wcc_mpc::MpcConfig;

    fn ctx() -> MpcContext {
        ctx_on(1)
    }

    fn sources_of<'a>(graphs: &[&'a Graph]) -> Vec<EdgeSource<'a>> {
        graphs.iter().map(|&g| EdgeSource::Graph(g)).collect()
    }

    fn ctx_on(threads: usize) -> MpcContext {
        MpcContext::new(
            MpcConfig::for_input_size(1 << 16, 0.5)
                .permissive()
                .with_threads(threads),
        )
    }

    /// The contraction as a plain `(usize, usize)` relabel, global sort and
    /// dedup: the oracle every path of [`contraction_graph_of_refs`] must
    /// reproduce.
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

    /// One contraction request through both builds — each called
    /// directly, the bitmap where its switch admits it — and through the
    /// public entry point, all against the wide spec, on 1, 2 and 8
    /// threads.
    fn check_contraction_paths(sources: &[EdgeSource<'_>], part: &Partition) {
        let parts = part.num_parts();
        // The spec reads tables as the graphs they build.
        let graphs: Vec<Graph> = sources
            .iter()
            .map(|src| match src {
                EdgeSource::Graph(g) => (*g).clone(),
                EdgeSource::Table(t) => t.to_graph(),
            })
            .collect();
        let refs: Vec<&Graph> = graphs.iter().collect();
        let counting = counting_contraction(sources, part);
        for threads in [1usize, 2, 8] {
            let what = format!("parts={parts}, threads={threads}");
            let executor = Executor::threaded(threads);
            let spec =
                Graph::from_edges_unchecked(parts, contract_edges_wide(&refs, part, &executor));
            assert_same_graph(&counting, &spec, &format!("counting, {what}"));
            if parts * parts <= DENSE_PAIR_BITS {
                let dense = Graph::from_normalized_edges(
                    parts,
                    contract_edges_dense(sources, part, &executor),
                );
                assert_same_graph(&dense, &spec, &format!("dense, {what}"));
            }
            let mut c = ctx_on(threads);
            let dispatched = contraction_graph_of_refs(sources, part, &mut c);
            assert_same_graph(&dispatched, &spec, &format!("dispatched, {what}"));
        }
    }

    /// Strategy: one to three endpoint tables on one vertex set, `w ≤ 5`
    /// endpoints per vertex drawn below a bound `≤ n` (so loops, repeats
    /// and vertices no one targets all occur), and a random labelling.
    fn arb_table_contraction() -> impl Strategy<Value = (Vec<EndpointTable>, Partition)> {
        (1usize..70, 1usize..6, 1usize..4).prop_flat_map(|(n, w, count)| {
            let tables = proptest::collection::vec(
                (1..n + 1).prop_flat_map(move |bound| {
                    proptest::collection::vec(0..bound as u32, n * w..n * w + 1)
                        .prop_map(move |ends| EndpointTable::new(w, ends))
                }),
                count..count + 1,
            );
            let labels = (1..n + 1)
                .prop_flat_map(move |max_label| proptest::collection::vec(0..max_label, n..n + 1));
            (tables, labels)
                .prop_map(|(tables, labels)| (tables, Partition::from_raw_labels(&labels)))
        })
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
        fn counting_and_bitmap_contractions_match_the_sort_and_dedup_spec(
            request in arb_contraction()
        ) {
            let (graphs, part) = request;
            let refs: Vec<&Graph> = graphs.iter().collect();
            let sources = sources_of(&refs);
            check_contraction_paths(&sources, &part);
            // The same graphs under the identity, under singleton parts
            // numbered in reverse (the same part count, but every edge is
            // relabelled, so the identity's unlabelled reading would be the
            // wrong graph) and under one all-covering part (every edge a
            // loop of the contraction).
            let n = part.len();
            check_contraction_paths(&sources, &Partition::singletons(n));
            check_contraction_paths(&sources[..1], &Partition::singletons(n));
            let reversed = Partition::from_part_of((0..n).rev().collect(), n);
            assert_eq!(reversed.is_identity(), n == 1);
            check_contraction_paths(&sources, &reversed);
            check_contraction_paths(&sources, &Partition::from_raw_labels(&vec![0; n]));
        }

        #[test]
        fn endpoint_tables_contract_like_the_graphs_they_build(
            request in arb_table_contraction()
        ) {
            let (tables, part) = request;
            let n = part.len();
            let sources: Vec<EdgeSource<'_>> = tables.iter().map(EdgeSource::from).collect();
            check_contraction_paths(&sources, &part);
            check_contraction_paths(&sources, &Partition::singletons(n));
            check_contraction_paths(&sources[..1], &Partition::singletons(n));
            check_contraction_paths(&sources, &Partition::from_raw_labels(&vec![0; n]));
            // A table beside a graph, as in the exact endgame, and the same
            // under the identity: the endgame when growth merged nothing.
            let g = tables[0].to_graph();
            check_contraction_paths(&[sources[0], EdgeSource::Graph(&g)], &part);
            check_contraction_paths(
                &[sources[0], EdgeSource::Graph(&g)],
                &Partition::singletons(n),
            );
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
        // bitmap, 4097 the counting build.
        assert_eq!(4096 * 4096, DENSE_PAIR_BITS);
        let n = 5000;
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let g1 = generators::random_out_degree_graph(n, 3, &mut rng);
        let g2 = Graph::from_edges_unchecked(n, (0..n).map(|v| (v, (7 * v + 1) % n)));
        let t1 = EndpointTable::new(3, (0..3 * n).map(|_| rng.gen_range(0..n as u32)).collect());
        for parts in [4095usize, 4096, 4097] {
            let mut labels: Vec<usize> = (0..n).map(|v| v % parts).collect();
            labels.shuffle(&mut rng);
            let part = Partition::from_raw_labels(&labels);
            assert_eq!(part.num_parts(), parts);
            check_contraction_paths(&sources_of(&[&g1, &g2]), &part);
            check_contraction_paths(&[EdgeSource::Table(&t1), EdgeSource::Graph(&g2)], &part);
        }
    }

    #[test]
    fn contraction_of_loop_only_and_empty_graphs_is_edgeless() {
        let loops = Graph::from_edges_unchecked(5, (0..5).map(|v| (v, v)));
        let empty = Graph::empty(5);
        let loop_table = EndpointTable::new(2, (0..5).flat_map(|v| [v, v]).collect());
        for part in [
            Partition::singletons(5),
            Partition::from_raw_labels(&[0, 1, 0, 1, 2]),
            Partition::from_raw_labels(&[0; 5]),
        ] {
            check_contraction_paths(&sources_of(&[&loops]), &part);
            check_contraction_paths(&sources_of(&[&empty]), &part);
            check_contraction_paths(&sources_of(&[&loops, &empty]), &part);
            check_contraction_paths(&[EdgeSource::Table(&loop_table)], &part);
            let h = contraction_graph(&loops, &part, &mut ctx());
            assert_eq!((h.num_vertices(), h.num_edges()), (part.num_parts(), 0));
        }
        // No vertices at all: zero parts, zero bitmap words.
        check_contraction_paths(&sources_of(&[&Graph::empty(0)]), &Partition::singletons(0));
        let no_vertices = EndpointTable::new(3, Vec::new());
        check_contraction_paths(
            &[EdgeSource::Table(&no_vertices)],
            &Partition::singletons(0),
        );
    }

    #[test]
    #[should_panic(
        expected = "a graph on 12 vertices cannot be contracted by a partition of 10 vertices"
    )]
    fn contraction_rejects_a_graph_on_another_vertex_set() {
        let part = Partition::singletons(10);
        let (fits, too_big) = (generators::cycle(10), generators::cycle(12));
        let _ = contraction_graph_of_refs(&sources_of(&[&fits, &too_big]), &part, &mut ctx());
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
    fn contraction_charges_one_sort_over_the_total_edge_count() {
        // Whichever path does the grouping, the charge is the one sort the
        // paper's contraction step pays for: `sort_rounds(E)` rounds, each
        // moving all `E` edges once, `E` summed over every contracted graph.
        let n = 5000;
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let g1 = generators::random_out_degree_graph(n, 3, &mut rng);
        let g2 = Graph::from_edges_unchecked(n, (0..n).map(|v| (v, (7 * v + 1) % n)));
        let dense = Partition::from_raw_labels(&(0..n).map(|v| v % 100).collect::<Vec<_>>());
        let counting = Partition::from_raw_labels(&(0..n).map(|v| v % 4097).collect::<Vec<_>>());
        assert!(dense.num_parts().pow(2) <= DENSE_PAIR_BITS);
        assert!(counting.num_parts().pow(2) > DENSE_PAIR_BITS);
        let cases: [(&str, Vec<&Graph>, &Partition); 4] = [
            ("identity", vec![&g1], &Partition::singletons(n)),
            ("dense", vec![&g1], &dense),
            ("counting", vec![&g1], &counting),
            ("two graphs, dense", vec![&g1, &g2], &dense),
        ];
        for (what, refs, part) in cases {
            let total_edges: usize = refs.iter().map(|g| g.num_edges()).sum();
            let mut c = ctx();
            let rounds = c.config().sort_rounds(total_edges);
            contraction_graph_of_refs(&sources_of(&refs), part, &mut c);
            let stats = c.into_stats();
            assert_eq!(stats.total_rounds(), rounds, "{what}: rounds");
            assert_eq!(
                stats.total_communication_words(),
                rounds * total_edges as u64,
                "{what}: words"
            );
        }
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
        let h = contraction_graph_of_refs(&sources_of(graphs), part, &mut sort_only);
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
                let loops_only = g.edges().iter().all(|&(u, v)| u == v);
                assert_eq!(iterations == 0, loops_only, "{what}");
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
        // Lemma 6.2 then Lemma 6.1: grow on the batches, finish on their union.
        let grow = grow_components(&batches, &params, &mut c, &mut rng).unwrap();
        let refs: Vec<&Graph> = batches.iter().collect();
        let (finished, bfs_levels) = finish_with_bfs_over_refs(&refs, &grow.partition, &mut c);
        let labels = finished.to_component_labels();
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
    fn batched_coins_equal_the_scalar_seeded_coins() {
        let delta = 9.0;
        for k in [0usize, 1, 15, 16, 17, 1000] {
            for p in [0.0, 1.0 / delta, 1.0] {
                let base = 0x5EED ^ k as u64;
                let scalar: Vec<bool> = (0..k)
                    .map(|v| {
                        ChaCha8Rng::seed_from_u64(derive_stream_seed(base, v as u64)).gen_bool(p)
                    })
                    .collect();
                for threads in [1usize, 2, 8] {
                    let got = leader_coins(k, p, base, &Executor::threaded(threads));
                    assert_eq!(got, scalar, "k={k}, p={p}, threads={threads}");
                }
            }
        }
    }

    /// Two random batches of `random_batch` on a 6-regular graph of two
    /// components, as the pipeline draws them.
    fn tables_for(seed: u64) -> (Graph, Vec<EndpointTable>) {
        use crate::walks::{random_batch, WalkMode};
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = generators::planted_expander_components(&[150, 110], 6, &mut rng);
        let tables = (0..2)
            .map(|_| random_batch(&g, 24, 12, WalkMode::Direct, 2, &mut ctx(), &mut rng).unwrap())
            .collect();
        (g, tables)
    }

    #[test]
    fn grow_over_tables_equals_the_graph_wrapper() {
        let params = Params::laptop_scale();
        for seed in 0..20u64 {
            let (_, tables) = tables_for(seed);
            let graphs: Vec<Graph> = tables.iter().map(EndpointTable::to_graph).collect();
            let sources: Vec<EdgeSource<'_>> = tables.iter().map(EdgeSource::from).collect();
            for threads in [1usize, 2, 8] {
                let what = format!("seed={seed}, threads={threads}");
                let (mut over_ctx, mut graph_ctx) = (ctx_on(threads), ctx_on(threads));
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let over = grow_components_over(&sources, &params, &mut over_ctx, &mut rng);
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let wrapped = grow_components(&graphs, &params, &mut graph_ctx, &mut rng);
                let (over, wrapped) = (over.unwrap(), wrapped.unwrap());
                assert_eq!(over.partition, wrapped.partition, "{what}: partition");
                assert_eq!(over.phases, wrapped.phases, "{what}: phase stats");
                let (a, b) = (over_ctx.into_stats(), graph_ctx.into_stats());
                assert_eq!(a.total_rounds(), b.total_rounds(), "{what}: rounds");
                assert_eq!(
                    a.total_communication_words(),
                    b.total_communication_words(),
                    "{what}: words"
                );
                assert_eq!(
                    a.max_machine_load_words(),
                    b.max_machine_load_words(),
                    "{what}: max load"
                );
                assert_eq!(a, b, "{what}: ledger");
            }
        }
    }

    #[test]
    fn endgame_over_tables_and_the_graph_equals_the_graph_wrapper() {
        let params = Params::laptop_scale();
        for seed in 0..20u64 {
            let (g, tables) = tables_for(seed);
            let graphs: Vec<Graph> = tables.iter().map(EndpointTable::to_graph).collect();
            let part = grow_components(
                &graphs,
                &params,
                &mut ctx(),
                &mut ChaCha8Rng::seed_from_u64(seed),
            )
            .unwrap()
            .partition;
            let mut sources: Vec<EdgeSource<'_>> = tables.iter().map(EdgeSource::from).collect();
            sources.push(EdgeSource::Graph(&g));
            let mut refs: Vec<&Graph> = graphs.iter().collect();
            refs.push(&g);
            for threads in [1usize, 2, 8] {
                let what = format!("seed={seed}, threads={threads}");
                let (mut over_ctx, mut graph_ctx) = (ctx_on(threads), ctx_on(threads));
                let over = finish_with_bfs_over(&sources, &part, &mut over_ctx);
                let wrapped = finish_with_bfs_over_refs(&refs, &part, &mut graph_ctx);
                assert_eq!(over, wrapped, "{what}: partition and iterations");
                assert!(
                    over.0.equals_components(&connected_components(&g)),
                    "{what}: components"
                );
                assert_eq!(
                    over_ctx.into_stats(),
                    graph_ctx.into_stats(),
                    "{what}: ledger"
                );
            }
        }
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
