//! Differential harness for fully dynamic streaming: replaying an
//! insert+delete op schedule through `IncrementalComponents` must yield
//! labels component-equivalent to a *from-scratch* pipeline run on the
//! surviving edge multiset — for every tested graph family, seed and thread
//! count.
//!
//! This is the turnstile extension of `streaming_differential.rs`: no matter
//! how the engine interleaves union-find fast paths, scoped-search repairs
//! of deletion-touched components, and escalations, the end
//! state is indistinguishable from having ingested only the surviving edges
//! at once. The sequential BFS ground truth is cross-checked as a third
//! opinion, and the repair's split path is pinned by the `splits` counter so
//! the suite cannot silently degrade into recompute-everything.
//!
//! Every replay here goes through [`replay_checked`], which also holds the
//! engine's spanning forest to its contract after *every* batch: each forest
//! pair has a live copy, the forest has no cycle, and its components are the
//! connected components of `current_graph()`.

use std::collections::HashSet;

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wcc_core::stream::{
    BatchPath, BatchReport, IncrementalComponents, RecomputeReason, StreamParams,
};
use wcc_core::{well_connected_components, Params};
use wcc_graph::generators::GraphFamily;
use wcc_graph::io::EdgeOp;
use wcc_graph::{connected_components, Graph, UnionFind};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];
const SEEDS: [u64; 3] = [5, 13, 41];

fn families() -> Vec<(GraphFamily, f64)> {
    vec![
        (GraphFamily::Expander { degree: 8 }, 0.3),
        (
            GraphFamily::PlantedExpanders {
                num_components: 3,
                degree: 8,
            },
            0.3,
        ),
        (GraphFamily::RingOfCliques { clique_size: 10 }, 0.15),
    ]
}

fn instance(family: &GraphFamily, index: u64) -> Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(7000 + index);
    family.generate(120, &mut rng)
}

/// A dynamic op schedule over `g`: every edge is inserted (shuffled, fixed
/// batch size), then roughly a third of the edges are deleted, with a
/// delete-reinsert-delete cycle thrown in so multiset bookkeeping is
/// exercised. Returns the schedule and the surviving edge multiset.
fn dynamic_schedule(g: &Graph, seed: u64, batch_ops: usize) -> (Vec<Vec<EdgeOp>>, Vec<(u64, u64)>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xD15C0);
    let mut edges: Vec<(u64, u64)> = g.edge_iter().map(|(u, v)| (u as u64, v as u64)).collect();
    edges.shuffle(&mut rng);

    let mut ops: Vec<EdgeOp> = edges.iter().map(|&(u, v)| EdgeOp::insert(u, v)).collect();
    // Delete every third inserted edge...
    let doomed: Vec<(u64, u64)> = edges.iter().copied().step_by(3).collect();
    ops.extend(doomed.iter().map(|&(u, v)| EdgeOp::delete(u, v)));
    // ...and put one of them through a delete-reinsert-delete cycle so the
    // same pair transitions live -> dead -> live -> dead.
    if let Some(&(u, v)) = doomed.first() {
        ops.push(EdgeOp::insert(u, v));
        ops.push(EdgeOp::delete(u, v));
    }

    let survivors: Vec<(u64, u64)> = edges
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 3 != 0)
        .map(|(_, &e)| e)
        .collect();
    let schedule = ops
        .chunks(batch_ops.max(1))
        .map(<[EdgeOp]>::to_vec)
        .collect();
    (schedule, survivors)
}

/// The surviving multiset as a `Graph` on the same vertex universe.
fn surviving_graph(g: &Graph, survivors: &[(u64, u64)]) -> Graph {
    Graph::from_edges(
        g.num_vertices(),
        survivors.iter().map(|&(u, v)| (u as usize, v as usize)),
    )
    .unwrap()
}

/// The forest contract, plus what it is a certificate *of*: the engine's
/// labels are the connected components of the live graph.
fn assert_spanning_forest(engine: &IncrementalComponents, context: &str) {
    let g = engine.current_graph();
    let truth = connected_components(&g);
    assert!(
        engine.labels().same_partition(&truth),
        "labels are not the live graph's components: {context}"
    );
    let forest = engine.spanning_forest();
    let live: HashSet<(usize, usize)> = g.edge_iter().map(|(u, v)| (u.min(v), u.max(v))).collect();
    let mut uf = UnionFind::new(g.num_vertices());
    for &(u, v) in &forest {
        let (u, v) = (u as usize, v as usize);
        assert!(u < v, "forest pair ({u}, {v}) is not normalized: {context}");
        assert!(
            live.contains(&(u, v)),
            "forest pair ({u}, {v}) has no live copy: {context}"
        );
        assert!(
            uf.union(u, v),
            "forest edge ({u}, {v}) closes a cycle: {context}"
        );
    }
    assert!(
        uf.into_labels().same_partition(&truth),
        "the forest does not span the live graph's components: {context}"
    );
}

/// `apply_ops_schedule` with the forest contract checked after every batch.
fn replay_checked<C: AsRef<[EdgeOp]>>(
    engine: &mut IncrementalComponents,
    schedule: &[C],
) -> Vec<BatchReport> {
    schedule
        .iter()
        .enumerate()
        .map(|(i, batch)| {
            let report = engine.apply_ops_batch(batch.as_ref()).unwrap();
            assert_spanning_forest(engine, &format!("after batch {i} ({:?})", report.path));
            report
        })
        .collect()
}

/// Two 6-cliques on raw ids `0..6` and `6..12`, plus `extra`.
fn two_cliques(extra: &[EdgeOp]) -> Vec<EdgeOp> {
    let mut ops = Vec::new();
    for base in [0u64, 6] {
        for i in base..base + 6 {
            for j in (i + 1)..base + 6 {
                ops.push(EdgeOp::insert(i, j));
            }
        }
    }
    ops.extend_from_slice(extra);
    ops
}

#[test]
fn dynamic_replay_is_component_equivalent_to_from_scratch_on_survivors() {
    for (fi, (family, lambda)) in families().into_iter().enumerate() {
        let g = instance(&family, fi as u64);
        for seed in SEEDS {
            let (schedule, survivors) = dynamic_schedule(&g, seed, 83);
            let surviving = surviving_graph(&g, &survivors);
            // From-scratch references on the surviving graph: the pipeline
            // run the dynamic engine must be indistinguishable from, plus
            // the sequential BFS ground truth as a third opinion.
            let scratch =
                well_connected_components(&surviving, lambda, &Params::test_scale(), seed).unwrap();
            let truth = connected_components(&surviving);
            assert!(
                scratch.components.same_partition(&truth),
                "from-scratch pipeline disagrees with BFS: family {fi}, seed {seed}"
            );

            for threads in THREAD_COUNTS {
                let params = StreamParams::laptop_scale().with_threads(threads);
                let mut engine = IncrementalComponents::new(params, seed);
                replay_checked(&mut engine, &schedule);
                assert_eq!(
                    engine.num_edges(),
                    survivors.len(),
                    "replay lost or kept the wrong edges: \
                     family {fi}, seed {seed}, threads {threads}"
                );
                let incremental = engine.labels_for_universe(g.num_vertices());
                assert!(
                    incremental.same_partition(&scratch.components),
                    "dynamic labels diverged from the from-scratch pipeline: \
                     family {fi}, seed {seed}, threads {threads}"
                );
            }
        }
    }
}

/// The engine must be insensitive to how the same op stream is batched:
/// one huge batch, medium batches, or tiny ones — same final partition and
/// same surviving edge count.
#[test]
fn op_batch_granularity_does_not_change_the_final_partition() {
    let family = GraphFamily::PlantedExpanders {
        num_components: 2,
        degree: 8,
    };
    let g = instance(&family, 77);
    let (_, survivors) = dynamic_schedule(&g, 99, usize::MAX);
    let truth = connected_components(&surviving_graph(&g, &survivors));
    for batch_ops in [usize::MAX, 97, 11] {
        let (schedule, s) = dynamic_schedule(&g, 99, batch_ops);
        assert_eq!(s, survivors, "schedule generation must be deterministic");
        let mut engine = IncrementalComponents::new(StreamParams::laptop_scale(), 3);
        replay_checked(&mut engine, &schedule);
        assert_eq!(engine.num_edges(), survivors.len());
        assert!(
            engine
                .labels_for_universe(g.num_vertices())
                .same_partition(&truth),
            "batch size {batch_ops} diverged"
        );
    }
}

/// `current_graph()` is a function of the live multiset alone: two schedules
/// that reach it by different insert, delete and re-insert orders — parallel
/// copies and self-loops included — list the same edges in the same order.
#[test]
fn current_graph_depends_only_on_the_live_multiset() {
    let (ins, del) = (EdgeOp::insert, EdgeOp::delete);
    // Both meet raw ids 1, 2, 3, 4 in that order, so dense ids agree, and
    // end on {1,2}×3, {2,3}, {3,3}, {1,4}, {4,4}.
    let a = [
        vec![ins(1, 2), ins(2, 3), ins(3, 3), ins(4, 1)],
        vec![ins(2, 1), del(2, 3), ins(3, 2), ins(4, 4)],
        vec![del(4, 4), ins(4, 4), ins(1, 2)],
    ];
    let b = [
        vec![ins(1, 2), ins(3, 3), ins(1, 4), ins(4, 4), ins(2, 3)],
        vec![
            ins(2, 3),
            del(3, 2),
            ins(2, 1),
            ins(1, 2),
            del(1, 4),
            ins(4, 1),
        ],
    ];
    let graph_after = |schedule: &[Vec<EdgeOp>]| {
        let mut engine = IncrementalComponents::new(StreamParams::laptop_scale(), 81);
        replay_checked(&mut engine, schedule);
        assert_eq!(engine.original_ids(), [1, 2, 3, 4]);
        engine.current_graph().edge_iter().collect::<Vec<_>>()
    };
    let edges = graph_after(&a);
    let sorted = [(0, 1), (0, 1), (0, 1), (0, 3), (1, 2), (2, 2), (3, 3)];
    assert_eq!(edges, sorted);
    assert_eq!(graph_after(&b), edges);
}

/// Per-batch oracle on a deletion-heavy schedule: [`replay_checked`] holds
/// the labels to the live graph's connected components after every batch,
/// while the repair path actually splits components instead of
/// escalating.
#[test]
fn sketch_split_path_matches_per_batch_recompute_reference() {
    // A ring of cliques whose ring edges are then deleted: every ring-edge
    // deletion is structural, and cutting the full ring shatters the graph
    // into its cliques — all on the repair path.
    let family = GraphFamily::RingOfCliques { clique_size: 10 };
    let g = instance(&family, 55);
    let (schedule, survivors) = dynamic_schedule(&g, 21, 150);

    let mut engine = IncrementalComponents::new(StreamParams::laptop_scale(), 17);
    replay_checked(&mut engine, &schedule);

    assert_eq!(engine.num_edges(), survivors.len());
    // The engine must have handled at least part of the deletion load
    // without escalating.
    assert!(engine.recomputes() < schedule.len());
    assert!(
        engine.splits() + engine.sketch_recertifies() > 0,
        "a structural-deletion schedule must exercise the repair path"
    );
}

/// Dedicated split scenario: two expanders joined by one bridge, bridge
/// deleted. The engine must take the repair path and report exactly
/// one split, and the result must match BFS on the surviving graph.
#[test]
fn bridge_deletion_splits_via_the_sketch_not_the_pipeline() {
    let mut rng = ChaCha8Rng::seed_from_u64(4242);
    let g = wcc_graph::generators::planted_expander_components(&[60, 60], 8, &mut rng);
    let mut ops: Vec<EdgeOp> = g
        .edge_iter()
        .map(|(u, v)| EdgeOp::insert(u as u64, v as u64))
        .collect();
    ops.push(EdgeOp::insert(0, 60));
    for threads in THREAD_COUNTS {
        let params = StreamParams::laptop_scale().with_threads(threads);
        let mut engine = IncrementalComponents::new(params, 9);
        engine.apply_ops_batch(&ops).unwrap();
        assert_eq!(engine.num_components(), 1);
        let recomputes_before = engine.recomputes();
        let r = engine.apply_ops_batch(&[EdgeOp::delete(0, 60)]).unwrap();
        assert_eq!(r.path, BatchPath::SketchRepair, "threads {threads}");
        assert_eq!(r.splits, 1, "threads {threads}");
        assert_eq!(r.forest_cuts, 1, "a bridge is in every spanning forest");
        assert_spanning_forest(&engine, "after the bridge deletion");
        assert_eq!(engine.recomputes(), recomputes_before);
        assert_eq!(engine.num_components(), 2);
        let truth = connected_components(&engine.current_graph());
        assert!(engine.labels().same_partition(&truth));
    }
}

/// Full-component teardown: insert a clique, delete every edge again. The
/// engine must end with only singletons, entirely on the repair path after
/// bootstrap.
#[test]
fn full_component_teardown_reaches_singletons_without_recompute() {
    let mut ops = Vec::new();
    for i in 0u64..7 {
        for j in (i + 1)..7 {
            ops.push(EdgeOp::insert(i, j));
        }
    }
    let mut engine = IncrementalComponents::new(StreamParams::laptop_scale(), 11);
    engine.apply_ops_batch(&ops).unwrap();
    let recomputes_before = engine.recomputes();
    let deletions: Vec<[EdgeOp; 1]> = ops.iter().map(|op| [EdgeOp::delete(op.u, op.v)]).collect();
    let reports = replay_checked(&mut engine, &deletions);
    assert_eq!(engine.recomputes(), recomputes_before);
    assert_eq!(engine.num_edges(), 0);
    assert_eq!(engine.num_components(), 7);
    assert_eq!(engine.splits(), 6, "7 singletons minted out of 1 component");
    // Every deletion removes a last copy: its component splits (which takes
    // a cut) or is re-certified — by the forest for free, or, after a cut,
    // by a scoped-search link that is the next deletion's candidate cut.
    for (b, r) in reports.iter().enumerate() {
        assert_eq!(r.splits + r.sketch_recertifies, 1, "batch {b}");
        assert!(r.splits <= r.forest_cuts, "batch {b}");
    }
    assert_eq!(engine.spanning_forest(), Vec::new());
}

/// A forest edge is deleted and a later insert of the same batch re-joins its
/// two sides: the union–find never saw them apart, so the insert is not a
/// union and only the repair's scoped search can find the replacement.
#[test]
fn a_cut_rejoined_by_a_later_insert_of_the_same_batch_is_relinked_by_the_sketch() {
    let mut engine = IncrementalComponents::new(StreamParams::laptop_scale(), 19);
    let setup = two_cliques(&[EdgeOp::insert(0, 6)]);
    replay_checked(&mut engine, &[setup]);
    let recomputes_before = engine.recomputes();
    let reports = replay_checked(&mut engine, &[[EdgeOp::delete(0, 6), EdgeOp::insert(1, 7)]]);
    let r = &reports[0];
    assert_eq!(r.path, BatchPath::SketchRepair);
    assert_eq!((r.forest_cuts, r.splits, r.sketch_recertifies), (1, 0, 1));
    assert_eq!(r.standing_merges, 0);
    assert_eq!(engine.recomputes(), recomputes_before);
    assert_eq!(engine.num_components(), 1);
    let forest = engine.spanning_forest();
    assert!(forest.contains(&(1, 7)) && !forest.contains(&(0, 6)));
}

/// A forest pair with a parallel copy: deleting one copy is not even
/// structural, deleting the other is a cut.
#[test]
fn only_the_last_copy_of_a_forest_pair_is_a_cut() {
    let mut engine = IncrementalComponents::new(StreamParams::laptop_scale(), 23);
    let setup = two_cliques(&[EdgeOp::insert(0, 6), EdgeOp::insert(6, 0)]);
    let reports = replay_checked(
        &mut engine,
        &[
            setup,
            vec![EdgeOp::delete(0, 6)],
            vec![EdgeOp::delete(0, 6)],
        ],
    );
    assert_eq!(reports[1].path, BatchPath::FastPath);
    assert_eq!((reports[1].forest_cuts, reports[1].splits), (0, 0));
    assert_eq!(reports[2].path, BatchPath::SketchRepair);
    assert_eq!((reports[2].forest_cuts, reports[2].splits), (1, 1));
    assert_eq!(engine.num_components(), 2);
    assert_eq!(engine.spanning_forest().len(), 12 - 2);
}

/// A cut and a standing merge in one batch: the batch escalates, nobody
/// repairs the cut, and the escalation starts the forest over.
#[test]
fn a_cut_beside_a_standing_merge_escalates_and_rebuilds_the_forest() {
    let mut engine = IncrementalComponents::new(StreamParams::laptop_scale(), 29);
    let mut setup = two_cliques(&[EdgeOp::insert(0, 6)]);
    // A third component, with a triangle pair deleted again.
    setup.extend([(20, 21), (21, 22), (20, 22)].map(|(u, v)| EdgeOp::insert(u, v)));
    replay_checked(&mut engine, &[setup, vec![EdgeOp::delete(20, 22)]]);
    assert_eq!(engine.num_components(), 2);
    let reports = replay_checked(
        &mut engine,
        &[[EdgeOp::delete(0, 6), EdgeOp::insert(7, 20)]],
    );
    let r = &reports[0];
    assert_eq!(r.path, BatchPath::Recompute(RecomputeReason::StandingMerge));
    assert_eq!((r.forest_cuts, r.standing_merges, r.splits), (1, 1, 0));
    assert_eq!(engine.num_components(), 2);
    let forest = engine.spanning_forest();
    assert!(forest.contains(&(7, 12)), "dense id of raw 20 is 12");
}

/// A long chain of cut pieces re-links in one repair: the path 0–1–…–63
/// is the forest and every other path edge goes in one batch, leaving 32
/// pieces that only the chords `(i, i + 2)` join. The scoped search keeps
/// every surviving forest pair and takes one chord per cut as a link.
#[test]
fn a_chain_of_cuts_relinks_in_one_repair() {
    const N: u64 = 64;
    let mut engine = IncrementalComponents::new(StreamParams::laptop_scale(), 31);
    // The path arrives first, so it *is* the forest; the chords keep the
    // graph connected when path edges go.
    let mut setup: Vec<EdgeOp> = (0..N - 1).map(|i| EdgeOp::insert(i, i + 1)).collect();
    setup.extend((0..N - 2).map(|i| EdgeOp::insert(i, i + 2)));
    replay_checked(&mut engine, &[setup]);
    let before = engine.spanning_forest();
    assert_eq!(
        before,
        (0..N as u32 - 1).map(|i| (i, i + 1)).collect::<Vec<_>>()
    );
    let cuts: Vec<EdgeOp> = (1..N - 1)
        .step_by(2)
        .map(|i| EdgeOp::delete(i, i + 1))
        .collect();
    let reports = replay_checked(&mut engine, std::slice::from_ref(&cuts));
    let r = &reports[0];
    assert_eq!(r.path, BatchPath::SketchRepair);
    assert_eq!(r.forest_cuts as usize, cuts.len());
    assert_eq!((r.splits, r.sketch_recertifies), (0, 1));
    assert_eq!(engine.num_components(), 1);
    let after = engine.spanning_forest();
    let survivors: Vec<(u32, u32)> = before
        .iter()
        .copied()
        .filter(|&(u, _)| u % 2 == 0)
        .collect();
    let links: Vec<(u32, u32)> = after
        .iter()
        .copied()
        .filter(|e| !before.contains(e))
        .collect();
    assert!(
        survivors.iter().all(|e| after.contains(e)),
        "a surviving forest pair left the forest"
    );
    assert_eq!(links.len(), cuts.len(), "one link per cut");
    assert!(
        links.iter().all(|&(u, v)| v == u + 2),
        "every link is a live chord: {links:?}"
    );
}

/// Archived version-1 streams keep replaying: the checked-in
/// `data/sample_batches.wccs` (written by the retired v1 packer from
/// `data/sample_graph.txt` at 6 edges per chunk) must report version 1,
/// decode to exactly the batches today's packer produces from the same text —
/// every op an insertion — and replay to the same per-batch decisions.
#[test]
fn v1_chunk_streams_replay_identically_through_the_op_reader() {
    use wcc_graph::io::{pack_op_list, read_op_chunk_frames, read_op_chunks, read_op_chunks_file};
    use wcc_graph::io::{OpKind, CHUNK_FORMAT_VERSION};

    let data = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/data"));
    let v1_bytes = std::fs::read(data.join("sample_batches.wccs")).unwrap();
    let (version, _) = read_op_chunk_frames(v1_bytes.as_slice()).unwrap();
    assert_eq!(version, CHUNK_FORMAT_VERSION);
    let v1_batches = read_op_chunks_file(&data.join("sample_batches.wccs")).unwrap();
    assert!(v1_batches
        .iter()
        .flatten()
        .all(|op| op.kind == OpKind::Insert));

    let text = std::fs::read(data.join("sample_graph.txt")).unwrap();
    let mut repacked = Vec::new();
    pack_op_list(text.as_slice(), &mut repacked, 6).unwrap();
    let v2_batches = read_op_chunks(repacked.as_slice()).unwrap();
    assert_eq!(v1_batches, v2_batches, "v1 records must decode identically");

    let mut archived = IncrementalComponents::new(StreamParams::laptop_scale(), 7);
    let archived_reports = archived.apply_ops_schedule(&v1_batches).unwrap();
    let mut repack = IncrementalComponents::new(StreamParams::laptop_scale(), 7);
    let repack_reports = repack.apply_ops_schedule(&v2_batches).unwrap();

    assert_eq!(archived_reports.len(), repack_reports.len());
    for (a, r) in archived_reports.iter().zip(&repack_reports) {
        assert_eq!(a.path, r.path);
        assert_eq!(a.rounds, r.rounds);
        assert_eq!(a.communication_words, r.communication_words);
        assert_eq!((a.insertions, a.deletions), (r.insertions, r.deletions));
        assert_eq!(a.deletions, 0);
    }
    assert_eq!(archived.num_edges(), repack.num_edges());
    assert!(archived.labels().same_partition(&repack.labels()));
}
