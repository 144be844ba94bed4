//! Differential harness for fully dynamic streaming: replaying an
//! insert+delete op schedule through `IncrementalComponents` must yield
//! labels component-equivalent to a *from-scratch* pipeline run on the
//! surviving edge multiset — for every tested graph family, seed and thread
//! count.
//!
//! This is the turnstile extension of `streaming_differential.rs`: no matter
//! how the engine interleaves union-find fast paths, sketch-Borůvka repairs
//! of deletion-touched components, and full pipeline recomputes, the end
//! state is indistinguishable from having ingested only the surviving edges
//! at once. The sequential BFS ground truth is cross-checked as a third
//! opinion, and the sketch split path is pinned by the `splits` counter so
//! the suite cannot silently degrade into recompute-everything.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wcc_core::stream::{BatchPath, IncrementalComponents, StreamParams};
use wcc_core::{well_connected_components, Params};
use wcc_graph::generators::GraphFamily;
use wcc_graph::io::EdgeOp;
use wcc_graph::{connected_components, Graph};

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
                let params = StreamParams::test_scale()
                    .with_lambda(lambda)
                    .with_threads(threads);
                let mut engine = IncrementalComponents::new(params, seed);
                engine.apply_ops_schedule(&schedule).unwrap();
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
    let (family, lambda) = (
        GraphFamily::PlantedExpanders {
            num_components: 2,
            degree: 8,
        },
        0.3,
    );
    let g = instance(&family, 77);
    let (_, survivors) = dynamic_schedule(&g, 99, usize::MAX);
    let truth = connected_components(&surviving_graph(&g, &survivors));
    for batch_ops in [usize::MAX, 97, 11] {
        let (schedule, s) = dynamic_schedule(&g, 99, batch_ops);
        assert_eq!(s, survivors, "schedule generation must be deterministic");
        let mut engine =
            IncrementalComponents::new(StreamParams::test_scale().with_lambda(lambda), 3);
        engine.apply_ops_schedule(&schedule).unwrap();
        assert_eq!(engine.num_edges(), survivors.len());
        assert!(
            engine
                .labels_for_universe(g.num_vertices())
                .same_partition(&truth),
            "batch size {batch_ops} diverged"
        );
    }
}

/// Fast-path-disabled replay (per-batch full recompute) is the executable
/// specification of the dynamic end state: the sketch-repair path must land
/// on the identical partition while actually splitting components instead
/// of recomputing.
#[test]
fn sketch_split_path_matches_per_batch_recompute_reference() {
    // A ring of cliques whose ring edges are then deleted: every ring-edge
    // deletion is structural, and cutting the full ring shatters the graph
    // into its cliques — all on the sketch path.
    let (family, lambda) = (GraphFamily::RingOfCliques { clique_size: 10 }, 0.15);
    let g = instance(&family, 55);
    let (schedule, survivors) = dynamic_schedule(&g, 21, 150);

    let mut sketchy =
        IncrementalComponents::new(StreamParams::test_scale().with_lambda(lambda), 17);
    sketchy.apply_ops_schedule(&schedule).unwrap();

    let mut reference = IncrementalComponents::new(
        StreamParams::test_scale()
            .with_lambda(lambda)
            .with_fast_path(false),
        17,
    );
    reference.apply_ops_schedule(&schedule).unwrap();

    assert_eq!(sketchy.num_vertices(), reference.num_vertices());
    assert_eq!(sketchy.num_edges(), reference.num_edges());
    assert_eq!(sketchy.num_edges(), survivors.len());
    assert!(sketchy.labels().same_partition(&reference.labels()));
    // The reference recomputed every batch; the sketch engine must have
    // handled at least part of the deletion load without the pipeline.
    assert!(sketchy.recomputes() < reference.recomputes());
    assert!(
        sketchy.splits() + sketchy.sketch_recertifies() > 0,
        "a structural-deletion schedule must exercise the sketch path"
    );
}

/// Dedicated split scenario: two expanders joined by one bridge, bridge
/// deleted. The engine must take the sketch-repair path and report exactly
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
        let params = StreamParams::test_scale()
            .with_lambda(0.3)
            .with_threads(threads);
        let mut engine = IncrementalComponents::new(params, 9);
        engine.apply_ops_batch(&ops).unwrap();
        assert_eq!(engine.num_components(), 1);
        let recomputes_before = engine.recomputes();
        let r = engine.apply_ops_batch(&[EdgeOp::delete(0, 60)]).unwrap();
        assert_eq!(r.path, BatchPath::SketchRepair, "threads {threads}");
        assert_eq!(r.splits, 1, "threads {threads}");
        assert_eq!(engine.recomputes(), recomputes_before);
        assert_eq!(engine.num_components(), 2);
        let truth = connected_components(&engine.current_graph());
        assert!(engine.labels().same_partition(&truth));
    }
}

/// Full-component teardown: insert a clique, delete every edge again. The
/// engine must end with only singletons, entirely on the sketch path after
/// bootstrap.
#[test]
fn full_component_teardown_reaches_singletons_without_recompute() {
    let mut ops = Vec::new();
    for i in 0u64..7 {
        for j in (i + 1)..7 {
            ops.push(EdgeOp::insert(i, j));
        }
    }
    let mut engine = IncrementalComponents::new(StreamParams::test_scale(), 11);
    engine.apply_ops_batch(&ops).unwrap();
    let recomputes_before = engine.recomputes();
    for op in &ops {
        engine
            .apply_ops_batch(&[EdgeOp::delete(op.u, op.v)])
            .unwrap();
    }
    assert_eq!(engine.recomputes(), recomputes_before);
    assert_eq!(engine.num_edges(), 0);
    assert_eq!(engine.num_components(), 7);
    assert_eq!(engine.splits(), 6, "7 singletons minted out of 1 component");
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

    let mut archived = IncrementalComponents::new(StreamParams::test_scale(), 7);
    let archived_reports = archived.apply_ops_schedule(&v1_batches).unwrap();
    let mut repack = IncrementalComponents::new(StreamParams::test_scale(), 7);
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
    assert!(
        !archived.sketch_active() && !repack.sketch_active(),
        "an insert-only replay stays lazy"
    );
}
