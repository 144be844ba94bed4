//! Differential harness for streaming ingestion: replaying a random batch
//! schedule through `IncrementalComponents` must yield labels
//! component-equivalent to a *from-scratch* pipeline run on the final graph
//! — for every tested graph family, seed and thread count.
//!
//! This is the contract that makes the fast/slow path split trustworthy: no
//! matter how the engine interleaves union-find fast paths with escalations,
//! the end state is indistinguishable from having ingested everything at
//! once.
//! The sequential BFS ground truth is cross-checked as a third opinion.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wcc_core::stream::{IncrementalComponents, StreamParams};
use wcc_core::{well_connected_components, Params};
use wcc_graph::generators::GraphFamily;
use wcc_graph::io::EdgeOp;
use wcc_graph::{connected_components, ComponentLabels, Graph};

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

/// A random batch schedule covering exactly the edges of `g`: the edge list
/// is shuffled with a seeded RNG and split into fixed-size batches.
fn random_schedule(g: &Graph, seed: u64, batch_edges: usize) -> Vec<Vec<EdgeOp>> {
    let mut edges: Vec<(u64, u64)> = g.edge_iter().map(|(u, v)| (u as u64, v as u64)).collect();
    edges.shuffle(&mut ChaCha8Rng::seed_from_u64(seed ^ 0xBA7C4));
    edges
        .chunks(batch_edges.max(1))
        .map(EdgeOp::inserts)
        .collect()
}

/// Maps the engine's dense-id labelling back onto `g`'s vertex numbering
/// (vertices the schedule never touched — isolated in the final graph — get
/// fresh labels, exactly as a from-scratch run would give them).
fn labels_on(g: &Graph, engine: &IncrementalComponents) -> ComponentLabels {
    engine.labels_for_universe(g.num_vertices())
}

#[test]
fn incremental_replay_is_component_equivalent_to_from_scratch() {
    for (fi, (family, lambda)) in families().into_iter().enumerate() {
        let g = instance(&family, fi as u64);
        for seed in SEEDS {
            let schedule = random_schedule(&g, seed, 83);
            // From-scratch references on the final graph: the pipeline run
            // the incremental engine must be indistinguishable from, plus
            // the sequential BFS ground truth as a third opinion.
            let scratch =
                well_connected_components(&g, lambda, &Params::test_scale(), seed).unwrap();
            let truth = connected_components(&g);
            assert!(
                scratch.components.same_partition(&truth),
                "from-scratch pipeline disagrees with BFS: family {fi}, seed {seed}"
            );

            for threads in THREAD_COUNTS {
                let params = StreamParams::laptop_scale().with_threads(threads);
                let mut engine = IncrementalComponents::new(params, seed);
                let reports = engine.apply_ops_schedule(&schedule).unwrap();
                assert_eq!(
                    engine.num_edges(),
                    g.num_edges(),
                    "replay lost edges: family {fi}, seed {seed}, threads {threads}"
                );
                assert!(
                    reports.iter().any(|r| !r.path.is_fast()),
                    "a merging schedule must escalate at least once: \
                     family {fi}, seed {seed}, threads {threads}"
                );
                let incremental = labels_on(&g, &engine);
                assert!(
                    incremental.same_partition(&scratch.components),
                    "incremental labels diverged from the from-scratch pipeline: \
                     family {fi}, seed {seed}, threads {threads}"
                );
            }
        }
    }
}

/// The engine must be insensitive to how the same edge stream is batched:
/// one huge batch, tiny batches, or everything one-by-one-ish — same final
/// partition.
#[test]
fn batch_granularity_does_not_change_the_final_partition() {
    let family = GraphFamily::PlantedExpanders {
        num_components: 2,
        degree: 8,
    };
    let g = instance(&family, 77);
    let truth = connected_components(&g);
    for batch_edges in [usize::MAX, 97, 11] {
        let schedule = random_schedule(&g, 99, batch_edges.min(g.num_edges()));
        let mut engine = IncrementalComponents::new(StreamParams::laptop_scale(), 3);
        engine.apply_ops_schedule(&schedule).unwrap();
        assert!(
            labels_on(&g, &engine).same_partition(&truth),
            "batch size {batch_edges} diverged"
        );
    }
}

/// Per-batch oracle: after every batch — fast path or escalation — the
/// labels are exactly the connected components of the live graph, and the
/// fast path carries the batches that merge nothing standing.
#[test]
fn fast_path_matches_per_batch_recompute_reference() {
    let family = GraphFamily::Expander { degree: 8 };
    let g = instance(&family, 55);
    // Append well-attached newcomers so the fast path has real work that the
    // oracle recomputes from scratch.
    let mut schedule = random_schedule(&g, 21, 200);
    let n = g.num_vertices() as u64;
    schedule.push(EdgeOp::inserts(&[
        (n, 0),
        (n, 1),
        (n, 2),
        (n + 1, 3),
        (n + 1, 4),
        (n + 1, 5),
    ]));

    let mut engine = IncrementalComponents::new(StreamParams::laptop_scale(), 17);
    for (i, batch) in schedule.iter().enumerate() {
        let report = engine.apply_ops_batch(batch).unwrap();
        assert!(
            engine
                .labels()
                .same_partition(&connected_components(&engine.current_graph())),
            "batch {i} ({:?}) left labels that are not the live graph's components",
            report.path
        );
    }
    assert_eq!(engine.num_edges(), g.num_edges() + 6);
    assert!(
        engine.recomputes() < schedule.len(),
        "every batch escalated"
    );
}
