//! Cross-backend determinism: the threaded executor must be *bit-identical*
//! to the sequential one.
//!
//! This is the contract that makes the backend pluggable at all (DESIGN.md,
//! "The executor seam"): every source of randomness is a per-vertex/chunk
//! ChaCha8 stream derived from the master seed, results are reassembled in
//! index order, and statistics are charged on the calling thread — so the
//! output labels, round counts, communication words and per-phase breakdowns
//! may not depend on the thread count in any way. Here we pin that down for
//! the three end-to-end entry points across 1/2/8 threads, three seeds and
//! three graph families.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wcc_core::pipeline::{adaptive_components, well_connected_components};
use wcc_core::Params;
use wcc_graph::generators::GraphFamily;
use wcc_graph::io::EdgeOp;
use wcc_graph::Graph;

const THREADED: [usize; 2] = [2, 8];
const SEEDS: [u64; 3] = [3, 11, 29];

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
    let mut rng = ChaCha8Rng::seed_from_u64(9000 + index);
    family.generate(140, &mut rng)
}

#[test]
fn well_connected_components_is_bit_identical_across_thread_counts() {
    for (fi, (family, lambda)) in families().into_iter().enumerate() {
        let g = instance(&family, fi as u64);
        for seed in SEEDS {
            let baseline =
                well_connected_components(&g, lambda, &Params::test_scale().with_threads(1), seed)
                    .expect("sequential run succeeds");
            for threads in THREADED {
                let run = well_connected_components(
                    &g,
                    lambda,
                    &Params::test_scale().with_threads(threads),
                    seed,
                )
                .expect("threaded run succeeds");
                assert_eq!(
                    baseline.components, run.components,
                    "labels diverged: family {fi}, seed {seed}, threads {threads}"
                );
                assert_eq!(
                    baseline.stats, run.stats,
                    "RoundStats diverged: family {fi}, seed {seed}, threads {threads}"
                );
                assert_eq!(
                    baseline.report.walk_length, run.report.walk_length,
                    "walk length diverged: family {fi}, seed {seed}, threads {threads}"
                );
                assert_eq!(
                    baseline.report.bfs_levels, run.report.bfs_levels,
                    "endgame iterations diverged: family {fi}, seed {seed}, threads {threads}"
                );
            }
        }
    }
}

#[test]
fn adaptive_components_is_bit_identical_across_thread_counts() {
    // The adaptive loop re-runs the pipeline once per gap-guess level, so
    // keep this to the two expander families (the ring would descend many
    // levels and multiply the runtime without exercising new code paths).
    for (fi, (family, _)) in families().into_iter().take(2).enumerate() {
        let g = instance(&family, 100 + fi as u64);
        for seed in SEEDS {
            let baseline = adaptive_components(&g, &Params::test_scale().with_threads(1), seed)
                .expect("sequential run succeeds");
            for threads in THREADED {
                let run =
                    adaptive_components(&g, &Params::test_scale().with_threads(threads), seed)
                        .expect("threaded run succeeds");
                assert_eq!(
                    baseline.components, run.components,
                    "labels diverged: family {fi}, seed {seed}, threads {threads}"
                );
                assert_eq!(
                    baseline.stats, run.stats,
                    "RoundStats diverged: family {fi}, seed {seed}, threads {threads}"
                );
                assert_eq!(
                    baseline.lambda_levels, run.lambda_levels,
                    "gap-guess schedule diverged: family {fi}, seed {seed}, threads {threads}"
                );
                assert_eq!(
                    baseline.rounds_per_level, run.rounds_per_level,
                    "per-level rounds diverged: family {fi}, seed {seed}, threads {threads}"
                );
            }
        }
    }
}

/// Theorem 2's path fans out per vertex twice — the densification walks and
/// the super-vertices' sketch messages — so its labels and `RoundStats`
/// (rounds, words, max machine load) must not depend on the thread count
/// either.
#[test]
fn sublinear_components_is_bit_identical_across_thread_counts() {
    use wcc_core::sublinear::{sublinear_components, SublinearParams};

    for (fi, (family, _)) in families().into_iter().enumerate() {
        let g = instance(&family, 400 + fi as u64);
        for seed in SEEDS {
            let run = |threads: usize| {
                let params = SublinearParams::laptop_scale().with_threads(threads);
                sublinear_components(&g, 48, &params, seed).expect("sublinear runs")
            };
            let baseline = run(1);
            assert!(
                baseline.report.contracted_vertices > 1,
                "the sketch must see more than one super-vertex: family {fi}, seed {seed}"
            );
            for threads in THREADED {
                let run = run(threads);
                assert_eq!(
                    baseline.components, run.components,
                    "labels diverged: family {fi}, seed {seed}, threads {threads}"
                );
                assert_eq!(
                    baseline.stats, run.stats,
                    "RoundStats diverged: family {fi}, seed {seed}, threads {threads}"
                );
            }
        }
    }
}

/// The v3 walk kernel (Step 2's hot path: stay-run compression + 32-bit
/// keystream draws): the batched lane-group path must be bit-identical
/// across 1/2/8 threads *and* bit-identical to replaying the same
/// per-vertex ChaCha8 streams through the scalar [`v3_walk_endpoint`]
/// reference. RoundStats are model quantities, so they must agree too.
#[test]
fn v3_walk_engine_is_bit_identical_across_thread_counts() {
    use rand::Rng;
    use wcc_core::walks::{independent_lazy_walks, v3_walk_endpoint, WalkMode};
    use wcc_mpc::{derive_stream_seed, MpcConfig, MpcContext};

    for seed in SEEDS {
        let mut graph_rng = ChaCha8Rng::seed_from_u64(seed);
        let g = wcc_graph::generators::random_regular_permutation_graph(200, 8, &mut graph_rng);
        let (t, k) = (24usize, 3usize);

        // Reference: the scalar v3 kernel on the same per-vertex streams.
        let mut master = ChaCha8Rng::seed_from_u64(seed ^ 0x5EED);
        let base = master.gen::<u64>();
        let mut expected = Vec::with_capacity(200 * k);
        for v in 0..g.num_vertices() {
            let mut vrng = ChaCha8Rng::seed_from_u64(derive_stream_seed(base, v as u64));
            for _ in 0..k {
                expected.push(v3_walk_endpoint(&g, v, t, &mut vrng));
            }
        }

        let mut all_stats = Vec::new();
        for threads in [1usize, 2, 8] {
            let cfg = MpcConfig::for_input_size(4 * g.num_edges(), 0.5)
                .permissive()
                .with_threads(threads);
            let mut ctx = MpcContext::new(cfg);
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5EED);
            let endpoints =
                independent_lazy_walks(&g, t, k, WalkMode::Direct, 2, &mut ctx, &mut rng)
                    .expect("regular graph");
            assert_eq!(
                endpoints, expected,
                "v3 walk endpoints diverged from the scalar reference \
                 (seed {seed}, threads {threads})"
            );
            all_stats.push(ctx.into_stats());
        }
        assert_eq!(all_stats[0], all_stats[1], "stats diverged at 2 threads");
        assert_eq!(all_stats[0], all_stats[2], "stats diverged at 8 threads");
    }
}

/// Streaming ingestion must be bit-identical across thread counts: replaying
/// the same batch schedule through `IncrementalComponents` at 1/2/8 worker
/// threads yields the same labels, the same cumulative `RoundStats` (model
/// quantities — wall times are excluded from equality by design), and the
/// same per-batch path/round/word decisions. The engine interleaves
/// union-find fast paths with escalations, so this transitively pins the
/// whole fast/slow escalation machinery onto the executor determinism
/// contract.
#[test]
fn streaming_ingestion_is_bit_identical_across_thread_counts() {
    use rand::seq::SliceRandom;
    use wcc_core::stream::{IncrementalComponents, StreamParams};

    for (fi, (family, _)) in families().into_iter().enumerate() {
        let g = instance(&family, 200 + fi as u64);
        for seed in SEEDS {
            // A shuffled batch schedule over the family instance, plus a
            // trailing newcomer batch so the fast path sees fresh vertices.
            let mut edges: Vec<(u64, u64)> =
                g.edge_iter().map(|(u, v)| (u as u64, v as u64)).collect();
            edges.shuffle(&mut ChaCha8Rng::seed_from_u64(seed ^ 0x57AE)); // "STRE"
            let mut schedule: Vec<Vec<EdgeOp>> = edges.chunks(101).map(EdgeOp::inserts).collect();
            let n = g.num_vertices() as u64;
            schedule.push(EdgeOp::inserts(&[(n, 0), (n, 1), (n, 2)]));

            let replay = |threads: usize| {
                let params = StreamParams::laptop_scale().with_threads(threads);
                let mut engine = IncrementalComponents::new(params, seed);
                let reports = engine
                    .apply_ops_schedule(&schedule)
                    .expect("replay succeeds");
                // Project the per-batch reports onto their model quantities
                // (wall time is a timing observable, not part of the
                // contract).
                let decisions: Vec<_> = reports
                    .iter()
                    .map(|r| (r.path, r.rounds, r.communication_words, r.components_after))
                    .collect();
                (engine.labels(), engine.stats(), decisions)
            };

            let (labels_1, stats_1, decisions_1) = replay(1);
            for threads in THREADED {
                let (labels_t, stats_t, decisions_t) = replay(threads);
                assert_eq!(
                    labels_1, labels_t,
                    "labels diverged: family {fi}, seed {seed}, threads {threads}"
                );
                assert_eq!(
                    stats_1, stats_t,
                    "RoundStats diverged: family {fi}, seed {seed}, threads {threads}"
                );
                assert_eq!(
                    decisions_1, decisions_t,
                    "per-batch decisions diverged: family {fi}, seed {seed}, threads {threads}"
                );
            }
        }
    }
}

/// Dynamic (insert+delete) ingestion must be bit-identical across thread
/// counts too: the repair machinery — per-component scoped search,
/// union-find rebuild after a split — runs on top of the same executor
/// seam, so the labels, cumulative `RoundStats` and
/// the per-batch decision tuple (op counts, splits, recertifications and
/// forest cuts) and the spanning forest itself must not depend on the worker
/// count.
#[test]
fn dynamic_ingestion_is_bit_identical_across_thread_counts() {
    use rand::seq::SliceRandom;
    use wcc_core::stream::{IncrementalComponents, StreamParams};

    for (fi, (family, _)) in families().into_iter().enumerate() {
        let g = instance(&family, 300 + fi as u64);
        for seed in SEEDS {
            // Shuffled insert schedule, then a deletion wave over every
            // fourth edge so the repair path runs (recertifications on the
            // expanders, real splits on the ring of cliques).
            let mut edges: Vec<(u64, u64)> =
                g.edge_iter().map(|(u, v)| (u as u64, v as u64)).collect();
            edges.shuffle(&mut ChaCha8Rng::seed_from_u64(seed ^ 0xD15C0));
            let mut ops: Vec<EdgeOp> = edges.iter().map(|&(u, v)| EdgeOp::insert(u, v)).collect();
            ops.extend(edges.iter().step_by(4).map(|&(u, v)| EdgeOp::delete(u, v)));
            let schedule: Vec<Vec<EdgeOp>> = ops.chunks(101).map(<[EdgeOp]>::to_vec).collect();

            let replay = |threads: usize| {
                let params = StreamParams::laptop_scale().with_threads(threads);
                let mut engine = IncrementalComponents::new(params, seed);
                let reports = engine
                    .apply_ops_schedule(&schedule)
                    .expect("replay succeeds");
                let decisions: Vec<_> = reports
                    .iter()
                    .map(|r| {
                        (
                            r.path,
                            r.rounds,
                            r.communication_words,
                            r.components_after,
                            r.insertions,
                            r.deletions,
                            r.splits,
                            r.sketch_recertifies,
                            r.forest_cuts,
                        )
                    })
                    .collect();
                (
                    engine.labels(),
                    engine.stats(),
                    decisions,
                    engine.spanning_forest(),
                )
            };

            let (labels_1, stats_1, decisions_1, forest_1) = replay(1);
            assert!(
                decisions_1.iter().any(|d| d.8 > 0),
                "the deletion wave must cut forest edges: family {fi}, seed {seed}"
            );
            for threads in THREADED {
                let (labels_t, stats_t, decisions_t, forest_t) = replay(threads);
                assert_eq!(
                    labels_1, labels_t,
                    "labels diverged: family {fi}, seed {seed}, threads {threads}"
                );
                assert_eq!(
                    stats_1, stats_t,
                    "RoundStats diverged: family {fi}, seed {seed}, threads {threads}"
                );
                assert_eq!(
                    decisions_1, decisions_t,
                    "per-batch decisions diverged: family {fi}, seed {seed}, threads {threads}"
                );
                assert_eq!(
                    forest_1, forest_t,
                    "spanning forest diverged: family {fi}, seed {seed}, threads {threads}"
                );
            }
        }
    }
}

/// Inputs whose vertices fall on both sides of regularization's degree budget
/// (`d+1 = 9`): light vertices stay whole, heavy ones get a cloud, isolated
/// ones vanish from the product. Every entry point must return the true
/// components on them, with labels, rounds and words independent of the
/// thread count.
#[test]
fn mixed_light_and_heavy_inputs_are_exact_at_every_thread_count() {
    use wcc_core::stream::{IncrementalComponents, StreamParams};
    use wcc_graph::{connected_components, generators};

    let mut rng = ChaCha8Rng::seed_from_u64(9400);
    let (expander_star_isolated, _) = generators::disjoint_union_of(&[
        generators::random_regular_permutation_graph(80, 12, &mut rng),
        generators::star(40),
        Graph::empty(5),
    ]);
    let inputs = [
        (
            "preferential attachment",
            generators::preferential_attachment(200, 4, &mut rng),
        ),
        (
            "G(n, 8/n)",
            generators::erdos_renyi(200, 8.0 / 200.0, &mut rng),
        ),
        ("expander + star + isolated", expander_star_isolated),
    ];
    for (name, g) in inputs {
        let d = Params::test_scale().expander_degree;
        let light = g.vertices().filter(|&v| g.degree(v) <= d + 1).count();
        assert!(
            0 < light && light < g.num_vertices(),
            "{name} must mix light and heavy vertices"
        );
        let truth = connected_components(&g);
        let schedule: Vec<Vec<EdgeOp>> = g
            .edge_iter()
            .map(|(u, v)| EdgeOp::insert(u as u64, v as u64))
            .collect::<Vec<_>>()
            .chunks(101)
            .map(<[EdgeOp]>::to_vec)
            .collect();

        let run = |threads: usize| {
            let params = Params::test_scale().with_threads(threads);
            let wcc = well_connected_components(&g, 0.2, &params, 17).expect("wcc runs");
            let adaptive = adaptive_components(&g, &params, 17).expect("adaptive runs");
            let mut engine =
                IncrementalComponents::new(StreamParams::laptop_scale().with_threads(threads), 17);
            engine
                .apply_ops_schedule(&schedule)
                .expect("replay succeeds");
            let replayed = engine.labels_for_universe(g.num_vertices());
            for (entry, labels) in [
                ("wcc", &wcc.components),
                ("adaptive", &adaptive.components),
                ("stream replay", &replayed),
            ] {
                assert!(
                    labels.same_partition(&truth),
                    "{entry} is not exact on {name}, threads {threads}"
                );
            }
            (
                (wcc.components, wcc.stats),
                (adaptive.components, adaptive.stats),
                (replayed, engine.stats()),
            )
        };
        let baseline = run(1);
        for threads in THREADED {
            assert_eq!(
                baseline,
                run(threads),
                "labels, rounds or words moved on {name}, threads {threads}"
            );
        }
    }
}

/// The persistent pool vs. the retired scoped-spawn backend: the pool
/// dispatch (chunk claiming, dynamic stealing) must reproduce the old
/// one-thread-per-range backend bit for bit on the same split. The scoped
/// path survives as `*_scoped_reference` methods precisely so this
/// differential can keep running; the end-to-end cross-check is
/// `golden_dump`, whose label columns are pinned in `tests/golden/labels.txt`
/// (hashes that predate the pool and must not move; CI regenerates and
/// diffs them).
#[test]
fn pooled_dispatch_matches_scoped_reference_backend() {
    use rand::Rng;
    use wcc_mpc::Executor;

    for seed in SEEDS {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let data: Vec<u64> = (0..5000).map(|_| rng.gen()).collect();
        for threads in [2usize, 3, 8] {
            let exec = Executor::threaded(threads);
            // Per-index work with index-derived randomness, as every
            // pipeline fan-out does it.
            let f = |i: usize| {
                let s = wcc_mpc::derive_stream_seed(data[i % data.len()], i as u64);
                s.rotate_left((i % 64) as u32) ^ data[i % data.len()]
            };
            assert_eq!(
                exec.map_indexed(5000, f),
                exec.map_indexed_scoped_reference(5000, f),
                "map_indexed diverged (seed {seed}, threads {threads})"
            );
            // Per-range accumulators, as the stats/shuffle fan-outs do it.
            let g = |r: std::ops::Range<usize>| r.map(f).fold(0u64, u64::wrapping_add);
            assert_eq!(
                exec.map_ranges(5000, g),
                exec.map_ranges_scoped_reference(5000, g),
                "map_ranges diverged (seed {seed}, threads {threads})"
            );
        }
    }
}

/// The shuffle must be bit-identical across thread counts *and* must
/// reproduce the reference semantics exactly: within each destination
/// machine, tuples appear in global source order (machine-major over the
/// input). A naive single-threaded stable bucket pass is the executable
/// specification.
#[test]
fn arena_counting_shuffle_is_bit_identical_across_thread_counts() {
    use wcc_mpc::{Cluster, MpcConfig, MpcContext};

    fn splitmix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E3779B97F4A7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
        x ^ (x >> 31)
    }

    for seed in SEEDS {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let tuples: Vec<(u64, u64)> = (0..3000u64)
            .map(|i| (rand::Rng::gen_range(&mut rng, 0..97u64), i))
            .collect();

        // Reference: sequential stable bucket pass over the round-robin
        // machine layout.
        let cfg1 = MpcConfig::with_memory(1 << 14, 256).with_threads(1);
        let reference_cluster = Cluster::from_tuples(&cfg1, tuples.clone());
        let m = reference_cluster.num_machines();
        let mut expected: Vec<Vec<(u64, u64)>> = vec![Vec::new(); m];
        for mi in 0..m {
            for t in reference_cluster.machine(mi) {
                expected[(splitmix64(t.0) % m as u64) as usize].push(*t);
            }
        }

        let mut all_stats = Vec::new();
        for threads in [1usize, 2, 8] {
            let cfg = MpcConfig::with_memory(1 << 14, 256).with_threads(threads);
            let mut ctx = MpcContext::new(cfg);
            let cluster = Cluster::from_tuples(&cfg, tuples.clone());
            let shuffled = cluster.shuffle_by_key(&mut ctx, |t| t.0).unwrap();
            for (mi, want) in expected.iter().enumerate() {
                assert_eq!(
                    shuffled.machine(mi),
                    &want[..],
                    "machine {mi} diverged from the reference order (seed {seed}, threads {threads})"
                );
            }
            // Re-shuffling by the same key routes every tuple to the machine
            // it already sits on: it must hand back the same arena (and,
            // through `all_stats`, the same charge) at every thread count.
            let again = shuffled.shuffle_by_key(&mut ctx, |t| t.0).unwrap();
            assert_eq!(again.offsets(), shuffled.offsets());
            assert_eq!(again.gather(), shuffled.gather());
            all_stats.push(ctx.into_stats());
        }
        assert_eq!(all_stats[0], all_stats[1], "stats diverged at 2 threads");
        assert_eq!(all_stats[0], all_stats[2], "stats diverged at 8 threads");
    }
}
