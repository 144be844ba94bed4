//! Criterion benchmarks of the end-to-end algorithms: the paper's pipeline
//! (Theorem 4), the adaptive variant (Corollary 7.1), the sublinear-space
//! algorithm (Theorem 2) and the classical baselines, all on the same
//! planted-expander workload — plus the groups recorded in
//! `BENCH_pipeline.json` at the workspace root:
//!
//! * **pipeline_adaptive_e2e** — the adaptive pipeline on a ~10⁵-edge
//!   12-regular planted-expander graph (every vertex over regularization's
//!   degree budget, so the walks run on 2·10⁵ cloud vertices) at 1 and 4
//!   worker threads (the whole zero-materialisation walk engine end to end;
//!   one sample per config, each run takes seconds);
//! * **contraction** — the contraction graph's identity, pair-bitmap and
//!   bucketed data planes on the shapes the one-shot benchmark workload
//!   feeds them, each checked against a sort-and-dedup spec before timing;
//! * **walk_kernel** — the isolated Step-2 fan-out under the retained spec
//!   kernel vs the v3 stay-run-compression kernel at two walk lengths, with
//!   an endpoint-distribution sanity assert before any timing;
//! * **walks** — one `randomize` batch's walk fan-out on the one-shot
//!   benchmark's expander shape, on the dispatched move tier vs the portable
//!   tier, endpoints asserted equal before timing;
//! * **reduce_by_key_radix_vs_hashmap** — the sort-based aggregation
//!   (`reduce_by_key`) against the retained hash-based reference
//!   (`reduce_by_key_hashmap`) at 10⁵–10⁶ tuples. Outputs are asserted
//!   bit-identical before timing, so any difference is pure aggregation
//!   machinery;
//! * **stream_ingest** — the incremental engine's union-find fast path
//!   against per-batch full recompute on a merge-free streaming batch
//!   schedule (end labellings asserted identical before timing);
//! * **dynamic_ingest** — the turnstile engine on a deletion-heavy op
//!   schedule (rolling insert/delete window: turnstile sketch updates every
//!   batch, every deletion certified by the spanning forest) vs a merge-free
//!   insert-only schedule of the same batch size,
//!   differentially checked against per-batch full recompute before timing.
//!
//! Wall-clock time is *not* the quantity the paper bounds (rounds are — see
//! the `exp_*` binaries); these benchmarks exist to track the simulator's
//! practical cost and to compare implementations release over release.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use wcc_baselines::{hash_to_min, random_mate_contraction, sequential_components};
use wcc_core::prelude::*;
use wcc_core::sublinear::{sublinear_components, SublinearParams};
use wcc_graph::prelude::*;
use wcc_mpc::{Cluster, MpcConfig, MpcContext};

fn planted(n: usize, seed: u64) -> Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    generators::planted_expander_components(&[n / 2, n / 2], 8, &mut rng)
}

fn bench_pipeline_vs_baselines(c: &mut Criterion) {
    let mut group = c.benchmark_group("connectivity_end_to_end");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    for &n in &[256usize, 1024] {
        let g = planted(n, 1);
        let params = Params::laptop_scale();
        group.bench_with_input(BenchmarkId::new("wcc_pipeline", n), &g, |b, g| {
            b.iter(|| well_connected_components(g, 0.3, &params, 7).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("adaptive_unknown_gap", n), &g, |b, g| {
            b.iter(|| adaptive_components(g, &params, 7).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("sublinear_theorem2", n), &g, |b, g| {
            b.iter(|| sublinear_components(g, 256, &SublinearParams::laptop_scale(), 7).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("baseline_hash_to_min", n), &g, |b, g| {
            b.iter(|| {
                let mut ctx =
                    MpcContext::new(MpcConfig::for_input_size(2 * g.num_edges(), 0.5).permissive());
                hash_to_min(g, &mut ctx)
            })
        });
        group.bench_with_input(BenchmarkId::new("baseline_random_mate", n), &g, |b, g| {
            b.iter(|| {
                let mut ctx =
                    MpcContext::new(MpcConfig::for_input_size(2 * g.num_edges(), 0.5).permissive());
                random_mate_contraction(g, &mut ctx, 3)
            })
        });
        group.bench_with_input(BenchmarkId::new("sequential_union_find", n), &g, |b, g| {
            b.iter(|| sequential_components(g))
        });
    }
    group.finish();
}

fn bench_growth_stage(c: &mut Criterion) {
    let mut group = c.benchmark_group("grow_components_stage");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    let params = Params::laptop_scale();
    for &n in &[5_000usize, 20_000] {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let degree = params.batch_degree(n);
        let batches: Vec<Graph> = (0..params.num_phases(n))
            .map(|_| generators::random_out_degree_graph(n, degree, &mut rng))
            .collect();
        group.bench_with_input(
            BenchmarkId::new("grow_components", n),
            &batches,
            |b, batches| {
                b.iter(|| {
                    let mut rng = ChaCha8Rng::seed_from_u64(3);
                    let mut ctx = MpcContext::new(
                        MpcConfig::for_input_size(4 * n * degree, 0.5).permissive(),
                    );
                    wcc_core::leader::grow_components(batches, &params, &mut ctx, &mut rng).unwrap()
                })
            },
        );
    }
    group.finish();
}

/// The contraction's three data planes. `oneshot_expander` (BENCHMARK.json)
/// regularizes to 12 500 whole vertices and walks batches of 30 out-edges per
/// vertex: phase 1 contracts one batch by the identity partition (read off
/// the CSR), phase 2 by ≈3 150 parts and the endgame both batches by ≈177
/// parts (pair bitmap). The bucketed build sits past the dense switch
/// (parts² > 2²⁴), which neither one-shot workload reaches any more; its row
/// keeps it timed on the same batch at 6 250 parts. Every row's graph is
/// checked field for field against a relabel + global sort + dedup spec
/// first.
fn bench_contraction(c: &mut Criterion) {
    use wcc_core::leader::contraction_graph_of_refs;

    let mut group = c.benchmark_group("contraction");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_secs(3));
    let n = 12_500usize;
    let mut rng = ChaCha8Rng::seed_from_u64(13);
    let batches: Vec<Graph> = (0..2)
        .map(|_| generators::random_out_degree_graph(n, 60, &mut rng))
        .collect();
    let one = [&batches[0]];
    let all: Vec<&Graph> = batches.iter().collect();
    let random_parts = |parts: usize, rng: &mut ChaCha8Rng| {
        use rand::Rng;
        let labels: Vec<usize> = (0..n).map(|_| rng.gen_range(0..parts)).collect();
        Partition::from_raw_labels(&labels)
    };
    let rows: [(&str, &[&Graph], Partition); 4] = [
        ("identity/phase1", &one, Partition::singletons(n)),
        ("dense_pairs/phase2", &one, random_parts(3_150, &mut rng)),
        ("dense_pairs/bfs", &all, random_parts(177, &mut rng)),
        ("bucketed/6250_parts", &one, random_parts(6_250, &mut rng)),
    ];
    let ctx = || MpcContext::new(MpcConfig::for_input_size(1 << 24, 0.5).permissive());
    for (name, graphs, partition) in &rows {
        let mut spec: Vec<(usize, usize)> = graphs
            .iter()
            .flat_map(|g| g.edge_iter())
            .map(|(u, v)| (partition.part_of(u), partition.part_of(v)))
            .filter(|&(a, b)| a != b)
            .map(|(a, b)| (a.min(b), a.max(b)))
            .collect();
        spec.sort_unstable();
        spec.dedup();
        let spec = Graph::from_edges_unchecked(partition.num_parts(), spec);
        let got = contraction_graph_of_refs(graphs, partition, &mut ctx());
        assert_eq!(got.edges(), spec.edges(), "{name}: edge list");
        assert_eq!(got.csr_offsets(), spec.csr_offsets(), "{name}: offsets");
        assert_eq!(
            got.csr_adjacency(),
            spec.csr_adjacency(),
            "{name}: adjacency"
        );
        let edges: usize = graphs.iter().map(|g| g.num_edges()).sum();
        group.bench_function(BenchmarkId::new(*name, edges), |b| {
            b.iter(|| contraction_graph_of_refs(graphs, partition, &mut ctx()))
        });
    }
    group.finish();
}

/// The adaptive pipeline (Corollary 7.1) on a ~10⁵-edge generator graph —
/// the workload the zero-materialisation walk engine was built for. The
/// expanders are 12-regular: every vertex is over regularization's degree
/// budget `d+1 = 9` and gets a cloud, so the walks run on `2m` = 2·10⁵
/// product vertices and the executor has work to spread (on the 8-regular
/// input the vertices stay whole, the run is ≈ 0.3 s and four threads buy
/// 1.17×). One run takes seconds, so the sampling budget effectively
/// collects a single timed sample per configuration after the warm-up.
fn bench_adaptive_pipeline_large(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline_adaptive_e2e");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(100));
    group.measurement_time(std::time::Duration::from_secs(3));
    // 2 × 8 334 vertices at degree 12 = 100 008 edges.
    let g = {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        generators::planted_expander_components(&[8_334, 8_334], 12, &mut rng)
    };
    assert_eq!(g.num_edges(), 100_008);
    let params = Params::laptop_scale();
    for &threads in &[1usize, 4] {
        let p = params.with_threads(threads);
        group.bench_with_input(
            BenchmarkId::new(format!("adaptive_t{threads}"), g.num_edges()),
            &g,
            |b, g| b.iter(|| adaptive_components(g, &p, 7).unwrap()),
        );
    }
    group.finish();
}

/// Sort-based aggregation vs the retained hash-based reference, on the same
/// keyed-tuple workload `bench_cluster` uses (4096 distinct keys).
fn bench_reduce_radix_vs_hashmap(c: &mut Criterion) {
    let mut group = c.benchmark_group("reduce_by_key_radix_vs_hashmap");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(4));
    for &n in &[100_000usize, 1_000_000] {
        for &threads in &[1usize, 4] {
            let cfg = MpcConfig::with_memory(4 * n, (4 * n) / 64)
                .permissive()
                .with_threads(threads);
            let tuples: Vec<(u64, u64)> = (0..n as u64)
                .map(|i| (i.wrapping_mul(2654435761) % 4096, i))
                .collect();
            let cluster = Cluster::from_tuples(&cfg, tuples);
            // Differential check once per configuration: identical pairs, in
            // identical order, before any timing happens.
            {
                let mut ctx_a = MpcContext::new(cfg);
                let mut ctx_b = MpcContext::new(cfg);
                let radix = cluster
                    .reduce_by_key(
                        &mut ctx_a,
                        |t| t.0,
                        |_| 0u64,
                        |a, t| *a += t.1,
                        |a, b| *a += b,
                    )
                    .unwrap();
                let hash = cluster
                    .reduce_by_key_hashmap(
                        &mut ctx_b,
                        |t| t.0,
                        |_| 0u64,
                        |a, t| *a += t.1,
                        |a, b| *a += b,
                    )
                    .unwrap();
                assert_eq!(radix, hash, "aggregation drifted from the reference");
            }
            group.bench_with_input(
                BenchmarkId::new(format!("radix_t{threads}"), n),
                &cluster,
                |b, cl| {
                    b.iter(|| {
                        let mut ctx = MpcContext::new(cfg);
                        cl.reduce_by_key(
                            &mut ctx,
                            |t| t.0,
                            |_| 0u64,
                            |a, t| *a += t.1,
                            |a, b| *a += b,
                        )
                        .unwrap()
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("hashmap_t{threads}"), n),
                &cluster,
                |b, cl| {
                    b.iter(|| {
                        let mut ctx = MpcContext::new(cfg);
                        cl.reduce_by_key_hashmap(
                            &mut ctx,
                            |t| t.0,
                            |_| 0u64,
                            |a, t| *a += t.1,
                            |a, b| *a += b,
                        )
                        .unwrap()
                    })
                },
            );
        }
    }
    group.finish();
}

/// The two walk kernels head to head on the isolated Step-2 fan-out (the
/// `walk_kernel` group recorded in `BENCH_pipeline.json`): the retained
/// step-by-step spec kernel vs the v3 stay-run-compression kernel, at a
/// short and a long walk length. Before any timing, both kernels' endpoint
/// distributions are sanity-checked against each other on the same graph
/// (coarse per-vertex frequency comparison — the rigorous χ² suite lives in
/// `tests/walk_kernel_equivalence.rs`).
fn bench_walk_kernel(c: &mut Criterion) {
    use wcc_core::walks::{independent_lazy_walks, WalkKernel, WalkMode};

    let mut group = c.benchmark_group("walk_kernel");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(3));

    let n = 8192;
    let k = 4;
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    let g = generators::random_regular_permutation_graph(n, 8, &mut rng);

    // Endpoint-distribution sanity assert: with enough draws per vertex the
    // two kernels' aggregate endpoint frequencies must agree closely (they
    // sample the identical lazy-walk distribution from different keystream
    // encodings). Total-variation distance over a long-mixed small graph.
    {
        let small = generators::random_regular_permutation_graph(256, 8, &mut rng);
        let mut freq = [vec![0u64; 256], vec![0u64; 256]];
        for (slot, kernel) in [WalkKernel::Spec, WalkKernel::V3].into_iter().enumerate() {
            let mut ctx =
                MpcContext::new(MpcConfig::for_input_size(4 * small.num_edges(), 0.5).permissive());
            let mut rng = ChaCha8Rng::seed_from_u64(23 + slot as u64);
            let flat = independent_lazy_walks(
                &small,
                64,
                32,
                WalkMode::Direct,
                kernel,
                2,
                &mut ctx,
                &mut rng,
            )
            .unwrap();
            for &end in &flat {
                freq[slot][end] += 1;
            }
        }
        let total: u64 = freq[0].iter().sum();
        let tvd: f64 = freq[0]
            .iter()
            .zip(&freq[1])
            .map(|(&a, &b)| (a as f64 - b as f64).abs())
            .sum::<f64>()
            / (2.0 * total as f64);
        // Two independent 8192-draw multinomials over 256 categories sit at
        // TVD ≈ √(K/(πN)) ≈ 0.10 under the null, so gate at 2.5× that —
        // loose against sampling noise, far below the O(0.5) separation a
        // biased kernel produces (the real equivalence test is the χ² suite
        // in tests/walk_kernel_equivalence.rs).
        assert!(
            tvd < 0.25,
            "kernel endpoint distributions diverged before timing: tvd = {tvd}"
        );
    }

    for &t in &[64usize, 256] {
        for (name, kernel) in [("spec", WalkKernel::Spec), ("v3", WalkKernel::V3)] {
            group.bench_with_input(BenchmarkId::new(name, format!("t{t}")), &g, |b, g| {
                b.iter(|| {
                    let mut ctx = MpcContext::new(
                        MpcConfig::for_input_size(4 * g.num_edges(), 0.5).permissive(),
                    );
                    let mut rng = ChaCha8Rng::seed_from_u64(29);
                    independent_lazy_walks(g, t, k, WalkMode::Direct, kernel, 2, &mut ctx, &mut rng)
                        .unwrap()
                })
            });
        }
    }
    group.finish();
}

/// One `randomize` batch's walk fan-out on the shape BENCHMARK.json's
/// `oneshot_expander` gives it (the `walks` group recorded in
/// `BENCH_pipeline.json`): the regularized planted expander (its 8-regular
/// vertices kept whole: n_reg = 12 500, Δ = 9), `t = 114`, `k = 30` walks per
/// vertex — 4.3·10⁷ lazy steps — on the move tier the CPU dispatches to
/// against the portable tier (counting-sorted scalar rounds). Both rows are
/// `independent_lazy_walks`; the batch's `Graph` build (the same on both) is
/// not in them. The endpoints are asserted equal before timing,
/// so any difference is pure move-loop machinery.
fn bench_randomize_batch(c: &mut Criterion) {
    use wcc_core::regularize::regularize;
    use wcc_core::walks::{
        independent_lazy_walks, independent_lazy_walks_portable, walk_move_tier, WalkKernel,
        WalkMode,
    };

    let mut group = c.benchmark_group("walks");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(5));

    let params = Params::laptop_scale().with_threads(1);
    let g = planted(12_500, 7);
    let config = || MpcConfig::for_input_size(4 * g.num_edges(), 0.5).permissive();
    let reg = {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        regularize(&g, &params, &mut MpcContext::new(config()), &mut rng).unwrap()
    };
    let (t, k) = (114usize, 30usize);
    assert_eq!(
        (reg.graph.num_vertices(), reg.graph.max_degree()),
        (12_500, 9)
    );

    type Fanout = fn(
        &Graph,
        usize,
        usize,
        WalkMode,
        WalkKernel,
        usize,
        &mut MpcContext,
        &mut ChaCha8Rng,
    ) -> Result<Vec<usize>, wcc_core::CoreError>;
    let batch = |fanout: Fanout| {
        let mut ctx = MpcContext::new(config().with_threads(1));
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        fanout(
            &reg.graph,
            t,
            k,
            WalkMode::Direct,
            WalkKernel::V3,
            2,
            &mut ctx,
            &mut rng,
        )
        .unwrap()
    };
    let rows: [(&str, Fanout); 2] = [
        (walk_move_tier(), independent_lazy_walks),
        ("portable", independent_lazy_walks_portable),
    ];
    // `assert!`, not `assert_eq!`: a failure must not print 375k endpoints.
    assert!(
        batch(rows[0].1) == batch(rows[1].1),
        "{} and portable move tiers disagree on the endpoints",
        rows[0].0
    );
    for (name, fanout) in rows {
        group.bench_function(BenchmarkId::new("randomize_batch", name), |b| {
            b.iter(|| batch(fanout))
        });
    }
    group.finish();
}

/// Streaming ingestion: the union-find fast path against per-batch full
/// recompute on a merge-free batch schedule (the `stream_ingest` group
/// recorded in `BENCH_pipeline.json`).
///
/// Both arms start from the same pre-bootstrapped engine (the bootstrap
/// pipeline run is setup, not the thing measured) and replay the same eight
/// merge-free traffic batches; the only difference is
/// [`StreamParams::fast_path`]. The fast arm's cost is eight union-find
/// passes; the slow arm pays eight full Theorem-4 recomputes — the
/// "recompute from scratch every batch" strawman the incremental engine
/// exists to beat. End labellings are asserted identical before timing.
fn bench_stream_ingest(c: &mut Criterion) {
    use wcc_core::stream::{IncrementalComponents, StreamParams};

    let mut group = c.benchmark_group("stream_ingest");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(100));
    group.measurement_time(std::time::Duration::from_secs(3));

    // ~4000-edge base graph: two planted expander components.
    let g = planted(1_000, 11);
    let bootstrap: Vec<EdgeOp> = g
        .edge_iter()
        .map(|(u, v)| EdgeOp::insert(u as u64, v as u64))
        .collect();
    let n = g.num_vertices() as u64;
    // Eight merge-free traffic batches: random intra-component edges within
    // the first component (vertices 0..n/2).
    let mut rng = ChaCha8Rng::seed_from_u64(13);
    let batches: Vec<Vec<EdgeOp>> = (0..8)
        .map(|_| {
            (0..400)
                .map(|_| {
                    use rand::Rng;
                    EdgeOp::insert(rng.gen_range(0..n / 2), rng.gen_range(0..n / 2))
                })
                .collect()
        })
        .collect();

    let params = StreamParams::laptop_scale().with_lambda(0.3);
    let mut fast_base = IncrementalComponents::new(params, 7);
    fast_base.apply_ops_batch(&bootstrap).unwrap();
    let mut slow_base = IncrementalComponents::new(params.with_fast_path(false), 7);
    slow_base.apply_ops_batch(&bootstrap).unwrap();

    // Differential check once, before any timing: identical partitions and
    // a genuinely merge-free schedule (the fast arm must never recompute).
    {
        let mut fast = fast_base.clone();
        let mut slow = slow_base.clone();
        for batch in &batches {
            let r = fast.apply_ops_batch(batch).unwrap();
            assert!(r.path.is_fast(), "schedule is not merge-free: {:?}", r.path);
            slow.apply_ops_batch(batch).unwrap();
        }
        assert!(
            fast.labels().same_partition(&slow.labels()),
            "fast path drifted from per-batch recompute"
        );
    }

    let total_edges: usize = batches.iter().map(Vec::len).sum();
    group.bench_with_input(
        BenchmarkId::new("fast_path", total_edges),
        &batches,
        |b, batches| {
            b.iter(|| {
                let mut engine = fast_base.clone();
                for batch in batches {
                    engine.apply_ops_batch(batch).unwrap();
                }
                engine.num_components()
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("full_recompute_per_batch", total_edges),
        &batches,
        |b, batches| {
            b.iter(|| {
                let mut engine = slow_base.clone();
                for batch in batches {
                    engine.apply_ops_batch(batch).unwrap();
                }
                engine.num_components()
            })
        },
    );
    group.finish();
}

/// Dynamic (turnstile) ingestion: a deletion-heavy op schedule against a
/// merge-free insert-only schedule of the same size (the `dynamic_ingest`
/// group recorded in `BENCH_pipeline.json`).
///
/// The merge-free arm is the insert-only fast path — the ~ns/edge baseline
/// deletions must not regress (the sketch is built lazily on the first
/// deletion, so this arm never pays for it). The deletion-heavy arm rolls a
/// window: each batch inserts 400 fresh intra-component edges and deletes
/// the 400 inserted by the previous batch, so every batch after the first
/// is a structural-deletion storm on the `SketchRepair` path — none of it a
/// forest cut, so what is timed is the lazy build and 6 000 sketch updates.
/// Before timing, the deletion arm is differentially
/// checked against a fast-path-disabled reference (per-batch full
/// recompute) on the identical schedule, and the schedule is asserted to
/// actually exercise the sketch path.
fn bench_dynamic_ingest(c: &mut Criterion) {
    use wcc_core::stream::{IncrementalComponents, StreamParams};
    let mut group = c.benchmark_group("dynamic_ingest");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(100));
    group.measurement_time(std::time::Duration::from_secs(3));

    // Same base workload as `stream_ingest`: two planted expander
    // components, ~4000 edges.
    let g = planted(1_000, 11);
    let bootstrap: Vec<EdgeOp> = g
        .edge_iter()
        .map(|(u, v)| EdgeOp::insert(u as u64, v as u64))
        .collect();
    let n = g.num_vertices() as u64;
    let mut rng = ChaCha8Rng::seed_from_u64(13);
    let mut fresh_batch = |count: usize| -> Vec<(u64, u64)> {
        // Distinct random intra-component pairs (component 0 = 0..n/2).
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            use rand::Rng;
            let (u, v) = (rng.gen_range(0..n / 2), rng.gen_range(0..n / 2));
            if u != v && seen.insert((u.min(v), u.max(v))) {
                out.push((u, v));
            }
        }
        out
    };

    // Merge-free insert-only schedule: 8 batches of 400 traffic edges.
    let insert_only: Vec<Vec<EdgeOp>> =
        (0..8).map(|_| EdgeOp::inserts(&fresh_batch(400))).collect();
    // Deletion-heavy rolling window over the same batch size: insert 400,
    // delete the previous batch's 400.
    let windows: Vec<Vec<(u64, u64)>> = (0..8).map(|_| fresh_batch(400)).collect();
    let deletion_heavy: Vec<Vec<EdgeOp>> = (0..8)
        .map(|i| {
            let mut ops = EdgeOp::inserts(&windows[i]);
            if i > 0 {
                ops.extend(windows[i - 1].iter().map(|&(u, v)| EdgeOp::delete(u, v)));
            }
            ops
        })
        .collect();

    let params = StreamParams::laptop_scale().with_lambda(0.3);
    let mut base = IncrementalComponents::new(params, 7);
    base.apply_ops_batch(&bootstrap).unwrap();

    // Differential check once, before any timing: the sketch-repair engine
    // and the per-batch-recompute reference land on the same partition, the
    // insert arm never escalates, and the deletion arm genuinely runs the
    // sketch path.
    {
        let mut fast = base.clone();
        for batch in &insert_only {
            let r = fast.apply_ops_batch(batch).unwrap();
            assert!(r.path.is_fast(), "schedule is not merge-free: {:?}", r.path);
        }
        assert!(!fast.sketch_active(), "insert-only arm must stay lazy");

        let mut sketchy = base.clone();
        for batch in &deletion_heavy {
            sketchy.apply_ops_batch(batch).unwrap();
        }
        assert!(
            sketchy.splits() + sketchy.sketch_recertifies() > 0,
            "deletion-heavy schedule never exercised the sketch path"
        );
        let mut reference = IncrementalComponents::new(params.with_fast_path(false), 7);
        reference.apply_ops_batch(&bootstrap).unwrap();
        for batch in &deletion_heavy {
            reference.apply_ops_batch(batch).unwrap();
        }
        assert_eq!(sketchy.num_edges(), reference.num_edges());
        assert!(
            sketchy.labels().same_partition(&reference.labels()),
            "sketch repair drifted from per-batch recompute"
        );
    }

    let total_ops: usize = deletion_heavy.iter().map(Vec::len).sum();
    group.bench_with_input(
        BenchmarkId::new("merge_free_inserts", total_ops),
        &insert_only,
        |b, schedule| {
            b.iter(|| {
                let mut engine = base.clone();
                for batch in schedule {
                    engine.apply_ops_batch(batch).unwrap();
                }
                engine.num_components()
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("deletion_heavy", total_ops),
        &deletion_heavy,
        |b, schedule| {
            b.iter(|| {
                let mut engine = base.clone();
                for batch in schedule {
                    engine.apply_ops_batch(batch).unwrap();
                }
                engine.num_components()
            })
        },
    );
    group.finish();
}

/// The query-service building blocks behind `wcc serve` (the
/// `serve_snapshot` group): publish cost for a quiet batch (no vertex or
/// structure change — must be Arc-reuse, not a rebuild) vs a changed batch
/// (full label rebuild), raw snapshot query throughput, and the wire
/// protocol encode/decode round-trip.
fn bench_serve_snapshot(c: &mut Criterion) {
    use wcc_core::serve::{Request, Response, SnapshotCell, SnapshotReader};
    use wcc_core::stream::{IncrementalComponents, StreamParams};

    let mut group = c.benchmark_group("serve_snapshot");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(3));

    let g = planted(1_000, 11);
    let bootstrap: Vec<EdgeOp> = g
        .edge_iter()
        .map(|(u, v)| EdgeOp::insert(u as u64, v as u64))
        .collect();
    let n = g.num_vertices() as u64;
    let params = StreamParams::laptop_scale().with_lambda(0.3);
    let mut engine = IncrementalComponents::new(params, 7);
    engine.apply_ops_batch(&bootstrap).unwrap();

    // Quiet publish: a duplicate batch changes nothing, so `snapshot()` must
    // reuse every Arc from the cache (asserted before timing).
    {
        let mut probe = engine.clone();
        let before = probe.snapshot(1);
        probe.apply_ops_batch(&bootstrap[..64]).unwrap();
        let after = probe.snapshot(2);
        assert!(
            after.shares_structure(&before) && after.shares_index(&before),
            "duplicate batch should republish without rebuilding"
        );
    }
    group.bench_function("publish_quiet", |b| {
        let mut probe = engine.clone();
        probe.apply_ops_batch(&bootstrap[..64]).unwrap();
        let mut epoch = 1u64;
        b.iter(|| {
            epoch += 1;
            probe.snapshot(epoch)
        })
    });
    group.bench_function("publish_changed", |b| {
        let mut probe = engine.clone();
        let mut epoch = 1u64;
        b.iter(|| {
            // Touching a fresh vertex dirties the index, forcing the O(n)
            // label rebuild the quiet arm avoids.
            probe
                .apply_ops_batch(&[EdgeOp::insert(0, n + epoch)])
                .unwrap();
            epoch += 1;
            probe.snapshot(epoch)
        })
    });

    // Raw query throughput against a published snapshot, through the same
    // reader path the server's connection handlers use.
    let cell = SnapshotCell::new();
    cell.publish(engine.snapshot(1));
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let queries: Vec<(u64, u64)> = (0..4096)
        .map(|_| {
            use rand::Rng;
            (rng.gen_range(0..n), rng.gen_range(0..n))
        })
        .collect();
    group.bench_function("snapshot_query_4096", |b| {
        let mut reader = SnapshotReader::new(&cell);
        b.iter(|| {
            let snap = reader.current(&cell);
            let mut same = 0u64;
            for &(u, v) in &queries {
                if snap.same_component(u, v) == Some(true) {
                    same += 1;
                }
            }
            same
        })
    });

    // Wire protocol: encode + decode a request/response pair.
    group.bench_function("protocol_roundtrip", |b| {
        let mut buf = Vec::with_capacity(64);
        b.iter(|| {
            buf.clear();
            Request::SameComponent { u: 17, v: 42 }.encode(&mut buf);
            let req = Request::decode(&buf[4..]).unwrap();
            buf.clear();
            Response::Same {
                epoch: 9,
                same: true,
            }
            .encode(&mut buf);
            let resp = Response::decode(&buf[4..]).unwrap();
            (req, resp)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_pipeline_vs_baselines,
    bench_growth_stage,
    bench_contraction,
    bench_adaptive_pipeline_large,
    bench_walk_kernel,
    bench_randomize_batch,
    bench_reduce_radix_vs_hashmap,
    bench_stream_ingest,
    bench_dynamic_ingest,
    bench_serve_snapshot
);
criterion_main!(benches);
