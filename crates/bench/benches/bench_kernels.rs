//! Criterion micro-benchmarks of the four kernels the benchmark's per-layer
//! ledger (`BENCHMARK.json`, `benchmark/`) cannot isolate: it reports a
//! kernel's share of a whole run on whichever tier the host dispatches to,
//! not one tier against another or one data plane on a fixed shape.
//!
//! * **chacha8_batch** — the walk kernels' keystream refill at both lane
//!   counts, dispatched SIMD tier vs the portable loop;
//! * **walks** — one `randomize` batch's walk fan-out on `oneshot_expander`'s
//!   shape, dispatched move tier vs the portable tier;
//! * **agm_sketch** — the connectivity sketch's build-and-decode, turnstile
//!   updates and subset Borůvka;
//! * **contraction** — the contraction graph's identity, pair-bitmap and
//!   bucketed data planes on the shapes the one-shot workloads feed them.
//!
//! Every row asserts its output equal to a reference before it is timed.
//! Everything else — end-to-end wall time, ingest, serve, `Cluster`
//! supersteps, executor speed-up — is measured by `benchmark/` only.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;
use rand_chacha::{keystream_tier, ChaCha8Batch, ChaCha8Rng};

use wcc_core::prelude::*;
use wcc_graph::prelude::*;
use wcc_mpc::{MpcConfig, MpcContext};
use wcc_sketch::DynamicConnectivitySketch;

fn planted(n: usize, seed: u64) -> Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    generators::planted_expander_components(&[n / 2, n / 2], 8, &mut rng)
}

/// One iteration of a `chacha8_batch/refill` row generates this many
/// keystream words, so a row's time in µs ÷ 1048.576 is its ns/word.
const KEYSTREAM_WORDS_PER_ITER: usize = 1 << 20;

fn bench_chacha_batch_lanes<const L: usize>(
    group: &mut criterion::BenchmarkGroup<'_>,
    dispatched_tier: &str,
) {
    let seeds: [u64; L] = core::array::from_fn(|l| 0xC0FFEE + l as u64);
    let refills = KEYSTREAM_WORDS_PER_ITER / (16 * L);
    // Same words from both paths before either is timed.
    {
        let mut dispatched = ChaCha8Batch::<L>::seed_from_u64s(&seeds);
        let mut portable = dispatched.clone();
        let (mut a, mut b) = ([[0u32; L]; 16], [[0u32; L]; 16]);
        for _ in 0..4 {
            dispatched.refill(&mut a);
            portable.refill_portable(&mut b);
            assert_eq!(a, b, "dispatched tier diverged from the portable loop");
        }
    }
    let mut block = [[0u32; L]; 16];
    let mut batch = ChaCha8Batch::<L>::seed_from_u64s(&seeds);
    group.bench_function(format!("refill/L{L}/{dispatched_tier}"), |b| {
        b.iter(|| {
            for _ in 0..refills {
                batch.refill(std::hint::black_box(&mut block));
            }
            block[15][L - 1]
        })
    });
    let mut batch = ChaCha8Batch::<L>::seed_from_u64s(&seeds);
    group.bench_function(format!("refill/L{L}/portable"), |b| {
        b.iter(|| {
            for _ in 0..refills {
                batch.refill_portable(std::hint::black_box(&mut block));
            }
            block[15][L - 1]
        })
    });
}

/// The walk kernels' keystream source at their two lane counts (16: spec
/// kernel, 32: v3), on the tier this host dispatches to and on the portable
/// loop every tier must reproduce.
fn bench_chacha_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("chacha8_batch");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_secs(2));
    let tier = keystream_tier();
    println!("  keystream tier dispatched on this host: {tier}");
    bench_chacha_batch_lanes::<16>(&mut group, tier);
    bench_chacha_batch_lanes::<32>(&mut group, tier);
    group.finish();
}

/// One `randomize` batch's walk fan-out on the shape BENCHMARK.json's
/// `oneshot_expander` gives it: the regularized planted expander (its 8-regular
/// vertices kept whole: n_reg = 12 500, Δ = 9), `t = 114`, `k = 30` walks per
/// vertex — 4.3·10⁷ lazy steps — on the move tier the CPU dispatches to
/// against the portable tier (counting-sorted scalar rounds). Both rows are
/// `independent_lazy_walks`; the batch's `Graph` build (the same on both) is
/// not in them. The endpoints are asserted equal before timing,
/// so any difference is pure move-loop machinery.
fn bench_randomize_batch(c: &mut Criterion) {
    use wcc_core::regularize::regularize;
    use wcc_core::walks::{
        independent_lazy_walks, independent_lazy_walks_portable, walk_move_tier, WalkMode,
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
        usize,
        &mut MpcContext,
        &mut ChaCha8Rng,
    ) -> Result<Vec<usize>, wcc_core::CoreError>;
    let batch = |fanout: Fanout| {
        let mut ctx = MpcContext::new(config().with_threads(1));
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        fanout(&reg.graph, t, k, WalkMode::Direct, 2, &mut ctx, &mut rng).unwrap()
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

fn bench_sketch(c: &mut Criterion) {
    let mut group = c.benchmark_group("agm_sketch");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    // Theorem 2's coordinator step: one message per vertex, then Borůvka over
    // every vertex.
    let g = generators::erdos_renyi(400, 0.02, &mut rng);
    let everyone: Vec<u32> = (0..g.num_vertices() as u32).collect();
    let build_and_decode = || {
        let mut sk = DynamicConnectivitySketch::new(20, 9);
        let messages: Vec<_> = (0..g.num_vertices())
            .map(|v| sk.message_for(v as u32, g.neighbors(v)))
            .collect();
        sk.push_messages(messages);
        sk.subset_components(&everyone)
    };
    assert_eq!(
        build_and_decode().expect("certifies").parts.len(),
        connected_components(&g).num_components()
    );
    group.bench_function("build_and_decode_n400", |b| b.iter(build_and_decode));

    // The turnstile kernel on the benchmark's `stream_churn` shape: two
    // planted 8-regular expanders of 1 000 vertices, 26 phases, and a window
    // of 400 fresh intra-community edges inserted and deleted again — so
    // every iteration does the same 800 updates on the same sketch
    // (`dynamic_update` ÷ 800 = time per op).
    let half = 1_000u32;
    let g = generators::planted_expander_components(&[half as usize; 2], 8, &mut rng);
    let mut sk = DynamicConnectivitySketch::new(26, 0x5EED);
    for _ in 0..g.num_vertices() {
        sk.push_vertex();
    }
    for (u, v) in g.edge_iter() {
        sk.add_edge(u as u32, v as u32);
    }
    let window: Vec<(u32, u32)> = {
        use rand::Rng;
        let mut seen = std::collections::HashSet::new();
        std::iter::repeat_with(|| (rng.gen_range(0..half), rng.gen_range(0..half)))
            .filter(|&(u, v)| u != v && seen.insert((u.min(v), u.max(v))))
            .take(400)
            .collect()
    };
    let members: Vec<u32> = (0..half).collect();
    // Differential check once, before any timing: the window cancels exactly
    // and the subset Borůvka certifies the community's true partition.
    {
        let base = sk.clone();
        for &(u, v) in &window {
            sk.add_edge(u, v);
        }
        assert_ne!(sk, base);
        for &(u, v) in &window {
            sk.remove_edge(v, u);
        }
        assert_eq!(sk, base, "insert + delete must cancel");
        // Each planted expander is connected, so the community is one part.
        assert_eq!(connected_components(&g).num_components(), 2);
        let parts = sk.subset_components(&members).expect("certifies").parts;
        assert_eq!(parts, vec![members.clone()]);
    }
    group.bench_function("dynamic_update/800_ops", |b| {
        b.iter(|| {
            for &(u, v) in &window {
                sk.add_edge(u, v);
            }
            for &(u, v) in &window {
                sk.remove_edge(u, v);
            }
        })
    });
    group.bench_function("subset_components/1000_members", |b| {
        b.iter(|| sk.subset_components(&members))
    });
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

criterion_group!(
    benches,
    bench_chacha_batch,
    bench_randomize_batch,
    bench_sketch,
    bench_contraction
);
criterion_main!(benches);
