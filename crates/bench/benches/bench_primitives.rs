//! Criterion benchmarks of the substrates: random walks, spectral-gap
//! estimation, the AGM connectivity sketch, and the MPC sort primitive.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;
use rand_chacha::{keystream_tier, ChaCha8Batch, ChaCha8Rng};

use wcc_core::walks::{direct_walk_targets, layered_walk_bundle};
use wcc_graph::prelude::*;
use wcc_mpc::{primitives::distributed_sort, Cluster, MpcConfig, MpcContext};
use wcc_sketch::{ConnectivitySketch, DynamicConnectivitySketch};

fn bench_walks(c: &mut Criterion) {
    let mut group = c.benchmark_group("random_walks");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let g = generators::random_regular_permutation_graph(2000, 8, &mut rng);
    group.bench_function("direct_walks_t64", |b| {
        b.iter(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(2);
            direct_walk_targets(&g, 64, &mut rng)
        })
    });
    let small = generators::random_regular_permutation_graph(300, 8, &mut rng);
    group.bench_function("layered_bundle_t16", |b| {
        b.iter(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            layered_walk_bundle(&small, 16, 2, &mut rng)
        })
    });
    group.finish();
}

fn bench_spectral(c: &mut Criterion) {
    let mut group = c.benchmark_group("spectral_gap");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    for &n in &[1000usize, 4000] {
        let g = generators::random_regular_permutation_graph(n, 8, &mut rng);
        group.bench_with_input(BenchmarkId::new("power_iteration_200", n), &g, |b, g| {
            b.iter(|| spectral::spectral_gap(g, 200))
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
    let g = generators::erdos_renyi(400, 0.02, &mut rng);
    group.bench_function("build_and_decode_n400", |b| {
        b.iter(|| {
            let mut sk = ConnectivitySketch::new(g.num_vertices(), 9);
            for (u, v) in g.edge_iter() {
                sk.add_edge(u, v);
            }
            sk.components()
        })
    });

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
    // The same Borůvka warm-started the way the streaming engine does after
    // one forest cut: a spanning tree of the community minus one edge, that
    // edge deleted from the sketch, so two parts are left to re-link.
    let mut uf = UnionFind::new(half as usize);
    let mut known: Vec<(u32, u32)> = g
        .edge_iter()
        .filter(|&(u, v)| u.max(v) < half as usize && uf.union(u, v))
        .map(|(u, v)| (u as u32, v as u32))
        .collect();
    let (cut_u, cut_v) = known.pop().expect("a connected community has tree edges");
    sk.remove_edge(cut_u, cut_v);
    {
        let warm = sk
            .subset_components_from(&members, &known)
            .expect("certifies");
        assert_eq!(warm.parts, vec![members.clone()]);
        assert_eq!(warm.links.len(), 1, "two parts, one link");
    }
    group.bench_function("subset_components_from/1000_members_1_cut", |b| {
        b.iter(|| sk.subset_components_from(&members, &known))
    });
    group.finish();
}

fn bench_mpc_sort(c: &mut Criterion) {
    let mut group = c.benchmark_group("mpc_primitives");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    for &n in &[50_000usize, 200_000] {
        let config = MpcConfig::for_input_size(2 * n, 0.5).permissive();
        let tuples: Vec<(u64, u64)> = (0..n as u64)
            .map(|i| ((i * 2654435761) % n as u64, i))
            .collect();
        group.bench_with_input(
            BenchmarkId::new("distributed_sort", n),
            &tuples,
            |b, tuples| {
                b.iter(|| {
                    let mut ctx = MpcContext::new(config);
                    let cluster = Cluster::from_tuples(&config, tuples.clone());
                    distributed_sort(&cluster, &mut ctx, |t| t.0).unwrap()
                })
            },
        );
    }
    group.finish();
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

criterion_group!(
    benches,
    bench_chacha_batch,
    bench_walks,
    bench_spectral,
    bench_sketch,
    bench_mpc_sort
);
criterion_main!(benches);
