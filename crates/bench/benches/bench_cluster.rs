//! Throughput of the flat-arena MPC data plane.
//!
//! Three quantities tracked release over release, with a recorded snapshot
//! in `BENCH_cluster.json` at the workspace root:
//!
//! * **shuffle throughput** — the two-pass counting shuffle
//!   (`shuffle_by_key`) against a faithful reimplementation of the
//!   historical clone-into-buckets shuffle (per-worker `Vec<Vec<T>>` bucket
//!   sets merged by append), at 10⁵–10⁶ tuples;
//! * **map/filter chains** — a `map_local` → `filter_local` chain over the
//!   arena;
//! * **reduce_by_key** — combiner-based aggregation at the same scales.
//!
//! Both shuffles produce bit-identical outputs (asserted once per size before
//! timing), so any difference is pure data-plane cost. `BENCH_cluster.json`
//! also carries `counting_owned_incl_clone_*` and `owned_in_place_*` rows:
//! history from the consuming `Cluster` generation, which no longer exists.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use wcc_mpc::{Cluster, MpcConfig, MpcContext};

const SIZES: [usize; 2] = [100_000, 1_000_000];
const THREAD_COUNTS: [usize; 2] = [1, 4];

/// The same key→machine mixer the cluster uses (SplitMix64 finaliser),
/// reproduced here so the historical baseline routes identically.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

fn config(n: usize, threads: usize) -> MpcConfig {
    MpcConfig::with_memory(4 * n, (4 * n) / 64)
        .permissive()
        .with_threads(threads)
}

fn tuples(n: usize) -> Vec<(u64, u64)> {
    (0..n as u64)
        .map(|i| (i.wrapping_mul(2654435761) % 4096, i))
        .collect()
}

/// The pre-refactor shuffle, faithfully reimplemented on the public API:
/// every worker clones its tuples into a fresh `Vec<Vec<T>>` bucket set,
/// merged destination-by-destination on the calling thread.
fn clone_into_buckets_shuffle(cluster: &Cluster<(u64, u64)>) -> Vec<Vec<(u64, u64)>> {
    let m = cluster.num_machines().max(1);
    let routed: Vec<Vec<Vec<(u64, u64)>>> =
        cluster
            .executor()
            .map_ranges(cluster.num_machines(), |range| {
                let mut buckets: Vec<Vec<(u64, u64)>> = (0..m).map(|_| Vec::new()).collect();
                for mi in range {
                    for t in cluster.machine(mi) {
                        let dest = (splitmix64(t.0) % m as u64) as usize;
                        buckets[dest].push(*t);
                    }
                }
                buckets
            });
    let mut out: Vec<Vec<(u64, u64)>> = (0..m).map(|_| Vec::new()).collect();
    for buckets in routed {
        for (dest, mut bucket) in buckets.into_iter().enumerate() {
            out[dest].append(&mut bucket);
        }
    }
    out
}

fn bench_shuffle(c: &mut Criterion) {
    let mut group = c.benchmark_group("cluster_shuffle");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(4));
    for &n in &SIZES {
        for &threads in &THREAD_COUNTS {
            let cfg = config(n, threads);
            let cluster = Cluster::from_tuples(&cfg, tuples(n));
            // The counting shuffle must reproduce the historical order.
            {
                let mut ctx = MpcContext::new(cfg);
                let counted = cluster.shuffle_by_key(&mut ctx, |t| t.0).unwrap();
                let legacy = clone_into_buckets_shuffle(&cluster);
                for (mi, machine) in legacy.iter().enumerate() {
                    assert_eq!(counted.machine(mi), &machine[..], "order drifted");
                }
            }
            group.bench_with_input(
                BenchmarkId::new(format!("counting_t{threads}"), n),
                &cluster,
                |b, cl| {
                    b.iter(|| {
                        let mut ctx = MpcContext::new(cfg);
                        cl.shuffle_by_key(&mut ctx, |t| t.0).unwrap()
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("clone_into_buckets_t{threads}"), n),
                &cluster,
                |b, cl| b.iter(|| clone_into_buckets_shuffle(cl)),
            );
        }
    }
    group.finish();
}

fn bench_map_filter_chain(c: &mut Criterion) {
    let mut group = c.benchmark_group("cluster_map_filter");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(4));
    for &n in &SIZES {
        for &threads in &THREAD_COUNTS {
            let cfg = config(n, threads);
            let cluster = Cluster::from_tuples(&cfg, tuples(n));
            group.bench_with_input(
                BenchmarkId::new(format!("borrowing_t{threads}"), n),
                &cluster,
                |b, cl| {
                    b.iter(|| {
                        cl.map_local(|t| (t.0, t.1 + 1))
                            .filter_local(|t| t.1 % 3 != 0)
                            .len()
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_reduce_by_key(c: &mut Criterion) {
    let mut group = c.benchmark_group("cluster_reduce_by_key");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(4));
    for &n in &SIZES {
        for &threads in &THREAD_COUNTS {
            let cfg = config(n, threads);
            let cluster = Cluster::from_tuples(&cfg, tuples(n));
            group.bench_with_input(
                BenchmarkId::new(format!("reduce_t{threads}"), n),
                &cluster,
                |b, cl| {
                    b.iter(|| {
                        let mut ctx = MpcContext::new(cfg);
                        cl.reduce_by_key(
                            &mut ctx,
                            |t| t.0,
                            |_| 0u64,
                            |acc, t| *acc += t.1,
                            |acc, b| *acc += b,
                        )
                        .unwrap()
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_shuffle,
    bench_map_filter_chain,
    bench_reduce_by_key
);
criterion_main!(benches);
