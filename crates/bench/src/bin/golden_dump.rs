//! Golden-output dump for refactor gating: runs the three public entry
//! points (`wcc`, `adaptive`, `sublinear`) over a fixed matrix of graph
//! families, seeds and thread counts and prints one line per run with an
//! FNV-1a hash of the raw label vector plus the RoundStats model
//! quantities. Capture the output before a data-plane change and diff it
//! after: labels must be bit-identical, model quantities may move only
//! where DESIGN.md documents why. The label half of that rule is checked in:
//! `tests/golden/labels.txt` holds the first six columns (`tag` … `comps`)
//! of `golden_dump --big`, and CI fails when
//! `golden_dump --big | cut -d' ' -f1-6 | diff tests/golden/labels.txt -`
//! prints anything.
//!
//! Usage: `golden_dump [--big] [--threads <n>]`. `--big` adds the
//! 10^5-edge adaptive benchmark workload (which takes minutes on the
//! unoptimised plane). `--threads <n>` replaces the default 1-and-4 thread
//! matrix with the single given count — handy for profiling one backend —
//! with `0` meaning one worker per available CPU; labels are identical for
//! every thread count either way (that equality is what this tool gates).

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wcc_core::prelude::*;
use wcc_graph::prelude::*;

fn fnv(labels: &[usize]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &l in labels {
        for b in (l as u64).to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn graph(family: &str, seed: u64) -> Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    match family {
        "planted" => generators::planted_expander_components(&[1000, 1000], 8, &mut rng),
        "cliques" => generators::ring_of_cliques(12, 10),
        "bridge" => generators::two_expanders_bridge(800, 8, &mut rng),
        "er" => generators::erdos_renyi(4000, 3.0 / 4000.0, &mut rng),
        "bench" => generators::planted_expander_components(&[12_500, 12_500], 8, &mut rng),
        other => panic!("unknown family {other}"),
    }
}

fn report(
    tag: &str,
    family: &str,
    threads: usize,
    seed: u64,
    labels: &[usize],
    comps: usize,
    stats: &wcc_mpc::RoundStats,
) {
    println!(
        "{tag} family={family} threads={threads} seed={seed} labels_fnv={:016x} comps={comps} \
         rounds={} words={} max_load={} violations={}",
        fnv(labels),
        stats.total_rounds(),
        stats.total_communication_words(),
        stats.max_machine_load_words(),
        stats.memory_violations(),
    );
}

fn main() {
    let mut big = false;
    let mut thread_matrix = vec![1usize, 4];
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--big" => big = true,
            "--threads" => {
                let t: usize = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--threads takes a count (0 = one per available CPU)");
                thread_matrix = vec![if t == 0 {
                    wcc_mpc::Executor::auto_threads()
                } else {
                    t
                }];
            }
            other => {
                panic!("unknown argument {other} (usage: golden_dump [--big] [--threads <n>])")
            }
        }
    }

    for family in ["planted", "cliques", "bridge"] {
        for &threads in &thread_matrix {
            for seed in [3u64, 11] {
                let g = graph(family, 1000 + seed);
                let params = Params::laptop_scale().with_threads(threads);
                let r = well_connected_components(&g, 0.3, &params, seed).expect("wcc");
                report(
                    "wcc",
                    family,
                    threads,
                    seed,
                    r.components.labels(),
                    r.components.num_components(),
                    &r.stats,
                );
            }
        }
    }

    for family in ["planted", "cliques"] {
        for &threads in &thread_matrix {
            let g = graph(family, 1007);
            let params = Params::laptop_scale().with_threads(threads);
            let r = adaptive_components(&g, &params, 7).expect("adaptive");
            report(
                "adaptive",
                family,
                threads,
                7,
                r.components.labels(),
                r.components.num_components(),
                &r.stats,
            );
        }
    }

    for family in ["er", "cliques"] {
        for &threads in &thread_matrix {
            for seed in [5u64, 13] {
                let g = graph(family, 2000 + seed);
                let mem = ((g.num_vertices() as f64).sqrt() as usize * 8).max(64);
                let params = SublinearParams::laptop_scale().with_threads(threads);
                let r = sublinear_components(&g, mem, &params, seed).expect("sublinear");
                report(
                    "sublinear",
                    family,
                    threads,
                    seed,
                    r.components.labels(),
                    r.components.num_components(),
                    &r.stats,
                );
            }
        }
    }

    if big {
        let threads = thread_matrix[0];
        let g = graph("bench", 5);
        let params = Params::laptop_scale().with_threads(threads);
        let start = std::time::Instant::now();
        let r = adaptive_components(&g, &params, 7).expect("adaptive big");
        let secs = start.elapsed().as_secs_f64();
        eprintln!("bench-adaptive wall {secs:.1}s");
        report(
            "adaptive-big",
            "bench",
            threads,
            7,
            r.components.labels(),
            r.components.num_components(),
            &r.stats,
        );
    }
}
