//! The executor seam's reason to exist, as a timing gate: four worker threads
//! must beat one by ≥ 1.3× on the adaptive pipeline.
//!
//! The input is 12-regular on purpose: every vertex is over regularization's
//! degree budget `d+1 = 9` and gets an expander cloud (`n_reg = 2m` = 2·10⁵
//! product vertices), so there is parallel work; an 8-regular input stays
//! whole, finishes in ≈ 0.1 s and threads buy nothing.
//!
//! A wall-clock assertion has no place in tier-1, so the test is `#[ignore]`d;
//! CI runs it on one matrix leg with
//! `cargo test --release --test threaded_speedup -- --ignored --nocapture`.

use std::time::Instant;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wcc_core::prelude::*;
use wcc_graph::prelude::*;

#[test]
#[ignore = "timing gate: run in release mode with -- --ignored"]
fn four_threads_beat_one_on_the_heavy_planted_expander() {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cpus < 2 {
        println!("skipping: available_parallelism = {cpus} < 2, no threaded speedup to assert");
        return;
    }
    // 2 × 8 334 vertices at degree 12 = 100 008 edges.
    let g = {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        generators::planted_expander_components(&[8_334, 8_334], 12, &mut rng)
    };
    assert_eq!(g.num_edges(), 100_008);
    let timed = |threads: usize| {
        let params = Params::laptop_scale().with_threads(threads);
        let start = Instant::now();
        let result = adaptive_components(&g, &params, 7).unwrap();
        (start.elapsed().as_secs_f64(), result.components)
    };
    let best_of_two = |threads: usize| {
        let (first, labels) = timed(threads);
        let (second, _) = timed(threads);
        (first.min(second), labels)
    };
    let (t1, labels1) = best_of_two(1);
    let (t4, labels4) = best_of_two(4);
    assert_eq!(labels1, labels4, "thread count changed the labels");
    let speedup = t1 / t4;
    println!("adaptive_t1 {t1:.3}s  adaptive_t4 {t4:.3}s  speedup x{speedup:.2} on {cpus} CPUs");
    assert!(
        speedup >= 1.3,
        "4 threads must beat 1 by >= 1.3x, measured x{speedup:.2} ({t1:.3}s vs {t4:.3}s)"
    );
}
