//! Distributional equivalence of the v3 walk kernel against the
//! step-by-step specification, `direct_walk_endpoint`.
//!
//! The v3 kernel (stay-run compression + 32-bit keystream draws, DESIGN.md
//! §10) consumes the per-vertex ChaCha8 streams differently from the
//! step-by-step walk, so fixed-seed outputs legitimately differ — but both
//! simulate the *same* lazy random walk on the self-loop-padded graph, so
//! their endpoint distributions must agree. We pin that with a two-sample
//! χ² test on per-start endpoint frequencies across three regular graph
//! families and three seeds.
//!
//! The statistic: for equal sample sizes the two-sample χ² is
//! `Σ (a_c − b_c)² / (a_c + b_c)` over occupied cells `c`, which under the
//! null follows χ² with roughly `(occupied cells − starts)` degrees of
//! freedom. We accept below `df + 6·√(2·df) + 16` — about six standard
//! deviations above the mean, loose enough that a correct kernel never
//! trips it across the 9 (family, seed) pairs, tight enough that a biased
//! neighbor draw or an off-by-one stay-run blows straight through it
//! (verified by mutation during development: dropping the Lemire rejection
//! or miscounting a run yields statistics 10–100× over threshold).

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wcc_core::walks::{direct_walk_endpoint, v3_walk_endpoint};
use wcc_graph::generators::{cycle, planted_expander_components, random_regular_permutation_graph};
use wcc_graph::Graph;

const SEEDS: [u64; 3] = [5, 17, 41];
const WALK_LEN: usize = 12;
const SAMPLES_PER_START: usize = 300;

fn families(seed: u64) -> Vec<(&'static str, Graph)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xFA71);
    vec![
        (
            "random_regular",
            random_regular_permutation_graph(40, 8, &mut rng),
        ),
        (
            "planted_expanders",
            planted_expander_components(&[20, 20], 8, &mut rng),
        ),
        ("cycle", cycle(40)),
    ]
}

/// Per-start endpoint histograms for one kernel: `hist[v][e]` counts walks
/// from `v` ending at `e`.
fn sample_endpoints<F: FnMut(&Graph, usize, &mut ChaCha8Rng) -> usize>(
    g: &Graph,
    seed: u64,
    tag: u64,
    mut endpoint: F,
) -> Vec<Vec<u64>> {
    let n = g.num_vertices();
    let mut hist = vec![vec![0u64; n]; n];
    for (v, row) in hist.iter_mut().enumerate() {
        // One independent stream per (kernel, start); successive walks on a
        // stream are independent draws.
        let mut rng = ChaCha8Rng::seed_from_u64(wcc_mpc::derive_stream_seed(seed ^ tag, v as u64));
        for _ in 0..SAMPLES_PER_START {
            row[endpoint(g, v, &mut rng)] += 1;
        }
    }
    hist
}

#[test]
fn v3_endpoint_distribution_matches_spec_kernel() {
    for seed in SEEDS {
        for (name, g) in families(seed) {
            let delta = g.max_degree();
            assert!(
                delta > 0 && g.is_regular(delta),
                "family {name} must be regular for the batched kernel"
            );
            let padded = g.with_self_loops(delta);

            let spec = sample_endpoints(&g, seed, 0x57EC, |g_, v, rng| {
                // Spec semantics: direct steps on the materialised
                // self-loop-padded graph (span 2Δ, stay probability 1/2).
                let _ = g_;
                direct_walk_endpoint(&padded, v, WALK_LEN, rng)
            });
            let v3 = sample_endpoints(&g, seed, 0x0003, |g_, v, rng| {
                v3_walk_endpoint(g_, v, WALK_LEN, rng)
            });

            let mut chi2 = 0.0f64;
            let mut occupied = 0usize;
            for v in 0..g.num_vertices() {
                for e in 0..g.num_vertices() {
                    let (a, b) = (spec[v][e] as f64, v3[v][e] as f64);
                    if a + b > 0.0 {
                        occupied += 1;
                        chi2 += (a - b) * (a - b) / (a + b);
                    }
                }
            }
            let df = occupied.saturating_sub(g.num_vertices()) as f64;
            let threshold = df + 6.0 * (2.0 * df).sqrt() + 16.0;
            assert!(
                chi2 < threshold,
                "endpoint distributions diverged: family {name}, seed {seed}: \
                 χ² = {chi2:.1} over {occupied} cells (df ≈ {df:.0}, \
                 threshold {threshold:.1})"
            );
        }
    }
}
