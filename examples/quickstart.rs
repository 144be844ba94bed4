//! Quickstart: find the well-connected components of a sparse graph in
//! `O(log log n + log 1/λ)` simulated MPC rounds.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wcc_core::prelude::*;
use wcc_graph::prelude::*;

fn main() -> Result<(), CoreError> {
    // Build a sparse graph whose connected components are 8-regular random
    // expanders — the paper's flagship "well-connected" instance. Constant
    // spectral gap, O(n) edges. `WCC_EXAMPLE_SCALE` divides the instance
    // sizes so the examples smoke test can run this quickly unoptimized.
    let scale: usize = std::env::var("WCC_EXAMPLE_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&s| s > 0)
        .unwrap_or(1);
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let g = generators::planted_expander_components(
        &[
            (4000 / scale).max(16),
            (2500 / scale).max(16),
            (1500 / scale).max(16),
        ],
        8,
        &mut rng,
    );
    println!(
        "input: {} vertices, {} edges, {} true components",
        g.num_vertices(),
        g.num_edges(),
        connected_components(&g).num_components()
    );

    // The components are expanders, so a constant lower bound on the spectral
    // gap is a valid promise. (Use `adaptive_components` when you do not know
    // the gap — see the social_communities example.)
    let lambda = 0.3;
    let result = well_connected_components(&g, lambda, &Params::laptop_scale(), 7)?;

    println!(
        "found {} components in {} simulated MPC rounds",
        result.components.num_components(),
        result.stats.total_rounds()
    );
    println!(
        "  walk length T = {}, {} fresh random batches, endgame iterations = {}",
        result.report.walk_length, result.report.num_batches, result.report.bfs_levels
    );
    for phase in &result.report.grow_phases {
        println!(
            "  growth phase {}: {} parts -> {} parts (median part size {}, max {})",
            phase.phase,
            phase.parts_before,
            phase.parts_after,
            phase.median_part_size,
            phase.max_part_size
        );
    }
    println!("resource usage: {}", result.stats.summary());

    // Sanity check against the sequential ground truth.
    let truth = connected_components(&g);
    assert!(result.components.same_partition(&truth));
    println!("matches the sequential union-find ground truth ✓");
    Ok(())
}
