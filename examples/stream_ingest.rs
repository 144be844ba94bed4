//! Streaming ingestion: maintain the component decomposition under batched
//! edge arrivals instead of recomputing from scratch per batch.
//!
//! The workload: an initial pair of expander components is bootstrapped in
//! one batch, then a stream of merge-free "traffic" batches
//! (intra-component densification plus well-attached newcomers) rides the
//! union-find fast path, and finally a bridge batch merges two standing
//! components — which escalates: the batch is charged one round of `n`
//! words, and the union–find already holds the merged partition.
//! The batch schedule round-trips through the binary chunk format (`WCCS`)
//! and the executor-driven parallel decode, exactly like `wcc stream` does.
//!
//! Run with:
//! ```text
//! cargo run --release --example stream_ingest
//! ```

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use wcc_core::prelude::*;
use wcc_graph::prelude::*;
use wcc_mpc::Executor;

fn main() -> Result<(), CoreError> {
    // `WCC_EXAMPLE_SCALE` divides the instance sizes so the examples smoke
    // test can run this quickly unoptimized.
    let scale: usize = std::env::var("WCC_EXAMPLE_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&s| s > 0)
        .unwrap_or(1);
    let n1 = (2000 / scale).max(24);
    let n2 = (1200 / scale).max(24);
    let mut rng = ChaCha8Rng::seed_from_u64(42);

    // Batch 0 bootstraps two expander components in one shot.
    let a = generators::random_regular_permutation_graph(n1, 8, &mut rng);
    let b = generators::random_regular_permutation_graph(n2, 8, &mut rng);
    let mut batches: Vec<Vec<EdgeOp>> = Vec::new();
    let mut bootstrap: Vec<(u64, u64)> = a.edge_iter().map(|(u, v)| (u as u64, v as u64)).collect();
    bootstrap.extend(
        b.edge_iter()
            .map(|(u, v)| ((u + n1) as u64, (v + n1) as u64)),
    );
    batches.push(EdgeOp::inserts(&bootstrap));

    // Merge-free traffic: random intra-component edges within component A.
    for _ in 0..6 {
        let batch: Vec<EdgeOp> = (0..200 / scale.clamp(1, 8))
            .map(|_| EdgeOp::insert(rng.gen_range(0..n1 as u64), rng.gen_range(0..n1 as u64)))
            .collect();
        batches.push(batch);
    }

    // A bridge between the two standing components: structural change.
    batches.push(vec![EdgeOp::insert(0, n1 as u64)]);

    // Round-trip the schedule through the binary chunk format, decoding in
    // parallel through the executor (this is `wcc stream`'s ingestion path).
    let path = std::env::temp_dir().join(format!("wcc_stream_ingest_{}.wccs", std::process::id()));
    write_op_chunks_file(&batches, &path).expect("write chunk file");
    let exec = Executor::resolve(0);
    let decoded =
        wcc_mpc::stream::read_op_chunks_file_parallel(&path, &exec).expect("read chunk file back");
    std::fs::remove_file(&path).ok();
    assert_eq!(decoded, batches, "chunk round-trip must be lossless");
    println!(
        "schedule: {} batches, {} ops (round-tripped through the WCCS chunk format \
         with {} decode threads)",
        decoded.len(),
        decoded.iter().map(Vec::len).sum::<usize>(),
        exec.threads()
    );

    // Replay the schedule through the incremental engine.
    let mut engine = IncrementalComponents::new(StreamParams::laptop_scale(), 7);
    for (index, batch) in decoded.iter().enumerate() {
        let started = std::time::Instant::now();
        let report = engine.apply_ops_batch(batch)?;
        println!(
            "batch {}: {:>6} ops -> {:<32} ({} components, {} rounds, {:.1} ms)",
            index,
            report.edges_in_batch,
            report.path.label(),
            report.components_after,
            report.rounds,
            started.elapsed().as_secs_f64() * 1e3
        );
    }
    println!(
        "replayed {} batches with {} escalations; {}",
        engine.batches_applied(),
        engine.recomputes(),
        engine.stats().summary()
    );

    // Sanity check against the sequential ground truth on the final graph.
    let truth = connected_components(&engine.current_graph());
    assert!(engine.labels().same_partition(&truth));
    println!("matches the sequential union-find ground truth ✓");
    Ok(())
}
