//! The streaming workloads: insert-only traffic that must stay on the
//! union–find fast path, and turnstile churn that exercises sketch repair,
//! splits and standing-merge recomputes.

use std::collections::HashSet;
use std::io::Cursor;
use std::time::Instant;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use wcc_core::{
    BatchPath, BatchReport, IncrementalComponents, RecomputeReason, SnapshotCell, StreamParams,
};
use wcc_graph::io::{decode_op_chunk, read_op_chunk_frames, write_op_chunks, EdgeOp, OpKind};
use wcc_graph::{generators, ComponentLabels, UnionFind};
use wcc_mpc::stream::read_op_chunks_parallel;
use wcc_mpc::{walk_telemetry_snapshot, Executor};
use wcc_sketch::DynamicConnectivitySketch;

use crate::harness::{nproc, peak_rss_mb, repeat_for, timed_setup, Checks, Config, Outcome};
use crate::metrics::Metrics;
use crate::oneshot::set_model_stats;
use crate::stats::{fastest, median, quantile};
use crate::trace::Tracer;
use crate::truth::Replay;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Insert,
    Churn,
}

/// Raw ids of vertices that arrive mid-stream start here, far above any
/// bootstrap vertex id.
pub const ARRIVAL_BASE: u64 = 1 << 40;
/// Edges an arriving vertex brings, all into one community in its own batch,
/// so it clears the certificate's degree floor.
const ARRIVAL_DEGREE: usize = 8;
/// The generators stop choosing an endpoint once it has this many edges: the
/// certificate's degree cap is `4·avg + 8 ≈ 40`, and crossing it would turn
/// a fast-path batch into a recompute.
const ENDPOINT_DEGREE_LIMIT: u32 = 30;

/// An engine bootstrapped on two planted expanders of `half` vertices each
/// (raw id = vertex index), with the matching ground-truth replay.
#[derive(Debug, Clone)]
pub struct Bootstrapped {
    pub engine: IncrementalComponents,
    pub replay: Replay,
    pub half: usize,
    /// Normalized endpoint pairs of the bootstrap edges.
    pub edges: Vec<(u64, u64)>,
}

/// `threads` is set explicitly to 1 — never 0, which would read `WCC_THREADS`.
pub fn bootstrap(cfg: &Config, half: usize) -> Result<Bootstrapped, String> {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed_for(1));
    let g = generators::planted_expander_components(&[half, half], 8, &mut rng);
    let ops: Vec<EdgeOp> = g
        .edge_iter()
        .map(|(u, v)| EdgeOp::insert(u as u64, v as u64))
        .collect();
    let mut engine =
        IncrementalComponents::new(StreamParams::laptop_scale().with_threads(1), cfg.seed);
    let report = engine
        .apply_ops_batch(&ops)
        .map_err(|e| format!("bootstrap failed: {e}"))?;
    if report.path != BatchPath::Recompute(RecomputeReason::Bootstrap)
        || engine.num_components() != 2
    {
        return Err(format!(
            "bootstrap took {:?} and left {} components",
            report.path,
            engine.num_components()
        ));
    }
    let mut replay = Replay::default();
    replay.apply(&ops);
    Ok(Bootstrapped {
        engine,
        replay,
        half,
        edges: ops
            .iter()
            .map(|op| (op.u.min(op.v), op.u.max(op.v)))
            .collect(),
    })
}

/// Draws intra-community edges and arrivals while keeping every endpoint
/// under [`ENDPOINT_DEGREE_LIMIT`].
pub struct TrafficGen {
    rng: ChaCha8Rng,
    half: usize,
    degree: Vec<u32>,
    arrivals: u64,
}

impl TrafficGen {
    pub fn new(seed: u64, boot: &Bootstrapped) -> Self {
        let mut degree = vec![0u32; 2 * boot.half];
        for &(u, v) in &boot.edges {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        TrafficGen {
            rng: ChaCha8Rng::seed_from_u64(seed),
            half: boot.half,
            degree,
            arrivals: 0,
        }
    }

    fn endpoint(&mut self, community: usize) -> u64 {
        loop {
            let v = community * self.half + self.rng.gen_range(0..self.half);
            if self.degree[v] < ENDPOINT_DEGREE_LIMIT {
                return v as u64;
            }
        }
    }

    /// A random edge inside one community, `u ≠ v`, counted toward degrees.
    pub fn intra_edge(&mut self) -> (u64, u64) {
        let community = self.rng.gen_range(0..2usize);
        loop {
            let (u, v) = (self.endpoint(community), self.endpoint(community));
            if u != v {
                self.degree[u as usize] += 1;
                self.degree[v as usize] += 1;
                return (u.min(v), u.max(v));
            }
        }
    }

    /// Forgets a deleted edge's contribution to its endpoints' degrees.
    pub fn release(&mut self, (u, v): (u64, u64)) {
        self.degree[u as usize] -= 1;
        self.degree[v as usize] -= 1;
    }

    /// A new vertex with [`ARRIVAL_DEGREE`] edges into one community.
    pub fn arrival(&mut self, out: &mut Vec<EdgeOp>) {
        let id = ARRIVAL_BASE + self.arrivals;
        self.arrivals += 1;
        let community = self.rng.gen_range(0..2usize);
        for _ in 0..ARRIVAL_DEGREE {
            let v = self.endpoint(community);
            self.degree[v as usize] += 1;
            out.push(EdgeOp::insert(id, v));
        }
    }
}

/// 32 batches × 2000 inserts: 80 % random intra-community edges, 20 %
/// arrivals. Capped at 2× the bootstrap edges on purpose — more would pile
/// degree past the certificate cap and turn the run into recomputes.
fn insert_schedule(cfg: &Config, boot: &Bootstrapped) -> Vec<Vec<EdgeOp>> {
    let ops_per_batch = cfg.scaled(2000).max(ARRIVAL_DEGREE * 5);
    let arrivals = ops_per_batch / 5 / ARRIVAL_DEGREE;
    let mut gen = TrafficGen::new(cfg.seed_for(2), boot);
    (0..32)
        .map(|_| {
            let mut ops = Vec::with_capacity(ops_per_batch);
            for _ in 0..arrivals {
                gen.arrival(&mut ops);
            }
            while ops.len() < ops_per_batch {
                let (u, v) = gen.intra_edge();
                ops.push(EdgeOp::insert(u, v));
            }
            ops
        })
        .collect()
}

/// Batches that also insert the bridge `(0, half)`; the batch after each
/// deletes it again.
const BRIDGE_BATCHES: [usize; 3] = [10, 26, 42];

/// 48 batches, each inserting fresh distinct intra-community edges and
/// deleting the previous batch's (every deletion removes the only copy, so
/// every deletion is structural), plus three bridge insert/delete pairs.
fn churn_schedule(cfg: &Config, boot: &Bootstrapped) -> Vec<Vec<EdgeOp>> {
    let per_batch = cfg.scaled(400);
    let mut gen = TrafficGen::new(cfg.seed_for(2), boot);
    let mut seen: HashSet<(u64, u64)> = boot.edges.iter().copied().collect();
    let bridge = (0u64, boot.half as u64);
    let mut previous: Vec<(u64, u64)> = Vec::new();
    (0..48)
        .map(|b| {
            let mut ops = Vec::with_capacity(2 * per_batch + 1);
            for &(u, v) in &previous {
                ops.push(EdgeOp::delete(u, v));
                gen.release((u, v));
            }
            if b > 0 && BRIDGE_BATCHES.contains(&(b - 1)) {
                ops.push(EdgeOp::delete(bridge.0, bridge.1));
            }
            previous.clear();
            while previous.len() < per_batch {
                let edge = gen.intra_edge();
                if seen.insert(edge) {
                    ops.push(EdgeOp::insert(edge.0, edge.1));
                    previous.push(edge);
                } else {
                    gen.release(edge);
                }
            }
            if BRIDGE_BATCHES.contains(&b) {
                ops.push(EdgeOp::insert(bridge.0, bridge.1));
            }
            ops
        })
        .collect()
}

struct Input {
    boot: Bootstrapped,
    schedule: Vec<Vec<EdgeOp>>,
    /// The schedule as an in-memory WCCS v2 stream.
    buffer: Vec<u8>,
    /// Ground truth: components after each batch, and the final labels.
    components_after: Vec<usize>,
    final_labels: ComponentLabels,
    /// Phases and totals of the engine's statistics at bootstrap.
    boot_phases: usize,
    boot_rounds: u64,
    boot_words: u64,
}

fn make_input(cfg: &Config, kind: Kind) -> Result<Input, String> {
    let boot = bootstrap(
        cfg,
        cfg.scaled(if kind == Kind::Insert { 4000 } else { 1000 }),
    )?;
    let schedule = match kind {
        Kind::Insert => insert_schedule(cfg, &boot),
        Kind::Churn => churn_schedule(cfg, &boot),
    };
    let mut buffer = Vec::new();
    write_op_chunks(&schedule, &mut buffer).map_err(|e| e.to_string())?;
    let mut replay = boot.replay.clone();
    let mut components_after = Vec::with_capacity(schedule.len());
    for batch in &schedule {
        replay.apply(batch);
        components_after.push(replay.labels().num_components());
    }
    let mut final_labels = replay.labels();
    if cfg.corrupt_truth {
        let mut raw = final_labels.labels().to_vec();
        raw[0] = final_labels.num_components();
        final_labels = ComponentLabels::from_raw_labels(&raw);
    }
    let stats = boot.engine.stats();
    Ok(Input {
        boot_phases: stats.phases().len(),
        boot_rounds: stats.total_rounds(),
        boot_words: stats.total_communication_words(),
        boot,
        schedule,
        buffer,
        components_after,
        final_labels,
    })
}

/// The span an `apply_ops_batch` call is filed under: which path the batch
/// took is only known once the call has returned.
pub fn apply_span_name(path: &BatchPath) -> &'static str {
    match path {
        BatchPath::FastPath => "core.stream.apply.fast",
        BatchPath::SketchRepair => "core.stream.apply.repair",
        BatchPath::Recompute(_) => "core.stream.apply.recompute",
    }
}

/// What one repetition measured.
struct Rep {
    wall_s: f64,
    /// Per batch: handed to the engine → snapshot published, ns.
    batch_ns: Vec<u64>,
    /// The buffer's decode (framing scan + every chunk), ns.
    decode_ns: u64,
    /// Per batch: `apply_ops_batch` alone, ns.
    apply_ns: Vec<u64>,
    /// Per batch: `SnapshotCell::publish` alone, ns.
    publish_ns: Vec<u64>,
    reports: Vec<BatchReport>,
}

/// One repetition: decode the buffer, then apply → snapshot → publish per
/// batch on a clone of the bootstrapped engine. Verification happens after
/// the clock stops.
fn repetition(
    input: &Input,
    exec: &Executor,
    t: &mut Tracer,
) -> Result<(Rep, IncrementalComponents), String> {
    let mut engine = input.boot.engine.clone();
    let cell = SnapshotCell::new();
    let batches = input.schedule.len();
    let mut rep = Rep {
        wall_s: 0.0,
        batch_ns: Vec::with_capacity(batches),
        decode_ns: 0,
        apply_ns: Vec::with_capacity(batches),
        publish_ns: Vec::with_capacity(batches),
        reports: Vec::with_capacity(batches),
    };
    let ns = |from: Instant| u64::try_from(from.elapsed().as_nanos()).unwrap_or(u64::MAX);

    let root = t.begin("rep");
    let started = Instant::now();
    let id = t.begin("mpc.stream.decode");
    let decoded = read_op_chunks_parallel(Cursor::new(std::hint::black_box(&input.buffer)), exec)
        .map_err(|e| format!("decode failed: {e}"))?;
    t.end(id);
    rep.decode_ns = ns(started);
    for ops in &decoded {
        let batch_started = Instant::now();
        let id = t.begin("core.stream.apply");
        let report = engine
            .apply_ops_batch(ops)
            .map_err(|e| format!("apply_ops_batch failed: {e}"))?;
        t.end_as(id, apply_span_name(&report.path));
        rep.apply_ns.push(ns(batch_started));
        let id = t.begin("core.stream.snapshot");
        let snapshot = engine.snapshot(engine.batches_applied() as u64);
        t.end(id);
        let publish_started = Instant::now();
        let id = t.begin("core.serve.snapshot.publish");
        cell.publish(snapshot);
        t.end(id);
        rep.publish_ns.push(ns(publish_started));
        rep.batch_ns.push(ns(batch_started));
        rep.reports.push(report);
    }
    rep.wall_s = started.elapsed().as_secs_f64();
    t.end(root);
    if decoded != input.schedule {
        return Err("decoded ops differ from the generated schedule".into());
    }
    Ok((rep, engine))
}

/// Checks a repetition's outputs against ground truth, and its shape against
/// what the workload is meant to exercise — a run that measures something
/// else must fail, not report.
fn verify(
    kind: Kind,
    input: &Input,
    rep: &Rep,
    engine: &IncrementalComponents,
    checks: &mut Checks,
) -> Result<(), String> {
    for (report, &truth) in rep.reports.iter().zip(&input.components_after) {
        checks.record(report.components_after == truth);
    }
    checks.record_labels(engine.labels().labels(), input.final_labels.labels());

    let count = |pred: fn(&BatchPath) -> bool| rep.reports.iter().filter(|r| pred(&r.path)).count();
    let fast = count(BatchPath::is_fast);
    let repairs = count(|p| *p == BatchPath::SketchRepair);
    let merges = count(|p| *p == BatchPath::Recompute(RecomputeReason::StandingMerge));
    let recomputes = count(|p| matches!(p, BatchPath::Recompute(_)));
    match kind {
        Kind::Insert => {
            if fast != rep.reports.len() || engine.sketch_active() {
                return Err(format!(
                    "stream_insert must be 100 % fast path with the sketch inactive: \
                     {fast}/{} fast, sketch_active = {}",
                    rep.reports.len(),
                    engine.sketch_active()
                ));
            }
        }
        Kind::Churn => {
            if repairs < 40 || merges != 3 || recomputes != 3 || engine.splits() != 3 {
                return Err(format!(
                    "stream_churn must take >= 40 sketch repairs, exactly 3 standing-merge \
                     recomputes and 3 splits: {repairs} repairs, {merges} standing merges, \
                     {recomputes} recomputes, {} splits",
                    engine.splits()
                ));
            }
        }
    }
    Ok(())
}

pub fn run(cfg: &Config, kind: Kind) -> Result<Outcome, String> {
    let (input, setup_s) = timed_setup(|| make_input(cfg, kind));
    let input = input?;
    let ops_total: usize = input.schedule.iter().map(Vec::len).sum();
    eprintln!(
        "{}: bootstrap {} vertices / {} edges, {} batches, {} ops, {} buffer bytes",
        cfg.workload,
        input.boot.engine.num_vertices(),
        input.boot.engine.num_edges(),
        input.schedule.len(),
        ops_total,
        input.buffer.len()
    );
    let exec = Executor::threaded(1);
    let mut checks = Checks::default();
    let mut off = Tracer::new(false);

    // The first repetition pays page faults and allocator growth; discard it.
    let (cold, engine) = repetition(&input, &exec, &mut off)?;
    verify(kind, &input, &cold, &engine, &mut checks)?;
    drop(engine);

    let mut reps: Vec<Rep> = Vec::new();
    let mut model: Option<(u64, u64)> = None;
    let seconds = if cfg.trace { 0.0 } else { cfg.seconds };
    let min_reps = if cfg.trace { 2 } else { 3 };
    repeat_for(seconds, min_reps, || {
        let (rep, engine) = repetition(&input, &exec, &mut off)?;
        verify(kind, &input, &rep, &engine, &mut checks)?;
        let stats = engine.stats();
        let this = (
            stats.total_rounds() - input.boot_rounds,
            stats.total_communication_words() - input.boot_words,
        );
        if *model.get_or_insert(this) != this {
            return Err("repetitions of one seed disagree on rounds/words".to_string());
        }
        reps.push(rep);
        Ok(())
    })?;
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let (rounds, words) = model.expect("at least one timed repetition");

    if !cfg.trace {
        // The schedule is fixed, so batch `i` is the same work in every
        // repetition: take each unit's least disturbed reading (the decode,
        // then every batch) and put the repetition back together from them.
        let ns_to_s = |ns: u64| ns as f64 / 1e9;
        let decode_s = fastest(
            &reps
                .iter()
                .map(|r| ns_to_s(r.decode_ns))
                .collect::<Vec<_>>(),
        );
        let batch_s: Vec<f64> = (0..input.schedule.len())
            .map(|i| {
                fastest(
                    &reps
                        .iter()
                        .map(|r| ns_to_s(r.batch_ns[i]))
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let mut elapsed = decode_s;
        let visible_s: Vec<f64> = batch_s
            .iter()
            .map(|b| {
                elapsed += b;
                elapsed
            })
            .collect();
        let wall_s = elapsed;
        let mut m = Metrics::end_to_end();
        m.set("setup_s", setup_s);
        m.set("wall_s", wall_s);
        m.set("throughput_kops_per_s", ops_total as f64 / 1e3 / wall_s);
        m.set("latency_ms_p50", median(&batch_s) * 1e3);
        m.set("visible_ms_p50", median(&visible_s) * 1e3);
        m.set("peak_rss_mb", peak_rss_mb());
        m.set("mpc_rounds", rounds as f64);
        m.set("mpc_words", words as f64);
        eprintln!(
            "  {} timed repetitions; repetition wall, ms: min {:.3}  p25 {:.3}  p50 {:.3}  p75 {:.3}  max {:.3}",
            reps.len(),
            quantile(&walls, 0.0) * 1e3,
            quantile(&walls, 0.25) * 1e3,
            quantile(&walls, 0.5) * 1e3,
            quantile(&walls, 0.75) * 1e3,
            quantile(&walls, 1.0) * 1e3
        );
        return Ok(Outcome { checks, metrics: m });
    }

    let mut m = Metrics::per_layer();
    let mut tracer = Tracer::new(true);
    tracer.set_rep(reps.len() as u32 + 1);
    let walk_before = walk_telemetry_snapshot();
    let (traced, engine) = repetition(&input, &exec, &mut tracer)?;
    let walk_after = walk_telemetry_snapshot();
    verify(kind, &input, &traced, &engine, &mut checks)?;
    tracer.report(&cfg.workload)?;
    m.set("trace.overhead_frac", traced.wall_s / median(&walls) - 1.0);
    m.set("trace.cold_rep_s", cold.wall_s);
    m.set(
        "core.stream.ingest_busy_s",
        traced.batch_ns.iter().sum::<u64>() as f64 / 1e9,
    );

    // Batch paths of the traced repetition; timings pooled over all of them.
    let all: Vec<&Rep> = reps.iter().chain([&traced]).collect();
    let apply_ms_of = |pred: fn(&BatchPath) -> bool| -> Vec<f64> {
        all.iter()
            .flat_map(|r| r.reports.iter().zip(&r.apply_ns))
            .filter(|(report, _)| pred(&report.path))
            .map(|(_, &ns)| ns as f64 / 1e6)
            .collect()
    };
    let fast_ms = apply_ms_of(BatchPath::is_fast);
    let repair_ms = apply_ms_of(|p| *p == BatchPath::SketchRepair);
    let recompute_ms = apply_ms_of(|p| matches!(p, BatchPath::Recompute(_)));
    let per_rep = all.len();
    m.set("core.stream.batches_fast", (fast_ms.len() / per_rep) as f64);
    m.set(
        "core.stream.batches_repair",
        (repair_ms.len() / per_rep) as f64,
    );
    m.set(
        "core.stream.batches_recompute",
        (recompute_ms.len() / per_rep) as f64,
    );
    m.set("core.stream.splits", engine.splits() as f64);
    m.set(
        "core.stream.recertifies",
        engine.sketch_recertifies() as f64,
    );
    let fast_ops: usize = traced
        .reports
        .iter()
        .filter(|r| r.path.is_fast())
        .map(|r| r.edges_in_batch)
        .sum();
    let fast_apply_s = tracer.total_seconds("core.stream.apply.fast");
    if !fast_ms.is_empty() {
        m.set(
            "core.stream.fast_ns_per_op",
            fast_apply_s * 1e9 / fast_ops.max(1) as f64,
        );
        m.set("core.stream.apply_fast_ms_p50", median(&fast_ms));
    }
    if !repair_ms.is_empty() {
        m.set("core.stream.repair_ms_p50", median(&repair_ms));
    }
    if !recompute_ms.is_empty() {
        m.set("core.stream.recompute_ms_p50", median(&recompute_ms));
    }
    m.set(
        "core.serve.snapshot.publish_ns",
        median(
            &all.iter()
                .flat_map(|r| r.publish_ns.iter().map(|&ns| ns as f64))
                .collect::<Vec<_>>(),
        ),
    );
    set_model_stats(&mut m, &engine.stats(), input.boot_phases);
    // Recomputes run the walk kernel; its counters say how much (counts
    // only — the engine's inner stages cannot be timed from outside).
    let steps = walk_after.steps - walk_before.steps;
    m.set("core.walks.steps", steps as f64);
    m.set(
        "core.walks.keystream_words_per_step",
        (walk_after.keystream_words - walk_before.keystream_words) as f64 / steps.max(1) as f64,
    );
    m.set(
        "core.walks.spec_fallbacks",
        (walk_after.spec_fallbacks - walk_before.spec_fallbacks) as f64,
    );

    decode_probes(&mut m, &input, ops_total)?;
    if kind == Kind::Insert {
        let uf_s = union_find_probe(&input);
        m.set("graph.components.uf_s", uf_s);
        m.set("core.stream.work_ratio_uf", fast_apply_s / uf_s);
    } else {
        sketch_probes(&mut m, &input);
    }
    snapshot_probes(&mut m, engine, input.boot.half)?;
    Ok(Outcome { checks, metrics: m })
}

/// `graph::io` decode alone (framing scan + per-chunk decode, sequential),
/// and `mpc::stream`'s parallel decode at the host's thread count.
fn decode_probes(m: &mut Metrics, input: &Input, ops_total: usize) -> Result<(), String> {
    let started = Instant::now();
    let (version, frames) = read_op_chunk_frames(Cursor::new(std::hint::black_box(&input.buffer)))
        .map_err(|e| format!("framing failed: {e}"))?;
    for (i, frame) in frames.iter().enumerate() {
        std::hint::black_box(
            decode_op_chunk(version, i, frame).map_err(|e| format!("decode failed: {e}"))?,
        );
    }
    let decode_s = started.elapsed().as_secs_f64();
    m.set("graph.io.decode_s", decode_s);
    m.set(
        "graph.io.decode_mops_per_s",
        ops_total as f64 / 1e6 / decode_s,
    );

    let exec = Executor::threaded(nproc());
    let started = Instant::now();
    std::hint::black_box(
        read_op_chunks_parallel(Cursor::new(std::hint::black_box(&input.buffer)), &exec)
            .map_err(|e| format!("parallel decode failed: {e}"))?,
    );
    m.set(
        "mpc.stream.decode_parallel_s",
        started.elapsed().as_secs_f64(),
    );
    Ok(())
}

/// The `O(m)` yardstick: the same insert ops through a plain `HashMap`
/// interner and `UnionFind`, starting from the bootstrap's state.
fn union_find_probe(input: &Input) -> f64 {
    let mut index: std::collections::HashMap<u64, usize> =
        (0..2 * input.boot.half).map(|v| (v as u64, v)).collect();
    let mut uf = UnionFind::new(index.len());
    for &(u, v) in &input.boot.edges {
        uf.union(u as usize, v as usize);
    }
    let started = Instant::now();
    for op in input.schedule.iter().flatten() {
        debug_assert_eq!(op.kind, OpKind::Insert);
        let mut intern = |raw: u64| *index.entry(raw).or_insert_with(|| uf.push());
        let (u, v) = (intern(op.u), intern(op.v));
        uf.union(u, v);
    }
    let wall = started.elapsed().as_secs_f64();
    std::hint::black_box(uf.num_sets());
    wall
}

/// The turnstile sketch alone: the churn ops replayed into a standalone
/// sketch, and one subset Borůvka over a community's members.
fn sketch_probes(m: &mut Metrics, input: &Input) {
    let params = StreamParams::laptop_scale();
    let mut sketch = DynamicConnectivitySketch::new(params.sketch_phases, 0x5EED);
    for _ in 0..2 * input.boot.half {
        sketch.push_vertex();
    }
    for &(u, v) in &input.boot.edges {
        sketch.add_edge(u as u32, v as u32);
    }
    let ops: Vec<&EdgeOp> = input.schedule.iter().flatten().collect();
    let started = Instant::now();
    for op in &ops {
        match op.kind {
            OpKind::Insert => sketch.add_edge(op.u as u32, op.v as u32),
            OpKind::Delete => sketch.remove_edge(op.u as u32, op.v as u32),
        }
    }
    m.set(
        "sketch.dynamic.update_us_per_op",
        started.elapsed().as_secs_f64() * 1e6 / ops.len().max(1) as f64,
    );
    let members: Vec<u32> = (0..input.boot.half as u32).collect();
    let started = Instant::now();
    let parts = sketch.subset_components(&members);
    m.set(
        "sketch.dynamic.subset_components_ms",
        started.elapsed().as_secs_f64() * 1e3,
    );
    std::hint::black_box(parts);
    m.set(
        "sketch.dynamic.words_per_vertex",
        sketch.words_per_vertex() as f64,
    );
}

/// Snapshot cost after a batch that changed nothing (a duplicate edge), after
/// one that added a vertex, and the cost of materialising the live graph.
pub fn snapshot_probes(
    m: &mut Metrics,
    mut engine: IncrementalComponents,
    half: usize,
) -> Result<(), String> {
    let fail = |e: wcc_core::CoreError| format!("probe batch failed: {e}");
    let mut epoch = engine.batches_applied() as u64;
    std::hint::black_box(engine.snapshot(epoch));
    // Two vertices of one community are already connected: a no-change batch.
    engine
        .apply_ops_batch(&[EdgeOp::insert(1, 2)])
        .map_err(fail)?;
    const QUIET_CALLS: u32 = 200;
    let started = Instant::now();
    for _ in 0..QUIET_CALLS {
        epoch += 1;
        std::hint::black_box(engine.snapshot(epoch));
    }
    m.set(
        "core.stream.snapshot_quiet_ns",
        started.elapsed().as_secs_f64() * 1e9 / f64::from(QUIET_CALLS),
    );

    let arrival: Vec<EdgeOp> = (0..ARRIVAL_DEGREE as u64)
        .map(|i| EdgeOp::insert(ARRIVAL_BASE - 1, half as u64 + i))
        .collect();
    engine.apply_ops_batch(&arrival).map_err(fail)?;
    let started = Instant::now();
    std::hint::black_box(engine.snapshot(epoch + 1));
    m.set(
        "core.stream.snapshot_changed_us",
        started.elapsed().as_secs_f64() * 1e6,
    );

    let started = Instant::now();
    std::hint::black_box(engine.current_graph());
    m.set(
        "core.stream.current_graph_s",
        started.elapsed().as_secs_f64(),
    );
    Ok(())
}
