//! The one-shot workloads: `adaptive_components` on a planted expander (the
//! paper's promised case) and on a ring of cliques (the `log(1/λ)` side).

use std::time::Instant;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wcc_core::leader::{finish_with_bfs_over_refs, grow_components};
use wcc_core::pipeline::recommended_config;
use wcc_core::regularize::regularize;
use wcc_core::walks::{randomize, WalkMode};
use wcc_core::{adaptive_components, Params};
use wcc_graph::spectral::mixing_time_bound;
use wcc_graph::{connected_components, generators, ComponentLabels, Graph};
use wcc_mpc::{walk_telemetry_snapshot, Cluster, Executor, MpcConfig, MpcContext, RoundStats};

use crate::harness::{nproc, peak_rss_mb, repeat_for, timed_setup, Checks, Config, Outcome};
use crate::metrics::Metrics;
use crate::stats::{fastest, median};
use crate::trace::Tracer;

/// Which input family a one-shot workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Two planted 8-regular expanders of 6250 vertices each (≈5·10⁴ edges).
    Expander,
    /// 1500 cliques of 8 vertices in a ring (12 000 vertices, 43 500 edges).
    Ring,
}

struct Input {
    graph: Graph,
    /// Canonical ground-truth labels (`connected_components`).
    truth: ComponentLabels,
}

fn make_input(cfg: &Config, family: Family) -> Input {
    let graph = match family {
        Family::Expander => {
            let half = cfg.scaled(6250);
            let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed_for(1));
            generators::planted_expander_components(&[half, half], 8, &mut rng)
        }
        // The ring itself is deterministic; the seed still drives the run.
        Family::Ring => generators::ring_of_cliques(cfg.scaled(1500).max(3), 8),
    };
    let mut truth = connected_components(&graph);
    if cfg.corrupt_truth {
        let mut raw = truth.labels().to_vec();
        raw[0] = truth.num_components();
        truth = ComponentLabels::from_raw_labels(&raw);
    }
    Input { graph, truth }
}

/// `threads` is set explicitly to 1 — never 0, which would read `WCC_THREADS`.
fn params() -> Params {
    Params::laptop_scale().with_threads(1)
}

pub fn run(cfg: &Config, family: Family) -> Result<Outcome, String> {
    let (input, setup_s) = timed_setup(|| make_input(cfg, family));
    let g = &input.graph;
    let params = params();
    eprintln!(
        "{}: {} vertices, {} edges",
        cfg.workload,
        g.num_vertices(),
        g.num_edges()
    );

    let mut checks = Checks::default();
    let mut walls = Vec::new();
    let mut model: Option<(u64, u64)> = None;
    let fused_rep = |checks: &mut Checks,
                     params: &Params|
     -> Result<(f64, RoundStats, ComponentLabels), String> {
        let started = Instant::now();
        let result = adaptive_components(std::hint::black_box(g), params, cfg.seed)
            .map_err(|e| format!("adaptive_components failed: {e}"))?;
        let wall = started.elapsed().as_secs_f64();
        checks.record_labels(result.components.labels(), input.truth.labels());
        Ok((wall, result.stats, result.components))
    };

    // The first repetition pays page faults and allocator growth; discard it.
    let (cold_rep_s, _, reference) = fused_rep(&mut checks, &params)?;
    let seconds = if cfg.trace { 0.0 } else { cfg.seconds };
    // A repetition takes seconds here, and a disturbance on the shared host
    // lasts about as long: four give the fastest one a fair chance to be clean.
    let min_reps = if cfg.trace { 2 } else { 4 };
    repeat_for(seconds, min_reps, || {
        let (wall, stats, labels) = fused_rep(&mut checks, &params)?;
        walls.push(wall);
        let this = (stats.total_rounds(), stats.total_communication_words());
        // The run is seeded: rounds, words and labels must repeat.
        if *model.get_or_insert(this) != this || labels.labels() != reference.labels() {
            return Err("repetitions of one seed disagree".to_string());
        }
        Ok(())
    })?;
    let wall_s = fastest(&walls);
    let (rounds, words) = model.expect("at least one timed repetition");

    if !cfg.trace {
        eprintln!("  {} timed repetitions, s: {walls:.3?}", walls.len());
        let mut m = Metrics::end_to_end();
        m.set("setup_s", setup_s);
        m.set("wall_s", wall_s);
        m.set("throughput_kops_per_s", g.num_edges() as f64 / 1e3 / wall_s);
        // One call is the request, and its labels are the visible answer.
        m.set("latency_ms_p50", wall_s * 1e3);
        m.set("visible_ms_p50", wall_s * 1e3);
        m.set("peak_rss_mb", peak_rss_mb());
        m.set("mpc_rounds", rounds as f64);
        m.set("mpc_words", words as f64);
        return Ok(Outcome { checks, metrics: m });
    }

    // Traced run: call the stages ourselves, in `adaptive_components`' order
    // with the same seed, and require bit-identical labels and model stats —
    // so the replica provably measures the same program.
    let mut m = Metrics::per_layer();
    let mut tracer = Tracer::new(true);
    tracer.set_rep(walls.len() as u32 + 1);
    let staged = staged_adaptive(g, &params, cfg.seed, &mut tracer)?;
    checks.record_labels(staged.labels.labels(), input.truth.labels());
    if staged.labels.labels() != reference.labels() {
        return Err("staged replica and fused adaptive_components disagree on labels".into());
    }
    if (
        staged.stats.total_rounds(),
        staged.stats.total_communication_words(),
    ) != (rounds, words)
    {
        return Err("staged replica and fused adaptive_components disagree on rounds/words".into());
    }
    let traced_wall = tracer.report(&cfg.workload)?;

    let randomize_s = tracer.total_seconds("core.walks.randomize");
    let staged_sum = [
        "core.regularize",
        "core.walks.randomize",
        "core.leader.grow",
        "core.leader.bfs",
        "core.pipeline.pullback",
    ]
    .iter()
    .map(|n| tracer.total_seconds(n))
    .sum::<f64>();
    m.set("core.regularize.s", tracer.total_seconds("core.regularize"));
    m.set(
        "core.regularize.vertices",
        staged.regularized_vertices as f64,
    );
    m.set("core.walks.randomize_s", randomize_s);
    m.set("core.walks.steps", staged.walk.steps as f64);
    m.set(
        "core.walks.ns_per_step",
        randomize_s * 1e9 / staged.walk.steps.max(1) as f64,
    );
    m.set(
        "core.walks.keystream_words_per_step",
        staged.walk.keystream_words as f64 / staged.walk.steps.max(1) as f64,
    );
    m.set(
        "core.walks.spec_fallbacks",
        staged.walk.spec_fallbacks as f64,
    );
    m.set("core.walks.walk_length", staged.walk_length as f64);
    m.set(
        "core.walks.batches",
        tracer.count("core.walks.randomize") as f64,
    );
    m.set(
        "core.leader.grow_s",
        tracer.total_seconds("core.leader.grow"),
    );
    m.set("core.leader.grow_phases", staged.grow_phases as f64);
    m.set("core.leader.bfs_s", tracer.total_seconds("core.leader.bfs"));
    m.set("core.leader.bfs_levels", staged.bfs_levels as f64);
    m.set("core.pipeline.adaptive_levels", staged.levels as f64);
    m.set(
        "core.pipeline.pullback_s",
        tracer.total_seconds("core.pipeline.pullback"),
    );
    m.set("core.pipeline.unattributed_s", traced_wall - staged_sum);
    set_model_stats(&mut m, &staged.stats, 0);
    m.set("trace.overhead_frac", traced_wall / median(&walls) - 1.0);
    m.set("trace.cold_rep_s", cold_rep_s);

    // The `wcc` CLI's input path: the graph's text form through the parser.
    let mut text = Vec::new();
    wcc_graph::io::write_edge_list(g, &mut text).map_err(|e| e.to_string())?;
    let started = Instant::now();
    let loaded = wcc_graph::io::read_edge_list(std::hint::black_box(text.as_slice()))
        .map_err(|e| format!("read_edge_list: {e}"))?;
    m.set("graph.io.parse_text_s", started.elapsed().as_secs_f64());
    checks.record(loaded.graph.num_edges() == g.num_edges());

    cluster_probes(&mut m, &staged.first_regularized);

    // One extra repetition on two threads, where the host has them.
    if nproc() >= 2 {
        let before = Executor::process_pool_telemetry().dispatches;
        let (t2_wall, t2_stats, t2_labels) = fused_rep(&mut checks, &params.with_threads(2))?;
        if t2_labels.labels() != reference.labels() || t2_stats.total_rounds() != rounds {
            return Err("two-thread run disagrees with the one-thread run".into());
        }
        m.set("mpc.executor.t2_speedup", wall_s / t2_wall);
        m.set(
            "mpc.pool.dispatches",
            (Executor::process_pool_telemetry().dispatches - before) as f64,
        );
    }

    Ok(Outcome { checks, metrics: m })
}

/// Fills the `mpc.stats.*` rows from the phases of `stats` past the first
/// `skip_phases` (an engine's statistics include its bootstrap).
pub fn set_model_stats(m: &mut Metrics, stats: &RoundStats, skip_phases: usize) {
    const PHASES: [(&str, &str); 5] = [
        ("regularize", "regularize"),
        ("randomize", "randomize"),
        ("grow-components", "grow"),
        ("low-diameter-bfs", "bfs"),
        ("stream-ingest", "stream_ingest"),
    ];
    let phases = &stats.phases()[skip_phases.min(stats.phases().len())..];
    let (mut named_rounds, mut named_words) = (0u64, 0u64);
    for (phase, short) in PHASES {
        let (mut rounds, mut words) = (0u64, 0u64);
        for p in phases.iter().filter(|p| p.name == phase) {
            rounds += p.rounds;
            words += p.communication_words;
        }
        m.set(&format!("mpc.stats.rounds.{short}"), rounds as f64);
        m.set(&format!("mpc.stats.words.{short}"), words as f64);
        named_rounds += rounds;
        named_words += words;
    }
    // Charges made outside the five phases above (the adaptive loop's
    // growable scan, sketch repair, …) — only meaningful when no phase was
    // skipped, since the totals cover the whole history.
    if skip_phases == 0 {
        m.set(
            "mpc.stats.rounds.other",
            (stats.total_rounds() - named_rounds) as f64,
        );
        m.set(
            "mpc.stats.words.other",
            (stats.total_communication_words() - named_words) as f64,
        );
    }
    m.set(
        "mpc.stats.max_machine_load_words",
        stats.max_machine_load_words() as f64,
    );
    m.set(
        "mpc.stats.memory_violations",
        stats.memory_violations() as f64,
    );
}

/// One `Cluster` superstep of each kind over the regularized graph's edge
/// tuples: the data-plane primitives grow/BFS are built from.
fn cluster_probes(m: &mut Metrics, regularized: &Graph) {
    let tuples: Vec<(u64, u64)> = regularized
        .edges()
        .iter()
        .map(|&(u, v)| (u64::from(u), u64::from(v)))
        .collect();
    let n = tuples.len().max(64);
    let config = MpcConfig::with_memory(4 * n, (4 * n) / 64)
        .permissive()
        .with_threads(1);
    let cluster = Cluster::from_tuples(&config, tuples);

    let mut ctx = MpcContext::new(config);
    let started = Instant::now();
    let reduced = cluster
        .reduce_by_key(
            &mut ctx,
            |t| t.0,
            |_| 0u64,
            |acc, t| *acc += t.1,
            |acc, b| *acc += b,
        )
        .expect("permissive cluster cannot overflow");
    let reduce_s = started.elapsed().as_secs_f64();
    std::hint::black_box(reduced);
    m.set(
        "mpc.cluster.reduce_by_key_mtuples_per_s",
        cluster.len() as f64 / 1e6 / reduce_s,
    );

    let started = Instant::now();
    let shuffled = cluster
        .shuffle_by_key(&mut ctx, |t| t.0)
        .expect("permissive cluster cannot overflow");
    let shuffle_s = started.elapsed().as_secs_f64();
    let words = shuffled.len() * shuffled.words_per_tuple();
    m.set(
        "mpc.cluster.shuffle_mwords_per_s",
        words as f64 / 1e6 / shuffle_s,
    );
}

struct Staged {
    labels: ComponentLabels,
    stats: RoundStats,
    levels: usize,
    regularized_vertices: usize,
    walk_length: usize,
    grow_phases: usize,
    bfs_levels: usize,
    walk: wcc_mpc::WalkTelemetry,
    /// The first level's regularized graph, kept for the cluster probes.
    first_regularized: Graph,
}

/// A line-for-line replica of `adaptive_components`' loop and
/// `run_pipeline`'s stage order (bare attempt, no exact endgame), with a span
/// around every public stage call. Counts are summed over levels; the walk
/// length reported is the longest used.
fn staged_adaptive(
    g: &Graph,
    params: &Params,
    seed: u64,
    t: &mut Tracer,
) -> Result<Staged, String> {
    let fail = |e: wcc_core::CoreError| format!("staged pipeline failed: {e}");
    let root = t.begin("rep");
    params.validate()?;
    let config = recommended_config(g, 1.0 / (g.num_vertices().max(2) as f64).powi(2), params);
    let mut ctx = MpcContext::new(config);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);

    let n = g.num_vertices();
    let mut final_label: Vec<Option<usize>> = vec![None; n];
    let mut next_label = 0usize;
    let mut active: Vec<usize> = (0..n).collect();
    let mut lambda_prime = 0.5f64;
    let lambda_floor = 1.0 / (n.max(2) as f64 * n.max(2) as f64);

    let mut out = Staged {
        labels: ComponentLabels::from_raw_labels(&[]),
        stats: RoundStats::default(),
        levels: 0,
        regularized_vertices: 0,
        walk_length: 0,
        grow_phases: 0,
        bfs_levels: 0,
        walk: wcc_mpc::WalkTelemetry::default(),
        first_regularized: Graph::empty(0),
    };
    let walk_before = walk_telemetry_snapshot();

    while !active.is_empty() && lambda_prime >= lambda_floor {
        out.levels += 1;
        ctx.begin_phase("adaptive-level");
        let (sub, mapping) = t.span("graph.induced_subgraph", || g.induced_subgraph(&active));

        // `pipeline_attempt` = `run_pipeline(.., exact_endgame = false)`.
        let labels_sub = if sub.num_edges() == 0 {
            ComponentLabels::from_raw_labels(&(0..sub.num_vertices()).collect::<Vec<_>>())
        } else {
            let id = t.begin("core.regularize");
            let reg = regularize(&sub, params, &mut ctx, &mut rng).map_err(fail)?;
            t.end(id);
            let n_reg = reg.graph.num_vertices();
            out.regularized_vertices += n_reg;

            let gamma = params.gamma(n_reg);
            let walk_length =
                mixing_time_bound(lambda_prime, n_reg, gamma, params.mixing_time_constant)
                    .min(params.max_walk_length)
                    .max(1);
            out.walk_length = out.walk_length.max(walk_length);
            let batch_degree = params.batch_degree(n_reg);
            let num_batches = params.num_phases(n_reg);
            let mode = if params.faithful_walks {
                WalkMode::Faithful
            } else {
                WalkMode::Direct
            };
            let kernel = params.walk_kernel.resolve();
            let mut batches = Vec::with_capacity(num_batches);
            for _ in 0..num_batches {
                let id = t.begin("core.walks.randomize");
                batches.push(
                    randomize(
                        &reg.graph,
                        walk_length,
                        batch_degree,
                        mode,
                        kernel,
                        params.layer_copies_multiplier,
                        &mut ctx,
                        &mut rng,
                    )
                    .map_err(fail)?,
                );
                t.end(id);
            }

            let id = t.begin("core.leader.grow");
            let grow = grow_components(&batches, params, &mut ctx, &mut rng).map_err(fail)?;
            t.end(id);
            out.grow_phases += grow.phases.len();

            let refs: Vec<&Graph> = batches.iter().collect();
            let id = t.begin("core.leader.bfs");
            let (final_partition, bfs_levels) =
                finish_with_bfs_over_refs(&refs, &grow.partition, &mut ctx);
            t.end(id);
            out.bfs_levels += bfs_levels;

            let labels = t.span("core.pipeline.pullback", || {
                reg.pull_back_labels(&final_partition.to_component_labels())
            });
            if out.levels == 1 {
                out.first_regularized = reg.graph;
            }
            labels
        };

        let id = t.begin("core.pipeline.growable_scan");
        ctx.charge_shuffle(2 * sub.num_edges());
        let mut growable = vec![false; labels_sub.num_components()];
        for (u, v) in sub.edge_iter() {
            if labels_sub.label(u) != labels_sub.label(v) {
                growable[labels_sub.label(u)] = true;
                growable[labels_sub.label(v)] = true;
            }
        }
        let mut label_map: Vec<Option<usize>> = vec![None; labels_sub.num_components()];
        let mut next_active = Vec::new();
        for (sub_v, &orig_v) in mapping.iter().enumerate() {
            let c = labels_sub.label(sub_v);
            if growable[c] {
                next_active.push(orig_v);
            } else {
                let assigned = *label_map[c].get_or_insert_with(|| {
                    let l = next_label;
                    next_label += 1;
                    l
                });
                final_label[orig_v] = Some(assigned);
            }
        }
        ctx.end_phase();
        t.end(id);
        active = next_active;
        lambda_prime = lambda_prime.powf(1.1);
    }

    if !active.is_empty() {
        let id = t.begin("core.pipeline.final_exact");
        ctx.begin_phase("adaptive-final-exact");
        let (sub, mapping) = g.induced_subgraph(&active);
        let labels_sub = connected_components(&sub);
        ctx.charge_shuffle(2 * sub.num_edges());
        let mut label_map: Vec<Option<usize>> = vec![None; labels_sub.num_components()];
        for (sub_v, &orig_v) in mapping.iter().enumerate() {
            let c = labels_sub.label(sub_v);
            let assigned = *label_map[c].get_or_insert_with(|| {
                let l = next_label;
                next_label += 1;
                l
            });
            final_label[orig_v] = Some(assigned);
        }
        ctx.end_phase();
        t.end(id);
    }

    let raw: Vec<usize> = final_label
        .into_iter()
        .map(|l| l.expect("every vertex is labelled by the adaptive loop"))
        .collect();
    out.labels = ComponentLabels::from_raw_labels(&raw);
    out.stats = ctx.into_stats();
    t.end(root);

    let walk_after = walk_telemetry_snapshot();
    out.walk.steps = walk_after.steps - walk_before.steps;
    out.walk.keystream_words = walk_after.keystream_words - walk_before.keystream_words;
    out.walk.spec_fallbacks = walk_after.spec_fallbacks - walk_before.spec_fallbacks;
    Ok(out)
}
