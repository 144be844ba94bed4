//! The full pipeline (Section 7, Theorem 4) and the unknown-spectral-gap
//! extension (Corollary 7.1).
//!
//! Theorem 4 composes the three steps:
//!
//! 1. [`regularize`] (Lemma 4.1),
//! 2. [`random_batch`] with walk length
//!    `T = O(log(n/γ)/λ)` (Lemma 5.1 + Proposition 2.2), repeated once per
//!    leader-election phase to obtain `F` *fresh* batches (the preprocessing
//!    step of Lemma 6.1),
//! 3. [`grow_components_over`] followed by the
//!    exact endgame on the `O(1)`-diameter contraction (Lemma 6.2).
//!
//! Step 2's walks run on the zero-materialisation walk engine: the
//! lazification self-loops are simulated arithmetically by a
//! [`LazyView`](wcc_graph::LazyView) instead of rebuilding the regularized
//! graph's CSR (see `crates/core/src/walks.rs` and DESIGN.md §5), and every
//! phase (`regularize` / `randomize` / `grow-components` /
//! `low-diameter-bfs`) records its wall-clock share alongside the model
//! quantities in [`RoundStats::phases`].
//!
//! The library's [`well_connected_components`] additionally includes the
//! regularized graph's own edges in the endgame contraction, which makes the
//! returned labels *exactly* the connected components of the input for every
//! input and every seed — when the input satisfies the spectral-gap promise
//! this costs nothing (the contraction already has `O(1)` diameter), and when
//! it does not, the endgame's extra iterations — about `log₂` of the
//! contraction's diameter — are precisely the graceful degradation the
//! paper describes. [`pipeline_attempt`] exposes the bare, opportunistic
//! algorithm whose output may still be a refinement; Corollary 7.1's adaptive
//! loop ([`adaptive_components`]) is built from it.

use crate::leader::{finish_with_bfs_over, grow_components_over, GrowPhaseStats};
use crate::params::Params;
use crate::products::cloud_sizes;
use crate::regularize::{regularize, CoreError};
use crate::walks::{random_batch, WalkMode};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use wcc_graph::spectral::mixing_time_bound;
use wcc_graph::{ComponentLabels, EdgeSource, Graph};
use wcc_mpc::{MpcConfig, MpcContext, RoundStats};

/// Detailed per-stage measurements of one pipeline run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineReport {
    /// Number of vertices of the regularized graph: `Σ_v c(v) ≤ 2m`, the sum
    /// of [`cloud_sizes`].
    pub regularized_vertices: usize,
    /// Walk length `T` used by the randomization step.
    pub walk_length: usize,
    /// Number of fresh random batches (`F`, the number of growth phases).
    pub num_batches: usize,
    /// Degree of each random batch.
    pub batch_degree: usize,
    /// Per-phase growth statistics.
    pub grow_phases: Vec<GrowPhaseStats>,
    /// Parent-connect/shortcut iterations of the exact endgame, counting the
    /// one that found nothing left to change (the field keeps the name it
    /// had when the endgame was a level-by-level BFS). Claim 6.13's
    /// `O(1)`-diameter contraction costs a connect, a shortcut and one
    /// shortcut that moves nothing; `0` means there was nothing to merge.
    pub bfs_levels: usize,
    /// The spectral-gap promise the run was given.
    pub lambda: f64,
}

/// The result of a full pipeline run.
#[derive(Debug, Clone)]
pub struct WccResult {
    /// Connected-component labels on the *original* vertex set.
    pub components: ComponentLabels,
    /// MPC resource usage (rounds, communication, memory, per phase).
    pub stats: RoundStats,
    /// Per-stage measurements.
    pub report: PipelineReport,
}

/// Runs the bare opportunistic pipeline (Steps 1–3 exactly as in Theorem 4)
/// against an existing context. The returned labels are always a refinement
/// of the true components; under the spectral-gap promise they equal them
/// with high probability.
///
/// # Errors
///
/// Returns [`CoreError`] if the parameters are invalid or the simulated
/// cluster cannot hold an intermediate.
pub fn pipeline_attempt(
    g: &Graph,
    lambda: f64,
    params: &Params,
    ctx: &mut MpcContext,
    rng: &mut ChaCha8Rng,
) -> Result<(ComponentLabels, PipelineReport), CoreError> {
    run_pipeline(g, lambda, params, ctx, rng, false)
}

/// Theorem 4 with the exactness endgame (see the module docs): identifies all
/// connected components of `g` given a lower bound `lambda` on the spectral
/// gap of each component.
///
/// This is the main entry point of the crate. A fresh simulated cluster is
/// sized from the input ([`recommended_config`]: memory per machine
/// `≈ (2m)^δ`).
///
/// # Errors
///
/// Returns [`CoreError`] if `lambda` is not in `(0, 1]`, the parameters are
/// invalid, or the simulated cluster cannot hold an intermediate.
pub fn well_connected_components(
    g: &Graph,
    lambda: f64,
    params: &Params,
    seed: u64,
) -> Result<WccResult, CoreError> {
    let config = recommended_config(g, lambda, params);
    let mut ctx = MpcContext::new(config);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let (components, report) = run_pipeline(g, lambda, params, &mut ctx, &mut rng, true)?;
    Ok(WccResult {
        components,
        report,
        stats: ctx.into_stats(),
    })
}

/// Sizes a simulated cluster for running the pipeline on `g` with gap
/// promise `lambda`, following Theorem 4's resource statement: memory per
/// machine `≈ (2m)^δ`, and enough machines that the working set of the
/// randomization step on the regularized graph's `Σ_v c(v) ≤ 2m` vertices
/// (which scales with the walk length, i.e. with `1/λ`) and the `F` random
/// batches fit — `O(1/λ² · m^{1-δ} · polylog)` machines in
/// the paper's phrasing.
pub fn recommended_config(g: &Graph, lambda: f64, params: &Params) -> MpcConfig {
    let input_words = (2 * g.num_edges() + g.num_vertices()).max(64);
    let n_reg = cloud_sizes(g, params.expander_degree).sum::<usize>().max(4);
    let gamma = params.gamma(n_reg);
    let lambda = lambda.clamp(1e-9, 1.0);
    let walk = mixing_time_bound(lambda, n_reg, gamma, params.mixing_time_constant)
        .min(params.max_walk_length);
    let working = input_words
        + n_reg * params.batch_degree(n_reg) * params.num_phases(n_reg)
        + 2 * n_reg * walk;
    let base = MpcConfig::for_input_size(input_words, params.delta)
        .permissive()
        .with_threads(params.threads);
    let machines = 4 * working.div_ceil(base.memory_per_machine.max(1)) + 1;
    base.with_machines(machines)
}

fn run_pipeline(
    g: &Graph,
    lambda: f64,
    params: &Params,
    ctx: &mut MpcContext,
    rng: &mut ChaCha8Rng,
    exact_endgame: bool,
) -> Result<(ComponentLabels, PipelineReport), CoreError> {
    params.validate().map_err(CoreError::BadParams)?;
    if !(lambda > 0.0 && lambda <= 1.0) {
        return Err(CoreError::BadParams(format!(
            "lambda must lie in (0, 1], got {lambda}"
        )));
    }
    if g.num_edges() == 0 {
        // Every vertex is isolated; nothing to do.
        let labels = ComponentLabels::from_raw_labels(&(0..g.num_vertices()).collect::<Vec<_>>());
        let report = PipelineReport {
            regularized_vertices: 0,
            walk_length: 0,
            num_batches: 0,
            batch_degree: 0,
            grow_phases: Vec::new(),
            bfs_levels: 0,
            lambda,
        };
        return Ok((labels, report));
    }

    // Step 1: regularization (Lemma 4.1).
    let reg = regularize(g, params, ctx, rng)?;
    let n_reg = reg.graph.num_vertices();

    // Step 2: randomization (Lemma 5.1). Walk length from Proposition 2.2,
    // one fresh batch per growth phase (the Lemma 6.1 preprocessing step).
    let gamma = params.gamma(n_reg);
    let walk_length = mixing_time_bound(lambda, n_reg, gamma, params.mixing_time_constant)
        .min(params.max_walk_length)
        .max(1);
    let batch_degree = params.batch_degree(n_reg);
    let num_batches = params.num_phases(n_reg);
    let mode = if params.faithful_walks {
        WalkMode::Faithful
    } else {
        WalkMode::Direct
    };
    // Each batch stays the walks' endpoint table: grow and the endgame read
    // it only through contractions, so it is never built as a graph.
    let mut batches = Vec::with_capacity(num_batches);
    for _ in 0..num_batches {
        batches.push(random_batch(
            &reg.graph,
            walk_length,
            batch_degree,
            mode,
            params.layer_copies_multiplier,
            ctx,
            rng,
        )?);
    }
    let mut sources: Vec<EdgeSource<'_>> = batches.iter().map(EdgeSource::from).collect();

    // Step 3: leader election with quadratic growth (Lemma 6.2) ...
    let grow = grow_components_over(&sources, params, ctx, rng)?;

    // ... and the endgame on the O(1)-diameter contraction (Claims
    // 6.13/6.14). The exact variant also contracts the regularized graph's
    // own edges so the output is the true component partition regardless of
    // how well the randomized batches mixed.
    // The endgame only reads the union through its contraction, so hand the
    // batches (and, in the exact variant, the regularized graph) to it as
    // borrowed sources — no union graph is ever materialised.
    if exact_endgame {
        sources.push(EdgeSource::Graph(&reg.graph));
    }
    let (final_partition, bfs_levels) = finish_with_bfs_over(&sources, &grow.partition, ctx);
    let labels_reg = final_partition.to_component_labels();
    let components = reg.pull_back_labels(&labels_reg);

    let report = PipelineReport {
        regularized_vertices: n_reg,
        walk_length,
        num_batches,
        batch_degree,
        grow_phases: grow.phases,
        bfs_levels,
        lambda,
    };
    Ok((components, report))
}

/// Outcome of the unknown-gap adaptive algorithm (Corollary 7.1).
#[derive(Debug, Clone)]
pub struct AdaptiveResult {
    /// Connected-component labels on the original vertex set.
    pub components: ComponentLabels,
    /// MPC resource usage across all levels.
    pub stats: RoundStats,
    /// The gap guesses `λ'_1 = 1/2, λ'_2 = λ'^{1.1}, …` actually tried.
    pub lambda_levels: Vec<f64>,
    /// Rounds charged at each level.
    pub rounds_per_level: Vec<u64>,
    /// Number of vertices still active (in growable components) entering each
    /// level.
    pub active_vertices_per_level: Vec<usize>,
}

/// Corollary 7.1: connectivity with no prior knowledge of the spectral gap.
///
/// Runs the opportunistic pipeline with `λ' = 1/2`, marks the returned
/// components that are *growable* (some edge of `g` leaves them — detectable
/// in `O(1)` rounds), finalises the rest, and recurses on the growable part
/// with `λ' ← λ'^{1.1}`. Components with gap `λ` are finalised after
/// `O(log log (1/λ))` levels. A final exact merge guards against the
/// (probability `o(1)`) event that some level under-merges even at a correct
/// gap guess, so the returned labels are always exact.
///
/// # Errors
///
/// Returns [`CoreError`] if the parameters are invalid or the simulated
/// cluster cannot hold an intermediate.
pub fn adaptive_components(
    g: &Graph,
    params: &Params,
    seed: u64,
) -> Result<AdaptiveResult, CoreError> {
    params.validate().map_err(CoreError::BadParams)?;
    // Size the cluster for the smallest gap the loop may reach (1/n²), which
    // matches Corollary 7.1's O(1/λ^{2.2}) machine count up to the walk cap.
    let config = recommended_config(g, 1.0 / (g.num_vertices().max(2) as f64).powi(2), params);
    let mut ctx = MpcContext::new(config);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);

    let n = g.num_vertices();
    let mut final_label: Vec<Option<usize>> = vec![None; n];
    let mut next_label = 0usize;
    let mut active: Vec<usize> = (0..n).collect();
    let mut lambda_prime = 0.5f64;
    let lambda_floor = 1.0 / (n.max(2) as f64 * n.max(2) as f64);
    let mut lambda_levels = Vec::new();
    let mut rounds_per_level = Vec::new();
    let mut active_per_level = Vec::new();

    while !active.is_empty() && lambda_prime >= lambda_floor {
        lambda_levels.push(lambda_prime);
        active_per_level.push(active.len());
        let rounds_before = ctx.stats().total_rounds();
        ctx.begin_phase("adaptive-level");

        let (sub, mapping) = g.induced_subgraph(&active);
        let (labels_sub, _report) =
            pipeline_attempt(&sub, lambda_prime, params, &mut ctx, &mut rng)?;

        // Growable detection (one shuffle over the sub-graph's edges): a
        // component is growable iff some edge of the subgraph crosses out of it.
        ctx.charge_shuffle(2 * sub.num_edges());
        let mut growable = vec![false; labels_sub.num_components()];
        for (u, v) in sub.edge_iter() {
            if labels_sub.label(u) != labels_sub.label(v) {
                growable[labels_sub.label(u)] = true;
                growable[labels_sub.label(v)] = true;
            }
        }

        // Finalise non-growable components; keep the rest active.
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
        rounds_per_level.push(ctx.stats().total_rounds() - rounds_before);
        active = next_active;
        lambda_prime = lambda_prime.powf(1.1);
    }

    // Anything still active gets an exact finish, charged as one flat
    // shuffle whatever the diameter: an undercharge next to the endgame's
    // per-exchange accounting, kept because the benchmark's staged replica
    // copies this block line for line (DESIGN.md §13).
    if !active.is_empty() {
        ctx.begin_phase("adaptive-final-exact");
        let (sub, mapping) = g.induced_subgraph(&active);
        let labels_sub = wcc_graph::connected_components(&sub);
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
    }

    let raw: Vec<usize> = final_label
        .into_iter()
        .map(|l| l.expect("every vertex is labelled by the adaptive loop"))
        .collect();
    Ok(AdaptiveResult {
        components: ComponentLabels::from_raw_labels(&raw),
        stats: ctx.into_stats(),
        lambda_levels,
        rounds_per_level,
        active_vertices_per_level: active_per_level,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use wcc_graph::prelude::*;

    fn params() -> Params {
        Params::test_scale()
    }

    #[test]
    fn pipeline_finds_components_of_planted_expanders() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let g = generators::planted_expander_components(&[80, 60, 40], 8, &mut rng);
        let truth = connected_components(&g);
        let result = well_connected_components(&g, 0.3, &params(), 7).unwrap();
        assert!(result.components.same_partition(&truth));
        assert!(result.stats.total_rounds() > 0);
        assert_eq!(result.report.num_batches, result.report.grow_phases.len());
        assert!(result.report.walk_length >= 1);
    }

    #[test]
    fn pipeline_is_exact_even_when_the_gap_promise_is_wrong() {
        // A cycle has a tiny spectral gap; promising λ = 0.5 makes the walks
        // far too short, but the exact endgame must still return the truth.
        let g = generators::cycle(120);
        let truth = connected_components(&g);
        let result = well_connected_components(&g, 0.5, &params(), 3).unwrap();
        assert!(result.components.same_partition(&truth));
    }

    #[test]
    fn pipeline_handles_isolated_vertices_and_empty_graphs() {
        let empty = Graph::empty(7);
        let res = well_connected_components(&empty, 0.5, &params(), 1).unwrap();
        assert_eq!(res.components.num_components(), 7);

        let mut g = wcc_graph::GraphBuilder::new(6);
        g.add_edge(0, 1).unwrap();
        g.add_edge(1, 2).unwrap();
        let g = g.build(); // vertices 3,4,5 isolated
        let res = well_connected_components(&g, 0.5, &params(), 2).unwrap();
        assert_eq!(res.components.num_components(), 4);
        assert!(res.components.same_component(0, 2));
    }

    #[test]
    fn pipeline_records_wall_time_for_every_phase() {
        let mut rng = ChaCha8Rng::seed_from_u64(19);
        let g = generators::planted_expander_components(&[60, 50], 8, &mut rng);
        let result = well_connected_components(&g, 0.3, &params(), 9).unwrap();
        let stats = &result.stats;
        for phase in [
            "regularize",
            "randomize",
            "grow-components",
            "low-diameter-bfs",
        ] {
            assert!(
                stats.phases().iter().any(|p| p.name == phase),
                "phase {phase} missing from the breakdown"
            );
        }
        // Wall time accumulates across phases (>= 0 per phase, > 0 in total
        // for a run that does real work).
        assert!(stats.total_phase_wall_time_ms() > 0.0);
        assert!(stats.wall_time_in_phase_ms("randomize") >= 0.0);
    }

    #[test]
    fn pipeline_rejects_bad_lambda() {
        let g = generators::cycle(10);
        assert!(matches!(
            well_connected_components(&g, 0.0, &params(), 1),
            Err(CoreError::BadParams(_))
        ));
        assert!(matches!(
            well_connected_components(&g, 1.5, &params(), 1),
            Err(CoreError::BadParams(_))
        ));
    }

    #[test]
    fn attempt_output_is_a_refinement_even_without_the_exact_endgame() {
        let g = generators::cycle(200); // gap far below the promise
        let truth = connected_components(&g);
        let config = MpcConfig::for_input_size(4 * g.num_edges(), 0.5).permissive();
        let mut ctx = MpcContext::new(config);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let (labels, _) = pipeline_attempt(&g, 0.9, &params(), &mut ctx, &mut rng).unwrap();
        assert!(labels.is_refinement_of(&truth));
    }

    #[test]
    fn report_exposes_quadratic_growth_on_well_connected_inputs() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let g = generators::random_regular_permutation_graph(400, 10, &mut rng);
        let result = well_connected_components(&g, 0.3, &params(), 5).unwrap();
        assert_eq!(result.components.num_components(), 1);
        assert!(
            result.report.bfs_levels <= 4,
            "endgame took {} iterations",
            result.report.bfs_levels
        );
        let phases = &result.report.grow_phases;
        assert!(!phases.is_empty());
        assert!(phases.last().unwrap().max_part_size > phases.first().unwrap().max_part_size);
    }

    #[test]
    fn adaptive_algorithm_is_exact_on_mixed_gap_inputs() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        // One expander component (large gap) + one cycle component (tiny gap).
        let expander = generators::random_regular_permutation_graph(150, 10, &mut rng);
        let cycle = generators::cycle(100);
        let (g, _) = generators::disjoint_union_of(&[expander, cycle]);
        let truth = connected_components(&g);
        let result = adaptive_components(&g, &params(), 21).unwrap();
        assert!(result.components.same_partition(&truth));
        assert!(!result.lambda_levels.is_empty());
        assert_eq!(result.lambda_levels[0], 0.5);
        assert_eq!(result.lambda_levels.len(), result.rounds_per_level.len());
        // The gap guesses must decrease.
        for w in result.lambda_levels.windows(2) {
            assert!(w[1] < w[0]);
        }
    }

    #[test]
    fn adaptive_finalizes_expanders_in_the_first_levels() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let g = generators::planted_expander_components(&[120, 90], 10, &mut rng);
        let result = adaptive_components(&g, &params(), 23).unwrap();
        assert_eq!(result.components.num_components(), 2);
        // Everything is an expander, so active vertices should drop to zero
        // after very few levels.
        assert!(
            result.lambda_levels.len() <= 3,
            "took {} levels on pure expanders",
            result.lambda_levels.len()
        );
    }
}
