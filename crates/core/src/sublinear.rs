//! The mildly-sublinear-space algorithm `SublinearConn` (Section 8,
//! Theorem 2).
//!
//! For *arbitrary* sparse graphs (no spectral-gap promise), Theorem 2 shows
//! that `O(log log n + log(n/s))` rounds suffice on machines of memory `s`:
//!
//! 1. run a random walk of length `t = Θ(d³ log n)` from every vertex, where
//!    `d = n · polylog(n) / s`; by the Barnes–Feige bound the walk either
//!    covers its whole component or visits at least `d` distinct vertices;
//! 2. connect every vertex to all distinct vertices its walk visited (graph
//!    `G̃`, minimum degree `≥ d` or a whole small component);
//! 3. one `LeaderElection(G̃, d)` pass with leader probability
//!    `Θ(log n / d)` contracts the graph to `O(n log n / d) = O(s /
//!    polylog n)` super-vertices;
//! 4. the contracted graph now fits the Ahn–Guha–McGregor sketching bound:
//!    every super-vertex compresses its incident edges into a `polylog`-bit
//!    message ([`DynamicConnectivitySketch::message_for`]) and a single
//!    coordinator machine finishes the job by sketch-space Borůvka over all
//!    super-vertices ([`DynamicConnectivitySketch::subset_components`],
//!    Proposition 8.1).

use crate::leader::{contraction_graph, leader_election, parent_connect_components};
use crate::regularize::CoreError;
use crate::walks::{v3_walk_visits_into, walk_rounds, WalkVisitScratch};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use wcc_graph::{ComponentLabels, Graph, GraphBuilder, Partition};
use wcc_mpc::{record_walk_telemetry, MpcConfig, MpcContext, RoundStats, WalkTelemetry};
use wcc_sketch::DynamicConnectivitySketch;

/// Tunable constants of [`sublinear_components`]. The paper's choices are
/// `d = n log⁴ n / s` and `t = 100 d³ log n`; the laptop preset keeps the
/// same shape with gentler exponents so the walk simulation stays affordable
/// (the Barnes–Feige exponent only matters for worst-case inputs).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SublinearParams {
    /// Multiplier `c` in `d = c · n · ln n / s`.
    pub degree_multiplier: f64,
    /// Walk length as a function of `d`: `t = walk_multiplier · d^walk_exponent · ln n`.
    pub walk_multiplier: f64,
    /// Exponent of `d` in the walk length (paper: 3; laptop default 2).
    pub walk_exponent: f64,
    /// Hard cap on the walk length.
    pub max_walk_length: usize,
    /// Leader probability multiplier: `p = leader_multiplier · ln n / d`.
    pub leader_multiplier: f64,
    /// Number of Borůvka phases the AGM sketch is built with.
    pub sketch_phases: usize,
    /// Worker threads of the execution backend (`1` = sequential, `0` =
    /// resolve from `WCC_THREADS`); results are identical for every value.
    pub threads: usize,
}

impl SublinearParams {
    /// The paper's constants (Section 8).
    pub fn paper() -> Self {
        SublinearParams {
            degree_multiplier: 1.0,
            walk_multiplier: 100.0,
            walk_exponent: 3.0,
            max_walk_length: usize::MAX,
            leader_multiplier: 1.0,
            sketch_phases: 40,
            threads: 0,
        }
    }

    /// Laptop-scale constants (documented substitution: the `d³` exponent is
    /// reduced to `d²`, which empirically still covers `d` distinct vertices
    /// on the graph families used in the experiments).
    pub fn laptop_scale() -> Self {
        SublinearParams {
            degree_multiplier: 0.5,
            walk_multiplier: 2.0,
            walk_exponent: 2.0,
            max_walk_length: 1 << 16,
            leader_multiplier: 1.0,
            sketch_phases: 24,
            threads: 0,
        }
    }

    /// Returns a copy using the given number of worker threads.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

impl Default for SublinearParams {
    fn default() -> Self {
        SublinearParams::laptop_scale()
    }
}

/// Detailed measurements of one [`sublinear_components`] run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SublinearReport {
    /// The densification target degree `d`.
    pub target_degree: usize,
    /// The walk length `t` used.
    pub walk_length: usize,
    /// Number of super-vertices after the leader-election contraction.
    pub contracted_vertices: usize,
    /// Size (in words) of a super-vertex's sketch message; every message has
    /// the same fixed size.
    pub max_message_words: usize,
    /// Memory budget `s` of the simulated machines.
    pub memory_per_machine: usize,
}

/// The result of a [`sublinear_components`] run.
#[derive(Debug, Clone)]
pub struct SublinearResult {
    /// Connected-component labels of the input graph.
    pub components: ComponentLabels,
    /// MPC resource usage.
    pub stats: RoundStats,
    /// Per-stage measurements.
    pub report: SublinearReport,
}

/// `SublinearConn(G)` — Theorem 2: connectivity of an arbitrary graph on
/// machines with `s` words of memory in `O(log log n + log(n/s))` rounds.
///
/// A graph on at most one vertex has nothing to connect: it gets the trivial
/// labelling with no rounds charged, like the empty-graph case of
/// [`well_connected_components`](crate::pipeline::well_connected_components).
///
/// # Errors
///
/// Returns [`CoreError::BadParams`] if `memory_per_machine < 4`.
pub fn sublinear_components(
    g: &Graph,
    memory_per_machine: usize,
    params: &SublinearParams,
    seed: u64,
) -> Result<SublinearResult, CoreError> {
    let n = g.num_vertices();
    if memory_per_machine < 4 {
        return Err(CoreError::BadParams(format!(
            "memory per machine must be at least 4 words, got {memory_per_machine}"
        )));
    }
    if n <= 1 {
        return Ok(SublinearResult {
            components: ComponentLabels::from_raw_labels(&vec![0; n]),
            stats: RoundStats::default(),
            report: SublinearReport {
                target_degree: 0,
                walk_length: 0,
                contracted_vertices: n,
                max_message_words: 0,
                memory_per_machine,
            },
        });
    }
    let input_words = (2 * g.num_edges() + n).max(16);
    let config = MpcConfig::with_memory(input_words, memory_per_machine)
        .permissive()
        .with_threads(params.threads);
    let mut ctx = MpcContext::new(config);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let ln_n = (n.max(2) as f64).ln();

    // Step 1: walk length and target degree.
    let d = densification_degree(n, memory_per_machine, params);
    let t = ((params.walk_multiplier * (d as f64).powf(params.walk_exponent) * ln_n).ceil()
        as usize)
        .clamp(1, params.max_walk_length);

    ctx.begin_phase("sublinear-walks");
    // SimpleRandomWalk costs O(log t) rounds (Theorem 3 machinery without the
    // independence requirement — Section 8 explicitly notes independence is
    // not needed here).
    ctx.charge(walk_rounds(t), (n as u64) * (t.min(1 << 20) as u64));
    // Per-vertex fan-out on the execution backend: every vertex walks on its
    // own ChaCha8 stream derived from one master draw, so the densified
    // graph is identical for every backend and thread count. Each worker
    // emits its range's densification edges straight into one flat pair
    // list, reusing one epoch-stamped visit scratch and one visit buffer
    // across all of its walks (no per-vertex hash set or visit vector
    // survives the fan-out). The walks run the v3 kernel (DESIGN.md §10).
    let walk_base = rng.gen::<u64>();
    let pairs: Vec<(usize, usize)> = ctx.executor().flat_map_ranges(n, |range| {
        let mut out = Vec::new();
        let mut scratch = WalkVisitScratch::new();
        let mut visits = Vec::new();
        let mut tally = WalkTelemetry::default();
        for v in range {
            let mut vrng =
                ChaCha8Rng::seed_from_u64(wcc_mpc::derive_stream_seed(walk_base, v as u64));
            v3_walk_visits_into(g, v, t, &mut vrng, &mut scratch, &mut visits, &mut tally);
            out.extend(visits.iter().copied().filter(|&u| u != v).map(|u| (v, u)));
        }
        record_walk_telemetry(&tally);
        out
    });
    let mut builder = GraphBuilder::with_capacity(n, pairs.len());
    builder.add_edges(pairs).expect("walk stays in range");
    let densified = builder.build();
    ctx.end_phase();

    // Step 2: one leader-election pass at probability Θ(log n / d).
    ctx.begin_phase("sublinear-leader-election");
    let leader_prob = (params.leader_multiplier * ln_n / d as f64).min(1.0);
    let outcome = leader_election(&densified, leader_prob, &mut ctx, &mut rng);
    let partition = Partition::from_raw_labels(&outcome.group_of);
    ctx.end_phase();

    // Step 3: contract and sketch. Each super-vertex's incident (contracted)
    // edges become updates to its AGM sketch; the coordinator recovers the
    // components of the contracted graph from the messages alone
    // (Proposition 8.1).
    ctx.begin_phase("sublinear-sketch");
    let contracted = contraction_graph(g, &partition, &mut ctx);
    let k = contracted.num_vertices();
    // Borůvka needs ~log₂ k successful merge phases and each phase succeeds
    // with constant probability per component, so scale the number of
    // independent samplers with log k (still polylog-size messages).
    let phases = params
        .sketch_phases
        .max(2 * (usize::BITS - k.max(2).leading_zeros()) as usize + 16);
    // Each super-vertex builds its own message independently (the sketch is
    // linear), so the construction fans out per vertex on the backend; the
    // shared random bits are expanded into the sketch's keys once and read
    // by every worker.
    let mut sketch = DynamicConnectivitySketch::new(phases, seed ^ 0xABCD);
    let messages = ctx
        .executor()
        .map_indexed(k, |v| sketch.message_for(v as u32, contracted.neighbors(v)));
    sketch.push_messages(messages);
    // One round: every super-vertex ships its polylog-size message to the
    // coordinator machine.
    let message_words = sketch.words_per_vertex();
    ctx.charge_shuffle(k * message_words);
    let _ = ctx.record_machine_load(0, k * message_words);
    // Sketch-space Borůvka over every super-vertex. `None` is a sampling
    // failure; a certified partition is exact unless a fingerprint collided,
    // which the verification scan catches (a contracted edge crossing two
    // parts). Both have probability o(1), but we want a deterministic
    // library: they finish exactly the way the pipeline's endgame does,
    // charged exchange by exchange.
    let super_vertices: Vec<u32> = (0..k as u32).collect();
    let sketched = sketch.subset_components(&super_vertices).map(|p| {
        let mut part_of = vec![0; k];
        for (part, members) in p.parts.iter().enumerate() {
            members.iter().for_each(|&m| part_of[m as usize] = part);
        }
        part_of
    });
    let part_of = sketched
        .filter(|part_of| {
            contracted
                .edge_iter()
                .all(|(a, b)| part_of[a] == part_of[b])
        })
        .unwrap_or_else(|| parent_connect_components(&contracted, &mut ctx).0);
    ctx.end_phase();

    // Pull the contracted labels back through the partition.
    let raw: Vec<usize> = (0..n).map(|v| part_of[partition.part_of(v)]).collect();
    let components = ComponentLabels::from_raw_labels(&raw);

    let report = SublinearReport {
        target_degree: d,
        walk_length: t,
        contracted_vertices: k,
        max_message_words: message_words,
        memory_per_machine,
    };
    Ok(SublinearResult {
        components,
        stats: ctx.into_stats(),
        report,
    })
}

/// Internal helper shared with the experiments: expected number of distinct
/// vertices a walk must reach for the contraction to fit in memory; exposed
/// for test assertions.
pub fn densification_degree(
    n: usize,
    memory_per_machine: usize,
    params: &SublinearParams,
) -> usize {
    let ln_n = (n.max(2) as f64).ln();
    ((params.degree_multiplier * n as f64 * ln_n / memory_per_machine as f64).ceil() as usize)
        .clamp(2, n.max(2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use wcc_graph::prelude::*;

    fn check(g: &Graph, s: usize, seed: u64) -> SublinearResult {
        let truth = connected_components(g);
        let result = sublinear_components(g, s, &SublinearParams::default(), seed).unwrap();
        assert!(
            result.components.same_partition(&truth),
            "sublinear result disagrees with ground truth ({} vs {} components)",
            result.components.num_components(),
            truth.num_components()
        );
        result
    }

    #[test]
    fn works_on_random_graphs_and_cycles() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let g = generators::random_out_degree_graph(300, 8, &mut rng);
        check(&g, 64, 2);
        let c = generators::cycle(200);
        check(&c, 64, 3);
    }

    #[test]
    fn works_on_disconnected_inputs() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let g = generators::planted_expander_components(&[60, 90, 40], 8, &mut rng);
        let result = check(&g, 48, 5);
        assert_eq!(result.components.num_components(), 3);
    }

    #[test]
    fn works_with_no_gap_structure_at_all() {
        // Trees and paths have terrible expansion; Theorem 2 must not care.
        let g = generators::binary_tree(255);
        check(&g, 32, 6);
        let p = generators::path(180);
        check(&p, 32, 7);
    }

    #[test]
    fn contraction_fits_well_below_input_size() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let g = generators::random_out_degree_graph(600, 10, &mut rng);
        let result = check(&g, 64, 9);
        assert!(
            result.report.contracted_vertices * 4 < g.num_vertices(),
            "contraction only reached {} super-vertices",
            result.report.contracted_vertices
        );
        assert!(result.report.target_degree >= 2);
    }

    #[test]
    fn larger_memory_means_fewer_rounds() {
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let g = generators::random_out_degree_graph(500, 10, &mut rng);
        let small = sublinear_components(&g, 16, &SublinearParams::default(), 11).unwrap();
        let large = sublinear_components(&g, 2048, &SublinearParams::default(), 11).unwrap();
        assert!(
            large.stats.total_rounds() <= small.stats.total_rounds(),
            "more memory should never cost more rounds ({} vs {})",
            large.stats.total_rounds(),
            small.stats.total_rounds()
        );
    }

    #[test]
    fn rejects_degenerate_inputs() {
        // Too little memory is rejected whatever the graph — also one the
        // trivial-labelling shortcut would otherwise answer.
        for g in [generators::cycle(10), Graph::empty(0)] {
            assert!(matches!(
                sublinear_components(&g, 2, &SublinearParams::default(), 0),
                Err(CoreError::BadParams(_))
            ));
        }
    }

    #[test]
    fn graphs_on_at_most_one_vertex_get_the_trivial_labelling() {
        let lone_loop = Graph::from_edges(1, [(0, 0)]).unwrap();
        for g in [Graph::empty(0), Graph::empty(1), lone_loop] {
            let n = g.num_vertices();
            let result = sublinear_components(&g, 64, &SublinearParams::default(), 0).unwrap();
            assert_eq!(result.components.num_components(), n);
            assert_eq!(result.components.len(), n);
            assert_eq!(result.stats.total_rounds(), 0);
            assert_eq!(densification_degree(n, 64, &SublinearParams::default()), 2);
        }
    }

    #[test]
    fn mildly_sublinear_memory_matches_truth() {
        // Theorem 2's regime `s = n / polylog(n)`, here `s = ⌈n / (ln n)²⌉`.
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let g = generators::erdos_renyi(250, 0.015, &mut rng);
        let truth = connected_components(&g);
        let ln_n = 250f64.ln();
        let s = (250.0 / (ln_n * ln_n)).ceil() as usize;
        let result = sublinear_components(&g, s, &SublinearParams::default(), 13).unwrap();
        assert!(result.components.same_partition(&truth));
    }

    #[test]
    fn densification_degree_scales_inversely_with_memory() {
        let p = SublinearParams::default();
        assert!(densification_degree(10_000, 100, &p) > densification_degree(10_000, 10_000, &p));
        assert!(densification_degree(10_000, 1, &p) <= 10_000);
    }
}
