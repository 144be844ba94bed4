//! Experiment harness: one function per experiment in EXPERIMENTS.md.
//!
//! The paper is a theory paper with no empirical tables or figures, so the
//! "evaluation" reproduced here is the set of measurable claims made by its
//! theorems and lemmas (round complexity shapes, quadratic growth per phase,
//! walk independence, query lower bounds, …). Each `exp_*` function returns
//! an [`ExperimentTable`]; [`EXPERIMENTS`] lists them with their default
//! sizes, the `wcc_exp` binary prints the requested tables as markdown and
//! writes them as JSON under `results/`, and EXPERIMENTS.md records the
//! paper-claimed bound next to the measured value.
//!
//! All experiments are deterministic given their built-in seeds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

use wcc_baselines::run_baseline;
use wcc_core::leader::{grow_components, union_of};
use wcc_core::lower_bound::{greedy_query_game, ExpanderConnInstance};
use wcc_core::pipeline::{adaptive_components, well_connected_components};
use wcc_core::products::replacement_product;
use wcc_core::regularize::{regularize, sample_cloud};
use wcc_core::sublinear::{sublinear_components, SublinearParams};
use wcc_core::walks::layered_walk_bundle;
use wcc_core::Params;
use wcc_graph::generators::GraphFamily;
use wcc_graph::prelude::*;
use wcc_graph::spectral;
use wcc_mpc::{MpcConfig, MpcContext};

/// One table of results: a header row plus data rows of equal arity.
#[derive(Debug, Clone, Serialize)]
pub struct ExperimentTable {
    /// Experiment identifier (e.g. "E1").
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// The claim of the paper this experiment checks.
    pub paper_claim: String,
    /// Column names.
    pub columns: Vec<String>,
    /// Data rows (stringified values, one per column).
    pub rows: Vec<Vec<String>>,
}

impl ExperimentTable {
    fn new(id: &str, title: &str, paper_claim: &str, columns: &[&str]) -> Self {
        ExperimentTable {
            id: id.to_string(),
            title: title.to_string(),
            paper_claim: paper_claim.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    fn push(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Renders the table as GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {} — {}\n\n", self.id, self.title));
        out.push_str(&format!("*Paper claim:* {}\n\n", self.paper_claim));
        out.push_str(&format!("| {} |\n", self.columns.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.columns.iter().map(|_| "---|").collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }

    /// Serialises the table as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("tables are serialisable")
    }

    /// Writes the table to `results/<id>.json` (relative to the workspace
    /// root when run via `cargo run -p wcc-bench`) and returns the path.
    pub fn write_json(&self) -> std::io::Result<String> {
        let dir = std::path::Path::new("results");
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.id));
        std::fs::write(&path, self.to_json())?;
        Ok(path.display().to_string())
    }
}

fn fmt_f(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 100.0 {
        format!("{x:.0}")
    } else if x.abs() >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.4}")
    }
}

fn ctx_for_graph(g: &Graph, delta: f64) -> MpcContext {
    MpcContext::new(
        MpcConfig::for_input_size((2 * g.num_edges() + g.num_vertices()).max(64), delta)
            .permissive(),
    )
}

/// E1 — rounds versus `n` on graphs whose components are expanders
/// (Theorem 1/4: `O(log log n + log 1/λ)` rounds).
pub fn exp_rounds_vs_n(sizes: &[usize]) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E1",
        "MPC rounds vs n on planted expander components (λ = Ω(1))",
        "Theorem 1/4: O(log log n + log 1/λ) rounds with n^δ memory per machine; \
         baselines need Ω(log n).",
        &[
            "n",
            "edges",
            "wcc rounds",
            "hash-to-min rounds",
            "random-mate rounds",
            "log2(n)",
            "2^rounds-sanity (log log n)",
        ],
    );
    let params = Params::laptop_scale();
    for (i, &n) in sizes.iter().enumerate() {
        let mut rng = ChaCha8Rng::seed_from_u64(100 + i as u64);
        let comp = (n / 4).max(8);
        let g = generators::planted_expander_components(&[comp, comp, comp, comp], 8, &mut rng);
        let result = well_connected_components(&g, 0.3, &params, 7 + i as u64).unwrap();
        assert_eq!(result.components.num_components(), 4);
        let mut ctx1 = ctx_for_graph(&g, params.delta);
        let htm = run_baseline("hash-to-min", &g, &mut ctx1, 1);
        let mut ctx2 = ctx_for_graph(&g, params.delta);
        let rm = run_baseline("random-mate", &g, &mut ctx2, 1);
        table.push(vec![
            n.to_string(),
            g.num_edges().to_string(),
            result.stats.total_rounds().to_string(),
            htm.rounds.to_string(),
            rm.rounds.to_string(),
            fmt_f((n as f64).log2()),
            fmt_f((n as f64).log2().log2()),
        ]);
    }
    table
}

/// E2 — rounds versus spectral gap (Theorem 1/4: the `log(1/λ)` term).
pub fn exp_rounds_vs_gap(n: usize) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E2",
        "MPC rounds vs spectral gap λ across graph families",
        "Theorem 1/4: rounds grow like log(1/λ) as the gap shrinks (walk length T = O(log n / λ)).",
        &[
            "family",
            "n",
            "measured λ",
            "promised λ",
            "walk length T",
            "wcc rounds",
            "endgame iterations",
        ],
    );
    let params = Params::laptop_scale();
    let families: Vec<(GraphFamily, f64)> = vec![
        (GraphFamily::Expander { degree: 12 }, 0.3),
        (GraphFamily::Expander { degree: 6 }, 0.15),
        (GraphFamily::RingOfCliques { clique_size: 16 }, 0.01),
        (GraphFamily::Grid, 0.003),
        (GraphFamily::Cycle, 0.0005),
    ];
    for (i, (family, promise)) in families.iter().enumerate() {
        let mut rng = ChaCha8Rng::seed_from_u64(200 + i as u64);
        let g = family.generate(n, &mut rng);
        let measured = spectral::spectral_gap(&g, 400);
        let result = well_connected_components(&g, *promise, &params, 11 + i as u64).unwrap();
        table.push(vec![
            family.name(),
            g.num_vertices().to_string(),
            fmt_f(measured),
            fmt_f(*promise),
            result.report.walk_length.to_string(),
            result.stats.total_rounds().to_string(),
            result.report.bfs_levels.to_string(),
        ]);
    }
    table
}

/// E3 — component size per leader-election phase (Lemma 6.7: sizes square).
pub fn exp_growth_per_phase(n: usize) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E3",
        "Component growth per leader-election phase on random batches",
        "Lemma 6.7 / Remark 1.1: part sizes grow quadratically per phase \
         (Δ, Δ², Δ⁴, …) instead of by a constant factor.",
        &[
            "phase",
            "target Δ_i",
            "parts before",
            "parts after",
            "median part size",
            "max part size",
            "orphans",
        ],
    );
    let params = Params::laptop_scale();
    let mut rng = ChaCha8Rng::seed_from_u64(300);
    let degree = params.batch_degree(n);
    let phases = params.num_phases(n);
    let batches: Vec<Graph> = (0..phases)
        .map(|_| generators::random_out_degree_graph(n, degree, &mut rng))
        .collect();
    let mut ctx = ctx_for_graph(&batches[0], params.delta);
    let grow = grow_components(&batches, &params, &mut ctx, &mut rng).unwrap();
    let union = union_of(&batches);
    assert!(grow.partition.respects(&connected_components(&union)));
    for p in &grow.phases {
        table.push(vec![
            p.phase.to_string(),
            p.target_degree.to_string(),
            p.parts_before.to_string(),
            p.parts_after.to_string(),
            p.median_part_size.to_string(),
            p.max_part_size.to_string(),
            p.orphans.to_string(),
        ]);
    }
    table
}

/// E4 — quality of the Theorem 3 random-walk data structure.
pub fn exp_random_walk_quality(n: usize, t: usize) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E4",
        "Independent random walks via the layered graph (Theorem 3)",
        "Theorem 3 + Lemma 5.3: every vertex obtains a walk endpoint with the true walk \
         distribution, and each walk is certified independent with probability ≥ 1/2 \
         (regular graphs); hub graphs destroy independence, which is why Step 1 regularizes.",
        &[
            "graph",
            "n",
            "walk length",
            "certified independent",
            "fraction",
            "endpoint TVD to uniform",
        ],
    );
    let mut rng = ChaCha8Rng::seed_from_u64(400);
    let cases: Vec<(&str, Graph)> = vec![
        (
            "regular expander (d=8)",
            generators::random_regular_permutation_graph(n, 8, &mut rng),
        ),
        ("star (hub)", generators::star(n)),
    ];
    for (name, g) in cases {
        let mut independent = 0usize;
        let mut counts = vec![0f64; g.num_vertices()];
        let reps = 20;
        for _ in 0..reps {
            let bundle = layered_walk_bundle(&g, t, 2, &mut rng);
            independent += bundle.independent.iter().filter(|&&b| b).count();
            for &target in &bundle.targets {
                counts[target] += 1.0;
            }
        }
        let total: f64 = counts.iter().sum();
        let empirical: Vec<f64> = counts.iter().map(|c| c / total).collect();
        let uniform = vec![1.0 / g.num_vertices() as f64; g.num_vertices()];
        let tvd = spectral::total_variation_distance(&empirical, &uniform);
        let frac = independent as f64 / (reps * g.num_vertices()) as f64;
        table.push(vec![
            name.to_string(),
            g.num_vertices().to_string(),
            t.to_string(),
            independent.to_string(),
            fmt_f(frac),
            fmt_f(tvd),
        ]);
    }
    table
}

/// The inputs E5 regularizes: degrees below, at and above the product's
/// degree budget `d+1 = 9`, constant and vanishing gaps.
fn regularization_cases(n: usize, rng: &mut ChaCha8Rng) -> Vec<(String, Graph)> {
    let side = (n as f64).sqrt() as usize;
    let mut cases = Vec::new();
    for degree in [8, 12, 20] {
        cases.push((
            format!("expander_d{degree}"),
            generators::random_regular_permutation_graph(n, degree, rng),
        ));
    }
    for m in [4, 8] {
        cases.push((
            format!("preferential_attachment_m{m}"),
            generators::preferential_attachment(n, m, rng),
        ));
    }
    cases.push(("star".to_string(), generators::star(n)));
    cases.push((
        "ring_of_cliques(20, 8)".to_string(),
        generators::ring_of_cliques(20, 8),
    ));
    cases.push((
        "ring_of_cliques(10, 14)".to_string(),
        generators::ring_of_cliques(10, 14),
    ));
    cases.push((
        "erdos_renyi(8/n)".to_string(),
        generators::erdos_renyi(n, 8.0 / n as f64, rng),
    ));
    cases.push((
        "two_expanders_bridge".to_string(),
        generators::two_expanders_bridge(n / 2, 8, rng),
    ));
    cases.push(("grid".to_string(), generators::grid(side, side)));
    cases
}

/// Step 1 on one input, next to the classic product it replaced: every
/// vertex — light ones included — given a full-size cloud from the same seed.
struct RegularizationProbe {
    regularized: Graph,
    classic: Graph,
    gap_before: f64,
    gap_after: f64,
    gap_classic: f64,
}

fn probe_regularization(
    g: &Graph,
    params: &Params,
    seed: u64,
    gap_iters: usize,
) -> RegularizationProbe {
    let mut ctx = ctx_for_graph(g, params.delta);
    let reg = regularize(g, params, &mut ctx, &mut ChaCha8Rng::seed_from_u64(seed)).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let clouds: Vec<Graph> = g
        .vertices()
        .map(|v| sample_cloud(g.degree(v), params, &mut rng).unwrap())
        .collect();
    let (classic, _) = replacement_product(g, &clouds);
    let gap = |h: &Graph| spectral::min_component_spectral_gap(h, gap_iters).unwrap_or(0.0);
    RegularizationProbe {
        gap_before: gap(g),
        gap_after: gap(&reg.graph),
        gap_classic: gap(&classic),
        regularized: reg.graph,
        classic,
    }
}

/// E5 — the regularization step (Lemma 4.1 / Proposition 4.2).
pub fn exp_regularization(n: usize) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E5",
        "Replacement-product regularization",
        "Lemma 4.1: output is Δ-regular on O(m) vertices, components correspond one-to-one, \
         and the spectral gap is preserved up to a constant factor (Proposition 4.2). \
         Vertices of degree ≤ d+1 stay whole, so n_reg = Σ c(v) ≤ 2m; the last column is \
         the gap of the classic product that gives every vertex a cloud (n_reg = 2m).",
        &[
            "family",
            "max degree before",
            "degree after",
            "components before",
            "components after",
            "n_reg / 2m",
            "gap before",
            "gap after",
            "gap after (classic all-cloud product)",
        ],
    );
    let params = Params::laptop_scale();
    let mut rng = ChaCha8Rng::seed_from_u64(500);
    for (i, (name, g)) in regularization_cases(n, &mut rng).into_iter().enumerate() {
        let probe = probe_regularization(&g, &params, 500 + i as u64, 3000);
        table.push(vec![
            name,
            g.max_degree().to_string(),
            format!(
                "{} (regular: {})",
                probe.regularized.max_degree(),
                probe.regularized.is_regular(params.expander_degree + 1)
            ),
            connected_components(&g).num_components().to_string(),
            connected_components(&probe.regularized)
                .num_components()
                .to_string(),
            format!(
                "{} / {} = {}",
                probe.regularized.num_vertices(),
                probe.classic.num_vertices(),
                fmt_f(
                    probe.regularized.num_vertices() as f64 / probe.classic.num_vertices() as f64
                )
            ),
            fmt_f(probe.gap_before),
            fmt_f(probe.gap_after),
            fmt_f(probe.gap_classic),
        ]);
    }
    table
}

/// E6 — the mildly-sublinear-space algorithm (Theorem 2).
pub fn exp_sublinear_space(n: usize, memories: &[usize]) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E6",
        "SublinearConn rounds vs memory per machine on an arbitrary (non-expander) graph",
        "Theorem 2: O(log log n + log(n/s)) rounds on machines of memory s, with no spectral-gap assumption.",
        &["memory s", "densification degree d", "walk length", "contracted vertices", "rounds", "log2(n/s)"],
    );
    let side = (n as f64).sqrt() as usize;
    let g = generators::grid(side, side);
    let truth = connected_components(&g);
    for (i, &s) in memories.iter().enumerate() {
        let result =
            sublinear_components(&g, s, &SublinearParams::laptop_scale(), 13 + i as u64).unwrap();
        assert!(result.components.same_partition(&truth));
        table.push(vec![
            s.to_string(),
            result.report.target_degree.to_string(),
            result.report.walk_length.to_string(),
            result.report.contracted_vertices.to_string(),
            result.stats.total_rounds().to_string(),
            fmt_f((g.num_vertices() as f64 / s as f64).log2().max(0.0)),
        ]);
    }
    table
}

/// E7 — the unknown-gap adaptive algorithm (Corollary 7.1).
pub fn exp_adaptive_unknown_gap(n: usize) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E7",
        "Adaptive algorithm with unknown spectral gaps",
        "Corollary 7.1: components with gap λ are output after O(log log (1/λ)) guess levels \
         (λ' = 1/2, then λ'^1.1, …); well-connected components finish in the first levels.",
        &[
            "level",
            "gap guess λ'",
            "active vertices",
            "rounds this level",
        ],
    );
    let params = Params::laptop_scale();
    let mut rng = ChaCha8Rng::seed_from_u64(700);
    let expander = generators::random_regular_permutation_graph(n / 2, 10, &mut rng);
    let cliques = generators::ring_of_cliques((n / 4 / 12).max(3), 12);
    let cycle = generators::cycle(n / 4);
    let (g, _) = generators::disjoint_union_of(&[expander, cliques, cycle]);
    let truth = connected_components(&g);
    let result = adaptive_components(&g, &params, 77).unwrap();
    assert!(result.components.same_partition(&truth));
    for (i, lambda) in result.lambda_levels.iter().enumerate() {
        table.push(vec![
            (i + 1).to_string(),
            fmt_f(*lambda),
            result.active_vertices_per_level[i].to_string(),
            result.rounds_per_level[i].to_string(),
        ]);
    }
    table
}

/// E8 — the expander-connectivity query game (Section 9).
pub fn exp_lower_bound_game(sizes: &[usize]) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E8",
        "Decision-tree adversary for ExpanderConn",
        "Lemma 9.3 / Claim 9.4: the adversary forces Ω(n / log n) edge queries; \
         with s-word machines this yields the Ω(log_s n) round bound of Theorem 5.",
        &[
            "n",
            "candidates k",
            "max edge multiplicity",
            "forced queries (greedy)",
            "k / multiplicity",
            "n / log2 n",
        ],
    );
    for (i, &n) in sizes.iter().enumerate() {
        let mut rng = ChaCha8Rng::seed_from_u64(800 + i as u64);
        let inst = ExpanderConnInstance::build(n, 8, 4, &mut rng);
        let mult = inst.max_edge_multiplicity();
        let forced = greedy_query_game(&inst);
        table.push(vec![
            n.to_string(),
            inst.num_candidates().to_string(),
            mult.to_string(),
            forced.to_string(),
            fmt_f(inst.num_candidates() as f64 / mult.max(1) as f64),
            fmt_f(n as f64 / (n as f64).log2()),
        ]);
    }
    table
}

/// E9 — memory and machine accounting (the resource side of Theorem 4).
pub fn exp_memory_accounting(sizes: &[usize]) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E9",
        "Per-machine memory and total communication of the pipeline",
        "Theorem 4: O(m^δ polylog) memory per machine, Õ(m/λ²) total memory; the simulator \
         records the realised maxima.",
        &[
            "n",
            "memory budget/machine",
            "max machine load",
            "violations",
            "total shuffled words",
            "rounds",
        ],
    );
    let params = Params::laptop_scale();
    for (i, &n) in sizes.iter().enumerate() {
        let mut rng = ChaCha8Rng::seed_from_u64(900 + i as u64);
        let g = generators::planted_expander_components(&[n / 2, n / 2], 8, &mut rng);
        let result = well_connected_components(&g, 0.3, &params, 31 + i as u64).unwrap();
        let budget = MpcConfig::for_input_size(2 * g.num_edges() + g.num_vertices(), params.delta)
            .memory_per_machine;
        table.push(vec![
            n.to_string(),
            budget.to_string(),
            result.stats.max_machine_load_words().to_string(),
            result.stats.memory_violations().to_string(),
            result.stats.total_communication_words().to_string(),
            result.stats.total_rounds().to_string(),
        ]);
    }
    table
}

/// E10 — head-to-head against the `Θ(log n)`-round baselines, including the
/// bridge-of-two-expanders instance discussed in Section 1.3.
pub fn exp_vs_baselines(n: usize) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E10",
        "Rounds: this paper vs classical baselines",
        "Sections 1.1/1.3: exponential round improvement over label-propagation / \
         constant-growth leader election on well-connected graphs; the two-expanders-with-a-bridge \
         instance has a tiny gap, where the guarantee degrades gracefully.",
        &[
            "instance",
            "wcc rounds",
            "min-label rounds",
            "hash-to-min rounds",
            "random-mate rounds",
            "shiloach-vishkin rounds",
        ],
    );
    let params = Params::laptop_scale();
    let mut rng = ChaCha8Rng::seed_from_u64(1000);
    let instances: Vec<(&str, Graph, f64)> = vec![
        (
            "4 expander components",
            generators::planted_expander_components(&[n / 4; 4], 8, &mut rng),
            0.3,
        ),
        (
            "two expanders + bridge",
            generators::two_expanders_bridge(n / 2, 8, &mut rng),
            0.01,
        ),
    ];
    for (j, (name, g, lambda)) in instances.into_iter().enumerate() {
        let result = well_connected_components(&g, lambda, &params, 41 + j as u64).unwrap();
        let mut rounds = vec![result.stats.total_rounds().to_string()];
        for b in [
            "min-label",
            "hash-to-min",
            "random-mate",
            "shiloach-vishkin",
        ] {
            let mut ctx = ctx_for_graph(&g, params.delta);
            let r = run_baseline(b, &g, &mut ctx, 5);
            assert!(r.labels.same_partition(&connected_components(&g)));
            rounds.push(r.rounds.to_string());
        }
        let mut row = vec![name.to_string()];
        row.extend(rounds);
        table.push(row);
    }
    table
}

/// E11 — properties of the random-graph family `G(n, d)` and the
/// balls-and-bins bound (Propositions 2.3–2.5 and B.1).
pub fn exp_random_graph_props(n: usize) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E11",
        "Random-graph family G(n, d) and balls-and-bins concentration",
        "Prop. 2.3 (almost-regularity), 2.4 (connectivity for d ≥ c log n), 2.5 (expansion), \
         B.1 (non-empty bins ≈ (1±2ε)N).",
        &["check", "parameters", "predicted", "measured"],
    );
    let mut rng = ChaCha8Rng::seed_from_u64(1100);
    let ln_n = (n as f64).ln();
    // Almost-regularity with eps = 0.5.
    let d_reg = ((4.0 * ln_n / 0.25).ceil() as usize).next_multiple_of(2);
    let g = generators::random_out_degree_graph(n, d_reg, &mut rng);
    table.push(vec![
        "almost-regular (Prop 2.3)".into(),
        format!("n={n}, d={d_reg}, ε=0.5"),
        "all degrees in (1±0.5)d".into(),
        format!(
            "min {} / max {} (target [{}, {}])",
            g.min_degree(),
            g.max_degree(),
            (0.5 * d_reg as f64) as usize,
            (1.5 * d_reg as f64) as usize
        ),
    ]);
    // Connectivity at d = 4 ln n vs d = 2.
    let d_conn = (4.0 * ln_n).ceil() as usize;
    let connected_trials = 20;
    let mut connected = 0;
    for _ in 0..connected_trials {
        let h = generators::random_out_degree_graph(n, d_conn, &mut rng);
        if connected_components(&h).num_components() == 1 {
            connected += 1;
        }
    }
    table.push(vec![
        "connectivity (Prop 2.4)".into(),
        format!("n={n}, d={d_conn}, {connected_trials} trials"),
        "connected w.h.p.".into(),
        format!("{connected}/{connected_trials} connected"),
    ]);
    // Expansion / mixing (Prop 2.5): mixing time should be polylog.
    let h = generators::random_out_degree_graph(n.min(2000), d_conn, &mut rng);
    let mix = spectral::estimate_mixing_time(&h, 0.1, 1 << 14, 3, &mut rng);
    table.push(vec![
        "mixing time (Prop 2.5)".into(),
        format!("n={}, d={d_conn}", h.num_vertices()),
        "O(d² log n) (polylog)".into(),
        format!("{:?} lazy steps", mix),
    ]);
    // Balls and bins (Prop B.1).
    let bins = 200_000;
    let eps = 0.05f64;
    let balls = (eps * bins as f64) as usize;
    let outcome = wcc_core::concentration::balls_and_bins(balls, bins, eps, &mut rng);
    let (lo, hi, _) = wcc_core::concentration::balls_and_bins_prediction(balls, eps);
    table.push(vec![
        "balls & bins (Prop B.1)".into(),
        format!("N={balls}, B={bins}, ε={eps}"),
        format!("non-empty ∈ [{:.0}, {:.0}]", lo, hi),
        outcome.non_empty.to_string(),
    ]);
    table
}

/// E12 — ablations: skip regularization (hub collisions) and reuse a single
/// batch across phases (growth stalls).
pub fn exp_ablations(n: usize) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E12",
        "Ablations of the design choices",
        "Section 3: (a) without regularization, hub vertices correlate the walks \
         (few independent walks survive); (b) without fresh batches per phase, the contraction \
         correlates with the graph and growth stalls relative to fresh randomness.",
        &["ablation", "configuration", "metric", "value"],
    );
    let mut rng = ChaCha8Rng::seed_from_u64(1200);

    // (a) Walk independence with and without regularization on a hub graph.
    let star = generators::star(n.min(2000));
    let params = Params::laptop_scale();
    let bundle = layered_walk_bundle(&star, 8, 2, &mut rng);
    let ind_raw = bundle.independent.iter().filter(|&&b| b).count();
    let mut ctx = ctx_for_graph(&star, params.delta);
    let reg = regularize(&star, &params, &mut ctx, &mut rng).unwrap();
    let bundle_reg = layered_walk_bundle(&reg.graph, 8, 2, &mut rng);
    let ind_reg = bundle_reg.independent.iter().filter(|&&b| b).count();
    table.push(vec![
        "(a) skip regularization".into(),
        format!("star, n={}", star.num_vertices()),
        "certified-independent walks".into(),
        format!("{ind_raw} / {}", star.num_vertices()),
    ]);
    table.push(vec![
        "(a) with regularization".into(),
        format!("replacement product, n={}", reg.graph.num_vertices()),
        "certified-independent walks".into(),
        format!("{ind_reg} / {}", reg.graph.num_vertices()),
    ]);

    // (b) Fresh batches vs one reused batch.
    let params = Params::laptop_scale();
    let degree = params.batch_degree(n);
    let phases = params.num_phases(n);
    let fresh: Vec<Graph> = (0..phases)
        .map(|_| generators::random_out_degree_graph(n, degree, &mut rng))
        .collect();
    let reused: Vec<Graph> = {
        let b = generators::random_out_degree_graph(n, degree, &mut rng);
        (0..phases).map(|_| b.clone()).collect()
    };
    for (name, batches) in [
        ("fresh batch per phase", fresh),
        ("single batch reused", reused),
    ] {
        let mut ctx = ctx_for_graph(&batches[0], params.delta);
        let grow = grow_components(&batches, &params, &mut ctx, &mut rng).unwrap();
        let last = grow.phases.last().unwrap();
        table.push(vec![
            "(b) batch freshness".into(),
            format!("{name}, n={n}, F={phases}"),
            "median part size after last phase".into(),
            last.median_part_size.to_string(),
        ]);
    }
    table
}

/// One entry of the experiment registry.
pub struct Experiment {
    /// The identifier EXPERIMENTS.md documents the table under (`E1`…`E12`).
    pub id: &'static str,
    /// The name `wcc_exp` accepts in place of the id.
    pub name: &'static str,
    /// Runs the experiment at its default (laptop-scale) sizes.
    pub run: fn() -> ExperimentTable,
}

/// Every experiment in EXPERIMENTS.md, in table order: the one place the
/// default sizes are written down.
pub const EXPERIMENTS: [Experiment; 12] = [
    Experiment {
        id: "E1",
        name: "rounds_vs_n",
        run: || exp_rounds_vs_n(&[1 << 9, 1 << 10, 1 << 11, 1 << 12, 1 << 13]),
    },
    Experiment {
        id: "E2",
        name: "rounds_vs_gap",
        run: || exp_rounds_vs_gap(1024),
    },
    Experiment {
        id: "E3",
        name: "growth_per_phase",
        run: || exp_growth_per_phase(30_000),
    },
    Experiment {
        id: "E4",
        name: "random_walk_quality",
        run: || exp_random_walk_quality(300, 16),
    },
    Experiment {
        id: "E5",
        name: "regularization",
        run: || exp_regularization(600),
    },
    Experiment {
        id: "E6",
        name: "sublinear_space",
        run: || exp_sublinear_space(1024, &[32, 128, 512, 2048]),
    },
    Experiment {
        id: "E7",
        name: "adaptive_unknown_gap",
        run: || exp_adaptive_unknown_gap(2000),
    },
    Experiment {
        id: "E8",
        name: "lower_bound_game",
        run: || exp_lower_bound_game(&[512, 1024, 2048, 4096]),
    },
    Experiment {
        id: "E9",
        name: "memory_accounting",
        run: || exp_memory_accounting(&[1 << 9, 1 << 11, 1 << 13]),
    },
    Experiment {
        id: "E10",
        name: "vs_baselines",
        run: || exp_vs_baselines(1536),
    },
    Experiment {
        id: "E11",
        name: "random_graph_props",
        run: || exp_random_graph_props(3000),
    },
    Experiment {
        id: "E12",
        name: "ablations",
        run: || exp_ablations(15_000),
    },
];

/// Runs every experiment in [`EXPERIMENTS`].
pub fn run_all() -> Vec<ExperimentTable> {
    EXPERIMENTS.iter().map(|e| (e.run)()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_render_markdown_and_json() {
        let mut t = ExperimentTable::new("E0", "smoke", "none", &["a", "b"]);
        t.push(vec!["1".into(), "2".into()]);
        let md = t.to_markdown();
        assert!(md.contains("E0"));
        assert!(md.contains("| 1 | 2 |"));
        let json = t.to_json();
        assert!(json.contains("\"rows\""));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn mismatched_rows_are_rejected() {
        let mut t = ExperimentTable::new("E0", "smoke", "none", &["a", "b"]);
        t.push(vec!["only one".into()]);
    }

    #[test]
    fn keeping_light_vertices_whole_never_costs_spectral_gap() {
        // Step 1 is pinned statistically, not bit for bit: on every E5 input
        // the regularized graph's gap must hold up against the classic
        // product's, whose Θ(1/d) loss is what Proposition 4.2 allows.
        let params = Params::laptop_scale();
        let d = params.expander_degree;
        let mut rng = ChaCha8Rng::seed_from_u64(500);
        for (i, (name, g)) in regularization_cases(100, &mut rng).into_iter().enumerate() {
            let probe = probe_regularization(&g, &params, 500 + i as u64, 2000);
            assert!(probe.regularized.is_regular(d + 1), "{name}");
            assert!(
                probe.gap_after >= 0.9 * probe.gap_classic,
                "{name}: gap {} under the classic product's {}",
                probe.gap_after,
                probe.gap_classic
            );
            // No vertex of degree 2..=d+1: the two products are one graph.
            if probe.regularized.num_vertices() == probe.classic.num_vertices() {
                assert_eq!(probe.regularized.edges(), probe.classic.edges(), "{name}");
                assert_eq!(probe.gap_after, probe.gap_classic, "{name}");
            }
            // A Δ-regular input within the budget only gains d+1−Δ loops per
            // vertex: its gap is scaled by exactly Δ/(d+1).
            let delta = g.max_degree();
            if delta <= d + 1 && g.is_regular(delta) {
                let expected = delta as f64 / (d + 1) as f64 * probe.gap_before;
                assert!(
                    (probe.gap_after - expected).abs() <= 1e-3 * expected,
                    "{name}: gap {} -> {}, expected {expected}",
                    probe.gap_before,
                    probe.gap_after
                );
            }
        }
    }

    #[test]
    fn small_experiments_run_quickly() {
        // Smoke-test a few experiments at reduced sizes so `cargo test`
        // exercises the harness end to end.
        let e8 = exp_lower_bound_game(&[128, 256]);
        assert_eq!(e8.rows.len(), 2);
        let e4 = exp_random_walk_quality(60, 8);
        assert_eq!(e4.rows.len(), 2);
        let e11 = exp_random_graph_props(400);
        assert_eq!(e11.rows.len(), 4);
    }
}
