//! Cross-crate integration tests: every connectivity algorithm in the
//! workspace must agree with the sequential ground truth on a shared zoo of
//! graph families, and the paper's round-complexity separation must be
//! visible on well-connected instances.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use wcc_baselines::{run_baseline, shiloach_vishkin};
use wcc_core::leader::{finish_with_bfs, finish_with_bfs_over_refs};
use wcc_core::prelude::*;
use wcc_core::products::cloud_sizes;
use wcc_core::sublinear::{sublinear_components, SublinearParams};
use wcc_graph::generators::GraphFamily;
use wcc_graph::prelude::*;
use wcc_graph::Partition;
use wcc_mpc::{MpcConfig, MpcContext};

fn ctx_for(g: &Graph) -> MpcContext {
    MpcContext::new(
        MpcConfig::for_input_size(2 * g.num_edges() + g.num_vertices(), 0.5).permissive(),
    )
}

fn zoo(seed: u64) -> Vec<(String, Graph)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let families = vec![
        GraphFamily::Expander { degree: 8 },
        GraphFamily::PlantedExpanders {
            num_components: 3,
            degree: 8,
        },
        GraphFamily::PaperRandom { degree: 12 },
        GraphFamily::Cycle,
        GraphFamily::BinaryTree,
        GraphFamily::RingOfCliques { clique_size: 6 },
        GraphFamily::Star,
        GraphFamily::PreferentialAttachment {
            edges_per_vertex: 2,
        },
    ];
    families
        .into_iter()
        .map(|f| (f.name(), f.generate(220, &mut rng)))
        .collect()
}

#[test]
fn pipeline_matches_ground_truth_on_the_whole_zoo() {
    let params = Params::test_scale();
    for (name, g) in zoo(1) {
        let truth = connected_components(&g);
        // Promise a generous gap: the exact endgame keeps the answer right
        // even where the promise is wrong (cycles, trees, ...).
        let result = well_connected_components(&g, 0.25, &params, 11).unwrap();
        assert!(
            result.components.same_partition(&truth),
            "pipeline mismatch on {name}: {} vs {} components",
            result.components.num_components(),
            truth.num_components()
        );
    }
}

#[test]
fn adaptive_matches_ground_truth_on_the_whole_zoo() {
    let params = Params::test_scale();
    for (name, g) in zoo(2) {
        let truth = connected_components(&g);
        let result = adaptive_components(&g, &params, 13).unwrap();
        assert!(
            result.components.same_partition(&truth),
            "adaptive mismatch on {name}"
        );
    }
}

#[test]
fn sublinear_matches_ground_truth_on_the_whole_zoo() {
    for (name, g) in zoo(3) {
        let truth = connected_components(&g);
        let result = sublinear_components(&g, 64, &SublinearParams::laptop_scale(), 17).unwrap();
        assert!(
            result.components.same_partition(&truth),
            "sublinear mismatch on {name}"
        );
    }
}

#[test]
fn all_baselines_match_ground_truth_on_the_whole_zoo() {
    for (name, g) in zoo(4) {
        let truth = connected_components(&g);
        for baseline in [
            "min-label",
            "hash-to-min",
            "random-mate",
            "shiloach-vishkin",
        ] {
            let mut ctx = ctx_for(&g);
            let res = run_baseline(baseline, &g, &mut ctx, 23);
            assert!(
                res.labels.same_partition(&truth),
                "{baseline} mismatch on {name}"
            );
        }
    }
}

#[test]
fn round_separation_on_well_connected_instances() {
    // The paper's headline: on expander components the pipeline's rounds stay
    // essentially flat in n while label propagation grows with the diameter /
    // log n. The 8-regular inputs stay whole under regularization
    // (n_reg = n), so the phase count F steps from 1 to 2 between 256 and
    // 512 vertices (256^¼ = 4 = Δ₁) and stays 2 up to 65 536.
    let params = Params::laptop_scale();
    let run = |n: usize| {
        let mut rng = ChaCha8Rng::seed_from_u64(n as u64);
        let g = generators::planted_expander_components(&[n / 2, n / 2], 8, &mut rng);
        let result = well_connected_components(&g, 0.3, &params, 31).unwrap();
        assert_eq!(result.report.regularized_vertices, n);
        let mut ctx = ctx_for(&g);
        let theirs = run_baseline("random-mate", &g, &mut ctx, 5).rounds;
        (result, theirs)
    };

    // Inside one F, two sizes a factor 16 apart: our round count barely
    // moves (log log n + constant endgame)...
    let (small, theirs_small) = run(1024);
    let (large, theirs_large) = run(16_384);
    assert_eq!((small.report.num_batches, large.report.num_batches), (2, 2));
    let ours = [small.stats.total_rounds(), large.stats.total_rounds()];
    assert!(
        ours[1] <= ours[0] + 8,
        "pipeline rounds grew too fast: {ours:?}"
    );
    // ...while the constant-growth baseline needs noticeably more rounds on
    // the larger instance.
    assert!(
        theirs_large > theirs_small,
        "random-mate rounds should grow with n: {theirs_small} -> {theirs_large}"
    );

    // Across the F step the jump is one more batch — its walks
    // (1 + 2⌈log₂ t⌉ rounds + the assembling shuffle; ⌈log₂ t⌉ = 7 on both
    // sides) and its grow phase — and nothing else.
    let (one_phase, _) = run(256);
    let (two_phases, _) = run(512);
    assert_eq!(
        (one_phase.report.num_batches, two_phases.report.num_batches),
        (1, 2)
    );
    let stats = &two_phases.stats;
    let one_batch = (stats.rounds_in_phase("randomize") + stats.rounds_in_phase("grow-components"))
        / two_phases.report.num_batches as u64;
    assert_eq!(
        two_phases.stats.total_rounds() - one_phase.stats.total_rounds(),
        one_batch,
        "the F step must cost exactly one batch"
    );
}

#[test]
fn inputs_without_light_vertices_run_exactly_as_the_all_cloud_pipeline_did() {
    // Every vertex of a 12-regular input is over the degree budget d+1 = 9,
    // so regularization is the classic all-cloud product and nothing
    // downstream may move: the rounds below were read at the last commit
    // that gave every vertex a cloud (f60b909), same graph and seeds. The
    // words were re-read at the commit that packed the walk kernel's
    // neighbour digits, the child of 2c85e2f (3 382 792 and 2 869 894
    // there): new walk endpoints change which edges grow contracts, never
    // a round or a label.
    let mut rng = ChaCha8Rng::seed_from_u64(77);
    let g = generators::planted_expander_components(&[150, 150], 12, &mut rng);
    let truth = connected_components(&g);
    for threads in [1usize, 2] {
        let params = Params::laptop_scale().with_threads(threads);
        let wcc = well_connected_components(&g, 0.3, &params, 31).unwrap();
        assert_eq!(wcc.report.regularized_vertices, 2 * g.num_edges());
        assert_eq!(wcc.components, truth);
        assert_eq!(
            (
                wcc.stats.total_rounds(),
                wcc.stats.total_communication_words()
            ),
            (54, 3_383_766),
            "wcc, threads={threads}"
        );
        let adaptive = adaptive_components(&g, &params, 31).unwrap();
        assert_eq!(adaptive.components, truth);
        assert_eq!(
            (
                adaptive.stats.total_rounds(),
                adaptive.stats.total_communication_words()
            ),
            (51, 2_868_878),
            "adaptive, threads={threads}"
        );
    }
}

#[test]
fn pipeline_report_is_consistent_with_stats() {
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    // Two isolated vertices: they have no product vertex at all.
    let (g, _) = generators::disjoint_union_of(&[
        generators::planted_expander_components(&[150, 150], 8, &mut rng),
        Graph::empty(2),
    ]);
    let params = Params::test_scale();
    let result = well_connected_components(&g, 0.3, &params, 3).unwrap();
    assert_eq!(result.report.grow_phases.len(), result.report.num_batches);
    assert_eq!(
        result.report.regularized_vertices,
        cloud_sizes(&g, params.expander_degree).sum::<usize>()
    );
    assert_eq!(result.report.regularized_vertices, 300);
    assert!(result.stats.total_communication_words() > 0);
    assert!(result.stats.rounds_in_phase("regularize") >= 1);
    assert!(result.stats.rounds_in_phase("grow-components") >= 1);
    assert!(result.stats.rounds_in_phase("low-diameter-bfs") >= 1);
}

#[test]
fn exact_endgame_matches_ground_truth_and_shiloach_vishkin_on_the_whole_zoo() {
    // The endgame alone, from singletons, from a refinement of the truth and
    // from the truth itself, against both oracles; relabelled copies take away whatever the
    // generators' vertex numbering gives for free.
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let mut graphs = zoo(5);
    graphs.push(("grid".to_string(), generators::grid(11, 20)));
    graphs.push(("path".to_string(), generators::path(220)));
    for (name, g) in graphs {
        for g in [generators::relabel_random(&g, &mut rng), g] {
            let n = g.num_vertices();
            let truth = connected_components(&g);
            let sv = shiloach_vishkin(&g, &mut ctx_for(&g));
            let refinement: Vec<usize> = (0..n).map(|v| 3 * truth.label(v) + v % 3).collect();
            for start in [
                Partition::singletons(n),
                Partition::from_raw_labels(&refinement),
                Partition::from_raw_labels(truth.labels()),
            ] {
                let mut ctx = ctx_for(&g);
                let (finished, iterations) = finish_with_bfs(&g, &start, &mut ctx);
                assert!(
                    finished.equals_components(&truth),
                    "endgame wrong on {name}"
                );
                assert!(finished.equals_components(&sv), "endgame != SV on {name}");
                assert!(
                    iterations <= 12,
                    "{iterations} iterations on {name} ({n} vertices)"
                );
            }
            // Split over two edge-disjoint graphs, the union is never built.
            let (even, odd): (Vec<_>, Vec<_>) = g.edge_iter().partition(|&(u, v)| (u + v) % 2 == 0);
            let halves = [
                Graph::from_edges_unchecked(n, even),
                Graph::from_edges_unchecked(n, odd),
            ];
            let (finished, _) = finish_with_bfs_over_refs(
                &[&halves[0], &halves[1]],
                &Partition::singletons(n),
                &mut ctx_for(&g),
            );
            assert!(
                finished.equals_components(&truth),
                "split endgame on {name}"
            );
        }
    }
}

#[test]
fn adaptive_on_a_long_ring_pays_log_diameter_in_the_endgame() {
    // 300 cliques in a ring: the walks of the first gap guess do not mix
    // it, so the endgame is handed a contraction 26 BFS levels deep. One
    // round per level made that 26 rounds on top of the contraction's
    // 3-round sort; parent-connect + shortcut makes it 12.
    let g = generators::ring_of_cliques(300, 8);
    let truth = connected_components(&g);
    let mut model = Vec::new();
    for threads in [1usize, 2, 8] {
        let params = Params::laptop_scale().with_threads(threads);
        let result = adaptive_components(&g, &params, 7).unwrap();
        assert!(
            result.components.same_partition(&truth),
            "threads={threads}"
        );
        let endgame = result.stats.rounds_in_phase("low-diameter-bfs");
        assert!(endgame <= 20, "{endgame} endgame rounds, threads={threads}");
        model.push((
            result.stats.total_rounds(),
            result.stats.total_communication_words(),
            result.components.labels().to_vec(),
        ));
    }
    assert_eq!(
        model[0], model[1],
        "2 threads moved rounds, words or labels"
    );
    assert_eq!(
        model[0], model[2],
        "8 threads moved rounds, words or labels"
    );
}
