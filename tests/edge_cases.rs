//! The edge-case contract of a connected-components routine — no vertices,
//! no edges, self-loops, duplicate and reversed parallel edges — held against
//! *every* public entry point at once: the three paper algorithms, the four
//! baselines, and the streaming engine on an op schedule whose surviving
//! multiset is the same graph. The sequential `connected_components` is the
//! ground truth.

use wcc_baselines::run_baseline;
use wcc_core::stream::{IncrementalComponents, StreamParams};
use wcc_core::sublinear::{sublinear_components, SublinearParams};
use wcc_core::{adaptive_components, well_connected_components, Params};
use wcc_graph::io::EdgeOp;
use wcc_graph::{connected_components, ComponentLabels, Graph};
use wcc_mpc::{MpcConfig, MpcContext};

const SEED: u64 = 7;
const BASELINES: [&str; 4] = [
    "min-label",
    "hash-to-min",
    "random-mate",
    "shiloach-vishkin",
];

struct Case {
    name: &'static str,
    /// Vertex universe `0..vertices` (ids the edges never mention are
    /// isolated vertices).
    vertices: usize,
    /// The surviving edge multiset, as the one-shot entry points see it.
    edges: &'static [(usize, usize)],
    /// Op batches whose net effect is `edges`, as the engine sees it.
    schedule: &'static [&'static [(char, u64, u64)]],
    components: usize,
}

const CASES: &[Case] = &[
    Case {
        name: "no vertices, empty batch",
        vertices: 0,
        edges: &[],
        schedule: &[&[]],
        components: 0,
    },
    Case {
        name: "five isolated vertices, empty batch",
        vertices: 5,
        edges: &[],
        schedule: &[&[]],
        components: 5,
    },
    Case {
        name: "self-loops only",
        vertices: 4,
        edges: &[(0, 0), (2, 2), (2, 2)],
        schedule: &[&[('+', 0, 0), ('+', 2, 2), ('+', 2, 2)]],
        components: 4,
    },
    Case {
        name: "one vertex with a loop",
        vertices: 1,
        edges: &[(0, 0)],
        schedule: &[&[('+', 0, 0)]],
        components: 1,
    },
    Case {
        name: "duplicate and reversed parallel edges",
        vertices: 4,
        edges: &[(0, 1), (1, 0), (0, 1), (2, 3)],
        schedule: &[&[('+', 0, 1), ('+', 1, 0)], &[('+', 0, 1), ('+', 2, 3)]],
        components: 2,
    },
    Case {
        name: "insert twice, delete one copy",
        vertices: 3,
        edges: &[(0, 1)],
        schedule: &[&[('+', 0, 1), ('+', 1, 0)], &[('-', 0, 1)]],
        components: 2,
    },
    Case {
        name: "delete of the last copy",
        vertices: 3,
        edges: &[(1, 2)],
        schedule: &[&[('+', 0, 1), ('+', 1, 2)], &[('-', 1, 0)]],
        components: 2,
    },
    Case {
        name: "self-loop delete",
        vertices: 2,
        edges: &[(0, 1)],
        schedule: &[&[('+', 0, 0), ('+', 0, 1)], &[('-', 0, 0)]],
        components: 1,
    },
];

fn replay(case: &Case) -> ComponentLabels {
    let mut engine = IncrementalComponents::new(StreamParams::laptop_scale(), SEED);
    for batch in case.schedule {
        let ops: Vec<EdgeOp> = batch
            .iter()
            .map(|&(sign, u, v)| match sign {
                '+' => EdgeOp::insert(u, v),
                _ => EdgeOp::delete(u, v),
            })
            .collect();
        engine
            .apply_ops_batch(&ops)
            .unwrap_or_else(|e| panic!("{}: batch rejected: {e}", case.name));
    }
    assert_eq!(engine.num_edges(), case.edges.len(), "{}", case.name);
    engine.labels_for_universe(case.vertices)
}

#[test]
fn every_entry_point_honours_the_edge_case_contract() {
    for case in CASES {
        let g = Graph::from_edges(case.vertices, case.edges.iter().copied()).unwrap();
        let truth = connected_components(&g);
        assert_eq!(truth.num_components(), case.components, "{}", case.name);

        let params = Params::test_scale();
        let mut answers: Vec<(String, ComponentLabels)> = vec![
            (
                "well_connected_components".into(),
                well_connected_components(&g, 0.2, &params, SEED)
                    .unwrap()
                    .components,
            ),
            (
                "adaptive_components".into(),
                adaptive_components(&g, &params, SEED).unwrap().components,
            ),
            (
                "sublinear_components".into(),
                sublinear_components(&g, 64, &SublinearParams::default(), SEED)
                    .unwrap()
                    .components,
            ),
            ("IncrementalComponents".into(), replay(case)),
        ];
        for name in BASELINES {
            let mut ctx = MpcContext::new(
                MpcConfig::for_input_size(2 * g.num_edges() + g.num_vertices(), 0.5).permissive(),
            );
            answers.push((name.into(), run_baseline(name, &g, &mut ctx, SEED).labels));
        }
        for (entry, labels) in answers {
            assert_eq!(labels.len(), case.vertices, "{entry} on {}", case.name);
            assert!(
                labels.same_partition(&truth),
                "{entry} disagrees with the ground truth on {}",
                case.name
            );
        }
    }
}
