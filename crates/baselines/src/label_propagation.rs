//! Label-propagation connectivity baselines.

use wcc_graph::{ComponentLabels, Graph};
use wcc_mpc::MpcContext;

/// Folklore minimum-label propagation.
///
/// Every vertex starts with its own id as its label; in each round every
/// vertex adopts the minimum label among itself and its neighbours. One
/// iteration is one MPC round (each vertex exchanges one word with each
/// neighbour, which the shuffle layer of `wcc-mpc` moves in a single
/// superstep). The algorithm stabilises after `diameter + 1` iterations —
/// `Θ(n)` rounds on a path, `Θ(log n)` on an expander — and is the simplest
/// of the `Ω(log n)`-round baselines the paper improves on.
pub fn min_label_propagation(g: &Graph, ctx: &mut MpcContext) -> ComponentLabels {
    let n = g.num_vertices();
    let executor = ctx.executor();
    ctx.begin_phase("min-label-propagation");
    let mut labels: Vec<usize> = (0..n).collect();
    loop {
        // One communication round: every vertex sends its label across each
        // incident edge. The per-vertex min is a pure function of the
        // previous round's snapshot, so it fans out over the backend with
        // identical results on every thread count.
        ctx.charge_shuffle(2 * g.num_edges());
        let _ = ctx.record_balanced_load(2 * g.num_edges());
        let next: Vec<usize> = executor.map_indexed(n, |v| {
            let mut best = labels[v];
            for &w in g.neighbors(v) {
                best = best.min(labels[w as usize]);
            }
            best
        });
        let changed = next != labels;
        labels = next;
        if !changed {
            break;
        }
    }
    ctx.end_phase();
    ComponentLabels::from_raw_labels(&labels)
}

/// Hash-to-Min (Rastogi, Machanavajjhala, Chitnis, Das Sarma — ICDE 2013,
/// reference \[48\] of the paper).
///
/// Every vertex `v` maintains a cluster `C_v`, initially `{v} ∪ N(v)`. In
/// each round `v` sends `C_v` to the minimum member of `C_v` and sends that
/// minimum to every other member; clusters are replaced by the union of the
/// received messages. The process stabilises in `O(log n)` rounds with the
/// minimum vertex of each component holding the whole component.
pub fn hash_to_min(g: &Graph, ctx: &mut MpcContext) -> ComponentLabels {
    use std::collections::BTreeSet;
    let n = g.num_vertices();
    ctx.begin_phase("hash-to-min");
    let mut clusters: Vec<BTreeSet<usize>> = (0..n)
        .map(|v| {
            let mut c: BTreeSet<usize> = g.neighbors(v).iter().map(|&w| w as usize).collect();
            c.insert(v);
            c
        })
        .collect();
    loop {
        let message_words: usize = clusters.iter().map(|c| c.len() + 1).sum();
        ctx.charge_shuffle(message_words);
        let _ = ctx.record_balanced_load(message_words);
        let mut inbox: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
        for cluster in &clusters {
            let m = *cluster.iter().next().expect("cluster always contains v");
            // Send the full cluster to the minimum member...
            inbox[m].extend(cluster.iter().copied());
            // ...and the minimum to every other member.
            for &u in cluster {
                inbox[u].insert(m);
            }
        }
        let mut changed = false;
        for v in 0..n {
            if inbox[v] != clusters[v] {
                changed = true;
            }
            clusters[v] = std::mem::take(&mut inbox[v]);
        }
        if !changed {
            break;
        }
    }
    ctx.end_phase();
    // At convergence every vertex's cluster minimum is its component minimum.
    let labels: Vec<usize> = clusters
        .iter()
        .map(|c| *c.iter().next().expect("cluster non-empty"))
        .collect();
    ComponentLabels::from_raw_labels(&labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use wcc_graph::prelude::*;
    use wcc_mpc::MpcConfig;

    fn ctx_for(g: &Graph) -> MpcContext {
        MpcContext::new(MpcConfig::for_input_size(2 * g.num_edges() + 10, 0.5).permissive())
    }

    #[test]
    fn min_label_matches_truth_and_uses_diameter_rounds() {
        let g = generators::path(40);
        let truth = connected_components(&g);
        let mut ctx = ctx_for(&g);
        let labels = min_label_propagation(&g, &mut ctx);
        assert!(labels.same_partition(&truth));
        // A path of 40 vertices has diameter 39: label 0 needs 39 hops to reach the end.
        assert!(ctx.stats().total_rounds() >= 39);
    }

    #[test]
    fn min_label_on_disconnected_graph() {
        let (g, _) = generators::disjoint_union_of(&[generators::cycle(10), generators::cycle(12)]);
        let mut ctx = ctx_for(&g);
        let labels = min_label_propagation(&g, &mut ctx);
        assert_eq!(labels.num_components(), 2);
    }

    #[test]
    fn hash_to_min_matches_truth_in_logarithmic_rounds() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let g = generators::random_out_degree_graph(300, 12, &mut rng);
        let truth = connected_components(&g);
        let mut ctx = ctx_for(&g);
        let labels = hash_to_min(&g, &mut ctx);
        assert!(labels.same_partition(&truth));
        let rounds = ctx.stats().total_rounds();
        assert!(
            rounds <= 20,
            "hash-to-min took {rounds} rounds on a 300-vertex random graph"
        );
    }

    #[test]
    fn hash_to_min_handles_isolated_vertices() {
        let g = Graph::from_edges_unchecked(5, vec![(0, 1)]);
        let mut ctx = ctx_for(&g);
        let labels = hash_to_min(&g, &mut ctx);
        assert_eq!(labels.num_components(), 4);
    }

    #[test]
    fn label_propagation_needs_more_rounds_on_path_than_expander() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let expander = generators::random_regular_permutation_graph(128, 8, &mut rng);
        let path = generators::path(128);
        let mut ctx_e = ctx_for(&expander);
        let mut ctx_p = ctx_for(&path);
        min_label_propagation(&expander, &mut ctx_e);
        min_label_propagation(&path, &mut ctx_p);
        assert!(ctx_e.stats().total_rounds() * 4 < ctx_p.stats().total_rounds());
    }
}
