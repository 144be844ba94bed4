//! A Shiloach–Vishkin-style PRAM connectivity algorithm.
//!
//! The classic CRCW PRAM algorithm (Shiloach & Vishkin 1982, reference \[57\]
//! of the paper) maintains a forest of rooted stars via two operations per
//! round: *hooking* (the root of one tree attaches to a neighbouring tree)
//! and *pointer jumping* (`parent[v] ← parent[parent[v]]`). It terminates in
//! `O(log n)` rounds. Simulating it in MPC costs `O(1)` MPC rounds per PRAM
//! round (each hook/jump is one shuffle), so it is another member of the
//! `Θ(log n)`-round baseline family.

use wcc_graph::{ComponentLabels, Graph};
use wcc_mpc::MpcContext;

/// Shiloach–Vishkin connectivity. Returns exact components and charges two
/// MPC rounds (hook + jump) per PRAM iteration.
pub fn shiloach_vishkin(g: &Graph, ctx: &mut MpcContext) -> ComponentLabels {
    let n = g.num_vertices();
    ctx.begin_phase("shiloach-vishkin");
    let mut parent: Vec<usize> = (0..n).collect();
    let edges: Vec<(usize, usize)> = g.edge_iter().filter(|&(u, v)| u != v).collect();
    // O(log n) iterations suffice; add a generous safety margin and a
    // convergence check.
    let max_iters = 2 * (usize::BITS - n.max(2).leading_zeros()) as usize + 8;
    for _ in 0..max_iters {
        let mut changed = false;

        // Hooking: for every edge (u, v), try to hook the root of the larger
        // endpoint onto the smaller one (deterministic variant: hook onto the
        // smaller root, only roots of stars hook).
        ctx.charge_shuffle(2 * edges.len());
        let _ = ctx.record_balanced_load(2 * edges.len());
        let snapshot = parent.clone();
        for &(u, v) in &edges {
            let (pu, pv) = (snapshot[u], snapshot[v]);
            if pu == pv {
                continue;
            }
            // Only roots may be re-parented, and always towards the smaller id
            // to avoid cycles.
            if pu < pv && snapshot[pv] == pv {
                if parent[pv] > pu {
                    parent[pv] = pu;
                    changed = true;
                }
            } else if pv < pu && snapshot[pu] == pu && parent[pu] > pv {
                parent[pu] = pv;
                changed = true;
            }
        }

        // Pointer jumping.
        ctx.charge_shuffle(n);
        for v in 0..n {
            let pp = parent[parent[v]];
            if pp != parent[v] {
                parent[v] = pp;
                changed = true;
            }
        }

        if !changed {
            break;
        }
    }
    // Final flattening to roots (local, free).
    for v in 0..n {
        let mut r = v;
        while parent[r] != r {
            r = parent[r];
        }
        parent[v] = r;
    }
    ctx.end_phase();
    ComponentLabels::from_raw_labels(&parent)
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
    fn matches_ground_truth() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let graphs = [
            generators::path(200),
            generators::cycle(111),
            generators::binary_tree(127),
            generators::erdos_renyi(250, 0.012, &mut rng),
            generators::planted_expander_components(&[60, 60], 8, &mut rng),
        ];
        for (i, g) in graphs.iter().enumerate() {
            let truth = connected_components(g);
            let mut ctx = ctx_for(g);
            let labels = shiloach_vishkin(g, &mut ctx);
            assert!(labels.same_partition(&truth), "graph {i} mismatched");
        }
    }

    #[test]
    fn rounds_grow_sublinearly_with_path_length() {
        let small = generators::path(64);
        let large = generators::path(4096);
        let mut ctx_s = ctx_for(&small);
        let mut ctx_l = ctx_for(&large);
        shiloach_vishkin(&small, &mut ctx_s);
        shiloach_vishkin(&large, &mut ctx_l);
        let (rs, rl) = (ctx_s.stats().total_rounds(), ctx_l.stats().total_rounds());
        // 64x longer path should cost only a constant number of extra iterations.
        assert!(rl <= rs + 30, "rounds went from {rs} to {rl}");
    }

    #[test]
    fn handles_graphs_with_self_loops_and_multi_edges() {
        let g = Graph::from_edges_unchecked(4, vec![(0, 0), (0, 1), (0, 1), (2, 3)]);
        let mut ctx = ctx_for(&g);
        let labels = shiloach_vishkin(&g, &mut ctx);
        assert_eq!(labels.num_components(), 2);
    }
}
