//! Spectral machinery: normalized-Laplacian spectral gap, lazy-random-walk
//! distributions, mixing times.
//!
//! The paper parameterises its round complexity by `λ = λ₂(L)`, the second
//! smallest eigenvalue of the normalized Laplacian `L = I − D^{-1/2} A
//! D^{-1/2}` of each connected component (Section 2.1), and relates it to the
//! `γ`-mixing time of the lazy random walk through Proposition 2.2
//! (`T_γ = O(log(n/γ)/λ₂)`). This module computes/estimates these quantities
//! so experiments can sweep the gap and the pipeline can derive the walk
//! length `T` it needs.

use crate::components::connected_components;
use crate::graph::Graph;

use rand::Rng;

/// Estimates the spectral gap `λ₂(L)` of a *connected* graph by power
/// iteration with deflation.
///
/// The iteration runs on `M = (I + N)/2` where `N = D^{-1/2} A D^{-1/2}`;
/// `M` is positive semi-definite with top eigenvector `D^{1/2}·1`, so after
/// projecting that direction out, power iteration converges to the second
/// largest eigenvalue `μ₂(M)` and `λ₂(L) = 2·(1 − μ₂(M))`.
///
/// For a disconnected graph this returns (an estimate of) `0`; use
/// [`component_spectral_gaps`] for per-component gaps. Isolated vertices are
/// ignored. `iterations` around `100·log n` gives two to three significant
/// digits on the families used in this workspace.
pub fn spectral_gap(g: &Graph, iterations: usize) -> f64 {
    let n = g.num_vertices();
    if n <= 1 || g.num_edges() == 0 {
        return 0.0;
    }
    // Top eigenvector of M: proportional to sqrt(deg).
    let deg: Vec<f64> = (0..n).map(|v| g.degree(v) as f64).collect();
    let mut top: Vec<f64> = deg.iter().map(|d| d.sqrt()).collect();
    normalize(&mut top);

    // Start from a deterministic-but-generic vector orthogonal to `top`.
    let mut x: Vec<f64> = (0..n)
        .map(|v| {
            if deg[v] > 0.0 {
                ((v % 7) as f64) - 3.0 + 0.1
            } else {
                0.0
            }
        })
        .collect();
    orthogonalize(&mut x, &top);
    if norm(&x) < 1e-12 {
        // Fall back to an alternating vector.
        for (v, xv) in x.iter_mut().enumerate() {
            *xv = if v % 2 == 0 { 1.0 } else { -1.0 };
        }
        orthogonalize(&mut x, &top);
    }
    normalize(&mut x);

    let mut mu = 0.0f64;
    let mut y = vec![0.0f64; n];
    for _ in 0..iterations.max(1) {
        multiply_lazy_normalized(g, &deg, &x, &mut y);
        orthogonalize(&mut y, &top);
        let ny = norm(&y);
        if ny < 1e-300 {
            // x was (numerically) in the top eigenspace only: gap is maximal.
            return 1.0;
        }
        mu = dot(&x, &y); // Rayleigh quotient since ||x|| = 1.
        for (xi, yi) in x.iter_mut().zip(y.iter()) {
            *xi = yi / ny;
        }
    }
    (2.0 * (1.0 - mu)).clamp(0.0, 2.0)
}

/// Spectral gap of every connected component (indexed by component id of
/// [`connected_components`]). Singleton components report gap `0`.
pub fn component_spectral_gaps(g: &Graph, iterations: usize) -> Vec<f64> {
    let cc = connected_components(g);
    let members = cc.component_members();
    members
        .iter()
        .map(|verts| {
            if verts.len() <= 1 {
                0.0
            } else {
                let (sub, _) = g.induced_subgraph(verts);
                spectral_gap(&sub, iterations)
            }
        })
        .collect()
}

/// The minimum spectral gap over all non-singleton connected components —
/// the `λ` that Theorem 1 takes as its promise parameter. Returns `None` if
/// the graph has no non-singleton component.
pub fn min_component_spectral_gap(g: &Graph, iterations: usize) -> Option<f64> {
    let cc = connected_components(g);
    let members = cc.component_members();
    let mut min_gap: Option<f64> = None;
    for verts in &members {
        if verts.len() <= 1 {
            continue;
        }
        let (sub, _) = g.induced_subgraph(verts);
        let gap = spectral_gap(&sub, iterations);
        min_gap = Some(match min_gap {
            None => gap,
            Some(m) => m.min(gap),
        });
    }
    min_gap
}

/// Applies `y ← M x` where `M = (I + N)/2` and `N = D^{-1/2} A D^{-1/2}`.
fn multiply_lazy_normalized(g: &Graph, deg: &[f64], x: &[f64], y: &mut [f64]) {
    for yv in y.iter_mut() {
        *yv = 0.0;
    }
    for v in g.vertices() {
        if deg[v] == 0.0 {
            continue;
        }
        let xs = x[v] / deg[v].sqrt();
        for &w in g.neighbors(v) {
            let w = w as usize;
            y[w] += xs / deg[w].sqrt();
        }
    }
    for v in g.vertices() {
        y[v] = 0.5 * (x[v] + y[v]);
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

fn normalize(a: &mut [f64]) {
    let n = norm(a);
    if n > 0.0 {
        for x in a.iter_mut() {
            *x /= n;
        }
    }
}

fn orthogonalize(a: &mut [f64], unit: &[f64]) {
    let proj = dot(a, unit);
    for (x, u) in a.iter_mut().zip(unit) {
        *x -= proj * u;
    }
}

/// Total variation distance `½ Σ |p_i − q_i|` between two distributions on
/// the same support.
///
/// # Panics
///
/// Panics if the two slices have different lengths.
pub fn total_variation_distance(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "distributions must share a support");
    0.5 * p
        .iter()
        .zip(q.iter())
        .map(|(a, b)| (a - b).abs())
        .sum::<f64>()
}

/// Exact distribution of a lazy random walk of length `t` starting from
/// `start`: `t` applications of `W̄ = (I + D^{-1}A)/2` to the indicator
/// vector of `start` (Section 2.2).
pub fn lazy_walk_distribution(g: &Graph, start: usize, t: usize) -> Vec<f64> {
    let n = g.num_vertices();
    let mut p = vec![0.0f64; n];
    p[start] = 1.0;
    let mut q = vec![0.0f64; n];
    for _ in 0..t {
        for qv in q.iter_mut() {
            *qv = 0.0;
        }
        for v in 0..n {
            if p[v] == 0.0 {
                continue;
            }
            let dv = g.degree(v);
            if dv == 0 {
                q[v] += p[v];
                continue;
            }
            q[v] += 0.5 * p[v];
            let share = 0.5 * p[v] / dv as f64;
            for &w in g.neighbors(v) {
                q[w as usize] += share;
            }
        }
        std::mem::swap(&mut p, &mut q);
    }
    p
}

/// Estimates the `γ`-mixing time `T_γ(G)` of a **connected** graph by
/// simulating the exact lazy-walk distribution from `sample_starts` random
/// start vertices and doubling `t` until all sampled starts are `γ`-close to
/// stationarity in total variation distance. Returns `None` if `max_t` is
/// reached first (e.g. the graph is disconnected and can never mix).
pub fn estimate_mixing_time<R: Rng + ?Sized>(
    g: &Graph,
    gamma: f64,
    max_t: usize,
    sample_starts: usize,
    rng: &mut R,
) -> Option<usize> {
    let n = g.num_vertices();
    if n == 0 {
        return None;
    }
    let pi = g.stationary_distribution().ok()?;
    let starts: Vec<usize> = (0..sample_starts.max(1))
        .map(|_| loop {
            let v = rng.gen_range(0..n);
            if g.degree(v) > 0 {
                break v;
            }
        })
        .collect();
    // Exponential search on t, then binary refinement.
    let mixed = |t: usize| -> bool {
        starts.iter().all(|&s| {
            let p = lazy_walk_distribution(g, s, t);
            total_variation_distance(&p, &pi) <= gamma
        })
    };
    let mut hi = 1usize;
    while hi <= max_t && !mixed(hi) {
        hi *= 2;
    }
    if hi > max_t {
        return None;
    }
    let mut lo = hi / 2; // known unmixed (or 0)
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if mixed(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

/// The mixing-time upper bound of Proposition 2.2:
/// `T_γ(G) ≤ c · log(n/γ) / λ₂`, with explicit constant `c`.
///
/// The paper's pipeline uses this bound (rather than a measured mixing time)
/// to choose the walk length `T` from the promised gap `λ`.
pub fn mixing_time_bound(lambda2: f64, n: usize, gamma: f64, constant: f64) -> usize {
    assert!(lambda2 > 0.0, "mixing time bound requires a positive gap");
    assert!(gamma > 0.0 && gamma < 1.0, "gamma must be in (0,1)");
    let t = constant * ((n.max(2) as f64) / gamma).ln() / lambda2;
    t.ceil().max(1.0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn complete_graph_gap_is_large() {
        // λ₂ of K_n's normalized Laplacian is n/(n-1) ≈ 1.
        let g = generators::complete(20);
        let gap = spectral_gap(&g, 300);
        assert!((gap - 20.0 / 19.0).abs() < 0.02, "gap = {gap}");
    }

    #[test]
    fn cycle_gap_matches_closed_form() {
        // λ₂ of the n-cycle is 1 - cos(2π/n).
        let n = 40;
        let g = generators::cycle(n);
        let expected = 1.0 - (2.0 * std::f64::consts::PI / n as f64).cos();
        let gap = spectral_gap(&g, 4000);
        assert!(
            (gap - expected).abs() < 0.2 * expected + 1e-3,
            "gap = {gap}, expected = {expected}"
        );
    }

    #[test]
    fn expander_gap_is_constant_and_path_gap_is_tiny() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let exp = generators::random_regular_permutation_graph(256, 12, &mut rng);
        let path = generators::path(256);
        let ge = spectral_gap(&exp, 300);
        let gp = spectral_gap(&path, 300);
        assert!(ge > 0.2, "expander gap {ge}");
        assert!(gp < 0.01, "path gap {gp}");
        assert!(ge > 20.0 * gp);
    }

    #[test]
    fn disconnected_graph_gap_is_zero() {
        let g = generators::disjoint_union_of(&[generators::cycle(10), generators::cycle(10)]).0;
        let gap = spectral_gap(&g, 500);
        assert!(gap < 1e-3, "gap = {gap}");
    }

    #[test]
    fn per_component_gaps_of_planted_expanders_are_constant() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let g = generators::planted_expander_components(&[100, 100, 100], 12, &mut rng);
        let gaps = component_spectral_gaps(&g, 300);
        assert_eq!(gaps.len(), 3);
        for gap in &gaps {
            assert!(*gap > 0.2, "component gap {gap}");
        }
        let min = min_component_spectral_gap(&g, 300).unwrap();
        assert!(min > 0.2);
    }

    #[test]
    fn tvd_basic_properties() {
        let p = vec![0.5, 0.5, 0.0];
        let q = vec![0.0, 0.5, 0.5];
        assert!((total_variation_distance(&p, &p)).abs() < 1e-15);
        assert!((total_variation_distance(&p, &q) - 0.5).abs() < 1e-15);
    }

    #[test]
    fn lazy_walk_distribution_is_a_distribution_and_converges() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let g = generators::random_regular_permutation_graph(64, 8, &mut rng);
        let pi = g.stationary_distribution().unwrap();
        let p = lazy_walk_distribution(&g, 0, 50);
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(total_variation_distance(&p, &pi) < 0.01);
    }

    #[test]
    fn lazy_walk_on_bipartite_graph_still_mixes() {
        // A plain (non-lazy) walk on an even cycle never mixes; the lazy walk does.
        let g = generators::cycle(8);
        let pi = g.stationary_distribution().unwrap();
        let p = lazy_walk_distribution(&g, 0, 200);
        assert!(total_variation_distance(&p, &pi) < 0.01);
    }

    #[test]
    fn estimated_mixing_time_orders_families_correctly() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let exp = generators::random_regular_permutation_graph(128, 10, &mut rng);
        let cyc = generators::cycle(128);
        let te = estimate_mixing_time(&exp, 0.1, 1 << 14, 3, &mut rng).unwrap();
        let tc = estimate_mixing_time(&cyc, 0.1, 1 << 14, 3, &mut rng).unwrap();
        assert!(te < tc, "expander mixes in {te}, cycle in {tc}");
    }

    #[test]
    fn mixing_time_of_disconnected_graph_is_none() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let g = generators::disjoint_union_of(&[generators::cycle(8), generators::cycle(8)]).0;
        assert_eq!(estimate_mixing_time(&g, 0.1, 1 << 10, 2, &mut rng), None);
    }

    #[test]
    fn mixing_time_bound_scales_inverse_with_gap() {
        let a = mixing_time_bound(0.5, 1000, 1e-10, 1.0);
        let b = mixing_time_bound(0.05, 1000, 1e-10, 1.0);
        assert!(b >= 9 * a);
    }

    #[test]
    #[should_panic(expected = "positive gap")]
    fn mixing_time_bound_rejects_zero_gap() {
        let _ = mixing_time_bound(0.0, 10, 0.1, 1.0);
    }
}
