//! Concentration helpers and the balls-and-bins experiment
//! (Appendices A and B).
//!
//! The analysis of the leader-election phases repeatedly uses the Chernoff
//! bound (Proposition A.1), the method of bounded differences
//! (Proposition A.2) and the balls-and-bins count of non-empty bins
//! (Proposition B.1, used in Claim 6.9 to show contraction degrees stay
//! concentrated). Experiment E11 re-checks the balls-and-bins count
//! numerically with the helpers here; the Chernoff bound is a test-only
//! reference.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// The Chernoff upper bound of Proposition A.1: for a sum of independent
/// `[0,1]` variables with mean `mu`, `Pr[|X − mu| ≥ eps·mu] ≤ 2·exp(−eps²·mu/2)`.
#[cfg(test)]
fn chernoff_bound(mu: f64, eps: f64) -> f64 {
    if mu <= 0.0 || eps <= 0.0 {
        return 1.0;
    }
    (2.0 * (-eps * eps * mu / 2.0).exp()).min(1.0)
}

/// Outcome of one balls-and-bins experiment (Proposition B.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BallsAndBins {
    /// Number of balls thrown.
    pub balls: usize,
    /// Number of bins.
    pub bins: usize,
    /// Number of non-empty bins after all throws.
    pub non_empty: usize,
}

/// Throws `balls` balls into `bins` bins, each bin chosen with probability
/// within `(1 ± skew)/bins` (the "almost uniform" setting of Proposition
/// B.1), and reports the number of non-empty bins.
///
/// # Panics
///
/// Panics if `bins == 0` or `skew` is not in `[0, 1)`.
pub fn balls_and_bins<R: Rng + ?Sized>(
    balls: usize,
    bins: usize,
    skew: f64,
    rng: &mut R,
) -> BallsAndBins {
    assert!(bins > 0, "need at least one bin");
    assert!((0.0..1.0).contains(&skew), "skew must be in [0,1)");
    // Build an (un-normalised) weight per bin inside the allowed band.
    let weights: Vec<f64> = (0..bins)
        .map(|_| 1.0 + skew * (2.0 * rng.gen::<f64>() - 1.0))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut cumulative = Vec::with_capacity(bins);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cumulative.push(acc);
    }
    let mut occupied = vec![false; bins];
    for _ in 0..balls {
        let r: f64 = rng.gen();
        let idx = cumulative.partition_point(|&c| c < r).min(bins - 1);
        occupied[idx] = true;
    }
    BallsAndBins {
        balls,
        bins,
        non_empty: occupied.iter().filter(|&&o| o).count(),
    }
}

/// The Proposition B.1 prediction: when `balls ≤ eps·bins`, the number of
/// non-empty bins lies in `(1 ± 2 eps)·balls` except with probability
/// `exp(−eps²·balls/2)`.
pub fn balls_and_bins_prediction(balls: usize, eps: f64) -> (f64, f64, f64) {
    let lo = (1.0 - 2.0 * eps) * balls as f64;
    let hi = (1.0 + 2.0 * eps) * balls as f64;
    let failure = (-eps * eps * balls as f64 / 2.0).exp();
    (lo, hi, failure)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn chernoff_bound_is_monotone_and_bounded() {
        assert!(chernoff_bound(10_000.0, 0.1) < chernoff_bound(1_000.0, 0.1));
        assert!(chernoff_bound(100.0, 0.9) < chernoff_bound(100.0, 0.3));
        assert!(chernoff_bound(0.0, 0.1) <= 1.0);
        assert!(chernoff_bound(1e9, 0.5) < 1e-12);
    }

    #[test]
    fn empirical_chernoff_failure_rate_is_below_the_bound() {
        // Sum of 400 fair coins, eps = 0.25: bound = 2 exp(-0.25^2*200/2) ≈ 0.0038.
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let trials = 2000;
        let n = 400;
        let eps = 0.25;
        let mu = n as f64 * 0.5;
        let mut failures = 0;
        for _ in 0..trials {
            let x: usize = (0..n).filter(|_| rng.gen_bool(0.5)).count();
            if (x as f64 - mu).abs() >= eps * mu {
                failures += 1;
            }
        }
        let empirical = failures as f64 / trials as f64;
        assert!(empirical <= chernoff_bound(mu, eps) + 0.01);
    }

    #[test]
    fn balls_and_bins_matches_proposition_b1() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let bins = 100_000;
        let eps = 0.05;
        let balls = (eps * bins as f64) as usize; // N = eps*B
        let outcome = balls_and_bins(balls, bins, eps, &mut rng);
        let (lo, hi, _) = balls_and_bins_prediction(balls, eps);
        assert!(
            (outcome.non_empty as f64) >= lo && (outcome.non_empty as f64) <= hi,
            "non-empty bins {} outside [{lo}, {hi}]",
            outcome.non_empty
        );
    }

    #[test]
    fn balls_and_bins_with_few_bins_saturates() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let outcome = balls_and_bins(10_000, 8, 0.0, &mut rng);
        assert_eq!(outcome.non_empty, 8);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_panics() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let _ = balls_and_bins(10, 0, 0.0, &mut rng);
    }
}
