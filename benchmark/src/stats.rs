//! Exact order statistics over raw samples (never bucketed histograms).

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples` by linear interpolation
/// between the two nearest order statistics. Sorts a copy.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The smallest sample: the reading of the least disturbed repetition. Each
/// repetition of a seeded workload does identical work, and on a shared host
/// interference only ever adds time, so the fastest repetition is the closest
/// to what the code costs. On the reference host it repeats within 2 % where
/// the median of the same repetitions moves by 11 % (README.md).
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn fastest(samples: &[f64]) -> f64 {
    samples
        .iter()
        .copied()
        .min_by(f64::total_cmp)
        .expect("fastest of no samples")
}

/// First quartile, median and third quartile by the exclusive method of
/// Python's `statistics.quantiles(values, n=4)` — the rule the acceptance
/// procedure for this benchmark uses, so `compare` reads the same spread.
/// With fewer than two samples all three are the single sample.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        return [sorted[0]; 3];
    }
    let cut = |i: usize| {
        let pos = (i * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    [cut(1), cut(2), cut(3)]
}

/// Converts raw nanosecond samples to `f64` in the given unit divisor
/// (`1e3` for µs, `1e6` for ms).
pub fn ns_to(samples: &[u32], divisor: f64) -> Vec<f64> {
    samples.iter().map(|&ns| ns as f64 / divisor).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.0), 5.0);
    }
}
