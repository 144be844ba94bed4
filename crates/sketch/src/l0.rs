//! ℓ0-sampling: return (some) non-zero coordinate of a dynamically updated
//! vector using polylogarithmic space.
//!
//! The sampler keeps one [`OneSparseRecovery`] per geometric level
//! `j = 0, …, L`. A pairwise-independent hash assigns every coordinate a
//! level `ℓ(i)` with `Pr[ℓ(i) ≥ j] = 2^{-j}`; level `j` receives exactly the
//! updates of coordinates with `ℓ(i) ≥ j`. If the vector has `k` non-zero
//! coordinates then the level with `2^j ≈ k` contains exactly one of them
//! with constant probability, and its one-sparse recovery succeeds. Sampling
//! fails (returns `None`) with constant probability; callers that need high
//! success probability keep `O(log n)` independent samplers (as
//! [`ConnectivitySketch`](crate::ConnectivitySketch) does).
//!
//! The structure is linear: two samplers built with the same seed can be
//! merged coordinate-wise, which is exactly what sketch-space Borůvka needs.

use crate::one_sparse::{OneSparseRecovery, RecoveryOutcome, FINGERPRINT_PRIME};

/// Number of geometric sub-sampling levels (supports universes up to `2^60`).
pub(crate) const NUM_LEVELS: usize = 61;

/// An ℓ0-sampler over a vector indexed by `u64` coordinates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct L0Sampler {
    levels: Vec<OneSparseRecovery>,
    /// Seed of the level-assignment hash; two samplers can only be merged if
    /// they agree on it.
    seed: u64,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// A SplitMix64 stream for this crate's seeded test schedules.
#[cfg(test)]
pub(crate) fn next_u64(state: &mut u64) -> u64 {
    let out = splitmix64(*state);
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    out
}

/// The fingerprint evaluation point a sampler seeded with `seed` uses on all
/// of its levels, uniform in `[1, p − 1)`.
pub(crate) fn fingerprint_point(seed: u64) -> u64 {
    splitmix64(seed ^ 0xA5A5_A5A5_A5A5_A5A5) % (FINGERPRINT_PRIME - 2) + 1
}

/// The level of coordinate `index` under `seed`: geometric with ratio 1/2.
/// The coordinate participates in levels `0..=level`.
pub(crate) fn level_of(seed: u64, index: u64) -> usize {
    let h = splitmix64(index ^ seed);
    (h.trailing_ones() as usize).min(NUM_LEVELS - 1)
}

impl L0Sampler {
    /// Creates an empty sampler whose level hash and fingerprints are derived
    /// deterministically from `seed`.
    pub fn new(seed: u64) -> Self {
        let z = fingerprint_point(seed);
        L0Sampler {
            levels: (0..NUM_LEVELS).map(|_| OneSparseRecovery::new(z)).collect(),
            seed,
        }
    }

    /// Applies the update `vector[index] += delta`.
    pub fn update(&mut self, index: u64, delta: i64) {
        for level in &mut self.levels[..=level_of(self.seed, index)] {
            level.update(index, delta);
        }
    }

    /// Adds another sampler (vector addition).
    ///
    /// # Panics
    ///
    /// Panics if the samplers were created with different seeds.
    pub fn merge(&mut self, other: &L0Sampler) {
        assert_eq!(
            self.seed, other.seed,
            "cannot merge samplers with different seeds"
        );
        for (a, b) in self.levels.iter_mut().zip(other.levels.iter()) {
            a.merge(b);
        }
    }

    /// Attempts to return a non-zero coordinate of the sketched vector.
    ///
    /// Returns `Some((index, weight))` if some level recovers a 1-sparse
    /// vector, `None` if the vector appears to be zero or sampling failed at
    /// every level.
    pub fn sample(&self) -> Option<(u64, i64)> {
        // Levels are scanned from 0 (every coordinate) towards the sparser
        // sub-samples and the first success wins: a support of size one is
        // recovered at level 0, larger supports at the first level that
        // happens to isolate a coordinate. Any success is a true non-zero, so
        // the order affects only which one is returned — and every consumer
        // (sketch-space Borůvka, the flat kernel) is pinned to this order.
        for level in self.levels.iter() {
            if let RecoveryOutcome::OneSparse { index, weight } = level.recover() {
                return Some((index, weight));
            }
        }
        None
    }

    /// Returns `true` if the sketched vector is verifiably the zero vector.
    ///
    /// Only level 0 is tested, and that suffices: level 0 receives every
    /// update (each coordinate participates in levels `0..=ℓ(i)`), so it
    /// sketches the whole vector, and the higher levels sketch restrictions
    /// of it — if the vector is zero, all of them are. A false "zero" needs
    /// a non-zero vector whose `w`, `iw` and fingerprint all vanish.
    pub fn is_zero(&self) -> bool {
        matches!(self.levels[0].recover(), RecoveryOutcome::Zero)
    }

    /// The raw measurements of one level, for the flat kernel's differential
    /// test.
    #[cfg(test)]
    pub(crate) fn cell(&self, level: usize) -> crate::one_sparse::Cell {
        self.levels[level].cell()
    }

    /// Seed used for level assignment.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of machine words this sampler occupies.
    pub fn size_in_words(&self) -> usize {
        1 + self.levels.iter().map(|l| l.size_in_words()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn empty_sampler_is_zero_and_samples_none() {
        let s = L0Sampler::new(1);
        assert!(s.is_zero());
        assert_eq!(s.sample(), None);
    }

    #[test]
    fn single_coordinate_is_always_recovered() {
        for seed in 0..20 {
            let mut s = L0Sampler::new(seed);
            s.update(seed * 1000 + 3, 5);
            assert_eq!(s.sample(), Some((seed * 1000 + 3, 5)));
        }
    }

    #[test]
    fn sampled_coordinate_is_a_true_nonzero() {
        let coords: Vec<u64> = (0..200).map(|i| i * 17 + 1).collect();
        let coord_set: HashSet<u64> = coords.iter().copied().collect();
        let mut successes = 0;
        for seed in 0..50 {
            let mut s = L0Sampler::new(seed);
            for &c in &coords {
                s.update(c, 1);
            }
            if let Some((idx, w)) = s.sample() {
                successes += 1;
                assert!(
                    coord_set.contains(&idx),
                    "sampled a phantom coordinate {idx}"
                );
                assert_eq!(w, 1);
            }
        }
        // Success probability is constant; 50 trials virtually never all fail.
        assert!(successes > 25, "only {successes}/50 samples succeeded");
    }

    #[test]
    fn deletions_remove_coordinates_from_sampling() {
        let mut s = L0Sampler::new(99);
        for c in 0..100u64 {
            s.update(c, 1);
        }
        for c in 0..99u64 {
            s.update(c, -1);
        }
        // Only coordinate 99 is left.
        assert_eq!(s.sample(), Some((99, 1)));
        s.update(99, -1);
        assert!(s.is_zero());
    }

    #[test]
    fn merge_acts_like_updating_one_sampler() {
        let mut a = L0Sampler::new(7);
        let mut b = L0Sampler::new(7);
        let mut c = L0Sampler::new(7);
        for i in 0..50u64 {
            a.update(i, 1);
            c.update(i, 1);
        }
        for i in 25..75u64 {
            b.update(i, -1);
            c.update(i, -1);
        }
        a.merge(&b);
        assert_eq!(a.sample(), c.sample());
    }

    #[test]
    fn different_seeds_give_different_level_assignments() {
        // Statistical smoke test: with different seeds the samplers should not
        // behave identically on a fixed adversarial input.
        let mut distinct = HashSet::new();
        for seed in 0..10 {
            let mut s = L0Sampler::new(seed);
            for i in 0..500u64 {
                s.update(i, 1);
            }
            distinct.insert(s.sample());
        }
        assert!(distinct.len() > 1);
    }

    #[test]
    #[should_panic(expected = "different seeds")]
    fn merging_different_seeds_panics() {
        let mut a = L0Sampler::new(1);
        let b = L0Sampler::new(2);
        a.merge(&b);
    }

    #[test]
    fn size_in_words_is_polylog() {
        let s = L0Sampler::new(0);
        assert!(s.size_in_words() < 400);
    }
}
