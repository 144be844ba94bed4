//! Sort-based grouping scratch for the data plane.
//!
//! `reduce_by_key`'s combiner passes and partial merges used to funnel every
//! tuple through a per-machine `HashMap`. This module replaces that with the
//! classic cache-friendly alternative: an **8-bit LSD radix argsort** of the
//! tuple keys followed by a linear scan over equal-key runs. The sort is
//! stable, so equal keys keep their arrival order and the fold order — and
//! therefore every output — is bit-identical to the hash-based reference
//! ([`Cluster::reduce_by_key_hashmap`](crate::Cluster::reduce_by_key_hashmap)
//! retains it as the executable spec).
//!
//! All buffers live in [`RadixScratch`] / [`ShuffleScratch`] instances owned
//! by the [`MpcContext`](crate::MpcContext), so successive shuffles and
//! reductions on the same context reuse their allocations instead of paying
//! for fresh histograms, cursor tables and key caches every round.

use std::sync::Mutex;

/// Reusable buffers for one worker's radix argsorts: the cached key of every
/// element (computed once, reused by every byte pass), the index permutation
/// being built, and a pair buffer for the small-input comparison path.
#[derive(Default)]
pub(crate) struct RadixScratch {
    keys: Vec<u64>,
    order: Vec<usize>,
    tmp: Vec<usize>,
    pairs: Vec<(u64, usize)>,
}

/// Below this many elements a comparison sort of `(key, index)` pairs beats
/// the radix passes (each non-constant byte pass pays a 256-counter
/// histogram reset regardless of `n`).
const SMALL_SORT_THRESHOLD: usize = 128;

impl RadixScratch {
    /// Caches `key_of(i)` for `i in 0..n` and computes the stable ascending
    /// argsort of the keys: afterwards [`RadixScratch::order`] lists the
    /// indices in key order, equal keys in original index order.
    ///
    /// Two fast paths keep small and low-entropy inputs cheap: inputs under
    /// [`SMALL_SORT_THRESHOLD`] take an in-place comparison sort of
    /// `(key, index)` pairs (lexicographic order on distinct indices *is*
    /// the stable order), and byte positions on which every key agrees —
    /// detected upfront from the AND/OR of all keys, without building a
    /// histogram — are skipped entirely. Typical reduce keys are small
    /// integers, so usually only one or two of the eight passes run.
    pub fn argsort_by<F: FnMut(usize) -> u64>(&mut self, n: usize, mut key_of: F) {
        self.keys.clear();
        self.keys.reserve(n);
        let mut all_and = u64::MAX;
        let mut all_or = 0u64;
        for i in 0..n {
            let k = key_of(i);
            all_and &= k;
            all_or |= k;
            self.keys.push(k);
        }
        self.order.clear();
        if n <= SMALL_SORT_THRESHOLD {
            self.pairs.clear();
            self.pairs.extend(self.keys.iter().copied().zip(0..n));
            self.pairs.sort_unstable();
            self.order.extend(self.pairs.iter().map(|&(_, i)| i));
            return;
        }
        self.order.extend(0..n);
        self.tmp.clear();
        self.tmp.resize(n, 0);
        // `all_and`/`all_or` agree on a byte exactly when every key carries
        // the same value there — such passes cannot reorder anything.
        let varying = all_and ^ all_or;
        for pass in 0..8u32 {
            let shift = pass * 8;
            if (varying >> shift) & 0xFF == 0 {
                continue;
            }
            let mut hist = [0usize; 256];
            for &i in &self.order {
                hist[((self.keys[i] >> shift) & 0xFF) as usize] += 1;
            }
            let mut sum = 0usize;
            for h in hist.iter_mut() {
                let count = *h;
                *h = sum;
                sum += count;
            }
            for &i in &self.order {
                let b = ((self.keys[i] >> shift) & 0xFF) as usize;
                self.tmp[hist[b]] = i;
                hist[b] += 1;
            }
            std::mem::swap(&mut self.order, &mut self.tmp);
        }
    }

    /// The index permutation produced by the last [`RadixScratch::argsort_by`].
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// The key at sorted position `j` (i.e. `keys[order[j]]`).
    pub fn sorted_key(&self, j: usize) -> u64 {
        self.keys[self.order[j]]
    }
}

/// Sorts `keys` ascending in place with the same 8-bit LSD strategy as
/// [`RadixScratch::argsort_by`]: byte positions on which every key agrees
/// (found from one AND/OR sweep) are skipped, so keys packed from small
/// integers — the compact `(part_a << 32) | part_b` edge encoding of the
/// contraction paths — pay only for the bytes that actually vary. `scratch`
/// is the ping-pong buffer; callers that sort repeatedly should reuse it.
///
/// For `u64` keys LSD radix and `sort_unstable` produce the same sequence
/// (a total order leaves nothing for stability to distinguish), so this is a
/// drop-in, bit-identical replacement for `Vec::sort_unstable` — small
/// inputs simply take that comparison path directly.
pub fn radix_sort_u64(keys: &mut Vec<u64>, scratch: &mut Vec<u64>) {
    let n = keys.len();
    if n < 4 * SMALL_SORT_THRESHOLD {
        keys.sort_unstable();
        return;
    }
    let mut all_and = u64::MAX;
    let mut all_or = 0u64;
    for &k in keys.iter() {
        all_and &= k;
        all_or |= k;
    }
    let varying = all_and ^ all_or;
    if varying == 0 {
        return;
    }
    scratch.clear();
    scratch.resize(n, 0);
    let mut in_keys = true;
    for pass in 0..8u32 {
        let shift = pass * 8;
        if (varying >> shift) & 0xFF == 0 {
            continue;
        }
        let (src, dst): (&[u64], &mut [u64]) = if in_keys {
            (keys, scratch)
        } else {
            (scratch, keys)
        };
        let mut hist = [0usize; 256];
        for &k in src {
            hist[((k >> shift) & 0xFF) as usize] += 1;
        }
        let mut sum = 0usize;
        for h in hist.iter_mut() {
            let count = *h;
            *h = sum;
            sum += count;
        }
        for &k in src {
            let b = ((k >> shift) & 0xFF) as usize;
            dst[hist[b]] = k;
            hist[b] += 1;
        }
        in_keys = !in_keys;
    }
    if !in_keys {
        std::mem::swap(keys, scratch);
    }
}

/// The per-context scratch pool reused across successive `shuffle_by_key` /
/// `reduce_by_key` calls: tuple destinations, per-worker destination
/// histograms and write-cursor tables (both worker-major, stride = number of
/// machines), and one [`RadixScratch`] per worker (behind uncontended
/// mutexes, since each worker only ever locks its own slot).
///
/// Semantically transparent: the buffers carry no state between calls beyond
/// their capacity, so `Clone` deliberately produces a cold (empty) scratch —
/// cloned contexts stay cheap — and `Debug` prints only capacities.
#[derive(Default)]
pub(crate) struct ShuffleScratch {
    /// Destination machine of every tuple (counting pass → scatter pass, so
    /// the scatter never recomputes `key(t)`).
    pub(crate) dests: Vec<usize>,
    /// Per-worker destination histograms, worker-major.
    pub(crate) histograms: Vec<usize>,
    /// Per-worker exclusive-prefix-sum write cursors, worker-major.
    pub(crate) cursors: Vec<usize>,
    /// Per-worker radix scratch for sort-based reductions.
    pub(crate) radix: Vec<Mutex<RadixScratch>>,
}

impl ShuffleScratch {
    /// Ensures at least `workers` radix slots exist and returns the pool.
    /// Worker `w` locks slot `w` (never another), so the mutexes are
    /// uncontended and exist only to satisfy the `Fn` fan-out closures.
    pub(crate) fn radix_pool(&mut self, workers: usize) -> &[Mutex<RadixScratch>] {
        if self.radix.len() < workers {
            self.radix.resize_with(workers, Default::default);
        }
        &self.radix[..workers]
    }
}

impl Clone for ShuffleScratch {
    fn clone(&self) -> Self {
        ShuffleScratch::default()
    }
}

impl std::fmt::Debug for ShuffleScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShuffleScratch")
            .field("dests_capacity", &self.dests.capacity())
            .field("histograms_capacity", &self.histograms.capacity())
            .field("cursors_capacity", &self.cursors.capacity())
            .field("radix_workers", &self.radix.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argsort_is_stable_and_ascending() {
        let keys = [5u64, 1, 5, 0, 1 << 40, 1, 5];
        let mut scratch = RadixScratch::default();
        scratch.argsort_by(keys.len(), |i| keys[i]);
        // Ascending by key; ties in original index order.
        assert_eq!(scratch.order(), &[3, 1, 5, 0, 2, 6, 4]);
        for j in 0..keys.len() {
            assert_eq!(scratch.sorted_key(j), keys[scratch.order()[j]]);
        }
    }

    #[test]
    fn argsort_matches_std_stable_sort_on_adversarial_keys() {
        // Keys touching every byte, with duplicates.
        let keys: Vec<u64> = (0..2000u64)
            .map(|i| {
                i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .rotate_left((i % 64) as u32)
                    % 777
            })
            .collect();
        let mut scratch = RadixScratch::default();
        scratch.argsort_by(keys.len(), |i| keys[i]);
        let mut expected: Vec<usize> = (0..keys.len()).collect();
        expected.sort_by_key(|&i| keys[i]); // std stable sort = the spec
        assert_eq!(scratch.order(), &expected[..]);
    }

    #[test]
    fn comparison_and_radix_paths_agree_around_the_threshold() {
        for n in [
            SMALL_SORT_THRESHOLD - 1,
            SMALL_SORT_THRESHOLD,
            SMALL_SORT_THRESHOLD + 1,
            400,
        ] {
            let keys: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(97) % 53).collect();
            let mut scratch = RadixScratch::default();
            scratch.argsort_by(n, |i| keys[i]);
            let mut expected: Vec<usize> = (0..n).collect();
            expected.sort_by_key(|&i| keys[i]);
            assert_eq!(scratch.order(), &expected[..], "n={n}");
        }
    }

    #[test]
    fn scratch_reuse_across_calls_is_clean() {
        let mut scratch = RadixScratch::default();
        scratch.argsort_by(5, |i| (5 - i) as u64);
        assert_eq!(scratch.order(), &[4, 3, 2, 1, 0]);
        scratch.argsort_by(3, |i| i as u64);
        assert_eq!(scratch.order(), &[0, 1, 2]);
        scratch.argsort_by(0, |_| 0);
        assert!(scratch.order().is_empty());
    }

    #[test]
    fn radix_sort_u64_matches_sort_unstable() {
        for n in [
            0usize,
            1,
            7,
            4 * SMALL_SORT_THRESHOLD - 1,
            4 * SMALL_SORT_THRESHOLD,
            5000,
        ] {
            let mut keys: Vec<u64> = (0..n as u64)
                .map(|i| {
                    // Packed-edge-shaped keys: two small halves, with dups.
                    let a = i.wrapping_mul(0x9E37_79B9) % 300;
                    let b = i.wrapping_mul(0x85EB_CA6B) % 300;
                    (a.min(b) << 32) | a.max(b)
                })
                .collect();
            let mut expected = keys.clone();
            expected.sort_unstable();
            let mut scratch = Vec::new();
            radix_sort_u64(&mut keys, &mut scratch);
            assert_eq!(keys, expected, "n={n}");
        }
    }

    #[test]
    fn radix_sort_u64_handles_constant_and_full_width_keys() {
        let mut constant = vec![42u64; 4 * SMALL_SORT_THRESHOLD + 3];
        let mut scratch = Vec::new();
        radix_sort_u64(&mut constant, &mut scratch);
        assert!(constant.iter().all(|&k| k == 42));

        let mut wide: Vec<u64> = (0..3000u64)
            .map(|i| {
                i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .rotate_left((i % 64) as u32)
            })
            .collect();
        let mut expected = wide.clone();
        expected.sort_unstable();
        radix_sort_u64(&mut wide, &mut scratch);
        assert_eq!(wide, expected);
        // Scratch is reusable across calls.
        let mut again: Vec<u64> = (0..2000u64).rev().collect();
        radix_sort_u64(&mut again, &mut scratch);
        assert!(again.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn shuffle_scratch_clone_is_cold() {
        let mut s = ShuffleScratch::default();
        s.dests.extend([1, 2, 3]);
        let _ = s.radix_pool(4);
        let c = s.clone();
        assert!(c.dests.is_empty());
        assert!(c.radix.is_empty());
        assert!(format!("{s:?}").contains("radix_workers"));
    }
}
