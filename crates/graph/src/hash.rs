//! The one hasher of every hot map keyed by a vertex id, a part or label id,
//! or an endpoint pair.
//!
//! `std`'s default `RandomState` hashes with SipHash-1-3, a keyed PRF that
//! costs tens of nanoseconds per key. The streaming engine probes such maps
//! three times per insert (two interner lookups and the live pair), so that
//! cost dominated its fast path. [`IdHasher`] instead mixes each 64-bit word
//! into its state with one 64×64→128-bit multiply whose two halves are
//! XOR-folded together:
//!
//! * **Folded, not truncated.** hashbrown picks a key's bucket from the
//!   hash's *low* bits. The low half of a product `x·K` depends only on the
//!   low bits of `x`, so an Fx-style `x·K` sends ids that are multiples of
//!   2³² (shard-packed raw ids) into a single bucket chain. Folding the high
//!   half in makes every output bit depend on every input bit.
//! * **Keyed per map.** [`IdBuildHasher::default`] draws a fresh 64-bit key
//!   from `std`'s per-process random keys each time, so two maps never share
//!   a hash function. That avoids the quadratic slowdown of inserting one
//!   map's iteration order into another map that hashes the same way. A
//!   clone keeps its source's key, so `clone_from` between maps of one
//!   lineage stays a table copy.
//! * **Not a PRF.** The keys are as random per process as `RandomState`'s,
//!   so an input producer cannot precompute colliding ids offline, but a
//!   folded multiply is not SipHash: it makes no cryptographic promise
//!   against an adversary that can observe timings and adapt.
//!
//! Nothing computed through these maps depends on their iteration order
//! (that order was already random per process under `RandomState`).
//!
//! ```
//! use wcc_graph::IdMap;
//!
//! let mut interner: IdMap<u64, u32> = IdMap::default();
//! interner.insert(1 << 40, 0);
//! assert_eq!(interner.get(&(1 << 40)), Some(&0));
//! ```

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

/// A `HashMap` hashed by [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, IdBuildHasher>;

/// A `HashSet` hashed by [`IdHasher`].
pub type IdSet<K> = HashSet<K, IdBuildHasher>;

/// The odd multiplier of every round: ⌊2⁶⁴/φ⌋ rounded to odd.
const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// The 128-bit product of `a` and `b`, its high half XOR-ed into its low.
#[inline]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let full = u128::from(a) * u128::from(b);
    (full as u64) ^ ((full >> 64) as u64)
}

/// One folded multiply per 64-bit word (see the module docs). Built by
/// [`IdBuildHasher`], which seeds its state with the map's key.
#[derive(Debug, Clone, Copy)]
pub struct IdHasher {
    state: u64,
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u16(&mut self, x: u16) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.state = folded_multiply(self.state ^ x, MULTIPLIER);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

/// Builds [`IdHasher`]s seeded with one 64-bit key, drawn per map by
/// [`Default`] (see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct IdBuildHasher {
    key: u64,
}

impl Default for IdBuildHasher {
    /// A fresh key: `std`'s per-process random keys, advanced on every call.
    fn default() -> Self {
        IdBuildHasher {
            key: RandomState::new().hash_one(MULTIPLIER),
        }
    }
}

impl BuildHasher for IdBuildHasher {
    type Hasher = IdHasher;

    #[inline]
    fn build_hasher(&self) -> IdHasher {
        IdHasher { state: self.key }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BUCKETS: u64 = 1 << 12;
    const KEYS: u64 = 1 << 16;

    /// The fullest of `BUCKETS` buckets when `keys` are placed by their
    /// hash's low bits, as hashbrown places them.
    fn fullest_bucket<T: std::hash::Hash>(
        build: &impl BuildHasher,
        keys: impl Iterator<Item = T>,
    ) -> u64 {
        let mut load = vec![0u64; BUCKETS as usize];
        for key in keys {
            load[(build.hash_one(key) & (BUCKETS - 1)) as usize] += 1;
        }
        load.into_iter().max().unwrap_or(0)
    }

    /// Every key shape the engine and the benchmark produce, each loaded
    /// under a fresh key: no bucket may hold more than 4× the mean.
    fn assert_spreads_every_shape<B: BuildHasher>(fresh: impl Fn() -> B) {
        let bound = 4 * KEYS / BUCKETS;
        let side = 1u32 << 8;
        let shapes: [(&str, u64); 4] = [
            ("dense ids", fullest_bucket(&fresh(), 0..KEYS)),
            (
                "2^40 + k arrivals",
                fullest_bucket(&fresh(), (0..KEYS).map(|k| (1 << 40) + k)),
            ),
            (
                "k * 2^32",
                fullest_bucket(&fresh(), (0..KEYS).map(|k| k << 32)),
            ),
            (
                "grid pairs",
                fullest_bucket(
                    &fresh(),
                    (0..side).flat_map(|u| (0..side).map(move |v| (u, v))),
                ),
            ),
        ];
        for (shape, fullest) in shapes {
            assert!(
                fullest <= bound,
                "{shape}: a bucket holds {fullest} keys (bound {bound})"
            );
        }
    }

    #[test]
    fn folded_multiply_spreads_every_key_shape_over_the_low_bits() {
        assert_spreads_every_shape(IdBuildHasher::default);
    }

    #[test]
    fn two_maps_hash_one_key_differently() {
        let (a, b) = (IdBuildHasher::default(), IdBuildHasher::default());
        assert_ne!(a.hash_one(42u64), b.hash_one(42u64));
        assert_eq!(a.hash_one(42u64), a.clone().hash_one(42u64));
    }

    /// `rustc-hash`'s Fx round, `(rotl(h, 5) ^ x) · K`, with no fold.
    #[derive(Default)]
    struct FxStyle(u64);

    impl Hasher for FxStyle {
        fn write(&mut self, _: &[u8]) {
            unimplemented!("only integer keys are hashed here")
        }
        fn write_u32(&mut self, x: u32) {
            self.write_u64(u64::from(x));
        }
        fn write_u64(&mut self, x: u64) {
            self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(MULTIPLIER);
        }
        fn finish(&self) -> u64 {
            self.0
        }
    }

    #[test]
    #[should_panic(expected = "k * 2^32")]
    fn the_spread_check_catches_an_unfolded_multiply() {
        assert_spreads_every_shape(std::hash::BuildHasherDefault::<FxStyle>::default);
    }

    #[test]
    fn maps_and_sets_behave_as_std_ones() {
        let mut pairs: IdMap<(u32, u32), i64> = IdMap::default();
        *pairs.entry((7, 8)).or_insert(0) -= 1;
        *pairs.entry((7, 8)).or_insert(0) -= 1;
        assert_eq!(pairs[&(7, 8)], -2);
        let mut copy: IdMap<(u32, u32), i64> = IdMap::default();
        copy.clone_from(&pairs);
        assert_eq!(copy, pairs);
        let ids: IdSet<u64> = [3, 1 << 32, 3].into_iter().collect();
        assert_eq!(ids.len(), 2);
        // Byte keys go through `write`, a word at a time plus a padded tail.
        let names: IdSet<&str> = ["ten bytes!", "ten bytes?", "x"].into_iter().collect();
        assert_eq!(names.len(), 3);
        assert!(names.contains("ten bytes?"));
    }
}
