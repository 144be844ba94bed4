//! Exact recovery of 1-sparse vectors with a fingerprint test.
//!
//! A *1-sparse* vector has exactly one non-zero coordinate. The classic
//! recovery structure keeps three linear measurements of the stream of
//! updates `(index, delta)`:
//!
//! * `w  = Σ delta`                      (total weight),
//! * `iw = Σ index · delta`              (index-weighted sum),
//! * `f  = Σ delta · z^index  (mod p)`   (a polynomial fingerprint at a
//!   random evaluation point `z`),
//!
//! all of which are linear in the vector, so two structures can be added
//! coordinate-wise. If the vector is 1-sparse with support `{i}` and weight
//! `w`, then `iw / w = i` and the fingerprint equals `w · z^i`; a vector that
//! is *not* 1-sparse passes this test with probability at most
//! `(max index)/p` over the choice of `z` (Schwartz–Zippel on a degree-
//! `max index` polynomial).

/// The Mersenne prime `2^61 - 1` used as the fingerprint field.
pub const FINGERPRINT_PRIME: u64 = (1 << 61) - 1;

/// Message words charged per recovery structure: `w`, `iw`, `f` and `z`.
pub(crate) const WORDS_PER_CELL: usize = 4;

/// Reduces any 128-bit value into `[0, p)`. Since `2^61 ≡ 1 (mod p)` the
/// high bits fold onto the low 61 by addition: two folds bring a `u128`
/// below `2^61 + 2^7`, and one conditional subtraction makes it canonical.
fn mod_p(x: u128) -> u64 {
    let folded = (x & FINGERPRINT_PRIME as u128) + (x >> 61);
    let s = (folded as u64 & FINGERPRINT_PRIME) + (folded >> 61) as u64;
    if s >= FINGERPRINT_PRIME {
        s - FINGERPRINT_PRIME
    } else {
        s
    }
}

/// `a · b mod p` (any `u64` operands, canonical result).
pub(crate) fn mul_mod(a: u64, b: u64) -> u64 {
    mod_p(a as u128 * b as u128)
}

/// `a + b mod p` for canonical operands (`a, b < p`).
pub(crate) fn add_mod(a: u64, b: u64) -> u64 {
    debug_assert!(a < FINGERPRINT_PRIME && b < FINGERPRINT_PRIME);
    let s = a + b;
    if s >= FINGERPRINT_PRIME {
        s - FINGERPRINT_PRIME
    } else {
        s
    }
}

/// `−a mod p` for a canonical operand.
pub(crate) fn neg_mod(a: u64) -> u64 {
    debug_assert!(a < FINGERPRINT_PRIME);
    if a == 0 {
        0
    } else {
        FINGERPRINT_PRIME - a
    }
}

/// The field element of a signed update weight.
pub(crate) fn delta_mod(delta: i64) -> u64 {
    delta.rem_euclid(FINGERPRINT_PRIME as i64) as u64
}

/// `base^exp mod p` by square-and-multiply: what the standalone
/// [`OneSparseRecovery`] pays per update, and the reference the windowed
/// tables of the flat kernel are tested against.
pub(crate) fn pow_mod(base: u64, mut exp: u64) -> u64 {
    let mut acc = 1u64;
    let mut base = mod_p(base as u128);
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base);
        }
        base = mul_mod(base, base);
        exp >>= 1;
    }
    acc
}

/// Result of attempting to recover the sketched vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryOutcome {
    /// The sketched vector is (verifiably) the zero vector.
    Zero,
    /// The sketched vector is 1-sparse: coordinate `index` holds `weight`.
    OneSparse {
        /// The unique non-zero coordinate.
        index: u64,
        /// Its (signed) value.
        weight: i64,
    },
    /// The sketched vector has two or more non-zero coordinates (or the
    /// fingerprint test failed).
    NotOneSparse,
}

/// The three linear measurements `(w, iw, f)` of one recovery structure,
/// without the evaluation point: the flat kernel stores these contiguously
/// and keeps `z` once per phase in its key block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Cell {
    pub(crate) w: i64,
    pub(crate) iw: i128,
    pub(crate) f: u64,
}

impl Cell {
    pub(crate) const ZERO: Cell = Cell { w: 0, iw: 0, f: 0 };

    /// Adds the measurements of `vector[index] += delta`, where `iw` is
    /// `index · delta` and `term` is `delta · z^index mod p`.
    pub(crate) fn add_update(&mut self, delta: i64, iw: i128, term: u64) {
        self.w += delta;
        self.iw += iw;
        self.f = add_mod(self.f, term);
    }

    /// Adds another cell over the same evaluation point (vector addition).
    pub(crate) fn add(&mut self, other: &Cell) {
        self.add_update(other.w, other.iw, other.f);
    }

    pub(crate) fn is_zero(&self) -> bool {
        *self == Cell::ZERO
    }

    /// Attempts to recover the sketched vector; `pow_z(i)` must return
    /// `z^i mod p` for the evaluation point the cell was updated under.
    pub(crate) fn recover(&self, pow_z: impl FnOnce(u64) -> u64) -> RecoveryOutcome {
        if self.is_zero() {
            return RecoveryOutcome::Zero;
        }
        if self.w == 0 {
            return RecoveryOutcome::NotOneSparse;
        }
        if self.iw % self.w as i128 != 0 {
            return RecoveryOutcome::NotOneSparse;
        }
        let index = self.iw / self.w as i128;
        if index < 0 || index > u64::MAX as i128 {
            return RecoveryOutcome::NotOneSparse;
        }
        let index = index as u64;
        if mul_mod(delta_mod(self.w), pow_z(index)) != self.f {
            return RecoveryOutcome::NotOneSparse;
        }
        RecoveryOutcome::OneSparse {
            index,
            weight: self.w,
        }
    }
}

/// A linear sketch that exactly recovers 1-sparse vectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OneSparseRecovery {
    cell: Cell,
    /// Random evaluation point of the fingerprint polynomial; two structures
    /// may only be merged if they share it.
    z: u64,
}

impl OneSparseRecovery {
    /// Creates an empty structure with fingerprint evaluation point `z`
    /// (callers should draw `z` uniformly from `[1, p)`; see
    /// [`L0Sampler`](crate::L0Sampler) for how this is seeded).
    pub fn new(z: u64) -> Self {
        OneSparseRecovery {
            cell: Cell::ZERO,
            z: z % FINGERPRINT_PRIME,
        }
    }

    /// Applies the update `vector[index] += delta`.
    pub fn update(&mut self, index: u64, delta: i64) {
        let term = mul_mod(delta_mod(delta), pow_mod(self.z, index));
        self.cell
            .add_update(delta, index as i128 * delta as i128, term);
    }

    /// Adds another structure (vector addition). Both must share the same
    /// fingerprint point.
    ///
    /// # Panics
    ///
    /// Panics if the two structures were created with different `z`.
    pub fn merge(&mut self, other: &OneSparseRecovery) {
        assert_eq!(
            self.z, other.z,
            "cannot merge one-sparse recoveries with different fingerprint points"
        );
        self.cell.add(&other.cell);
    }

    /// Attempts to recover the sketched vector.
    pub fn recover(&self) -> RecoveryOutcome {
        self.cell.recover(|index| pow_mod(self.z, index))
    }

    /// The raw measurements, for the flat kernel's differential test.
    #[cfg(test)]
    pub(crate) fn cell(&self) -> Cell {
        self.cell
    }

    /// Number of machine words this structure occupies (for the message-size
    /// accounting of Proposition 8.1).
    pub fn size_in_words(&self) -> usize {
        WORDS_PER_CELL
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const Z: u64 = 0x1234_5678_9abc_def1 % FINGERPRINT_PRIME;
    const P: u64 = FINGERPRINT_PRIME;

    #[test]
    fn mersenne_arithmetic_matches_u128_remainder() {
        let mul_ref = |a: u64, b: u64| (a as u128 * b as u128 % P as u128) as u64;
        let add_ref = |a: u64, b: u64| ((a as u128 + b as u128) % P as u128) as u64;
        let mut operands = vec![0, 1, 2, P - 2, P - 1, 1 << 60, (1 << 60) + 1, Z];
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        for _ in 0..2000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            operands.push(x % P);
        }
        for (i, &a) in operands.iter().enumerate() {
            // Every special value against everything, random ones pairwise.
            let partners = if i < 8 {
                &operands[..]
            } else {
                &operands[i..i + 1]
            };
            for &b in partners.iter().chain(&operands[..8]) {
                assert_eq!(mul_mod(a, b), mul_ref(a, b), "{a} * {b}");
                assert_eq!(add_mod(a, b), add_ref(a, b), "{a} + {b}");
                assert_eq!(add_mod(a, neg_mod(a)), 0);
                assert!(mul_mod(a, b) < P && add_mod(a, b) < P && neg_mod(a) < P);
            }
        }
        // (p−1)² is the largest product of canonical operands; the reduction
        // also stays exact and canonical on the extremes of `u128`.
        assert_eq!(mul_mod(P - 1, P - 1), 1);
        for x in [0, P as u128, (P as u128) << 61, u128::MAX, u128::MAX - 1] {
            assert_eq!(mod_p(x), (x % P as u128) as u64, "{x}");
        }
        assert_eq!(mul_mod(u64::MAX, u64::MAX), mul_ref(u64::MAX, u64::MAX));
        assert_eq!(delta_mod(-1), P - 1);
        // 2^63 = 4 · 2^61 ≡ 4.
        assert_eq!(delta_mod(i64::MIN), P - 4);
    }

    #[test]
    fn zero_vector_recovers_as_zero() {
        let s = OneSparseRecovery::new(Z);
        assert_eq!(s.recover(), RecoveryOutcome::Zero);
    }

    #[test]
    fn single_update_recovers_exactly() {
        let mut s = OneSparseRecovery::new(Z);
        s.update(42, 7);
        assert_eq!(
            s.recover(),
            RecoveryOutcome::OneSparse {
                index: 42,
                weight: 7
            }
        );
    }

    #[test]
    fn cancelling_updates_return_to_zero() {
        let mut s = OneSparseRecovery::new(Z);
        s.update(10, 3);
        s.update(10, -3);
        assert_eq!(s.recover(), RecoveryOutcome::Zero);
    }

    #[test]
    fn insert_then_delete_other_coordinate_recovers_survivor() {
        let mut s = OneSparseRecovery::new(Z);
        s.update(5, 1);
        s.update(9, 1);
        s.update(9, -1);
        assert_eq!(
            s.recover(),
            RecoveryOutcome::OneSparse {
                index: 5,
                weight: 1
            }
        );
    }

    #[test]
    fn two_sparse_vector_is_rejected() {
        let mut s = OneSparseRecovery::new(Z);
        s.update(3, 1);
        s.update(8, 1);
        assert_eq!(s.recover(), RecoveryOutcome::NotOneSparse);
        // Also with weights that average to an integer index.
        let mut t = OneSparseRecovery::new(Z);
        t.update(2, 1);
        t.update(4, 1);
        assert_eq!(t.recover(), RecoveryOutcome::NotOneSparse);
    }

    #[test]
    fn negative_weight_single_coordinate() {
        let mut s = OneSparseRecovery::new(Z);
        s.update(17, -4);
        assert_eq!(
            s.recover(),
            RecoveryOutcome::OneSparse {
                index: 17,
                weight: -4
            }
        );
    }

    #[test]
    fn merge_is_vector_addition() {
        let mut a = OneSparseRecovery::new(Z);
        let mut b = OneSparseRecovery::new(Z);
        a.update(6, 2);
        a.update(11, 1);
        b.update(11, -1);
        a.merge(&b);
        assert_eq!(
            a.recover(),
            RecoveryOutcome::OneSparse {
                index: 6,
                weight: 2
            }
        );
    }

    #[test]
    #[should_panic(expected = "different fingerprint points")]
    fn merge_with_mismatched_z_panics() {
        let mut a = OneSparseRecovery::new(1);
        let b = OneSparseRecovery::new(2);
        a.merge(&b);
    }

    #[test]
    fn large_indices_are_supported() {
        // Edge slots are encoded as u*n + v which can approach 2^40 and more.
        let mut s = OneSparseRecovery::new(Z);
        let idx = (1u64 << 45) + 12345;
        s.update(idx, 1);
        assert_eq!(
            s.recover(),
            RecoveryOutcome::OneSparse {
                index: idx,
                weight: 1
            }
        );
    }
}
