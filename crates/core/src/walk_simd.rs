//! The gather-vectorised window step of the v3 walk kernel — and every
//! `unsafe` block of this crate.
//!
//! One window of [`v3_walk_lane_group`](crate::walks) advances `L` lockstep
//! lanes by their move counts. The step here does that data-parallel: for
//! each move `d`, take every lane's next base-Δ neighbour digit in-register
//! — `(idx, lo) = (hi32(lo · Δ), lo32(lo · Δ))`, with `lo` loaded from the
//! ring's draw row at a word's first digit and carried in a register
//! otherwise, and `lo < 2³² mod Δʲ` after `j` digits reported as a
//! rejection — and advance every lane whose move count exceeds `d` by one
//! masked gather out of the adjacency table. It is written once, over
//! [`Vector`]'s eight operations, and instantiated per register width.
//!
//! What makes the unchecked gather sound is kept inside this module:
//!
//! * a [`GatherTable`] exists only after [`GatherTable::build_on`] has
//!   checked the whole adjacency (`n ≥ 1`, `len == n·Δ ≤ i32::MAX`, every
//!   entry `< n`), and it stores a private, Δ-premultiplied copy, so no
//!   caller can change the table afterwards;
//! * a [`GatherLanes`] holds the lanes' positions privately, starts them on
//!   vertex 0, enters others only through [`GatherLanes::restart`] (start
//!   vertices checked `< n`) and changes them only by gathering table
//!   entries, so every position is `v·Δ` for some `v < n`;
//! * the drawn neighbour index is the high half of `lo · Δ` for a `u32`
//!   `lo` — the keystream word itself or the low half a previous digit
//!   left, it does not matter which: `lo · Δ ≤ (2³² − 1) · Δ < 2³² · Δ`, so
//!   the high half is `< Δ`.
//!
//! Together: every gathered offset is `v·Δ + idx < n·Δ`, inside the table
//! and non-negative as the `i32` the instruction reads. The
//! `#[target_feature]` bodies are reachable only through a table whose tier
//! [`detected`] reported, i.e. behind the cached CPUID check.
#![deny(unsafe_op_in_unsafe_fn)]

use crate::walks::{Digits, Ring, WindowOutcome};

/// Which implementation of the window step moves the lanes. Ordered by
/// register width, so `detected() >= tier` means the CPU has `tier`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum MoveTier {
    /// The counting-sorted scalar rounds of `walks.rs`: the only tier off
    /// x86-64 and the reference the gather tiers are tested against.
    Portable,
    /// 8-lane `vpgatherdd` under a vector mask.
    Avx2,
    /// 16-lane `vpgatherdd` under a `k`-mask.
    Avx512,
}

impl MoveTier {
    /// Every tier, narrowest first.
    #[cfg(test)]
    pub(crate) const ALL: [MoveTier; 3] = [MoveTier::Portable, MoveTier::Avx2, MoveTier::Avx512];

    /// The CPU feature the tier is named after.
    pub(crate) fn name(self) -> &'static str {
        match self {
            MoveTier::Portable => "portable",
            MoveTier::Avx2 => "avx2",
            MoveTier::Avx512 => "avx512f",
        }
    }
}

/// The widest tier the CPU supports, from CPUID, resolved once per process.
/// A tier is only reported together with every narrower one (avx512f without
/// avx2 counts as neither).
pub(crate) fn detected() -> MoveTier {
    #[cfg(target_arch = "x86_64")]
    {
        static DETECTED: std::sync::OnceLock<MoveTier> = std::sync::OnceLock::new();
        *DETECTED.get_or_init(|| {
            if !std::is_x86_feature_detected!("avx2") {
                MoveTier::Portable
            } else if std::is_x86_feature_detected!("avx512f") {
                MoveTier::Avx512
            } else {
                MoveTier::Avx2
            }
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    MoveTier::Portable
}

/// The size half of the gather gate: a flat table of `len` entries is a
/// Δ-regular CSR over `n ≥ 1` vertices whose every offset fits the signed
/// 32-bit index `vpgatherdd` reads.
pub(crate) fn gather_shape_ok(len: usize, n: usize, delta: usize) -> bool {
    delta > 0 && n > 0 && n.checked_mul(delta) == Some(len) && len <= i32::MAX as usize
}

/// A Δ-regular adjacency validated for unchecked gathers and stored
/// Δ-premultiplied: `scaled[v·Δ + i] = adjacency[v·Δ + i] · Δ`, so a lane's
/// position is already its row offset and no multiply sits on the walk's
/// load-to-load dependency chain.
pub(crate) struct GatherTable {
    /// `n·Δ ≤ i32::MAX` entries, each `u·Δ` with `u < n`.
    scaled: Vec<u32>,
    /// Δ, the digits per draw word and their Lemire thresholds.
    digits: Digits,
    /// A gather tier the CPU has (never [`MoveTier::Portable`]).
    tier: MoveTier,
}

impl GatherTable {
    /// The table for `tier`, or `None` when `tier` cannot walk this
    /// adjacency: it is [`MoveTier::Portable`], the CPU lacks it, the shape
    /// fails [`gather_shape_ok`], or an entry is not a vertex (`>= n`). One
    /// `O(n·Δ)` pass; trusts nothing about where `adjacency` came from.
    pub(crate) fn build_on(
        tier: MoveTier,
        adjacency: &[u32],
        n: usize,
        delta: usize,
    ) -> Option<GatherTable> {
        if tier == MoveTier::Portable
            || detected() < tier
            || !gather_shape_ok(adjacency.len(), n, delta)
        {
            return None;
        }
        let digits = Digits::new(delta);
        // `u < n` makes `u·Δ < n·Δ ≤ i32::MAX`: no overflow.
        let scaled = adjacency
            .iter()
            .map(|&u| ((u as usize) < n).then(|| u * digits.delta))
            .collect::<Option<Vec<u32>>>()?;
        Some(GatherTable {
            scaled,
            digits,
            tier,
        })
    }

    /// `L` lanes on this table, all parked on vertex 0 until
    /// [`GatherLanes::restart`].
    pub(crate) fn lanes<const L: usize>(&self) -> GatherLanes<'_, L> {
        GatherLanes {
            table: self,
            at: [0; L],
        }
    }
}

/// The positions of `L` lockstep lanes walking one [`GatherTable`].
pub(crate) struct GatherLanes<'a, const L: usize> {
    table: &'a GatherTable,
    /// Premultiplied positions: always `v·Δ` for a vertex `v < n` of
    /// `table` (initially vertex 0, which every table has).
    at: [u32; L],
}

impl<const L: usize> GatherLanes<'_, L> {
    /// Puts lane `l` on `vertices[l]`.
    ///
    /// # Panics
    ///
    /// Panics if a start vertex is not a vertex of the table — the check the
    /// gather's bounds rest on, so it is an `assert!`.
    pub(crate) fn restart(&mut self, vertices: &[u32; L]) {
        let delta = self.table.digits.delta;
        let n = self.table.scaled.len() / delta as usize;
        assert!(
            vertices.iter().all(|&v| (v as usize) < n),
            "walk start vertex out of range"
        );
        self.at = vertices.map(|v| v * delta);
    }

    /// The vertex each lane stands on.
    pub(crate) fn vertices(&self) -> [u32; L] {
        self.at.map(|at| at / self.table.digits.delta)
    }

    /// Advances every lane through the window whose pattern word sits at
    /// stream position `q0` of `ring` (see `walks.rs` for the discipline).
    pub(crate) fn window_step(&mut self, ring: &Ring<L>, q0: u64, usable: u32) -> WindowOutcome {
        #[cfg(target_arch = "x86_64")]
        match self.table.tier {
            // SAFETY: `build_on` stores a tier only when `detected()` — the
            // cached CPUID read — reports it or a wider one, and `Avx512` is
            // reported only after seeing avx512f.
            MoveTier::Avx512 => unsafe { x86::window_step_avx512(self, ring, q0, usable) },
            // SAFETY: as above; `Avx2` or wider is reported only after
            // seeing avx2.
            MoveTier::Avx2 => unsafe { x86::window_step_avx2(self, ring, q0, usable) },
            MoveTier::Portable => unreachable!("build_on never stores the portable tier"),
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (ring, q0, usable);
            unreachable!("no gather table is built off x86-64")
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::GatherLanes;
    use crate::walks::{window_move_counts, Ring, WindowOutcome, RING_ROWS};
    use core::arch::x86_64::*;

    /// # Safety
    ///
    /// The CPU must support avx512f.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn window_step_avx512<const L: usize>(
        lanes: &mut GatherLanes<'_, L>,
        ring: &Ring<L>,
        q0: u64,
        usable: u32,
    ) -> WindowOutcome {
        // SAFETY: the caller guarantees avx512f, `__m512i`'s requirement.
        unsafe { window_step::<__m512i, L>(lanes, ring, q0, usable) }
    }

    /// # Safety
    ///
    /// The CPU must support avx2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn window_step_avx2<const L: usize>(
        lanes: &mut GatherLanes<'_, L>,
        ring: &Ring<L>,
        q0: u64,
        usable: u32,
    ) -> WindowOutcome {
        // SAFETY: the caller guarantees avx2, `__m256i`'s requirement.
        unsafe { window_step::<__m256i, L>(lanes, ring, q0, usable) }
    }

    /// `LANES` `u32`s in one register, with the operations the window step
    /// needs.
    ///
    /// # Safety
    ///
    /// Every method requires the CPU feature its implementor names; `load`
    /// and `store` additionally require `LANES` readable / writable `u32`s at
    /// the pointer (no alignment), and `gather` that `table[index[l]]` is
    /// readable for every lane `l` of `live`, with `index[l] ≤ i32::MAX`. The
    /// methods are `inline(always)` without a `target_feature` of their own,
    /// so they compile to the bare instructions once inlined into a
    /// `#[target_feature]` caller.
    trait Vector: Copy {
        const LANES: usize;
        /// A set of lanes, as the compare produces and the gather consumes.
        type Mask: Copy;
        unsafe fn splat(x: u32) -> Self;
        unsafe fn load(src: *const u32) -> Self;
        unsafe fn store(self, dst: *mut u32);
        unsafe fn add(self, other: Self) -> Self;
        /// The `(high, low)` 32-bit halves of every lane's 64-bit product
        /// with the matching lane of `m`.
        unsafe fn mul_wide(self, m: Self) -> (Self, Self);
        /// The lanes where `self < other`, unsigned.
        unsafe fn lt(self, other: Self) -> Self::Mask;
        unsafe fn any(mask: Self::Mask) -> bool;
        /// `table[index[l]]` in the lanes of `live`, `self` elsewhere.
        unsafe fn gather(self, live: Self::Mask, table: *const u32, index: Self) -> Self;
    }

    /// Requires avx512f.
    impl Vector for __m512i {
        const LANES: usize = 16;
        type Mask = __mmask16;

        #[inline(always)]
        unsafe fn splat(x: u32) -> Self {
            // SAFETY: avx512f by the trait's contract.
            unsafe { _mm512_set1_epi32(x as i32) }
        }

        #[inline(always)]
        unsafe fn load(src: *const u32) -> Self {
            // SAFETY: avx512f and 16 readable words, both by the trait's
            // contract; `loadu` takes any alignment.
            unsafe { _mm512_loadu_si512(src.cast()) }
        }

        #[inline(always)]
        unsafe fn store(self, dst: *mut u32) {
            // SAFETY: avx512f and 16 writable words, both by the trait's
            // contract; `storeu` takes any alignment.
            unsafe { _mm512_storeu_si512(dst.cast(), self) }
        }

        #[inline(always)]
        unsafe fn add(self, other: Self) -> Self {
            // SAFETY: avx512f by the trait's contract.
            unsafe { _mm512_add_epi32(self, other) }
        }

        #[inline(always)]
        unsafe fn mul_wide(self, m: Self) -> (Self, Self) {
            // `vpmuludq` multiplies the even 32-bit lanes into 64-bit
            // products; the odd lanes go through it shifted down. A merging
            // `vpshufd` then interleaves the halves back: `DDBB` copies each
            // pair's odd (high) word to its even slot, `CCAA` each pair's
            // even (low) word to its odd slot.
            // SAFETY: avx512f by the trait's contract; register-only.
            unsafe {
                let even = _mm512_mul_epu32(self, m);
                let odd = _mm512_mul_epu32(_mm512_srli_epi64::<32>(self), m);
                let hi = _mm512_mask_shuffle_epi32::<0b11_11_01_01>(odd, 0x5555, even);
                let lo = _mm512_mask_shuffle_epi32::<0b10_10_00_00>(even, 0xAAAA, odd);
                (hi, lo)
            }
        }

        #[inline(always)]
        unsafe fn lt(self, other: Self) -> __mmask16 {
            // SAFETY: avx512f by the trait's contract.
            unsafe { _mm512_cmplt_epu32_mask(self, other) }
        }

        #[inline(always)]
        unsafe fn any(mask: __mmask16) -> bool {
            mask != 0
        }

        #[inline(always)]
        unsafe fn gather(self, live: __mmask16, table: *const u32, index: Self) -> Self {
            // SAFETY: avx512f and the readability of every live lane's
            // `table[index]` by the trait's contract; masked-off lanes are
            // not accessed.
            unsafe { _mm512_mask_i32gather_epi32::<4>(self, live, index, table.cast()) }
        }
    }

    /// Requires avx2.
    impl Vector for __m256i {
        const LANES: usize = 8;
        /// All-ones in the lanes of the set, zero elsewhere.
        type Mask = __m256i;

        #[inline(always)]
        unsafe fn splat(x: u32) -> Self {
            // SAFETY: avx2 by the trait's contract.
            unsafe { _mm256_set1_epi32(x as i32) }
        }

        #[inline(always)]
        unsafe fn load(src: *const u32) -> Self {
            // SAFETY: avx2 and 8 readable words, both by the trait's
            // contract; `loadu` takes any alignment.
            unsafe { _mm256_loadu_si256(src.cast()) }
        }

        #[inline(always)]
        unsafe fn store(self, dst: *mut u32) {
            // SAFETY: avx2 and 8 writable words, both by the trait's
            // contract; `storeu` takes any alignment.
            unsafe { _mm256_storeu_si256(dst.cast(), self) }
        }

        #[inline(always)]
        unsafe fn add(self, other: Self) -> Self {
            // SAFETY: avx2 by the trait's contract.
            unsafe { _mm256_add_epi32(self, other) }
        }

        #[inline(always)]
        unsafe fn mul_wide(self, m: Self) -> (Self, Self) {
            // As on AVX-512, with immediate blends doing the interleave.
            // SAFETY: avx2 by the trait's contract; register-only.
            unsafe {
                let even = _mm256_mul_epu32(self, m);
                let odd = _mm256_mul_epu32(_mm256_srli_epi64::<32>(self), m);
                let hi = _mm256_blend_epi32::<0xAA>(_mm256_srli_epi64::<32>(even), odd);
                let lo = _mm256_blend_epi32::<0xAA>(even, _mm256_slli_epi64::<32>(odd));
                (hi, lo)
            }
        }

        #[inline(always)]
        unsafe fn lt(self, other: Self) -> __m256i {
            // AVX2 compares signed only; flipping both sign bits maps the
            // unsigned order onto the signed one.
            // SAFETY: avx2 by the trait's contract.
            unsafe {
                let bias = _mm256_set1_epi32(i32::MIN);
                _mm256_cmpgt_epi32(_mm256_xor_si256(other, bias), _mm256_xor_si256(self, bias))
            }
        }

        #[inline(always)]
        unsafe fn any(mask: __m256i) -> bool {
            // SAFETY: avx2 by the trait's contract.
            unsafe { _mm256_testz_si256(mask, mask) == 0 }
        }

        #[inline(always)]
        unsafe fn gather(self, live: __m256i, table: *const u32, index: Self) -> Self {
            // SAFETY: avx2 and the readability of every live lane's
            // `table[index]` by the trait's contract; lanes whose mask sign
            // bit is clear are not accessed.
            unsafe { _mm256_mask_i32gather_epi32::<4>(self, table.cast(), index, live) }
        }
    }

    /// The window step for a lane group of `C` chunk registers, picking `C`
    /// from the lane counts.
    ///
    /// # Safety
    ///
    /// `V`'s CPU feature.
    #[inline(always)]
    unsafe fn window_step<V: Vector, const L: usize>(
        lanes: &mut GatherLanes<'_, L>,
        ring: &Ring<L>,
        q0: u64,
        usable: u32,
    ) -> WindowOutcome {
        // SAFETY: the caller guarantees `V`'s CPU feature.
        unsafe {
            match L / V::LANES {
                1 => window_step_chunks::<V, L, 1>(lanes, ring, q0, usable),
                2 => window_step_chunks::<V, L, 2>(lanes, ring, q0, usable),
                4 => window_step_chunks::<V, L, 4>(lanes, ring, q0, usable),
                8 => window_step_chunks::<V, L, 8>(lanes, ring, q0, usable),
                _ => unreachable!("lane groups are 16, 32 or 64 lanes"),
            }
        }
    }

    /// The window step, `V::LANES` lanes per chunk register, all `C` chunks
    /// of a move before the next move so that `C` independent gather chains
    /// are in flight. `C` is a constant so that the chunk loops unroll and
    /// the positions and the digits' carried `lo` stay in registers across
    /// the window.
    ///
    /// Scans — for Lemire rejection — every digit prefix of the draw words
    /// of chunks that still have a live lane at that digit: a superset of
    /// the (word, digit count) pairs any lane consumes, a subset of the
    /// portable step's scan.
    ///
    /// # Safety
    ///
    /// `V`'s CPU feature.
    #[inline(always)]
    #[allow(clippy::needless_range_loop)] // see the comment on the loops
    unsafe fn window_step_chunks<V: Vector, const L: usize, const C: usize>(
        lanes: &mut GatherLanes<'_, L>,
        ring: &Ring<L>,
        q0: u64,
        usable: u32,
    ) -> WindowOutcome {
        assert!(L == C * V::LANES, "lane group is not C whole vectors");
        let (counts, most, moves) =
            window_move_counts(&ring[(q0 % RING_ROWS as u64) as usize], usable);
        let table = lanes.table;
        let digits = &table.digits;
        let mut rejected = false;
        // SAFETY: the caller guarantees `V`'s CPU feature. Every load and
        // store below touches `V::LANES` words at offset `c · V::LANES` of
        // an `[u32; L]` with `c < C = L / V::LANES`, i.e. in bounds.
        unsafe {
            let delta = V::splat(digits.delta);
            // Plain indexed loops, not `array::from_fn` or iterator
            // adapters: their closures would be called through generic
            // library code compiled without this function's target
            // feature, which blocks inlining and leaves every vector
            // operation an out-of-line call.
            let mut at = [V::splat(0); C];
            let mut count = [V::splat(0); C];
            let mut lo = [V::splat(0); C];
            for c in 0..C {
                at[c] = V::load(lanes.at.as_ptr().add(c * V::LANES));
                count[c] = V::load(counts.as_ptr().add(c * V::LANES));
            }
            let mut d = 0u32;
            let mut word_row = q0 + 1;
            while d < most {
                let words = ring[(word_row % RING_ROWS as u64) as usize].as_ptr();
                for c in 0..C {
                    lo[c] = V::load(words.add(c * V::LANES));
                }
                for j in 1..=digits.per_word.min(most - d) {
                    let row = V::splat(d);
                    let reject_below = V::splat(digits.reject_below[j as usize]);
                    for c in 0..C {
                        let live = row.lt(count[c]);
                        if V::any(live) {
                            let (index, low) = lo[c].mul_wide(delta);
                            lo[c] = low;
                            rejected |= V::any(low.lt(reject_below));
                            // SAFETY (gather): `at` holds `v·Δ` with `v < n`
                            // — the `GatherLanes` invariant on entry, and
                            // preserved here because every gathered value is
                            // a table entry `u·Δ`, `u < n` — and `index` is
                            // the high half of `lo · Δ` for a `u32` `lo`, so
                            // `< Δ`: the offset is `< n·Δ = scaled.len() ≤
                            // i32::MAX`.
                            at[c] = at[c].gather(live, table.scaled.as_ptr(), at[c].add(index));
                        }
                    }
                    d += 1;
                }
                word_row += 1;
            }
            for c in 0..C {
                at[c].store(lanes.at.as_mut_ptr().add(c * V::LANES));
            }
        }
        WindowOutcome { moves, rejected }
    }
}
