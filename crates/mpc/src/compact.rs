//! The compact-tuple codec of the data plane.
//!
//! Identifiers here fit a `u32`: [`wcc_graph::Graph`] stores its edges as
//! `(u32, u32)`, and a part count past `2^32` would need more than `2^32`
//! vertices, whose CSR offsets alone take 32 GiB. A relabelled edge
//! therefore packs into one `u64` ([`pack_edge`]), half the bytes of a
//! `(usize, usize)` tuple. The contraction asserts the invariant once per
//! call; its `(usize, usize)` build is a test oracle only (DESIGN.md §8).

/// Packs an edge of compact identifiers into one `u64`: `a` in the high
/// word, `b` in the low word. Because the pack is order-preserving
/// (`(a, b) < (c, d)` lexicographically iff `pack_edge(a, b) <
/// pack_edge(c, d)`), sorting packed edges as plain `u64`s reproduces the
/// tuple sort order exactly.
///
/// Both identifiers must fit a `u32`. Callers uphold that invariant (the
/// contraction asserts it for its part count); a wider identifier is a
/// contract violation, debug-asserted, never silently truncated.
#[inline]
pub fn pack_edge(a: usize, b: usize) -> u64 {
    debug_assert!(
        a <= u32::MAX as usize && b <= u32::MAX as usize,
        "pack_edge on identifiers outside the u32 id space"
    );
    ((a as u64) << 32) | (b as u64 & u64::from(u32::MAX))
}

/// Inverse of [`pack_edge`].
#[inline]
pub fn unpack_edge(packed: u64) -> (usize, usize) {
    (
        (packed >> 32) as usize,
        (packed & u64::from(u32::MAX)) as usize,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_is_order_preserving_and_round_trips() {
        let ids = [
            0usize,
            1,
            2,
            77,
            1 << 16,
            u32::MAX as usize - 1,
            u32::MAX as usize,
        ];
        let mut packed: Vec<u64> = Vec::new();
        let mut tuples: Vec<(usize, usize)> = Vec::new();
        for &a in &ids {
            for &b in &ids {
                assert_eq!(unpack_edge(pack_edge(a, b)), (a, b));
                packed.push(pack_edge(a, b));
                tuples.push((a, b));
            }
        }
        packed.sort_unstable();
        tuples.sort_unstable();
        let unpacked: Vec<(usize, usize)> = packed.into_iter().map(unpack_edge).collect();
        assert_eq!(unpacked, tuples, "u64 order must equal tuple lex order");
    }
}
