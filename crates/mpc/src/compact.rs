//! Compact-tuple width negotiation for the data plane.
//!
//! The simulator's word accounting is denominated in 8-byte model words, but
//! the bytes the host actually moves per tuple depend on the representation:
//! a vertex or component identifier fits a `u32` whenever the identifier
//! space has at most `2^32` members, and a whole relabeled edge then packs
//! into one `u64` ([`pack_edge`]) — half the traffic of the
//! wide `(usize, usize)` layout. This module centralises the negotiation
//! rule ([`TupleWidth::negotiate`]) and the pack/unpack codec, so every layer
//! (contraction, shuffles, reductions) makes the same wide/narrow decision
//! and charges it the same way. The wide path is never removed: callers fall
//! back to it whenever the identifier space exceeds the compact limit, so
//! narrowing can never truncate (see DESIGN.md §8).

/// Bytes per model word — the `u64` accounting unit all round statistics
/// are denominated in.
pub const WORD_BYTES: usize = 8;

/// Number of distinct identifiers the compact width can represent
/// (`2^32`): ids `0..=u32::MAX`.
pub const COMPACT_ID_SPACE: u128 = (u32::MAX as u128) + 1;

/// The negotiated per-tuple representation of a data-plane stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TupleWidth {
    /// Identifiers fit a `u32`; an edge packs into one `u64`.
    Compact,
    /// Identifier space exceeds `2^32`; tuples stay `(usize, usize)`.
    Wide,
}

impl TupleWidth {
    /// Negotiates the width for an identifier space of `ids` members
    /// (identifiers `0..ids`): compact iff every identifier fits a `u32`.
    /// The comparison is done in `u128` so `ids == 2^32` itself (the largest
    /// compact space, whose top identifier is exactly `u32::MAX`) negotiates
    /// compact on 64-bit hosts instead of overflowing.
    pub fn negotiate(ids: usize) -> TupleWidth {
        if (ids as u128) <= COMPACT_ID_SPACE {
            TupleWidth::Compact
        } else {
            TupleWidth::Wide
        }
    }

    /// `true` for [`TupleWidth::Compact`].
    pub fn is_compact(self) -> bool {
        matches!(self, TupleWidth::Compact)
    }

    /// Stable label for reports (`wcc --json` emits this).
    pub fn label(self) -> &'static str {
        match self {
            TupleWidth::Compact => "compact-u32",
            TupleWidth::Wide => "wide-u64",
        }
    }

    /// Bytes one packed edge occupies on the wire under this width.
    pub fn edge_bytes(self) -> usize {
        match self {
            TupleWidth::Compact => 8,
            TupleWidth::Wide => 16,
        }
    }
}

/// Packs an edge of compact identifiers into one `u64`: `a` in the high
/// word, `b` in the low word. Because the pack is order-preserving
/// (`(a, b) < (c, d)` lexicographically iff `pack_edge(a, b) <
/// pack_edge(c, d)`), sorting packed edges as plain `u64`s reproduces the
/// tuple sort order exactly.
///
/// Callers must have negotiated [`TupleWidth::Compact`] for the identifier
/// space; identifiers that do not fit a `u32` are a contract violation
/// (debug-asserted), never silently truncated — the negotiation rule routes
/// such spaces to the wide path instead.
#[inline]
pub fn pack_edge(a: usize, b: usize) -> u64 {
    debug_assert!(
        a <= u32::MAX as usize && b <= u32::MAX as usize,
        "pack_edge on identifiers outside the negotiated compact space"
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
    fn negotiation_boundary_is_the_u32_id_space() {
        assert!(TupleWidth::negotiate(0).is_compact());
        assert!(TupleWidth::negotiate(1 << 20).is_compact());
        // n = 2^32 - 1 and n = 2^32: top ids u32::MAX - 1 / u32::MAX fit.
        assert!(TupleWidth::negotiate(u32::MAX as usize).is_compact());
        assert!(TupleWidth::negotiate(u32::MAX as usize + 1).is_compact());
        // One past the compact space: id 2^32 would not fit — wide.
        assert_eq!(
            TupleWidth::negotiate(u32::MAX as usize + 2),
            TupleWidth::Wide
        );
    }

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

    #[test]
    fn width_labels_and_edge_bytes() {
        assert_eq!(TupleWidth::Compact.label(), "compact-u32");
        assert_eq!(TupleWidth::Wide.label(), "wide-u64");
        assert_eq!(TupleWidth::Compact.edge_bytes(), 8);
        assert_eq!(TupleWidth::Wide.edge_bytes(), 16);
    }
}
