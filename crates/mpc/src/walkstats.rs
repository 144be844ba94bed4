//! Process-wide walk-kernel telemetry.
//!
//! The randomize phase is the pipeline's wall-clock sink, and the v3 walk
//! kernel's whole case rests on *consuming less* per simulated step: fewer
//! keystream words (32-bit Lemire draws), fewer executed steps (stay-run
//! compression), fewer random adjacency loads. These counters are the
//! instruments that make those savings observable — `wcc --json` surfaces
//! them as a `walk` object so the next profile-driven attack starts from
//! numbers, not guesses.
//!
//! Like the pool counters ([`crate::PoolTelemetry`]), the walk counters are
//! process-wide relaxed atomics: walk workers cannot touch the
//! `&mut MpcContext` (the executor determinism contract, DESIGN.md §3), so
//! they accumulate into a local [`WalkTelemetry`] and flush once per worker
//! chunk via [`record_walk_telemetry`]. The counters are cumulative
//! observables, **not** model quantities: they are deliberately outside
//! `RoundStats`, so stats equality across backends and thread counts is
//! untouched — exactly like `wall_time_ms`.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::Serialize;

/// A snapshot (or local accumulator) of walk-kernel activity. All counts are
/// cumulative since process start when obtained from
/// [`walk_telemetry_snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct WalkTelemetry {
    /// Lazy walk steps simulated (stays + real moves). One walk of length
    /// `t` contributes exactly `t`.
    pub steps: u64,
    /// Steps that paid a neighbour draw and a random adjacency load: the
    /// ~1/2 of lazy steps whose stay/move coin came up "move", and every
    /// step of a densification walk on the raw graph.
    pub moves: u64,
    /// Stay steps that were skipped by v3 stay-run compression instead of
    /// being executed individually.
    pub stays_compressed: u64,
    /// ChaCha8 keystream words (u32) consumed by draws: pattern words,
    /// index words and rejection redraws.
    pub keystream_words: u64,
    /// Batched keystream block refills (each produces 16 words per lane of
    /// the refilling group). The v3 kernel's full groups are 64 lanes wide —
    /// half as many refills for the same `keystream_words` as the 32-lane
    /// groups it used to run; the 32- and 16-lane step-down groups at the
    /// tail of a worker's span count their own, narrower refills.
    pub refills: u64,
    /// Lane groups the batched v3 kernel handed back to its scalar path. The
    /// kernel never resolves a rejection itself: a group in which any
    /// *scanned* draw word rejects (a few per billion steps for
    /// non-power-of-two Δ) reruns whole on the scalar walk, which replays
    /// the redraws exactly (DESIGN.md §10). The scan is conservative and its
    /// extent depends on the move tier, so this count may differ by a few
    /// groups between tiers; endpoints never do. The name predates the one
    /// kernel; the benchmark reports it as `core.walks.spec_fallbacks`.
    pub spec_fallbacks: u64,
}

impl WalkTelemetry {
    /// Folds another accumulator into `self` (used by workers that keep
    /// separate tallies before flushing).
    pub fn merge(&mut self, other: &WalkTelemetry) {
        self.steps += other.steps;
        self.moves += other.moves;
        self.stays_compressed += other.stays_compressed;
        self.keystream_words += other.keystream_words;
        self.refills += other.refills;
        self.spec_fallbacks += other.spec_fallbacks;
    }
}

/// The process-wide totals, updated with relaxed atomics (they order
/// nothing; the counters are observability, not synchronisation).
struct Counters {
    steps: AtomicU64,
    moves: AtomicU64,
    stays_compressed: AtomicU64,
    keystream_words: AtomicU64,
    refills: AtomicU64,
    spec_fallbacks: AtomicU64,
}

static GLOBAL: Counters = Counters {
    steps: AtomicU64::new(0),
    moves: AtomicU64::new(0),
    stays_compressed: AtomicU64::new(0),
    keystream_words: AtomicU64::new(0),
    refills: AtomicU64::new(0),
    spec_fallbacks: AtomicU64::new(0),
};

/// Adds a worker-local accumulator to the process-wide totals. Call once per
/// worker chunk, not per step — the counters are relaxed atomics, but a
/// fetch-add per walk step would still poison the hot loop.
pub fn record_walk_telemetry(delta: &WalkTelemetry) {
    GLOBAL.steps.fetch_add(delta.steps, Ordering::Relaxed);
    GLOBAL.moves.fetch_add(delta.moves, Ordering::Relaxed);
    GLOBAL
        .stays_compressed
        .fetch_add(delta.stays_compressed, Ordering::Relaxed);
    GLOBAL
        .keystream_words
        .fetch_add(delta.keystream_words, Ordering::Relaxed);
    GLOBAL.refills.fetch_add(delta.refills, Ordering::Relaxed);
    GLOBAL
        .spec_fallbacks
        .fetch_add(delta.spec_fallbacks, Ordering::Relaxed);
}

/// Snapshot of the process-wide walk counters.
pub fn walk_telemetry_snapshot() -> WalkTelemetry {
    WalkTelemetry {
        steps: GLOBAL.steps.load(Ordering::Relaxed),
        moves: GLOBAL.moves.load(Ordering::Relaxed),
        stays_compressed: GLOBAL.stays_compressed.load(Ordering::Relaxed),
        keystream_words: GLOBAL.keystream_words.load(Ordering::Relaxed),
        refills: GLOBAL.refills.load(Ordering::Relaxed),
        spec_fallbacks: GLOBAL.spec_fallbacks.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_accumulates_into_the_snapshot() {
        let before = walk_telemetry_snapshot();
        let delta = WalkTelemetry {
            steps: 100,
            moves: 47,
            stays_compressed: 53,
            keystream_words: 60,
            refills: 2,
            spec_fallbacks: 1,
        };
        record_walk_telemetry(&delta);
        let after = walk_telemetry_snapshot();
        // Other tests may record concurrently, so assert `>=` deltas.
        assert!(after.steps >= before.steps + 100);
        assert!(after.moves >= before.moves + 47);
        assert!(after.stays_compressed >= before.stays_compressed + 53);
        assert!(after.keystream_words >= before.keystream_words + 60);
        assert!(after.refills >= before.refills + 2);
        assert!(after.spec_fallbacks > before.spec_fallbacks);
    }

    #[test]
    fn merge_adds_fieldwise() {
        let mut a = WalkTelemetry {
            steps: 10,
            moves: 4,
            stays_compressed: 6,
            keystream_words: 7,
            refills: 1,
            spec_fallbacks: 0,
        };
        let b = WalkTelemetry {
            steps: 5,
            moves: 5,
            stays_compressed: 0,
            keystream_words: 10,
            refills: 1,
            spec_fallbacks: 2,
        };
        a.merge(&b);
        assert_eq!(a.steps, 15);
        assert_eq!(a.moves, 9);
        assert_eq!(a.stays_compressed, 6);
        assert_eq!(a.keystream_words, 17);
        assert_eq!(a.refills, 2);
        assert_eq!(a.spec_fallbacks, 2);
    }
}
