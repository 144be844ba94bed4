//! Log-bucketed latency histogram: power-of-two buckets, lock-free
//! recording, no dependencies.
//!
//! The component-query service records one latency sample per request on
//! its hot path, from many connection threads at once, at rates past 10⁵
//! samples/s — so the recorder must be wait-free and allocation-free. A
//! [`LogHistogram`] is a fixed array of relaxed [`AtomicU64`] counters,
//! bucket `i` covering durations in `[2^i, 2^{i+1})` nanoseconds: recording
//! is one leading-zeros instruction plus one relaxed fetch-add, and reading
//! is an inconsistent-but-monotone sweep (each counter is exact; a sweep
//! concurrent with writers may miss in-flight samples, which is fine for
//! telemetry — the same contract as [`crate::PoolTelemetry`]).
//!
//! Percentiles come out as the *upper bound* of the bucket holding the
//! requested rank, so a reported p99 is conservative: at most one power of
//! two above the true sample. That resolution (±2×) is exactly what a
//! latency SLO needs — the interesting question is "µs or ms", not the
//! third significant digit — and it is what lets the histogram be shared
//! verbatim between the server's stats reply and `wcc serve --json`: 48
//! counters travel as 48 words on the wire, and merging two histograms is
//! element-wise addition.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::Serialize;

/// Number of power-of-two buckets. Bucket 47 covers `[2^47, ∞)` ns — about
/// 39 hours — so no realistic latency saturates the top bucket's meaning.
pub const HISTOGRAM_BUCKETS: usize = 48;

/// A fixed-size power-of-two-bucket histogram of `u64` samples
/// (conventionally nanoseconds), safe to record into from many threads.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// The index of the bucket covering `value`: `floor(log2(max(value, 1)))`,
/// clamped to the top bucket.
fn bucket_index(value: u64) -> usize {
    (63 - (value | 1).leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// The exclusive upper bound of bucket `i` in sample units (`2^{i+1}`,
/// saturating for the top bucket).
fn bucket_upper_bound(i: usize) -> u64 {
    1u64.checked_shl(i as u32 + 1).unwrap_or(u64::MAX)
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram::default()
    }

    /// Records one sample. Wait-free: one relaxed fetch-add.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Current per-bucket counts (a concurrent sweep may miss samples still
    /// in flight; each counter read is itself exact).
    pub fn counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        let mut out = [0u64; HISTOGRAM_BUCKETS];
        for (slot, bucket) in out.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        out
    }

    /// Adds previously captured counts (e.g. a histogram shipped over the
    /// wire) into this one.
    pub fn absorb_counts(&self, counts: &[u64]) {
        for (bucket, &count) in self.buckets.iter().zip(counts) {
            if count > 0 {
                bucket.fetch_add(count, Ordering::Relaxed);
            }
        }
    }

    /// A point-in-time summary with conservative percentiles.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary::from_counts(&self.counts())
    }
}

/// An immutable snapshot of a [`LogHistogram`] with derived percentiles.
/// Serializes into the `--json` record of `wcc serve`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct HistogramSummary {
    /// Total samples recorded.
    pub count: u64,
    /// Conservative (bucket-upper-bound) 50th percentile, in sample units.
    pub p50: u64,
    /// Conservative 99th percentile.
    pub p99: u64,
    /// Conservative 99.9th percentile.
    pub p999: u64,
    /// Conservative maximum (upper bound of the highest non-empty bucket).
    pub max: u64,
    /// Raw per-bucket counts; bucket `i` covers `[2^i, 2^{i+1})`.
    pub buckets: Vec<u64>,
}

impl HistogramSummary {
    /// Builds a summary from raw bucket counts (length up to
    /// [`HISTOGRAM_BUCKETS`]; shorter slices are zero-extended).
    pub fn from_counts(counts: &[u64]) -> Self {
        let mut buckets = vec![0u64; HISTOGRAM_BUCKETS];
        buckets[..counts.len().min(HISTOGRAM_BUCKETS)]
            .copy_from_slice(&counts[..counts.len().min(HISTOGRAM_BUCKETS)]);
        let count: u64 = buckets.iter().sum();
        let max = buckets
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, bucket_upper_bound);
        let percentile = |p: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            // Rank of the requested percentile, 1-based: the smallest bucket
            // whose cumulative count reaches it bounds the sample above.
            let rank = ((count as f64) * p).ceil().max(1.0) as u64;
            let mut seen = 0u64;
            for (i, &c) in buckets.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return bucket_upper_bound(i);
                }
            }
            max
        };
        HistogramSummary {
            count,
            p50: percentile(0.50),
            p99: percentile(0.99),
            p999: percentile(0.999),
            max,
            buckets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_upper_bound(0), 2);
        assert_eq!(bucket_upper_bound(10), 2048);
        assert_eq!(bucket_upper_bound(HISTOGRAM_BUCKETS - 1), 1 << 48);
    }

    #[test]
    fn percentiles_are_conservative_upper_bounds() {
        let h = LogHistogram::new();
        // 99 samples at ~1µs (bucket 9: 512..1024) and 1 at ~1ms
        // (bucket 19: 524288..1048576).
        for _ in 0..99 {
            h.record(700);
        }
        h.record(700_000);
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert_eq!(s.p50, 1024);
        // p99 rank is 99, still inside the 700ns pile.
        assert_eq!(s.p99, 1024);
        assert_eq!(s.p999, 1 << 20);
        assert_eq!(s.max, 1 << 20);
        // The true samples are below the reported bounds.
        assert!(700 < s.p50 && 700_000 < s.p999);
    }

    #[test]
    fn empty_and_single_sample_summaries() {
        let h = LogHistogram::new();
        let s = h.summary();
        assert_eq!((s.count, s.p50, s.p99, s.max), (0, 0, 0, 0));
        h.record(5);
        let s = h.summary();
        assert_eq!((s.count, s.p50, s.p99, s.max), (1, 8, 8, 8));
    }

    #[test]
    fn absorb_counts_matches_recording_directly() {
        let a = LogHistogram::new();
        let b = LogHistogram::new();
        for v in [1u64, 10, 100, 1000, 10_000, 100_000] {
            a.record(v);
            b.record(v);
            b.record(v);
        }
        let merged = LogHistogram::new();
        merged.absorb_counts(&a.counts());
        merged.absorb_counts(&a.counts());
        assert_eq!(merged.counts(), b.counts());
        assert_eq!(merged.summary(), b.summary());
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(LogHistogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(i * 7 + t);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.summary().count, 40_000);
    }
}
