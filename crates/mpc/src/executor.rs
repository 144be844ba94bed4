//! The pluggable parallel execution backend for the simulator.
//!
//! Every layer of the workspace that fans work out over simulated machines,
//! vertices, or edge chunks routes it through an [`Executor`] instead of a
//! bare `for` loop. Two backends exist:
//!
//! * **sequential** ([`Executor::sequential`], one thread) — runs every unit
//!   of work inline on the calling thread, in index order (the historical
//!   behaviour of the simulator).
//! * **threaded** ([`Executor::threaded`]) — runs work on a **persistent
//!   worker pool** ([`pool`] module; no external dependencies):
//!   workers are spawned once, lazily, on the first threaded dispatch, park
//!   on a condvar between fan-outs, and each fan-out costs one epoch bump +
//!   wakeup instead of N `std::thread::scope` spawns. The index space is
//!   split into up to [`CHUNKS_PER_WORKER`]×threads contiguous chunks
//!   claimed dynamically through an atomic cursor, so skewed per-chunk work
//!   load-balances without affecting results.
//!
//! **Determinism contract.** Both backends produce *bit-identical* results
//! for the same inputs: work units are pure functions of their index (callers
//! derive any randomness from per-index ChaCha8 streams, never from a shared
//! generator), and results are reassembled in index order regardless of which
//! worker computed them — chunk claiming order is timing-dependent, chunk
//! *placement* is not. Anything order-sensitive — round charges, memory
//! accounting, error selection — happens on the calling thread after the
//! fan-in. The cross-backend determinism test in
//! `tests/executor_determinism.rs` pins this contract down for the full
//! pipeline.
//!
//! The thread count is usually carried by
//! [`MpcConfig::threads`](crate::MpcConfig::threads); `0` means "resolve from
//! the `WCC_THREADS` environment variable". In the environment variable
//! itself, `0` means "use [`Executor::auto_threads`]", i.e. one worker per
//! available CPU (`std::thread::available_parallelism`); an unset, empty or
//! unparseable variable still means sequential.

use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock};

use crate::pool::{self, PoolProbe, PoolTelemetry, WorkerPool, CHUNKS_PER_WORKER};

/// Environment variable consulted when a thread count of `0` ("auto") is
/// resolved: `WCC_THREADS=4` selects the threaded backend with 4 workers,
/// `WCC_THREADS=0` selects one worker per available CPU.
pub const THREADS_ENV_VAR: &str = "WCC_THREADS";

/// A handle to an execution backend. Cheap to clone; clones share the same
/// lazily-created worker pool, and executors resolved independently with the
/// same thread count share one process-wide pool per count (so an
/// `MpcContext` and the `Cluster`s it drives never spawn duplicate worker
/// sets). Dropping the last executor that owns a pool shuts its workers down
/// and joins them.
#[derive(Clone)]
pub struct Executor {
    threads: usize,
    /// The pool cell. Empty until the first threaded dispatch; never filled
    /// for sequential executors (`threads == 1` dispatches inline).
    pool: Arc<OnceLock<Arc<WorkerPool>>>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("threads", &self.threads)
            .field("pool_started", &self.pool.get().is_some())
            .finish()
    }
}

/// Executors compare by configuration (thread count) only — two executors
/// with the same count are interchangeable by the determinism contract,
/// whether or not they happen to share a pool instance.
impl PartialEq for Executor {
    fn eq(&self, other: &Self) -> bool {
        self.threads == other.threads
    }
}

impl Eq for Executor {}

impl Executor {
    /// The sequential backend.
    pub fn sequential() -> Self {
        Executor::threaded(1)
    }

    /// The threaded backend with `threads` workers (1 degenerates to the
    /// sequential backend; 0 is clamped to 1). Workers are not spawned until
    /// the first dispatch that engages more than one chunk.
    pub fn threaded(threads: usize) -> Self {
        Executor {
            threads: threads.max(1),
            pool: Arc::new(OnceLock::new()),
        }
    }

    /// Like [`Executor::threaded`], but with a pool that is **not** shared
    /// with other executors of the same thread count. Lifecycle tests use
    /// this to observe one pool's spawn/park/shutdown behaviour in
    /// isolation; production callers want the sharing default.
    pub fn with_private_pool(threads: usize) -> Self {
        let threads = threads.max(1);
        let cell = OnceLock::new();
        let _ = cell.set(Arc::new(WorkerPool::new(threads)));
        Executor {
            threads,
            pool: Arc::new(cell),
        }
    }

    /// Resolves a config-level thread count: `0` means "read
    /// [`THREADS_ENV_VAR`]" (a positive value selects that many workers, `0`
    /// one per available CPU, and an unset, empty or unparseable variable
    /// means sequential); any other value is used as-is.
    pub fn resolve(threads: usize) -> Self {
        if threads > 0 {
            return Executor::threaded(threads);
        }
        Executor::from_env()
    }

    /// One worker per CPU the process can use
    /// (`std::thread::available_parallelism`), defaulting to 1 if the
    /// parallelism cannot be queried.
    pub fn auto_threads() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// Reads the backend from [`THREADS_ENV_VAR`] (see
    /// [`Executor::resolve`]).
    fn from_env() -> Self {
        match std::env::var(THREADS_ENV_VAR)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
        {
            Some(0) => Executor::threaded(Self::auto_threads()),
            Some(n) => Executor::threaded(n),
            None => Executor::sequential(),
        }
    }

    /// Number of worker threads this executor uses (1 = sequential).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The pool, created (or fetched from the per-count process registry) on
    /// first use.
    fn pool(&self) -> &Arc<WorkerPool> {
        self.pool.get_or_init(|| pool::obtain_shared(self.threads))
    }

    /// Telemetry snapshot of this executor's pool, or `None` if no threaded
    /// dispatch has created one yet (sequential executors never do).
    pub fn pool_telemetry(&self) -> Option<PoolTelemetry> {
        self.pool.get().map(|p| p.counters().snapshot())
    }

    /// Process-wide pool telemetry: cumulative counters across every pool
    /// that ever existed in this process. This is what `wcc --json` reports,
    /// so a run's dispatch behaviour is visible without threading a pool
    /// handle through the algorithm layers.
    pub fn process_pool_telemetry() -> PoolTelemetry {
        pool::global_snapshot()
    }

    /// A live handle onto this executor's pool counters that does **not**
    /// keep the pool alive — lifecycle tests use it to watch `live_workers`
    /// fall to zero after the executor is dropped. Forces pool creation.
    pub fn pool_telemetry_probe(&self) -> PoolProbe {
        PoolProbe(self.pool().counters())
    }

    /// Minimum indices a chunk must receive before [`Executor::map_indexed`]
    /// fans out: fine-grained fan-outs smaller than this run inline, because
    /// dispatch latency would dominate the per-index work. (Purely a
    /// performance cutoff — results are identical either way.)
    pub const MIN_INDICES_PER_WORKER: usize = 64;

    /// Contiguous chunk ranges covering `0..n` in order: up to
    /// [`CHUNKS_PER_WORKER`]×threads chunks (so fast workers can claim
    /// extra chunks when per-chunk work is skewed), engaging at most
    /// `n / min_per_worker` chunks. The split depends only on `n`, the
    /// thread count and the floor — never on runtime timing.
    fn worker_ranges(&self, n: usize, min_per_worker: usize) -> Vec<Range<usize>> {
        let target = if self.threads > 1 {
            self.threads.saturating_mul(CHUNKS_PER_WORKER)
        } else {
            1
        };
        let chunks = target.min(n / min_per_worker.max(1)).min(n).max(1);
        pool::split_ranges(n, chunks)
    }

    /// The deterministic *fine* work split over `0..n`: the contiguous chunk
    /// ranges [`Executor::map_indexed`] would hand its workers. Indices are
    /// fine-grained items (a tuple, a vertex), so fan-outs smaller than
    /// [`Executor::MIN_INDICES_PER_WORKER`] per chunk collapse to fewer
    /// ranges. Exposed so callers can precompute per-chunk state that must
    /// line up range-for-range with a later [`Executor::map_slices_mut`]
    /// over the same split.
    pub fn element_spans(&self, n: usize) -> Vec<Range<usize>> {
        self.worker_ranges(n, Self::MIN_INDICES_PER_WORKER)
    }

    /// The core dispatch: runs `g` once per index in `0..n` and returns the
    /// results in index order — inline for the sequential backend, via the
    /// pool's chunk-claiming epoch otherwise. A dispatch attempted from
    /// inside a pool epoch (a nested fan-out) runs inline too, which keeps
    /// nesting correct without epoch re-entrancy.
    fn run_chunked<U, G>(&self, n: usize, g: G) -> Vec<U>
    where
        U: Send,
        G: Fn(usize) -> U + Sync,
    {
        if self.threads <= 1 || n <= 1 || pool::in_pool_context() {
            return (0..n).map(g).collect();
        }
        self.pool().run_chunks(n, g)
    }

    /// Splits `data` into the given contiguous ranges (which must tile
    /// `0..data.len()` in ascending order — normally an
    /// [`Executor::element_spans`] split scaled to the data) and runs `f` on
    /// each mutable chunk concurrently, returning the per-chunk results in
    /// range order. This is the safe primitive behind in-place parallel
    /// passes over a flat buffer: disjoint `&mut` chunks are carved with
    /// `split_at_mut`, so no two workers can alias.
    ///
    /// # Panics
    ///
    /// Panics if the ranges do not tile `0..data.len()` exactly.
    pub fn map_slices_mut<T, U, F>(&self, data: &mut [T], ranges: &[Range<usize>], f: F) -> Vec<U>
    where
        T: Send,
        U: Send,
        F: Fn(usize, &mut [T]) -> U + Sync,
    {
        // Carve every disjoint chunk up front (cheap: pointer arithmetic),
        // park each in a take-once slot, and let the dispatch hand chunk `i`
        // to whichever worker claims index `i`.
        let mut slots: Vec<Mutex<Option<&mut [T]>>> = Vec::with_capacity(ranges.len());
        let mut rest = data;
        let mut expected = 0usize;
        for r in ranges {
            assert_eq!(r.start, expected, "ranges must tile the data in order");
            assert!(r.end >= r.start, "ranges must be ascending");
            expected = r.end;
            let (head, tail) = rest.split_at_mut(r.len());
            rest = tail;
            slots.push(Mutex::new(Some(head)));
        }
        assert!(rest.is_empty(), "ranges must cover the data exactly");
        self.run_chunked(ranges.len(), |i| {
            let chunk = slots[i]
                .lock()
                .expect("slice slot poisoned")
                .take()
                .expect("each chunk is claimed exactly once");
            f(i, chunk)
        })
    }

    /// Fan-out returning a single flat vector: applies `f` to each range of
    /// the fine [`Executor::element_spans`] split of `0..n` and concatenates
    /// the per-range outputs in range order into one pre-sized allocation.
    /// The result is identical to `(0..n).flat_map(per-index work)` as long
    /// as `f` emits its range's items in index order — the usual replacement
    /// for `map_indexed(..).flatten()` chains that would otherwise allocate
    /// one vector per index.
    pub fn flat_map_ranges<U, F>(&self, n: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(Range<usize>) -> Vec<U> + Sync,
    {
        let parts = self.run_ranges(n, Self::MIN_INDICES_PER_WORKER, f);
        let total: usize = parts.iter().map(Vec::len).sum();
        let mut out = Vec::with_capacity(total);
        for part in parts {
            out.extend(part);
        }
        out
    }

    /// Applies `f` to every index in `0..n` and returns the results in index
    /// order. `f` must be a pure function of its index for the determinism
    /// contract to hold.
    ///
    /// Indices are treated as fine-grained (a vertex, a query, an edge):
    /// fan-outs with fewer than [`Executor::MIN_INDICES_PER_WORKER`] indices
    /// per chunk run inline rather than paying dispatch latency.
    pub fn map_indexed<U, F>(&self, n: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        if self.threads <= 1 || n <= 1 {
            return (0..n).map(f).collect();
        }
        let per_worker = self.run_ranges(n, Self::MIN_INDICES_PER_WORKER, |range| {
            range.map(&f).collect::<Vec<U>>()
        });
        let mut out = Vec::with_capacity(n);
        for chunk in per_worker {
            out.extend(chunk);
        }
        out
    }

    /// Splits `0..n` into contiguous chunk ranges, runs `f` once per range,
    /// and returns the per-range results in range order. This is the
    /// primitive behind per-worker accumulators: the caller merges the
    /// returned values in order, which is deterministic as long as the merge
    /// is associative over adjacent ranges.
    ///
    /// Unlike [`Executor::map_indexed`], indices here are treated as
    /// *coarse* units (a whole simulated machine): any `n > 1` fans out.
    pub fn map_ranges<U, F>(&self, n: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(Range<usize>) -> U + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        if self.threads <= 1 {
            return vec![f(0..n)];
        }
        self.run_ranges(n, 1, |range| f(range.start..range.end))
    }

    /// Shared chunked driver over a fresh split of `0..n`.
    fn run_ranges<U, F>(&self, n: usize, min_per_worker: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(Range<usize>) -> U + Sync,
    {
        let spans = self.worker_ranges(n, min_per_worker);
        self.run_chunked(spans.len(), |i| f(spans[i].clone()))
    }

    /// The pre-pool threaded backend, the test oracle of the pool: one fresh
    /// `std::thread::scope` spawn per range, joined in range order.
    /// `scoped_reference_matches_pooled_dispatch` pins the pooled
    /// [`Executor::map_ranges`] to its output.
    #[cfg(test)]
    fn map_ranges_scoped_reference<U, F>(&self, n: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(Range<usize>) -> U + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        if self.threads <= 1 {
            return vec![f(0..n)];
        }
        self.run_spans_scoped(&self.worker_ranges(n, 1), |_w, range| f(range))
    }

    /// Scoped-spawn oracle for [`Executor::map_indexed`] (see
    /// `map_ranges_scoped_reference`).
    #[cfg(test)]
    fn map_indexed_scoped_reference<U, F>(&self, n: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        if self.threads <= 1 || n <= 1 {
            return (0..n).map(f).collect();
        }
        let spans = self.worker_ranges(n, Self::MIN_INDICES_PER_WORKER);
        let per_worker =
            self.run_spans_scoped(&spans, |_w, range| range.map(&f).collect::<Vec<U>>());
        let mut out = Vec::with_capacity(n);
        for chunk in per_worker {
            out.extend(chunk);
        }
        out
    }

    /// The old scoped-thread driver: one spawned OS thread per range, every
    /// fan-out. Only the `*_scoped_reference` oracles call this.
    #[cfg(test)]
    fn run_spans_scoped<U, F>(&self, spans: &[Range<usize>], f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize, Range<usize>) -> U + Sync,
    {
        if spans.len() <= 1 {
            return spans
                .iter()
                .enumerate()
                .map(|(i, r)| f(i, r.clone()))
                .collect();
        }
        let f = &f;
        std::thread::scope(|scope| {
            let handles: Vec<_> = spans
                .iter()
                .enumerate()
                .map(|(i, range)| {
                    let range = range.clone();
                    scope.spawn(move || f(i, range))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("executor worker panicked"))
                .collect()
        })
    }
}

impl Default for Executor {
    fn default() -> Self {
        Executor::sequential()
    }
}

/// Derives a per-stream seed from a master draw and a stream index, using the
/// SplitMix64 finaliser twice so adjacent indices produce unrelated seeds.
///
/// This is the workspace-wide convention for giving every machine / vertex /
/// chunk its own ChaCha8 stream: the caller draws `base` *once* from the
/// master generator (advancing it by the same amount for every backend and
/// thread count), then worker `i` seeds `ChaCha8Rng::seed_from_u64(
/// derive_stream_seed(base, i))`.
pub fn derive_stream_seed(base: u64, index: u64) -> u64 {
    let mut x = base ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^ (x >> 27)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_indexed_preserves_order_across_backends() {
        let n = 1003;
        let sequential = Executor::sequential().map_indexed(n, |i| i * i);
        for threads in [2, 3, 8, 64] {
            let threaded = Executor::threaded(threads).map_indexed(n, |i| i * i);
            assert_eq!(sequential, threaded, "threads={threads}");
        }
    }

    #[test]
    fn map_ranges_covers_the_index_space_exactly_once() {
        for threads in [1, 2, 5, 16] {
            let ranges = Executor::threaded(threads).map_ranges(100, |r| r.collect::<Vec<_>>());
            let flat: Vec<usize> = ranges.into_iter().flatten().collect();
            assert_eq!(flat, (0..100).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn scoped_reference_matches_pooled_dispatch() {
        // The persistent pool (chunk claiming, dynamic stealing) must
        // reproduce the retired one-thread-per-range backend bit for bit on
        // the same split.
        use rand::{Rng, SeedableRng};
        for seed in [3u64, 11, 29] {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let data: Vec<u64> = (0..5000).map(|_| rng.gen()).collect();
            for threads in [1usize, 2, 3, 8] {
                let exec = Executor::threaded(threads);
                // Per-index work with index-derived randomness, as every
                // pipeline fan-out does it.
                let f = |i: usize| derive_stream_seed(data[i], i as u64).rotate_left(i as u32 % 64);
                assert_eq!(
                    exec.map_indexed(5000, f),
                    exec.map_indexed_scoped_reference(5000, f),
                    "map_indexed, seed {seed}, threads {threads}"
                );
                // Per-range accumulators, as the stats/shuffle fan-outs do it.
                let g = |r: Range<usize>| r.map(f).fold(0u64, u64::wrapping_add);
                assert_eq!(
                    exec.map_ranges(5000, g),
                    exec.map_ranges_scoped_reference(5000, g),
                    "map_ranges, seed {seed}, threads {threads}"
                );
                let covered: Vec<usize> = exec
                    .map_ranges_scoped_reference(100, |r| r.collect::<Vec<_>>())
                    .into_iter()
                    .flatten()
                    .collect();
                assert_eq!(covered, (0..100).collect::<Vec<_>>(), "threads {threads}");
            }
        }
    }

    #[test]
    fn worker_spans_oversplit_for_chunk_claiming() {
        // threads=1 keeps one span; threads>1 oversplits up to 4x threads so
        // fast workers can steal chunks; the floor caps the split.
        assert_eq!(Executor::threaded(1).worker_ranges(100, 1).len(), 1);
        assert_eq!(
            Executor::threaded(4).worker_ranges(160, 1).len(),
            4 * CHUNKS_PER_WORKER
        );
        assert_eq!(Executor::threaded(4).worker_ranges(3, 1).len(), 3);
        assert_eq!(Executor::threaded(4).element_spans(100).len(), 1);
        assert_eq!(Executor::threaded(4).element_spans(64 * 9).len(), 9);
    }

    #[test]
    fn map_slices_mut_carves_disjoint_chunks() {
        for threads in [1usize, 4] {
            let exec = Executor::threaded(threads);
            let mut data = vec![0u64; 100];
            let ranges = vec![0..25, 25..60, 60..60, 60..100];
            let lens = exec.map_slices_mut(&mut data, &ranges, |w, chunk| {
                for (j, x) in chunk.iter_mut().enumerate() {
                    *x = (w * 1000 + j) as u64;
                }
                chunk.len()
            });
            assert_eq!(lens, vec![25, 35, 0, 40], "threads={threads}");
            assert_eq!(data[24], 24);
            assert_eq!(data[25], 1000);
            assert_eq!(data[60], 3000);
            assert_eq!(data[99], 3039);
        }
    }

    #[test]
    #[should_panic(expected = "ranges must cover the data exactly")]
    fn map_slices_mut_rejects_ranges_that_stop_short() {
        let mut data = vec![0u8; 10];
        Executor::sequential().map_slices_mut(&mut data, &[0..4, 4..9], |_, _| ());
    }

    #[test]
    fn empty_and_tiny_inputs_are_handled() {
        let exec = Executor::threaded(8);
        assert!(exec.map_indexed(0, |i| i).is_empty());
        assert_eq!(exec.map_indexed(1, |i| i), vec![0]);
        assert!(exec.map_ranges(0, |r| r.len()).is_empty());
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let out = Executor::threaded(32).map_indexed(5, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn resolve_zero_reads_environment() {
        // Can't mutate the environment safely in a test binary that runs
        // threads, so just check explicit resolution paths.
        assert_eq!(Executor::resolve(1).threads(), 1);
        assert_eq!(Executor::resolve(6).threads(), 6);
        assert!(Executor::resolve(0).threads() >= 1);
        assert!(Executor::auto_threads() >= 1);
    }

    #[test]
    fn derived_stream_seeds_are_distinct() {
        let base = 0xDEAD_BEEF;
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(derive_stream_seed(base, i)), "collision at {i}");
        }
        // Different bases give different streams for the same index.
        assert_ne!(derive_stream_seed(1, 0), derive_stream_seed(2, 0));
    }
}
