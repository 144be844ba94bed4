//! The persistent worker pool behind [`Executor`](crate::Executor)'s
//! threaded backend.
//!
//! The original threaded backend spawned fresh `std::thread::scope` threads
//! for *every* fan-out, so a pipeline run with thousands of supersteps paid
//! thread spawn + join latency thousands of times. This module replaces
//! that with workers that are spawned **once** per pool — lazily, on the
//! first threaded dispatch — and then park on a condvar between fan-outs. A
//! fan-out becomes: publish one job pointer, bump an epoch counter, wake the
//! parked workers.
//!
//! ## Handoff protocol
//!
//! Shared state is one mutex-guarded `EpochState` (`epoch`, `job`,
//! `active`, `shutdown`) plus two condvars: `work` (workers park here) and
//! `done` (the dispatcher waits here). A dispatch runs under a per-pool
//! dispatch lock (one epoch in flight at a time) and proceeds:
//!
//! 1. The dispatcher publishes `job = Some(ptr)` — a raw pointer to a
//!    stack-allocated chunk-claiming closure — bumps `epoch`, and wakes
//!    workers.
//! 2. Every participant (each woken worker, and the dispatching thread
//!    itself) runs the same closure: claim the next chunk index from an
//!    atomic cursor, execute it, place the result in that chunk's slot,
//!    repeat until the cursor is exhausted. A worker increments `active`
//!    (under the lock) *before* touching the job pointer and decrements it
//!    after.
//! 3. When the dispatcher's own claiming loop ends, it clears `job` (so no
//!    late-waking worker can grab the dead pointer) and waits on `done`
//!    until `active == 0`. Only then does the dispatch return and the
//!    closure's stack frame die — that wait is what makes the borrowed job
//!    pointer sound (see the safety comment on `JobPtr`).
//!
//! Each worker runs a given epoch at most once (it remembers the last epoch
//! it joined), and a worker that wakes after the job was cleared simply
//! parks again, so the protocol cannot deadlock on spurious wakeups.
//!
//! ## Determinism
//!
//! Which thread claims which chunk is timing-dependent, but every chunk's
//! *result* is placed by chunk index and read back in index order, and the
//! chunk split itself ([`Executor::element_spans`](crate::Executor::element_spans))
//! depends only on `n` and the thread count — so outputs are bit-identical
//! regardless of scheduling, which is the same contract the scoped backend
//! obeyed. Anything order-sensitive still happens on the dispatching thread
//! after the index-ordered fan-in.
//!
//! ## Panics
//!
//! A chunk closure that panics does not deadlock the pool: the panic payload
//! is captured (first panicking chunk wins), the cursor is exhausted so no
//! further chunks start, the epoch completes normally, and the payload is
//! re-raised on the *dispatching* thread via `resume_unwind`. The pool
//! remains usable afterwards.

use std::any::Any;
use std::cell::Cell;
use std::collections::HashMap;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;

use serde::Serialize;

/// How many chunks the chunked scheduler splits a fan-out into, per worker
/// thread. Oversubscribing the split (4 chunks per worker rather than 1)
/// lets fast workers claim extra chunks when per-chunk work is skewed —
/// e.g. per-machine tuple counts after an uneven shuffle — instead of
/// idling behind the slowest worker. Results are placed by chunk index, so
/// the stealing is invisible in the output.
pub const CHUNKS_PER_WORKER: usize = 4;

/// A point-in-time snapshot of a pool's telemetry counters (or of the
/// process-wide totals, via
/// [`Executor::process_pool_telemetry`](crate::Executor::process_pool_telemetry)).
/// All counters are cumulative since pool (or process) start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct PoolTelemetry {
    /// OS threads ever spawned by the pool. Stays equal to the pool's
    /// thread count forever after the first threaded dispatch — that
    /// constancy is the proof that fan-outs reuse parked workers instead of
    /// spawning.
    pub spawned_threads: u64,
    /// Workers currently alive (spawned and not yet exited). Drops to zero
    /// when the owning [`Executor`](crate::Executor)'s last clone is
    /// dropped, which joins the workers.
    pub live_workers: u64,
    /// Fan-outs dispatched through the pool (one per threaded
    /// `map_*` call that engaged more than one chunk).
    pub dispatches: u64,
    /// Total chunks across all dispatches.
    pub chunks_dispatched: u64,
    /// Chunks executed by a parked pool worker rather than the dispatching
    /// thread itself (the dispatcher participates in its own fan-out, so on
    /// a single core this is usually near zero — the dispatcher drains the
    /// cursor before the wakeups land).
    pub chunks_stolen: u64,
    /// Times a worker went to sleep on the work condvar.
    pub parks: u64,
    /// Times a worker woke up and joined an epoch.
    pub unparks: u64,
}

/// The telemetry counters, updated with relaxed atomics (they order nothing;
/// the handoff protocol synchronises through the state mutex).
#[derive(Debug, Default)]
pub(crate) struct Counters {
    spawned_threads: AtomicU64,
    live_workers: AtomicU64,
    dispatches: AtomicU64,
    chunks_dispatched: AtomicU64,
    chunks_stolen: AtomicU64,
    parks: AtomicU64,
    unparks: AtomicU64,
}

impl Counters {
    fn add(&self, field: impl Fn(&Counters) -> &AtomicU64, delta: u64) {
        field(self).fetch_add(delta, Ordering::Relaxed);
        field(&GLOBAL_COUNTERS).fetch_add(delta, Ordering::Relaxed);
    }

    fn sub(&self, field: impl Fn(&Counters) -> &AtomicU64, delta: u64) {
        field(self).fetch_sub(delta, Ordering::Relaxed);
        field(&GLOBAL_COUNTERS).fetch_sub(delta, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> PoolTelemetry {
        PoolTelemetry {
            spawned_threads: self.spawned_threads.load(Ordering::Relaxed),
            live_workers: self.live_workers.load(Ordering::Relaxed),
            dispatches: self.dispatches.load(Ordering::Relaxed),
            chunks_dispatched: self.chunks_dispatched.load(Ordering::Relaxed),
            chunks_stolen: self.chunks_stolen.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
            unparks: self.unparks.load(Ordering::Relaxed),
        }
    }
}

/// Process-wide totals across every pool that ever existed, so `wcc --json`
/// can report the whole run's dispatch behaviour without threading a handle
/// through every algorithm layer.
static GLOBAL_COUNTERS: Counters = Counters {
    spawned_threads: AtomicU64::new(0),
    live_workers: AtomicU64::new(0),
    dispatches: AtomicU64::new(0),
    chunks_dispatched: AtomicU64::new(0),
    chunks_stolen: AtomicU64::new(0),
    parks: AtomicU64::new(0),
    unparks: AtomicU64::new(0),
};

/// Snapshot of the process-wide counters.
pub(crate) fn global_snapshot() -> PoolTelemetry {
    GLOBAL_COUNTERS.snapshot()
}

/// A live, pool-keeping-nothing-alive handle onto one pool's counters.
/// Obtained via
/// [`Executor::pool_telemetry_probe`](crate::Executor::pool_telemetry_probe);
/// the lifecycle tests use it to observe `live_workers` dropping to zero
/// *after* the executor (and with it the pool) has been dropped.
#[derive(Debug, Clone)]
pub struct PoolProbe(pub(crate) Arc<Counters>);

impl PoolProbe {
    /// Current counter values.
    pub fn snapshot(&self) -> PoolTelemetry {
        self.0.snapshot()
    }
}

/// The erased job: a raw pointer to the dispatcher's stack-allocated
/// chunk-claiming closure (`arg` is `true` when the caller is a parked pool
/// worker, for the `chunks_stolen` counter).
///
/// # Safety
///
/// The pointee lives on the dispatching thread's stack for the duration of
/// [`WorkerPool::run_epoch`]. It is only ever dereferenced by a worker that
/// incremented `active` under the state lock while the job was still
/// published, and `run_epoch` does not return before (a) clearing the job —
/// so no new worker can grab it — and (b) waiting for `active == 0` — so
/// every worker that did grab it has finished. The pointer therefore never
/// outlives its pointee. `Send`/`Sync` are asserted for exactly this
/// protocol-bounded use.
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn(bool) + Sync));

#[allow(unsafe_code)]
unsafe impl Send for JobPtr {}
#[allow(unsafe_code)]
unsafe impl Sync for JobPtr {}

/// Mutex-guarded handoff state (see the module docs for the protocol).
struct EpochState {
    /// Bumped once per dispatch; a worker joins an epoch at most once.
    epoch: u64,
    /// The published job, cleared by the dispatcher before its frame dies.
    job: Option<JobPtr>,
    /// Workers currently executing the published job.
    active: usize,
    /// Set once, by [`WorkerPool::drop`]; workers exit their loop.
    shutdown: bool,
}

struct Shared {
    state: Mutex<EpochState>,
    /// Workers park here between epochs.
    work: Condvar,
    /// The dispatcher waits here for `active == 0`.
    done: Condvar,
    counters: Arc<Counters>,
}

thread_local! {
    /// `true` while this thread is executing inside a pool epoch (as the
    /// dispatcher or as a worker). A dispatch attempted from such a thread
    /// runs inline instead — nested fan-outs stay correct (and deterministic)
    /// without the handoff protocol having to support epoch re-entrancy.
    static IN_POOL_CONTEXT: Cell<bool> = const { Cell::new(false) };
}

/// `true` if the current thread is already inside a pool epoch.
pub(crate) fn in_pool_context() -> bool {
    IN_POOL_CONTEXT.with(Cell::get)
}

/// Sets the in-epoch marker for the duration of a scope (reset on drop, so
/// a panicking chunk cannot leave the flag stuck).
struct PoolContextGuard;

impl PoolContextGuard {
    fn enter() -> Self {
        IN_POOL_CONTEXT.with(|flag| flag.set(true));
        PoolContextGuard
    }
}

impl Drop for PoolContextGuard {
    fn drop(&mut self) {
        IN_POOL_CONTEXT.with(|flag| flag.set(false));
    }
}

/// A persistent set of parked worker threads. Owned (via `Arc`) by every
/// clone of the [`Executor`](crate::Executor) that created it; dropping the
/// last owner shuts the workers down and joins them.
pub(crate) struct WorkerPool {
    threads: usize,
    shared: Arc<Shared>,
    /// Serialises dispatches: one epoch in flight per pool at a time (two
    /// user threads sharing a pool queue behind each other rather than
    /// corrupting the single job slot).
    dispatch: Mutex<()>,
    /// Worker join handles; empty until the first dispatch spawns them.
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl WorkerPool {
    pub(crate) fn new(threads: usize) -> Self {
        WorkerPool {
            threads,
            shared: Arc::new(Shared {
                state: Mutex::new(EpochState {
                    epoch: 0,
                    job: None,
                    active: 0,
                    shutdown: false,
                }),
                work: Condvar::new(),
                done: Condvar::new(),
                counters: Arc::new(Counters::default()),
            }),
            dispatch: Mutex::new(()),
            handles: Mutex::new(Vec::new()),
        }
    }

    pub(crate) fn counters(&self) -> Arc<Counters> {
        Arc::clone(&self.shared.counters)
    }

    /// Spawns the workers if this is the first dispatch. Called with the
    /// dispatch lock held, so the check-then-spawn cannot race.
    fn ensure_spawned(&self) {
        let mut handles = self.handles.lock().expect("pool handle table poisoned");
        if !handles.is_empty() {
            return;
        }
        let counters = &self.shared.counters;
        counters.add(|c| &c.spawned_threads, self.threads as u64);
        counters.add(|c| &c.live_workers, self.threads as u64);
        for i in 0..self.threads {
            let shared = Arc::clone(&self.shared);
            let handle = std::thread::Builder::new()
                .name(format!("wcc-pool-{i}"))
                .spawn(move || worker_loop(shared))
                .expect("cannot spawn pool worker");
            handles.push(handle);
        }
    }

    /// Runs `g` once per chunk index in `0..n`, claiming chunks dynamically
    /// across the parked workers and the calling thread, and returns the
    /// results in chunk-index order. Panics from `g` are re-raised here, on
    /// the calling thread, after the epoch has fully quiesced.
    pub(crate) fn run_chunks<U, G>(&self, n: usize, g: G) -> Vec<U>
    where
        U: Send,
        G: Fn(usize) -> U + Sync,
    {
        // One slot per chunk; each chunk index is claimed exactly once, so
        // each slot is written at most once. `Mutex<Option<U>>` (rather than
        // raw disjoint writes) keeps this file's unsafe surface confined to
        // the job pointer; the per-chunk lock is uncontended by construction
        // and amortised over a whole chunk of real work.
        let results: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        let counters = &self.shared.counters;
        let task = |is_worker: bool| {
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                if is_worker {
                    counters.add(|c| &c.chunks_stolen, 1);
                }
                match catch_unwind(AssertUnwindSafe(|| g(i))) {
                    Ok(value) => {
                        *results[i].lock().expect("chunk slot poisoned") = Some(value);
                    }
                    Err(payload) => {
                        first_panic
                            .lock()
                            .expect("panic slot poisoned")
                            .get_or_insert(payload);
                        // Exhaust the cursor: no further chunks start, the
                        // epoch winds down, the payload re-raises below.
                        cursor.store(n, Ordering::Relaxed);
                        break;
                    }
                }
            }
        };
        self.run_epoch(n, &task);
        if let Some(payload) = first_panic.into_inner().expect("panic slot poisoned") {
            resume_unwind(payload);
        }
        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("chunk slot poisoned")
                    .expect("every chunk was claimed and completed")
            })
            .collect()
    }

    /// One epoch of the handoff protocol (module docs): publish, wake,
    /// participate, quiesce.
    fn run_epoch(&self, chunks: usize, task: &(dyn Fn(bool) + Sync)) {
        let _dispatch = self.dispatch.lock().expect("pool dispatch lock poisoned");
        self.ensure_spawned();
        let counters = &self.shared.counters;
        counters.add(|c| &c.dispatches, 1);
        counters.add(|c| &c.chunks_dispatched, chunks as u64);
        // SAFETY: pure lifetime erasure — the borrowed closure is published
        // as a `'static`-typed raw pointer, but the protocol (FinishGuard
        // below: clear job, wait for `active == 0`) guarantees no worker
        // holds the pointer after this function returns, i.e. within the
        // real lifetime of `task`. See `JobPtr`.
        #[allow(unsafe_code)]
        let erased: &'static (dyn Fn(bool) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(bool) + Sync), &'static (dyn Fn(bool) + Sync)>(task)
        };
        {
            let mut st = self.shared.state.lock().expect("pool state poisoned");
            st.epoch = st.epoch.wrapping_add(1);
            st.job = Some(JobPtr(erased as *const (dyn Fn(bool) + Sync)));
        }
        // The dispatcher claims chunks too, so it only needs helpers for
        // the chunks it cannot take first.
        if chunks > self.threads {
            self.shared.work.notify_all();
        } else {
            for _ in 0..chunks.saturating_sub(1) {
                self.shared.work.notify_one();
            }
        }
        // Quiesce even if `task` somehow unwinds (it catches chunk panics
        // itself, but the job pointer's soundness must not depend on that).
        struct FinishGuard<'a>(&'a Shared);
        impl Drop for FinishGuard<'_> {
            fn drop(&mut self) {
                let mut st = self.0.state.lock().expect("pool state poisoned");
                st.job = None;
                while st.active > 0 {
                    st = self.0.done.wait(st).expect("pool state poisoned");
                }
            }
        }
        let finish = FinishGuard(&self.shared);
        {
            let _ctx = PoolContextGuard::enter();
            task(false);
        }
        drop(finish);
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("pool state poisoned");
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        let handles =
            std::mem::take(&mut *self.handles.lock().expect("pool handle table poisoned"));
        for handle in handles {
            // A worker's loop body cannot panic (chunk panics are caught in
            // `run_chunks`), so join errors are not expected; propagating
            // one from Drop would abort, so record nothing and move on.
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: Arc<Shared>) {
    let counters = Arc::clone(&shared.counters);
    let mut last_seen_epoch = 0u64;
    let mut st = shared.state.lock().expect("pool state poisoned");
    loop {
        if st.shutdown {
            break;
        }
        if let Some(job) = st.job {
            if st.epoch != last_seen_epoch {
                last_seen_epoch = st.epoch;
                st.active += 1;
                drop(st);
                counters.add(|c| &c.unparks, 1);
                {
                    let _ctx = PoolContextGuard::enter();
                    // SAFETY: `job` was published in the state mutex and we
                    // incremented `active` under that same lock before
                    // dereferencing; the dispatcher's `FinishGuard` waits for
                    // `active == 0` before the pointee's frame dies (see
                    // `JobPtr`). The closure never unwinds (chunk panics are
                    // caught inside it), so `active` is always decremented.
                    #[allow(unsafe_code)]
                    unsafe {
                        (*job.0)(true);
                    }
                }
                st = shared.state.lock().expect("pool state poisoned");
                st.active -= 1;
                if st.active == 0 {
                    shared.done.notify_all();
                }
                continue;
            }
        }
        counters.add(|c| &c.parks, 1);
        st = shared.work.wait(st).expect("pool state poisoned");
    }
    drop(st);
    counters.sub(|c| &c.live_workers, 1);
}

/// Shared-pool registry: executors resolved independently but with the same
/// thread count (an `MpcContext` and a `Cluster` built from the same config,
/// say) reuse one pool instead of spawning workers each. Entries are weak —
/// the registry keeps no pool alive, so dropping the last owning executor
/// still joins the workers. [`Executor::with_private_pool`]
/// (crate::Executor::with_private_pool) bypasses this registry for tests
/// that must observe one pool exclusively.
static REGISTRY: Mutex<Option<HashMap<usize, Weak<WorkerPool>>>> = Mutex::new(None);

/// Fetches (or creates) the shared pool for `threads` workers.
pub(crate) fn obtain_shared(threads: usize) -> Arc<WorkerPool> {
    let mut guard = REGISTRY.lock().expect("pool registry poisoned");
    let registry = guard.get_or_insert_with(HashMap::new);
    if let Some(pool) = registry.get(&threads).and_then(Weak::upgrade) {
        return pool;
    }
    let pool = Arc::new(WorkerPool::new(threads));
    registry.insert(threads, Arc::downgrade(&pool));
    pool
}

/// Splits `0..n` into `chunks` contiguous, ascending, disjoint ranges
/// covering it exactly (the last ranges may be one shorter). Shared by the
/// executor's span computation; deterministic in its arguments.
pub(crate) fn split_ranges(n: usize, chunks: usize) -> Vec<Range<usize>> {
    let chunks = chunks.clamp(1, n.max(1));
    let chunk = n.div_ceil(chunks).max(1);
    (0..chunks)
        .map(|c| (c * chunk).min(n)..((c + 1) * chunk).min(n))
        .filter(|r| !r.is_empty())
        .collect()
}
