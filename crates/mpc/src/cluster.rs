//! The model-fidelity layer: simulated machines holding tuples, with
//! map / shuffle / broadcast supersteps that enforce the memory budget.
//!
//! No algorithm in the workspace runs on a [`Cluster`] — the pipeline and the
//! baselines compute on `Graph` + [`Executor`] and charge [`MpcContext`]
//! directly. What does run here are the Goodrich sort / search / dedup
//! [`primitives`](crate::primitives), so that the costs the context charges
//! for them can be checked against a real execution
//! (`tests/mpc_model_invariants.rs`), and the benchmark's `mpc.cluster.*`
//! probes. The job of the layer is *fidelity*: a shuffle really re-partitions
//! tuples by key, really costs one round, and really fails (or records a
//! violation) when some machine would exceed its memory budget.
//!
//! The [`Cluster`] stores its tuples in a **flat arena**: one contiguous
//! `Vec<T>` plus a CSR-style machine-offset table, so machine `i`'s tuples
//! are the slice `arena[offsets[i]..offsets[i + 1]]`. Local ops touch one
//! allocation instead of one per machine, and [`Cluster::shuffle_by_key`] is
//! a two-pass *counting shuffle* (parallel per-worker destination histograms,
//! an exclusive prefix-sum offset table, then a parallel scatter straight
//! into the preallocated output arena) rather than a clone-into-buckets pass.
//! A shuffle whose counting pass proves the routing is the identity
//! permutation (every tuple already sits on its destination machine) skips
//! the scatter and copies the arena as it stands — with the model cost
//! (rounds, words) charged unchanged.
//!
//! Aggregation is sort-based: [`Cluster::reduce_by_key`]'s combiner passes
//! cache each machine's tuple keys once, stably argsort them with an 8-bit
//! radix pass and fold the equal-key runs in one linear scan — no per-machine
//! `HashMap`s. All shuffle and sort scratch (destination tables, per-worker
//! histograms, cursor tables, key caches) lives in the [`MpcContext`] and is
//! reused across successive supersteps, so a steady-state shuffle or
//! reduction allocates only its output. The hash-based aggregation survives
//! verbatim as [`Cluster::reduce_by_key_hashmap`], the executable spec the
//! sort-based path is differentially tested (and benchmarked) against.
//!
//! Per-machine work fans out through the cluster's [`Executor`]: with the
//! threaded backend the simulated machines really do compute concurrently,
//! while the results — tuple order, statistics, errors — stay bit-identical
//! to the sequential backend (see the determinism contract in
//! [`crate::executor`]). The counting shuffle preserves the historical
//! tuple order exactly: within each destination machine, tuples appear in
//! global source order (machine-major), which is what the old
//! bucket-merge-by-worker fan-in produced.

use std::ops::Range;

use crate::arena;
use crate::config::{MpcConfig, MpcError};
use crate::executor::Executor;
use crate::radix::{RadixScratch, ShuffleScratch};
use crate::stats::{MpcContext, WorkerStats};

/// Tuples that carry an intrinsic shuffle key.
///
/// Implemented for `(u64, V)` pairs, the workhorse format of every algorithm
/// in this workspace (key = the vertex or component the tuple is routed to).
pub trait KeyedTuple {
    /// The key the tuple is routed by during a shuffle.
    fn key(&self) -> u64;
}

impl<V> KeyedTuple for (u64, V) {
    fn key(&self) -> u64 {
        self.0
    }
}

/// A set of tuples partitioned across simulated machines, stored as a flat
/// arena plus a machine-offset table.
#[derive(Debug, Clone)]
pub struct Cluster<T> {
    /// All tuples, machine-major: machine `i` owns
    /// `arena[offsets[i]..offsets[i + 1]]`.
    arena: Vec<T>,
    /// CSR-style offsets; `offsets.len() == num_machines + 1`,
    /// `offsets[0] == 0`, non-decreasing, last entry `== arena.len()`.
    offsets: Vec<usize>,
    /// Words per tuple used for memory accounting (default 2: a key and a
    /// value word).
    words_per_tuple: usize,
    /// Backend driving per-machine work; inherited by derived clusters.
    executor: Executor,
}

impl<T> Cluster<T> {
    /// Distributes `tuples` round-robin across `config.num_machines` machines
    /// (the paper assumes the input is distributed adversarially but evenly;
    /// round-robin is the even distribution with no helpful locality). The
    /// cluster adopts the execution backend selected by `config.threads`.
    pub fn from_tuples(config: &MpcConfig, tuples: Vec<T>) -> Self
    where
        T: Send,
    {
        let m = config.num_machines.max(1);
        let n = tuples.len();
        let executor = config.executor();
        // Machine j receives indices j, j + m, j + 2m, …: its count and the
        // arena position of every tuple are closed-form, so the arena is
        // built by one parallel permutation instead of m growing vectors.
        let mut offsets = Vec::with_capacity(m + 1);
        offsets.push(0usize);
        for j in 0..m {
            let count = if j < n % m { n / m + 1 } else { n / m };
            offsets.push(offsets[j] + count);
        }
        let pos: Vec<usize> = (0..n).map(|i| offsets[i % m] + i / m).collect();
        Cluster {
            arena: arena::permute_owned(&executor, tuples, &pos),
            offsets,
            words_per_tuple: 2,
            executor,
        }
    }

    /// Overrides the number of words each tuple is charged for.
    pub fn with_words_per_tuple(mut self, words: usize) -> Self {
        self.words_per_tuple = words.max(1);
        self
    }

    /// Builds a cluster directly from explicit per-machine partitions.
    /// Used by tests and the primitives in [`crate::primitives`]; not itself
    /// an MPC operation (no rounds are charged). Runs on the sequential
    /// backend unless [`Cluster::with_executor`] is applied.
    pub fn from_partitions(machines: Vec<Vec<T>>) -> Self {
        let mut offsets = Vec::with_capacity(machines.len() + 1);
        offsets.push(0usize);
        for m in &machines {
            offsets.push(offsets.last().unwrap() + m.len());
        }
        let mut arena = Vec::with_capacity(*offsets.last().unwrap());
        for m in machines {
            arena.extend(m);
        }
        Cluster {
            arena,
            offsets,
            words_per_tuple: 2,
            executor: Executor::sequential(),
        }
    }

    /// Builds a cluster directly from a flat arena and its machine-offset
    /// table (`offsets.len() == machines + 1`, starting at 0, non-decreasing
    /// and ending at `arena.len()`). The zero-copy counterpart of
    /// [`Cluster::from_partitions`]; not an MPC operation.
    ///
    /// # Panics
    ///
    /// Panics if the offset table is malformed.
    pub fn from_arena(arena: Vec<T>, offsets: Vec<usize>) -> Self {
        assert!(
            offsets.first() == Some(&0) && offsets.last() == Some(&arena.len()),
            "offsets must start at 0 and end at the arena length"
        );
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be non-decreasing"
        );
        Cluster {
            arena,
            offsets,
            words_per_tuple: 2,
            executor: Executor::sequential(),
        }
    }

    /// Overrides the execution backend driving per-machine work.
    pub fn with_executor(mut self, executor: Executor) -> Self {
        self.executor = executor;
        self
    }

    /// The execution backend this cluster's supersteps run on.
    pub fn executor(&self) -> Executor {
        self.executor.clone()
    }

    /// Words each tuple is charged for in memory accounting.
    pub fn words_per_tuple(&self) -> usize {
        self.words_per_tuple
    }

    /// Number of simulated machines.
    pub fn num_machines(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of tuples across all machines.
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// Returns `true` if the cluster holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// The tuples currently resident on machine `i` (a zero-copy slice of
    /// the arena).
    pub fn machine(&self, i: usize) -> &[T] {
        &self.arena[self.offsets[i]..self.offsets[i + 1]]
    }

    /// The machine-offset table: machine `i` owns arena positions
    /// `offsets()[i]..offsets()[i + 1]`.
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The largest per-machine load, in words.
    pub fn max_load_words(&self) -> usize {
        self.offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) * self.words_per_tuple)
            .max()
            .unwrap_or(0)
    }

    /// Collects all tuples into one vector (an *inspection* helper for tests
    /// and drivers — not an MPC operation, hence no context argument). With
    /// the arena layout this is free: the arena *is* the machine-order
    /// concatenation.
    pub fn gather(self) -> Vec<T> {
        self.arena
    }

    /// Applies `f` to every tuple locally, in parallel over arena chunks.
    /// Local computation is free in the MPC model, so no rounds are charged.
    pub fn map_local<U, F>(&self, f: F) -> Cluster<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        Cluster {
            arena: self
                .executor
                .map_indexed(self.arena.len(), |i| f(&self.arena[i])),
            offsets: self.offsets.clone(),
            words_per_tuple: self.words_per_tuple,
            executor: self.executor.clone(),
        }
    }

    /// Applies `f` to every tuple locally, producing zero or more outputs per
    /// input. Free, like [`Cluster::map_local`].
    pub fn flat_map_local<U, I, F>(&self, f: F) -> Cluster<U>
    where
        T: Sync,
        U: Send,
        I: IntoIterator<Item = U>,
        F: Fn(&T) -> I + Sync,
    {
        let parts = self
            .executor
            .map_indexed(self.num_machines(), |m| -> Vec<U> {
                self.machine(m).iter().flat_map(&f).collect()
            });
        self.rebuild_from_machine_parts(parts)
    }

    /// Drops tuples not satisfying `keep`. Free (local).
    pub fn filter_local<F>(&self, keep: F) -> Cluster<T>
    where
        T: Clone + Send + Sync,
        F: Fn(&T) -> bool + Sync,
    {
        let parts = self
            .executor
            .map_indexed(self.num_machines(), |m| -> Vec<T> {
                self.machine(m)
                    .iter()
                    .filter(|t| keep(t))
                    .cloned()
                    .collect()
            });
        self.rebuild_from_machine_parts(parts)
    }

    /// In-place variant of [`Cluster::filter_local`]: compacts the arena with
    /// a single stable pass (no allocation, no clones), updating the offset
    /// table to the surviving counts. The predicate runs sequentially in
    /// arena order, so it may carry state (`FnMut`) — the dedup primitive
    /// uses this to drop run-continuation duplicates.
    pub fn filter_local_in_place<F>(&mut self, mut keep: F)
    where
        F: FnMut(&T) -> bool,
    {
        let m = self.num_machines();
        let mut kept = vec![0usize; m];
        let mut idx = 0usize;
        let mut machine = 0usize;
        let offsets = &self.offsets;
        self.arena.retain(|t| {
            while idx >= offsets[machine + 1] {
                machine += 1;
            }
            idx += 1;
            let keep_it = keep(t);
            if keep_it {
                kept[machine] += 1;
            }
            keep_it
        });
        let mut offsets = Vec::with_capacity(m + 1);
        offsets.push(0usize);
        for k in kept {
            offsets.push(offsets.last().unwrap() + k);
        }
        self.offsets = offsets;
    }

    /// Stitches per-machine output vectors (one per machine, in machine
    /// order) into a fresh cluster sharing this one's accounting and backend.
    fn rebuild_from_machine_parts<U>(&self, parts: Vec<Vec<U>>) -> Cluster<U> {
        Cluster::from_partitions(parts)
            .with_words_per_tuple(self.words_per_tuple)
            .with_executor(self.executor.clone())
    }

    /// The counting pass of the two-pass counting shuffle: computes each
    /// tuple's destination machine, the per-worker exclusive-prefix-sum
    /// write cursors, and the output machine-offset table.
    ///
    /// Workers own contiguous runs of whole source machines; each records
    /// its tuples' destinations plus a destination histogram — both written
    /// straight into `scratch` buffers reused across shuffles on the same
    /// context, so a steady-state shuffle allocates only its output arena.
    /// The histograms fold into the output offset table (destination-major)
    /// and per-worker cursors (worker-major within a destination), so the
    /// scatter pass that follows places tuples in exactly the historical
    /// order: within a destination machine, global source order. The cached
    /// destinations also mean the scatter never recomputes `key(t)`.
    fn counting_shuffle_plan<F>(&self, key: &F, scratch: &mut ShuffleScratch) -> ShufflePlan
    where
        T: Sync,
        F: Fn(&T) -> u64 + Sync,
    {
        let n = self.arena.len();
        let m = self.num_machines().max(1);
        if n == 0 {
            scratch.dests.clear();
            scratch.cursors.clear();
            return ShufflePlan {
                ranges: Vec::new(),
                dest_offsets: vec![0; m + 1],
            };
        }
        let worker_machines = self.executor.worker_spans(self.num_machines());
        let ranges: Vec<Range<usize>> = worker_machines
            .iter()
            .map(|r| self.offsets[r.start]..self.offsets[r.end])
            .collect();
        let workers = ranges.len();
        let arena = &self.arena;
        // Pass 1: destinations + per-worker histograms, one sweep filling
        // both scratch tables (disjoint chunks / rows per worker).
        scratch.dests.clear();
        scratch.dests.resize(n, 0);
        scratch.histograms.clear();
        scratch.histograms.resize(workers * m, 0);
        let hist_ranges: Vec<Range<usize>> = (0..workers).map(|w| w * m..(w + 1) * m).collect();
        self.executor.map_slices_mut_pair(
            &mut scratch.dests,
            &ranges,
            &mut scratch.histograms,
            &hist_ranges,
            |w, chunk, histogram| {
                let start = ranges[w].start;
                for (j, slot) in chunk.iter_mut().enumerate() {
                    let dest = (splitmix64(key(&arena[start + j])) % m as u64) as usize;
                    *slot = dest;
                    histogram[dest] += 1;
                }
            },
        );
        // Exclusive prefix sums: destination-major, worker-major within a
        // destination — the write cursor of worker `w` for destination `d`
        // starts where the previous workers' `d`-tuples end.
        let mut dest_offsets = vec![0usize; m + 1];
        for w in 0..workers {
            for (slot, &h) in dest_offsets[1..]
                .iter_mut()
                .zip(&scratch.histograms[w * m..(w + 1) * m])
            {
                *slot += h;
            }
        }
        let mut acc = 0usize;
        for slot in dest_offsets.iter_mut() {
            acc += *slot;
            *slot = acc;
        }
        scratch.cursors.clear();
        scratch.cursors.resize(workers * m, 0);
        for (d, &base) in dest_offsets[..m].iter().enumerate() {
            let mut acc = base;
            for w in 0..workers {
                scratch.cursors[w * m + d] = acc;
                acc += scratch.histograms[w * m + d];
            }
        }
        ShufflePlan {
            ranges,
            dest_offsets,
        }
    }

    /// Returns `true` iff every tuple's planned destination is the machine
    /// it already occupies. In that case the stable counting scatter is the
    /// identity permutation — destination-major grouping equals the current
    /// machine-major grouping, and within each machine "global source order"
    /// is the current order — so the arena can be reused as-is. The *model*
    /// cost is unchanged (the round and the traffic are still charged: in
    /// the MPC model every machine still sends its tuples, the simulator
    /// just skips re-materialising an arena it can prove is bit-identical;
    /// see DESIGN.md §8).
    fn plan_is_identity(&self, dests: &[usize]) -> bool {
        self.offsets
            .windows(2)
            .enumerate()
            .all(|(machine, w)| dests[w[0]..w[1]].iter().all(|&d| d == machine))
    }

    /// One communication superstep: re-partitions every tuple to machine
    /// `hash(key) % num_machines`, so that all tuples sharing a key land on
    /// the same machine. Charges exactly one round and `len()` tuples of
    /// traffic, and enforces the per-machine memory budget on the result.
    ///
    /// Implemented as a two-pass counting shuffle (see
    /// [`Cluster::counting_shuffle_plan`]) followed by one parallel scatter
    /// that clones each tuple straight into its final arena position — no
    /// intermediate per-worker bucket vectors. Destination loads are checked
    /// through [`WorkerStats`] in machine order, so the result — including
    /// which machine a strict-mode overflow reports — is identical on every
    /// backend.
    ///
    /// # Errors
    ///
    /// Returns [`MpcError::MemoryExceeded`] in strict mode if any destination
    /// machine would exceed its budget.
    pub fn shuffle_by_key<F>(&self, ctx: &mut MpcContext, key: F) -> Result<Cluster<T>, MpcError>
    where
        T: Clone + Send + Sync,
        F: Fn(&T) -> u64 + Sync,
    {
        let mut scratch = ctx.take_scratch();
        let plan = self.counting_shuffle_plan(&key, &mut scratch);
        let m = self.num_machines().max(1);
        let arena = if self.plan_is_identity(&scratch.dests) {
            debug_assert_eq!(plan.dest_offsets, self.offsets);
            self.arena.clone()
        } else {
            arena::scatter_cloned(
                &self.executor,
                &self.arena,
                &scratch.dests,
                &plan.ranges,
                &mut scratch.cursors,
                m,
            )
        };
        ctx.restore_scratch(scratch);
        // Charge the round — model words at `words_per_tuple`, host bytes at
        // the size of the representation that actually crosses the simulated
        // wire — and check every destination machine's load, in machine
        // order.
        ctx.charge_shuffle_with_bytes(
            self.arena.len() * self.words_per_tuple,
            self.arena.len() * std::mem::size_of::<T>(),
        );
        let budget = ctx.config().memory_per_machine;
        let mut loads = WorkerStats::new();
        loads.record_span_loads(&plan.dest_offsets, self.words_per_tuple, budget);
        let check = ctx.absorb_workers([loads]);
        let result = Cluster {
            arena,
            offsets: plan.dest_offsets,
            words_per_tuple: self.words_per_tuple,
            executor: self.executor.clone(),
        };
        check.map(|()| result)
    }

    /// Shuffle followed by a per-key reduction: tuples with equal keys are
    /// folded with `fold` starting from `init(key)`, and partial accumulators
    /// from different machines are merged with `combine`.
    ///
    /// To stay within machine memory even when one key is very frequent, a
    /// *combiner* pass pre-aggregates locally before the shuffle (the
    /// standard MapReduce optimisation); the shuffle therefore moves at most
    /// one partial accumulator per (machine, key) pair. Charges one round.
    ///
    /// The combiner is **sort-based**: each machine's tuple keys are cached
    /// once, stably argsorted with an 8-bit radix pass
    /// ([`RadixScratch`]), and the equal-key runs folded with one linear
    /// scan — no per-machine `HashMap`, and all sort buffers are reused
    /// across machines, workers and successive calls on the same context.
    /// Partials are emitted key-sorted per machine, so the returned pairs
    /// are in a deterministic order (grouped by destination machine,
    /// first-seen order within each group) on every backend, run-to-run,
    /// and bit-identical to the retained hash-based reference
    /// ([`Cluster::reduce_by_key_hashmap`]).
    ///
    /// # Errors
    ///
    /// Returns [`MpcError::MemoryExceeded`] in strict mode if a destination
    /// machine would exceed its budget.
    pub fn reduce_by_key<A, K, I, FO>(
        &self,
        ctx: &mut MpcContext,
        key: K,
        init: I,
        fold: FO,
        combine: impl FnMut(&mut A, A),
    ) -> Result<Vec<(u64, A)>, MpcError>
    where
        T: Sync,
        A: Clone + Send,
        K: Fn(&T) -> u64 + Sync,
        I: Fn(u64) -> A + Sync,
        FO: Fn(&mut A, &T) + Sync,
    {
        let executor = self.executor.clone();
        let worker_machines = executor.worker_spans(self.num_machines());
        let mut scratch = ctx.take_scratch();
        let combined: Vec<Vec<(u64, A)>> = {
            // Local combiner pass (free: purely local computation). Workers
            // own contiguous machine runs; worker `w` locks only radix slot
            // `w`, so the scratch pool is contention-free.
            let pool = scratch.radix_pool(worker_machines.len());
            let nested: Vec<Vec<Vec<(u64, A)>>> =
                executor.run_spans(&worker_machines, |w, machines| {
                    let mut radix = pool[w].lock().expect("radix scratch lock");
                    machines
                        .map(|mi| {
                            combine_machine_radix(self.machine(mi), &key, &init, &fold, &mut radix)
                        })
                        .collect()
                });
            nested.into_iter().flatten().collect()
        };
        let result = route_and_merge_partials(
            ctx,
            self.num_machines(),
            self.words_per_tuple,
            combined,
            combine,
            &mut scratch,
        );
        ctx.restore_scratch(scratch);
        result
    }

    /// The hash-based `reduce_by_key` this crate used before the sort-based
    /// combiner landed, retained verbatim as the **executable specification**:
    /// differential tests (`tests/cluster_properties.rs`) assert
    /// [`Cluster::reduce_by_key`] against it. Output and statistics are
    /// bit-identical; only the aggregation machinery differs.
    ///
    /// # Errors
    ///
    /// Returns [`MpcError::MemoryExceeded`] in strict mode if a destination
    /// machine would exceed its budget.
    pub fn reduce_by_key_hashmap<A, K, I, FO>(
        &self,
        ctx: &mut MpcContext,
        key: K,
        init: I,
        fold: FO,
        combine: impl FnMut(&mut A, A),
    ) -> Result<Vec<(u64, A)>, MpcError>
    where
        T: Sync,
        A: Clone + Send,
        K: Fn(&T) -> u64 + Sync,
        I: Fn(u64) -> A + Sync,
        FO: Fn(&mut A, &T) + Sync,
    {
        // Local combiner pass, one machine per work unit.
        let combined: Vec<Vec<(u64, A)>> = self.executor.map_indexed(self.num_machines(), |mi| {
            combine_machine_hashmap(
                self.machine(mi).iter(),
                &|t: &&T| key(t),
                &init,
                |acc: &mut A, t: &T| fold(acc, t),
            )
        });
        route_and_merge_partials_hashmap(
            ctx,
            self.num_machines(),
            self.words_per_tuple,
            combined,
            combine,
        )
    }
}

/// The communication half shared by both `reduce_by_key` variants: routes
/// each machine's key-sorted partials to `hash(key) % m`, checks destination
/// loads, and merges equal keys in first-seen order.
///
/// Sort-based: partials are counting-sorted into destination buckets (one
/// flat allocation, arrival order preserved), then each bucket is radix
/// argsorted by key and its equal-key runs combined with a linear scan. The
/// output reproduces the hash-based reference exactly: buckets in machine
/// order, and within a bucket the merged keys in order of first appearance,
/// each folded in arrival order.
fn route_and_merge_partials<A>(
    ctx: &mut MpcContext,
    num_machines: usize,
    words_per_tuple: usize,
    combined: Vec<Vec<(u64, A)>>,
    mut combine: impl FnMut(&mut A, A),
    scratch: &mut ShuffleScratch,
) -> Result<Vec<(u64, A)>, MpcError> {
    let total: usize = combined.iter().map(Vec::len).sum();
    // Bytes reflect the actual partial-accumulator representation; the
    // hash-based spec below charges identically, keeping the differential
    // contract (`stats equal`) intact.
    ctx.charge_shuffle_with_bytes(
        total * words_per_tuple,
        total * std::mem::size_of::<(u64, A)>(),
    );
    let m = num_machines.max(1);

    // Counting pass: destination of every partial (cached — the scatter
    // below does not re-hash) and per-destination counts.
    let counts = &mut scratch.histograms;
    counts.clear();
    counts.resize(m, 0);
    scratch.dests.clear();
    scratch.dests.reserve(total);
    for machine in &combined {
        for (k, _) in machine {
            let dest = (splitmix64(*k) % m as u64) as usize;
            scratch.dests.push(dest);
            counts[dest] += 1;
        }
    }
    let offsets = &mut scratch.cursors;
    offsets.clear();
    offsets.push(0);
    let mut acc = 0usize;
    for &c in counts.iter() {
        acc += c;
        offsets.push(acc);
    }

    let budget = ctx.config().memory_per_machine;
    let mut loads = WorkerStats::new();
    for (d, &c) in counts.iter().enumerate() {
        loads.record_machine_load(d, c * words_per_tuple, budget);
    }
    ctx.absorb_workers([loads])?;

    // Scatter pass: stable counting sort by destination, reusing `counts`
    // as the running write cursors. `Option` wrapping lets the merge below
    // move accumulators out in radix order.
    counts.copy_from_slice(&offsets[..m]);
    let mut routed: Vec<Option<(u64, A)>> = Vec::with_capacity(total);
    routed.resize_with(total, || None);
    let mut idx = 0usize;
    for machine in combined {
        for (k, a) in machine {
            let dest = scratch.dests[idx];
            idx += 1;
            routed[counts[dest]] = Some((k, a));
            counts[dest] += 1;
        }
    }

    // Merge pass, bucket by bucket: argsort the bucket's keys, combine each
    // equal-key run in arrival order (the stable sort keeps it), then emit
    // the runs ordered by first appearance — exactly the reference order.
    if scratch.radix.is_empty() {
        scratch.radix.push(Default::default());
    }
    let mut radix = scratch.radix[0].lock().expect("radix scratch lock");
    let mut out: Vec<(u64, A)> = Vec::new();
    let mut merged: Vec<(usize, (u64, A))> = Vec::new();
    for d in 0..m {
        let (lo, hi) = (offsets[d], offsets[d + 1]);
        let len = hi - lo;
        radix.argsort_by(len, |i| routed[lo + i].as_ref().expect("routed slot").0);
        merged.clear();
        let mut pos = 0usize;
        while pos < len {
            let k = radix.sorted_key(pos);
            let first = radix.order()[pos];
            let (_, seed) = routed[lo + first].take().expect("first of run");
            let mut acc = seed;
            pos += 1;
            while pos < len && radix.sorted_key(pos) == k {
                let (_, a) = routed[lo + radix.order()[pos]].take().expect("run member");
                combine(&mut acc, a);
                pos += 1;
            }
            merged.push((first, (k, acc)));
        }
        merged.sort_unstable_by_key(|&(first, _)| first);
        out.extend(merged.drain(..).map(|(_, pair)| pair));
    }
    Ok(out)
}

/// The hash-based communication half retained for
/// [`Cluster::reduce_by_key_hashmap`].
fn route_and_merge_partials_hashmap<A>(
    ctx: &mut MpcContext,
    num_machines: usize,
    words_per_tuple: usize,
    combined: Vec<Vec<(u64, A)>>,
    mut combine: impl FnMut(&mut A, A),
) -> Result<Vec<(u64, A)>, MpcError> {
    use std::collections::HashMap;
    let total: usize = combined.iter().map(Vec::len).sum();
    ctx.charge_shuffle_with_bytes(
        total * words_per_tuple,
        total * std::mem::size_of::<(u64, A)>(),
    );
    let m = num_machines.max(1);
    let mut partials: Vec<Vec<(u64, A)>> = (0..m).map(|_| Vec::new()).collect();
    for machine in combined {
        for (k, a) in machine {
            let dest = (splitmix64(k) % m as u64) as usize;
            partials[dest].push((k, a));
        }
    }
    let budget = ctx.config().memory_per_machine;
    let mut loads = WorkerStats::new();
    for (i, bucket) in partials.iter().enumerate() {
        loads.record_machine_load(i, bucket.len() * words_per_tuple, budget);
    }
    ctx.absorb_workers([loads])?;
    let mut out = Vec::new();
    for bucket in partials {
        // First-seen order (deterministic) with O(1) expected lookups: the
        // HashMap only indexes into the order-preserving Vec, so its
        // iteration order never leaks into the output.
        let mut index: HashMap<u64, usize> = HashMap::new();
        let mut merged: Vec<(u64, A)> = Vec::new();
        for (k, a) in bucket {
            match index.entry(k) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    combine(&mut merged[*e.get()].1, a)
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(merged.len());
                    merged.push((k, a));
                }
            }
        }
        out.extend(merged);
    }
    Ok(out)
}

/// One machine's sort-based combiner pass: caches the tuples' keys, stably
/// radix-argsorts them, and folds each equal-key run (in arrival order) with
/// one linear scan. Returns the per-key accumulators key-sorted — the same
/// output, bit for bit, as [`combine_machine_hashmap`].
fn combine_machine_radix<T, A, K, I, FO>(
    tuples: &[T],
    key: &K,
    init: &I,
    fold: &FO,
    radix: &mut RadixScratch,
) -> Vec<(u64, A)>
where
    K: Fn(&T) -> u64,
    I: Fn(u64) -> A,
    FO: Fn(&mut A, &T),
{
    let n = tuples.len();
    radix.argsort_by(n, |i| key(&tuples[i]));
    let mut out: Vec<(u64, A)> = Vec::new();
    let mut pos = 0usize;
    while pos < n {
        let k = radix.sorted_key(pos);
        let mut acc = init(k);
        while pos < n && radix.sorted_key(pos) == k {
            fold(&mut acc, &tuples[radix.order()[pos]]);
            pos += 1;
        }
        out.push((k, acc));
    }
    out
}

/// One machine's hash-based combiner pass (the retained reference): folds
/// its tuples into per-key accumulators and returns them key-sorted (sorting
/// removes the HashMap's iteration-order nondeterminism from the output).
fn combine_machine_hashmap<T, A, K, I>(
    tuples: impl Iterator<Item = T>,
    key: &K,
    init: &I,
    mut fold: impl FnMut(&mut A, T),
) -> Vec<(u64, A)>
where
    K: Fn(&T) -> u64,
    I: Fn(u64) -> A,
{
    use std::collections::HashMap;
    let mut local: HashMap<u64, A> = HashMap::new();
    for t in tuples {
        let k = key(&t);
        let acc = local.entry(k).or_insert_with(|| init(k));
        fold(acc, t);
    }
    let mut pairs: Vec<(u64, A)> = local.into_iter().collect();
    pairs.sort_unstable_by_key(|&(k, _)| k);
    pairs
}

/// The output of [`Cluster::counting_shuffle_plan`]: everything the scatter
/// pass needs that does not already live in the reused
/// [`ShuffleScratch`] (per-tuple destinations and the worker-major cursor
/// table stay there).
struct ShufflePlan {
    /// Contiguous per-worker arena ranges (machine-aligned), matching the
    /// scratch cursor rows index-for-index.
    ranges: Vec<Range<usize>>,
    /// Output machine-offset table (owned: it becomes the result cluster's
    /// offset table).
    dest_offsets: Vec<usize>,
}

/// A cheap 64-bit mixer (SplitMix64 finaliser) used to map keys to machines.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MpcConfig;

    fn small_config() -> MpcConfig {
        MpcConfig {
            memory_per_machine: 64,
            num_machines: 8,
            delta: 0.5,
            strict_memory: true,
            threads: 1,
        }
    }

    #[test]
    fn tuples_distribute_evenly() {
        let cfg = small_config();
        let cluster = Cluster::from_tuples(&cfg, (0u64..80).map(|i| (i, i)).collect());
        assert_eq!(cluster.num_machines(), 8);
        assert_eq!(cluster.len(), 80);
        for i in 0..8 {
            assert_eq!(cluster.machine(i).len(), 10);
        }
        assert_eq!(cluster.max_load_words(), 20);
    }

    #[test]
    fn round_robin_layout_matches_historical_order() {
        // Machine j must hold tuples j, j + m, j + 2m, … in increasing order
        // (the order the Vec<Vec<T>> layout produced).
        let cfg = small_config();
        let cluster = Cluster::from_tuples(&cfg, (0u64..30).map(|i| (i, ())).collect());
        for j in 0..8usize {
            let expected: Vec<u64> = (j as u64..30).step_by(8).collect();
            let got: Vec<u64> = cluster.machine(j).iter().map(|t| t.0).collect();
            assert_eq!(got, expected, "machine {j}");
        }
    }

    #[test]
    fn shuffle_colocates_equal_keys_and_charges_one_round() {
        let cfg = small_config();
        let mut ctx = MpcContext::new(cfg);
        let tuples: Vec<(u64, u64)> = (0..100).map(|i| (i % 10, i)).collect();
        let cluster = Cluster::from_tuples(&cfg, tuples);
        let shuffled = cluster.shuffle_by_key(&mut ctx, |t| t.0).unwrap();
        assert_eq!(ctx.stats().total_rounds(), 1);
        assert_eq!(shuffled.len(), 100);
        // Each key must live on exactly one machine.
        for key in 0..10u64 {
            let machines_with_key: usize = (0..shuffled.num_machines())
                .filter(|&m| shuffled.machine(m).iter().any(|t| t.0 == key))
                .count();
            assert_eq!(machines_with_key, 1, "key {key} split across machines");
        }
    }

    #[test]
    fn shuffle_is_bit_identical_across_backends() {
        let tuples: Vec<(u64, u64)> = (0..500).map(|i| (i % 37, i)).collect();
        let mut outputs = Vec::new();
        let mut stats = Vec::new();
        for threads in [1usize, 2, 8] {
            let cfg = MpcConfig::with_memory(2048, 512).with_threads(threads);
            let mut ctx = MpcContext::new(cfg);
            let cluster = Cluster::from_tuples(&cfg, tuples.clone());
            let shuffled = cluster.shuffle_by_key(&mut ctx, |t| t.0).unwrap();
            let machines: Vec<Vec<(u64, u64)>> = (0..shuffled.num_machines())
                .map(|m| shuffled.machine(m).to_vec())
                .collect();
            outputs.push(machines);
            stats.push(ctx.into_stats());
        }
        assert_eq!(
            outputs[0], outputs[1],
            "threaded(2) diverged from sequential"
        );
        assert_eq!(
            outputs[0], outputs[2],
            "threaded(8) diverged from sequential"
        );
        assert_eq!(stats[0], stats[1]);
        assert_eq!(stats[0], stats[2]);
    }

    #[test]
    fn shuffle_detects_memory_overflow_on_skewed_keys() {
        // All tuples share one key, so one machine must hold everything.
        let cfg = MpcConfig {
            memory_per_machine: 32,
            num_machines: 4,
            delta: 0.5,
            strict_memory: true,
            threads: 1,
        };
        let mut ctx = MpcContext::new(cfg);
        let tuples: Vec<(u64, u64)> = (0..100).map(|i| (7, i)).collect();
        let cluster = Cluster::from_tuples(&cfg, tuples);
        let err = cluster.shuffle_by_key(&mut ctx, |t| t.0).unwrap_err();
        assert!(matches!(err, MpcError::MemoryExceeded { .. }));
        // The threaded backend reports the same overflow.
        let cfg4 = cfg.with_threads(4);
        let mut ctx4 = MpcContext::new(cfg4);
        let cluster4 = Cluster::from_tuples(&cfg4, (0..100u64).map(|i| (7u64, i)).collect());
        let err4 = cluster4.shuffle_by_key(&mut ctx4, |t| t.0).unwrap_err();
        assert_eq!(err, err4);
        // Permissive mode records the violation instead.
        let loose = cfg.permissive();
        let mut ctx2 = MpcContext::new(loose);
        let cluster2 = Cluster::from_tuples(&loose, (0..100u64).map(|i| (7u64, i)).collect());
        assert!(cluster2.shuffle_by_key(&mut ctx2, |t| t.0).is_ok());
        assert!(ctx2.stats().memory_violations() > 0);
    }

    #[test]
    fn map_and_filter_are_free() {
        let cfg = small_config();
        let ctx = MpcContext::new(cfg);
        let cluster = Cluster::from_tuples(&cfg, (0u64..50).map(|i| (i, i)).collect());
        let doubled = cluster.map_local(|t| (t.0, t.1 * 2));
        let even = doubled.filter_local(|t| t.1 % 4 == 0);
        assert_eq!(ctx.stats().total_rounds(), 0);
        assert_eq!(doubled.len(), 50);
        assert_eq!(even.len(), 25);
    }

    #[test]
    fn local_ops_match_across_backends() {
        let cfg = small_config();
        let tuples: Vec<(u64, u64)> = (0..200).map(|i| (i % 13, i)).collect();
        let seq = Cluster::from_tuples(&cfg, tuples.clone());
        let par = Cluster::from_tuples(&cfg.with_threads(4), tuples);
        let a = seq
            .map_local(|t| (t.0, t.1 + 1))
            .flat_map_local(|t| vec![*t, (t.0, t.1 * 2)])
            .filter_local(|t| t.1 % 3 != 0)
            .gather();
        let b = par
            .map_local(|t| (t.0, t.1 + 1))
            .flat_map_local(|t| vec![*t, (t.0, t.1 * 2)])
            .filter_local(|t| t.1 % 3 != 0)
            .gather();
        assert_eq!(a, b);
    }

    #[test]
    fn filter_local_in_place_keeps_machine_boundaries_consistent() {
        let cfg = small_config();
        let mut cluster = Cluster::from_tuples(&cfg, (0u64..100).map(|i| (i, i)).collect());
        let expected = cluster.filter_local(|t| t.1 % 3 == 0);
        cluster.filter_local_in_place(|t| t.1 % 3 == 0);
        assert_eq!(cluster.offsets(), expected.offsets());
        assert_eq!(cluster.gather(), expected.gather());
    }

    #[test]
    fn flat_map_can_expand_tuples() {
        let cfg = small_config();
        let cluster = Cluster::from_tuples(&cfg, vec![(1u64, 1u64), (2, 2)]);
        let expanded = cluster.flat_map_local(|t| vec![(t.0, t.1), (t.0, t.1 + 10)]);
        assert_eq!(expanded.len(), 4);
    }

    #[test]
    fn reduce_by_key_counts_correctly() {
        let cfg = small_config();
        let mut ctx = MpcContext::new(cfg);
        let tuples: Vec<(u64, u64)> = (0..90).map(|i| (i % 3, 1)).collect();
        let cluster = Cluster::from_tuples(&cfg, tuples);
        let mut counts = cluster
            .reduce_by_key(
                &mut ctx,
                |t| t.0,
                |_| 0u64,
                |acc, t| *acc += t.1,
                |acc, b| *acc += b,
            )
            .unwrap();
        counts.sort_unstable();
        assert_eq!(counts, vec![(0, 30), (1, 30), (2, 30)]);
        assert_eq!(ctx.stats().total_rounds(), 1);
    }

    #[test]
    fn reduce_by_key_matches_across_backends_without_sorting() {
        let tuples: Vec<(u64, u64)> = (0..400).map(|i| (i % 23, 1)).collect();
        let mut results = Vec::new();
        for threads in [1usize, 4] {
            let cfg = MpcConfig::with_memory(2048, 512).with_threads(threads);
            let mut ctx = MpcContext::new(cfg);
            let cluster = Cluster::from_tuples(&cfg, tuples.clone());
            let counts = cluster
                .reduce_by_key(
                    &mut ctx,
                    |t| t.0,
                    |_| 0u64,
                    |acc, t| *acc += t.1,
                    |acc, b| *acc += b,
                )
                .unwrap();
            results.push(counts);
        }
        // Not merely the same multiset: the *order* must match too.
        assert_eq!(results[0], results[1]);
    }

    #[test]
    fn radix_reduce_matches_hashmap_reference_exactly() {
        // The sort-based aggregation must reproduce the retained hash-based
        // reference bit for bit: same pairs, same order, same stats — on
        // skewed, uniform and single-key workloads, at 1 and 4 threads.
        let workloads: Vec<Vec<(u64, u64)>> = vec![
            (0..1000).map(|i| (i % 37, i)).collect(),
            (0..1000).map(|i| (i * i % 1000, i)).collect(),
            (0..500).map(|_| (42, 1)).collect(),
            Vec::new(),
            // Keys spanning high bytes exercise the later radix passes.
            (0..800).map(|i| ((i % 13) << 48 | (i % 7), i)).collect(),
        ];
        for tuples in workloads {
            for threads in [1usize, 4] {
                let cfg = MpcConfig::with_memory(1 << 14, 512).with_threads(threads);
                let mut ctx_radix = MpcContext::new(cfg);
                let mut ctx_hash = MpcContext::new(cfg);
                let radix = Cluster::from_tuples(&cfg, tuples.clone())
                    .reduce_by_key(
                        &mut ctx_radix,
                        |t| t.0,
                        |k| k,
                        |acc, t| *acc = acc.wrapping_add(t.1),
                        |acc, b| *acc = acc.wrapping_mul(31).wrapping_add(b),
                    )
                    .unwrap();
                let hash = Cluster::from_tuples(&cfg, tuples.clone())
                    .reduce_by_key_hashmap(
                        &mut ctx_hash,
                        |t| t.0,
                        |k| k,
                        |acc, t| *acc = acc.wrapping_add(t.1),
                        |acc, b| *acc = acc.wrapping_mul(31).wrapping_add(b),
                    )
                    .unwrap();
                assert_eq!(radix, hash, "threads={threads}");
                assert_eq!(ctx_radix.into_stats(), ctx_hash.into_stats());
            }
        }
    }

    #[test]
    fn scratch_reuse_across_shuffles_changes_nothing() {
        // Run several shuffles and reductions back-to-back on ONE context
        // (scratch reused) and compare each against a fresh-context run
        // (scratch cold): outputs and per-call stats must be identical.
        let cfg = MpcConfig::with_memory(1 << 14, 256)
            .permissive()
            .with_threads(4);
        let mut warm = MpcContext::new(cfg);
        for round in 0..4u64 {
            let tuples: Vec<(u64, u64)> = (0..1500)
                .map(|i| ((i * (round + 3)) % (11 + 60 * round), i))
                .collect();
            let mut cold = MpcContext::new(cfg);
            let warm_before = warm.stats().clone();
            let a = Cluster::from_tuples(&cfg, tuples.clone())
                .shuffle_by_key(&mut warm, |t| t.0)
                .unwrap();
            let b = Cluster::from_tuples(&cfg, tuples.clone())
                .shuffle_by_key(&mut cold, |t| t.0)
                .unwrap();
            assert_eq!(a.offsets(), b.offsets(), "round {round}");
            assert_eq!(a.gather(), b.gather(), "round {round}");
            let mut cold2 = MpcContext::new(cfg);
            let ra = Cluster::from_tuples(&cfg, tuples.clone())
                .reduce_by_key(
                    &mut warm,
                    |t| t.0,
                    |_| 0u64,
                    |a, t| *a += t.1,
                    |a, b| *a += b,
                )
                .unwrap();
            let rb = Cluster::from_tuples(&cfg, tuples)
                .reduce_by_key(
                    &mut cold2,
                    |t| t.0,
                    |_| 0u64,
                    |a, t| *a += t.1,
                    |a, b| *a += b,
                )
                .unwrap();
            assert_eq!(ra, rb, "round {round}");
            // The warm context charged exactly what the two cold ones did.
            let warm_after = warm.stats();
            assert_eq!(
                warm_after.total_rounds() - warm_before.total_rounds(),
                cold.stats().total_rounds() + cold2.stats().total_rounds()
            );
        }
    }

    #[test]
    fn reduce_by_key_with_skew_stays_within_budget_via_combiners() {
        // 1000 tuples all with the same key but spread over machines: the
        // combiner collapses them to one partial per machine, so no overflow.
        let cfg = MpcConfig {
            memory_per_machine: 64,
            num_machines: 16,
            delta: 0.5,
            strict_memory: true,
            threads: 1,
        };
        let mut ctx = MpcContext::new(cfg);
        let cluster = Cluster::from_tuples(&cfg, (0..1000u64).map(|_| (5u64, 1u64)).collect());
        let counts = cluster
            .reduce_by_key(
                &mut ctx,
                |t| t.0,
                |_| 0u64,
                |acc, t| *acc += t.1,
                |acc, b| *acc += b,
            )
            .unwrap();
        assert_eq!(counts, vec![(5, 1000)]);
    }

    #[test]
    fn keyed_tuple_trait_for_pairs() {
        let t = (42u64, "payload");
        assert_eq!(t.key(), 42);
    }

    #[test]
    fn gather_returns_everything() {
        let cfg = small_config();
        let cluster = Cluster::from_tuples(&cfg, (0u64..33).map(|i| (i, ())).collect());
        let mut all: Vec<u64> = cluster.gather().into_iter().map(|t| t.0).collect();
        all.sort_unstable();
        assert_eq!(all, (0..33u64).collect::<Vec<_>>());
    }

    #[test]
    fn from_arena_round_trips_through_partitions() {
        let a = Cluster::from_partitions(vec![vec![1u64, 2], vec![], vec![3]]);
        let b = Cluster::from_arena(vec![1u64, 2, 3], vec![0, 2, 2, 3]);
        assert_eq!(a.num_machines(), b.num_machines());
        for m in 0..3 {
            assert_eq!(a.machine(m), b.machine(m));
        }
        assert_eq!(a.offsets(), b.offsets());
    }

    #[test]
    #[should_panic(expected = "offsets must start at 0")]
    fn from_arena_rejects_bad_offsets() {
        let _ = Cluster::from_arena(vec![1u64, 2, 3], vec![0, 2]);
    }

    #[test]
    fn empty_cluster_shuffles_to_empty() {
        let cfg = small_config();
        let mut ctx = MpcContext::new(cfg);
        let cluster = Cluster::from_tuples(&cfg, Vec::<(u64, u64)>::new());
        let shuffled = cluster.shuffle_by_key(&mut ctx, |t| t.0).unwrap();
        assert!(shuffled.is_empty());
        assert_eq!(shuffled.num_machines(), 8);
        assert_eq!(ctx.stats().total_rounds(), 1);
    }
}
