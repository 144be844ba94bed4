//! The model-fidelity layer: simulated machines holding tuples, with
//! map / shuffle / reduce supersteps that enforce the memory budget.
//!
//! No algorithm in the workspace runs on a [`Cluster`] — the pipeline and the
//! baselines compute on `Graph` + [`Executor`] and charge [`MpcContext`]
//! directly. What does run here are the Goodrich sort / search / dedup
//! [`primitives`](crate::primitives), so that the costs the context charges
//! for them can be checked against a real execution
//! (`tests/mpc_model_invariants.rs`), and the benchmark's `mpc.cluster.*`
//! probes. The job of the layer is *fidelity*: a shuffle really re-partitions
//! tuples by key, really costs one round, and really fails (or records a
//! violation) when some machine would exceed its memory budget. Its speed
//! appears in no theorem and in no end-to-end metric, so every superstep is
//! written as its own specification: one obvious pass, no second
//! implementation to keep in step.
//!
//! The [`Cluster`] stores its tuples in a **flat arena**: one contiguous
//! `Vec<T>` plus a CSR-style machine-offset table, so machine `i`'s tuples
//! are the slice `arena[offsets[i]..offsets[i + 1]]`.
//! [`Cluster::shuffle_by_key`] is a sequential stable bucket pass: within
//! each destination machine, tuples appear in global source order
//! (machine-major). [`Cluster::reduce_by_key`] pre-aggregates per machine
//! with an [`IdMap`] (emitted key-sorted, so the map's iteration order never
//! reaches the output), routes the partials and merges equal keys in
//! first-seen order.
//!
//! Local per-machine work (`map_local`, `flat_map_local`, `filter_local`, the
//! reduce's combiner pass) fans out through the cluster's [`Executor`]; the
//! results — tuple order, statistics, errors — are bit-identical on every
//! backend (see the determinism contract in [`crate::executor`]).

use std::collections::hash_map::Entry;

use wcc_graph::IdMap;

use crate::config::{MpcConfig, MpcError};
use crate::executor::Executor;
use crate::stats::MpcContext;

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
    pub fn from_tuples(config: &MpcConfig, tuples: Vec<T>) -> Self {
        let m = config.num_machines.max(1);
        let mut machines: Vec<Vec<T>> = (0..m).map(|_| Vec::new()).collect();
        for (i, t) in tuples.into_iter().enumerate() {
            machines[i % m].push(t);
        }
        Cluster::from_partitions(machines).with_executor(config.executor())
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

    /// Every machine's load in words, in machine order.
    pub(crate) fn load_words(&self) -> impl Iterator<Item = usize> + '_ {
        self.offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) * self.words_per_tuple)
    }

    /// The largest per-machine load, in words.
    pub fn max_load_words(&self) -> usize {
        self.load_words().max().unwrap_or(0)
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

    /// One communication superstep: re-partitions every tuple to machine
    /// `hash(key) % num_machines`, so that all tuples sharing a key land on
    /// the same machine. Charges exactly one round and `len()` tuples of
    /// traffic — also when every tuple already sits on its destination, since
    /// in the model each machine still sends its tuples — and enforces the
    /// per-machine memory budget on the result.
    ///
    /// A sequential stable bucket pass over the arena: within a destination
    /// machine, tuples keep global source order (machine-major).
    ///
    /// # Errors
    ///
    /// Returns [`MpcError::MemoryExceeded`] in strict mode if any destination
    /// machine would exceed its budget, naming the lowest-index one.
    pub fn shuffle_by_key<F>(&self, ctx: &mut MpcContext, key: F) -> Result<Cluster<T>, MpcError>
    where
        T: Clone,
        F: Fn(&T) -> u64,
    {
        let m = self.num_machines().max(1);
        let mut buckets: Vec<Vec<T>> = (0..m).map(|_| Vec::new()).collect();
        for t in &self.arena {
            buckets[destination(key(t), m)].push(t.clone());
        }
        ctx.charge_shuffle(self.arena.len() * self.words_per_tuple);
        let result = self.rebuild_from_machine_parts(buckets);
        ctx.record_machine_loads(result.load_words())?;
        Ok(result)
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
    /// The returned pairs are in a deterministic order on every backend,
    /// run-to-run: grouped by destination machine, first-seen order within
    /// each group (partials arrive source-machine-major, key-sorted per
    /// source machine), each key's partials combined in arrival order.
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
        mut combine: impl FnMut(&mut A, A),
    ) -> Result<Vec<(u64, A)>, MpcError>
    where
        T: Sync,
        A: Clone + Send,
        K: Fn(&T) -> u64 + Sync,
        I: Fn(u64) -> A + Sync,
        FO: Fn(&mut A, &T) + Sync,
    {
        // Local combiner pass (free: purely local), one machine per work
        // unit. Sorting by key keeps the map's iteration order out of the
        // output.
        let combined: Vec<Vec<(u64, A)>> = self.executor.map_indexed(self.num_machines(), |mi| {
            let mut local: IdMap<u64, A> = IdMap::default();
            for t in self.machine(mi) {
                let k = key(t);
                fold(local.entry(k).or_insert_with(|| init(k)), t);
            }
            let mut pairs: Vec<(u64, A)> = local.into_iter().collect();
            pairs.sort_unstable_by_key(|&(k, _)| k);
            pairs
        });

        // Communication half: route every partial to `hash(key) % m`.
        let total: usize = combined.iter().map(Vec::len).sum();
        ctx.charge_shuffle(total * self.words_per_tuple);
        let m = self.num_machines().max(1);
        let mut partials: Vec<Vec<(u64, A)>> = (0..m).map(|_| Vec::new()).collect();
        for (k, a) in combined.into_iter().flatten() {
            partials[destination(k, m)].push((k, a));
        }
        ctx.record_machine_loads(partials.iter().map(|b| b.len() * self.words_per_tuple))?;

        let mut out = Vec::new();
        for bucket in partials {
            // The map only indexes into the order-preserving Vec, so the
            // merged keys come out in first-seen order.
            let mut index: IdMap<u64, usize> = IdMap::default();
            let mut merged: Vec<(u64, A)> = Vec::new();
            for (k, a) in bucket {
                match index.entry(k) {
                    Entry::Occupied(e) => combine(&mut merged[*e.get()].1, a),
                    Entry::Vacant(e) => {
                        e.insert(merged.len());
                        merged.push((k, a));
                    }
                }
            }
            out.extend(merged);
        }
        Ok(out)
    }
}

/// The machine a key is routed to: a SplitMix64 finaliser (a cheap 64-bit
/// mixer) reduced modulo the machine count.
fn destination(key: u64, machines: usize) -> usize {
    let mut x = key.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    ((x ^ (x >> 31)) % machines as u64) as usize
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

    fn three_machines(memory_per_machine: usize) -> MpcConfig {
        MpcConfig {
            memory_per_machine,
            num_machines: 3,
            delta: 0.5,
            strict_memory: true,
            threads: 1,
        }
    }

    #[test]
    fn shuffle_order_on_a_hand_written_three_machine_fixture() {
        // Keys 3 and 7 hash to machine 0, key 0 to machine 1, key 1 to
        // machine 2. Within a destination, tuples keep global source order:
        // machine 0's tuples first, then machine 1's, then machine 2's.
        let cluster = Cluster::from_partitions(vec![
            vec![(1u64, 'a'), (3, 'b'), (0, 'c')],
            vec![(3, 'd'), (1, 'e')],
            vec![(0, 'f'), (7, 'g'), (1, 'h')],
        ]);
        let mut ctx = MpcContext::new(three_machines(64));
        let shuffled = cluster.shuffle_by_key(&mut ctx, |t| t.0).unwrap();
        assert_eq!(shuffled.machine(0), [(3, 'b'), (3, 'd'), (7, 'g')]);
        assert_eq!(shuffled.machine(1), [(0, 'c'), (0, 'f')]);
        assert_eq!(shuffled.machine(2), [(1, 'a'), (1, 'e'), (1, 'h')]);
        assert_eq!(shuffled.offsets(), [0, 3, 5, 8]);
        let stats = ctx.into_stats();
        assert_eq!(stats.total_rounds(), 1);
        assert_eq!(stats.total_communication_words(), 16);
        assert_eq!(stats.max_machine_load_words(), 6);
    }

    #[test]
    fn strict_overflow_names_the_lowest_overflowing_machine() {
        // Budget 4 words = 2 tuples. Machine 0 receives one tuple (fits),
        // machine 1 three (6 words) and machine 2 four (8 words): the error
        // names machine 1, and both violations and the largest load are on
        // record by the time it is raised.
        let keys = [1u64, 0, 1, 3, 0, 1, 0, 1];
        for threads in [1usize, 4] {
            let cfg = three_machines(4).with_threads(threads);
            let cluster = Cluster::from_tuples(&cfg, keys.iter().map(|&k| (k, ())).collect());
            let mut ctx = MpcContext::new(cfg);
            let err = cluster.shuffle_by_key(&mut ctx, |t| t.0).unwrap_err();
            assert_eq!(
                err,
                MpcError::MemoryExceeded {
                    machine: 1,
                    required: 6,
                    budget: 4
                }
            );
            assert_eq!(ctx.stats().memory_violations(), 2);
            assert_eq!(ctx.stats().max_machine_load_words(), 8);
        }
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
