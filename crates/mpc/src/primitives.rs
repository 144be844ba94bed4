//! The standard MPC primitives of Goodrich–Sitchinava–Zhang that the paper
//! relies on (Section 2, "Sort and search in the MPC model"): parallel sort
//! and parallel search in `O(log_s N)` rounds, plus the small helpers built
//! on them (deduplication, counting by key).
//!
//! These run on the [`Cluster`] execution layer and charge
//! their documented round cost against an [`MpcContext`];
//! higher-level algorithms that do not need a faithful execution can charge
//! the same costs directly via [`MpcContext::charge_sort`] and
//! [`MpcContext::charge_search`].

use crate::cluster::Cluster;
use crate::config::MpcError;
use crate::stats::MpcContext;

/// Sorts all tuples of the cluster globally: after the call, machine `i`
/// holds a contiguous run of the sorted order and runs are ordered by
/// machine index.
///
/// Charges `⌈log_s N⌉` rounds (the cost of the Goodrich sample-sort the
/// paper cites) and verifies that the balanced output respects the memory
/// budget.
///
/// On the threaded backend each simulated machine key-sorts its tuples
/// concurrently and the runs are folded together by a stable left-preferring
/// merge — which is exactly the order a stable sort of the concatenated
/// machines produces, so the output is identical on every backend.
///
/// # Errors
///
/// Returns [`MpcError::MemoryExceeded`] if an output machine would exceed its
/// memory budget.
pub fn distributed_sort<T, K, F>(
    cluster: &Cluster<T>,
    ctx: &mut MpcContext,
    sort_key: F,
) -> Result<Cluster<T>, MpcError>
where
    T: Clone + Send + Sync,
    K: Ord + Send,
    F: Fn(&T) -> K + Sync,
{
    let n = cluster.len();
    ctx.charge_sort(n);
    let executor = cluster.executor();
    // Per-machine local sorts, decorated with their keys (computed once, in
    // the worker that owns the machine).
    let mut runs: Vec<Vec<(K, T)>> = executor.map_indexed(cluster.num_machines(), |m| {
        let mut run: Vec<(K, T)> = cluster
            .machine(m)
            .iter()
            .map(|t| (sort_key(t), t.clone()))
            .collect();
        run.sort_by(|a, b| a.0.cmp(&b.0));
        run
    });
    // Stable fold of adjacent runs (left preferred on ties) — equivalent to
    // a stable sort of the machine-order concatenation. O(n log m) on the
    // calling thread; the O(n log n) local sorts above carry the parallelism.
    while runs.len() > 1 {
        let mut next = Vec::with_capacity(runs.len().div_ceil(2));
        let mut iter = runs.into_iter();
        while let Some(left) = iter.next() {
            match iter.next() {
                Some(right) => next.push(merge_stable(left, right)),
                None => next.push(left),
            }
        }
        runs = next;
    }
    let all: Vec<T> = runs
        .pop()
        .unwrap_or_default()
        .into_iter()
        .map(|(_, t)| t)
        .collect();
    // Redistribute contiguous runs: with the flat arena the sorted vector
    // *is* the output storage — only the offset table (even chunks) is
    // computed, and the load accounting walks its spans.
    let machines = cluster.num_machines().max(1);
    let chunk = n.div_ceil(machines).max(1);
    let offsets: Vec<usize> = (0..=machines).map(|i| (i * chunk).min(n)).collect();
    let sorted = Cluster::from_arena(all, offsets)
        .with_words_per_tuple(cluster.words_per_tuple())
        .with_executor(executor);
    ctx.record_machine_loads(sorted.load_words())?;
    Ok(sorted)
}

/// Stable two-way merge preferring the left run on equal keys.
fn merge_stable<K: Ord, T>(left: Vec<(K, T)>, right: Vec<(K, T)>) -> Vec<(K, T)> {
    let mut out = Vec::with_capacity(left.len() + right.len());
    let mut l = left.into_iter().peekable();
    let mut r = right.into_iter().peekable();
    loop {
        match (l.peek(), r.peek()) {
            (Some(a), Some(b)) => {
                if a.0 <= b.0 {
                    out.push(l.next().expect("peeked"));
                } else {
                    out.push(r.next().expect("peeked"));
                }
            }
            (Some(_), None) => out.push(l.next().expect("peeked")),
            (None, Some(_)) => out.push(r.next().expect("peeked")),
            (None, None) => break,
        }
    }
    out
}

/// Parallel search (Goodrich): annotates every query key with the value
/// stored for it in `data`, or `None` if the key is absent. Queries are
/// answered concurrently on the context's backend.
///
/// Charges `⌈log_s(|data| + |queries|)⌉` rounds.
pub fn distributed_search<K, V>(
    data: &[(K, V)],
    queries: &[K],
    ctx: &mut MpcContext,
) -> Vec<Option<V>>
where
    K: Ord + Clone + Sync,
    V: Clone + Send + Sync,
{
    ctx.charge_search(data.len(), queries.len());
    let mut sorted: Vec<(K, V)> = data.to_vec();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));
    ctx.executor().map_indexed(queries.len(), |i| {
        sorted
            .binary_search_by(|probe| probe.0.cmp(&queries[i]))
            .ok()
            .map(|j| sorted[j].1.clone())
    })
}

/// Removes duplicate tuples (by a key projection) across the whole cluster.
/// Implemented as a sort followed by a local adjacent-deduplication, so it
/// charges one sort.
///
/// # Errors
///
/// Returns [`MpcError::MemoryExceeded`] if the sorted intermediate would
/// exceed a machine's budget.
pub fn distributed_dedup<T, K, F>(
    cluster: &Cluster<T>,
    ctx: &mut MpcContext,
    dedup_key: F,
) -> Result<Cluster<T>, MpcError>
where
    T: Clone + Send + Sync,
    K: Ord + Clone + Send,
    F: Fn(&T) -> K + Sync,
{
    let mut sorted = distributed_sort(cluster, ctx, &dedup_key)?;
    // Local dedup on each machine plus dropping a leading duplicate that
    // continues the previous machine's run (purely local + one exchanged
    // boundary tuple, which we fold into the sort's charge). The in-place
    // filter compacts the arena without reallocating.
    let mut last_key: Option<K> = None;
    sorted.filter_local_in_place(|t| {
        let k = dedup_key(t);
        if last_key.as_ref() != Some(&k) {
            last_key = Some(k);
            true
        } else {
            false
        }
    });
    Ok(sorted)
}

/// Counts tuples per key across the cluster. One round (combiner-based
/// aggregation).
///
/// # Errors
///
/// Returns [`MpcError::MemoryExceeded`] if the per-machine partial counts
/// exceed a machine's budget.
pub fn count_by_key<T, F>(
    cluster: &Cluster<T>,
    ctx: &mut MpcContext,
    key: F,
) -> Result<Vec<(u64, u64)>, MpcError>
where
    T: Clone + Sync,
    F: Fn(&T) -> u64 + Sync,
{
    cluster.reduce_by_key(ctx, key, |_| 0u64, |acc, _| *acc += 1, |acc, b| *acc += b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MpcConfig;

    fn cfg(s: usize, machines: usize) -> MpcConfig {
        MpcConfig {
            memory_per_machine: s,
            num_machines: machines,
            delta: 0.5,
            strict_memory: true,
            threads: 1,
        }
    }

    #[test]
    fn sort_produces_global_order_and_charges_log_s_rounds() {
        let config = cfg(64, 8);
        let mut ctx = MpcContext::new(config);
        let tuples: Vec<(u64, u64)> = (0..128).map(|i| ((997 * i) % 128, i)).collect();
        let cluster = Cluster::from_tuples(&config, tuples);
        let sorted = distributed_sort(&cluster, &mut ctx, |t| t.0).unwrap();
        let keys: Vec<u64> = sorted.clone().gather().iter().map(|t| t.0).collect();
        // gather() concatenates machines in order, so the keys must already be sorted.
        let mut expected = keys.clone();
        expected.sort_unstable();
        assert_eq!(keys, expected);
        assert_eq!(ctx.stats().total_rounds(), config.sort_rounds(128));
    }

    #[test]
    fn sort_overflow_is_detected() {
        // 100 tuples over 2 machines with budget 20 words -> 50 tuples/machine won't fit.
        let config = cfg(20, 2);
        let mut ctx = MpcContext::new(config);
        let cluster = Cluster::from_tuples(&config, (0u64..100).map(|i| (i, i)).collect());
        assert!(distributed_sort(&cluster, &mut ctx, |t| t.0).is_err());
    }

    #[test]
    fn search_annotates_queries() {
        let config = cfg(256, 4);
        let mut ctx = MpcContext::new(config);
        let data: Vec<(u64, &str)> = vec![(1, "a"), (5, "b"), (9, "c")];
        let queries = vec![5u64, 2, 9];
        let out = distributed_search(&data, &queries, &mut ctx);
        assert_eq!(out, vec![Some("b"), None, Some("c")]);
        assert!(ctx.stats().total_rounds() >= 1);
    }

    #[test]
    fn dedup_removes_cross_machine_duplicates() {
        let config = cfg(256, 4);
        let mut ctx = MpcContext::new(config);
        let tuples: Vec<(u64, u64)> = (0..60).map(|i| (i % 10, 0)).collect();
        let cluster = Cluster::from_tuples(&config, tuples);
        let deduped = distributed_dedup(&cluster, &mut ctx, |t| t.0).unwrap();
        assert_eq!(deduped.len(), 10);
    }

    #[test]
    fn count_by_key_matches_manual_count() {
        let config = cfg(256, 4);
        let mut ctx = MpcContext::new(config);
        let tuples: Vec<(u64, u64)> = (0..90).map(|i| (i % 9, i)).collect();
        let cluster = Cluster::from_tuples(&config, tuples);
        let mut counts = count_by_key(&cluster, &mut ctx, |t| t.0).unwrap();
        counts.sort_unstable();
        assert_eq!(counts.len(), 9);
        assert!(counts.iter().all(|&(_, c)| c == 10));
    }
}
