//! Cluster-property propagation: the accounting multiplier
//! (`words_per_tuple`) and the selected execution backend must survive
//! every operation — a derived cluster that silently reverted to the
//! defaults would mis-charge memory or fall back to sequential execution,
//! both invisible to correctness-only tests.

use wcc_mpc::{Cluster, MpcConfig, MpcContext};

const WORDS: usize = 5;
const THREADS: usize = 3;

fn base_cluster() -> Cluster<(u64, u64)> {
    let cfg = MpcConfig::with_memory(1 << 14, 256).with_threads(THREADS);
    Cluster::from_tuples(&cfg, (0..500u64).map(|i| (i % 29, i)).collect())
        .with_words_per_tuple(WORDS)
}

fn ctx() -> MpcContext {
    MpcContext::new(MpcConfig::with_memory(1 << 14, 256).permissive())
}

fn assert_props<T>(cluster: &Cluster<T>, op: &str) {
    assert_eq!(
        cluster.words_per_tuple(),
        WORDS,
        "{op} dropped words_per_tuple"
    );
    assert_eq!(
        cluster.executor().threads(),
        THREADS,
        "{op} dropped the executor"
    );
}

#[test]
fn words_and_executor_survive_borrowing_local_ops() {
    let mut c = base_cluster();
    assert_props(&c, "from_tuples + with_words_per_tuple");
    assert_props(&c.map_local(|t| (t.0, t.1 + 1)), "map_local");
    assert_props(
        &c.flat_map_local(|t| vec![*t, (t.0, t.1 * 2)]),
        "flat_map_local",
    );
    assert_props(&c.filter_local(|t| t.1 % 2 == 0), "filter_local");
    c.filter_local_in_place(|t| t.1 % 2 == 0);
    assert_props(&c, "filter_local_in_place");
}

#[test]
fn words_and_executor_survive_shuffles() {
    let mut context = ctx();
    assert_props(
        &base_cluster()
            .shuffle_by_key(&mut context, |t| t.0)
            .unwrap(),
        "shuffle_by_key",
    );
}

#[test]
fn shuffle_charges_the_overridden_word_width() {
    // 500 tuples at 5 words each: one shuffle must move 2500 words, and the
    // recorded machine loads must use the same multiplier.
    let mut context = ctx();
    let c = base_cluster();
    let shuffled = c.shuffle_by_key(&mut context, |t| t.0).unwrap();
    let stats = context.into_stats();
    assert_eq!(stats.total_communication_words(), (500 * WORDS) as u64);
    assert_eq!(stats.max_machine_load_words(), shuffled.max_load_words());
}

#[test]
fn reduce_by_key_charges_the_overridden_word_width() {
    // The reduce moves one partial per (machine, key) pair at
    // words_per_tuple words each; the charge must scale with the override.
    let mut context = ctx();
    base_cluster()
        .reduce_by_key(
            &mut context,
            |t| t.0,
            |_| 0u64,
            |acc, t| *acc += t.1,
            |acc, b| *acc += b,
        )
        .unwrap();
    let stats = context.into_stats();
    assert_eq!(
        stats.total_communication_words() % WORDS as u64,
        0,
        "reduce charge must be a multiple of words_per_tuple"
    );
    assert!(stats.total_communication_words() > 0);
}

#[test]
fn identity_shuffles_short_circuit_without_dropping_the_charge() {
    // One real shuffle groups every key onto its owning machine.
    let mut ctx_first = ctx();
    let grouped = base_cluster()
        .shuffle_by_key(&mut ctx_first, |t| t.0)
        .unwrap();
    let first = ctx_first.into_stats();

    // Re-shuffling by the same key routes every tuple to the machine it
    // already lives on: nothing moves, and the model cost must be charged
    // exactly as if the tuples had crossed the wire (same words, bytes,
    // rounds, loads).
    let mut ctx_again = ctx();
    let again = grouped.shuffle_by_key(&mut ctx_again, |t| t.0).unwrap();
    assert_eq!(again.offsets(), grouped.offsets());
    assert_eq!(
        ctx_again.into_stats(),
        first,
        "a shuffle that moves nothing must still charge in full"
    );
    assert_eq!(again.gather(), grouped.gather());
}

#[test]
fn natural_width_narrows_the_charge_for_compact_tuples() {
    // A u64-packed compact edge charged its natural width of 1 word, where
    // the historical default charges 2.
    let cfg = MpcConfig::with_memory(1 << 14, 256).with_threads(THREADS);
    let packed: Vec<u64> = (0..500u64).collect();
    let mut ctx_wide = ctx();
    let mut ctx_narrow = ctx();
    Cluster::from_tuples(&cfg, packed.clone())
        .shuffle_by_key(&mut ctx_wide, |t| *t)
        .unwrap();
    Cluster::from_tuples(&cfg, packed)
        .with_words_per_tuple(1)
        .shuffle_by_key(&mut ctx_narrow, |t| *t)
        .unwrap();
    let wide = ctx_wide.into_stats();
    let narrow = ctx_narrow.into_stats();
    assert_eq!(wide.total_communication_words(), 1000);
    assert_eq!(narrow.total_communication_words(), 500);
}

#[test]
fn gather_after_chain_preserves_tuples() {
    // End-to-end sanity: a chain across all op families loses no tuples and
    // keeps the properties throughout.
    let mut context = ctx();
    let mut c = base_cluster()
        .map_local(|t| (t.0, t.1 * 2))
        .shuffle_by_key(&mut context, |t| t.0)
        .unwrap()
        .flat_map_local(|t| [(t.0, t.1 + 1), (t.0, u64::MAX)]);
    c.filter_local_in_place(|t| t.1 != u64::MAX);
    assert_props(&c, "chained ops");
    let mut values: Vec<u64> = c.gather().into_iter().map(|t| t.1).collect();
    values.sort_unstable();
    let mut expected: Vec<u64> = (0..500u64).map(|i| i * 2 + 1).collect();
    expected.sort_unstable();
    assert_eq!(values, expected);
}
