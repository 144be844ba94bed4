//! Differential harness for the epoch-snapshot query service: concurrent
//! readers during live ingestion must never observe a torn labelling, and
//! every epoch's answers must equal a from-scratch run on exactly that
//! epoch's edge set.
//!
//! Shape mirrors `streaming_differential.rs`: seeded random batch schedules
//! over the paper's graph families, checked against independent ground
//! truth. The twist is the *time* axis — a ground-truth table is built per
//! epoch (by replaying a twin engine batch by batch), and every answer a
//! snapshot or the TCP server produces is validated against the table row
//! of the **epoch stamped on that very answer**. A torn read — labels mixed
//! across two publishes — would produce an answer matching no row.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use wcc_core::serve::{ComponentSnapshot, Request, Response, Server, SnapshotCell, SnapshotReader};
use wcc_core::stream::{IncrementalComponents, StreamParams};
use wcc_core::{well_connected_components, Params};
use wcc_graph::generators::GraphFamily;
use wcc_graph::io::EdgeOp;
use wcc_graph::{Graph, UnionFind};

const SEEDS: [u64; 2] = [5, 13];

fn families() -> Vec<(GraphFamily, f64)> {
    vec![
        (
            GraphFamily::PlantedExpanders {
                num_components: 3,
                degree: 8,
            },
            0.3,
        ),
        (GraphFamily::RingOfCliques { clique_size: 10 }, 0.15),
    ]
}

fn instance(family: &GraphFamily, index: u64) -> Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(9000 + index);
    family.generate(120, &mut rng)
}

fn random_schedule(g: &Graph, seed: u64, batch_edges: usize) -> Vec<Vec<(u64, u64)>> {
    let mut edges: Vec<(u64, u64)> = g.edge_iter().map(|(u, v)| (u as u64, v as u64)).collect();
    edges.shuffle(&mut ChaCha8Rng::seed_from_u64(seed ^ 0x5E7E));
    edges
        .chunks(batch_edges.max(1))
        .map(<[(u64, u64)]>::to_vec)
        .collect()
}

/// Ground truth for one epoch: the component label of every vertex seen so
/// far, each label's component size, and its stable name — the raw id of
/// the component's first-arrived member.
#[derive(Clone, Default)]
struct EpochTruth {
    label_of: HashMap<u64, usize>,
    size_of: HashMap<usize, u64>,
    name_of: HashMap<usize, u64>,
}

/// Replays a twin engine over the schedule, recording per-epoch truth
/// tables (index 0 = the empty epoch before any batch).
fn epoch_truths(schedule: &[Vec<(u64, u64)>], params: StreamParams, seed: u64) -> Vec<EpochTruth> {
    let mut engine = IncrementalComponents::new(params, seed);
    let mut truths = vec![EpochTruth::default()];
    for batch in schedule {
        engine.apply_ops_batch(&EdgeOp::inserts(batch)).unwrap();
        let labels = engine.labels();
        let mut truth = EpochTruth::default();
        // `original_ids` is in arrival order, so a label's first raw id is
        // its component's name.
        for (dense, &raw) in engine.original_ids().iter().enumerate() {
            let label = labels.label(dense);
            truth.label_of.insert(raw, label);
            *truth.size_of.entry(label).or_default() += 1;
            truth.name_of.entry(label).or_insert(raw);
        }
        truths.push(truth);
    }
    truths
}

/// Independent sequential ground truth on one epoch's exact edge prefix:
/// union–find over interned raw ids.
fn prefix_partition(prefix: &[(u64, u64)]) -> (HashMap<u64, usize>, UnionFind) {
    let mut index: HashMap<u64, usize> = HashMap::new();
    let mut uf = UnionFind::new(0);
    for &(u, v) in prefix {
        for raw in [u, v] {
            index.entry(raw).or_insert_with(|| uf.push());
        }
        uf.union(index[&u], index[&v]);
    }
    (index, uf)
}

/// Asserts one snapshot answers exactly like the truth table for its epoch.
/// `probe_ids` must contain seen and unseen ids; every pair is checked.
fn check_snapshot(snap: &ComponentSnapshot, truth: &EpochTruth, probe_ids: &[u64], what: &str) {
    for &u in probe_ids {
        let expected_label = truth.label_of.get(&u);
        match (snap.component_of(u), expected_label) {
            (None, None) => {}
            (Some(c), Some(&label)) => {
                // The component id is the raw id of its first-arrived member.
                assert_eq!(
                    c,
                    truth.name_of[&label],
                    "{what}: component id {c} of {u} is not its component's first-arrived \
                     member (epoch {})",
                    snap.epoch()
                );
                assert_eq!(
                    snap.component_size(u),
                    Some(truth.size_of[&label]),
                    "{what}: wrong size for {u} (epoch {})",
                    snap.epoch()
                );
            }
            (got, _) => panic!(
                "{what}: component_of({u}) = {got:?} but truth seen={} (epoch {})",
                expected_label.is_some(),
                snap.epoch()
            ),
        }
        for &v in probe_ids {
            let expected = match (truth.label_of.get(&u), truth.label_of.get(&v)) {
                (Some(lu), Some(lv)) => Some(lu == lv),
                _ => None,
            };
            assert_eq!(
                snap.same_component(u, v),
                expected,
                "{what}: same_component({u},{v}) diverged (epoch {})",
                snap.epoch()
            );
        }
    }
}

/// Every epoch's snapshot equals from-scratch ground truth on that epoch's
/// edge set — sequential BFS-style union–find for every epoch, and the full
/// Theorem-4 pipeline on a sample of epochs.
#[test]
fn every_epoch_snapshot_matches_from_scratch_on_its_prefix() {
    for (fi, (family, lambda)) in families().into_iter().enumerate() {
        let g = instance(&family, fi as u64);
        for seed in SEEDS {
            let schedule = random_schedule(&g, seed, 60);
            let truths = epoch_truths(&schedule, StreamParams::laptop_scale(), seed);
            let mut engine = IncrementalComponents::new(StreamParams::laptop_scale(), seed);
            let mut prefix: Vec<(u64, u64)> = Vec::new();
            // Unseen probes beyond the universe must miss at every epoch.
            let probe_ids: Vec<u64> = (0..g.num_vertices() as u64 + 3).collect();

            for (k, batch) in schedule.iter().enumerate() {
                engine.apply_ops_batch(&EdgeOp::inserts(batch)).unwrap();
                prefix.extend_from_slice(batch);
                let epoch = k as u64 + 1;
                let snap = engine.snapshot(epoch);
                assert_eq!(snap.epoch(), epoch);
                let truth = &truths[epoch as usize];

                // The published snapshot answers exactly like the truth
                // table of its own epoch.
                check_snapshot(&snap, truth, &probe_ids, "snapshot");
                assert_eq!(snap.num_vertices(), truth.label_of.len());
                assert_eq!(snap.num_edges(), prefix.len() as u64);

                // ...and that truth table equals an independent from-scratch
                // union–find on exactly this epoch's edge prefix.
                let (index, mut uf) = prefix_partition(&prefix);
                assert_eq!(index.len(), truth.label_of.len());
                for (&u, &du) in &index {
                    for (&v, &dv) in &index {
                        assert_eq!(
                            truth.label_of[&u] == truth.label_of[&v],
                            uf.find(du) == uf.find(dv),
                            "epoch {epoch}: truth table disagrees with \
                             from-scratch union-find on ({u},{v})"
                        );
                    }
                }
            }

            // The full pipeline, run from scratch on the final epoch's graph,
            // agrees with the final snapshot (the differential contract of
            // `streaming_differential.rs`, restated through the query API).
            let scratch =
                well_connected_components(&g, lambda, &Params::test_scale(), seed).unwrap();
            let final_truth = truths.last().unwrap();
            for u in 0..g.num_vertices() {
                for v in 0..g.num_vertices() {
                    if let (Some(lu), Some(lv)) = (
                        final_truth.label_of.get(&(u as u64)),
                        final_truth.label_of.get(&(v as u64)),
                    ) {
                        assert_eq!(
                            lu == lv,
                            scratch.components.label(u) == scratch.components.label(v),
                            "final epoch disagrees with from-scratch pipeline on ({u},{v})"
                        );
                    }
                }
            }
        }
    }
}

/// Readers hammering the cell while the engine ingests and publishes:
/// every answer must match the truth table of the epoch it was served at.
#[test]
fn concurrent_readers_never_observe_torn_labels() {
    let family = GraphFamily::PlantedExpanders {
        num_components: 3,
        degree: 8,
    };
    let g = instance(&family, 42);
    let seed = 11;
    let schedule = random_schedule(&g, seed, 45);
    let final_epoch = schedule.len() as u64;
    let truths = Arc::new(epoch_truths(&schedule, StreamParams::laptop_scale(), seed));
    let universe = g.num_vertices() as u64 + 4;

    let cell = Arc::new(SnapshotCell::new());
    let done = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..3)
        .map(|r| {
            let cell = Arc::clone(&cell);
            let done = Arc::clone(&done);
            let truths = Arc::clone(&truths);
            std::thread::spawn(move || {
                let mut rng = ChaCha8Rng::seed_from_u64(500 + r);
                let mut reader = SnapshotReader::new(&cell);
                let mut distinct_epochs = 0u64;
                let mut last_epoch = u64::MAX;
                loop {
                    // Order matters: sample the flag *before* the snapshot,
                    // so a `true` here guarantees the final publish is
                    // already visible (publish happens-before the store).
                    let finished = done.load(Ordering::Acquire);
                    let snap = reader.current(&cell);
                    assert!(
                        last_epoch == u64::MAX || snap.epoch() >= last_epoch,
                        "epochs moved backwards"
                    );
                    if snap.epoch() != last_epoch {
                        distinct_epochs += 1;
                        last_epoch = snap.epoch();
                    }
                    let truth = &truths[snap.epoch() as usize];
                    let probes: Vec<u64> = (0..12).map(|_| rng.gen_range(0..universe)).collect();
                    check_snapshot(snap, truth, &probes, "concurrent reader");
                    if finished {
                        assert_eq!(
                            snap.epoch(),
                            final_epoch,
                            "after ingest finished a reader must land on the final epoch"
                        );
                        return distinct_epochs;
                    }
                }
            })
        })
        .collect();

    let mut engine = IncrementalComponents::new(StreamParams::laptop_scale(), seed);
    for (k, batch) in schedule.iter().enumerate() {
        engine.apply_ops_batch(&EdgeOp::inserts(batch)).unwrap();
        cell.publish(engine.snapshot(k as u64 + 1));
        // Give the readers a slice of the single core between publishes.
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    done.store(true, Ordering::Release);
    for reader in readers {
        let distinct = reader.join().unwrap();
        assert!(distinct >= 1, "reader never saw a published epoch");
    }
    assert_eq!(cell.epoch(), final_epoch);
}

/// The same torn-label check end-to-end over TCP: pipelined clients query a
/// live `Server` while the main thread ingests and publishes; every
/// response is validated against the truth table of its stamped epoch.
#[test]
fn tcp_clients_get_epoch_consistent_answers_during_ingest() {
    use std::io::{BufReader, BufWriter, Write};
    use std::net::TcpStream;
    use wcc_core::serve::read_frame;

    let family = GraphFamily::RingOfCliques { clique_size: 10 };
    let g = instance(&family, 7);
    let seed = 29;
    let schedule = random_schedule(&g, seed, 45);
    let final_epoch = schedule.len() as u64;
    let truths = Arc::new(epoch_truths(&schedule, StreamParams::laptop_scale(), seed));
    let universe = g.num_vertices() as u64 + 4;

    let server = Server::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let clients: Vec<_> = (0..2)
        .map(|c| {
            let truths = Arc::clone(&truths);
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = BufWriter::new(stream);
                let mut rng = ChaCha8Rng::seed_from_u64(900 + c);
                let mut frame = Vec::new();
                let mut out = Vec::new();
                let mut seen_final = false;
                let mut rounds = 0u64;
                while !seen_final {
                    rounds += 1;
                    assert!(rounds < 500_000, "server never reached the final epoch");
                    // A pipelined window of randomized lookups.
                    let window: Vec<Request> = (0..16)
                        .map(|_| {
                            let u = rng.gen_range(0..universe);
                            let v = rng.gen_range(0..universe);
                            match rng.gen_range(0..3u32) {
                                0 => Request::SameComponent { u, v },
                                1 => Request::ComponentOf { v },
                                _ => Request::ComponentSize { c: u },
                            }
                        })
                        .collect();
                    out.clear();
                    for request in &window {
                        request.encode(&mut out);
                    }
                    writer.write_all(&out).unwrap();
                    writer.flush().unwrap();
                    for request in &window {
                        read_frame(&mut reader, &mut frame).unwrap().unwrap();
                        let response = Response::decode(&frame).unwrap();
                        let epoch = match response {
                            Response::Same { epoch, .. }
                            | Response::Component { epoch, .. }
                            | Response::Size { epoch, .. }
                            | Response::NotFound { epoch } => epoch,
                            ref other => panic!("unexpected response {other:?}"),
                        };
                        assert!(epoch <= final_epoch);
                        seen_final |= epoch == final_epoch;
                        let truth = &truths[epoch as usize];
                        match (request, &response) {
                            (Request::SameComponent { u, v }, _) => {
                                let expected = match (truth.label_of.get(u), truth.label_of.get(v))
                                {
                                    (Some(lu), Some(lv)) => Some(lu == lv),
                                    _ => None,
                                };
                                match (expected, &response) {
                                    (Some(want), Response::Same { same, .. }) => {
                                        assert_eq!(want, *same, "same({u},{v}) at epoch {epoch}")
                                    }
                                    (None, Response::NotFound { .. }) => {}
                                    other => panic!("same({u},{v}): mismatch {other:?}"),
                                }
                            }
                            (Request::ComponentOf { v }, Response::Component { component, .. }) => {
                                let name = truth.label_of.get(v).map(|label| truth.name_of[label]);
                                assert_eq!(
                                    name,
                                    Some(*component),
                                    "of({v}) returned {component}, not its component's name, \
                                     at epoch {epoch}"
                                );
                            }
                            (Request::ComponentOf { v }, Response::NotFound { .. }) => {
                                assert!(!truth.label_of.contains_key(v));
                            }
                            (Request::ComponentSize { c }, Response::Size { size, .. }) => {
                                let label = truth.label_of[c];
                                assert_eq!(*size, truth.size_of[&label]);
                            }
                            (Request::ComponentSize { c }, Response::NotFound { .. }) => {
                                assert!(!truth.label_of.contains_key(c));
                            }
                            other => panic!("mismatched request/response {other:?}"),
                        }
                    }
                }
            })
        })
        .collect();

    let mut engine = IncrementalComponents::new(StreamParams::laptop_scale(), seed);
    for (k, batch) in schedule.iter().enumerate() {
        engine.apply_ops_batch(&EdgeOp::inserts(batch)).unwrap();
        server.publish(engine.snapshot(k as u64 + 1));
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    for client in clients {
        client.join().unwrap();
    }

    // Control: stats reflect the final epoch; shutdown round-trips.
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = BufWriter::new(stream);
    let mut out = Vec::new();
    Request::Stats.encode(&mut out);
    Request::Shutdown.encode(&mut out);
    writer.write_all(&out).unwrap();
    writer.flush().unwrap();
    let mut frame = Vec::new();
    read_frame(&mut reader, &mut frame).unwrap().unwrap();
    match Response::decode(&frame).unwrap() {
        Response::Stats(stats) => {
            assert_eq!(stats.epoch, final_epoch);
            assert_eq!(stats.vertices as usize, g.num_vertices());
            assert!(stats.queries > 0);
        }
        other => panic!("expected stats, got {other:?}"),
    }
    read_frame(&mut reader, &mut frame).unwrap().unwrap();
    assert_eq!(Response::decode(&frame).unwrap(), Response::ShuttingDown);
    assert!(server.shutdown_requested());
    server.shutdown().unwrap();
}
