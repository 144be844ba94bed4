//! Property-based tests (proptest): the correctness invariants of every
//! algorithm hold on arbitrary random inputs, not just the hand-picked cases
//! of the unit tests.

use proptest::prelude::*;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use wcc_core::leader::{contraction_graph, finish_with_bfs};
use wcc_core::prelude::*;
use wcc_core::products::cloud_sizes;
use wcc_core::regularize::regularize;
use wcc_core::sublinear::{sublinear_components, SublinearParams};
use wcc_graph::prelude::*;
use wcc_graph::{counting_contraction, EdgeSource};
use wcc_mpc::{MpcConfig, MpcContext};
use wcc_sketch::DynamicConnectivitySketch;

/// Strategy: a random sparse graph given by a vertex count and an edge list.
fn arb_graph(max_n: usize, max_extra_edges: usize) -> impl Strategy<Value = Graph> {
    (2..max_n).prop_flat_map(move |n| {
        let edges = proptest::collection::vec((0..n, 0..n), 0..max_extra_edges);
        edges.prop_map(move |e| Graph::from_edges_unchecked(n, e))
    })
}

/// Strategy: an endpoint table on `n ≤ max_n` vertices with `w ≤ max_w`
/// endpoints each, all drawn below a bound `≤ n`: vertices at or past the
/// bound are never targeted, and small bounds make loops, repeated targets
/// and mutual pairs the rule.
fn arb_endpoint_table(max_n: usize, max_w: usize) -> impl Strategy<Value = EndpointTable> {
    (0..max_n + 1, 1..max_w + 1).prop_flat_map(|(n, w)| {
        (1..n.max(1) + 1).prop_flat_map(move |bound| {
            proptest::collection::vec(0..bound as u32, n * w..n * w + 1)
                .prop_map(move |ends| EndpointTable::new(w, ends))
        })
    })
}

/// The counting build of a table under the identity partition (phase 1's
/// contraction) against the spec: the table's edges with loops dropped,
/// normalised, sorted and deduplicated, built as a graph.
fn assert_direct_build_matches(table: &EndpointTable) {
    let n = table.num_vertices();
    let mut spec: Vec<(usize, usize)> = table
        .to_graph()
        .edge_iter()
        .filter(|&(u, v)| u != v)
        .collect();
    spec.sort_unstable();
    spec.dedup();
    let want = Graph::from_edges_unchecked(n, spec);
    let got = counting_contraction(&[EdgeSource::Table(table)], &Partition::singletons(n));
    assert_eq!(got.num_vertices(), want.num_vertices(), "{table:?}");
    assert_eq!(got.csr_offsets(), want.csr_offsets(), "{table:?}");
    assert_eq!(got.csr_adjacency(), want.csr_adjacency(), "{table:?}");
    assert_eq!(got.edges(), want.edges(), "{table:?}");
}

#[test]
fn counting_build_of_corner_tables_matches_the_sort_and_dedup_spec() {
    let cases: [(usize, Vec<u32>); 7] = [
        // No vertices; one vertex, a loop per walk.
        (1, vec![]),
        (3, vec![0, 0, 0]),
        // w = 1: a mutual pair, a loop, and vertex 3 targeted by no one.
        (1, vec![1, 0, 2, 2]),
        // Repeated targets and a mutual pair that repeats.
        (3, vec![1, 1, 1, 0, 0, 2, 0, 1, 1]),
        // Every vertex targets vertex 0 only; vertex 0 loops.
        (2, vec![0, 0, 0, 0, 0, 0, 0, 0]),
        // A cycle and its reverse: every edge twice, once from each end.
        (2, vec![1, 3, 2, 0, 3, 1, 0, 2]),
        // Vertices 2.. targeted by no one, all their own edges leave them.
        (2, vec![1, 1, 0, 0, 0, 1, 1, 0, 0, 0]),
    ];
    for (w, ends) in cases {
        assert_direct_build_matches(&EndpointTable::new(w, ends));
    }
}

/// Strategy: a dense-ish multigraph — few vertices, every drawn pair repeated
/// one to three times — so self-loops, parallel edges and degrees on both
/// sides of any small degree budget are the rule rather than the exception.
fn arb_multigraph(max_n: usize, max_pairs: usize) -> impl Strategy<Value = Graph> {
    (2..max_n).prop_flat_map(move |n| {
        let pairs = proptest::collection::vec((0..n, 0..n, 1..4usize), 0..max_pairs);
        pairs.prop_map(move |pairs| {
            let edges = pairs
                .into_iter()
                .flat_map(|(u, v, copies)| std::iter::repeat_n((u, v), copies));
            Graph::from_edges_unchecked(n, edges)
        })
    })
}

/// An insert-only schedule as `WCCS` bytes in either format version, plus the
/// version's record size. Version 2 comes from the writer; version 1 (same
/// framing, no tag byte) is assembled here because nothing writes it any
/// more — the readers still must accept it.
fn encode_insert_chunks(v2: bool, chunks: &[&[(u64, u64)]]) -> (usize, Vec<u8>) {
    use wcc_graph::io::{
        CHUNK_BYTES_PER_EDGE, CHUNK_BYTES_PER_OP, CHUNK_FORMAT_VERSION, CHUNK_MAGIC,
    };
    let mut binary = Vec::new();
    if v2 {
        let ops: Vec<Vec<EdgeOp>> = chunks.iter().map(|c| EdgeOp::inserts(c)).collect();
        write_op_chunks(&ops, &mut binary).unwrap();
        return (CHUNK_BYTES_PER_OP, binary);
    }
    binary.extend_from_slice(&CHUNK_MAGIC);
    binary.extend_from_slice(&CHUNK_FORMAT_VERSION.to_le_bytes());
    for chunk in chunks {
        binary.extend_from_slice(&((chunk.len() * CHUNK_BYTES_PER_EDGE) as u64).to_le_bytes());
        for &(u, v) in *chunk {
            binary.extend_from_slice(&u.to_le_bytes());
            binary.extend_from_slice(&v.to_le_bytes());
        }
    }
    (CHUNK_BYTES_PER_EDGE, binary)
}

proptest! {
    // Cheap cases: many of them.
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn counting_build_of_a_table_matches_the_sort_and_dedup_spec(table in arb_endpoint_table(90, 8)) {
        // Phase 1's contraction of a random batch is built straight from its
        // endpoint table; the batch's edges sorted and de-duplicated are
        // the graph it must reproduce, field for field.
        assert_direct_build_matches(&table);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn union_find_and_bfs_always_agree(g in arb_graph(120, 300)) {
        let a = connected_components(&g);
        let b = components::connected_components_union_find(&g);
        prop_assert!(a.same_partition(&b));
    }

    #[test]
    fn spanning_forest_is_always_valid(g in arb_graph(100, 250)) {
        let f = components::spanning_forest(&g);
        prop_assert!(components::verify_spanning_forest(&g, &f.edges));
        // A forest has n - #components edges.
        prop_assert_eq!(
            f.edges.len(),
            g.num_vertices() - connected_components(&g).num_components()
        );
    }

    #[test]
    fn agm_sketch_components_match_truth(g in arb_graph(80, 200), seed in 0u64..50) {
        // Theorem 2's coordinator: one message per vertex, then Borůvka
        // over every vertex. 16 phases certify the exact parts.
        let truth = connected_components(&g);
        let n = g.num_vertices();
        let mut sk = DynamicConnectivitySketch::new(16, seed);
        let messages: Vec<_> = (0..n).map(|v| sk.message_for(v as u32, g.neighbors(v))).collect();
        sk.push_messages(messages);
        let everyone: Vec<u32> = (0..n as u32).collect();
        let parts = sk.subset_components(&everyone).expect("16 phases certify").parts;
        let mut raw = vec![0; n];
        for (label, part) in parts.iter().enumerate() {
            part.iter().for_each(|&v| raw[v as usize] = label);
        }
        prop_assert!(ComponentLabels::from_raw_labels(&raw).same_partition(&truth));
    }

    #[test]
    fn regularization_preserves_components_exactly(
        sparse in arb_graph(60, 150),
        multi in arb_multigraph(24, 60),
        seed in 0u64..20,
    ) {
        let params = Params::test_scale();
        for g in [sparse, multi] {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut ctx = MpcContext::new(
                MpcConfig::for_input_size(4 * g.num_edges() + 16, 0.5).permissive(),
            );
            let reg = regularize(&g, &params, &mut ctx, &mut rng).unwrap();
            // Regular output on exactly the vertices the cloud-size rule names.
            prop_assert!(reg.graph.is_regular(reg.degree));
            prop_assert_eq!(
                reg.graph.num_vertices(),
                cloud_sizes(&g, params.expander_degree).sum::<usize>()
            );
            // Pull-back of the product components equals the input components.
            let pulled = reg.pull_back_labels(&connected_components(&reg.graph));
            prop_assert!(pulled.same_partition(&connected_components(&g)));
        }
    }

    #[test]
    fn contraction_plus_bfs_is_exact_for_any_partition_refining_components(
        g in arb_graph(80, 200),
        seed in 0u64..20,
    ) {
        // Start from an arbitrary refinement of the true components (random
        // sub-partition of each component) and check the endgame repairs it.
        let truth = connected_components(&g);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        use rand::Rng;
        let raw: Vec<usize> = (0..g.num_vertices())
            .map(|v| truth.label(v) * 16 + rng.gen_range(0..3))
            .collect();
        let partition = Partition::from_raw_labels(&raw);
        let mut ctx = MpcContext::new(
            MpcConfig::for_input_size(4 * g.num_edges() + 16, 0.5).permissive(),
        );
        let (finished, _levels) = finish_with_bfs(&g, &partition, &mut ctx);
        prop_assert!(finished.equals_components(&truth));
        // And the contraction graph never contains self-loops.
        let h = contraction_graph(&g, &partition, &mut ctx);
        prop_assert!(!h.has_self_loops());
    }

    #[test]
    fn full_pipeline_is_exact_on_arbitrary_graphs(g in arb_graph(60, 140), seed in 0u64..10) {
        // The spectral-gap promise is deliberately wrong for most generated
        // graphs; exactness must hold anyway (the opportunistic part only
        // affects the round count).
        let truth = connected_components(&g);
        let result = well_connected_components(&g, 0.4, &Params::test_scale(), seed).unwrap();
        prop_assert!(result.components.same_partition(&truth));
    }

    #[test]
    fn sublinear_algorithm_is_exact_on_arbitrary_graphs(g in arb_graph(60, 140), seed in 0u64..10) {
        let truth = connected_components(&g);
        let result = sublinear_components(&g, 32, &SublinearParams::laptop_scale(), seed).unwrap();
        prop_assert!(result.components.same_partition(&truth));
    }

    #[test]
    fn text_to_binary_chunks_to_text_preserves_the_edge_multiset(
        g in arb_graph(80, 200),
        batch_edges in 1usize..40,
    ) {
        // Text leg, then the binary leg exactly as `wcc pack` runs it: the
        // streaming packer, raw ids passing through verbatim.
        let mut text1 = Vec::new();
        write_edge_list(&g, &mut text1).unwrap();
        let mut binary = Vec::new();
        let summary = pack_op_list(std::io::Cursor::new(text1), &mut binary, batch_edges).unwrap();
        prop_assert_eq!(summary.edges as usize, g.num_edges());
        let decoded = read_op_chunks(std::io::Cursor::new(binary)).unwrap();
        prop_assert!(decoded.iter().flatten().all(|op| op.kind == OpKind::Insert));

        // Back to text: emit the decoded stream as edge-list lines (keeping
        // the raw id space) and re-load it one final time.
        let mut text2 = String::from("# decoded from the binary chunk leg\n");
        for op in decoded.iter().flatten() {
            text2.push_str(&format!("{} {}\n", op.u, op.v));
        }
        let final_loaded = read_edge_list(std::io::Cursor::new(text2.into_bytes())).unwrap();

        // The normalized edge multiset survived the whole journey. (Isolated
        // vertices don't: no serialization leg carries them, so the multiset
        // — not the vertex count — is the invariant.)
        let multiset = |edges: Vec<(u64, u64)>| {
            let mut m: Vec<(u64, u64)> = edges
                .into_iter()
                .map(|(a, b)| (a.min(b), a.max(b)))
                .collect();
            m.sort_unstable();
            m
        };
        let original: Vec<(u64, u64)> =
            g.edge_iter().map(|(u, v)| (u as u64, v as u64)).collect();
        let survived: Vec<(u64, u64)> = final_loaded
            .graph
            .edge_iter()
            .map(|(u, v)| {
                (
                    final_loaded.original_ids[u],
                    final_loaded.original_ids[v],
                )
            })
            .collect();
        prop_assert_eq!(multiset(original), multiset(survived));
    }

    #[test]
    fn truncated_chunk_streams_error_instead_of_panicking(
        g in arb_graph(40, 100),
        batch_edges in 1usize..20,
        cut_permille in 0usize..1000,
        v2 in proptest::bool::ANY,
    ) {
        use wcc_graph::io::IoError;

        let raw: Vec<(u64, u64)> = g.edge_iter().map(|(u, v)| (u as u64, v as u64)).collect();
        let chunks: Vec<&[(u64, u64)]> = raw.chunks(batch_edges).collect();
        let (record, binary) = encode_insert_chunks(v2, &chunks);

        // Clean EOF is legal exactly at the header boundary and after each
        // chunk; everywhere else the reader must report truncation (and must
        // never panic) — in either format version.
        let mut boundaries = vec![8usize];
        let mut offset = 8usize;
        for c in &chunks {
            offset += 8 + record * c.len();
            boundaries.push(offset);
        }
        let cut = binary.len() * cut_permille / 1000;
        let result = read_op_chunks(std::io::Cursor::new(binary[..cut].to_vec()));
        if boundaries.contains(&cut) {
            prop_assert!(result.is_ok(), "cut {} is a chunk boundary", cut);
        } else {
            prop_assert!(
                matches!(result, Err(IoError::Truncated { .. })),
                "cut {} inside the stream must report truncation", cut
            );
        }
    }

    #[test]
    fn corrupted_chunk_headers_error_instead_of_panicking(
        g in arb_graph(40, 100),
        batch_edges in 1usize..20,
        chunk_pick in 0usize..20,
        flip_bit in 0u32..4,
        v2 in proptest::bool::ANY,
    ) {
        use wcc_graph::io::IoError;

        let raw: Vec<(u64, u64)> = g.edge_iter().map(|(u, v)| (u as u64, v as u64)).collect();
        if raw.is_empty() {
            return; // a graph with no edges has no chunk header to corrupt
        }
        let chunks: Vec<&[(u64, u64)]> = raw.chunks(batch_edges).collect();
        let (record, mut binary) = encode_insert_chunks(v2, &chunks);
        let mut bad_magic = binary.clone();

        // Corrupt the low nibble of one chunk's length header: the length
        // moves by less than a record (16 or 17 bytes), so it is no longer a
        // whole number of records, which the reader must flag as Corrupt —
        // never panic, never mis-decode.
        let target = chunk_pick % chunks.len();
        let mut offset = 8usize;
        for c in chunks.iter().take(target) {
            offset += 8 + record * c.len();
        }
        binary[offset] ^= 1u8 << flip_bit;
        let result = read_op_chunks(std::io::Cursor::new(binary));
        prop_assert!(
            matches!(result, Err(IoError::Corrupt { chunk, .. }) if chunk == target),
            "corrupting chunk {}'s header must surface as Corrupt", target
        );

        // Corrupting the magic must surface as BadMagic.
        bad_magic[0] ^= 0xFF;
        prop_assert!(matches!(
            read_op_chunks(std::io::Cursor::new(bad_magic)),
            Err(IoError::BadMagic)
        ));
    }

    #[test]
    fn streaming_replay_is_exact_on_arbitrary_graphs(
        g in arb_graph(50, 120),
        seed in 0u64..8,
        batch_edges in 1usize..60,
    ) {
        use wcc_core::stream::{IncrementalComponents, StreamParams};

        // Arbitrary graphs violate every well-connectedness premise; the
        // incremental engine must still land on the exact components, just
        // like the one-shot pipeline does.
        let truth = connected_components(&g);
        let edges: Vec<(u64, u64)> = g.edge_iter().map(|(u, v)| (u as u64, v as u64)).collect();
        let mut engine = IncrementalComponents::new(StreamParams::laptop_scale(), seed);
        for chunk in edges.chunks(batch_edges) {
            engine.apply_ops_batch(&EdgeOp::inserts(chunk)).unwrap();
        }
        prop_assert!(engine.labels_for_universe(g.num_vertices()).same_partition(&truth));
    }

    #[test]
    fn op_chunks_round_trip_for_arbitrary_schedules(
        ops_raw in proptest::collection::vec((0u64..500, 0u64..500, proptest::bool::ANY), 0..200),
        batch_ops in 1usize..40,
    ) {
        use wcc_graph::io::{read_op_chunks, write_op_chunks, EdgeOp};

        let ops: Vec<EdgeOp> = ops_raw
            .iter()
            .map(|&(u, v, del)| if del { EdgeOp::delete(u, v) } else { EdgeOp::insert(u, v) })
            .collect();
        let chunks: Vec<&[EdgeOp]> = ops.chunks(batch_ops).collect();
        let mut binary = Vec::new();
        write_op_chunks(&chunks, &mut binary).unwrap();
        let decoded = read_op_chunks(std::io::Cursor::new(binary)).unwrap();
        let expect: Vec<Vec<EdgeOp>> = chunks.iter().map(|c| c.to_vec()).collect();
        prop_assert_eq!(decoded, expect);
    }

    #[test]
    fn truncated_or_tag_corrupted_op_streams_error_instead_of_panicking(
        ops_raw in proptest::collection::vec((0u64..100, 0u64..100, proptest::bool::ANY), 1..80),
        batch_ops in 1usize..20,
        cut_permille in 0usize..1000,
        bad_tag in 2u8..255,
    ) {
        use wcc_graph::io::{read_op_chunks, write_op_chunks, EdgeOp, IoError, CHUNK_BYTES_PER_OP};

        let ops: Vec<EdgeOp> = ops_raw
            .iter()
            .map(|&(u, v, del)| if del { EdgeOp::delete(u, v) } else { EdgeOp::insert(u, v) })
            .collect();
        let chunks: Vec<&[EdgeOp]> = ops.chunks(batch_ops).collect();
        let mut binary = Vec::new();
        write_op_chunks(&chunks, &mut binary).unwrap();

        // Truncation at every offset: clean EOF is legal exactly at the
        // header boundary and after each chunk, truncation everywhere else.
        let mut boundaries = vec![8usize];
        let mut offset = 8usize;
        for c in &chunks {
            offset += 8 + CHUNK_BYTES_PER_OP * c.len();
            boundaries.push(offset);
        }
        let cut = binary.len() * cut_permille / 1000;
        let result = read_op_chunks(std::io::Cursor::new(binary[..cut].to_vec()));
        if boundaries.contains(&cut) {
            prop_assert!(result.is_ok(), "cut {} is a chunk boundary", cut);
        } else {
            prop_assert!(
                matches!(result, Err(IoError::Truncated { .. })),
                "cut {} inside the stream must report truncation", cut
            );
        }

        // An op tag outside {insert, delete} must surface as Corrupt naming
        // the right chunk — never panic, never decode garbage.
        let target = (cut_permille + batch_ops) % chunks.len();
        let record = cut_permille % chunks[target].len();
        let mut offset = 8usize;
        for c in chunks.iter().take(target) {
            offset += 8 + CHUNK_BYTES_PER_OP * c.len();
        }
        let mut corrupted = Vec::new();
        write_op_chunks(&chunks, &mut corrupted).unwrap();
        corrupted[offset + 8 + record * CHUNK_BYTES_PER_OP] = bad_tag;
        prop_assert!(
            matches!(
                read_op_chunks(std::io::Cursor::new(corrupted)),
                Err(IoError::Corrupt { chunk, .. }) if chunk == target
            ),
            "corrupting a tag in chunk {} must surface as Corrupt", target
        );
    }

    #[test]
    fn over_deletion_is_always_rejected_and_never_applied(
        g in arb_graph(40, 100),
        seed in 0u64..8,
        pick in 0usize..1_000_000,
    ) {
        use wcc_core::stream::{IncrementalComponents, StreamParams};
        use wcc_graph::io::EdgeOp;

        let edges: Vec<(u64, u64)> = g.edge_iter().map(|(u, v)| (u as u64, v as u64)).collect();
        if edges.is_empty() {
            return;
        }
        let ops: Vec<EdgeOp> = edges.iter().map(|&(u, v)| EdgeOp::insert(u, v)).collect();
        let mut engine = IncrementalComponents::new(StreamParams::laptop_scale(), seed);
        engine.apply_ops_batch(&ops).unwrap();
        let batches_before = engine.batches_applied();
        let edges_before = engine.num_edges();

        // Deleting one more copy than was ever inserted is a hard error —
        // as a double delete of an existing edge...
        let (u, v) = edges[pick % edges.len()];
        let copies = edges
            .iter()
            .filter(|&&(a, b)| (a.min(b), a.max(b)) == (u.min(v), u.max(v)))
            .count();
        let over: Vec<EdgeOp> = (0..=copies).map(|_| EdgeOp::delete(u, v)).collect();
        prop_assert!(engine.apply_ops_batch(&over).is_err());
        // ...and as a delete of a never-inserted edge (fresh vertex pair).
        let fresh = 1_000_000u64 + (pick as u64 % 1000);
        prop_assert!(engine.apply_ops_batch(&[EdgeOp::delete(fresh, fresh + 1)]).is_err());

        // Rejected batches left the engine untouched.
        prop_assert_eq!(engine.batches_applied(), batches_before);
        prop_assert_eq!(engine.num_edges(), edges_before);
        // Exactly `copies` deletions of the same pair are fine.
        prop_assert!(engine.apply_ops_batch(&over[..copies]).is_ok());
        prop_assert_eq!(engine.num_edges(), edges_before - copies);
    }

    #[test]
    fn partition_coarsening_is_monotone(labels in proptest::collection::vec(0usize..6, 2..60)) {
        let p = Partition::from_raw_labels(&labels);
        // Coarsening by mapping every part to a single group yields one part.
        let all_one = p.coarsen(&vec![0usize; p.num_parts()]);
        prop_assert_eq!(all_one.num_parts(), 1);
        // Coarsening by the identity keeps the partition.
        let identity: Vec<usize> = (0..p.num_parts()).collect();
        let same = p.coarsen(&identity);
        prop_assert_eq!(same.num_parts(), p.num_parts());
        prop_assert!(same.to_component_labels().same_partition(&p.to_component_labels()));
    }
}
