//! Turnstile AGM sketches over a growing vertex universe.
//!
//! [`ConnectivitySketch`](crate::ConnectivitySketch) is built for a fixed
//! vertex count `n`: its edge coordinates are `u·n + v`, so the sketch cannot
//! absorb vertices that arrive after construction without re-indexing every
//! coordinate. A streaming engine discovers vertices as edges arrive, so this
//! module keeps the same per-vertex signed edge-incidence sketches but indexes
//! the coordinate space by the *pair itself*: edge `{u, v}` with `u < v` lives
//! at coordinate `(u << 32) | v`. That makes the coordinate independent of the
//! current vertex count — [`DynamicConnectivitySketch::push_vertex`] appends a
//! fresh empty vertex sketch and every existing coordinate stays valid.
//!
//! The price is a coordinate universe of size `2^64` instead of `n²`, which
//! costs nothing in space (the samplers are universe-size oblivious; the
//! kernel's power tables skip the coordinate's zero bytes) and only
//! weakens the one-sparse fingerprint bound from `O(n²/p)` to `O(m·2^64/p·…)`
//! — still negligible because the fingerprint test is evaluated over
//! `p = 2^61 − 1` on the *actual support* (at most `m` coordinates), giving a
//! collision probability of `O(m/p)` per recovery. The construction is valid
//! for dense vertex ids below `2^32`; the streaming engine interns raw ids to
//! dense `u32`s, so this always holds.
//!
//! The turnstile property is inherited from linearity: a deletion is a `−1`
//! update on the same coordinate, so after any interleaving of inserts and
//! deletes the sketch equals the sketch of the surviving edge multiset.
//!
//! [`DynamicConnectivitySketch::subset_components`] is the repair primitive
//! the streaming engine runs after a deletion: sketch-space Borůvka restricted
//! to the members of one (possibly no-longer-connected) component, returning
//! the exact partition into connected parts when a phase *certifies* it (every
//! part's summed level-0 cell is zero — a randomness-independent test),
//! or `None` on sampling failure so the caller can escalate to a full
//! recompute.

use crate::kernel::{ComponentRows, SketchKeys, VertexSketch};

/// Encodes the unordered edge `{u, v}` as an ℓ0 coordinate independent of the
/// vertex count: the smaller endpoint in the high 32 bits.
fn edge_coordinate(u: u32, v: u32) -> u64 {
    debug_assert_ne!(u, v);
    let (a, b) = if u < v { (u, v) } else { (v, u) };
    ((a as u64) << 32) | b as u64
}

fn decode_edge_coordinate(idx: u64) -> (u32, u32) {
    ((idx >> 32) as u32, (idx & 0xFFFF_FFFF) as u32)
}

/// A certified partition of a member set into its exact connected parts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubsetPartition {
    /// The connected parts, ordered by smallest member; each part's members
    /// are ascending. A deterministic function of the sketch state and the
    /// member set.
    pub parts: Vec<Vec<u32>>,
    /// Number of Borůvka phases consumed before certification succeeded.
    pub phases_used: usize,
}

/// An AGM connectivity sketch whose vertex set can grow and whose edge
/// multiset supports turnstile updates (inserts and deletes).
///
/// All vertices share the same per-phase hash seeds (the shared-randomness
/// requirement of Proposition 8.1), so per-vertex sketches remain addable and
/// a component's sketch is the sum of its members' sketches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DynamicConnectivitySketch {
    keys: SketchKeys,
    vertices: Vec<VertexSketch>,
}

impl DynamicConnectivitySketch {
    /// Creates an empty sketch (zero vertices) with `num_phases` independent
    /// Borůvka phases. More phases raise the certification probability of
    /// [`subset_components`](Self::subset_components) and the message size.
    ///
    /// # Panics
    ///
    /// Panics if `num_phases` is zero.
    pub fn new(num_phases: usize, seed: u64) -> Self {
        DynamicConnectivitySketch {
            keys: SketchKeys::new(num_phases, seed),
            vertices: Vec::new(),
        }
    }

    /// Number of vertices currently tracked.
    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Number of Borůvka phases per vertex.
    pub fn num_phases(&self) -> usize {
        self.keys.num_phases()
    }

    /// Size of one vertex's message in machine words (constant: the message
    /// is the fixed-size linear sketch regardless of content or of how many
    /// of its levels are physically stored).
    pub fn words_per_vertex(&self) -> usize {
        self.keys.words_per_vertex()
    }

    /// Appends one fresh (edge-less) vertex; its dense id is the previous
    /// vertex count. Existing coordinates are unaffected.
    pub fn push_vertex(&mut self) {
        self.vertices.push(self.keys.empty_vertex());
    }

    /// Inserts the undirected edge `{u, v}`. Self-loops are ignored (no slot
    /// in the incidence vector). Parallel edges accumulate multiplicity.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn add_edge(&mut self, u: u32, v: u32) {
        self.apply_edge(u, v, 1);
    }

    /// Deletes one copy of the undirected edge `{u, v}` — a `−1` turnstile
    /// update on the same coordinate. The caller is responsible for only
    /// deleting live edges; the sketch itself cannot detect over-deletion.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn remove_edge(&mut self, u: u32, v: u32) {
        self.apply_edge(u, v, -1);
    }

    /// The shared keys and one vertex's cells, for the kernel's differential
    /// tests.
    #[cfg(test)]
    pub(crate) fn keys(&self) -> &SketchKeys {
        &self.keys
    }

    #[cfg(test)]
    pub(crate) fn vertex_sketch(&self, v: usize) -> &VertexSketch {
        &self.vertices[v]
    }

    fn apply_edge(&mut self, u: u32, v: u32, delta: i64) {
        let n = self.vertices.len();
        assert!(
            (u as usize) < n && (v as usize) < n,
            "endpoint out of range"
        );
        if u == v {
            return;
        }
        let idx = edge_coordinate(u, v);
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.keys
            .update_edge(&mut self.vertices, a as usize, b as usize, idx, delta);
    }

    /// Sketch-space Borůvka restricted to `members` (sorted ascending, no
    /// duplicates), which must be a union of whole connected components of
    /// the current edge multiset — then every edge incident to a member stays
    /// inside the set and the signed coordinates of any sub-part's sum are
    /// exactly its outgoing edges within the set.
    ///
    /// Returns the certified exact partition of `members` into connected
    /// parts, or `None` when the phase budget is exhausted before a phase
    /// certifies (every part's summed sampler reads zero on level 0, which
    /// holds all coordinates — a false zero needs a fingerprint collision).
    /// `None` means "sampling failure, escalate"; it never silently returns
    /// an uncertified partition.
    ///
    /// Deterministic: parts are discovered in first-seen member order and
    /// reported ordered by smallest member.
    ///
    /// # Panics
    ///
    /// Panics if `members` is unsorted, has duplicates, or contains an
    /// out-of-range vertex.
    pub fn subset_components(&self, members: &[u32]) -> Option<SubsetPartition> {
        let k = members.len();
        assert!(
            members.windows(2).all(|w| w[0] < w[1]),
            "members must be sorted ascending without duplicates"
        );
        if let Some(&last) = members.last() {
            assert!((last as usize) < self.vertices.len(), "member out of range");
        }
        if k <= 1 {
            return Some(SubsetPartition {
                parts: members.iter().map(|&m| vec![m]).collect(),
                phases_used: 0,
            });
        }

        // Local union-find over member positions; global ids map back via
        // binary search in the sorted member slice.
        let mut parent: Vec<u32> = (0..k as u32).collect();
        fn find(parent: &mut [u32], mut x: u32) -> u32 {
            while parent[x as usize] != x {
                let g = parent[parent[x as usize] as usize];
                parent[x as usize] = g;
                x = g;
            }
            x
        }

        let sketch_of = |m: u32| &self.vertices[m as usize];
        let mut rows = ComponentRows::new(k, members.iter().map(|&m| sketch_of(m)));
        let num_phases = self.keys.num_phases();
        // One extra iteration past the last phase: the final phase's unions
        // may complete the partition, and the zero test is valid on any
        // phase's samplers (level 0 holds every coordinate regardless of the
        // phase's sub-sampling randomness).
        for round in 0..=num_phases {
            let phase = round.min(num_phases - 1);
            rows.clear();
            for (pos, &m) in members.iter().enumerate() {
                rows.add(find(&mut parent, pos as u32) as usize, sketch_of(m), phase);
            }
            if rows.nonzero().next().is_none() {
                // Certified: every current part has no edge leaving it within
                // the member set, so the parts are exact connected components.
                let mut parts: Vec<Vec<u32>> = Vec::new();
                let mut part_of_root = vec![usize::MAX; k];
                for (pos, &m) in members.iter().enumerate() {
                    let root = find(&mut parent, pos as u32) as usize;
                    if part_of_root[root] == usize::MAX {
                        part_of_root[root] = parts.len();
                        parts.push(Vec::new());
                    }
                    parts[part_of_root[root]].push(m);
                }
                // First-seen order over ascending members already orders parts
                // by smallest member and each part ascending.
                return Some(SubsetPartition {
                    parts,
                    phases_used: round,
                });
            }
            if round == num_phases {
                return None;
            }
            for row in rows.nonzero() {
                if let Some((idx, _weight)) = self.keys.sample(phase, row) {
                    let (u, v) = decode_edge_coordinate(idx);
                    // A fingerprint collision can surface a garbage
                    // coordinate; only union endpoints that are both members.
                    if let (Ok(pu), Ok(pv)) = (members.binary_search(&u), members.binary_search(&v))
                    {
                        let (ru, rv) = (find(&mut parent, pu as u32), find(&mut parent, pv as u32));
                        if ru != rv {
                            // Union by smaller root id keeps the structure a
                            // pure function of the union sequence.
                            let (lo, hi) = if ru < rv { (ru, rv) } else { (rv, ru) };
                            parent[hi as usize] = lo;
                        }
                    }
                }
            }
        }
        unreachable!("loop returns on certification or exhaustion");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::l0::next_u64;

    fn sketch_with(n: usize, edges: &[(u32, u32)]) -> DynamicConnectivitySketch {
        let mut sk = DynamicConnectivitySketch::new(24, 42);
        for _ in 0..n {
            sk.push_vertex();
        }
        for &(u, v) in edges {
            sk.add_edge(u, v);
        }
        sk
    }

    fn all_members(n: usize) -> Vec<u32> {
        (0..n as u32).collect()
    }

    #[test]
    fn empty_member_set_certifies_trivially() {
        let sk = sketch_with(4, &[]);
        let p = sk.subset_components(&[]).unwrap();
        assert!(p.parts.is_empty());
        let p = sk.subset_components(&[2]).unwrap();
        assert_eq!(p.parts, vec![vec![2]]);
    }

    #[test]
    fn connected_subset_certifies_as_one_part() {
        let sk = sketch_with(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let p = sk.subset_components(&all_members(6)).unwrap();
        assert_eq!(p.parts, vec![all_members(6)]);
    }

    #[test]
    fn deletion_splits_a_cycle() {
        let n = 20u32;
        let mut sk = sketch_with(
            n as usize,
            &(0..n).map(|i| (i, (i + 1) % n)).collect::<Vec<_>>(),
        );
        sk.remove_edge(0, 1);
        // Still a path: one part.
        let p = sk.subset_components(&all_members(n as usize)).unwrap();
        assert_eq!(p.parts.len(), 1);
        sk.remove_edge(10, 11);
        let p = sk.subset_components(&all_members(n as usize)).unwrap();
        assert_eq!(p.parts.len(), 2);
        // Ordered by smallest member: the part containing vertex 0 first.
        let mut first: Vec<u32> = (11..n).collect();
        first.insert(0, 0);
        assert_eq!(p.parts[0], first);
        assert_eq!(p.parts[1], (1..=10).collect::<Vec<u32>>());
    }

    #[test]
    fn full_teardown_yields_singletons() {
        let edges = [(0, 1), (1, 2), (0, 2)];
        let mut sk = sketch_with(3, &edges);
        for &(u, v) in &edges {
            sk.remove_edge(u, v);
        }
        let p = sk.subset_components(&[0, 1, 2]).unwrap();
        assert_eq!(p.parts, vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn delete_reinsert_cancels_exactly() {
        let base = sketch_with(5, &[(0, 1), (2, 3)]);
        let mut churned = base.clone();
        churned.add_edge(1, 2);
        churned.add_edge(3, 4);
        churned.remove_edge(3, 4);
        churned.remove_edge(1, 2);
        assert_eq!(base, churned);

        // Equality is logical: insert and delete a coordinate that reaches a
        // level (in some phase) above everything its endpoint ever stored.
        // The vertex keeps the extra physical levels, all zero again.
        const N: u32 = 5000;
        let mut grown = base.clone();
        (5..N).for_each(|_| grown.push_vertex());
        let stored = |sk: &DynamicConnectivitySketch| sk.vertex_sketch(0).stored_levels();
        let mut churned = (5..N)
            .map(|v| {
                let mut probe = grown.clone();
                probe.add_edge(0, v);
                probe.remove_edge(v, 0);
                probe
            })
            .find(|probe| stored(probe) > stored(&grown) + 2)
            .expect("some coordinate reaches a high level");
        assert_eq!(grown, churned);
        assert_eq!(churned, grown);
        assert_eq!(
            grown.subset_components(&[0, 1, 2, 3, 4]),
            churned.subset_components(&[0, 1, 2, 3, 4])
        );
        // Still a function of the vector: one live coordinate tells them apart.
        churned.add_edge(0, 4);
        assert_ne!(grown, churned);
    }

    /// FNV-1a over a word stream.
    fn fnv(h: &mut u64, x: u64) {
        for b in x.to_le_bytes() {
            *h = (*h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// The nested sampler implementation this layout replaced is gone, so
    /// its observable behaviour is pinned by digests recorded from it (at
    /// commit 9f6d208, the parent of the flat kernel): every `(parts,
    /// phases_used)` of a fixed churn-and-teardown schedule, and every label
    /// of the static sketch over the `u·n + v` space on a deletion schedule.
    #[test]
    fn churn_schedule_partitions_match_the_recorded_digest() {
        const COMMUNITY: u32 = 120;
        const N: u32 = 3 * COMMUNITY;
        const FNV_BASIS: u64 = 0xCBF2_9CE4_8422_2325;
        let mut rng = 0xC0FFEE_u64;
        let intra_edge = |rng: &mut u64| loop {
            let c = (next_u64(rng) % 3) as u32 * COMMUNITY;
            let u = c + (next_u64(rng) % COMMUNITY as u64) as u32;
            let v = c + (next_u64(rng) % COMMUNITY as u64) as u32;
            if u != v {
                return (u, v);
            }
        };
        let take_live = |live: &mut Vec<(u32, u32)>, rng: &mut u64| {
            live.swap_remove((next_u64(rng) % live.len() as u64) as usize)
        };
        let record = |sk: &DynamicConnectivitySketch, members: &[u32], digest: &mut u64| match sk
            .subset_components(members)
        {
            None => fnv(digest, u64::MAX),
            Some(p) => {
                fnv(digest, p.phases_used as u64);
                fnv(digest, p.parts.len() as u64);
                for part in &p.parts {
                    fnv(digest, part.len() as u64);
                    for &m in part {
                        fnv(digest, m as u64);
                    }
                }
            }
        };
        let all: Vec<u32> = (0..N).collect();
        let communities: Vec<Vec<u32>> = (0..3)
            .map(|c| (c * COMMUNITY..(c + 1) * COMMUNITY).collect())
            .collect();

        let mut sk = DynamicConnectivitySketch::new(26, 0x5EED);
        for _ in 0..N {
            sk.push_vertex();
        }
        // Sparse backbone (some vertices stay isolated, parallel edges occur).
        let mut live: Vec<(u32, u32)> = (0..400).map(|_| intra_edge(&mut rng)).collect();
        for &(u, v) in &live {
            sk.add_edge(u, v);
        }
        let mut digest = FNV_BASIS;
        record(&sk, &all, &mut digest);
        // Churn: every step inserts 30 fresh edges and deletes 30 live ones.
        for step in 0..20 {
            for _ in 0..30 {
                let e = intra_edge(&mut rng);
                sk.add_edge(e.0, e.1);
                live.push(e);
            }
            for _ in 0..30 {
                let (u, v) = take_live(&mut live, &mut rng);
                sk.remove_edge(v, u);
            }
            record(&sk, &communities[step % 3], &mut digest);
        }
        // A bridge joins two communities, then goes away again.
        sk.add_edge(5, COMMUNITY + 5);
        let joined: Vec<u32> = (0..2 * COMMUNITY).collect();
        record(&sk, &joined, &mut digest);
        sk.remove_edge(5, COMMUNITY + 5);
        record(&sk, &joined, &mut digest);
        // Teardown, a hundred edges at a time, down to the empty graph.
        while !live.is_empty() {
            for _ in 0..live.len().min(100) {
                let (u, v) = take_live(&mut live, &mut rng);
                sk.remove_edge(u, v);
            }
            record(&sk, &all, &mut digest);
        }
        assert_eq!(digest, 0x0d97_2047_55a4_ec20, "dynamic sketch digest");

        let mut st = crate::ConnectivitySketch::with_phases(N as usize, 26, 0x5EED);
        let mut live: Vec<(u32, u32)> = (0..500).map(|_| intra_edge(&mut rng)).collect();
        for &(u, v) in &live {
            st.add_edge(u as usize, v as usize);
        }
        let mut digest = FNV_BASIS;
        for _ in 0..4 {
            for _ in 0..100 {
                let (u, v) = take_live(&mut live, &mut rng);
                st.remove_edge(u as usize, v as usize);
            }
            let labels = st.components();
            fnv(&mut digest, labels.num_components() as u64);
            for v in 0..N as usize {
                fnv(&mut digest, labels.label(v) as u64);
            }
        }
        assert_eq!(digest, 0xa5ae_614a_c925_f319, "static sketch digest");
    }

    #[test]
    fn parallel_edges_need_matching_deletes() {
        let mut sk = sketch_with(2, &[(0, 1), (0, 1)]);
        sk.remove_edge(0, 1);
        // One copy survives: still connected.
        let p = sk.subset_components(&[0, 1]).unwrap();
        assert_eq!(p.parts.len(), 1);
        sk.remove_edge(0, 1);
        let p = sk.subset_components(&[0, 1]).unwrap();
        assert_eq!(p.parts.len(), 2);
    }

    #[test]
    fn pushed_vertices_join_later() {
        let mut sk = sketch_with(2, &[(0, 1)]);
        sk.push_vertex();
        sk.add_edge(1, 2);
        let p = sk.subset_components(&[0, 1, 2]).unwrap();
        assert_eq!(p.parts, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn subset_restricted_to_whole_components_is_exact() {
        // Two triangles; querying one triangle's members must not see the other.
        let sk = sketch_with(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
        let p = sk.subset_components(&[0, 1, 2]).unwrap();
        assert_eq!(p.parts, vec![vec![0, 1, 2]]);
        let p = sk.subset_components(&[3, 4, 5]).unwrap();
        assert_eq!(p.parts, vec![vec![3, 4, 5]]);
        // The union of both components is also a valid member set.
        let p = sk.subset_components(&all_members(6)).unwrap();
        assert_eq!(p.parts, vec![vec![0, 1, 2], vec![3, 4, 5]]);
    }

    #[test]
    fn subset_components_is_deterministic() {
        let sk = sketch_with(12, &[(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11)]);
        let a = sk.subset_components(&all_members(12)).unwrap();
        let b = sk.subset_components(&all_members(12)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn words_per_vertex_is_constant_and_positive() {
        let mut sk = DynamicConnectivitySketch::new(8, 7);
        let w = sk.words_per_vertex();
        assert!(w > 0);
        sk.push_vertex();
        sk.push_vertex();
        sk.add_edge(0, 1);
        assert_eq!(sk.words_per_vertex(), w);
    }

    #[test]
    #[should_panic(expected = "sorted ascending")]
    fn unsorted_members_panic() {
        let sk = sketch_with(3, &[]);
        let _ = sk.subset_components(&[2, 0]);
    }
}
