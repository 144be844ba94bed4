//! The Ahn–Guha–McGregor connectivity sketch (Proposition 8.1) over a
//! growing vertex universe, with turnstile updates.
//!
//! Every vertex `v` owns the *signed edge-incidence vector* `a_v`: for an
//! edge `{u, v}` with `u < v`, its coordinate in `a_u` is `+1` and in `a_v`
//! `−1`. For any vertex set `S` the non-zero coordinates of `Σ_{v∈S} a_v` are
//! exactly the edges with one endpoint in `S` — internal edges cancel. Each
//! vertex keeps one ℓ0-sampler of `a_v` per Borůvka phase (stored flat, see
//! [`kernel`](crate::kernel)), and Borůvka runs in sketch space: in round `i`
//! every current part sums its members' phase-`i` samplers and samples one
//! outgoing edge. A *fresh* sampler per phase keeps the samples independent
//! of earlier merges — the same "fresh randomness per phase" idea the paper
//! reuses for leader election in Section 6.
//!
//! Edge `{u, v}` with `u < v` lives at coordinate `(u << 32) | v`, which
//! does not depend on the vertex count:
//! [`DynamicConnectivitySketch::push_vertex`] appends a fresh empty vertex
//! sketch and every existing coordinate stays valid. The coordinate universe
//! is `2^64`, which costs nothing in space (the samplers are universe-size
//! oblivious; the kernel's power tables skip the coordinate's zero bytes);
//! the fingerprint test is evaluated over `p = 2^61 − 1` on the *actual
//! support* (at most `m` coordinates), giving a collision probability of
//! `O(m/p)` per recovery. Vertex ids must be dense and below `2^32`.
//!
//! The turnstile property is inherited from linearity: a deletion is a `−1`
//! update on the same coordinate, so after any interleaving of inserts and
//! deletes the sketch equals the sketch of the surviving edge multiset.
//!
//! Theorem 2's coordinator step builds the sketch one vertex at a time
//! instead: [`message_for`](DynamicConnectivitySketch::message_for) is the
//! message one player sends — a pure function of the shared keys and its
//! neighbour list, so the messages fan out over any executor — and
//! [`push_messages`](DynamicConnectivitySketch::push_messages) appends them
//! as vertices, equal to the sketch built edge by edge.
//!
//! [`DynamicConnectivitySketch::subset_components_from`] is the repair
//! primitive the streaming engine runs after a deletion cut its spanning
//! forest: sketch-space Borůvka restricted to the members of one (possibly
//! no-longer-connected) component, started from the forest edges that
//! survive. It returns the exact partition into connected parts — and the
//! sampled links that joined them — when a phase *certifies* it (every part's
//! summed level-0 cell is zero — a randomness-independent test), or `None`
//! on sampling failure so the caller can escalate to a full recompute.
//! [`subset_components`](DynamicConnectivitySketch::subset_components) is the
//! same call with nothing known.
//!
//! Borůvka reads its phases in order and stops at the first certifying
//! zero test, so a caller that keeps the multiset itself need not build
//! the phases it never reads: [`DynamicConnectivitySketch::lazy`] starts
//! with none built, updates reach the built ones only, and
//! [`subset_components_lazily`](DynamicConnectivitySketch::subset_components_lazily)
//! builds each phase from the caller's multiset the first time a round
//! reads it. [`DynamicConnectivitySketch::new`] is the same sketch with
//! every phase built at construction.

use std::ops::Range;

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
    /// The sampled edges `(u, v)`, `u < v`, whose union joined two parts, in
    /// the order Borůvka took them: together with the `known` edges it
    /// started from they span every part and close no cycle. A sample is
    /// only as good as its fingerprint — a caller that keeps these must
    /// check each against the live edge multiset.
    pub links: Vec<(u32, u32)>,
}

/// An AGM connectivity sketch whose vertex set can grow and whose edge
/// multiset supports turnstile updates (inserts and deletes).
///
/// All vertices share the same per-phase hash seeds (the shared-randomness
/// requirement of Proposition 8.1), so per-vertex sketches remain addable and
/// a component's sketch is the sum of its members' sketches.
///
/// Equality compares the built phases cell for cell (logically, see
/// [`VertexSketch`]); sketches with different built phases are never equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DynamicConnectivitySketch {
    keys: SketchKeys,
    /// Phases materialised so far: `0..built` sketch every update applied
    /// since they were built, and every vertex stores exactly those.
    built: usize,
    vertices: Vec<VertexSketch>,
}

/// Joins the sets of positions `a` and `b` of a local union–find under the
/// smaller root, which keeps the structure a pure function of the union
/// sequence (and every root the smallest position of its set). `false` if
/// they were already one set.
fn union(parent: &mut [u32], a: u32, b: u32) -> bool {
    let (ra, rb) = (find(parent, a), find(parent, b));
    if ra != rb {
        parent[ra.max(rb) as usize] = ra.min(rb);
    }
    ra != rb
}

fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        let g = parent[parent[x as usize] as usize];
        parent[x as usize] = g;
        x = g;
    }
    x
}

/// Subset Borůvka between two rounds: what a run carries across the build
/// of the phase its next round reads.
struct Boruvka<'a> {
    /// Sorted ascending; global ids map to positions by binary search.
    members: &'a [u32],
    /// Local union–find over member positions.
    parent: Vec<u32>,
    links: Vec<(u32, u32)>,
    /// The next round, which reads phase `min(round, num_phases − 1)`.
    round: usize,
}

/// Where [`DynamicConnectivitySketch::advance`] stopped.
enum Stop {
    /// Certified (`Some`), or the phase budget ran out (`None`).
    Done(Option<SubsetPartition>),
    /// The next round reads a phase that is not built.
    Unbuilt,
}

impl DynamicConnectivitySketch {
    /// Creates an empty sketch (zero vertices) with `num_phases` independent
    /// Borůvka phases, all built. More phases raise the certification
    /// probability of [`subset_components`](Self::subset_components) and the
    /// message size.
    ///
    /// # Panics
    ///
    /// Panics if `num_phases` is zero.
    pub fn new(num_phases: usize, seed: u64) -> Self {
        let mut sketch = Self::lazy(num_phases, seed);
        while sketch.built < num_phases {
            sketch.build_phase([]);
        }
        sketch
    }

    /// [`new`](Self::new) with no phase built. Updates reach the built
    /// phases only, so the caller must keep the edge multiset itself and
    /// hand it to [`build_phase`](Self::build_phase) or
    /// [`subset_components_lazily`](Self::subset_components_lazily).
    ///
    /// # Panics
    ///
    /// Panics if `num_phases` is zero.
    pub fn lazy(num_phases: usize, seed: u64) -> Self {
        DynamicConnectivitySketch {
            keys: SketchKeys::new(num_phases, seed),
            built: 0,
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

    /// Number of phases built so far: `0..built_phases()` are materialised.
    pub fn built_phases(&self) -> usize {
        self.built
    }

    /// Builds phase [`built_phases`](Self::built_phases) as the sketch of the
    /// edge multiset `pairs` lists, each pair `(u, v)` with its copies (one
    /// weighted update per pair, self-loops ignored). That multiset must be
    /// the one the built phases sketch, or the phases disagree.
    ///
    /// # Panics
    ///
    /// Panics if every phase is built or an endpoint is out of range.
    pub fn build_phase(&mut self, pairs: impl IntoIterator<Item = ((u32, u32), i64)>) {
        let phase = self.built;
        assert!(phase < self.num_phases(), "every phase is built");
        for vertex in &mut self.vertices {
            vertex.push_phase();
        }
        self.built += 1;
        for ((u, v), copies) in pairs {
            self.apply_edge(u, v, copies, phase..phase + 1);
        }
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
        self.vertices.push(self.keys.empty_vertex(self.built));
    }

    /// The message vertex `v` sends to the coordinator under Proposition
    /// 8.1: the sketch of its incidence vector in the built phases, from its
    /// neighbour list (self-loops ignored, parallel edges counted with
    /// multiplicity). A pure function of the keys, `v` and `neighbors`, so
    /// callers may build the messages of vertices not pushed yet on any
    /// fan-out and append them with [`push_messages`](Self::push_messages).
    pub fn message_for(&self, v: u32, neighbors: &[u32]) -> VertexSketch {
        let mut message = self.keys.empty_vertex(self.built);
        for &w in neighbors.iter().filter(|&&w| w != v) {
            let sign = if v < w { 1 } else { -1 };
            self.keys.update(&mut message, edge_coordinate(v, w), sign);
        }
        message
    }

    /// Appends `messages` as vertices: the `i`-th becomes vertex
    /// `num_vertices() + i`, the `v` it must have been built for with
    /// [`message_for`](Self::message_for). Once every endpoint's message is
    /// in, the sketch equals the one built by
    /// [`push_vertex`](Self::push_vertex) and [`add_edge`](Self::add_edge)
    /// over the same edges (sketches are linear).
    ///
    /// # Panics
    ///
    /// Panics if a message stores different phases than this sketch.
    pub fn push_messages(&mut self, messages: impl IntoIterator<Item = VertexSketch>) {
        for message in messages {
            assert_eq!(
                (message.num_phases(), message.built_phases()),
                (self.num_phases(), self.built),
                "a message must be built by this sketch's `message_for`"
            );
            self.vertices.push(message);
        }
    }

    /// Inserts the undirected edge `{u, v}`. Self-loops are ignored (no slot
    /// in the incidence vector). Parallel edges accumulate multiplicity.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn add_edge(&mut self, u: u32, v: u32) {
        self.update_edge(u, v, 1);
    }

    /// Deletes one copy of the undirected edge `{u, v}` — a `−1` turnstile
    /// update on the same coordinate. The caller is responsible for only
    /// deleting live edges; the sketch itself cannot detect over-deletion.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn remove_edge(&mut self, u: u32, v: u32) {
        self.update_edge(u, v, -1);
    }

    /// Adds `delta` copies of the undirected edge `{u, v}` (removes them
    /// when negative) to the built phases in one weighted update. By
    /// linearity the cells equal those of `|delta|` unit updates exactly.
    /// Self-loops are ignored.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn update_edge(&mut self, u: u32, v: u32, delta: i64) {
        self.apply_edge(u, v, delta, 0..self.built);
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

    fn apply_edge(&mut self, u: u32, v: u32, delta: i64, phases: Range<usize>) {
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
        self.keys.update_edge(
            &mut self.vertices,
            a as usize,
            b as usize,
            idx,
            delta,
            phases,
        );
    }

    /// [`subset_components_from`](Self::subset_components_from) with nothing
    /// known: Borůvka starts from singletons.
    pub fn subset_components(&self, members: &[u32]) -> Option<SubsetPartition> {
        self.subset_components_from(members, &[])
    }

    /// Sketch-space Borůvka restricted to `members` (sorted ascending, no
    /// duplicates), which must be a union of whole connected components of
    /// the current edge multiset — then every edge incident to a member stays
    /// inside the set and the signed coordinates of any sub-part's sum are
    /// exactly its outgoing edges within the set.
    ///
    /// `known` are edges the caller vouches are live, both endpoints members
    /// (a surviving spanning forest, say): Borůvka starts from their
    /// components instead of from singletons, so a member set that `known`
    /// already connects certifies on the first zero test and one that it
    /// leaves in `c` pieces needs only the phases that rejoin those.
    ///
    /// Returns the certified exact partition of `members` into connected
    /// parts, or `None` when the phase budget is exhausted before a phase
    /// certifies (every part's summed sampler reads zero on level 0, which
    /// holds all coordinates — a false zero needs a fingerprint collision).
    /// `None` means "sampling failure, escalate"; it never silently returns
    /// an uncertified partition. Only built phases are read: a round that
    /// would read an unbuilt one ends the run with `None` as well
    /// ([`subset_components_lazily`](Self::subset_components_lazily) builds
    /// it instead).
    ///
    /// Deterministic: a part's representative is its smallest member
    /// whatever the order of `known`, parts are discovered in first-seen
    /// member order and reported ordered by smallest member.
    ///
    /// # Panics
    ///
    /// Panics if `members` is unsorted, has duplicates, or contains an
    /// out-of-range vertex, or if a `known` endpoint is not a member.
    pub fn subset_components_from(
        &self,
        members: &[u32],
        known: &[(u32, u32)],
    ) -> Option<SubsetPartition> {
        match self.advance(&mut self.start(members, known)) {
            Stop::Done(partition) => partition,
            Stop::Unbuilt => None,
        }
    }

    /// [`subset_components_from`](Self::subset_components_from) that builds
    /// each phase the first time a round reads it, from the multiset
    /// `pairs()` lists (see [`build_phase`](Self::build_phase)). A run that
    /// certifies after `phases_used` rounds leaves phases
    /// `0..=phases_used` built, and returns what the eagerly built sketch
    /// returns.
    ///
    /// # Panics
    ///
    /// As [`subset_components_from`](Self::subset_components_from), and if
    /// a listed endpoint is out of range.
    pub fn subset_components_lazily<I>(
        &mut self,
        members: &[u32],
        known: &[(u32, u32)],
        mut pairs: impl FnMut() -> I,
    ) -> Option<SubsetPartition>
    where
        I: IntoIterator<Item = ((u32, u32), i64)>,
    {
        let mut run = self.start(members, known);
        loop {
            match self.advance(&mut run) {
                Stop::Done(partition) => return partition,
                Stop::Unbuilt => self.build_phase(pairs()),
            }
        }
    }

    /// A run over `members` before its first round: the local union–find
    /// holds the components of `known`.
    fn start<'a>(&self, members: &'a [u32], known: &[(u32, u32)]) -> Boruvka<'a> {
        assert!(
            members.windows(2).all(|w| w[0] < w[1]),
            "members must be sorted ascending without duplicates"
        );
        if let Some(&last) = members.last() {
            assert!((last as usize) < self.vertices.len(), "member out of range");
        }
        let mut parent: Vec<u32> = (0..members.len() as u32).collect();
        for &(u, v) in known {
            let position = |x: u32| match members.binary_search(&x) {
                Ok(pos) => pos as u32,
                Err(_) => panic!("known edge ({u}, {v}): endpoint {x} is not a member"),
            };
            union(&mut parent, position(u), position(v));
        }
        Boruvka {
            members,
            parent,
            links: Vec::new(),
            round: 0,
        }
    }

    /// Runs rounds of `run` until one certifies, the phase budget runs out,
    /// or the next round would read a phase that is not built — whose
    /// level-0 cells read zero and would falsely certify.
    fn advance(&self, run: &mut Boruvka<'_>) -> Stop {
        let (members, k) = (run.members, run.members.len());
        if k <= 1 {
            return Stop::Done(Some(SubsetPartition {
                parts: members.iter().map(|&m| vec![m]).collect(),
                phases_used: 0,
                links: Vec::new(),
            }));
        }
        let sketch_of = |m: u32| &self.vertices[m as usize];
        let mut rows = ComponentRows::new(k, members.iter().map(|&m| sketch_of(m)));
        let num_phases = self.keys.num_phases();
        // One extra round past the last phase: the final phase's unions may
        // complete the partition, and the zero test is valid on any phase's
        // samplers (level 0 holds every coordinate regardless of the phase's
        // sub-sampling randomness).
        loop {
            let round = run.round;
            let phase = round.min(num_phases - 1);
            if phase >= self.built {
                return Stop::Unbuilt;
            }
            rows.clear();
            for (pos, &m) in members.iter().enumerate() {
                rows.add(
                    find(&mut run.parent, pos as u32) as usize,
                    sketch_of(m),
                    phase,
                );
            }
            if rows.nonzero().next().is_none() {
                // Certified: every current part has no edge leaving it within
                // the member set, so the parts are exact connected components.
                let mut parts: Vec<Vec<u32>> = Vec::new();
                let mut part_of_root = vec![usize::MAX; k];
                for (pos, &m) in members.iter().enumerate() {
                    let root = find(&mut run.parent, pos as u32) as usize;
                    if part_of_root[root] == usize::MAX {
                        part_of_root[root] = parts.len();
                        parts.push(Vec::new());
                    }
                    parts[part_of_root[root]].push(m);
                }
                // First-seen order over ascending members already orders parts
                // by smallest member and each part ascending.
                return Stop::Done(Some(SubsetPartition {
                    parts,
                    phases_used: round,
                    links: std::mem::take(&mut run.links),
                }));
            }
            if round == num_phases {
                return Stop::Done(None);
            }
            for row in rows.nonzero() {
                if let Some((idx, _weight)) = self.keys.sample(phase, row) {
                    let (u, v) = decode_edge_coordinate(idx);
                    // A fingerprint collision can surface a garbage
                    // coordinate; only union endpoints that are both members.
                    if let (Ok(pu), Ok(pv)) = (members.binary_search(&u), members.binary_search(&v))
                    {
                        if union(&mut run.parent, pu as u32, pv as u32) {
                            run.links.push((u, v));
                        }
                    }
                }
            }
            run.round += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::l0::next_u64;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use wcc_graph::prelude::*;

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
    /// its observable behaviour is pinned by a digest recorded from it (at
    /// commit 9f6d208, the parent of the flat kernel): every `(parts,
    /// phases_used)` of a fixed churn-and-teardown schedule.
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
    }

    #[test]
    fn per_vertex_construction_matches_add_edge() {
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let g = generators::random_out_degree_graph(80, 6, &mut rng);
        let n = g.num_vertices();
        // A self-loop and a parallel copy on top.
        let g = Graph::from_edges_unchecked(n, g.edge_iter().chain([(3, 3), (0, 1), (0, 1)]));
        let mut incremental = DynamicConnectivitySketch::new(20, 99);
        (0..n).for_each(|_| incremental.push_vertex());
        for (u, v) in g.edge_iter() {
            incremental.add_edge(u as u32, v as u32);
        }
        let mut assembled = DynamicConnectivitySketch::new(20, 99);
        let messages: Vec<VertexSketch> = (0..n)
            .map(|v| assembled.message_for(v as u32, g.neighbors(v)))
            .collect();
        assembled.push_messages(messages);
        assert_eq!(incremental, assembled);
    }

    #[test]
    #[should_panic(expected = "built by this sketch's `message_for`")]
    fn a_message_of_other_phases_panics() {
        let lazy = DynamicConnectivitySketch::lazy(20, 99);
        let message = lazy.message_for(0, &[1]);
        DynamicConnectivitySketch::new(20, 99).push_messages([message]);
    }

    #[test]
    fn self_loops_are_ignored() {
        let looped = sketch_with(5, &[(2, 2), (0, 1)]);
        assert_eq!(looped, sketch_with(5, &[(0, 1)]));
        assert_eq!(looped.message_for(2, &[2, 2]), looped.message_for(2, &[]));
    }

    /// The contract the stream and Theorem 2's coordinator both rely on:
    /// a run that cannot finish within its phases returns `None`, never a
    /// partition other than the exact connected components.
    #[test]
    fn too_few_phases_fail_with_none_or_certify_the_exact_partition() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let (mut failed, mut certified) = (0, 0);
        for trial in 0..40u64 {
            let n = 40;
            let g = generators::erdos_renyi(n, 0.03, &mut rng);
            let edges: Vec<(u32, u32)> = g.edge_iter().map(|(u, v)| (u as u32, v as u32)).collect();
            let truth = oracle_parts(n, &all_members(n), &edges);
            for phases in [1, 2] {
                let mut sk = DynamicConnectivitySketch::new(phases, trial);
                (0..n).for_each(|_| sk.push_vertex());
                edges.iter().for_each(|&(u, v)| sk.add_edge(u, v));
                match sk.subset_components(&all_members(n)) {
                    None => failed += 1,
                    Some(p) => {
                        assert_eq!(p.parts, truth, "trial {trial}, {phases} phases");
                        certified += 1;
                    }
                }
            }
        }
        assert!(failed > 0, "the draw must exercise the failure branch");
        assert!(certified > 0, "the draw must exercise the certified branch");
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

    /// Partition of `members` under `edges`, in the shape `parts` is reported
    /// (union by smaller root, so first-seen order is smallest-member order).
    fn oracle_parts(n: usize, members: &[u32], edges: &[(u32, u32)]) -> Vec<Vec<u32>> {
        let mut root: Vec<u32> = (0..n as u32).collect();
        fn find(root: &[u32], mut x: u32) -> u32 {
            while root[x as usize] != x {
                x = root[x as usize];
            }
            x
        }
        for &(u, v) in edges {
            let (ru, rv) = (find(&root, u), find(&root, v));
            root[ru.max(rv) as usize] = ru.min(rv);
        }
        let mut parts: Vec<Vec<u32>> = Vec::new();
        for &m in members {
            let r = find(&root, m);
            match parts.iter_mut().find(|part| part[0] == r) {
                Some(part) => part.push(m),
                None => parts.push(vec![m]),
            }
        }
        parts
    }

    #[test]
    fn warm_start_matches_cold_start_and_a_union_find_oracle() {
        const N: u32 = 48;
        let mut rng = 0x00F0_2E57_u64;
        let mut cut_starts = 0;
        for trial in 0..60u64 {
            // A sparse random turnstile schedule: several components, some
            // isolated vertices, parallel edges. A lazy twin gets the same
            // ops, with its phase 0 built from the live multiset halfway.
            let mut sk = sketch_with(N as usize, &[]);
            let mut lazy = DynamicConnectivitySketch::lazy(sk.num_phases(), 42);
            (0..N).for_each(|_| lazy.push_vertex());
            let mut live: Vec<(u32, u32)> = Vec::new();
            let copies = |live: &[(u32, u32)]| {
                let mut copies = std::collections::BTreeMap::new();
                for &pair in live {
                    *copies.entry(pair).or_insert(0i64) += 1;
                }
                copies
            };
            let ops = 40 + trial % 30;
            for op in 0..ops {
                if op == ops / 2 {
                    lazy.build_phase(copies(&live));
                }
                let (u, v) = (
                    (next_u64(&mut rng) % N as u64) as u32,
                    (next_u64(&mut rng) % N as u64) as u32,
                );
                if u != v {
                    sk.add_edge(u, v);
                    lazy.add_edge(u, v);
                    live.push((u.min(v), u.max(v)));
                }
                if next_u64(&mut rng).is_multiple_of(3) && !live.is_empty() {
                    let (a, b) =
                        live.swap_remove((next_u64(&mut rng) % live.len() as u64) as usize);
                    sk.remove_edge(b, a);
                    lazy.update_edge(a, b, -1);
                }
            }
            // Members: a random union of whole components.
            let components = oracle_parts(N as usize, &all_members(N as usize), &live);
            let mut members: Vec<u32> = components
                .iter()
                .filter(|_| !next_u64(&mut rng).is_multiple_of(4))
                .flatten()
                .copied()
                .collect();
            members.sort_unstable();
            let inside: Vec<(u32, u32)> = live
                .iter()
                .copied()
                .filter(|(u, _)| members.binary_search(u).is_ok())
                .collect();
            // Known: a random subset of the live edges inside, cycles and
            // repeats allowed, in no particular order.
            let known: Vec<(u32, u32)> = inside
                .iter()
                .copied()
                .filter_map(|(u, v)| match next_u64(&mut rng) % 3 {
                    0 => None,
                    1 => Some((u, v)),
                    _ => Some((v, u)),
                })
                .collect();

            let truth = oracle_parts(N as usize, &members, &inside);
            let cold = sk.subset_components(&members).expect("26 phases certify");
            let warm = sk
                .subset_components_from(&members, &known)
                .expect("26 phases certify");
            assert_eq!(cold.parts, truth, "trial {trial}");
            assert_eq!(warm.parts, truth, "trial {trial}");
            // The lazy twin builds exactly the phases the run reads and
            // returns what the eager sketch returns.
            let lazily = lazy.subset_components_lazily(&members, &known, || copies(&live));
            assert_eq!(lazily.as_ref(), Some(&warm), "trial {trial}");
            let read = if members.len() > 1 {
                warm.phases_used + 1
            } else {
                0
            };
            assert_eq!(lazy.built_phases(), read.max(1), "trial {trial}");

            // From either start, the links are live edges, each joins two
            // pieces of what came before it, and together with the start they
            // connect every part.
            for (start, partition) in [(&[][..], &cold), (&known[..], &warm)] {
                let mut joined = start.to_vec();
                for &link in &partition.links {
                    assert!(
                        inside.contains(&link),
                        "trial {trial}: {link:?} is not live"
                    );
                    let pieces = oracle_parts(N as usize, &members, &joined).len();
                    joined.push(link);
                    assert_eq!(
                        oracle_parts(N as usize, &members, &joined).len(),
                        pieces - 1,
                        "trial {trial}: link {link:?} closes a cycle"
                    );
                }
                assert_eq!(oracle_parts(N as usize, &members, &joined), truth);
            }
            let pieces = oracle_parts(N as usize, &members, &known).len();
            assert_eq!(warm.links.len(), pieces - truth.len(), "trial {trial}");
            cut_starts += usize::from(pieces > truth.len() && !known.is_empty());
        }
        assert!(
            cut_starts > 20,
            "the schedules must exercise real warm starts"
        );
    }

    #[test]
    fn a_spanning_known_set_certifies_without_a_phase() {
        let path: Vec<(u32, u32)> = (0..9).map(|i| (i, i + 1)).collect();
        let sk = sketch_with(10, &path);
        let warm = sk.subset_components_from(&all_members(10), &path).unwrap();
        assert_eq!(warm.parts, vec![all_members(10)]);
        assert_eq!((warm.phases_used, warm.links.len()), (0, 0));
        // One tree edge short, one replacement edge in the sketch.
        let mut sk = sk;
        sk.add_edge(0, 9);
        sk.remove_edge(4, 5);
        let known: Vec<(u32, u32)> = path.iter().copied().filter(|&e| e != (4, 5)).collect();
        let warm = sk.subset_components_from(&all_members(10), &known).unwrap();
        assert_eq!(warm.parts, vec![all_members(10)]);
        assert_eq!(warm.links, vec![(0, 9)]);
    }

    #[test]
    fn an_unbuilt_phase_is_never_read_nor_equal_to_a_built_one() {
        // Two components; `known` spans only one, so a zero test on an
        // unbuilt phase (cells all zero) would falsely certify two parts
        // where the eager sketch must link three.
        let edges = [(0, 1), (1, 2), (3, 4)];
        let eager = sketch_with(5, &edges);
        let mut lazy = DynamicConnectivitySketch::lazy(24, 42);
        (0..5).for_each(|_| lazy.push_vertex());
        let members = all_members(5);
        let known = [(0, 1)];
        assert_eq!(lazy.subset_components_from(&members, &known), None);
        assert_ne!(lazy, eager);
        assert_ne!(lazy, sketch_with(5, &[]), "unbuilt is not empty");

        let pairs = || edges.map(|pair| (pair, 1));
        lazy.build_phase(pairs());
        assert_ne!(lazy, eager, "one built phase is not all of them");
        let want = eager.subset_components_from(&members, &known);
        assert!(want.as_ref().is_some_and(|p| p.phases_used >= 1));
        assert_eq!(lazy.subset_components_from(&members, &known), None);
        assert_eq!(lazy.subset_components_lazily(&members, &known, pairs), want);
        while lazy.built_phases() < lazy.num_phases() {
            lazy.build_phase(pairs());
        }
        assert_eq!(lazy, eager);
    }

    #[test]
    #[should_panic(expected = "known edge (1, 3): endpoint 3 is not a member")]
    fn a_known_endpoint_outside_the_members_panics() {
        let sk = sketch_with(4, &[(0, 1), (1, 3)]);
        let _ = sk.subset_components_from(&[0, 1, 2], &[(0, 1), (1, 3)]);
    }

    #[test]
    #[should_panic(expected = "sorted ascending")]
    fn unsorted_members_panic() {
        let sk = sketch_with(3, &[]);
        let _ = sk.subset_components(&[2, 0]);
    }
}
