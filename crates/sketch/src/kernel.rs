//! The flat turnstile-sketch kernel under [`DynamicConnectivitySketch`].
//!
//! Logically every vertex still owns one [`L0Sampler`] per Borůvka phase —
//! 61 one-sparse recoveries sharing the phase's level hash and fingerprint
//! point `z` — and the kernel keeps every `(w, iw, f)` measurement of that
//! nested structure bit for bit (the unit tests compare the two cell for
//! cell). What changes is where the work and the bytes go:
//!
//! * **Shared keys.** Everything the vertices of one sketch have in common
//!   lives once in `SketchKeys`: per phase the level-hash seed, `z`, and a
//!   byte-window table `pow[k][b] = z^(b·256^k) mod p` (8 × 256 entries,
//!   16 KiB, expanded when the phase is built). `z^index` is then one table
//!   entry per non-zero byte of the index — at most 7 multiplications
//!   instead of a 64-step square-and-multiply.
//! * **One fingerprint term per (update, phase).** An edge update computes
//!   its level and `δ·z^index` once per phase and adds `(±δ, ±index·δ,
//!   ±term)` to levels `0..=level` of both endpoints; the nested structure
//!   recomputed the power at every level of every sampler of both endpoints.
//! * **Contiguous, lazily levelled and lazily phased cells.** A vertex
//!   stores 32-byte cells phase-major in one `Vec`, and only levels `0..=ℓ`
//!   where `ℓ` is the highest level any of its updates reached; levels
//!   above are logically zero. A coordinate reaches level `j` with
//!   probability `2^-j`, so a vertex touched by `d` updates stores about
//!   `log₂(phases · d)` of the 61 levels. It also stores only the phases
//!   built so far: a phase is appended whole when its sketch is built
//!   (from the multiset, by the caller), updates reach the built phases
//!   only, and growth re-strides those. An unbuilt phase is *unknown*, not
//!   zero — its level-0 cell would read zero and falsely certify — so
//!   nothing reads one and equality never matches it with a built phase.
//! * **Row accumulators.** Sketch-space Borůvka sums each component's cells
//!   for the current phase straight from those slices into one row per
//!   component (`ComponentRows`) and recovers samples through the window
//!   tables.
//!
//! None of this is visible in the *message* a vertex sends under
//! Proposition 8.1: [`DynamicConnectivitySketch::words_per_vertex`] still
//! charges all 61 levels of every phase with their `z`, because that is
//! what the model's fixed-size linear sketch occupies on the wire.
//!
//! [`DynamicConnectivitySketch`]: crate::DynamicConnectivitySketch
//! [`DynamicConnectivitySketch::words_per_vertex`]: crate::DynamicConnectivitySketch::words_per_vertex
//! [`L0Sampler`]: crate::L0Sampler

use std::ops::Range;

use crate::l0::{fingerprint_point, level_of, NUM_LEVELS};
use crate::one_sparse::{delta_mod, mul_mod, neg_mod, Cell, RecoveryOutcome, WORDS_PER_CELL};

/// Byte windows of a 64-bit exponent.
const WINDOWS: usize = 8;

/// Seed of the phase-`phase` sampler of a sketch seeded with `base_seed`.
fn phase_seed(base_seed: u64, phase: usize) -> u64 {
    base_seed.wrapping_add(0x9E37_79B9 * (phase as u64 + 1))
}

/// The shared randomness of one Borůvka phase.
#[derive(Clone)]
struct PhaseKey {
    /// Seed of the level-assignment hash.
    seed: u64,
    /// `pow[k][b] = z^(b · 256^k) mod p` for the phase's fingerprint point.
    pow: Box<[[u64; 256]; WINDOWS]>,
}

impl PhaseKey {
    fn new(seed: u64) -> Self {
        let mut pow = Box::new([[1u64; 256]; WINDOWS]);
        // `base` is z^(256^k) while window k is filled.
        let mut base = fingerprint_point(seed);
        for window in pow.iter_mut() {
            for b in 1..256 {
                window[b] = mul_mod(window[b - 1], base);
            }
            base = mul_mod(window[255], base);
        }
        PhaseKey { seed, pow }
    }

    /// `z^exp mod p`: the product of one table entry per non-zero byte.
    fn pow(&self, exp: u64) -> u64 {
        let mut acc = self.pow[0][exp as u8 as usize];
        for k in 1..WINDOWS {
            let byte = (exp >> (8 * k)) as u8;
            if byte != 0 {
                acc = mul_mod(acc, self.pow[k][byte as usize]);
            }
        }
        acc
    }
}

/// The random bits every vertex of one sketch shares — Proposition 8.1's
/// "players have access to `polylog(n)` shared random bits" — expanded
/// into the tables the update and recovery paths read. Build one per sketch
/// and hand it out by reference; it is a pure function of
/// `(num_phases, seed)`. A phase's table is expanded when the phase is
/// built ([`build_phase`](Self::build_phase)), so a lazily built sketch
/// holds the 16 KiB of each phase it reads and no more.
#[derive(Clone)]
pub(crate) struct SketchKeys {
    num_phases: usize,
    seed: u64,
    /// The keys of phases `0..phases.len()`, the ones expanded so far.
    phases: Vec<PhaseKey>,
}

impl SketchKeys {
    /// The keys of `num_phases` independent Borůvka phases, none expanded.
    ///
    /// # Panics
    ///
    /// Panics if `num_phases` is zero.
    pub(crate) fn lazy(num_phases: usize, seed: u64) -> Self {
        assert!(num_phases > 0, "at least one Borůvka phase required");
        SketchKeys {
            num_phases,
            seed,
            phases: Vec::new(),
        }
    }

    /// [`lazy`](Self::lazy) with every phase expanded.
    pub(crate) fn new(num_phases: usize, seed: u64) -> Self {
        let mut keys = Self::lazy(num_phases, seed);
        (0..num_phases).for_each(|phase| keys.expand(phase));
        keys
    }

    /// Expands phase `phase`'s key unless it is already: phases expand in
    /// order, so `phase` is at most the number expanded.
    fn expand(&mut self, phase: usize) {
        assert!(phase < self.num_phases, "phase {phase} out of range");
        if phase == self.phases.len() {
            self.phases
                .push(PhaseKey::new(phase_seed(self.seed, phase)));
        }
        debug_assert!(phase < self.phases.len(), "phases expand in order");
    }

    /// Number of phases whose key is expanded.
    #[cfg(test)]
    pub(crate) fn expanded_phases(&self) -> usize {
        self.phases.len()
    }

    /// Number of Borůvka phases (independent samplers per vertex).
    pub(crate) fn num_phases(&self) -> usize {
        self.num_phases
    }

    /// Size of one vertex's message in machine words (the quantity
    /// Proposition 8.1 bounds by `O(log³ n)` bits): per phase the sampler's
    /// seed and all 61 levels, however few of them are physically stored.
    pub(crate) fn words_per_vertex(&self) -> usize {
        self.num_phases * (1 + NUM_LEVELS * WORDS_PER_CELL)
    }

    /// An empty per-vertex message under these keys that stores phases
    /// `0..built`.
    pub(crate) fn empty_vertex(&self, built: usize) -> VertexSketch {
        debug_assert!(built <= self.phases.len());
        VertexSketch {
            num_phases: self.num_phases,
            built,
            levels: 0,
            cells: Vec::new(),
        }
    }

    /// Per phase in `phases`, the phase, the level of coordinate `index` and
    /// the fingerprint term `delta · z^index mod p` of the update
    /// `vector[index] += delta`.
    fn terms(
        &self,
        index: u64,
        delta: i64,
        phases: Range<usize>,
    ) -> impl Iterator<Item = (usize, usize, u64)> + '_ {
        let delta_mod = delta_mod(delta);
        let keys = &self.phases[phases.clone()];
        phases.zip(keys).map(move |(phase, key)| {
            (
                phase,
                level_of(key.seed, index),
                mul_mod(delta_mod, key.pow(index)),
            )
        })
    }

    /// Applies `vector[index] += delta` to every phase one vertex stores.
    pub(crate) fn update(&self, vertex: &mut VertexSketch, index: u64, delta: i64) {
        let iw = index as i128 * delta as i128;
        for (phase, level, term) in self.terms(index, delta, 0..vertex.built) {
            vertex.add(phase, level, delta, iw, term);
        }
    }

    /// Applies the signed incidence update of edge coordinate `index`
    /// between vertices `a < b` — `+delta` on `a`, `−delta` on `b` — to the
    /// given phases, which both must store.
    pub(crate) fn update_edge(
        &self,
        vertices: &mut [VertexSketch],
        a: usize,
        b: usize,
        index: u64,
        delta: i64,
        phases: Range<usize>,
    ) {
        debug_assert!(a < b);
        let (low, high) = vertices.split_at_mut(b);
        let (plus, minus) = (&mut low[a], &mut high[0]);
        let iw = index as i128 * delta as i128;
        for (phase, level, term) in self.terms(index, delta, phases) {
            plus.add(phase, level, delta, iw, term);
            minus.add(phase, level, -delta, -iw, neg_mod(term));
        }
    }

    /// Appends phase `phase` — the next one — to every vertex of
    /// `vertices` and applies to it the edge updates `edges`, each
    /// `(a, b, index, delta)` with `a < b` as in
    /// [`update_edge`](Self::update_edge), expanding the phase's key first.
    /// A first pass over the edges finds each endpoint's top level in the
    /// phase, so every vertex is re-strided at most once, and a second
    /// applies the updates: nothing the size of the edge list is buffered.
    pub(crate) fn build_phase<I>(&mut self, vertices: &mut [VertexSketch], phase: usize, edges: I)
    where
        I: Iterator<Item = (usize, usize, u64, i64)> + Clone,
    {
        self.expand(phase);
        let seed = self.phases[phase].seed;
        let mut levels: Vec<usize> = vertices.iter().map(|vertex| vertex.levels).collect();
        for (a, b, index, _) in edges.clone() {
            let top = level_of(seed, index) + 1;
            levels[a] = levels[a].max(top);
            levels[b] = levels[b].max(top);
        }
        for (vertex, levels) in vertices.iter_mut().zip(levels) {
            vertex.push_phase(levels);
        }
        for (a, b, index, delta) in edges {
            self.update_edge(vertices, a, b, index, delta, phase..phase + 1);
        }
    }

    /// Attempts to return a non-zero coordinate of the vector a phase-`phase`
    /// row sketches, scanning levels in [`L0Sampler::sample`]'s order.
    ///
    /// [`L0Sampler::sample`]: crate::L0Sampler::sample
    pub(crate) fn sample(&self, phase: usize, row: &[Cell]) -> Option<(u64, i64)> {
        let key = &self.phases[phase];
        row.iter()
            .find_map(|cell| match cell.recover(|i| key.pow(i)) {
                RecoveryOutcome::OneSparse { index, weight } => Some((index, weight)),
                _ => None,
            })
    }
}

/// Keys are a function of `(num_phases, seed)`, so that is what equality
/// looks at, however many phases each has expanded (and a derived `Debug`
/// would print 16 KiB per expanded phase).
impl PartialEq for SketchKeys {
    fn eq(&self, other: &Self) -> bool {
        (self.num_phases, self.seed) == (other.num_phases, other.seed)
    }
}

impl Eq for SketchKeys {}

impl std::fmt::Debug for SketchKeys {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SketchKeys")
            .field("num_phases", &self.num_phases)
            .field("expanded_phases", &self.phases.len())
            .finish_non_exhaustive()
    }
}

/// The per-vertex message of Proposition 8.1: `num_phases` independent
/// ℓ0-samplers of the vertex's signed edge-incidence vector, stored flat.
///
/// Equality is *logical* — a function of the sketched vector only: levels a
/// vertex never stored compare equal to stored levels that are all zero, so
/// a sketch that grew for a coordinate later deleted equals a fresh one.
/// Phases are not: two messages are equal only if they store the same
/// phases, since an unbuilt phase says nothing about the vector.
#[derive(Debug, Clone)]
pub struct VertexSketch {
    num_phases: usize,
    /// Phases physically stored: `0..built`, the rest not built yet.
    built: usize,
    /// Levels physically stored per phase; levels at or above are zero.
    levels: usize,
    /// Phase-major: cell `(phase, level)` sits at `phase · levels + level`.
    cells: Vec<Cell>,
}

impl VertexSketch {
    /// Number of Borůvka phases this message carries samplers for.
    pub fn num_phases(&self) -> usize {
        self.num_phases
    }

    /// Number of phases stored: `0..built_phases()`.
    pub(crate) fn built_phases(&self) -> usize {
        self.built
    }

    /// The stored cells of one built phase (levels `0..levels`).
    fn phase_cells(&self, phase: usize) -> &[Cell] {
        debug_assert!(phase < self.built, "phase {phase} is not built");
        &self.cells[phase * self.levels..(phase + 1) * self.levels]
    }

    /// Levels physically stored per phase.
    #[cfg(test)]
    pub(crate) fn stored_levels(&self) -> usize {
        self.levels
    }

    /// Appends phase `built` with every cell zero, ready for its updates,
    /// storing at least `levels` levels per phase from now on.
    fn push_phase(&mut self, levels: usize) {
        assert!(self.built < self.num_phases, "every phase is built");
        if levels > self.levels {
            self.restride(self.built + 1, levels);
        } else {
            self.cells
                .resize(self.cells.len() + self.levels, Cell::ZERO);
        }
        self.built += 1;
    }

    /// Re-strides the cells of the built phases so each stores `levels`
    /// levels, with room for `phases` phases (the ones past `built` zero).
    fn restride(&mut self, phases: usize, levels: usize) {
        debug_assert!(levels > self.levels && levels <= NUM_LEVELS);
        let mut cells = vec![Cell::ZERO; phases * levels];
        if self.levels > 0 {
            let old_rows = self.cells.chunks_exact(self.levels);
            for (new, old) in cells.chunks_exact_mut(levels).zip(old_rows) {
                new[..self.levels].copy_from_slice(old);
            }
        }
        self.cells = cells;
        self.levels = levels;
    }

    /// Adds one update's measurements to levels `0..=level` of `phase`.
    fn add(&mut self, phase: usize, level: usize, delta: i64, iw: i128, term: u64) {
        debug_assert!(phase < self.built, "phase {phase} is not built");
        if level >= self.levels {
            self.restride(self.built, level + 1);
        }
        for cell in &mut self.cells[phase * self.levels..][..=level] {
            cell.add_update(delta, iw, term);
        }
    }
}

impl PartialEq for VertexSketch {
    fn eq(&self, other: &Self) -> bool {
        self.num_phases == other.num_phases
            && self.built == other.built
            && (0..self.built).all(|phase| {
                let (a, b) = (self.phase_cells(phase), other.phase_cells(phase));
                let common = a.len().min(b.len());
                a[..common] == b[..common]
                    && a[common..].iter().chain(&b[common..]).all(Cell::is_zero)
            })
    }
}

impl Eq for VertexSketch {}

/// The coordinator's accumulators for one Borůvka phase: one row of summed
/// cells per current component, in first-seen order of the components'
/// members (which keeps the union order, and with it the output, a pure
/// function of the sketch and the member order).
pub(crate) struct ComponentRows {
    /// Row width: the most levels any contributing vertex stores, at least 1
    /// so that every row has the level-0 cell the zero test reads.
    levels: usize,
    cells: Vec<Cell>,
    /// Row of each component representative seen this phase.
    slot_of_root: Vec<usize>,
    roots: Vec<usize>,
}

impl ComponentRows {
    /// Accumulators for components with representatives in `0..universe`,
    /// wide enough for every sketch in `vertices` as it is now (building a
    /// phase can raise a vertex's levels, so it needs new rows).
    pub(crate) fn new<'a>(
        universe: usize,
        vertices: impl Iterator<Item = &'a VertexSketch>,
    ) -> Self {
        ComponentRows {
            levels: vertices.map(|v| v.levels).max().unwrap_or(0).max(1),
            cells: Vec::new(),
            slot_of_root: vec![usize::MAX; universe],
            roots: Vec::new(),
        }
    }

    /// Drops every row (start of a phase).
    pub(crate) fn clear(&mut self) {
        for root in self.roots.drain(..) {
            self.slot_of_root[root] = usize::MAX;
        }
        self.cells.clear();
    }

    /// Adds `vertex`'s phase-`phase` cells to the row of component `root`.
    pub(crate) fn add(&mut self, root: usize, vertex: &VertexSketch, phase: usize) {
        let mut slot = self.slot_of_root[root];
        if slot == usize::MAX {
            slot = self.roots.len();
            self.slot_of_root[root] = slot;
            self.roots.push(root);
            self.cells
                .resize(self.cells.len() + self.levels, Cell::ZERO);
        }
        let row = &mut self.cells[slot * self.levels..];
        for (acc, cell) in row.iter_mut().zip(vertex.phase_cells(phase)) {
            acc.add(cell);
        }
    }

    /// The rows whose summed vector is not verifiably zero, i.e. the
    /// components that still have an outgoing edge. Level 0 holds every
    /// coordinate, so a false zero needs a fingerprint collision.
    pub(crate) fn nonzero(&self) -> impl Iterator<Item = &[Cell]> {
        self.cells
            .chunks_exact(self.levels)
            .filter(|row| !row[0].is_zero())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::l0::next_u64;
    use crate::one_sparse::pow_mod;
    use crate::{DynamicConnectivitySketch, L0Sampler};

    #[test]
    fn windowed_pow_matches_square_and_multiply() {
        let mut rng = 11u64;
        for seed in [0, 7, u64::MAX] {
            let key = PhaseKey::new(seed);
            let z = fingerprint_point(seed);
            let mut exps = vec![
                0,
                1,
                255,
                256,
                1 << 32,
                (1 << 32) | 1,
                0xFF00_0000_0000_00FF,
                0x0001_0000_0001_0000,
                0x00AB_00CD_00EF_0000,
                u64::MAX - 1,
                u64::MAX,
            ];
            exps.extend((0..10_000).map(|_| next_u64(&mut rng)));
            // Pair-coded coordinates: two small ids, four zero bytes.
            exps.extend((0..1_000).map(|_| {
                let r = next_u64(&mut rng);
                ((r & 0xFFFF) << 32) | (r >> 48)
            }));
            for e in exps {
                assert_eq!(key.pow(e), pow_mod(z, e), "seed {seed}, exponent {e:#x}");
            }
        }
    }

    /// The nested structure the flat layout replaces: one reference
    /// [`L0Sampler`] per vertex and phase, fed the same updates.
    struct Oracle {
        samplers: Vec<Vec<L0Sampler>>,
    }

    impl Oracle {
        fn new(n: usize, num_phases: usize, seed: u64) -> Self {
            let vertex = || {
                (0..num_phases)
                    .map(|p| L0Sampler::new(phase_seed(seed, p)))
                    .collect()
            };
            Oracle {
                samplers: (0..n).map(|_| vertex()).collect(),
            }
        }

        fn update_edge(&mut self, u: usize, v: usize, index: u64, delta: i64) {
            if u == v {
                return;
            }
            for s in &mut self.samplers[u.min(v)] {
                s.update(index, delta);
            }
            for s in &mut self.samplers[u.max(v)] {
                s.update(index, -delta);
            }
        }

        fn assert_matches(&self, v: usize, flat: &VertexSketch) {
            for (phase, sampler) in self.samplers[v].iter().enumerate() {
                let stored = flat.phase_cells(phase);
                for level in 0..NUM_LEVELS {
                    let got = stored.get(level).copied().unwrap_or(Cell::ZERO);
                    assert_eq!(
                        got,
                        sampler.cell(level),
                        "vertex {v}, phase {phase}, level {level}"
                    );
                }
            }
        }
    }

    /// A random turnstile schedule over `n` vertices: inserts (parallel edges
    /// included), deletes of live edges in either orientation, self-loops.
    fn schedule(n: usize, ops: usize, rng: &mut u64) -> Vec<(usize, usize, i64)> {
        let mut live: Vec<(usize, usize)> = Vec::new();
        let mut out = Vec::new();
        for _ in 0..ops {
            let r = next_u64(rng);
            if r % 3 == 2 && !live.is_empty() {
                let (u, v) = live.swap_remove((r >> 8) as usize % live.len());
                out.push((v, u, -1));
            } else if r % 17 == 1 {
                let u = (r >> 8) as usize % n;
                out.push((u, u, 1));
            } else {
                // A small id range makes parallel edges common.
                let (u, v) = ((r >> 8) as usize % n, (r >> 32) as usize % n);
                if u != v {
                    live.push((u, v));
                }
                out.push((u, v, 1));
            }
        }
        out
    }

    #[test]
    fn flat_cells_match_reference_samplers_pair_coded() {
        let (n, phases, seed) = (12, 9, 0x5EED);
        let mut rng = 3u64;
        let mut flat = DynamicConnectivitySketch::new(phases, seed);
        (0..n).for_each(|_| flat.push_vertex());
        let mut oracle = Oracle::new(n, phases, seed);
        let mut neighbors = vec![Vec::new(); n];
        let index = |u: usize, v: usize| ((u.min(v) as u64) << 32) | u.max(v) as u64;
        for (u, v, delta) in schedule(n, 600, &mut rng) {
            if delta > 0 {
                flat.add_edge(u as u32, v as u32);
                neighbors[u].push(v as u32);
                if u != v {
                    neighbors[v].push(u as u32);
                }
            } else {
                flat.remove_edge(u as u32, v as u32);
            }
            oracle.update_edge(u, v, index(u, v), delta);
        }
        for v in 0..n {
            oracle.assert_matches(v, flat.vertex_sketch(v));
        }
        // The single-endpoint path (`message_for`) against the oracle of
        // the insert-only multiset.
        let mut oracle = Oracle::new(n, phases, seed);
        for (u, list) in neighbors.iter().enumerate() {
            for &v in list.iter().filter(|&&v| u < v as usize) {
                oracle.update_edge(u, v as usize, index(u, v as usize), 1);
            }
        }
        for (v, list) in neighbors.iter().enumerate() {
            oracle.assert_matches(v, &flat.message_for(v as u32, list));
        }
    }

    #[test]
    fn flat_cells_match_reference_samplers_row_coded() {
        // The kernel takes any coordinate; row coding `u·n + v` keeps every
        // index in its low bytes, unlike the pair coding's high word.
        let (n, phases, seed) = (12, 9, 99);
        let mut rng = 4u64;
        let keys = SketchKeys::new(phases, seed);
        let mut flat: Vec<VertexSketch> = (0..n).map(|_| keys.empty_vertex(phases)).collect();
        let mut oracle = Oracle::new(n, phases, seed);
        let mut neighbors = vec![Vec::new(); n];
        let index = |u: usize, v: usize| (u.min(v) * n + u.max(v)) as u64;
        for (u, v, delta) in schedule(n, 600, &mut rng) {
            if u == v {
                continue;
            }
            if delta > 0 {
                neighbors[u].push(v);
                neighbors[v].push(u);
            }
            keys.update_edge(&mut flat, u.min(v), u.max(v), index(u, v), delta, 0..phases);
            oracle.update_edge(u, v, index(u, v), delta);
        }
        for (v, sketch) in flat.iter().enumerate() {
            oracle.assert_matches(v, sketch);
        }
        // The single-endpoint path (`SketchKeys::update`) against the oracle
        // of the insert-only multiset.
        let mut oracle = Oracle::new(n, phases, seed);
        for (u, list) in neighbors.iter().enumerate() {
            for &v in list.iter().filter(|&&v| u < v) {
                oracle.update_edge(u, v, index(u, v), 1);
            }
        }
        for (v, list) in neighbors.iter().enumerate() {
            let mut message = keys.empty_vertex(phases);
            for &w in list {
                keys.update(&mut message, index(v, w), if v < w { 1 } else { -1 });
            }
            oracle.assert_matches(v, &message);
        }
    }

    #[test]
    fn a_weighted_update_equals_its_unit_updates_cell_for_cell() {
        let (phases, seed) = (6, 17);
        let mut base = DynamicConnectivitySketch::new(phases, seed);
        (0..4).for_each(|_| base.push_vertex());
        base.add_edge(0, 1);
        base.add_edge(1, 2);
        for k in [-3i64, 2, 100_000] {
            let (mut weighted, mut units) = (base.clone(), base.clone());
            weighted.update_edge(3, 1, k);
            for _ in 0..k.unsigned_abs() {
                if k > 0 {
                    units.add_edge(1, 3);
                } else {
                    units.remove_edge(3, 1);
                }
            }
            for v in 0..4 {
                let (a, b) = (weighted.vertex_sketch(v), units.vertex_sketch(v));
                assert_eq!(
                    (a.levels, &a.cells),
                    (b.levels, &b.cells),
                    "k {k}, vertex {v}"
                );
            }
        }
    }

    /// Keys expand with their phase: a sketch keyed phase by phase — each
    /// phase built from the live multiset at its own point of a turnstile
    /// schedule — holds the keys of its built phases and no more, and ends
    /// with the eager tables, equal to the eagerly keyed sketch and to the
    /// reference samplers in all 26 phases, sample for sample.
    #[test]
    fn a_sketch_keyed_phase_by_phase_equals_an_eager_one() {
        let (n, phases, seed) = (12, 26, 0xD1CE);
        let mut rng = 6u64;
        let mut eager = DynamicConnectivitySketch::new(phases, seed);
        let mut lazy = DynamicConnectivitySketch::lazy(phases, seed);
        (0..n).for_each(|_| eager.push_vertex());
        (0..n).for_each(|_| lazy.push_vertex());
        let mut oracle = Oracle::new(n, phases, seed);
        let mut copies = std::collections::BTreeMap::new();
        for (i, (u, v, delta)) in schedule(n, 20 * phases, &mut rng).into_iter().enumerate() {
            if i % 20 == 0 {
                lazy.build_phase(copies.iter().map(|(&pair, &c)| (pair, c)));
            }
            assert_eq!(lazy.keys().expanded_phases(), lazy.built_phases());
            let (a, b) = (u.min(v) as u32, u.max(v) as u32);
            eager.update_edge(a, b, delta);
            lazy.update_edge(b, a, delta);
            oracle.update_edge(u, v, ((a as u64) << 32) | b as u64, delta);
            if a != b {
                *copies.entry((a, b)).or_insert(0i64) += delta;
                copies.retain(|_, c| *c != 0);
            }
        }
        assert_eq!(lazy.built_phases(), phases);
        assert!(lazy == eager && lazy.keys() == eager.keys());
        let full = SketchKeys::new(phases, seed);
        assert_eq!(lazy.keys().phases.len(), phases);
        for (built, expanded) in lazy.keys().phases.iter().zip(&full.phases) {
            assert!(built.seed == expanded.seed && built.pow == expanded.pow);
        }
        for v in 0..n {
            oracle.assert_matches(v, lazy.vertex_sketch(v));
        }
        let all: Vec<u32> = (0..n as u32).collect();
        for subset in [&all[..1], &all[1..4], &all[..]] {
            for phase in 0..phases {
                let row_sample = |sketch: &DynamicConnectivitySketch| {
                    let members = subset.iter().map(|&v| sketch.vertex_sketch(v as usize));
                    let mut rows = ComponentRows::new(n, members.clone());
                    members.for_each(|vertex| rows.add(subset[0] as usize, vertex, phase));
                    let row = rows.nonzero().next();
                    row.and_then(|row| sketch.keys().sample(phase, row))
                };
                let mut reference = L0Sampler::new(phase_seed(seed, phase));
                for &v in subset {
                    reference.merge(&oracle.samplers[v as usize][phase]);
                }
                assert_eq!(row_sample(&lazy), reference.sample(), "phase {phase}");
                assert_eq!(row_sample(&eager), reference.sample(), "phase {phase}");
            }
        }
        assert_eq!(lazy.subset_components(&all), eager.subset_components(&all));
    }

    #[test]
    fn samples_match_reference_samplers() {
        // Sum every vertex of a component into one row; the row's sample and
        // zero test must equal those of the merged reference samplers.
        let (n, phases, seed) = (10, 6, 5);
        let mut rng = 8u64;
        let mut flat = DynamicConnectivitySketch::new(phases, seed);
        (0..n).for_each(|_| flat.push_vertex());
        let mut oracle = Oracle::new(n, phases, seed);
        for (u, v, delta) in schedule(n, 40, &mut rng) {
            if delta > 0 {
                flat.add_edge(u as u32, v as u32);
            } else {
                flat.remove_edge(u as u32, v as u32);
            }
            let index = ((u.min(v) as u64) << 32) | u.max(v) as u64;
            oracle.update_edge(u, v, index, delta);
        }
        for subset in [&[0usize][..], &[1, 2, 3], &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]] {
            for phase in 0..phases {
                let mut rows = ComponentRows::new(n, subset.iter().map(|&v| flat.vertex_sketch(v)));
                let mut reference = L0Sampler::new(phase_seed(seed, phase));
                for &v in subset {
                    rows.add(subset[0], flat.vertex_sketch(v), phase);
                    reference.merge(&oracle.samplers[v][phase]);
                }
                let row = rows.nonzero().next();
                assert_eq!(row.is_none(), reference.is_zero());
                assert_eq!(
                    row.and_then(|row| flat.keys().sample(phase, row)),
                    reference.sample()
                );
            }
        }
    }
}
