//! Step 2 — Randomization via independent random walks
//! (Section 5, Theorem 3 and Lemma 5.1).
//!
//! The pipeline needs, for every vertex of the (now regular) graph,
//! `Θ(log n)` *independent* endpoints of lazy random walks whose length `T`
//! exceeds the mixing time of the vertex's component. Connecting every vertex
//! to its endpoints turns each component into (something `n^{-8}`-close in
//! total variation to) the random graph `G(n_i, Θ(log n))`, which Step 3
//! knows how to solve in `O(log log n)` rounds.
//!
//! Two implementations are provided:
//!
//! * [`layered_walk_bundle`] — the **faithful** data structure of Theorem 3:
//!   the sampled layered graph `G_S` (one sampled out-edge per layered
//!   vertex), endpoint computation by pointer doubling in `log t` steps, and
//!   the `Mark`/`DetectIndependence` pass that certifies which walks are
//!   vertex-disjoint (and therefore mutually independent, Observation 5.2).
//!   Memory is `Θ(n · t · copies)`, so it is meant for analysis-scale runs
//!   and for experiment E4.
//! * [`independent_lazy_walks`] — the **direct** simulation: each walk is
//!   simulated with its own randomness, which produces *exactly* the product
//!   distribution `⊗_v D_RW(v, t)` that Theorem 3 guarantees. The pipeline
//!   uses this mode at scale and charges the `O(log t)` rounds of the
//!   theorem (the substitution is documented in DESIGN.md).
//!   [`direct_walk_endpoint`] is its step-by-step specification.
//!
//! [`layered_walk_bundle`] and [`direct_walk_endpoint`] are generic over
//! [`AdjacencyView`], and the Section 5.2 lazification is specified against
//! a virtual [`LazyView`](wcc_graph::LazyView) — the `Δ` added self-loops
//! are simulated arithmetically (neighbour indices `>= deg(v)` mean
//! "stay"). The view reproduces the materialised CSR index-for-index, so
//! walk endpoints are bit-identical either way.
//!
//! At scale the direct path runs one batched kernel, v3 — stay-run
//! compression + packed draws: the lazy stay/move choice is an exact fair
//! coin (span `2Δ`, `Δ` of which are self entries), so one pattern word
//! yields 32 stay/move coins. A stay leaves the current vertex alone, so
//! only the **number** of move bits matters, never their positions: the
//! batched kernel reads each lane's move count off the pattern word's
//! popcount, and only those real moves pay a random CSR load and a base-Δ
//! neighbour digit — `k` digits per 32-bit keystream word, one Lemire draw
//! over span `Δʲ` per word (DESIGN.md §10). 64 lanes advance in lockstep;
//! how a window's moves are carried out is the *move tier*
//! ([`walk_move_tier`]): masked AVX-512 / AVX2 gathers with the lanes'
//! positions in registers where the CPU has them (the private `walk_simd`
//! module — the crate's only `unsafe`), counting-sorted scalar rounds
//! otherwise. The tier comes from CPUID and a validation pass over the
//! adjacency, never from a setting, and every tier produces the same
//! endpoints.
//!
//! The kernel consumes each per-vertex keystream differently from
//! [`direct_walk_endpoint`], so fixed-seed outputs differ between the two
//! while the kernel stays bit-identical across backends and thread counts;
//! `tests/walk_kernel_equivalence.rs` pins their distributions against each
//! other.

use crate::regularize::CoreError;
use crate::walk_simd::{self, GatherLanes, GatherTable, MoveTier};

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::{ChaCha8Batch, ChaCha8Rng};
use serde::{Deserialize, Serialize};
use wcc_graph::{AdjacencyView, EndpointTable, Graph};
use wcc_mpc::{derive_stream_seed, record_walk_telemetry, MpcContext, WalkTelemetry};

/// Which implementation of the Theorem-3 walk primitive to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkMode {
    /// Direct per-walk simulation (exact same output distribution, cheap).
    Direct,
    /// The layered-graph data structure with independence detection.
    Faithful,
}

/// The batched lazy-walk kernel that simulates the Direct fan-out. There is
/// one, v3; the type, its [`Self::ENV_VAR`] name and [`Self::resolve`] are
/// kept until ROADMAP 1-min/1b only because the frozen benchmark still names
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WalkKernel {
    /// Stay-run compression from pattern words, and the real moves'
    /// neighbour indices packed `k` base-Δ digits to a 32-bit Lemire draw
    /// (DESIGN.md §10).
    V3,
}

impl WalkKernel {
    /// The name of an environment variable nothing reads any more; the
    /// benchmark refuses to run while it is set. Kept until ROADMAP
    /// 1-min/1b.
    pub const ENV_VAR: &'static str = "WCC_WALK_KERNEL";

    /// Returns `self`. Kept until ROADMAP 1-min/1b.
    pub fn resolve(self) -> WalkKernel {
        self
    }
}

/// The outcome of one run of the layered-graph walk data structure: one
/// length-`t` walk endpoint per vertex, plus a flag saying whether the walk
/// was certified independent of all other walks in this bundle.
#[derive(Debug, Clone)]
pub struct WalkBundle {
    /// `targets[v]` is the endpoint of the walk that started at `v`.
    pub targets: Vec<usize>,
    /// `independent[v]` is `true` if `v`'s path in the sampled layered graph
    /// was vertex-disjoint from every other start's path (Lemma 5.3 certifies
    /// this happens with probability at least 1/2 per start).
    pub independent: Vec<bool>,
}

/// `⌈log₂ x⌉`, with `⌈log₂ 0⌉` taken as `0`.
pub(crate) fn ceil_log2(x: usize) -> u32 {
    usize::BITS - (x.max(1) - 1).leading_zeros()
}

/// Rounds charged for one execution of the Theorem-3 data structure on walks
/// of length `t`, `1 + 2·⌈log₂ t⌉`: sampling `G_S` (1), pointer doubling
/// (`⌈log₂ t⌉`), and the Mark/DetectIndependence pass (`⌈log₂ t⌉` more), each
/// a constant number of sort/search batches.
pub(crate) fn walk_rounds(t: usize) -> u64 {
    1 + 2 * u64::from(ceil_log2(t))
}

/// Runs the faithful layered-graph construction (Theorem 3) once.
///
/// `copies_multiplier` controls the number of copies per layer (`multiplier ×
/// t`, the paper uses `2t`). Larger values reduce collisions and raise the
/// fraction of certified-independent walks.
///
/// # Panics
///
/// Panics if the graph has an isolated vertex (the paper assumes minimum
/// degree 1 throughout) or if `t == 0`.
pub fn layered_walk_bundle<V: AdjacencyView, R: Rng + ?Sized>(
    g: &V,
    t: usize,
    copies_multiplier: usize,
    rng: &mut R,
) -> WalkBundle {
    assert!(t >= 1, "walk length must be positive");
    let n = g.num_vertices();
    assert!(
        (0..n).all(|v| g.degree(v) > 0),
        "layered walks require minimum degree 1 (no isolated vertices)"
    );
    let t = t.next_power_of_two();
    let copies = (copies_multiplier.max(1) * t).max(2);
    let layer_size = n * copies;
    let num_vertices = layer_size * (t + 1);
    const NONE: u32 = u32::MAX;
    assert!(
        num_vertices < NONE as usize,
        "layered graph too large for u32 indexing"
    );

    let index = |v: usize, c: usize, j: usize| -> usize { j * layer_size + c * n + v };

    // Sample the sampled layered graph G_S: one outgoing edge per vertex of
    // layers 0..t (Definition 1 + "Sampled layered graph").
    let mut next: Vec<u32> = vec![NONE; num_vertices];
    for j in 0..t {
        for c in 0..copies {
            for v in 0..n {
                let deg = g.degree(v);
                let nbr = g
                    .nth_neighbor(v, rng.gen_range(0..deg))
                    .expect("degree > 0");
                let target_copy = rng.gen_range(0..copies);
                next[index(v, c, j)] = index(nbr, target_copy, j + 1) as u32;
            }
        }
    }

    // Mark: follow each start's path step by step, counting visits per
    // layered vertex (this is the information the recursive Mark procedure
    // materialises).
    let mut visits: Vec<u8> = vec![0; num_vertices];
    for v in 0..n {
        let mut cur = index(v, 0, 0);
        visits[cur] = visits[cur].saturating_add(1);
        for _ in 0..t {
            cur = next[cur] as usize;
            visits[cur] = visits[cur].saturating_add(1);
        }
    }

    // DetectIndependence: a start is independent iff every vertex on its path
    // was visited exactly once.
    let mut independent = vec![true; n];
    for (v, flag) in independent.iter_mut().enumerate() {
        let mut cur = index(v, 0, 0);
        let mut ok = visits[cur] == 1;
        for _ in 0..t {
            cur = next[cur] as usize;
            if visits[cur] != 1 {
                ok = false;
            }
        }
        *flag = ok;
    }

    // Endpoint computation by pointer doubling (`N_k(α) = N_{k-1}(N_{k-1}(α))`).
    // Two ping-pong buffers serve all `log t` passes; every entry is written
    // each pass (the scratch holds the *previous* pass's table after the
    // swap, so stale entries must be overwritten, not skipped).
    let log_t = t.trailing_zeros();
    let mut jump = next;
    let mut squared = vec![NONE; num_vertices];
    for _ in 0..log_t {
        for (alpha, &beta) in jump.iter().enumerate() {
            squared[alpha] = if beta != NONE {
                jump[beta as usize]
            } else {
                NONE
            };
        }
        core::mem::swap(&mut jump, &mut squared);
    }
    let targets: Vec<usize> = (0..n)
        .map(|v| {
            // After `log_t` doubling passes, `jump` maps each start directly
            // to its step-`t` successor (for `t = 1`, `jump` is `next`).
            let end = jump[index(v, 0, 0)];
            (end as usize) % n
        })
        .collect();

    WalkBundle {
        targets,
        independent,
    }
}

/// Endpoint of a single uniform-neighbour walk of length `t` from `start`
/// (self-loops — real or [`LazyView`](wcc_graph::LazyView)-virtual — make it
/// lazy). Isolated vertices stay put.
pub fn direct_walk_endpoint<V: AdjacencyView, R: Rng + ?Sized>(
    g: &V,
    start: usize,
    t: usize,
    rng: &mut R,
) -> usize {
    let mut cur = start;
    for _ in 0..t {
        let deg = g.degree(cur);
        if deg == 0 {
            break;
        }
        cur = g
            .nth_neighbor(cur, rng.gen_range(0..deg))
            .expect("degree > 0");
    }
    cur
}

/// Reusable first-visit bookkeeping for [`v3_walk_visits_into`]: an
/// epoch-stamped vertex table, so a worker simulating many walks pays one
/// `n`-word allocation total instead of one hash set per walk.
#[derive(Debug, Clone, Default)]
pub struct WalkVisitScratch {
    stamp: Vec<u64>,
    epoch: u64,
}

impl WalkVisitScratch {
    /// A fresh scratch; sized lazily on first use.
    pub fn new() -> Self {
        WalkVisitScratch::default()
    }

    /// Starts a new walk over a graph with `n` vertices; returns the epoch
    /// tag marking this walk's visits.
    fn begin(&mut self, n: usize) -> u64 {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
        }
        self.epoch += 1;
        self.epoch
    }
}

/// The distinct vertices visited by a single walk of length `t` from
/// `start`, in first-visit order — the densification walk of the
/// mildly-sublinear algorithm (Section 8). `out` is cleared first and
/// `scratch` holds the seen-set, so a worker simulating many walks
/// allocates once; the scratch only changes how first visits are detected,
/// never which steps are taken. Each step's neighbour index is one 32-bit
/// Lemire draw, as in the v3 kernel, and is counted into `tally`. There is
/// no stay-run lever here: the sublinear walk runs on the *raw* graph,
/// where every step is a real move (and on a lazy view, stays would add no
/// new visits anyway — the compression-legality argument of DESIGN.md
/// §10). Isolated vertices stay put.
pub fn v3_walk_visits_into<V: AdjacencyView, R: RngCore + ?Sized>(
    g: &V,
    start: usize,
    t: usize,
    rng: &mut R,
    scratch: &mut WalkVisitScratch,
    out: &mut Vec<usize>,
    tally: &mut WalkTelemetry,
) {
    out.clear();
    let epoch = scratch.begin(g.num_vertices());
    let mut cur = start;
    scratch.stamp[cur] = epoch;
    out.push(cur);
    let mut src = RngWords {
        rng,
        words: &mut tally.keystream_words,
    };
    for _ in 0..t {
        let deg = g.degree(cur);
        if deg == 0 {
            break;
        }
        let j = lemire_u32(&mut src, deg as u32) as usize;
        cur = g.nth_neighbor(cur, j).expect("degree > 0");
        tally.steps += 1;
        tally.moves += 1;
        if scratch.stamp[cur] != epoch {
            scratch.stamp[cur] = epoch;
            out.push(cur);
        }
    }
}

/// One keystream word per call, in exactly the order the owning per-vertex
/// ChaCha8 stream produces them. The scalar v3 walk ([`v3_walk_run`]) is
/// written against this trait; the batched kernel ([`v3_walk_lane_group`])
/// reads the same words straight out of lockstep [`ChaCha8Batch`] blocks at
/// the closed-form positions the fixed window allotment guarantees — so the
/// scalar tail path and the batched path agree word for word (the vendored
/// lane≡single-stream property supplies the stream equality, the lane-group
/// tests pin the order).
trait WordSource {
    fn next_word(&mut self) -> u32;
}

/// Scalar word source over any [`RngCore`] (`next_u32` is one keystream word
/// for `ChaCha8Rng`), with a running word count for telemetry.
struct RngWords<'a, R: RngCore + ?Sized> {
    rng: &'a mut R,
    words: &'a mut u64,
}

impl<R: RngCore + ?Sized> WordSource for RngWords<'_, R> {
    #[inline(always)]
    fn next_word(&mut self) -> u32 {
        *self.words += 1;
        self.rng.next_u32()
    }
}

/// One 32-bit Lemire draw from `[0, span)` with exact in-line rejection —
/// the 32-bit twin of the vendored `sample_half_open` (vendor/rand). Every
/// degree this kernel draws over fits `u32` (vertex ids are `u32`), so one
/// keystream word per draw replaces `gen_range`'s two; the rejection
/// probability per draw is `< span / 2^32`, resolved by redrawing from the
/// same stream rather than bailing to a fallback path.
#[inline(always)]
fn lemire_u32<W: WordSource>(words: &mut W, span: u32) -> u32 {
    debug_assert!(span > 0);
    loop {
        let x = words.next_word();
        let m = (x as u64) * (span as u64);
        let lo = m as u32;
        // `threshold = (2^32 - span) mod span` is `< span`, so `lo >= span`
        // accepts without paying the modulo.
        if lo >= span || lo >= span.wrapping_neg() % span {
            return (m >> 32) as u32;
        }
    }
}

/// Most digits one draw word carries: a window has at most 32 moves.
const MAX_DIGITS: usize = 32;

/// How the v3 kernel packs a window's neighbour indices into keystream
/// words: `per_word` base-Δ digits to one 32-bit word.
///
/// A lane that takes `j ≤ per_word` digits from a word `x` extracts them by
/// successive multiplication — `lo = x`, then `(digit, lo) = (hi32(lo·Δ),
/// lo32(lo·Δ))` `j` times — and accepts the word iff the final
/// `lo ≥ 2³² mod Δʲ`. Since `x·Δʲ = (d₁Δʲ⁻¹ + … + dⱼ)·2³² + lo` with every
/// `dᵢ < Δ`, the digits are the base-Δ digits (most significant first) of
/// `hi32(x·Δʲ)` and `lo = lo32(x·Δʲ)`: the acceptance is Lemire's method
/// over span `Δʲ`, so an accepted word gives `j` independent uniform
/// neighbour indices, exactly. `per_word` is a closed form of Δ — the
/// largest `j ≤ 32` with `Δʲ ≤ 2¹²`, and 1 past `Δ = 2¹²` — which keeps a
/// word's rejection probability, `(2³² mod Δʲ)/2³²`, below
/// `max(Δ, 2¹²)/2³²`.
#[derive(Clone, Copy)]
pub(crate) struct Digits {
    /// The degree Δ, the radix of the digits.
    pub(crate) delta: u32,
    /// Digits per draw word, `k`.
    pub(crate) per_word: u32,
    /// `reject_below[j] = 2³² mod Δʲ` for `j ≤ per_word`: zero for
    /// power-of-two Δ, where no word can reject.
    pub(crate) reject_below: [u32; MAX_DIGITS + 1],
}

impl Digits {
    /// The packing for degree `delta`.
    ///
    /// # Panics
    ///
    /// Panics if `delta` is 0 or does not fit `u32`.
    pub(crate) fn new(delta: usize) -> Digits {
        let delta = u32::try_from(delta).expect("degree fits u32");
        assert!(delta > 0, "digits need a positive degree");
        let mut reject_below = [0u32; MAX_DIGITS + 1];
        let (mut per_word, mut span) = (0u32, 1u64);
        while per_word == 0
            || ((per_word as usize) < MAX_DIGITS && span * u64::from(delta) <= 1 << 12)
        {
            span *= u64::from(delta);
            per_word += 1;
            reject_below[per_word as usize] = ((1u64 << 32) % span) as u32;
        }
        Digits {
            delta,
            per_word,
            reject_below,
        }
    }

    /// Draw words that `moves` moves take: `⌈moves / k⌉`.
    #[inline(always)]
    pub(crate) fn words(&self, moves: u32) -> u32 {
        moves.div_ceil(self.per_word)
    }
}

/// Endpoint of one length-`t` v3 lazy walk from `start` on the Δ-regular
/// graph with flat CSR `adjacency` (row `v` at offset `v·Δ`, `neighbors`
/// order), drawing words from `words`. The scalar form the batched kernel
/// must match lane-for-lane; also the tail path of the fan-out.
///
/// The v3 stream discipline is **windowed with a fixed allotment**: each
/// 32-step window of a walk owns exactly `1 + ⌈runnable/k⌉` consecutive
/// stream words (`runnable = min(32, steps left)`, `k` =
/// [`Digits::per_word`]) — one pattern word whose bits are the window's
/// stay/move coins (`1` = real move; on the lazy span `2Δ`, `Δ` entries are
/// self copies, so the stay/move marginal is *exactly* a fair coin and the
/// pattern bits are a lossless encoding of the window's lazification), then
/// the draw words of the window's `moves = popcount` real moves: `k`
/// neighbour digits per word, the last word carrying the remaining
/// `moves mod k` when that is not zero, a rejected word ([`Digits`])
/// redrawn from the next stream word for the same digit count, and the
/// unused rest of the allotment skipped. The fixed allotment makes every
/// lane's stream position a closed form of (walk index, window index) —
/// that is what lets the batched kernel read draws straight out of lockstep
/// keystream blocks with no per-lane buffering. The one data-dependent
/// escape — a redraw, probability `< max(Δ, 2¹²)/2³²` per word — runs on
/// here, past the allotment if it must; the batched kernel detects it and
/// delegates the group to this path.
fn v3_walk_run<W: WordSource>(
    adjacency: &[u32],
    digits: &Digits,
    start: u32,
    t: usize,
    words: &mut W,
    moves: &mut u64,
) -> u32 {
    let delta = digits.delta as usize;
    let mut cur = start;
    let mut remaining = t as u32;
    while remaining > 0 {
        let runnable = remaining.min(32);
        let usable = if runnable == 32 {
            !0u32
        } else {
            (1u32 << runnable) - 1
        };
        let mut left = (words.next_word() & usable).count_ones();
        let mut used = 0u32;
        while left > 0 {
            let j = left.min(digits.per_word);
            loop {
                let mut lo = words.next_word();
                used += 1;
                let mut next = cur;
                for _ in 0..j {
                    let m = lo as u64 * delta as u64;
                    next = adjacency[next as usize * delta + (m >> 32) as usize];
                    lo = m as u32;
                }
                if lo >= digits.reject_below[j as usize] {
                    cur = next;
                    break;
                }
            }
            *moves += u64::from(j);
            left -= j;
        }
        // Pad to the window's fixed allotment (no-op after a redraw ran
        // past it).
        while used < digits.words(runnable) {
            words.next_word();
            used += 1;
        }
        remaining -= runnable;
    }
    cur
}

/// Endpoint of a single v3 lazy walk of length `t` from `start` on the
/// regular graph `g`, consuming `rng` exactly as the production kernel
/// consumes the corresponding per-vertex stream — the executable scalar
/// reference of DESIGN.md §10 (`tests/walk_kernel_equivalence.rs` and the
/// determinism suite pin the batched kernel against it).
///
/// # Panics
///
/// Panics if `g` is not regular with positive degree (the v3 kernel's
/// closed-form CSR offsets need regularity, exactly like Theorem 3 itself).
pub fn v3_walk_endpoint<R: RngCore + ?Sized>(
    g: &Graph,
    start: usize,
    t: usize,
    rng: &mut R,
) -> usize {
    let delta = g.max_degree();
    assert!(
        delta > 0 && g.is_regular(delta),
        "v3 lazy walks require a regular graph with positive degree"
    );
    let (mut words, mut moves) = (0u64, 0u64);
    let mut src = RngWords {
        rng,
        words: &mut words,
    };
    v3_walk_run(
        g.csr_adjacency(),
        &Digits::new(delta),
        start as u32,
        t,
        &mut src,
        &mut moves,
    ) as usize
}

/// Depth of the batched kernel's keystream block ring. A window touches at
/// most 3 consecutive blocks (at most 33 words from an arbitrary offset,
/// `1 + ⌈32/k⌉` at `k` digits per draw word); 4 keeps
/// the generate-ahead from ever overwriting a block the window still reads.
const RING_BLOCKS: usize = 4;

/// Rows of the keystream ring, one row per stream position.
pub(crate) const RING_ROWS: usize = 16 * RING_BLOCKS;

/// The ring as a row-major array of `u32 × L` rows: word `q` of lane `l`'s
/// stream lives at `ring[q % RING_ROWS][l]`, one masked index instead of a
/// (block, word) pair per draw — and a row is what a vector load wants.
pub(crate) type Ring<const L: usize> = [[u32; L]; RING_ROWS];

/// Lane count of a full batched **v3** group: four 512-bit registers of
/// positions, i.e. four independent gather chains in flight per draw row
/// (128 lanes measured no better; the 16 KiB ring plus the lanes' clouds
/// still sit in L1). A worker's span steps its tail down through 32- and
/// 16-lane groups before the scalar path; grouping is invisible in the
/// endpoints because every vertex owns its stream.
const V3_LANES: usize = 64;

/// What one window did to a lane group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WindowOutcome {
    /// Real moves of the window, all lanes together.
    pub(crate) moves: u32,
    /// Some scanned draw word rejects under Lemire ([`Digits`]): the lanes
    /// are unspecified and the group must rerun on the scalar path. Always
    /// set when a lane *consumed* a word that rejects for the number of
    /// digits the lane took from it; which other digit prefixes and merely
    /// skipped words are scanned as well differs between tiers.
    pub(crate) rejected: bool,
}

/// The per-lane move counts of a window — the popcounts of the pattern
/// words under the window's `usable` step mask — with their maximum and sum.
/// One plain lane-wise loop (no closure for library code to call): inlined
/// into a `#[target_feature]` step it compiles to that tier's vector code.
#[inline(always)]
pub(crate) fn window_move_counts<const L: usize>(
    pattern: &[u32; L],
    usable: u32,
) -> ([u32; L], u32, u32) {
    let mut counts = [0u32; L];
    let (mut most, mut total) = (0u32, 0u32);
    for (count, &word) in counts.iter_mut().zip(pattern) {
        *count = (word & usable).count_ones();
        most = most.max(*count);
        total += *count;
    }
    (counts, most, total)
}

/// `L` lockstep lanes moved by the portable window step: the tier off
/// x86-64, for adjacencies the gather gate refuses, and the reference the
/// gather tiers are tested against.
struct PortableLanes<'a, const L: usize> {
    adjacency: &'a [u32],
    digits: Digits,
    cur: [u32; L],
    /// The window's neighbour-index table, one row per move (digit), kept
    /// across windows so it is zeroed once per group; rows past a window's
    /// largest move count hold stale values no lane can reach.
    idx: [[u32; L]; 32],
}

impl<const L: usize> PortableLanes<'_, L> {
    /// A window as a SIMD-friendly precompute and a tiny move loop: unpack
    /// the draw rows' digits lane-wise into `idx` (row `d` of `idx` is digit
    /// `d mod k` of draw row `⌊d/k⌋`), then run the chained CSR loads
    /// `cur ← adjacency[cur·Δ + idx[d][l]]` in rounds over the lanes
    /// counting-sorted by descending move count.
    fn window_step(&mut self, ring: &Ring<L>, q0: u64, usable: u32) -> WindowOutcome {
        let (mc, most, moves) = window_move_counts(&ring[(q0 % RING_ROWS as u64) as usize], usable);
        let Digits {
            delta,
            per_word,
            reject_below,
        } = self.digits;
        // Only the draw rows of the first `most` digits can be consumed by
        // any lane (the rest of the allotment is skipped padding), so only
        // those are unpacked and rejection-scanned. The scan checks every
        // digit prefix of every lane's word, which covers each lane's own
        // last digit: conservative, never blind.
        let mut reject_any = 0u32;
        for (w, rows) in self.idx[..most as usize]
            .chunks_mut(per_word as usize)
            .enumerate()
        {
            let mut lo = ring[((q0 + 1 + w as u64) % RING_ROWS as u64) as usize];
            for (row, &below) in rows.iter_mut().zip(&reject_below[1..]) {
                for (slot, lo) in row.iter_mut().zip(lo.iter_mut()) {
                    let m = *lo as u64 * delta as u64;
                    *slot = (m >> 32) as u32;
                    *lo = m as u32;
                    reject_any |= u32::from(*lo < below);
                }
            }
        }
        if reject_any != 0 {
            return WindowOutcome {
                moves,
                rejected: true,
            };
        }
        // A lane with `mc[l]` moves is live in rounds `0..mc[l]` and
        // performs its `d`-th move in round `d`, so counting-sorting the
        // lanes by descending move count makes round `d`'s live set exactly
        // the prefix of size `starts[d] = #{l : mc[l] > d}` — no per-move
        // list maintenance, no per-lane cursor, every branch a loop bound,
        // and up to `L` independent loads in flight.
        let mut cnt = [0usize; 33];
        for &c in &mc {
            cnt[c as usize] += 1;
        }
        let mut starts = [0usize; 33];
        let mut acc = 0usize;
        for c in (0..=32usize).rev() {
            starts[c] = acc;
            acc += cnt[c];
        }
        let mut order = [0u8; L];
        let mut fill = starts;
        for (l, &c) in mc.iter().enumerate() {
            order[fill[c as usize]] = l as u8;
            fill[c as usize] += 1;
        }
        for (d, row) in self.idx.iter().enumerate() {
            let n_live = starts[d];
            if n_live == 0 {
                break;
            }
            for &l8 in &order[..n_live] {
                let l = l8 as usize;
                self.cur[l] =
                    self.adjacency[self.cur[l] as usize * delta as usize + row[l] as usize];
            }
        }
        WindowOutcome {
            moves,
            rejected: false,
        }
    }
}

/// What a v3 fan-out walks: the Δ-regular graph's flat CSR (row `v` at
/// offset `v·Δ`) and, when a gather tier can walk it, that tier's validated
/// table. Which of the two moves the lane groups is thereby decided once per
/// [`independent_lazy_walks`] call, from CPUID and the validation pass alone.
struct WalkTable<'a> {
    adjacency: &'a [u32],
    digits: Digits,
    gather: Option<GatherTable>,
}

impl<'a> WalkTable<'a> {
    /// The table for moving lanes on `tier` — on the portable tier when
    /// `tier` cannot walk this adjacency. The gather tiers read their table
    /// unchecked, so they get a copy validated here (one `O(n·Δ)` pass)
    /// rather than trusting `Graph`'s invariants.
    fn on(tier: MoveTier, adjacency: &'a [u32], n: usize, delta: usize) -> Self {
        WalkTable {
            adjacency,
            digits: Digits::new(delta),
            gather: GatherTable::build_on(tier, adjacency, n, delta),
        }
    }

    fn lanes<const L: usize>(&self) -> Lanes<'_, L> {
        match &self.gather {
            Some(table) => Lanes::Gather(table.lanes()),
            None => Lanes::Portable(PortableLanes {
                adjacency: self.adjacency,
                digits: self.digits,
                cur: [0; L],
                idx: [[0; L]; 32],
            }),
        }
    }
}

/// The positions of one lane group, under whichever tier moves it.
enum Lanes<'a, const L: usize> {
    Portable(PortableLanes<'a, L>),
    Gather(GatherLanes<'a, L>),
}

impl<const L: usize> Lanes<'_, L> {
    /// Puts lane `l` on `vertices[l]` (the start of the next walk).
    fn restart(&mut self, vertices: &[u32; L]) {
        match self {
            Lanes::Portable(lanes) => lanes.cur = *vertices,
            Lanes::Gather(lanes) => lanes.restart(vertices),
        }
    }

    /// Advances every lane through the window whose pattern word sits at
    /// stream position `q0` of `ring` and whose steps are the set bits of
    /// `usable`.
    fn window_step(&mut self, ring: &Ring<L>, q0: u64, usable: u32) -> WindowOutcome {
        match self {
            Lanes::Portable(lanes) => lanes.window_step(ring, q0, usable),
            Lanes::Gather(lanes) => lanes.window_step(ring, q0, usable),
        }
    }

    fn vertices(&self) -> [u32; L] {
        match self {
            Lanes::Portable(lanes) => lanes.cur,
            Lanes::Gather(lanes) => lanes.vertices(),
        }
    }
}

/// Simulates the `k` v3 walks of `L` vertices on a Δ-regular graph, writing
/// endpoints vertex-major into `out` (`out[l·k + i]`, the fan-out's
/// layout), drawing every lane's words from the per-vertex stream seeded by
/// `seeds[l]`.
///
/// The fixed window allotment of [`v3_walk_run`] is what this kernel
/// exploits: every lane's stream position is the same closed form of
/// (walk, window), so all lanes' keystreams advance in lockstep blocks —
/// one [`ChaCha8Batch`] refill per 16 words, generated straight into a ring
/// of transposed rows, *zero* per-lane buffering or copying.
///
/// A window then rests on two facts about the discipline. First, a stay
/// does not change the current vertex, so the endpoint only depends on the
/// *sequence of accepted digits* — the positions of the move bits inside
/// the pattern word matter to no walk quantity; only their **count**
/// does. Second, a lane's `d`-th move takes digit `d mod p` of draw word
/// `⌊d/p⌋` (`p` = [`Digits::per_word`] digits per word — the walk count is
/// `k` here), and its draw words are the
/// consecutive stream words `q₀+1, q₀+2, …` regardless of which steps move.
/// So a window is: read each lane's move count off its pattern popcount,
/// then for each move `d` take every lane's next neighbour digit —
/// `(idx, lo) = (hi32(lo·Δ), lo32(lo·Δ))`, `lo` loaded from draw row
/// `⌊d/p⌋` at its first digit and carried otherwise — and advance the lanes
/// whose move count exceeds `d` by one CSR load, `cur ← adjacency[cur·Δ +
/// idx]`. The gather tiers ([`walk_move_tier`]) do a move as masked vector
/// gathers with the lanes' positions and `lo` in registers; the portable
/// tier unpacks the digits into an index table and runs the loads in
/// counting-sorted scalar rounds ([`PortableLanes::window_step`]). Either
/// way up to `L` independent load chains hide the CSR access latency, and
/// the lanes end the window on the same vertices. The allotment of a
/// window is `1 + ⌈runnable/p⌉` words for every lane, so the lanes stay in
/// lockstep whatever their move counts.
///
/// Returns `false` (with `out` unspecified) iff a scanned draw word rejects
/// under Lemire over span `Δʲ` for some digit count `j` it was scanned at —
/// probability `< max(Δ, 2¹²)/2³²` per word and count, about one 64-lane
/// group in a hundred at the pipeline's sizes — in which case the caller reruns the
/// whole group on the scalar path, which replays redraws exactly. The scan
/// is conservative: it covers every word a lane consumes at the digit
/// count the lane takes from it plus, depending on the tier, other digit
/// prefixes and words past an individual lane's move count that the stream
/// discipline merely skips — so *which* groups rerun may differ between
/// tiers, the endpoints cannot.
#[must_use]
fn v3_walk_lane_group<const L: usize>(
    table: &WalkTable<'_>,
    t: usize,
    k: usize,
    vertices: &[u32; L],
    seeds: &[u64; L],
    out: &mut [u32],
    tally: &mut WalkTelemetry,
) -> bool {
    debug_assert_eq!(out.len(), L * k);
    let mut batch = ChaCha8Batch::<L>::seed_from_u64s(seeds);
    let mut ring: Ring<L> = [[0u32; L]; RING_ROWS];
    let mut generated = 0u64;
    // Stream position of the current window's pattern word — identical for
    // every lane, by the fixed allotment.
    let mut q0 = 0u64;
    let (mut local_moves, mut local_words, mut refills) = (0u64, 0u64, 0u64);
    let mut lanes = table.lanes::<L>();
    for walk in 0..k {
        lanes.restart(vertices);
        let mut remaining = t as u32;
        while remaining > 0 {
            let runnable = remaining.min(32);
            let usable = if runnable == 32 {
                !0u32
            } else {
                (1u32 << runnable) - 1
            };
            let draws = u64::from(table.digits.words(runnable));
            let last_q = q0 + draws;
            while generated * 16 <= last_q {
                let row = ((generated % RING_BLOCKS as u64) * 16) as usize;
                let block: &mut [[u32; L]; 16] =
                    (&mut ring[row..row + 16]).try_into().expect("16-row block");
                batch.refill(block);
                generated += 1;
                refills += 1;
            }
            let outcome = lanes.window_step(&ring, q0, usable);
            if outcome.rejected {
                return false;
            }
            local_moves += outcome.moves as u64;
            local_words += (L as u64) * (1 + draws);
            q0 += 1 + draws;
            remaining -= runnable;
        }
        for (l, &c) in lanes.vertices().iter().enumerate() {
            out[l * k + walk] = c;
        }
    }
    tally.moves += local_moves;
    tally.keystream_words += local_words;
    tally.refills += refills;
    true
}

/// One v3 fan-out's constants, shared by its workers.
struct V3Fanout<'a> {
    table: WalkTable<'a>,
    t: usize,
    k: usize,
    /// The master generator's one draw; vertex `v` walks on the stream
    /// `derive_stream_seed(base, v)`.
    base: u64,
}

impl V3Fanout<'_> {
    /// The walks of the `L` vertices from index `*j` of a worker's span
    /// (vertex `span_start + *j`, endpoint slots from `chunk[*j·k]`) as one
    /// lane group, rerun vertex by vertex on the scalar path if the group
    /// reports a rejection; advances `*j` past them.
    fn group<const L: usize>(
        &self,
        span_start: usize,
        j: &mut usize,
        chunk: &mut [u32],
        tally: &mut WalkTelemetry,
    ) {
        let first = span_start + *j;
        let slots = &mut chunk[*j * self.k..(*j + L) * self.k];
        *j += L;
        let vertices: [u32; L] = core::array::from_fn(|l| (first + l) as u32);
        let seeds: [u64; L] =
            core::array::from_fn(|l| derive_stream_seed(self.base, (first + l) as u64));
        if !v3_walk_lane_group(&self.table, self.t, self.k, &vertices, &seeds, slots, tally) {
            tally.spec_fallbacks += 1;
            for (v, slots) in (first..).zip(slots.chunks_exact_mut(self.k)) {
                self.scalar(v, slots, tally);
            }
        }
    }

    /// The walks of vertex `v` on the scalar path.
    fn scalar(&self, v: usize, slots: &mut [u32], tally: &mut WalkTelemetry) {
        let mut vrng = ChaCha8Rng::seed_from_u64(derive_stream_seed(self.base, v as u64));
        let mut src = RngWords {
            rng: &mut vrng,
            words: &mut tally.keystream_words,
        };
        for slot in slots {
            *slot = v3_walk_run(
                self.table.adjacency,
                &self.table.digits,
                v as u32,
                self.t,
                &mut src,
                &mut tally.moves,
            );
        }
    }
}

/// Theorem 3 + the lazification of Section 5.2, packaged for the pipeline:
/// returns `walks_per_vertex` independent lazy-walk endpoints of length `t`
/// for every vertex of the Δ-regular graph `g`, charging the `O(log t)` MPC
/// rounds of the theorem (parallel repetitions cost machines, not rounds).
///
/// The endpoints come back as one **flat arena** of `n × walks_per_vertex`
/// `u32` entries, vertex-major: vertex `v`'s endpoints occupy
/// `result[v * walks_per_vertex..(v + 1) * walks_per_vertex]` (iterate with
/// `chunks_exact(walks_per_vertex)`). One allocation for the whole fan-out
/// instead of one small vector per vertex — this is the pipeline's hot path.
///
/// # Errors
///
/// Returns [`CoreError::BadParams`] if `g` is not regular (the guarantee of
/// Theorem 3 — and the absence of walk "hubs" — requires regularity; that is
/// what Step 1 is for).
#[allow(clippy::too_many_arguments)]
pub fn independent_lazy_walks<R: Rng + ?Sized>(
    g: &Graph,
    t: usize,
    walks_per_vertex: usize,
    mode: WalkMode,
    copies_multiplier: usize,
    ctx: &mut MpcContext,
    rng: &mut R,
) -> Result<Vec<u32>, CoreError> {
    lazy_walks_on(
        walk_simd::detected(),
        g,
        t,
        walks_per_vertex,
        mode,
        copies_multiplier,
        ctx,
        rng,
    )
}

/// [`independent_lazy_walks`] with the v3 move loop pinned to the portable
/// tier, whatever the CPU offers: the differential reference and the
/// baseline the dispatched tier is benchmarked against. Same endpoints,
/// same charges, same generator consumption.
///
/// # Errors
///
/// As [`independent_lazy_walks`].
#[allow(clippy::too_many_arguments)]
pub fn independent_lazy_walks_portable<R: Rng + ?Sized>(
    g: &Graph,
    t: usize,
    walks_per_vertex: usize,
    mode: WalkMode,
    copies_multiplier: usize,
    ctx: &mut MpcContext,
    rng: &mut R,
) -> Result<Vec<u32>, CoreError> {
    lazy_walks_on(
        MoveTier::Portable,
        g,
        t,
        walks_per_vertex,
        mode,
        copies_multiplier,
        ctx,
        rng,
    )
}

/// Which implementation moves the lanes of the v3 kernel on this machine:
/// `"avx512f"`, `"avx2"` or `"portable"` — the widest the CPU reports, read
/// from CPUID once per process. Reporting only; there is no switch. (A
/// fan-out whose adjacency fails the gather gate — an entry that is not a
/// vertex, or `n·Δ > i32::MAX` — runs the portable tier regardless.)
pub fn walk_move_tier() -> &'static str {
    walk_simd::detected().name()
}

/// [`independent_lazy_walks`] with the v3 move loop on `tier` (on the
/// portable tier when `tier` cannot walk `g`).
#[allow(clippy::too_many_arguments)]
fn lazy_walks_on<R: Rng + ?Sized>(
    tier: MoveTier,
    g: &Graph,
    t: usize,
    walks_per_vertex: usize,
    mode: WalkMode,
    copies_multiplier: usize,
    ctx: &mut MpcContext,
    rng: &mut R,
) -> Result<Vec<u32>, CoreError> {
    let n = g.num_vertices();
    assert!(
        n as u64 <= u64::from(u32::MAX) + 1,
        "{n} vertices do not fit the u32 endpoint arena"
    );
    let delta = g.max_degree();
    if !g.is_regular(delta) || delta == 0 {
        return Err(CoreError::BadParams(
            "independent_lazy_walks requires a regular graph with positive degree".to_string(),
        ));
    }
    // Section 5.2: add Δ self-loops so uniform steps become lazy steps. The
    // loops are virtual (a LazyView), not a rebuilt 2Δ-adjacency copy — the
    // view draws the same uniform indices and maps them to the same
    // neighbours, so endpoints are bit-identical to the materialised graph.
    let lazy = g.lazy_view(delta);

    ctx.charge(walk_rounds(t), (n * t.max(1)) as u64);
    ctx.record_balanced_load(n.saturating_mul(t.max(1)).saturating_mul(2))?;

    let k = walks_per_vertex;
    if k == 0 {
        return Ok(Vec::new());
    }
    match mode {
        WalkMode::Direct => {
            // The per-vertex fan-out is the pipeline's hot path: every vertex
            // simulates its walks on its own ChaCha8 stream, derived from a
            // single draw of the master generator. The master therefore
            // advances by exactly one word, and the endpoints are
            // bit-identical for every backend and thread count (the walks
            // stay mutually independent — distinct streams — which is all
            // Theorem 3 asks for). Workers fill disjoint vertex-aligned
            // chunks of the flat endpoint arena in place.
            let base = rng.gen::<u64>();
            let executor = ctx.executor();
            let mut flat = vec![0u32; n * k];
            let vertex_spans = executor.element_spans(n);
            let ranges: Vec<std::ops::Range<usize>> = vertex_spans
                .iter()
                .map(|r| r.start * k..r.end * k)
                .collect();
            // The v3 kernel needs no lazy table at all: stays are resolved
            // from pattern bits without touching memory, and real moves
            // index the regular graph's own CSR with the closed-form offset
            // `v·Δ` — the walk working set is exactly the graph. Full lane
            // groups read lockstep keystream blocks generated in place; the
            // tail of a worker's span steps down through 32- and 16-lane
            // groups, and its last few vertices (and the rare rejecting
            // groups) run the scalar form of the same discipline on the same
            // per-vertex streams, so the split is invisible in the endpoints.
            let fanout = V3Fanout {
                table: WalkTable::on(tier, g.csr_adjacency(), n, delta),
                t,
                k,
                base,
            };
            executor.map_slices_mut(&mut flat, &ranges, |w, chunk| {
                let first_vertex = vertex_spans[w].start;
                let span_len = vertex_spans[w].len();
                let mut tally = WalkTelemetry::default();
                let mut j = 0;
                while j + V3_LANES <= span_len {
                    fanout.group::<V3_LANES>(first_vertex, &mut j, chunk, &mut tally);
                }
                if j + 32 <= span_len {
                    fanout.group::<32>(first_vertex, &mut j, chunk, &mut tally);
                }
                if j + 16 <= span_len {
                    fanout.group::<16>(first_vertex, &mut j, chunk, &mut tally);
                }
                for (v, slots) in (first_vertex + j..).zip(chunk[j * k..].chunks_exact_mut(k)) {
                    fanout.scalar(v, slots, &mut tally);
                }
                tally.steps = (span_len * k * t) as u64;
                // An aborted group flushes nothing into `tally`, so every
                // move is counted once.
                tally.stays_compressed = tally.steps - tally.moves;
                record_walk_telemetry(&tally);
            });
            Ok(flat)
        }
        WalkMode::Faithful => {
            // Keep drawing bundles; prefer certified-independent endpoints and
            // top up with uncertified ones if a vertex falls behind (the paper
            // instead repeats Θ(log n) times; the cap keeps runtime bounded).
            // This mode consumes the master generator directly and stays
            // sequential (it exists for analysis-scale runs and E4).
            let mut out: Vec<Vec<usize>> = vec![Vec::with_capacity(k); n];
            let max_bundles = 4 * k + 8;
            let mut fallback: Vec<Vec<usize>> = vec![Vec::new(); n];
            // Vertices still short of `k` endpoints; an O(1) counter replaces
            // the O(n) `out.iter().all(..)` rescan per bundle. With `k == 0`
            // every vertex is satisfied from the start (`len() < 0` is
            // impossible), so nothing is pending and no bundle is drawn.
            let mut pending = if k == 0 { 0 } else { n };
            for _ in 0..max_bundles {
                if pending == 0 {
                    break;
                }
                let bundle = layered_walk_bundle(&lazy, t, copies_multiplier, rng);
                for v in 0..n {
                    if out[v].len() < k {
                        if bundle.independent[v] {
                            out[v].push(bundle.targets[v]);
                            if out[v].len() == k {
                                pending -= 1;
                            }
                        } else {
                            fallback[v].push(bundle.targets[v]);
                        }
                    }
                }
            }
            for v in 0..n {
                while out[v].len() < k {
                    match fallback[v].pop() {
                        Some(target) => out[v].push(target),
                        None => out[v].push(direct_walk_endpoint(&lazy, v, t, rng)),
                    }
                }
            }
            Ok(out.into_iter().flatten().map(|u| u as u32).collect())
        }
    }
}

/// Step 2 of the pipeline: Lemma 5.1.
///
/// Draws one random batch on the vertex set of the Δ-regular graph `g`:
/// every vertex is connected to `w = max(out_degree / 2, 1)` independent
/// lazy-walk endpoints of length `t`. If `t` is at least the `γ`-mixing
/// time of each component, each component of the batch is close in
/// distribution to `G(n_i, out_degree)` and in particular connected w.h.p.
///
/// The batch is the walks' endpoint arena itself, never a [`Graph`]:
/// Section 6 reads it only through contractions, which take an
/// [`EndpointTable`] as it is ([`EdgeSource`](wcc_graph::EdgeSource)).
/// Charges one shuffle of the `2·n·w` endpoint words.
///
/// # Errors
///
/// Propagates [`CoreError`] from [`independent_lazy_walks`].
pub fn random_batch<R: Rng + ?Sized>(
    g: &Graph,
    t: usize,
    out_degree: usize,
    mode: WalkMode,
    copies_multiplier: usize,
    ctx: &mut MpcContext,
    rng: &mut R,
) -> Result<EndpointTable, CoreError> {
    ctx.begin_phase("randomize");
    let walks_per_vertex = (out_degree / 2).max(1);
    let endpoints =
        independent_lazy_walks(g, t, walks_per_vertex, mode, copies_multiplier, ctx, rng)?;
    ctx.charge_shuffle(2 * g.num_vertices() * walks_per_vertex);
    ctx.end_phase();
    Ok(EndpointTable::new(walks_per_vertex, endpoints))
}

/// [`random_batch`] built as a [`Graph`] ([`EndpointTable::to_graph`]).
///
/// Kept until ROADMAP 1b only because the frozen benchmark still calls it;
/// `_kernel` is ignored (the fan-out always runs v3).
///
/// # Errors
///
/// Propagates [`CoreError`] from [`independent_lazy_walks`].
#[allow(clippy::too_many_arguments)]
pub fn randomize<R: Rng + ?Sized>(
    g: &Graph,
    t: usize,
    out_degree: usize,
    mode: WalkMode,
    _kernel: WalkKernel,
    copies_multiplier: usize,
    ctx: &mut MpcContext,
    rng: &mut R,
) -> Result<Graph, CoreError> {
    random_batch(g, t, out_degree, mode, copies_multiplier, ctx, rng).map(|b| b.to_graph())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use wcc_graph::prelude::*;
    use wcc_graph::spectral::{lazy_walk_distribution, total_variation_distance};
    use wcc_mpc::MpcConfig;

    fn ctx_for(words: usize) -> MpcContext {
        MpcContext::new(MpcConfig::for_input_size(words.max(64), 0.5).permissive())
    }

    /// [`v3_walk_visits_into`] with a fresh scratch, output and tally.
    fn visits<V: AdjacencyView>(g: &V, start: usize, t: usize, rng: &mut ChaCha8Rng) -> Vec<usize> {
        let mut out = Vec::new();
        let mut tally = WalkTelemetry::default();
        v3_walk_visits_into(
            g,
            start,
            t,
            rng,
            &mut WalkVisitScratch::new(),
            &mut out,
            &mut tally,
        );
        out
    }

    #[test]
    fn direct_walk_stays_in_component() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let g = generators::planted_expander_components(&[30, 30], 6, &mut rng);
        let cc = connected_components(&g);
        for v in (0..g.num_vertices()).step_by(5) {
            let end = direct_walk_endpoint(&g, v, 40, &mut rng);
            assert!(cc.same_component(v, end));
        }
    }

    #[test]
    fn zero_walks_per_vertex_returns_an_empty_arena_without_simulating() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let g = generators::random_regular_permutation_graph(40, 6, &mut rng);
        for mode in [WalkMode::Direct, WalkMode::Faithful] {
            let mut ctx = ctx_for(4 * g.num_edges());
            let mut walk_rng = ChaCha8Rng::seed_from_u64(9);
            let flat = independent_lazy_walks(&g, 8, 0, mode, 2, &mut ctx, &mut walk_rng)
                .expect("k = 0 is a valid (trivial) request");
            assert!(
                flat.is_empty(),
                "mode {mode:?} produced endpoints for k = 0"
            );
        }
    }

    #[test]
    fn direct_walk_on_isolated_vertex_stays_put() {
        let g = Graph::empty(3);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        assert_eq!(direct_walk_endpoint(&g, 1, 10, &mut rng), 1);
        assert_eq!(visits(&g, 1, 10, &mut rng), vec![1]);
    }

    #[test]
    fn walk_visits_cover_small_cycle() {
        let g = generators::cycle(6);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let seen = visits(&g, 0, 500, &mut rng);
        assert_eq!(seen.len(), 6);
        assert_eq!(seen[0], 0);
    }

    #[test]
    fn layered_bundle_endpoints_distribute_like_true_walks() {
        // On a Δ-regular expander, endpoints of length-t walks from a fixed
        // start should match the exact walk distribution. We test the
        // *aggregate* endpoint distribution over all starts, which for a
        // vertex-transitive-ish random regular graph must be near uniform.
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let n = 60;
        let g = generators::random_regular_permutation_graph(n, 8, &mut rng);
        let t = 16;
        let mut counts = vec![0f64; n];
        let reps = 40;
        for _ in 0..reps {
            let bundle = layered_walk_bundle(&g, t, 2, &mut rng);
            for &target in &bundle.targets {
                counts[target] += 1.0;
            }
        }
        let total: f64 = counts.iter().sum();
        let empirical: Vec<f64> = counts.iter().map(|c| c / total).collect();
        let uniform = vec![1.0 / n as f64; n];
        let tvd = total_variation_distance(&empirical, &uniform);
        assert!(
            tvd < 0.15,
            "endpoint distribution far from uniform: tvd = {tvd}"
        );
    }

    #[test]
    fn layered_bundle_certifies_many_independent_walks_on_regular_graphs() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let g = generators::random_regular_permutation_graph(80, 8, &mut rng);
        let bundle = layered_walk_bundle(&g, 8, 2, &mut rng);
        let independent = bundle.independent.iter().filter(|&&b| b).count();
        // Lemma 5.3: each walk is independent with probability >= 1/2; demand
        // a conservative third to keep the test robust.
        assert!(
            independent * 3 >= g.num_vertices(),
            "only {independent}/{} walks certified independent",
            g.num_vertices()
        );
    }

    #[test]
    fn hub_graphs_yield_fewer_independent_walks_than_regular_graphs() {
        // The motivation for regularization (Section 3): on a star, walks all
        // collide in the centre.
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let star = generators::star(81);
        let regular = generators::random_regular_permutation_graph(81, 8, &mut rng);
        let b_star = layered_walk_bundle(&star, 8, 2, &mut rng);
        let b_reg = layered_walk_bundle(&regular, 8, 2, &mut rng);
        let ind_star = b_star.independent.iter().filter(|&&b| b).count();
        let ind_reg = b_reg.independent.iter().filter(|&&b| b).count();
        assert!(
            ind_reg > 2 * ind_star,
            "regular graph should certify far more independent walks ({ind_reg} vs {ind_star})"
        );
    }

    #[test]
    fn lazy_view_walks_match_materialized_self_loops() {
        // The whole point of the virtual lazy view: for a fixed per-vertex
        // RNG stream, endpoints and visit sets are *bit-identical* to walking
        // the materialised `with_self_loops` graph — not merely close in
        // distribution. This is what lets the LazyView migration keep every
        // golden output.
        let mut rng = ChaCha8Rng::seed_from_u64(40);
        let g = generators::random_regular_permutation_graph(60, 6, &mut rng);
        let delta = g.max_degree();
        let materialized = g.with_self_loops(delta);
        let view = g.lazy_view(delta);
        for v in (0..g.num_vertices()).step_by(3) {
            for t in [1usize, 7, 32] {
                let mut rng_a = ChaCha8Rng::seed_from_u64(1000 + v as u64 + t as u64);
                let mut rng_b = rng_a.clone();
                assert_eq!(
                    direct_walk_endpoint(&materialized, v, t, &mut rng_a),
                    direct_walk_endpoint(&view, v, t, &mut rng_b),
                    "endpoint diverged at v={v}, t={t}"
                );
                // The streams must also have advanced identically.
                assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
                let mut rng_a = ChaCha8Rng::seed_from_u64(2000 + v as u64 + t as u64);
                let mut rng_b = rng_a.clone();
                assert_eq!(
                    visits(&materialized, v, t, &mut rng_a),
                    visits(&view, v, t, &mut rng_b),
                    "visit order diverged at v={v}, t={t}"
                );
                assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
            }
        }
        // The faithful layered structure sees the same virtual adjacency too.
        let mut rng_a = ChaCha8Rng::seed_from_u64(3000);
        let mut rng_b = rng_a.clone();
        let bundle_a = layered_walk_bundle(&materialized, 4, 2, &mut rng_a);
        let bundle_b = layered_walk_bundle(&view, 4, 2, &mut rng_b);
        assert_eq!(bundle_a.targets, bundle_b.targets);
        assert_eq!(bundle_a.independent, bundle_b.independent);
    }

    #[test]
    fn walk_visits_into_reuses_scratch_across_walks() {
        let g = generators::cycle(10);
        let mut scratch = WalkVisitScratch::new();
        let mut out = Vec::new();
        let mut tally = WalkTelemetry::default();
        for (v, seed) in [(0usize, 5u64), (3, 6), (7, 7)] {
            let mut rng_a = ChaCha8Rng::seed_from_u64(seed);
            let mut rng_b = rng_a.clone();
            v3_walk_visits_into(&g, v, 50, &mut rng_a, &mut scratch, &mut out, &mut tally);
            assert_eq!(out, visits(&g, v, 50, &mut rng_b));
        }
        // Every step of a walk on the raw cycle is a real move.
        assert_eq!((tally.steps, tally.moves), (150, 150));
    }

    #[test]
    fn independent_lazy_walks_rejects_irregular_graphs() {
        let g = generators::star(10);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut ctx = ctx_for(100);
        assert!(matches!(
            independent_lazy_walks(&g, 4, 2, WalkMode::Direct, 2, &mut ctx, &mut rng),
            Err(CoreError::BadParams(_))
        ));
    }

    #[test]
    fn lazy_walk_endpoints_match_exact_lazy_distribution() {
        // Empirical endpoint distribution of many direct lazy walks from one
        // vertex vs the exact lazy-walk distribution.
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let g = generators::cycle(12);
        let t = 10;
        let lazy = g.with_self_loops(2);
        let exact = lazy_walk_distribution(&g, 0, t);
        let mut counts = [0f64; 12];
        let reps = 20_000;
        for _ in 0..reps {
            counts[direct_walk_endpoint(&lazy, 0, t, &mut rng)] += 1.0;
        }
        let empirical: Vec<f64> = counts.iter().map(|c| c / reps as f64).collect();
        let tvd = total_variation_distance(&empirical, &exact);
        assert!(
            tvd < 0.03,
            "tvd between empirical and exact lazy walk: {tvd}"
        );
    }

    #[test]
    fn randomize_connects_each_expander_component_and_never_merges_components() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let g = generators::planted_expander_components(&[50, 70], 8, &mut rng);
        let truth = connected_components(&g);
        let mut ctx = ctx_for(4 * g.num_edges());
        // The planted components are 8-regular expanders; walk long enough to
        // mix. The randomized graph must preserve the component structure.
        let h = randomize(
            &g,
            48,
            12,
            WalkMode::Direct,
            WalkKernel::V3,
            2,
            &mut ctx,
            &mut rng,
        )
        .unwrap();
        assert_eq!(h.num_vertices(), g.num_vertices());
        assert!(connected_components(&h).same_partition(&truth));
        assert!(ctx.stats().rounds_in_phase("randomize") >= 1);
    }

    #[test]
    fn randomize_in_faithful_mode_matches_components_too() {
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let g = generators::random_regular_permutation_graph(40, 6, &mut rng);
        let truth = connected_components(&g);
        let mut ctx = ctx_for(4 * g.num_edges());
        let h = randomize(
            &g,
            16,
            8,
            WalkMode::Faithful,
            WalkKernel::V3,
            2,
            &mut ctx,
            &mut rng,
        )
        .unwrap();
        assert!(connected_components(&h).same_partition(&truth));
    }

    #[test]
    fn walk_round_charge_is_logarithmic_in_t() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let g = generators::random_regular_permutation_graph(50, 6, &mut rng);
        let mut ctx_short = ctx_for(4 * g.num_edges());
        let mut ctx_long = ctx_for(4 * g.num_edges());
        independent_lazy_walks(&g, 4, 1, WalkMode::Direct, 2, &mut ctx_short, &mut rng).unwrap();
        independent_lazy_walks(&g, 256, 1, WalkMode::Direct, 2, &mut ctx_long, &mut rng).unwrap();
        let (a, b) = (
            ctx_short.stats().total_rounds(),
            ctx_long.stats().total_rounds(),
        );
        // 1 + 2·⌈log₂ t⌉: 64x longer walks cost 2·log₂ 64 extra rounds.
        assert_eq!((a, b), (5, 17));
    }

    #[test]
    fn walk_rounds_follow_theorem_3_not_the_bit_length() {
        // 137 and 139 are the one-shot benchmark workloads' walk lengths; the
        // bit length of `next_power_of_two(t)` is one more than ⌈log₂ t⌉ for
        // every t ≥ 2 (9 for them) and is not what Theorem 3 charges.
        for (t, log_t) in [
            (1usize, 0u32),
            (2, 1),
            (3, 2),
            (4, 2),
            (5, 3),
            (137, 8),
            (139, 8),
            (256, 8),
            (257, 9),
        ] {
            assert_eq!(ceil_log2(t), log_t, "⌈log₂ {t}⌉");
            assert_eq!(walk_rounds(t), 1 + 2 * u64::from(log_t), "t = {t}");
        }
        assert_eq!(ceil_log2(0), 0);
        assert_eq!(ceil_log2(usize::MAX / 2 + 1), usize::BITS - 1);
        assert_eq!(ceil_log2(usize::MAX), usize::BITS);
    }

    /// The packed-digit discipline written the other way round, as the
    /// tests' independent reference: a word `x` that must yield `j` digits
    /// is one Lemire draw over span `Δʲ` — accepted iff `lo32(x·Δʲ) ≥ 2³²
    /// mod Δʲ` — whose value `hi32(x·Δʲ)`, read in base Δ most significant
    /// digit first, gives the `j` neighbour indices. No successive
    /// multiplication: the proptest below is what ties the two together.
    fn lemire_digits(x: u32, delta: usize, j: u32) -> (bool, Vec<u32>) {
        let span = (delta as u64).pow(j);
        let m = x as u64 * span;
        let accepted = (m as u32) as u64 >= (1u64 << 32) % span;
        let mut value = m >> 32;
        let mut digits = vec![0u32; j as usize];
        for digit in digits.iter_mut().rev() {
            *digit = (value % delta as u64) as u32;
            value /= delta as u64;
        }
        assert_eq!(value, 0, "hi32(x·Δʲ) < Δʲ");
        (accepted, digits)
    }

    /// A word source that replays a script first (crafted rejecting words
    /// included) and a ChaCha8 stream after it, counting what it hands out.
    struct Scripted {
        script: Vec<u32>,
        rng: ChaCha8Rng,
        taken: usize,
    }

    impl WordSource for Scripted {
        fn next_word(&mut self) -> u32 {
            self.taken += 1;
            match self.script.get(self.taken - 1) {
                Some(&word) => word,
                None => self.rng.next_u32(),
            }
        }
    }

    /// A word that rejects when a lane takes exactly `j` digits from it and
    /// at no shorter prefix: `lo32(x·Δʲ)` in `[2³² mod Δʲ⁻¹, 2³² mod Δʲ)`,
    /// so a kernel that tested `j` digits against the `j − 1` threshold
    /// would accept it. `None` where that band is empty or Δ is even (the
    /// inverse of `Δʲ` mod 2³² then does not exist).
    fn rejecting_word(delta: usize, j: u32) -> Option<u32> {
        if delta.is_multiple_of(2) {
            return None;
        }
        let span = (delta as u32).wrapping_pow(j);
        // Newton's iteration for the inverse of an odd number mod 2³².
        let mut inverse = span;
        for _ in 0..5 {
            inverse = inverse.wrapping_mul(2u32.wrapping_sub(span.wrapping_mul(inverse)));
        }
        let below = |i: u32| ((1u64 << 32) % (delta as u64).pow(i)) as u32;
        (below(j - 1)..below(j))
            .map(|r| r.wrapping_mul(inverse))
            .find(|&x| {
                (1..j).all(|i| lemire_digits(x, delta, i).0) && !lemire_digits(x, delta, j).0
            })
    }

    /// A Δ-regular multigraph on `n` (even) vertices for any Δ: `Δ − Δ mod
    /// 2` from random permutations, plus the matching `v ↔ v + n/2` when Δ
    /// is odd.
    fn regular(n: usize, delta: usize, rng: &mut ChaCha8Rng) -> Graph {
        let even = generators::random_regular_permutation_graph(n, delta - delta % 2, rng);
        let matching = (0..delta % 2 * n / 2).map(|v| (v, v + n / 2));
        Graph::from_edges_unchecked(n, even.edge_iter().chain(matching))
    }

    #[test]
    fn digits_per_word_is_the_largest_power_within_twelve_bits() {
        for (delta, k) in [
            (1usize, 32u32),
            (2, 12),
            (3, 7),
            (6, 4),
            (8, 4),
            (9, 3),
            (16, 3),
            (17, 2),
            (64, 2),
            (65, 1),
            (4096, 1),
            (5000, 1),
        ] {
            let digits = Digits::new(delta);
            assert_eq!(digits.per_word, k, "Δ = {delta}");
            assert_eq!(digits.words(32), 32u32.div_ceil(k));
            for j in 1..=k {
                let span = (delta as u64).pow(j);
                assert_eq!(
                    u64::from(digits.reject_below[j as usize]),
                    (1u64 << 32) % span,
                    "Δ = {delta}, j = {j}"
                );
            }
        }
    }

    proptest! {
        /// The identity the exactness of the packed draws rests on: `j`
        /// successive multiplications by Δ yield the base-Δ digits of
        /// `⌊x·Δʲ / 2³²⌋`, most significant first, and leave `x·Δʲ mod 2³²`
        /// — so accepting on the leftover is Lemire's method over `Δʲ`.
        #[test]
        fn successive_multiplication_yields_the_digits_of_one_lemire_draw(
            x in proptest::num::u32::ANY,
            delta in 1usize..5000,
            pick in 0u32..32,
        ) {
            let digits = Digits::new(delta);
            let j = 1 + pick % digits.per_word;
            let (mut lo, mut got) = (x, Vec::new());
            for _ in 0..j {
                let m = lo as u64 * delta as u64;
                got.push((m >> 32) as u32);
                lo = m as u32;
            }
            let span = (delta as u64).pow(j);
            let (accepted, want) = lemire_digits(x, delta, j);
            prop_assert_eq!(got, want);
            prop_assert_eq!(lo as u64, (x as u64 * span) % (1u64 << 32));
            prop_assert_eq!(accepted, lo >= digits.reject_below[j as usize]);
        }
    }

    /// The stay-run compression legality pin: a local reference that expands
    /// every step one pattern bit at a time — pulling each move's neighbour
    /// index from packed words decoded the independent way
    /// ([`lemire_digits`]), in the same windowed order — must land on the
    /// same vertex AND leave the stream in the same position as the
    /// popcount-and-multiply production path. This is the exactness argument
    /// of DESIGN.md §10 made executable: the compression and the packing
    /// change how bits are *grouped*, never which words are drawn or what
    /// each bit decides. Scripted streams put rejecting words at every digit
    /// position of a window's draws.
    #[test]
    fn v3_run_compression_matches_stepwise_bit_expansion() {
        fn stepwise_reference<W: WordSource>(
            adjacency: &[u32],
            delta: usize,
            start: u32,
            t: usize,
            words: &mut W,
        ) -> u32 {
            let per_word = Digits::new(delta).per_word;
            let mut cur = start;
            let mut remaining = t;
            while remaining > 0 {
                let runnable = remaining.min(32);
                let mut pat = words.next_word();
                let mut left = (pat & ((1u64 << runnable) - 1) as u32).count_ones();
                let mut used = 0u32;
                let mut pending: Vec<u32> = Vec::new();
                // One lazy step per pattern bit, LSB first.
                for _ in 0..runnable {
                    let bit = pat & 1;
                    pat >>= 1;
                    if bit == 1 {
                        if pending.is_empty() {
                            let j = left.min(per_word);
                            pending = loop {
                                used += 1;
                                let (accepted, digits) = lemire_digits(words.next_word(), delta, j);
                                if accepted {
                                    break digits;
                                }
                            };
                            pending.reverse();
                            left -= j;
                        }
                        let digit = pending.pop().expect("a digit per move");
                        cur = adjacency[cur as usize * delta + digit as usize];
                    }
                }
                // Skip to the window's fixed 1 + ⌈runnable/k⌉ allotment.
                while used < (runnable as u32).div_ceil(per_word) {
                    words.next_word();
                    used += 1;
                }
                remaining -= runnable;
            }
            cur
        }

        for delta in [3usize, 8, 9] {
            let mut rng = ChaCha8Rng::seed_from_u64(77 + delta as u64);
            let g = regular(48, delta, &mut rng);
            let adjacency = g.csr_adjacency();
            let digits = Digits::new(delta);
            // Includes t values straddling the 32-bit pattern-word boundary.
            for t in [1usize, 5, 31, 32, 33, 64, 100] {
                for v in (0..g.num_vertices()).step_by(7) {
                    let mut rng_a = ChaCha8Rng::seed_from_u64(900 + v as u64 * 131 + t as u64);
                    let mut rng_b = rng_a.clone();
                    let fast = v3_walk_endpoint(&g, v, t, &mut rng_a);
                    let mut words = 0u64;
                    let mut src = RngWords {
                        rng: &mut rng_b,
                        words: &mut words,
                    };
                    let slow = stepwise_reference(adjacency, delta, v as u32, t, &mut src);
                    assert_eq!(
                        fast, slow as usize,
                        "endpoint diverged: Δ={delta} v={v} t={t}"
                    );
                    // Identical word consumption: the streams must be in the
                    // same position afterwards.
                    assert_eq!(
                        rng_a.next_u64(),
                        rng_b.next_u64(),
                        "stream position diverged: Δ={delta} v={v} t={t}"
                    );
                }
            }
            // A full window of moves then `moves` more, with the word that
            // carries digits `1..=j` of the second window's last draw
            // rejecting: the redraw must be for the same `j` digits, and the
            // padding must follow it.
            for j in 1..=digits.per_word {
                let Some(reject) = rejecting_word(delta, j) else {
                    continue;
                };
                let moves = digits.per_word + j;
                let draws = digits.words(32) as usize;
                let mut script = vec![!0u32];
                script.extend((0..draws).map(|i| 0x9E37_79B9u32.wrapping_mul(i as u32 + 1)));
                script.push((1u32 << moves) - 1);
                script.extend([0x0123_4567, reject]);
                for start in 0..g.num_vertices() as u32 {
                    let seed = 1_000 + start as u64 + 100 * j as u64;
                    let mut a = Scripted {
                        script: script.clone(),
                        rng: ChaCha8Rng::seed_from_u64(seed),
                        taken: 0,
                    };
                    let mut b = Scripted {
                        script: script.clone(),
                        rng: ChaCha8Rng::seed_from_u64(seed),
                        taken: 0,
                    };
                    let mut moved = 0u64;
                    let fast = v3_walk_run(adjacency, &digits, start, 64, &mut a, &mut moved);
                    let slow = stepwise_reference(adjacency, delta, start, 64, &mut b);
                    let what = format!("Δ={delta} j={j} start={start}");
                    assert_eq!(fast, slow, "scripted endpoint diverged: {what}");
                    assert_eq!(
                        a.taken, b.taken,
                        "scripted stream position diverged: {what}"
                    );
                    // Two windows of `1 + draws` words; the second's three
                    // draws (the redraw included) fit its allotment.
                    assert!(draws >= 3);
                    assert_eq!(a.taken, 2 * (1 + draws), "{what}");
                    assert_eq!(moved, 32 + u64::from(moves), "{what}");
                }
            }
        }
    }

    /// The move tiers this host can run, portable first, each announced on
    /// stdout with the test's `scope` so a runner without AVX-512 shows up
    /// as a visible skip, not a silent pass.
    fn tiers_on_host(scope: &str) -> Vec<MoveTier> {
        MoveTier::ALL
            .into_iter()
            .filter(|&tier| {
                let runs = tier <= walk_simd::detected();
                println!(
                    "walk move tier {}: {} ({scope})",
                    tier.name(),
                    if runs { "ran" } else { "SKIPPED" }
                );
                runs
            })
            .collect()
    }

    /// A Δ-regular flat table over `n` vertices that is no graph's CSR —
    /// the window step only needs entries `< n`.
    fn crafted_adjacency(n: usize, delta: usize) -> Vec<u32> {
        (0..n * delta)
            .map(|i| ((i * 2_654_435_761 + 12_345) % n) as u32)
            .collect()
    }

    /// One crafted window on every tier the host has, against the portable
    /// step and a per-lane replay of the definition. `dirty` is `clean` with
    /// one word replaced by a rejecting one; `must` says what every tier has
    /// to report for it (`None`: the word sits where a lane does not consume
    /// it at the digit count it rejects for — a skipped word in a scanned
    /// row, or a longer prefix than its lane takes — so a tier may or may
    /// not see it).
    #[allow(clippy::too_many_arguments)]
    fn check_window<const L: usize>(
        adjacency: &[u32],
        n: usize,
        delta: usize,
        starts: &[u32; L],
        clean: &Ring<L>,
        dirty: &Ring<L>,
        q0: u64,
        usable: u32,
        must: Option<bool>,
        tiers: &[MoveTier],
    ) {
        let (mc, _, total) = window_move_counts(&clean[(q0 % RING_ROWS as u64) as usize], usable);
        let per_word = Digits::new(delta).per_word;
        // Where the definition puts the lanes when no word rejects: draw
        // word `w` of lane `l` carries the digits of moves `w·k..` — all `k`
        // of them, or what its last word has left — decoded the independent
        // way ([`lemire_digits`]).
        let replay = |ring: &Ring<L>| -> [u32; L] {
            core::array::from_fn(|l| {
                let mut cur = starts[l];
                for w in 0..mc[l].div_ceil(per_word) {
                    let word = ring[((q0 + 1 + w as u64) % RING_ROWS as u64) as usize][l];
                    let j = per_word.min(mc[l] - w * per_word);
                    for digit in lemire_digits(word, delta, j).1 {
                        cur = adjacency[cur as usize * delta + digit as usize];
                    }
                }
                cur
            })
        };
        for &tier in tiers {
            let table = WalkTable::on(tier, adjacency, n, delta);
            assert_eq!(table.gather.is_some(), tier != MoveTier::Portable);
            let name = tier.name();
            let what = format!("tier {name}, L={L}, Δ={delta}, q0={q0}, usable={usable:#x}");
            let mut lanes = table.lanes::<L>();
            lanes.restart(starts);
            let outcome = lanes.window_step(clean, q0, usable);
            assert_eq!(
                outcome,
                WindowOutcome {
                    moves: total,
                    rejected: false
                },
                "{what}: clean window"
            );
            assert_eq!(lanes.vertices(), replay(clean), "{what}: clean window");

            lanes.restart(starts);
            let outcome = lanes.window_step(dirty, q0, usable);
            assert_eq!(outcome.moves, total, "{what}");
            if let Some(must) = must {
                assert_eq!(outcome.rejected, must, "{what}: rejection report");
            }
            if !outcome.rejected {
                // Not reported means not rejecting or not consumed: the
                // lanes must stand where the definition puts them.
                assert_eq!(lanes.vertices(), replay(dirty), "{what}: unreported word");
            }
        }
    }

    fn window_step_cases<const L: usize>(tiers: &[MoveTier]) {
        let n = 257;
        let mut rng = ChaCha8Rng::seed_from_u64(0x5EED + L as u64);
        // (Δ, whether the word 0 rejects): `2³² mod Δ` is 1 / 0 / 4; `k` is
        // 7 / 4 / 3 digits per word.
        for (delta, zero_rejects) in [(3usize, true), (8, false), (9, true)] {
            let digits = Digits::new(delta);
            let k = digits.per_word;
            assert_eq!(digits.reject_below[1] > 0, zero_rejects);
            // `rejecting[j - 1]` rejects at exactly `j` digits.
            let rejecting: Vec<Option<u32>> = (1..=k).map(|j| rejecting_word(delta, j)).collect();
            // Odd Δ: a word rejecting at exactly `j` digits exists for every
            // `j ≤ k`, so every digit position below is exercised.
            assert_eq!(
                rejecting.iter().flatten().count(),
                if zero_rejects { k as usize } else { 0 }
            );
            let adjacency = crafted_adjacency(n, delta);
            let starts: [u32; L] = core::array::from_fn(|l| ((l * 37 + 5) % n) as u32);
            let lone: [u32; L] = core::array::from_fn(|l| if l == L / 3 { !0 } else { 0 });
            let mixed: [u32; L] = core::array::from_fn(|_| rng.next_u32());
            // Lane 0 idle, lane L-1 busiest: a word can sit in a scanned
            // row its own lane has finished with.
            let ramp: [u32; L] =
                core::array::from_fn(|l| (1u32 << (1 + l * 20 / L)).wrapping_sub(1));
            // Lane `l` makes `k + 1 + l mod k` moves: one full draw word,
            // then a last word of every digit count `1..=k` across the lanes.
            let partial: [u32; L] = core::array::from_fn(|l| (1u32 << (k + 1 + l as u32 % k)) - 1);
            for (pattern, usable) in [
                ([0u32; L], !0u32),
                ([!0u32; L], !0),
                (lone, !0),
                (mixed, !0),
                (mixed, (1 << 7) - 1),
                (ramp, !0),
                (partial, !0),
            ] {
                // A wrapping window, and one that starts on a block edge.
                for q0 in [RING_ROWS as u64 - 5, 3 * 33, 16] {
                    let mut clean: Ring<L> = [[0; L]; RING_ROWS];
                    for row in clean.iter_mut() {
                        // Keep crafted words clear of every prefix's
                        // rejection band.
                        row.fill_with(|| loop {
                            let word = rng.next_u32();
                            if (1..=k).all(|j| lemire_digits(word, delta, j).0) {
                                break word;
                            }
                        });
                    }
                    clean[(q0 % RING_ROWS as u64) as usize] = pattern;
                    let (mc, most, _) = window_move_counts(&pattern, usable);
                    let place = |w: u32, l: usize, word: u32| {
                        let mut dirty = clean;
                        dirty[((q0 + 1 + w as u64) % RING_ROWS as u64) as usize][l] = word;
                        dirty
                    };
                    let check = |dirty: &Ring<L>, must: Option<bool>| {
                        check_window(
                            &adjacency, n, delta, &starts, &clean, dirty, q0, usable, must, tiers,
                        );
                    };
                    // In a row past every lane's draws: never scanned,
                    // never reported.
                    if digits.words(most) < digits.words(32) {
                        check(&place(digits.words(most), L - 1, 0), Some(false));
                    }
                    // In a row its lane consumes: must be reported.
                    if let Some(l) = (0..L).rev().find(|&l| mc[l] > 0) {
                        check(&place(digits.words(mc[l]) - 1, l, 0), Some(zero_rejects));
                    }
                    // In a scanned row of a finished lane: either way.
                    if let Some(l) = (0..L).find(|&l| digits.words(mc[l]) < digits.words(most)) {
                        let must = if zero_rejects { None } else { Some(false) };
                        check(&place(digits.words(most) - 1, l, 0), must);
                    }
                    // A lane's last word, rejecting at exactly the digit
                    // count `j` the lane takes from it and at no shorter
                    // prefix: must be reported. Rejecting only at `j + 1`
                    // digits: either way — the lane does not consume it so.
                    for j in 1..=k {
                        let last_of = |l: usize| digits.words(mc[l]).saturating_sub(1);
                        let Some(l) = (0..L).find(|&l| mc[l] > 0 && mc[l] - last_of(l) * k == j)
                        else {
                            continue;
                        };
                        if let Some(word) = rejecting[j as usize - 1] {
                            check(&place(last_of(l), l, word), Some(true));
                        }
                        if let Some(&Some(word)) = rejecting.get(j as usize) {
                            check(&place(last_of(l), l, word), None);
                        }
                    }
                }
            }
        }
    }

    /// Every tier's window step equals the portable one on crafted rings —
    /// and reports a rejecting word whenever a lane consumes it, which is
    /// the one condition the endpoints rest on.
    #[test]
    fn window_step_matches_portable_on_every_tier() {
        let tiers = tiers_on_host("window step");
        window_step_cases::<64>(&tiers);
        window_step_cases::<32>(&tiers);
        window_step_cases::<16>(&tiers);
    }

    /// The fan-out on every tier equals the per-vertex scalar reference,
    /// across walk lengths straddling the window size, tails of every
    /// step-down size and worker spans cut by 1, 2 and 8 threads.
    #[test]
    fn v3_fanout_matches_scalar_reference_on_every_tier_and_tail() {
        use wcc_mpc::MpcConfig;
        let tiers = tiers_on_host("fan-out");
        // Tails of 0, 1, 33, 49, 63 and 8 vertices after the 64-lane groups.
        for n in [64usize, 65, 97, 113, 127, 200] {
            let mut rng = ChaCha8Rng::seed_from_u64(300 + n as u64);
            let g = generators::random_regular_permutation_graph(n, 6, &mut rng);
            for t in [1usize, 31, 32, 33, 139] {
                for k in [1usize, 3] {
                    let master = ChaCha8Rng::seed_from_u64((n * 1000 + t * 10 + k) as u64);
                    let base = master.clone().gen::<u64>();
                    let expected: Vec<u32> = (0..n)
                        .flat_map(|v| {
                            let mut vrng =
                                ChaCha8Rng::seed_from_u64(derive_stream_seed(base, v as u64));
                            let g = &g;
                            (0..k).map(move |_| v3_walk_endpoint(g, v, t, &mut vrng) as u32)
                        })
                        .collect();
                    for threads in [1usize, 2, 8] {
                        let config = MpcConfig::for_input_size(4 * g.num_edges(), 0.5)
                            .permissive()
                            .with_threads(threads);
                        let what = format!("n={n} t={t} k={k} threads={threads}");
                        let got = independent_lazy_walks(
                            &g,
                            t,
                            k,
                            WalkMode::Direct,
                            2,
                            &mut MpcContext::new(config),
                            &mut master.clone(),
                        )
                        .unwrap();
                        assert_eq!(got, expected, "dispatched tier, {what}");
                        for &tier in &tiers {
                            let got = lazy_walks_on(
                                tier,
                                &g,
                                t,
                                k,
                                WalkMode::Direct,
                                2,
                                &mut MpcContext::new(config),
                                &mut master.clone(),
                            )
                            .unwrap();
                            assert_eq!(got, expected, "tier {}, {what}", tier.name());
                        }
                    }
                }
            }
        }
    }

    /// The gate in front of the unchecked gather: a table with an entry that
    /// is not a vertex, or too large for 32-bit signed offsets, gets no
    /// gather table on any tier — the fan-out then runs the portable step.
    #[test]
    fn gather_gate_refuses_bad_tables() {
        use crate::walk_simd::gather_shape_ok;
        let (n, delta) = (40usize, 3usize);
        let good = crafted_adjacency(n, delta);
        let mut bad = good.clone();
        bad[77] = n as u32;
        for tier in MoveTier::ALL {
            let built = GatherTable::build_on(tier, &good, n, delta).is_some();
            assert_eq!(
                built,
                tier != MoveTier::Portable && tier <= walk_simd::detected(),
                "tier {}",
                tier.name()
            );
            assert!(GatherTable::build_on(tier, &bad, n, delta).is_none());
            assert!(GatherTable::build_on(tier, &good, n + 1, delta).is_none());
            assert!(GatherTable::build_on(tier, &good[1..], n, delta).is_none());
        }
        // Sizes only — no allocation.
        assert!(gather_shape_ok(i32::MAX as usize, i32::MAX as usize, 1));
        assert!(!gather_shape_ok(1 << 31, 1 << 31, 1));
        assert!(!gather_shape_ok(9 << 28, 1 << 28, 9));
        assert!(!gather_shape_ok(usize::MAX, usize::MAX / 2 + 1, 2));
        assert!(!gather_shape_ok(0, 0, 0));
        assert!(!gather_shape_ok(0, 0, 3));
        assert_eq!(walk_move_tier(), walk_simd::detected().name());
    }

    /// The batched v3 kernel must equal the scalar v3 path lane for lane, on
    /// every tier and group width — this (plus the vendored
    /// lane≡single-stream test) is what makes the group/tail split and chunk
    /// boundaries invisible in the endpoints.
    #[test]
    fn v3_lane_group_matches_scalar_walks_per_lane() {
        fn check<const L: usize>(g: &Graph, tier: MoveTier) {
            let delta = g.max_degree();
            let table = WalkTable::on(tier, g.csr_adjacency(), g.num_vertices(), delta);
            let name = tier.name();
            let (t, k) = (37, 3);
            let vertices: [u32; L] = core::array::from_fn(|l| (2 * l) as u32);
            let seeds: [u64; L] = core::array::from_fn(|l| 0xC0FFEE ^ (l as u64 * 7919));
            let mut out = vec![0u32; L * k];
            let mut tally = WalkTelemetry::default();
            assert!(
                v3_walk_lane_group(&table, t, k, &vertices, &seeds, &mut out, &mut tally),
                "rejection on a fixed-seed group ({name}, L={L})"
            );
            let mut scalar_moves = 0u64;
            let mut scalar_words = 0u64;
            for l in 0..L {
                let mut vrng = ChaCha8Rng::seed_from_u64(seeds[l]);
                let mut src = RngWords {
                    rng: &mut vrng,
                    words: &mut scalar_words,
                };
                for walk in 0..k {
                    let end = v3_walk_run(
                        g.csr_adjacency(),
                        &table.digits,
                        vertices[l],
                        t,
                        &mut src,
                        &mut scalar_moves,
                    );
                    assert_eq!(
                        out[l * k + walk],
                        end,
                        "{name}, L={L}: lane {l} walk {walk} diverged from scalar"
                    );
                }
            }
            assert_eq!(tally.moves, scalar_moves);
            assert_eq!(tally.keystream_words, scalar_words);
            assert!(tally.refills > 0, "batched path never refilled");
        }

        let mut rng = ChaCha8Rng::seed_from_u64(88);
        let g = generators::random_regular_permutation_graph(128, 6, &mut rng);
        for tier in tiers_on_host("lane group") {
            check::<64>(&g, tier);
            check::<32>(&g, tier);
            check::<16>(&g, tier);
        }
    }

    #[test]
    fn v3_endpoints_match_exact_lazy_distribution() {
        // The v3 decomposition (fair stay coin + uniform real neighbour,
        // packed `k` digits to a word) must realise exactly the lazy-walk
        // distribution `direct_walk_endpoint` samples from the 2Δ span — at every
        // packing: Δ = 2, 9, 18 and 66 take k = 12, 3, 2 and 1 digits per
        // word.
        let mut rng = ChaCha8Rng::seed_from_u64(91);
        let t = 10;
        for (g, k) in [
            (generators::cycle(12), 12u32),
            (generators::complete(10), 3),
            (regular(16, 18, &mut rng), 2),
            (regular(16, 66, &mut rng), 1),
        ] {
            let (n, delta) = (g.num_vertices(), g.max_degree());
            assert_eq!(Digits::new(delta).per_word, k, "Δ = {delta}");
            let exact = lazy_walk_distribution(&g, 0, t);
            let mut counts = vec![0f64; n];
            let reps = 20_000;
            for _ in 0..reps {
                counts[v3_walk_endpoint(&g, 0, t, &mut rng)] += 1.0;
            }
            let empirical: Vec<f64> = counts.iter().map(|c| c / reps as f64).collect();
            let tvd = total_variation_distance(&empirical, &exact);
            assert!(
                tvd < 0.03,
                "tvd between v3 empirical and exact lazy, Δ = {delta}: {tvd}"
            );
        }
    }

    #[test]
    fn v3_fanout_records_walk_telemetry() {
        use wcc_mpc::walk_telemetry_snapshot;
        let mut rng = ChaCha8Rng::seed_from_u64(92);
        let g = generators::random_regular_permutation_graph(64, 6, &mut rng);
        let (t, k) = (32usize, 2usize);
        let before = walk_telemetry_snapshot();
        let mut ctx = ctx_for(4 * g.num_edges());
        independent_lazy_walks(&g, t, k, WalkMode::Direct, 2, &mut ctx, &mut rng).unwrap();
        let after = walk_telemetry_snapshot();
        let min_steps = (g.num_vertices() * k * t) as u64;
        // Counters are process-global and other tests may add concurrently,
        // so assert only the lower bounds this fan-out must contribute.
        assert!(after.steps >= before.steps + min_steps);
        assert!(after.moves > before.moves);
        assert!(after.stays_compressed > before.stays_compressed);
        // One pattern word per 32 steps plus one draw word per `k` steps
        // of the window: well under `gen_range`'s two words per step.
        assert!(after.keystream_words > before.keystream_words);
        assert!(after.refills > before.refills);
    }
}
