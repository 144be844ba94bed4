//! A simulator for the Massively Parallel Computation (MPC) model of
//! Beame–Koutris–Suciu / Karloff–Suri–Vassilvitskii, as used by
//! Assadi–Sun–Weinstein (PODC 2019).
//!
//! The MPC model the paper adopts (Section 1, "Massively Parallel Computation
//! Model") has three resources:
//!
//! * **memory per machine** `s` — for the sparse connectivity problem the
//!   interesting regime is `s = n^δ` for a constant `δ > 0`;
//! * **number of machines**, with total memory ideally `Õ(N)`;
//! * **rounds**: per round each machine computes locally on the tuples it
//!   holds, then machines exchange messages, each machine sending and
//!   receiving at most `s` words.
//!
//! This crate simulates that model inside a single process so the resources
//! can be *measured exactly*:
//!
//! * [`MpcConfig`] fixes `s`, the machine count and `δ`.
//! * [`MpcContext`] is the accounting layer — algorithms charge rounds,
//!   shuffled words and per-machine residency against it, phase by phase, at
//!   exactly the costs the paper assigns to each primitive (a shuffle is one
//!   round; a Goodrich sort/search over `N` items is `O(log_s N)` rounds; a
//!   pointer-doubling step is one sort/search batch, …).
//! * [`Cluster`] is the model-fidelity layer — an actual tuple store
//!   partitioned across simulated machines with `map`/`shuffle`/`reduce`
//!   supersteps that *enforce* the memory budget, each written as its own
//!   executable specification (one plain pass, no fast path beside it). The
//!   Goodrich sort / search / dedup [`primitives`] run on it, so the
//!   test-suite can check what [`MpcContext`] charges for a primitive
//!   against a real execution of it. No algorithm in the workspace runs on a
//!   `Cluster`: the pipeline and the baselines compute on `Graph` +
//!   [`Executor`] and charge the context.
//!
//! Wall-clock time plays no role: the reproduced quantities are rounds and
//! memory, which is what the paper's theorems bound.
//!
//! ```
//! use wcc_mpc::prelude::*;
//!
//! // 10_000 words of input, memory per machine ~ N^0.5.
//! let config = MpcConfig::for_input_size(10_000, 0.5);
//! let mut ctx = MpcContext::new(config);
//! ctx.begin_phase("sort");
//! ctx.charge_sort(10_000);
//! ctx.end_phase();
//! assert!(ctx.stats().total_rounds() >= 1);
//! ```

// Unsafe is denied crate-wide; the one exception is the `pool` module, whose
// persistent worker pool hands a borrowed job closure to parked threads
// through a raw pointer whose lifetime is bounded by the dispatch protocol.
// Every unsafe block there carries its soundness argument.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod config;
pub mod executor;
pub mod histogram;
#[allow(unsafe_code)]
pub mod pool;
pub mod primitives;
pub mod stats;
pub mod stream;
pub mod walkstats;

pub use crate::cluster::Cluster;
pub use crate::config::{MpcConfig, MpcError};
pub use crate::executor::{derive_stream_seed, Executor, THREADS_ENV_VAR};
pub use crate::histogram::{HistogramSummary, LogHistogram, HISTOGRAM_BUCKETS};
pub use crate::pool::{PoolProbe, PoolTelemetry, CHUNKS_PER_WORKER};
pub use crate::stats::{MpcContext, PhaseStats, RoundStats};
pub use crate::walkstats::{record_walk_telemetry, walk_telemetry_snapshot, WalkTelemetry};

/// Convenient glob-import of the most commonly used items.
pub mod prelude {
    pub use crate::cluster::Cluster;
    pub use crate::config::{MpcConfig, MpcError};
    pub use crate::executor::{derive_stream_seed, Executor};
    pub use crate::stats::{MpcContext, PhaseStats, RoundStats};
}
