//! # wcc-core — Well-Connected Components in the MPC model
//!
//! A from-scratch Rust implementation of
//! *"Massively Parallel Algorithms for Finding Well-Connected Components in
//! Sparse Graphs"* (Assadi, Sun, Weinstein — PODC 2019, arXiv:1805.02974).
//!
//! The paper's headline result (Theorem 1 / Theorem 4): all connected
//! components of a sparse graph whose components have spectral gap at least
//! `λ` can be identified in `O(log log n + log(1/λ))` MPC rounds using
//! `n^{Ω(1)}` memory per machine and `Õ(n/λ²)` total memory — an exponential
//! improvement over the classical `O(log n)`-round algorithms when the
//! components are well connected (expanders, random graphs, …).
//!
//! ## Crate layout (paper section → module)
//!
//! | Paper | Module | What it provides |
//! |---|---|---|
//! | §4, Lemma 4.1 | [`regularize`] | replacement-product regularization |
//! | App. C | [`products`] | the replacement product on non-regular graphs |
//! | §5, Thm 3, Lemma 5.1 | [`walks`] | layered-graph independent random walks, randomization |
//! | §6 | [`leader`] | quadratic-growth leader election, contraction, exact endgame |
//! | §7, Thm 4, Cor 7.1 | [`pipeline`] | the full algorithm and the unknown-gap adaptive loop |
//! | §8, Thm 2 | [`sublinear`] | mildly-sublinear-space connectivity via AGM sketches |
//! | §9, Thm 5 | [`lower_bound`] | the expander-connectivity query-game adversary |
//! | App. A/B | [`concentration`] | Chernoff / bounded-difference helpers, balls & bins |
//! | Eq. (3) | [`params`] | all constants, paper values and laptop-scale presets |
//!
//! ## Quickstart
//!
//! ```
//! use wcc_core::prelude::*;
//! use wcc_graph::prelude::*;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), wcc_core::CoreError> {
//! // A graph whose two components are constant-degree expanders.
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let g = generators::planted_expander_components(&[300, 200], 8, &mut rng);
//!
//! // The components have constant spectral gap, so promise λ = 0.3.
//! let result = well_connected_components(&g, 0.3, &Params::laptop_scale(), 42)?;
//! assert_eq!(result.components.num_components(), 2);
//! println!("{} MPC rounds", result.stats.total_rounds());
//! # Ok(())
//! # }
//! ```

//!
//! ## Unsafe code
//!
//! The crate denies `unsafe` everywhere except one private module,
//! `walk_simd`: the AVX-512 / AVX2 gather step of the v3 walk kernel
//! (DESIGN.md §10). It holds every intrinsic, the CPUID tier check and the
//! validated table and lane types its bounds argument rests on; everything
//! it exposes to the rest of the crate is safe to call.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod concentration;
pub mod leader;
pub mod lower_bound;
pub mod params;
pub mod pipeline;
pub mod products;
pub mod regularize;
pub mod serve;
pub mod stream;
pub mod sublinear;
#[allow(unsafe_code)]
mod walk_simd;
pub mod walks;

pub use crate::params::Params;
pub use crate::pipeline::{
    adaptive_components, well_connected_components, AdaptiveResult, PipelineReport, WccResult,
};
pub use crate::regularize::{CoreError, RegularizedGraph};
pub use crate::serve::{ComponentSnapshot, Server, SnapshotCell, SnapshotReader};
pub use crate::stream::{
    BatchPath, BatchReport, IncrementalComponents, RecomputeReason, StreamParams,
};
pub use crate::sublinear::{sublinear_components, SublinearParams, SublinearResult};
pub use crate::walks::WalkKernel;

/// Convenient glob-import of the most commonly used items.
pub mod prelude {
    pub use crate::params::Params;
    pub use crate::pipeline::{
        adaptive_components, well_connected_components, AdaptiveResult, PipelineReport, WccResult,
    };
    pub use crate::regularize::{regularize, CoreError, RegularizedGraph};
    pub use crate::serve::{ComponentSnapshot, Server, SnapshotCell, SnapshotReader};
    pub use crate::stream::{
        BatchPath, BatchReport, IncrementalComponents, RecomputeReason, StreamParams,
    };
    pub use crate::sublinear::{sublinear_components, SublinearParams, SublinearResult};
    pub use crate::walks::WalkKernel;
}
