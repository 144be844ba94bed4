//! Linear graph sketches for connectivity.
//!
//! Section 8 of the paper (the mildly-sublinear-space algorithm, Theorem 2)
//! finishes by invoking Proposition 8.1 — the linear-sketching connectivity
//! algorithm of Ahn, Guha and McGregor (SODA 2012): every vertex can compress
//! its incident edge list into a `polylog(n)`-bit message such that a central
//! coordinator can recover the connected components from the messages alone.
//!
//! This crate implements that substrate from scratch:
//!
//! * [`OneSparseRecovery`] — exact recovery of a vector that has exactly one
//!   non-zero coordinate, with a fingerprint test to detect the other cases;
//! * [`L0Sampler`] — samples a non-zero coordinate of a dynamically updated
//!   vector, built from geometrically sub-sampled one-sparse recoveries;
//! * [`ConnectivitySketch`] — the AGM sketch: each vertex sketches its signed
//!   edge-incidence vector with `O(log n)` independent L0 samplers; sketches
//!   are *linear*, so the sketch of a component is the sum of its vertices'
//!   sketches, and Borůvka can be run entirely in sketch space;
//! * [`DynamicConnectivitySketch`] — the same sketch over a growing vertex
//!   set with turnstile (insert and delete) updates.
//!
//! Both sketches store their per-vertex samplers through one flat kernel
//! ([`kernel`]: shared [`SketchKeys`], contiguous cells stored for the
//! levels reached and the phases built);
//! [`L0Sampler`] and [`OneSparseRecovery`] are the standalone textbook
//! structures over the same field arithmetic, and the reference the kernel
//! is tested against cell for cell.
//!
//! ```
//! use wcc_sketch::ConnectivitySketch;
//! use wcc_graph::prelude::*;
//!
//! let g = generators::cycle(12);
//! let mut sketch = ConnectivitySketch::new(g.num_vertices(), 7);
//! for (u, v) in g.edge_iter() {
//!     sketch.add_edge(u, v);
//! }
//! let labels = sketch.components();
//! assert_eq!(labels.num_components(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod connectivity;
pub mod dynamic;
pub mod kernel;
pub mod l0;
pub mod one_sparse;

pub use crate::connectivity::ConnectivitySketch;
pub use crate::dynamic::{DynamicConnectivitySketch, SubsetPartition};
pub use crate::kernel::{SketchKeys, VertexSketch};
pub use crate::l0::L0Sampler;
pub use crate::one_sparse::{OneSparseRecovery, RecoveryOutcome};
