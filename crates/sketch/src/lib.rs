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
//! * [`DynamicConnectivitySketch`] — the AGM sketch: each vertex sketches its
//!   signed edge-incidence vector with one ℓ0-sampler per Borůvka phase;
//!   sketches are *linear*, so the sketch of a part is the sum of its
//!   vertices' sketches and Borůvka runs entirely in sketch space. The vertex
//!   set can grow, updates may insert or delete, and a vertex's message can
//!   be built on its own ([`DynamicConnectivitySketch::message_for`]).
//!
//! The sketch stores its per-vertex samplers through one flat kernel
//! ([`kernel`]: shared keys, contiguous cells stored for the levels
//! reached); [`L0Sampler`] and [`OneSparseRecovery`] are the
//! standalone textbook structures over the same field arithmetic, and the
//! reference the kernel is tested against cell for cell.
//!
//! ```
//! use wcc_sketch::DynamicConnectivitySketch;
//!
//! // A 6-cycle: one part. Deleting two of its edges leaves two paths.
//! let mut sketch = DynamicConnectivitySketch::new(16, 7);
//! (0..6).for_each(|_| sketch.push_vertex());
//! for v in 0..6 {
//!     sketch.add_edge(v, (v + 1) % 6);
//! }
//! let everyone: Vec<u32> = (0..6).collect();
//! assert_eq!(sketch.subset_components(&everyone).unwrap().parts.len(), 1);
//! sketch.remove_edge(0, 1);
//! sketch.remove_edge(3, 4);
//! let parts = sketch.subset_components(&everyone).unwrap().parts;
//! assert_eq!(parts, vec![vec![0, 4, 5], vec![1, 2, 3]]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dynamic;
pub mod kernel;
pub mod l0;
pub mod one_sparse;

pub use crate::dynamic::{DynamicConnectivitySketch, SubsetPartition};
pub use crate::kernel::VertexSketch;
pub use crate::l0::L0Sampler;
pub use crate::one_sparse::{OneSparseRecovery, RecoveryOutcome};
