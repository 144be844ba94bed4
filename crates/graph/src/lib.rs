//! Graph substrate for the well-connected-components MPC reproduction.
//!
//! This crate provides everything the MPC algorithms of Assadi–Sun–Weinstein
//! (PODC 2019) assume about their *input*: a sparse undirected (multi)graph
//! representation, the random-graph families used throughout the paper,
//! spectral machinery (normalized-Laplacian spectral gap, lazy-random-walk
//! mixing time), and exact sequential connectivity used as ground truth by the
//! test-suite and experiment harness.
//!
//! # Quick example
//!
//! ```
//! use wcc_graph::prelude::*;
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//! // The paper's random-graph family G(n, d): every vertex picks d/2 random
//! // out-neighbours, then directions are dropped (Section 2.3).
//! let g = generators::random_out_degree_graph(500, 20, &mut rng);
//! let cc = components::connected_components(&g);
//! assert_eq!(cc.num_components(), 1);
//! let gap = spectral::spectral_gap(&g, 200);
//! assert!(gap > 0.01);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod components;
pub mod generators;
pub mod graph;
pub mod hash;
pub mod io;
pub mod partition;
pub mod spectral;
pub mod table;
pub mod view;

pub use crate::components::{connected_components, ComponentLabels, UnionFind};
pub use crate::graph::{Graph, GraphBuilder, GraphError};
pub use crate::hash::{IdBuildHasher, IdHasher, IdMap, IdSet};
pub use crate::io::{
    decode_op_chunk, pack_op_list, read_edge_list, read_edge_list_file, read_edge_list_sized,
    read_op_chunk_frames, read_op_chunks, read_op_chunks_file, write_edge_list, write_op_chunks,
    write_op_chunks_file, EdgeOp, IoError, LoadedGraph, OpChunkWriter, OpKind, PackSummary,
};
pub use crate::partition::Partition;
pub use crate::table::{counting_contraction, EdgeSource, EndpointTable};
pub use crate::view::{AdjacencyView, LazyView};

/// Convenient glob-import of the most commonly used items.
pub mod prelude {
    pub use crate::components::{self, connected_components, ComponentLabels, UnionFind};
    pub use crate::generators;
    pub use crate::graph::{Graph, GraphBuilder, GraphError};
    pub use crate::io::{
        decode_op_chunk, pack_op_list, read_edge_list, read_edge_list_file, read_edge_list_sized,
        read_op_chunk_frames, read_op_chunks, read_op_chunks_file, write_edge_list,
        write_op_chunks, write_op_chunks_file, EdgeOp, IoError, LoadedGraph, OpChunkWriter, OpKind,
        PackSummary,
    };
    pub use crate::partition::Partition;
    pub use crate::spectral;
    pub use crate::table::EndpointTable;
    pub use crate::view::{AdjacencyView, LazyView};
}
