//! # oblivion-decomp
//!
//! Hierarchical mesh decompositions and the access graph from Busch,
//! Magdon-Ismail & Xi, *"Optimal Oblivious Path Selection on the Mesh"*
//! (IPDPS 2005), Sections 3.1–3.2 and 4.1.
//!
//! * [`Decomp2`] — the 2-D type-1 / type-2 decomposition with the
//!   deepest-common-ancestor (bridge) search of Lemma 3.3;
//! * [`DecompD`] — the `d`-dimensional diagonal-shift ("type-j")
//!   decomposition with the bridge plan of Lemma 4.1;
//! * [`AccessGraph`] — the explicit leveled graph `G(M)` for small meshes,
//!   used to verify the structural lemmas and to drive examples;
//! * [`render`] — ASCII renderings reproducing the paper's Figures 1 and 2.
//!
//! The routers in `oblivion-core` use the *implicit* navigation in
//! integer boxes ([`Decomp2::ancestor_box`], [`DecompD::bridge_box`],
//! [`TorusDecomp::bridge_box`]): shifts and masks on `[u32; D]` corners,
//! `O(d)` per hierarchy step and allocation-free, so the decomposition
//! never has to be materialized for routing. The `Submesh`-returning
//! lookups ([`Decomp2::type1_block`], [`DecompD::block`], …) are
//! conversions of the same boxes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod access_graph;
mod access_graph_d;
mod d_dim;
pub mod render;
mod torus;
mod two_d;

pub use access_graph::{AccessGraph, AgNode};
pub use access_graph_d::{AccessGraphD, AgdNode, BlockD};
pub use d_dim::{BoxBridge, BridgePlan, DecompD};
pub use torus::{TorusBlock, TorusBridgePlan, TorusDecomp};
pub use two_d::{Block2D, BlockType2D, Decomp2};

/// The largest exponent `k` a decomposition accepts (side `2^k`). A
/// bitonic chain holds at most `2k + 3` blocks.
pub const MAX_K: u32 = 20;
