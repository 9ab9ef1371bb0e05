//! # oblivion-mesh
//!
//! The `d`-dimensional mesh/torus network substrate underlying the
//! *oblivion* reproduction of Busch, Magdon-Ismail & Xi, "Optimal Oblivious
//! Path Selection on the Mesh" (IPDPS 2005).
//!
//! This crate provides the network model of the paper's Section 2:
//!
//! * [`Coord`] — inline, allocation-free grid coordinates;
//! * [`Mesh`] — the network: node/edge indexing, adjacency, shortest-path
//!   distances, and (optionally) torus wrap-around links;
//! * [`Submesh`] — axis-aligned boxes `M' ⊆ M` with the boundary-link count
//!   `out(M')` used by the boundary-congestion bound;
//! * [`Path`] — validated walks with length, stretch, and cycle removal;
//! * [`decode_ids`] — the running decoder of a walk given as `u32` node
//!   ids, the route kernel's form of a path.
//!
//! Everything here is deterministic and single-threaded; randomness only
//! enters through explicitly passed RNGs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coord;
mod ids;
mod mesh;
mod path;
mod submesh;

pub use coord::{Coord, MAX_DIM};
pub use ids::{decode_ids, MAX_ID_WALK_NODES};
pub use mesh::{EdgeId, Mesh, NodeId, Topology};
pub use path::{CycleKey, CycleTable, Path};
pub use submesh::{Submesh, SubmeshNodes};
