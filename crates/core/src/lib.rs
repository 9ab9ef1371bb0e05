//! # oblivion-core
//!
//! Oblivious path-selection algorithms for the `d`-dimensional mesh,
//! reproducing Busch, Magdon-Ismail & Xi, *"Optimal Oblivious Path
//! Selection on the Mesh"* (IPDPS 2005).
//!
//! The headline algorithm is [`BuschD`] (the paper's **H**): congestion
//! `O(d² C* log n)` w.h.p. *and* stretch `O(d²)`, simultaneously — the
//! first oblivious scheme to control both. [`Busch2D`] is the specialized
//! 2-D variant of Section 3 with its explicit stretch-64 guarantee.
//!
//! Baselines for every comparison in the evaluation: [`DimOrder`],
//! [`RandomDimOrder`], [`Valiant`], and the bridge-free [`AccessTree`] of
//! Maggs et al., which is also the natural ablation of the paper's key
//! idea.
//!
//! Randomness is drawn through the bit-metering [`BitMeter`], so the
//! per-packet random-bit counts of Section 5 are measured exactly;
//! [`RandomnessMode`] switches between naive and bit-recycled sampling
//! (Section 5.3).
//!
//! ```
//! use oblivion_core::{Busch2D, ObliviousRouter};
//! use oblivion_mesh::{Coord, Mesh};
//! use rand::SeedableRng;
//!
//! let mesh = Mesh::new_mesh(&[32, 32]);
//! let router = Busch2D::new(mesh);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let s = Coord::new(&[3, 4]);
//! let t = Coord::new(&[28, 9]);
//! let routed = router.select_path(&s, &t, &mut rng);
//! assert!(routed.path.is_valid(router.mesh()));
//! assert!(routed.path.stretch(router.mesh()) <= 64.0); // Theorem 3.4
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baselines;
mod busch2d;
mod busch_torus;
mod buschd;
mod chain;
mod choices;
mod factory;
mod offline;
mod padded;
mod parallel;
mod randbits;
mod romm;
mod router;
mod subpath;

pub use baselines::{AccessTree, DimOrder, RandomDimOrder, Valiant};
pub use busch2d::Busch2D;
pub use busch_torus::BuschTorus;
pub use buschd::{stretch_bound, BuschD};
pub use chain::{path_through_chain, RandomnessMode};
pub use choices::{bits_lower_bound, ChoiceProfile};
pub use factory::{build_router, implies_torus, parse_mesh_spec, ROUTER_NAMES};
pub use offline::{route_min_congestion, OfflineConfig};
pub use padded::BuschPadded;
pub use parallel::{route_all_parallel, route_all_seeded};
pub use randbits::{BitMeter, DonorNode};
pub use romm::Romm;
pub use router::{route_all, route_all_metered, ObliviousRouter, PathQuery, RoutedPath};
pub use subpath::{dim_by_dim, extend_dim_by_dim};
