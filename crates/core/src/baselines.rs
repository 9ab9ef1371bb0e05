//! Baseline oblivious routers the paper compares against (Section 1).
//!
//! * [`DimOrder`] — deterministic dimension-order ("e-cube" / XY) routing:
//!   stretch exactly 1, but being a 1-choice algorithm it suffers
//!   `Ω(√n / d)`-type congestion on adversarial permutations (Lemma 5.1).
//! * [`RandomDimOrder`] — dimension-order with a per-packet random order:
//!   still stretch 1; `log d!` bits; congestion barely better in the worst
//!   case (only `d!` choices).
//! * [`Valiant`] — Valiant–Brebner routing through a uniform random
//!   intermediate node: near-optimal congestion for permutations but
//!   stretch `Θ(diameter/dist)` — unbounded for nearby pairs.
//! * [`AccessTree`] — the hierarchical scheme of Maggs et al. [9]: type-1
//!   decomposition only (an access *tree*). Congestion `O(C* d log n)`,
//!   but no bridges, so nearby pairs straddling a high cut climb to the
//!   root: stretch `Θ(n^{1/d}/dist)` — the pathology the paper fixes.

use crate::chain::{self, walk_chain, Blocks, Walker};
use crate::randbits::BitMeter;
use crate::router::{IdBatch, ObliviousRouter, PathQuery, RoutedPath};
use crate::subpath::IdWalk;
use oblivion_mesh::{Coord, Mesh, Submesh};
use rand::RngCore;

/// Deterministic dimension-order routing with a fixed axis order.
#[derive(Debug, Clone)]
pub struct DimOrder {
    mesh: Mesh,
    order: Vec<usize>,
}

impl DimOrder {
    /// Creates the router with the natural axis order `0, 1, …, d-1`
    /// ("XY routing" in 2-D).
    pub fn new(mesh: Mesh) -> Self {
        let order = (0..mesh.dim()).collect();
        Self { mesh, order }
    }

    /// Creates the router with a custom fixed axis order.
    ///
    /// # Panics
    /// Panics if `order` is not a permutation of `0..d`.
    pub fn with_order(mesh: Mesh, order: Vec<usize>) -> Self {
        let mut check = order.clone();
        check.sort_unstable();
        assert_eq!(check, (0..mesh.dim()).collect::<Vec<_>>());
        Self { mesh, order }
    }
}

impl ObliviousRouter for DimOrder {
    fn name(&self) -> String {
        "dim-order".into()
    }

    fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    fn select_path(&self, s: &Coord, t: &Coord, rng: &mut dyn RngCore) -> RoutedPath {
        chain::select_path(self, s, t, rng)
    }

    fn route_ids(&self, queries: &[PathQuery], out: &mut IdBatch) {
        chain::route_ids(self, queries, out)
    }
}

impl Walker for DimOrder {
    fn cuts_cycles(&self) -> bool {
        false
    }

    fn walk(
        &self,
        s: &Coord,
        t: &Coord,
        _blocks: &mut Blocks,
        _meter: &mut BitMeter<'_>,
        walk: &mut Vec<u32>,
    ) {
        IdWalk::start(&self.mesh, s, walk).to(t, &self.order, walk);
    }
}

/// Dimension-order routing with a fresh random axis order per packet.
#[derive(Debug, Clone)]
pub struct RandomDimOrder {
    mesh: Mesh,
}

impl RandomDimOrder {
    /// Creates the router.
    pub fn new(mesh: Mesh) -> Self {
        Self { mesh }
    }
}

impl ObliviousRouter for RandomDimOrder {
    fn name(&self) -> String {
        "random-dim-order".into()
    }

    fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    fn select_path(&self, s: &Coord, t: &Coord, rng: &mut dyn RngCore) -> RoutedPath {
        chain::select_path(self, s, t, rng)
    }

    fn route_ids(&self, queries: &[PathQuery], out: &mut IdBatch) {
        chain::route_ids(self, queries, out)
    }
}

impl Walker for RandomDimOrder {
    fn cuts_cycles(&self) -> bool {
        false
    }

    fn walk(
        &self,
        s: &Coord,
        t: &Coord,
        _blocks: &mut Blocks,
        meter: &mut BitMeter<'_>,
        walk: &mut Vec<u32>,
    ) {
        let d = self.mesh.dim();
        let order = meter.dim_order(d);
        IdWalk::start(&self.mesh, s, walk).to(t, &order[..d], walk);
    }
}

/// Valiant–Brebner two-phase randomized routing: `s → w → t` for a uniform
/// random `w`, each leg dimension-ordered under its own random axis order.
#[derive(Debug, Clone)]
pub struct Valiant {
    mesh: Mesh,
    remove_cycles: bool,
}

impl Valiant {
    /// Creates the router.
    pub fn new(mesh: Mesh) -> Self {
        Self {
            mesh,
            remove_cycles: true,
        }
    }

    /// Keeps or removes cycles (the two legs can backtrack).
    pub fn with_cycle_removal(mut self, on: bool) -> Self {
        self.remove_cycles = on;
        self
    }
}

impl ObliviousRouter for Valiant {
    fn name(&self) -> String {
        "valiant".into()
    }

    fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    fn select_path(&self, s: &Coord, t: &Coord, rng: &mut dyn RngCore) -> RoutedPath {
        chain::select_path(self, s, t, rng)
    }

    fn route_ids(&self, queries: &[PathQuery], out: &mut IdBatch) {
        chain::route_ids(self, queries, out)
    }
}

impl Walker for Valiant {
    fn cuts_cycles(&self) -> bool {
        self.remove_cycles
    }

    fn walk(
        &self,
        s: &Coord,
        t: &Coord,
        _blocks: &mut Blocks,
        meter: &mut BitMeter<'_>,
        walk: &mut Vec<u32>,
    ) {
        two_legs(&self.mesh, s, t, &Submesh::whole(&self.mesh), meter, walk);
    }
}

/// Pushes the two-leg id walk `s → w → t` onto `walk`, for a uniform
/// way-point `w` of `box_`, each leg dimension-ordered under its own
/// random axis order (Valiant with the whole mesh, ROMM with the
/// bounding box). A trivial pair draws no bits.
pub(crate) fn two_legs(
    mesh: &Mesh,
    s: &Coord,
    t: &Coord,
    box_: &Submesh,
    meter: &mut BitMeter<'_>,
    walk: &mut Vec<u32>,
) {
    let mut ids = IdWalk::start(mesh, s, walk);
    if s == t {
        return;
    }
    let d = mesh.dim();
    let w = meter.uniform_node(box_);
    for to in [&w, t] {
        let order = meter.dim_order(d);
        ids.to(to, &order[..d], walk);
    }
}

/// The access-**tree** router of Maggs et al. \[9\]: identical skeleton to
/// algorithm H but with the type-1 hierarchy only — no bridge submeshes.
///
/// This is the paper's primary point of comparison and the natural
/// ablation: disabling bridges is exactly what turns `O(d²)` stretch into
/// unbounded stretch.
#[derive(Debug, Clone)]
pub struct AccessTree {
    mesh: Mesh,
    decomp: oblivion_decomp::DecompD,
    mode: crate::chain::RandomnessMode,
    remove_cycles: bool,
}

impl AccessTree {
    /// Creates the router for the equal-side `(2^k)^d` mesh.
    pub fn new(mesh: Mesh) -> Self {
        let decomp = oblivion_decomp::DecompD::for_mesh(&mesh);
        Self {
            mesh,
            decomp,
            mode: crate::chain::RandomnessMode::default(),
            remove_cycles: true,
        }
    }

    /// Selects the randomness discipline.
    pub fn with_mode(mut self, mode: crate::chain::RandomnessMode) -> Self {
        self.mode = mode;
        self
    }

    /// The type-1-only bitonic chain: up to the least common *tree*
    /// ancestor, then down.
    pub fn chain(&self, s: &Coord, t: &Coord) -> Vec<Submesh> {
        let mut chain = Vec::new();
        self.chain_into(s, t, &mut chain);
        chain
    }

    /// [`Self::chain`] into a caller-owned buffer (cleared first).
    fn chain_into(&self, s: &Coord, t: &Coord, chain: &mut Vec<Submesh>) {
        chain.clear();
        chain.push(Submesh::point(*s));
        if s == t {
            return;
        }
        let k = self.decomp.k();
        // Tree LCA: lowest height whose type-1 block contains both.
        let mut lca_height = k;
        for height in 1..=k {
            let b = self.decomp.type1_block(k - height, s);
            if b.contains(t) {
                lca_height = height;
                break;
            }
        }
        for height in 1..=lca_height {
            chain.push(self.decomp.type1_block(k - height, s));
        }
        for height in (1..lca_height).rev() {
            chain.push(self.decomp.type1_block(k - height, t));
        }
        chain.push(Submesh::point(*t));
        chain.dedup();
    }
}

impl ObliviousRouter for AccessTree {
    fn name(&self) -> String {
        "access-tree".into()
    }

    fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    fn select_path(&self, s: &Coord, t: &Coord, rng: &mut dyn RngCore) -> RoutedPath {
        chain::select_path(self, s, t, rng)
    }

    fn route_ids(&self, queries: &[PathQuery], out: &mut IdBatch) {
        chain::route_ids(self, queries, out)
    }
}

impl Walker for AccessTree {
    fn cuts_cycles(&self) -> bool {
        self.remove_cycles
    }

    fn walk(
        &self,
        s: &Coord,
        t: &Coord,
        blocks: &mut Blocks,
        meter: &mut BitMeter<'_>,
        walk: &mut Vec<u32>,
    ) {
        self.chain_into(s, t, &mut blocks.chain);
        walk_chain(&self.mesh, &blocks.chain, self.mode, meter, None, walk);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn c(xs: &[u32]) -> Coord {
        Coord::new(xs)
    }

    #[test]
    fn dim_order_is_shortest_and_deterministic() {
        let r = DimOrder::new(Mesh::new_mesh(&[16, 16]));
        let mut rng = StdRng::seed_from_u64(31);
        let s = c(&[2, 3]);
        let t = c(&[9, 12]);
        let p1 = r.select_path(&s, &t, &mut rng);
        let p2 = r.select_path(&s, &t, &mut rng);
        assert_eq!(p1.path, p2.path);
        assert_eq!(p1.random_bits, 0);
        assert_eq!(p1.path.len() as u64, r.mesh().dist(&s, &t));
    }

    #[test]
    fn random_dim_order_is_shortest() {
        let r = RandomDimOrder::new(Mesh::new_mesh(&[8, 8, 8]));
        let mut rng = StdRng::seed_from_u64(32);
        for _ in 0..50 {
            let s = c(&[1, 2, 3]);
            let t = c(&[7, 0, 5]);
            let rp = r.select_path(&s, &t, &mut rng);
            assert_eq!(rp.path.len() as u64, r.mesh().dist(&s, &t));
            assert!(rp.path.is_valid(r.mesh()));
            assert!(rp.random_bits >= 2); // log2(3!) ≈ 2.6
        }
    }

    #[test]
    fn valiant_paths_valid_and_long_for_neighbors() {
        let r = Valiant::new(Mesh::new_mesh(&[32, 32]));
        let mut rng = StdRng::seed_from_u64(33);
        let s = c(&[16, 16]);
        let t = c(&[16, 17]);
        let mut total_len = 0usize;
        let runs = 100;
        for _ in 0..runs {
            let rp = r.select_path(&s, &t, &mut rng);
            assert!(rp.path.is_valid(r.mesh()));
            assert_eq!(rp.path.source(), &s);
            assert_eq!(rp.path.target(), &t);
            total_len += rp.path.len();
        }
        // Mean detour through a uniform random point of a 32×32 mesh is
        // Θ(side); distance is 1, so mean stretch must be large.
        let mean = total_len as f64 / runs as f64;
        assert!(
            mean > 8.0,
            "Valiant mean neighbor path {mean} suspiciously short"
        );
    }

    #[test]
    fn valiant_trivial_pair() {
        let r = Valiant::new(Mesh::new_mesh(&[8, 8]));
        let mut rng = StdRng::seed_from_u64(34);
        let rp = r.select_path(&c(&[3, 3]), &c(&[3, 3]), &mut rng);
        assert!(rp.path.is_empty());
    }

    #[test]
    fn access_tree_paths_valid() {
        let r = AccessTree::new(Mesh::new_mesh(&[16, 16]));
        let mut rng = StdRng::seed_from_u64(35);
        for _ in 0..100 {
            let s = c(&[rng.gen_range(0..16), rng.gen_range(0..16)]);
            let t = c(&[rng.gen_range(0..16), rng.gen_range(0..16)]);
            let rp = r.select_path(&s, &t, &mut rng);
            assert!(rp.path.is_valid(r.mesh()));
            assert_eq!(rp.path.source(), &s);
            assert_eq!(rp.path.target(), &t);
        }
    }

    /// The tree pathology: central neighbors climb to the root, so their
    /// expected path length is Θ(side) — while the bridge router stays O(1).
    #[test]
    fn access_tree_unbounded_stretch_at_central_cut() {
        let side = 32;
        let tree = AccessTree::new(Mesh::new_mesh(&[side, side]));
        let bridge = crate::busch2d::Busch2D::new(Mesh::new_mesh(&[side, side]));
        let s = c(&[side / 2 - 1, 5]);
        let t = c(&[side / 2, 5]);
        let mut rng = StdRng::seed_from_u64(36);
        let runs = 200;
        let mut tree_len = 0usize;
        let mut bridge_len = 0usize;
        for _ in 0..runs {
            tree_len += tree.select_path(&s, &t, &mut rng).path.len();
            bridge_len += bridge.select_path(&s, &t, &mut rng).path.len();
        }
        let tree_mean = tree_len as f64 / runs as f64;
        let bridge_mean = bridge_len as f64 / runs as f64;
        assert!(
            tree_mean > 4.0 * bridge_mean,
            "tree {tree_mean} vs bridge {bridge_mean}: bridges should win decisively"
        );
    }

    #[test]
    fn access_tree_chain_is_type1_nested() {
        let r = AccessTree::new(Mesh::new_mesh(&[16, 16]));
        let chain = r.chain(&c(&[7, 7]), &c(&[8, 8]));
        for w in chain.windows(2) {
            assert!(w[0].contains_submesh(&w[1]) || w[1].contains_submesh(&w[0]));
        }
        // Central pair → LCA is the root.
        assert!(chain.iter().any(|b| b.node_count() == 256));
    }

    #[test]
    #[should_panic]
    fn dim_order_rejects_bad_order() {
        let _ = DimOrder::with_order(Mesh::new_mesh(&[4, 4]), vec![0, 0]);
    }
}
