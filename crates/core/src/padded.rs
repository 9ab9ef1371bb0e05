//! Algorithm H on arbitrary rectangular meshes, via virtual padding.
//!
//! The paper states algorithm H for equal power-of-two side lengths. A
//! downstream user's mesh is rarely that shape, so this adapter embeds the
//! real `m_1 × … × m_d` mesh into the smallest `(2^k)^d` *virtual* mesh
//! (`2^k ≥ max m_i`), runs the hierarchical machinery there, and clips
//! every sampled way-point to the real mesh.
//!
//! Why this preserves the guarantees (within constants):
//!
//! * every chain block contains `s` or `t` (or both), so its intersection
//!   with the real mesh is nonempty and the clip is well-defined;
//! * clipping only shrinks blocks, so subpaths only get shorter — the
//!   stretch analysis carries over verbatim;
//! * the congestion analysis charges each subpath to a containing virtual
//!   block; clipping concentrates way-points by at most a constant factor
//!   per axis (the real side is at least half the virtual block side at
//!   the scales the chain visits near the endpoints).
//!
//! Clipped blocks may be non-power-aligned, so the bit-recycled mode falls
//! back to fresh sampling for those positions; bits stay `O(d log(D'd))`.

use crate::chain::{self, BlockKind, Chain, RandomnessMode, Walker};
use crate::randbits::BitMeter;
use crate::router::{IdBatch, ObliviousRouter, PathQuery, RoutedPath};
use crate::subpath::Grid;
use oblivion_decomp::DecompD;
use oblivion_mesh::{with_dim, Coord, Mesh, Submesh, Topology};
use rand::RngCore;

/// Algorithm H adapted to any rectangular mesh by power-of-two padding.
#[derive(Debug, Clone)]
pub struct BuschPadded {
    mesh: Mesh,
    decomp: DecompD,
    mode: RandomnessMode,
    remove_cycles: bool,
}

impl BuschPadded {
    /// Creates the router for an arbitrary rectangular mesh.
    ///
    /// # Panics
    /// Panics for torus topologies (use the mesh variants) and degenerate
    /// meshes.
    pub fn new(mesh: Mesh) -> Self {
        assert_eq!(
            mesh.topology(),
            Topology::Mesh,
            "BuschPadded routes on meshes; tori wrap and need no padding"
        );
        let max_side = mesh.dims().iter().copied().max().unwrap();
        let k = max_side.next_power_of_two().trailing_zeros();
        let decomp = DecompD::new(mesh.dim(), k);
        Self {
            mesh,
            decomp,
            mode: RandomnessMode::default(),
            remove_cycles: true,
        }
    }

    /// Selects the randomness discipline (default: bit-recycled).
    pub fn with_mode(mut self, mode: RandomnessMode) -> Self {
        self.mode = mode;
        self
    }

    /// The virtual (padded) mesh side length.
    pub fn virtual_side(&self) -> u32 {
        self.decomp.side()
    }

    /// The chain of *virtual* submeshes for `(s, t)` (clipping happens at
    /// sampling time).
    pub fn chain(&self, s: &Coord, t: &Coord) -> Vec<Submesh> {
        with_dim!(self.mesh.dim(), D => {
            self.boxes(&Grid::<D>::of(&self.mesh), &s.to_array(), &t.to_array()).submeshes()
        })
    }

    /// The chain in virtual boxes. Distances agree on the real and the
    /// virtual mesh, so the real grid measures them.
    fn boxes<const D: usize>(&self, grid: &Grid<D>, s: &[u32; D], t: &[u32; D]) -> Chain<D> {
        Chain::bitonic(s, t, || {
            let plan = self.decomp.bridge_box(s, t, grid.dist(s, t));
            (plan.h_hat, plan.bridge)
        })
    }
}

impl ObliviousRouter for BuschPadded {
    fn name(&self) -> String {
        format!("busch-padded/{:?}", self.mode).to_lowercase()
    }

    fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    fn select_path(&self, s: &Coord, t: &Coord, rng: &mut dyn RngCore) -> RoutedPath {
        debug_assert!(self.mesh.contains(s) && self.mesh.contains(t));
        with_dim!(self.mesh.dim(), D => chain::select_path::<D, _>(self, s, t, rng))
    }

    fn route_ids(&self, queries: &[PathQuery], out: &mut IdBatch) {
        with_dim!(self.mesh.dim(), D => chain::route_ids::<D, _>(self, queries, out))
    }
}

impl<const D: usize> Walker<D> for BuschPadded {
    fn cuts_cycles(&self) -> bool {
        self.remove_cycles
    }

    /// Way-points are drawn from each virtual block clipped to the real
    /// mesh, so every node stays on it.
    fn walk(
        &self,
        grid: &Grid<D>,
        s: &[u32; D],
        t: &[u32; D],
        meter: &mut BitMeter<'_>,
        out: &mut Vec<u32>,
    ) {
        let chain = self.boxes(grid, s, t);
        chain::walk(
            grid,
            chain.blocks(),
            BlockKind::Clipped,
            self.mode,
            meter,
            out,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rand_coord(rng: &mut StdRng, mesh: &Mesh) -> Coord {
        let mut c = Coord::origin(mesh.dim());
        for i in 0..mesh.dim() {
            c[i] = rng.gen_range(0..mesh.side(i));
        }
        c
    }

    #[test]
    fn routes_on_rectangular_meshes() {
        let mut rng = StdRng::seed_from_u64(61);
        for dims in [vec![48u32, 20], vec![7, 7], vec![10, 6, 3], vec![100]] {
            let mesh = Mesh::new_mesh(&dims);
            let r = BuschPadded::new(mesh.clone());
            for _ in 0..200 {
                let s = rand_coord(&mut rng, &mesh);
                let t = rand_coord(&mut rng, &mesh);
                let rp = r.select_path(&s, &t, &mut rng);
                assert!(rp.path.is_valid(&mesh), "{dims:?} {s:?}->{t:?}");
                assert_eq!(rp.path.source(), &s);
                assert_eq!(rp.path.target(), &t);
                // Every node stays inside the REAL mesh.
                assert!(rp.path.nodes().iter().all(|v| mesh.contains(v)));
            }
        }
    }

    #[test]
    fn stretch_stays_bounded_on_rectangles() {
        let mut rng = StdRng::seed_from_u64(62);
        let mesh = Mesh::new_mesh(&[48, 20]);
        let r = BuschPadded::new(mesh.clone());
        let bound = crate::buschd::stretch_bound(2);
        for _ in 0..500 {
            let s = rand_coord(&mut rng, &mesh);
            let t = rand_coord(&mut rng, &mesh);
            if s == t {
                continue;
            }
            let st = r.select_path(&s, &t, &mut rng).path.stretch(&mesh);
            assert!(st <= bound, "stretch {st}");
        }
    }

    #[test]
    fn on_power_of_two_square_it_matches_buschd_shape() {
        // Same decomposition: identical chain structure (not identical
        // paths — independent RNG draws).
        let mesh = Mesh::new_mesh(&[32, 32]);
        let padded = BuschPadded::new(mesh.clone());
        let direct = crate::buschd::BuschD::new(mesh.clone());
        assert_eq!(padded.virtual_side(), 32);
        let s = Coord::new(&[3, 4]);
        let t = Coord::new(&[20, 9]);
        assert_eq!(padded.chain(&s, &t), direct.chain(&s, &t));
    }

    #[test]
    fn virtual_side_is_next_power_of_two() {
        let r = BuschPadded::new(Mesh::new_mesh(&[12, 33]));
        assert_eq!(r.virtual_side(), 64);
        let r = BuschPadded::new(Mesh::new_mesh(&[16, 16]));
        assert_eq!(r.virtual_side(), 16);
    }

    #[test]
    #[should_panic]
    fn rejects_torus() {
        let _ = BuschPadded::new(Mesh::new_torus(&[8, 8]));
    }

    #[test]
    fn congestion_reasonable_on_rectangle_permutation() {
        // A transpose-like exchange on a 24x24 (non-power-of-two) mesh.
        let mesh = Mesh::new_mesh(&[24, 24]);
        let r = BuschPadded::new(mesh.clone());
        let mut rng = StdRng::seed_from_u64(63);
        let pairs: Vec<(Coord, Coord)> = mesh
            .coords()
            .map(|c| (c, Coord::new(&[c[1], c[0]])))
            .filter(|(s, t)| s != t)
            .collect();
        let paths = crate::router::route_all(&r, &pairs, &mut rng);
        let mut loads = vec![0u32; mesh.edge_count()];
        for p in &paths {
            for e in p.edge_ids(&mesh) {
                loads[e.0] += 1;
            }
        }
        let c = *loads.iter().max().unwrap();
        // Trivial cut bound for transpose on side m is ~m/2 = 12; allow a
        // log-factor band.
        assert!(c <= 12 * 12, "congestion {c} unreasonable");
        assert!(c >= 12, "congestion {c} impossibly low");
    }
}
