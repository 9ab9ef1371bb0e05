//! ROMM — Randomized, Oblivious, Minimal routing.
//!
//! The classic middle ground between deterministic dimension-order routing
//! and Valiant's scheme: route `s → w → t` where the way-point `w` is
//! drawn uniformly from the **bounding box** of `s` and `t` (so the path
//! is *minimal*: stretch exactly 1), each leg dimension-ordered under a
//! random axis order. Compared here because it shows that staying minimal
//! is not enough for congestion: on the `Π_A` instances and transpose-like
//! permutations its choices collapse onto the same central edges, and its
//! worst-case congestion is polynomially worse than algorithm H's
//! (`Θ(√n)` vs `O(C* log n)` on 2-D transpose).

use crate::baselines::two_legs;
use crate::chain::{self, Walker};
use crate::randbits::BitMeter;
use crate::router::{IdBatch, ObliviousRouter, PathQuery, RoutedPath};
use crate::subpath::Grid;
use oblivion_mesh::{with_dim, Coord, IntBox, Mesh};
use rand::RngCore;

/// Two-phase minimal oblivious routing through a random way-point of the
/// source–destination bounding box.
///
/// ```
/// use oblivion_core::{ObliviousRouter, Romm};
/// use oblivion_mesh::{Coord, Mesh};
/// use rand::SeedableRng;
///
/// let mesh = Mesh::new_mesh(&[10, 7]); // any rectangle
/// let router = Romm::new(mesh.clone());
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let s = Coord::new(&[1, 1]);
/// let t = Coord::new(&[8, 5]);
/// let p = router.select_path(&s, &t, &mut rng).path;
/// assert_eq!(p.len() as u64, mesh.dist(&s, &t)); // always minimal
/// ```
#[derive(Debug, Clone)]
pub struct Romm {
    mesh: Mesh,
}

impl Romm {
    /// Creates the router for any mesh (no power-of-two restriction).
    pub fn new(mesh: Mesh) -> Self {
        Self { mesh }
    }
}

impl ObliviousRouter for Romm {
    fn name(&self) -> String {
        "romm".into()
    }

    fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    fn select_path(&self, s: &Coord, t: &Coord, rng: &mut dyn RngCore) -> RoutedPath {
        with_dim!(self.mesh.dim(), D => chain::select_path::<D, _>(self, s, t, rng))
    }

    fn route_ids(&self, queries: &[PathQuery], out: &mut IdBatch) {
        with_dim!(self.mesh.dim(), D => chain::route_ids::<D, _>(self, queries, out))
    }
}

impl<const D: usize> Walker<D> for Romm {
    fn cuts_cycles(&self) -> bool {
        false
    }

    fn walk(
        &self,
        grid: &Grid<D>,
        s: &[u32; D],
        t: &[u32; D],
        meter: &mut BitMeter<'_>,
        out: &mut Vec<u32>,
    ) {
        let bbox = IntBox {
            lo: std::array::from_fn(|i| s[i].min(t[i])),
            hi: std::array::from_fn(|i| s[i].max(t[i])),
        };
        two_legs(grid, s, t, &bbox, meter, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oblivion_mesh::Submesh;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn c(xs: &[u32]) -> Coord {
        Coord::new(xs)
    }

    /// ROMM is minimal: every path is a shortest path (stretch 1).
    ///
    /// Note: on a *torus* a bounding-box way-point can force a non-minimal
    /// route (the box is a mesh-centric notion), so ROMM is constructed
    /// for meshes; this test pins the mesh behaviour.
    #[test]
    fn paths_are_minimal() {
        let mesh = Mesh::new_mesh(&[16, 16, 16]);
        let r = Romm::new(mesh.clone());
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let s = c(&[
                rng.gen_range(0..16),
                rng.gen_range(0..16),
                rng.gen_range(0..16),
            ]);
            let t = c(&[
                rng.gen_range(0..16),
                rng.gen_range(0..16),
                rng.gen_range(0..16),
            ]);
            let rp = r.select_path(&s, &t, &mut rng);
            assert!(rp.path.is_valid(&mesh));
            assert_eq!(rp.path.len() as u64, mesh.dist(&s, &t));
        }
    }

    #[test]
    fn way_point_stays_in_bounding_box() {
        // All nodes of the path lie inside the bounding box: minimality
        // in every prefix.
        let mesh = Mesh::new_mesh(&[32, 32]);
        let r = Romm::new(mesh.clone());
        let mut rng = StdRng::seed_from_u64(2);
        let s = c(&[5, 20]);
        let t = c(&[15, 8]);
        let bbox = Submesh::bounding_box(&s, &t);
        for _ in 0..100 {
            let rp = r.select_path(&s, &t, &mut rng);
            assert!(rp.path.nodes().iter().all(|v| bbox.contains(v)));
        }
    }

    #[test]
    fn spreads_over_multiple_paths() {
        let mesh = Mesh::new_mesh(&[16, 16]);
        let r = Romm::new(mesh.clone());
        let mut rng = StdRng::seed_from_u64(3);
        let s = c(&[0, 0]);
        let t = c(&[8, 8]);
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..300 {
            distinct.insert(r.select_path(&s, &t, &mut rng).path.nodes().to_vec());
        }
        assert!(
            distinct.len() > 20,
            "only {} distinct paths",
            distinct.len()
        );
    }

    #[test]
    fn trivial_and_colinear_pairs() {
        let mesh = Mesh::new_mesh(&[8, 8]);
        let r = Romm::new(mesh.clone());
        let mut rng = StdRng::seed_from_u64(4);
        assert!(r
            .select_path(&c(&[3, 3]), &c(&[3, 3]), &mut rng)
            .path
            .is_empty());
        // Colinear: bounding box is a line; path is the unique segment.
        let rp = r.select_path(&c(&[2, 5]), &c(&[6, 5]), &mut rng);
        assert_eq!(rp.path.len(), 4);
    }

    #[test]
    fn bits_scale_with_box_not_mesh() {
        let mesh = Mesh::new_mesh(&[256, 256]);
        let r = Romm::new(mesh.clone());
        let mut rng = StdRng::seed_from_u64(5);
        // Tiny box: few bits even on a huge mesh.
        let mut near = 0u64;
        let mut far = 0u64;
        for _ in 0..100 {
            near += r
                .select_path(&c(&[7, 7]), &c(&[8, 8]), &mut rng)
                .random_bits;
            far += r
                .select_path(&c(&[0, 0]), &c(&[255, 255]), &mut rng)
                .random_bits;
        }
        assert!(near < far / 2, "near {near} far {far}");
    }
}
