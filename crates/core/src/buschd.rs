//! The paper's `d`-dimensional algorithm **H** (Section 4).
//!
//! The packet climbs the type-1 hierarchy from `s` one level at a time up
//! to `M₁` (height `ĥ = ⌈log₂ dist⌉`), hops to a random way-point in the
//! **bridge** `M₂` (a diagonal-shift block of side `O(d·dist)` fully
//! containing `M₁ ∪ M₃`, Lemma 4.1), hops down into `M₃`, and descends the
//! type-1 hierarchy to `t`. Guarantees on the `(2^k)^d` mesh:
//!
//! * stretch `O(d²)` (Theorem 4.2);
//! * congestion `O(d² C* log n)` w.h.p. (Theorem 4.3);
//! * `O(d log(D'd))` random bits per packet in recycled mode (Lemma 5.4).

use crate::chain::{self, BlockKind, Chain, RandomnessMode, Walker};
use crate::randbits::BitMeter;
use crate::router::{IdBatch, ObliviousRouter, PathQuery, RoutedPath};
use crate::subpath::Grid;
use oblivion_decomp::DecompD;
use oblivion_mesh::{with_dim, Coord, Mesh, Submesh};
use rand::RngCore;

/// The `d`-dimensional bridge router (algorithm H).
///
/// ```
/// use oblivion_core::{BuschD, ObliviousRouter, stretch_bound};
/// use oblivion_mesh::{Coord, Mesh};
/// use rand::SeedableRng;
///
/// let mesh = Mesh::new_mesh(&[16, 16, 16]);
/// let router = BuschD::new(mesh.clone());
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let s = Coord::new(&[1, 2, 3]);
/// let t = Coord::new(&[14, 0, 9]);
/// let routed = router.select_path(&s, &t, &mut rng);
/// assert!(routed.path.is_valid(&mesh));
/// // Theorem 4.2: stretch O(d^2), with the explicit analysis constant.
/// assert!(routed.path.stretch(&mesh) <= stretch_bound(3));
/// ```
#[derive(Debug, Clone)]
pub struct BuschD {
    mesh: Mesh,
    decomp: DecompD,
    mode: RandomnessMode,
    remove_cycles: bool,
}

impl BuschD {
    /// Creates the router for the equal-side `(2^k)^d` mesh.
    ///
    /// # Panics
    /// Panics if sides differ or are not powers of two.
    pub fn new(mesh: Mesh) -> Self {
        let _span = oblivion_obs::span("decomposition");
        let decomp = DecompD::for_mesh(&mesh);
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

    /// Keeps or removes cycles in emitted paths (default: removed).
    pub fn with_cycle_removal(mut self, on: bool) -> Self {
        self.remove_cycles = on;
        self
    }

    /// The decomposition in use.
    pub fn decomp(&self) -> &DecompD {
        &self.decomp
    }

    /// The submesh chain for `(s, t)`: `{s}`, type-1 blocks of heights
    /// `1..=ĥ`, the bridge, mirrored type-1 blocks down to `{t}`.
    pub fn chain(&self, s: &Coord, t: &Coord) -> Vec<Submesh> {
        with_dim!(self.mesh.dim(), D => {
            self.boxes(&Grid::<D>::of(&self.mesh), &s.to_array(), &t.to_array()).submeshes()
        })
    }

    /// The chain in boxes.
    fn boxes<const D: usize>(&self, grid: &Grid<D>, s: &[u32; D], t: &[u32; D]) -> Chain<D> {
        Chain::bitonic(s, t, || {
            let plan = self.decomp.bridge_box(s, t, grid.dist(s, t));
            oblivion_obs::record("access_height_climbed", plan.h_hat as u64);
            oblivion_obs::counter_add(
                if plan.shift_type == 1 {
                    "bridge_tree_hits"
                } else {
                    "bridge_shifted_hits"
                },
                1,
            );
            (plan.h_hat, plan.bridge)
        })
    }
}

impl ObliviousRouter for BuschD {
    fn name(&self) -> String {
        // "busch-d3/recycled" — note the d *prefix* on the dimension so
        // the name never collides with the 2-D specialization "busch-2d".
        format!("busch-d{}/{:?}", self.decomp.d(), self.mode).to_lowercase()
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

impl<const D: usize> Walker<D> for BuschD {
    fn cuts_cycles(&self) -> bool {
        self.remove_cycles
    }

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

/// An explicit worst-case stretch constant implied by Theorem 4.2's
/// analysis, used by tests: `|p| ≤ 8d·dist + 16d(d+1)·dist + 4d·dist`.
///
/// (`r₁ = r₃ ≤ 2·d·2^{ĥ+1} ≤ 8d·dist`; `r₂ ≤ 2d·(bridge side) ≤
/// 16d(d+1)·dist`; slack folded in.)
pub fn stretch_bound(d: usize) -> f64 {
    let d = d as f64;
    8.0 * d + 16.0 * d * (d + 1.0) + 4.0 * d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::PathQuery;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn router(d: usize, k: u32) -> BuschD {
        BuschD::new(Mesh::new_mesh(&vec![1u32 << k; d]))
    }

    fn rand_coord(rng: &mut StdRng, d: usize, side: u32) -> Coord {
        Coord::new(&(0..d).map(|_| rng.gen_range(0..side)).collect::<Vec<_>>())
    }

    #[test]
    fn paths_are_valid_across_dimensions() {
        let mut rng = StdRng::seed_from_u64(21);
        for (d, k) in [(1usize, 6u32), (2, 5), (3, 3), (4, 2)] {
            let r = router(d, k);
            for _ in 0..100 {
                let s = rand_coord(&mut rng, d, 1 << k);
                let t = rand_coord(&mut rng, d, 1 << k);
                let rp = r.select_path(&s, &t, &mut rng);
                assert!(rp.path.is_valid(r.mesh()), "d={d} {s:?}->{t:?}");
                assert_eq!(rp.path.source(), &s);
                assert_eq!(rp.path.target(), &t);
            }
        }
    }

    /// Theorem 4.2: stretch O(d²) with the explicit constant of
    /// [`stretch_bound`].
    #[test]
    fn stretch_bound_holds() {
        let mut rng = StdRng::seed_from_u64(22);
        for (d, k) in [(1usize, 7u32), (2, 5), (3, 3)] {
            let r = router(d, k);
            let mesh = r.mesh().clone();
            let bound = stretch_bound(d);
            for _ in 0..300 {
                let s = rand_coord(&mut rng, d, 1 << k);
                let t = rand_coord(&mut rng, d, 1 << k);
                if s == t {
                    continue;
                }
                let rp = r.select_path(&s, &t, &mut rng);
                let st = rp.path.stretch(&mesh);
                assert!(st <= bound, "d={d} stretch {st} > {bound} for {s:?}->{t:?}");
            }
        }
    }

    /// In 2-D, algorithm H's stretch should stay comfortably constant
    /// (the d-D analysis gives ≤ stretch_bound(2) = 120, but actual
    /// values are far lower; we sanity-check a loose 64 here too).
    #[test]
    fn stretch_2d_small_in_practice() {
        let mut rng = StdRng::seed_from_u64(23);
        let r = router(2, 5);
        let mesh = r.mesh().clone();
        let mut worst: f64 = 0.0;
        for _ in 0..500 {
            let s = rand_coord(&mut rng, 2, 32);
            let t = rand_coord(&mut rng, 2, 32);
            if s == t {
                continue;
            }
            let rp = r.select_path(&s, &t, &mut rng);
            worst = worst.max(rp.path.stretch(&mesh));
        }
        assert!(worst <= 64.0, "worst stretch {worst}");
    }

    #[test]
    fn adjacent_central_nodes_stay_local() {
        // The access-tree pathology: neighbors straddling the central cut.
        let r = router(3, 4);
        let s = Coord::new(&[7, 7, 7]);
        let t = Coord::new(&[8, 7, 7]);
        let mut rng = StdRng::seed_from_u64(24);
        for _ in 0..50 {
            let rp = r.select_path(&s, &t, &mut rng);
            assert!(
                (rp.path.len() as f64) <= stretch_bound(3),
                "len {}",
                rp.path.len()
            );
        }
    }

    #[test]
    fn recycled_bits_beat_fresh() {
        let fresh = router(3, 4).with_mode(RandomnessMode::Fresh);
        let recycled = router(3, 4).with_mode(RandomnessMode::Recycled);
        let mut rng = StdRng::seed_from_u64(25);
        let (mut bf, mut br) = (0u64, 0u64);
        for _ in 0..200 {
            let s = rand_coord(&mut rng, 3, 16);
            let t = rand_coord(&mut rng, 3, 16);
            if s == t {
                continue;
            }
            bf += fresh.select_path(&s, &t, &mut rng).random_bits;
            br += recycled.select_path(&s, &t, &mut rng).random_bits;
        }
        assert!(br < bf, "recycled {br} !< fresh {bf}");
    }

    /// Lemma 5.4: recycled bits are O(d log(D'd)). Check the explicit form
    /// `bits ≤ C·d·(log₂(D'·d) + 1)` with a generous constant C = 8.
    #[test]
    fn recycled_bit_budget() {
        let mut rng = StdRng::seed_from_u64(26);
        for (d, k) in [(1usize, 7u32), (2, 5), (3, 3)] {
            let r = router(d, k);
            let mesh = r.mesh().clone();
            for _ in 0..200 {
                let s = rand_coord(&mut rng, d, 1 << k);
                let t = rand_coord(&mut rng, d, 1 << k);
                if s == t {
                    continue;
                }
                let dist = mesh.dist(&s, &t);
                let rp = r.select_path(&s, &t, &mut rng);
                let budget = 8.0 * d as f64 * (((dist * d as u64) as f64).log2() + 1.0).max(1.0);
                assert!(
                    (rp.random_bits as f64) <= budget,
                    "d={d} dist={dist} bits={} budget={budget}",
                    rp.random_bits
                );
            }
        }
    }

    #[test]
    fn chain_shape() {
        let r = router(2, 5);
        let s = Coord::new(&[3, 3]);
        let t = Coord::new(&[28, 28]);
        let chain = r.chain(&s, &t);
        // dist = 50 → ĥ = min(6, k)=5 → M1 covers whole mesh? side 32 = 2^5.
        // Chain climbs to the root and back.
        assert_eq!(chain.first().unwrap().node_count(), 1);
        assert_eq!(chain.last().unwrap().node_count(), 1);
        for w in chain.windows(2) {
            assert!(
                w[0].contains_submesh(&w[1]) || w[1].contains_submesh(&w[0]),
                "non-nested consecutive blocks {:?} {:?}",
                w[0],
                w[1]
            );
        }
    }

    /// route_batch ≡ per-query select_path, including the s == t and
    /// repeated-query cases a pipelined burst can contain.
    #[test]
    fn route_batch_matches_single_shot() {
        let mut rng = StdRng::seed_from_u64(28);
        let r = router(3, 3);
        let mut queries: Vec<PathQuery> = (0..30)
            .map(|i| PathQuery {
                seed: 0xD00 + i,
                src: rand_coord(&mut rng, 3, 8),
                dst: rand_coord(&mut rng, 3, 8),
            })
            .collect();
        let same = Coord::new(&[2, 2, 2]);
        queries.push(PathQuery {
            seed: 5,
            src: same,
            dst: same,
        });
        queries.push(queries[0].clone());
        let mut batch = Vec::new();
        r.route_batch(&queries, &mut batch);
        assert_eq!(batch.len(), queries.len());
        for (q, rp) in queries.iter().zip(&batch) {
            let mut rng = StdRng::seed_from_u64(q.seed);
            let single = r.select_path(&q.src, &q.dst, &mut rng);
            assert_eq!(single.path.nodes(), rp.path.nodes(), "seed {}", q.seed);
            assert_eq!(single.random_bits, rp.random_bits);
        }
    }

    #[test]
    fn one_dimension_works() {
        let r = router(1, 6);
        let mut rng = StdRng::seed_from_u64(27);
        let s = Coord::new(&[31]);
        let t = Coord::new(&[32]);
        for _ in 0..20 {
            let rp = r.select_path(&s, &t, &mut rng);
            assert!(rp.path.is_valid(r.mesh()));
            assert!(rp.path.len() <= 28, "1-D stretch blowup: {}", rp.path.len());
        }
    }
}
