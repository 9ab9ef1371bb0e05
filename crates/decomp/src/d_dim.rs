//! The `d`-dimensional mesh decomposition of Section 4.1.
//!
//! Generalizing the 2-D construction directly would give `2^d` translated
//! grids and stretch `O(2^d)`. Instead the paper shifts the type-1 grid
//! *diagonally* by `(j-1)·λ` nodes in **every** dimension, where
//! `λ_l = max(1, m_l / 2^⌈log₂(d+1)⌉)`, producing
//! `Θ(d)` shifted families ("type-j" submeshes) per level. By the
//! pigeonhole argument of Lemma 4.1, any box `R` of extent `≤ dist` per
//! axis avoids the anchor hyperplanes of at least one shift family at the
//! height `h` with `m_h ∈ [2(d+1)·dist, 4(d+1)·dist)`, so some type-j block
//! fully contains `R`.

use crate::MAX_K;
use oblivion_mesh::{with_dim, Coord, IntBox, Mesh, Submesh};

/// The diagonal-shift decomposition of the equal-side `(2^k)^d` mesh.
///
/// ```
/// use oblivion_decomp::DecompD;
/// use oblivion_mesh::Coord;
///
/// let d = DecompD::new(3, 4); // the 16^3 mesh
/// let mesh = d.mesh();
/// let s = Coord::new(&[7, 7, 7]);
/// let t = Coord::new(&[8, 8, 8]);
/// let plan = d.find_bridge(&mesh, &s, &t);
/// // Lemma 4.1: the bridge has side O(d * dist) and contains both
/// // endpoint blocks.
/// assert!(plan.bridge.contains_submesh(&plan.m1));
/// assert!(plan.bridge.contains_submesh(&plan.m3));
/// assert!(u64::from(plan.bridge.max_side()) <= 8 * 4 * mesh.dist(&s, &t));
/// ```
#[derive(Debug, Clone)]
pub struct DecompD {
    d: usize,
    k: u32,
    /// `τ = 2^⌈log₂(d+1)⌉`: the shift granularity divisor.
    tau: u32,
}

/// The bridge of a pair as a box ([`DecompD::bridge_box`],
/// [`crate::TorusDecomp::bridge_box`]): the middle of the bitonic chain.
/// `M₁` and `M₃` are the aligned cubes of height `h_hat` at the ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoxBridge<const D: usize> {
    /// Height `ĥ` of `M₁` and `M₃`.
    pub h_hat: u32,
    /// The bridge block.
    pub bridge: IntBox<D>,
    /// Height of the bridge block.
    pub height: u32,
    /// Shift type of the bridge (1 = unshifted type-1).
    pub shift_type: u32,
}

/// The routing skeleton produced by [`DecompD::find_bridge`]: the paper's
/// `M₁ → M₂ → M₃` middle section (Section 4.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BridgePlan {
    /// Height `ĥ = ⌈log₂ dist(s,t)⌉` (capped at `k`) of `M₁` and `M₃`.
    pub h_hat: u32,
    /// The type-1 block of height `ĥ` containing the source.
    pub m1: Submesh,
    /// The bridge submesh `M₂ ⊇ M₁ ∪ M₃`.
    pub bridge: Submesh,
    /// Height of the bridge block.
    pub bridge_height: u32,
    /// Shift type of the bridge (1 = unshifted type-1).
    pub bridge_type: u32,
    /// The type-1 block of height `ĥ` containing the destination.
    pub m3: Submesh,
}

impl DecompD {
    /// Decomposition of the `d`-dimensional mesh with equal sides `2^k`.
    ///
    /// # Panics
    /// Panics for `d = 0`, `d > oblivion_mesh::MAX_DIM`, or absurd `k`.
    pub fn new(d: usize, k: u32) -> Self {
        assert!((1..=oblivion_mesh::MAX_DIM).contains(&d));
        assert!(k <= MAX_K, "side 2^{k} is unreasonably large");
        let tau = (d as u32 + 1).next_power_of_two();
        Self { d, k, tau }
    }

    /// The decomposition for a given equal-side power-of-two mesh.
    ///
    /// # Panics
    /// Panics if sides differ or are not a power of two.
    pub fn for_mesh(mesh: &Mesh) -> Self {
        let m = mesh.side(0);
        assert!(
            mesh.dims().iter().all(|&s| s == m),
            "DecompD requires equal side lengths"
        );
        assert!(m.is_power_of_two(), "DecompD requires side 2^k");
        Self::new(mesh.dim(), m.trailing_zeros())
    }

    /// Number of dimensions `d`.
    #[inline]
    pub fn d(&self) -> usize {
        self.d
    }

    /// The exponent `k` (side `2^k`).
    #[inline]
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Mesh side length `2^k`.
    #[inline]
    pub fn side(&self) -> u32 {
        1 << self.k
    }

    /// Side length `m_l = 2^{k-l}` of level-`l` blocks.
    #[inline]
    pub fn block_side(&self, level: u32) -> u32 {
        debug_assert!(level <= self.k);
        1 << (self.k - level)
    }

    /// The shift unit `λ_l = max(1, m_l / 2^⌈log₂(d+1)⌉)`.
    #[inline]
    pub fn lambda(&self, level: u32) -> u32 {
        (self.block_side(level) / self.tau).max(1)
    }

    /// Number of shift types at a level: `min(m_l, 2^⌈log₂(d+1)⌉)`.
    ///
    /// Always between `d+1` and `2(d+1)` once `m_l ≥ d+1`, matching the
    /// paper's "at most 2(d+1) different types".
    #[inline]
    pub fn num_types(&self, level: u32) -> u32 {
        self.block_side(level).min(self.tau)
    }

    /// The type-`j` block (`j ≥ 1`, `j = 1` is the unshifted type-1 grid)
    /// at `level` containing `c`, clipped to the mesh.
    ///
    /// Unlike the 2-D construction, clipped blocks are kept even when
    /// clipped in several dimensions (discarding was a de-duplication
    /// nicety in 2-D, not needed for correctness).
    pub fn block(&self, level: u32, j: u32, c: &Coord) -> Submesh {
        debug_assert_eq!(c.dim(), self.d);
        with_dim!(self.d, D => self.block_box::<D>(level, j, &c.to_array()).to_submesh())
    }

    /// [`Self::block`] as a box. Anchors sit at `σ + i·m_l` with
    /// `σ = (j−1)·λ_l`, so `c`'s offset from its anchor is
    /// `(x − σ) mod m_l`, a wrapping subtract and a mask.
    #[inline]
    pub fn block_box<const D: usize>(&self, level: u32, j: u32, c: &[u32; D]) -> IntBox<D> {
        debug_assert!(
            j >= 1 && j <= self.num_types(level),
            "type {j} out of range"
        );
        let mask = self.block_side(level) - 1;
        let sigma = (j - 1) * self.lambda(level);
        let top = self.side() - 1;
        let mut b = IntBox::point(*c);
        for (i, &x) in c.iter().enumerate() {
            let off = x.wrapping_sub(sigma) & mask;
            b.lo[i] = x.saturating_sub(off);
            b.hi[i] = (x + (mask - off)).min(top);
        }
        b
    }

    /// The (unshifted) type-1 block at `level` containing `c`.
    #[inline]
    pub fn type1_block(&self, level: u32, c: &Coord) -> Submesh {
        self.block(level, 1, c)
    }

    /// All type-`j` blocks at a level that intersect the mesh.
    pub fn blocks_at(&self, level: u32, j: u32) -> Vec<Submesh> {
        let m_l = i64::from(self.block_side(level));
        let sigma = i64::from((j - 1) * self.lambda(level));
        let side = i64::from(self.side());
        // Anchor indices idx with [a, a + m_l) ∩ [0, side) nonempty.
        let lo_idx = (-sigma).div_euclid(m_l);
        let hi_idx = (side - 1 - sigma).div_euclid(m_l);
        let per_axis: Vec<i64> = (lo_idx..=hi_idx).collect();
        let mut out = Vec::new();
        let mut idx = vec![0usize; self.d];
        loop {
            let mut lo = Coord::origin(self.d);
            let mut hi = Coord::origin(self.d);
            for i in 0..self.d {
                let a = sigma + per_axis[idx[i]] * m_l;
                let b = a + m_l - 1;
                lo[i] = a.max(0) as u32;
                hi[i] = b.min(side - 1) as u32;
            }
            out.push(Submesh::new(lo, hi));
            // Odometer.
            let mut axis = self.d;
            loop {
                if axis == 0 {
                    return out;
                }
                axis -= 1;
                if idx[axis] + 1 < per_axis.len() {
                    idx[axis] += 1;
                    idx[axis + 1..self.d].fill(0);
                    break;
                }
            }
        }
    }

    /// Height `ĥ = ⌈log₂ dist⌉`, capped at `k`.
    pub fn h_hat(&self, dist: u64) -> u32 {
        debug_assert!(dist >= 1);
        let h = 64 - (dist - 1).leading_zeros(); // ceil(log2(dist))
        h.min(self.k)
    }

    /// Computes the routing skeleton for a source/destination pair
    /// (Section 4.1 and Lemma 4.1).
    ///
    /// `M₁`/`M₃` are the type-1 blocks of height `ĥ` containing `s`/`t`.
    /// The bridge is the lowest regular block (any shift type) that fully
    /// contains `M₁ ∪ M₃` with every side at least `2^{ĥ+1}` — condition
    /// (iii) of Appendix A. Lemma 4.1 guarantees a hit no higher than the
    /// height `h+1` with `2^h < 4(d+1)·dist`; if the scan tops out, the
    /// whole mesh is the bridge (only possible when `dist = Θ(diameter)`).
    ///
    /// # Panics
    /// Panics if `s == t`.
    pub fn find_bridge(&self, mesh: &Mesh, s: &Coord, t: &Coord) -> BridgePlan {
        let dist = mesh.dist(s, t);
        assert!(dist > 0, "find_bridge requires distinct endpoints");
        with_dim!(self.d, D => {
            let (s, t) = (s.to_array::<D>(), t.to_array::<D>());
            let b = self.bridge_box(&s, &t, dist);
            BridgePlan {
                h_hat: b.h_hat,
                m1: IntBox::aligned(&s, b.h_hat).to_submesh(),
                bridge: b.bridge.to_submesh(),
                bridge_height: b.height,
                bridge_type: b.shift_type,
                m3: IntBox::aligned(&t, b.h_hat).to_submesh(),
            }
        })
    }

    /// [`Self::find_bridge`] as boxes, for endpoints at distance
    /// `dist ≥ 1`.
    pub fn bridge_box<const D: usize>(
        &self,
        s: &[u32; D],
        t: &[u32; D],
        dist: u64,
    ) -> BoxBridge<D> {
        let h_hat = self.h_hat(dist);
        let m1 = IntBox::aligned(s, h_hat);
        let m3 = IntBox::aligned(t, h_hat);
        if m1 == m3 {
            // Already in a common type-1 block of side ≤ 2·dist: it doubles
            // as the bridge and the path needs no sideways hop.
            return BoxBridge {
                h_hat,
                bridge: m1,
                height: h_hat,
                shift_type: 1,
            };
        }
        let min_side = 2u32 << h_hat;
        for height in (h_hat + 1)..=self.k {
            let level = self.k - height;
            for j in 1..=self.num_types(level) {
                let b = self.block_box(level, j, s);
                if b.min_side() >= min_side && b.contains_box(&m1) && b.contains_box(&m3) {
                    return BoxBridge {
                        h_hat,
                        bridge: b,
                        height,
                        shift_type: j,
                    };
                }
            }
        }
        BoxBridge {
            h_hat,
            bridge: IntBox::cube(self.side()),
            height: self.k,
            shift_type: 1,
        }
    }

    /// The mesh this decomposition describes.
    pub fn mesh(&self) -> Mesh {
        Mesh::new_mesh(&vec![self.side(); self.d])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tau_matches_paper_type_counts() {
        // d+1 ≤ τ < 2(d+1)
        for d in 1..=8usize {
            let dd = DecompD::new(d, 6);
            assert!(dd.tau > d as u32);
            assert!(dd.tau < 2 * (d as u32 + 1));
        }
    }

    #[test]
    fn num_types_examples() {
        // Figure 2: d = 3, m_l = 4, λ = 1 → 4 types.
        let dd = DecompD::new(3, 4);
        let level = dd.k() - 2; // block side 4
        assert_eq!(dd.block_side(level), 4);
        assert_eq!(dd.lambda(level), 1);
        assert_eq!(dd.num_types(level), 4);
    }

    #[test]
    fn block_lookup_agrees_with_enumeration() {
        let dd = DecompD::new(2, 3);
        let mesh = dd.mesh();
        for level in 0..=dd.k() {
            for j in 1..=dd.num_types(level) {
                let blocks = dd.blocks_at(level, j);
                for p in mesh.coords() {
                    let b = dd.block(level, j, &p);
                    assert!(b.contains(&p), "lookup block must contain its point");
                    assert!(
                        blocks.contains(&b),
                        "level {level} type {j} point {p:?}: {b:?} not enumerated"
                    );
                    assert_eq!(
                        blocks.iter().filter(|bb| bb.contains(&p)).count(),
                        1,
                        "blocks of one type must tile disjointly"
                    );
                }
            }
        }
    }

    #[test]
    fn blocks_tile_the_mesh_3d() {
        let dd = DecompD::new(3, 2);
        let mesh = dd.mesh();
        for level in 0..=dd.k() {
            for j in 1..=dd.num_types(level) {
                let blocks = dd.blocks_at(level, j);
                let covered: u64 = blocks.iter().map(|b| b.node_count()).sum();
                assert_eq!(
                    covered as usize,
                    mesh.node_count(),
                    "level {level} type {j}"
                );
            }
        }
    }

    #[test]
    fn type1_block_is_power_aligned() {
        let dd = DecompD::new(3, 4);
        let c = Coord::new(&[5, 9, 14]);
        let b = dd.type1_block(2, &c); // side 4
        assert_eq!(b.lo().as_slice(), &[4, 8, 12]);
        assert_eq!(b.hi().as_slice(), &[7, 11, 15]);
    }

    #[test]
    fn shifted_block_straddles_type1_boundary() {
        // d=3, k=4, level with side 8, λ = 8/4 = 2, type 2 shift = 2.
        let dd = DecompD::new(3, 4);
        let level = dd.k() - 3;
        assert_eq!(dd.block_side(level), 8);
        assert_eq!(dd.lambda(level), 2);
        let c = Coord::new(&[7, 8, 9]);
        let b = dd.block(level, 2, &c);
        // Anchors at 2 - 8 + 8i = {-6, 2, 10, ...}; 7,8,9 all in [2,9].
        assert_eq!(b.lo().as_slice(), &[2, 2, 2]);
        assert_eq!(b.hi().as_slice(), &[9, 9, 9]);
    }

    #[test]
    fn h_hat_values() {
        let dd = DecompD::new(2, 6);
        assert_eq!(dd.h_hat(1), 0);
        assert_eq!(dd.h_hat(2), 1);
        assert_eq!(dd.h_hat(3), 2);
        assert_eq!(dd.h_hat(4), 2);
        assert_eq!(dd.h_hat(5), 3);
        assert_eq!(dd.h_hat(1000), 6); // capped at k
    }

    #[test]
    fn bridge_contains_m1_and_m3() {
        let dd = DecompD::new(3, 4);
        let mesh = dd.mesh();
        let s = Coord::new(&[3, 7, 12]);
        let t = Coord::new(&[5, 9, 11]);
        let plan = dd.find_bridge(&mesh, &s, &t);
        assert!(plan.bridge.contains_submesh(&plan.m1));
        assert!(plan.bridge.contains_submesh(&plan.m3));
        assert!(plan.m1.contains(&s));
        assert!(plan.m3.contains(&t));
    }

    /// Lemma 4.1: the bridge block has side O(d · dist): specifically our
    /// scan must succeed by the height h+1 with 2^h < 4(d+1)·dist, giving
    /// side < 8(d+1)·dist (or the root).
    #[test]
    fn bridge_side_bound_sampled() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for d in 1..=4usize {
            let k = match d {
                1 => 8,
                2 => 6,
                3 => 4,
                _ => 3,
            };
            let dd = DecompD::new(d, k);
            let mesh = dd.mesh();
            let side = dd.side();
            for _ in 0..500 {
                let s = Coord::new(&(0..d).map(|_| rng.gen_range(0..side)).collect::<Vec<_>>());
                let t = Coord::new(&(0..d).map(|_| rng.gen_range(0..side)).collect::<Vec<_>>());
                if s == t {
                    continue;
                }
                let dist = mesh.dist(&s, &t);
                let plan = dd.find_bridge(&mesh, &s, &t);
                let bound = 8 * (d as u64 + 1) * dist;
                let bridge_side = u64::from(dd.block_side(dd.k - plan.bridge_height));
                assert!(
                    bridge_side <= bound || plan.bridge_height == dd.k(),
                    "d={d} s={s:?} t={t:?} dist={dist} bridge side {bridge_side} > {bound}"
                );
            }
        }
    }

    #[test]
    fn bridge_min_side_condition_appendix_a() {
        // Condition (iii): every bridge side ≥ 2 * side(M1), unless root.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let dd = DecompD::new(2, 6);
        let mesh = dd.mesh();
        for _ in 0..2000 {
            let s = Coord::new(&[rng.gen_range(0..64), rng.gen_range(0..64)]);
            let t = Coord::new(&[rng.gen_range(0..64), rng.gen_range(0..64)]);
            if s == t {
                continue;
            }
            let plan = dd.find_bridge(&mesh, &s, &t);
            if plan.bridge_height < dd.k() && plan.m1 != plan.m3 {
                assert!(
                    u64::from(plan.bridge.min_side()) >= 2 * u64::from(plan.m1.max_side()),
                    "plan {plan:?}"
                );
            }
        }
    }

    #[test]
    fn same_block_fast_path() {
        let dd = DecompD::new(2, 5);
        let mesh = dd.mesh();
        let s = Coord::new(&[0, 0]);
        let t = Coord::new(&[1, 0]);
        let plan = dd.find_bridge(&mesh, &s, &t);
        assert_eq!(plan.h_hat, 0);
        // dist 1 → ĥ=0 → M1={s}, M3={t} differ → bridge at height ≥ 1.
        assert!(plan.bridge.contains(&s) && plan.bridge.contains(&t));
        assert!(plan.bridge_height >= 1);

        let s = Coord::new(&[0, 0]);
        let t = Coord::new(&[1, 1]);
        // dist 2 → ĥ=1 → both in type-1 block [0,1]² → fast path.
        let plan = dd.find_bridge(&mesh, &s, &t);
        assert_eq!(plan.m1, plan.bridge);
        assert_eq!(plan.bridge_height, 1);
    }

    #[test]
    fn one_dimensional_decomposition() {
        let dd = DecompD::new(1, 5);
        assert_eq!(dd.tau, 2);
        let mesh = dd.mesh();
        let s = Coord::new(&[15]);
        let t = Coord::new(&[16]);
        let plan = dd.find_bridge(&mesh, &s, &t);
        // The type-2 shift (λ = m_l/2) bridges the central boundary at a
        // low height, exactly the 1-D analogue of the paper's Figure 1.
        assert!(plan.bridge_height <= 3, "{plan:?}");
    }

    #[test]
    fn for_mesh_round_trip() {
        let mesh = Mesh::new_mesh(&[16, 16, 16]);
        let dd = DecompD::for_mesh(&mesh);
        assert_eq!(dd.d(), 3);
        assert_eq!(dd.k(), 4);
    }
}
