//! The decomposition on the **torus** — the paper's proof model.
//!
//! Lemma 3.3's and Lemma 4.1's proofs "assume, for simplicity, that we are
//! on the torus. In this case, all the type-2 meshes are of the same
//! size": shifted blocks wrap around instead of being clipped, so every
//! (level, type) family is a perfect tiling by congruent cubes and there
//! are no discarded corners or truncated bridges. This module implements
//! that model directly, both because it is the cleanest setting for the
//! theory (several invariants that hold "up to border effects" on the mesh
//! hold exactly here) and because tori are real interconnects.

use crate::{BoxBridge, MAX_K};
use oblivion_mesh::{with_dim, Coord, IntBox, Mesh, Submesh};

/// A (possibly wrapping) cube of the `(2^k)^d` torus: anchor plus equal
/// side per axis, coordinates taken modulo the torus side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TorusBlock {
    anchor: Coord,
    side: u32,
    modulus: u32,
}

impl TorusBlock {
    /// Creates a block; `side ≤ modulus`, anchor reduced mod `modulus`.
    pub fn new(anchor: Coord, side: u32, modulus: u32) -> Self {
        debug_assert!(side >= 1 && side <= modulus);
        let mut a = anchor;
        for i in 0..a.dim() {
            a[i] %= modulus;
        }
        Self {
            anchor: a,
            side,
            modulus,
        }
    }

    /// The anchor (lowest corner, pre-wrap).
    pub fn anchor(&self) -> &Coord {
        &self.anchor
    }

    /// Side length (equal on every axis).
    pub fn side(&self) -> u32 {
        self.side
    }

    /// Torus side (the modulus).
    pub fn modulus(&self) -> u32 {
        self.modulus
    }

    /// Number of nodes.
    pub fn node_count(&self) -> u64 {
        u64::from(self.side).pow(self.anchor.dim() as u32)
    }

    /// Offset of `x` from the block anchor along `axis`, mod the torus.
    #[inline]
    fn offset(&self, axis: usize, x: u32) -> u32 {
        (x + self.modulus - self.anchor[axis]) % self.modulus
    }

    /// True if the coordinate lies inside (wrapping respected).
    pub fn contains(&self, c: &Coord) -> bool {
        debug_assert_eq!(c.dim(), self.anchor.dim());
        (0..c.dim()).all(|i| self.offset(i, c[i]) < self.side)
    }

    /// True if the aligned (non-wrapping) submesh lies entirely inside.
    pub fn contains_submesh(&self, sub: &Submesh) -> bool {
        (0..self.anchor.dim()).all(|i| {
            // sub occupies [lo, hi] without wrap; inside iff the offset of
            // lo fits and the extent does not spill out.
            let off = self.offset(i, sub.lo()[i]);
            off < self.side && off + (sub.side(i) - 1) < self.side
        })
    }

    /// True if another torus block lies entirely inside.
    pub fn contains_block(&self, other: &TorusBlock) -> bool {
        debug_assert_eq!(self.modulus, other.modulus);
        other.side <= self.side
            && (0..self.anchor.dim()).all(|i| {
                let off = self.offset(i, other.anchor[i]);
                off < self.side && off + (other.side - 1) < self.side
            })
    }
}

/// The diagonal-shift hierarchical decomposition of the `(2^k)^d` torus.
///
/// Identical level/λ/type structure to [`crate::DecompD`], but shifted
/// families tile the torus exactly (every block is a full cube).
///
/// ```
/// use oblivion_decomp::TorusDecomp;
/// use oblivion_mesh::Coord;
///
/// let d = TorusDecomp::new(2, 5); // the 32x32 torus
/// let torus = d.mesh();
/// // The wrap pair (0, y) / (31, y) is adjacent on the torus, and the
/// // bridge found for it is tiny — the mesh's border pathology vanishes.
/// let s = Coord::new(&[0, 7]);
/// let t = Coord::new(&[31, 7]);
/// assert_eq!(torus.dist(&s, &t), 1);
/// let plan = d.find_bridge(&torus, &s, &t);
/// assert!(plan.bridge.side() <= 8);
/// ```
#[derive(Debug, Clone)]
pub struct TorusDecomp {
    d: usize,
    k: u32,
    tau: u32,
}

/// The bridge plan on the torus (see [`crate::BridgePlan`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TorusBridgePlan {
    /// Height of `M₁`/`M₃`.
    pub h_hat: u32,
    /// Type-1 (aligned) block of height `ĥ` containing the source.
    pub m1: TorusBlock,
    /// The bridge block.
    pub bridge: TorusBlock,
    /// Height of the bridge.
    pub bridge_height: u32,
    /// Shift type of the bridge.
    pub bridge_type: u32,
    /// Type-1 block of height `ĥ` containing the destination.
    pub m3: TorusBlock,
}

impl TorusDecomp {
    /// Decomposition of the `d`-dimensional torus with equal sides `2^k`.
    pub fn new(d: usize, k: u32) -> Self {
        assert!((1..=oblivion_mesh::MAX_DIM).contains(&d));
        assert!(k <= MAX_K);
        let tau = (d as u32 + 1).next_power_of_two();
        Self { d, k, tau }
    }

    /// The decomposition for a given equal-side power-of-two torus.
    pub fn for_mesh(mesh: &Mesh) -> Self {
        assert_eq!(
            mesh.topology(),
            oblivion_mesh::Topology::Torus,
            "TorusDecomp requires a torus"
        );
        let m = mesh.side(0);
        assert!(mesh.dims().iter().all(|&s| s == m));
        assert!(m.is_power_of_two());
        Self::new(mesh.dim(), m.trailing_zeros())
    }

    /// Number of dimensions.
    pub fn d(&self) -> usize {
        self.d
    }

    /// The exponent `k`.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Torus side `2^k`.
    pub fn side(&self) -> u32 {
        1 << self.k
    }

    /// Block side `m_l = 2^{k-l}` at a level.
    pub fn block_side(&self, level: u32) -> u32 {
        debug_assert!(level <= self.k);
        1 << (self.k - level)
    }

    /// The shift unit `λ_l`.
    pub fn lambda(&self, level: u32) -> u32 {
        (self.block_side(level) / self.tau).max(1)
    }

    /// Number of shift types at a level.
    pub fn num_types(&self, level: u32) -> u32 {
        self.block_side(level).min(self.tau)
    }

    /// The type-`j` block at `level` containing `c`.
    pub fn block(&self, level: u32, j: u32, c: &Coord) -> TorusBlock {
        debug_assert_eq!(c.dim(), self.d);
        with_dim!(self.d, D => self.to_block(&self.block_box::<D>(level, j, &c.to_array())))
    }

    /// [`Self::block`] as a box whose `lo` is the anchor and whose `hi`
    /// is `lo + m_l − 1`, not reduced. The side is a power of two, so the
    /// offset from the shifted grid and the anchor's reduction are masks.
    #[inline]
    pub fn block_box<const D: usize>(&self, level: u32, j: u32, c: &[u32; D]) -> IntBox<D> {
        debug_assert!(j >= 1 && j <= self.num_types(level));
        let m_l = self.block_side(level);
        let sigma = (j - 1) * self.lambda(level);
        let wrap = self.side() - 1;
        let lo = c.map(|x| ((x.wrapping_sub(sigma) & wrap & !(m_l - 1)) + sigma) & wrap);
        IntBox {
            lo,
            hi: lo.map(|a| a + m_l - 1),
        }
    }

    /// The torus block of a box made by [`Self::block_box`].
    fn to_block<const D: usize>(&self, b: &IntBox<D>) -> TorusBlock {
        TorusBlock::new(Coord::new(&b.lo), b.side(0), self.side())
    }

    /// True if the wrapping box `inner` lies inside the wrapping box
    /// `outer` (both cubes, as [`Self::block_box`] makes them).
    #[inline]
    fn box_contains<const D: usize>(&self, outer: &IntBox<D>, inner: &IntBox<D>) -> bool {
        let wrap = self.side() - 1;
        let (big, small) = (outer.side(0), inner.side(0));
        small <= big
            && (0..D).all(|i| {
                let off = inner.lo[i].wrapping_sub(outer.lo[i]) & wrap;
                off < big && off + (small - 1) < big
            })
    }

    /// The aligned type-1 block at `level` containing `c`.
    pub fn type1_block(&self, level: u32, c: &Coord) -> TorusBlock {
        self.block(level, 1, c)
    }

    /// Height `ĥ = ⌈log₂ dist⌉`, capped at `k`.
    pub fn h_hat(&self, dist: u64) -> u32 {
        debug_assert!(dist >= 1);
        let h = 64 - (dist - 1).leading_zeros();
        h.min(self.k)
    }

    /// Bridge plan on the torus (Lemma 4.1, exact version).
    ///
    /// # Panics
    /// Panics if `s == t`.
    pub fn find_bridge(&self, mesh: &Mesh, s: &Coord, t: &Coord) -> TorusBridgePlan {
        let dist = mesh.dist(s, t);
        assert!(dist > 0);
        with_dim!(self.d, D => {
            let (s, t) = (s.to_array::<D>(), t.to_array::<D>());
            let b = self.bridge_box(&s, &t, dist);
            TorusBridgePlan {
                h_hat: b.h_hat,
                m1: self.to_block(&IntBox::aligned(&s, b.h_hat)),
                bridge: self.to_block(&b.bridge),
                bridge_height: b.height,
                bridge_type: b.shift_type,
                m3: self.to_block(&IntBox::aligned(&t, b.h_hat)),
            }
        })
    }

    /// [`Self::find_bridge`] as wrapping boxes, for endpoints at torus
    /// distance `dist ≥ 1`.
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
            if self.block_side(level) < min_side {
                continue;
            }
            for j in 1..=self.num_types(level) {
                let b = self.block_box(level, j, s);
                if self.box_contains(&b, &m1) && self.box_contains(&b, &m3) {
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

    /// The torus this decomposition describes.
    pub fn mesh(&self) -> Mesh {
        Mesh::new_torus(&vec![self.side(); self.d])
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
    fn block_contains_point_and_wraps() {
        let b = TorusBlock::new(c(&[6, 6]), 4, 8);
        assert!(b.contains(&c(&[6, 6])));
        assert!(b.contains(&c(&[7, 1]))); // wraps: 7 in [6,9) mod 8, 1 too
        assert!(b.contains(&c(&[0, 0])));
        assert!(!b.contains(&c(&[2, 2])));
        assert_eq!(b.node_count(), 16);
    }

    #[test]
    fn contains_submesh_respects_wrap() {
        let b = TorusBlock::new(c(&[6]), 4, 8);
        // [6,7] inside, [0,1] inside (wrapped), [5,6] not.
        assert!(b.contains_submesh(&Submesh::new(c(&[6]), c(&[7]))));
        assert!(b.contains_submesh(&Submesh::new(c(&[0]), c(&[1]))));
        assert!(!b.contains_submesh(&Submesh::new(c(&[5]), c(&[6]))));
    }

    #[test]
    fn contains_block_cases() {
        let big = TorusBlock::new(c(&[6]), 4, 8);
        assert!(big.contains_block(&TorusBlock::new(c(&[7]), 2, 8)));
        assert!(big.contains_block(&TorusBlock::new(c(&[6]), 4, 8)));
        assert!(!big.contains_block(&TorusBlock::new(c(&[5]), 2, 8)));
        assert!(!big.contains_block(&TorusBlock::new(c(&[4]), 8, 8)));
    }

    #[test]
    fn every_point_in_exactly_one_block_per_family() {
        let dd = TorusDecomp::new(2, 3);
        let mesh = dd.mesh();
        for level in 0..=dd.k() {
            for j in 1..=dd.num_types(level) {
                // Collect the distinct blocks by anchor; verify perfect
                // tiling: count * size == n and lookup self-consistent.
                let mut anchors = std::collections::HashSet::new();
                for p in mesh.coords() {
                    let b = dd.block(level, j, &p);
                    assert!(b.contains(&p), "level {level} j {j} p {p:?} b {b:?}");
                    anchors.insert(*b.anchor());
                }
                let m_l = u64::from(dd.block_side(level));
                assert_eq!(
                    anchors.len() as u64 * m_l * m_l,
                    mesh.node_count() as u64,
                    "level {level} type {j}"
                );
            }
        }
    }

    #[test]
    fn shifted_families_are_translates() {
        let dd = TorusDecomp::new(2, 3);
        let p = c(&[3, 5]);
        let level = 1;
        let lambda = dd.lambda(level);
        for j in 2..=dd.num_types(level) {
            let b = dd.block(level, j, &p);
            // Anchor is congruent to (j-1)*lambda mod block side... i.e.
            // the family is the type-1 grid shifted diagonally.
            let m_l = dd.block_side(level);
            for i in 0..2 {
                assert_eq!(b.anchor()[i] % m_l, ((j - 1) * lambda) % m_l);
            }
        }
    }

    #[test]
    fn bridge_plan_invariants_sampled() {
        let mut rng = StdRng::seed_from_u64(71);
        for (d, k) in [(1usize, 8u32), (2, 6), (3, 4)] {
            let dd = TorusDecomp::new(d, k);
            let mesh = dd.mesh();
            let side = dd.side();
            for _ in 0..1000 {
                let s = c(&(0..d).map(|_| rng.gen_range(0..side)).collect::<Vec<_>>());
                let t = c(&(0..d).map(|_| rng.gen_range(0..side)).collect::<Vec<_>>());
                if s == t {
                    continue;
                }
                let dist = mesh.dist(&s, &t);
                let plan = dd.find_bridge(&mesh, &s, &t);
                assert!(plan.m1.contains(&s));
                assert!(plan.m3.contains(&t));
                assert!(plan.bridge.contains_block(&plan.m1), "{s:?} {t:?} {plan:?}");
                assert!(plan.bridge.contains_block(&plan.m3));
                if plan.bridge_height < dd.k() {
                    // Lemma 4.1 on the torus, exact: side <= 8(d+1) dist.
                    assert!(
                        u64::from(plan.bridge.side()) <= 8 * (d as u64 + 1) * dist,
                        "d={d} dist={dist} plan={plan:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn central_wrap_pair_gets_tiny_bridge() {
        // On the torus even the (0, side-1) pair is distance 1 and must get
        // an O(1)-side bridge — the mesh's worst border case vanishes.
        let dd = TorusDecomp::new(2, 6);
        let mesh = dd.mesh();
        let s = c(&[0, 10]);
        let t = c(&[63, 10]);
        assert_eq!(mesh.dist(&s, &t), 1);
        let plan = dd.find_bridge(&mesh, &s, &t);
        assert!(plan.bridge.side() <= 8, "{plan:?}");
    }

    #[test]
    fn for_mesh_round_trip() {
        let t = Mesh::new_torus(&[16, 16]);
        let dd = TorusDecomp::for_mesh(&t);
        assert_eq!(dd.k(), 4);
    }

    #[test]
    #[should_panic]
    fn rejects_plain_mesh() {
        let _ = TorusDecomp::for_mesh(&Mesh::new_mesh(&[16, 16]));
    }
}
