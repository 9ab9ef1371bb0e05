//! The 2-dimensional mesh decomposition of Section 3.1.
//!
//! The `2^k × 2^k` mesh is decomposed into two families of *regular*
//! submeshes:
//!
//! * **Type-1** submeshes, defined recursively: the mesh itself is the only
//!   level-0 submesh; each level-`l` submesh splits into 4 quadrants at
//!   level `l+1`. At level `l` there are `2^{2l}` type-1 blocks of side
//!   `m_l = 2^{k-l}`; level-`k` blocks are single nodes.
//! * **Type-2** submeshes at levels `1 ≤ l ≤ k-1`: the type-1 grid of level
//!   `l`, extended by one block layer along every dimension, translated by
//!   `(m_l/2, m_l/2)`, clipped to the mesh; *corner* blocks (clipped in both
//!   dimensions) are discarded because they coincide with type-1 blocks of
//!   level `l+1`.
//!
//! Type-2 blocks are the 2-D **bridges**: any two nodes at distance `ℓ`
//! share a regular submesh of height at most `⌈log₂ ℓ⌉ + 2` (Lemma 3.3),
//! which is what bounds the stretch of the bitonic routing paths.

use crate::MAX_K;
use oblivion_mesh::{Coord, IntBox, Mesh, Submesh};

/// Which decomposition family a regular submesh belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockType2D {
    /// Recursive quadrant blocks.
    Type1,
    /// Half-side-translated bridge blocks.
    Type2,
}

/// A regular submesh together with its position in the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Block2D {
    /// The nodes covered.
    pub submesh: Submesh,
    /// Level `l` (0 = whole mesh, `k` = single nodes).
    pub level: u32,
    /// Type-1 or type-2.
    pub kind: BlockType2D,
}

/// The hierarchical decomposition of the `2^k × 2^k` mesh (Section 3.1).
///
/// ```
/// use oblivion_decomp::Decomp2;
/// use oblivion_mesh::Coord;
///
/// let d = Decomp2::new(4); // the 16x16 mesh
/// let s = Coord::new(&[7, 7]);
/// let t = Coord::new(&[8, 8]); // straddles the central cut, distance 2
/// let (bridge, height) = d.deepest_common_ancestor(&s, &t);
/// // Lemma 3.3: a regular submesh of height <= ceil(log2 2) + 2 = 3
/// // contains both; here a tiny shifted block suffices:
/// assert!(height <= 3);
/// assert!(bridge.submesh.contains(&s) && bridge.submesh.contains(&t));
/// ```
#[derive(Debug, Clone)]
pub struct Decomp2 {
    k: u32,
}

impl Decomp2 {
    /// Decomposition of the `2^k × 2^k` mesh.
    ///
    /// # Panics
    /// Panics if `2^k` overflows `u32` (`k > 31`).
    pub fn new(k: u32) -> Self {
        assert!(k <= MAX_K, "side 2^{k} is unreasonably large");
        Self { k }
    }

    /// The decomposition for a given square power-of-two mesh.
    ///
    /// # Panics
    /// Panics if the mesh is not 2-dimensional and square with side `2^k`.
    pub fn for_mesh(mesh: &Mesh) -> Self {
        assert_eq!(mesh.dim(), 2, "Decomp2 requires a 2-dimensional mesh");
        let m = mesh.side(0);
        assert_eq!(m, mesh.side(1), "Decomp2 requires a square mesh");
        assert!(m.is_power_of_two(), "Decomp2 requires side 2^k");
        Self::new(m.trailing_zeros())
    }

    /// The exponent `k` (mesh side `2^k`).
    #[inline]
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Mesh side length `m = 2^k`.
    #[inline]
    pub fn side(&self) -> u32 {
        1 << self.k
    }

    /// Number of levels, `k + 1` (levels `0 ..= k`).
    #[inline]
    pub fn levels(&self) -> u32 {
        self.k + 1
    }

    /// Side length `m_l = 2^{k-l}` of level-`l` blocks.
    #[inline]
    pub fn block_side(&self, level: u32) -> u32 {
        debug_assert!(level <= self.k);
        1 << (self.k - level)
    }

    /// The type-1 block at `level` containing `c`.
    pub fn type1_block(&self, level: u32, c: &Coord) -> Submesh {
        IntBox::aligned(&c.to_array::<2>(), self.k - level).to_submesh()
    }

    /// The type-2 block at `level` containing `c`, if any.
    ///
    /// Returns `None` when the level carries no type-2 blocks (`l = 0` or
    /// `l ≥ k`) or when `c` falls in a discarded corner block.
    pub fn type2_block(&self, level: u32, c: &Coord) -> Option<Submesh> {
        if level == 0 || level >= self.k {
            return None;
        }
        self.type2_box(self.k - level, &c.to_array())
            .map(|b| b.to_submesh())
    }

    /// The type-2 block of height `1 ≤ h < k` containing `c`, if `c` is
    /// not in a discarded corner. Shifted anchors sit at `j·2^h − 2^{h−1}`,
    /// so `c`'s block index on an axis is `(x + 2^{h−1}) >> h`; index 0
    /// and the last index are the clipped border blocks.
    #[inline]
    fn type2_box(&self, h: u32, c: &[u32; 2]) -> Option<IntBox<2>> {
        let half = 1u32 << (h - 1);
        let last = self.side() >> h;
        let j = c.map(|x| (x + half) >> h);
        if j.iter().all(|&j| j == 0 || j == last) {
            // Corner block: discarded (it equals a type-1 block at level l+1).
            return None;
        }
        Some(IntBox {
            lo: j.map(|j| (j << h).saturating_sub(half)),
            hi: j.map(|j| ((j << h) + half - 1).min(self.side() - 1)),
        })
    }

    /// All type-1 blocks at a level, row-major by anchor.
    pub fn type1_blocks(&self, level: u32) -> Vec<Submesh> {
        let m_l = self.block_side(level);
        let per_axis = self.side() / m_l;
        let mut out = Vec::with_capacity((per_axis * per_axis) as usize);
        for ax in 0..per_axis {
            for ay in 0..per_axis {
                let lo = Coord::new(&[ax * m_l, ay * m_l]);
                let hi = Coord::new(&[ax * m_l + m_l - 1, ay * m_l + m_l - 1]);
                out.push(Submesh::new(lo, hi));
            }
        }
        out
    }

    /// All (non-discarded) type-2 blocks at a level.
    pub fn type2_blocks(&self, level: u32) -> Vec<Submesh> {
        if level == 0 || level >= self.k {
            return Vec::new();
        }
        let m_l = i64::from(self.block_side(level));
        let half = m_l / 2;
        let side = i64::from(self.side());
        let per_axis = (side / m_l) + 1; // one extra layer
        let mut out = Vec::new();
        for jx in 0..per_axis {
            for jy in 0..per_axis {
                let (ax, ay) = (-half + jx * m_l, -half + jy * m_l);
                let (bx, by) = (ax + m_l - 1, ay + m_l - 1);
                let clipped_x = ax < 0 || bx >= side;
                let clipped_y = ay < 0 || by >= side;
                if clipped_x && clipped_y {
                    continue; // corner
                }
                let lo = Coord::new(&[ax.max(0) as u32, ay.max(0) as u32]);
                let hi = Coord::new(&[bx.min(side - 1) as u32, by.min(side - 1) as u32]);
                out.push(Submesh::new(lo, hi));
            }
        }
        out
    }

    /// All regular blocks at a level, type-1 first.
    pub fn blocks(&self, level: u32) -> Vec<Block2D> {
        let mut out: Vec<Block2D> = self
            .type1_blocks(level)
            .into_iter()
            .map(|submesh| Block2D {
                submesh,
                level,
                kind: BlockType2D::Type1,
            })
            .collect();
        out.extend(self.type2_blocks(level).into_iter().map(|submesh| Block2D {
            submesh,
            level,
            kind: BlockType2D::Type2,
        }));
        out
    }

    /// The **deepest common ancestor** of two distinct nodes: the deepest
    /// regular submesh containing both (Section 3.2).
    ///
    /// Returns the block and its *height* `k - level`. By Lemma 3.3 the
    /// height is at most `⌈log₂ dist(s,t)⌉ + 2`.
    pub fn deepest_common_ancestor(&self, s: &Coord, t: &Coord) -> (Block2D, u32) {
        let (b, height, kind) = self.ancestor_box(&s.to_array(), &t.to_array());
        let block = Block2D {
            submesh: b.to_submesh(),
            level: self.k - height,
            kind,
        };
        (block, height)
    }

    /// [`Self::deepest_common_ancestor`] as a box: the block, its height
    /// and its type. A block of height `h` holds both nodes when their
    /// block indices agree on both axes: `x >> h` for type-1 and
    /// `(x + 2^{h−1}) >> h` for type-2, so each test is a shift and a
    /// compare.
    pub fn ancestor_box(&self, s: &[u32; 2], t: &[u32; 2]) -> (IntBox<2>, u32, BlockType2D) {
        debug_assert_ne!(s, t, "DCA of a node with itself is the leaf");
        for h in 1..=self.k {
            if (s[0] ^ t[0]) >> h == 0 && (s[1] ^ t[1]) >> h == 0 {
                return (IntBox::aligned(s, h), h, BlockType2D::Type1);
            }
            if h < self.k {
                let half = 1u32 << (h - 1);
                let apart = |i: usize| ((s[i] + half) ^ (t[i] + half)) >> h;
                if apart(0) == 0 && apart(1) == 0 {
                    if let Some(b) = self.type2_box(h, s) {
                        return (b, h, BlockType2D::Type2);
                    }
                }
            }
        }
        // Level 0: the whole mesh, guaranteed ancestor (Lemma 3.2).
        (IntBox::cube(self.side()), self.k, BlockType2D::Type1)
    }

    /// The mesh this decomposition describes.
    pub fn mesh(&self) -> Mesh {
        Mesh::new_mesh(&[self.side(), self.side()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(x: u32, y: u32) -> Coord {
        Coord::new(&[x, y])
    }

    #[test]
    fn type1_block_level0_is_whole_mesh() {
        let d = Decomp2::new(3);
        let b = d.type1_block(0, &c(5, 2));
        assert_eq!(b, Submesh::new(c(0, 0), c(7, 7)));
    }

    #[test]
    fn type1_block_leaf_is_point() {
        let d = Decomp2::new(3);
        let b = d.type1_block(3, &c(5, 2));
        assert_eq!(b, Submesh::point(c(5, 2)));
    }

    #[test]
    fn type1_blocks_partition_each_level() {
        let d = Decomp2::new(3);
        let mesh = d.mesh();
        for level in 0..=d.k() {
            let blocks = d.type1_blocks(level);
            assert_eq!(blocks.len(), 1usize << (2 * level));
            let total: u64 = blocks.iter().map(|b| b.node_count()).sum();
            assert_eq!(total as usize, mesh.node_count());
            // Disjoint (Lemma 3.1(1)): membership lookup agrees with the list.
            for p in mesh.coords() {
                let owner = d.type1_block(level, &p);
                assert_eq!(blocks.iter().filter(|b| b.contains(&p)).count(), 1);
                assert!(owner.contains(&p));
            }
        }
    }

    #[test]
    fn type2_blocks_shift_and_clip() {
        // k = 2: 4x4 mesh, level 1: m_l = 2, half = 1.
        let d = Decomp2::new(2);
        let blocks = d.type2_blocks(1);
        // 3x3 shifted grid minus 4 corners = 5 blocks.
        assert_eq!(blocks.len(), 5);
        // Central block is the full [1,2]^2.
        assert!(blocks.contains(&Submesh::new(c(1, 1), c(2, 2))));
        // Edge blocks are clipped in exactly one dimension.
        assert!(blocks.contains(&Submesh::new(c(0, 1), c(0, 2))));
        assert!(blocks.contains(&Submesh::new(c(3, 1), c(3, 2))));
        assert!(blocks.contains(&Submesh::new(c(1, 0), c(2, 0))));
        assert!(blocks.contains(&Submesh::new(c(1, 3), c(2, 3))));
    }

    #[test]
    fn type2_blocks_disjoint_lemma31_1() {
        let d = Decomp2::new(4);
        let mesh = d.mesh();
        for level in 1..d.k() {
            let blocks = d.type2_blocks(level);
            for p in mesh.coords() {
                let n = blocks.iter().filter(|b| b.contains(&p)).count();
                assert!(n <= 1, "point {p:?} in {n} type-2 blocks at level {level}");
                // Lookup agrees with enumeration.
                match d.type2_block(level, &p) {
                    Some(b) => {
                        assert_eq!(n, 1);
                        assert!(b.contains(&p));
                        assert!(blocks.contains(&b));
                    }
                    None => assert_eq!(n, 0, "{p:?} level {level}"),
                }
            }
        }
    }

    #[test]
    fn type2_block_side_at_least_half() {
        let d = Decomp2::new(4);
        for level in 1..d.k() {
            let m_l = d.block_side(level);
            for b in d.type2_blocks(level) {
                assert!(b.min_side() >= m_l / 2, "{b:?} at level {level}");
                assert!(b.max_side() <= m_l);
            }
        }
    }

    /// Lemma 3.1(2): every regular submesh at level l is partitioned by the
    /// type-1 submeshes of level l+1 (i.e. it is aligned to their grid).
    #[test]
    fn regular_blocks_align_to_next_level_grid() {
        let d = Decomp2::new(4);
        for level in 0..d.k() {
            let child_side = d.block_side(level + 1);
            for b in d.blocks(level) {
                for i in 0..2 {
                    assert_eq!(b.submesh.lo()[i] % child_side, 0, "{:?}", b);
                    assert_eq!((b.submesh.hi()[i] + 1) % child_side, 0, "{:?}", b);
                }
            }
        }
    }

    /// Lemma 3.1(3) as the algorithm uses it: every *type-1* submesh at
    /// level l+1 is contained in some regular submesh at level l. (Type-2
    /// blocks of mixed anchor parity can be parentless; the bitonic paths
    /// never climb out of a type-2 block, so this is harmless.)
    #[test]
    fn every_type1_block_has_a_parent() {
        let d = Decomp2::new(4);
        for level in 0..d.k() {
            let parents = d.blocks(level);
            for child in d.type1_blocks(level + 1) {
                assert!(
                    parents.iter().any(|p| p.submesh.contains_submesh(&child)),
                    "orphan type-1 block {:?}",
                    child
                );
            }
        }
    }

    /// Lemma 3.3: the DCA of two leaves has height at most ⌈log₂ dist⌉ + 2.
    #[test]
    fn dca_height_bound_exhaustive_small() {
        for k in 1..=4 {
            let d = Decomp2::new(k);
            let mesh = d.mesh();
            let pts: Vec<Coord> = mesh.coords().collect();
            for s in &pts {
                for t in &pts {
                    if s == t {
                        continue;
                    }
                    let dist = mesh.dist(s, t);
                    let (blk, h) = d.deepest_common_ancestor(s, t);
                    assert!(blk.submesh.contains(s) && blk.submesh.contains(t));
                    let bound = (dist as f64).log2().ceil() as u32 + 2;
                    assert!(
                        h <= bound.min(k),
                        "k={k} s={s:?} t={t:?} dist={dist} h={h} bound={bound}"
                    );
                }
            }
        }
    }

    #[test]
    fn dca_of_adjacent_nodes_is_small() {
        let d = Decomp2::new(6);
        // Worst case for the pure access tree: the two central nodes,
        // adjacent but in different level-1 quadrants.
        let s = c(31, 31);
        let t = c(32, 31);
        let (blk, h) = d.deepest_common_ancestor(&s, &t);
        assert!(h <= 2, "bridge should keep adjacent nodes low, got h={h}");
        assert_eq!(blk.kind, BlockType2D::Type2);
    }

    #[test]
    fn dca_falls_back_to_root() {
        let d = Decomp2::new(2);
        let (blk, h) = d.deepest_common_ancestor(&c(0, 0), &c(3, 3));
        assert_eq!(h, 2);
        assert_eq!(blk.level, 0);
    }

    #[test]
    fn for_mesh_accepts_square_power_of_two() {
        let m = Mesh::new_mesh(&[8, 8]);
        assert_eq!(Decomp2::for_mesh(&m).k(), 3);
    }

    #[test]
    #[should_panic]
    fn for_mesh_rejects_non_square() {
        let m = Mesh::new_mesh(&[8, 4]);
        let _ = Decomp2::for_mesh(&m);
    }
}
