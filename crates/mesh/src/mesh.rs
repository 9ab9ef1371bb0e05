//! The `d`-dimensional mesh (and torus) network.
//!
//! The network model of the paper (Section 2): a `d`-dimensional grid of
//! nodes with side length `m_i` in dimension `i`, a bidirectional link
//! between each pair of adjacent nodes, `n = ∏ m_i` nodes in total.

use crate::coord::Coord;

/// Whether wrap-around links exist along each dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topology {
    /// Plain mesh: no links at the boundaries.
    Mesh,
    /// Torus: additional wrap-around link in every dimension of side `> 2`
    /// (for side 2 the wrap link would duplicate the direct link, so it is
    /// omitted, the standard convention).
    Torus,
}

/// Identifier of a mesh node: the row-major linear index of its coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Identifier of an undirected mesh edge (an index into `0..mesh.edge_count()`).
///
/// Edges are grouped by axis: all edges along dimension 0 first, then
/// dimension 1, and so on. Within an axis the edge from `u` to `u + e_i`
/// is owned by its lower endpoint `u`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub usize);

/// A `d`-dimensional mesh network.
///
/// ```
/// use oblivion_mesh::{Mesh, Coord};
/// let m = Mesh::new_mesh(&[4, 4]);
/// assert_eq!(m.node_count(), 16);
/// assert_eq!(m.edge_count(), 24); // 2 * 4 * 3
/// let a = m.node_id(&Coord::new(&[0, 0]));
/// let b = m.node_id(&Coord::new(&[3, 3]));
/// assert_eq!(m.dist_ids(a, b), 6);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mesh {
    dims: Vec<u32>,
    /// Row-major strides: `strides[i] = ∏_{j>i} dims[j]`.
    strides: Vec<usize>,
    /// Per-axis starting offset into the global edge index space.
    edge_offsets: Vec<usize>,
    /// Per-axis stride tables of the "reduced" grid used for mesh-edge slots.
    edge_strides: Vec<Vec<usize>>,
    edge_count: usize,
    node_count: usize,
    topology: Topology,
}

impl Mesh {
    /// Creates a mesh with the given side lengths (no wrap-around links).
    ///
    /// # Panics
    /// Panics if `dims` is empty, longer than [`crate::MAX_DIM`], contains a
    /// zero, or if the node count overflows `usize`.
    pub fn new_mesh(dims: &[u32]) -> Self {
        Self::new(dims, Topology::Mesh)
    }

    /// Creates a torus with the given side lengths.
    pub fn new_torus(dims: &[u32]) -> Self {
        Self::new(dims, Topology::Torus)
    }

    /// Creates a network with the given side lengths and topology.
    pub fn new(dims: &[u32], topology: Topology) -> Self {
        assert!(
            !dims.is_empty() && dims.len() <= crate::MAX_DIM,
            "mesh dimension must be in 1..={}, got {}",
            crate::MAX_DIM,
            dims.len()
        );
        assert!(dims.iter().all(|&m| m >= 1), "side lengths must be >= 1");
        let d = dims.len();
        let mut node_count = 1usize;
        for &m in dims {
            node_count = node_count
                .checked_mul(m as usize)
                .expect("node count overflow");
        }
        let mut strides = vec![1usize; d];
        for i in (0..d.saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * dims[i + 1] as usize;
        }
        // Edge bookkeeping.
        let mut edge_offsets = Vec::with_capacity(d);
        let mut edge_strides = Vec::with_capacity(d);
        let mut edge_count = 0usize;
        for axis in 0..d {
            edge_offsets.push(edge_count);
            let owners_on_axis = Self::edge_owners_on_axis(dims[axis], topology);
            // Strides of the grid in which dimension `axis` is shrunk to the
            // number of owner positions.
            let mut st = vec![1usize; d];
            for i in (0..d.saturating_sub(1)).rev() {
                let size = if i + 1 == axis {
                    owners_on_axis as usize
                } else {
                    dims[i + 1] as usize
                };
                st[i] = st[i + 1] * size;
            }
            let axis_edges = if owners_on_axis == 0 {
                0
            } else {
                dims.iter()
                    .enumerate()
                    .map(|(i, &m)| {
                        if i == axis {
                            owners_on_axis as usize
                        } else {
                            m as usize
                        }
                    })
                    .product()
            };
            edge_strides.push(st);
            edge_count += axis_edges;
        }
        Self {
            dims: dims.to_vec(),
            strides,
            edge_offsets,
            edge_strides,
            edge_count,
            node_count,
            topology,
        }
    }

    /// How many nodes along `axis` own an edge towards `+e_axis`.
    fn edge_owners_on_axis(m: u32, topology: Topology) -> u32 {
        match topology {
            Topology::Mesh => m.saturating_sub(1),
            Topology::Torus => {
                if m <= 2 {
                    m.saturating_sub(1)
                } else {
                    m
                }
            }
        }
    }

    /// How many nodes along `axis` own an edge towards `+e_axis` — the
    /// extent of `axis` in the reduced grid that orders that axis's
    /// `EdgeId`s (row-major, axis 0 outermost).
    #[inline]
    pub fn edge_owners(&self, axis: usize) -> u32 {
        Self::edge_owners_on_axis(self.dims[axis], self.topology)
    }

    /// The topology (mesh or torus).
    #[inline]
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Number of dimensions `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dims.len()
    }

    /// Side lengths `m_1, …, m_d`.
    #[inline]
    pub fn dims(&self) -> &[u32] {
        &self.dims
    }

    /// Side length along `axis`.
    #[inline]
    pub fn side(&self, axis: usize) -> u32 {
        self.dims[axis]
    }

    /// Total number of nodes `n = ∏ m_i`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Total number of undirected links `|E|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Approximate bytes of heap + inline state this mesh holds alive:
    /// the struct itself plus its dimension, stride, and edge-indexing
    /// tables. The basis of the serving registry's per-tenant
    /// `mesh_state_bytes` gauge — routing state as a measured resource.
    pub fn state_bytes(&self) -> u64 {
        let inline = std::mem::size_of::<Self>();
        let heap = std::mem::size_of_val(self.dims.as_slice())
            + std::mem::size_of_val(self.strides.as_slice())
            + std::mem::size_of_val(self.edge_offsets.as_slice())
            + self
                .edge_strides
                .iter()
                .map(|v| std::mem::size_of::<Vec<usize>>() + std::mem::size_of_val(v.as_slice()))
                .sum::<usize>();
        (inline + heap) as u64
    }

    /// Network diameter: the maximum shortest-path distance between nodes.
    pub fn diameter(&self) -> u64 {
        self.dims
            .iter()
            .map(|&m| match self.topology {
                Topology::Mesh => u64::from(m) - 1,
                Topology::Torus => u64::from(m) / 2,
            })
            .sum()
    }

    /// True if every coordinate lies within the side lengths.
    #[inline]
    pub fn contains(&self, c: &Coord) -> bool {
        c.dim() == self.dim() && c.as_slice().iter().zip(&self.dims).all(|(&x, &m)| x < m)
    }

    /// Linear (row-major) node id of a coordinate.
    ///
    /// # Panics
    /// Panics in debug builds if the coordinate lies outside the mesh.
    #[inline]
    pub fn node_id(&self, c: &Coord) -> NodeId {
        debug_assert!(
            self.contains(c),
            "coordinate {c:?} outside mesh {:?}",
            self.dims
        );
        let mut idx = 0usize;
        for (i, &x) in c.as_slice().iter().enumerate() {
            idx += x as usize * self.strides[i];
        }
        NodeId(idx)
    }

    /// Coordinate of a node id.
    #[inline]
    pub fn coord(&self, id: NodeId) -> Coord {
        debug_assert!(id.0 < self.node_count);
        let mut c = Coord::origin(self.dim());
        let mut rem = id.0;
        for i in 0..self.dim() {
            c[i] = (rem / self.strides[i]) as u32;
            rem %= self.strides[i];
        }
        c
    }

    /// Distance along one axis, respecting wrap-around on the torus.
    #[inline]
    pub fn axis_dist(&self, axis: usize, a: u32, b: u32) -> u64 {
        let direct = u64::from(a.abs_diff(b));
        match self.topology {
            Topology::Mesh => direct,
            Topology::Torus => direct.min(u64::from(self.dims[axis]) - direct),
        }
    }

    /// Shortest-path distance `dist(a, b)` between two coordinates.
    #[inline]
    pub fn dist(&self, a: &Coord, b: &Coord) -> u64 {
        (0..self.dim()).map(|i| self.axis_dist(i, a[i], b[i])).sum()
    }

    /// Shortest-path distance between two node ids.
    #[inline]
    pub fn dist_ids(&self, a: NodeId, b: NodeId) -> u64 {
        self.dist(&self.coord(a), &self.coord(b))
    }

    /// Steps coordinate `c` one hop towards `target` along `axis`,
    /// choosing the shorter wrap direction on a torus. Returns the new
    /// coordinate, or `None` if `c` and `target` already agree on `axis`.
    pub fn step_towards(&self, c: &Coord, target: u32, axis: usize) -> Option<Coord> {
        let x = c[axis];
        if x == target {
            return None;
        }
        let m = self.dims[axis];
        let next = match self.topology {
            Topology::Mesh => {
                if target > x {
                    x + 1
                } else {
                    x - 1
                }
            }
            Topology::Torus => {
                let fwd = (target + m - x) % m; // steps going +1
                let bwd = (x + m - target) % m; // steps going -1
                if fwd <= bwd {
                    (x + 1) % m
                } else {
                    (x + m - 1) % m
                }
            }
        };
        Some(c.with(axis, next))
    }

    /// All neighbors of a coordinate (2d at interior nodes, fewer at mesh
    /// boundaries).
    pub fn neighbors(&self, c: &Coord) -> Vec<Coord> {
        let mut out = Vec::with_capacity(2 * self.dim());
        for axis in 0..self.dim() {
            let m = self.dims[axis];
            if m == 1 {
                continue;
            }
            let x = c[axis];
            match self.topology {
                Topology::Mesh => {
                    if x > 0 {
                        out.push(c.with(axis, x - 1));
                    }
                    if x + 1 < m {
                        out.push(c.with(axis, x + 1));
                    }
                }
                Topology::Torus => {
                    out.push(c.with(axis, (x + m - 1) % m));
                    if m > 2 {
                        out.push(c.with(axis, (x + 1) % m));
                    }
                }
            }
        }
        out
    }

    /// True if `a` and `b` are joined by a link.
    pub fn adjacent(&self, a: &Coord, b: &Coord) -> bool {
        if a.dim() != b.dim() || a == b {
            return false;
        }
        let mut diff_axis = None;
        for i in 0..self.dim() {
            if a[i] != b[i] {
                if diff_axis.is_some() {
                    return false;
                }
                diff_axis = Some(i);
            }
        }
        let axis = diff_axis.unwrap();
        self.axis_dist(axis, a[axis], b[axis]) == 1
    }

    /// The id of the undirected edge between two adjacent coordinates.
    ///
    /// # Panics
    /// Panics if the coordinates are not adjacent (exactly when
    /// [`Self::adjacent`] is false).
    #[inline]
    pub fn edge_id(&self, a: &Coord, b: &Coord) -> EdgeId {
        // One pass finds the differing axis and counts how many differ.
        let (mut axis, mut diffs) = (0, 0);
        for i in 0..self.dim() {
            if a[i] != b[i] {
                axis = i;
                diffs += 1;
            }
        }
        if a.dim() != b.dim() || diffs != 1 {
            not_adjacent(a, b);
        }
        let m = self.dims[axis];
        let (xa, xb) = (a[axis], b[axis]);
        // The owner is the lower endpoint, except for a torus wrap link
        // (between 0 and m-1, only present for m > 2) which is owned by
        // the m-1 endpoint.
        let is_wrap =
            self.topology == Topology::Torus && m > 2 && xa.min(xb) == 0 && xa.max(xb) == m - 1;
        if xa.abs_diff(xb) != 1 && !is_wrap {
            not_adjacent(a, b);
        }
        let owner = if (xa < xb) != is_wrap { a } else { b };
        let st = &self.edge_strides[axis];
        let mut slot = 0usize;
        for i in 0..self.dim() {
            slot += owner[i] as usize * st[i];
        }
        EdgeId(self.edge_offsets[axis] + slot)
    }

    /// The axis an edge runs along, and its owner (lower) endpoint.
    pub fn edge_endpoints(&self, e: EdgeId) -> (Coord, Coord) {
        let axis = match self.edge_offsets.binary_search(&e.0) {
            Ok(i) => {
                // Several axes may share an offset when some have zero edges;
                // take the last axis whose offset equals e.0 and has edges.
                let mut a = i;
                while a + 1 < self.dim() && self.edge_offsets[a + 1] == e.0 {
                    a += 1;
                }
                a
            }
            Err(i) => i - 1,
        };
        let slot = e.0 - self.edge_offsets[axis];
        let st = &self.edge_strides[axis];
        let mut owner = Coord::origin(self.dim());
        let mut rem = slot;
        for i in 0..self.dim() {
            owner[i] = (rem / st[i]) as u32;
            rem %= st[i];
        }
        let m = self.dims[axis];
        let other = owner.with(axis, (owner[axis] + 1) % m);
        (owner, other)
    }

    /// Iterator over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count).map(NodeId)
    }

    /// Iterator over all coordinates, in row-major order.
    pub fn coords(&self) -> impl Iterator<Item = Coord> + '_ {
        self.node_ids().map(move |id| self.coord(id))
    }
}

/// The panic of [`Mesh::edge_id`], kept out of its inlined body.
#[cold]
#[inline(never)]
fn not_adjacent(a: &Coord, b: &Coord) -> ! {
    panic!("{a:?} and {b:?} are not adjacent")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_indexing_roundtrip() {
        let m = Mesh::new_mesh(&[3, 4, 5]);
        assert_eq!(m.node_count(), 60);
        for id in m.node_ids() {
            assert_eq!(m.node_id(&m.coord(id)), id);
        }
    }

    #[test]
    fn edge_counts_2d_mesh() {
        let m = Mesh::new_mesh(&[4, 4]);
        // 4 columns * 3 + 4 rows * 3
        assert_eq!(m.edge_count(), 24);
    }

    #[test]
    fn edge_counts_2d_torus() {
        let t = Mesh::new_torus(&[4, 4]);
        assert_eq!(t.edge_count(), 32);
    }

    #[test]
    fn edge_counts_side_two_torus_has_no_double_edges() {
        let t = Mesh::new_torus(&[2, 2]);
        assert_eq!(t.edge_count(), 4); // same as the mesh: a 4-cycle
    }

    #[test]
    fn edge_ids_are_unique_and_dense() {
        for mesh in [
            Mesh::new_mesh(&[4, 4]),
            Mesh::new_mesh(&[3, 5]),
            Mesh::new_mesh(&[2, 3, 4]),
            Mesh::new_torus(&[4, 4]),
            Mesh::new_torus(&[3, 3, 3]),
            Mesh::new_mesh(&[7]),
            Mesh::new_mesh(&[1, 6]),
        ] {
            let mut seen = vec![false; mesh.edge_count()];
            for c in mesh.coords().collect::<Vec<_>>() {
                for nb in mesh.neighbors(&c) {
                    let e = mesh.edge_id(&c, &nb);
                    assert!(e.0 < mesh.edge_count());
                    // Symmetric
                    assert_eq!(e, mesh.edge_id(&nb, &c));
                    seen[e.0] = true;
                }
            }
            assert!(
                seen.iter().all(|&s| s),
                "edge ids not dense: {:?}",
                mesh.dims()
            );
        }
    }

    #[test]
    fn edge_endpoints_roundtrip() {
        for mesh in [
            Mesh::new_mesh(&[4, 4]),
            Mesh::new_torus(&[4, 3]),
            Mesh::new_mesh(&[2, 3, 4]),
        ] {
            for eid in 0..mesh.edge_count() {
                let (a, b) = mesh.edge_endpoints(EdgeId(eid));
                assert!(mesh.adjacent(&a, &b), "{a:?}-{b:?}");
                assert_eq!(mesh.edge_id(&a, &b), EdgeId(eid));
            }
        }
    }

    #[test]
    fn mesh_distance_is_l1() {
        let m = Mesh::new_mesh(&[8, 8]);
        let a = Coord::new(&[0, 0]);
        let b = Coord::new(&[7, 5]);
        assert_eq!(m.dist(&a, &b), 12);
    }

    #[test]
    fn torus_distance_wraps() {
        let t = Mesh::new_torus(&[8, 8]);
        let a = Coord::new(&[0, 0]);
        let b = Coord::new(&[7, 5]);
        assert_eq!(t.dist(&a, &b), 1 + 3);
    }

    #[test]
    fn diameter() {
        assert_eq!(Mesh::new_mesh(&[8, 8]).diameter(), 14);
        assert_eq!(Mesh::new_torus(&[8, 8]).diameter(), 8);
    }

    #[test]
    fn neighbors_at_corner_and_interior() {
        let m = Mesh::new_mesh(&[4, 4]);
        assert_eq!(m.neighbors(&Coord::new(&[0, 0])).len(), 2);
        assert_eq!(m.neighbors(&Coord::new(&[1, 2])).len(), 4);
        let t = Mesh::new_torus(&[4, 4]);
        assert_eq!(t.neighbors(&Coord::new(&[0, 0])).len(), 4);
    }

    #[test]
    fn step_towards_mesh() {
        let m = Mesh::new_mesh(&[8]);
        let c = Coord::new(&[3]);
        assert_eq!(m.step_towards(&c, 6, 0).unwrap()[0], 4);
        assert_eq!(m.step_towards(&c, 0, 0).unwrap()[0], 2);
        assert!(m.step_towards(&c, 3, 0).is_none());
    }

    #[test]
    fn step_towards_torus_takes_short_way() {
        let t = Mesh::new_torus(&[8]);
        let c = Coord::new(&[1]);
        // target 6: going backwards over the wrap (1 -> 0 -> 7 -> 6) is 3
        // steps, forward is 5 steps.
        assert_eq!(t.step_towards(&c, 6, 0).unwrap()[0], 0);
    }

    #[test]
    fn adjacency() {
        let m = Mesh::new_mesh(&[4, 4]);
        assert!(m.adjacent(&Coord::new(&[0, 0]), &Coord::new(&[0, 1])));
        assert!(!m.adjacent(&Coord::new(&[0, 0]), &Coord::new(&[1, 1])));
        assert!(!m.adjacent(&Coord::new(&[0, 0]), &Coord::new(&[0, 3])));
        let t = Mesh::new_torus(&[4, 4]);
        assert!(t.adjacent(&Coord::new(&[0, 0]), &Coord::new(&[0, 3])));
    }

    #[test]
    fn one_dimensional_line() {
        let m = Mesh::new_mesh(&[5]);
        assert_eq!(m.edge_count(), 4);
        assert_eq!(m.diameter(), 4);
    }

    #[test]
    fn degenerate_side_one() {
        let m = Mesh::new_mesh(&[1, 5]);
        assert_eq!(m.node_count(), 5);
        assert_eq!(m.edge_count(), 4);
        assert_eq!(m.neighbors(&Coord::new(&[0, 2])).len(), 2);
    }
}
