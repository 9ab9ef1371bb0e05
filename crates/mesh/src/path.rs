//! Packet paths: walks through the mesh.

use crate::coord::Coord;
use crate::decode_ids;
use crate::mesh::{EdgeId, Mesh, NodeId};
use std::marker::PhantomData;

/// A walk through the mesh: a sequence of pairwise-adjacent coordinates.
///
/// The length of a path `|p|` is the number of links it uses
/// (`nodes.len() - 1`); a single-node path has length 0 (Section 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Path {
    nodes: Vec<Coord>,
}

impl Path {
    /// Creates a path from a node sequence, validating adjacency.
    ///
    /// # Panics
    /// Panics if the sequence is empty or two consecutive nodes are not
    /// adjacent in `mesh`.
    pub fn new(mesh: &Mesh, nodes: Vec<Coord>) -> Self {
        assert!(!nodes.is_empty(), "a path must contain at least one node");
        for w in nodes.windows(2) {
            assert!(
                mesh.adjacent(&w[0], &w[1]),
                "non-adjacent consecutive path nodes {:?} and {:?}",
                w[0],
                w[1]
            );
        }
        Self { nodes }
    }

    /// Creates a path without validating adjacency.
    ///
    /// Intended for construction sites that guarantee adjacency by
    /// construction (the routers); validity is still enforced in tests.
    pub fn new_unchecked(nodes: Vec<Coord>) -> Self {
        debug_assert!(!nodes.is_empty());
        Self { nodes }
    }

    /// Decodes a walk of adjacent node ids ([`Mesh::node_id`] as `u32`,
    /// `ids[0]` the id of `start`) into a path with [`decode_ids`]: a
    /// compare and an add per hop, no division, and one allocation of
    /// the exact size.
    ///
    /// # Panics
    /// Panics if `ids` is empty or two consecutive ids are not adjacent.
    pub fn from_ids(mesh: &Mesh, start: &Coord, ids: &[u32]) -> Self {
        let mut nodes = Vec::with_capacity(ids.len());
        decode_ids(mesh, start, ids, |c| nodes.push(c));
        Self { nodes }
    }

    /// The node ids of the path, the inverse of [`Self::from_ids`].
    pub fn node_ids<'a>(&'a self, mesh: &'a Mesh) -> impl Iterator<Item = u32> + 'a {
        self.nodes.iter().map(|c| {
            let NodeId(id) = mesh.node_id(c);
            id as u32
        })
    }

    /// The trivial path sitting at one node.
    pub fn trivial(c: Coord) -> Self {
        Self { nodes: vec![c] }
    }

    /// First node (the packet source).
    #[inline]
    pub fn source(&self) -> &Coord {
        self.nodes.first().unwrap()
    }

    /// Last node (the packet destination).
    #[inline]
    pub fn target(&self) -> &Coord {
        self.nodes.last().unwrap()
    }

    /// Number of links used, `|p|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len() - 1
    }

    /// True if the path uses no links (source equals destination).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The node sequence.
    #[inline]
    pub fn nodes(&self) -> &[Coord] {
        &self.nodes
    }

    /// Iterator over the links used, as `(from, to)` coordinate pairs.
    pub fn hops(&self) -> impl Iterator<Item = (&Coord, &Coord)> {
        self.nodes.windows(2).map(|w| (&w[0], &w[1]))
    }

    /// Iterator over the undirected edge ids used.
    pub fn edge_ids<'a>(&'a self, mesh: &'a Mesh) -> impl Iterator<Item = EdgeId> + 'a {
        self.hops().map(move |(a, b)| mesh.edge_id(a, b))
    }

    /// True if every consecutive pair is adjacent in `mesh`.
    pub fn is_valid(&self, mesh: &Mesh) -> bool {
        self.nodes.windows(2).all(|w| mesh.adjacent(&w[0], &w[1]))
    }

    /// The stretch of the path: `|p| / dist(s, t)` (Section 2).
    ///
    /// Returns 1.0 for a trivial (`s == t`) path, matching the convention
    /// that the smallest stretch factor is 1.
    pub fn stretch(&self, mesh: &Mesh) -> f64 {
        let d = mesh.dist(self.source(), self.target());
        if d == 0 {
            return 1.0;
        }
        self.len() as f64 / d as f64
    }

    /// Removes all cycles, producing a simple (acyclic) walk with the same
    /// endpoints that uses a subsequence of the original links.
    ///
    /// The paper observes (after Lemma 3.8) that cycles can always be
    /// removed without increasing expected congestion. The walk is scanned
    /// left to right and compacted in place; on revisiting a node, the
    /// output is cut back to that node's first occurrence. The result
    /// visits each node at most once.
    ///
    /// Each node's output position is found in a [`CycleTable`]: open
    /// addressing keyed by a multiplicative hash of the components (no
    /// SipHash; the route kernel keys the same table by node id), where
    /// an entry counts only while the output still holds
    /// that node at that position. Cutting a loop therefore deletes
    /// nothing, and entries stamped per walk make clearing unnecessary:
    /// expected time is linear in the walk. Use
    /// [`CycleTable::remove_cycles`] to keep the table across walks.
    pub fn remove_cycles(&mut self) {
        CycleTable::default().remove_cycles(&mut self.nodes);
    }

    /// Returns a cycle-free copy (see [`Self::remove_cycles`]).
    pub fn without_cycles(&self) -> Path {
        let mut p = self.clone();
        p.remove_cycles();
        p
    }

    /// Appends another path starting where this one ends.
    ///
    /// # Panics
    /// Panics if `other` does not start at `self.target()`.
    pub fn extend_with(&mut self, other: &Path) {
        assert_eq!(
            self.target(),
            other.source(),
            "path concatenation endpoints mismatch"
        );
        self.nodes.extend_from_slice(&other.nodes[1..]);
    }

    /// True if no node repeats.
    pub fn is_simple(&self) -> bool {
        let mut seen = std::collections::HashSet::with_capacity(self.nodes.len());
        self.nodes.iter().all(|c| seen.insert(*c))
    }
}

/// A walk node that cycle removal can key on: a [`Coord`], or a node
/// id of the route kernel's `u32` walk.
pub trait CycleKey: Copy + Eq {
    /// A multiplicative (Fx-style) hash; the table takes its top bits.
    fn cycle_hash(&self) -> u64;
}

const HASH_MUL: u64 = 0x517C_C1B7_2722_0A95;

impl CycleKey for Coord {
    #[inline]
    fn cycle_hash(&self) -> u64 {
        self.as_slice().iter().fold(0u64, |h, &x| {
            (h.rotate_left(5) ^ u64::from(x)).wrapping_mul(HASH_MUL)
        })
    }
}

impl CycleKey for u32 {
    #[inline]
    fn cycle_hash(&self) -> u64 {
        u64::from(*self).wrapping_mul(HASH_MUL)
    }
}

/// The lookup table of cycle removal, reusable across walks: keyed by
/// [`Coord`] for [`Path::remove_cycles`] and by `u32` node id for the
/// route kernel.
///
/// An open-addressing table keyed by a multiplicative hash of the node
/// ([`CycleKey`]). A slot holds an output position, tagged with the
/// stamp of the walk that wrote it; a slot with another stamp is empty,
/// so starting a new walk costs one increment instead of a clear. A slot
/// counts as a hit for `c` only while the output still holds `c` at its
/// position, so cutting a loop deletes nothing: the slots of the cut
/// nodes simply stop matching. Each walk node writes at most one slot
/// and the table keeps at least twice as many slots as the walk has
/// nodes, so probe chains stay short and always end at an empty slot.
/// The table holds no per-mesh state: it grows with the longest walk.
#[derive(Debug, Clone)]
pub struct CycleTable<K = Coord> {
    /// `stamp << 32 | position`.
    slots: Vec<u64>,
    stamp: u32,
    key: PhantomData<K>,
}

impl<K> Default for CycleTable<K> {
    fn default() -> Self {
        Self {
            slots: Vec::new(),
            stamp: 0,
            key: PhantomData,
        }
    }
}

impl<K: CycleKey> CycleTable<K> {
    /// Removes every cycle of the walk `nodes` in place; see
    /// [`Path::remove_cycles`].
    pub fn remove_cycles(&mut self, nodes: &mut Vec<K>) {
        let kept = self.cut(nodes);
        nodes.truncate(kept);
    }

    /// Compacts the cycle-free walk of `nodes` into its front and
    /// returns its length; what follows it is left over.
    pub fn cut(&mut self, nodes: &mut [K]) -> usize {
        let n = nodes.len();
        if n <= 2 {
            return n;
        }
        let want = (2 * n).next_power_of_two();
        if self.slots.len() < want {
            self.slots.clear();
            self.slots.resize(want, 0);
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.slots.fill(0);
            self.stamp = 1;
        }
        let tag = u64::from(self.stamp) << 32;
        let shift = 64 - self.slots.len().trailing_zeros();
        let mask = self.slots.len() - 1;
        let mut len = 0;
        for i in 0..n {
            let c = nodes[i];
            let mut slot = (c.cycle_hash() >> shift) as usize;
            loop {
                let entry = self.slots[slot];
                if entry & !0xFFFF_FFFF != tag {
                    self.slots[slot] = tag | len as u64;
                    nodes[len] = c;
                    len += 1;
                    break;
                }
                let pos = entry as u32 as usize;
                if pos < len && nodes[pos] == c {
                    len = pos + 1;
                    break;
                }
                slot = (slot + 1) & mask;
            }
        }
        len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::Mesh;

    fn c(xs: &[u32]) -> Coord {
        Coord::new(xs)
    }

    #[test]
    fn construction_and_len() {
        let m = Mesh::new_mesh(&[4, 4]);
        let p = Path::new(&m, vec![c(&[0, 0]), c(&[0, 1]), c(&[1, 1])]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.source(), &c(&[0, 0]));
        assert_eq!(p.target(), &c(&[1, 1]));
        assert!(p.is_valid(&m));
    }

    #[test]
    #[should_panic]
    fn invalid_hop_panics() {
        let m = Mesh::new_mesh(&[4, 4]);
        let _ = Path::new(&m, vec![c(&[0, 0]), c(&[2, 0])]);
    }

    #[test]
    fn trivial_path() {
        let m = Mesh::new_mesh(&[4, 4]);
        let p = Path::trivial(c(&[2, 2]));
        assert!(p.is_empty());
        assert_eq!(p.stretch(&m), 1.0);
    }

    #[test]
    fn stretch_of_shortest_path_is_one() {
        let m = Mesh::new_mesh(&[4, 4]);
        let p = Path::new(&m, vec![c(&[0, 0]), c(&[0, 1]), c(&[0, 2])]);
        assert_eq!(p.stretch(&m), 1.0);
    }

    #[test]
    fn stretch_detour() {
        let m = Mesh::new_mesh(&[4, 4]);
        let p = Path::new(&m, vec![c(&[0, 0]), c(&[1, 0]), c(&[1, 1]), c(&[0, 1])]);
        assert_eq!(p.stretch(&m), 3.0);
    }

    #[test]
    fn remove_cycles_simple_loop() {
        let m = Mesh::new_mesh(&[4, 4]);
        // 00 -> 01 -> 11 -> 10 -> 00 -> 01... back to start then onward
        let mut p = Path::new(
            &m,
            vec![
                c(&[0, 0]),
                c(&[0, 1]),
                c(&[1, 1]),
                c(&[1, 0]),
                c(&[0, 0]),
                c(&[0, 1]),
                c(&[0, 2]),
            ],
        );
        p.remove_cycles();
        assert_eq!(p.nodes(), &[c(&[0, 0]), c(&[0, 1]), c(&[0, 2])]);
        assert!(p.is_simple());
        assert!(p.is_valid(&m));
    }

    #[test]
    fn remove_cycles_immediate_backtrack() {
        let m = Mesh::new_mesh(&[4, 4]);
        let mut p = Path::new(&m, vec![c(&[0, 0]), c(&[0, 1]), c(&[0, 0]), c(&[1, 0])]);
        p.remove_cycles();
        assert_eq!(p.nodes(), &[c(&[0, 0]), c(&[1, 0])]);
    }

    #[test]
    fn remove_cycles_idempotent() {
        let m = Mesh::new_mesh(&[4, 4]);
        let mut p = Path::new(
            &m,
            vec![
                c(&[0, 0]),
                c(&[0, 1]),
                c(&[1, 1]),
                c(&[1, 0]),
                c(&[0, 0]),
                c(&[0, 1]),
            ],
        );
        p.remove_cycles();
        let once = p.clone();
        p.remove_cycles();
        assert_eq!(p, once);
        assert_eq!(p.nodes(), &[c(&[0, 0]), c(&[0, 1])]);
    }

    #[test]
    fn remove_cycles_preserves_endpoints() {
        let m = Mesh::new_mesh(&[4, 4]);
        let mut p = Path::new(
            &m,
            vec![
                c(&[2, 2]),
                c(&[2, 3]),
                c(&[3, 3]),
                c(&[3, 2]),
                c(&[2, 2]),
                c(&[1, 2]),
            ],
        );
        let (s, t) = (*p.source(), *p.target());
        p.remove_cycles();
        assert_eq!((*p.source(), *p.target()), (s, t));
    }

    #[test]
    fn extend_with_concatenates() {
        let m = Mesh::new_mesh(&[4, 4]);
        let mut p = Path::new(&m, vec![c(&[0, 0]), c(&[0, 1])]);
        let q = Path::new(&m, vec![c(&[0, 1]), c(&[1, 1])]);
        p.extend_with(&q);
        assert_eq!(p.len(), 2);
        assert_eq!(p.target(), &c(&[1, 1]));
    }

    #[test]
    #[should_panic]
    fn extend_with_mismatch_panics() {
        let m = Mesh::new_mesh(&[4, 4]);
        let mut p = Path::new(&m, vec![c(&[0, 0]), c(&[0, 1])]);
        let q = Path::new(&m, vec![c(&[1, 1]), c(&[1, 0])]);
        p.extend_with(&q);
    }

    #[test]
    fn edge_ids_count() {
        let m = Mesh::new_mesh(&[4, 4]);
        let p = Path::new(&m, vec![c(&[0, 0]), c(&[0, 1]), c(&[1, 1])]);
        assert_eq!(p.edge_ids(&m).count(), 2);
    }
}
