//! Walks in node ids: the route kernel's 4-byte form of a path.
//!
//! A node id is the row-major index of [`Mesh::node_id`] narrowed to
//! `u32`. Along a walk every hop changes one component by one, so each
//! hop moves the id by `±stride` of its axis, or, over a torus wrap
//! link, by `∓(m − 1)·stride`. [`decode_ids`] turns such a walk back into
//! coordinates without dividing: it keeps a running coordinate and the
//! previous hop's delta, and an axis run repeats that delta, so a hop
//! costs one compare and one (vector) add.

use crate::coord::{Coord, MAX_DIM};
use crate::mesh::{Mesh, Topology};

/// The largest mesh a `u32` id walk covers. Ids and hop deltas then stay
/// below `2^31`, so a backward delta (a wrapped `u32`) never equals a
/// forward one.
pub const MAX_ID_WALK_NODES: usize = 1 << 31;

/// Decodes a walk of adjacent node ids into coordinates: calls `each`
/// on `start` (whose id is `ids[0]`), then on the node of every further
/// id, in order.
///
/// The running coordinate and the current hop's change live in locals,
/// so along an axis run a hop is one compare and one vector add. A hop
/// whose delta differs from the previous one looks its change up in a
/// table of the mesh's hop deltas built once per call: compares over
/// every axis at once, with no branch on which one matches.
///
/// ```
/// use oblivion_mesh::{decode_ids, Coord, Mesh};
/// let m = Mesh::new_torus(&[4, 4]);
/// let mut nodes = Vec::new();
/// // (0,3) -> (0,0) over the wrap link, then (1,0).
/// decode_ids(&m, &Coord::new(&[0, 3]), &[3, 0, 4], |c| nodes.push(c));
/// assert_eq!(nodes, [Coord::new(&[0, 3]), Coord::new(&[0, 0]), Coord::new(&[1, 0])]);
/// ```
///
/// # Panics
/// Panics if `ids` is empty, the mesh has more than
/// [`MAX_ID_WALK_NODES`] nodes, or two consecutive ids are neither equal
/// nor adjacent.
#[inline]
pub fn decode_ids(mesh: &Mesh, start: &Coord, ids: &[u32], mut each: impl FnMut(Coord)) {
    debug_assert_eq!(Some(&(mesh.node_id(start).0 as u32)), ids.first());
    let (&first, rest) = ids.split_first().expect("an id walk holds its start");
    let table = HopTable::new(mesh);
    let mut cur = *start;
    each(cur);
    let (mut id, mut delta, mut step) = (first, 0u32, [0u32; MAX_DIM]);
    for &next in rest {
        let d = next.wrapping_sub(id);
        if d != delta {
            delta = d;
            step = table.step(id, d);
        }
        cur.wrapping_add_all(&step);
        id = next;
        each(cur);
    }
}

/// An id delta no hop has: every hop moves an id by less than `2^31`
/// either way.
const NO_HOP: u32 = 1 << 31;

/// The id delta of every kind of hop a mesh has, per axis: one step up,
/// one step down, and on a torus ring of side `m > 2` the two wrap links,
/// which change the component by `∓(m − 1)`. A missing kind holds
/// [`NO_HOP`].
struct HopTable {
    up: [u32; MAX_DIM],
    down: [u32; MAX_DIM],
    wrap_up: [u32; MAX_DIM],
    wrap_down: [u32; MAX_DIM],
    wrap_change: [u32; MAX_DIM],
}

impl HopTable {
    fn new(mesh: &Mesh) -> Self {
        assert!(
            mesh.node_count() <= MAX_ID_WALK_NODES,
            "a {}-node mesh is too large for u32 id walks",
            mesh.node_count()
        );
        let torus = mesh.topology() == Topology::Torus;
        let mut t = Self {
            up: [NO_HOP; MAX_DIM],
            down: [NO_HOP; MAX_DIM],
            wrap_up: [NO_HOP; MAX_DIM],
            wrap_down: [NO_HOP; MAX_DIM],
            wrap_change: [0; MAX_DIM],
        };
        for (axis, (&m, &stride)) in mesh.dims().iter().zip(mesh.strides()).enumerate() {
            if m == 1 {
                continue;
            }
            let stride = stride as u32;
            t.up[axis] = stride;
            t.down[axis] = stride.wrapping_neg();
            if torus && m > 2 {
                // Up from m − 1 wraps to 0: the id drops by (m − 1)·stride.
                t.wrap_up[axis] = ((m - 1) * stride).wrapping_neg();
                t.wrap_down[axis] = (m - 1) * stride;
                t.wrap_change[axis] = m - 1;
            }
        }
        t
    }

    /// The (wrapping) change to the coordinate of the hop from node
    /// `from` by id delta `delta`: one nonzero slot, or none for a zero
    /// delta. Deltas of distinct hop kinds never coincide.
    #[inline]
    fn step(&self, from: u32, delta: u32) -> [u32; MAX_DIM] {
        let mut step = [0u32; MAX_DIM];
        for (axis, s) in step.iter_mut().enumerate() {
            let hit = |table: &[u32; MAX_DIM]| u32::from(delta == table[axis]);
            *s = hit(&self.up)
                .wrapping_sub(hit(&self.down))
                .wrapping_add(hit(&self.wrap_down).wrapping_mul(self.wrap_change[axis]))
                .wrapping_sub(hit(&self.wrap_up).wrapping_mul(self.wrap_change[axis]));
        }
        if delta != 0 && step == [0; MAX_DIM] {
            not_adjacent(from, delta);
        }
        step
    }
}

#[cold]
#[inline(never)]
fn not_adjacent(from: u32, delta: u32) -> ! {
    panic!(
        "node ids {from} and {} are not adjacent",
        from.wrapping_add(delta)
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::NodeId;

    fn decoded(m: &Mesh, walk: &[&[u32]]) -> Vec<Coord> {
        let ids: Vec<u32> = walk
            .iter()
            .map(|xs| m.node_id(&Coord::new(xs)).0 as u32)
            .collect();
        let mut out = Vec::new();
        decode_ids(m, &Coord::new(walk[0]), &ids, |c| out.push(c));
        out
    }

    fn coords(walk: &[&[u32]]) -> Vec<Coord> {
        walk.iter().map(|xs| Coord::new(xs)).collect()
    }

    #[test]
    fn decodes_runs_turns_and_wraps() {
        let m = Mesh::new_torus(&[3, 5, 2]);
        let walk: [&[u32]; 8] = [
            &[0, 0, 0],
            &[0, 4, 0], // wrap backward on the side-5 ring
            &[0, 3, 0],
            &[2, 3, 0], // wrap backward on the side-3 ring
            &[0, 3, 0], // wrap forward
            &[0, 3, 1], // the side-2 axis has no wrap link
            &[0, 3, 0],
            &[1, 3, 0],
        ];
        assert_eq!(decoded(&m, &walk), coords(&walk));
    }

    #[test]
    fn a_repeated_id_stays_put() {
        let m = Mesh::new_mesh(&[4, 4]);
        let walk: [&[u32]; 4] = [&[1, 1], &[1, 1], &[1, 2], &[1, 2]];
        assert_eq!(decoded(&m, &walk), coords(&walk));
    }

    #[test]
    fn side_one_axes_are_skipped() {
        // Strides [4, 4, 1]: a +4 delta is axis 0, never the side-1 axis.
        let m = Mesh::new_mesh(&[4, 1, 4]);
        let walk: [&[u32]; 2] = [&[0, 0, 2], &[1, 0, 2]];
        assert_eq!(decoded(&m, &walk), coords(&walk));
        assert_eq!(m.coord(NodeId(6)), Coord::new(&[1, 0, 2]));
    }

    #[test]
    #[should_panic(expected = "not adjacent")]
    fn a_jump_panics() {
        let m = Mesh::new_mesh(&[4, 4]);
        decode_ids(&m, &Coord::new(&[0, 0]), &[0, 2], |_| {});
    }

    #[test]
    #[should_panic(expected = "not adjacent")]
    fn a_mesh_has_no_wrap_links() {
        let m = Mesh::new_mesh(&[4]);
        decode_ids(&m, &Coord::new(&[0]), &[0, 3], |_| {});
    }
}
