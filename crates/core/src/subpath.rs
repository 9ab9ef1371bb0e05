//! Dimension-by-dimension shortest subpaths.
//!
//! Every subpath `r_i` of the paper's algorithm walks from one random node
//! to the next by correcting coordinates one dimension at a time, in a
//! (possibly random) dimension order — in 2-D this is the classic
//! "at most one-bend" path of Lemma 3.5. Such a walk is always a shortest
//! path between its endpoints.

use oblivion_mesh::{Coord, Mesh, Path, Topology, MAX_ID_WALK_NODES};

/// The route kernel's one walk: a running coordinate and its node id
/// ([`Mesh::node_id`] as `u32`), pushing one id per hop. An axis run adds
/// `±stride` per hop; on a torus the shorter way round may cross the wrap
/// link once, a hop of `∓(m − 1)·stride`. [`oblivion_mesh::decode_ids`]
/// reads the ids back.
#[derive(Debug, Clone)]
pub(crate) struct IdWalk<'m> {
    mesh: &'m Mesh,
    cur: Coord,
    id: u32,
}

impl<'m> IdWalk<'m> {
    /// A walk standing at `s`, whose id it pushes onto `out`.
    ///
    /// # Panics
    /// Panics if the mesh has more than [`MAX_ID_WALK_NODES`] nodes.
    pub(crate) fn start(mesh: &'m Mesh, s: &Coord, out: &mut Vec<u32>) -> Self {
        assert!(
            mesh.node_count() <= MAX_ID_WALK_NODES,
            "a {}-node mesh is too large for u32 id walks",
            mesh.node_count()
        );
        let id = mesh.node_id(s).0 as u32;
        out.push(id);
        Self { mesh, cur: *s, id }
    }

    /// Pushes onto `out` the ids of the dimension-by-dimension shortest
    /// walk to `to`, visiting dimensions in `order`; the node it stands on
    /// is **not** pushed again. Afterwards it stands on `to`.
    ///
    /// The nodes are those of repeated [`Mesh::step_towards`] calls, but
    /// each axis segment's direction and length are found once and its
    /// run pushed in a tight loop: on a torus the shorter way round never
    /// changes along a segment (ties go forward, as in `step_towards`).
    pub(crate) fn to(&mut self, to: &Coord, order: &[usize], out: &mut Vec<u32>) {
        debug_assert_eq!(self.cur.dim(), to.dim());
        debug_assert_eq!(order.len(), self.cur.dim());
        let torus = self.mesh.topology() == Topology::Torus;
        for &axis in order {
            let (x, target) = (self.cur[axis], to[axis]);
            if x == target {
                continue;
            }
            let m = self.mesh.side(axis);
            let (forward, len) = if torus {
                let fwd = (target + m - x) % m;
                let bwd = (x + m - target) % m;
                (fwd <= bwd, fwd.min(bwd))
            } else {
                (target > x, x.abs_diff(target))
            };
            // The hop crossing the wrap link, if any, comes after `before`
            // plain hops.
            let before = len.min(if forward { m - 1 - x } else { x });
            let stride = self.mesh.strides()[axis] as u32;
            let wrap = (m - 1).wrapping_mul(stride);
            let (step, wrap) = if forward {
                (stride, wrap.wrapping_neg())
            } else {
                (stride.wrapping_neg(), wrap)
            };
            out.reserve(len as usize);
            let mut id = self.id;
            for k in 0..len {
                id = id.wrapping_add(if k == before { wrap } else { step });
                out.push(id);
            }
            self.id = id;
            self.cur[axis] = target;
        }
        debug_assert_eq!(&self.cur, to);
        debug_assert_eq!(self.id as usize, self.mesh.node_id(to).0);
    }
}

/// Appends to `out` the nodes of the dimension-by-dimension shortest walk
/// from `*cur` to `to`, visiting dimensions in `order`; `*cur` itself is
/// **not** appended (callers seed it). Afterwards `*cur == to`.
///
/// The coordinate form of the route kernel's id walk: the walk is taken in
/// node ids and decoded.
pub fn extend_dim_by_dim(
    mesh: &Mesh,
    cur: &mut Coord,
    to: &Coord,
    order: &[usize],
    out: &mut Vec<Coord>,
) {
    let mut ids = Vec::new();
    IdWalk::start(mesh, cur, &mut ids).to(to, order, &mut ids);
    out.extend_from_slice(&Path::from_ids(mesh, cur, &ids).nodes()[1..]);
    *cur = *to;
}

/// The full dimension-by-dimension walk from `from` to `to` as a node list
/// (including both endpoints).
pub fn dim_by_dim(mesh: &Mesh, from: &Coord, to: &Coord, order: &[usize]) -> Vec<Coord> {
    let mut out = vec![*from];
    let mut cur = *from;
    extend_dim_by_dim(mesh, &mut cur, to, order, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use oblivion_mesh::Path;

    fn c(xs: &[u32]) -> Coord {
        Coord::new(xs)
    }

    #[test]
    fn xy_path_is_one_bend() {
        let mesh = Mesh::new_mesh(&[8, 8]);
        let nodes = dim_by_dim(&mesh, &c(&[1, 1]), &c(&[4, 6]), &[0, 1]);
        let p = Path::new(&mesh, nodes);
        assert_eq!(p.len() as u64, mesh.dist(&c(&[1, 1]), &c(&[4, 6])));
        // First leg moves only in x, second only in y.
        let corner = c(&[4, 1]);
        assert!(p.nodes().contains(&corner));
    }

    #[test]
    fn yx_path_bends_the_other_way() {
        let mesh = Mesh::new_mesh(&[8, 8]);
        let nodes = dim_by_dim(&mesh, &c(&[1, 1]), &c(&[4, 6]), &[1, 0]);
        let p = Path::new(&mesh, nodes);
        assert!(p.nodes().contains(&c(&[1, 6])));
        assert_eq!(p.len() as u64, 8);
    }

    #[test]
    fn walk_is_always_shortest() {
        let mesh = Mesh::new_mesh(&[4, 4, 4]);
        let from = c(&[0, 3, 1]);
        let to = c(&[3, 0, 2]);
        for order in [[0, 1, 2], [2, 1, 0], [1, 0, 2]] {
            let nodes = dim_by_dim(&mesh, &from, &to, &order);
            let p = Path::new(&mesh, nodes);
            assert_eq!(p.len() as u64, mesh.dist(&from, &to));
        }
    }

    #[test]
    fn trivial_walk() {
        let mesh = Mesh::new_mesh(&[4, 4]);
        let nodes = dim_by_dim(&mesh, &c(&[2, 2]), &c(&[2, 2]), &[0, 1]);
        assert_eq!(nodes.len(), 1);
    }

    #[test]
    fn torus_walk_takes_wrap_shortcut() {
        let mesh = Mesh::new_torus(&[8, 8]);
        let nodes = dim_by_dim(&mesh, &c(&[0, 0]), &c(&[7, 0]), &[0, 1]);
        let p = Path::new(&mesh, nodes);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn extend_does_not_duplicate_seed() {
        let mesh = Mesh::new_mesh(&[4, 4]);
        let mut cur = c(&[0, 0]);
        let mut out = vec![cur];
        extend_dim_by_dim(&mesh, &mut cur, &c(&[1, 1]), &[0, 1], &mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], c(&[0, 0]));
    }
}
