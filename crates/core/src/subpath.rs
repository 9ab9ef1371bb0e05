//! Dimension-by-dimension shortest subpaths.
//!
//! Every subpath `r_i` of the paper's algorithm walks from one random node
//! to the next by correcting coordinates one dimension at a time, in a
//! (possibly random) dimension order — in 2-D this is the classic
//! "at most one-bend" path of Lemma 3.5. Such a walk is always a shortest
//! path between its endpoints.

use oblivion_mesh::{with_dim, Coord, Mesh, Path, Topology, MAX_ID_WALK_NODES};

/// The mesh as the route kernel reads it: sides and row-major strides as
/// `[u32; D]`, with `D` fixed at compile time. Copied out of the [`Mesh`]
/// once per call, so nothing is built at start-up.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Grid<const D: usize> {
    sides: [u32; D],
    strides: [u32; D],
    torus: bool,
}

impl<const D: usize> Grid<D> {
    /// The grid of a `D`-dimensional mesh.
    ///
    /// # Panics
    /// Panics if the mesh has more than [`MAX_ID_WALK_NODES`] nodes.
    #[inline]
    pub(crate) fn of(mesh: &Mesh) -> Self {
        assert!(
            mesh.node_count() <= MAX_ID_WALK_NODES,
            "a {}-node mesh is too large for u32 id walks",
            mesh.node_count()
        );
        debug_assert_eq!(mesh.dim(), D);
        Self {
            sides: std::array::from_fn(|i| mesh.side(i)),
            strides: std::array::from_fn(|i| mesh.strides()[i] as u32),
            torus: mesh.topology() == Topology::Torus,
        }
    }

    /// Side length along `axis`.
    #[inline]
    pub(crate) fn side(&self, axis: usize) -> u32 {
        self.sides[axis]
    }

    /// Node id ([`Mesh::node_id`] as `u32`) of `c`.
    #[inline]
    fn id(&self, c: &[u32; D]) -> u32 {
        (0..D).map(|i| c[i] * self.strides[i]).sum()
    }

    /// Shortest-path distance, [`Mesh::dist`].
    #[inline]
    pub(crate) fn dist(&self, a: &[u32; D], b: &[u32; D]) -> u64 {
        (0..D)
            .map(|i| {
                let direct = a[i].abs_diff(b[i]);
                let d = if self.torus {
                    direct.min(self.sides[i] - direct)
                } else {
                    direct
                };
                u64::from(d)
            })
            .sum()
    }
}

/// The route kernel's run pusher: a running coordinate and its node id,
/// pushing one id per hop. Each axis run is one `extend` over an
/// arithmetic progression of step `±stride`; on a torus the shorter way
/// round may cross the wrap link once, a hop of `∓(m − 1)·stride` that
/// splits the run in two. [`oblivion_mesh::decode_ids`] reads the ids
/// back.
#[derive(Debug, Clone)]
pub(crate) struct Cursor<'g, const D: usize> {
    grid: &'g Grid<D>,
    at: [u32; D],
    id: u32,
}

impl<'g, const D: usize> Cursor<'g, D> {
    /// A cursor standing at `s`, whose id it pushes onto `out`.
    #[inline]
    pub(crate) fn start(grid: &'g Grid<D>, s: &[u32; D], out: &mut Vec<u32>) -> Self {
        let id = grid.id(s);
        out.push(id);
        Self { grid, at: *s, id }
    }

    /// Pushes onto `out` the ids of the dimension-by-dimension shortest
    /// walk to `to`, visiting dimensions in `order`; the node it stands on
    /// is **not** pushed again. Afterwards it stands on `to`.
    ///
    /// The nodes are those of repeated [`Mesh::step_towards`] calls: on a
    /// torus the shorter way round never changes along a segment (ties go
    /// forward, as in `step_towards`).
    #[inline]
    pub(crate) fn to(&mut self, to: &[u32; D], order: &[usize], out: &mut Vec<u32>) {
        debug_assert_eq!(order.len(), D);
        for &axis in order {
            let (x, target) = (self.at[axis], to[axis]);
            let stride = self.grid.strides[axis];
            self.id = if self.grid.torus {
                self.torus_run(axis, target, out)
            } else {
                // The direction is a select and an empty run pushes
                // nothing, so a random walk's mesh run takes no
                // data-dependent branch before its loop.
                let step = if target > x {
                    stride
                } else {
                    stride.wrapping_neg()
                };
                push_run(out, self.id, step, x.abs_diff(target))
            };
            self.at[axis] = target;
        }
        debug_assert_eq!(&self.at, to);
        debug_assert_eq!(self.id, self.grid.id(to));
    }

    /// Pushes the torus run along `axis` to `target` the shorter way
    /// round (ties go forward) and returns the id it ends on. The run
    /// crosses the wrap link at most once, after `before` plain hops.
    #[inline]
    fn torus_run(&self, axis: usize, target: u32, out: &mut Vec<u32>) -> u32 {
        let x = self.at[axis];
        if x == target {
            return self.id;
        }
        let (m, stride) = (self.grid.sides[axis], self.grid.strides[axis]);
        let fwd = if target > x {
            target - x
        } else {
            target + m - x
        };
        let forward = fwd <= m - fwd;
        let len = fwd.min(m - fwd);
        let before = len.min(if forward { m - 1 - x } else { x });
        let step = if forward {
            stride
        } else {
            stride.wrapping_neg()
        };
        let id = push_run(out, self.id, step, before);
        if before == len {
            return id;
        }
        let wrap = (m - 1) * stride;
        let id = if forward {
            id.wrapping_sub(wrap)
        } else {
            id.wrapping_add(wrap)
        };
        out.push(id);
        push_run(out, id, step, len - before - 1)
    }
}

/// Pushes `from + step, …, from + n·step` (wrapping) onto `out` with one
/// `extend` and returns the last id pushed (`from` if `n = 0`).
#[inline]
fn push_run(out: &mut Vec<u32>, from: u32, step: u32, n: u32) -> u32 {
    out.extend((1..n + 1).map(|k| from.wrapping_add(k.wrapping_mul(step))));
    from.wrapping_add(n.wrapping_mul(step))
}

/// Appends to `out` the nodes of the dimension-by-dimension shortest walk
/// from `*cur` to `to`, visiting dimensions in `order`; `*cur` itself is
/// **not** appended (callers seed it). Afterwards `*cur == to`.
///
/// The coordinate form of the route kernel's run pusher: the walk is
/// taken in node ids and decoded.
pub fn extend_dim_by_dim(
    mesh: &Mesh,
    cur: &mut Coord,
    to: &Coord,
    order: &[usize],
    out: &mut Vec<Coord>,
) {
    let mut ids = Vec::new();
    with_dim!(mesh.dim(), D => {
        let grid = Grid::<D>::of(mesh);
        Cursor::start(&grid, &cur.to_array(), &mut ids).to(&to.to_array(), order, &mut ids);
    });
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
    fn torus_run_splits_at_its_wrap_hop() {
        // 6 -> 1 forward on a side-8 ring: 7, then the wrap hop to 0, then 1.
        let mesh = Mesh::new_torus(&[8, 3]);
        let grid = Grid::<2>::of(&mesh);
        let mut ids = Vec::new();
        Cursor::start(&grid, &[6, 2], &mut ids).to(&[1, 2], &[0, 1], &mut ids);
        let want: Vec<u32> = [[6, 2], [7, 2], [0, 2], [1, 2]]
            .iter()
            .map(|xs| mesh.node_id(&c(xs)).0 as u32)
            .collect();
        assert_eq!(ids, want);
        assert_eq!(grid.dist(&[6, 2], &[1, 0]), 3 + 1);
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
