//! Property tests for the mesh substrate.

use oblivion_mesh::{Coord, CycleTable, Mesh, Path, Submesh, Topology};
use proptest::prelude::*;
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

/// Strategy: a mesh with 1–4 dimensions, sides 1–12, ≤ 4096 nodes.
fn arb_mesh() -> impl Strategy<Value = Mesh> {
    (prop::collection::vec(1u32..=12, 1..=4), prop::bool::ANY).prop_filter_map(
        "node count cap",
        |(dims, torus)| {
            let n: u64 = dims.iter().map(|&m| u64::from(m)).product();
            if n > 4096 {
                return None;
            }
            Some(Mesh::new(
                &dims,
                if torus {
                    Topology::Torus
                } else {
                    Topology::Mesh
                },
            ))
        },
    )
}

/// Strategy: a mesh plus one of its coordinates.
fn mesh_and_coord() -> impl Strategy<Value = (Mesh, Coord)> {
    arb_mesh().prop_flat_map(|mesh| {
        let n = mesh.node_count();
        (Just(mesh), 0..n).prop_map(|(mesh, i)| {
            let c = mesh.coord(oblivion_mesh::NodeId(i));
            (mesh, c)
        })
    })
}

/// Strategy: a mesh plus two coordinates.
fn mesh_and_two() -> impl Strategy<Value = (Mesh, Coord, Coord)> {
    arb_mesh().prop_flat_map(|mesh| {
        let n = mesh.node_count();
        (Just(mesh), 0..n, 0..n).prop_map(|(mesh, i, j)| {
            let a = mesh.coord(oblivion_mesh::NodeId(i));
            let b = mesh.coord(oblivion_mesh::NodeId(j));
            (mesh, a, b)
        })
    })
}

proptest! {
    /// Node-id <-> coordinate is a bijection.
    #[test]
    fn node_id_roundtrip((mesh, c) in mesh_and_coord()) {
        prop_assert_eq!(mesh.coord(mesh.node_id(&c)), c);
    }

    /// Distance is a metric: symmetric, zero iff equal, triangle inequality.
    #[test]
    fn dist_is_a_metric((mesh, a, b) in mesh_and_two(), k in 0usize..4096) {
        prop_assert_eq!(mesh.dist(&a, &b), mesh.dist(&b, &a));
        prop_assert_eq!(mesh.dist(&a, &b) == 0, a == b);
        let n = mesh.node_count();
        let c = mesh.coord(oblivion_mesh::NodeId(k % n));
        prop_assert!(mesh.dist(&a, &b) <= mesh.dist(&a, &c) + mesh.dist(&c, &b));
    }

    /// Distance never exceeds the diameter.
    #[test]
    fn dist_le_diameter((mesh, a, b) in mesh_and_two()) {
        prop_assert!(mesh.dist(&a, &b) <= mesh.diameter());
    }

    /// Adjacent nodes have distance 1 and a valid symmetric edge id.
    #[test]
    fn neighbors_are_at_distance_one((mesh, c) in mesh_and_coord()) {
        for nb in mesh.neighbors(&c) {
            prop_assert_eq!(mesh.dist(&c, &nb), 1);
            prop_assert!(mesh.adjacent(&c, &nb));
            let e = mesh.edge_id(&c, &nb);
            prop_assert_eq!(e, mesh.edge_id(&nb, &c));
            prop_assert!(e.0 < mesh.edge_count());
            let (x, y) = mesh.edge_endpoints(e);
            prop_assert!((x == c && y == nb) || (x == nb && y == c));
        }
    }

    /// step_towards decreases the axis distance by exactly one.
    #[test]
    fn step_towards_progress((mesh, c) in mesh_and_coord(), target_idx in 0usize..4096, axis_pick in 0usize..8) {
        let axis = axis_pick % mesh.dim();
        let target = mesh.coord(oblivion_mesh::NodeId(target_idx % mesh.node_count()));
        let before = mesh.axis_dist(axis, c[axis], target[axis]);
        match mesh.step_towards(&c, target[axis], axis) {
            None => prop_assert_eq!(before, 0),
            Some(next) => {
                prop_assert!(mesh.adjacent(&c, &next));
                prop_assert_eq!(mesh.axis_dist(axis, next[axis], target[axis]), before - 1);
            }
        }
    }

    /// Lemma A.4: any submesh with n' nodes has out(M') >= n'^((d-1)/d),
    /// unless it spans the whole mesh along every axis it could leave by.
    #[test]
    fn out_edges_lower_bound_lemma_a4((mesh, a, b) in mesh_and_two()) {
        let sub = Submesh::bounding_box(&a, &b);
        let full = (0..mesh.dim()).all(|i| u64::from(sub.side(i)) == u64::from(mesh.side(i)));
        if !full && mesh.topology() == Topology::Mesh {
            // Lemma A.4 assumes a proper submesh of the mesh (at most d-1
            // surfaces flush with the border). Our bounding boxes can touch
            // more borders, so check the bound only when the box is
            // strictly interior on at least one side per axis.
            let d = mesh.dim() as f64;
            let n_prime = sub.node_count() as f64;
            let interior = (0..mesh.dim()).all(|i| {
                sub.lo()[i] > 0 || sub.hi()[i] + 1 < mesh.side(i)
            });
            if interior {
                let bound = n_prime.powf((d - 1.0) / d);
                prop_assert!(
                    (sub.out_edges(&mesh) as f64) + 1e-9 >= bound.floor(),
                    "out = {}, bound = {}", sub.out_edges(&mesh), bound
                );
            }
        }
    }

    /// Submesh iteration visits exactly node_count() distinct coordinates,
    /// all contained.
    #[test]
    fn submesh_iteration_consistent((mesh, a, b) in mesh_and_two()) {
        let sub = Submesh::bounding_box(&a, &b);
        let nodes: Vec<Coord> = sub.nodes().collect();
        prop_assert_eq!(nodes.len() as u64, sub.node_count());
        let set: std::collections::HashSet<_> = nodes.iter().collect();
        prop_assert_eq!(set.len(), nodes.len());
        prop_assert!(nodes.iter().all(|c| sub.contains(c) && mesh.contains(c)));
    }

    /// Cycle removal yields a simple, valid walk with the same endpoints,
    /// never longer, and idempotent.
    #[test]
    fn cycle_removal_properties((mesh, start) in mesh_and_coord(), steps in prop::collection::vec(0usize..6, 0..40)) {
        // Random walk.
        let mut nodes = vec![start];
        let mut cur = start;
        for s in steps {
            let nbs = mesh.neighbors(&cur);
            if nbs.is_empty() { break; }
            cur = nbs[s % nbs.len()];
            nodes.push(cur);
        }
        let p = Path::new(&mesh, nodes);
        let q = p.without_cycles();
        prop_assert!(q.is_simple());
        prop_assert!(q.is_valid(&mesh));
        prop_assert_eq!(q.source(), p.source());
        prop_assert_eq!(q.target(), p.target());
        prop_assert!(q.len() <= p.len());
        prop_assert_eq!(q.without_cycles(), q.clone());
        // A simple walk is at least as long as the distance.
        prop_assert!(q.len() as u64 >= mesh.dist(p.source(), p.target()));
    }

    /// The stamped open-addressing cycle removal gives exactly the node
    /// sequence of the `HashMap` algorithm it replaced, on random walks
    /// over tiny sides (so nodes repeat constantly) in 1–8 dimensions,
    /// mesh and torus, up to ~800 nodes long. With `home` the walk retraces
    /// itself back to its source. One table serves the forward walk and
    /// its reversal, so a stale slot of the first walk must never match
    /// in the second.
    #[test]
    fn cycle_removal_matches_hashmap_reference(
        d in 1usize..=8,
        side in 2u32..=3,
        torus in prop::bool::ANY,
        start in 0usize..6561,
        steps in prop::collection::vec(0usize..16, 0..400),
        home in prop::bool::ANY,
    ) {
        let mesh = Mesh::new(&vec![side; d], if torus { Topology::Torus } else { Topology::Mesh });
        let mut cur = mesh.coord(oblivion_mesh::NodeId(start % mesh.node_count()));
        let mut walk = vec![cur];
        for s in steps {
            let nbs = mesh.neighbors(&cur);
            cur = nbs[s % nbs.len()];
            walk.push(cur);
        }
        if home {
            let back: Vec<Coord> = walk.iter().rev().skip(1).copied().collect();
            walk.extend(back);
        }
        let mut table = CycleTable::default();
        for raw in [walk.clone(), walk.iter().rev().copied().collect()] {
            let want = reference_remove_cycles(&raw);
            let mut got = raw.clone();
            table.remove_cycles(&mut got);
            prop_assert_eq!(&got, &want);
            let mut p = Path::new(&mesh, raw);
            p.remove_cycles();
            prop_assert_eq!(p.nodes(), &want[..]);
            if home {
                prop_assert_eq!(want.len(), 1);
            }
        }
    }
}

/// A pair of nodes of `mesh` of one of six kinds: equal; one step up an
/// axis (wrapping at its top); one step up two axes; two steps up one
/// axis; the two ends `0` and `m - 1` of one axis, adjacent only on a
/// torus with `m > 2` or on a side-2 axis; and an unrelated node.
fn pair_of_kind(mesh: &Mesh, a: Coord, kind: usize, r: usize) -> (Coord, Coord) {
    let d = mesh.dim();
    let (axis, axis2) = (r % d, (r + 1) % d);
    let (m, m2) = (mesh.side(axis), mesh.side(axis2));
    let (mut a, mut b) = (a, a);
    match kind {
        0 => {}
        1 => b[axis] = (a[axis] + 1) % m,
        2 => {
            b[axis] = (a[axis] + 1) % m;
            b[axis2] = (a[axis2] + 1) % m2;
        }
        3 => b[axis] = (a[axis] + 2) % m,
        4 => (a[axis], b[axis]) = (0, m - 1),
        _ => b = mesh.coord(oblivion_mesh::NodeId(r % mesh.node_count())),
    }
    (a, b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// `edge_id` panics exactly on the pairs `adjacent` rejects, and
    /// otherwise names the edge between them.
    #[test]
    fn edge_id_panics_exactly_when_not_adjacent(
        (mesh, a) in mesh_and_coord(),
        kind in 0usize..6,
        r in 0usize..4096,
    ) {
        static QUIET: Once = Once::new();
        QUIET.call_once(|| {
            let default = panic::take_hook();
            panic::set_hook(Box::new(move |info| {
                if !info.to_string().contains("are not adjacent") {
                    default(info);
                }
            }));
        });
        let (a, b) = pair_of_kind(&mesh, a, kind, r);
        let id = panic::catch_unwind(AssertUnwindSafe(|| mesh.edge_id(&a, &b)));
        prop_assert_eq!(id.is_err(), !mesh.adjacent(&a, &b), "{:?} {:?} {:?}", mesh, a, b);
        if let Ok(e) = id {
            let (x, y) = mesh.edge_endpoints(e);
            prop_assert!((x, y) == (a, b) || (x, y) == (b, a));
        }
    }
}

/// The `HashMap` cycle removal `Path::remove_cycles` used before the
/// stamped table, kept as the reference: scan left to right and, on
/// revisiting a node, drop everything after its first occurrence.
fn reference_remove_cycles(nodes: &[Coord]) -> Vec<Coord> {
    if nodes.len() <= 2 {
        return nodes.to_vec();
    }
    let mut first_seen: HashMap<Coord, usize> = HashMap::with_capacity(nodes.len());
    let mut out: Vec<Coord> = Vec::with_capacity(nodes.len());
    for &c in nodes {
        if let Some(&pos) = first_seen.get(&c) {
            for dropped in out.drain(pos + 1..) {
                first_seen.remove(&dropped);
            }
        } else {
            first_seen.insert(c, out.len());
            out.push(c);
        }
    }
    out
}
