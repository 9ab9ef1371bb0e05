//! Property tests for every router: validity, endpoints, obliviousness
//! invariants, stretch guarantees, bit accounting.

use oblivion_core::{
    extend_dim_by_dim, stretch_bound, AccessTree, Busch2D, BuschD, BuschPadded, BuschTorus,
    DimOrder, IdBatch, ObliviousRouter, PathQuery, RandomDimOrder, RandomnessMode, Romm, Valiant,
};
use oblivion_mesh::{decode_ids, Coord, Mesh, NodeId, Path, MAX_DIM};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: (d, k, s, t, seed) at every dimension the mesh accepts,
/// with n <= 4096.
fn scenario() -> impl Strategy<Value = (usize, u32, Coord, Coord, u64)> {
    (1usize..=MAX_DIM, 1u32..=6)
        .prop_filter("size cap", |(d, k)| d * (*k as usize) <= 12)
        .prop_flat_map(|(d, k)| {
            let side = 1u32 << k;
            (
                Just(d),
                Just(k),
                prop::collection::vec(0..side, d),
                prop::collection::vec(0..side, d),
                any::<u64>(),
            )
                .prop_map(|(d, k, a, b, seed)| (d, k, Coord::new(&a), Coord::new(&b), seed))
        })
}

fn routers(mesh: &Mesh) -> Vec<Box<dyn ObliviousRouter>> {
    let mut v: Vec<Box<dyn ObliviousRouter>> = vec![
        Box::new(BuschD::new(mesh.clone())),
        Box::new(BuschD::new(mesh.clone()).with_mode(RandomnessMode::Fresh)),
        Box::new(AccessTree::new(mesh.clone())),
        Box::new(Valiant::new(mesh.clone())),
        Box::new(Romm::new(mesh.clone())),
        Box::new(BuschPadded::new(mesh.clone())),
        Box::new(DimOrder::new(mesh.clone())),
        Box::new(RandomDimOrder::new(mesh.clone())),
    ];
    if mesh.dim() == 2 {
        v.push(Box::new(Busch2D::new(mesh.clone())));
        v.push(Box::new(
            Busch2D::new(mesh.clone()).with_mode(RandomnessMode::Fresh),
        ));
    }
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every router returns a valid walk s -> t; trivial pairs cost zero
    /// bits; deterministic routers report zero bits.
    #[test]
    fn all_routers_produce_valid_paths((d, k, s, t, seed) in scenario()) {
        let mesh = Mesh::new_mesh(&vec![1u32 << k; d]);
        let mut rng = StdRng::seed_from_u64(seed);
        for r in routers(&mesh) {
            let rp = r.select_path(&s, &t, &mut rng);
            prop_assert!(rp.path.is_valid(&mesh), "{}", r.name());
            prop_assert_eq!(rp.path.source(), &s);
            prop_assert_eq!(rp.path.target(), &t);
            if s == t {
                prop_assert!(rp.path.is_empty(), "{}", r.name());
            }
            if r.name() == "dim-order" {
                prop_assert_eq!(rp.random_bits, 0);
            }
        }
    }

    /// The hierarchical routers respect their stretch guarantees; the
    /// dimension-order routers are exactly shortest.
    #[test]
    fn stretch_guarantees((d, k, s, t, seed) in scenario()) {
        prop_assume!(s != t);
        let mesh = Mesh::new_mesh(&vec![1u32 << k; d]);
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = mesh.dist(&s, &t);

        let h = BuschD::new(mesh.clone());
        let p = h.select_path(&s, &t, &mut rng).path;
        prop_assert!((p.len() as f64) <= stretch_bound(d) * dist as f64,
            "busch-d: len {} dist {dist}", p.len());

        if d == 2 {
            let b2 = Busch2D::new(mesh.clone());
            let p2 = b2.select_path(&s, &t, &mut rng).path;
            prop_assert!((p2.len() as f64) <= 64.0 * dist as f64,
                "Theorem 3.4: len {} dist {dist}", p2.len());
        }

        let shortest = DimOrder::new(mesh.clone());
        prop_assert_eq!(shortest.select_path(&s, &t, &mut rng).path.len() as u64, dist);
        let rdo = RandomDimOrder::new(mesh.clone());
        prop_assert_eq!(rdo.select_path(&s, &t, &mut rng).path.len() as u64, dist);
    }

    /// Obliviousness + determinism-per-seed: the selected path depends only
    /// on (s, t) and the RNG stream — never on any other state.
    #[test]
    fn path_depends_only_on_pair_and_seed((d, k, s, t, seed) in scenario()) {
        let mesh = Mesh::new_mesh(&vec![1u32 << k; d]);
        for r in routers(&mesh) {
            let mut rng1 = StdRng::seed_from_u64(seed);
            let mut rng2 = StdRng::seed_from_u64(seed);
            let p1 = r.select_path(&s, &t, &mut rng1);
            // Interleave unrelated routing on rng2's *copy* first to show
            // no hidden shared state: use a fresh rng for the second call.
            let p2 = r.select_path(&s, &t, &mut rng2);
            prop_assert_eq!(p1.path, p2.path, "{}", r.name());
            prop_assert_eq!(p1.random_bits, p2.random_bits);
        }
    }

    /// Cycle-removed hierarchical paths are simple.
    #[test]
    fn paths_are_simple((d, k, s, t, seed) in scenario()) {
        let mesh = Mesh::new_mesh(&vec![1u32 << k; d]);
        let mut rng = StdRng::seed_from_u64(seed);
        let h = BuschD::new(mesh.clone());
        prop_assert!(h.select_path(&s, &t, &mut rng).path.is_simple());
        let v = Valiant::new(mesh.clone());
        prop_assert!(v.select_path(&s, &t, &mut rng).path.is_simple());
    }

    /// Recycled-mode bits obey the Lemma 5.4 budget on every pair, and
    /// beat fresh mode once the chain is long (the advantage is
    /// asymptotic in D'; on distance-1 chains the two fixed donors can
    /// cost a few bits more than one fresh way-point).
    #[test]
    fn recycled_bit_budget_and_asymptotics((d, k, s, t, seed) in scenario()) {
        prop_assume!(s != t);
        let mesh = Mesh::new_mesh(&vec![1u32 << k; d]);
        let fresh = BuschD::new(mesh.clone()).with_mode(RandomnessMode::Fresh);
        let recycled = BuschD::new(mesh.clone()).with_mode(RandomnessMode::Recycled);
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = mesh.dist(&s, &t);
        let budget = 8.0 * d as f64 * ((2.0 * dist as f64 * d as f64).log2()).max(1.0);
        let (mut bf, mut br) = (0u64, 0u64);
        for _ in 0..8 {
            let f = fresh.select_path(&s, &t, &mut rng).random_bits;
            let r = recycled.select_path(&s, &t, &mut rng).random_bits;
            prop_assert!((r as f64) <= budget, "bits {r} > budget {budget} (dist {dist})");
            bf += f;
            br += r;
        }
        if dist >= 16 {
            prop_assert!(br < bf, "recycled {br} !< fresh {bf} at dist {dist}");
        }
    }
}

/// Strategy: arbitrary rectangular mesh dims (non-power-of-two allowed).
fn rect_scenario() -> impl Strategy<Value = (Vec<u32>, Coord, Coord, u64)> {
    prop::collection::vec(2u32..=20, 1..=3)
        .prop_filter("size cap", |dims| {
            dims.iter().map(|&m| u64::from(m)).product::<u64>() <= 4096
        })
        .prop_flat_map(|dims| {
            let d = dims.len();
            let dims2 = dims.clone();
            (
                Just(dims),
                prop::collection::vec(0u32..20, d),
                prop::collection::vec(0u32..20, d),
                any::<u64>(),
            )
                .prop_map(move |(dims, a, b, seed)| {
                    let clamp = |v: &[u32]| {
                        Coord::new(
                            &v.iter()
                                .zip(&dims2)
                                .map(|(&x, &m)| x.min(m - 1))
                                .collect::<Vec<_>>(),
                        )
                    };
                    (dims, clamp(&a), clamp(&b), seed)
                })
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The padded router handles every rectangular mesh: valid in-bounds
    /// paths with the d-D stretch guarantee.
    #[test]
    fn padded_router_on_rectangles((dims, s, t, seed) in rect_scenario()) {
        let mesh = Mesh::new_mesh(&dims);
        let router = BuschPadded::new(mesh.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        let rp = router.select_path(&s, &t, &mut rng);
        prop_assert!(rp.path.is_valid(&mesh));
        prop_assert_eq!(rp.path.source(), &s);
        prop_assert_eq!(rp.path.target(), &t);
        prop_assert!(rp.path.nodes().iter().all(|v| mesh.contains(v)));
        if s != t {
            let bound = stretch_bound(mesh.dim());
            prop_assert!(rp.path.stretch(&mesh) <= bound);
        }
    }

    /// The torus router: valid paths, torus-distance stretch bound, and
    /// wrap pairs are treated as the neighbors they are.
    #[test]
    fn torus_router_properties((d, k, s, t, seed) in scenario()) {
        let torus = Mesh::new_torus(&vec![1u32 << k; d]);
        let router = BuschTorus::new(torus.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        let rp = router.select_path(&s, &t, &mut rng);
        prop_assert!(rp.path.is_valid(&torus));
        prop_assert_eq!(rp.path.source(), &s);
        prop_assert_eq!(rp.path.target(), &t);
        if s != t {
            prop_assert!(rp.path.stretch(&torus) <= stretch_bound(d));
        }
    }
}

/// The per-hop reference for `extend_dim_by_dim`: one
/// `Mesh::step_towards` call per node of the walk.
fn step_by_step(mesh: &Mesh, from: &Coord, to: &Coord, order: &[usize]) -> Vec<Coord> {
    let mut out = vec![*from];
    let mut cur = *from;
    for &axis in order {
        while let Some(next) = mesh.step_towards(&cur, to[axis], axis) {
            out.push(next);
            cur = next;
        }
    }
    out
}

/// Strategy: a mesh or torus of every `d <= MAX_DIM` with sides 1..=6
/// (side-1 and side-2 axes come up often), two of its nodes and a random
/// axis order. On each axis flagged `half` with an even side, the target
/// sits exactly half way round: on a torus a tie, forward distance equal
/// to backward distance.
fn walk_scenario() -> impl Strategy<Value = (Mesh, Coord, Coord, Vec<usize>)> {
    (1usize..=MAX_DIM)
        .prop_flat_map(|d| {
            (
                prop::collection::vec(1u32..=6, d),
                any::<bool>(),
                prop::collection::vec(any::<u32>(), d),
                prop::collection::vec(any::<u32>(), d),
                prop::collection::vec(any::<bool>(), d),
                prop::collection::vec(any::<u64>(), d),
            )
        })
        .prop_map(|(dims, torus, a, b, half, keys)| {
            let s: Vec<u32> = a.iter().zip(&dims).map(|(&x, &m)| x % m).collect();
            let t: Vec<u32> = (0..dims.len())
                .map(|i| match dims[i] {
                    m if half[i] && m % 2 == 0 => (s[i] + m / 2) % m,
                    m => b[i] % m,
                })
                .collect();
            let mut order: Vec<usize> = (0..dims.len()).collect();
            order.sort_by_key(|&i| keys[i]);
            let mesh = if torus {
                Mesh::new_torus(&dims)
            } else {
                Mesh::new_mesh(&dims)
            };
            (mesh, Coord::new(&s), Coord::new(&t), order)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// `extend_dim_by_dim` pushes each axis segment as one run; it visits
    /// exactly the nodes of the per-hop `step_towards` walk.
    #[test]
    fn dim_by_dim_walk_equals_per_hop_walk((mesh, s, t, order) in walk_scenario()) {
        let mut cur = s;
        let mut walk = vec![s];
        extend_dim_by_dim(&mesh, &mut cur, &t, &order, &mut walk);
        prop_assert_eq!(cur, t);
        prop_assert_eq!(walk, step_by_step(&mesh, &s, &t, &order));
    }
}

/// Every pair of nodes on rings and lines of sides 1..=8: each torus tie
/// of an even side, and each wrap, meets the reference at least once.
#[test]
fn dim_by_dim_walk_equals_per_hop_walk_on_every_1d_pair() {
    for m in 1u32..=8 {
        for mesh in [Mesh::new_mesh(&[m]), Mesh::new_torus(&[m])] {
            for (x, y) in (0..m).flat_map(|x| (0..m).map(move |y| (x, y))) {
                let (s, t) = (Coord::new(&[x]), Coord::new(&[y]));
                let mut cur = s;
                let mut walk = vec![s];
                extend_dim_by_dim(&mesh, &mut cur, &t, &[0], &mut walk);
                assert_eq!(
                    walk,
                    step_by_step(&mesh, &s, &t, &[0]),
                    "{mesh:?} {x} -> {y}"
                );
            }
        }
    }
}

/// Routes `(s, t)`, `(t, s)` and `(s, s)` as one id batch appended after
/// an answer already in it, and checks each answer against
/// `select_path`: the same nodes through `Mesh::node_id`, the same bits.
fn ids_match_select_path(
    r: &dyn ObliviousRouter,
    s: &Coord,
    t: &Coord,
    seed: u64,
) -> Result<(), TestCaseError> {
    let mesh = r.mesh();
    let qs = [
        PathQuery {
            seed,
            src: *s,
            dst: *t,
        },
        PathQuery {
            seed: !seed,
            src: *t,
            dst: *s,
        },
        PathQuery {
            seed,
            src: *s,
            dst: *s,
        },
    ];
    let mut batch = IdBatch::default();
    r.route_ids(&qs[..1], &mut batch);
    r.route_ids(&qs, &mut batch);
    prop_assert_eq!(batch.len(), 1 + qs.len());
    for (i, q) in qs.iter().enumerate() {
        let want = r.select_path(&q.src, &q.dst, &mut StdRng::seed_from_u64(q.seed));
        let ids: Vec<u32> = want
            .path
            .nodes()
            .iter()
            .map(|c| mesh.node_id(c).0 as u32)
            .collect();
        prop_assert_eq!(batch.ids(i + 1), &ids[..], "{}", r.name());
        prop_assert_eq!(batch.random_bits(i + 1), want.random_bits, "{}", r.name());
        prop_assert_eq!(
            &Path::from_ids(mesh, &q.src, batch.ids(i + 1)),
            &want.path,
            "{}",
            r.name()
        );
    }
    prop_assert_eq!(batch.ids(0), batch.ids(1));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every router's id batch names `select_path`'s nodes and bits: on
    /// meshes of every `d <= MAX_DIM` and on tori of the same shapes.
    #[test]
    fn id_batches_equal_select_path((d, k, s, t, seed) in scenario()) {
        let mesh = Mesh::new_mesh(&vec![1u32 << k; d]);
        for r in routers(&mesh) {
            ids_match_select_path(r.as_ref(), &s, &t, seed)?;
        }
        let torus = Mesh::new_torus(&vec![1u32 << k; d]);
        let on_torus: Vec<Box<dyn ObliviousRouter>> = vec![
            Box::new(BuschTorus::new(torus.clone())),
            Box::new(BuschTorus::new(torus.clone()).with_mode(RandomnessMode::Fresh)),
            Box::new(Valiant::new(torus.clone())),
            Box::new(Romm::new(torus.clone())),
            Box::new(RandomDimOrder::new(torus.clone())),
        ];
        for r in on_torus {
            ids_match_select_path(r.as_ref(), &s, &t, seed)?;
        }
    }

    /// The same on rectangles, where strides differ per axis and the
    /// padded router clips its way-points.
    #[test]
    fn id_batches_equal_select_path_on_rectangles((dims, s, t, seed) in rect_scenario()) {
        let mesh = Mesh::new_mesh(&dims);
        let on_rect: Vec<Box<dyn ObliviousRouter>> = vec![
            Box::new(BuschPadded::new(mesh.clone())),
            Box::new(Valiant::new(mesh.clone())),
            Box::new(Romm::new(mesh.clone())),
            Box::new(DimOrder::new(mesh.clone())),
        ];
        for r in on_rect {
            ids_match_select_path(r.as_ref(), &s, &t, seed)?;
        }
    }
}

/// Strategy: a random walk of adjacent nodes on a mesh or torus of
/// every `d <= MAX_DIM` with sides 1..=3, so side-2 rings (no wrap
/// link) and side-3 rings (a wrap link at every end) come up often.
fn id_walk_scenario() -> impl Strategy<Value = (Mesh, Vec<Coord>)> {
    (1usize..=MAX_DIM)
        .prop_flat_map(|d| {
            (
                prop::collection::vec(1u32..=3, d),
                any::<bool>(),
                any::<u64>(),
                prop::collection::vec(any::<u32>(), 0..64),
            )
        })
        .prop_map(|(dims, torus, start, steps)| {
            let mesh = if torus {
                Mesh::new_torus(&dims)
            } else {
                Mesh::new_mesh(&dims)
            };
            let mut cur = mesh.coord(NodeId((start % mesh.node_count() as u64) as usize));
            let mut walk = vec![cur];
            for step in steps {
                let nbs = mesh.neighbors(&cur);
                if nbs.is_empty() {
                    break;
                }
                cur = nbs[step as usize % nbs.len()];
                walk.push(cur);
            }
            (mesh, walk)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Any walk of adjacent nodes, in ids, decodes back to itself — wrap
    /// hops, turns and back-steps included.
    #[test]
    fn id_walks_decode_round_trip((mesh, walk) in id_walk_scenario()) {
        let ids: Vec<u32> = walk.iter().map(|c| mesh.node_id(c).0 as u32).collect();
        let mut decoded = Vec::new();
        decode_ids(&mesh, &walk[0], &ids, |c| decoded.push(c));
        prop_assert_eq!(&decoded, &walk);
        let path = Path::from_ids(&mesh, &walk[0], &ids);
        prop_assert_eq!(path.nodes(), &walk[..]);
        prop_assert!(path.node_ids(&mesh).eq(ids.iter().copied()));
    }
}
