//! Golden pin of router output: every router's answers to a fixed set of
//! 256 queries, folded into one FNV-1a digest of hops and random-bit
//! counts. `select_path`, `route_batch` and `route_ids` (batches of 64)
//! must all reproduce the pinned digest, so a kernel change that alters
//! any hop or any bit count of any answer fails here. The id batch is
//! read back by `Mesh::coord`, independently of the id-walk decoder.
//!
//! The serve differential suite cannot catch such a change: it compares
//! the server with an in-process `select_path`, and both sides move
//! together.

use oblivion_core::{
    build_router, implies_torus, parse_mesh_spec, Busch2D, BuschD, BuschTorus, IdBatch,
    ObliviousRouter, PathQuery, RandomnessMode, RoutedPath,
};
use oblivion_mesh::{Coord, Mesh, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;

const QUERIES: u64 = 256;
const BATCH: usize = 64;

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn node(mesh: &Mesh, key: u64) -> Coord {
    let mut c = Coord::origin(mesh.dim());
    for i in 0..mesh.dim() {
        c[i] = (splitmix(key ^ ((i as u64) << 56)) % u64::from(mesh.side(i))) as u32;
    }
    c
}

/// The fixed query set: one pair in 16 is trivial (`src == dst`).
fn queries(mesh: &Mesh) -> Vec<PathQuery> {
    (0..QUERIES)
        .map(|i| {
            let src = node(mesh, 2 * i);
            let dst = if i % 16 == 0 {
                src
            } else {
                node(mesh, 2 * i + 1)
            };
            PathQuery {
                seed: splitmix(!i),
                src,
                dst,
            }
        })
        .collect()
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn answer(&mut self, rp: &RoutedPath) {
        self.hops(rp.random_bits, rp.path.nodes());
    }

    fn hops(&mut self, random_bits: u64, nodes: &[Coord]) {
        self.bytes(&random_bits.to_le_bytes());
        self.bytes(&(nodes.len() as u64).to_le_bytes());
        for hop in nodes {
            for &x in hop.as_slice() {
                self.bytes(&x.to_le_bytes());
            }
        }
    }
}

fn select_digest(r: &dyn ObliviousRouter, qs: &[PathQuery]) -> u64 {
    let mut h = Fnv::new();
    for q in qs {
        let rp = r.select_path(&q.src, &q.dst, &mut StdRng::seed_from_u64(q.seed));
        assert!(rp.path.is_valid(r.mesh()), "{}: invalid path", r.name());
        h.answer(&rp);
    }
    h.0
}

fn batch_digest(r: &dyn ObliviousRouter, qs: &[PathQuery]) -> u64 {
    let mut h = Fnv::new();
    let mut out = Vec::new();
    for chunk in qs.chunks(BATCH) {
        r.route_batch(chunk, &mut out);
        assert_eq!(out.len(), chunk.len());
        out.iter().for_each(|rp| h.answer(rp));
    }
    h.0
}

fn ids_digest(r: &dyn ObliviousRouter, qs: &[PathQuery]) -> u64 {
    let mesh = r.mesh();
    let mut h = Fnv::new();
    let mut batch = IdBatch::default();
    let mut nodes = Vec::new();
    for chunk in qs.chunks(BATCH) {
        batch.clear();
        r.route_ids(chunk, &mut batch);
        assert_eq!(batch.len(), chunk.len());
        for i in 0..batch.len() {
            nodes.clear();
            nodes.extend(
                batch
                    .ids(i)
                    .iter()
                    .map(|&id| mesh.coord(NodeId(id as usize))),
            );
            h.hops(batch.random_bits(i), &nodes);
        }
    }
    h.0
}

fn check(label: &str, r: &dyn ObliviousRouter, want: u64) -> Option<String> {
    let qs = queries(r.mesh());
    let single = select_digest(r, &qs);
    let batched = batch_digest(r, &qs);
    let ids = ids_digest(r, &qs);
    (single != want || batched != want || ids != want).then(|| {
        format!(
            "{label}: select_path {single:#018x}, route_batch {batched:#018x}, \
             route_ids {ids:#018x}, pinned {want:#018x}"
        )
    })
}

/// `(router name, mesh spec, digest)` for routers built by name.
const BY_NAME: &[(&str, &str, u64)] = &[
    ("busch2d", "64x64", 0x5f3a_6ebe_9f9f_cd7f),
    ("buschd", "16x16", 0x6cda_56c3_ed0d_4226),
    ("buschd", "8x8x8", 0x5b1a_841d_3bba_7437),
    ("busch-padded", "12x20", 0x7123_d0f7_b113_6f2f),
    ("busch-torus", "16x16", 0x8ccf_9f9c_906c_e439),
    ("access-tree", "16x16", 0x3896_9c05_f3fb_fc31),
    ("access-tree", "8x8x8", 0xc712_d2ec_2a0c_7f8d),
    ("valiant", "16x16", 0x6134_cc6d_c925_0b2d),
    ("valiant", "8x8x8", 0xee0f_fbe4_c285_5b72),
    ("romm", "16x16", 0xfb64_1821_c276_0ab3),
    ("romm", "8x8x8", 0x10c2_9d75_bc8e_d93b),
    ("dim-order", "16x16", 0xc427_143d_7bc9_3b51),
    ("dim-order", "8x8x8", 0x6c28_6227_293b_f5bd),
    ("random-dim-order", "16x16", 0xeafe_ba2a_5e57_661f),
    ("random-dim-order", "8x8x8", 0xe806_1736_1405_d6c7),
];

#[test]
fn routers_by_name_match_their_pinned_digests() {
    let wrong: Vec<String> = BY_NAME
        .iter()
        .filter_map(|&(name, spec, want)| {
            let mesh = parse_mesh_spec(spec, implies_torus(name)).unwrap();
            let r = build_router(name, &mesh).unwrap();
            check(&format!("{name} {spec}"), &*r, want)
        })
        .collect();
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

/// The non-default settings the name table cannot reach: fresh
/// randomness (a dimension order per chain step) and cycles kept.
#[test]
fn router_variants_match_their_pinned_digests() {
    let fresh = RandomnessMode::Fresh;
    let variants: Vec<(&str, Box<dyn ObliviousRouter>, u64)> = vec![
        (
            "busch2d 64x64 fresh",
            Box::new(Busch2D::new(Mesh::new_mesh(&[64, 64])).with_mode(fresh)),
            0x4912_a1a2_8107_dbdf,
        ),
        (
            "busch2d 16x16 cycles kept",
            Box::new(Busch2D::new(Mesh::new_mesh(&[16, 16])).with_cycle_removal(false)),
            0x3690_9202_2777_69c9,
        ),
        (
            "buschd 8x8x8 fresh",
            Box::new(BuschD::new(Mesh::new_mesh(&[8, 8, 8])).with_mode(fresh)),
            0x3479_68bd_1b6f_bd2e,
        ),
        (
            "busch-torus 16x16 fresh",
            Box::new(BuschTorus::new(Mesh::new_torus(&[16, 16])).with_mode(fresh)),
            0x8523_a682_f375_f85b,
        ),
    ];
    let wrong: Vec<String> = variants
        .iter()
        .filter_map(|(label, r, want)| check(label, &**r, *want))
        .collect();
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
