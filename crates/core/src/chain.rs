//! Turning a bitonic submesh chain into a concrete packet path.
//!
//! Both the 2-D and the d-D algorithms reduce to the same skeleton
//! (Section 3.3): given the chain of submeshes `u_0, …, u_ℓ` along the
//! bitonic access-graph path (`u_0 = {s}`, `u_ℓ = {t}`), pick a random node
//! `v_i` in each `g(u_i)` and connect consecutive `v_{i-1} → v_i` with a
//! dimension-by-dimension shortest subpath under a random dimension order.
//!
//! Two randomness disciplines are supported (Section 5.3):
//!
//! * [`RandomnessMode::Fresh`] — a new dimension order and a fully fresh
//!   uniform node per chain step: `O(d log²(D'd))` bits, the naive budget.
//! * [`RandomnessMode::Recycled`] — one dimension order for the whole
//!   path; two *donor* nodes drawn once at the widest block, whose
//!   coordinate bits are sliced (alternating donors along the chain) to
//!   produce the intermediate nodes: `O(d log(D'd))` bits, Lemma 5.4.
//!
//! The walk is taken in node ids: [`Mesh::node_id`] as a `u32`, four
//! bytes per node where a [`Coord`] takes 36. Each axis run of a
//! subpath adds `±stride` per hop (on a torus, a wrap hop adds
//! `∓(m − 1)·stride`), the one [`CycleTable`] cuts the walk's cycles
//! keyed by id, and the cut walk then goes to one of two consumers:
//!
//! * `select_path` (and so `route_batch`) decodes it into a [`Path`]
//!   with a running coordinate: one compare and one add per hop, no
//!   division ([`oblivion_mesh::decode_ids`]);
//! * `route_ids` leaves it in an [`IdBatch`], one flat id buffer with
//!   one span per query, which the server's reply writer decodes hop by
//!   hop straight into the reply line: no `Path` is built at all.

use crate::randbits::{BitMeter, DonorNode};
use crate::router::{IdBatch, ObliviousRouter, PathQuery, RoutedPath};
use crate::subpath::IdWalk;
use oblivion_decomp::TorusBlock;
use oblivion_mesh::{Coord, CycleTable, Mesh, Path, Submesh, MAX_DIM};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::cell::Cell;

/// Randomness discipline for the hierarchical routers (Section 5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RandomnessMode {
    /// Independent draws per chain step (simple, more bits).
    Fresh,
    /// Bit-recycling via two donor nodes (the paper's optimized scheme).
    #[default]
    Recycled,
}

/// The block-chain buffers a router's walk reuses.
#[derive(Debug, Default)]
pub(crate) struct Blocks {
    pub(crate) chain: Vec<Submesh>,
    pub(crate) torus_chain: Vec<TorusBlock>,
}

/// The buffers one path selection reuses: the block chain, the raw id
/// walk and the id-keyed cycle-removal table.
#[derive(Debug, Default)]
struct RouteScratch {
    blocks: Blocks,
    walk: Vec<u32>,
    cycles: CycleTable<u32>,
}

thread_local! {
    static SCRATCH: Cell<RouteScratch> = Cell::default();
}

/// What a router adds to the shared selection bodies below: its raw walk.
pub(crate) trait Walker: ObliviousRouter {
    /// Whether the raw walk's cycles are cut.
    fn cuts_cycles(&self) -> bool;

    /// Pushes the raw id walk from `s` to `t` (source first) onto `walk`,
    /// drawing its bits from the meter.
    fn walk(
        &self,
        s: &Coord,
        t: &Coord,
        blocks: &mut Blocks,
        meter: &mut BitMeter<'_>,
        walk: &mut Vec<u32>,
    );
}

/// Runs `f` on the calling thread's route scratch: taken out for the
/// call (a selection nested inside another one starts from empty
/// buffers) and put back after it.
fn with_scratch<T>(f: impl FnOnce(&mut RouteScratch) -> T) -> T {
    let mut sc = SCRATCH.take();
    let out = f(&mut sc);
    SCRATCH.set(sc);
    out
}

/// Appends the cycle-cut id walk of `(s, t)` to `walk` and returns the
/// random bits it drew.
fn walk_ids<W: Walker + ?Sized>(
    router: &W,
    s: &Coord,
    t: &Coord,
    rng: &mut dyn RngCore,
    sc: &mut RouteScratch,
    walk: &mut Vec<u32>,
) -> u64 {
    let from = walk.len();
    let mut meter = BitMeter::new(rng);
    router.walk(s, t, &mut sc.blocks, &mut meter, walk);
    if router.cuts_cycles() {
        let kept = sc.cycles.cut(&mut walk[from..]);
        walk.truncate(from + kept);
    }
    meter.bits_used()
}

/// The `select_path` body every router shares: the id walk in the
/// thread's scratch, decoded once into a path of its exact length. After
/// warm-up that path is the only allocation.
pub(crate) fn select_path<W: Walker + ?Sized>(
    router: &W,
    s: &Coord,
    t: &Coord,
    rng: &mut dyn RngCore,
) -> RoutedPath {
    with_scratch(|sc| {
        let mut walk = std::mem::take(&mut sc.walk);
        walk.clear();
        let random_bits = walk_ids(router, s, t, rng, sc, &mut walk);
        let path = Path::from_ids(router.mesh(), s, &walk);
        sc.walk = walk;
        RoutedPath { path, random_bits }
    })
}

/// The `route_ids` body every router shares: each query, reseeded from
/// its own seed, walks straight into the batch's flat id buffer. Into a
/// warmed batch this allocates nothing.
pub(crate) fn route_ids<W: Walker + ?Sized>(router: &W, queries: &[PathQuery], out: &mut IdBatch) {
    with_scratch(|sc| {
        for q in queries {
            let mut rng = StdRng::seed_from_u64(q.seed);
            let bits = walk_ids(router, &q.src, &q.dst, &mut rng, sc, out.ids_mut());
            out.close(bits);
        }
    })
}

/// A block of a submesh chain: an axis-aligned [`Submesh`] on the mesh,
/// a wrapping [`TorusBlock`] on the torus.
pub(crate) trait Block: PartialEq {
    /// The block's low corner: the node itself for a leaf.
    fn corner(&self) -> Coord;

    /// Per-axis donor bits that sample this block exactly (0 if none).
    fn donor_width(&self) -> u32;

    /// A uniform node of the block (intersected with `clip`): sliced from
    /// `donor` where that is exact, else drawn from fresh bits.
    fn sample(
        &self,
        donor: Option<&DonorNode>,
        meter: &mut BitMeter<'_>,
        clip: Option<&Submesh>,
    ) -> Coord;
}

impl Block for Submesh {
    fn corner(&self) -> Coord {
        *self.lo()
    }

    fn donor_width(&self) -> u32 {
        (0..self.dim())
            .map(|i| {
                let side = self.side(i);
                if side.is_power_of_two() && self.lo()[i].is_multiple_of(side) {
                    side.trailing_zeros()
                } else {
                    0
                }
            })
            .max()
            .unwrap_or(0)
    }

    /// A clipped block may be non-power-aligned; its axes fall back to
    /// fresh metered bits (once per path, at a bridge).
    fn sample(
        &self,
        donor: Option<&DonorNode>,
        meter: &mut BitMeter<'_>,
        clip: Option<&Submesh>,
    ) -> Coord {
        let sub = match clip {
            None => *self,
            Some(c) => self
                .intersection(c)
                .expect("chain block does not intersect the clip region"),
        };
        let Some(donor) = donor else {
            return meter.uniform_node(&sub);
        };
        let mut c = *sub.lo();
        for i in 0..sub.dim() {
            let side = sub.side(i);
            if side.is_power_of_two()
                && sub.lo()[i].is_multiple_of(side)
                && side.trailing_zeros() <= donor.width()
            {
                c[i] = sub.lo()[i] + donor.low_bits(i, side.trailing_zeros());
            } else {
                c[i] = meter.range_inclusive(sub.lo()[i], sub.hi()[i]);
            }
        }
        c
    }
}

/// Every torus block has a power-of-two side, so donor slices are always
/// exact; torus chains are never clipped.
impl Block for TorusBlock {
    fn corner(&self) -> Coord {
        *self.anchor()
    }

    fn donor_width(&self) -> u32 {
        self.side().trailing_zeros()
    }

    fn sample(
        &self,
        donor: Option<&DonorNode>,
        meter: &mut BitMeter<'_>,
        _clip: Option<&Submesh>,
    ) -> Coord {
        let d = self.anchor().dim();
        let mut offsets = [0u32; MAX_DIM];
        for (i, o) in offsets[..d].iter_mut().enumerate() {
            *o = match donor {
                Some(donor) => donor.low_bits(i, self.side().trailing_zeros()),
                None => meter.below(u64::from(self.side())) as u32,
            };
        }
        self.node_at_offset(&offsets[..d])
    }
}

/// Builds the packet path through a bitonic chain of submeshes.
///
/// `chain[0]` must be the singleton `{s}` and `chain.last()` the singleton
/// `{t}`; consecutive duplicates are allowed and skipped. Returns the
/// concatenated path (cycles *not* yet removed — callers decide).
pub fn path_through_chain(
    mesh: &Mesh,
    chain: &[Submesh],
    mode: RandomnessMode,
    meter: &mut BitMeter<'_>,
) -> Path {
    let mut walk = Vec::new();
    walk_chain(mesh, chain, mode, meter, None, &mut walk);
    Path::from_ids(mesh, &chain[0].corner(), &walk)
}

/// Pushes the id walk through `chain` onto `walk`: the source, then a
/// dimension-by-dimension subpath to a way-point of each further block
/// (the destination for the last). With `clip`, way-points are sampled
/// from each block's intersection with it (the padded router keeps them
/// inside a real mesh embedded in a larger virtual one).
///
/// # Panics
/// Panics if the chain is empty, or some block misses `clip` —
/// impossible for router chains, whose blocks all contain `s` or `t`.
pub(crate) fn walk_chain<B: Block>(
    mesh: &Mesh,
    chain: &[B],
    mode: RandomnessMode,
    meter: &mut BitMeter<'_>,
    clip: Option<&Submesh>,
    walk: &mut Vec<u32>,
) {
    let s = chain.first().expect("empty chain").corner();
    let t = chain[chain.len() - 1].corner();
    let mut ids = IdWalk::start(mesh, &s, walk);
    if s == t {
        return;
    }
    let d = mesh.dim();
    // Recycled: one dimension order for the whole path, and two donors
    // wide enough for the widest power-aligned block.
    let recycled = (mode == RandomnessMode::Recycled).then(|| {
        let order = meter.dim_order(d);
        let width = chain.iter().map(B::donor_width).max().unwrap_or(0);
        let donors = [
            DonorNode::draw(meter, d, width),
            DonorNode::draw(meter, d, width),
        ];
        (order, donors)
    });
    for (i, block) in chain.iter().enumerate().skip(1) {
        if block == &chain[i - 1] {
            continue;
        }
        let v = if i + 1 == chain.len() {
            t
        } else {
            block.sample(recycled.as_ref().map(|(_, pair)| &pair[i % 2]), meter, clip)
        };
        let order = match &recycled {
            Some((order, _)) => *order,
            None => meter.dim_order(d),
        };
        ids.to(&v, &order[..d], walk);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn c(xs: &[u32]) -> Coord {
        Coord::new(xs)
    }

    fn sm(lo: &[u32], hi: &[u32]) -> Submesh {
        Submesh::new(c(lo), c(hi))
    }

    #[test]
    fn chain_path_endpoints_and_validity() {
        let mesh = Mesh::new_mesh(&[8, 8]);
        let chain = vec![
            Submesh::point(c(&[1, 1])),
            sm(&[0, 0], &[3, 3]),
            sm(&[0, 0], &[7, 7]),
            sm(&[4, 4], &[7, 7]),
            Submesh::point(c(&[6, 6])),
        ];
        let mut rng = StdRng::seed_from_u64(1);
        for mode in [RandomnessMode::Fresh, RandomnessMode::Recycled] {
            let mut meter = BitMeter::new(&mut rng);
            let p = path_through_chain(&mesh, &chain, mode, &mut meter);
            assert!(p.is_valid(&mesh), "{mode:?}");
            assert_eq!(p.source(), &c(&[1, 1]));
            assert_eq!(p.target(), &c(&[6, 6]));
            assert!(meter.bits_used() > 0);
        }
    }

    #[test]
    fn trivial_chain() {
        let mesh = Mesh::new_mesh(&[4, 4]);
        let chain = vec![Submesh::point(c(&[2, 2])), Submesh::point(c(&[2, 2]))];
        let mut rng = StdRng::seed_from_u64(2);
        let mut meter = BitMeter::new(&mut rng);
        let p = path_through_chain(&mesh, &chain, RandomnessMode::Fresh, &mut meter);
        assert!(p.is_empty());
        assert_eq!(meter.bits_used(), 0);
    }

    #[test]
    fn duplicate_blocks_are_skipped() {
        let mesh = Mesh::new_mesh(&[4, 4]);
        let b = sm(&[0, 0], &[3, 3]);
        let chain = vec![Submesh::point(c(&[0, 0])), b, b, Submesh::point(c(&[3, 2]))];
        let mut rng = StdRng::seed_from_u64(3);
        let mut meter = BitMeter::new(&mut rng);
        let p = path_through_chain(&mesh, &chain, RandomnessMode::Fresh, &mut meter);
        assert!(p.is_valid(&mesh));
        assert_eq!(p.target(), &c(&[3, 2]));
    }

    #[test]
    fn recycled_uses_fewer_bits_than_fresh_on_long_chains() {
        let mesh = Mesh::new_mesh(&[64, 64]);
        // A full-height chain: 1 → 2 → 4 → ... → 64 → ... → 2 → 1 sides.
        let mut chain = vec![Submesh::point(c(&[13, 27]))];
        for h in 1..=6u32 {
            let side = 1 << h;
            let lo = [13 / side * side, 27 / side * side];
            chain.push(sm(&lo, &[lo[0] + side - 1, lo[1] + side - 1]));
        }
        for h in (1..=6u32).rev() {
            let side = 1 << h;
            let lo = [40 / side * side, 50 / side * side];
            chain.push(sm(&lo, &[lo[0] + side - 1, lo[1] + side - 1]));
        }
        chain.push(Submesh::point(c(&[40, 50])));

        let avg_bits = |mode| {
            let mut rng = StdRng::seed_from_u64(4);
            let mut total = 0u64;
            for _ in 0..50 {
                let mut meter = BitMeter::new(&mut rng);
                let _ = path_through_chain(&mesh, &chain, mode, &mut meter);
                total += meter.bits_used();
            }
            total as f64 / 50.0
        };
        let fresh = avg_bits(RandomnessMode::Fresh);
        let recycled = avg_bits(RandomnessMode::Recycled);
        assert!(
            recycled < fresh / 2.0,
            "recycled {recycled} should be well below fresh {fresh}"
        );
    }

    #[test]
    fn donor_fallback_handles_clipped_blocks() {
        let mesh = Mesh::new_mesh(&[8, 8]);
        // A clipped (non-power-aligned) bridge in the middle.
        let chain = vec![
            Submesh::point(c(&[3, 3])),
            sm(&[2, 2], &[5, 6]), // sides 4 and 5, unaligned
            Submesh::point(c(&[5, 5])),
        ];
        let mut rng = StdRng::seed_from_u64(5);
        let mut meter = BitMeter::new(&mut rng);
        let p = path_through_chain(&mesh, &chain, RandomnessMode::Recycled, &mut meter);
        assert!(p.is_valid(&mesh));
    }
}
