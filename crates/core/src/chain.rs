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
//! The kernel works in integer boxes of compile-time dimension. A chain
//! block is an [`IntBox<D>`]: two `[u32; D]` corners, 16 bytes in 2-D
//! where a [`Submesh`] takes 72, with `D` a const generic picked once per
//! call by one `match` over `1..=MAX_DIM` ([`oblivion_mesh::with_dim!`];
//! `Busch2D` is `D = 2` with no match at all). Why: sampled profiles on a
//! 2-vCPU host put the route kernel at ~56% of the server thread on a
//! pipelined 64×64 load and ~31% of a saturated 32×32 simulation, with
//! the checked `Submesh::new` of every block alone at 6.8% of 64×64
//! `route_ids`. In a prototype the boxes with `D` fixed cost 0.64× the
//! `Submesh` kernel per 64×64 path, the same boxes looping to a runtime
//! dimension 0.74–0.76×.
//!
//! * **One chain builder**, [`Chain::bitonic`]: `{s}`, the type-1 blocks
//!   of `s` at heights `1..=climb`, the peak (bridge, ancestor or tree
//!   root), the type-1 blocks of `t` back down, `{t}`, consecutive
//!   duplicates dropped, into a fixed stack array of `2·MAX_K + 3`
//!   blocks. A type-1 block of height `h` is the aligned cube
//!   [`IntBox::aligned`] on the mesh and the torus alike, so every
//!   router differs only in its `climb` and its peak, which the
//!   decompositions find with shifts and masks.
//! * **One walk**, [`walk`]: a way-point per block, sliced from two donor
//!   nodes or drawn from metered bits in the order the bit accounting
//!   has always used, joined by the run pusher [`Cursor`], which also
//!   serves the baselines' legs.
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
use crate::subpath::{Cursor, Grid};
use oblivion_decomp::MAX_K;
use oblivion_mesh::{with_dim, Coord, CycleTable, IntBox, Mesh, Path, Submesh};
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

/// The buffers one path selection reuses: the raw id walk and the
/// id-keyed cycle-removal table.
#[derive(Debug, Default)]
struct RouteScratch {
    walk: Vec<u32>,
    cycles: CycleTable<u32>,
}

thread_local! {
    static SCRATCH: Cell<RouteScratch> = Cell::default();
}

/// What a router adds to the shared selection bodies below: its raw walk
/// on a `D`-dimensional grid.
pub(crate) trait Walker<const D: usize>: ObliviousRouter {
    /// Whether the raw walk's cycles are cut.
    fn cuts_cycles(&self) -> bool;

    /// Pushes the raw id walk from `s` to `t` (source first) onto `out`,
    /// drawing its bits from the meter.
    fn walk(
        &self,
        grid: &Grid<D>,
        s: &[u32; D],
        t: &[u32; D],
        meter: &mut BitMeter<'_>,
        out: &mut Vec<u32>,
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
fn walk_ids<const D: usize, W: Walker<D>>(
    router: &W,
    grid: &Grid<D>,
    (s, t): (&Coord, &Coord),
    rng: &mut dyn RngCore,
    cycles: &mut CycleTable<u32>,
    walk: &mut Vec<u32>,
) -> u64 {
    let from = walk.len();
    let mut meter = BitMeter::new(rng);
    router.walk(grid, &s.to_array(), &t.to_array(), &mut meter, walk);
    if router.cuts_cycles() {
        let kept = cycles.cut(&mut walk[from..]);
        walk.truncate(from + kept);
    }
    meter.bits_used()
}

/// The `select_path` body every router shares: the id walk in the
/// thread's scratch, decoded once into a path of its exact length. After
/// warm-up that path is the only allocation.
pub(crate) fn select_path<const D: usize, W: Walker<D>>(
    router: &W,
    s: &Coord,
    t: &Coord,
    rng: &mut dyn RngCore,
) -> RoutedPath {
    let grid = Grid::of(router.mesh());
    with_scratch(|sc| {
        let mut walk = std::mem::take(&mut sc.walk);
        walk.clear();
        let random_bits = walk_ids(router, &grid, (s, t), rng, &mut sc.cycles, &mut walk);
        let path = Path::from_ids(router.mesh(), s, &walk);
        sc.walk = walk;
        RoutedPath { path, random_bits }
    })
}

/// The `route_ids` body every router shares: each query, reseeded from
/// its own seed, walks straight into the batch's flat id buffer. Into a
/// warmed batch this allocates nothing.
pub(crate) fn route_ids<const D: usize, W: Walker<D>>(
    router: &W,
    queries: &[PathQuery],
    out: &mut IdBatch,
) {
    let grid = Grid::of(router.mesh());
    with_scratch(|sc| {
        for q in queries {
            let mut rng = StdRng::seed_from_u64(q.seed);
            let ends = (&q.src, &q.dst);
            let bits = walk_ids(router, &grid, ends, &mut rng, &mut sc.cycles, out.ids_mut());
            out.close(bits);
        }
    })
}

/// The most blocks a bitonic chain holds: `{s}`, `k` blocks up, the
/// peak, `k` blocks down, `{t}`, with `k ≤ MAX_K`.
const MAX_CHAIN: usize = 2 * MAX_K as usize + 3;

/// A bitonic chain of blocks in a fixed stack array.
#[derive(Debug, Clone)]
pub(crate) struct Chain<const D: usize> {
    blocks: [IntBox<D>; MAX_CHAIN],
    len: usize,
}

impl<const D: usize> Chain<D> {
    /// The one chain builder: `{s}`, the type-1 blocks of `s` at heights
    /// `1..=climb`, the peak, the type-1 blocks of `t` at heights
    /// `climb..=1`, `{t}`, consecutive duplicates dropped. `peak` finds
    /// `(climb, peak)` for distinct ends; for `s == t` it is not called
    /// and the chain is the single block `{s}`.
    #[inline]
    pub(crate) fn bitonic(
        s: &[u32; D],
        t: &[u32; D],
        peak: impl FnOnce() -> (u32, IntBox<D>),
    ) -> Self {
        // A zeroed array is one `memset`, where filling it with `{s}`
        // would unroll a store per block.
        let mut chain = Self {
            blocks: [IntBox::point([0; D]); MAX_CHAIN],
            len: 1,
        };
        chain.blocks[0] = IntBox::point(*s);
        if s == t {
            return chain;
        }
        let (climb, peak) = peak();
        debug_assert!(climb <= MAX_K);
        for h in 1..=climb {
            chain.push(IntBox::aligned(s, h));
        }
        chain.push(peak);
        for h in (1..=climb).rev() {
            chain.push(IntBox::aligned(t, h));
        }
        chain.push(IntBox::point(*t));
        chain
    }

    #[inline]
    fn push(&mut self, b: IntBox<D>) {
        if self.blocks[self.len - 1] != b {
            self.blocks[self.len] = b;
            self.len += 1;
        }
    }

    /// The blocks, `{s}` first and `{t}` last.
    #[inline]
    pub(crate) fn blocks(&self) -> &[IntBox<D>] {
        &self.blocks[..self.len]
    }

    /// The blocks as submeshes (no wrap-around).
    pub(crate) fn submeshes(&self) -> Vec<Submesh> {
        self.blocks().iter().map(IntBox::to_submesh).collect()
    }
}

/// How a chain's blocks sit on the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BlockKind {
    /// Boxes of the mesh, or of a larger virtual mesh around it, clipped
    /// to the mesh when sampled. A donor slices an axis only where its
    /// side is a power of two aligned to it.
    Clipped,
    /// Torus cubes, `hi = lo + side − 1` unreduced: every side is a power
    /// of two, so donor slices are always exact.
    Wrapping,
}

impl BlockKind {
    /// Per-axis donor bits that sample `b` exactly (0 if none).
    #[inline]
    fn donor_width<const D: usize>(self, b: &IntBox<D>) -> u32 {
        (0..D)
            .map(|i| self.slice_width(b.lo[i], b.side(i)).unwrap_or(0))
            .max()
            .unwrap_or(0)
    }

    /// The donor bits that sample `lo .. lo + side` exactly, if any.
    #[inline]
    fn slice_width(self, lo: u32, side: u32) -> Option<u32> {
        let exact = side.is_power_of_two() && (self == Self::Wrapping || lo & (side - 1) == 0);
        exact.then(|| side.trailing_zeros())
    }

    /// A uniform node of `b`: each axis sliced from `donor` where that is
    /// exact, else drawn from fresh bits, axis by axis. A clipped block
    /// may be non-power-aligned; its axes fall back to fresh metered bits
    /// (once per path, at a bridge).
    #[inline]
    fn sample<const D: usize>(
        self,
        grid: &Grid<D>,
        b: &IntBox<D>,
        donor: Option<&DonorNode>,
        meter: &mut BitMeter<'_>,
    ) -> [u32; D] {
        let mut c = [0u32; D];
        for (i, x) in c.iter_mut().enumerate() {
            let (lo, m) = (b.lo[i], grid.side(i));
            let hi = match self {
                Self::Clipped => b.hi[i].min(m - 1),
                Self::Wrapping => b.hi[i],
            };
            *x = match (donor, self.slice_width(lo, hi - lo + 1)) {
                (Some(donor), Some(w)) if w <= donor.width() => lo + donor.low_bits(i, w),
                _ => meter.range_inclusive(lo, hi),
            };
            // Only a wrapping cube's way-point can pass the ring's top.
            if *x >= m {
                *x -= m;
            }
        }
        c
    }
}

/// The one walk: pushes the id walk through `chain` onto `out`: the
/// source, then a dimension-by-dimension subpath to a way-point of each
/// further block (the destination for the last). Consecutive equal
/// blocks are skipped.
///
/// Recycled mode draws one dimension order for the whole path and two
/// donors wide enough for the widest exactly-sliceable block, then
/// alternates donors along the chain; fresh mode draws each way-point
/// and each subpath's order anew.
///
/// # Panics
/// Panics if the chain is empty.
pub(crate) fn walk<const D: usize>(
    grid: &Grid<D>,
    chain: &[IntBox<D>],
    kind: BlockKind,
    mode: RandomnessMode,
    meter: &mut BitMeter<'_>,
    out: &mut Vec<u32>,
) {
    let s = chain.first().expect("empty chain").lo;
    let t = chain[chain.len() - 1].lo;
    let mut cur = Cursor::start(grid, &s, out);
    if s == t {
        return;
    }
    let recycled = (mode == RandomnessMode::Recycled).then(|| {
        let order = meter.dim_order(D);
        let width = chain.iter().map(|b| kind.donor_width(b)).max().unwrap_or(0);
        let donors = [
            DonorNode::draw(meter, D, width),
            DonorNode::draw(meter, D, width),
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
            let donor = recycled.as_ref().map(|(_, pair)| &pair[i % 2]);
            kind.sample(grid, block, donor, meter)
        };
        let order = match &recycled {
            Some((order, _)) => *order,
            None => meter.dim_order(D),
        };
        cur.to(&v, &order[..D], out);
    }
}

/// Builds the packet path through a bitonic chain of submeshes.
///
/// `chain[0]` must be the singleton `{s}` and `chain.last()` the singleton
/// `{t}`; consecutive duplicates are allowed and skipped. Way-points are
/// drawn from each block clipped to the mesh. Returns the concatenated
/// path (cycles *not* yet removed — callers decide).
pub fn path_through_chain(
    mesh: &Mesh,
    chain: &[Submesh],
    mode: RandomnessMode,
    meter: &mut BitMeter<'_>,
) -> Path {
    let mut ids = Vec::new();
    with_dim!(mesh.dim(), D => {
        let boxes: Vec<IntBox<D>> = chain.iter().map(IntBox::of).collect();
        walk(&Grid::of(mesh), &boxes, BlockKind::Clipped, mode, meter, &mut ids);
    });
    Path::from_ids(mesh, chain[0].lo(), &ids)
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
