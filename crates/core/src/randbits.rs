//! Metered randomness: every random bit a router consumes is counted.
//!
//! Section 5 of the paper is about *how much* randomness oblivious routing
//! needs: a κ-choice algorithm needs `log κ` bits per packet, deterministic
//! algorithms (κ = 1) provably congest, and algorithm H needs only
//! `O(d·log(D'·d))` bits (Lemma 5.4), within `O(d)` of the lower bound.
//! To measure this, routers never touch an `Rng` directly; they draw from a
//! [`BitMeter`], which pulls single bits from the underlying RNG on demand
//! and counts exactly how many were consumed (including rejection-sampling
//! retries, which the `log κ` accounting must pay for too).

use oblivion_mesh::{Coord, Submesh, MAX_DIM};
use rand::RngCore;

/// A bit-granular, bit-counting source of randomness.
///
/// Wraps any [`RngCore`]; bits are taken from buffered 64-bit words so the
/// count reflects bits *consumed by the algorithm*, not RNG call overhead.
pub struct BitMeter<'a> {
    rng: &'a mut dyn RngCore,
    buf: u64,
    buf_left: u32,
    used: u64,
}

impl<'a> BitMeter<'a> {
    /// Creates a meter drawing from `rng`, with the counter at zero.
    pub fn new(rng: &'a mut dyn RngCore) -> Self {
        Self {
            rng,
            buf: 0,
            buf_left: 0,
            used: 0,
        }
    }

    /// Number of random bits consumed so far.
    #[inline]
    pub fn bits_used(&self) -> u64 {
        self.used
    }

    /// Draws one uniform bit.
    #[inline]
    pub fn bit(&mut self) -> bool {
        if self.buf_left == 0 {
            self.buf = self.rng.next_u64();
            self.buf_left = 64;
        }
        let b = self.buf & 1 == 1;
        self.buf >>= 1;
        self.buf_left -= 1;
        self.used += 1;
        b
    }

    /// Draws `n ≤ 63` uniform bits as an integer in `[0, 2^n)`.
    pub fn bits(&mut self, n: u32) -> u64 {
        debug_assert!(n <= 63);
        let mut v = 0u64;
        for _ in 0..n {
            v = (v << 1) | u64::from(self.bit());
        }
        v
    }

    /// Uniform integer in `[0, n)` by rejection sampling on
    /// `⌈log₂ n⌉`-bit draws. Counts all bits, including rejected draws.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n >= 1);
        if n == 1 {
            return 0;
        }
        let width = 64 - (n - 1).leading_zeros(); // ceil(log2 n)
        loop {
            let v = self.bits(width);
            if v < n {
                return v;
            }
        }
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    pub fn range_inclusive(&mut self, lo: u32, hi: u32) -> u32 {
        debug_assert!(lo <= hi);
        lo + self.below(u64::from(hi - lo) + 1) as u32
    }

    /// A node sampled uniformly from a submesh.
    pub fn uniform_node(&mut self, sub: &Submesh) -> Coord {
        let mut c = *sub.lo();
        for i in 0..sub.dim() {
            c[i] = self.range_inclusive(sub.lo()[i], sub.hi()[i]);
        }
        c
    }

    /// A uniformly random ordering of `0..d` (Fisher–Yates), costing
    /// `Θ(log d!)` bits. The order is the first `d` entries; the rest
    /// keep their own index.
    pub fn dim_order(&mut self, d: usize) -> [usize; MAX_DIM] {
        let mut order: [usize; MAX_DIM] = std::array::from_fn(|i| i);
        for i in (1..d).rev() {
            let j = self.below(i as u64 + 1) as usize;
            order.swap(i, j);
        }
        order
    }
}

/// A fixed pool of pre-drawn random bits that can be *re-read* at different
/// widths — the bit-recycling donors of Section 5.3.
///
/// The paper cuts the bit budget by a `log(D'd)` factor by drawing two
/// random nodes `v̂₁, v̂₂` of the largest submesh on the bitonic path once,
/// then deriving every intermediate random node from slices of their
/// coordinate bits. [`DonorNode`] stores one such node as per-axis bit
/// strings; [`DonorNode::low_bits`] re-reads the low `s` bits of an axis,
/// which are exactly uniform because the chain submeshes are power-of-two
/// sized and grid-aligned.
#[derive(Debug, Clone)]
pub struct DonorNode {
    /// Per-axis uniform values of `width` bits each.
    axis_bits: [u64; MAX_DIM],
    width: u32,
}

impl DonorNode {
    /// Draws a donor with `width` uniform bits per axis (counted on `meter`).
    pub fn draw(meter: &mut BitMeter<'_>, d: usize, width: u32) -> Self {
        let mut axis_bits = [0; MAX_DIM];
        for bits in &mut axis_bits[..d] {
            *bits = meter.bits(width);
        }
        Self { axis_bits, width }
    }

    /// The low `s ≤ width` bits of axis `i`: a uniform value in `[0, 2^s)`.
    #[inline]
    pub fn low_bits(&self, i: usize, s: u32) -> u32 {
        debug_assert!(
            s <= self.width,
            "asked for {s} bits, donor has {}",
            self.width
        );
        if s == 0 {
            return 0;
        }
        (self.axis_bits[i] & ((1u64 << s) - 1)) as u32
    }

    /// Width in bits per axis.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bits_are_counted() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = BitMeter::new(&mut rng);
        let _ = m.bits(10);
        assert_eq!(m.bits_used(), 10);
        let _ = m.bit();
        assert_eq!(m.bits_used(), 11);
    }

    #[test]
    fn below_power_of_two_uses_exact_width() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut m = BitMeter::new(&mut rng);
        let _ = m.below(8);
        assert_eq!(m.bits_used(), 3);
        let _ = m.below(1);
        assert_eq!(m.bits_used(), 3); // no bits for a singleton
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut m = BitMeter::new(&mut rng);
        let mut seen = [false; 5];
        for _ in 0..200 {
            let v = m.below(5) as usize;
            assert!(v < 5);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn below_rejection_costs_extra_bits() {
        // n = 5 needs 3-bit draws; on average 8/5 draws per sample, so the
        // average cost must exceed 3 bits.
        let mut rng = StdRng::seed_from_u64(4);
        let mut m = BitMeter::new(&mut rng);
        let samples = 2000;
        for _ in 0..samples {
            let _ = m.below(5);
        }
        let avg = m.bits_used() as f64 / samples as f64;
        assert!(avg > 3.0 && avg < 6.0, "avg = {avg}");
    }

    #[test]
    fn range_inclusive_endpoints() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut m = BitMeter::new(&mut rng);
        for _ in 0..100 {
            let v = m.range_inclusive(7, 9);
            assert!((7..=9).contains(&v));
        }
        assert_eq!(m.range_inclusive(4, 4), 4);
    }

    #[test]
    fn uniform_node_in_submesh() {
        let sub = Submesh::new(Coord::new(&[2, 0]), Coord::new(&[3, 7]));
        let mut rng = StdRng::seed_from_u64(6);
        let mut m = BitMeter::new(&mut rng);
        for _ in 0..100 {
            assert!(sub.contains(&m.uniform_node(&sub)));
        }
    }

    #[test]
    fn dim_order_is_permutation() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut m = BitMeter::new(&mut rng);
        for d in 1..=6 {
            let mut o = m.dim_order(d);
            o[..d].sort_unstable();
            assert_eq!(o[..d], (0..d).collect::<Vec<_>>());
        }
    }

    #[test]
    fn dim_order_costs_log_factorial_bits() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut m = BitMeter::new(&mut rng);
        let trials = 500;
        for _ in 0..trials {
            let _ = m.dim_order(4);
        }
        // log2(4!) ≈ 4.58; rejection overhead allows up to ~7.
        let avg = m.bits_used() as f64 / trials as f64;
        assert!((4.0..=8.0).contains(&avg), "avg = {avg}");
    }

    #[test]
    fn donor_slices_are_consistent_and_uniformish() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut m = BitMeter::new(&mut rng);
        let donor = DonorNode::draw(&mut m, 2, 10);
        assert_eq!(m.bits_used(), 20);
        // Low-slices nest: low 3 bits are the low 3 of the low 5.
        let l5 = donor.low_bits(0, 5);
        let l3 = donor.low_bits(0, 3);
        assert_eq!(l3, l5 & 0b111);
        assert_eq!(donor.low_bits(1, 0), 0);
    }

    #[test]
    fn determinism_given_seed() {
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut m = BitMeter::new(&mut rng);
            (m.bits(17), m.below(1000), m.dim_order(5))
        };
        assert_eq!(draw(42), draw(42));
    }
}
