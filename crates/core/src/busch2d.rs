//! The paper's 2-dimensional algorithm (Section 3.3).
//!
//! A packet from `s` to `t` takes the bitonic access-graph path: up the
//! type-1 hierarchy from `s`, across the deepest common ancestor (a type-1
//! or type-2 *bridge*), and down the type-1 hierarchy to `t`, with a
//! uniformly random way-point in every submesh along the way and
//! random-one-bend subpaths in between. Guarantees (for the `2^k × 2^k`
//! mesh):
//!
//! * stretch ≤ 64 for every packet (Theorem 3.4);
//! * congestion `O(C* log n)` w.h.p. for every routing problem
//!   (Theorem 3.9).

use crate::chain::{self, walk_chain, Blocks, RandomnessMode, Walker};
use crate::randbits::BitMeter;
use crate::router::{IdBatch, ObliviousRouter, PathQuery, RoutedPath};
use oblivion_decomp::Decomp2;
use oblivion_mesh::{Coord, Mesh, Submesh};
use rand::RngCore;

/// The 2-D bridge router of Busch, Magdon-Ismail & Xi.
#[derive(Debug, Clone)]
pub struct Busch2D {
    mesh: Mesh,
    decomp: Decomp2,
    mode: RandomnessMode,
    remove_cycles: bool,
}

impl Busch2D {
    /// Creates the router for the `2^k × 2^k` mesh.
    ///
    /// # Panics
    /// Panics if the mesh is not square 2-D with power-of-two side.
    pub fn new(mesh: Mesh) -> Self {
        let _span = oblivion_obs::span("decomposition");
        let decomp = Decomp2::for_mesh(&mesh);
        Self {
            mesh,
            decomp,
            mode: RandomnessMode::default(),
            remove_cycles: true,
        }
    }

    /// Selects the randomness discipline (default: bit-recycled).
    pub fn with_mode(mut self, mode: RandomnessMode) -> Self {
        self.mode = mode;
        self
    }

    /// Keeps or removes cycles in emitted paths (default: removed, as the
    /// paper notes this never increases expected congestion).
    pub fn with_cycle_removal(mut self, on: bool) -> Self {
        self.remove_cycles = on;
        self
    }

    /// The decomposition in use.
    pub fn decomp(&self) -> &Decomp2 {
        &self.decomp
    }

    /// The submesh chain of the bitonic access-graph path for `(s, t)`:
    /// `{s}`, type-1 blocks of increasing size, the bridge, type-1 blocks
    /// of decreasing size, `{t}`.
    pub fn chain(&self, s: &Coord, t: &Coord) -> Vec<Submesh> {
        let mut chain = Vec::new();
        self.chain_into(s, t, &mut chain);
        chain
    }

    /// [`Self::chain`] into a caller-owned buffer (cleared first) so a
    /// batch of selections reuses one allocation — the scratch half of
    /// [`ObliviousRouter::route_batch`].
    pub fn chain_into(&self, s: &Coord, t: &Coord, chain: &mut Vec<Submesh>) {
        chain.clear();
        if s == t {
            chain.push(Submesh::point(*s));
            return;
        }
        let k = self.decomp.k();
        let (anc, h) = self.decomp.deepest_common_ancestor(s, t);
        oblivion_obs::record("access_height_climbed", h as u64);
        oblivion_obs::counter_add(
            match anc.kind {
                oblivion_decomp::BlockType2D::Type1 => "bridge_tree_hits",
                oblivion_decomp::BlockType2D::Type2 => "bridge_shifted_hits",
            },
            1,
        );
        chain.reserve(2 * (k - anc.level) as usize + 1);
        chain.push(Submesh::point(*s));
        for level in (anc.level + 1..k).rev() {
            chain.push(self.decomp.type1_block(level, s));
        }
        chain.push(anc.submesh);
        for level in anc.level + 1..k {
            chain.push(self.decomp.type1_block(level, t));
        }
        chain.push(Submesh::point(*t));
        chain.dedup();
    }
}

impl ObliviousRouter for Busch2D {
    fn name(&self) -> String {
        format!("busch-2d/{:?}", self.mode).to_lowercase()
    }

    fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    fn select_path(&self, s: &Coord, t: &Coord, rng: &mut dyn RngCore) -> RoutedPath {
        chain::select_path(self, s, t, rng)
    }

    fn route_ids(&self, queries: &[PathQuery], out: &mut IdBatch) {
        chain::route_ids(self, queries, out)
    }
}

impl Walker for Busch2D {
    fn cuts_cycles(&self) -> bool {
        self.remove_cycles
    }

    fn walk(
        &self,
        s: &Coord,
        t: &Coord,
        blocks: &mut Blocks,
        meter: &mut BitMeter<'_>,
        walk: &mut Vec<u32>,
    ) {
        self.chain_into(s, t, &mut blocks.chain);
        walk_chain(&self.mesh, &blocks.chain, self.mode, meter, None, walk);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::PathQuery;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn c(x: u32, y: u32) -> Coord {
        Coord::new(&[x, y])
    }

    fn router(k: u32) -> Busch2D {
        Busch2D::new(Mesh::new_mesh(&[1 << k, 1 << k]))
    }

    #[test]
    fn paths_are_valid_and_end_to_end() {
        let r = router(4);
        let mut rng = StdRng::seed_from_u64(11);
        for (s, t) in [
            (c(0, 0), c(15, 15)),
            (c(7, 7), c(8, 8)),
            (c(3, 12), c(3, 13)),
            (c(0, 15), c(15, 0)),
        ] {
            for _ in 0..20 {
                let rp = r.select_path(&s, &t, &mut rng);
                assert!(rp.path.is_valid(r.mesh()));
                assert_eq!(rp.path.source(), &s);
                assert_eq!(rp.path.target(), &t);
                assert!(rp.random_bits > 0);
            }
        }
    }

    #[test]
    fn trivial_pair_costs_nothing() {
        let r = router(3);
        let mut rng = StdRng::seed_from_u64(12);
        let rp = r.select_path(&c(2, 2), &c(2, 2), &mut rng);
        assert!(rp.path.is_empty());
        assert_eq!(rp.random_bits, 0);
    }

    /// Theorem 3.4: stretch ≤ 64 — checked on adversarial (boundary
    /// straddling) and random pairs, both randomness modes.
    #[test]
    fn stretch_bound_64() {
        for mode in [RandomnessMode::Fresh, RandomnessMode::Recycled] {
            let r = router(5).with_mode(mode);
            let mesh = r.mesh().clone();
            let mut rng = StdRng::seed_from_u64(13);
            let mut worst: f64 = 0.0;
            let mut pairs = vec![
                (c(15, 15), c(16, 16)),
                (c(15, 0), c(16, 0)),
                (c(0, 15), c(0, 16)),
                (c(15, 15), c(16, 15)),
            ];
            use rand::Rng;
            for _ in 0..200 {
                let s = c(rng.gen_range(0..32), rng.gen_range(0..32));
                let t = c(rng.gen_range(0..32), rng.gen_range(0..32));
                if s != t {
                    pairs.push((s, t));
                }
            }
            for (s, t) in pairs {
                for _ in 0..5 {
                    let rp = r.select_path(&s, &t, &mut rng);
                    worst = worst.max(rp.path.stretch(&mesh));
                }
            }
            assert!(worst <= 64.0, "stretch {worst} exceeds Theorem 3.4 bound");
        }
    }

    #[test]
    fn chain_is_bitonic_and_bridge_bounded() {
        let r = router(5);
        let s = c(15, 15);
        let t = c(16, 16);
        let chain = r.chain(&s, &t);
        let sizes: Vec<u64> = chain.iter().map(|b| b.node_count()).collect();
        let peak_idx = sizes.iter().enumerate().max_by_key(|(_, &v)| v).unwrap().0;
        assert!(sizes[..=peak_idx].windows(2).all(|w| w[0] < w[1]));
        assert!(sizes[peak_idx..].windows(2).all(|w| w[0] > w[1]));
        // dist = 2, Lemma 3.3: bridge height ≤ ⌈log 2⌉ + 2 = 3 → ≤ 8x8.
        assert!(sizes[peak_idx] <= 64);
    }

    #[test]
    fn cycle_removal_toggle() {
        let with = router(4);
        let without = router(4).with_cycle_removal(false);
        let mut rng = StdRng::seed_from_u64(14);
        for _ in 0..50 {
            let rp = with.select_path(&c(1, 2), &c(14, 13), &mut rng);
            assert!(rp.path.is_simple());
            let _ = without.select_path(&c(1, 2), &c(14, 13), &mut rng);
        }
    }

    #[test]
    fn determinism_per_seed() {
        let r = router(4);
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            r.select_path(&c(0, 0), &c(9, 9), &mut rng).path
        };
        assert_eq!(run(99), run(99));
    }

    /// route_batch is an optimization, never a behavior change: every
    /// answer must be byte-identical to a single-shot select_path with
    /// the same seed (the serve differential test leans on this).
    #[test]
    fn route_batch_matches_single_shot() {
        let r = router(4);
        let queries: Vec<PathQuery> = (0..40)
            .map(|i| PathQuery {
                seed: 0xB00 + i,
                src: c((i % 16) as u32, (i * 7 % 16) as u32),
                dst: c((i * 3 % 16) as u32, (15 - i % 16) as u32),
            })
            .collect();
        let mut batch = Vec::new();
        r.route_batch(&queries, &mut batch);
        assert_eq!(batch.len(), queries.len());
        for (q, rp) in queries.iter().zip(&batch) {
            let mut rng = StdRng::seed_from_u64(q.seed);
            let single = r.select_path(&q.src, &q.dst, &mut rng);
            assert_eq!(single.path.nodes(), rp.path.nodes(), "seed {}", q.seed);
            assert_eq!(single.random_bits, rp.random_bits);
        }
        // And via the trait-object default path used by the server.
        let dynr: &dyn ObliviousRouter = &r;
        let mut again = Vec::new();
        dynr.route_batch(&queries, &mut again);
        for (a, b) in batch.iter().zip(&again) {
            assert_eq!(a.path.nodes(), b.path.nodes());
        }
    }

    #[test]
    fn name_reports_mode() {
        assert_eq!(router(2).name(), "busch-2d/recycled");
        assert_eq!(
            router(2).with_mode(RandomnessMode::Fresh).name(),
            "busch-2d/fresh"
        );
    }
}
