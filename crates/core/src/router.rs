//! The oblivious-router interface.

use oblivion_mesh::{Coord, Mesh, Path};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// A path together with the number of random bits spent selecting it.
#[derive(Debug, Clone)]
pub struct RoutedPath {
    /// The selected packet path.
    pub path: Path,
    /// Random bits consumed (Section 5 accounting; 0 for deterministic
    /// algorithms).
    pub random_bits: u64,
}

/// One path request of a batch: the seed fixes the private randomness,
/// so the answer is a pure function of `(router, seed, src, dst)` —
/// exactly the serving layer's determinism contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathQuery {
    /// Seed for the request's private randomness.
    pub seed: u64,
    /// Source node.
    pub src: Coord,
    /// Destination node.
    pub dst: Coord,
}

/// An oblivious path-selection algorithm.
///
/// *Oblivious* means [`Self::select_path`] depends only on the single
/// source/destination pair (plus private randomness) — never on other
/// packets. All implementations in this crate uphold that by construction:
/// they receive nothing but `(s, t, rng)`.
///
/// Routers are `Send + Sync`: path selection is stateless per call, so
/// one router instance can serve packets from many threads at once (see
/// `route_all_parallel` and the sharded online simulator).
pub trait ObliviousRouter: Send + Sync {
    /// Human-readable algorithm name for reports.
    fn name(&self) -> String;

    /// The mesh this router routes on.
    fn mesh(&self) -> &Mesh;

    /// Approximate bytes of routing state this router holds alive —
    /// the mesh's own tables plus any per-router precomputation. The
    /// serving layer's registry exposes this per tenant
    /// (`mesh_state_bytes`) so the memory cost of keeping a mesh
    /// registered is a measured quantity, in the spirit of the
    /// compact-routing literature (Räcke–Schmid; Czerner–Räcke), not an
    /// accident. The default charges just the mesh; routers carrying
    /// extra precomputed state should add it on top.
    fn state_bytes(&self) -> u64 {
        self.mesh().state_bytes()
    }

    /// Selects a path from `s` to `t` using `rng` as the only source of
    /// randomness. Must return a valid walk from `s` to `t`.
    fn select_path(&self, s: &Coord, t: &Coord, rng: &mut dyn RngCore) -> RoutedPath;

    /// Redraws the path of an in-flight packet from its `current` node to
    /// `t` with fresh random bits — the fault-recovery entry point used by
    /// the online simulators' `resample` policy.
    ///
    /// Because the router is oblivious, the redraw is just another
    /// independent `(current, t)` selection: the new path is independent
    /// of the failed one, which is exactly why a handful of resamples
    /// route around any non-disconnecting fault set. Routers whose
    /// selection is position-dependent can override this.
    fn resample_path(&self, current: &Coord, t: &Coord, rng: &mut dyn RngCore) -> RoutedPath {
        self.select_path(current, t, rng)
    }

    /// Answers a burst of queries in one pass, appending one
    /// [`RoutedPath`] per query into `out` (cleared first, same order).
    ///
    /// Each query is routed with its own `StdRng::seed_from_u64(seed)`,
    /// so every answer is byte-identical to a single-shot
    /// [`Self::select_path`] with that seed — batching is purely a
    /// throughput optimization and callers may mix the two freely.
    /// Every router in this crate selects in its thread's route scratch,
    /// which keeps the block chain, the raw walk and the cycle-removal
    /// table between calls, so this default reuses all three across the
    /// burst: after warm-up each answer costs one allocation, its
    /// exact-size path.
    fn route_batch(&self, queries: &[PathQuery], out: &mut Vec<RoutedPath>) {
        out.clear();
        out.reserve(queries.len());
        for q in queries {
            let mut rng = StdRng::seed_from_u64(q.seed);
            out.push(self.select_path(&q.src, &q.dst, &mut rng));
        }
    }
}

/// Routes every pair of a routing problem, returning the selected paths.
///
/// This is the "time zero" moment of the synchronous model: all packets
/// select paths simultaneously and independently.
pub fn route_all<R: ObliviousRouter + ?Sized>(
    router: &R,
    pairs: &[(Coord, Coord)],
    rng: &mut dyn RngCore,
) -> Vec<Path> {
    pairs
        .iter()
        .map(|(s, t)| router.select_path(s, t, rng).path)
        .collect()
}

/// Like [`route_all`] but also returns total and maximum per-packet
/// random-bit usage: `(paths, total_bits, max_bits)`.
pub fn route_all_metered<R: ObliviousRouter + ?Sized>(
    router: &R,
    pairs: &[(Coord, Coord)],
    rng: &mut dyn RngCore,
) -> (Vec<Path>, u64, u64) {
    let _span = oblivion_obs::span("path_selection");
    let mut total = 0u64;
    let mut max = 0u64;
    let paths: Vec<Path> = pairs
        .iter()
        .map(|(s, t)| {
            let rp = router.select_path(s, t, rng);
            total += rp.random_bits;
            max = max.max(rp.random_bits);
            oblivion_obs::counter_add("packets_routed", 1);
            oblivion_obs::record("random_bits_per_packet", rp.random_bits);
            oblivion_obs::record("path_hops", rp.path.len() as u64);
            rp.path
        })
        .collect();
    oblivion_obs::counter_add("random_bits_total", total);
    (paths, total, max)
}
