//! Parallel path selection.
//!
//! Obliviousness is embarrassingly parallel — each packet's path depends
//! only on its own `(s, t)` and private randomness — so routing a large
//! problem should scale linearly with cores. The subtlety is
//! **reproducibility**: sharing one RNG across threads would make results
//! depend on scheduling. Instead, each packet gets its own RNG seeded from
//! `(base_seed, packet index)` via SplitMix64, which makes the output a
//! pure function of the inputs: identical for any thread count, including
//! the sequential reference.

use crate::router::ObliviousRouter;
use oblivion_mesh::{Coord, Path};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// SplitMix64: a fast, well-distributed 64→64-bit mixer, used to derive
/// per-packet seeds from `(base_seed, index)`.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// The RNG for packet `i` under `base_seed`.
fn packet_rng(base_seed: u64, i: usize) -> StdRng {
    StdRng::seed_from_u64(splitmix64(base_seed ^ splitmix64(i as u64)))
}

/// Sequential reference: routes every pair with an independent per-packet
/// RNG derived from `(base_seed, index)`.
///
/// Produces exactly the same paths as [`route_all_parallel`] with any
/// thread count.
pub fn route_all_seeded<R: ObliviousRouter + ?Sized>(
    router: &R,
    pairs: &[(Coord, Coord)],
    base_seed: u64,
) -> Vec<Path> {
    pairs
        .iter()
        .enumerate()
        .map(|(i, (s, t))| {
            let mut rng = packet_rng(base_seed, i);
            router.select_path(s, t, &mut rng).path
        })
        .collect()
}

/// Routes every pair across `threads` scoped OS threads
/// ([`std::thread::scope`]), with per-packet deterministic seeding.
///
/// ```
/// use oblivion_core::{route_all_parallel, route_all_seeded, Busch2D};
/// use oblivion_mesh::{Coord, Mesh};
///
/// let mesh = Mesh::new_mesh(&[16, 16]);
/// let router = Busch2D::new(mesh.clone());
/// let pairs = vec![(Coord::new(&[0, 0]), Coord::new(&[15, 15]))];
/// // Identical output for any thread count:
/// assert_eq!(
///     route_all_parallel(&router, &pairs, 7, 4),
///     route_all_seeded(&router, &pairs, 7),
/// );
/// ```
///
/// # Panics
/// Panics if `threads == 0`, or if a worker thread panics.
pub fn route_all_parallel<R: ObliviousRouter + Sync + ?Sized>(
    router: &R,
    pairs: &[(Coord, Coord)],
    base_seed: u64,
    threads: usize,
) -> Vec<Path> {
    assert!(threads >= 1);
    if threads == 1 || pairs.len() < 2 {
        return route_all_seeded(router, pairs, base_seed);
    }
    let mut out: Vec<Option<Path>> = vec![None; pairs.len()];
    // Static block partition: chunk c handles indices [c*chunk, (c+1)*chunk).
    let chunk = pairs.len().div_ceil(threads);
    std::thread::scope(|scope| {
        for (c, out_chunk) in out.chunks_mut(chunk).enumerate() {
            let offset = c * chunk;
            scope.spawn(move || {
                for (j, slot) in out_chunk.iter_mut().enumerate() {
                    let i = offset + j;
                    let (s, t) = &pairs[i];
                    let mut rng = packet_rng(base_seed, i);
                    *slot = Some(router.select_path(s, t, &mut rng).path);
                }
            });
        }
    });
    out.into_iter().map(Option::unwrap).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Busch2D, BuschD, Valiant};
    use oblivion_mesh::Mesh;
    use rand::Rng;

    fn pairs(mesh: &Mesh, n: usize, seed: u64) -> Vec<(Coord, Coord)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let a = mesh.coord(oblivion_mesh::NodeId(rng.gen_range(0..mesh.node_count())));
                let b = mesh.coord(oblivion_mesh::NodeId(rng.gen_range(0..mesh.node_count())));
                (a, b)
            })
            .collect()
    }

    #[test]
    fn parallel_equals_sequential_for_any_thread_count() {
        let mesh = Mesh::new_mesh(&[32, 32]);
        let router = Busch2D::new(mesh.clone());
        let ps = pairs(&mesh, 300, 1);
        let reference = route_all_seeded(&router, &ps, 99);
        for threads in [1usize, 2, 3, 7, 16] {
            let par = route_all_parallel(&router, &ps, 99, threads);
            assert_eq!(par, reference, "threads = {threads}");
        }
    }

    #[test]
    fn different_seeds_give_different_routings() {
        let mesh = Mesh::new_mesh(&[16, 16]);
        let router = Busch2D::new(mesh.clone());
        let ps = pairs(&mesh, 100, 2);
        let a = route_all_seeded(&router, &ps, 1);
        let b = route_all_seeded(&router, &ps, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn packets_are_independent_of_position() {
        // Moving a pair to a different index must not change OTHER packets'
        // paths relative to their own index — per-packet seeding isolates
        // them completely.
        let mesh = Mesh::new_mesh(&[16, 16]);
        let router = BuschD::new(mesh.clone());
        let ps = pairs(&mesh, 50, 3);
        let full = route_all_seeded(&router, &ps, 7);
        // Route only a prefix: identical prefix paths.
        let prefix = route_all_seeded(&router, &ps[..20], 7);
        assert_eq!(&full[..20], &prefix[..]);
    }

    #[test]
    fn all_paths_valid_under_parallelism() {
        let mesh = Mesh::new_mesh(&[16, 16]);
        let router = Valiant::new(mesh.clone());
        let ps = pairs(&mesh, 200, 4);
        for p in route_all_parallel(&router, &ps, 5, 4) {
            assert!(p.is_valid(&mesh));
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let mesh = Mesh::new_mesh(&[8, 8]);
        let router = Busch2D::new(mesh.clone());
        assert!(route_all_parallel(&router, &[], 1, 8).is_empty());
        let one = pairs(&mesh, 1, 5);
        assert_eq!(route_all_parallel(&router, &one, 1, 8).len(), 1);
    }

    #[test]
    #[should_panic]
    fn zero_threads_rejected() {
        let mesh = Mesh::new_mesh(&[8, 8]);
        let router = Busch2D::new(mesh.clone());
        let _ = route_all_parallel(&router, &[], 1, 0);
    }
}
