//! Property tests for the synchronous simulator: conservation, capacity,
//! the C/D lower bounds, and agreement with the naive test oracle, on
//! randomly routed random workloads.

mod oracle;

use oblivion_core::{route_all, BuschD, Valiant};
use oblivion_mesh::{Coord, Mesh};
use oblivion_metrics::PathSetMetrics;
use oblivion_sim::{SchedulingPolicy, Simulation};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn scenario() -> impl Strategy<Value = (usize, u32, Vec<(usize, usize)>, u64)> {
    (1usize..=3, 2u32..=4)
        .prop_filter("size cap", |(d, k)| d * (*k as usize) <= 9)
        .prop_flat_map(|(d, k)| {
            let n = 1usize << (k as usize * d);
            (
                Just(d),
                Just(k),
                prop::collection::vec((0..n, 0..n), 1..40),
                any::<u64>(),
            )
        })
}

fn policies() -> [SchedulingPolicy; 4] {
    [
        SchedulingPolicy::Fifo,
        SchedulingPolicy::FurthestToGo,
        SchedulingPolicy::ClosestToGo,
        SchedulingPolicy::RandomRank,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every packet is delivered; makespan >= max(C, D); makespan <= C·D + D
    /// (each hop waits at most C-1 steps... loose safe bound: total moves).
    #[test]
    fn delivery_and_bounds((d, k, raw_pairs, seed) in scenario()) {
        let mesh = Mesh::new_mesh(&vec![1u32 << k; d]);
        let pairs: Vec<(Coord, Coord)> = raw_pairs
            .iter()
            .map(|&(a, b)| {
                (mesh.coord(oblivion_mesh::NodeId(a)), mesh.coord(oblivion_mesh::NodeId(b)))
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let router = BuschD::new(mesh.clone());
        let paths = route_all(&router, &pairs, &mut rng);
        let m = PathSetMetrics::measure(&mesh, &paths);
        for policy in policies() {
            let res = Simulation::new(&mesh, paths.clone()).run(policy, seed);
            // Everyone arrives by the makespan.
            prop_assert_eq!(res.delivery.len(), paths.len());
            for (i, &t) in res.delivery.iter().enumerate() {
                prop_assert!(t <= res.makespan);
                // A packet needs at least its path length.
                prop_assert!(t >= paths[i].len() as u64, "{policy:?}");
            }
            // Ω(C + D)-side bounds: makespan >= D and >= C.
            prop_assert!(res.makespan >= m.dilation as u64);
            prop_assert!(res.makespan >= u64::from(m.congestion));
            // And the trivial upper bound: total moves.
            prop_assert!(res.makespan <= res.total_moves.max(1));
            prop_assert_eq!(res.total_moves, m.total_length);
        }
    }

    /// The simulator is deterministic given (paths, policy, seed), even
    /// for the random-rank policy.
    #[test]
    fn reproducible((d, k, raw_pairs, seed) in scenario()) {
        let mesh = Mesh::new_mesh(&vec![1u32 << k; d]);
        let pairs: Vec<(Coord, Coord)> = raw_pairs
            .iter()
            .map(|&(a, b)| {
                (mesh.coord(oblivion_mesh::NodeId(a)), mesh.coord(oblivion_mesh::NodeId(b)))
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let router = Valiant::new(mesh.clone());
        let paths = route_all(&router, &pairs, &mut rng);
        let r1 = Simulation::new(&mesh, paths.clone()).run(SchedulingPolicy::RandomRank, seed);
        let r2 = Simulation::new(&mesh, paths).run(SchedulingPolicy::RandomRank, seed);
        prop_assert_eq!(r1.delivery, r2.delivery);
        prop_assert_eq!(r1.makespan, r2.makespan);
        prop_assert_eq!(r1.max_contention, r2.max_contention);
    }

    /// The offline engine equals the oracle field for field, for every
    /// policy, with random per-packet delays (and without delays).
    #[test]
    fn matches_oracle_with_random_delays((d, k, raw_pairs, seed) in scenario()) {
        let mesh = Mesh::new_mesh(&vec![1u32 << k; d]);
        let pairs: Vec<(Coord, Coord)> = raw_pairs
            .iter()
            .map(|&(a, b)| {
                (mesh.coord(oblivion_mesh::NodeId(a)), mesh.coord(oblivion_mesh::NodeId(b)))
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let router = Valiant::new(mesh.clone());
        let paths = route_all(&router, &pairs, &mut rng);
        let delays: Vec<u64> = paths.iter().map(|_| rng.gen_range(0..=8)).collect();
        for policy in policies() {
            for delays in [None, Some(delays.as_slice())] {
                let got = Simulation::new(&mesh, paths.clone()).run_with_delays(policy, seed, delays);
                let want = oracle::simulate(&mesh, &paths, policy, seed, delays);
                prop_assert_eq!(got.makespan, want.makespan, "{:?}", policy);
                prop_assert_eq!(&got.delivery, &want.delivery, "{:?}", policy);
                prop_assert_eq!(got.total_moves, want.total_moves);
                prop_assert_eq!(got.max_contention, want.max_contention, "{:?}", policy);
                prop_assert_eq!(got.max_queue, want.max_queue, "{:?}", policy);
            }
        }
    }
}
