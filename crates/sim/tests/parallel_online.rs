//! Differential tests: the sharded parallel engine must produce the
//! exact same simulation outcome as the naive test oracle — for every
//! thread count, policy, traffic pattern, and mesh shape — and its
//! deterministic shard statistics must not depend on the thread count.

mod oracle;

use oblivion_mesh::{Coord, Mesh};
use oblivion_sim::{
    FixedTraffic, OnlineResult, OnlineSim, SchedulingPolicy, TrafficPattern, UniformTraffic,
};
use oracle::AxisOrder;

const THREADS: [usize; 4] = [1, 2, 3, 8];

/// Asserts the sharded run matches the oracle bit-for-bit
/// at every thread count, and that the shard summary is identical across
/// thread counts.
fn assert_equivalent(
    mesh: &Mesh,
    policy: SchedulingPolicy,
    rate: f64,
    pattern: &dyn TrafficPattern,
    steps: u64,
    seed: u64,
) {
    let sim = OnlineSim::new(mesh, policy, rate);
    let paths = oracle::dim_order(mesh, AxisOrder::Ascending);
    let reference: OnlineResult = oracle::run(&sim, pattern, &paths, steps, seed);
    let mut summaries = Vec::new();
    for threads in THREADS {
        let sharded = sim.run_sharded(pattern, &paths, steps, seed, threads);
        assert!(
            sharded.same_outcome(&reference),
            "threads={threads} policy={policy:?} dims={:?}:\n sharded {sharded:?}\n  vs oracle {reference:?}",
            mesh.dims(),
        );
        summaries.push(sharded.sharding.expect("sharded run reports a summary"));
    }
    for s in &summaries[1..] {
        assert_eq!(
            *s, summaries[0],
            "shard summary must not depend on thread count"
        );
    }
}

#[test]
fn matches_oracle_on_2d_mesh_all_policies() {
    let mesh = Mesh::new_mesh(&[8, 8]);
    let pattern = UniformTraffic::new(mesh.clone());
    for policy in [
        SchedulingPolicy::Fifo,
        SchedulingPolicy::FurthestToGo,
        SchedulingPolicy::ClosestToGo,
        SchedulingPolicy::RandomRank,
    ] {
        assert_equivalent(&mesh, policy, 0.15, &pattern, 150, 0xA11CE);
    }
}

#[test]
fn matches_oracle_on_3d_mesh() {
    let mesh = Mesh::new_mesh(&[4, 4, 4]);
    let pattern = UniformTraffic::new(mesh.clone());
    assert_equivalent(&mesh, SchedulingPolicy::Fifo, 0.1, &pattern, 120, 7);
    assert_equivalent(&mesh, SchedulingPolicy::RandomRank, 0.1, &pattern, 120, 8);
}

#[test]
fn matches_oracle_on_1d_line() {
    // side(0) = 4 < MAX_SHARDS: exercises the few-shards path where most
    // steps hand packets across shard boundaries.
    let mesh = Mesh::new_mesh(&[4]);
    let pattern = UniformTraffic::new(mesh.clone());
    assert_equivalent(&mesh, SchedulingPolicy::Fifo, 0.3, &pattern, 100, 11);
}

#[test]
fn matches_oracle_on_torus() {
    let mesh = Mesh::new_torus(&[8, 8]);
    let pattern = UniformTraffic::new(mesh.clone());
    assert_equivalent(
        &mesh,
        SchedulingPolicy::FurthestToGo,
        0.1,
        &pattern,
        120,
        12,
    );
}

#[test]
fn matches_oracle_under_transpose_traffic() {
    let mesh = Mesh::new_mesh(&[16, 16]);
    let pattern = FixedTraffic {
        pattern_name: "transpose".into(),
        map: |c| Coord::new(&[c[1], c[0]]),
    };
    assert_equivalent(&mesh, SchedulingPolicy::Fifo, 0.08, &pattern, 200, 13);
}

#[test]
fn matches_oracle_under_saturation() {
    // Heavy congestion: long queues, many handoffs, full drain phase.
    let mesh = Mesh::new_mesh(&[8, 8]);
    let pattern = UniformTraffic::new(mesh.clone());
    assert_equivalent(&mesh, SchedulingPolicy::Fifo, 0.8, &pattern, 80, 14);
}

#[test]
fn matches_oracle_under_saturation_every_policy() {
    // The saturated run under the keys that order by remaining hops or
    // by random rank: each shard holds hundreds of packets, so its
    // changed-packet bitset spans several 64-bit words.
    let mesh = Mesh::new_mesh(&[8, 8]);
    let pattern = UniformTraffic::new(mesh.clone());
    for policy in [
        SchedulingPolicy::FurthestToGo,
        SchedulingPolicy::ClosestToGo,
        SchedulingPolicy::RandomRank,
    ] {
        assert_equivalent(&mesh, policy, 0.8, &pattern, 80, 14);
    }
}

#[test]
fn link_load_totals_conserve_traffic() {
    // Fully drained run: every delivered packet of length L contributes
    // exactly L traversals, so total load equals total delivered hops in
    // both the engine and the oracle.
    let mesh = Mesh::new_mesh(&[8, 8]);
    let pattern = UniformTraffic::new(mesh.clone());
    let sim = OnlineSim::new(&mesh, SchedulingPolicy::Fifo, 0.03);
    let paths = oracle::dim_order(&mesh, AxisOrder::Ascending);
    let seq = oracle::run(&sim, &pattern, &paths, 200, 21);
    let par = sim.run_sharded(&pattern, &paths, 200, 21, 4);
    assert_eq!(seq.in_flight, 0, "low-rate run should drain");
    assert_eq!(seq.link_loads, par.link_loads);
    assert!(seq.link_loads.iter().sum::<u64>() > 0);
}

#[test]
fn sharded_runs_are_reproducible() {
    let mesh = Mesh::new_mesh(&[8, 8]);
    let pattern = UniformTraffic::new(mesh.clone());
    let sim = OnlineSim::new(&mesh, SchedulingPolicy::RandomRank, 0.2);
    let paths = oracle::dim_order(&mesh, AxisOrder::Ascending);
    let a = sim.run_sharded(&pattern, &paths, 150, 31, 8);
    let b = sim.run_sharded(&pattern, &paths, 150, 31, 8);
    assert_eq!(a, b, "same seed and threads must reproduce exactly");
    let c = sim.run_sharded(&pattern, &paths, 150, 32, 8);
    assert_ne!(a.link_loads, c.link_loads, "different seed must differ");
}
