//! Differential and property tests for deterministic fault injection.
//!
//! The contract under test:
//!
//! * the sharded engine produces the exact same outcome (including every
//!   fault tally) as the naive test oracle, for every thread count,
//!   fault mode, and recovery policy;
//! * attaching a trivial plan changes nothing but the presence of the
//!   (all-zero) fault statistics;
//! * no delivered packet ever traverses a permanently-down link; and
//! * packets are conserved: every injected packet is delivered, dead, or
//!   still in flight at the horizon.

mod oracle;

use oblivion_core::{ObliviousRouter, Valiant};
use oblivion_faults::{FaultConfig, FaultMode, FaultPlan, RecoveryPolicy};
use oblivion_mesh::{Coord, Mesh};
use oblivion_sim::{Faults, OnlineResult, OnlineSim, SchedulingPolicy, UniformTraffic};
use oracle::AxisOrder;
use proptest::prelude::*;
use rand::rngs::StdRng;

const THREADS: [usize; 4] = [1, 2, 3, 8];

fn run_pair(
    mesh: &Mesh,
    cfg: &FaultConfig,
    recovery: RecoveryPolicy,
    steps: u64,
    seed: u64,
    fault_seed: u64,
) -> (OnlineResult, Vec<OnlineResult>) {
    let plan = FaultPlan::new(mesh, cfg, fault_seed, 2 * steps);
    let pattern = UniformTraffic::new(mesh.clone());
    let paths = oracle::dim_order(mesh, AxisOrder::Shuffled);
    let sim = OnlineSim::new(mesh, SchedulingPolicy::Fifo, 0.15).with_faults(Faults {
        plan: &plan,
        recovery,
        retry_budget: 8,
    });
    let reference = oracle::run(&sim, &pattern, &paths, steps, seed);
    let sharded = THREADS
        .iter()
        .map(|&threads| sim.run_sharded(&pattern, &paths, steps, seed, threads))
        .collect();
    (reference, sharded)
}

#[test]
fn fault_runs_match_oracle_for_every_mode_and_policy() {
    let mesh = Mesh::new_mesh(&[8, 8]);
    for mode in [FaultMode::Permanent, FaultMode::Transient] {
        for recovery in [
            RecoveryPolicy::Wait,
            RecoveryPolicy::Resample,
            RecoveryPolicy::DropAfterBudget,
        ] {
            let cfg = FaultConfig {
                link_fail_prob: 0.08,
                mode,
                drop_prob: 0.01,
                ..FaultConfig::default()
            };
            let (reference, sharded) = run_pair(&mesh, &cfg, recovery, 120, 0xFA_07, 0xBAD);
            let fs = reference.faults.expect("fault stats present");
            assert!(
                fs.blocked > 0,
                "{mode:?}/{recovery:?}: plan never blocked anything — test is vacuous"
            );
            for (r, &threads) in sharded.iter().zip(&THREADS) {
                assert!(
                    r.same_outcome(&reference),
                    "{mode:?}/{recovery:?} threads={threads}:\n sharded {r:?}\n  vs oracle {reference:?}"
                );
            }
        }
    }
}

/// Every scheduling policy under heavy per-link drop, on Valiant's
/// non-minimal paths. A resample redraws the path from the current node,
/// changing the packet's link and its remaining hops, so the engine must
/// refresh its cached contention key; a dead-lettered or resampled
/// packet must leave its shard's wait array or take a new place in it.
#[test]
fn every_policy_matches_oracle_under_heavy_drop() {
    let mesh = Mesh::new_mesh(&[8, 8]);
    let router = Valiant::new(mesh.clone());
    let paths = |s: &Coord, t: &Coord, rng: &mut StdRng| router.select_path(s, t, rng).path;
    let cfg = FaultConfig {
        link_fail_prob: 0.05,
        drop_prob: 0.2,
        ..FaultConfig::default()
    };
    let plan = FaultPlan::new(&mesh, &cfg, 7, 240);
    let pattern = UniformTraffic::new(mesh.clone());
    for policy in [
        SchedulingPolicy::Fifo,
        SchedulingPolicy::FurthestToGo,
        SchedulingPolicy::ClosestToGo,
        SchedulingPolicy::RandomRank,
    ] {
        for recovery in [RecoveryPolicy::Resample, RecoveryPolicy::DropAfterBudget] {
            let sim = OnlineSim::new(&mesh, policy, 0.1).with_faults(Faults {
                plan: &plan,
                recovery,
                retry_budget: 4,
            });
            let reference = oracle::run(&sim, &pattern, &paths, 120, 0xD20B);
            let fs = reference.faults.expect("fault stats present");
            let recovered = match recovery {
                RecoveryPolicy::Resample => fs.resamples,
                _ => fs.dead_letters,
            };
            assert!(
                fs.drops > 0 && recovered > 0,
                "{policy:?}/{recovery:?}: {fs:?} — test is vacuous"
            );
            for threads in THREADS {
                let r = sim.run_sharded(&pattern, &paths, 120, 0xD20B, threads);
                assert!(
                    r.same_outcome(&reference),
                    "{policy:?}/{recovery:?} threads={threads}:\n sharded {r:?}\n  vs oracle {reference:?}"
                );
            }
        }
    }
}

#[test]
fn node_faults_match_oracle_across_threads() {
    let mesh = Mesh::new_mesh(&[8, 8]);
    let cfg = FaultConfig {
        node_fail_prob: 0.05,
        link_fail_prob: 0.03,
        ..FaultConfig::default()
    };
    let (reference, sharded) = run_pair(&mesh, &cfg, RecoveryPolicy::Resample, 120, 3, 4);
    let fs = reference.faults.expect("fault stats present");
    assert!(fs.failed_nodes > 0, "no node failed — test is vacuous");
    assert!(
        fs.src_down_skips > 0 || fs.dead_on_injection > 0,
        "dead nodes never touched injection"
    );
    for (r, &threads) in sharded.iter().zip(&THREADS) {
        assert!(r.same_outcome(&reference), "threads={threads}");
    }
}

#[test]
fn trivial_plan_is_bit_identical_to_no_plan() {
    let mesh = Mesh::new_mesh(&[8, 8]);
    let plan = FaultPlan::trivial(&mesh);
    assert!(plan.is_trivial());
    let pattern = UniformTraffic::new(mesh.clone());
    let paths = oracle::dim_order(&mesh, AxisOrder::Shuffled);
    let bare = OnlineSim::new(&mesh, SchedulingPolicy::Fifo, 0.2);
    let faulted = OnlineSim::new(&mesh, SchedulingPolicy::Fifo, 0.2).with_faults(Faults {
        plan: &plan,
        recovery: RecoveryPolicy::Resample,
        retry_budget: 8,
    });
    let a = bare.run(&pattern, &paths, 150, 9);
    let b = faulted.run(&pattern, &paths, 150, 9);
    assert!(a.faults.is_none());
    let fs = b.faults.expect("stats attached even for a trivial plan");
    assert_eq!(fs, Default::default(), "trivial plan must tally nothing");
    // Everything the simulation computed is unchanged.
    assert_eq!(a.injected, b.injected);
    assert_eq!(a.delivered, b.delivered);
    assert_eq!(a.mean_latency.to_bits(), b.mean_latency.to_bits());
    assert_eq!(a.p95_latency.to_bits(), b.p95_latency.to_bits());
    assert_eq!(a.link_loads, b.link_loads);
    // And the sharded engine agrees with itself under the trivial plan.
    let c = faulted.run_sharded(&pattern, &paths, 150, 9, 8);
    assert!(c.same_outcome(&b));
}

#[test]
fn dead_letters_appear_under_permanent_faults_with_finite_budget() {
    let mesh = Mesh::new_mesh(&[8, 8]);
    let cfg = FaultConfig {
        link_fail_prob: 0.15,
        mode: FaultMode::Permanent,
        ..FaultConfig::default()
    };
    let (reference, _) = run_pair(&mesh, &cfg, RecoveryPolicy::DropAfterBudget, 150, 1, 2);
    let fs = reference.faults.unwrap();
    assert!(
        fs.dead_letters > 0,
        "15% permanent link faults with a finite budget must dead-letter"
    );
    assert!(reference.delivered_fraction() < 1.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// No delivered packet traverses a down link: every link the plan
    /// holds down for the whole run records zero traversals — in the
    /// engine and the oracle — and packets are conserved.
    #[test]
    fn down_links_carry_no_traffic(
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
        link_fail_pct in 2u32..25,
        node_fail_pct in 0u32..8,
        recovery_ix in 0usize..3,
    ) {
        let mesh = Mesh::new_mesh(&[6, 6]);
        let cfg = FaultConfig {
            link_fail_prob: f64::from(link_fail_pct) / 100.0,
            node_fail_prob: f64::from(node_fail_pct) / 100.0,
            mode: FaultMode::Permanent,
            ..FaultConfig::default()
        };
        let recovery = [
            RecoveryPolicy::Wait,
            RecoveryPolicy::Resample,
            RecoveryPolicy::DropAfterBudget,
        ][recovery_ix];
        let plan = FaultPlan::new(&mesh, &cfg, fault_seed, 160);
        let pattern = UniformTraffic::new(mesh.clone());
        let paths = oracle::dim_order(&mesh, AxisOrder::Shuffled);
        let sim = OnlineSim::new(&mesh, SchedulingPolicy::Fifo, 0.1).with_faults(Faults {
            plan: &plan,
            recovery,
            retry_budget: 6,
        });
        let seq = oracle::run(&sim, &pattern, &paths, 80, seed);
        let par = sim.run_sharded(&pattern, &paths, 80, seed, 4);
        prop_assert!(par.same_outcome(&seq), "sharded diverged from the oracle");
        for e in 0..mesh.edge_count() {
            if plan.link_always_down(oblivion_mesh::EdgeId(e)) {
                prop_assert_eq!(
                    seq.link_loads[e], 0,
                    "edge {} is down for the whole run but carried traffic", e
                );
            }
        }
        // Conservation: every injected packet is accounted for.
        let fs = seq.faults.unwrap();
        prop_assert_eq!(
            seq.injected as u64,
            seq.delivered as u64 + seq.in_flight as u64 + fs.dead_letters,
            "injected != delivered + in_flight + dead_letters"
        );
    }
}
