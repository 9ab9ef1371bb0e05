//! Property tests for checkpoint serialization: snapshot → restore →
//! continue must equal running straight through (and the naive test
//! oracle), for randomly drawn configurations and thread counts; the
//! payload codec must round-trip
//! bit-exactly; and the RNG / fault-plan state a snapshot relies on must
//! rematerialize identically.

mod oracle;

use oblivion_ckpt::Store;
use oblivion_faults::{FaultConfig, FaultMode, FaultPlan, RecoveryPolicy};
use oblivion_mesh::Mesh;
use oblivion_sim::{
    CheckpointCfg, EngineState, Faults, OnlineSim, SchedulingPolicy, UniformTraffic,
};
use oracle::AxisOrder;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn tmp_dir(tag: &str) -> PathBuf {
    static SERIAL: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "oblivion_ckpt_prop_{tag}_{}_{}",
        std::process::id(),
        SERIAL.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Kills a run at `kill_at` (saving every `every` steps), resumes it from
/// the newest snapshot, and asserts the final outcome equals the oracle's
/// uninterrupted run.
fn check_resume(
    mesh: &Mesh,
    fault_cfg: Option<&FaultConfig>,
    seed: u64,
    steps: u64,
    every: u64,
    kill_at: u64,
    threads: usize,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let pattern = UniformTraffic::new(mesh.clone());
    let paths = oracle::dim_order(mesh, AxisOrder::Shuffled);
    let plan = fault_cfg.map(|cfg| FaultPlan::new(mesh, cfg, seed ^ 0xFA17, 2 * steps));
    let mut sim = OnlineSim::new(mesh, SchedulingPolicy::Fifo, 0.15);
    if let Some(p) = &plan {
        sim = sim.with_faults(Faults {
            plan: p,
            recovery: RecoveryPolicy::Resample,
            retry_budget: 6,
        });
    }
    let reference = oracle::run(&sim, &pattern, &paths, steps, seed);
    let dir = tmp_dir("resume");
    let store = Store::open(&dir).unwrap();
    let hash = seed ^ 0xCC;
    let cfg = |resume_generation, resume_step, stop_at| CheckpointCfg {
        store: &store,
        every,
        stop_at,
        config_hash: hash,
        resume_generation,
        resume_step,
    };
    let killed = sim.run_sharded_ckpt(
        &pattern,
        &paths,
        steps,
        seed,
        threads,
        Some(&cfg(0, None, Some(kill_at))),
        None,
    );
    prop_assert!(killed.is_err(), "stop_at must interrupt the run");
    let snap = store
        .load_latest(hash)
        .snapshot
        .expect("at least one periodic snapshot before the kill");
    let state = EngineState::decode(&snap.payload, mesh).unwrap();
    let ck = cfg(snap.generation, Some(state.t), None);
    let resumed = sim
        .run_sharded_ckpt(
            &pattern,
            &paths,
            steps,
            seed,
            threads,
            Some(&ck),
            Some(&state),
        )
        .expect("resumed run completes");
    prop_assert!(
        resumed.same_outcome(&reference),
        "threads={threads} seed={seed} every={every} kill_at={kill_at}:\n \
         resumed {resumed:?}\n  vs ref {reference:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// serialize → deserialize → step == step-without-snapshot, at
    /// several thread counts, with and without a fault plan.
    #[test]
    fn resume_equals_straight_run(
        seed in 0u64..1_000,
        every in 10u64..40,
        kill_frac in 3u64..8,
        threads_idx in 0usize..3,
        with_faults in any::<bool>(),
    ) {
        let threads = [1usize, 2, 8][threads_idx];
        let mesh = Mesh::new_mesh(&[6, 6]);
        let steps = 100u64;
        let kill_at = (steps * kill_frac / 8).max(every + 1);
        let cfg = FaultConfig {
            link_fail_prob: 0.1,
            mode: FaultMode::Transient,
            mttr: 9,
            mtbf: 50,
            node_fail_prob: 0.02,
            drop_prob: 0.01,
        };
        check_resume(
            &mesh,
            with_faults.then_some(&cfg),
            seed,
            steps,
            every,
            kill_at,
            threads,
        )?;
    }

    /// The payload codec is a bijection on valid states: decode(encode(s))
    /// re-encodes to the identical bytes.
    #[test]
    fn engine_state_codec_round_trips(
        seed in 0u64..1_000,
        stop in 20u64..120,
    ) {
        let mesh = Mesh::new_mesh(&[6, 6]);
        let pattern = UniformTraffic::new(mesh.clone());
        let paths = oracle::dim_order(&mesh, AxisOrder::Shuffled);
        let sim = OnlineSim::new(&mesh, SchedulingPolicy::RandomRank, 0.2);
        let dir = tmp_dir("codec");
        let store = Store::open(&dir).unwrap();
        // Capture one snapshot right before the stop point.
        let cfg = CheckpointCfg {
            store: &store,
            every: stop.max(2) - 1,
            stop_at: Some(stop),
            config_hash: 7,
            resume_generation: 0,
            resume_step: None,
        };
        let _ = sim.run_sharded_ckpt(&pattern, &paths, 150, seed, 2, Some(&cfg), None);
        if let Some(snap) = store.load_latest(7).snapshot {
            let state = EngineState::decode(&snap.payload, &mesh).unwrap();
            prop_assert_eq!(state.encode(), snap.payload, "codec must round-trip bit-exactly");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The injection RNG a snapshot stores rematerializes mid-stream:
    /// export → import continues the exact sequence.
    #[test]
    fn rng_state_round_trips(seed in any::<u64>(), burn in 0usize..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..burn {
            let _: u64 = rng.gen();
        }
        let mut replay = StdRng::from_state(rng.state());
        for _ in 0..64 {
            prop_assert_eq!(rng.gen::<u64>(), replay.gen::<u64>());
        }
    }

    /// The fault plan is a pure function of its inputs: a resumed process
    /// rebuilding it from the same config gets the identical schedule
    /// (digest), and the snapshot never needs to carry the plan itself.
    #[test]
    fn fault_plan_rematerializes_identically(
        seed in any::<u64>(),
        link_pm in 0u64..300,
        node_pm in 0u64..100,
        horizon in 50u64..400,
    ) {
        let mesh = Mesh::new_mesh(&[6, 6]);
        let cfg = FaultConfig {
            link_fail_prob: link_pm as f64 / 1000.0,
            mode: FaultMode::Transient,
            mttr: 10,
            mtbf: 60,
            node_fail_prob: node_pm as f64 / 1000.0,
            drop_prob: 0.01,
        };
        let a = FaultPlan::new(&mesh, &cfg, seed, horizon);
        let b = FaultPlan::new(&mesh, &cfg, seed, horizon);
        prop_assert_eq!(a.digest(), b.digest());
    }
}
