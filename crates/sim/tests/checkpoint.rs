//! Differential tests for checkpoint/resume: a run that is killed at a
//! step boundary and resumed from its newest snapshot must finish with
//! the *exact* outcome of an uninterrupted run — for every thread count,
//! scheduling policy, and fault plan, and equal to the naive test oracle
//! — and a corrupted newest snapshot must fall back to the previous
//! generation with the same guarantee.

mod oracle;

use oblivion_ckpt::Store;
use oblivion_faults::{FaultConfig, FaultMode, FaultPlan, RecoveryPolicy};
use oblivion_mesh::Mesh;
use oblivion_sim::{
    CheckpointCfg, EngineState, Faults, OnlineResult, OnlineSim, SchedulingPolicy, StopReason,
    UniformTraffic,
};
use oracle::AxisOrder;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const THREADS: [usize; 3] = [1, 2, 8];
const STEPS: u64 = 160;
const EVERY: u64 = 30;
const KILL_AT: u64 = 100;

fn tmp_dir(tag: &str) -> PathBuf {
    static SERIAL: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "oblivion_ckpt_test_{tag}_{}_{}",
        std::process::id(),
        SERIAL.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn transient_cfg() -> FaultConfig {
    FaultConfig {
        link_fail_prob: 0.08,
        mode: FaultMode::Transient,
        mttr: 12,
        mtbf: 70,
        node_fail_prob: 0.02,
        drop_prob: 0.01,
    }
}

/// Scheduling, load and recovery of one resume configuration.
struct Setup {
    policy: SchedulingPolicy,
    rate: f64,
    recovery: RecoveryPolicy,
    retry_budget: u32,
}

/// The resume configurations every kill-and-resume test runs: FIFO with
/// resampling, and random-rank at a lower rate that drops after a small
/// budget.
const SETUPS: [Setup; 2] = [
    Setup {
        policy: SchedulingPolicy::Fifo,
        rate: 0.15,
        recovery: RecoveryPolicy::Resample,
        retry_budget: 8,
    },
    Setup {
        policy: SchedulingPolicy::RandomRank,
        rate: 0.12,
        recovery: RecoveryPolicy::DropAfterBudget,
        retry_budget: 4,
    },
];

/// Runs the kill-at-boundary + resume protocol for one configuration and
/// asserts the final outcome matches the uninterrupted reference, which
/// itself matches the oracle.
fn assert_resume_identical(
    mesh: &Mesh,
    setup: &Setup,
    plan: Option<&FaultPlan>,
    seed: u64,
    threads: usize,
) {
    let pattern = UniformTraffic::new(mesh.clone());
    let paths = oracle::dim_order(mesh, AxisOrder::Shuffled);
    let mut sim = OnlineSim::new(mesh, setup.policy, setup.rate);
    if let Some(p) = plan {
        sim = sim.with_faults(Faults {
            plan: p,
            recovery: setup.recovery,
            retry_budget: setup.retry_budget,
        });
    }
    let reference: OnlineResult = sim.run_sharded(&pattern, &paths, STEPS, seed, threads);
    let expected = oracle::run(&sim, &pattern, &paths, STEPS, seed);
    assert!(
        reference.same_outcome(&expected),
        "seed={seed} threads={threads}:\n engine {reference:?}\n  vs oracle {expected:?}"
    );

    let dir = tmp_dir("resume");
    let store = Store::open(&dir).unwrap();
    let config_hash = 0xC0FF_EE00 ^ seed;
    let killed = sim.run_sharded_ckpt(
        &pattern,
        &paths,
        STEPS,
        seed,
        threads,
        Some(&CheckpointCfg {
            store: &store,
            every: EVERY,
            stop_at: Some(KILL_AT),
            config_hash,
            resume_generation: 0,
            resume_step: None,
        }),
        None,
    );
    match killed {
        Err(StopReason::Interrupted(i)) => {
            assert_eq!(i.step, KILL_AT);
            assert_eq!(i.generation, None, "stop_at must simulate a kill, not save");
        }
        other => panic!("expected interruption, got {other:?}"),
    }

    let outcome = store.load_latest(config_hash);
    assert!(outcome.warnings.is_empty(), "{:?}", outcome.warnings);
    let snap = outcome.snapshot.expect("periodic snapshot exists");
    assert_eq!(snap.step, (KILL_AT / EVERY) * EVERY);
    let state = EngineState::decode(&snap.payload, mesh).unwrap();
    assert_eq!(state.t, snap.step);

    let resumed = sim
        .run_sharded_ckpt(
            &pattern,
            &paths,
            STEPS,
            seed,
            threads,
            Some(&CheckpointCfg {
                store: &store,
                every: EVERY,
                stop_at: None,
                config_hash,
                resume_generation: snap.generation,
                resume_step: Some(state.t),
            }),
            Some(&state),
        )
        .expect("resumed run completes");
    assert!(
        resumed.same_outcome(&reference),
        "seed={seed} threads={threads} faults={}:\n resumed {resumed:?}\n  vs ref {reference:?}",
        plan.is_some(),
    );
    assert_eq!(resumed.sharding, reference.sharding);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_and_resumed_matches_uninterrupted_for_every_thread_count() {
    let mesh = Mesh::new_mesh(&[8, 8]);
    for setup in &SETUPS {
        for seed in [3, 11] {
            for threads in THREADS {
                assert_resume_identical(&mesh, setup, None, seed, threads);
            }
        }
    }
}

#[test]
fn killed_and_resumed_matches_under_transient_faults() {
    let mesh = Mesh::new_mesh(&[8, 8]);
    let cfg = transient_cfg();
    for seed in [3, 11] {
        // The plan is a pure function of (mesh, cfg, seed, horizon); the
        // resumed process rematerializes it exactly as the killed one did.
        let plan = FaultPlan::new(&mesh, &cfg, seed ^ 0x5EED, 2 * STEPS);
        for setup in &SETUPS {
            for threads in THREADS {
                assert_resume_identical(&mesh, setup, Some(&plan), seed, threads);
            }
        }
    }
}

/// The snapshot payload is canonical: the engine produces byte-identical
/// snapshots (same CRC) at every thread count, and the bytes are pinned,
/// so any change to the snapshot format or to the simulated state fails.
#[test]
fn snapshot_bytes_are_engine_and_thread_invariant() {
    let mesh = Mesh::new_mesh(&[8, 8]);
    let pattern = UniformTraffic::new(mesh.clone());
    let paths = oracle::dim_order(&mesh, AxisOrder::Shuffled);
    let sim = OnlineSim::new(&mesh, SchedulingPolicy::Fifo, 0.2);
    let mut crcs = Vec::new();
    let mut run = |threads: usize| {
        let dir = tmp_dir("canon");
        let store = Store::open(&dir).unwrap();
        let cfg = CheckpointCfg {
            store: &store,
            every: 60,
            stop_at: Some(90),
            config_hash: 1,
            resume_generation: 0,
            resume_step: None,
        };
        let res = sim.run_sharded_ckpt(&pattern, &paths, STEPS, 13, threads, Some(&cfg), None);
        assert!(res.is_err(), "stop_at must interrupt");
        let snap = store.load_latest(1).snapshot.unwrap();
        assert_eq!(snap.step, 60);
        crcs.push((threads, snap.checksum, snap.payload));
        let _ = std::fs::remove_dir_all(&dir);
    };
    for threads in THREADS {
        run(threads);
    }
    for (threads, crc, payload) in &crcs[1..] {
        assert_eq!(
            (crc, payload),
            (&crcs[0].1, &crcs[0].2),
            "snapshot for threads={threads} differs from threads=1"
        );
    }
    assert_eq!(crcs[0].1, 0xebef_0b43, "step-60 snapshot bytes changed");
}

/// Single-byte corruption of the newest snapshot falls back to the
/// previous generation — and the resumed run still matches the
/// uninterrupted reference exactly.
#[test]
fn corrupted_newest_snapshot_falls_back_and_still_matches() {
    let mesh = Mesh::new_mesh(&[8, 8]);
    let pattern = UniformTraffic::new(mesh.clone());
    let paths = oracle::dim_order(&mesh, AxisOrder::Shuffled);
    let sim = OnlineSim::new(&mesh, SchedulingPolicy::Fifo, 0.15);
    let reference = sim.run_sharded(&pattern, &paths, STEPS, 21, 2);

    let dir = tmp_dir("corrupt");
    let store = Store::open(&dir).unwrap();
    let cfg_hash = 4;
    // Kill at 100 with every=30: snapshots at 30, 60, 90 → slots hold
    // generation 2 (step 60) and generation 3 (step 90).
    let killed = sim.run_sharded_ckpt(
        &pattern,
        &paths,
        STEPS,
        21,
        2,
        Some(&CheckpointCfg {
            store: &store,
            every: EVERY,
            stop_at: Some(KILL_AT),
            config_hash: cfg_hash,
            resume_generation: 0,
            resume_step: None,
        }),
        None,
    );
    assert!(killed.is_err());
    let newest = store.load_latest(cfg_hash).snapshot.unwrap();
    assert_eq!(newest.generation, 3);

    // Flip one payload byte in the newest slot.
    let path = store.slot_path(newest.generation);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();

    let outcome = store.load_latest(cfg_hash);
    assert_eq!(
        outcome.warnings.len(),
        1,
        "rejection must be surfaced: {:?}",
        outcome.warnings
    );
    let snap = outcome.snapshot.expect("previous generation survives");
    assert_eq!(snap.generation, 2, "fallback to the older slot");
    assert_eq!(snap.step, 60);

    let state = EngineState::decode(&snap.payload, &mesh).unwrap();
    let resumed = sim
        .run_sharded_ckpt(
            &pattern,
            &paths,
            STEPS,
            21,
            2,
            Some(&CheckpointCfg {
                store: &store,
                every: EVERY,
                stop_at: None,
                config_hash: cfg_hash,
                resume_generation: snap.generation,
                resume_step: Some(state.t),
            }),
            Some(&state),
        )
        .unwrap();
    assert!(resumed.same_outcome(&reference));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Resuming with a *different* thread count than the killed run still
/// reproduces the uninterrupted outcome: the snapshot is engine-neutral.
#[test]
fn resume_across_thread_counts() {
    let mesh = Mesh::new_mesh(&[8, 8]);
    let pattern = UniformTraffic::new(mesh.clone());
    let paths = oracle::dim_order(&mesh, AxisOrder::Shuffled);
    let sim = OnlineSim::new(&mesh, SchedulingPolicy::Fifo, 0.15);
    let reference = sim.run_sharded(&pattern, &paths, STEPS, 31, 1);

    let dir = tmp_dir("xthreads");
    let store = Store::open(&dir).unwrap();
    let killed = sim.run_sharded_ckpt(
        &pattern,
        &paths,
        STEPS,
        31,
        8,
        Some(&CheckpointCfg {
            store: &store,
            every: EVERY,
            stop_at: Some(KILL_AT),
            config_hash: 2,
            resume_generation: 0,
            resume_step: None,
        }),
        None,
    );
    assert!(killed.is_err());
    let snap = store.load_latest(2).snapshot.unwrap();
    let state = EngineState::decode(&snap.payload, &mesh).unwrap();
    let resumed = sim
        .run_sharded_ckpt(
            &pattern,
            &paths,
            STEPS,
            31,
            2,
            Some(&CheckpointCfg {
                store: &store,
                every: EVERY,
                stop_at: None,
                config_hash: 2,
                resume_generation: snap.generation,
                resume_step: Some(state.t),
            }),
            Some(&state),
        )
        .unwrap();
    assert!(resumed.same_outcome(&reference));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A kill at a step with no packet in flight while injection goes on:
/// the snapshot holds no packet but a non-zero count of ids issued, and
/// the resumed run must go on numbering packets from that count — a
/// later snapshot's bytes and the final outcome both equal the
/// uninterrupted run's, at one thread and at two.
#[test]
fn resume_with_no_packet_in_flight() {
    let mesh = Mesh::new_mesh(&[4, 4]);
    let pattern = UniformTraffic::new(mesh.clone());
    let paths = oracle::dim_order(&mesh, AxisOrder::Shuffled);
    let sim = OnlineSim::new(&mesh, SchedulingPolicy::Fifo, 0.03);
    let seed = 5;
    let later = STEPS - 10;
    // The payload of the snapshot a run (fresh, or resumed from `resume`)
    // writes at step `at`, the only step it saves at before it stops.
    let snapshot_at = |at: u64, threads: usize, resume: Option<&EngineState>| {
        let dir = tmp_dir("idle");
        let store = Store::open(&dir).unwrap();
        let cfg = CheckpointCfg {
            store: &store,
            every: at,
            stop_at: Some(at + 1),
            config_hash: 5,
            resume_generation: 0,
            resume_step: resume.map(|st| st.t),
        };
        let res = sim.run_sharded_ckpt(&pattern, &paths, STEPS, seed, threads, Some(&cfg), resume);
        assert!(res.is_err(), "stop_at must interrupt");
        let snap = store
            .load_latest(5)
            .snapshot
            .expect("snapshot at the cadence step");
        assert_eq!(snap.step, at);
        let _ = std::fs::remove_dir_all(&dir);
        snap.payload
    };
    let idle = (1..later)
        .map(|at| EngineState::decode(&snapshot_at(at, 1, None), &mesh).unwrap())
        .find(|st| st.packets.is_empty() && st.arena_len > 0)
        .expect("some step before the last injection has no packet in flight");
    assert!(idle.t < STEPS, "injection continues after the kill");

    let reference = sim.run_sharded(&pattern, &paths, STEPS, seed, 1);
    let reference_later = snapshot_at(later, 1, None);
    for threads in [1, 2] {
        assert_eq!(
            snapshot_at(later, threads, Some(&idle)),
            reference_later,
            "threads={threads}: step-{later} snapshot after resuming at step {}",
            idle.t
        );
        let resumed = sim
            .run_sharded_ckpt(&pattern, &paths, STEPS, seed, threads, None, Some(&idle))
            .expect("resumed run completes");
        assert!(
            resumed.same_outcome(&reference),
            "threads={threads}:\n resumed {resumed:?}\n  vs ref {reference:?}"
        );
        assert_eq!(resumed.sharding, reference.sharding);
    }
}
