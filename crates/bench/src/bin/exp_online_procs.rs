//! **E29 — supervised multi-process online simulation sweep.**
//!
//! Drives the `oblivion` CLI (the supervisor needs a real binary to
//! spawn worker processes from) through one faulted online workload at
//! `--threads 1` and `8` and at `--procs 1`, `2`, and `4`, asserting
//! byte-identical stdout across every engine — the determinism contract
//! extended across process boundaries. Then a worker is killed at a
//! fixed step boundary (the deterministic `OBLIVION_PROC_CRASH` stand-in
//! for `kill -9`) and the supervisor's reported recovery time is
//! recorded; the killed run's stdout must still match.
//!
//! Wall-clock columns are machine-dependent; on this workload the
//! process engine pays one pipe round-trip per worker per step, so it
//! trails the thread engine — the point of `--procs` is surviving the
//! loss of a shard process, not raw speed.

use oblivion_bench::table::{f2, Table};
use oblivion_obs::Json;
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

fn oblivion_bin() -> PathBuf {
    let mut p = std::env::current_exe().expect("current_exe");
    p.pop();
    p.push("oblivion");
    assert!(
        p.exists(),
        "{} not found: build it first (cargo build --release --bin oblivion)",
        p.display()
    );
    p
}

const KILL_STEP: u64 = 150;

fn base_args(steps: u64) -> Vec<String> {
    [
        "online",
        "--mesh",
        "32x32",
        "--router",
        "busch2d",
        "--rate",
        "0.05",
        "--seed",
        "741",
        "--fault-links",
        "0.05",
        "--fault-mode",
        "transient",
        "--recovery",
        "resample",
    ]
    .iter()
    .map(ToString::to_string)
    .chain(["--steps".to_string(), steps.to_string()])
    .collect()
}

struct RunOut {
    stdout: Vec<u8>,
    stderr: String,
    wall_ms: f64,
}

fn run(bin: &PathBuf, extra: &[String], crash: Option<&str>) -> RunOut {
    let mut cmd = Command::new(bin);
    cmd.args(base_args(300)).args(extra);
    match crash {
        Some(directive) => cmd.env("OBLIVION_PROC_CRASH", directive),
        None => cmd.env_remove("OBLIVION_PROC_CRASH"),
    };
    let t = Instant::now();
    let out = cmd.output().expect("spawn oblivion");
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    assert!(
        out.status.success(),
        "oblivion {extra:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    RunOut {
        stdout: out.stdout,
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
        wall_ms,
    }
}

fn tmp_ckpt(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("oblivion_e29_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create checkpoint dir");
    dir
}

fn main() {
    oblivion_bench::report::start();
    println!(
        "E29: multi-process online sweep (32x32, busch-2d, rate 0.05, 300 steps,\n\
         fault-links 0.05 transient/resample)\n"
    );
    let bin = oblivion_bin();

    let seq = run(&bin, &["--threads".into(), "1".into()], None);
    println!("1 thread (inline) reference: {:.0} ms", seq.wall_ms);

    let mut table = Table::new(vec![
        "engine",
        "wall ms",
        "speedup vs seq",
        "identical to seq",
    ]);
    let mut sweep: Vec<(String, f64)> = Vec::new();
    let thr = run(&bin, &["--threads".into(), "8".into()], None);
    assert_eq!(thr.stdout, seq.stdout, "--threads 8 diverged");
    table.row(vec![
        "threads 8".into(),
        format!("{:.0}", thr.wall_ms),
        f2(seq.wall_ms / thr.wall_ms),
        "yes".into(),
    ]);
    sweep.push(("threads 8".into(), thr.wall_ms));
    for procs in [1usize, 2, 4] {
        let ckpt = tmp_ckpt(&format!("p{procs}"));
        let r = run(
            &bin,
            &[
                "--procs".into(),
                procs.to_string(),
                "--checkpoint-dir".into(),
                ckpt.to_str().expect("utf-8 temp path").into(),
            ],
            None,
        );
        assert_eq!(r.stdout, seq.stdout, "--procs {procs} diverged");
        table.row(vec![
            format!("procs {procs}"),
            format!("{:.0}", r.wall_ms),
            f2(seq.wall_ms / r.wall_ms),
            "yes".into(),
        ]);
        sweep.push((format!("procs {procs}"), r.wall_ms));
        let _ = std::fs::remove_dir_all(&ckpt);
    }

    // Kill worker 1 at a fixed step boundary; the supervisor restores it
    // from its shadow, replays the journal, and reports the cost.
    let ckpt = tmp_ckpt("kill");
    let killed = run(
        &bin,
        &[
            "--procs".into(),
            "2".into(),
            "--checkpoint-dir".into(),
            ckpt.to_str().expect("utf-8 temp path").into(),
        ],
        Some(&format!("1:{KILL_STEP}")),
    );
    let _ = std::fs::remove_dir_all(&ckpt);
    assert_eq!(
        killed.stdout, seq.stdout,
        "a killed-and-recovered worker perturbed the result"
    );
    let recovery_line = killed
        .stderr
        .lines()
        .find(|l| l.contains("recovered in"))
        .expect("supervisor should report the recovery")
        .to_string();
    let recovery_ms: f64 = recovery_line
        .split("recovered in ")
        .nth(1)
        .and_then(|s| s.split(" ms").next())
        .and_then(|s| s.parse().ok())
        .expect("recovery line should carry a millisecond cost");
    let replayed: u64 = recovery_line
        .split("replayed ")
        .nth(1)
        .and_then(|s| s.split(' ').next())
        .and_then(|s| s.parse().ok())
        .expect("recovery line should carry a replay count");
    table.row(vec![
        "procs 2 + kill -9".into(),
        format!("{:.0}", killed.wall_ms),
        f2(seq.wall_ms / killed.wall_ms),
        "yes".into(),
    ]);
    table.print();
    println!(
        "\nWorker killed at step {KILL_STEP}: recovered in {recovery_ms:.0} ms \
         (replayed {replayed} steps). All engines byte-identical."
    );

    let sweep_rows: Vec<Json> = sweep
        .iter()
        .map(|(engine, ms)| {
            let mut row = Json::obj();
            row.set("engine", engine.as_str())
                .set("wall_ms", *ms)
                .set("speedup", seq.wall_ms / ms);
            row
        })
        .collect();
    oblivion_bench::report::finish_and_note(
        "online_procs",
        "E29: supervised multi-process online sweep",
        &table,
        &[
            ("seq_ms", Json::from(seq.wall_ms)),
            ("identical_across_engines", Json::from(true)),
            ("kill_step", Json::from(KILL_STEP)),
            ("recovery_ms", Json::from(recovery_ms)),
            ("replayed_steps", Json::from(replayed)),
            ("sweep", Json::from(sweep_rows)),
        ],
    );
}
