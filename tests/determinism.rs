//! Regression test: observability must not perturb determinism.
//!
//! Running the same seeded command twice must produce byte-identical
//! metrics apart from wall-clock span timings — the counters, the
//! histograms (including the per-packet random-bit histogram filled by
//! `route_all_metered`), and the `RunReport` line itself. The CLI is
//! driven as a subprocess so each run gets a pristine global registry
//! and no interference from other tests in this process.

use std::path::PathBuf;
use std::process::Command;

fn run_metered(args: &[&str], out: &PathBuf) {
    let status = Command::new(env!("CARGO_BIN_EXE_oblivion"))
        .args(args)
        .arg("--metrics-out")
        .arg(out)
        .output()
        .expect("spawn oblivion");
    assert!(
        status.status.success(),
        "oblivion {args:?} failed: {}",
        String::from_utf8_lossy(&status.stderr)
    );
}

/// The deterministic portion of a metrics document: every line except
/// span timings, trace events, and the whole `runtime_` family
/// (scheduling-dependent counters like work-steal tallies and
/// wall-clock phase histograms), byte-for-byte.
fn deterministic_lines(path: &PathBuf) -> String {
    let text = std::fs::read_to_string(path).expect("read metrics file");
    let kept: Vec<&str> = text
        .lines()
        .filter(|l| {
            !l.starts_with("{\"type\":\"span\"")
                && !l.starts_with("{\"type\":\"span_event\"")
                && !l.starts_with("{\"type\":\"runtime_")
        })
        .collect();
    assert!(
        !kept.is_empty(),
        "metrics file {} had no content",
        path.display()
    );
    kept.join("\n")
}

/// The final `report` line alone.
fn report_line(path: &PathBuf) -> String {
    let text = std::fs::read_to_string(path).expect("read metrics file");
    text.lines()
        .rfind(|l| l.starts_with("{\"type\":\"report\""))
        .expect("metrics file must end with a report line")
        .to_string()
}

fn check_twice(label: &str, args: &[&str]) {
    let dir = std::env::temp_dir();
    let a = dir.join(format!("oblivion_det_{label}_a.json"));
    let b = dir.join(format!("oblivion_det_{label}_b.json"));
    run_metered(args, &a);
    run_metered(args, &b);
    assert_eq!(
        deterministic_lines(&a),
        deterministic_lines(&b),
        "{label}: counters/histograms/report differ between identical seeded runs"
    );
    let report = report_line(&a);
    assert_eq!(
        report,
        report_line(&b),
        "{label}: RunReport JSON not byte-identical"
    );
    assert!(
        report.contains("\"seed\""),
        "{label}: report should echo the seed"
    );
    let _ = std::fs::remove_file(&a);
    let _ = std::fs::remove_file(&b);
}

#[test]
fn route_same_seed_is_byte_identical() {
    // Exercises route_all_metered: packets, random-bit histogram, paths.
    check_twice(
        "route",
        &[
            "route",
            "--mesh",
            "16x16",
            "--router",
            "busch2d",
            "--workload",
            "random-perm",
            "--seed",
            "1234",
        ],
    );
}

#[test]
fn online_sim_same_seed_is_byte_identical() {
    // Exercises the online simulator's step loop and its per-step
    // queue-length / busy-link histograms.
    check_twice(
        "online",
        &[
            "online", "--mesh", "8x8", "--router", "busch2d", "--rate", "0.05", "--steps", "200",
            "--seed", "77",
        ],
    );
}

/// Runs `online` with a given `--threads` value and returns the
/// deterministic metrics lines and the report line.
fn online_with_threads(label: &str, base: &[&str], threads: &str) -> (String, String) {
    let out = std::env::temp_dir().join(format!("oblivion_det_thr_{label}_{threads}.json"));
    let mut args: Vec<&str> = base.to_vec();
    args.extend_from_slice(&["--threads", threads]);
    run_metered(&args, &out);
    let lines = (deterministic_lines(&out), report_line(&out));
    let _ = std::fs::remove_file(&out);
    lines
}

/// The tentpole guarantee: the online simulator's metrics and RunReport
/// are byte-identical for every thread count — the pool decides who
/// computes, never what.
#[test]
fn online_metrics_identical_across_thread_counts_2d() {
    let base = [
        "online", "--mesh", "16x16", "--router", "busch2d", "--rate", "0.05", "--steps", "200",
        "--seed", "99",
    ];
    let one = online_with_threads("2d", &base, "1");
    assert!(
        one.1.contains("\"shards\""),
        "report should include shard facts: {}",
        one.1
    );
    for threads in ["2", "8"] {
        let other = online_with_threads("2d", &base, threads);
        assert_eq!(
            one.0, other.0,
            "--threads {threads} changed deterministic metrics lines"
        );
        assert_eq!(
            one.1, other.1,
            "--threads {threads} changed the RunReport byte-for-byte"
        );
    }
}

#[test]
fn online_metrics_identical_across_thread_counts_3d() {
    let base = [
        "online", "--mesh", "8x8x8", "--router", "buschd", "--rate", "0.02", "--steps", "150",
        "--seed", "5",
    ];
    let one = online_with_threads("3d", &base, "1");
    for threads in ["2", "8"] {
        let other = online_with_threads("3d", &base, threads);
        assert_eq!(one.0, other.0, "--threads {threads} changed metrics");
        assert_eq!(one.1, other.1, "--threads {threads} changed the report");
    }
}

/// Fault-injected runs obey the same thread-count contract: the fault
/// plan is a pure function of (mesh, fault seed), recovery decisions are
/// made identically in every shard, and every tally is an order-free
/// sum — so the metrics document is byte-identical at any `--threads`.
/// The `buschd` case lands the router's resample instrumentation in the
/// metrics; the `busch-torus` case runs on the torus its router implies.
#[test]
fn faulted_online_metrics_identical_across_thread_counts() {
    #[rustfmt::skip]
    let cases = [
        ("fw", "16x16", "busch2d", "0.05", "200", "99", "wait", "transient"),
        ("fr", "16x16", "busch2d", "0.05", "200", "99", "resample", "transient"),
        ("fd", "16x16", "busch2d", "0.05", "200", "99", "drop", "permanent"),
        ("frd", "8x8", "buschd", "0.08", "80", "21", "resample", "transient"),
        ("frt", "16x16", "busch-torus", "0.05", "200", "99", "resample", "transient"),
    ];
    for (label, mesh, router, rate, steps, seed, recovery, mode) in cases {
        let base = [
            "online",
            "--mesh",
            mesh,
            "--router",
            router,
            "--rate",
            rate,
            "--steps",
            steps,
            "--seed",
            seed,
            "--fault-links",
            "0.08",
            "--fault-mode",
            mode,
            "--recovery",
            recovery,
        ];
        let one = online_with_threads(label, &base, "1");
        assert!(
            one.1.contains("\"delivered_fraction\""),
            "faulted report should carry degradation metrics: {}",
            one.1
        );
        for threads in ["2", "8"] {
            let other = online_with_threads(label, &base, threads);
            assert_eq!(
                one.0, other.0,
                "{router} {recovery}/{mode}: --threads {threads} changed faulted metrics"
            );
            assert_eq!(
                one.1, other.1,
                "{router} {recovery}/{mode}: --threads {threads} changed the faulted RunReport"
            );
        }
    }
}

/// `--fault-links 0` must reproduce today's metrics byte-for-byte: fault
/// bookkeeping only engages when a non-trivial plan is attached, and
/// fault decisions never consume the main injection RNG.
#[test]
fn zero_fault_rate_reproduces_faultless_metrics() {
    let base = [
        "online", "--mesh", "8x8", "--router", "busch2d", "--rate", "0.05", "--steps", "200",
        "--seed", "77",
    ];
    let dir = std::env::temp_dir();
    let plain = dir.join("oblivion_det_zf_plain.json");
    let zeroed = dir.join("oblivion_det_zf_zero.json");
    run_metered(&base, &plain);
    let mut with_flag: Vec<&str> = base.to_vec();
    with_flag.extend_from_slice(&["--fault-links", "0"]);
    run_metered(&with_flag, &zeroed);
    assert_eq!(
        deterministic_lines(&plain),
        deterministic_lines(&zeroed),
        "--fault-links 0 perturbed the metrics of a faultless run"
    );
    assert_eq!(report_line(&plain), report_line(&zeroed));
    let _ = std::fs::remove_file(&plain);
    let _ = std::fs::remove_file(&zeroed);
}

#[test]
fn different_seeds_differ() {
    let dir = std::env::temp_dir();
    let a = dir.join("oblivion_det_seeds_a.json");
    let b = dir.join("oblivion_det_seeds_b.json");
    run_metered(
        &[
            "route",
            "--mesh",
            "16x16",
            "--router",
            "busch2d",
            "--workload",
            "random-perm",
            "--seed",
            "1",
        ],
        &a,
    );
    run_metered(
        &[
            "route",
            "--mesh",
            "16x16",
            "--router",
            "busch2d",
            "--workload",
            "random-perm",
            "--seed",
            "2",
        ],
        &b,
    );
    assert_ne!(
        deterministic_lines(&a),
        deterministic_lines(&b),
        "different seeds should route differently"
    );
    let _ = std::fs::remove_file(&a);
    let _ = std::fs::remove_file(&b);
}
