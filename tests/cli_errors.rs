//! Subprocess tests for graceful CLI failure: malformed inputs must
//! produce a clean `error:` line and a nonzero exit — never a panic
//! backtrace — and `oblivion stats` must tolerate partially corrupt
//! metrics files instead of aborting on the first bad line.

use std::process::{Command, Output};

fn oblivion(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_oblivion"))
        .args(args)
        .output()
        .expect("spawn oblivion")
}

fn assert_clean_failure(out: &Output, context: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{context}: expected exit 2, got {:?}\nstderr: {stderr}",
        out.status.code()
    );
    assert!(
        stderr.contains("error:"),
        "{context}: stderr missing `error:` line: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "{context}: CLI panicked instead of reporting cleanly: {stderr}"
    );
}

#[test]
fn truncated_workload_file_fails_cleanly_with_line_number() {
    let path = std::env::temp_dir().join("oblivion_cli_err_truncated.txt");
    std::fs::write(&path, "0,0 -> 3,3\n1,1 -> 2,\n").unwrap();
    let out = oblivion(&[
        "route",
        "--mesh",
        "4x4",
        "--router",
        "busch2d",
        "--workload-file",
        path.to_str().unwrap(),
    ]);
    assert_clean_failure(&out, "truncated pair line");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("line 2"),
        "error should name the offending line: {stderr}"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn out_of_bounds_workload_file_fails_cleanly() {
    let path = std::env::temp_dir().join("oblivion_cli_err_oob.txt");
    std::fs::write(&path, "0,0 -> 9,9\n").unwrap();
    let out = oblivion(&[
        "simulate",
        "--mesh",
        "4x4",
        "--router",
        "valiant",
        "--workload-file",
        path.to_str().unwrap(),
    ]);
    assert_clean_failure(&out, "out-of-bounds coordinate");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("outside the mesh"),
        "error should say the coordinate is out of bounds: {stderr}"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn missing_workload_file_fails_cleanly() {
    let out = oblivion(&[
        "route",
        "--mesh",
        "4x4",
        "--router",
        "busch2d",
        "--workload-file",
        "/nonexistent/oblivion_missing.txt",
    ]);
    assert_clean_failure(&out, "missing workload file");
}

#[test]
fn invalid_fault_flags_fail_cleanly() {
    for (flag, value) in [
        ("--fault-links", "1.5"),
        ("--fault-links", "-0.1"),
        ("--fault-links", "lots"),
        ("--drop-prob", "2"),
        ("--fault-mode", "sometimes"),
        ("--recovery", "pray"),
    ] {
        let out = oblivion(&[
            "online", "--mesh", "8x8", "--router", "busch2d", "--steps", "10", flag, value,
        ]);
        assert_clean_failure(&out, &format!("{flag} {value}"));
    }
}

#[test]
fn zero_valued_knobs_fail_cleanly() {
    // Parameters where zero is meaningless (a 0-thread pool, a repair
    // time of 0 steps, a retry budget that can never retry) must be
    // rejected up front, not produce a hang, div-by-zero, or panic.
    for (flag, value) in [
        ("--threads", "0"),
        ("--mttr", "0"),
        ("--mtbf", "0"),
        ("--retry-budget", "0"),
    ] {
        let out = oblivion(&[
            "online", "--mesh", "8x8", "--router", "busch2d", "--steps", "10", flag, value,
        ]);
        assert_clean_failure(&out, &format!("{flag} {value}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(flag),
            "{flag}: error should name the offending flag: {stderr}"
        );
    }
}

#[test]
fn out_of_range_probabilities_fail_cleanly() {
    for (flag, value) in [
        ("--rate", "1.01"),
        ("--rate", "-0.2"),
        ("--rate", "NaN"),
        ("--fault-nodes", "7"),
        ("--fault-nodes", "-1e-9"),
        ("--drop-prob", "-0.5"),
    ] {
        let out = oblivion(&[
            "online", "--mesh", "8x8", "--router", "busch2d", "--steps", "10", flag, value,
        ]);
        assert_clean_failure(&out, &format!("{flag} {value}"));
    }
}

#[test]
fn checkpoint_flags_without_a_directory_fail_cleanly() {
    for flag in ["--checkpoint-every", "--ckpt-stop-at"] {
        let out = oblivion(&[
            "online", "--mesh", "8x8", "--router", "busch2d", "--steps", "10", flag, "50",
        ]);
        assert_clean_failure(&out, flag);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--checkpoint-dir"),
            "{flag}: error should point at the missing --checkpoint-dir: {stderr}"
        );
    }
}

#[test]
fn unwritable_checkpoint_dir_fails_cleanly() {
    let out = oblivion(&[
        "online",
        "--mesh",
        "8x8",
        "--router",
        "busch2d",
        "--steps",
        "10",
        "--checkpoint-dir",
        "/proc/oblivion-cannot-create-this",
        "--checkpoint-every",
        "5",
    ]);
    assert_clean_failure(&out, "unwritable checkpoint dir");
}

#[test]
fn serve_rejects_degenerate_knobs_cleanly() {
    // A port of 0 ("any"), a 0-thread pool, a queue that can hold
    // nothing, or a deadline that always fires are all configuration
    // errors; the server must refuse them before binding a socket.
    for (flag, value) in [
        ("--port", "0"),
        ("--port", "-1"),
        ("--port", "70000"),
        ("--threads", "0"),
        ("--queue", "0"),
        ("--deadline-ms", "0"),
        ("--deadline-ms", "-100"),
        ("--drain-ms", "0"),
        ("--health-port", "0"),
        ("--batch-max", "0"),
        ("--batch-max", "-2"),
    ] {
        // A later duplicate flag overrides the earlier one, so the valid
        // base --port is replaced when the case under test is --port.
        let out = oblivion(&["serve", "--mesh", "8x8", "--port", "4555", flag, value]);
        assert_clean_failure(&out, &format!("serve {flag} {value}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(flag.trim_start_matches('-')),
            "serve {flag}: error should name the offending flag: {stderr}"
        );
    }
    // And a missing --port entirely.
    let out = oblivion(&["serve", "--mesh", "8x8"]);
    assert_clean_failure(&out, "serve without --port");
}

#[test]
fn serve_rejects_bad_tenant_flags_cleanly() {
    // A quota of 0 sheds everything, a duplicate mesh id is ambiguous,
    // and an invalid id can never appear in a `MESH <id>` prefix — all
    // refused before a socket is bound.
    for (context, extra) in [
        ("--tenant-quota 0", &["--tenant-quota", "0"][..]),
        ("--tenant-quota -4", &["--tenant-quota", "-4"][..]),
        ("--tenant-quota junk", &["--tenant-quota", "junk"][..]),
        (
            "duplicate mesh id",
            &["--mesh", "8x8:a", "--mesh", "4x4:a"][..],
        ),
        ("invalid mesh id", &["--mesh", "8x8:not/ok"][..]),
    ] {
        let mut args = vec!["serve", "--mesh", "8x8", "--port", "4555"];
        args.extend_from_slice(extra);
        let out = oblivion(&args);
        assert_clean_failure(&out, &format!("serve {context}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(extra[0].trim_start_matches('-')) || stderr.contains("mesh id"),
            "serve {context}: error should name the offending flag: {stderr}"
        );
    }
}

#[test]
fn loadgen_rejects_bad_tenant_flags_cleanly() {
    for (context, extra) in [
        ("malformed --tenant-mix", &["--tenant-mix", "a"][..]),
        ("empty id in --tenant-mix", &["--tenant-mix", "=1"][..]),
        ("zero weight", &["--tenant-mix", "a=0"][..]),
        ("negative weight", &["--tenant-mix", "a=-2"][..]),
        ("non-finite weight", &["--tenant-mix", "a=NaN"][..]),
        ("garbage weight", &["--tenant-mix", "a=heavy"][..]),
        ("duplicate tenant", &["--tenant-mix", "a=1,a=2"][..]),
        (
            "--mesh-id with --tenant-mix",
            &["--mesh-id", "a", "--tenant-mix", "a=1"][..],
        ),
    ] {
        let mut args = vec!["loadgen", "--mesh", "8x8", "--port", "4555"];
        args.extend_from_slice(extra);
        let out = oblivion(&args);
        assert_clean_failure(&out, &format!("loadgen {context}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("tenant-mix") || stderr.contains("mesh-id"),
            "loadgen {context}: error should name the offending flag: {stderr}"
        );
    }
}

#[test]
fn serve_rejects_bad_chaos_flags_cleanly() {
    // Negative/oversized probabilities, zero durations, and a garbage
    // seed are all refused before binding a socket.
    for (flag, value) in [
        ("--chaos-stall-prob", "-0.1"),
        ("--chaos-stall-prob", "1.5"),
        ("--chaos-stall-prob", "NaN"),
        ("--chaos-write-prob", "-1"),
        ("--chaos-reset-prob", "2"),
        ("--chaos-pause-prob", "-0.5"),
        ("--chaos-stall-ms", "0"),
        ("--chaos-pause-ms", "-3"),
        ("--chaos-seed", "not-a-seed"),
    ] {
        let out = oblivion(&[
            "serve",
            "--mesh",
            "8x8",
            "--port",
            "4555",
            "--chaos-seed",
            "1",
            flag,
            value,
        ]);
        assert_clean_failure(&out, &format!("serve {flag} {value}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(flag.trim_start_matches('-')),
            "serve {flag}: error should name the offending flag: {stderr}"
        );
    }
    // Any chaos knob without --chaos-seed is refused: an injected
    // schedule that cannot be reproduced is useless for debugging.
    for flag in [
        "--chaos-stall-prob",
        "--chaos-write-prob",
        "--chaos-reset-prob",
        "--chaos-pause-prob",
    ] {
        let out = oblivion(&["serve", "--mesh", "8x8", "--port", "4555", flag, "0.1"]);
        assert_clean_failure(&out, &format!("serve {flag} without --chaos-seed"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("chaos-seed"),
            "serve {flag}: error should point at the missing seed: {stderr}"
        );
    }
}

#[test]
fn flags_outside_the_command_table_fail_cleanly() {
    // A misspelled flag, a flag of another command, a value after the
    // bare `--torus` switch, and the flags and command of the retired
    // multi-process engine are all refused, never silently ignored.
    for args in [
        &["online", "--mesh", "8x8", "--steps", "20", "--thread", "4"][..],
        &[
            "path", "--mesh", "8x8", "--from", "1,1", "--to", "5,5", "--bogus", "1",
        ],
        &["heatmap", "--torus", "true"],
        &["route", "--torus", "yes"],
        &["decompose", "--threads", "2"],
        &["online", "--steps", "10", "--procs", "2"],
        &["online", "--steps", "10", "--heartbeat-ms", "250"],
        &["online", "--steps", "10", "--handoff-timeout-ms", "5000"],
        &["proc-worker"],
    ] {
        assert_clean_failure(&oblivion(args), &args.join(" "));
    }
}

#[test]
fn loadgen_rejects_degenerate_knobs_cleanly() {
    for (flag, value) in [
        ("--port", "0"),
        ("--port", "-7"),
        ("--requests", "0"),
        ("--requests", "-5"),
        ("--concurrency", "0"),
        ("--timeout-ms", "0"),
        ("--timeout-ms", "-1"),
        ("--backoff-ms", "0"),
        ("--pipeline", "0"),
        ("--pipeline", "-3"),
    ] {
        let out = oblivion(&["loadgen", "--mesh", "8x8", "--port", "4555", flag, value]);
        assert_clean_failure(&out, &format!("loadgen {flag} {value}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(flag.trim_start_matches('-')),
            "loadgen {flag}: error should name the offending flag: {stderr}"
        );
    }
    let out = oblivion(&["loadgen", "--mesh", "8x8"]);
    assert_clean_failure(&out, "loadgen without --port");
}

#[test]
fn loadgen_rejects_bad_open_loop_and_hedge_flags_cleanly() {
    // A zero/negative/non-finite rate and a zero or garbage hedge
    // threshold are configuration errors, not load profiles.
    for (flag, value) in [
        ("--rate", "0"),
        ("--rate", "-100"),
        ("--rate", "inf"),
        ("--rate", "oops"),
        ("--hedge-after", "0"),
        ("--hedge-after", "-5"),
        ("--hedge-after", "p98"),
    ] {
        let out = oblivion(&["loadgen", "--mesh", "8x8", "--port", "4555", flag, value]);
        assert_clean_failure(&out, &format!("loadgen {flag} {value}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(flag.trim_start_matches('-')),
            "loadgen {flag}: error should name the offending flag: {stderr}"
        );
    }
    // --open-loop is not a flag (--rate alone selects open loop).
    let out = oblivion(&["loadgen", "--mesh", "8x8", "--port", "4555", "--open-loop"]);
    assert_clean_failure(&out, "loadgen --open-loop without --rate");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("rate"),
        "error should point at the missing --rate"
    );
    // Hedging duplicates need their own connection: the keep-alive and
    // pipelined transports are refused.
    for extra in [&["--keep-alive"][..], &["--pipeline", "4"][..]] {
        let mut args = vec![
            "loadgen",
            "--mesh",
            "8x8",
            "--port",
            "4555",
            "--hedge-after",
            "25",
        ];
        args.extend_from_slice(extra);
        let out = oblivion(&args);
        assert_clean_failure(&out, &format!("loadgen --hedge-after with {extra:?}"));
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("hedge-after"),
            "error should name the conflicting flag"
        );
    }
}

#[test]
fn stats_tolerates_partially_corrupt_metrics() {
    let metrics = std::env::temp_dir().join("oblivion_cli_err_metrics.json");
    let run_out = std::env::temp_dir().join("oblivion_cli_err_metrics_src.json");
    // Produce a real metrics file, then corrupt the middle of it.
    let out = oblivion(&[
        "online",
        "--mesh",
        "8x8",
        "--router",
        "busch2d",
        "--rate",
        "0.05",
        "--steps",
        "50",
        "--seed",
        "5",
        "--metrics-out",
        run_out.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let good = std::fs::read_to_string(&run_out).unwrap();
    let mut lines: Vec<&str> = good.lines().collect();
    let mid = lines.len() / 2;
    lines.insert(mid, "{ this is not json");
    lines.insert(0, "neither is this");
    std::fs::write(&metrics, lines.join("\n")).unwrap();

    let out = oblivion(&["stats", metrics.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "stats should survive corrupt lines: {stderr}"
    );
    assert!(
        stderr.contains("skipped 2 unparseable lines"),
        "stderr should tally the skipped lines: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "stats panicked on corrupt input: {stderr}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("online_steps") || stdout.contains("report"),
        "stats should still render the parseable lines: {stdout}"
    );

    // A file with no parseable line at all is still an error.
    std::fs::write(&metrics, "not json at all\nstill not json\n").unwrap();
    let out = oblivion(&["stats", metrics.to_str().unwrap()]);
    assert_clean_failure(&out, "fully corrupt metrics file");

    let _ = std::fs::remove_file(&metrics);
    let _ = std::fs::remove_file(&run_out);
}
