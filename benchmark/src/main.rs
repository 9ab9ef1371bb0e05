//! The benchmark of the path server and the online simulator.
//!
//! ```text
//! benchmark --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! benchmark compare <parent-dir> <change-dir>
//! ```
//!
//! A run of one workload prints one `workload metric value unit` line
//! per metric, the `ops` and `failed` counts and the output digests,
//! then, as its last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. It writes the same record to
//! `<out>/<workload>.json` (`<workload>.traced.json` and the spans in
//! `<workload>.trace.json` when traced) and exits nonzero if any
//! correctness check failed. `--workload all` runs each workload in a
//! child process of its own. Untraced runs report the end-to-end
//! metrics; `--trace 1` reports the per-layer ones. README.md has the
//! metric and workload tables.
//!
//! The program is driven only through its public entry points:
//! `oblivion_core::build_router`, `oblivion_serve::run` with its
//! `Control` and `ServeSummary`, `OnlineSim::run` and `run_sharded`,
//! and the line protocol over loopback, spoken by this benchmark's own
//! client. Its load generator and client are not used, so this
//! instrument does not change when they do.

mod alloc;
mod client;
mod compare;
mod layers;
mod report;
mod serve;
mod sim;
mod stats;
mod trace;

use oblivion_obs::Json;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Spans kept per traced window.
pub const TRACE_SPANS: usize = 200_000;

/// Every workload, in the order `all` runs them.
pub const WORKLOADS: &[&str] = &[
    "serve_per_conn",
    "serve_keepalive",
    "serve_pipelined",
    "sim_saturated",
];

/// Options of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Unmeasured load before the window (serve workloads).
    pub warmup: Duration,
    pub trace: bool,
    pub out: PathBuf,
}

impl Opts {
    /// A one-second run for tests.
    #[cfg(test)]
    pub fn smoke(workload: &str) -> Opts {
        Opts {
            workload: workload.to_string(),
            seed: 1,
            seconds: 1.0,
            warmup: Duration::from_millis(100),
            trace: false,
            out: std::env::temp_dir().join("oblivion-benchmark-smoke"),
        }
    }
}

const USAGE: &str =
    "usage: benchmark --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
       benchmark compare <parent-dir> <change-dir>";

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        warmup: Duration::from_secs(2),
        trace: false,
        out: PathBuf::from("results/benchmark"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => opts.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if opts.workload != "all" && !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("--workload must be `all` or one of {WORKLOADS:?}"));
    }
    Ok(opts)
}

/// Runs one workload in this process.
fn run_one(opts: &Opts) -> i32 {
    if let Err(e) = std::fs::create_dir_all(&opts.out) {
        eprintln!("cannot create {}: {e}", opts.out.display());
        return 1;
    }
    let mut out = match opts.workload.as_str() {
        "serve_per_conn" => serve::run(&serve::PER_CONN, opts),
        "serve_keepalive" => serve::run(&serve::KEEPALIVE, opts),
        "serve_pipelined" => serve::run(&serve::PIPELINED, opts),
        _ => sim::run(opts, sim::STEPS),
    };
    if !opts.trace && out.errors.is_empty() {
        match report::peak_rss_mb() {
            Some(mb) => out.metrics.push(report::metric("peak_rss_mb", mb, "MiB")),
            None => out
                .errors
                .push("cannot read VmHWM from /proc/self/status".into()),
        }
    }
    report::emit(opts, out)
}

/// Runs every workload, each in a child process of its own, and prints
/// their lines followed by one summary JSON line.
fn run_all(opts: &Opts) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return 1;
        }
    };
    let mut all_correct = true;
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics = Json::obj();
    for w in WORKLOADS {
        let child = Command::new(&exe)
            .args(["--workload", w])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&opts.out)
            .stderr(Stdio::inherit())
            .output();
        let child = match child {
            Ok(c) => c,
            Err(e) => {
                eprintln!("{w}: cannot start: {e}");
                all_correct = false;
                continue;
            }
        };
        let stdout = String::from_utf8_lossy(&child.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().map(Json::parse);
        for l in lines {
            println!("{l}");
        }
        match last {
            Some(Ok(rec)) if child.status.success() => {
                attempted += rec.get("attempted").and_then(Json::as_u64).unwrap_or(0);
                failed += rec.get("failed").and_then(Json::as_u64).unwrap_or(0);
                if let Some(Json::Obj(ms)) = rec.get("metrics") {
                    for (name, v) in ms {
                        metrics.set(format!("{w}.{name}"), v.clone());
                    }
                }
            }
            _ => {
                eprintln!("{w}: failed ({})", child.status);
                all_correct = false;
            }
        }
    }
    let mut line = Json::obj();
    line.set("correct", all_correct)
        .set("attempted", attempted)
        .set("failed", failed)
        .set("metrics", metrics);
    println!("{line}");
    i32::from(!all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = if args.first().map(String::as_str) == Some("compare") {
        match &args[1..] {
            [parent, change] => compare::run(parent.as_ref(), change.as_ref()),
            _ => {
                eprintln!("{USAGE}");
                2
            }
        }
    } else {
        match parse(&args) {
            Ok(opts) if opts.workload == "all" => run_all(&opts),
            Ok(opts) => run_one(&opts),
            Err(e) => {
                eprintln!("error: {e}\n{USAGE}");
                2
            }
        }
    };
    ExitCode::from(code.clamp(0, 255) as u8)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root must name exactly the
    /// workloads and metrics this binary reports.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(report::END_TO_END));
        assert_eq!(names("per_layer"), own(report::PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn flags_parse_and_reject() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let o = parse(&args(
            "--workload sim_saturated --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!((o.seed, o.seconds, o.trace), (7, 3.0, true));
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--workload all --trace 2")).is_err());
        assert!(parse(&args("--workload all --seconds")).is_err());
    }
}
