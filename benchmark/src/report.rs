//! What a run reports: the metric lists of `BENCHMARK.json`, the human-readable
//! lines, the record file, and the final JSON line.

use crate::Opts;
use oblivion_obs::Json;
use std::path::Path;

/// Every end-to-end metric with its unit, measured with tracing off.
/// Each workload reports each one (see README.md for what an operation
/// is per workload).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Every per-layer metric with its unit, reported by traced runs.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.select_path.busch2d_64.ns_p50", "ns"),
    ("core.select_path.busch2d_64.ns_p99", "ns"),
    ("core.select_path.buschd_16.ns_p50", "ns"),
    ("core.select_path.buschd_16.ns_p99", "ns"),
    ("core.route_batch.b1.ns_per_path", "ns"),
    ("core.route_batch.b8.ns_per_path", "ns"),
    ("core.route_batch.b64.ns_per_path", "ns"),
    ("core.state_bytes.busch2d_64", "B"),
    ("core.state_bytes.buschd_16", "B"),
    ("alloc.select_path.per_call", "count"),
    ("alloc.route_batch_b64.per_path", "count"),
    ("mesh.path.bytes_per_hop", "B"),
    ("serve.wire.parse_request.ns", "ns"),
    ("serve.wire.format_path_line.ns", "ns"),
    ("wire.framebuf.ns_per_line", "ns"),
    ("alloc.format_path_line.per_call", "count"),
    ("serve.stats.ns_per_line", "ns"),
    ("serve.registry.resolve_ns", "ns"),
    ("serve.idle.keepalive_reply_us_p50", "us"),
    ("serve.idle.per_conn_reply_us_p50", "us"),
    ("serve.idle.accept_us_mean", "us"),
    ("serve.idle.queue_wait_us_mean", "us"),
    ("serve.idle.unexplained_us", "us"),
    ("load.route.ns_per_path", "ns"),
    ("load.route.busy_share", "ratio"),
    ("load.route.paths_per_call", "count"),
    ("load.alloc.per_op", "count"),
    ("trace.overhead", "ratio"),
];

/// One named value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks; any makes the run incorrect.
    pub errors: Vec<String>,
    /// The listed metrics: [`END_TO_END`] untraced, [`PER_LAYER`]
    /// traced.
    pub metrics: Vec<Metric>,
    /// Further rows for reading a run; printed and recorded only.
    pub extras: Vec<Metric>,
    pub digests: Vec<(&'static str, u64)>,
}

impl Outcome {
    /// A run that could not complete.
    pub fn failed_to_run(e: String) -> Outcome {
        Outcome {
            errors: vec![e],
            ..Outcome::default()
        }
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Checks `metrics` are exactly `want`, in order, with finite values.
fn conforms(metrics: &[Metric], want: &[(&str, &str)]) -> Result<(), String> {
    let got: Vec<(&str, &str)> = metrics.iter().map(|m| (m.name.as_str(), m.unit)).collect();
    if got != want {
        return Err(format!("metrics {got:?} are not the listed {want:?}"));
    }
    match metrics.iter().find(|m| !m.value.is_finite()) {
        Some(m) => Err(format!("metric {} is not a number ({})", m.name, m.value)),
        None => Ok(()),
    }
}

fn metrics_json(metrics: &[Metric]) -> Json {
    let mut obj = Json::obj();
    for m in metrics {
        let mut v = Json::obj();
        v.set("value", m.value).set("unit", m.unit);
        obj.set(&m.name, v);
    }
    obj
}

/// Prints the run (human lines, then the JSON line last), writes its
/// record under `--out`, and returns the exit code.
pub fn emit(opts: &Opts, mut out: Outcome) -> i32 {
    let w = opts.workload.as_str();
    let want = if opts.trace { PER_LAYER } else { END_TO_END };
    if out.errors.is_empty() {
        if let Err(e) = conforms(&out.metrics, want) {
            out.errors.push(e);
        }
    }
    let correct = out.errors.is_empty();
    for m in out.metrics.iter().chain(&out.extras) {
        println!("{w} {} {} {}", m.name, m.value, m.unit);
    }
    for (name, d) in &out.digests {
        println!("{w} {name} {d:016x}");
    }
    println!("{w} ops {}", out.attempted);
    println!("{w} failed {}", out.failed);
    for e in &out.errors {
        eprintln!("{w}: CHECK FAILED: {e}");
    }

    let mut rec = Json::obj();
    rec.set("workload", w)
        .set("seed", opts.seed)
        .set("seconds", opts.seconds)
        .set("trace", opts.trace)
        .set("correct", correct)
        .set("attempted", out.attempted)
        .set("failed", out.failed)
        .set("metrics", metrics_json(&out.metrics))
        .set("extras", metrics_json(&out.extras))
        .set(
            "host_parallelism",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        )
        .set(
            "errors",
            out.errors
                .iter()
                .map(|e| Json::from(e.as_str()))
                .collect::<Vec<_>>(),
        );
    let mut digests = Json::obj();
    for (name, d) in &out.digests {
        digests.set(*name, format!("{d:016x}"));
    }
    rec.set("digests", digests);
    let file = opts.out.join(format!(
        "{w}{}.json",
        if opts.trace { ".traced" } else { "" }
    ));
    if let Err(e) = write_record(&file, &rec) {
        eprintln!("{w}: cannot write {}: {e}", file.display());
    }

    let attempted = out.attempted.max(u64::from(!correct));
    let mut line = Json::obj();
    line.set("correct", correct)
        .set("attempted", attempted)
        .set("failed", out.failed)
        .set("metrics", metrics_json(&out.metrics));
    println!("{line}");
    if correct {
        0
    } else {
        1
    }
}

fn write_record(file: &Path, rec: &Json) -> std::io::Result<()> {
    if let Some(dir) = file.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(file, format!("{rec}\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_check_exits_nonzero() {
        let opts = Opts::smoke("serve_per_conn");
        let good = || Outcome {
            attempted: 1,
            metrics: END_TO_END.iter().map(|(n, u)| metric(*n, 1.5, u)).collect(),
            ..Outcome::default()
        };
        assert_eq!(emit(&opts, good()), 0);
        let mut corrupted = good();
        corrupted
            .errors
            .push("stream from id=0: 1 OK replies are not byte-identical".into());
        assert_eq!(emit(&opts, corrupted), 1);
        let mut missing = good();
        missing.metrics.pop();
        assert_eq!(emit(&opts, missing), 1);
    }
}
