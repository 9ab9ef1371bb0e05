//! The simulator workload, `sim_saturated`: `OnlineSim` on 32x32
//! `busch2d`, uniform traffic, FIFO contention, injection rate 0.06 for
//! 300 steps — past saturation, so the stepper's contention handling,
//! not path selection, dominates a run.
//!
//! One operation is one whole simulation run. The end-to-end metrics
//! measure the sequential engine, `OnlineSim::run`, whose runs repeat
//! more closely than the sharded one's on a two-core host. Every run of
//! a process uses the same simulation seed, so every run must produce
//! the same outcome; after the window one `run_sharded` run with two
//! threads must produce it too, and its speed is reported beside the
//! metrics.
//!
//! The mesh is 32x32, not 64x64, because a 64x64 run holds about
//! 265 MiB and moves with the memory traffic of whatever else shares
//! the host: run side by side on one host, window throughput spread
//! 0.25 over ten seeds at 64x64 and 0.11 at 32x32 (69 MiB). A 32x32 run
//! also takes under a second, so a window holds 20 to 30 of them.

use crate::report::{metric, Metric, Outcome};
use crate::stats::{fold, mean, median, splitmix64};
use crate::trace::{TimedSource, Tracer, NONE};
use crate::{alloc, layers, Opts};
use oblivion_core::{build_router, ObliviousRouter};
use oblivion_mesh::{Coord, Mesh, Path};
use oblivion_sim::{OnlineResult, OnlineSim, PathSource, SchedulingPolicy, UniformTraffic};
use rand::rngs::StdRng;
use std::sync::atomic::Ordering::Relaxed;
use std::time::{Duration, Instant};

const SIDE: u32 = 32;
const RATE: f64 = 0.06;

/// Steps with injection (a drain of up to as many follows).
pub const STEPS: u64 = 300;

/// Set-ups timed before each measured run (each takes about 1 ms).
const SETUPS_PER_RUN: usize = 5;

/// Engine threads of the sharded run that checks the outcome.
const SHARDED: usize = 2;

/// The simulation set up once: what a user builds before the first run.
struct Rig {
    mesh: Mesh,
    router: Box<dyn ObliviousRouter>,
    pattern: UniformTraffic,
}

fn rig() -> Rig {
    let mesh = Mesh::new_mesh(&[SIDE, SIDE]);
    let router =
        build_router("busch2d", &mesh).expect("busch2d accepts a square power-of-two mesh");
    let pattern = UniformTraffic::new(mesh.clone());
    Rig {
        mesh,
        router,
        pattern,
    }
}

/// Set-up as a user pays it: build the router and the traffic, and
/// simulate one step. Seconds.
fn setup_once(seed: u64) -> f64 {
    let t0 = Instant::now();
    let r = rig();
    let router = &*r.router;
    let source =
        |s: &Coord, t: &Coord, rng: &mut StdRng| -> Path { router.select_path(s, t, rng).path };
    std::hint::black_box(simulate(&r, &source, 1, 1, seed));
    t0.elapsed().as_secs_f64()
}

fn simulate(
    rig: &Rig,
    source: &(dyn PathSource + Sync),
    threads: usize,
    steps: u64,
    seed: u64,
) -> OnlineResult {
    let sim = OnlineSim::new(&rig.mesh, SchedulingPolicy::Fifo, RATE);
    if threads == 1 {
        sim.run(&rig.pattern, source, steps, seed)
    } else {
        sim.run_sharded(&rig.pattern, source, steps, seed, threads)
    }
}

/// One run and its wall time, seconds.
fn timed_run(
    rig: &Rig,
    source: &(dyn PathSource + Sync),
    threads: usize,
    steps: u64,
    seed: u64,
) -> (OnlineResult, f64) {
    let t0 = Instant::now();
    let r = simulate(rig, source, threads, steps, seed);
    (r, t0.elapsed().as_secs_f64())
}

fn hops(r: &OnlineResult) -> f64 {
    r.link_loads.iter().sum::<u64>() as f64
}

/// Everything a simulated outcome is, folded in order: equal digests
/// mean the same outcome on every engine and commit.
fn sim_digest(r: &OnlineResult) -> u64 {
    let mut d = 0;
    for x in [
        r.steps,
        r.injected as u64,
        r.delivered as u64,
        r.mean_latency.to_bits(),
        r.p95_latency.to_bits(),
        r.in_flight as u64,
        r.throughput.to_bits(),
    ] {
        d = fold(d, x);
    }
    r.link_loads.iter().fold(d, |d, &l| fold(d, l))
}

/// The runs one path source made inside a window.
#[derive(Default)]
struct Runs {
    walls: Vec<f64>,
    hops: f64,
    mismatched: u64,
}

impl Runs {
    /// Hops per second over all the runs together. A median of per-run
    /// rates would jump between the host's fast and slow states as the
    /// slow share of the window crosses one half; the overall rate moves
    /// in proportion to that share.
    fn hops_per_s(&self) -> f64 {
        self.hops / self.walls.iter().sum::<f64>()
    }
}

/// Runs the sequential engine back to back until `secs` have passed,
/// taking turns over `sources` (each runs at least once) and checking
/// every outcome against `reference`. `around(i, starting)` brackets
/// each run of source `i`.
fn window(
    rig: &Rig,
    sources: &[&(dyn PathSource + Sync)],
    steps: u64,
    seed: u64,
    secs: f64,
    reference: &OnlineResult,
    mut around: impl FnMut(usize, bool),
) -> Vec<Runs> {
    let end = Instant::now() + Duration::from_secs_f64(secs);
    let mut runs: Vec<Runs> = sources.iter().map(|_| Runs::default()).collect();
    for (i, source) in sources.iter().enumerate().cycle() {
        if i == 0 && !runs[0].walls.is_empty() && Instant::now() >= end {
            break;
        }
        around(i, true);
        let (r, wall) = timed_run(rig, *source, 1, steps, seed);
        around(i, false);
        runs[i].walls.push(wall);
        runs[i].hops += hops(&r);
        if !r.same_outcome(reference) {
            runs[i].mismatched += 1;
        }
    }
    runs
}

/// Runs the simulator workload over `steps` steps and reports it.
pub fn run(opts: &Opts, steps: u64) -> Outcome {
    match run_inner(opts, steps) {
        Ok(o) => o,
        Err(e) => Outcome::failed_to_run(e),
    }
}

fn run_inner(opts: &Opts, steps: u64) -> Result<Outcome, String> {
    let seed = splitmix64(opts.seed ^ 0x51A);
    let mut out = Outcome::default();
    // Traced: the unloaded layers are timed before any load.
    if opts.trace {
        out.metrics = layers::probe(seed)?.0;
    }
    let rig = rig();
    let router = &*rig.router;
    let plain =
        |s: &Coord, t: &Coord, rng: &mut StdRng| -> Path { router.select_path(s, t, rng).path };
    let tracer = Tracer::new(if opts.trace { crate::TRACE_SPANS } else { 0 });
    let timed = TimedSource {
        router,
        tracer: &tracer,
        run_span: Default::default(),
    };

    // Warm-up run: the reference outcome every later run must repeat.
    let reference = simulate(&rig, &plain, 1, steps, seed);
    out.digests.push(("sim_digest", sim_digest(&reference)));
    // Traced, plain and timed runs take turns, so drift in the host's
    // speed falls on both alike.
    let sources: Vec<&(dyn PathSource + Sync)> = if opts.trace {
        vec![&plain, &timed]
    } else {
        vec![&plain]
    };
    let (mut run_start, mut allocs_before, mut allocs) = (Instant::now(), 0, 0);
    // Set-ups are timed before every untraced run rather than all at
    // once, and each run's median is averaged over the window: one
    // set-up falls wholly in one of the host's two speed states (see
    // `serve::per_second_ms`), so a median over all of them would jump
    // between the states as the slow share of the run crosses one half.
    let mut setups = Vec::new();
    let runs = window(
        &rig,
        &sources,
        steps,
        seed,
        opts.seconds,
        &reference,
        |i, starting| {
            if i == 0 {
                if starting && !opts.trace {
                    let group: Vec<f64> = (0..SETUPS_PER_RUN).map(|_| setup_once(seed)).collect();
                    setups.push(median(&group));
                }
                return;
            }
            if starting {
                timed.run_span.store(tracer.id(), Relaxed);
                alloc::set_counting(true);
                allocs_before = alloc::total();
                tracer.start();
                run_start = Instant::now();
            } else {
                let id = timed.run_span.load(Relaxed);
                tracer.record("sim.run", id, NONE, run_start, Instant::now(), u64::MAX);
                tracer.stop();
                allocs += alloc::total() - allocs_before;
                alloc::set_counting(false);
            }
        },
    );
    for r in &runs {
        out.attempted += r.walls.len() as u64;
        out.failed += r.mismatched;
    }
    if out.failed > 0 {
        out.errors.push(format!(
            "{} of {} runs differ from the first run of the same seed",
            out.failed, out.attempted
        ));
    }

    // The sharded engine must produce the same outcome.
    let (sharded, sharded_wall) = timed_run(&rig, &plain, SHARDED, steps, seed);
    if !sharded.same_outcome(&reference) {
        out.errors
            .push(format!("run_sharded({SHARDED}) outcome differs from run"));
    }
    let plain_runs = &runs[0];
    let wall = median(&plain_runs.walls);
    out.extras = vec![
        metric(
            "sim.delivered_fraction",
            reference.delivered_fraction(),
            "ratio",
        ),
        metric("sim.mean_latency_steps", reference.mean_latency, "steps"),
        metric("sim.hops_per_run", hops(&reference), "count"),
        metric("sim.runs", plain_runs.walls.len() as f64, "count"),
        metric(
            "sim.threads2.hops_per_s",
            hops(&sharded) / sharded_wall,
            "1/s",
        ),
        metric("sim.threads2.wall_ms", sharded_wall * 1e3, "ms"),
        // Parallel efficiency: the sequential median over 2 x one
        // sharded run.
        metric(
            "sim.threads2.efficiency",
            wall / (SHARDED as f64 * sharded_wall),
            "ratio",
        ),
    ];
    if let Some(sh) = sharded.sharding {
        out.extras
            .push(metric("sim.threads2.handoffs", sh.handoffs as f64, "count"));
        out.extras.push(metric(
            "sim.threads2.max_imbalance",
            sh.max_imbalance as f64,
            "count",
        ));
    }

    let Some(traced) = runs.get(1) else {
        out.metrics = vec![
            metric("setup_s", mean(&setups), "s"),
            metric("throughput_per_s", plain_runs.hops_per_s(), "1/s"),
            metric("p50_ms", wall * 1e3, "ms"),
        ];
        let slowest = plain_runs.walls.iter().copied().fold(0.0, f64::max);
        out.extras
            .push(metric("sim.slowest_run_ms", slowest * 1e3, "ms"));
        return Ok(out);
    };
    let trace_path = opts.out.join(format!("{}.trace.json", opts.workload));
    tracer
        .write(&trace_path, &opts.workload, &|_, _| Vec::new())
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    let (route_ns, calls, paths) = tracer.route_totals();
    let traced_s: f64 = traced.walls.iter().sum();
    let route_share = route_ns as f64 / (traced_s * 1e9);
    out.metrics.extend([
        metric(
            "load.route.ns_per_path",
            route_ns as f64 / paths.max(1) as f64,
            "ns",
        ),
        metric("load.route.busy_share", route_share, "ratio"),
        metric(
            "load.route.paths_per_call",
            paths as f64 / calls.max(1) as f64,
            "count",
        ),
        metric(
            "load.alloc.per_op",
            allocs as f64 / paths.max(1) as f64,
            "count",
        ),
        metric(
            "trace.overhead",
            plain_runs.hops_per_s() / traced.hops_per_s(),
            "ratio",
        ),
    ]);
    // Wall time per run not spent routing: injection, contention.
    let route_s_per_run = route_ns as f64 / 1e9 / traced.walls.len() as f64;
    out.extras.push(metric(
        "sim.seq.contend_s",
        median(&traced.walls) - route_s_per_run,
        "s",
    ));
    out.extras
        .push(metric("sim.seq.route_share", route_share, "ratio"));
    out.extras
        .push(sharded_route_share(&rig, steps, seed, &reference)?);
    Ok(out)
}

/// The sharded engine's routing share, from one timed run: routing time
/// over its wall time times its threads. Only routing totals are kept.
fn sharded_route_share(
    rig: &Rig,
    steps: u64,
    seed: u64,
    reference: &OnlineResult,
) -> Result<Metric, String> {
    let tracer = Tracer::new(0);
    let timed = TimedSource {
        router: &*rig.router,
        tracer: &tracer,
        run_span: Default::default(),
    };
    tracer.start();
    let (r, wall) = timed_run(rig, &timed, SHARDED, steps, seed);
    tracer.stop();
    if !r.same_outcome(reference) {
        return Err(format!(
            "timed run_sharded({SHARDED}) outcome differs from run"
        ));
    }
    let route_ns = tracer.route_totals().0 as f64;
    Ok(metric(
        "sim.threads2.route_share",
        route_ns / (wall * 1e9 * SHARDED as f64),
        "ratio",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sim_saturated() {
        for trace in [false, true] {
            let opts = Opts {
                trace,
                ..Opts::smoke("sim_saturated")
            };
            let out = run(&opts, 20);
            assert!(out.errors.is_empty(), "trace {trace}: {:?}", out.errors);
            assert!(out.attempted > 0);
            assert_eq!(out.failed, 0);
        }
    }
}
