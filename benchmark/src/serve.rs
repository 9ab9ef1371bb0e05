//! The serve workloads: `oblivion_serve::run` in this process, loaded
//! over loopback by the benchmark's own client.
//!
//! The server runs one worker (`threads: 1`, no simulated work, batches
//! of up to 64). Load never uses more than two generator threads or two
//! open connections, the size of the two-core host the calibration was
//! made on.

use crate::client::{
    self, connect, expected_reply, ns, open_loop, push_request, request, LineReader, Measured,
    Schedule, Stream,
};
use crate::report::{metric, Metric, Outcome};
use crate::stats::{mean, median, quantile, splitmix64, Reservoir};
use crate::trace::{TracedRouter, Tracer, NONE};
use crate::{alloc, layers, Opts};
use oblivion_core::{build_router, parse_mesh_spec, ObliviousRouter};
use oblivion_serve::{Control, Phase, ServeConfig, ServeSummary};
use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How a serve workload sends its requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Open loop; every request opens its own connection.
    PerConn,
    /// Open loop; each generator keeps one connection.
    KeepAlive,
    /// Closed loop; one thread keeps a window of lines in flight on each
    /// connection.
    Pipelined,
}

/// One serve workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub traffic: Traffic,
    pub mesh: &'static str,
    pub router: &'static str,
    /// Offered requests per second over both streams (open loop).
    pub rate: f64,
    /// Lines in flight per connection (closed loop).
    pub window: usize,
}

/// Generator threads (open loop) or connections (closed loop).
const STREAMS: u64 = 2;

/// Set-ups timed per run; the median is reported.
const SETUPS: usize = 9;

pub const PER_CONN: Spec = Spec {
    traffic: Traffic::PerConn,
    mesh: "16x16",
    router: "buschd",
    rate: 400.0,
    window: 1,
};

pub const KEEPALIVE: Spec = Spec {
    traffic: Traffic::KeepAlive,
    mesh: "16x16",
    router: "buschd",
    rate: 2000.0,
    window: 1,
};

pub const PIPELINED: Spec = Spec {
    traffic: Traffic::Pipelined,
    mesh: "64x64",
    router: "busch2d",
    rate: 0.0,
    window: 64,
};

/// The server configuration every workload measures.
pub fn config() -> ServeConfig {
    ServeConfig {
        threads: 1,
        work: Duration::ZERO,
        batch_max: 64,
        ..ServeConfig::default()
    }
}

/// Runs `router` behind `oblivion_serve::run` for the duration of `f`,
/// then drains it and returns its summary.
pub fn with_server<R>(
    router: &dyn ObliviousRouter,
    f: impl FnOnce(SocketAddr) -> R,
) -> Result<(R, ServeSummary), String> {
    let cfg = config();
    let ctl = Control::new();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| oblivion_serve::run(router, &cfg, &ctl));
        let result = ctl.wait_addr(Duration::from_secs(10)).map(f);
        ctl.request_shutdown();
        let summary = server
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("server failed: {e}"))?;
        result
            .map(|r| (r, summary))
            .ok_or_else(|| "server never bound its port".to_string())
    })
}

/// One request on a fresh connection, checked byte for byte against
/// `select_path`.
pub fn first_reply(
    addr: SocketAddr,
    router: &dyn ObliviousRouter,
    run_seed: u64,
) -> Result<(), String> {
    let req = request(router.mesh(), run_seed ^ 0x5E7, 0);
    let mut line = Vec::new();
    push_request(&mut line, &req, 0);
    let mut conn = connect(addr).map_err(|e| format!("connect: {e}"))?;
    conn.write_all(&line).map_err(|e| format!("write: {e}"))?;
    let mut reader = LineReader::default();
    let got = reader
        .read_line(&mut conn)
        .map_err(|e| format!("first reply: {e}"))?;
    let mut want = Vec::new();
    expected_reply(router, &req, 0, &mut want);
    if reader.get(got) == want {
        Ok(())
    } else {
        Err("first reply differs from select_path".into())
    }
}

fn build(spec: &Spec) -> Result<Box<dyn ObliviousRouter>, String> {
    build_router(spec.router, &parse_mesh_spec(spec.mesh, false)?)
}

/// Set-up as a user pays it: build the router, start the server, and
/// get the first verified reply. Seconds.
fn setup_once(spec: &Spec, run_seed: u64) -> Result<f64, String> {
    let started = Instant::now();
    let router = build(spec)?;
    let (took, summary) = with_server(&*router, |addr| {
        first_reply(addr, &*router, run_seed).map(|()| started.elapsed().as_secs_f64())
    })?;
    if summary.stats.completed != 1 || !summary.stats.conserved() {
        return Err(format!(
            "set-up server: completed {} of accepted {}",
            summary.stats.completed, summary.stats.accepted
        ));
    }
    took
}

/// One loaded server lifetime and what the client saw of it.
struct Window {
    m: Measured,
    streams: Vec<Stream>,
    summary: ServeSummary,
    /// Verified `OK` replies per second over the measured window.
    goodput: f64,
    window_ns: f64,
    /// Allocation events inside the window (counted when traced).
    allocs: u64,
}

/// Starts a server on `served`, warms it up, and drives the measured
/// window. With a tracer, spans and allocation counts cover exactly the
/// measured window.
fn drive(
    spec: &Spec,
    served: &dyn ObliviousRouter,
    run_seed: u64,
    warmup: Duration,
    secs: f64,
    tracer: Option<&Tracer>,
) -> Result<Window, String> {
    let mesh = served.mesh();
    let (window, summary) = with_server(served, |addr| -> Result<_, String> {
        first_reply(addr, served, run_seed)?;
        let start = Instant::now() + Duration::from_millis(5);
        let measure_from = start + warmup;
        let end = measure_from + Duration::from_secs_f64(secs);
        std::thread::scope(|scope| {
            let window_allocs = scope.spawn(move || {
                let tracer = tracer?;
                sleep_until(measure_from);
                alloc::set_counting(true);
                let before = alloc::total();
                tracer.start();
                sleep_until(end);
                tracer.stop();
                let after = alloc::total();
                alloc::set_counting(false);
                Some(after - before)
            });
            let (streams, m) = match spec.traffic {
                Traffic::Pipelined => {
                    let mut streams: Vec<Stream> =
                        (0..STREAMS).map(|s| Stream::new(s, STREAMS)).collect();
                    let mut m = Measured::new(run_seed);
                    client::pipelined(
                        addr,
                        &mut streams,
                        mesh,
                        run_seed,
                        spec.window,
                        measure_from,
                        end,
                        &mut m,
                        tracer,
                    )
                    .map_err(|e| format!("pipelined client: {e}"))?;
                    (streams, m)
                }
                _ => {
                    let interval = Duration::from_secs_f64(1.0 / spec.rate);
                    let generators: Vec<_> = (0..STREAMS)
                        .map(|s| {
                            let sched = Schedule {
                                start,
                                offset: interval * s as u32,
                                interval: interval * STREAMS as u32,
                                measure_from,
                                end,
                            };
                            scope.spawn(move || {
                                generator(spec.traffic, addr, mesh, run_seed, s, &sched, tracer)
                            })
                        })
                        .collect();
                    let mut streams = Vec::new();
                    let mut m = Measured::new(run_seed);
                    for g in generators {
                        let (stream, part) = g.join().map_err(|_| "generator panicked")?;
                        streams.push(stream);
                        m.absorb(part);
                    }
                    (streams, m)
                }
            };
            let allocs = window_allocs
                .join()
                .map_err(|_| "window timer panicked")?
                .unwrap_or(0);
            Ok((streams, m, allocs, measure_from))
        })
    })?;
    let (streams, m, allocs, measure_from) = window?;
    Ok(Window {
        goodput: m.goodput_per_s(measure_from),
        m,
        streams,
        summary,
        window_ns: secs * 1e9,
        allocs,
    })
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// One open-loop generator thread: stream `s` of the run's requests.
fn generator(
    traffic: Traffic,
    addr: SocketAddr,
    mesh: &oblivion_mesh::Mesh,
    run_seed: u64,
    s: u64,
    sched: &Schedule,
    tracer: Option<&Tracer>,
) -> (Stream, Measured) {
    let mut stream = Stream::new(s, STREAMS);
    let mut m = Measured::new(splitmix64(run_seed ^ s));
    let mut reader = LineReader::default();
    let mut buf = Vec::with_capacity(128);
    let mut kept: Option<TcpStream> = None;
    open_loop(sched, &mut m, |_k, measured, origin, m| {
        let index = stream.next_index();
        buf.clear();
        push_request(&mut buf, &request(mesh, run_seed, index), index);
        let t0 = Instant::now();
        let fresh = kept.is_none();
        let conn = match kept.take() {
            Some(c) => Ok(c),
            None => {
                reader.reset();
                connect(addr)
            }
        };
        let t1 = Instant::now();
        let Ok(mut conn) = conn else {
            stream.settle(None);
            return None;
        };
        let written = conn.write_all(&buf);
        let t2 = Instant::now();
        let line = written.and_then(|()| reader.read_line(&mut conn));
        let t3 = Instant::now();
        let ok = match line {
            Ok(l) => stream.settle(Some(reader.get(l))),
            Err(_) => stream.settle(None),
        };
        if ok && traffic == Traffic::KeepAlive {
            kept = Some(conn);
        }
        if measured {
            if traffic == Traffic::PerConn {
                m.connect_ns.push(ns(t1 - t0));
            }
            if ok {
                m.reply_ns.push(ns(t3 - t2));
            }
        }
        if let Some(t) = tracer {
            let id = t.id();
            t.record("client.request", id, NONE, origin, t3, index);
            if fresh {
                t.record("client.connect", t.id(), id, t0, t1, u64::MAX);
            }
            t.record("client.write", t.id(), id, t1, t2, u64::MAX);
            t.record("client.read", t.id(), id, t2, t3, u64::MAX);
        }
        ok.then_some(t3)
    });
    (stream, m)
}

/// Checks everything the client and the server say about a window.
fn check(w: &Window, router: &dyn ObliviousRouter, run_seed: u64, errors: &mut Vec<String>) {
    for s in &w.streams {
        errors.extend(s.errors.iter().cloned());
        if s.broken > s.errors.len() as u64 {
            errors.push(format!(
                "{} more out-of-order replies",
                s.broken - s.errors.len() as u64
            ));
        }
    }
    let verdicts: Vec<Result<(), String>> = std::thread::scope(|scope| {
        let jobs: Vec<_> = w
            .streams
            .iter()
            .map(|s| scope.spawn(move || s.verify(router, run_seed)))
            .collect();
        jobs.into_iter()
            .map(|j| j.join().unwrap_or_else(|_| Err("verifier panicked".into())))
            .collect()
    });
    errors.extend(verdicts.into_iter().filter_map(Result::err));
    // The readiness request plus every OK the client counted.
    let client_ok = 1 + w.streams.iter().map(|s| s.ok).sum::<u64>();
    if client_ok != w.summary.stats.completed {
        errors.push(format!(
            "client saw {client_ok} OK replies, server completed {}",
            w.summary.stats.completed
        ));
    }
    if !w.summary.stats.conserved() {
        errors.push(format!(
            "server counters do not conserve: accepted {} settled {}",
            w.summary.stats.accepted,
            w.summary.stats.settled()
        ));
    }
}

fn ms(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        f64::NAN
    } else {
        quantile(sorted_ns, q) as f64 / 1e6
    }
}

fn us(sorted_ns: &[u64], q: f64) -> f64 {
    ms(sorted_ns, q) * 1e3
}

/// The `q`-quantile of each second's latencies, averaged over the
/// seconds, ms. `seconds` holds each whole second's sorted samples.
///
/// The host switches between a fast state and one about 1.7 times
/// slower, for stretches of a fraction of a second to several seconds.
/// A quantile over the whole window jumps between the two states'
/// values as the slow share of a run crosses it (p90 at 10%, p50 at
/// 50%); the mean of per-second quantiles moves in proportion to that
/// share, as throughput does.
fn per_second_ms(seconds: &[Vec<u64>], q: f64) -> f64 {
    mean(&seconds.iter().map(|s| ms(s, q)).collect::<Vec<_>>())
}

/// The client- and server-side rows of a window that are not listed
/// metrics, printed and recorded for reading the run; the window's
/// sorted latencies; and those of each whole second of it (a trailing
/// part-second is left out).
fn window_extras(spec: &Spec, w: Window) -> (Vec<Metric>, Vec<u64>, Vec<Vec<u64>>) {
    let mut extras = Vec::new();
    let stats = &w.summary.stats;
    for phase in Phase::ALL {
        let h = stats.phase(phase);
        let name = phase.name();
        extras.push(metric(
            format!("serve.phase.{name}_us_p50"),
            h.quantile(0.5) as f64,
            "us",
        ));
        extras.push(metric(
            format!("serve.phase.{name}_us_p99"),
            h.quantile(0.99) as f64,
            "us",
        ));
        extras.push(metric(
            format!("serve.phase.{name}_us_mean"),
            h.mean(),
            "us",
        ));
    }
    extras.push(metric(
        "serve.shed_share",
        stats.shed_overloaded as f64 / stats.accepted.max(1) as f64,
        "ratio",
    ));
    let m = w.m;
    extras.push(metric(
        "client.late_share",
        m.late as f64 / m.attempted.max(1) as f64,
        "ratio",
    ));
    let reply = m.reply_ns.sorted();
    if spec.traffic != Traffic::Pipelined {
        extras.push(metric("client.reply_us_p50", us(&reply, 0.5), "us"));
        extras.push(metric("client.reply_us_p99", us(&reply, 0.99), "us"));
    }
    if spec.traffic == Traffic::PerConn {
        extras.push(metric(
            "client.connect_us_p50",
            us(&m.connect_ns.sorted(), 0.5),
            "us",
        ));
    }
    let lat = m.latency_ns.sorted();
    extras.push(metric("latency.samples", lat.len() as f64, "count"));
    extras.push(metric("latency.window_p50_ms", ms(&lat, 0.5), "ms"));
    extras.push(metric("latency.window_p90_ms", ms(&lat, 0.9), "ms"));
    extras.push(metric("latency.p99_ms", ms(&lat, 0.99), "ms"));
    let whole = ((w.window_ns / 1e9) as usize).max(1);
    let seconds = m
        .by_second
        .into_iter()
        .take(whole)
        .map(Reservoir::sorted)
        .filter(|s| !s.is_empty())
        .collect();
    (extras, lat, seconds)
}

/// Runs one serve workload and reports it.
pub fn run(spec: &Spec, opts: &Opts) -> Outcome {
    match run_inner(spec, opts) {
        Ok(o) => o,
        Err(e) => Outcome::failed_to_run(e),
    }
}

fn run_inner(spec: &Spec, opts: &Opts) -> Result<Outcome, String> {
    let run_seed = splitmix64(opts.seed);
    let router = build(spec)?;
    let mut out = Outcome::default();
    if !opts.trace {
        let mut setups = Vec::with_capacity(SETUPS);
        for _ in 0..SETUPS {
            setups.push(setup_once(spec, run_seed)?);
        }
        let w = drive(spec, &*router, run_seed, opts.warmup, opts.seconds, None)?;
        check(&w, &*router, run_seed, &mut out.errors);
        out.attempted = w.m.attempted;
        out.failed = w.m.failed;
        out.digests.push(("reply_digest", reply_digest(&w.streams)));
        let goodput = w.goodput;
        let (extras, _, seconds) = window_extras(spec, w);
        out.metrics = vec![
            metric("setup_s", median(&setups), "s"),
            metric("throughput_per_s", goodput, "1/s"),
            metric("p50_ms", per_second_ms(&seconds, 0.5), "ms"),
        ];
        out.extras = extras;
        out.extras
            .push(metric("latency.p90_ms", per_second_ms(&seconds, 0.9), "ms"));
        return Ok(out);
    }

    // Traced: unloaded layers first, then the same load untraced and
    // traced, each for half the run.
    let (layer_metrics, explained_ns) = layers::probe(run_seed)?;
    out.metrics = layer_metrics;
    let half = opts.seconds / 2.0;
    let plain = drive(spec, &*router, run_seed, opts.warmup, half, None)?;
    check(&plain, &*router, run_seed, &mut out.errors);
    let tracer = Tracer::new(crate::TRACE_SPANS);
    let traced_router = TracedRouter {
        inner: &*router,
        tracer: &tracer,
    };
    let traced = drive(
        spec,
        &traced_router,
        run_seed,
        opts.warmup,
        half,
        Some(&tracer),
    )?;
    check(&traced, &*router, run_seed, &mut out.errors);
    out.attempted = plain.m.attempted + traced.m.attempted;
    out.failed = plain.m.failed + traced.m.failed;

    let (route_ns, calls, paths) = tracer.route_totals();
    let window_ns = traced.window_ns;
    let ops = traced.m.goodput.max(1) as f64;
    let allocs = traced.allocs as f64;
    let (plain_goodput, traced_goodput) = (plain.goodput, traced.goodput);

    // Request ids behind each route span's first seed.
    let mut seed_to_id: HashMap<u64, u64> = HashMap::new();
    for s in &traced.streams {
        for k in 0..s.settled {
            let index = s.index(k);
            seed_to_id.insert(request(router.mesh(), run_seed, index).seed, index);
        }
    }
    let stride = if spec.traffic == Traffic::Pipelined {
        STREAMS
    } else {
        1
    };
    let trace_path = opts.out.join(format!("{}.trace.json", opts.workload));
    tracer
        .write(
            &trace_path,
            &opts.workload,
            &|seed, n| match seed_to_id.get(&seed) {
                Some(&id) => (0..u64::from(n)).map(|i| id + i * stride).collect(),
                None => Vec::new(),
            },
        )
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;

    let plain_p50 = ms(&plain.m.latency_ns.sorted(), 0.5);
    let (mut extras, traced_lat, _) = window_extras(spec, traced);
    // Open-loop users see latency; pipelined callers see throughput.
    let overhead = if spec.traffic == Traffic::Pipelined {
        plain_goodput / traced_goodput
    } else {
        ms(&traced_lat, 0.5) / plain_p50
    };
    if let Some(reply) = extras.iter().find(|m| m.name == "client.reply_us_p50") {
        // The loaded reply time the unloaded 16x16 layers do not
        // account for.
        let unexplained = reply.value - explained_ns / 1e3;
        extras.push(metric("serve.unexplained_us", unexplained, "us"));
    }
    out.metrics.extend([
        metric(
            "load.route.ns_per_path",
            route_ns as f64 / paths.max(1) as f64,
            "ns",
        ),
        metric(
            "load.route.busy_share",
            route_ns as f64 / window_ns,
            "ratio",
        ),
        metric(
            "load.route.paths_per_call",
            paths as f64 / calls.max(1) as f64,
            "count",
        ),
        metric("load.alloc.per_op", allocs / ops, "count"),
        metric("trace.overhead", overhead, "ratio"),
    ]);
    out.extras = extras;
    Ok(out)
}

/// Digest of every stream's first replies, in stream order.
fn reply_digest(streams: &[Stream]) -> u64 {
    streams
        .iter()
        .fold(0, |d, s| crate::stats::fold(d, s.reply_digest()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(spec: &Spec) {
        let opts = Opts::smoke(spec_name(spec));
        let out = run(spec, &opts);
        assert!(out.errors.is_empty(), "{:?}", out.errors);
        assert!(out.attempted > 0);
        assert_eq!(out.failed, 0);
        assert!(
            out.metrics.iter().all(|m| m.value.is_finite()),
            "{:?}",
            out.metrics
        );
    }

    #[test]
    fn per_second_quantiles_move_with_the_slow_share() {
        // Six seconds in the fast state, four 1.7 times slower: the
        // window's p50 reads the fast state alone, whatever the slow
        // share below one half; the per-second mean moves with it.
        let seconds: Vec<Vec<u64>> = (0..10)
            .map(|i| vec![if i < 6 { 1_000_000 } else { 1_700_000 }; 100])
            .collect();
        assert!((per_second_ms(&seconds, 0.5) - 1.28).abs() < 1e-9);
        assert!((per_second_ms(&seconds, 0.9) - 1.28).abs() < 1e-9);
        let window: Vec<u64> = seconds.concat();
        assert_eq!(ms(&window, 0.5), 1.0);
    }

    fn spec_name(spec: &Spec) -> &'static str {
        match spec.traffic {
            Traffic::PerConn => "serve_per_conn",
            Traffic::KeepAlive => "serve_keepalive",
            Traffic::Pipelined => "serve_pipelined",
        }
    }

    #[test]
    fn smoke_serve_per_conn() {
        smoke(&PER_CONN);
    }

    #[test]
    fn smoke_serve_keepalive() {
        smoke(&KEEPALIVE);
    }

    #[test]
    fn smoke_serve_pipelined() {
        smoke(&PIPELINED);
    }
}
