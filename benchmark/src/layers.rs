//! Unloaded per-layer timings: each layer a served path crosses, timed
//! alone through its public entry point, then one request at a time
//! through an idle server. Every traced run measures these before its
//! load starts, whatever its workload, so each traced run reports every
//! per-layer metric.
//!
//! `serve.idle.unexplained_us` is the idle keep-alive reply time minus
//! the sum of the unloaded costs of the layers on its path (parse,
//! route, format, frame, stats): what the layers do not account for.

use crate::alloc;
use crate::client::{connect, ns, push_request, request, LineReader, Stream};
use crate::report::{metric, Metric};
use crate::serve::with_server;
use crate::stats::quantile;
use oblivion_core::{build_router, ObliviousRouter, PathQuery};
use oblivion_mesh::{Coord, Mesh, Path};
use oblivion_serve::stats::Counter;
use oblivion_serve::wire::{format_path_line_with_id, parse_request, FrameBuf, MAX_REQUEST_LINE};
use oblivion_serve::{Phase, Registry, ServeStats};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::io::Write;
use std::time::Instant;

/// Paths timed one by one per router.
const SELECTS: u64 = 20_000;

/// Mean nanoseconds per call of `f` over `n` calls.
fn ns_per(n: u64, mut f: impl FnMut(u64)) -> f64 {
    let t0 = Instant::now();
    for i in 0..n {
        f(i);
    }
    ns(t0.elapsed()) as f64 / n as f64
}

/// Exact p50 and p99 of single `select_path` calls, each with a fresh
/// RNG as the server seeds them, and allocations per call.
fn select_path(r: &dyn ObliviousRouter, seed: u64) -> (f64, f64, f64) {
    let mesh = r.mesh();
    let one = |i: u64| {
        let q = request(mesh, seed, i);
        let mut rng = StdRng::seed_from_u64(q.seed);
        black_box(r.select_path(&q.src, &q.dst, &mut rng));
    };
    (0..SELECTS / 10).for_each(one);
    let mut samples: Vec<u64> = (0..SELECTS)
        .map(|i| {
            let t0 = Instant::now();
            one(i);
            ns(t0.elapsed())
        })
        .collect();
    samples.sort_unstable();
    let ((), allocs) = alloc::count(|| (0..1000).for_each(one));
    (
        quantile(&samples, 0.5) as f64,
        quantile(&samples, 0.99) as f64,
        allocs as f64 / 1000.0,
    )
}

/// Representative paths of a router, one per generated request.
fn paths(r: &dyn ObliviousRouter, seed: u64, n: u64) -> Vec<Path> {
    (0..n)
        .map(|i| {
            let q = request(r.mesh(), seed, i);
            r.select_path(&q.src, &q.dst, &mut StdRng::seed_from_u64(q.seed))
                .path
        })
        .collect()
}

/// Mean nanoseconds to format one reply line for `paths`.
fn format_ns(paths: &[Path], dim: usize) -> f64 {
    let n = paths.len() as u64;
    ns_per(20 * n, |i| {
        black_box(format_path_line_with_id(
            &paths[(i % n) as usize],
            dim,
            Some("123456"),
        ));
    })
}

/// Write-to-reply times of `n` requests sent one at a time, on one
/// kept connection (`per_conn` false) or a new connection each.
fn idle_requests(
    addr: std::net::SocketAddr,
    mesh: &Mesh,
    seed: u64,
    n: u64,
    per_conn: bool,
    stream: &mut Stream,
) -> Result<Vec<u64>, String> {
    let mut reader = LineReader::default();
    let mut buf = Vec::new();
    let mut kept = None;
    let mut took = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let index = stream.next_index();
        buf.clear();
        push_request(&mut buf, &request(mesh, seed, index), index);
        let t0 = Instant::now();
        let mut conn = match kept.take() {
            Some(c) => c,
            None => {
                reader.reset();
                connect(addr).map_err(|e| format!("idle probe connect: {e}"))?
            }
        };
        conn.write_all(&buf)
            .map_err(|e| format!("idle probe write: {e}"))?;
        let line = reader
            .read_line(&mut conn)
            .map_err(|e| format!("idle probe read: {e}"))?;
        took.push(ns(t0.elapsed()));
        if !stream.settle(Some(reader.get(line))) {
            return Err(format!("idle probe: {:?}", stream.errors));
        }
        if !per_conn {
            kept = Some(conn);
        }
    }
    took.sort_unstable();
    Ok(took)
}

/// Every unloaded per-layer metric, and the summed unloaded cost (ns)
/// of the layers a 16x16 `buschd` request crosses.
pub fn probe(seed: u64) -> Result<(Vec<Metric>, f64), String> {
    let mut out = Vec::new();
    let b2 = build_router("busch2d", &Mesh::new_mesh(&[64, 64]))?;
    let bd = build_router("buschd", &Mesh::new_mesh(&[16, 16]))?;

    let (b2_p50, b2_p99, select_allocs) = select_path(&*b2, seed);
    let (bd_p50, bd_p99, _) = select_path(&*bd, seed);
    out.push(metric("core.select_path.busch2d_64.ns_p50", b2_p50, "ns"));
    out.push(metric("core.select_path.busch2d_64.ns_p99", b2_p99, "ns"));
    out.push(metric("core.select_path.buschd_16.ns_p50", bd_p50, "ns"));
    out.push(metric("core.select_path.buschd_16.ns_p99", bd_p99, "ns"));

    let queries: Vec<PathQuery> = (0..8192)
        .map(|i| {
            let q = request(b2.mesh(), seed, i);
            PathQuery {
                seed: q.seed,
                src: q.src,
                dst: q.dst,
            }
        })
        .collect();
    let mut routed = Vec::with_capacity(64);
    let mut batch_allocs = 0.0;
    for b in [1usize, 8, 64] {
        let mut run = || {
            for chunk in queries.chunks(b) {
                b2.route_batch(chunk, &mut routed);
                black_box(&routed);
            }
        };
        run();
        let t0 = Instant::now();
        run();
        let per_path = ns(t0.elapsed()) as f64 / queries.len() as f64;
        out.push(metric(
            format!("core.route_batch.b{b}.ns_per_path"),
            per_path,
            "ns",
        ));
        if b == 64 {
            batch_allocs = alloc::count(run).1 as f64 / queries.len() as f64;
        }
    }
    out.push(metric(
        "core.state_bytes.busch2d_64",
        b2.state_bytes() as f64,
        "B",
    ));
    out.push(metric(
        "core.state_bytes.buschd_16",
        bd.state_bytes() as f64,
        "B",
    ));
    out.push(metric("alloc.select_path.per_call", select_allocs, "count"));
    out.push(metric(
        "alloc.route_batch_b64.per_path",
        batch_allocs,
        "count",
    ));
    out.push(metric(
        "mesh.path.bytes_per_hop",
        std::mem::size_of::<Coord>() as f64,
        "B",
    ));

    // The wire: a request line parsed, a 64x64 reply formatted, and a
    // 64-line burst framed.
    let lines: Vec<String> = (0..1024)
        .map(|i| {
            let mut buf = Vec::new();
            push_request(&mut buf, &request(b2.mesh(), seed, i), i);
            String::from_utf8(buf).expect("request lines are ASCII")
        })
        .collect();
    let parse = ns_per(50 * 1024, |i| {
        black_box(parse_request(lines[(i % 1024) as usize].trim_end(), b2.mesh()).ok());
    });
    out.push(metric("serve.wire.parse_request.ns", parse, "ns"));
    let b2_paths = paths(&*b2, seed, 256);
    let format64 = format_ns(&b2_paths, 2);
    out.push(metric("serve.wire.format_path_line.ns", format64, "ns"));
    let burst: Vec<u8> = lines[..64].iter().flat_map(|l| l.bytes()).collect();
    let mut fb = FrameBuf::new(MAX_REQUEST_LINE);
    let frame = ns_per(2000, |_| {
        fb.extend(&burst);
        while let Some(f) = fb.next_line() {
            black_box(f);
        }
    }) / 64.0;
    out.push(metric("wire.framebuf.ns_per_line", frame, "ns"));
    let (_, format_allocs) = alloc::count(|| format_ns(&b2_paths[..16], 2));
    out.push(metric(
        "alloc.format_path_line.per_call",
        format_allocs as f64 / (20.0 * 16.0),
        "count",
    ));

    // The ledger a one-line burst moves, and the mesh lookup.
    let stats = ServeStats::default();
    let ledger = ns_per(100_000, |i| {
        stats.admit(1);
        stats.record_phase(Phase::Parse, i % 7);
        stats.record_phase(Phase::RouteCompute, i % 29);
        stats.record_phase(Phase::ReplyWrite, i % 11);
        stats.settle_batch(Counter::Completed, 1);
    });
    out.push(metric("serve.stats.ns_per_line", ledger, "ns"));
    let registry = Registry::single(&*bd);
    let resolve = ns_per(200_000, |_| {
        black_box(registry.resolve(None));
    });
    out.push(metric("serve.registry.resolve_ns", resolve, "ns"));

    // One request at a time through an idle 16x16 buschd server.
    let idle_seed = seed ^ 0x1D1E;
    let mut kept = Stream::new(0, 1);
    let mut fresh = Stream::new(1_000_000, 1);
    let (replies, summary) = with_server(&*bd, |addr| -> Result<_, String> {
        let keepalive = idle_requests(addr, bd.mesh(), idle_seed, 2000, false, &mut kept)?;
        let per_conn = idle_requests(addr, bd.mesh(), idle_seed, 300, true, &mut fresh)?;
        Ok((keepalive, per_conn))
    })?;
    let (keepalive, per_conn) = replies?;
    kept.verify(&*bd, idle_seed)?;
    fresh.verify(&*bd, idle_seed)?;
    if !summary.stats.conserved() || summary.stats.completed != 2300 {
        return Err("idle probe server did not complete every request".into());
    }
    let keepalive_p50 = quantile(&keepalive, 0.5) as f64 / 1e3;
    out.push(metric(
        "serve.idle.keepalive_reply_us_p50",
        keepalive_p50,
        "us",
    ));
    out.push(metric(
        "serve.idle.per_conn_reply_us_p50",
        quantile(&per_conn, 0.5) as f64 / 1e3,
        "us",
    ));
    out.push(metric(
        "serve.idle.accept_us_mean",
        summary.stats.phase(Phase::Accept).mean(),
        "us",
    ));
    out.push(metric(
        "serve.idle.queue_wait_us_mean",
        summary.stats.phase(Phase::QueueWait).mean(),
        "us",
    ));
    let bd_paths = paths(&*bd, seed, 256);
    let explained_ns = parse + bd_p50 + format_ns(&bd_paths, 2) + frame + ledger;
    out.push(metric(
        "serve.idle.unexplained_us",
        keepalive_p50 - explained_ns / 1e3,
        "us",
    ));
    Ok((out, explained_ns))
}
