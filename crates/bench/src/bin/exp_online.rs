//! **E18 — online routing** (Section 1: "packets continuously arrive").
//!
//! The classic interconnection-network evaluation: mean packet latency vs
//! offered load, under continuous Bernoulli injection. Because oblivious
//! routers fix each path at injection with no global state, they drop
//! straight into this online setting — the paper's core motivation. The
//! interesting contrast is adversarial traffic (transpose): deterministic
//! dimension-order routing saturates early on its hot diagonal band, while
//! algorithm H sustains higher load at bounded latency.

use oblivion_bench::table::{f2, f3, Table};
use oblivion_core::{Busch2D, DimOrder, ObliviousRouter, Valiant};
use oblivion_mesh::{Coord, Mesh, Path};
use oblivion_obs::Json;
use oblivion_sim::{FixedTraffic, OnlineSim, SchedulingPolicy, TrafficPattern, UniformTraffic};
use rand::rngs::StdRng;
use std::time::Instant;

fn run_curve(
    mesh: &Mesh,
    router: &dyn ObliviousRouter,
    pattern: &dyn TrafficPattern,
    rates: &[f64],
    threads: usize,
    table: &mut Table,
) {
    let source =
        |s: &Coord, t: &Coord, rng: &mut StdRng| -> Path { router.select_path(s, t, rng).path };
    for &rate in rates {
        let sim = OnlineSim::new(mesh, SchedulingPolicy::Fifo, rate);
        let r = sim.run_sharded(pattern, &source, 600, 0xE18, threads);
        table.row(vec![
            router.name(),
            pattern.name(),
            f3(rate),
            r.injected.to_string(),
            f2(r.mean_latency),
            f2(r.p95_latency),
            f3(r.throughput),
            r.in_flight.to_string(),
        ]);
    }
}

fn main() {
    oblivion_bench::report::start();
    let side = 16u32;
    println!("E18: online latency vs offered load ({side}x{side}, FIFO, 600-step window)\n");
    let mesh = Mesh::new_mesh(&[side, side]);
    let h = Busch2D::new(mesh.clone());
    let dim = DimOrder::new(mesh.clone());
    let val = Valiant::new(mesh.clone());
    let uniform = UniformTraffic::new(mesh.clone());
    let transpose = FixedTraffic {
        pattern_name: "transpose".into(),
        map: |c| Coord::new(&[c[1], c[0]]),
    };

    let mut table = Table::new(vec![
        "router",
        "pattern",
        "rate",
        "injected",
        "mean lat",
        "p95 lat",
        "throughput",
        "in flight",
    ]);
    let threads = oblivion_bench::report::threads_from_env();
    let rates = [0.01, 0.05, 0.1, 0.2];
    for pattern in [&uniform as &dyn TrafficPattern, &transpose] {
        run_curve(&mesh, &h, pattern, &rates, threads, &mut table);
        run_curve(&mesh, &dim, pattern, &rates, threads, &mut table);
        run_curve(&mesh, &val, pattern, &rates, threads, &mut table);
    }
    table.print();
    println!(
        "\nExpected shape: at low rates latency ~ mean path length, so dim-order\n\
         (stretch 1) is lowest and busch-2d tracks it within its constant stretch\n\
         factor. Near saturation, valiant collapses first on BOTH patterns (its\n\
         detours burn link capacity: accepted throughput stalls ~0.12), while\n\
         busch-2d and dim-order degrade gracefully. The worst-case-congestion\n\
         separation between H and dim-order is a batch phenomenon (see E9/E10);\n\
         under symmetric steady-state injection dim-order's average case is fine —\n\
         an honest boundary of the paper's worst-case claims."
    );
    oblivion_bench::report::finish_and_note(
        "exp_online",
        "E11: online latency vs offered load",
        &table,
        &[("threads", Json::from(threads))],
    );

    // 1-thread inline vs parallel wall-clock on one heavy configuration;
    // the two runs are asserted identical before the timings are recorded.
    let source = |s: &Coord, t: &Coord, rng: &mut StdRng| -> Path { h.select_path(s, t, rng).path };
    let sim = OnlineSim::new(&mesh, SchedulingPolicy::Fifo, 0.1);
    let t0 = Instant::now();
    let inline = sim.run(&uniform, &source, 600, 0xE18);
    let inline_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    let par = sim.run_sharded(&uniform, &source, 600, 0xE18, threads);
    let par_ms = t1.elapsed().as_secs_f64() * 1e3;
    assert!(
        par.same_outcome(&inline),
        "the outcome must not depend on the thread count"
    );
    println!(
        "\nwall-clock (busch-2d, uniform, rate 0.1): 1 thread (inline) {inline_ms:.0} ms, \
         {threads}-thread sharded {par_ms:.0} ms ({:.2}x)",
        inline_ms / par_ms
    );
    oblivion_bench::report::write_bench_and_note(
        "online",
        &[
            ("threads", Json::from(threads)),
            ("inline_ms", Json::from(inline_ms)),
            ("par_ms", Json::from(par_ms)),
            ("speedup", Json::from(inline_ms / par_ms)),
        ],
    );
}
