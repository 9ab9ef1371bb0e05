//! **E21 — parallel online simulation thread sweep.**
//!
//! Runs one fixed online workload on the sharded simulator at increasing
//! thread counts, verifying that every run produces the *identical*
//! result as `OnlineSim::run` — the same engine at one thread, run inline
//! (the engine's determinism contract) — and recording wall-clock
//! scaling. The speedup column is the only machine-dependent number in
//! the table; everything else is a pure function of the seed.
//!
//! On a multi-core host the sharded engine should reach ≥2x at 4+
//! threads on this workload (path selection parallelizes per packet,
//! contention per link shard). On a single-core host all thread counts
//! necessarily take the same wall-clock — the determinism columns are
//! then still the point of the exercise.

use oblivion_bench::table::{f2, Table};
use oblivion_core::{Busch2D, ObliviousRouter};
use oblivion_mesh::{Coord, Mesh, Path};
use oblivion_obs::Json;
use oblivion_sim::{OnlineSim, SchedulingPolicy, UniformTraffic};
use rand::rngs::StdRng;
use std::time::Instant;

fn main() {
    oblivion_bench::report::start();
    let side = 64u32;
    let (rate, steps, seed) = (0.03f64, 600u64, 0xE21u64);
    println!(
        "E21: online thread sweep ({side}x{side}, busch-2d, uniform, rate {rate}, {steps} steps)\n"
    );
    let mesh = Mesh::new_mesh(&[side, side]);
    let router = Busch2D::new(mesh.clone());
    let pattern = UniformTraffic::new(mesh.clone());
    let source =
        |s: &Coord, t: &Coord, rng: &mut StdRng| -> Path { router.select_path(s, t, rng).path };
    let sim = OnlineSim::new(&mesh, SchedulingPolicy::Fifo, rate);

    let t0 = Instant::now();
    let reference = sim.run(&pattern, &source, steps, seed);
    let inline_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!("1 thread (inline) reference: {inline_ms:.0} ms");

    let mut table = Table::new(vec![
        "threads",
        "wall ms",
        "speedup vs inline",
        "identical to inline",
        "delivered",
        "mean lat",
    ]);
    let mut timings: Vec<(usize, f64)> = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let t1 = Instant::now();
        let r = sim.run_sharded(&pattern, &source, steps, seed, threads);
        let ms = t1.elapsed().as_secs_f64() * 1e3;
        let identical = r.same_outcome(&reference);
        assert!(
            identical,
            "threads={threads} diverged from the 1-thread inline reference"
        );
        timings.push((threads, ms));
        table.row(vec![
            threads.to_string(),
            format!("{ms:.0}"),
            f2(inline_ms / ms),
            "yes".into(),
            r.delivered.to_string(),
            f2(r.mean_latency),
        ]);
    }
    table.print();
    let shards = reference
        .sharding
        .expect("online runs report shards")
        .shards;
    println!(
        "\nAll thread counts produced byte-identical results ({} shards). Speedup\n\
         is meaningful only with real cores: this host reports {} available.",
        shards,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    let mut extra: Vec<(&str, Json)> = vec![
        ("inline_ms", Json::from(inline_ms)),
        ("identical_across_threads", Json::from(true)),
        (
            "host_parallelism",
            Json::from(std::thread::available_parallelism().map_or(1, |n| n.get())),
        ),
    ];
    let timing_rows: Vec<Json> = timings
        .iter()
        .map(|&(threads, ms)| {
            let mut row = Json::obj();
            row.set("threads", threads)
                .set("wall_ms", ms)
                .set("speedup", inline_ms / ms);
            row
        })
        .collect();
    extra.push(("sweep", Json::from(timing_rows)));
    oblivion_bench::report::finish_and_note(
        "online_threads",
        "E21: online simulation thread sweep",
        &table,
        &extra,
    );
    oblivion_bench::report::write_bench_and_note(
        "online_threads",
        &[
            ("inline_ms", Json::from(inline_ms)),
            (
                "best_ms",
                Json::from(timings.iter().map(|&(_, ms)| ms).fold(f64::MAX, f64::min)),
            ),
        ],
    );
}
