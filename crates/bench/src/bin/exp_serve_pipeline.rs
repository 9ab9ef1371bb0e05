//! **E26 — pipelining depth × routing batch size.**
//!
//! Sweeps the two knobs that govern pipelined serving throughput
//! against each other on one small server (2 workers, 0.5 ms of
//! simulated work per routing burst):
//!
//! - **client pipeline depth** (requests in flight per connection):
//!   1, 4, 16, 64 — depth 1 is keep-alive without pipelining;
//! - **server batch size** (`--batch-max`, lines routed per burst):
//!   1, 8, 64 — batch 1 pays the per-burst work charge on every line.
//!
//! Expected shape: goodput scales with depth only when the server can
//! batch (the per-burst work amortizes over `min(depth, batch)` lines),
//! so the depth-64 column flattens at batch 1 and climbs at batch 64.
//! Conservation must hold in the final account of every cell's server.
//!
//! Writes the grid to `results/serve_pipeline.json`.

use oblivion_bench::table::{f2, Table};
use oblivion_core::BuschD;
use oblivion_mesh::Mesh;
use oblivion_obs::Json;
use oblivion_serve::{run_loadgen, Control, LoadgenConfig, ServeConfig};
use std::time::Duration;

fn main() {
    oblivion_bench::report::start();
    let mesh = Mesh::new_mesh(&[16, 16]);
    let router = BuschD::new(mesh.clone());
    let deadline = Duration::from_millis(500);
    println!(
        "E26: pipelining depth x batch size (16x16, busch-d, 2 workers, 0.5 ms work/burst, \
         {} ms deadline)\n",
        deadline.as_millis()
    );

    let mut table = Table::new(vec![
        "batch",
        "depth",
        "ok",
        "shed",
        "goodput req/s",
        "p50 ms",
        "p99 ms",
    ]);
    let mut grid: Vec<Json> = Vec::new();
    for batch_max in [1usize, 8, 64] {
        let cfg = ServeConfig {
            port: 0,
            health_port: None,
            threads: 2,
            queue_cap: 16,
            batch_max,
            work: Duration::from_micros(500),
            deadline,
            drain: Duration::from_secs(10),
            announce: false,
            ..ServeConfig::default()
        };
        let ctl = Control::new();
        std::thread::scope(|scope| {
            let server = scope.spawn(|| oblivion_serve::run(&router, &cfg, &ctl));
            let addr = ctl
                .wait_addr(Duration::from_secs(10))
                .expect("server did not bind")
                .to_string();
            for depth in [1usize, 4, 16, 64] {
                let lg = LoadgenConfig {
                    addr: addr.clone(),
                    mesh: mesh.clone(),
                    requests: 2000,
                    concurrency: 4,
                    retries: 0,
                    timeout: Duration::from_secs(5),
                    seed: 0xE26 + batch_max as u64 * 131 + depth as u64,
                    keep_alive: true,
                    pipeline: depth,
                    ..LoadgenConfig::default()
                };
                let r = run_loadgen(&lg);
                assert_eq!(r.malformed, 0, "malformed responses in cell");
                let shed = r.overloaded + r.deadline;
                table.row(vec![
                    batch_max.to_string(),
                    depth.to_string(),
                    r.ok.to_string(),
                    shed.to_string(),
                    format!("{:.0}", r.goodput()),
                    f2(r.latency_ms(0.50)),
                    f2(r.latency_ms(0.99)),
                ]);
                let mut row = Json::obj();
                row.set("batch_max", batch_max as u64)
                    .set("depth", depth as u64)
                    .set("ok", r.ok)
                    .set("shed", shed)
                    .set("goodput_rps", r.goodput())
                    .set("p50_ms", r.latency_ms(0.50))
                    .set("p99_ms", r.latency_ms(0.99));
                grid.push(row);
            }
            ctl.request_shutdown();
            let summary = server
                .join()
                .expect("server panicked")
                .expect("server failed");
            assert!(
                summary.stats.conserved(),
                "batch {batch_max}: final account does not conserve: {:?}",
                summary.stats
            );
            if let Err(why) = summary.stats.check() {
                panic!("batch {batch_max}: final account breaks the law: {why}");
            }
        });
    }
    table.print();

    // The headline cells: deep pipeline against a batching server vs
    // against a line-at-a-time server.
    let cell = |b: u64, d: u64| -> f64 {
        grid.iter()
            .find(|r| {
                r.get("batch_max").and_then(Json::as_u64) == Some(b)
                    && r.get("depth").and_then(Json::as_u64) == Some(d)
            })
            .and_then(|r| r.get("goodput_rps").and_then(Json::as_f64))
            .unwrap_or(0.0)
    };
    let amortized = cell(64, 64);
    let line_at_a_time = cell(1, 64);
    println!(
        "\nDepth 64: batch 64 sustains {amortized:.0} req/s vs {line_at_a_time:.0} req/s at \
         batch 1 — the per-burst work charge only amortizes when the server batches."
    );

    let extra: Vec<(&str, Json)> = vec![
        ("grid", Json::from(grid.clone())),
        ("goodput_batch64_depth64", Json::from(amortized)),
        ("goodput_batch1_depth64", Json::from(line_at_a_time)),
    ];
    oblivion_bench::report::finish_and_note(
        "serve_pipeline",
        "E26: pipelining depth x batch size sweep",
        &table,
        &extra,
    );
    assert!(
        amortized > line_at_a_time,
        "batching gave no benefit at depth 64: {amortized:.0} <= {line_at_a_time:.0}"
    );
}
