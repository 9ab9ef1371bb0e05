//! **E22 — graceful degradation under deterministic fault injection.**
//!
//! Sweeps link-fault rates against recovery policies on one fixed online
//! workload and reports how the routing pipeline degrades: what fraction
//! of injected packets still arrives, how much latency the faults add
//! over the zero-fault baseline, how much the surviving links congest,
//! and how many packets are dead-lettered.
//!
//! The `resample` policy is the paper's own machinery doing double duty:
//! an oblivious path is drawn independently of history, so redrawing the
//! remainder of a stranded packet's path is just another independent
//! selection — the fault tolerance falls out of obliviousness for free.
//! `wait` (bounded exponential backoff) is the passive baseline to beat.
//!
//! Every number here is a pure function of the seeds: the fault plan
//! derives from the fault seed alone, recovery decisions are
//! deterministic, and the thread count never changes the outcome: the
//! run at the configured thread count reproduces the 1-thread inline run
//! bit-for-bit (spot-checked per sweep).

use oblivion_bench::table::{f2, Table};
use oblivion_core::{Busch2D, ObliviousRouter};
use oblivion_faults::{FaultConfig, FaultMode, FaultPlan, RecoveryPolicy};
use oblivion_mesh::{Coord, Mesh, Path};
use oblivion_obs::Json;
use oblivion_sim::{Faults, OnlineSim, PathSource, SchedulingPolicy, UniformTraffic};
use rand::rngs::StdRng;

/// Wraps a router so `resample` goes through its dedicated entry point.
struct RouterSource<'a>(&'a Busch2D);

impl PathSource for RouterSource<'_> {
    fn path(&self, s: &Coord, t: &Coord, rng: &mut StdRng) -> Path {
        self.0.select_path(s, t, rng).path
    }
    fn resample(&self, current: &Coord, t: &Coord, rng: &mut StdRng) -> Path {
        self.0.resample_path(current, t, rng).path
    }
}

fn main() {
    oblivion_bench::report::start();
    let side = 32u32;
    let (rate, steps, seed, fault_seed) = (0.04f64, 400u64, 0xE22u64, 0xFA_17u64);
    let threads = oblivion_bench::report::threads_from_env();
    println!(
        "E22: fault injection sweep ({side}x{side}, busch-2d, uniform, rate {rate}, \
         {steps} steps, {threads} threads)\n"
    );
    let mesh = Mesh::new_mesh(&[side, side]);
    let router = Busch2D::new(mesh.clone());
    let source = RouterSource(&router);
    let pattern = UniformTraffic::new(mesh.clone());
    let sim = OnlineSim::new(&mesh, SchedulingPolicy::Fifo, rate);

    // Zero-fault baseline: the yardstick for added stretch / congestion.
    let baseline = sim.run_sharded(&pattern, &source, steps, seed, threads);
    let base_latency = baseline.mean_latency;
    let base_peak = *baseline.link_loads.iter().max().unwrap_or(&1) as f64;
    println!(
        "zero-fault baseline: delivered {}/{} (mean latency {:.2}, peak link load {})",
        baseline.delivered, baseline.injected, base_latency, base_peak
    );

    let fault_rates = [0.02f64, 0.05, 0.10, 0.15];
    let policies = [RecoveryPolicy::Resample, RecoveryPolicy::Wait];
    let mut table = Table::new(vec![
        "fault rate",
        "recovery",
        "delivered frac",
        "latency x",
        "peak load x",
        "dead letters",
        "resamples",
        "blocked",
    ]);
    let mut cells: Vec<Json> = Vec::new();
    let mut checked = false;
    for &p in &fault_rates {
        for &recovery in &policies {
            let cfg = FaultConfig {
                link_fail_prob: p,
                mode: FaultMode::Transient,
                mttr: 20,
                mtbf: 200,
                ..FaultConfig::default()
            };
            let plan = FaultPlan::new(&mesh, &cfg, fault_seed, 2 * steps);
            let faulted = OnlineSim::new(&mesh, SchedulingPolicy::Fifo, rate).with_faults(Faults {
                plan: &plan,
                recovery,
                retry_budget: 16,
            });
            let r = faulted.run_sharded(&pattern, &source, steps, seed, threads);
            if !checked {
                // Thread-invariance spot check: the run must equal the
                // 1-thread inline run under faults too.
                let inline = faulted.run(&pattern, &source, steps, seed);
                assert!(
                    r.same_outcome(&inline),
                    "fault run diverged from the 1-thread inline run"
                );
                checked = true;
            }
            let fs = r.faults.expect("fault stats attached");
            let latency_x = if base_latency > 0.0 {
                r.mean_latency / base_latency
            } else {
                1.0
            };
            let peak = *r.link_loads.iter().max().unwrap_or(&0) as f64;
            let peak_x = peak / base_peak.max(1.0);
            table.row(vec![
                f2(p),
                recovery.name().into(),
                format!("{:.4}", r.delivered_fraction()),
                f2(latency_x),
                f2(peak_x),
                fs.dead_letters.to_string(),
                fs.resamples.to_string(),
                fs.blocked.to_string(),
            ]);
            let mut cell = Json::obj();
            cell.set("fault_rate", p)
                .set("recovery", recovery.name())
                .set("failed_links", fs.failed_links)
                .set("delivered_fraction", r.delivered_fraction())
                .set("latency_inflation", latency_x)
                .set("peak_load_inflation", peak_x)
                .set("dead_letters", fs.dead_letters)
                .set("resamples", fs.resamples)
                .set("blocked", fs.blocked)
                .set("drops", fs.drops);
            cells.push(cell);
        }
    }
    table.print();
    println!(
        "\nResampling rides the paper's obliviousness: a redraw from the stranded\n\
         node is an independent path, so transient faults cost latency, not loss.\n\
         Passive backoff keeps the original (possibly doomed) path and pays in\n\
         dead letters as the fault rate climbs."
    );

    let mut base = Json::obj();
    base.set("delivered", baseline.delivered)
        .set("injected", baseline.injected)
        .set("mean_latency", base_latency)
        .set("peak_link_load", base_peak);
    oblivion_bench::report::finish_and_note(
        "faults",
        "E22: fault injection and graceful degradation",
        &table,
        &[
            ("baseline", base),
            ("fault_seed", Json::from(fault_seed)),
            ("retry_budget", Json::from(16u64)),
            ("sweep", Json::from(cells)),
        ],
    );
}
