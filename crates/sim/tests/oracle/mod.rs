//! A deliberately naive reference for the simulators, shared by the
//! differential suites. It re-derives the model through the public API
//! only, with no regard for speed: a plain `Vec` of packets, and each
//! link's winner found by sorting `(edge, policy key)`.
#![allow(dead_code)]

use oblivion_faults::RecoveryPolicy;
use oblivion_mesh::{Coord, EdgeId, Mesh, Path};
use oblivion_sim::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// How a [`dim_order`] path source orders the axes of each walk.
#[derive(Clone, Copy)]
pub enum AxisOrder {
    /// Axis 0 first, then axis 1, and so on; the RNG is not read.
    Ascending,
    /// A fresh random order per draw, so resampling genuinely redraws the
    /// path — the property the `resample` recovery policy relies on.
    Shuffled,
}

/// A dimension-order path source: each path corrects one axis at a time
/// in `order`, one `Mesh::step_towards` call per hop.
pub fn dim_order(
    mesh: &Mesh,
    order: AxisOrder,
) -> impl Fn(&Coord, &Coord, &mut StdRng) -> Path + Sync + '_ {
    move |s: &Coord, t: &Coord, rng: &mut StdRng| {
        let mut axes: Vec<usize> = (0..mesh.dim()).collect();
        if let AxisOrder::Shuffled = order {
            for i in (1..axes.len()).rev() {
                axes.swap(i, rng.gen_range(0..=i));
            }
        }
        let mut nodes = vec![*s];
        let mut cur = *s;
        for &axis in &axes {
            while let Some(next) = mesh.step_towards(&cur, t[axis], axis) {
                nodes.push(next);
                cur = next;
            }
        }
        Path::new_unchecked(nodes)
    }
}

/// The private path-selection RNG of the `idx`-th injected packet.
fn route_rng(seed: u64, idx: u64) -> StdRng {
    let splitmix64 = |z: u64| {
        let z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    StdRng::seed_from_u64(splitmix64((seed ^ 0xDEAD_BEEF) ^ splitmix64(idx)))
}

/// A packet. Its index in the packet list is its tie-break id: ids only
/// break ties, so any numbering in injection order picks the same winners.
struct Packet {
    inj: u64,
    path: Path,
    pos: usize,
    /// First step it may bid: its injection, or its offline delay.
    start: u64,
    /// Step it reached its current node (its delivery step, once there).
    arrived: u64,
    rank: u64,
    /// Recovery budget spent, and the step before which it holds.
    clock: (u32, u64),
    done: bool,
}

fn packet(inj: u64, path: Path, start: u64, arrived: u64, rank: u64) -> Packet {
    let (pos, clock, done) = (0, (0, 0), path.is_empty());
    Packet {
        inj,
        path,
        pos,
        start,
        arrived,
        rank,
        clock,
        done,
    }
}

/// One synchronous step: each link carries the bidder with the least
/// `(policy priority, id)`; a packet blocked by a down link, or dropped,
/// follows the recovery policy. Returns `(edge, bidders)` per move.
fn step(
    (mesh, policy): (&Mesh, SchedulingPolicy),
    packets: &mut [Packet],
    t: u64,
    fx: Option<(Faults<'_>, &dyn PathSource)>,
    fs: &mut FaultStats,
) -> Vec<(usize, usize)> {
    let (mut bids, mut hit, mut moved) = (Vec::new(), Vec::new(), Vec::new());
    for (k, p) in packets.iter_mut().enumerate() {
        if p.done || p.start > t {
            continue;
        }
        let e = mesh.edge_id(&p.path.nodes()[p.pos], &p.path.nodes()[p.pos + 1]);
        let remaining = (p.path.len() - p.pos) as u64;
        let priority = match policy {
            SchedulingPolicy::Fifo => p.arrived,
            SchedulingPolicy::FurthestToGo => u64::MAX - remaining,
            SchedulingPolicy::ClosestToGo => remaining,
            SchedulingPolicy::RandomRank => p.rank,
        };
        if fx.is_some_and(|(f, _)| f.plan.link_down(e, t)) {
            fs.blocked += 1;
            hit.push(k);
        } else {
            bids.push((e.0, priority, k));
        }
    }
    bids.sort_unstable();
    for group in bids.chunk_by(|a, b| a.0 == b.0) {
        let (e, _, k) = group[0];
        let p = &mut packets[k];
        if fx.is_some_and(|(f, _)| f.plan.drops(EdgeId(e), t, p.inj)) {
            fs.drops += 1;
            hit.push(k);
            continue;
        }
        (p.pos, p.arrived, p.clock) = (p.pos + 1, t + 1, (0, 0));
        p.done = p.pos == p.path.len();
        moved.push((e, group.len()));
    }
    for k in hit {
        let ((f, paths), p) = (fx.expect("only faults hit packets"), &mut packets[k]);
        let attempts = p.clock.0 + 1;
        if t < p.clock.1 {
            continue;
        }
        p.done = attempts > f.retry_budget;
        fs.dead_letters += u64::from(p.done);
        p.clock = (attempts, t + 1);
        match f.recovery {
            RecoveryPolicy::Wait => p.clock.1 = t + (1 << (attempts - 1).min(6)),
            RecoveryPolicy::Resample if !p.done => {
                fs.resamples += 1;
                let (here, dst) = (p.path.nodes()[p.pos], *p.path.target());
                p.path = paths.resample(&here, &dst, &mut f.plan.resample_rng(p.inj, attempts));
                p.pos = 0;
            }
            _ => {}
        }
    }
    moved
}

/// Simulates the same online run as `sim.run(pattern, paths, steps, seed)`.
pub fn run(
    sim: &OnlineSim<'_>,
    pattern: &dyn TrafficPattern,
    paths: &dyn PathSource,
    steps: u64,
    seed: u64,
) -> OnlineResult {
    let (mesh, fx) = (sim.mesh(), sim.faults().map(|f| (f, paths)));
    let down = |c: &Coord| fx.is_some_and(|(f, _)| f.plan.node_down(mesh.node_id(c)));
    let (mut rng, mut fs, mut t) = (StdRng::seed_from_u64(seed), FaultStats::default(), 0);
    let (mut packets, mut injected) = (Vec::<Packet>::new(), 0);
    let mut link_loads = vec![0u64; mesh.edge_count()];
    while t < 2 * steps && (t < steps || packets.iter().any(|p| !p.done)) {
        for src in mesh.coords().filter(|_| t < steps) {
            if !rng.gen_bool(sim.rate()) {
                continue;
            }
            let dst = pattern.destination(&src, &mut rng);
            if dst == src || down(&src) {
                fs.src_down_skips += u64::from(dst != src);
                continue;
            }
            let (inj, rank) = (injected, rng.gen());
            injected += 1;
            if down(&dst) {
                fs.dead_letters += 1;
                fs.dead_on_injection += 1;
                continue;
            }
            let path = paths.path(&src, &dst, &mut route_rng(seed, inj));
            packets.push(packet(inj, path, t, t, rank));
        }
        for (e, _) in step((mesh, sim.policy()), &mut packets, t, fx, &mut fs) {
            link_loads[e] += 1;
        }
        t += 1;
    }
    let mut latencies: Vec<u64> = (packets.iter().filter(|p| p.pos == p.path.len()))
        .map(|p| p.arrived - p.start)
        .collect();
    latencies.sort_unstable();
    let delivered = latencies.len();
    let p95 = latencies.get(((delivered.max(1) - 1) as f64 * 0.95) as usize);
    OnlineResult {
        steps,
        injected: injected as usize,
        delivered,
        mean_latency: latencies.iter().sum::<u64>() as f64 / delivered.max(1) as f64,
        p95_latency: p95.map_or(0.0, |&l| l as f64),
        in_flight: packets.iter().filter(|p| !p.done).count(),
        throughput: delivered as f64 / (mesh.node_count() as f64 * steps.max(1) as f64),
        link_loads,
        sharding: None,
        faults: fx.map(|(f, _)| FaultStats {
            failed_links: f.plan.failed_links() as u64,
            failed_nodes: f.plan.failed_nodes() as u64,
            ..fs
        }),
    }
}

/// Simulates the same offline schedule as
/// `Simulation::new(mesh, paths).run_with_delays(policy, seed, delays)`.
pub fn simulate(
    mesh: &Mesh,
    paths: &[Path],
    policy: SchedulingPolicy,
    seed: u64,
    delays: Option<&[u64]>,
) -> SimResult {
    let (mut rng, delay) = (StdRng::seed_from_u64(seed), |i| delays.map_or(0, |d| d[i]));
    let mut packets: Vec<Packet> = (paths.iter().enumerate())
        .map(|(i, p)| packet(i as u64, p.clone(), delay(i), 0, rng.gen()))
        .collect();
    let (mut max_contention, mut max_queue, mut t) = (0, 0, 0);
    while packets.iter().any(|p| !p.done) {
        let at: Vec<Coord> = (packets.iter().filter(|p| !p.done && p.start <= t))
            .map(|p| p.path.nodes()[p.pos])
            .collect();
        let queues = at.iter().map(|c| at.iter().filter(|&d| d == c).count());
        max_queue = queues.fold(max_queue, usize::max);
        let moved = step(
            (mesh, policy),
            &mut packets,
            t,
            None,
            &mut FaultStats::default(),
        );
        max_contention = moved
            .into_iter()
            .map(|m| m.1)
            .fold(max_contention, usize::max);
        t += 1;
    }
    let delivery: Vec<u64> = packets.iter().map(|p| p.arrived).collect();
    SimResult {
        makespan: delivery.iter().copied().max().unwrap_or(0),
        delivery,
        total_moves: paths.iter().map(|p| p.len() as u64).sum(),
        max_contention,
        max_queue,
    }
}
