//! Continuous-arrival (online) simulation.
//!
//! The paper's opening motivation: "Oblivious algorithms are by their
//! nature distributed and capable of solving **online** routing problems,
//! where packets continuously arrive in the network." This module makes
//! that setting measurable: every node injects packets as a Bernoulli
//! process of rate `λ` (packets per node per step), destinations drawn
//! from a traffic pattern; each packet's path is fixed at injection by an
//! externally supplied path source (the oblivious router); links carry one
//! packet per step. The classic evaluation is mean latency vs offered
//! load: a good router's latency stays flat until `λ` approaches the
//! pattern's capacity limit, then diverges.
//!
//! One engine runs every online simulation: [`OnlineSim::run_sharded`]
//! partitions the mesh's links into spatial shards and steps them on a
//! thread pool (see [`crate::sharded`]); [`OnlineSim::run`] is that engine
//! with one shard worker run inline. Injections come from one main RNG
//! stream and packet `k` selects its path from a private RNG derived from
//! `(seed, k)`, so the outcome is **identical at every thread count** —
//! the differential suites in `tests/` hold it, field for field, to a
//! deliberately naive oracle that lives in test code only.

use crate::checkpoint::{CheckpointCfg, EngineState, StopReason};
use crate::SchedulingPolicy;
use oblivion_faults::{FaultPlan, RecoveryPolicy};
use oblivion_mesh::{Coord, Mesh, Path};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Where an injected packet wants to go.
pub trait TrafficPattern {
    /// Draws a destination for a packet injected at `src` (may equal
    /// `src`; such packets are counted as delivered instantly).
    fn destination(&self, src: &Coord, rng: &mut StdRng) -> Coord;
    /// Pattern name for reports.
    fn name(&self) -> String;
}

/// Uniformly random destinations.
pub struct UniformTraffic {
    mesh: Mesh,
}

impl UniformTraffic {
    /// Creates the pattern for a mesh.
    pub fn new(mesh: Mesh) -> Self {
        Self { mesh }
    }
}

impl TrafficPattern for UniformTraffic {
    fn destination(&self, _src: &Coord, rng: &mut StdRng) -> Coord {
        let id = oblivion_mesh::NodeId(rng.gen_range(0..self.mesh.node_count()));
        self.mesh.coord(id)
    }
    fn name(&self) -> String {
        "uniform".into()
    }
}

/// Deterministic per-source destination function (transpose, complement…).
pub struct FixedTraffic {
    /// Name for reports.
    pub pattern_name: String,
    /// The destination map.
    pub map: fn(&Coord) -> Coord,
}

impl TrafficPattern for FixedTraffic {
    fn destination(&self, src: &Coord, _rng: &mut StdRng) -> Coord {
        (self.map)(src)
    }
    fn name(&self) -> String {
        self.pattern_name.clone()
    }
}

/// A source of paths: called once per injected packet. Implemented by
/// wrapping an oblivious router; kept as a closure trait so the simulator
/// does not depend on `oblivion-core`.
pub trait PathSource {
    /// Produces the full path a packet injected at `s` for `t` will take.
    fn path(&self, s: &Coord, t: &Coord, rng: &mut StdRng) -> Path;

    /// Redraws a path for an in-flight packet stranded at `current` by a
    /// fault (the `resample` recovery policy). For an oblivious source a
    /// redraw is just another independent selection, so this defaults to
    /// [`Self::path`]; wrappers over `ObliviousRouter` forward to its
    /// `resample_path` entry point instead.
    fn resample(&self, current: &Coord, t: &Coord, rng: &mut StdRng) -> Path {
        self.path(current, t, rng)
    }
}

impl<F: Fn(&Coord, &Coord, &mut StdRng) -> Path> PathSource for F {
    fn path(&self, s: &Coord, t: &Coord, rng: &mut StdRng) -> Path {
        self(s, t, rng)
    }
}

/// Fault setup for an online run: the materialized plan plus what a
/// packet does when its next hop is down. `Copy` (it only borrows the
/// plan), so the engines can pass it around freely.
#[derive(Clone, Copy)]
pub struct Faults<'a> {
    /// The read-only fault schedule, queried at contention time.
    pub plan: &'a FaultPlan,
    /// What a blocked packet does.
    pub recovery: RecoveryPolicy,
    /// Adverse events (budget-consuming retries, resamples, dropped
    /// traversals) a packet survives before it is dead-lettered.
    pub retry_budget: u32,
}

/// Graceful-degradation tallies of a faulted run; `None` on
/// [`OnlineResult::faults`] when no fault plan was attached. All fields
/// are order-free sums, so they are bit-identical at any thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Packets abandoned after exhausting their retry budget, plus those
    /// addressed to a dead node.
    pub dead_letters: u64,
    /// Dead letters charged at injection (destination node was dead).
    pub dead_on_injection: u64,
    /// Path redraws performed by the `resample` recovery policy.
    pub resamples: u64,
    /// Traversals lost to per-link packet drop.
    pub drops: u64,
    /// Packet-steps spent blocked behind a down link.
    pub blocked: u64,
    /// Injection attempts skipped because the source node was dead.
    pub src_down_skips: u64,
    /// Links with at least one down interval in the plan.
    pub failed_links: u64,
    /// Dead nodes in the plan.
    pub failed_nodes: u64,
}

impl FaultStats {
    pub(crate) fn for_plan(plan: &FaultPlan) -> Self {
        Self {
            failed_links: plan.failed_links() as u64,
            failed_nodes: plan.failed_nodes() as u64,
            ..Self::default()
        }
    }
}

/// SplitMix64 mix, the standard seed expander (same constants as
/// `oblivion_core`'s parallel router driver).
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The private path-selection RNG of the `idx`-th injected packet. A pure
/// function of `(seed, idx)`, so path selection can run in any order — or
/// in parallel — without changing the outcome.
pub(crate) fn route_rng_for(seed: u64, idx: u64) -> StdRng {
    let base = seed ^ 0xDEAD_BEEF;
    StdRng::seed_from_u64(splitmix64(base ^ splitmix64(idx)))
}

/// Contention key of packet `id` for the one-packet-per-link rule: the
/// minimum key wins. Appending the packet id makes keys unique, so the
/// winner is independent of the order contenders are examined in.
pub(crate) fn policy_key(
    policy: SchedulingPolicy,
    arrived_at: u64,
    rank: u64,
    remaining: u64,
    id: u64,
) -> (u64, u64) {
    match policy {
        SchedulingPolicy::Fifo => (arrived_at, id),
        SchedulingPolicy::FurthestToGo => (u64::MAX - remaining, id),
        SchedulingPolicy::ClosestToGo => (remaining, id),
        SchedulingPolicy::RandomRank => (rank, id),
    }
}

/// Deterministic statistics of a sharded run (identical for every thread
/// count; see [`crate::sharded`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSummary {
    /// Number of spatial shards the mesh's links were partitioned into.
    pub shards: usize,
    /// Total cross-shard packet handoffs over the run.
    pub handoffs: u64,
    /// Largest per-step spread between the busiest and idlest shard's
    /// live packet count.
    pub max_imbalance: u64,
}

/// Result of an online run.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineResult {
    /// Steps simulated.
    pub steps: u64,
    /// Packets injected (excluding self-addressed no-ops).
    pub injected: usize,
    /// Packets delivered within the horizon.
    pub delivered: usize,
    /// Mean latency (injection → delivery) of delivered packets.
    pub mean_latency: f64,
    /// 95th-percentile latency of delivered packets.
    pub p95_latency: f64,
    /// Packets still in flight at the horizon.
    pub in_flight: usize,
    /// Delivered packets per node per step — the accepted throughput
    /// (`0.0` for a 0-step run).
    pub throughput: f64,
    /// Total traversals of each link over the run, indexed by `EdgeId` —
    /// the online analogue of the offline congestion map.
    pub link_loads: Vec<u64>,
    /// Shard statistics of the run (always `Some` from the online
    /// engine; [`OnlineResult::same_outcome`] ignores them).
    pub sharding: Option<ShardSummary>,
    /// Fault tallies when a fault plan was attached; `None` otherwise.
    pub faults: Option<FaultStats>,
}

impl OnlineResult {
    /// Builds the result from raw per-run tallies. Latencies are integer
    /// step counts summed exactly in `u64`, so the derived means are
    /// bit-identical no matter what order deliveries were recorded in —
    /// the property the sharded engine's determinism contract rests on.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        mesh: &Mesh,
        steps: u64,
        injected: usize,
        mut latencies: Vec<u64>,
        in_flight: usize,
        link_loads: Vec<u64>,
        sharding: ShardSummary,
        faults: Option<FaultStats>,
    ) -> Self {
        let delivered = latencies.len();
        let mean_latency = if delivered > 0 {
            latencies.iter().sum::<u64>() as f64 / delivered as f64
        } else {
            0.0
        };
        let p95_latency = if delivered > 0 {
            latencies.sort_unstable();
            latencies[((delivered - 1) as f64 * 0.95) as usize] as f64
        } else {
            0.0
        };
        Self {
            steps,
            injected,
            delivered,
            mean_latency,
            p95_latency,
            in_flight,
            throughput: if steps > 0 {
                delivered as f64 / (mesh.node_count() as f64 * steps as f64)
            } else {
                0.0
            },
            link_loads,
            sharding: Some(sharding),
            faults,
        }
    }

    /// Fraction of injected packets delivered within the horizon — the
    /// headline graceful-degradation metric. `1.0` for an empty run.
    pub fn delivered_fraction(&self) -> f64 {
        if self.injected == 0 {
            1.0
        } else {
            self.delivered as f64 / self.injected as f64
        }
    }

    /// `true` when two runs produced the same simulation outcome —
    /// every field except [`Self::sharding`], which records *how* the
    /// work was organized rather than *what* happened. Used by the
    /// differential tests comparing thread counts and the test oracle.
    pub fn same_outcome(&self, other: &Self) -> bool {
        self.steps == other.steps
            && self.injected == other.injected
            && self.delivered == other.delivered
            && self.mean_latency.to_bits() == other.mean_latency.to_bits()
            && self.p95_latency.to_bits() == other.p95_latency.to_bits()
            && self.in_flight == other.in_flight
            && self.throughput.to_bits() == other.throughput.to_bits()
            && self.link_loads == other.link_loads
            && self.faults == other.faults
    }
}

/// Configuration of an online run.
pub struct OnlineSim<'a> {
    mesh: &'a Mesh,
    policy: SchedulingPolicy,
    /// Injection probability per node per step.
    rate: f64,
    faults: Option<Faults<'a>>,
}

impl<'a> OnlineSim<'a> {
    /// Creates an online simulation at injection rate `rate` (packets per
    /// node per step, `0 ≤ rate ≤ 1`).
    pub fn new(mesh: &'a Mesh, policy: SchedulingPolicy, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        Self {
            mesh,
            policy,
            rate,
            faults: None,
        }
    }

    /// Attaches a fault plan and recovery policy. Fault decisions never
    /// touch the main injection RNG stream (they use the plan's own
    /// derived randomness), so a run with a trivial plan is bit-identical
    /// to a run with no plan at all — except that the result then carries
    /// `Some(FaultStats)`.
    pub fn with_faults(mut self, faults: Faults<'a>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// The attached fault setup, if any.
    pub fn faults(&self) -> Option<Faults<'a>> {
        self.faults
    }

    /// The mesh being simulated.
    pub fn mesh(&self) -> &'a Mesh {
        self.mesh
    }

    /// The link-contention policy.
    pub fn policy(&self) -> SchedulingPolicy {
        self.policy
    }

    /// The per-node Bernoulli injection rate.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Runs for `steps` steps (plus a drain phase of up to `steps` more in
    /// which no new packets are injected), returning latency/throughput
    /// statistics: [`Self::run_sharded`] with one thread, run inline.
    pub fn run(
        &self,
        pattern: &dyn TrafficPattern,
        paths: &(dyn PathSource + Sync),
        steps: u64,
        seed: u64,
    ) -> OnlineResult {
        self.run_sharded(pattern, paths, steps, seed, 1)
    }

    /// Runs the simulation on the sharded engine with `threads` worker
    /// threads (`1` runs inline with no threads spawned).
    ///
    /// Deterministic: the outcome — every [`OnlineResult`] field,
    /// including [`OnlineResult::sharding`] — is a pure function of the
    /// configuration, `steps`, and `seed`; the thread count only changes
    /// wall-clock time.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn run_sharded(
        &self,
        pattern: &dyn TrafficPattern,
        paths: &(dyn PathSource + Sync),
        steps: u64,
        seed: u64,
        threads: usize,
    ) -> OnlineResult {
        match self.run_sharded_ckpt(pattern, paths, steps, seed, threads, None, None) {
            Ok(r) => r,
            Err(stop) => unreachable!("uncheckpointed run cannot stop early: {stop}"),
        }
    }

    /// [`Self::run_sharded`] with checkpoint/restore. Snapshots are
    /// captured at step boundaries, where the coordinator has exclusive
    /// access, and their bytes are canonical: the same configuration
    /// stopped at the same step yields the same snapshot (and CRC) at any
    /// thread count — and the same final result after resume.
    #[allow(clippy::too_many_arguments)]
    pub fn run_sharded_ckpt(
        &self,
        pattern: &dyn TrafficPattern,
        paths: &(dyn PathSource + Sync),
        steps: u64,
        seed: u64,
        threads: usize,
        ckpt: Option<&CheckpointCfg<'_>>,
        resume: Option<&EngineState>,
    ) -> Result<OnlineResult, StopReason> {
        crate::sharded::run_sharded_ckpt(self, pattern, paths, steps, seed, threads, ckpt, resume)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shortest_paths(mesh: &Mesh) -> impl Fn(&Coord, &Coord, &mut StdRng) -> Path + Sync + '_ {
        move |s: &Coord, t: &Coord, _rng: &mut StdRng| {
            // Dimension-order shortest path.
            let mut nodes = vec![*s];
            let mut cur = *s;
            for axis in 0..mesh.dim() {
                while let Some(next) = mesh.step_towards(&cur, t[axis], axis) {
                    nodes.push(next);
                    cur = next;
                }
            }
            Path::new_unchecked(nodes)
        }
    }

    #[test]
    fn zero_rate_injects_nothing() {
        let mesh = Mesh::new_mesh(&[8, 8]);
        let sim = OnlineSim::new(&mesh, SchedulingPolicy::Fifo, 0.0);
        let r = sim.run(
            &UniformTraffic::new(mesh.clone()),
            &shortest_paths(&mesh),
            100,
            1,
        );
        assert_eq!(r.injected, 0);
        assert_eq!(r.delivered, 0);
        assert_eq!(r.throughput, 0.0);
        assert!(r.link_loads.iter().all(|&l| l == 0));
    }

    #[test]
    fn zero_step_run_has_zero_throughput() {
        let mesh = Mesh::new_mesh(&[8, 8]);
        let sim = OnlineSim::new(&mesh, SchedulingPolicy::Fifo, 0.5);
        let r = sim.run(
            &UniformTraffic::new(mesh.clone()),
            &shortest_paths(&mesh),
            0,
            1,
        );
        assert_eq!(r.injected, 0);
        assert_eq!(r.throughput, 0.0);
        assert_eq!(r.mean_latency, 0.0);
    }

    #[test]
    fn low_rate_latency_near_distance() {
        let mesh = Mesh::new_mesh(&[8, 8]);
        let sim = OnlineSim::new(&mesh, SchedulingPolicy::Fifo, 0.01);
        let r = sim.run(
            &UniformTraffic::new(mesh.clone()),
            &shortest_paths(&mesh),
            500,
            2,
        );
        assert!(r.injected > 0);
        // Uncongested: latency ~= mean distance (~16/3 per axis * 2 ≈ 5.3).
        assert!(r.mean_latency < 12.0, "latency {}", r.mean_latency);
        assert!(r.delivered + r.in_flight <= r.injected);
    }

    #[test]
    fn saturation_grows_latency() {
        let mesh = Mesh::new_mesh(&[8, 8]);
        let pattern = UniformTraffic::new(mesh.clone());
        let lat = |rate: f64| {
            let sim = OnlineSim::new(&mesh, SchedulingPolicy::Fifo, rate);
            sim.run(&pattern, &shortest_paths(&mesh), 400, 3)
                .mean_latency
        };
        let low = lat(0.02);
        let high = lat(0.9);
        assert!(
            high > 2.0 * low,
            "saturated latency {high} should dwarf unloaded latency {low}"
        );
    }

    #[test]
    fn drain_phase_delivers_everything_at_low_rate() {
        let mesh = Mesh::new_mesh(&[8, 8]);
        let sim = OnlineSim::new(&mesh, SchedulingPolicy::FurthestToGo, 0.02);
        let r = sim.run(
            &UniformTraffic::new(mesh.clone()),
            &shortest_paths(&mesh),
            200,
            4,
        );
        assert_eq!(r.in_flight, 0, "low-rate run should fully drain");
        assert_eq!(r.delivered, r.injected);
        // Every delivered packet traversed at least one link (or was an
        // instant delivery), so the load map accounts for the traffic.
        assert!(r.link_loads.iter().sum::<u64>() >= r.delivered as u64 / 2);
    }

    #[test]
    fn fixed_traffic_pattern() {
        let mesh = Mesh::new_mesh(&[8, 8]);
        let pattern = FixedTraffic {
            pattern_name: "transpose".into(),
            map: |c| Coord::new(&[c[1], c[0]]),
        };
        assert_eq!(pattern.name(), "transpose");
        let sim = OnlineSim::new(&mesh, SchedulingPolicy::Fifo, 0.05);
        let r = sim.run(&pattern, &shortest_paths(&mesh), 300, 5);
        assert!(r.delivered > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let mesh = Mesh::new_mesh(&[8, 8]);
        let pattern = UniformTraffic::new(mesh.clone());
        let run = |seed| {
            let sim = OnlineSim::new(&mesh, SchedulingPolicy::RandomRank, 0.1);
            let r = sim.run(&pattern, &shortest_paths(&mesh), 200, seed);
            (r.injected, r.delivered, r.mean_latency.to_bits())
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn per_packet_route_rng_is_stable() {
        // The k-th packet's route RNG must not depend on how many packets
        // came before it in the same step — only on (seed, k).
        let mut a = route_rng_for(42, 7);
        let mut b = route_rng_for(42, 7);
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        let mut c = route_rng_for(42, 8);
        let mut d = route_rng_for(43, 7);
        let x = route_rng_for(42, 7).gen::<u64>();
        assert_ne!(c.gen::<u64>(), x);
        assert_ne!(d.gen::<u64>(), x);
    }

    #[test]
    #[should_panic]
    fn bad_rate_rejected() {
        let mesh = Mesh::new_mesh(&[4, 4]);
        let _ = OnlineSim::new(&mesh, SchedulingPolicy::Fifo, 1.5);
    }
}
