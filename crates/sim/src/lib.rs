//! # oblivion-sim
//!
//! A synchronous store-and-forward packet-switching simulator for mesh
//! networks — the routing model of the paper's introduction: time is
//! slotted, **at most one packet traverses any link per time step**, and
//! packets wait in unbounded FIFO buffers otherwise. Any schedule needs
//! `Ω(C + D)` steps on paths with congestion `C` and dilation `D`; the
//! simulator lets us check how close simple online schedulers get, making
//! the paper's `C + D` path-quality metric operational.
//!
//! ```
//! use oblivion_mesh::{Coord, Mesh, Path};
//! use oblivion_sim::{SchedulingPolicy, Simulation};
//!
//! let mesh = Mesh::new_mesh(&[4, 4]);
//! let p = Path::new(&mesh, vec![
//!     Coord::new(&[0, 0]), Coord::new(&[0, 1]), Coord::new(&[0, 2]),
//! ]);
//! let res = Simulation::new(&mesh, vec![p]).run(SchedulingPolicy::Fifo, 0);
//! assert_eq!(res.makespan, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
mod contend;
pub mod online;
pub mod pool;
pub mod sharded;
mod stepper;
pub use checkpoint::{CheckpointCfg, EngineState, Interrupted, StopReason};
pub use online::{
    FaultStats, Faults, FixedTraffic, OnlineResult, OnlineSim, PathSource, ShardSummary,
    TrafficPattern, UniformTraffic,
};
pub use sharded::ShardMap;

use contend::Contention;
use oblivion_mesh::{Mesh, Path};
use online::policy_key;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Contention-resolution rule applied independently at every link, every
/// step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulingPolicy {
    /// First come, first served at the link (ties by packet id).
    Fifo,
    /// The packet with the most remaining hops wins ("furthest to go").
    FurthestToGo,
    /// The packet with the fewest remaining hops wins.
    ClosestToGo,
    /// Each packet carries a random priority drawn at injection time —
    /// the classic random-rank rule behind `O(C + D log N)` schedules.
    RandomRank,
}

/// Outcome of a simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Step at which the last packet arrived (0 if no packet moves).
    pub makespan: u64,
    /// Per-packet delivery step, same order as the input paths.
    pub delivery: Vec<u64>,
    /// Total link traversals (= Σ path lengths).
    pub total_moves: u64,
    /// Largest number of packets contending for one link in one step.
    pub max_contention: usize,
    /// Largest number of in-flight packets buffered at one node at the
    /// start of any step — the buffer capacity an implementation would
    /// need for this schedule.
    pub max_queue: usize,
}

impl SimResult {
    /// Mean delivery time.
    pub fn mean_delivery(&self) -> f64 {
        if self.delivery.is_empty() {
            return 0.0;
        }
        self.delivery.iter().map(|&t| t as f64).sum::<f64>() / self.delivery.len() as f64
    }
}

/// A configured simulation of a fixed path set.
pub struct Simulation<'a> {
    mesh: &'a Mesh,
    paths: Vec<Path>,
}

impl<'a> Simulation<'a> {
    /// Prepares a simulation; paths must be valid walks in `mesh`.
    ///
    /// # Panics
    /// Panics if any path is invalid.
    pub fn new(mesh: &'a Mesh, paths: Vec<Path>) -> Self {
        for (i, p) in paths.iter().enumerate() {
            assert!(p.is_valid(mesh), "path {i} is not a valid walk");
        }
        Self { mesh, paths }
    }

    /// Runs the synchronous schedule to completion.
    ///
    /// `seed` feeds the random-rank policy (ignored by the others, but the
    /// result is deterministic given `(paths, policy, seed)` always).
    pub fn run(&self, policy: SchedulingPolicy, seed: u64) -> SimResult {
        self.run_with_delays(policy, seed, None)
    }

    /// Runs with **random initial delays**: each packet waits a uniform
    /// delay in `[0, max_delay]` before injecting, then competes as usual.
    ///
    /// This is the classic offline technique behind near-`O(C + D)`
    /// schedules (Leighton–Maggs–Rao style, cited by the paper as the
    /// non-oblivious route to optimizing `C + D`): spreading start times
    /// de-synchronizes bursts on shared links.
    pub fn run_with_random_delays(
        &self,
        policy: SchedulingPolicy,
        seed: u64,
        max_delay: u64,
    ) -> SimResult {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9E3779B97F4A7C15);
        let delays: Vec<u64> = (0..self.paths.len())
            .map(|_| rng.gen_range(0..=max_delay))
            .collect();
        self.run_with_delays(policy, seed, Some(&delays))
    }

    /// Runs with explicit per-packet injection times.
    ///
    /// # Panics
    /// Panics if `delays` (when given) has the wrong length.
    pub fn run_with_delays(
        &self,
        policy: SchedulingPolicy,
        seed: u64,
        delays: Option<&[u64]>,
    ) -> SimResult {
        if let Some(d) = delays {
            assert_eq!(d.len(), self.paths.len(), "one delay per packet");
        }
        let _span = oblivion_obs::span("simulation");
        let n = self.paths.len();
        let mut rng = StdRng::seed_from_u64(seed);
        let ranks: Vec<u64> = (0..n).map(|_| rng.gen()).collect();

        // pos[i]: index of the node the packet currently occupies.
        let mut pos = vec![0usize; n];
        // arrived_at[i]: step at which the packet reached its current node.
        let mut arrived_at = vec![0u64; n];
        let mut delivery = vec![0u64; n];
        let mut remaining: Vec<usize> = (0..n).filter(|&i| !self.paths[i].is_empty()).collect();
        let total_moves: u64 = self.paths.iter().map(|p| p.len() as u64).sum();

        let mut makespan = 0u64;
        let mut max_contention = 0usize;
        let mut t = 0u64;
        // Progress guarantee: once every packet is injected, some packet
        // advances each step, so max_delay + total_moves bounds the steps.
        let max_delay = delays
            .map(|d| d.iter().copied().max().unwrap_or(0))
            .unwrap_or(0);
        let step_limit = max_delay + total_moves + 1;

        let mut max_queue = 0usize;
        let mut contention = Contention::new(self.mesh.edge_count());
        // Packets buffered per node this step, reset through `occupied`.
        let mut occupancy = vec![0usize; self.mesh.node_count()];
        let mut occupied: Vec<usize> = Vec::new();
        while !remaining.is_empty() {
            assert!(t < step_limit, "scheduler failed to make progress");
            for &i in &remaining {
                if delays.is_some_and(|d| d[i] > t) {
                    continue; // not yet injected
                }
                let p = self.paths[i].nodes();
                let node = self.mesh.node_id(&p[pos[i]]).0;
                if occupancy[node] == 0 {
                    occupied.push(node);
                }
                occupancy[node] += 1;
                let e = self.mesh.edge_id(&p[pos[i]], &p[pos[i] + 1]).0;
                let rem = (self.paths[i].len() - pos[i]) as u64;
                let key = policy_key(policy, arrived_at[i], ranks[i], rem, i as u64);
                contention.offer(e, key, i);
            }
            let queue = occupied
                .drain(..)
                .map(|n| std::mem::take(&mut occupancy[n]))
                .max()
                .unwrap_or(0);
            max_queue = max_queue.max(queue);
            if oblivion_obs::is_enabled() {
                oblivion_obs::counter_add("sim_steps", 1);
                oblivion_obs::record("queue_len_per_step", queue as u64);
                oblivion_obs::record("busy_links_per_step", contention.busy() as u64);
            }
            for won in contention.drain() {
                max_contention = max_contention.max(won.group as usize);
                let winner = won.at;
                pos[winner] += 1;
                arrived_at[winner] = t + 1;
                if pos[winner] == self.paths[winner].len() {
                    delivery[winner] = t + 1;
                    makespan = makespan.max(t + 1);
                }
            }
            remaining.retain(|&i| pos[i] < self.paths[i].len());
            t += 1;
        }
        SimResult {
            makespan,
            delivery,
            total_moves,
            max_contention,
            max_queue,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oblivion_mesh::Coord;

    fn c(x: u32, y: u32) -> Coord {
        Coord::new(&[x, y])
    }

    fn all_policies() -> [SchedulingPolicy; 4] {
        [
            SchedulingPolicy::Fifo,
            SchedulingPolicy::FurthestToGo,
            SchedulingPolicy::ClosestToGo,
            SchedulingPolicy::RandomRank,
        ]
    }

    #[test]
    fn lone_packet_takes_its_length() {
        let mesh = Mesh::new_mesh(&[4, 4]);
        let p = Path::new(&mesh, vec![c(0, 0), c(1, 0), c(2, 0), c(3, 0)]);
        for policy in all_policies() {
            let r = Simulation::new(&mesh, vec![p.clone()]).run(policy, 1);
            assert_eq!(r.makespan, 3);
            assert_eq!(r.delivery, vec![3]);
        }
    }

    #[test]
    fn head_on_contention_serializes() {
        let mesh = Mesh::new_mesh(&[2, 2]);
        // Two packets crossing the same edge in opposite directions.
        let p1 = Path::new(&mesh, vec![c(0, 0), c(0, 1)]);
        let p2 = Path::new(&mesh, vec![c(0, 1), c(0, 0)]);
        for policy in all_policies() {
            let r = Simulation::new(&mesh, vec![p1.clone(), p2.clone()]).run(policy, 2);
            assert_eq!(r.makespan, 2, "{policy:?}");
            assert_eq!(r.max_contention, 2);
        }
    }

    #[test]
    fn chain_of_packets_pipelines() {
        let mesh = Mesh::new_mesh(&[8, 1]);
        // 4 packets all moving right along the same line, staggered.
        let mk = |a: u32, b: u32| {
            Path::new(
                &mesh,
                (a..=b).map(|x| Coord::new(&[x, 0])).collect::<Vec<_>>(),
            )
        };
        let paths = vec![mk(0, 4), mk(1, 5), mk(2, 6), mk(3, 7)];
        let r = Simulation::new(&mesh, paths).run(SchedulingPolicy::Fifo, 3);
        // All can move each step after initial serialisation on shared
        // links; C = 2 on interior links, D = 4; makespan ≤ C + D + slack.
        assert!(r.makespan >= 4);
        assert!(r.makespan <= 8, "makespan {}", r.makespan);
    }

    #[test]
    fn makespan_at_least_c_and_d() {
        let mesh = Mesh::new_mesh(&[4, 4]);
        // Four packets share the first edge.
        let paths: Vec<Path> = (0..4)
            .map(|_| Path::new(&mesh, vec![c(0, 0), c(0, 1), c(0, 2)]))
            .collect();
        for policy in all_policies() {
            let r = Simulation::new(&mesh, paths.clone()).run(policy, 4);
            assert!(r.makespan >= 4, "C bound violated: {}", r.makespan); // C = 4
            assert!(r.makespan >= 2); // D bound
            assert_eq!(r.total_moves, 8);
        }
    }

    #[test]
    fn trivial_paths_deliver_instantly() {
        let mesh = Mesh::new_mesh(&[4, 4]);
        let r = Simulation::new(&mesh, vec![Path::trivial(c(1, 1))]).run(SchedulingPolicy::Fifo, 5);
        assert_eq!(r.makespan, 0);
        assert_eq!(r.delivery, vec![0]);
    }

    #[test]
    fn deterministic_given_seed() {
        let mesh = Mesh::new_mesh(&[4, 4]);
        let paths = vec![
            Path::new(&mesh, vec![c(0, 0), c(0, 1), c(1, 1)]),
            Path::new(&mesh, vec![c(1, 0), c(0, 0), c(0, 1)]),
            Path::new(&mesh, vec![c(0, 2), c(0, 1), c(0, 0)]),
        ];
        let r1 = Simulation::new(&mesh, paths.clone()).run(SchedulingPolicy::RandomRank, 9);
        let r2 = Simulation::new(&mesh, paths).run(SchedulingPolicy::RandomRank, 9);
        assert_eq!(r1.delivery, r2.delivery);
    }

    #[test]
    fn no_packets() {
        let mesh = Mesh::new_mesh(&[4, 4]);
        let r = Simulation::new(&mesh, vec![]).run(SchedulingPolicy::Fifo, 0);
        assert_eq!(r.makespan, 0);
        assert_eq!(r.total_moves, 0);
    }

    #[test]
    #[should_panic]
    fn invalid_path_rejected() {
        let mesh = Mesh::new_mesh(&[4, 4]);
        let bad = Path::new_unchecked(vec![c(0, 0), c(2, 2)]);
        let _ = Simulation::new(&mesh, vec![bad]);
    }

    #[test]
    fn max_queue_counts_colocated_packets() {
        let mesh = Mesh::new_mesh(&[4, 4]);
        // Three packets all starting at (0,0): queue of 3 at step 0.
        let paths: Vec<Path> = vec![
            Path::new(&mesh, vec![c(0, 0), c(0, 1)]),
            Path::new(&mesh, vec![c(0, 0), c(1, 0)]),
            Path::new(&mesh, vec![c(0, 0), c(0, 1), c(0, 2)]),
        ];
        let r = Simulation::new(&mesh, paths).run(SchedulingPolicy::Fifo, 0);
        assert_eq!(r.max_queue, 3);
    }

    #[test]
    fn lone_packet_queue_is_one() {
        let mesh = Mesh::new_mesh(&[4, 4]);
        let p = Path::new(&mesh, vec![c(0, 0), c(0, 1), c(0, 2)]);
        let r = Simulation::new(&mesh, vec![p]).run(SchedulingPolicy::Fifo, 0);
        assert_eq!(r.max_queue, 1);
    }

    #[test]
    fn explicit_delays_shift_delivery() {
        let mesh = Mesh::new_mesh(&[4, 4]);
        let p = Path::new(&mesh, vec![c(0, 0), c(1, 0), c(2, 0)]);
        let sim = Simulation::new(&mesh, vec![p]);
        let r = sim.run_with_delays(SchedulingPolicy::Fifo, 0, Some(&[5]));
        assert_eq!(r.delivery, vec![7]); // waits 5, then 2 hops
        assert_eq!(r.makespan, 7);
    }

    #[test]
    fn random_delays_deliver_everything() {
        let mesh = Mesh::new_mesh(&[4, 4]);
        // Four packets hammering the same edge.
        let paths: Vec<Path> = (0..4)
            .map(|_| Path::new(&mesh, vec![c(0, 0), c(0, 1), c(0, 2), c(0, 3)]))
            .collect();
        let sim = Simulation::new(&mesh, paths);
        let r = sim.run_with_random_delays(SchedulingPolicy::Fifo, 1, 8);
        assert_eq!(r.delivery.len(), 4);
        assert!(r.makespan >= 6); // C = 4 plus D = 3 minus overlap
        assert!(r.makespan <= 8 + 12);
    }

    #[test]
    fn zero_max_delay_equals_plain_run() {
        let mesh = Mesh::new_mesh(&[4, 4]);
        let paths = vec![
            Path::new(&mesh, vec![c(0, 0), c(0, 1), c(1, 1)]),
            Path::new(&mesh, vec![c(1, 0), c(0, 0), c(0, 1)]),
        ];
        let sim = Simulation::new(&mesh, paths);
        let a = sim.run(SchedulingPolicy::Fifo, 3);
        let b = sim.run_with_random_delays(SchedulingPolicy::Fifo, 3, 0);
        assert_eq!(a.delivery, b.delivery);
    }

    #[test]
    #[should_panic]
    fn wrong_delay_length_rejected() {
        let mesh = Mesh::new_mesh(&[4, 4]);
        let p = Path::new(&mesh, vec![c(0, 0), c(1, 0)]);
        let sim = Simulation::new(&mesh, vec![p]);
        let _ = sim.run_with_delays(SchedulingPolicy::Fifo, 0, Some(&[1, 2]));
    }
}
