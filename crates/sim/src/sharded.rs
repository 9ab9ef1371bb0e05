//! Deterministic sharded parallel online simulation.
//!
//! The mesh's links are partitioned into **spatial shards** — contiguous
//! bands along axis 0, a pure function of the mesh, never of the thread
//! count — and every simulation step runs as a deterministic two-phase
//! protocol on the hand-rolled scoped pool of [`crate::pool`]:
//!
//! 1. **Route** (parallel): packets injected this step select their
//!    oblivious paths, each from a private RNG derived from
//!    `(seed, injection index)` — the same SplitMix64 derivation as
//!    `oblivion_core::route_all_parallel`, so the paths are a pure
//!    function of the inputs. Each worker stages its packets in its own
//!    list; the coordinator merges them in draw order and numbers them.
//! 2. **Contend + commit** (parallel, per shard): every packet is a plain
//!    record owned by exactly one shard — the shard of the link it waits
//!    on — so each shard resolves link contention among its own records
//!    and commits its winners with no shared packet state. A record whose
//!    next link lies in another shard moves there by value: into the
//!    shard's outbox for that destination, which the step's end appends,
//!    under one lock, to the destination's parity-buffered inbox, drained
//!    at the start of the *next* step in whatever order shards happened
//!    to finish — harmless, because winner selection per link uses a
//!    totally ordered key (policy priority, then packet id) and every
//!    reported metric is an order-free aggregate. A delivered or
//!    dead-lettered record is dropped, freeing its path.
//!
//! Beside its records each shard keeps a **wait array**: per packet, the
//! slot of the link it waits on and its contention key. A waiting
//! packet's key cannot change — its arrival step, remaining hops, rank
//! and id move only when it advances or is resampled — so the key is
//! computed when the packet joins the shard, advances or is resampled,
//! and the contention scan reads only the wait array (a record only when
//! a fault plan must check its link). Compaction after the commits walks a
//! bitset of the packets that advanced, were resampled or were
//! dead-lettered, highest word and bit first, each `swap_remove` pulling
//! in a packet already visited or unchanged.
//!
//! The result is byte-for-byte identical for any thread count — and
//! [`OnlineSim::run`] is this engine at one thread, run inline: the pool
//! decides *who* computes, never *what*.

use crate::checkpoint::{capture_obs, CheckpointCfg, EngineState, PacketState, StopReason};
use crate::contend::Contention;
use crate::online::{
    policy_key, route_rng_for, Faults, OnlineResult, OnlineSim, PathSource, ShardSummary,
    TrafficPattern,
};
use crate::pool;
use crate::stepper::{
    Adverse, BoundaryScalars, FaultClock, Pending, PhaseTimer, ShardFinale, StepObs, Stepper,
};
use oblivion_mesh::{Coord, EdgeId, Mesh, NodeId, Path};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock};

/// Maximum number of spatial shards (bands along axis 0).
pub const MAX_SHARDS: usize = 16;

/// A spatial partition of a mesh's links into contiguous axis-0 bands.
///
/// Depends only on the mesh — the same map serves any thread count, so
/// per-shard statistics (handoffs, imbalance) are deterministic.
pub struct ShardMap {
    shards: usize,
    /// Shard of each edge, indexed by `EdgeId`.
    shard_of_edge: Vec<u32>,
    /// Dense slot of each edge within its shard, indexed by `EdgeId`.
    slot_of_edge: Vec<u32>,
    /// Edges per shard.
    slots: Vec<usize>,
}

impl ShardMap {
    /// Builds the shard map for a mesh: `min(side(0), MAX_SHARDS)` bands,
    /// each edge assigned by the axis-0 coordinate of its lower endpoint.
    ///
    /// Derived from the mesh's edge layout rather than per-edge endpoint
    /// lookups: `EdgeId`s run axis by axis, each axis row-major over its
    /// owner endpoints with axis 0 outermost, so every axis is a sequence
    /// of equal runs that share one axis-0 coordinate.
    pub fn new(mesh: &Mesh) -> Self {
        let side = mesh.side(0).max(1) as usize;
        let shards = side.min(MAX_SHARDS);
        let ec = mesh.edge_count();
        let mut shard_of_edge = Vec::with_capacity(ec);
        let mut slot_of_edge = Vec::with_capacity(ec);
        let mut slots = vec![0usize; shards];
        let inner: usize = (1..mesh.dim()).map(|i| mesh.side(i) as usize).product();
        for axis in 0..mesh.dim() {
            let owners = mesh.edge_owners(axis) as usize;
            let (rows, run) = if axis == 0 {
                (owners, inner)
            } else {
                (side, inner / mesh.side(axis) as usize * owners)
            };
            for x in 0..rows {
                // An axis-0 wrap link (owner side-1) has lower endpoint 0.
                let low = if axis == 0 && x + 1 == side { 0 } else { x };
                let s = low * shards / side;
                shard_of_edge.extend(std::iter::repeat_n(s as u32, run));
                slot_of_edge.extend(slots[s] as u32..(slots[s] + run) as u32);
                slots[s] += run;
            }
        }
        debug_assert_eq!(shard_of_edge.len(), ec);
        Self {
            shards,
            shard_of_edge,
            slot_of_edge,
            slots,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning an edge.
    pub fn shard_of(&self, e: EdgeId) -> usize {
        self.shard_of_edge[e.0] as usize
    }
}

/// One in-flight packet: owned by the shard of the link it waits on and
/// moved between shards by value. Dropping it frees its path.
#[derive(Default)]
struct Packet {
    /// Contention tie-break identity: packets with a non-empty path are
    /// numbered in injection order.
    id: u64,
    /// Global injection index — identity for fault decisions.
    inj: u64,
    /// Step the packet was injected at.
    injected_at: u64,
    /// Step the packet reached its current node.
    arrived: u64,
    /// Random scheduling rank drawn at injection.
    rank: u64,
    clock: FaultClock,
    /// Edges crossed so far: the packet waits on `edges[pos]`, and is
    /// finished (delivered, or dead-lettered) at `pos == edges.len()`.
    pos: u32,
    /// Node id the path starts at.
    src: u32,
    /// The path as its run of `EdgeId`s.
    edges: Vec<u32>,
}

impl Packet {
    /// The edge the packet waits on.
    fn edge(&self) -> EdgeId {
        EdgeId(self.edges[self.pos as usize] as usize)
    }

    /// Delivered, or dead-lettered: the step's compaction drops it.
    fn finished(&self) -> bool {
        self.pos as usize == self.edges.len()
    }

    /// The packet's wait: the shard slot of the link it waits on and its
    /// contention key. Neither changes while it waits, since every field
    /// they read moves only when it advances or is resampled.
    fn wait(&self, map: &ShardMap, policy: crate::SchedulingPolicy) -> Wait {
        let remaining = (self.edges.len() - self.pos as usize) as u64;
        Wait {
            key: policy_key(policy, self.arrived, self.rank, remaining, self.id),
            slot: map.slot_of_edge[self.edge().0],
        }
    }

    /// Replaces the path with `path`, from its first node.
    fn set_path(&mut self, mesh: &Mesh, path: &Path) {
        self.src = mesh.node_id(&path.nodes()[0]).0 as u32;
        self.edges = path.edge_ids(mesh).map(|e| e.0 as u32).collect();
        self.pos = 0;
    }

    /// The path's nodes, walked from `src` across `edges`. Only resample
    /// and checkpoint capture need them.
    fn nodes(&self, mesh: &Mesh) -> Vec<Coord> {
        let mut cur = mesh.coord(NodeId(self.src as usize));
        let mut nodes = Vec::with_capacity(self.edges.len() + 1);
        nodes.push(cur);
        for &e in &self.edges {
            let (a, b) = mesh.edge_endpoints(EdgeId(e as usize));
            cur = if a == cur { b } else { a };
            nodes.push(cur);
        }
        nodes
    }

    /// The snapshot record of this packet.
    fn capture(&self, mesh: &Mesh) -> PacketState {
        PacketState {
            id: self.id,
            inj: self.inj,
            injected_at: self.injected_at,
            arrived: self.arrived,
            rank: self.rank,
            pos: u64::from(self.pos),
            attempts: self.clock.attempts,
            backoff_until: self.clock.backoff_until,
            path: self
                .nodes(mesh)
                .iter()
                .map(|c| mesh.node_id(c).0 as u64)
                .collect(),
        }
    }

    /// Rebuilds a packet from its (validated) snapshot record.
    fn restore(mesh: &Mesh, p: &PacketState) -> Self {
        let mut packet = Self {
            id: p.id,
            inj: p.inj,
            injected_at: p.injected_at,
            arrived: p.arrived,
            rank: p.rank,
            clock: FaultClock::restore(p.attempts, p.backoff_until),
            ..Self::default()
        };
        packet.set_path(mesh, &p.to_path(mesh));
        packet.pos = p.pos as u32;
        packet
    }

    /// Advances the fault clock for an adverse event at step `t` and
    /// carries out its outcome: a dead letter finishes the packet, and a
    /// resample restarts it on a path redrawn from its current node with
    /// the plan's derived RNG for `(inj, attempts)`.
    fn adverse(
        &mut self,
        paths: &(dyn PathSource + Sync),
        mesh: &Mesh,
        fx: &Faults<'_>,
        t: u64,
    ) -> Adverse {
        let outcome = self.clock.adverse(fx, t);
        match outcome {
            Adverse::Hold => {}
            Adverse::DeadLetter => self.pos = self.edges.len() as u32,
            Adverse::Resample { attempts } => {
                let nodes = self.nodes(mesh);
                let dst = nodes.last().expect("a path has a node");
                let mut rng = fx.plan.resample_rng(self.inj, attempts);
                let path = paths.resample(&nodes[self.pos as usize], dst, &mut rng);
                debug_assert!(path.is_valid(mesh), "resampled path invalid");
                assert!(!path.is_empty(), "resampled a packet at its destination");
                self.set_path(mesh, &path);
                self.clock.resampled(attempts, t);
            }
        }
        outcome
    }
}

/// A waiting packet's cached [`Packet::wait`], kept beside it so the
/// contention scan reads no packet record.
#[derive(Clone, Copy)]
struct Wait {
    key: (u64, u64),
    slot: u32,
}

/// Per-shard mutable state. Locked by whichever worker claims the shard
/// this step (uncontended: each shard is claimed exactly once per step).
struct ShardState {
    /// The packets waiting on this shard's links, in no meaningful order.
    active: Vec<Packet>,
    /// `waits[r]` is `active[r].wait(..)`, refreshed whenever the packet
    /// joins the shard, advances or is resampled.
    waits: Vec<Wait>,
    /// Bitset over `active` of the packets that advanced, were resampled or
    /// were dead-lettered this step, the only ones compaction visits.
    changed: Vec<u64>,
    /// Per destination shard, the packets handed to it this step.
    outboxes: Vec<Vec<Packet>>,
    /// Per-slot link contention; winners are tagged with their index in
    /// `active`.
    contention: Contention,
    /// Per-slot traversal totals (the shard's slice of the link loads).
    loads: Vec<u64>,
    /// Delivery latencies of packets that completed in this shard.
    latencies: Vec<u64>,
    step_max_group: u32,
    step_busy: u32,
    step_handoffs: u64,
    step_delivered: u64,
    step_dead: u64,
    step_blocked: u64,
    step_resamples: u64,
    step_drops: u64,
}

impl ShardState {
    fn new(slots: usize, shards: usize) -> Self {
        Self {
            active: Vec::new(),
            waits: Vec::new(),
            changed: Vec::new(),
            outboxes: (0..shards).map(|_| Vec::new()).collect(),
            contention: Contention::new(slots),
            loads: vec![0; slots],
            latencies: Vec::new(),
            step_max_group: 0,
            step_busy: 0,
            step_handoffs: 0,
            step_delivered: 0,
            step_dead: 0,
            step_blocked: 0,
            step_resamples: 0,
            step_drops: 0,
        }
    }

    /// Takes `p` in as one of the shard's waiting packets.
    fn join(&mut self, map: &ShardMap, policy: crate::SchedulingPolicy, p: Packet) {
        self.waits.push(p.wait(map, policy));
        self.active.push(p);
    }
}

/// Parity-buffered handoff inboxes, one pair per shard: step `t` drains
/// `[s][t % 2]` while outboxes are emptied into `[s][(t + 1) % 2]`.
type Inboxes = [[Mutex<Vec<Packet>>; 2]];

const ROUTE_PHASE: usize = 0;
const STEP_PHASE: usize = 1;
/// Injections claimed per atomic fetch in the route phase.
const ROUTE_CHUNK: usize = 8;

/// Runs the sharded simulation. See [`OnlineSim::run_sharded`] for the
/// public contract; `sim` carries the mesh, policy, and injection rate.
/// `ckpt`/`resume` implement [`OnlineSim::run_sharded_ckpt`]: snapshots
/// are captured (and restored) at step boundaries, between parallel
/// rounds, where the coordinator has exclusive access to all state.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_sharded_ckpt(
    sim: &OnlineSim<'_>,
    pattern: &dyn TrafficPattern,
    paths: &(dyn PathSource + Sync),
    steps: u64,
    seed: u64,
    threads: usize,
    ckpt: Option<&CheckpointCfg<'_>>,
    resume: Option<&EngineState>,
) -> Result<OnlineResult, StopReason> {
    assert!(threads >= 1, "need at least one thread");
    let _span = oblivion_obs::span("online_sim_sharded");
    let mesh = sim.mesh();
    let policy = sim.policy();
    let faults = sim.faults();
    let map = ShardMap::new(mesh);
    let shards_n = map.shards();

    let shards: Vec<Mutex<ShardState>> = map
        .slots
        .iter()
        .map(|&slots| Mutex::new(ShardState::new(slots, shards_n)))
        .collect();
    let inboxes: Vec<[Mutex<Vec<Packet>>; 2]> = (0..shards_n)
        .map(|_| [Mutex::new(Vec::new()), Mutex::new(Vec::new())])
        .collect();
    let pending: RwLock<Vec<Pending>> = RwLock::new(Vec::new());
    // The route phase's output, one list per worker: each routed packet
    // with a non-empty path, beside its index in `pending`.
    let routed: Vec<Mutex<Vec<(usize, Packet)>>> =
        (0..threads).map(|_| Mutex::new(Vec::new())).collect();

    let phase = AtomicUsize::new(STEP_PHASE);
    let cursor = AtomicUsize::new(0);
    let cur_t = AtomicU64::new(0);
    let steals = AtomicU64::new(0);

    // ------------------------------------------------------------------
    // The parallel job: route pending injections, or contend-and-commit
    // one shard, depending on the phase the coordinator selected.
    // ------------------------------------------------------------------
    let job = |w: usize| {
        let mut local_steals = 0u64;
        let t = cur_t.load(Ordering::SeqCst);
        match phase.load(Ordering::SeqCst) {
            ROUTE_PHASE => {
                let pend = pending.read().unwrap();
                let mut out = routed[w].lock().unwrap();
                let chunks = pend.len().div_ceil(ROUTE_CHUNK);
                loop {
                    let base = cursor.fetch_add(ROUTE_CHUNK, Ordering::Relaxed);
                    if base >= pend.len() {
                        break;
                    }
                    if pool::home_of(base / ROUTE_CHUNK, chunks, threads) != w {
                        local_steals += 1;
                    }
                    for k in base..(base + ROUTE_CHUNK).min(pend.len()) {
                        let pj = &pend[k];
                        let mut prng = route_rng_for(seed, pj.idx);
                        let path = paths.path(&pj.src, &pj.dst, &mut prng);
                        debug_assert!(path.is_valid(mesh), "path source produced invalid walk");
                        if path.is_empty() {
                            continue; // delivered at injection
                        }
                        let mut p = Packet {
                            inj: pj.idx,
                            injected_at: t,
                            arrived: t,
                            rank: pj.rank,
                            ..Packet::default()
                        };
                        p.set_path(mesh, &path);
                        out.push((k, p));
                    }
                }
            }
            _ => loop {
                let s = cursor.fetch_add(1, Ordering::Relaxed);
                if s >= shards_n {
                    break;
                }
                if pool::home_of(s, shards_n, threads) != w {
                    local_steals += 1;
                }
                step_shard(
                    &map, &shards[s], &inboxes, mesh, paths, policy, faults, s, t,
                );
            },
        }
        if local_steals > 0 {
            steals.fetch_add(local_steals, Ordering::Relaxed);
        }
    };

    // ------------------------------------------------------------------
    // The coordinator: injection draws, packet numbering, per-step metric
    // aggregation, termination — the shared step protocol lives in the
    // stepper; this function adds only the shard bookkeeping. Runs
    // strictly between parallel rounds.
    // ------------------------------------------------------------------
    let mut sp = Stepper::new(sim.rate(), faults, steps, seed, ckpt, resume);
    let nodes: Vec<Coord> = mesh.coords().collect();
    let mut alive = 0usize;
    // Packet ids issued so far: the next packet's id.
    let mut next_id = 0u64;
    let mut delivered_instant = 0usize;
    let mut handoffs_total = 0u64;
    let mut max_imbalance = 0u64;
    let mut merged: Vec<(usize, Packet)> = Vec::new();

    // Latencies carried over from a resumed snapshot (includes the zeros
    // of pre-resume instant deliveries); `delivered_instant` counts only
    // post-resume ones.
    let mut base_latencies: Vec<u64> = Vec::new();
    if let Some(st) = resume {
        alive = st.packets.len();
        next_id = st.arena_len;
        handoffs_total = st.handoffs_total;
        max_imbalance = st.max_imbalance;
        base_latencies = st.latencies.clone();
        // Each live packet joins the shard owning its current edge, and
        // each shard's load slots start from the pre-stop traversal
        // totals, so final link loads span the whole run.
        let mut locked: Vec<_> = shards.iter().map(|s| s.lock().unwrap()).collect();
        for p in &st.packets {
            let p = Packet::restore(mesh, p);
            locked[map.shard_of(p.edge())].join(&map, policy, p);
        }
        for (e, &load) in st.link_loads.iter().enumerate() {
            locked[map.shard_of_edge[e] as usize].loads[map.slot_of_edge[e] as usize] = load;
        }
    }
    let mut stopped: Option<StopReason> = None;

    #[derive(Clone, Copy, PartialEq)]
    enum Stage {
        Begin,
        Routed,
        Stepped,
    }
    let mut stage = Stage::Begin;
    // Per-step phase timers. Inject spans the draw and parallel routing,
    // join the Routed stage's merge, numbering and joins, move the STEP
    // phase + harvest.
    let mut timer = PhaseTimer::idle();

    let next = || -> bool {
        loop {
            match stage {
                Stage::Begin => {
                    if !sp.running(alive) {
                        return false;
                    }
                    let stop = sp.boundary(|scalars| {
                        capture_sharded(
                            mesh,
                            &map,
                            &shards,
                            &inboxes,
                            scalars,
                            &base_latencies,
                            delivered_instant,
                            handoffs_total,
                            max_imbalance,
                            next_id,
                        )
                    });
                    if let Some(stop) = stop {
                        stopped = Some(stop);
                        return false;
                    }
                    timer.start();
                    cur_t.store(sp.t, Ordering::SeqCst);
                    // Draw this step's injections into the shared pending
                    // list (cleared by the stepper: drain steps must not
                    // replay the final injection step's list).
                    let mut pend = pending.write().unwrap();
                    sp.draw_injections(mesh, &nodes, pattern, &mut pend);
                    stage = Stage::Routed;
                    if !pend.is_empty() {
                        phase.store(ROUTE_PHASE, Ordering::SeqCst);
                        cursor.store(0, Ordering::SeqCst);
                        return true;
                    }
                }
                Stage::Routed => {
                    // Number the routed injections in draw order
                    // (deterministic) and hand each to the shard of its
                    // first edge, each shard locked once, then run the
                    // step phase.
                    timer.inject_done();
                    for out in &routed {
                        merged.append(&mut out.lock().unwrap());
                    }
                    merged.sort_unstable_by_key(|&(k, _)| k);
                    delivered_instant += pending.read().unwrap().len() - merged.len();
                    let mut locked: Vec<_> = shards.iter().map(|s| s.lock().unwrap()).collect();
                    for (_, mut p) in merged.drain(..) {
                        p.id = next_id;
                        next_id += 1;
                        locked[map.shard_of(p.edge())].join(&map, policy, p);
                        alive += 1;
                    }
                    timer.join_done();
                    phase.store(STEP_PHASE, Ordering::SeqCst);
                    cursor.store(0, Ordering::SeqCst);
                    stage = Stage::Stepped;
                    return true;
                }
                Stage::Stepped => {
                    // Harvest the step: order-free aggregates over shards.
                    let mut max_group = 0u64;
                    let mut busy = 0u64;
                    let mut step_handoffs = 0u64;
                    let mut delivered_step = 0u64;
                    let mut dead_step = 0u64;
                    let (mut live_max, mut live_min) = (0u64, u64::MAX);
                    for shard in &shards {
                        let st = shard.lock().unwrap();
                        max_group = max_group.max(u64::from(st.step_max_group));
                        busy += u64::from(st.step_busy);
                        step_handoffs += st.step_handoffs;
                        delivered_step += st.step_delivered;
                        dead_step += st.step_dead;
                        if let Some(fs) = sp.fstats.as_mut() {
                            fs.blocked += st.step_blocked;
                            fs.resamples += st.step_resamples;
                            fs.drops += st.step_drops;
                            fs.dead_letters += st.step_dead;
                        }
                        live_max = live_max.max(st.active.len() as u64);
                        live_min = live_min.min(st.active.len() as u64);
                    }
                    let imbalance = live_max.saturating_sub(live_min);
                    alive -= (delivered_step + dead_step) as usize;
                    handoffs_total += step_handoffs;
                    max_imbalance = max_imbalance.max(imbalance);
                    timer.move_done();
                    sp.end_step(
                        alive,
                        StepObs {
                            max_group,
                            busy,
                            handoffs: step_handoffs,
                            imbalance,
                        },
                    );
                    stage = Stage::Begin;
                }
            }
        }
    };

    pool::run_rounds(threads, job, next);

    if let Some(stop) = stopped {
        return Err(stop);
    }

    sp.finish(ShardFinale {
        shards: shards_n,
        steals: steals.load(Ordering::Relaxed),
    });

    let (latencies, link_loads) = gather(&map, &shards, &base_latencies, delivered_instant);
    Ok(OnlineResult::assemble(
        mesh,
        steps,
        sp.injected,
        latencies,
        alive,
        link_loads,
        ShardSummary {
            shards: shards_n,
            handoffs: handoffs_total,
            max_imbalance,
        },
        sp.fstats,
    ))
}

/// The run's latencies (resumed ones, then `delivered_instant` zeros,
/// then each shard's in shard order) and its link loads indexed by
/// `EdgeId`, reassembled from the shard slots with each shard locked once.
fn gather(
    map: &ShardMap,
    shards: &[Mutex<ShardState>],
    base_latencies: &[u64],
    delivered_instant: usize,
) -> (Vec<u64>, Vec<u64>) {
    let locked: Vec<_> = shards.iter().map(|s| s.lock().unwrap()).collect();
    let mut latencies = base_latencies.to_vec();
    latencies.resize(latencies.len() + delivered_instant, 0);
    for st in &locked {
        latencies.extend_from_slice(&st.latencies);
    }
    let link_loads = (map.shard_of_edge.iter().zip(&map.slot_of_edge))
        .map(|(&s, &slot)| locked[s as usize].loads[slot as usize])
        .collect();
    (latencies, link_loads)
}

/// Captures the full sharded-engine state at a step boundary into a
/// canonical [`EngineState`]: live packets are the union of the shards'
/// active lists and current-parity inboxes, sorted by id, and latencies
/// are sorted — so the bytes are independent of shard finish order, and
/// therefore of the thread count.
#[allow(clippy::too_many_arguments)]
fn capture_sharded(
    mesh: &Mesh,
    map: &ShardMap,
    shards: &[Mutex<ShardState>],
    inboxes: &Inboxes,
    scalars: &BoundaryScalars<'_>,
    base_latencies: &[u64],
    delivered_instant: usize,
    handoffs_total: u64,
    max_imbalance: u64,
    next_id: u64,
) -> EngineState {
    let t = scalars.t;
    let mut packets = Vec::new();
    for (s, shard) in shards.iter().enumerate() {
        let st = shard.lock().unwrap();
        packets.extend(st.active.iter().map(|p| p.capture(mesh)));
        drop(st);
        let inbox = inboxes[s][(t % 2) as usize].lock().unwrap();
        packets.extend(inbox.iter().map(|p| p.capture(mesh)));
    }
    packets.sort_unstable_by_key(|p| p.id);
    let (mut latencies, link_loads) = gather(map, shards, base_latencies, delivered_instant);
    latencies.sort_unstable();
    EngineState {
        t,
        rng: scalars.rng.state(),
        injected: scalars.injected as u64,
        inj_idx: scalars.inj_idx,
        arena_len: next_id,
        handoffs_total,
        max_imbalance,
        latencies,
        link_loads,
        packets,
        fstats: *scalars.fstats,
        obs: capture_obs(),
    }
}

/// One shard's contend-and-commit for step `t`: drain the parity inbox,
/// pick the winner per link among the shard's packets from their cached
/// waits, commit winners — advancing them, recording loads and latencies
/// — and then compact: of the packets that changed this step, drop the
/// finished ones, move each whose next link lies in another shard to its
/// outbox, and refresh the rest's waits; last, empty each outbox into
/// that shard's next-parity inbox.
#[allow(clippy::too_many_arguments)]
fn step_shard(
    map: &ShardMap,
    shard: &Mutex<ShardState>,
    inboxes: &Inboxes,
    mesh: &Mesh,
    paths: &(dyn PathSource + Sync),
    policy: crate::SchedulingPolicy,
    faults: Option<Faults<'_>>,
    s: usize,
    t: u64,
) {
    let mut st = shard.lock().unwrap();
    let st = &mut *st;
    st.step_delivered = 0;
    st.step_dead = 0;
    st.step_blocked = 0;
    st.step_resamples = 0;
    st.step_drops = 0;
    for p in inboxes[s][(t % 2) as usize].lock().unwrap().drain(..) {
        st.join(map, policy, p);
    }
    st.changed.resize(st.active.len().div_ceil(64), 0);
    // Contention scan over the cached waits. A packet whose next link is
    // down does not contend; its recovery decision runs here instead.
    let changed = &mut st.changed;
    for (r, w) in st.waits.iter().enumerate() {
        if let Some(fx) = &faults {
            let p = &mut st.active[r];
            if fx.plan.link_down(p.edge(), t) {
                st.step_blocked += 1;
                let outcome = p.adverse(paths, mesh, fx, t);
                st.step_dead += u64::from(outcome == Adverse::DeadLetter);
                st.step_resamples += u64::from(matches!(outcome, Adverse::Resample { .. }));
                if outcome != Adverse::Hold {
                    changed[r / 64] |= 1 << (r % 64);
                }
                continue;
            }
        }
        st.contention.offer(w.slot as usize, w.key, r);
    }
    // Commit winners in touch order (order-free outcomes: one winner per
    // link, keys totally ordered).
    st.step_busy = st.contention.busy() as u32;
    st.step_max_group = 0;
    for won in st.contention.drain() {
        st.step_max_group = st.step_max_group.max(won.group);
        let p = &mut st.active[won.at];
        if let Some(fx) = &faults {
            // The winning traversal can still lose the packet to
            // per-link drop; the recovery policy then decides whether it
            // is re-sent (from the same node) or dies.
            if fx.plan.drops(p.edge(), t, p.inj) {
                st.step_drops += 1;
                let outcome = p.adverse(paths, mesh, fx, t);
                st.step_dead += u64::from(outcome == Adverse::DeadLetter);
                st.step_resamples += u64::from(matches!(outcome, Adverse::Resample { .. }));
                if outcome != Adverse::Hold {
                    changed[won.at / 64] |= 1 << (won.at % 64);
                }
                continue; // no advance, no load
            }
            // A completed hop clears the recovery state.
            p.clock = FaultClock::default();
        }
        p.pos += 1;
        p.arrived = t + 1;
        st.loads[won.slot] += 1;
        if p.finished() {
            st.latencies.push(t + 1 - p.injected_at);
            st.step_delivered += 1;
        }
        changed[won.at / 64] |= 1 << (won.at % 64);
    }
    // Compaction over the changed bits, highest word and bit first so
    // that each `swap_remove` pulls in a packet already visited or
    // unchanged: finished packets are dropped, freeing their paths, a
    // packet whose next link lies in another shard moves to that shard's
    // outbox, and the rest wait anew here.
    let mut handoffs = 0u64;
    for w in (0..changed.len()).rev() {
        let mut bits = std::mem::take(&mut changed[w]);
        while bits != 0 {
            let b = 63 - bits.leading_zeros() as usize;
            bits ^= 1 << b;
            let r = w * 64 + b;
            let p = &st.active[r];
            let dest = (!p.finished()).then(|| map.shard_of(p.edge()));
            if dest == Some(s) {
                st.waits[r] = p.wait(map, policy);
                continue;
            }
            st.waits.swap_remove(r);
            let p = st.active.swap_remove(r);
            if let Some(s2) = dest {
                handoffs += 1;
                st.outboxes[s2].push(p);
            }
        }
    }
    st.step_handoffs = handoffs;
    // One inbox lock per destination shard.
    let next = ((t + 1) % 2) as usize;
    for (s2, out) in st.outboxes.iter_mut().enumerate() {
        if !out.is_empty() {
            inboxes[s2][next].lock().unwrap().append(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_map_covers_every_edge_exactly_once() {
        for mesh in [
            Mesh::new_mesh(&[8, 8]),
            Mesh::new_mesh(&[4, 4, 4]),
            Mesh::new_mesh(&[32]),
            Mesh::new_torus(&[8, 8]),
        ] {
            let map = ShardMap::new(&mesh);
            assert!(map.shards() >= 1 && map.shards() <= MAX_SHARDS);
            let mut seen = vec![false; mesh.edge_count()];
            let mut per_shard = vec![0usize; map.shards()];
            for (e, seen_edge) in seen.iter_mut().enumerate() {
                let s = map.shard_of(EdgeId(e));
                let slot = map.slot_of_edge[e] as usize;
                assert!(s < map.shards());
                assert!(slot < map.slots[s]);
                assert!(!*seen_edge);
                *seen_edge = true;
                per_shard[s] += 1;
            }
            assert_eq!(per_shard, map.slots, "{:?}", mesh.dims());
            assert_eq!(per_shard.iter().sum::<usize>(), mesh.edge_count());
        }
    }

    #[test]
    fn shard_map_matches_edge_endpoints() {
        // The layout arithmetic must agree with the definition: band of
        // the lower axis-0 endpoint, slots numbered in `EdgeId` order.
        for mesh in [
            Mesh::new_mesh(&[8, 8]),
            Mesh::new_mesh(&[4, 4, 4]),
            Mesh::new_mesh(&[32]),
            Mesh::new_torus(&[8, 8]),
            Mesh::new_torus(&[3, 5]),
            Mesh::new_mesh(&[1, 6]),
        ] {
            let map = ShardMap::new(&mesh);
            let side = mesh.side(0) as usize;
            let mut slots = vec![0u32; map.shards()];
            for e in 0..mesh.edge_count() {
                let (a, b) = mesh.edge_endpoints(EdgeId(e));
                let s = a[0].min(b[0]) as usize * map.shards() / side;
                assert_eq!(map.shard_of(EdgeId(e)), s, "{:?} edge {e}", mesh.dims());
                assert_eq!(map.slot_of_edge[e], slots[s], "{:?} edge {e}", mesh.dims());
                slots[s] += 1;
            }
        }
    }

    #[test]
    fn shard_map_is_spatial() {
        // Edges wholly inside the same band share a shard; shard index
        // is monotone in the axis-0 coordinate.
        let mesh = Mesh::new_mesh(&[32, 4]);
        let map = ShardMap::new(&mesh);
        let mut last = 0;
        for x in 0..31u32 {
            let e = mesh.edge_id(&Coord::new(&[x, 0]), &Coord::new(&[x + 1, 0]));
            let s = map.shard_of(e);
            assert!(s >= last);
            last = s;
        }
        assert_eq!(last, map.shards() - 1);
    }
}
