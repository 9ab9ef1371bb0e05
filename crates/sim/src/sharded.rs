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
//!    function of the inputs.
//! 2. **Contend + commit** (parallel, per shard): every shard resolves
//!    link contention for the packets it owns against an immutable
//!    snapshot of the fleet, then commits its winners. A packet is owned
//!    by exactly one shard (the shard of the link it waits on), and a
//!    shard's winners are packets it owns, so commits are disjoint by
//!    construction. Cross-shard handoffs land in the destination shard's
//!    parity-buffered inbox and are drained at the start of the *next*
//!    step, in whatever order shards happened to finish — harmless,
//!    because winner selection per link uses a totally ordered key
//!    (policy priority, then packet id) and every reported metric is an
//!    order-free aggregate.
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
use oblivion_mesh::{Coord, EdgeId, Mesh, Path};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
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

/// Immutable-per-step packet state, structure-of-arrays. `pos`,
/// `arrived`, and `cur_edge` are atomics so disjoint per-shard commits
/// can write them under a shared read lock; the `RwLock` around the
/// arena is taken for write only when the coordinator appends newly
/// injected packets between parallel rounds.
#[derive(Default)]
struct Arena {
    /// Each path sits behind its own (uncontended) mutex: a packet is
    /// owned by exactly one shard per step, and only that shard ever
    /// locks it — needed so `resample` recovery can swap the path in
    /// place without `unsafe`.
    path: Vec<Mutex<Path>>,
    injected_at: Vec<u64>,
    rank: Vec<u64>,
    /// Global injection index — identity for fault decisions.
    inj: Vec<u64>,
    pos: Vec<AtomicUsize>,
    arrived: Vec<AtomicU64>,
    cur_edge: Vec<AtomicUsize>,
    /// Fault-recovery budget units consumed so far.
    attempts: Vec<AtomicU32>,
    /// Step before which fault recovery makes no further decision.
    backoff: Vec<AtomicU64>,
}

impl Arena {
    /// Appends a packet injected at step `t` at the start of `path`,
    /// waiting on edge `edge0`; its id is the slot index.
    fn push_fresh(&mut self, path: Path, t: u64, rank: u64, inj: u64, edge0: usize) {
        self.path.push(Mutex::new(path));
        self.injected_at.push(t);
        self.rank.push(rank);
        self.inj.push(inj);
        self.pos.push(AtomicUsize::new(0));
        self.arrived.push(AtomicU64::new(t));
        self.cur_edge.push(AtomicUsize::new(edge0));
        self.attempts.push(AtomicU32::new(0));
        self.backoff.push(AtomicU64::new(0));
    }

    /// Appends an inert placeholder where a delivered or dead packet sat.
    fn push_dummy(&mut self, mesh: &Mesh) {
        self.push_fresh(
            Path::trivial(mesh.coord(oblivion_mesh::NodeId(0))),
            0,
            0,
            0,
            0,
        );
    }

    /// Writes snapshot packet `p` into slot `p.id`, padding the arena
    /// with inert dummies so ids line up with an uninterrupted run.
    /// Returns its current edge.
    fn install(&mut self, mesh: &Mesh, p: &PacketState) -> usize {
        let path = p.to_path(mesh);
        debug_assert!(path.is_valid(mesh), "invalid packet path");
        let pos = p.pos as usize;
        let e = mesh.edge_id(&path.nodes()[pos], &path.nodes()[pos + 1]).0;
        let id = p.id as usize;
        while self.path.len() <= id {
            self.push_dummy(mesh);
        }
        self.path[id] = Mutex::new(path);
        self.injected_at[id] = p.injected_at;
        self.rank[id] = p.rank;
        self.inj[id] = p.inj;
        self.pos[id].store(pos, Ordering::Relaxed);
        self.arrived[id].store(p.arrived, Ordering::Relaxed);
        self.cur_edge[id].store(e, Ordering::Relaxed);
        self.attempts[id].store(p.attempts, Ordering::Relaxed);
        self.backoff[id].store(p.backoff_until, Ordering::Relaxed);
        e
    }

    /// Reads packet `id` back out, for snapshots.
    fn extract(&self, mesh: &Mesh, id: usize) -> PacketState {
        let path = self.path[id].lock().unwrap();
        PacketState {
            id: id as u64,
            inj: self.inj[id],
            injected_at: self.injected_at[id],
            arrived: self.arrived[id].load(Ordering::Relaxed),
            rank: self.rank[id],
            pos: self.pos[id].load(Ordering::Relaxed) as u64,
            attempts: self.attempts[id].load(Ordering::Relaxed),
            backoff_until: self.backoff[id].load(Ordering::Relaxed),
            path: path
                .nodes()
                .iter()
                .map(|c| mesh.node_id(c).0 as u64)
                .collect(),
        }
    }
}

/// Tombstone marker in a shard's active list: the packet left the shard
/// (delivered or handed off) and is skipped at the next scan.
const GONE: usize = usize::MAX;

/// Per-shard mutable state. Locked by whichever worker claims the shard
/// this step (uncontended: each shard is claimed exactly once per step).
struct ShardState {
    /// Packets owned by this shard (`GONE` entries are compacted lazily).
    active: Vec<usize>,
    /// Live packet count after the last step (excludes tombstones).
    live: usize,
    /// Per-slot link contention; winners are tagged with their position
    /// in `active` (for tombstoning).
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
    fn new(slots: usize) -> Self {
        Self {
            active: Vec::new(),
            live: 0,
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
}

/// A routed pending packet: its path and first edge (`GONE` if the path
/// is empty, i.e. delivered instantly).
type Staged = (Path, usize);

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

    let arena: RwLock<Arena> = RwLock::new(Arena::default());
    let shards: Vec<Mutex<ShardState>> = map
        .slots
        .iter()
        .map(|&slots| Mutex::new(ShardState::new(slots)))
        .collect();
    // Parity-buffered handoff inboxes: step `t` drains `[s][t % 2]` while
    // commits push into `[s][(t + 1) % 2]`.
    let inboxes: Vec<[Mutex<Vec<usize>>; 2]> = (0..shards_n)
        .map(|_| [Mutex::new(Vec::new()), Mutex::new(Vec::new())])
        .collect();
    let pending: RwLock<Vec<Pending>> = RwLock::new(Vec::new());
    let staging: RwLock<Vec<Mutex<Option<Staged>>>> = RwLock::new(Vec::new());

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
        match phase.load(Ordering::SeqCst) {
            ROUTE_PHASE => {
                let pend = pending.read().unwrap();
                let stage = staging.read().unwrap();
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
                        let edge0 = if path.is_empty() {
                            GONE
                        } else {
                            let nodes = path.nodes();
                            mesh.edge_id(&nodes[0], &nodes[1]).0
                        };
                        *stage[k].lock().unwrap() = Some((path, edge0));
                    }
                }
            }
            _ => {
                let t = cur_t.load(Ordering::SeqCst);
                let arena = arena.read().unwrap();
                loop {
                    let s = cursor.fetch_add(1, Ordering::Relaxed);
                    if s >= shards_n {
                        break;
                    }
                    if pool::home_of(s, shards_n, threads) != w {
                        local_steals += 1;
                    }
                    step_shard(
                        &arena, &map, &shards[s], &inboxes, mesh, paths, policy, faults, s, t,
                    );
                }
            }
        }
        if local_steals > 0 {
            steals.fetch_add(local_steals, Ordering::Relaxed);
        }
    };

    // ------------------------------------------------------------------
    // The coordinator: injection draws, arena growth, per-step metric
    // aggregation, termination — the shared step protocol lives in the
    // stepper; this function adds only the shard bookkeeping. Runs
    // strictly between parallel rounds.
    // ------------------------------------------------------------------
    let mut sp = Stepper::new(sim.rate(), faults, steps, seed, ckpt, resume);
    let nodes: Vec<Coord> = mesh.coords().collect();
    let mut alive = 0usize;
    let mut delivered_instant = 0usize;
    let mut handoffs_total = 0u64;
    let mut max_imbalance = 0u64;

    // Latencies carried over from a resumed snapshot (includes the zeros
    // of pre-resume instant deliveries); `delivered_instant` counts only
    // post-resume ones.
    let mut base_latencies: Vec<u64> = Vec::new();
    if let Some(st) = resume {
        alive = st.packets.len();
        handoffs_total = st.handoffs_total;
        max_imbalance = st.max_imbalance;
        base_latencies = st.latencies.clone();
        // Rebuild the arena at its pre-stop length, so post-resume
        // packets get identical ids. Live packets join the active list of
        // the shard owning their current edge.
        let mut a = arena.write().unwrap();
        for p in &st.packets {
            let e0 = a.install(mesh, p);
            let s = map.shard_of_edge[e0] as usize;
            shards[s].lock().unwrap().active.push(p.id as usize);
        }
        while a.path.len() < st.arena_len as usize {
            a.push_dummy(mesh);
        }
        drop(a);
        for shard in &shards {
            let mut st = shard.lock().unwrap();
            st.live = st.active.len();
        }
        // Re-seed each shard's load slots with the pre-stop traversal
        // totals, so final link loads span the whole run.
        let mut locked: Vec<_> = shards.iter().map(|s| s.lock().unwrap()).collect();
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
    // Per-step phase timers. Inject spans Begin→Routed commit (draw +
    // parallel routing), move spans the STEP phase + harvest.
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
                            &arena,
                            &shards,
                            &inboxes,
                            scalars,
                            &base_latencies,
                            delivered_instant,
                            handoffs_total,
                            max_imbalance,
                        )
                    });
                    if let Some(stop) = stop {
                        stopped = Some(stop);
                        return false;
                    }
                    timer.start();
                    // Draw this step's injections into the shared pending
                    // list (cleared by the stepper: drain steps must not
                    // replay the final injection step's list).
                    let mut pend = pending.write().unwrap();
                    sp.draw_injections(mesh, &nodes, pattern, &mut pend);
                    if !pend.is_empty() {
                        let mut stage_slots = staging.write().unwrap();
                        stage_slots.clear();
                        stage_slots.resize_with(pend.len(), || Mutex::new(None));
                        drop(stage_slots);
                        drop(pend);
                        phase.store(ROUTE_PHASE, Ordering::SeqCst);
                        cursor.store(0, Ordering::SeqCst);
                        stage = Stage::Routed;
                        return true;
                    }
                    stage = Stage::Routed;
                }
                Stage::Routed => {
                    // Commit routed injections into the arena in draw
                    // order (deterministic), then run the step phase.
                    let t = sp.t;
                    let pend = pending.read().unwrap();
                    if !pend.is_empty() {
                        let stage_slots = staging.read().unwrap();
                        let mut arena = arena.write().unwrap();
                        for (k, pj) in pend.iter().enumerate() {
                            let (path, edge0) =
                                stage_slots[k].lock().unwrap().take().expect("routed slot");
                            if edge0 == GONE {
                                delivered_instant += 1;
                                continue;
                            }
                            let id = arena.path.len();
                            arena.push_fresh(path, t, pj.rank, pj.idx, edge0);
                            let s = map.shard_of_edge[edge0] as usize;
                            shards[s].lock().unwrap().active.push(id);
                            alive += 1;
                        }
                    }
                    drop(pend);
                    timer.inject_done();
                    cur_t.store(t, Ordering::SeqCst);
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
                        live_max = live_max.max(st.live as u64);
                        live_min = live_min.min(st.live as u64);
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
/// canonical [`EngineState`]: live packet ids are the union of shard
/// active lists and the current-parity inboxes, sorted ascending, and
/// latencies are sorted — so the bytes are independent of shard finish
/// order, and therefore of the thread count.
#[allow(clippy::too_many_arguments)]
fn capture_sharded(
    mesh: &Mesh,
    map: &ShardMap,
    arena: &RwLock<Arena>,
    shards: &[Mutex<ShardState>],
    inboxes: &[[Mutex<Vec<usize>>; 2]],
    scalars: &BoundaryScalars<'_>,
    base_latencies: &[u64],
    delivered_instant: usize,
    handoffs_total: u64,
    max_imbalance: u64,
) -> EngineState {
    let t = scalars.t;
    let arena = arena.read().unwrap();
    let mut ids: Vec<usize> = Vec::new();
    for (s, shard) in shards.iter().enumerate() {
        let st = shard.lock().unwrap();
        ids.extend(st.active.iter().copied().filter(|&i| i != GONE));
        drop(st);
        ids.extend(inboxes[s][(t % 2) as usize].lock().unwrap().iter().copied());
    }
    ids.sort_unstable();
    let packets = ids.iter().map(|&i| arena.extract(mesh, i)).collect();
    let (mut latencies, link_loads) = gather(map, shards, base_latencies, delivered_instant);
    latencies.sort_unstable();
    EngineState {
        t,
        rng: scalars.rng.state(),
        injected: scalars.injected as u64,
        inj_idx: scalars.inj_idx,
        arena_len: arena.path.len() as u64,
        handoffs_total,
        max_imbalance,
        latencies,
        link_loads,
        packets,
        fstats: *scalars.fstats,
        obs: capture_obs(),
    }
}

/// Swaps packet `i`'s path for a freshly resampled one drawn from the
/// plan's derived RNG, restarting it at position 0, and returns the new
/// first edge.
#[allow(clippy::too_many_arguments)]
fn resample_arena(
    arena: &Arena,
    paths: &(dyn PathSource + Sync),
    mesh: &Mesh,
    fx: &Faults<'_>,
    i: usize,
    pos: usize,
    attempts: u32,
    t: u64,
) -> usize {
    let mut path = arena.path[i].lock().unwrap();
    let cur = path.nodes()[pos];
    let dst = *path.nodes().last().expect("non-empty path");
    let mut rng = fx.plan.resample_rng(arena.inj[i], attempts);
    let np = paths.resample(&cur, &dst, &mut rng);
    debug_assert!(np.is_valid(mesh), "resampled path invalid");
    let nodes = np.nodes();
    let e2 = mesh.edge_id(&nodes[0], &nodes[1]).0;
    *path = np;
    drop(path);
    let mut clock = FaultClock::default();
    clock.resampled(attempts, t);
    arena.pos[i].store(0, Ordering::Relaxed);
    arena.attempts[i].store(clock.attempts, Ordering::Relaxed);
    arena.backoff[i].store(clock.backoff_until, Ordering::Relaxed);
    arena.cur_edge[i].store(e2, Ordering::Relaxed);
    e2
}

/// One shard's contend-and-commit for step `t`: drain the parity inbox,
/// scan the active list (compacting tombstones), pick the winner per
/// link, and commit winners — advancing positions, recording loads and
/// latencies, and pushing cross-shard handoffs into the next-parity
/// inbox of the destination shard.
#[allow(clippy::too_many_arguments)]
fn step_shard(
    arena: &Arena,
    map: &ShardMap,
    shard: &Mutex<ShardState>,
    inboxes: &[[Mutex<Vec<usize>>; 2]],
    mesh: &Mesh,
    paths: &(dyn PathSource + Sync),
    policy: crate::SchedulingPolicy,
    faults: Option<Faults<'_>>,
    s: usize,
    t: u64,
) {
    let mut st = shard.lock().unwrap();
    let st = &mut *st;
    st.step_handoffs = 0;
    st.step_delivered = 0;
    st.step_dead = 0;
    st.step_blocked = 0;
    st.step_resamples = 0;
    st.step_drops = 0;
    {
        let mut ib = inboxes[s][(t % 2) as usize].lock().unwrap();
        st.active.append(&mut ib);
    }
    // Contention scan. A packet whose next link is down does not
    // contend; its recovery decision runs here instead.
    let mut w = 0usize;
    for r in 0..st.active.len() {
        let i = st.active[r];
        if i == GONE {
            continue;
        }
        let pos = arena.pos[i].load(Ordering::Relaxed);
        let e = arena.cur_edge[i].load(Ordering::Relaxed);
        if let Some(fx) = &faults {
            if fx.plan.link_down(EdgeId(e), t) {
                st.step_blocked += 1;
                // Round-trip the packet's fault clock through the shared
                // transition rules (arena atomics are just its storage).
                let mut clock = FaultClock::restore(
                    arena.attempts[i].load(Ordering::Relaxed),
                    arena.backoff[i].load(Ordering::Relaxed),
                );
                match clock.adverse(fx, t) {
                    Adverse::Hold => {
                        arena.attempts[i].store(clock.attempts, Ordering::Relaxed);
                        arena.backoff[i].store(clock.backoff_until, Ordering::Relaxed);
                    }
                    Adverse::DeadLetter => {
                        st.step_dead += 1;
                        continue; // drops out of the active list
                    }
                    Adverse::Resample { attempts } => {
                        st.step_resamples += 1;
                        let e2 = resample_arena(arena, paths, mesh, fx, i, pos, attempts, t);
                        let s2 = map.shard_of_edge[e2] as usize;
                        if s2 != s {
                            st.step_handoffs += 1;
                            inboxes[s2][((t + 1) % 2) as usize].lock().unwrap().push(i);
                            continue; // now owned by the other shard
                        }
                    }
                }
                // Blocked (or resampled in place): stays active, does
                // not contend this step.
                st.active[w] = i;
                w += 1;
                continue;
            }
        }
        st.active[w] = i;
        let remaining = (arena.path[i].lock().unwrap().len() - pos) as u64;
        let key = policy_key(
            policy,
            arena.arrived[i].load(Ordering::Relaxed),
            arena.rank[i],
            remaining,
            i as u64,
        );
        st.contention.offer(map.slot_of_edge[e] as usize, key, w);
        w += 1;
    }
    st.active.truncate(w);
    // Commit winners in touch order (order-free outcomes: one winner per
    // link, keys totally ordered).
    st.step_busy = st.contention.busy() as u32;
    st.step_max_group = 0;
    let mut tombstoned = 0usize;
    for won in st.contention.drain() {
        st.step_max_group = st.step_max_group.max(won.group);
        let (slot, i, r) = (won.slot, won.key.1 as usize, won.at);
        if let Some(fx) = &faults {
            // The winning traversal can still lose the packet to
            // per-link drop; the recovery policy then decides whether it
            // is re-sent (from the same node) or dies.
            let e = arena.cur_edge[i].load(Ordering::Relaxed);
            if fx.plan.drops(EdgeId(e), t, arena.inj[i]) {
                st.step_drops += 1;
                let mut clock = FaultClock::restore(
                    arena.attempts[i].load(Ordering::Relaxed),
                    arena.backoff[i].load(Ordering::Relaxed),
                );
                match clock.adverse(fx, t) {
                    Adverse::Hold => {
                        arena.attempts[i].store(clock.attempts, Ordering::Relaxed);
                        arena.backoff[i].store(clock.backoff_until, Ordering::Relaxed);
                    }
                    Adverse::DeadLetter => {
                        st.step_dead += 1;
                        st.active[r] = GONE;
                        tombstoned += 1;
                    }
                    Adverse::Resample { attempts } => {
                        st.step_resamples += 1;
                        let pos = arena.pos[i].load(Ordering::Relaxed);
                        let e2 = resample_arena(arena, paths, mesh, fx, i, pos, attempts, t);
                        let s2 = map.shard_of_edge[e2] as usize;
                        if s2 != s {
                            st.step_handoffs += 1;
                            inboxes[s2][((t + 1) % 2) as usize].lock().unwrap().push(i);
                            st.active[r] = GONE;
                            tombstoned += 1;
                        }
                    }
                }
                continue; // no advance, no load
            }
            // A completed hop clears the recovery state.
            let cleared = FaultClock::default();
            arena.attempts[i].store(cleared.attempts, Ordering::Relaxed);
            arena.backoff[i].store(cleared.backoff_until, Ordering::Relaxed);
        }
        let pos = arena.pos[i].load(Ordering::Relaxed) + 1;
        arena.pos[i].store(pos, Ordering::Relaxed);
        arena.arrived[i].store(t + 1, Ordering::Relaxed);
        st.loads[slot] += 1;
        let path = arena.path[i].lock().unwrap();
        if pos == path.len() {
            drop(path);
            st.latencies.push(t + 1 - arena.injected_at[i]);
            st.step_delivered += 1;
            st.active[r] = GONE;
            tombstoned += 1;
        } else {
            let nodes = path.nodes();
            let e2 = mesh.edge_id(&nodes[pos], &nodes[pos + 1]);
            drop(path);
            arena.cur_edge[i].store(e2.0, Ordering::Relaxed);
            let s2 = map.shard_of_edge[e2.0] as usize;
            if s2 != s {
                st.step_handoffs += 1;
                inboxes[s2][((t + 1) % 2) as usize].lock().unwrap().push(i);
                st.active[r] = GONE;
                tombstoned += 1;
            }
        }
    }
    st.live = w - tombstoned;
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
