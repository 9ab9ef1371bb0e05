//! Supervised multi-process online simulation.
//!
//! `oblivion online --procs N` runs the sharded engine's spatial shards
//! in **separate OS processes**: a supervisor (this process) owns the
//! step barrier, the main injection RNG, and all routing; N worker
//! processes each own a fixed subset of the shards (the same
//! `pool::home_of` assignment the thread pool uses) and run the exact
//! `sharded::step_shard` contend-and-commit per step. Boundary
//! handoffs cross process boundaries over a length-checked line
//! protocol: `oblivion-wire`'s LF framing with CRC'd payloads, carrying
//! packets in the checkpoint codec's byte format
//! ([`crate::checkpoint::PacketState`]).
//!
//! ```text
//!             supervisor (owns RNG, routing, step barrier)
//!    RESTORE ─┬───────────────┬───────────────┐
//!    STEP t   │ injections +  │ handoffs from │      one line per
//!             │ handoffs-in   │ step t-1      │      message; hex
//!             ▼               ▼               ▼      payload + crc32
//!        ┌─────────┐     ┌─────────┐     ┌─────────┐
//!        │worker 0 │     │worker 1 │ ... │worker N │  each steps its
//!        │shards Sₒ│     │shards S₁│     │shards Sₙ│  owned shards
//!        └────┬────┘     └────┬────┘     └────┬────┘
//!    DONE t   │ tallies, new  │ latencies,    │ HB (heartbeat)
//!             │ handoffs-out  │ live counts   │ whenever quiet
//!             ▼               ▼               ▼
//!             supervisor aggregates → end_step → next STEP
//! ```
//!
//! **Determinism.** The supervisor draws injections and routes them
//! exactly as the thread engine does (main RNG + per-packet route
//! RNGs); workers mirror `step_shard` bit for bit, and every aggregate
//! the supervisor folds (latency sums, fault tallies, busy/max-group,
//! live counts) is order-free. Deterministic obs emitted while a worker
//! steps (router resample instrumentation) are drained into each DONE
//! and merged back into the supervisor's registry, so metrics documents
//! and snapshots stay canonical too. `--procs N` is therefore
//! byte-identical to `--threads K` for every N and K.
//!
//! **Robustness.** Each worker is watched through per-message deadlines
//! re-armed by heartbeats. When a worker dies (crash, kill -9, EOF,
//! poisoned frame), the supervisor kills and respawns it with capped
//! exponential backoff, restores it from the last step-boundary
//! **shadow** (an in-memory snapshot refreshed by the same SNAP
//! exchange that feeds on-disk checkpoints), and replays the journaled
//! STEP lines since — byte-identical recovery, because a worker's state
//! is a pure function of (shadow, replayed STEP lines).

use crate::checkpoint::{
    capture_obs, decode_packet, encode_packet, CheckpointCfg, EngineState, PacketState, StopReason,
};
use crate::online::{
    route_rng_for, Faults, OnlineResult, OnlineSim, PathSource, ShardSummary, TrafficPattern,
};
use crate::pool;
use crate::sharded::{step_shard, Arena, ShardMap, ShardState, GONE};
use crate::stepper::{Pending, PhaseTimer, ShardFinale, StepObs, Stepper};
use oblivion_ckpt::{ByteReader, ByteWriter, CkptError};
use oblivion_mesh::{Coord, Mesh, NodeId};
use oblivion_wire::{decode_msg, encode_msg, FrameBuf, Framed, Msg};
use std::io::{self, Read, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Longest protocol line either side will buffer. Snapshot replies grow
/// with the in-flight packet population; this bound is a defense against
/// a corrupted stream, not a sizing estimate.
const MAX_MSG_LINE: usize = 1 << 28;

/// Restart attempts per worker incident before the run gives up.
const MAX_RESTARTS: u32 = 5;

/// Without on-disk checkpointing the supervisor still refreshes worker
/// shadows this often, so recovery replay and journal memory stay
/// bounded on long runs.
const SHADOW_EVERY: u64 = 64;

/// Environment hook for the fault-injection suites: `"W:T"` makes worker
/// `W` abort the instant it receives `STEP T` — a deterministic stand-in
/// for `kill -9` at a step boundary. Respawned workers get the variable
/// stripped so the replayed step does not re-trigger it.
pub const CRASH_ENV: &str = "OBLIVION_PROC_CRASH";

/// Supervisor-side configuration of a multi-process run.
pub struct ProcsCfg {
    /// Worker processes to spawn (clamped to the shard count).
    pub procs: usize,
    /// Deadline for any expected worker message; re-armed by heartbeats.
    pub handoff_timeout: Duration,
    /// Program to execute for each worker (normally `current_exe()`).
    pub worker_program: PathBuf,
    /// Arguments launching the worker entry point (the hidden
    /// `proc-worker` subcommand plus the run's full configuration). The
    /// supervisor appends `--procs <effective> --worker <index>`.
    pub worker_args: Vec<String>,
}

/// Worker-side configuration (parsed from the `proc-worker` args by the
/// CLI, which owns router construction).
pub struct WorkerCfg<'a> {
    /// The mesh being simulated.
    pub mesh: &'a Mesh,
    /// The link-contention policy.
    pub policy: crate::SchedulingPolicy,
    /// The fault setup, if the run has one.
    pub faults: Option<Faults<'a>>,
    /// Total worker processes (the supervisor's effective count).
    pub procs: usize,
    /// This worker's index in `0..procs`.
    pub worker: usize,
    /// Heartbeat cadence on stdout.
    pub heartbeat: Duration,
}

// ---------------------------------------------------------------------
// Payload codecs. All payloads are ByteWriter/ByteReader byte strings
// (the checkpoint codec), hex-armored and CRC'd by `oblivion_wire::msg`.
// ---------------------------------------------------------------------

fn put_packets(w: &mut ByteWriter, pkts: &[PacketState]) {
    w.usize(pkts.len());
    for p in pkts {
        encode_packet(w, p);
    }
}

fn get_packets(r: &mut ByteReader<'_>) -> Result<Vec<PacketState>, CkptError> {
    let n = r.len_prefix(8 * 8, "packets")?;
    let mut pkts = Vec::with_capacity(n);
    for _ in 0..n {
        pkts.push(decode_packet(r)?);
    }
    Ok(pkts)
}

fn put_loads(w: &mut ByteWriter, loads: &[Vec<u64>]) {
    w.usize(loads.len());
    for l in loads {
        w.u64_slice(l);
    }
}

fn get_loads(r: &mut ByteReader<'_>) -> Result<Vec<Vec<u64>>, CkptError> {
    let n = r.len_prefix(8, "loads")?;
    let mut loads = Vec::with_capacity(n);
    for _ in 0..n {
        loads.push(r.u64_vec("loads.shard")?);
    }
    Ok(loads)
}

fn step_line(t: u64, arrivals: &[PacketState]) -> String {
    let mut w = ByteWriter::new();
    w.u64(t);
    put_packets(&mut w, arrivals);
    encode_msg("STEP", &w.into_bytes())
}

fn restore_line(t0: u64, packets: &[PacketState], loads: &[Vec<u64>]) -> String {
    let mut w = ByteWriter::new();
    w.u64(t0);
    put_packets(&mut w, packets);
    put_loads(&mut w, loads);
    encode_msg("RESTORE", &w.into_bytes())
}

/// Order-free per-step tallies a worker reports in `DONE` — the shard
/// harvest of the thread engine, serialized.
#[derive(Default)]
struct DoneTallies {
    delivered: u64,
    dead: u64,
    blocked: u64,
    resamples: u64,
    drops: u64,
    busy: u64,
    max_group: u64,
    handoffs: u64,
}

struct Done {
    t: u64,
    tallies: DoneTallies,
    new_latencies: Vec<u64>,
    /// Live counts of the worker's owned shards, in owned order.
    live: Vec<u64>,
    /// Packets handed off to shards owned by other workers.
    handoffs_out: Vec<PacketState>,
    /// Deterministic obs counters emitted in-worker this step (e.g.
    /// router bridge hits during fault resamples), drained for the
    /// supervisor's registry.
    obs_counters: Vec<(String, u64)>,
    /// Deterministic obs histograms emitted in-worker this step.
    obs_histograms: Vec<(String, oblivion_obs::Histogram)>,
}

fn done_line(d: &Done) -> String {
    let mut w = ByteWriter::new();
    w.u64(d.t);
    for v in [
        d.tallies.delivered,
        d.tallies.dead,
        d.tallies.blocked,
        d.tallies.resamples,
        d.tallies.drops,
        d.tallies.busy,
        d.tallies.max_group,
        d.tallies.handoffs,
    ] {
        w.u64(v);
    }
    w.u64_slice(&d.new_latencies);
    w.u64_slice(&d.live);
    put_packets(&mut w, &d.handoffs_out);
    w.usize(d.obs_counters.len());
    for (name, v) in &d.obs_counters {
        w.str(name);
        w.u64(*v);
    }
    w.usize(d.obs_histograms.len());
    for (name, h) in &d.obs_histograms {
        w.str(name);
        w.u64(h.count);
        w.u64(h.sum);
        w.u64(h.min);
        w.u64(h.max);
        for b in &h.buckets {
            w.u64(*b);
        }
    }
    encode_msg("DONE", &w.into_bytes())
}

fn parse_done(payload: &[u8]) -> Result<Done, CkptError> {
    let mut r = ByteReader::new(payload);
    let t = r.u64("done.t")?;
    let mut vals = [0u64; 8];
    for v in &mut vals {
        *v = r.u64("done.tally")?;
    }
    let new_latencies = r.u64_vec("done.latencies")?;
    let live = r.u64_vec("done.live")?;
    let handoffs_out = get_packets(&mut r)?;
    let nc = r.len_prefix(16, "done.obs.counters")?;
    let mut obs_counters = Vec::with_capacity(nc);
    for _ in 0..nc {
        let name = r.str("done.obs.counter.name")?;
        let v = r.u64("done.obs.counter.value")?;
        obs_counters.push((name, v));
    }
    let nh = r.len_prefix(
        8 * (4 + oblivion_obs::HISTOGRAM_BUCKETS),
        "done.obs.histograms",
    )?;
    let mut obs_histograms = Vec::with_capacity(nh);
    for _ in 0..nh {
        let name = r.str("done.obs.histogram.name")?;
        let count = r.u64("done.obs.histogram")?;
        let sum = r.u64("done.obs.histogram")?;
        let min = r.u64("done.obs.histogram")?;
        let max = r.u64("done.obs.histogram")?;
        let mut buckets = [0u64; oblivion_obs::HISTOGRAM_BUCKETS];
        for b in &mut buckets {
            *b = r.u64("done.obs.histogram.bucket")?;
        }
        obs_histograms.push((
            name,
            oblivion_obs::Histogram {
                count,
                sum,
                min,
                max,
                buckets,
            },
        ));
    }
    r.finish("done")?;
    Ok(Done {
        t,
        tallies: DoneTallies {
            delivered: vals[0],
            dead: vals[1],
            blocked: vals[2],
            resamples: vals[3],
            drops: vals[4],
            busy: vals[5],
            max_group: vals[6],
            handoffs: vals[7],
        },
        new_latencies,
        live,
        handoffs_out,
        obs_counters,
        obs_histograms,
    })
}

// ---------------------------------------------------------------------
// Supervisor side.
// ---------------------------------------------------------------------

/// Last known-good state of one worker: its live packets and owned-shard
/// link loads at step `t0`. Restoring a worker from its shadow and
/// replaying the journaled STEP lines since reproduces its state bit for
/// bit.
struct Shadow {
    t0: u64,
    packets: Vec<PacketState>,
    /// Per owned shard (owned order), slot-indexed traversal totals.
    loads: Vec<Vec<u64>>,
}

/// A decoded SNAPOK/RESTORE payload: the step it captures, the worker's
/// live packets, and its per-owned-shard link loads — the same triple a
/// [`Shadow`] holds.
type SnapParts = (u64, Vec<PacketState>, Vec<Vec<u64>>);

struct WorkerHandle {
    child: Child,
    stdin: ChildStdin,
    rx: Receiver<Result<Msg, String>>,
}

/// The fleet of worker processes plus everything needed to resurrect
/// any of them: shadows, journals, and spawn parameters.
struct Fleet<'a> {
    program: &'a std::path::Path,
    args: &'a [String],
    procs: usize,
    timeout: Duration,
    workers: Vec<Option<WorkerHandle>>,
    /// Raw STEP lines sent since each worker's shadow was refreshed.
    journals: Vec<Vec<String>>,
    shadows: Vec<Shadow>,
}

impl Drop for Fleet<'_> {
    fn drop(&mut self) {
        for slot in &mut self.workers {
            if let Some(mut h) = slot.take() {
                let _ = h.child.kill();
                let _ = h.child.wait();
            }
        }
    }
}

/// Reads a worker's stdout on a dedicated thread, decoding protocol
/// lines into `tx`. EOF and framing damage surface as `Err`, which the
/// supervisor treats as a dead worker.
fn spawn_reader(mut out: impl Read + Send + 'static, tx: Sender<Result<Msg, String>>) {
    std::thread::spawn(move || {
        let mut frames = FrameBuf::new(MAX_MSG_LINE);
        let mut buf = [0u8; 1 << 16];
        loop {
            let n = match out.read(&mut buf) {
                Ok(0) => {
                    let _ = tx.send(Err("worker closed its pipe".into()));
                    return;
                }
                Ok(n) => n,
                Err(e) => {
                    let _ = tx.send(Err(format!("worker pipe read failed: {e}")));
                    return;
                }
            };
            frames.extend(&buf[..n]);
            while let Some(framed) = frames.next_line() {
                let item = match framed {
                    Framed::Line(line) => {
                        decode_msg(&line).map_err(|e| format!("bad worker message: {e:?}"))
                    }
                    Framed::Bad(why) => Err(format!("bad worker frame: {why}")),
                };
                let fatal = item.is_err();
                if tx.send(item).is_err() || fatal {
                    return;
                }
            }
        }
    });
}

impl<'a> Fleet<'a> {
    fn spawn(&mut self, w: usize, strip_crash_env: bool) -> io::Result<()> {
        let mut cmd = Command::new(self.program);
        cmd.args(self.args)
            .args([
                "--procs",
                &self.procs.to_string(),
                "--worker",
                &w.to_string(),
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if strip_crash_env {
            // A respawned worker must not re-trigger an injected crash
            // while replaying the very step that killed it.
            cmd.env_remove(CRASH_ENV);
        }
        let mut child = cmd.spawn()?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, rx) = std::sync::mpsc::channel();
        spawn_reader(stdout, tx);
        eprintln!("proc worker {w} pid {}", child.id());
        self.workers[w] = Some(WorkerHandle { child, stdin, rx });
        let restore = restore_line(
            self.shadows[w].t0,
            &self.shadows[w].packets,
            &self.shadows[w].loads,
        );
        self.send(w, &restore)
    }

    fn send(&mut self, w: usize, line: &str) -> io::Result<()> {
        let h = self.workers[w].as_mut().expect("worker spawned");
        h.stdin.write_all(line.as_bytes())?;
        h.stdin.flush()
    }

    /// Receives the next non-heartbeat message from worker `w`. Each
    /// heartbeat re-arms the deadline; silence past the deadline, EOF,
    /// or a damaged frame is a dead worker.
    fn recv(&mut self, w: usize) -> Result<Msg, String> {
        let h = self.workers[w].as_ref().expect("worker spawned");
        let mut deadline = Instant::now() + self.timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match h.rx.recv_timeout(left) {
                Ok(Ok(msg)) if msg.tag == "HB" => deadline = Instant::now() + self.timeout,
                Ok(Ok(msg)) => return Ok(msg),
                Ok(Err(why)) => return Err(why),
                Err(RecvTimeoutError::Timeout) => {
                    return Err(format!("no message within {} ms", self.timeout.as_millis()))
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err("worker reader disconnected".into())
                }
            }
        }
    }

    fn expect(&mut self, w: usize, tag: &str) -> Result<Msg, String> {
        let msg = self.recv(w)?;
        if msg.tag == tag {
            Ok(msg)
        } else {
            Err(format!("expected {tag}, got {}", msg.tag))
        }
    }

    /// Kills and resurrects worker `w`: respawn with capped exponential
    /// backoff, restore its shadow, replay the journaled STEP lines.
    /// `trailing` journal entries are left *pending* — their DONE replies
    /// are the caller's to consume (1 while awaiting the current step's
    /// DONE, 0 when the failure happened between steps).
    fn revive(&mut self, w: usize, trailing: usize, why: &str) -> Result<(), String> {
        let started = Instant::now();
        eprintln!(
            "proc worker {w} died ({why}); restarting from step {}",
            self.shadows[w].t0
        );
        let replayed = self.journals[w].len();
        for attempt in 0..MAX_RESTARTS {
            if let Some(mut h) = self.workers[w].take() {
                let _ = h.child.kill();
                let _ = h.child.wait();
            }
            // Capped exponential backoff between restart attempts.
            std::thread::sleep(Duration::from_millis((50u64 << attempt).min(2000)));
            let ok = (|| -> Result<(), String> {
                self.spawn(w, true).map_err(|e| format!("respawn: {e}"))?;
                for i in 0..self.journals[w].len() {
                    let line = self.journals[w][i].clone();
                    self.send(w, &line).map_err(|e| format!("replay: {e}"))?;
                }
                // Drain the replayed steps' DONEs: their contents were
                // already aggregated before the crash (determinism makes
                // the replay byte-identical, so there is nothing new).
                let discard = self.journals[w].len().saturating_sub(trailing);
                for _ in 0..discard {
                    self.expect(w, "DONE")?;
                }
                Ok(())
            })();
            match ok {
                Ok(()) => {
                    eprintln!(
                        "proc worker {w} recovered in {} ms (replayed {replayed} steps)",
                        started.elapsed().as_millis()
                    );
                    return Ok(());
                }
                Err(e) => eprintln!("proc worker {w} restart attempt {attempt} failed: {e}"),
            }
        }
        Err(format!(
            "worker {w} unrecoverable after {MAX_RESTARTS} restarts"
        ))
    }

    /// Refreshes every worker's shadow via a SNAP exchange at boundary
    /// `t`, clearing the journals. The same exchange feeds checkpoint
    /// captures, so a saved snapshot and a crash shadow always agree.
    fn refresh_shadows(&mut self, t: u64) -> Result<(), String> {
        let snap = {
            let mut w = ByteWriter::new();
            w.u64(t);
            encode_msg("SNAP", &w.into_bytes())
        };
        for w in 0..self.procs {
            let mut tries = 0u32;
            let msg = loop {
                let res = self
                    .send(w, &snap)
                    .map_err(|e| format!("snap send: {e}"))
                    .and_then(|()| self.expect(w, "SNAPOK"));
                match res {
                    Ok(msg) => break msg,
                    Err(why) => {
                        tries += 1;
                        if tries > 2 {
                            return Err(why);
                        }
                        self.revive(w, 0, &why)?;
                    }
                }
            };
            let mut r = ByteReader::new(&msg.payload);
            let parsed = (|| -> Result<SnapParts, CkptError> {
                let st = r.u64("snapok.t")?;
                let packets = get_packets(&mut r)?;
                let loads = get_loads(&mut r)?;
                r.finish("snapok")?;
                Ok((st, packets, loads))
            })()
            .map_err(|e| format!("worker {w} SNAPOK: {e}"))?;
            if parsed.0 != t {
                return Err(format!("worker {w} snapshotted step {} at {t}", parsed.0));
            }
            self.shadows[w] = Shadow {
                t0: t,
                packets: parsed.1,
                loads: parsed.2,
            };
            self.journals[w].clear();
        }
        Ok(())
    }
}

fn io_stop(why: String) -> StopReason {
    StopReason::Error(CkptError::Io(io::Error::other(why)))
}

/// Runs the supervised multi-process simulation. See
/// [`OnlineSim::run_procs_ckpt`] for the public contract.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_procs_ckpt(
    sim: &OnlineSim<'_>,
    pattern: &dyn TrafficPattern,
    paths: &(dyn PathSource + Sync),
    steps: u64,
    seed: u64,
    pcfg: &ProcsCfg,
    ckpt: Option<&CheckpointCfg<'_>>,
    resume: Option<&EngineState>,
) -> Result<OnlineResult, StopReason> {
    assert!(pcfg.procs >= 1, "need at least one worker process");
    let _span = oblivion_obs::span("online_sim_procs");
    let mesh = sim.mesh();
    let faults = sim.faults();
    let map = ShardMap::new(mesh);
    let shards_n = map.shards();
    let procs = pcfg.procs.min(shards_n);
    if procs < pcfg.procs {
        eprintln!(
            "note: --procs {} clamped to {procs} ({} shards on this mesh)",
            pcfg.procs, shards_n
        );
    }
    // worker -> owned shards (the thread pool's home assignment, so the
    // shard statistics are identical to the thread engine's).
    let owned: Vec<Vec<usize>> = (0..procs)
        .map(|w| {
            (0..shards_n)
                .filter(|&s| pool::home_of(s, shards_n, procs) == w)
                .collect()
        })
        .collect();
    // Inverse of the (shard, slot) -> edge map, for reassembling full
    // link-load vectors from per-shard slot arrays.
    let mut edge_of_slot: Vec<Vec<usize>> = map.slots.iter().map(|&n| vec![0; n]).collect();
    for e in 0..mesh.edge_count() {
        edge_of_slot[map.shard_of_edge[e] as usize][map.slot_of_edge[e] as usize] = e;
    }
    let worker_of_edge = |e: usize| pool::home_of(map.shard_of_edge[e] as usize, shards_n, procs);
    let cur_edge_of = |p: &PacketState| {
        let pos = p.pos as usize;
        let a = mesh.coord(NodeId(p.path[pos] as usize));
        let b = mesh.coord(NodeId(p.path[pos + 1] as usize));
        mesh.edge_id(&a, &b).0
    };

    let mut sp = Stepper::new(sim.rate(), faults, steps, seed, ckpt, resume);
    let nodes: Vec<Coord> = mesh.coords().collect();
    let mut alive = 0usize;
    let mut delivered_instant = 0usize;
    let mut handoffs_total = 0u64;
    let mut max_imbalance = 0u64;
    let mut arena_len = 0u64;
    let mut base_latencies: Vec<u64> = Vec::new();
    let mut latencies_acc: Vec<u64> = Vec::new();
    // Handoffs reported at step t-1, delivered with STEP t. At a step
    // boundary these are live packets owned by no worker, so captures
    // and shadows must include them.
    let mut in_transit: Vec<PacketState> = Vec::new();

    let mut shadows: Vec<Shadow> = (0..procs)
        .map(|w| Shadow {
            t0: sp.t,
            packets: Vec::new(),
            loads: owned[w].iter().map(|&s| vec![0u64; map.slots[s]]).collect(),
        })
        .collect();
    if let Some(st) = resume {
        alive = st.packets.len();
        handoffs_total = st.handoffs_total;
        max_imbalance = st.max_imbalance;
        base_latencies = st.latencies.clone();
        arena_len = st.arena_len;
        for p in &st.packets {
            shadows[worker_of_edge(cur_edge_of(p))]
                .packets
                .push(p.clone());
        }
        for (e, &load) in st.link_loads.iter().enumerate() {
            let s = map.shard_of_edge[e] as usize;
            let w = worker_of_edge(e);
            let k = owned[w].iter().position(|&o| o == s).expect("owner owns s");
            shadows[w].loads[k][map.slot_of_edge[e] as usize] = load;
        }
    }

    let mut fleet = Fleet {
        program: &pcfg.worker_program,
        args: &pcfg.worker_args,
        procs,
        timeout: pcfg.handoff_timeout,
        workers: (0..procs).map(|_| None).collect(),
        journals: vec![Vec::new(); procs],
        shadows,
    };
    for w in 0..procs {
        fleet.spawn(w, false).map_err(|e| {
            io_stop(format!(
                "cannot spawn worker {w} ({}): {e}",
                pcfg.worker_program.display()
            ))
        })?;
    }

    let mut live_by_shard = vec![0u64; shards_n];
    let mut pending: Vec<Pending> = Vec::new();
    let mut timer = PhaseTimer::idle();
    let mut last_shadow = sp.t;

    while sp.running(alive) {
        // Step boundary: decide once, gather remote state only if a
        // snapshot is actually saved (the SNAP exchange doubles as the
        // crash-shadow refresh).
        let action = sp.boundary_action();
        let state = if action.saves() {
            fleet.refresh_shadows(sp.t).map_err(io_stop)?;
            last_shadow = sp.t;
            let scalars = sp.scalars();
            let mut packets: Vec<PacketState> = in_transit.clone();
            for sh in &fleet.shadows {
                packets.extend(sh.packets.iter().cloned());
            }
            packets.sort_unstable_by_key(|p| p.id);
            let mut link_loads = vec![0u64; mesh.edge_count()];
            for (w, sh) in fleet.shadows.iter().enumerate() {
                for (k, &s) in owned[w].iter().enumerate() {
                    for (slot, &load) in sh.loads[k].iter().enumerate() {
                        link_loads[edge_of_slot[s][slot]] = load;
                    }
                }
            }
            let mut latencies: Vec<u64> =
                Vec::with_capacity(base_latencies.len() + delivered_instant + latencies_acc.len());
            latencies.extend_from_slice(&base_latencies);
            latencies.resize(latencies.len() + delivered_instant, 0);
            latencies.extend_from_slice(&latencies_acc);
            latencies.sort_unstable();
            Some(EngineState {
                t: scalars.t,
                rng: scalars.rng.state(),
                injected: scalars.injected as u64,
                inj_idx: scalars.inj_idx,
                arena_len,
                handoffs_total,
                max_imbalance,
                latencies,
                link_loads,
                packets,
                fstats: *scalars.fstats,
                obs: capture_obs(),
            })
        } else {
            if sp.t >= last_shadow + SHADOW_EVERY {
                fleet.refresh_shadows(sp.t).map_err(io_stop)?;
                last_shadow = sp.t;
            }
            None
        };
        if let Some(stop) = sp.resolve_boundary(action, state) {
            return Err(stop);
        }

        timer.start();
        sp.draw_injections(mesh, &nodes, pattern, &mut pending);
        let t = sp.t;
        // Route this step's injections (supervisor-side: each from its
        // private (seed, idx) RNG, exactly as every other engine does)
        // and assign each packet to the worker owning its first edge.
        let mut arrivals: Vec<Vec<PacketState>> = vec![Vec::new(); procs];
        for pj in &pending {
            let mut prng = route_rng_for(seed, pj.idx);
            let path = paths.path(&pj.src, &pj.dst, &mut prng);
            debug_assert!(path.is_valid(mesh), "path source produced invalid walk");
            if path.is_empty() {
                delivered_instant += 1;
                continue;
            }
            let id = arena_len;
            arena_len += 1;
            let pnodes = path.nodes();
            let e0 = mesh.edge_id(&pnodes[0], &pnodes[1]).0;
            arrivals[worker_of_edge(e0)].push(PacketState {
                id,
                inj: pj.idx,
                injected_at: t,
                arrived: t,
                rank: pj.rank,
                pos: 0,
                attempts: 0,
                backoff_until: 0,
                path: pnodes.iter().map(|c| mesh.node_id(c).0 as u64).collect(),
            });
            alive += 1;
        }
        // Deliver last step's cross-worker handoffs with this STEP.
        for p in in_transit.drain(..) {
            let w = worker_of_edge(cur_edge_of(&p));
            arrivals[w].push(p);
        }
        for (w, arr) in arrivals.iter().enumerate() {
            let line = step_line(t, arr);
            fleet.journals[w].push(line.clone());
            if let Err(e) = fleet.send(w, &line) {
                fleet
                    .revive(w, 1, &format!("step send: {e}"))
                    .map_err(io_stop)?;
            }
        }
        timer.inject_done();

        // Barrier: await every worker's DONE, resurrecting any worker
        // that dies while we wait.
        let mut max_group = 0u64;
        let mut busy = 0u64;
        let mut step_handoffs = 0u64;
        let mut delivered_step = 0u64;
        let mut dead_step = 0u64;
        for (w, owned_w) in owned.iter().enumerate() {
            let msg = loop {
                match fleet.expect(w, "DONE") {
                    Ok(msg) => break msg,
                    Err(why) => fleet.revive(w, 1, &why).map_err(io_stop)?,
                }
            };
            let done =
                parse_done(&msg.payload).map_err(|e| io_stop(format!("worker {w} DONE: {e}")))?;
            if done.t != t {
                return Err(io_stop(format!(
                    "worker {w} answered step {} during step {t}",
                    done.t
                )));
            }
            delivered_step += done.tallies.delivered;
            dead_step += done.tallies.dead;
            if let Some(fs) = sp.fstats.as_mut() {
                fs.blocked += done.tallies.blocked;
                fs.resamples += done.tallies.resamples;
                fs.drops += done.tallies.drops;
                fs.dead_letters += done.tallies.dead;
            }
            busy += done.tallies.busy;
            max_group = max_group.max(done.tallies.max_group);
            step_handoffs += done.tallies.handoffs;
            latencies_acc.extend_from_slice(&done.new_latencies);
            oblivion_obs::merge_deterministic(&done.obs_counters, &done.obs_histograms);
            if done.live.len() != owned_w.len() {
                return Err(io_stop(format!(
                    "worker {w} reported {} shards, owns {}",
                    done.live.len(),
                    owned_w.len()
                )));
            }
            for (k, &s) in owned_w.iter().enumerate() {
                live_by_shard[s] = done.live[k];
            }
            in_transit.extend(done.handoffs_out);
        }
        alive -= (delivered_step + dead_step) as usize;
        handoffs_total += step_handoffs;
        let live_max = live_by_shard.iter().copied().max().unwrap_or(0);
        let live_min = live_by_shard.iter().copied().min().unwrap_or(0);
        let imbalance = live_max - live_min;
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
    }

    // Finale: collect link loads and shut the fleet down.
    let fin = encode_msg("FIN", &[]);
    let mut link_loads = vec![0u64; mesh.edge_count()];
    for (w, owned_w) in owned.iter().enumerate() {
        let mut tries = 0u32;
        let msg = loop {
            let res = fleet
                .send(w, &fin)
                .map_err(|e| format!("fin send: {e}"))
                .and_then(|()| fleet.expect(w, "FINOK"));
            match res {
                Ok(msg) => break msg,
                Err(why) => {
                    tries += 1;
                    if tries > 2 {
                        return Err(io_stop(why));
                    }
                    fleet.revive(w, 0, &why).map_err(io_stop)?;
                }
            }
        };
        let mut r = ByteReader::new(&msg.payload);
        let loads = get_loads(&mut r)
            .and_then(|l| r.finish("finok").map(|()| l))
            .map_err(|e| io_stop(format!("worker {w} FINOK: {e}")))?;
        if loads.len() != owned_w.len() {
            return Err(io_stop(format!(
                "worker {w} FINOK covers {} shards, owns {}",
                loads.len(),
                owned_w.len()
            )));
        }
        for (k, &s) in owned_w.iter().enumerate() {
            for (slot, &load) in loads[k].iter().enumerate() {
                link_loads[edge_of_slot[s][slot]] = load;
            }
        }
    }
    drop(fleet);

    sp.finish(ShardFinale {
        shards: shards_n,
        steals: 0,
    });

    let mut latencies: Vec<u64> = base_latencies;
    latencies.resize(latencies.len() + delivered_instant, 0);
    latencies.append(&mut latencies_acc);
    debug_assert!(in_transit.is_empty(), "drained run left packets in transit");
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

// ---------------------------------------------------------------------
// Worker side.
// ---------------------------------------------------------------------

/// Writes one protocol line to stdout under the shared lock (the
/// heartbeat thread interleaves whole lines, never bytes).
fn write_line(guard: &Mutex<()>, line: &str) -> io::Result<()> {
    let _g = guard.lock().unwrap();
    let mut out = io::stdout();
    out.write_all(line.as_bytes())?;
    out.flush()
}

/// Serves one worker process: reads supervisor messages on stdin,
/// steps its owned shards, and writes replies (and heartbeats) on
/// stdout. Returns when the supervisor says `FIN` or closes the pipe.
pub fn worker_serve(cfg: &WorkerCfg<'_>, paths: &(dyn PathSource + Sync)) -> Result<(), String> {
    let mesh = cfg.mesh;
    let map = ShardMap::new(mesh);
    let shards_n = map.shards();
    if cfg.worker >= cfg.procs {
        return Err(format!(
            "--worker {} out of range for --procs {}",
            cfg.worker, cfg.procs
        ));
    }
    let owned: Vec<usize> = (0..shards_n)
        .filter(|&s| pool::home_of(s, shards_n, cfg.procs) == cfg.worker)
        .collect();
    let is_owned: Vec<bool> = {
        let mut v = vec![false; shards_n];
        for &s in &owned {
            v[s] = true;
        }
        v
    };
    let crash_at: Option<u64> = std::env::var(CRASH_ENV).ok().and_then(|v| {
        let (w, t) = v.split_once(':')?;
        if w.parse::<usize>().ok()? != cfg.worker {
            return None;
        }
        t.parse::<u64>().ok()
    });

    // Heartbeats: a detached thread writes HB lines so the supervisor
    // can tell a slow step from a dead process.
    let out_guard = Arc::new(Mutex::new(()));
    let stop = Arc::new(AtomicBool::new(false));
    {
        let out_guard = Arc::clone(&out_guard);
        let stop = Arc::clone(&stop);
        let period = cfg.heartbeat;
        let hb = encode_msg("HB", &[]);
        std::thread::spawn(move || loop {
            std::thread::sleep(period);
            if stop.load(Ordering::Relaxed) || write_line(&out_guard, &hb).is_err() {
                return;
            }
        });
    }

    let mut arena = Arena::default();
    let mut shards: Vec<Mutex<ShardState>> = map
        .slots
        .iter()
        .map(|&slots| Mutex::new(ShardState::new(slots)))
        .collect();
    let mut inboxes: Vec<[Mutex<Vec<usize>>; 2]> = (0..shards_n)
        .map(|_| [Mutex::new(Vec::new()), Mutex::new(Vec::new())])
        .collect();

    let mut frames = FrameBuf::new(MAX_MSG_LINE);
    let mut stdin = io::stdin().lock();
    let mut buf = [0u8; 1 << 16];
    'serve: loop {
        let msg = loop {
            if let Some(framed) = frames.next_line() {
                match framed {
                    Framed::Line(line) => {
                        break decode_msg(&line).map_err(|e| format!("bad message: {e:?}"))?
                    }
                    Framed::Bad(why) => return Err(format!("bad frame: {why}")),
                }
            }
            let n = std::io::Read::read(&mut stdin, &mut buf).map_err(|e| format!("stdin: {e}"))?;
            if n == 0 {
                // Supervisor is gone; exit quietly.
                break 'serve;
            }
            frames.extend(&buf[..n]);
        };
        match msg.tag.as_str() {
            "RESTORE" => {
                let mut r = ByteReader::new(&msg.payload);
                let (t0, packets, loads) = (|| -> Result<SnapParts, CkptError> {
                    let t0 = r.u64("restore.t0")?;
                    let packets = get_packets(&mut r)?;
                    let loads = get_loads(&mut r)?;
                    r.finish("restore")?;
                    Ok((t0, packets, loads))
                })()
                .map_err(|e| format!("RESTORE: {e}"))?;
                if loads.len() != owned.len() {
                    return Err(format!(
                        "RESTORE covers {} shards, this worker owns {}",
                        loads.len(),
                        owned.len()
                    ));
                }
                arena = Arena::default();
                shards = map
                    .slots
                    .iter()
                    .map(|&slots| Mutex::new(ShardState::new(slots)))
                    .collect();
                inboxes = (0..shards_n)
                    .map(|_| [Mutex::new(Vec::new()), Mutex::new(Vec::new())])
                    .collect();
                let _ = t0; // parity is re-established by the next STEP's t
                for p in &packets {
                    let e = arena.install(mesh, p);
                    let s = map.shard_of_edge[e] as usize;
                    if !is_owned[s] {
                        return Err(format!("RESTORE packet {} belongs to shard {s}", p.id));
                    }
                    shards[s].lock().unwrap().active.push(p.id as usize);
                }
                for (k, &s) in owned.iter().enumerate() {
                    let mut st = shards[s].lock().unwrap();
                    if loads[k].len() != st.loads.len() {
                        return Err(format!("RESTORE loads for shard {s} have wrong length"));
                    }
                    st.loads.copy_from_slice(&loads[k]);
                    st.live = st.active.len();
                }
            }
            "STEP" => {
                let mut r = ByteReader::new(&msg.payload);
                let (t, arrivals) = (|| -> Result<(u64, Vec<PacketState>), CkptError> {
                    let t = r.u64("step.t")?;
                    let packets = get_packets(&mut r)?;
                    r.finish("step")?;
                    Ok((t, packets))
                })()
                .map_err(|e| format!("STEP: {e}"))?;
                if crash_at == Some(t) {
                    // Deterministic stand-in for `kill -9` at this step.
                    std::process::abort();
                }
                for p in &arrivals {
                    let e = arena.install(mesh, p);
                    let s = map.shard_of_edge[e] as usize;
                    debug_assert!(is_owned[s], "supervisor misrouted packet {}", p.id);
                    inboxes[s][(t % 2) as usize]
                        .lock()
                        .unwrap()
                        .push(p.id as usize);
                }
                for &s in &owned {
                    step_shard(
                        &arena, &map, &shards[s], &inboxes, mesh, paths, cfg.policy, cfg.faults, s,
                        t,
                    );
                }
                let mut done = Done {
                    t,
                    tallies: DoneTallies::default(),
                    new_latencies: Vec::new(),
                    live: Vec::with_capacity(owned.len()),
                    handoffs_out: Vec::new(),
                    obs_counters: Vec::new(),
                    obs_histograms: Vec::new(),
                };
                for &s in &owned {
                    let mut st = shards[s].lock().unwrap();
                    done.tallies.delivered += st.step_delivered;
                    done.tallies.dead += st.step_dead;
                    done.tallies.blocked += st.step_blocked;
                    done.tallies.resamples += st.step_resamples;
                    done.tallies.drops += st.step_drops;
                    done.tallies.busy += u64::from(st.step_busy);
                    done.tallies.max_group =
                        done.tallies.max_group.max(u64::from(st.step_max_group));
                    done.tallies.handoffs += st.step_handoffs;
                    done.new_latencies.append(&mut st.latencies);
                    done.live.push(st.live as u64);
                }
                // Deterministic obs emitted while stepping (router
                // resample instrumentation) belong in the supervisor's
                // registry; drain them so each DONE carries a delta.
                let (oc, oh) = oblivion_obs::take_deterministic();
                done.obs_counters = oc;
                done.obs_histograms = oh;
                // Handoffs into shards owned by other workers route via
                // the supervisor: full packet state out, arena slot left
                // behind as an inert dummy.
                for (s, inbox) in inboxes.iter().enumerate() {
                    if is_owned[s] {
                        continue;
                    }
                    let mut ib = inbox[((t + 1) % 2) as usize].lock().unwrap();
                    for id in ib.drain(..) {
                        done.handoffs_out.push(arena.extract(mesh, id));
                    }
                }
                write_line(&out_guard, &done_line(&done)).map_err(|e| format!("stdout: {e}"))?;
            }
            "SNAP" => {
                let mut r = ByteReader::new(&msg.payload);
                let t = r
                    .u64("snap.t")
                    .and_then(|t| r.finish("snap").map(|()| t))
                    .map_err(|e| format!("SNAP: {e}"))?;
                let mut ids: Vec<usize> = Vec::new();
                for &s in &owned {
                    let st = shards[s].lock().unwrap();
                    ids.extend(st.active.iter().copied().filter(|&i| i != GONE));
                    drop(st);
                    ids.extend(inboxes[s][(t % 2) as usize].lock().unwrap().iter().copied());
                }
                ids.sort_unstable();
                let packets: Vec<PacketState> =
                    ids.iter().map(|&i| arena.extract(mesh, i)).collect();
                let loads: Vec<Vec<u64>> = owned
                    .iter()
                    .map(|&s| shards[s].lock().unwrap().loads.clone())
                    .collect();
                let mut w = ByteWriter::new();
                w.u64(t);
                put_packets(&mut w, &packets);
                put_loads(&mut w, &loads);
                write_line(&out_guard, &encode_msg("SNAPOK", &w.into_bytes()))
                    .map_err(|e| format!("stdout: {e}"))?;
            }
            "FIN" => {
                let loads: Vec<Vec<u64>> = owned
                    .iter()
                    .map(|&s| shards[s].lock().unwrap().loads.clone())
                    .collect();
                let mut w = ByteWriter::new();
                put_loads(&mut w, &loads);
                write_line(&out_guard, &encode_msg("FINOK", &w.into_bytes()))
                    .map_err(|e| format!("stdout: {e}"))?;
                break 'serve;
            }
            other => return Err(format!("unknown supervisor message `{other}`")),
        }
    }
    stop.store(true, Ordering::Relaxed);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn done_payload_round_trips() {
        let d = Done {
            t: 17,
            tallies: DoneTallies {
                delivered: 3,
                dead: 1,
                blocked: 4,
                resamples: 1,
                drops: 5,
                busy: 9,
                max_group: 2,
                handoffs: 6,
            },
            new_latencies: vec![5, 3, 8],
            live: vec![10, 0],
            handoffs_out: vec![PacketState {
                id: 7,
                inj: 2,
                injected_at: 11,
                arrived: 17,
                rank: 99,
                pos: 1,
                attempts: 2,
                backoff_until: 19,
                path: vec![0, 1, 2, 3],
            }],
            obs_counters: vec![("bridge_tree_hits".to_string(), 4)],
            obs_histograms: vec![("access_height_climbed".to_string(), {
                let mut h = oblivion_obs::Histogram::new();
                h.record(3);
                h.record(5);
                h
            })],
        };
        let line = done_line(&d);
        let msg = decode_msg(line.trim_end()).expect("valid line");
        assert_eq!(msg.tag, "DONE");
        let back = parse_done(&msg.payload).expect("valid payload");
        assert_eq!(back.t, 17);
        assert_eq!(back.tallies.drops, 5);
        assert_eq!(back.new_latencies, vec![5, 3, 8]);
        assert_eq!(back.live, vec![10, 0]);
        assert_eq!(back.handoffs_out.len(), 1);
        assert_eq!(back.handoffs_out[0].path, vec![0, 1, 2, 3]);
        assert_eq!(back.obs_counters, vec![("bridge_tree_hits".to_string(), 4)]);
        assert_eq!(back.obs_histograms.len(), 1);
        assert_eq!(back.obs_histograms[0].0, "access_height_climbed");
        assert_eq!(back.obs_histograms[0].1.count, 2);
        assert_eq!(back.obs_histograms[0].1.sum, 8);
    }

    #[test]
    fn step_and_restore_lines_round_trip() {
        let p = PacketState {
            id: 0,
            inj: 0,
            injected_at: 1,
            arrived: 1,
            rank: 42,
            pos: 0,
            attempts: 0,
            backoff_until: 0,
            path: vec![0, 1],
        };
        let line = step_line(3, std::slice::from_ref(&p));
        let msg = decode_msg(line.trim_end()).expect("valid");
        assert_eq!(msg.tag, "STEP");
        let mut r = ByteReader::new(&msg.payload);
        assert_eq!(r.u64("t").unwrap(), 3);
        let pkts = get_packets(&mut r).unwrap();
        assert_eq!(pkts, vec![p.clone()]);

        let line = restore_line(8, std::slice::from_ref(&p), &[vec![1, 2], vec![]]);
        let msg = decode_msg(line.trim_end()).expect("valid");
        assert_eq!(msg.tag, "RESTORE");
        let mut r = ByteReader::new(&msg.payload);
        assert_eq!(r.u64("t0").unwrap(), 8);
        assert_eq!(get_packets(&mut r).unwrap(), vec![p]);
        assert_eq!(get_loads(&mut r).unwrap(), vec![vec![1, 2], vec![]]);
        r.finish("restore").unwrap();
    }

    #[test]
    fn home_assignment_partitions_shards() {
        // Every shard is owned by exactly one worker for any proc count.
        for shards_n in [1usize, 2, 5, 16] {
            for procs in 1..=shards_n {
                let owners: Vec<usize> = (0..shards_n)
                    .map(|s| pool::home_of(s, shards_n, procs))
                    .collect();
                for &owner in &owners {
                    assert!(owner < procs);
                }
                // Owners are monotone bands, so each worker's set is
                // contiguous and the union is everything.
                for w in owners.windows(2) {
                    assert!(w[0] <= w[1]);
                }
            }
        }
    }
}
