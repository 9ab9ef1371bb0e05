//! The overload-safe, pipelined request server.
//!
//! Thread layout (all on one [`run_crew`] scoped pool, so a panic
//! anywhere propagates instead of silently losing a worker):
//!
//! ```text
//! crew[0]            acceptor: accept → hand the socket to a worker
//!                    mailbox (round-robin) or the shared overflow
//!                    queue; both full → shed with ERR OVERLOADED
//! crew[1..=threads]  workers: each OWNS its accepted sockets for their
//!                    whole life — reads pipelined frames, batches them
//!                    through `route_batch`, writes replies in order
//! crew[..]           stats flusher (optional): appends a JSONL snapshot
//!                    to --metrics-out every --stats-every interval, so
//!                    a crash loses at most one interval of telemetry
//! crew[last]         health listener (optional): HEALTH/READY/METRICS
//!                    on a dedicated port, bypassing admission so they
//!                    answer even at 10x overload
//! ```
//!
//! Nothing on the request path sleeps to wait. Every idle thread parks
//! in `poll(2)` (via [`oblivion_signal::poll`]) on exactly the fds whose
//! readiness changes what it does next, and whoever changes that state
//! wakes it:
//!
//! ```text
//! thread     parks on                              woken by
//! acceptor   listener, shutdown latch(es)          a client connect;
//!                                                  request_shutdown / SIGTERM
//! worker i   its Waker, every owned socket that    acceptor: after a push to
//!            can still read; timeout = earliest    mailbox i (and worker i+1
//!            slow-loris deadline                   too when i is busy or
//!                                                  backed up), every worker
//!                                                  on an overflow push and
//!                                                  at drain; clients: bytes
//! health     listener + shutdown latch(es), then   a prober; shutdown; the
//!            listener + drained latch              last exiting worker
//! flusher    drained latch, timeout = next flush   the last exiting worker
//! ```
//!
//! The shutdown latch is per-[`Control`] ([`Control::request_shutdown`]
//! sets it) plus, with `honor_process_signals`, the process-wide one the
//! SIGTERM handler writes to ([`oblivion_signal::shutdown_fd`]). A latch
//! stays readable once set, so a loop that has seen it stops polling it.
//!
//! Connections are keep-alive: a client may send many LF-framed `PATH`
//! lines without waiting, and replies come back strictly in request
//! order (IDs are echoed per line for correlation). A worker services
//! its connections run-to-completion in bursts: it frames up to
//! `batch_max` pending lines, routes all `PATH` queries in one
//! [`route_batch`] call over a reused scratch buffer, and writes the
//! whole burst of replies with a single syscall on the nonblocking
//! socket (parking on `POLLOUT` only when the kernel buffer is full).
//! The shared overflow queue exists only for bursts of new connections
//! that outpace the round-robin mailboxes.
//!
//! Overload behavior is still the design center: mailboxes and the
//! overflow queue are bounded, pushes never block, and every admitted
//! *request line* settles into exactly one counter bucket (see
//! [`crate::stats`] — the conservation unit is the framed line, not the
//! connection). Each burst is timed through explicit phases — accept,
//! queue-wait, parse, route-compute, reply-write — into per-phase
//! histograms that `METRICS` exposes live. On shutdown
//! (SIGTERM/SIGINT or [`Control::request_shutdown`]) the acceptor
//! closes the listener, stamps the drain deadline, and closes the
//! queues; workers finish in-flight pipelines while the drain budget
//! lasts and reject the rest with `ERR SHUTTING_DOWN`. The process then
//! exits 0 with conserved counters — that is the "graceful" in graceful
//! drain.
//!
//! [`run_crew`]: oblivion_sim::pool::run_crew
//! [`route_batch`]: oblivion_core::ObliviousRouter::route_batch

use crate::chaos::{ChaosConfig, ChaosPlan};
use crate::metrics::render_exposition;
use crate::queue::{Bounded, Pop};
use crate::registry::{Registry, Resolved, RouterHandle, Tenant};
use crate::stats::{ChaosEvent, Counter, Phase, ServeStats, StatsSnapshot, SERIES};
use crate::wire::{self, ErrorKind, Framed, Request, MAX_REQUEST_LINE};
use oblivion_core::{
    build_router, implies_torus, parse_mesh_spec, ObliviousRouter, PathQuery, RoutedPath,
};
use oblivion_obs::Json;
use oblivion_signal::{Latch, PollFd, Waker};
use oblivion_sim::pool::run_crew;
use std::collections::VecDeque;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Tuning knobs for [`run`]. Validation of user-facing values (nonzero
/// port, threads, deadline, queue) is the CLI's job; the library only
/// requires what it structurally needs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Interface to bind, e.g. `127.0.0.1`.
    pub host: String,
    /// Port for the request listener; `0` lets the OS pick (tests).
    pub port: u16,
    /// Dedicated probe port; `Some(0)` lets the OS pick, `None`
    /// disables the health listener.
    pub health_port: Option<u16>,
    /// Request worker threads (the acceptor, flusher, and health
    /// listener are extra).
    pub threads: usize,
    /// Overflow queue capacity; connections beyond the per-worker
    /// mailboxes *and* the overflow are shed.
    pub queue_cap: usize,
    /// Per-request deadline, measured from the moment the request line
    /// is framed (for a connection that stalls mid-line: from the first
    /// partial byte).
    pub deadline: Duration,
    /// Drain budget: how long in-flight pipelines may still complete
    /// after shutdown is requested.
    pub drain: Duration,
    /// Simulated extra service time per dispatch burst — overload knob
    /// for tests and the `exp_serve` load sweep. With pipelining the
    /// cost is amortized over the whole burst, which is exactly the
    /// point of batched dispatch.
    pub work: Duration,
    /// Most pending request lines a worker answers per burst (also the
    /// `route_batch` batch size). Larger values amortize dispatch
    /// overhead further; smaller values bound per-burst latency.
    pub batch_max: usize,
    /// Background stats flusher interval; `None` disables the flusher.
    pub stats_every: Option<Duration>,
    /// File the flusher appends JSONL snapshots to (requires
    /// `stats_every`).
    pub stats_path: Option<PathBuf>,
    /// Also poll the process-wide `oblivion-signal` flag (SIGTERM /
    /// SIGINT), not just [`Control::request_shutdown`].
    pub honor_process_signals: bool,
    /// Announce the bound addresses on stderr (the CLI's readiness
    /// signal for scripts).
    pub announce: bool,
    /// Deterministic straggler injection (see [`crate::chaos`]);
    /// `None`, or a trivial config, leaves the request path
    /// byte-identical to a chaos-free build of the server.
    pub chaos: Option<ChaosConfig>,
}

impl ServeConfig {
    /// Most connections that can sit queued for a worker at once: the
    /// shared overflow plus every per-worker mailbox. This is the bound
    /// the `queue_depth` gauge (and its high-water mark) honors.
    pub fn max_queued(&self) -> usize {
        self.queue_cap + self.threads.max(1) * MAILBOX_CAP
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            host: "127.0.0.1".into(),
            port: 0,
            health_port: Some(0),
            threads: 4,
            queue_cap: 64,
            deadline: Duration::from_millis(1000),
            drain: Duration::from_millis(2000),
            work: Duration::ZERO,
            batch_max: 64,
            stats_every: None,
            stats_path: None,
            honor_process_signals: false,
            announce: false,
            chaos: None,
        }
    }
}

/// Shared handle between [`run`] (which blocks) and whoever supervises
/// it from another thread: readiness, live stats, and shutdown.
#[derive(Default)]
pub struct Control {
    shutdown: AtomicBool,
    /// Created by [`run`]; fd-backed twins of `shutdown` and
    /// [`Control::drained`] for the threads that park in `poll`.
    latches: OnceLock<Latches>,
    bound: Mutex<Option<SocketAddr>>,
    bound_set: Condvar,
    health_bound: OnceLock<SocketAddr>,
    drain_until: OnceLock<Instant>,
    started: OnceLock<Instant>,
    /// Workers still draining; the flusher and health listener exit
    /// once the drain is stamped *and* this reaches zero (only then are
    /// the counters quiescent).
    live_workers: AtomicUsize,
    stats: ServeStats,
}

impl Control {
    /// A fresh control block.
    pub fn new() -> Self {
        Control::default()
    }

    /// Asks the server to stop accepting and drain.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(l) = self.latches.get() {
            l.shutdown.set();
        }
    }

    fn shutdown_requested(&self, cfg: &ServeConfig) -> bool {
        self.shutdown.load(Ordering::SeqCst)
            || (cfg.honor_process_signals && oblivion_signal::shutdown_requested())
    }

    fn drained(&self) -> bool {
        self.drain_until.get().is_some() && self.live_workers.load(Ordering::SeqCst) == 0
    }

    /// The request listener's bound address, once bound.
    pub fn addr(&self) -> Option<SocketAddr> {
        *self.bound.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn set_addr(&self, addr: SocketAddr) {
        *self.bound.lock().unwrap_or_else(|e| e.into_inner()) = Some(addr);
        self.bound_set.notify_all();
    }

    /// The health listener's bound address, once bound.
    pub fn health_addr(&self) -> Option<SocketAddr> {
        self.health_bound.get().copied()
    }

    /// Waits up to `timeout` for the bound address (for supervising
    /// threads that start [`run`] in the background); returns the
    /// moment the listener is bound.
    pub fn wait_addr(&self, timeout: Duration) -> Option<SocketAddr> {
        let bound = self.bound.lock().unwrap_or_else(|e| e.into_inner());
        let (bound, _) = self
            .bound_set
            .wait_timeout_while(bound, timeout, |a| a.is_none())
            .unwrap_or_else(|e| e.into_inner());
        *bound
    }

    /// Live counters.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    fn uptime(&self) -> Duration {
        self.started.get().map(|s| s.elapsed()).unwrap_or_default()
    }
}

/// What [`run`] reports after draining.
#[derive(Debug, Clone)]
pub struct ServeSummary {
    /// Final counters (quiescent, so the conservation law holds).
    pub stats: StatsSnapshot,
    /// Wall-clock time the server was up.
    pub uptime: Duration,
    /// Wall-clock time from shutdown request to full drain.
    pub drain_took: Duration,
    /// Request listener address.
    pub addr: SocketAddr,
}

/// Pause after a failed `accept` (EMFILE, an aborted handshake) before
/// retrying; shutdown still ends it at once.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(2);

/// Floor on how long a reply write may wait for a full send buffer to
/// drain, even when the request's deadline is already (nearly) spent.
const MIN_WRITE_WAIT: Duration = Duration::from_millis(10);

/// Bytes read per nonblocking poll of a connection.
const READ_CHUNK: usize = 4096;

/// Most live connections a single worker owns; beyond this the worker
/// stops adopting and new sockets wait in the mailboxes/overflow.
const MAX_OWNED_CONNS: usize = 64;

/// Per-worker mailbox depth. Small on purpose: the mailboxes are a
/// hand-off, not a buffer — sustained excess spills to the shared
/// overflow queue whose capacity is the admission-control knob.
const MAILBOX_CAP: usize = 2;

/// The fd-backed events of one server run (see the module doc).
struct Latches {
    /// Set by [`Control::request_shutdown`].
    shutdown: Latch,
    /// Set once the drain is stamped and the last worker has exited.
    drained: Latch,
}

/// A worker's hand-off point: its mailbox, the waker the acceptor pokes
/// after pushing into it, and whether the worker is parked right now (a
/// busy owner lets its next sibling steal).
struct Lane {
    mailbox: Bounded<Inbound>,
    waker: Waker,
    parked: AtomicBool,
}

/// One accepted connection waiting for a worker to adopt it.
struct Inbound {
    stream: TcpStream,
    accepted_at: Instant,
    /// Time the acceptor spent on this socket (the accept phase),
    /// recorded when the worker admits the connection's first line.
    accept_us: u64,
}

/// A connection owned by a worker: socket, partial-frame buffer, and
/// the queue of framed-but-unanswered lines (each stamped with its
/// frame time, from which its deadline derives).
struct ConnState {
    stream: TcpStream,
    fb: wire::FrameBuf,
    pending: VecDeque<(Framed, Instant)>,
    accepted_at: Instant,
    adopted_at: Instant,
    accept_us: u64,
    /// Accept / queue-wait phases are recorded once per connection,
    /// lazily with its first admitted line (so phase counts never
    /// exceed admitted units).
    conn_phases_recorded: bool,
    /// First instant at which the frame buffer held an unterminated
    /// partial line with nothing answerable pending — the slow-loris
    /// clock.
    partial_since: Option<Instant>,
    /// Chaos reset schedule drawn at adoption: kill the connection once
    /// it has answered this many lines and more are pending.
    reset_after: Option<u64>,
    /// Lines answered on this connection (drives `reset_after`).
    answered: u64,
    eof: bool,
    dead: bool,
}

/// One slot of a dispatch burst, in request order. `tenant` carries the
/// live mesh the line was attributed to (paired `begin`/`end` on the
/// quota share, tenant-ledger settle at write time); `None` for
/// unattributed lines — frame errors, drain rejections, probes, unknown
/// or retired mesh ids.
enum Slot<'a> {
    /// Already answered at parse time (probe, error, expiry, drain).
    Done {
        reply: String,
        bucket: Counter,
        tenant: Option<Arc<Tenant<'a>>>,
    },
    /// A `PATH` query awaiting the batched route; `qi` indexes into the
    /// burst's query/routed scratch once assigned.
    Route {
        q: PathQuery,
        id: Option<String>,
        deadline: Instant,
        qi: usize,
        tenant: Arc<Tenant<'a>>,
    },
}

impl<'a> Slot<'a> {
    /// The attributed tenant, if any.
    fn tenant(&self) -> Option<&Arc<Tenant<'a>>> {
        match self {
            Slot::Done { tenant, .. } => tenant.as_ref(),
            Slot::Route { tenant, .. } => Some(tenant),
        }
    }

    /// The terminal bucket this slot settles into on a successful
    /// write.
    fn bucket(&self) -> Counter {
        match self {
            Slot::Done { bucket, .. } => *bucket,
            Slot::Route { .. } => Counter::Completed,
        }
    }
}

/// Binds and serves a single borrowed router until shutdown, then
/// drains. The legacy single-tenant entry point: it wraps the router in
/// a one-mesh [`Registry`] (default id, no quota), which keeps the wire
/// behavior of prefix-free traffic byte-identical to the registry-less
/// server — the differential test pins this.
pub fn run(
    router: &dyn ObliviousRouter,
    cfg: &ServeConfig,
    ctl: &Control,
) -> std::io::Result<ServeSummary> {
    let registry = Registry::single(router);
    run_registry(&registry, cfg, ctl)
}

/// Binds and serves every mesh in `registry` until shutdown is
/// requested, then drains; returns the final summary. Blocks the
/// calling thread for the server's whole life — supervise from another
/// thread via the shared [`Control`]. The health listener additionally
/// answers `ADMIN LIST|ADD|RETIRE` verbs that mutate the registry at
/// runtime.
pub fn run_registry<'a>(
    registry: &'a Registry<'a>,
    cfg: &ServeConfig,
    ctl: &Control,
) -> std::io::Result<ServeSummary> {
    let started = Instant::now();
    let _ = ctl.started.set(started);
    // Materialize every tenant's ledger row and state gauge up front,
    // so a quiet tenant is visible in the first scrape.
    for (id, live, bytes) in registry.list() {
        if live {
            ctl.stats.set_tenant_state_bytes(&id, bytes);
        }
    }
    let fresh = Latches {
        shutdown: Latch::new()?,
        drained: Latch::new()?,
    };
    let latches = ctl.latches.get_or_init(move || fresh);
    // A shutdown requested before the latch existed still sets it.
    if ctl.shutdown.load(Ordering::SeqCst) {
        latches.shutdown.set();
    }
    let mut shutdown_fds = vec![latches.shutdown.fd()];
    if cfg.honor_process_signals {
        shutdown_fds.push(oblivion_signal::shutdown_fd()?);
    }
    let listener = TcpListener::bind((cfg.host.as_str(), cfg.port))?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let health_listener = match cfg.health_port {
        Some(p) => {
            let l = TcpListener::bind((cfg.host.as_str(), p))?;
            l.set_nonblocking(true)?;
            let _ = ctl.health_bound.set(l.local_addr()?);
            Some(l)
        }
        None => None,
    };
    if cfg.announce {
        match ctl.health_addr() {
            Some(h) => eprintln!("serve: listening on {addr} (health {h})"),
            None => eprintln!("serve: listening on {addr} (health disabled)"),
        }
    }

    // Materialize the chaos plan once; a trivial plan is dropped
    // entirely so the chaos-off request path is the vanilla one,
    // byte for byte (the differential test relies on this).
    let chaos_plan = cfg
        .chaos
        .as_ref()
        .map(|c| ChaosPlan::new(c.clone()))
        .filter(|p| !p.is_trivial());
    let lanes = (0..cfg.threads.max(1))
        .map(|_| {
            Ok(Lane {
                mailbox: Bounded::new(MAILBOX_CAP),
                waker: Waker::new()?,
                parked: AtomicBool::new(false),
            })
        })
        .collect::<std::io::Result<Vec<Lane>>>()?;
    let overflow: Bounded<Inbound> = Bounded::new(cfg.queue_cap);
    ctl.live_workers.store(cfg.threads, Ordering::SeqCst);
    let has_health = health_listener.is_some();
    let has_flusher = cfg.stats_every.is_some() && cfg.stats_path.is_some();
    let listener = Mutex::new(Some(listener));
    let health_listener = Mutex::new(health_listener);
    let crew = 1 + cfg.threads + usize::from(has_flusher) + usize::from(has_health);
    // Published last: a supervisor woken by `wait_addr` finds every fd
    // of the run already in place.
    ctl.set_addr(addr);
    run_crew(crew, |w| {
        if w == 0 {
            let listener = listener
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take()
                .expect("acceptor runs once"); // ci-allow-unwrap: single take by worker 0
            accept_loop(&listener, &lanes, &overflow, cfg, ctl, &shutdown_fds);
            // Shutdown: stop accepting (drop the listener), stamp the
            // drain deadline, and let the workers run their pipelines
            // down.
            let _ = ctl.drain_until.set(Instant::now() + cfg.drain);
            drop(listener);
            for lane in &lanes {
                lane.mailbox.close();
            }
            overflow.close();
            for lane in &lanes {
                lane.waker.wake();
            }
            if ctl.live_workers.load(Ordering::SeqCst) == 0 {
                latches.drained.set(); // a worker-less server is drained at once
            }
        } else if w <= cfg.threads {
            worker_loop(
                registry,
                w - 1,
                &lanes,
                &overflow,
                cfg,
                ctl,
                chaos_plan.as_ref(),
            );
            if ctl.live_workers.fetch_sub(1, Ordering::SeqCst) == 1 {
                latches.drained.set();
            }
        } else if has_flusher && w == cfg.threads + 1 {
            flusher_loop(cfg, ctl, latches.drained.fd());
        } else {
            let listener = health_listener
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take()
                .expect("health listener runs once"); // ci-allow-unwrap: single take by last worker
            health_loop(&listener, registry, cfg, ctl, &shutdown_fds, latches);
        }
    });
    // All workers joined: the backlog is settled and counters conserve.
    // drain_started = drain_until - budget, so elapsed-since-then is
    // (now + budget) - drain_until.
    let drain_took = ctl
        .drain_until
        .get()
        .map(|until| (Instant::now() + cfg.drain).saturating_duration_since(*until))
        .unwrap_or_default()
        .min(started.elapsed());
    Ok(ServeSummary {
        stats: ctl.stats.snapshot(),
        uptime: started.elapsed(),
        drain_took,
        addr,
    })
}

fn accept_loop(
    listener: &TcpListener,
    lanes: &[Lane],
    overflow: &Bounded<Inbound>,
    cfg: &ServeConfig,
    ctl: &Control,
    shutdown_fds: &[RawFd],
) {
    let mut rr = 0usize;
    // Entry 0 is the listener; the rest are the shutdown latches.
    let mut fds: Vec<PollFd> = std::iter::once(listener.as_raw_fd())
        .chain(shutdown_fds.iter().copied())
        .map(PollFd::readable)
        .collect();
    loop {
        if ctl.shutdown_requested(cfg) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let accepted_at = Instant::now();
                ctl.stats.conn_opened();
                let _ = stream.set_nodelay(true);
                // Accounting precedes publication: the depth gauge is
                // bumped before the socket is visible to workers, so
                // the racing `conn_dequeued()` can never drive it
                // negative.
                let depth = ctl.stats.enqueue_started();
                let inbound = Inbound {
                    stream,
                    accepted_at,
                    accept_us: elapsed_us(accepted_at),
                };
                let i = rr % lanes.len();
                rr = rr.wrapping_add(1);
                let spill = match lanes[i].mailbox.try_push(inbound) {
                    Ok(queued) => {
                        ctl.stats.enqueue_committed(depth);
                        lanes[i].waker.wake();
                        // The owner is behind — a backlog, or busy
                        // (simulated work, a chaos pause) rather than
                        // parked — so let the next worker steal it.
                        if lanes.len() > 1
                            && (queued >= 2 || !lanes[i].parked.load(Ordering::SeqCst))
                        {
                            lanes[(i + 1) % lanes.len()].waker.wake();
                        }
                        continue;
                    }
                    Err(inbound) => inbound,
                };
                match overflow.try_push(spill) {
                    Ok(_) => {
                        ctl.stats.enqueue_committed(depth);
                        for lane in lanes {
                            lane.waker.wake();
                        }
                    }
                    Err(inbound) => {
                        // Admission control: every queue is full, so
                        // shed *now* with a typed rejection instead of
                        // queueing unboundedly. The whole turned-away
                        // connection is one shed unit. No trace ID on
                        // the reply: no request line was ever read. The
                        // write is best-effort and strictly bounded.
                        ctl.stats.shed_connection();
                        let _ = wire::write_line(
                            &inbound.stream,
                            &wire::format_err_line(ErrorKind::Overloaded, ""),
                            Instant::now() + Duration::from_millis(100),
                        );
                        ctl.stats.conn_closed();
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                let _ = oblivion_signal::poll(&mut fds, None);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                // Transient accept failure (EMFILE, aborted handshake):
                // back off briefly — on the latches only, since the
                // listener may stay readable; it remains valid.
                let _ = oblivion_signal::poll(&mut fds[1..], Some(ACCEPT_BACKOFF));
            }
        }
    }
}

/// Scratch buffers a worker reuses across every burst it dispatches —
/// the allocation-amortization half of the batching story. `group` is
/// the per-tenant staging area of the grouped route (queries are
/// gathered group-major into `queries`, routed per group into `group`,
/// and concatenated into `routed`).
struct Scratch<'a> {
    queries: Vec<PathQuery>,
    routed: Vec<RoutedPath>,
    group: Vec<RoutedPath>,
    slots: Vec<Slot<'a>>,
    reply: String,
}

#[allow(clippy::too_many_arguments)]
fn worker_loop<'a>(
    registry: &'a Registry<'a>,
    me: usize,
    lanes: &[Lane],
    overflow: &Bounded<Inbound>,
    cfg: &ServeConfig,
    ctl: &Control,
    chaos: Option<&ChaosPlan>,
) {
    let lane = &lanes[me];
    let mailbox = &lane.mailbox;
    let mut conns: Vec<ConnState> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    let mut mailbox_closed = false;
    let mut overflow_closed = false;
    let mut scratch = Scratch {
        queries: Vec::new(),
        routed: Vec::new(),
        group: Vec::new(),
        slots: Vec::new(),
        reply: String::new(),
    };
    loop {
        // Adopt new connections: own mailbox first, then the shared
        // overflow, up to the ownership cap.
        while !mailbox_closed && conns.len() < MAX_OWNED_CONNS {
            match mailbox.try_pop() {
                Pop::Item(inbound) => conns.push(adopt(inbound, ctl, chaos)),
                Pop::Closed => {
                    mailbox_closed = true;
                    break;
                }
                Pop::Empty => break,
            }
        }
        while !overflow_closed && conns.len() < MAX_OWNED_CONNS {
            match overflow.try_pop() {
                Pop::Item(inbound) => conns.push(adopt(inbound, ctl, chaos)),
                Pop::Closed => {
                    overflow_closed = true;
                    break;
                }
                Pop::Empty => break,
            }
        }
        // Steal from sibling mailboxes: the round-robin acceptor parks
        // connections behind a specific worker, and a worker mid-stall
        // (simulated work, an injected pause) would otherwise make its
        // mailbox wait out the entire straggle while idle siblings park
        // (the acceptor wakes the next sibling of a busy owner). Closed
        // siblings are their owner's business — only items are taken.
        for (i, sib) in lanes.iter().enumerate() {
            if i == me || conns.len() >= MAX_OWNED_CONNS {
                continue;
            }
            if let Pop::Item(inbound) = sib.mailbox.try_pop() {
                conns.push(adopt(inbound, ctl, chaos));
            }
        }
        if conns.is_empty() && mailbox_closed && overflow_closed {
            return;
        }
        // Service every owned connection once, run-to-completion.
        let mut progress = false;
        let mut i = 0;
        while i < conns.len() {
            let (moved, keep) =
                service_conn(registry, &mut conns[i], &mut scratch, cfg, ctl, chaos);
            progress |= moved;
            if keep {
                i += 1;
            } else {
                drop(conns.swap_remove(i));
            }
        }
        if !progress {
            park(lane, &conns, &mut fds, cfg);
        }
    }
}

/// Parks an idle worker in `poll` until its waker is poked (a hand-off,
/// an overflow push, the drain), an owned connection that can still
/// read has bytes or a hang-up, or the earliest slow-loris deadline
/// passes. The waker is drained only after it fired and before the
/// caller re-scans the queues, so a wake can never be lost.
fn park(lane: &Lane, conns: &[ConnState], fds: &mut Vec<PollFd>, cfg: &ServeConfig) {
    fds.clear();
    fds.push(PollFd::readable(lane.waker.fd()));
    let mut wake_at: Option<Instant> = None;
    for conn in conns {
        if !conn.eof && !conn.dead && conn.pending.len() < cfg.batch_max.max(1) {
            fds.push(PollFd::readable(conn.stream.as_raw_fd()));
        }
        if let Some(since) = conn.partial_since {
            let at = since + cfg.deadline;
            wake_at = Some(wake_at.map_or(at, |w| w.min(at)));
        }
    }
    let timeout = wake_at.map(|at| at.saturating_duration_since(Instant::now()));
    lane.parked.store(true, Ordering::SeqCst);
    let _ = oblivion_signal::poll(fds, timeout);
    lane.parked.store(false, Ordering::SeqCst);
    if fds[0].ready() {
        lane.waker.drain();
    }
}

fn adopt(inbound: Inbound, ctl: &Control, chaos: Option<&ChaosPlan>) -> ConnState {
    ctl.stats.conn_dequeued();
    let _ = inbound.stream.set_nonblocking(true);
    ConnState {
        stream: inbound.stream,
        fb: wire::FrameBuf::new(MAX_REQUEST_LINE),
        pending: VecDeque::new(),
        accepted_at: inbound.accepted_at,
        adopted_at: Instant::now(),
        accept_us: inbound.accept_us,
        conn_phases_recorded: false,
        partial_since: None,
        reset_after: chaos.and_then(|p| p.conn_reset()),
        answered: 0,
        eof: false,
        dead: false,
    }
}

/// One service pass over a connection: read + frame, dispatch a burst,
/// apply deadline/EOF/drain close rules. Returns `(made_progress,
/// keep_connection)`.
fn service_conn<'a>(
    registry: &'a Registry<'a>,
    conn: &mut ConnState,
    scratch: &mut Scratch<'a>,
    cfg: &ServeConfig,
    ctl: &Control,
    chaos: Option<&ChaosPlan>,
) -> (bool, bool) {
    let mut progress = false;
    // 1. Read whatever the socket has and frame it. New lines are
    //    admitted (enter the conservation ledger) the moment they are
    //    framed, stamped with their frame time for per-line deadlines.
    if !conn.eof && !conn.dead && conn.pending.len() < cfg.batch_max.max(1) {
        let mut chunk = [0u8; READ_CHUNK];
        match (&mut (&conn.stream)).read(&mut chunk) {
            Ok(0) => {
                conn.eof = true;
                progress = true;
            }
            Ok(n) => {
                progress = true;
                conn.fb.extend(&chunk[..n]);
                let framed_at = Instant::now();
                let mut fresh: u64 = 0;
                while let Some(f) = conn.fb.next_line() {
                    conn.pending.push_back((f, framed_at));
                    fresh += 1;
                }
                if conn.fb.has_partial() {
                    conn.partial_since.get_or_insert(framed_at);
                } else {
                    conn.partial_since = None;
                }
                if fresh > 0 {
                    ctl.stats.admit(fresh);
                    if !conn.conn_phases_recorded {
                        conn.conn_phases_recorded = true;
                        ctl.stats.record_phase(Phase::Accept, conn.accept_us);
                        ctl.stats.record_phase(
                            Phase::QueueWait,
                            duration_us(
                                conn.adopted_at.saturating_duration_since(conn.accepted_at),
                            ),
                        );
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                progress = true;
            }
        }
    }
    // 1b. Chaos reset: a connection whose seed-derived schedule says
    //     "die after `k` answers" is killed the moment it has answered
    //     `k` lines with more admitted and waiting — a mid-pipeline
    //     reset. The close rules below settle its pending lines as
    //     `io_errors`, exactly like an organically dead peer.
    if !conn.dead && !conn.pending.is_empty() {
        if let Some(k) = conn.reset_after {
            if conn.answered >= k {
                conn.dead = true;
                ctl.stats.chaos_event(ChaosEvent::Reset);
                progress = true;
            }
        }
    }
    // 2. Dispatch a burst of pending lines.
    if !conn.dead && !conn.pending.is_empty() {
        progress = true;
        dispatch_burst(registry, conn, scratch, cfg, ctl, chaos);
    }
    // 3. The slow-loris clock: a partial line with nothing answerable
    //    pending that outlives the deadline settles as one
    //    deadline-exceeded unit and closes the connection.
    if !conn.dead && !conn.eof && conn.pending.is_empty() {
        if let Some(since) = conn.partial_since {
            if Instant::now() >= since + cfg.deadline {
                ctl.stats.admit(1);
                ctl.stats.settle_batch(Counter::DeadlineExceeded, 1);
                let _ = write_nonblocking(
                    &conn.stream,
                    wire::format_err_line(ErrorKind::DeadlineExceeded, "").as_bytes(),
                    Instant::now() + Duration::from_millis(100),
                );
                ctl.stats.conn_closed();
                return (true, false);
            }
        }
    }
    // 4. Close rules.
    if conn.dead {
        // Admitted-but-unanswered lines settle as I/O errors; a partial
        // line was never admitted and owes the ledger nothing.
        let unanswered = conn.pending.len() as u64;
        ctl.stats.settle_batch(Counter::IoError, unanswered);
        conn.pending.clear();
        ctl.stats.conn_closed();
        return (true, false);
    }
    if conn.eof && conn.pending.is_empty() {
        if conn.fb.has_partial() {
            // The peer hung up mid-line: one bad-request unit.
            ctl.stats.admit(1);
            ctl.stats.settle_batch(Counter::BadRequest, 1);
        }
        // A clean keep-alive close after the last reply is zero units.
        ctl.stats.conn_closed();
        return (true, false);
    }
    if ctl.drain_until.get().is_some() && conn.pending.is_empty() && !conn.fb.has_partial() {
        // Draining and this connection is idle: close it so the worker
        // can exit; clients see EOF and reconnect elsewhere.
        ctl.stats.conn_closed();
        return (true, false);
    }
    (progress, true)
}

/// Parses one request line already resolved to a live tenant. Probes
/// answer from the global ledger and stay unattributed; `PATH` lines
/// (and unparseable ones) are attributed to the tenant and charged
/// against its quota share — an over-quota line sheds `ERR OVERLOADED`
/// for this tenant alone, which is the isolation the quota exists for.
#[allow(clippy::too_many_arguments)]
fn parse_on_tenant<'a>(
    req: &str,
    tenant: Arc<Tenant<'a>>,
    line_deadline: Instant,
    latest_path_deadline: &mut Option<Instant>,
    cfg: &ServeConfig,
    ctl: &Control,
    chaos: Option<&ChaosPlan>,
    chaos_stall: &mut Duration,
    chaos_pause: &mut Duration,
    chaos_slow_write: &mut bool,
) -> Slot<'a> {
    match wire::parse_request(req, tenant.router().mesh()) {
        // Probes are also served here on the request port (subject to
        // admission); the health listener serves them admission-free.
        Ok(probe @ (Request::Health | Request::Ready | Request::Metrics)) => Slot::Done {
            reply: probe_reply(&probe, cfg, ctl),
            bucket: Counter::Completed,
            tenant: None,
        },
        Ok(Request::Path { seed, src, dst, id }) => {
            ctl.stats.tenant_admit(tenant.id(), 1);
            if !tenant.begin() {
                // Over this tenant's quota (rate or share): shed for
                // this tenant only; other meshes never see it.
                Slot::Done {
                    reply: wire::format_err_line_with_id(ErrorKind::Overloaded, id.as_deref(), ""),
                    bucket: Counter::ShedOverloaded,
                    tenant: Some(tenant),
                }
            } else if Instant::now() >= line_deadline {
                // Stale before we even routed it (overload backed the
                // pipeline up).
                Slot::Done {
                    reply: wire::format_err_line_with_id(
                        ErrorKind::DeadlineExceeded,
                        id.as_deref(),
                        "",
                    ),
                    bucket: Counter::DeadlineExceeded,
                    tenant: Some(tenant),
                }
            } else {
                *latest_path_deadline =
                    Some(latest_path_deadline.map_or(line_deadline, |d| d.max(line_deadline)));
                // Chaos decisions key on the wire seed mixed with the
                // trace id, so the same request stream injects the
                // same events in any worker interleaving (the
                // determinism test's contract), while retries and
                // hedged duplicates draw independently. Concurrent
                // injections fold like concurrent stragglers: the
                // burst takes the max, each marked request still
                // counts its own event.
                if let Some(plan) = chaos {
                    let ckey = crate::chaos::request_key(seed, id.as_deref());
                    if let Some(d) = plan.stall(ckey) {
                        *chaos_stall = (*chaos_stall).max(d);
                        ctl.stats.chaos_event(ChaosEvent::Stall);
                    }
                    if let Some(d) = plan.worker_pause(ckey) {
                        *chaos_pause = (*chaos_pause).max(d);
                        ctl.stats.chaos_event(ChaosEvent::WorkerPause);
                    }
                    if plan.slow_write(ckey) {
                        *chaos_slow_write = true;
                        ctl.stats.chaos_event(ChaosEvent::SlowWrite);
                    }
                }
                Slot::Route {
                    q: PathQuery { seed, src, dst },
                    id,
                    deadline: line_deadline,
                    qi: usize::MAX,
                    tenant,
                }
            }
        }
        Err(detail) => {
            // A malformed line mid-pipeline answers in order with its
            // ID when salvageable; the stream stays in sync. It is
            // attributed (and charged) like any other line the tenant's
            // client sent.
            ctl.stats.tenant_admit(tenant.id(), 1);
            let _ = tenant.begin();
            let id = salvage_id(req);
            Slot::Done {
                reply: wire::format_err_line_with_id(ErrorKind::BadRequest, id.as_deref(), &detail),
                bucket: Counter::BadRequest,
                tenant: Some(tenant),
            }
        }
    }
}

/// Answers up to `batch_max` pending lines in one pass: parse them all
/// (resolving each line's `MESH` prefix against the registry and
/// charging its tenant's quota), run the simulated work *once*, route
/// every live `PATH` query through `route_batch` grouped by tenant,
/// then write every reply — in request order — with a single syscall.
fn dispatch_burst<'a>(
    registry: &'a Registry<'a>,
    conn: &mut ConnState,
    scratch: &mut Scratch<'a>,
    cfg: &ServeConfig,
    ctl: &Control,
    chaos: Option<&ChaosPlan>,
) {
    let n = conn.pending.len().min(cfg.batch_max.max(1));
    // Chaos accumulators for this burst: per-request decisions are made
    // (and counted) at parse time; the injections apply burst-wide,
    // mirroring how `cfg.work` amortizes over the batch.
    let mut chaos_stall = Duration::ZERO;
    let mut chaos_pause = Duration::ZERO;
    let mut chaos_slow_write = false;
    let drain_expired = ctl
        .drain_until
        .get()
        .is_some_and(|until| Instant::now() >= *until);
    let parse_started = Instant::now();
    scratch.slots.clear();
    let mut latest_path_deadline: Option<Instant> = None;
    // Per-burst resolution memo: pipelined bursts overwhelmingly name
    // one mesh (usually none), so the registry's read lock is taken
    // once per burst, not once per line.
    let mut memo: Option<(Option<String>, Resolved<'a>)> = None;
    for _ in 0..n {
        let Some((framed, framed_at)) = conn.pending.pop_front() else {
            break;
        };
        let line_deadline = framed_at + cfg.deadline;
        let slot = match framed {
            Framed::Bad(detail) => Slot::Done {
                reply: wire::format_err_line(ErrorKind::BadRequest, detail),
                bucket: Counter::BadRequest,
                tenant: None,
            },
            Framed::Line(line) => {
                if drain_expired {
                    // Past the drain budget: typed rejection, not
                    // silence — with the ID echoed when salvageable.
                    let id = salvage_id(&line);
                    Slot::Done {
                        reply: wire::format_err_line_with_id(
                            ErrorKind::ShuttingDown,
                            id.as_deref(),
                            "",
                        ),
                        bucket: Counter::DrainRejected,
                        tenant: None,
                    }
                } else {
                    match wire::split_mesh_prefix(&line) {
                        Err(detail) => {
                            let id = salvage_id(&line);
                            Slot::Done {
                                reply: wire::format_err_line_with_id(
                                    ErrorKind::BadRequest,
                                    id.as_deref(),
                                    &detail,
                                ),
                                bucket: Counter::BadRequest,
                                tenant: None,
                            }
                        }
                        Ok((mesh_id, req)) => {
                            let resolved = match &memo {
                                Some((key, res)) if key.as_deref() == mesh_id => res.clone(),
                                _ => {
                                    let res = registry.resolve(mesh_id);
                                    memo = Some((mesh_id.map(str::to_string), res.clone()));
                                    res
                                }
                            };
                            match resolved {
                                Resolved::Unknown => {
                                    // Never attributed: there is no
                                    // tenant to charge.
                                    let id = salvage_id(&line);
                                    Slot::Done {
                                        reply: wire::format_err_line_with_id(
                                            ErrorKind::UnknownMesh,
                                            id.as_deref(),
                                            "",
                                        ),
                                        bucket: Counter::UnknownMesh,
                                        tenant: None,
                                    }
                                }
                                Resolved::Retired => {
                                    // Attributed to the retired id's
                                    // ledger in one atomic transition
                                    // (nothing routes, so it is never
                                    // in flight for the tenant).
                                    let id = salvage_id(&line);
                                    if let Some(mid) = mesh_id {
                                        ctl.stats.tenant_mesh_retired(mid, 1);
                                    }
                                    Slot::Done {
                                        reply: wire::format_err_line_with_id(
                                            ErrorKind::MeshRetired,
                                            id.as_deref(),
                                            "",
                                        ),
                                        bucket: Counter::MeshRetired,
                                        tenant: None,
                                    }
                                }
                                Resolved::Live(tenant) => parse_on_tenant(
                                    req,
                                    tenant,
                                    line_deadline,
                                    &mut latest_path_deadline,
                                    cfg,
                                    ctl,
                                    chaos,
                                    &mut chaos_stall,
                                    &mut chaos_pause,
                                    &mut chaos_slow_write,
                                ),
                            }
                        }
                    }
                }
            }
        };
        scratch.slots.push(slot);
    }
    ctl.stats
        .record_phase(Phase::Parse, elapsed_us(parse_started));
    // Injected worker pause: deliberately *uncapped* — a stopped worker
    // does not honor deadlines, and every connection this worker owns
    // waits it out. Lines it pushes past their deadline settle as
    // deadline-exceeded through the post-work sweep below.
    if !chaos_pause.is_zero() {
        std::thread::sleep(chaos_pause); // ci-allow-sleep: the injected worker pause is the stall
    }
    // Simulated service time: one sleep per burst, not per line — the
    // amortization that pipelined dispatch exists to buy. An injected
    // compute stall extends it. Capped by the latest live deadline so
    // an overloaded (or stalled) burst still answers: that is why
    // injected stalls settle as completions, never leak.
    let route_started = Instant::now();
    if let Some(latest) = latest_path_deadline {
        let service = cfg.work + chaos_stall;
        if !service.is_zero() {
            let service = service.min(latest.saturating_duration_since(Instant::now()));
            std::thread::sleep(service); // ci-allow-sleep: simulated service time
        }
    }
    // Post-work expiry check, then batch-route the survivors grouped
    // by tenant — one `route_batch` call per distinct mesh in
    // first-appearance order, so a single-tenant burst (the only kind
    // prefix-free traffic produces) is exactly one call over the slots
    // in request order, identical to the single-mesh server. Each
    // query reseeds from its own wire seed inside `route_batch`, so
    // batched answers stay byte-identical to single-shot routing.
    let now = Instant::now();
    for slot in &mut scratch.slots {
        let expired = matches!(&*slot, Slot::Route { deadline, .. } if now >= *deadline);
        if expired {
            if let Slot::Route { id, tenant, .. } = &*slot {
                let done = Slot::Done {
                    reply: wire::format_err_line_with_id(
                        ErrorKind::DeadlineExceeded,
                        id.as_deref(),
                        "",
                    ),
                    bucket: Counter::DeadlineExceeded,
                    tenant: Some(Arc::clone(tenant)),
                };
                *slot = done;
            }
        }
    }
    scratch.queries.clear();
    scratch.routed.clear();
    let mut burst_tenants: Vec<Arc<Tenant<'a>>> = Vec::new();
    for slot in &scratch.slots {
        if let Slot::Route { tenant, .. } = slot {
            if !burst_tenants.iter().any(|t| Arc::ptr_eq(t, tenant)) {
                burst_tenants.push(Arc::clone(tenant));
            }
        }
    }
    for group in &burst_tenants {
        let base = scratch.queries.len();
        for slot in &mut scratch.slots {
            if let Slot::Route { q, qi, tenant, .. } = slot {
                if Arc::ptr_eq(tenant, group) {
                    *qi = scratch.queries.len();
                    scratch.queries.push(q.clone());
                }
            }
        }
        group
            .router()
            .route_batch(&scratch.queries[base..], &mut scratch.group);
        scratch.routed.append(&mut scratch.group);
    }
    ctl.stats
        .record_phase(Phase::RouteCompute, elapsed_us(route_started));
    // Assemble the burst's replies in request order and write them with
    // one syscall.
    scratch.reply.clear();
    // completed, bad, deadline, drain, shed, unknown_mesh, mesh_retired
    let mut settled = [0u64; 7];
    for slot in &scratch.slots {
        match slot {
            Slot::Done { reply, bucket, .. } => {
                scratch.reply.push_str(reply);
                match bucket {
                    Counter::Completed => settled[0] += 1,
                    Counter::BadRequest => settled[1] += 1,
                    Counter::DeadlineExceeded => settled[2] += 1,
                    Counter::ShedOverloaded => settled[4] += 1,
                    Counter::UnknownMesh => settled[5] += 1,
                    Counter::MeshRetired => settled[6] += 1,
                    _ => settled[3] += 1,
                }
            }
            Slot::Route { id, qi, tenant, .. } => {
                let routed = &scratch.routed[*qi];
                wire::push_path_line(
                    &mut scratch.reply,
                    &routed.path,
                    tenant.router().mesh().dim(),
                    id.as_deref(),
                );
                settled[0] += 1;
            }
        }
    }
    let write_started = Instant::now();
    let write_deadline = Instant::now() + cfg.deadline;
    let wrote = match chaos {
        // Injected slow write: the burst's reply goes out in two chunks
        // with a stall between them — a mid-line partial write, exactly
        // what a congested peer socket produces. The split point is the
        // byte middle (protocol lines are ASCII; the boundary walk is
        // cheap insurance), so the first chunk usually ends mid-line.
        Some(plan) if chaos_slow_write && scratch.reply.len() > 1 => {
            let mut mid = scratch.reply.len() / 2;
            while !scratch.reply.is_char_boundary(mid) {
                mid += 1;
            }
            let (head, tail) = scratch.reply.as_bytes().split_at(mid);
            write_nonblocking(&conn.stream, head, write_deadline).and_then(|()| {
                let stall = plan
                    .write_stall()
                    .min(write_deadline.saturating_duration_since(Instant::now()));
                std::thread::sleep(stall); // ci-allow-sleep: the injected slow-write stall
                write_nonblocking(&conn.stream, tail, write_deadline)
            })
        }
        _ => write_nonblocking(&conn.stream, scratch.reply.as_bytes(), write_deadline),
    };
    match wrote {
        Ok(()) => {
            conn.answered += scratch.slots.len() as u64;
            ctl.stats
                .record_phase(Phase::ReplyWrite, elapsed_us(write_started));
            ctl.stats.settle_batch(Counter::Completed, settled[0]);
            ctl.stats.settle_batch(Counter::BadRequest, settled[1]);
            ctl.stats
                .settle_batch(Counter::DeadlineExceeded, settled[2]);
            ctl.stats.settle_batch(Counter::DrainRejected, settled[3]);
            ctl.stats.settle_batch(Counter::ShedOverloaded, settled[4]);
            ctl.stats.settle_batch(Counter::UnknownMesh, settled[5]);
            ctl.stats.settle_batch(Counter::MeshRetired, settled[6]);
            settle_tenants(ctl, &scratch.slots, None);
        }
        Err(_) => {
            // The peer is gone: nothing in this burst is known
            // delivered, so the whole burst settles as I/O errors and
            // the close path below sweeps any still-pending lines.
            ctl.stats.settle_batch(Counter::IoError, n as u64);
            settle_tenants(ctl, &scratch.slots, Some(Counter::IoError));
            conn.dead = true;
        }
    }
}

/// Writes all of `bytes` to a nonblocking socket. Usually that is one
/// `write(2)`; only when the kernel send buffer is full does it park in
/// `poll` for writability, each wait lasting until `deadline` (at least
/// [`MIN_WRITE_WAIT`]) before giving up with `TimedOut`.
fn write_nonblocking(
    stream: &TcpStream,
    mut bytes: &[u8],
    deadline: Instant,
) -> std::io::Result<()> {
    while !bytes.is_empty() {
        match (&mut &*stream).write(bytes) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                let give_up = deadline.max(Instant::now() + MIN_WRITE_WAIT);
                let mut fds = [PollFd::writable(stream.as_raw_fd())];
                loop {
                    let left = give_up.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Err(std::io::ErrorKind::TimedOut.into());
                    }
                    if oblivion_signal::poll(&mut fds, Some(left))? > 0 {
                        break;
                    }
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Settles every tenant-attributed slot of a burst into its tenant
/// ledger and releases its quota share, aggregating consecutive runs of
/// the same `(tenant, bucket)` into one ledger transition. `force`
/// overrides the per-slot bucket (the whole-burst I/O-error path: an
/// unwritable reply is an `io_error` for its tenant too).
fn settle_tenants(ctl: &Control, slots: &[Slot<'_>], force: Option<Counter>) {
    let mut run: Option<(&Arc<Tenant<'_>>, Counter, u64)> = None;
    for slot in slots {
        let Some(tenant) = slot.tenant() else {
            continue;
        };
        tenant.end();
        let bucket = force.unwrap_or_else(|| slot.bucket());
        match &mut run {
            Some((t, b, count)) if Arc::ptr_eq(t, tenant) && *b == bucket => *count += 1,
            _ => {
                if let Some((t, b, count)) = run.take() {
                    ctl.stats.tenant_settle(t.id(), b, count);
                }
                run = Some((tenant, bucket, 1));
            }
        }
    }
    if let Some((t, b, count)) = run {
        ctl.stats.tenant_settle(t.id(), b, count);
    }
}

/// Microseconds since `t`, saturating.
fn elapsed_us(t: Instant) -> u64 {
    duration_us(t.elapsed())
}

/// A duration in whole microseconds, saturating.
fn duration_us(d: Duration) -> u64 {
    d.as_micros().min(u128::from(u64::MAX)) as u64
}

/// Pulls a valid `id=<token>` out of a request line that failed to
/// parse, so the rejection can still be correlated client-side.
fn salvage_id(line: &str) -> Option<String> {
    line.split_ascii_whitespace()
        .filter_map(|tok| tok.strip_prefix("id="))
        .find(|id| wire::valid_request_id(id))
        .map(str::to_string)
}

/// The background stats flusher: appends one `{"type":"serve_stats"}`
/// JSONL line per interval to `stats_path` (only when something
/// changed), plus a final line the moment the drain completes
/// (`drained_fd` is that latch). A crash therefore loses at most one
/// interval of telemetry; everything before it is already on disk.
fn flusher_loop(cfg: &ServeConfig, ctl: &Control, drained_fd: RawFd) {
    let (Some(every), Some(path)) = (cfg.stats_every, cfg.stats_path.as_ref()) else {
        return;
    };
    let mut file = match std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
    {
        Ok(f) => f,
        Err(e) => {
            eprintln!("serve: stats flusher cannot open {}: {e}", path.display());
            return;
        }
    };
    let mut last_digest: Option<(u64, u64, u64)> = None;
    let mut next_flush = Instant::now() + every;
    loop {
        let draining = ctl.drained();
        if Instant::now() >= next_flush || draining {
            next_flush = Instant::now() + every;
            let snap = ctl.stats.snapshot();
            let digest = (
                snap.accepted,
                snap.settled() + snap.health_probes,
                snap.phases.iter().map(|(_, h)| h.count).sum(),
            );
            if last_digest != Some(digest) {
                last_digest = Some(digest);
                let line = serve_stats_json(&snap, ctl.uptime());
                if writeln!(file, "{line}").is_err() {
                    return; // disk gone; stop burning the crew slot
                }
                let _ = file.flush();
            }
            if draining {
                return;
            }
        }
        let mut fds = [PollFd::readable(drained_fd)];
        let _ = oblivion_signal::poll(
            &mut fds,
            Some(next_flush.saturating_duration_since(Instant::now())),
        );
    }
}

/// One flushed snapshot as a JSONL object (cumulative, not a delta on
/// the wire — deltas are trivially derivable and cumulative lines stay
/// meaningful when an interval is lost to a crash).
fn serve_stats_json(snap: &StatsSnapshot, uptime: Duration) -> String {
    let mut obj = Json::obj();
    obj.set("type", "serve_stats").set(
        "uptime_ms",
        uptime.as_millis().min(u128::from(u64::MAX)) as u64,
    );
    for s in &SERIES {
        obj.set(format!("serve_{}", s.name), (s.get)(snap));
    }
    for phase in Phase::ALL {
        obj.set(
            phase.series(),
            oblivion_obs::histogram_json("histogram", phase.name(), snap.phase(phase)),
        );
    }
    obj.to_string()
}

/// The reply to a probe verb (`HEALTH`, `READY` or `METRICS`): one
/// function for the request port and the health listener, so both
/// answer byte-identically.
fn probe_reply(probe: &Request, cfg: &ServeConfig, ctl: &Control) -> String {
    match probe {
        Request::Health => {
            let snap = ctl.stats.snapshot();
            format!(
                "OK healthy accepted={} completed={} shed={} queue_depth={}\n",
                snap.accepted, snap.completed, snap.shed_overloaded, snap.queue_depth
            )
        }
        Request::Ready if ctl.shutdown_requested(cfg) => {
            wire::format_err_line(ErrorKind::ShuttingDown, "")
        }
        Request::Ready => "OK ready\n".to_string(),
        Request::Metrics => render_exposition(&ctl.stats.snapshot(), ctl.uptime()),
        Request::Path { .. } => unreachable!("PATH is routed, not a probe"),
    }
}

/// The dedicated probe listener: single-threaded, admission-free, with
/// aggressively short timeouts so a stalled prober cannot wedge it for
/// long. Runs until the workers have drained, so probes still answer
/// (READY → `ERR SHUTTING_DOWN`) during the drain window. `METRICS` is
/// served here precisely because it bypasses admission: the telemetry
/// stays scrapeable when the request port is shedding. The `ADMIN`
/// verbs live here for the same reason — an operator must be able to
/// add or retire a mesh while the request port is melting down.
///
/// Between probes it parks on the listener plus the one event that
/// changes what it does next: the shutdown latches until shutdown, then
/// the drained latch (a latch it has seen is never polled again, or the
/// loop would spin).
fn health_loop<'a>(
    listener: &TcpListener,
    registry: &'a Registry<'a>,
    cfg: &ServeConfig,
    ctl: &Control,
    shutdown_fds: &[RawFd],
    latches: &Latches,
) {
    let probe_budget = Duration::from_millis(250);
    let mut fds: Vec<PollFd> = Vec::with_capacity(1 + shutdown_fds.len());
    loop {
        // Probes keep answering through the drain window (READY says
        // `ERR SHUTTING_DOWN`); the loop exits with the crew once the
        // acceptor has stamped the drain and the workers are done.
        if ctl.drained() {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                ctl.stats.health_probe();
                let deadline = Instant::now() + probe_budget;
                let _ = stream.set_nodelay(true);
                let reply = match wire::read_line(&stream, MAX_REQUEST_LINE, deadline) {
                    Ok(line) => match line.trim() {
                        "HEALTH" => probe_reply(&Request::Health, cfg, ctl),
                        "READY" => probe_reply(&Request::Ready, cfg, ctl),
                        "METRICS" => probe_reply(&Request::Metrics, cfg, ctl),
                        line => match line.strip_prefix("ADMIN ") {
                            Some(verb) => handle_admin(verb.trim(), registry, ctl),
                            None => wire::format_err_line(
                                ErrorKind::BadRequest,
                                "health port accepts HEALTH|READY|METRICS|ADMIN ...",
                            ),
                        },
                    },
                    Err(_) => wire::format_err_line(ErrorKind::BadRequest, "no probe line"),
                };
                let _ = wire::write_line(&stream, &reply, deadline);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => {
                fds.clear();
                fds.push(PollFd::readable(listener.as_raw_fd()));
                if ctl.shutdown_requested(cfg) {
                    fds.push(PollFd::readable(latches.drained.fd()));
                } else {
                    fds.extend(shutdown_fds.iter().copied().map(PollFd::readable));
                }
                if e.kind() == std::io::ErrorKind::WouldBlock {
                    let _ = oblivion_signal::poll(&mut fds, None);
                } else {
                    // Transient accept failure: back off on the latch
                    // alone, since the listener may stay readable.
                    let _ = oblivion_signal::poll(&mut fds[1..], Some(ACCEPT_BACKOFF));
                }
            }
        }
    }
}

/// One `ADMIN` verb against the live registry (always a single reply
/// line):
///
/// ```text
/// ADMIN LIST                          -> OK meshes <id>:<live|retired>:<state_bytes> ...
/// ADMIN ADD <id> <mesh-spec> <router> -> OK added <id> state_bytes=<n>
/// ADMIN RETIRE <id>                   -> OK retired <id>
/// ```
///
/// `ADD` builds the router by its CLI name (torus topology is implied
/// by `busch-torus`); a revived id starts a fresh ledger-state gauge,
/// `RETIRE` zeroes it — the freed memory is visible in the next scrape.
fn handle_admin<'a>(verb: &str, registry: &'a Registry<'a>, ctl: &Control) -> String {
    let mut it = verb.split_ascii_whitespace();
    let result = match it.next() {
        Some("LIST") => {
            let rows: Vec<String> = registry
                .list()
                .into_iter()
                .map(|(id, live, bytes)| {
                    format!("{id}:{}:{bytes}", if live { "live" } else { "retired" })
                })
                .collect();
            Ok(format!("meshes {}", rows.join(" ")))
        }
        Some("ADD") => match (it.next(), it.next(), it.next(), it.next()) {
            (Some(id), Some(spec), Some(router), None) => {
                parse_mesh_spec(spec, implies_torus(router))
                    .and_then(|mesh| build_router(router, &mesh))
                    .and_then(|r| registry.add(id, RouterHandle::Owned(r)))
                    .map(|bytes| {
                        ctl.stats.set_tenant_state_bytes(id, bytes);
                        format!("added {id} state_bytes={bytes}")
                    })
            }
            _ => Err("usage: ADMIN ADD <id> <mesh-spec> <router>".into()),
        },
        Some("RETIRE") => match (it.next(), it.next()) {
            (Some(id), None) => registry.retire(id).map(|()| {
                ctl.stats.set_tenant_state_bytes(id, 0);
                format!("retired {id}")
            }),
            _ => Err("usage: ADMIN RETIRE <id>".into()),
        },
        _ => Err("ADMIN verbs: LIST | ADD <id> <mesh-spec> <router> | RETIRE <id>".into()),
    };
    match result {
        Ok(payload) => format!("OK {payload}\n"),
        Err(detail) => wire::format_err_line(ErrorKind::BadRequest, &detail),
    }
}
