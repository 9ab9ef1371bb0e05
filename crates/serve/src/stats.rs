//! Request accounting with a conservation law: live gauges and
//! per-phase latency histograms behind one consistent-snapshot lock.
//!
//! The unit of account is the **request line**, not the connection:
//! with keep-alive pipelining one socket carries many requests, and
//! every request line the server admits is counted exactly once in
//! exactly one terminal bucket, so at any quiescent point:
//!
//! ```text
//! accepted = completed + bad_request + shed_overloaded
//!          + deadline_exceeded + drain_rejected + io_errors
//! ```
//!
//! A request line is *admitted* ([`ServeStats::admit`]) the moment a
//! worker frames it off the socket; a connection turned away whole at
//! admission contributes one shed unit (it carried at least an attempt);
//! an idle keep-alive connection that closes cleanly between requests
//! contributes none. Socket-level churn is tracked by separate
//! `conns_opened` / `conns_closed` counters and the `open_conns` gauge
//! **outside** the law.
//!
//! The live form of the law holds at *every* instant, not just at
//! quiescence: `accepted = settled + connections`, where `connections`
//! is the gauge of admitted-but-unsettled request units. All transitions
//! are applied atomically under a single mutex, and
//! [`ServeStats::snapshot`] copies the whole ledger under that same
//! mutex — so a `METRICS` scrape taken mid-stampede can never observe a
//! half-applied transition, even when a worker settles a 64-deep
//! pipeline burst in one call. [`StatsSnapshot::check`] is the one
//! implementation of the law: the soak tests run it on live scrapes,
//! `oblivion top --check` on every frame, and `serve` on its drained
//! ledger.
//!
//! This ledger is serve's only one. [`SERIES`] and [`TENANT_SERIES`]
//! name its fields once for every rendering: the `METRICS` exposition
//! and its parser, the flusher's `serve_stats` JSONL line, and the final
//! `--metrics-out` report.
//!
//! Lock cost: two-to-four uncontended mutex acquisitions per request,
//! nanoseconds against a syscall-bound request path — consistency is
//! worth far more here than lock-free increments that can tear.

use crate::Histogram;
use std::fmt;
use std::sync::Mutex;

/// The explicit phases a served request moves through, each timed into
/// its own histogram (microseconds). A phase observation covers at
/// least one admitted request unit — per-connection phases (accept,
/// queue wait) are recorded with the connection's first unit, per-burst
/// phases (parse, route, format, write) once per non-empty burst — so
/// every phase count is `<= accepted`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Accept to enqueue: the acceptor's own handling time.
    Accept,
    /// Enqueue to worker pickup: time spent waiting in the admission
    /// queue.
    QueueWait,
    /// Reading and parsing the request line.
    Parse,
    /// Selecting the path (including any simulated service time).
    RouteCompute,
    /// Assembling the burst's reply lines.
    ReplyFormat,
    /// Writing the reply bytes.
    ReplyWrite,
}

/// Number of request phases.
pub const PHASE_COUNT: usize = 6;

impl Phase {
    /// Every phase, in hot-path order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::Accept,
        Phase::QueueWait,
        Phase::Parse,
        Phase::RouteCompute,
        Phase::ReplyFormat,
        Phase::ReplyWrite,
    ];

    /// Short phase name (also the `METRICS` exposition label).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Accept => "accept",
            Phase::QueueWait => "queue_wait",
            Phase::Parse => "parse",
            Phase::RouteCompute => "route_compute",
            Phase::ReplyFormat => "reply_format",
            Phase::ReplyWrite => "reply_write",
        }
    }

    /// The phase's histogram series: `oblivion_serve_<series>` in
    /// `METRICS`, the `<series>` key of a `serve_stats` line and of the
    /// `serve` run report.
    pub fn series(self) -> String {
        format!("phase_{}_us", self.name())
    }
}

/// The terminal buckets of the conservation law, plus bookkeeping
/// counters — a typed handle so call sites can't typo a bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Request units admitted (framed lines, plus one per connection
    /// turned away whole).
    Accepted,
    /// Requests answered with `OK` (paths and probes).
    Completed,
    /// Requests answered `ERR BAD_REQUEST`.
    BadRequest,
    /// Requests rejected `ERR OVERLOADED` at admission (queues full).
    ShedOverloaded,
    /// Requests answered `ERR DEADLINE_EXCEEDED`.
    DeadlineExceeded,
    /// Requests rejected `ERR SHUTTING_DOWN` after the drain budget ran
    /// out.
    DrainRejected,
    /// Requests whose connection died before an answer could be
    /// written.
    IoError,
    /// Requests answered `ERR UNKNOWN_MESH` (a `MESH <id>` prefix
    /// naming an id never registered; charged to no tenant).
    UnknownMesh,
    /// Requests answered `ERR MESH_RETIRED` (the id was live once and
    /// was retired; charged to the retired tenant's ledger).
    MeshRetired,
    /// Probes answered on the dedicated health listener (outside the
    /// conservation law — health connections bypass admission).
    HealthProbe,
}

impl Counter {
    /// This bucket's slot in a tenant ledger, when the bucket is
    /// attributable to a tenant (`Accepted`, `UnknownMesh`, and
    /// `HealthProbe` are not: accepted is counted by
    /// [`ServeStats::tenant_admit`], an unknown id has no tenant, and
    /// probes bypass admission).
    fn tenant_index(&self) -> Option<usize> {
        match self {
            Counter::Completed => Some(0),
            Counter::BadRequest => Some(1),
            Counter::ShedOverloaded => Some(2),
            Counter::DeadlineExceeded => Some(3),
            Counter::DrainRejected => Some(4),
            Counter::IoError => Some(5),
            Counter::MeshRetired => Some(6),
            Counter::Accepted | Counter::UnknownMesh | Counter::HealthProbe => None,
        }
    }
}

/// Number of per-tenant terminal buckets.
const TENANT_BUCKETS: usize = 7;

/// One tenant's slice of the ledger. Attribution happens at parse time
/// (a framed line is global the moment it is admitted, tenant-labeled
/// once its `MESH` prefix resolves), so the per-tenant live law is
/// `accepted = settled + in_flight` with *this* ledger's gauge, and the
/// sum of tenant `accepted` never exceeds the global one.
#[derive(Default, Clone)]
struct TenantLedger {
    accepted: u64,
    buckets: [u64; TENANT_BUCKETS],
    in_flight: i64,
    state_bytes: u64,
}

/// The chaos-injected event kinds (see `crate::chaos`): bookkeeping
/// counters **outside** the conservation law, like connection churn —
/// an injected stall still settles its requests as completions, an
/// injected reset settles them as `io_errors`; the chaos counters just
/// say how many events were injected, never where units went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosEvent {
    /// A per-request compute stall (fixed + heavy-tailed) was injected.
    Stall,
    /// A burst's reply was written slow, in two chunks.
    SlowWrite,
    /// A connection was killed mid-pipeline.
    Reset,
    /// A worker slept through an injected pause before dispatching.
    WorkerPause,
}

/// Number of chaos event kinds.
pub const CHAOS_EVENT_COUNT: usize = 4;

/// Everything behind the one lock. Gauges are `i64` so an accounting bug
/// shows up as a visible negative level instead of a wrapped `u64`.
#[derive(Default)]
struct Ledger {
    counters: [u64; 10],
    chaos: [u64; CHAOS_EVENT_COUNT],
    tenants: std::collections::BTreeMap<String, TenantLedger>,
    conns_opened: u64,
    conns_closed: u64,
    max_queue_depth: u64,
    queue_depth: i64,
    in_flight: i64,
    connections: i64,
    open_conns: i64,
    phases: [Histogram; PHASE_COUNT],
}

impl Ledger {
    /// Tenant `id`'s ledger row, created on its first use: the key is
    /// allocated once per tenant, not once per call.
    fn tenant(&mut self, id: &str) -> &mut TenantLedger {
        if !self.tenants.contains_key(id) {
            self.tenants.insert(id.to_string(), TenantLedger::default());
        }
        self.tenants.get_mut(id).expect("inserted above") // ci-allow-unwrap: the row was just inserted
    }
}

/// Live request accounting (see module docs for the conservation law).
#[derive(Default)]
pub struct ServeStats {
    ledger: Mutex<Ledger>,
}

impl ServeStats {
    fn lock(&self) -> std::sync::MutexGuard<'_, Ledger> {
        self.ledger.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// `n` request lines framed off a socket in one burst: they enter
    /// `accepted` and the unsettled-units gauges in a single atomic
    /// transition, so no scrape can see a half-admitted burst.
    pub fn admit(&self, n: u64) {
        if n == 0 {
            return;
        }
        let mut l = self.lock();
        l.counters[Counter::Accepted as usize] += n;
        l.connections += n as i64;
        l.in_flight += n as i64;
    }

    /// `n` admitted units settle into one terminal bucket at once — the
    /// write-side twin of [`ServeStats::admit`].
    pub fn settle_batch(&self, which: Counter, n: u64) {
        debug_assert!(
            !matches!(which, Counter::Accepted | Counter::HealthProbe),
            "settle takes a terminal bucket"
        );
        if n == 0 {
            return;
        }
        let mut l = self.lock();
        l.counters[which as usize] += n;
        l.in_flight -= n as i64;
        l.connections -= n as i64;
    }

    /// A socket came off the listener: connection-churn telemetry,
    /// outside the conservation law.
    pub fn conn_opened(&self) {
        let mut l = self.lock();
        l.conns_opened += 1;
        l.open_conns += 1;
    }

    /// A socket closed (any reason). Every [`ServeStats::conn_opened`]
    /// must be paired with exactly one close.
    pub fn conn_closed(&self) {
        let mut l = self.lock();
        l.conns_closed += 1;
        l.open_conns -= 1;
    }

    /// A worker adopted a queued connection: the queue-depth gauge
    /// falls, nothing else moves (units are admitted later, as lines are
    /// framed).
    pub fn conn_dequeued(&self) {
        self.lock().queue_depth -= 1;
    }

    /// Pre-publish half of an enqueue: bumps the queue-depth gauge
    /// *before* the job becomes visible to workers. The acceptor must
    /// call this before the push — otherwise a fast worker's
    /// [`ServeStats::conn_dequeued`] can land first and a scrape
    /// observes a negative depth. Returns the provisional depth (the
    /// in-queue count the moment the push lands).
    pub fn enqueue_started(&self) -> u64 {
        let mut l = self.lock();
        l.queue_depth += 1;
        l.queue_depth as u64
    }

    /// Commit half: the push succeeded at `depth` — record the
    /// high-water mark. Deliberately *not* folded into
    /// [`ServeStats::enqueue_started`]: a rejected push must leave the
    /// high-water mark untouched (the shed job was never in the queue).
    pub fn enqueue_committed(&self, depth: u64) {
        let mut l = self.lock();
        l.max_queue_depth = l.max_queue_depth.max(depth);
    }

    /// Rollback half: the push was rejected (every queue full), so the
    /// connection is turned away whole. In one transition the
    /// provisional depth bump is undone and the connection books one
    /// request unit, accepted and shed at once — it never reaches the
    /// `connections` gauge.
    pub fn shed_connection(&self) {
        let mut l = self.lock();
        l.queue_depth -= 1;
        l.counters[Counter::Accepted as usize] += 1;
        l.counters[Counter::ShedOverloaded as usize] += 1;
    }

    /// `n` admitted lines were attributed to tenant `id` (their `MESH`
    /// prefix resolved to a live mesh): the tenant's `accepted` and
    /// `in_flight` move together.
    pub fn tenant_admit(&self, id: &str, n: u64) {
        if n == 0 {
            return;
        }
        let mut l = self.lock();
        let t = l.tenant(id);
        t.accepted += n;
        t.in_flight += n as i64;
    }

    /// `n` tenant-attributed lines settle into one tenant bucket; the
    /// caller also settles them globally (the two ledgers share the
    /// lock but move in separate calls — each law is checked on its own
    /// ledger).
    pub fn tenant_settle(&self, id: &str, which: Counter, n: u64) {
        let Some(bucket) = which.tenant_index() else {
            debug_assert!(false, "{which:?} is not a tenant bucket");
            return;
        };
        if n == 0 {
            return;
        }
        let mut l = self.lock();
        let t = l.tenant(id);
        t.buckets[bucket] += n;
        t.in_flight -= n as i64;
    }

    /// A line naming a retired mesh: attributed and settled in one
    /// atomic transition (there is nothing to route, so the tenant
    /// never sees it in flight).
    pub fn tenant_mesh_retired(&self, id: &str, n: u64) {
        if n == 0 {
            return;
        }
        let mut l = self.lock();
        let t = l.tenant(id);
        t.accepted += n;
        t.buckets[Counter::MeshRetired.tenant_index().unwrap_or(0)] += n;
    }

    /// Publishes a tenant's routing-state gauge (at registration and
    /// `ADMIN ADD`; zeroed on retire, when the state is freed). Also
    /// materializes the tenant's ledger row, so a quiet tenant still
    /// shows in `METRICS`.
    pub fn set_tenant_state_bytes(&self, id: &str, bytes: u64) {
        let mut l = self.lock();
        l.tenant(id).state_bytes = bytes;
    }

    /// A probe answered on the health listener (outside the law).
    pub fn health_probe(&self) {
        self.lock().counters[Counter::HealthProbe as usize] += 1;
    }

    /// A chaos event was injected (outside the law — the affected
    /// request units still settle through their normal buckets).
    pub fn chaos_event(&self, event: ChaosEvent) {
        self.lock().chaos[event as usize] += 1;
    }

    /// Records one phase duration (microseconds).
    pub fn record_phase(&self, phase: Phase, us: u64) {
        self.lock().phases[phase as usize].record(us);
    }

    /// Copies the whole ledger under one lock: the returned snapshot is
    /// transition-consistent, so [`StatsSnapshot::check`] passes for
    /// every snapshot ever taken, even mid-stampede.
    pub fn snapshot(&self) -> StatsSnapshot {
        let l = self.lock();
        let counter = |c: Counter| l.counters[c as usize];
        let chaos = |e: ChaosEvent| l.chaos[e as usize];
        StatsSnapshot {
            accepted: counter(Counter::Accepted),
            completed: counter(Counter::Completed),
            bad_request: counter(Counter::BadRequest),
            shed_overloaded: counter(Counter::ShedOverloaded),
            deadline_exceeded: counter(Counter::DeadlineExceeded),
            drain_rejected: counter(Counter::DrainRejected),
            io_errors: counter(Counter::IoError),
            unknown_mesh: counter(Counter::UnknownMesh),
            mesh_retired: counter(Counter::MeshRetired),
            health_probes: counter(Counter::HealthProbe),
            tenants: l
                .tenants
                .iter()
                .map(|(id, t)| TenantSnapshot {
                    id: id.clone(),
                    accepted: t.accepted,
                    completed: t.buckets[0],
                    bad_request: t.buckets[1],
                    shed_overloaded: t.buckets[2],
                    deadline_exceeded: t.buckets[3],
                    drain_rejected: t.buckets[4],
                    io_errors: t.buckets[5],
                    mesh_retired: t.buckets[6],
                    in_flight: t.in_flight,
                    state_bytes: t.state_bytes,
                })
                .collect(),
            chaos_stalls: chaos(ChaosEvent::Stall),
            chaos_slow_writes: chaos(ChaosEvent::SlowWrite),
            chaos_resets: chaos(ChaosEvent::Reset),
            chaos_worker_pauses: chaos(ChaosEvent::WorkerPause),
            conns_opened: l.conns_opened,
            conns_closed: l.conns_closed,
            max_queue_depth: l.max_queue_depth,
            queue_depth: l.queue_depth,
            in_flight: l.in_flight,
            connections: l.connections,
            open_conns: l.open_conns,
            phases: Phase::ALL.map(|p| (p.name(), l.phases[p as usize].clone())),
        }
    }
}

/// A point-in-time, transition-consistent copy of [`ServeStats`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsSnapshot {
    /// Request units admitted: framed request lines, plus one per
    /// connection turned away whole at admission.
    pub accepted: u64,
    /// Requests answered with `OK` (paths and probes).
    pub completed: u64,
    /// Requests answered `ERR BAD_REQUEST`.
    pub bad_request: u64,
    /// Request units rejected `ERR OVERLOADED`: one per connection
    /// turned away whole at admission (every queue full), one per line
    /// shed by a tenant quota.
    pub shed_overloaded: u64,
    /// Requests answered `ERR DEADLINE_EXCEEDED`.
    pub deadline_exceeded: u64,
    /// Queued requests rejected `ERR SHUTTING_DOWN` after the drain
    /// budget ran out.
    pub drain_rejected: u64,
    /// Requests whose connection died before an answer could be written.
    pub io_errors: u64,
    /// Requests answered `ERR UNKNOWN_MESH`.
    pub unknown_mesh: u64,
    /// Requests answered `ERR MESH_RETIRED`.
    pub mesh_retired: u64,
    /// Probes answered on the dedicated health listener.
    pub health_probes: u64,
    /// Per-tenant ledger slices, sorted by mesh id.
    pub tenants: Vec<TenantSnapshot>,
    /// Chaos-injected compute stalls (outside the law).
    pub chaos_stalls: u64,
    /// Chaos-injected slow two-chunk reply writes (outside the law).
    pub chaos_slow_writes: u64,
    /// Chaos-injected mid-pipeline connection resets (outside the law).
    pub chaos_resets: u64,
    /// Chaos-injected worker pauses (outside the law).
    pub chaos_worker_pauses: u64,
    /// Sockets taken off the request listener (churn telemetry, outside
    /// the law).
    pub conns_opened: u64,
    /// Sockets closed, any reason.
    pub conns_closed: u64,
    /// High-water mark of the admission queue depth.
    pub max_queue_depth: u64,
    /// Connections currently waiting in the admission queue.
    pub queue_depth: i64,
    /// Request units currently being handled by a worker.
    pub in_flight: i64,
    /// Admitted request units not yet settled.
    pub connections: i64,
    /// Sockets currently open on the request listener.
    pub open_conns: i64,
    /// Per-phase latency histograms (microseconds), by phase name.
    pub phases: [(&'static str, Histogram); PHASE_COUNT],
}

/// A clause of the serve ledger's law, in the order
/// [`StatsSnapshot::check`] tests them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clause {
    /// A gauge is negative.
    NegativeGauge,
    /// Socket churn does not balance: `conns_opened != conns_closed +
    /// open_conns`.
    Churn,
    /// More chaos resets than sockets ever opened (a reset kills a
    /// whole connection).
    ChaosResets,
    /// Tenant attribution over-claims: the tenants' `accepted` sum to
    /// more than the global `accepted` (a line is attributed only after
    /// it was admitted).
    TenantOverClaim,
    /// The live law: `accepted != settled + connections`.
    Conservation,
    /// A phase histogram counts more events than `accepted` (each phase
    /// fires at most once per admitted unit).
    PhaseCount,
    /// A tenant's own law: `in_flight < 0` or `accepted != settled +
    /// in_flight`.
    Tenant,
}

/// The first clause a snapshot violates, with the numbers that break it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which clause failed.
    pub clause: Clause,
    /// A diagnosis naming the offending values.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.detail)
    }
}

impl StatsSnapshot {
    /// Sum of the terminal buckets every accepted unit must land in.
    pub fn settled(&self) -> u64 {
        self.settled_wide() as u64
    }

    /// [`settled`](Self::settled) without overflow: a parsed scrape's
    /// counters come from outside the program.
    fn settled_wide(&self) -> u128 {
        [
            self.completed,
            self.bad_request,
            self.shed_overloaded,
            self.deadline_exceeded,
            self.drain_rejected,
            self.io_errors,
            self.unknown_mesh,
            self.mesh_retired,
        ]
        .map(u128::from)
        .iter()
        .sum()
    }

    /// The quiescent conservation law: every accepted unit is settled.
    /// Only meaningful after drain or with no request in flight; mid-run,
    /// use [`check`](Self::check).
    pub fn conserved(&self) -> bool {
        self.accepted == self.settled()
    }

    /// The ledger's law, valid at every instant: returns the first
    /// violated [`Clause`]. It holds for every [`ServeStats::snapshot`]
    /// and for every `METRICS` scrape parsed back into a snapshot.
    pub fn check(&self) -> Result<(), Violation> {
        let fail = |clause, detail: String| Err(Violation { clause, detail });
        for s in SERIES.iter().filter(|s| s.kind == Kind::Gauge) {
            let v = (s.get)(self);
            if v < 0 {
                return fail(
                    Clause::NegativeGauge,
                    format!("gauge {} is negative: {v}", s.name),
                );
            }
        }
        let (opened, closed, open) = (self.conns_opened, self.conns_closed, self.open_conns);
        if u128::from(opened) != u128::from(closed) + open as u128 {
            return fail(
                Clause::Churn,
                format!(
                    "connection churn violated: opened {opened} != closed {closed} + open {open}"
                ),
            );
        }
        if self.chaos_resets > opened {
            return fail(
                Clause::ChaosResets,
                format!(
                    "chaos resets {} exceed connections opened {opened}",
                    self.chaos_resets
                ),
            );
        }
        let claimed: u128 = self.tenants.iter().map(|t| u128::from(t.accepted)).sum();
        if claimed > u128::from(self.accepted) {
            return fail(
                Clause::TenantOverClaim,
                format!(
                    "tenant ledgers over-claim: sum of tenant accepted {claimed} exceeds \
                     global accepted {}",
                    self.accepted
                ),
            );
        }
        if u128::from(self.accepted) != self.settled_wide() + self.connections as u128 {
            return fail(
                Clause::Conservation,
                format!(
                    "conservation violated: accepted {} != settled {} + connections {}",
                    self.accepted,
                    self.settled_wide(),
                    self.connections
                ),
            );
        }
        if let Some((name, h)) = self.phases.iter().find(|(_, h)| h.count > self.accepted) {
            return fail(
                Clause::PhaseCount,
                format!(
                    "phase {name} count {} exceeds accepted {}",
                    h.count, self.accepted
                ),
            );
        }
        for t in &self.tenants {
            if t.in_flight < 0 || u128::from(t.accepted) != t.settled_wide() + t.in_flight as u128 {
                return fail(
                    Clause::Tenant,
                    format!(
                        "tenant {} conservation violated: accepted {} != settled {} + \
                         in_flight {}",
                        t.id,
                        t.accepted,
                        t.settled_wide(),
                        t.in_flight
                    ),
                );
            }
        }
        Ok(())
    }

    /// One phase's histogram.
    pub fn phase(&self, phase: Phase) -> &Histogram {
        &self.phases[phase as usize].1
    }

    /// One tenant's ledger slice, by mesh id (`None` if the id has no
    /// row yet).
    pub fn tenant(&self, id: &str) -> Option<&TenantSnapshot> {
        self.tenants.iter().find(|t| t.id == id)
    }
}

/// A point-in-time copy of one tenant's ledger slice (same snapshot
/// consistency as the global [`StatsSnapshot`] it rides in).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantSnapshot {
    /// The mesh id.
    pub id: String,
    /// Lines attributed to this tenant (counted at parse time, once
    /// the `MESH` prefix resolved to this live mesh).
    pub accepted: u64,
    /// Attributed lines answered `OK`.
    pub completed: u64,
    /// Attributed lines answered `ERR BAD_REQUEST`.
    pub bad_request: u64,
    /// Attributed lines shed `ERR OVERLOADED` by this tenant's quota.
    pub shed_overloaded: u64,
    /// Attributed lines answered `ERR DEADLINE_EXCEEDED`.
    pub deadline_exceeded: u64,
    /// Attributed lines rejected `ERR SHUTTING_DOWN`.
    pub drain_rejected: u64,
    /// Attributed lines whose connection died before the reply.
    pub io_errors: u64,
    /// Lines naming this id after it was retired.
    pub mesh_retired: u64,
    /// Attributed-but-unsettled lines.
    pub in_flight: i64,
    /// Bytes of routing state kept alive for this tenant (zero once
    /// retired).
    pub state_bytes: u64,
}

impl TenantSnapshot {
    /// Sum of this tenant's terminal buckets.
    pub fn settled(&self) -> u64 {
        self.settled_wide() as u64
    }

    fn settled_wide(&self) -> u128 {
        [
            self.completed,
            self.bad_request,
            self.shed_overloaded,
            self.deadline_exceeded,
            self.drain_rejected,
            self.io_errors,
            self.mesh_retired,
        ]
        .map(u128::from)
        .iter()
        .sum()
    }
}

/// Whether a series is a monotone total or a level that can fall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A monotone total.
    Counter,
    /// An instantaneous level.
    Gauge,
}

impl Kind {
    /// The word `METRICS` declares the series with (`# TYPE <name> <word>`).
    pub fn word(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
        }
    }
}

/// One scalar series of a snapshot: its name, its kind, and the field
/// it reads and writes. Values travel as `i128`, which holds every `u64`
/// counter and `i64` gauge exactly.
pub struct Series<T> {
    /// Series name, without the `oblivion_serve_` / `serve_` prefix.
    pub name: &'static str,
    /// Counter or gauge.
    pub kind: Kind,
    /// Reads the field.
    pub get: fn(&T) -> i128,
    /// Writes the field; `false` when the value does not fit it.
    pub(crate) set: fn(&mut T, i128) -> bool,
}

macro_rules! series {
    ($t:ty: $($kind:ident $name:literal $field:ident,)*) => {
        [$(Series::<$t> {
            name: $name,
            kind: Kind::$kind,
            get: |s: &$t| s.$field as i128,
            set: |s: &mut $t, v| v.try_into().map(|v| s.$field = v).is_ok(),
        },)*]
    };
}

/// Every global series, in rendering order. `METRICS` names a row
/// `oblivion_serve_<name>`; the flusher's `serve_stats` line and the
/// final run report name it `serve_<name>`.
pub const SERIES: [Series<StatsSnapshot>; 21] = series![StatsSnapshot:
    Counter "accepted" accepted,
    Counter "completed" completed,
    Counter "bad_request" bad_request,
    Counter "shed_overloaded" shed_overloaded,
    Counter "deadline_exceeded" deadline_exceeded,
    Counter "drain_rejected" drain_rejected,
    Counter "io_errors" io_errors,
    Counter "unknown_mesh" unknown_mesh,
    Counter "mesh_retired" mesh_retired,
    Counter "health_probes" health_probes,
    Counter "chaos_stalls" chaos_stalls,
    Counter "chaos_slow_writes" chaos_slow_writes,
    Counter "chaos_resets" chaos_resets,
    Counter "chaos_worker_pauses" chaos_worker_pauses,
    Counter "conns_opened" conns_opened,
    Counter "conns_closed" conns_closed,
    Gauge "queue_depth" queue_depth,
    Gauge "in_flight" in_flight,
    Gauge "connections" connections,
    Gauge "open_conns" open_conns,
    Gauge "max_queue_depth" max_queue_depth,
];

/// Every per-tenant series, in rendering order: `METRICS` carries one
/// `oblivion_serve_<name>{mesh="<id>"}` row per tenant. `mesh_state_bytes`
/// is the registry's accounted routing-state footprint — the memory
/// price of keeping that mesh registered.
pub const TENANT_SERIES: [Series<TenantSnapshot>; 10] = series![TenantSnapshot:
    Counter "tenant_accepted" accepted,
    Counter "tenant_completed" completed,
    Counter "tenant_bad_request" bad_request,
    Counter "tenant_shed_overloaded" shed_overloaded,
    Counter "tenant_deadline_exceeded" deadline_exceeded,
    Counter "tenant_drain_rejected" drain_rejected,
    Counter "tenant_io_errors" io_errors,
    Counter "tenant_mesh_retired" mesh_retired,
    Gauge "tenant_in_flight" in_flight,
    Gauge "mesh_state_bytes" state_bytes,
];

#[cfg(test)]
mod tests {
    use super::*;

    /// Walks one connection carrying one request line through its full
    /// transition sequence.
    fn settle_one(s: &ServeStats, bucket: Counter) {
        s.conn_opened();
        let depth = s.enqueue_started();
        s.enqueue_committed(depth);
        s.conn_dequeued();
        s.admit(1);
        s.settle_batch(bucket, 1);
        s.conn_closed();
    }

    /// A connection turned away whole at admission.
    fn shed_one(s: &ServeStats) {
        s.conn_opened();
        s.enqueue_started();
        s.shed_connection();
        s.conn_closed();
    }

    #[test]
    fn every_bucket_lands_in_the_conservation_law() {
        let s = ServeStats::default();
        for c in [
            Counter::Completed,
            Counter::BadRequest,
            Counter::DeadlineExceeded,
            Counter::DrainRejected,
            Counter::IoError,
            Counter::UnknownMesh,
            Counter::MeshRetired,
        ] {
            settle_one(&s, c);
        }
        shed_one(&s);
        let snap = s.snapshot();
        assert_eq!(snap.accepted, 8);
        assert!(snap.conserved(), "{snap:?}");
        assert_eq!(snap.check(), Ok(()));
        // Health probes are outside the law.
        s.health_probe();
        assert!(s.snapshot().conserved());
        // An unsettled admit breaks the quiescent law but not the live
        // one: the unit is on the books.
        s.admit(1);
        let snap = s.snapshot();
        assert!(!snap.conserved());
        assert_eq!(snap.check(), Ok(()));
        assert_eq!(snap.connections, 1);
    }

    /// The interleaving that motivated the split enqueue: a worker's
    /// `conn_dequeued()` lands between the acceptor's push and its
    /// commit. With accounting preceding publication the depth gauge
    /// dips to zero, never below; a rejected push rolls back cleanly and
    /// leaves the high-water mark untouched.
    #[test]
    fn pre_publish_enqueue_never_goes_negative() {
        let s = ServeStats::default();
        let depth = s.enqueue_started();
        assert_eq!(depth, 1);
        s.conn_dequeued(); // the race: pop before the commit
        let snap = s.snapshot();
        assert_eq!(snap.queue_depth, 0, "{snap:?}");
        s.enqueue_committed(depth);
        let snap = s.snapshot();
        assert_eq!(snap.queue_depth, 0);
        assert_eq!(snap.max_queue_depth, 1);

        let s = ServeStats::default();
        s.enqueue_started();
        s.shed_connection();
        let snap = s.snapshot();
        assert_eq!(snap.queue_depth, 0);
        assert_eq!(
            snap.max_queue_depth, 0,
            "shed job must not set the high-water"
        );
        assert!(snap.conserved(), "{snap:?}");
    }

    #[test]
    fn gauges_track_every_transition() {
        let s = ServeStats::default();
        let gauges = |s: &ServeStats| {
            let snap = s.snapshot();
            (snap.connections, snap.queue_depth, snap.in_flight)
        };
        let depth = s.enqueue_started();
        s.enqueue_committed(depth);
        assert_eq!(gauges(&s), (0, 1, 0));
        s.conn_dequeued();
        assert_eq!(gauges(&s), (0, 0, 0));
        s.admit(2);
        assert_eq!(gauges(&s), (2, 0, 2));
        s.settle_batch(Counter::Completed, 2);
        assert_eq!(gauges(&s), (0, 0, 0));
        let snap = s.snapshot();
        assert_eq!(snap.max_queue_depth, 1);
        assert_eq!(snap.check(), Ok(()));
    }

    #[test]
    fn phase_counts_stay_within_accepted() {
        let s = ServeStats::default();
        settle_one(&s, Counter::Completed);
        s.record_phase(Phase::Accept, 2);
        s.record_phase(Phase::QueueWait, 15);
        s.record_phase(Phase::Parse, 3);
        s.record_phase(Phase::RouteCompute, 40);
        s.record_phase(Phase::ReplyFormat, 1);
        s.record_phase(Phase::ReplyWrite, 5);
        let snap = s.snapshot();
        assert_eq!(snap.check(), Ok(()));
        assert_eq!(snap.phase(Phase::QueueWait).count, 1);
        assert_eq!(snap.phase(Phase::QueueWait).sum, 15);
        for (name, h) in &snap.phases {
            assert_eq!(h.count, 1, "phase {name}");
        }
        s.record_phase(Phase::Parse, 3);
        let v = s.snapshot().check().unwrap_err();
        assert_eq!(v.clause, Clause::PhaseCount, "{v}");
    }

    /// Each table row reads back exactly what it wrote, into a field of
    /// its own, and no two rows share a name.
    #[test]
    fn series_tables_name_each_field_once() {
        let mut snap = StatsSnapshot::default();
        for (i, s) in SERIES.iter().enumerate() {
            assert!((s.set)(&mut snap, 100 + i as i128), "{}", s.name);
        }
        for (i, s) in SERIES.iter().enumerate() {
            assert_eq!((s.get)(&snap), 100 + i as i128, "{}", s.name);
        }
        let mut t = TenantSnapshot::default();
        for (i, s) in TENANT_SERIES.iter().enumerate() {
            assert!((s.set)(&mut t, 7 + i as i128), "{}", s.name);
        }
        for (i, s) in TENANT_SERIES.iter().enumerate() {
            assert_eq!((s.get)(&t), 7 + i as i128, "{}", s.name);
        }
        let mut names: Vec<&str> = SERIES.iter().map(|s| s.name).collect();
        names.extend(TENANT_SERIES.iter().map(|s| s.name));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate series name");
        // A counter refuses a negative value; a gauge takes it.
        assert!(!(SERIES[0].set)(&mut snap, -1));
        assert!((SERIES[17].set)(&mut snap, -1));
        assert_eq!(snap.in_flight, -1);
    }

    /// Chaos events are bookkeeping outside the law: injecting them
    /// moves no terminal bucket and breaks no conservation form, and
    /// the units they touched still settle normally.
    #[test]
    fn chaos_events_stay_outside_the_conservation_law() {
        let s = ServeStats::default();
        s.conn_opened();
        s.enqueue_started();
        s.conn_dequeued();
        s.admit(3);
        s.chaos_event(ChaosEvent::Stall);
        s.chaos_event(ChaosEvent::WorkerPause);
        let snap = s.snapshot();
        assert_eq!(snap.check(), Ok(()));
        assert_eq!(snap.chaos_stalls, 1);
        assert_eq!(snap.chaos_worker_pauses, 1);
        // Two stalled lines complete; a reset kills the last one as io.
        s.settle_batch(Counter::Completed, 2);
        s.chaos_event(ChaosEvent::Reset);
        s.settle_batch(Counter::IoError, 1);
        s.conn_closed();
        let snap = s.snapshot();
        assert!(snap.conserved(), "{snap:?}");
        assert_eq!(snap.check(), Ok(()));
        assert_eq!(snap.chaos_resets, 1);
        assert_eq!((snap.completed, snap.io_errors), (2, 1));
        // A reset kills a whole connection: more resets than sockets
        // ever opened is a bookkeeping bug.
        s.chaos_event(ChaosEvent::Reset);
        let v = s.snapshot().check().unwrap_err();
        assert_eq!(v.clause, Clause::ChaosResets, "{v}");
    }

    /// The pipelined flow: a worker frames a burst, admits it in one
    /// transition, and settles it in one transition — the law must hold
    /// at every point in between, and socket churn stays outside it.
    #[test]
    fn batched_admit_and_settle_conserve() {
        let s = ServeStats::default();
        s.conn_opened();
        s.enqueue_started();
        s.conn_dequeued();
        s.admit(32);
        let snap = s.snapshot();
        assert_eq!(snap.accepted, 32);
        assert_eq!(snap.connections, 32);
        assert_eq!(snap.in_flight, 32);
        assert_eq!(snap.queue_depth, 0);
        assert_eq!((snap.conns_opened, snap.open_conns), (1, 1));
        assert_eq!(snap.check(), Ok(()));
        assert!(!snap.conserved());
        s.settle_batch(Counter::Completed, 30);
        s.settle_batch(Counter::BadRequest, 1);
        s.settle_batch(Counter::DeadlineExceeded, 1);
        s.conn_closed();
        let snap = s.snapshot();
        assert!(snap.conserved(), "{snap:?}");
        assert_eq!(snap.check(), Ok(()));
        assert_eq!(snap.completed, 30);
        assert_eq!(
            (snap.in_flight, snap.connections, snap.open_conns),
            (0, 0, 0)
        );
        assert_eq!(snap.conns_closed, 1);
        // Zero-sized transitions are no-ops, not lock traffic bugs.
        s.admit(0);
        s.settle_batch(Counter::Completed, 0);
        assert!(s.snapshot().conserved());
        // A close without an open breaks the churn balance.
        s.conn_closed();
        let v = s.snapshot().check().unwrap_err();
        assert_eq!(v.clause, Clause::NegativeGauge, "{v}");
    }

    /// A connection turned away whole at admission: one shed unit in
    /// one transition, plus open/close churn.
    #[test]
    fn whole_connection_shed_counts_one_unit() {
        let s = ServeStats::default();
        shed_one(&s);
        let snap = s.snapshot();
        assert_eq!(snap.accepted, 1);
        assert_eq!(snap.shed_overloaded, 1);
        assert_eq!((snap.connections, snap.queue_depth), (0, 0));
        assert!(snap.conserved(), "{snap:?}");
        assert_eq!(snap.check(), Ok(()));
    }

    /// Tenant ledgers conserve on their own and never over-claim the
    /// global `accepted`: attribution follows admission, settles are
    /// paired, retired lines attribute-and-settle atomically.
    #[test]
    fn tenant_ledgers_conserve_and_stay_within_global() {
        let s = ServeStats::default();
        s.set_tenant_state_bytes("a", 4096);
        s.set_tenant_state_bytes("b", 2048);
        s.admit(6);
        s.tenant_admit("a", 3);
        s.tenant_admit("b", 2); // one admitted line stays unattributed
        let snap = s.snapshot();
        assert_eq!(snap.check(), Ok(()));
        assert_eq!(snap.tenant("a").unwrap().in_flight, 3);
        assert_eq!(snap.tenant("a").unwrap().state_bytes, 4096);
        // Mid-settle scrape: each law holds on its own ledger.
        s.tenant_settle("a", Counter::Completed, 2);
        s.tenant_settle("a", Counter::ShedOverloaded, 1);
        assert_eq!(s.snapshot().check(), Ok(()));
        s.settle_batch(Counter::Completed, 2);
        s.settle_batch(Counter::ShedOverloaded, 1);
        s.tenant_settle("b", Counter::IoError, 2);
        s.settle_batch(Counter::IoError, 2);
        // A retired line: global admit + settle, tenant atomic pair.
        s.admit(1);
        s.tenant_mesh_retired("b", 1);
        s.settle_batch(Counter::MeshRetired, 1);
        s.set_tenant_state_bytes("b", 0);
        // The unattributed line settles globally only.
        s.settle_batch(Counter::BadRequest, 1);
        let snap = s.snapshot();
        assert!(snap.conserved(), "{snap:?}");
        assert_eq!(snap.check(), Ok(()));
        let b = snap.tenant("b").unwrap();
        assert_eq!((b.accepted, b.io_errors, b.mesh_retired), (3, 2, 1));
        assert_eq!(b.state_bytes, 0);
        assert_eq!(snap.mesh_retired, 1);
        assert_eq!(
            snap.tenants
                .iter()
                .map(|t| t.id.as_str())
                .collect::<Vec<_>>(),
            ["a", "b"],
            "snapshot rows sort by mesh id"
        );
        // An unpaired tenant settle breaks that tenant's own law.
        s.tenant_settle("a", Counter::Completed, 1);
        let v = s.snapshot().check().unwrap_err();
        assert_eq!(v.clause, Clause::Tenant, "{v}");
    }

    #[test]
    fn snapshots_are_consistent_under_concurrent_hammering() {
        // 4 writer threads push connections through the full lifecycle
        // while a reader thread scrapes continuously: every single
        // snapshot must satisfy the live law. This is the property the
        // single-lock design exists for.
        let s = ServeStats::default();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for i in 0..2_000u64 {
                        if i % 7 == 0 {
                            shed_one(&s);
                            continue;
                        }
                        s.conn_opened();
                        let depth = s.enqueue_started();
                        s.enqueue_committed(depth);
                        s.conn_dequeued();
                        s.admit(1);
                        s.record_phase(Phase::RouteCompute, i % 100);
                        s.settle_batch(
                            if i % 3 == 0 {
                                Counter::DeadlineExceeded
                            } else {
                                Counter::Completed
                            },
                            1,
                        );
                        s.conn_closed();
                    }
                });
            }
            scope.spawn(|| {
                for _ in 0..5_000 {
                    let snap = s.snapshot();
                    if let Err(v) = snap.check() {
                        panic!("inconsistent scrape: {v}");
                    }
                }
            });
        });
        let end = s.snapshot();
        assert_eq!(end.accepted, 8_000);
        assert!(end.conserved(), "{end:?}");
    }
}
