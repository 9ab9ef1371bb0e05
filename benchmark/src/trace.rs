//! In-memory spans for the traced run, and the wrappers that record them
//! around the program's routing layer.
//!
//! Spans are recorded only from the benchmark's own code, around its
//! calls into each layer: the client's connect, write and read, the
//! server's `route_batch` (through [`TracedRouter`], a delegating
//! router handed to `oblivion_serve::run`), and the simulator's path
//! selection (through [`TimedSource`]). Storage is allocated before
//! recording starts, so tracing does not show up in the allocation
//! counts it sits next to.
//!
//! The client threads and the server's worker record at the same time,
//! over 100k spans a second under pipelined load. So that tracing does
//! not slow the server it measures, each recording thread writes to a
//! buffer of its own and takes span ids from a thread-local counter:
//! the recording path shares no lock and no written cache line between
//! threads. The buffers are merged when the trace is written.

use oblivion_core::{ObliviousRouter, PathQuery, RoutedPath};
use oblivion_mesh::{Coord, Mesh, Path};
use oblivion_obs::Json;
use oblivion_sim::PathSource;
use rand::rngs::StdRng;
use rand::RngCore;
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

/// No parent / no request.
pub const NONE: u64 = 0;

/// Span buffers per tracer. Threads take them in the order they first
/// record, so up to this many threads recording at once never share
/// one; a traced window has at most three (two generators and the
/// server's worker).
const SHARDS: usize = 4;

/// Threads that have recorded so far, process-wide.
static THREADS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's number, taken when it first records.
    static THREAD: u64 = THREADS.fetch_add(1, Relaxed);
    /// Span ids this thread has issued.
    static ISSUED: Cell<u32> = const { Cell::new(0) };
}

fn thread_number() -> u64 {
    THREAD.with(|t| *t)
}

/// One recorded interval. `key` is the request id for client spans and
/// the first query's path seed for `core.route_batch` spans (which the
/// trace file resolves to request ids); `n` counts the paths a routing
/// span covers.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub key: u64,
    pub n: u32,
}

/// What one thread recorded.
#[derive(Default)]
struct Buf {
    spans: Vec<Span>,
    dropped: u64,
    route_ns: u64,
    route_calls: u64,
    route_paths: u64,
}

impl Buf {
    fn keep(&mut self, span: Span, cap: usize) {
        if self.spans.len() < cap {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }
}

/// A buffer on cache lines of its own.
#[repr(align(128))]
struct Shard(Mutex<Buf>);

/// The span store plus routing totals for one traced window.
pub struct Tracer {
    epoch: Instant,
    on: AtomicBool,
    /// Spans kept per shard.
    cap: usize,
    shards: Vec<Shard>,
}

impl Tracer {
    /// A stopped tracer keeping at most `cap` spans (later ones are
    /// counted as dropped; the routing totals keep counting).
    pub fn new(cap: usize) -> Self {
        let cap = cap / SHARDS;
        Self {
            epoch: Instant::now(),
            on: AtomicBool::new(false),
            cap,
            shards: (0..SHARDS)
                .map(|_| {
                    Shard(Mutex::new(Buf {
                        spans: Vec::with_capacity(cap),
                        ..Buf::default()
                    }))
                })
                .collect(),
        }
    }

    /// The calling thread's buffer.
    fn local(&self) -> std::sync::MutexGuard<'_, Buf> {
        self.shards[thread_number() as usize % SHARDS]
            .0
            .lock()
            .expect("span buffer poisoned")
    }

    /// Every thread's buffer, locked.
    fn buffers(&self) -> Vec<std::sync::MutexGuard<'_, Buf>> {
        self.shards
            .iter()
            .map(|s| s.0.lock().expect("span buffer poisoned"))
            .collect()
    }

    pub fn start(&self) {
        self.on.store(true, Relaxed);
    }

    pub fn stop(&self) {
        self.on.store(false, Relaxed);
    }

    pub fn is_on(&self) -> bool {
        self.on.load(Relaxed)
    }

    /// Nanoseconds since the tracer was made.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// A fresh span id, unique in the process: the thread's number in
    /// the high half, its own count in the low half (never 0).
    pub fn id(&self) -> u64 {
        let n = ISSUED.with(|c| {
            let n = c.get() + 1;
            c.set(n);
            n
        });
        thread_number() << 32 | u64::from(n)
    }

    /// Records `[start, end]` under `name` when tracing is on.
    pub fn record(
        &self,
        name: &'static str,
        id: u64,
        parent: u64,
        start: Instant,
        end: Instant,
        key: u64,
    ) {
        self.push(Span {
            name,
            id,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            key,
            n: 1,
        });
    }

    fn push(&self, span: Span) {
        if self.is_on() {
            self.local().keep(span, self.cap);
        }
    }

    fn routed(
        &self,
        name: &'static str,
        parent: u64,
        (start, end): (Instant, Instant),
        paths: usize,
        first_seed: u64,
    ) {
        if !self.is_on() {
            return;
        }
        let span = Span {
            name,
            id: self.id(),
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            key: first_seed,
            n: paths as u32,
        };
        let mut buf = self.local();
        buf.route_ns += span.end_ns - span.start_ns;
        buf.route_calls += 1;
        buf.route_paths += paths as u64;
        buf.keep(span, self.cap);
    }

    /// `(ns spent routing, routing calls, paths routed)` while on.
    pub fn route_totals(&self) -> (u64, u64, u64) {
        self.buffers()
            .iter()
            .fold((0, 0, 0), |(ns, calls, paths), b| {
                (
                    ns + b.route_ns,
                    calls + b.route_calls,
                    paths + b.route_paths,
                )
            })
    }

    /// Writes the trace file: the self time of each layer (its spans'
    /// durations minus what their child spans cover), then every span,
    /// one per line. Route spans carry the request ids `request_of`
    /// resolves their first seed and path count to.
    pub fn write(
        &self,
        path: &std::path::Path,
        workload: &str,
        request_of: &dyn Fn(u64, u32) -> Vec<u64>,
    ) -> std::io::Result<()> {
        use std::io::Write as _;
        let bufs = self.buffers();
        let mut spans: Vec<Span> = bufs.iter().flat_map(|b| b.spans.iter().copied()).collect();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let dropped: u64 = bufs.iter().map(|b| b.dropped).sum();
        drop(bufs);
        let mut covered: HashMap<u64, u64> = HashMap::new();
        for s in spans.iter().filter(|s| s.parent != NONE) {
            *covered.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
        let mut layers: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for s in spans.iter() {
            let dur = s.end_ns - s.start_ns;
            let e = layers.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(covered.get(&s.id).copied().unwrap_or(0));
        }
        let summary: Vec<Json> = layers
            .iter()
            .map(|(name, (count, total, self_ns))| {
                let mut row = Json::obj();
                row.set("layer", *name)
                    .set("count", *count)
                    .set("total_ns", *total)
                    .set("self_ns", *self_ns);
                row
            })
            .collect();
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            f,
            "{{\"workload\": {}, \"dropped_spans\": {}, \"self_time\": {}, \"spans\": [",
            Json::from(workload),
            dropped,
            Json::from(summary)
        )?;
        for (i, s) in spans.iter().enumerate() {
            let mut row = Json::obj();
            row.set("name", s.name)
                .set("id", s.id)
                .set("parent", s.parent)
                .set("start_ns", s.start_ns)
                .set("end_ns", s.end_ns);
            if s.name == "core.route_batch" {
                let ids = request_of(s.key, s.n);
                row.set("req", ids.into_iter().map(Json::from).collect::<Vec<_>>());
            } else if s.key != u64::MAX {
                row.set("req", s.key);
            }
            let sep = if i + 1 < spans.len() { "," } else { "" };
            writeln!(f, "{row}{sep}")?;
        }
        writeln!(f, "]}}")?;
        f.flush()
    }
}

/// A delegating router that times every `route_batch` (the server's
/// only routing call) and forwards it to the inner router's own
/// override, so batching behaves exactly as untraced.
pub struct TracedRouter<'a> {
    pub inner: &'a dyn ObliviousRouter,
    pub tracer: &'a Tracer,
}

impl ObliviousRouter for TracedRouter<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn mesh(&self) -> &Mesh {
        self.inner.mesh()
    }

    fn state_bytes(&self) -> u64 {
        self.inner.state_bytes()
    }

    fn select_path(&self, s: &Coord, t: &Coord, rng: &mut dyn RngCore) -> RoutedPath {
        self.inner.select_path(s, t, rng)
    }

    fn resample_path(&self, current: &Coord, t: &Coord, rng: &mut dyn RngCore) -> RoutedPath {
        self.inner.resample_path(current, t, rng)
    }

    fn route_batch(&self, queries: &[PathQuery], out: &mut Vec<RoutedPath>) {
        let start = Instant::now();
        self.inner.route_batch(queries, out);
        let end = Instant::now();
        let first = queries.first().map_or(u64::MAX, |q| q.seed);
        self.tracer
            .routed("core.route_batch", NONE, (start, end), queries.len(), first);
    }
}

/// The simulator's path source over a router, timing each selection
/// under the current `sim.run` span.
pub struct TimedSource<'a> {
    pub router: &'a dyn ObliviousRouter,
    pub tracer: &'a Tracer,
    pub run_span: AtomicU64,
}

impl PathSource for TimedSource<'_> {
    fn path(&self, s: &Coord, t: &Coord, rng: &mut StdRng) -> Path {
        let start = Instant::now();
        let path = self.router.select_path(s, t, rng).path;
        let end = Instant::now();
        self.tracer.routed(
            "core.select_path",
            self.run_span.load(Relaxed),
            (start, end),
            1,
            u64::MAX,
        );
        path
    }
}
