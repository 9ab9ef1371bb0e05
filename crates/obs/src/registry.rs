//! Global observability registry: counters, fixed-bucket histograms, and
//! nestable wall-clock spans.
//!
//! Everything is gated on one process-wide flag. When disabled (the
//! default), every instrumentation call is a single relaxed atomic load
//! and an early return — cheap enough for per-packet hot paths. When
//! enabled, updates take a global mutex; observability runs are
//! measurement runs, where microsecond-scale lock overhead is acceptable.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns instrumentation on.
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns instrumentation off (in-flight spans record nothing).
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether instrumentation is on. Inlined into every hot-path call site.
#[inline(always)]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Number of histogram buckets: one for zero plus one per power of two.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-bucket (power-of-two) histogram of `u64` observations.
///
/// Bucket 0 counts exact zeros; bucket `i >= 1` counts values in
/// `[2^(i-1), 2^i)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation (`u64::MAX` when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Per-bucket counts.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }

    /// The bucket index for a value.
    #[inline]
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// The inclusive value range `[lo, hi]` covered by a bucket.
    pub fn bucket_range(index: usize) -> (u64, u64) {
        if index == 0 {
            (0, 0)
        } else {
            (
                1 << (index - 1),
                ((1u128 << index) - 1).min(u64::MAX as u128) as u64,
            )
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[Self::bucket_of(value)] += 1;
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }

    /// Mean of the observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// An upper bound on the `q`-quantile (`0.0 ..= 1.0`), resolved to
    /// bucket granularity: the high edge of the bucket holding the
    /// rank-`ceil(q * count)` observation, clamped to the observed
    /// `[min, max]`. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                let (_, hi) = Self::bucket_range(i);
                return hi.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// Aggregate timing of one span path.
#[derive(Debug, Clone, Default)]
pub struct SpanStats {
    /// Times the span closed.
    pub count: u64,
    /// Total nanoseconds across closures.
    pub total_ns: u64,
    /// Longest single closure in nanoseconds.
    pub max_ns: u64,
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<&'static str, u64>,
    runtime_counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, i64>,
    histograms: BTreeMap<&'static str, Histogram>,
    runtime_histograms: BTreeMap<&'static str, Histogram>,
    spans: BTreeMap<String, SpanStats>,
    events: Vec<String>,
    capture_events: bool,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Adds `delta` to a named counter. No-op when disabled.
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if !is_enabled() {
        return;
    }
    let mut reg = registry().lock().unwrap();
    *reg.counters.entry(name).or_insert(0) += delta;
}

/// Adds `delta` to a named **runtime counter**. No-op when disabled.
///
/// Runtime counters are for facts that depend on thread scheduling —
/// work-steal counts, pool task distribution — rather than on the
/// simulated computation. They live next to span timings on the
/// non-deterministic side of the metrics document: serialized only when
/// timings are (`include_timings`), and excluded from the byte-identical
/// guarantee that deterministic counters, histograms, and the
/// [`crate::RunReport`] line carry across same-seed runs.
#[inline]
pub fn runtime_counter_add(name: &'static str, delta: u64) {
    if !is_enabled() {
        return;
    }
    let mut reg = registry().lock().unwrap();
    *reg.runtime_counters.entry(name).or_insert(0) += delta;
}

/// Records a value into a named histogram. No-op when disabled.
#[inline]
pub fn record(name: &'static str, value: u64) {
    if !is_enabled() {
        return;
    }
    let mut reg = registry().lock().unwrap();
    reg.histograms.entry(name).or_default().record(value);
}

/// Records a value into a named **runtime histogram**. No-op when
/// disabled.
///
/// Runtime histograms hold wall-clock facts — per-phase latencies,
/// scheduling-dependent queue waits — and live on the non-deterministic
/// side of the metrics document alongside spans and runtime counters:
/// serialized only with `include_timings`, excluded from byte-identity
/// comparisons across same-seed runs.
#[inline]
pub fn record_runtime(name: &'static str, value: u64) {
    if !is_enabled() {
        return;
    }
    let mut reg = registry().lock().unwrap();
    reg.runtime_histograms
        .entry(name)
        .or_default()
        .record(value);
}

/// Sets a named gauge to an absolute level. No-op when disabled.
///
/// Gauges are instantaneous levels (queue depth, in-flight requests)
/// rather than monotone totals. They sit on the deterministic side: a
/// gauge driven by simulated state (e.g. packets in flight at the final
/// step) is reproducible across same-seed runs.
#[inline]
pub fn gauge_set(name: &'static str, value: i64) {
    if !is_enabled() {
        return;
    }
    let mut reg = registry().lock().unwrap();
    reg.gauges.insert(name, value);
}

/// An RAII span: measures wall-clock time from creation to drop and
/// records it under the nesting path (`outer/inner`). Created disabled,
/// it does nothing at all.
#[must_use = "a span measures until dropped; binding to _ drops immediately"]
pub struct SpanGuard {
    start: Option<Instant>,
    depth: usize,
}

/// Opens a span. No-op (one atomic load) when disabled.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard {
            start: None,
            depth: 0,
        };
    }
    let depth = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        stack.push(name);
        stack.len() - 1
    });
    SpanGuard {
        start: Some(Instant::now()),
        depth,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let elapsed_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let path = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let path = stack.join("/");
            stack.pop();
            path
        });
        let mut reg = registry().lock().unwrap();
        let stats = reg.spans.entry(path.clone()).or_default();
        stats.count += 1;
        stats.total_ns += elapsed_ns;
        stats.max_ns = stats.max_ns.max(elapsed_ns);
        if reg.capture_events {
            let mut line = crate::json::Json::obj();
            line.set("type", "span_event")
                .set("name", path)
                .set("depth", self.depth)
                .set("ns", elapsed_ns);
            let line = line.to_string();
            reg.events.push(line);
        }
    }
}

/// Starts capturing one JSON-lines event per span closure (implies the
/// cost of formatting each event; used by `--trace`).
pub fn capture_events(on: bool) {
    let mut reg = registry().lock().unwrap();
    reg.capture_events = on;
}

/// A point-in-time copy of the whole registry.
///
/// Taken under the registry lock, so it is *consistent*: every update
/// is either fully visible or not visible at all.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: Vec<(String, u64)>,
    /// Runtime (scheduling-dependent) counter values by name.
    pub runtime_counters: Vec<(String, u64)>,
    /// Gauge levels by name.
    pub gauges: Vec<(String, i64)>,
    /// Histograms by name.
    pub histograms: Vec<(String, Histogram)>,
    /// Runtime (wall-clock) histograms by name.
    pub runtime_histograms: Vec<(String, Histogram)>,
    /// Span timings by nesting path.
    pub spans: Vec<(String, SpanStats)>,
    /// Captured span events (JSON lines), if event capture was on.
    pub events: Vec<String>,
}

/// Copies the current registry contents (sorted by name — deterministic).
pub fn snapshot() -> Snapshot {
    let reg = registry().lock().unwrap();
    Snapshot {
        counters: reg
            .counters
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect(),
        runtime_counters: reg
            .runtime_counters
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect(),
        gauges: reg
            .gauges
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect(),
        histograms: reg
            .histograms
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
        runtime_histograms: reg
            .runtime_histograms
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
        spans: reg
            .spans
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect(),
        events: reg.events.clone(),
    }
}

/// Replaces the **deterministic** registry contents — counters and
/// histograms — with the given values, wholesale. Runtime counters,
/// runtime histograms, spans, and captured events (the
/// scheduling/wall-clock side) are left untouched, and so are gauges:
/// a gauge is a level the run re-establishes as it replays, not an
/// accumulation to reinstate.
///
/// This is the restore half of checkpoint/resume: a resumed run
/// reinstates the counters and histograms the interrupted run had
/// accumulated, so its final metrics are identical to an uninterrupted
/// run's. Counter and histogram names are `&'static str` keys; restored
/// names are interned with `Box::leak` (bounded — at most one restore
/// per process resume).
pub fn restore_deterministic(counters: &[(String, u64)], histograms: &[(String, Histogram)]) {
    let mut reg = registry().lock().unwrap();
    reg.counters = counters
        .iter()
        .map(|(k, v)| (&*Box::leak(k.clone().into_boxed_str()), *v))
        .collect();
    reg.histograms = histograms
        .iter()
        .map(|(k, v)| (&*Box::leak(k.clone().into_boxed_str()), v.clone()))
        .collect();
}

/// Clears all counters, gauges, histograms, spans, and captured events.
/// The enabled flag and event-capture setting are unchanged.
pub fn reset() {
    let mut reg = registry().lock().unwrap();
    reg.counters.clear();
    reg.runtime_counters.clear();
    reg.gauges.clear();
    reg.histograms.clear();
    reg.runtime_histograms.clear();
    reg.spans.clear();
    reg.events.clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global, so tests that enable it must not
    /// run concurrently with each other.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_is_a_noop() {
        let _guard = serial();
        disable();
        reset();
        counter_add("x", 5);
        record("h", 3);
        let _span = span("s");
        drop(_span);
        let snap = snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(snap.spans.is_empty());
    }

    #[test]
    fn counters_and_histograms_accumulate() {
        let _guard = serial();
        enable();
        reset();
        counter_add("pkts", 3);
        counter_add("pkts", 4);
        record("bits", 0);
        record("bits", 1);
        record("bits", 5);
        record("bits", 1024);
        let snap = snapshot();
        disable();
        assert_eq!(snap.counters, vec![("pkts".to_string(), 7)]);
        let (_, h) = &snap.histograms[0];
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 1030);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1024);
        assert_eq!(h.buckets[0], 1); // the zero
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[3], 1); // 4..8
        assert_eq!(h.buckets[11], 1); // 1024..2048
    }

    #[test]
    fn runtime_counters_are_separate() {
        let _guard = serial();
        enable();
        reset();
        counter_add("det", 1);
        runtime_counter_add("sched", 2);
        runtime_counter_add("sched", 3);
        let snap = snapshot();
        disable();
        assert_eq!(snap.counters, vec![("det".to_string(), 1)]);
        assert_eq!(snap.runtime_counters, vec![("sched".to_string(), 5)]);
    }

    #[test]
    fn gauges_set_overwrites() {
        let _guard = serial();
        enable();
        reset();
        gauge_set("depth", 7);
        gauge_set("depth", 4);
        gauge_set("inflight", 2);
        let snap = snapshot();
        disable();
        assert_eq!(
            snap.gauges,
            vec![("depth".to_string(), 4), ("inflight".to_string(), 2)]
        );
    }

    #[test]
    fn runtime_histograms_are_separate() {
        let _guard = serial();
        enable();
        reset();
        record("det_h", 1);
        record_runtime("phase_ns", 100);
        record_runtime("phase_ns", 200);
        let snap = snapshot();
        disable();
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.runtime_histograms.len(), 1);
        let (name, h) = &snap.runtime_histograms[0];
        assert_eq!(name, "phase_ns");
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 300);
    }

    #[test]
    fn quantiles_resolve_to_bucket_upper_edges() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        for v in [1u64, 2, 3, 4, 100, 1000] {
            h.record(v);
        }
        // rank(0.5 * 6) = 3 -> the value 3 lives in bucket [2,3].
        assert_eq!(h.quantile(0.5), 3);
        // p99 of six observations is the max's bucket, clamped to max.
        assert_eq!(h.quantile(0.99), 1000);
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(1.0), 1000);
        let mut zeros = Histogram::new();
        zeros.record(0);
        zeros.record(0);
        assert_eq!(zeros.quantile(0.99), 0);
    }

    #[test]
    fn merge_folds_counts_and_bounds() {
        let mut a = Histogram::new();
        a.record(1);
        a.record(8);
        let mut b = Histogram::new();
        b.record(1024);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.sum, 1033);
        assert_eq!(a.min, 1);
        assert_eq!(a.max, 1024);
        assert_eq!(a.buckets[11], 1);
    }

    #[test]
    fn bucket_math() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        assert_eq!(Histogram::bucket_range(0), (0, 0));
        assert_eq!(Histogram::bucket_range(1), (1, 1));
        assert_eq!(Histogram::bucket_range(3), (4, 7));
    }

    #[test]
    fn spans_nest_by_path() {
        let _guard = serial();
        enable();
        reset();
        {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        let snap = snapshot();
        disable();
        let names: Vec<&str> = snap.spans.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["outer", "outer/inner"]);
        assert!(snap.spans.iter().all(|(_, s)| s.count == 1));
    }

    #[test]
    fn event_capture_emits_json_lines() {
        let _guard = serial();
        enable();
        capture_events(true);
        reset();
        {
            let _s = span("phase");
        }
        let snap = snapshot();
        capture_events(false);
        disable();
        assert_eq!(snap.events.len(), 1);
        let parsed = crate::json::Json::parse(&snap.events[0]).unwrap();
        assert_eq!(parsed.get("type").unwrap().as_str(), Some("span_event"));
        assert_eq!(parsed.get("name").unwrap().as_str(), Some("phase"));
    }

    #[test]
    fn restore_replaces_deterministic_state_only() {
        let _guard = serial();
        enable();
        reset();
        counter_add("stale", 99);
        record("stale_h", 1);
        runtime_counter_add("sched", 4);
        let mut h = Histogram::new();
        h.record(8);
        h.record(8);
        restore_deterministic(
            &[("restored".to_string(), 42)],
            &[("restored_h".to_string(), h)],
        );
        // Accumulation continues on top of the restored values.
        counter_add("restored", 1);
        record("restored_h", 8);
        let snap = snapshot();
        disable();
        assert_eq!(snap.counters, vec![("restored".to_string(), 43)]);
        assert_eq!(snap.runtime_counters, vec![("sched".to_string(), 4)]);
        assert_eq!(snap.histograms.len(), 1);
        let (name, rh) = &snap.histograms[0];
        assert_eq!(name, "restored_h");
        assert_eq!(rh.count, 3);
        assert_eq!(rh.sum, 24);
    }

    #[test]
    fn reset_clears() {
        let _guard = serial();
        enable();
        reset();
        counter_add("c", 1);
        reset();
        let snap = snapshot();
        disable();
        assert!(snap.counters.is_empty());
    }
}
