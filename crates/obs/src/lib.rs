//! `oblivion-obs`: dependency-free observability for the oblivion
//! workspace.
//!
//! Three pieces, all hand-rolled so the workspace keeps building with no
//! external crates:
//!
//! * [`registry`] — a process-global registry of named counters, gauges,
//!   power-of-two-bucket histograms (deterministic and wall-clock
//!   "runtime" flavors), and nestable wall-clock spans, with an atomic
//!   [`update`] batch API so readers only ever see
//!   invariant-preserving snapshots. Instrumentation is off by default;
//!   every call site then costs one relaxed atomic load, so hot paths
//!   (per-packet routing, per-step simulation) can stay instrumented
//!   unconditionally.
//! * [`json`] — a small deterministic JSON writer/parser with
//!   order-preserving objects, so same-seed runs serialize to
//!   byte-identical documents.
//! * [`report`] — the JSON-lines metrics format: tagged
//!   counter/histogram/span lines plus a final [`RunReport`] line,
//!   written by `--metrics-out` and the bench harness and rendered back
//!   by `oblivion stats`.
//!
//! Typical use:
//!
//! ```
//! oblivion_obs::enable();
//! {
//!     let _span = oblivion_obs::span("path_selection");
//!     oblivion_obs::counter_add("packets_routed", 1);
//!     oblivion_obs::record("random_bits_per_packet", 12);
//! }
//! let snap = oblivion_obs::snapshot();
//! let mut report = oblivion_obs::RunReport::new("demo");
//! report.set("packets", 1u64);
//! let jsonl = report.to_jsonl(&snap, true);
//! assert!(jsonl.contains("packets_routed"));
//! oblivion_obs::reset();
//! oblivion_obs::disable();
//! ```

pub mod json;
pub mod registry;
pub mod report;

pub use json::Json;
pub use registry::{
    capture_events, counter_add, disable, enable, gauge_add, gauge_set, is_enabled, record,
    record_runtime, reset, restore_deterministic, runtime_counter_add, snapshot, span, update,
    Batch, Histogram, Snapshot, SpanGuard, SpanStats, HISTOGRAM_BUCKETS,
};
pub use report::{
    histogram_from_json, histogram_json, parse_jsonl, parse_jsonl_lossy, render, report_schemas,
    snapshot_lines, RunReport, SCHEMA_VERSION,
};
