//! `oblivion-serve`: an overload-safe TCP path-selection service.
//!
//! Oblivious path selection is stateless by construction — each packet's
//! path is drawn from the request's own seed, independent of every other
//! request — which makes it the ideal workload for a horizontally-served
//! routing daemon. This crate is the first online serving surface of the
//! workspace, built for robustness under adversarial load rather than
//! raw feature count:
//!
//! * [`wire`] — the one-line-each-way protocol with a typed error
//!   taxonomy (`BAD_REQUEST` / `OVERLOADED` / `DEADLINE_EXCEEDED` /
//!   `SHUTTING_DOWN`), a request length cap, and deadline-re-arming
//!   reads (slow-loris safe).
//! * [`queue`] — the bounded admission queue: pushes never block, a
//!   full queue sheds with `OVERLOADED` instead of queueing unboundedly.
//! * [`registry`] — the multi-tenant mesh registry: many named
//!   `(mesh, router)` tenants behind one daemon, each with its own
//!   token-bucket admission quota and an accounted `state_bytes`
//!   footprint; meshes are added and retired at runtime through the
//!   health port's `ADMIN` verbs, with retire draining in-flight work
//!   and freeing the routing state without a restart.
//! * [`server`] — the serving loop on the shared
//!   [`oblivion_sim::pool::run_crew`] worker pool: per-request deadlines,
//!   graceful SIGTERM drain with a budget, and dedicated health/readiness
//!   probes that answer even at 10x overload.
//! * [`stats`] — request accounting with an asserted conservation law:
//!   every accepted connection settles into exactly one bucket — plus
//!   live gauges (queue depth, in-flight, connections) and per-phase
//!   latency histograms behind a consistent-snapshot API.
//! * [`metrics`] — the Prometheus-style `METRICS` text exposition
//!   (renderer, parser, and conservation checker), served admission-free
//!   on the health port so it stays scrapeable at full overload.
//! * [`top`] — the terminal live view behind `oblivion top`, polling
//!   `METRICS` and rendering rates, gauges, and phase quantiles.
//! * [`client`] / [`loadgen`] — the companion client and load generator
//!   with retry + capped exponential backoff, an open-loop mode
//!   (scheduled arrivals, coordinated-omission-corrected tails), and
//!   hedged requests; the chaos gate kill -9s the server mid-load,
//!   restarts it, and requires the retries to converge with zero
//!   malformed responses.
//! * [`chaos`] — deterministic server-side straggler injection
//!   (compute stalls, slow writes, connection resets, worker pauses),
//!   a pure function of `--chaos-seed` in the `oblivion-faults` idiom.
//!
//! Dependency-free like the rest of the workspace: plain `std::net`
//! sockets, a hand-rolled queue, and no async runtime — idle server
//! threads park in `poll(2)` on their sockets and wake pipes (declared,
//! with every `unsafe` block, in `oblivion-signal`) instead of sleeping.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaos;
pub mod client;
pub mod loadgen;
pub mod metrics;
pub mod queue;
pub mod registry;
pub mod server;
pub mod stats;
pub mod top;
pub mod wire;

pub use chaos::{ChaosConfig, ChaosPlan};
pub use client::{Client, ClientError};
pub use loadgen::{run_loadgen, tenant_of, HedgeAfter, LoadgenConfig, LoadgenReport, TenantLoad};
pub use metrics::{parse_exposition, render_exposition, Exposition};
pub use registry::{Registry, Resolved, RouterHandle, Tenant};
pub use server::{run, run_registry, Control, ServeConfig, ServeSummary};
pub use stats::{ChaosEvent, Phase, ServeStats, StatsSnapshot, TenantSnapshot};
pub use top::{run_top, TopConfig};
pub use wire::{ErrorKind, Request, Response, MAX_REQUEST_ID, MAX_REQUEST_LINE};
