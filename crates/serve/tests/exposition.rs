//! The `METRICS` exposition as an encoding of the ledger: a fixed
//! transition script renders to pinned bytes, random live transition
//! sequences parse back into the snapshot they were rendered from, and
//! tampering with one series in the text makes parse + check report
//! exactly the law clause that series belongs to.

use oblivion_serve::stats::Counter;
use oblivion_serve::{
    parse_exposition, render_exposition, ChaosEvent, Clause, Phase, ServeStats, StatsSnapshot,
};
use proptest::prelude::*;
use std::time::Duration;

/// The pinned transition script: queued, adopted and shed connections,
/// two tenants (one retired), every terminal bucket, every chaos kind,
/// every phase, and live state left on the books.
fn golden_script() -> ServeStats {
    let s = ServeStats::default();
    s.set_tenant_state_bytes("a", 4096);
    s.set_tenant_state_bytes("b", 1024);
    for _ in 0..3 {
        s.conn_opened();
        let depth = s.enqueue_started();
        s.enqueue_committed(depth);
    }
    for _ in 0..3 {
        s.conn_dequeued();
    }
    // One connection turned away whole at admission.
    s.conn_opened();
    s.enqueue_started();
    s.shed_connection();
    s.conn_closed();
    s.admit(9);
    s.record_phase(Phase::Accept, 3);
    s.record_phase(Phase::QueueWait, 40);
    s.record_phase(Phase::Parse, 0);
    s.record_phase(Phase::RouteCompute, 180);
    s.record_phase(Phase::RouteCompute, 900);
    s.record_phase(Phase::ReplyFormat, 12);
    s.record_phase(Phase::ReplyWrite, 6);
    s.tenant_admit("a", 4);
    s.tenant_settle("a", Counter::Completed, 3);
    s.settle_batch(Counter::Completed, 3);
    s.tenant_settle("a", Counter::ShedOverloaded, 1);
    s.settle_batch(Counter::ShedOverloaded, 1);
    s.chaos_event(ChaosEvent::Stall);
    s.chaos_event(ChaosEvent::SlowWrite);
    s.chaos_event(ChaosEvent::WorkerPause);
    s.chaos_event(ChaosEvent::Reset);
    s.settle_batch(Counter::IoError, 1);
    s.settle_batch(Counter::UnknownMesh, 1);
    s.settle_batch(Counter::BadRequest, 1);
    s.settle_batch(Counter::DeadlineExceeded, 1);
    s.health_probe();
    s.health_probe();
    s.conn_closed();
    s.admit(1);
    s.tenant_mesh_retired("b", 1);
    s.settle_batch(Counter::MeshRetired, 1);
    s.set_tenant_state_bytes("b", 0);
    s.tenant_admit("b", 1);
    s.tenant_settle("b", Counter::DrainRejected, 1);
    s.settle_batch(Counter::DrainRejected, 1);
    s.conn_opened();
    let depth = s.enqueue_started();
    s.enqueue_committed(depth);
    s.admit(1);
    s.tenant_admit("b", 1);
    s
}

fn golden_text() -> String {
    render_exposition(&golden_script().snapshot(), Duration::from_millis(1234))
}

#[test]
fn golden_script_renders_pinned_bytes() {
    let pinned = include_str!("golden/metrics.txt");
    assert_eq!(golden_text(), pinned);
    let (snap, uptime) = parse_exposition(pinned).expect("golden parses");
    assert_eq!(uptime, Duration::from_millis(1234));
    assert_eq!(snap.check(), Ok(()));
    assert_eq!(render_exposition(&snap, uptime), pinned);
}

/// Histogram `min`/`max` do not travel (the wire carries bucket edges
/// only), so compare everything else.
fn without_extrema(mut snap: StatsSnapshot) -> StatsSnapshot {
    for (_, h) in &mut snap.phases {
        (h.min, h.max) = (0, 0);
    }
    snap
}

/// Drives `ops` through a ledger as a server would: every transition is
/// one the serving loop can make from the state a small model tracks,
/// so the law must hold throughout.
fn run_ops(ops: &[(u8, u64, u8)]) -> ServeStats {
    const TENANTS: [&str; 3] = ["a", "b", "c d"];
    const BUCKETS: [Counter; 7] = [
        Counter::Completed,
        Counter::BadRequest,
        Counter::ShedOverloaded,
        Counter::DeadlineExceeded,
        Counter::DrainRejected,
        Counter::IoError,
        Counter::MeshRetired,
    ];
    let s = ServeStats::default();
    let (mut queued, mut adopted, mut unattributed) = (0u64, 0u64, 0u64);
    let mut tenant_in_flight = [0u64; 3];
    for &(op, n, pick) in ops {
        let t = usize::from(pick) % TENANTS.len();
        let id = TENANTS[t];
        let snap = s.snapshot();
        match op {
            0 => {
                s.conn_opened();
                let depth = s.enqueue_started();
                s.enqueue_committed(depth);
                queued += 1;
            }
            1 if queued > 0 => {
                s.conn_dequeued();
                (queued, adopted) = (queued - 1, adopted + 1);
            }
            2 => {
                s.conn_opened();
                s.enqueue_started();
                s.shed_connection();
                s.conn_closed();
            }
            3 => {
                s.admit(n);
                unattributed += n;
            }
            4 => {
                let k = n.min(unattributed);
                s.tenant_admit(id, k);
                unattributed -= k;
                tenant_in_flight[t] += k;
            }
            5 => {
                let k = n.min(unattributed);
                let bucket = match pick % 3 {
                    0 => Counter::UnknownMesh,
                    _ => BUCKETS[usize::from(pick) % 6],
                };
                s.settle_batch(bucket, k);
                unattributed -= k;
            }
            6 => {
                let k = n.min(tenant_in_flight[t]);
                let bucket = BUCKETS[usize::from(pick) % 6];
                s.tenant_settle(id, bucket, k);
                s.settle_batch(bucket, k);
                tenant_in_flight[t] -= k;
            }
            7 => {
                s.admit(1);
                s.tenant_mesh_retired(id, 1);
                s.settle_batch(Counter::MeshRetired, 1);
            }
            8 => s.set_tenant_state_bytes(id, n << 12),
            9 => s.health_probe(),
            10 => match n % 4 {
                0 => s.chaos_event(ChaosEvent::Stall),
                1 => s.chaos_event(ChaosEvent::SlowWrite),
                2 => s.chaos_event(ChaosEvent::WorkerPause),
                _ if snap.chaos_resets < snap.conns_opened => s.chaos_event(ChaosEvent::Reset),
                _ => {}
            },
            11 => {
                let phase = Phase::ALL[usize::from(pick) % Phase::ALL.len()];
                if snap.phase(phase).count < snap.accepted {
                    s.record_phase(phase, n * n * 977);
                }
            }
            12 if adopted > 0 => {
                s.conn_closed();
                adopted -= 1;
            }
            _ => {}
        }
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn rendered_snapshots_parse_back(
        ops in prop::collection::vec((0u8..13, 0u64..6, 0u8..255), 0..120),
        uptime_ms in 0u64..10_000_000,
    ) {
        let snap = run_ops(&ops).snapshot();
        prop_assert_eq!(snap.check(), Ok(()));
        let text = render_exposition(&snap, Duration::from_millis(uptime_ms));
        let (back, uptime) = parse_exposition(&text).map_err(TestCaseError::fail)?;
        prop_assert_eq!(uptime, Duration::from_millis(uptime_ms));
        prop_assert_eq!(without_extrema(back.clone()), without_extrema(snap));
        prop_assert_eq!(render_exposition(&back, uptime), text);
    }
}

/// Adds `delta` to every sample whose name starts with `series` (all
/// rows of a histogram move together, so it stays self-consistent).
fn bump(text: &str, series: &str, delta: i128) -> String {
    let mut hits = 0;
    let out = text
        .lines()
        .map(|line| match line.rsplit_once(' ') {
            Some((name, v)) if name.starts_with(series) => {
                hits += 1;
                format!("{name} {}\n", v.parse::<i128>().unwrap() + delta)
            }
            _ => format!("{line}\n"),
        })
        .collect();
    assert!(hits > 0, "no sample starts with {series}");
    out
}

#[test]
fn each_tampered_series_reports_its_clause() {
    let text = golden_text();
    let p = "oblivion_serve_";
    let cases: [(String, i128, Clause); 9] = [
        (format!("{p}queue_depth"), -2, Clause::NegativeGauge),
        (format!("{p}connections"), -2, Clause::NegativeGauge),
        (format!("{p}conns_closed"), 1, Clause::Churn),
        (format!("{p}chaos_resets"), 5, Clause::ChaosResets),
        (format!("{p}accepted"), -6, Clause::TenantOverClaim),
        (format!("{p}accepted"), 1, Clause::Conservation),
        // Counters at the top of their range must not overflow the law.
        (
            format!("{p}completed"),
            i128::from(u64::MAX - 3),
            Clause::Conservation,
        ),
        (format!("{p}phase_parse_us_"), 12, Clause::PhaseCount),
        (
            format!("{p}tenant_completed{{mesh=\"a\"}}"),
            1,
            Clause::Tenant,
        ),
    ];
    for (series, delta, clause) in cases {
        let tampered = bump(&text, &series, delta);
        let (snap, _) = parse_exposition(&tampered).expect("tampered text still parses");
        let violation = snap.check().expect_err(&series);
        assert_eq!(violation.clause, clause, "{series}{delta:+}: {violation}");
    }
}
