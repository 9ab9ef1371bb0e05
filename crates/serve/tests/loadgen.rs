//! The load generator's transports against a live server: pipelined,
//! keep-alive, open loop on kept connections, and a tenant mix, each
//! checked against the server's own ledger; plus the latency
//! definition (first launch through every retry and backoff), checked
//! through a proxy that sheds the first attempt. Every run is bounded
//! by a hard wall-clock limit, so a lost reply fails the test instead
//! of hanging it.

use oblivion_core::{build_router, parse_mesh_spec, BuschD};
use oblivion_mesh::Mesh;
use oblivion_serve::{
    run_loadgen, Control, LoadgenConfig, LoadgenReport, Registry, RouterHandle, ServeConfig,
    StatsSnapshot,
};
use std::io::{BufRead as _, BufReader, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

/// Longest any single load run may take before the test fails.
const RUN_LIMIT: Duration = Duration::from_secs(60);

/// Requests server shutdown when dropped, so a failed assertion inside
/// `thread::scope` unwinds instead of waiting on a server nobody
/// stopped.
struct StopOnDrop<'a>(&'a Control);
impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.request_shutdown();
    }
}

/// Runs `cfg` on a thread of its own and fails the test if it outlives
/// [`RUN_LIMIT`].
fn run_bounded(cfg: LoadgenConfig) -> LoadgenReport {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(run_loadgen(&cfg));
    });
    rx.recv_timeout(RUN_LIMIT)
        .unwrap_or_else(|_| panic!("loadgen run exceeded {RUN_LIMIT:?}"))
}

fn quiet_config(threads: usize) -> ServeConfig {
    ServeConfig {
        port: 0,
        health_port: None,
        threads,
        announce: false,
        ..ServeConfig::default()
    }
}

/// Serves `registry` on two workers, runs the load `load` builds for
/// the server's address, and returns the report with the server's
/// final (quiescent) counters.
fn serve_and_load<'a>(
    registry: &'a Registry<'a>,
    load: impl FnOnce(String) -> LoadgenConfig,
) -> (LoadgenReport, StatsSnapshot) {
    let cfg = quiet_config(2);
    let ctl = Control::new();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| oblivion_serve::run_registry(registry, &cfg, &ctl));
        let stop = StopOnDrop(&ctl);
        let addr = ctl.wait_addr(Duration::from_secs(5)).expect("no bind");
        let report = run_bounded(load(addr.to_string()));
        drop(stop);
        let summary = server.join().expect("server panicked").expect("run failed");
        (report, summary.stats)
    })
}

/// A 16x16 `buschd` load of `requests` paths on four threads.
fn load(addr: String, requests: usize) -> LoadgenConfig {
    LoadgenConfig {
        addr,
        mesh: Mesh::new_mesh(&[16, 16]),
        requests,
        concurrency: 4,
        timeout: Duration::from_secs(5),
        seed: 15,
        ..LoadgenConfig::default()
    }
}

/// The checks every clean run must pass: every request answered with a
/// valid path, nothing malformed, and client and server books agreeing.
fn assert_clean(r: &LoadgenReport, s: &StatsSnapshot, requests: usize) {
    assert_eq!(r.ok, requests as u64, "{}", r.render());
    assert_eq!(r.failed, 0, "{}", r.render());
    assert_eq!(r.malformed, 0, "{}", r.render());
    assert_eq!(r.latencies_us.len(), requests, "{}", r.render());
    assert_eq!(s.completed, r.ok, "{s:?}\n{}", r.render());
    assert!(s.conserved(), "{s:?}");
}

#[test]
fn pipelined_windows_are_answered_in_order_and_conserved() {
    let mesh = Mesh::new_mesh(&[16, 16]);
    let router = BuschD::new(mesh);
    let (r, s) = serve_and_load(&Registry::single(&router), |addr| LoadgenConfig {
        pipeline: 8,
        ..load(addr, 400)
    });
    assert_clean(&r, &s, 400);
    assert!(s.conns_opened <= 4, "pipelined threads reconnected: {s:?}");
}

#[test]
fn keep_alive_at_depth_one_is_answered_and_conserved() {
    let mesh = Mesh::new_mesh(&[16, 16]);
    let router = BuschD::new(mesh);
    let (r, s) = serve_and_load(&Registry::single(&router), |addr| LoadgenConfig {
        keep_alive: true,
        ..load(addr, 200)
    });
    assert_clean(&r, &s, 200);
    assert!(s.conns_opened <= 4, "kept connections reconnected: {s:?}");
}

#[test]
fn open_loop_paces_windows_on_kept_connections() {
    let mesh = Mesh::new_mesh(&[16, 16]);
    let router = BuschD::new(mesh);
    let (r, s) = serve_and_load(&Registry::single(&router), |addr| LoadgenConfig {
        keep_alive: true,
        rate: 2000.0,
        ..load(addr, 200)
    });
    assert_clean(&r, &s, 200);
    assert!(
        s.conns_opened <= 4,
        "open loop opened a connection per request: {s:?}"
    );
}

#[test]
fn tenant_mix_on_a_pipelined_run_partitions_the_successes() {
    let registry = Registry::new("a", None);
    for id in ["a", "b"] {
        let mesh = parse_mesh_spec("16x16", false).expect("mesh");
        let router = build_router("buschd", &mesh).expect("router");
        registry.add(id, RouterHandle::Owned(router)).expect("add");
    }
    let (r, s) = serve_and_load(&registry, |addr| LoadgenConfig {
        pipeline: 8,
        tenants: vec![("a".into(), 0.7), ("b".into(), 0.3)],
        ..load(addr, 300)
    });
    assert_clean(&r, &s, 300);
    assert_eq!(r.tenants.len(), 2, "{}", r.render());
    assert_eq!(r.tenants.values().map(|t| t.ok).sum::<u64>(), r.ok);
    assert!(r.tenants.values().all(|t| t.ok > 0), "{}", r.render());
}

/// Forwards one request line per connection to `upstream` and relays
/// its reply, except that the very first line is answered
/// `ERR OVERLOADED` (a pre-read shed: no echoed id).
fn shed_once_proxy(upstream: SocketAddr) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
    let addr = listener.local_addr().expect("proxy addr");
    std::thread::spawn(move || {
        for (n, conn) in listener.incoming().enumerate() {
            let Ok(mut conn) = conn else { continue };
            let mut line = String::new();
            if BufReader::new(&conn).read_line(&mut line).is_err() {
                continue;
            }
            let reply = if n == 0 {
                "ERR OVERLOADED\n".to_string()
            } else {
                let mut up = TcpStream::connect(upstream).expect("connect upstream");
                up.write_all(line.as_bytes()).expect("forward");
                let mut reply = String::new();
                BufReader::new(&up).read_line(&mut reply).expect("relay");
                reply
            };
            let _ = conn.write_all(reply.as_bytes());
        }
    });
    addr
}

#[test]
fn latency_runs_from_first_launch_through_the_backoff() {
    let mesh = Mesh::new_mesh(&[16, 16]);
    let router = BuschD::new(mesh);
    let backoff = Duration::from_millis(60);
    let (r, s) = serve_and_load(&Registry::single(&router), |addr| LoadgenConfig {
        concurrency: 1,
        backoff,
        backoff_cap: backoff,
        ..load(shed_once_proxy(addr.parse().expect("addr")).to_string(), 1)
    });
    assert_clean(&r, &s, 1);
    assert_eq!((r.overloaded, r.retries), (1, 1), "{}", r.render());
    assert!(
        r.latency_ms(0.0) >= backoff.as_secs_f64() * 1e3,
        "latency {} ms leaves out the {backoff:?} backoff\n{}",
        r.latency_ms(0.0),
        r.render()
    );
}
