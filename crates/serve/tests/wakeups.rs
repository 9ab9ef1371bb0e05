//! Lost-wakeup and timed-event tests for the event-driven server.
//!
//! Every idle server thread parks in `poll` and relies on someone waking
//! it: the acceptor wakes a worker after a hand-off, a client's bytes
//! wake the worker owning the socket, the slow-loris deadline is the
//! worker's poll timeout, and the shutdown and drained latches wake the
//! acceptor, health listener and flusher. A lost wakeup shows up as a
//! request that never gets its answer, so every request here carries a
//! hard 1 s timeout, and the server runs on a detached thread whose
//! summary is awaited with a timeout too: a lost wakeup fails the test
//! instead of hanging it.

use oblivion_core::{BuschD, ObliviousRouter};
use oblivion_mesh::{Coord, Mesh};
use oblivion_serve::loadgen::request_of;
use oblivion_serve::{wire, ChaosConfig, ChaosPlan, Control, ServeConfig, ServeSummary};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// The hard per-request budget.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(1);

/// The timed tests assert tight bounds (deadline + 50 ms, 100 ms
/// shutdown), so they do not share the two cores with the stress test.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Requests server shutdown when dropped, so a failed assertion still
/// stops the server.
struct StopOnDrop<'a>(&'a Control);
impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.request_shutdown();
    }
}

fn connect(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect_timeout(&addr, REQUEST_TIMEOUT).expect("connect");
    s.set_read_timeout(Some(REQUEST_TIMEOUT)).unwrap();
    s.set_write_timeout(Some(REQUEST_TIMEOUT)).unwrap();
    s.set_nodelay(true).unwrap();
    s
}

fn router() -> Arc<BuschD> {
    Arc::new(BuschD::new(Mesh::new_mesh(&[8, 8])))
}

/// The request line and its expected reply, computed in process exactly
/// as the server computes it.
fn request(router: &dyn ObliviousRouter, stream: u64, n: u64) -> (String, String) {
    let mesh = router.mesh();
    let (seed, src, dst) = request_of(mesh, stream, n);
    (
        path_line(mesh, seed, &src, &dst),
        expected(router, seed, &src, &dst),
    )
}

fn path_line(mesh: &Mesh, seed: u64, src: &Coord, dst: &Coord) -> String {
    format!(
        "PATH {seed} {} {}\n",
        wire::format_coord(src, mesh.dim()),
        wire::format_coord(dst, mesh.dim())
    )
}

fn expected(router: &dyn ObliviousRouter, seed: u64, src: &Coord, dst: &Coord) -> String {
    let routed = router.select_path(src, dst, &mut StdRng::seed_from_u64(seed));
    wire::format_path_line(&routed.path, router.mesh().dim())
}

/// One request on a fresh connection. Even `n` half-closes after the
/// request (the server then sees EOF and closes first); odd `n` reads
/// the reply and hangs up itself. Returns the reply line.
fn one_shot(addr: SocketAddr, line: &str, n: u64) -> String {
    let mut s = connect(addr);
    s.write_all(line.as_bytes()).expect("send");
    if n.is_multiple_of(2) {
        s.shutdown(Shutdown::Write).expect("half-close");
    }
    let mut reply = String::new();
    BufReader::new(&s)
        .read_line(&mut reply)
        .unwrap_or_else(|e| panic!("no reply within {REQUEST_TIMEOUT:?} to {line:?}: {e}"));
    reply
}

/// One request on a kept connection; returns the reply line.
fn kept_round_trip(s: &TcpStream, reader: &mut BufReader<&TcpStream>, line: &str) -> String {
    let mut w = s;
    w.write_all(line.as_bytes()).expect("kept send");
    let mut reply = String::new();
    reader
        .read_line(&mut reply)
        .unwrap_or_else(|e| panic!("no reply within {REQUEST_TIMEOUT:?} to {line:?}: {e}"));
    reply
}

fn config(threads: usize) -> ServeConfig {
    ServeConfig {
        threads,
        health_port: None,
        deadline: Duration::from_secs(2),
        ..ServeConfig::default()
    }
}

/// What [`with_server`] hands back: `f`'s result, the final summary, and
/// how long `run` took to return once `stop` was called.
struct Served<R> {
    result: R,
    summary: ServeSummary,
    shutdown_took: Duration,
}

/// Runs the server on a detached thread for the duration of `f`, then
/// calls `stop` and waits at most `shutdown_budget` for `run` to return.
/// If `f` panics, the server is shut down through its `Control`.
fn with_server<R>(
    router: &Arc<BuschD>,
    cfg: ServeConfig,
    shutdown_budget: Duration,
    f: impl FnOnce(SocketAddr, &Control) -> R,
    stop: impl FnOnce(&Control),
) -> Served<R> {
    let ctl = Arc::new(Control::new());
    let (done, finished) = mpsc::channel();
    {
        let (router, ctl) = (Arc::clone(router), Arc::clone(&ctl));
        std::thread::spawn(move || {
            let summary = oblivion_serve::run(&*router, &cfg, &ctl);
            let _ = done.send((summary, Instant::now()));
        });
    }
    let _guard = StopOnDrop(&ctl);
    let addr = ctl.wait_addr(Duration::from_secs(5)).expect("no bind");
    let result = f(addr, &ctl);
    let asked = Instant::now();
    stop(&ctl);
    let (summary, returned_at) = finished
        .recv_timeout(shutdown_budget)
        .unwrap_or_else(|_| panic!("run did not return within {shutdown_budget:?} of shutdown"));
    Served {
        result,
        summary: summary.expect("serve failed"),
        shutdown_took: returned_at.duration_since(asked),
    }
}

#[test]
fn stress_one_shot_and_kept_connections_never_lose_a_wakeup() {
    let router = router();
    const CLIENTS: u64 = 4;
    const PER_CLIENT: u64 = 2_000;
    const KEPT: u64 = 2;
    // Fewer than the one-shot clients send, so the run ends with the
    // acceptor as the workers' only waker.
    const PER_KEPT: u64 = 200;
    for threads in [1, 3] {
        let served = with_server(
            &router,
            config(threads),
            REQUEST_TIMEOUT,
            |addr, _| {
                std::thread::scope(|scope| {
                    let router = &*router;
                    let kept: Vec<_> = (0..KEPT)
                        .map(|k| {
                            scope.spawn(move || {
                                let mut rng = StdRng::seed_from_u64(k);
                                let s = connect(addr);
                                let mut reader = BufReader::new(&s);
                                for n in 0..PER_KEPT {
                                    let (line, want) = request(router, 100 + k, n);
                                    let got = kept_round_trip(&s, &mut reader, &line);
                                    assert_eq!(got, want, "kept connection {k}, request {n}");
                                    let gap = rng.gen_range(0..=3_000u64);
                                    std::thread::sleep(Duration::from_micros(gap));
                                }
                            })
                        })
                        .collect();
                    let clients: Vec<_> = (0..CLIENTS)
                        .map(|c| {
                            scope.spawn(move || {
                                for n in 0..PER_CLIENT {
                                    let (line, want) = request(router, c, n);
                                    let got = one_shot(addr, &line, n);
                                    assert_eq!(got, want, "threads {threads}, client {c}, #{n}");
                                }
                            })
                        })
                        .collect();
                    for t in kept.into_iter().chain(clients) {
                        t.join().expect("client failed");
                    }
                })
            },
            Control::request_shutdown,
        );
        let s = &served.summary.stats;
        assert!(s.conserved(), "threads {threads}: {s:?}");
        assert_eq!(s.completed, CLIENTS * PER_CLIENT + KEPT * PER_KEPT, "{s:?}");
        assert_eq!(s.conns_opened, CLIENTS * PER_CLIENT + KEPT, "{s:?}");
        assert_eq!(
            s.io_errors + s.shed_overloaded + s.deadline_exceeded,
            0,
            "{s:?}"
        );
    }
}

#[test]
fn partial_line_on_a_parked_worker_times_out_on_schedule() {
    let _serial = serial();
    let deadline = Duration::from_millis(200);
    let cfg = ServeConfig {
        deadline,
        ..config(1)
    };
    let served = with_server(
        &router(),
        cfg,
        REQUEST_TIMEOUT,
        |addr, _| {
            let mut s = connect(addr);
            let sent = Instant::now();
            s.write_all(b"PATH 1 1,1").expect("send partial line");
            let mut reply = String::new();
            BufReader::new(&s)
                .read_line(&mut reply)
                .expect("no slow-loris reply");
            let took = sent.elapsed();
            assert_eq!(
                reply,
                wire::format_err_line(wire::ErrorKind::DeadlineExceeded, "")
            );
            // The server closes after the reply.
            let mut rest = Vec::new();
            let _ = s.read_to_end(&mut rest);
            assert!(rest.is_empty());
            took
        },
        Control::request_shutdown,
    );
    let took = served.result;
    assert!(took >= deadline, "answered early: {took:?}");
    assert!(
        took <= deadline + Duration::from_millis(50),
        "slow-loris reply took {took:?} for a {deadline:?} deadline"
    );
    assert!(
        served.summary.stats.conserved(),
        "{:?}",
        served.summary.stats
    );
    assert_eq!(served.summary.stats.deadline_exceeded, 1);
}

/// A wire seed whose request does (or does not) pause its worker.
fn seed_where(plan: &ChaosPlan, pauses: bool) -> u64 {
    (0u64..)
        .find(|&s| {
            plan.worker_pause(oblivion_serve::chaos::request_key(s, None))
                .is_some()
                == pauses
        })
        .expect("some seed matches")
}

/// Waits until only `open` connections remain open on the server, then
/// a little longer so the worker that closed the rest has parked again.
fn settle_to(ctl: &Control, open: i64) {
    let started = Instant::now();
    while ctl.stats().snapshot().open_conns != open {
        assert!(
            started.elapsed() < REQUEST_TIMEOUT,
            "connections never closed"
        );
        std::thread::yield_now();
    }
    std::thread::sleep(Duration::from_millis(20));
}

#[test]
fn a_sibling_answers_what_queues_behind_a_paused_worker() {
    let _serial = serial();
    let router = router();
    let mesh = router.mesh().clone();
    let pause = Duration::from_secs(2);
    let chaos = ChaosConfig {
        seed: 7,
        pause_prob: 0.5,
        pause,
        ..ChaosConfig::default()
    };
    let plan = ChaosPlan::new(chaos.clone());
    let (stall_seed, calm_seed) = (seed_where(&plan, true), seed_where(&plan, false));
    let (src, dst) = (Coord::new(&[1, 2]), Coord::new(&[6, 5]));
    let cfg = ServeConfig {
        chaos: Some(chaos),
        deadline: Duration::from_secs(5),
        ..config(2)
    };
    // Shutdown waits for worker 0 to finish its pause.
    let served = with_server(
        &router,
        cfg,
        pause * 2,
        |addr, ctl| {
            // The first connection lands in worker 0's mailbox and pauses
            // that worker for `pause`; the event is counted just before the
            // worker stops.
            let mut stalled = connect(addr);
            stalled
                .write_all(path_line(&mesh, stall_seed, &src, &dst).as_bytes())
                .expect("send");
            let paused_at = Instant::now();
            while ctl.stats().snapshot().chaos_worker_pauses == 0 {
                assert!(
                    paused_at.elapsed() < REQUEST_TIMEOUT,
                    "worker 0 never paused"
                );
                std::thread::yield_now();
            }
            // Round-robin alternates mailboxes, so two of these four queue
            // behind the paused worker 0. Each is sent only once worker 1 is
            // idle again, so nothing but the acceptor's wake makes it steal.
            let line = path_line(&mesh, calm_seed, &src, &dst);
            let want = expected(&*router, calm_seed, &src, &dst);
            for n in 0..4 {
                settle_to(ctl, 1);
                assert_eq!(one_shot(addr, &line, n), want, "request {n}");
            }
            assert!(
                paused_at.elapsed() < pause - Duration::from_millis(200),
                "answers waited for the pause: {:?}",
                paused_at.elapsed()
            );
            drop(stalled);
        },
        Control::request_shutdown,
    );
    assert!(
        served.summary.stats.conserved(),
        "{:?}",
        served.summary.stats
    );
    assert!(
        served.summary.stats.completed >= 4,
        "{:?}",
        served.summary.stats
    );
}

/// Asks for shutdown via `stop` once the server is idle with kept
/// connections open (health listener and stats flusher on), and returns
/// how long `run` took to return after the request, plus the flushed
/// stats file.
fn shutdown_latency(process_signal: bool, stop: impl FnOnce(&Control)) -> (Duration, String) {
    let router = router();
    let stats_path = std::env::temp_dir().join(format!(
        "oblivion-wakeups-{}-{process_signal}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&stats_path);
    let cfg = ServeConfig {
        health_port: Some(0),
        stats_every: Some(Duration::from_secs(30)),
        stats_path: Some(stats_path.clone()),
        honor_process_signals: process_signal,
        ..config(2)
    };
    let served = with_server(
        &router,
        cfg,
        REQUEST_TIMEOUT,
        |addr, _| {
            // Workers own these, answered and idle, when shutdown arrives.
            let kept: Vec<TcpStream> = (0..3)
                .map(|k| {
                    let s = connect(addr);
                    let (line, want) = request(&*router, 7, k);
                    assert_eq!(kept_round_trip(&s, &mut BufReader::new(&s), &line), want);
                    s
                })
                .collect();
            std::thread::sleep(Duration::from_millis(50)); // let every thread park
            kept
        },
        stop,
    );
    drop(served.result);
    let stats = &served.summary.stats;
    assert!(stats.conserved(), "{stats:?}");
    assert_eq!(stats.completed, 3);
    let flushed = std::fs::read_to_string(&stats_path).unwrap_or_default();
    let _ = std::fs::remove_file(&stats_path);
    (served.shutdown_took, flushed)
}

#[test]
fn shutdown_of_an_idle_server_returns_at_once() {
    let _serial = serial();
    let (took, flushed) = shutdown_latency(false, Control::request_shutdown);
    assert!(
        took < Duration::from_millis(100),
        "run took {took:?} to return"
    );
    // The flusher's final line is written at drain, not at its next
    // 30 s tick.
    let last = flushed.lines().last().expect("final flush at drain");
    assert!(last.contains("\"serve_completed\":3"), "{last}");
}

#[test]
fn process_shutdown_request_wakes_an_idle_server_at_once() {
    let _serial = serial();
    oblivion_signal::reset();
    let (took, _) = shutdown_latency(true, |_| oblivion_signal::request_shutdown());
    oblivion_signal::reset();
    assert!(
        took < Duration::from_millis(100),
        "run took {took:?} to return"
    );
}
