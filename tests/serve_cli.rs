//! End-to-end subprocess test of `oblivion serve` + `oblivion loadgen`:
//! real processes, real sockets, a real SIGTERM. This is the same shape
//! the chaos gate exercises in CI, kept here in miniature so `cargo
//! test` alone covers the serve lifecycle.

use std::io::{BufRead, BufReader};
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn oblivion() -> Command {
    Command::new(env!("CARGO_BIN_EXE_oblivion"))
}

/// Picks a free port by binding to 0 and releasing it. Racy in theory;
/// in practice the window to the server's own bind is microseconds, and
/// the test fails loudly (bind error on stderr) rather than hanging if
/// it ever loses the race.
fn free_port() -> u16 {
    let l = TcpListener::bind("127.0.0.1:0").expect("bind :0");
    l.local_addr().expect("local addr").port()
}

/// A port where `port + 1` (the default health port) is also free.
fn free_port_pair() -> u16 {
    for _ in 0..50 {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind :0");
        let p = l.local_addr().expect("local addr").port();
        if p < u16::MAX && TcpListener::bind(("127.0.0.1", p + 1)).is_ok() {
            return p;
        }
    }
    panic!("could not find two consecutive free ports");
}

/// Waits for the server's "listening" announcement on stderr, then
/// returns the drained prefix (the reader thread keeps draining so the
/// child never blocks on a full pipe).
fn wait_listening(child: &mut Child) {
    let stderr = child.stderr.take().expect("stderr piped");
    let (tx, rx) = std::sync::mpsc::channel::<String>();
    std::thread::spawn(move || {
        for line in BufReader::new(stderr).lines() {
            let Ok(line) = line else { break };
            let _ = tx.send(line);
        }
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(line) if line.contains("serve: listening") => return,
            Ok(_) => {}
            Err(_) if Instant::now() > deadline => {
                panic!("server never announced it was listening")
            }
            Err(_) => {}
        }
    }
}

/// SIGTERM, then wait with a timeout; kill -9 as a last resort so a
/// regression hangs the assertion, not the test runner.
fn terminate_and_wait(mut child: Child) -> (Option<i32>, String) {
    let pid = child.id().to_string();
    let status = Command::new("kill")
        .args(["-TERM", &pid])
        .status()
        .expect("spawn kill");
    assert!(status.success(), "kill -TERM failed");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match child.try_wait().expect("try_wait") {
            Some(status) => {
                let mut out = String::new();
                use std::io::Read as _;
                if let Some(mut stdout) = child.stdout.take() {
                    let _ = stdout.read_to_string(&mut out);
                }
                return (status.code(), out);
            }
            None if Instant::now() > deadline => {
                let _ = child.kill();
                let _ = child.wait();
                panic!("server did not exit within 10s of SIGTERM");
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

#[test]
fn serve_loadgen_sigterm_lifecycle() {
    let port = free_port();
    let mut server = oblivion()
        .args([
            "serve",
            "--mesh",
            "16x16",
            "--router",
            "busch2d",
            "--port",
            &port.to_string(),
            "--no-health",
            "--threads",
            "2",
            "--queue",
            "32",
            "--deadline-ms",
            "1000",
            "--drain-ms",
            "2000",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    wait_listening(&mut server);

    // A loadgen run against the live server: must exit 0 with zero
    // failed and zero malformed.
    let lg = oblivion()
        .args([
            "loadgen",
            "--mesh",
            "16x16",
            "--port",
            &port.to_string(),
            "--requests",
            "120",
            "--concurrency",
            "8",
            "--seed",
            "11",
        ])
        .output()
        .expect("spawn loadgen");
    let lg_out = String::from_utf8_lossy(&lg.stdout);
    let lg_err = String::from_utf8_lossy(&lg.stderr);
    assert_eq!(
        lg.status.code(),
        Some(0),
        "loadgen failed\nstdout: {lg_out}\nstderr: {lg_err}"
    );
    assert!(lg_out.contains("ok=120"), "{lg_out}");
    assert!(lg_out.contains("malformed=0"), "{lg_out}");

    // Graceful SIGTERM: exit 0 and a conserving final account.
    let (code, stdout) = terminate_and_wait(server);
    assert_eq!(code, Some(0), "serve exit code\nstdout: {stdout}");
    assert!(
        stdout.contains("counters conserve: yes"),
        "final account must conserve: {stdout}"
    );
    assert!(stdout.contains("drained and stopped"), "{stdout}");
}

#[test]
fn metrics_scrape_top_and_flusher_lifecycle() {
    // The full telemetry loop as real processes: a daemon with the
    // background stats flusher on, a loadgen burst with trace IDs, a
    // raw METRICS scrape off the health port, `oblivion top --check`
    // polling the same endpoint, and finally a SIGTERM drain whose
    // metrics file must hold the flusher's JSONL stream *plus* the
    // appended final report — renderable by `oblivion stats`.
    let port = free_port_pair();
    let metrics = std::env::temp_dir().join(format!("oblivion_serve_cli_metrics_{port}.jsonl"));
    let _ = std::fs::remove_file(&metrics);
    let mut server = oblivion()
        .args([
            "serve",
            "--mesh",
            "16x16",
            "--port",
            &port.to_string(),
            "--threads",
            "2",
            "--queue",
            "32",
            "--stats-every",
            "50",
            "--metrics-out",
            metrics.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    wait_listening(&mut server);

    let lg = oblivion()
        .args([
            "loadgen",
            "--mesh",
            "16x16",
            "--port",
            &port.to_string(),
            "--requests",
            "80",
            "--concurrency",
            "8",
            "--seed",
            "3",
        ])
        .output()
        .expect("spawn loadgen");
    assert_eq!(
        lg.status.code(),
        Some(0),
        "loadgen: {}",
        String::from_utf8_lossy(&lg.stderr)
    );

    // Raw METRICS off the health port: parseable counters with the
    // request traffic on the books and the EOF truncation guard.
    use std::io::{Read as _, Write as _};
    let mut s = std::net::TcpStream::connect_timeout(
        &format!("127.0.0.1:{}", port + 1).parse().unwrap(),
        Duration::from_secs(5),
    )
    .expect("connect health port");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(b"METRICS\n").unwrap();
    let mut scrape = String::new();
    s.read_to_string(&mut scrape).unwrap();
    assert!(
        scrape.contains("# TYPE oblivion_serve_accepted counter"),
        "{scrape}"
    );
    assert!(
        scrape.contains("oblivion_serve_phase_route_compute_us_count"),
        "{scrape}"
    );
    assert!(scrape.trim_end().ends_with("# EOF"), "{scrape}");

    // `oblivion top --check`: three scrapes, zero conservation
    // violations, rates rendered.
    let top = oblivion()
        .args([
            "top",
            "--port",
            &(port + 1).to_string(),
            "--interval-ms",
            "60",
            "--iterations",
            "3",
            "--check",
        ])
        .output()
        .expect("spawn top");
    let top_out = String::from_utf8_lossy(&top.stdout);
    let top_err = String::from_utf8_lossy(&top.stderr);
    assert_eq!(
        top.status.code(),
        Some(0),
        "top failed\nstdout: {top_out}\nstderr: {top_err}"
    );
    assert!(top_out.contains("accepted 80"), "{top_out}");
    assert!(top_out.contains("route_compute"), "{top_out}");
    assert!(top_out.contains("top: 3 scrapes, 0 errors"), "{top_out}");

    let (code, stdout) = terminate_and_wait(server);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("counters conserve: yes"), "{stdout}");
    assert!(stdout.contains("phase route_compute"), "{stdout}");
    assert!(stdout.contains("phase reply_format"), "{stdout}");

    // The metrics file carries both halves: the flusher's serve_stats
    // stream (crash-durable) and the appended final report.
    let doc = std::fs::read_to_string(&metrics).expect("metrics file");
    let stats_lines = doc
        .lines()
        .filter(|l| l.starts_with("{\"type\":\"serve_stats\""))
        .count();
    assert!(stats_lines >= 1, "no flushed serve_stats lines:\n{doc}");
    assert!(
        doc.lines().any(|l| l.starts_with("{\"type\":\"report\"")),
        "final report missing (append clobbered?):\n{doc}"
    );
    assert!(doc.contains("\"serve_accepted\""), "{doc}");
    let report = doc
        .lines()
        .rfind(|l| l.starts_with("{\"type\":\"report\""))
        .unwrap_or_default();
    assert!(
        report.contains("\"phase_reply_format_us\":{\"type\":\"histogram\""),
        "the report carries the phase histograms: {report}"
    );

    // And `oblivion stats` renders the mixed document.
    let stats = oblivion()
        .args(["stats", metrics.to_str().unwrap()])
        .output()
        .expect("spawn stats");
    let stats_out = String::from_utf8_lossy(&stats.stdout);
    assert_eq!(
        stats.status.code(),
        Some(0),
        "stats: {}",
        String::from_utf8_lossy(&stats.stderr)
    );
    assert!(stats_out.contains("serve_accepted"), "{stats_out}");
    assert!(
        stats_out
            .lines()
            .any(|l| l.trim_start().starts_with("phase_reply_format_us") && l.contains(" count ")),
        "{stats_out}"
    );
    let _ = std::fs::remove_file(&metrics);
}

#[test]
fn top_exits_promptly_on_sigint_mid_interval() {
    // Between scrapes `oblivion top` parks on the shutdown latch, so a
    // SIGINT ends even a 10 s interval at once, and exits 0: a watcher
    // its user stopped has not failed. Nothing listens on the port, so
    // the one scrape fails fast.
    let port = free_port();
    let mut top = oblivion()
        .args(["top", "--port", &port.to_string(), "--interval-ms", "10000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn top");
    // The first frame is written after the signal handler is installed.
    let mut frames = BufReader::new(top.stdout.take().expect("stdout piped"));
    let mut first = String::new();
    frames.read_line(&mut first).expect("read first frame");
    assert!(first.contains("scrape #1"), "{first}");
    let sent = Instant::now();
    let status = Command::new("kill")
        .args(["-INT", &top.id().to_string()])
        .status()
        .expect("spawn kill");
    assert!(status.success(), "kill -INT failed");
    let status = loop {
        if let Some(status) = top.try_wait().expect("try_wait") {
            break status;
        }
        if sent.elapsed() > Duration::from_secs(2) {
            let _ = top.kill();
            let _ = top.wait();
            panic!("top still running 2 s after SIGINT");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let mut rest = String::new();
    use std::io::Read as _;
    let _ = frames.read_to_string(&mut rest);
    assert_eq!(status.code(), Some(0), "stdout: {first}{rest}");
}

#[test]
fn serve_health_probe_via_loadgen_port_collision() {
    // The default health port is request-port + 1; both listeners must
    // come up and the health one must answer HEALTH over a raw socket.
    let port = free_port_pair();
    let mut server = oblivion()
        .args([
            "serve",
            "--mesh",
            "8x8",
            "--port",
            &port.to_string(),
            "--threads",
            "1",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    wait_listening(&mut server);

    use std::io::{Read as _, Write as _};
    let mut s = std::net::TcpStream::connect_timeout(
        &format!("127.0.0.1:{}", port + 1).parse().unwrap(),
        Duration::from_secs(5),
    )
    .expect("connect health port");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(b"HEALTH\n").unwrap();
    let mut answer = String::new();
    s.read_to_string(&mut answer).unwrap();
    assert!(answer.starts_with("OK healthy"), "{answer:?}");

    let (code, stdout) = terminate_and_wait(server);
    assert_eq!(code, Some(0), "{stdout}");
}
