//! Pipelining edge cases on the raw wire: frames split across reads,
//! malformed lines mid-pipeline, per-line deadlines inside a burst, and
//! drain with a half-consumed pipeline. Every scenario ends with the
//! request-unit conservation law holding.

use oblivion_core::BuschD;
use oblivion_mesh::Mesh;
use oblivion_serve::{Control, Phase, ServeConfig};
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Reads reply lines until `n` have arrived or `deadline` passes.
fn read_lines(stream: &TcpStream, n: usize, deadline: Instant) -> Vec<String> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        let lines = buf.iter().filter(|&&b| b == b'\n').count();
        if lines >= n || Instant::now() >= deadline {
            break;
        }
        let remaining = deadline.saturating_duration_since(Instant::now());
        let _ = stream.set_read_timeout(Some(remaining.max(Duration::from_millis(1))));
        match (&mut (&*stream)).read(&mut chunk) {
            Ok(0) => break,
            Ok(got) => buf.extend_from_slice(&chunk[..got]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
    String::from_utf8_lossy(&buf)
        .lines()
        .map(str::to_string)
        .collect()
}

#[test]
fn frames_split_across_reads_answer_in_order() {
    let mesh = Mesh::new_mesh(&[8, 8]);
    let router = BuschD::new(mesh.clone());
    let cfg = ServeConfig {
        port: 0,
        health_port: None,
        threads: 1,
        announce: false,
        ..ServeConfig::default()
    };
    let ctl = Control::new();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| oblivion_serve::run(&router, &cfg, &ctl));
        let addr = ctl.wait_addr(Duration::from_secs(5)).expect("no bind");
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).expect("connect");
        stream.set_nodelay(true).expect("nodelay");

        // Three pipelined requests, written in deliberately hostile
        // chunks: a frame boundary mid-token, two frames in one write,
        // and a trailing fragment completed later.
        let wire = b"PATH 1 0,0 3,3 id=a-1\nPATH 2 1,1 5,5 id=a-2\nPATH 3 2,2 7,7 id=a-3\n";
        let cuts = [5usize, 23, 27, 50, wire.len()];
        let mut from = 0;
        for cut in cuts {
            (&stream).write_all(&wire[from..cut]).expect("write chunk");
            (&stream).flush().expect("flush");
            from = cut;
            std::thread::sleep(Duration::from_millis(20));
        }

        let replies = read_lines(&stream, 3, Instant::now() + Duration::from_secs(5));
        assert_eq!(replies.len(), 3, "replies: {replies:?}");
        for (i, reply) in replies.iter().enumerate() {
            assert!(
                reply.starts_with(&format!("OK id=a-{} ", i + 1)),
                "reply {i} out of order or failed: {reply:?}"
            );
        }

        drop(stream);
        ctl.request_shutdown();
        let summary = server.join().expect("server panicked").expect("run failed");
        let s = summary.stats;
        assert!(s.conserved(), "{s:?}");
        assert_eq!(s.completed, 3, "{s:?}");
        assert_eq!(s.bad_request, 0, "{s:?}");
    });
}

#[test]
fn malformed_line_mid_pipeline_answers_in_order_without_desync() {
    let mesh = Mesh::new_mesh(&[8, 8]);
    let router = BuschD::new(mesh.clone());
    let cfg = ServeConfig {
        port: 0,
        health_port: None,
        threads: 1,
        announce: false,
        ..ServeConfig::default()
    };
    let ctl = Control::new();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| oblivion_serve::run(&router, &cfg, &ctl));
        let addr = ctl.wait_addr(Duration::from_secs(5)).expect("no bind");
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).expect("connect");
        stream.set_nodelay(true).expect("nodelay");

        // good, malformed (bad seed, salvageable id), over-long, good —
        // one write, four in-order replies expected.
        let mut burst = String::new();
        burst.push_str("PATH 1 0,0 3,3 id=b-1\n");
        burst.push_str("PATH nonsense 0,0 3,3 id=b-2\n");
        burst.push_str(&format!("PATH 1 0,0 3,3 id={}\n", "x".repeat(400)));
        burst.push_str("PATH 4 1,1 6,6 id=b-4\n");
        (&stream).write_all(burst.as_bytes()).expect("write");
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("shutdown");

        let replies = read_lines(&stream, 4, Instant::now() + Duration::from_secs(5));
        assert_eq!(replies.len(), 4, "replies: {replies:?}");
        assert!(replies[0].starts_with("OK id=b-1 "), "{:?}", replies[0]);
        assert!(
            replies[1].starts_with("ERR BAD_REQUEST id=b-2"),
            "{:?}",
            replies[1]
        );
        assert!(
            replies[2].starts_with("ERR BAD_REQUEST"),
            "{:?}",
            replies[2]
        );
        assert!(replies[3].starts_with("OK id=b-4 "), "{:?}", replies[3]);

        ctl.request_shutdown();
        let summary = server.join().expect("server panicked").expect("run failed");
        let s = summary.stats;
        assert!(s.conserved(), "{s:?}");
        assert_eq!(s.completed, 2, "{s:?}");
        assert_eq!(s.bad_request, 2, "{s:?}");
    });
}

#[test]
fn deadline_expires_for_late_requests_of_a_pipeline() {
    let mesh = Mesh::new_mesh(&[8, 8]);
    let router = BuschD::new(mesh.clone());
    // batch_max 1 forces one burst per line, so the simulated work is
    // paid per request and the pipeline backs up past the deadline.
    let cfg = ServeConfig {
        port: 0,
        health_port: None,
        threads: 1,
        batch_max: 1,
        work: Duration::from_millis(400),
        deadline: Duration::from_millis(600),
        drain: Duration::from_secs(5),
        announce: false,
        ..ServeConfig::default()
    };
    let ctl = Control::new();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| oblivion_serve::run(&router, &cfg, &ctl));
        let addr = ctl.wait_addr(Duration::from_secs(5)).expect("no bind");
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).expect("connect");
        stream.set_nodelay(true).expect("nodelay");

        // Three requests land together; all three deadlines start at
        // frame time. Request 1 routes at ~400ms (inside 600ms);
        // request 2's work is capped by its deadline and expires;
        // request 3 is already stale when its burst starts.
        let burst = "PATH 1 0,0 3,3 id=c-1\nPATH 2 1,1 5,5 id=c-2\nPATH 3 2,2 7,7 id=c-3\n";
        (&stream).write_all(burst.as_bytes()).expect("write");
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("shutdown");

        let replies = read_lines(&stream, 3, Instant::now() + Duration::from_secs(10));
        assert_eq!(replies.len(), 3, "replies: {replies:?}");
        assert!(replies[0].starts_with("OK id=c-1 "), "{:?}", replies[0]);
        assert!(
            replies[1].starts_with("ERR DEADLINE_EXCEEDED id=c-2"),
            "{:?}",
            replies[1]
        );
        assert!(
            replies[2].starts_with("ERR DEADLINE_EXCEEDED id=c-3"),
            "{:?}",
            replies[2]
        );

        ctl.request_shutdown();
        let summary = server.join().expect("server panicked").expect("run failed");
        let s = summary.stats;
        assert!(s.conserved(), "{s:?}");
        assert_eq!(s.completed, 1, "{s:?}");
        assert_eq!(s.deadline_exceeded, 2, "{s:?}");
    });
}

#[test]
fn drain_rejects_the_unconsumed_tail_of_a_pipeline() {
    let mesh = Mesh::new_mesh(&[8, 8]);
    let router = BuschD::new(mesh.clone());
    let cfg = ServeConfig {
        port: 0,
        health_port: None,
        threads: 1,
        batch_max: 1,
        work: Duration::from_millis(150),
        deadline: Duration::from_secs(5),
        drain: Duration::ZERO,
        announce: false,
        ..ServeConfig::default()
    };
    let ctl = Control::new();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| oblivion_serve::run(&router, &cfg, &ctl));
        let addr = ctl.wait_addr(Duration::from_secs(5)).expect("no bind");
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).expect("connect");
        stream.set_nodelay(true).expect("nodelay");

        // Four requests at ~150ms of work each; shutdown lands while
        // the pipeline is half-consumed, with a zero drain budget, so
        // the unstarted tail must be answered ERR SHUTTING_DOWN (typed,
        // with IDs) rather than dropped.
        let burst =
            "PATH 1 0,0 3,3 id=d-1\nPATH 2 1,1 5,5 id=d-2\nPATH 3 2,2 7,7 id=d-3\nPATH 4 3,3 6,6 id=d-4\n";
        (&stream).write_all(burst.as_bytes()).expect("write");
        std::thread::sleep(Duration::from_millis(225));
        ctl.request_shutdown();

        let replies = read_lines(&stream, 4, Instant::now() + Duration::from_secs(10));
        assert_eq!(replies.len(), 4, "replies: {replies:?}");
        assert!(replies[0].starts_with("OK id=d-1 "), "{:?}", replies[0]);
        // The boundary request (in flight when the drain stamped) may
        // land either way; everything behind it must be typed shutdown.
        for (i, reply) in replies.iter().enumerate().skip(1) {
            let id = format!("d-{}", i + 1);
            assert!(
                reply.starts_with(&format!("OK id={id} "))
                    || reply.starts_with(&format!("ERR SHUTTING_DOWN id={id}")),
                "reply {i}: {reply:?}"
            );
        }
        assert!(
            replies[3].starts_with("ERR SHUTTING_DOWN id=d-4"),
            "{:?}",
            replies[3]
        );

        let summary = server.join().expect("server panicked").expect("run failed");
        let s = summary.stats;
        assert!(s.conserved(), "{s:?}");
        assert!(s.drain_rejected >= 1, "{s:?}");
        assert!(s.completed >= 1, "{s:?}");
        assert_eq!(
            s.completed + s.drain_rejected,
            4,
            "every pipelined unit settled typed: {s:?}"
        );
    });
}

#[test]
fn every_burst_times_its_reply_formatting_once() {
    let mesh = Mesh::new_mesh(&[8, 8]);
    let router = BuschD::new(mesh.clone());
    let cfg = ServeConfig {
        port: 0,
        health_port: None,
        threads: 1,
        announce: false,
        ..ServeConfig::default()
    };
    let ctl = Control::new();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| oblivion_serve::run(&router, &cfg, &ctl));
        let addr = ctl.wait_addr(Duration::from_secs(5)).expect("no bind");
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).expect("connect");
        stream.set_nodelay(true).expect("nodelay");

        // Several pipelined bursts in lock step, each answered before
        // the next goes out.
        for burst in 0..4u64 {
            let mut lines = String::new();
            for i in 0..16 {
                let seed = burst * 16 + i;
                lines.push_str(&format!(
                    "PATH {seed} 0,{} 7,{} id=f-{seed}\n",
                    i % 8,
                    7 - i % 8
                ));
            }
            (&stream).write_all(lines.as_bytes()).expect("write");
            let replies = read_lines(&stream, 16, Instant::now() + Duration::from_secs(5));
            assert_eq!(replies.len(), 16, "burst {burst}: {replies:?}");
            for (i, reply) in replies.iter().enumerate() {
                let id = burst * 16 + i as u64;
                assert!(reply.starts_with(&format!("OK id=f-{id} ")), "{reply:?}");
            }
        }

        drop(stream);
        ctl.request_shutdown();
        let summary = server.join().expect("server panicked").expect("run failed");
        let s = summary.stats;
        assert!(s.conserved(), "{s:?}");
        assert_eq!(s.completed, 64, "{s:?}");
        let routed = s.phase(Phase::RouteCompute).count;
        assert!(routed >= 4, "{s:?}");
        assert_eq!(s.phase(Phase::ReplyFormat).count, routed, "{s:?}");
    });
}
