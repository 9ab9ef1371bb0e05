//! Soak test: the server under deliberate overload — far more concurrent
//! clients than workers, a tiny admission queue, simulated per-request
//! work, and one adversarial stalled connection — must stay responsive,
//! shed with typed errors, answer health probes throughout, and account
//! for every accepted connection (the conservation law).

use oblivion_core::BuschD;
use oblivion_mesh::Mesh;
use oblivion_serve::{
    loadgen, parse_exposition, run_loadgen, Client, Control, LoadgenConfig, ServeConfig,
};
use std::io::Write as _;
use std::net::TcpStream;
use std::time::{Duration, Instant};

#[test]
fn overloaded_server_sheds_answers_probes_and_conserves() {
    let mesh = Mesh::new_mesh(&[16, 16]);
    let router = BuschD::new(mesh.clone());
    let cfg = ServeConfig {
        port: 0,
        health_port: Some(0),
        threads: 2,
        queue_cap: 4,
        // Simulated service time: 2 workers * 3ms each means anything
        // past ~666 req/s must queue, and the queue holds only 4.
        work: Duration::from_millis(3),
        deadline: Duration::from_millis(400),
        drain: Duration::from_secs(5),
        announce: false,
        ..ServeConfig::default()
    };
    let ctl = Control::new();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| oblivion_serve::run(&router, &cfg, &ctl));
        let addr = ctl.wait_addr(Duration::from_secs(5)).expect("no bind");
        let health = ctl.health_addr().expect("no health listener");

        // The adversarial client: connects, sends nothing useful, holds
        // the socket open. A naive per-connection blocking read would
        // park a worker forever; the deadline-re-arming read must answer
        // it DEADLINE_EXCEEDED and move on. Connect (and wait for the
        // acceptor to admit it) *before* the stampede, so it can't be
        // shed at admission instead.
        let stalled_stream =
            TcpStream::connect_timeout(&addr, Duration::from_secs(5)).expect("connect");
        let admit_deadline = Instant::now() + Duration::from_secs(5);
        while ctl.stats().snapshot().conns_opened < 1 {
            assert!(Instant::now() < admit_deadline, "stall never admitted");
            std::thread::sleep(Duration::from_millis(1));
        }
        let stalled = scope.spawn(move || {
            let started = Instant::now();
            // Drip one byte (not a full line) to defeat a first-read-only
            // timeout implementation, then go silent.
            std::thread::sleep(Duration::from_millis(50));
            let _ = (&stalled_stream).write_all(b"P");
            let mut buf = Vec::new();
            use std::io::Read as _;
            let _ = stalled_stream.try_clone().and_then(|mut s| {
                s.set_read_timeout(Some(Duration::from_secs(5)))?;
                s.read_to_end(&mut buf)
            });
            (started.elapsed(), String::from_utf8_lossy(&buf).to_string())
        });

        // The stampede: 32 closed-loop clients, no retries — every
        // OVERLOADED/DEADLINE_EXCEEDED lands in the report as observed.
        let lg = LoadgenConfig {
            addr: addr.to_string(),
            mesh: mesh.clone(),
            requests: 300,
            concurrency: 32,
            retries: 0,
            timeout: Duration::from_secs(5),
            seed: 1234,
            ..LoadgenConfig::default()
        };
        let stampede = scope.spawn(move || run_loadgen(&lg));

        // Health probes keep answering while the stampede runs: the
        // health listener bypasses admission entirely.
        let probe = Client::to(health, Duration::from_secs(2));
        let mut probes_ok = 0u32;
        for _ in 0..20 {
            match probe.probe("HEALTH") {
                Ok(payload) => {
                    assert!(
                        payload.starts_with("healthy"),
                        "odd health payload: {payload}"
                    );
                    probes_ok += 1;
                }
                Err(e) => panic!("health probe failed under load: {e:?}"),
            }
            match probe.probe("READY") {
                Ok(payload) => assert_eq!(payload, "ready"),
                Err(e) => panic!("readiness probe failed under load: {e:?}"),
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(probes_ok, 20);

        let report = stampede.join().expect("stampede panicked");
        let (stall_elapsed, stall_answer) = stalled.join().expect("stalled client panicked");

        // The stalled connection was answered (typed, in finite time),
        // not parked: well under the 5s passive read timeout, and with
        // the DEADLINE_EXCEEDED taxonomy on the wire.
        assert!(
            stall_elapsed < Duration::from_secs(3),
            "stalled connection took {stall_elapsed:?}"
        );
        assert!(
            stall_answer.contains("ERR DEADLINE_EXCEEDED"),
            "stalled connection got: {stall_answer:?}"
        );

        // No malformed bytes ever, even when shedding hard.
        assert_eq!(report.malformed, 0, "{}", report.render());
        assert_eq!(report.bad_request, 0, "{}", report.render());
        // Some work completed and, with 32 clients against 2 workers and
        // a 4-deep queue, some was shed with a typed error.
        assert!(report.ok > 0, "{}", report.render());
        assert!(
            report.overloaded + report.deadline > 0,
            "no shedding under 8x overload? {}",
            report.render()
        );

        // Quiesce and check the books.
        ctl.request_shutdown();
        let summary = server.join().expect("server panicked").expect("run failed");
        let s = summary.stats;
        assert!(
            s.conserved(),
            "accepted {} != settled {} ({s:?})",
            s.accepted,
            s.settled()
        );
        assert!(s.shed_overloaded + s.deadline_exceeded > 0, "{s:?}");
        assert!(s.health_probes >= 40, "probes bypassed admission: {s:?}");
        assert!(s.max_queue_depth <= cfg.max_queued() as u64, "{s:?}");
    });
}

#[test]
fn metrics_scrapes_conserve_under_full_overload() {
    // Hammer the daemon well past capacity while a scraper loops on the
    // health port's METRICS verb. Every single scrape — taken
    // mid-stampede, with connections in every lifecycle stage — must
    // parse, satisfy the live conservation law, and keep every phase
    // histogram count within `accepted`. The background flusher writes
    // JSONL snapshots to disk at the same time; its lines must agree
    // with the same invariants.
    let mesh = Mesh::new_mesh(&[16, 16]);
    let router = BuschD::new(mesh.clone());
    let stats_path =
        std::env::temp_dir().join(format!("oblivion-scrape-soak-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&stats_path);
    let cfg = ServeConfig {
        port: 0,
        health_port: Some(0),
        threads: 2,
        queue_cap: 4,
        work: Duration::from_millis(3),
        deadline: Duration::from_millis(400),
        drain: Duration::from_secs(5),
        stats_every: Some(Duration::from_millis(20)),
        stats_path: Some(stats_path.clone()),
        announce: false,
        ..ServeConfig::default()
    };
    let ctl = Control::new();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| oblivion_serve::run(&router, &cfg, &ctl));
        let addr = ctl.wait_addr(Duration::from_secs(5)).expect("no bind");
        let health = ctl.health_addr().expect("no health listener");
        let lg = LoadgenConfig {
            addr: addr.to_string(),
            mesh: mesh.clone(),
            requests: 400,
            concurrency: 32,
            retries: 0,
            timeout: Duration::from_secs(5),
            seed: 7,
            ..LoadgenConfig::default()
        };
        let stampede = scope.spawn(move || run_loadgen(&lg));

        let scraper = Client::to(health, Duration::from_secs(2));
        let mut scrapes = 0u32;
        let mut last_accepted = 0u64;
        while !stampede.is_finished() || scrapes < 10 {
            let text = scraper.scrape().expect("scrape failed under load");
            let (exp, _) = parse_exposition(&text)
                .unwrap_or_else(|why| panic!("unparseable scrape #{scrapes}: {why}\n{text}"));
            exp.check()
                .unwrap_or_else(|why| panic!("scrape #{scrapes} violates conservation: {why}"));
            let accepted = exp.accepted;
            assert!(
                accepted >= last_accepted,
                "accepted went backwards: {last_accepted} -> {accepted}"
            );
            last_accepted = accepted;
            scrapes += 1;
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(scrapes >= 10);

        let report = stampede.join().expect("stampede panicked");
        assert_eq!(report.malformed, 0, "{}", report.render());
        ctl.request_shutdown();
        let summary = server.join().expect("server panicked").expect("run failed");
        let s = &summary.stats;
        assert!(s.conserved(), "{s:?}");
        assert_eq!(s.check(), Ok(()), "{s:?}");
        // The stampede really drove every phase.
        for (name, h) in &s.phases {
            assert!(h.count > 0, "phase {name} never recorded");
        }

        // The flusher left a parseable JSONL trail whose lines carry
        // monotone accepted counts bounded by the final book.
        let flushed = std::fs::read_to_string(&stats_path).expect("flusher wrote nothing");
        let mut prev = 0i64;
        let mut lines = 0u32;
        for line in flushed.lines() {
            let v = oblivion_obs::Json::parse(line)
                .unwrap_or_else(|e| panic!("bad flusher line: {e}\n{line}"));
            assert_eq!(v.get("type").and_then(|t| t.as_str()), Some("serve_stats"));
            let accepted = v
                .get("serve_accepted")
                .and_then(|a| a.as_i64())
                .expect("serve_accepted");
            assert!(accepted >= prev, "flusher accepted went backwards");
            assert!(accepted as u64 <= s.accepted);
            prev = accepted;
            lines += 1;
        }
        assert!(lines >= 2, "flusher only wrote {lines} lines");
        assert_eq!(prev as u64, s.accepted, "final flush missed the drain");
        let _ = std::fs::remove_file(&stats_path);
    });
}

#[test]
fn request_ids_round_trip_byte_for_byte() {
    let mesh = Mesh::new_mesh(&[8, 8]);
    let router = BuschD::new(mesh.clone());
    let cfg = ServeConfig {
        port: 0,
        health_port: None,
        threads: 2,
        queue_cap: 16,
        deadline: Duration::from_secs(2),
        drain: Duration::from_secs(2),
        announce: false,
        ..ServeConfig::default()
    };
    let ctl = Control::new();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| oblivion_serve::run(&router, &cfg, &ctl));
        let addr = ctl.wait_addr(Duration::from_secs(5)).expect("no bind");
        let client = Client::to(addr, Duration::from_secs(5));

        // The high-level client verifies the echo itself.
        let (seed, src, dst) = loadgen::request_of(&mesh, 21, 0);
        client
            .request_path_with_id(&mesh, seed, &src, &dst, Some("trace-7.a:b_c"))
            .expect("id round trip");

        // And on the raw wire the echo is byte-for-byte at the head of
        // the payload.
        let raw = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).expect("connect");
        (&raw).write_all(b"PATH 3 0,0 2,2 id=x-1\n").expect("write");
        // Half-close: the keep-alive server closes its side once the
        // last reply is out, so read_to_end terminates.
        raw.shutdown(std::net::Shutdown::Write).expect("shutdown");
        let mut buf = Vec::new();
        use std::io::Read as _;
        raw.try_clone()
            .and_then(|mut s| {
                s.set_read_timeout(Some(Duration::from_secs(5)))?;
                s.read_to_end(&mut buf)
            })
            .expect("read");
        let reply = String::from_utf8(buf).expect("utf8");
        assert!(reply.starts_with("OK id=x-1 "), "reply: {reply:?}");

        // A bad request with a salvageable ID still echoes it.
        let raw = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).expect("connect");
        (&raw)
            .write_all(b"PATH nonsense 0,0 2,2 id=y-2\n")
            .expect("write");
        raw.shutdown(std::net::Shutdown::Write).expect("shutdown");
        let mut buf = Vec::new();
        raw.try_clone()
            .and_then(|mut s| {
                s.set_read_timeout(Some(Duration::from_secs(5)))?;
                s.read_to_end(&mut buf)
            })
            .expect("read");
        let reply = String::from_utf8(buf).expect("utf8");
        assert!(
            reply.starts_with("ERR BAD_REQUEST id=y-2"),
            "reply: {reply:?}"
        );

        ctl.request_shutdown();
        let summary = server.join().expect("server panicked").expect("run failed");
        assert!(summary.stats.conserved(), "{:?}", summary.stats);
    });
}

#[test]
fn retries_converge_under_overload() {
    // Same overload, but with the retry budget on: every request must
    // eventually succeed, because OVERLOADED/DEADLINE_EXCEEDED are
    // retryable and the server never wedges.
    let mesh = Mesh::new_mesh(&[8, 8]);
    let router = BuschD::new(mesh.clone());
    let cfg = ServeConfig {
        port: 0,
        health_port: None,
        threads: 2,
        queue_cap: 4,
        work: Duration::from_millis(2),
        deadline: Duration::from_millis(500),
        drain: Duration::from_secs(5),
        announce: false,
        ..ServeConfig::default()
    };
    let ctl = Control::new();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| oblivion_serve::run(&router, &cfg, &ctl));
        let addr = ctl.wait_addr(Duration::from_secs(5)).expect("no bind");
        let lg = LoadgenConfig {
            addr: addr.to_string(),
            mesh: mesh.clone(),
            requests: 200,
            concurrency: 16,
            retries: 20,
            backoff: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(50),
            timeout: Duration::from_secs(5),
            seed: 99,
            ..LoadgenConfig::default()
        };
        let report = run_loadgen(&lg);
        assert_eq!(report.ok, 200, "{}", report.render());
        assert_eq!(report.failed, 0, "{}", report.render());
        assert_eq!(report.malformed, 0, "{}", report.render());

        // Sanity: the deterministic request stream really exercises the
        // mesh (distinct pairs), so convergence wasn't a cache artifact.
        let distinct: std::collections::HashSet<_> = (0..200)
            .map(|id| {
                let (_, s, d) = loadgen::request_of(&mesh, 99, id);
                (s, d)
            })
            .collect();
        assert!(
            distinct.len() > 150,
            "only {} distinct pairs",
            distinct.len()
        );

        ctl.request_shutdown();
        let summary = server.join().expect("server panicked").expect("run failed");
        assert!(summary.stats.conserved(), "{:?}", summary.stats);
    });
}

#[test]
fn drain_budget_rejects_backlog_with_shutting_down() {
    // A server killed with a zero drain budget must still answer its
    // queued backlog — with ERR SHUTTING_DOWN, not silence — and the
    // books must balance.
    let mesh = Mesh::new_mesh(&[8, 8]);
    let router = BuschD::new(mesh.clone());
    let cfg = ServeConfig {
        port: 0,
        health_port: None,
        threads: 1,
        queue_cap: 16,
        work: Duration::from_millis(20),
        deadline: Duration::from_secs(2),
        drain: Duration::ZERO,
        announce: false,
        ..ServeConfig::default()
    };
    let ctl = Control::new();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| oblivion_serve::run(&router, &cfg, &ctl));
        let addr = ctl.wait_addr(Duration::from_secs(5)).expect("no bind");
        let lg = LoadgenConfig {
            addr: addr.to_string(),
            mesh: mesh.clone(),
            requests: 60,
            concurrency: 12,
            retries: 0,
            timeout: Duration::from_secs(5),
            seed: 5,
            ..LoadgenConfig::default()
        };
        let stampede = scope.spawn(move || run_loadgen(&lg));
        // Let the queue fill, then pull the plug mid-flight.
        std::thread::sleep(Duration::from_millis(80));
        ctl.request_shutdown();
        let report = stampede.join().expect("stampede panicked");
        let summary = server.join().expect("server panicked").expect("run failed");
        let s = summary.stats;
        assert!(s.conserved(), "{s:?}");
        assert_eq!(report.malformed, 0, "{}", report.render());
        // Everything the client saw is typed: ok, shed, shutting-down,
        // or a transport error from the closed listener — never garbage.
        let accounted = report.ok
            + report.overloaded
            + report.deadline
            + report.shutting_down
            + report.transport;
        assert!(accounted >= 60, "{}", report.render());
    });
}
