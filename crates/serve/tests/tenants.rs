//! Multi-tenant serving end-to-end: `MESH <id>` prefixes interleaved on
//! one pipelined connection, per-tenant quota isolation, typed
//! `UNKNOWN_MESH`, and hot `ADMIN RETIRE`/`ADD` through the health port
//! under live traffic. Every scenario ends with both the global and the
//! per-tenant conservation laws holding.

use oblivion_core::{build_router, parse_mesh_spec};
use oblivion_serve::{Client, Control, Registry, RouterHandle, ServeConfig};
use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
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

/// One request/reply exchange on the health port (HEALTH, METRICS, or
/// an ADMIN verb): fresh connection, one line each way.
fn health_exchange(health: &SocketAddr, line: &str) -> String {
    let stream =
        TcpStream::connect_timeout(health, Duration::from_secs(5)).expect("health connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    (&stream)
        .write_all(format!("{line}\n").as_bytes())
        .expect("health write");
    let mut reply = String::new();
    BufReader::new(&stream)
        .read_line(&mut reply)
        .expect("health read");
    reply.trim_end().to_string()
}

/// A two-tenant registry: `a` is the default mesh (8x8), `b` a smaller
/// 4x4 — so a destination like `7,7` is valid on `a` and out of range
/// on `b`, which lets the tests prove each line routed on *its* mesh.
fn two_tenant_registry<'a>(quota: Option<u64>) -> Registry<'a> {
    let reg = Registry::new("a", quota);
    for (id, spec) in [("a", "8x8"), ("b", "4x4")] {
        let mesh = parse_mesh_spec(spec, false).expect("mesh");
        let router = build_router("dim-order", &mesh).expect("router");
        reg.add(id, RouterHandle::Owned(router)).expect("add");
    }
    reg
}

fn quiet_config() -> ServeConfig {
    ServeConfig {
        port: 0,
        health_port: Some(0),
        threads: 1,
        announce: false,
        ..ServeConfig::default()
    }
}

#[test]
fn interleaved_mesh_prefixes_route_on_their_own_mesh_in_order() {
    let registry = two_tenant_registry(None);
    let cfg = quiet_config();
    let ctl = Control::new();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| oblivion_serve::run_registry(&registry, &cfg, &ctl));
        let addr = ctl.wait_addr(Duration::from_secs(5)).expect("no bind");
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).expect("connect");
        stream.set_nodelay(true).expect("nodelay");

        // One pipelined burst interleaving both tenants plus a
        // prefix-free line (which must resolve to the default `a`).
        // `7,7` exists on a's 8x8 but not on b's 4x4: the same
        // coordinates succeed or fail depending only on the prefix.
        let mut burst = String::new();
        burst.push_str("MESH a PATH 1 0,0 7,7 id=t-1\n");
        burst.push_str("MESH b PATH 2 0,0 3,3 id=t-2\n");
        burst.push_str("MESH b PATH 3 0,0 7,7 id=t-3\n");
        burst.push_str("PATH 4 1,1 7,7 id=t-4\n");
        burst.push_str("MESH a PATH 5 2,2 5,5 id=t-5\n");
        (&stream).write_all(burst.as_bytes()).expect("write");
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("shutdown");

        let replies = read_lines(&stream, 5, Instant::now() + Duration::from_secs(5));
        assert_eq!(replies.len(), 5, "replies: {replies:?}");
        assert!(replies[0].starts_with("OK id=t-1 "), "{:?}", replies[0]);
        assert!(replies[1].starts_with("OK id=t-2 "), "{:?}", replies[1]);
        assert!(
            replies[2].starts_with("ERR BAD_REQUEST id=t-3"),
            "7,7 is outside b's 4x4: {:?}",
            replies[2]
        );
        assert!(
            replies[3].starts_with("OK id=t-4 "),
            "prefix-free resolves to the default mesh: {:?}",
            replies[3]
        );
        assert!(replies[4].starts_with("OK id=t-5 "), "{:?}", replies[4]);

        ctl.request_shutdown();
        let summary = server.join().expect("server panicked").expect("run failed");
        let s = summary.stats;
        assert!(s.conserved(), "{s:?}");
        assert_eq!(s.check(), Ok(()), "{s:?}");
        let a = s.tenant("a").expect("tenant a row");
        let b = s.tenant("b").expect("tenant b row");
        assert_eq!(a.accepted, 3, "{s:?}");
        assert_eq!(a.completed, 3, "{s:?}");
        assert_eq!(b.accepted, 2, "{s:?}");
        assert_eq!(b.completed, 1, "{s:?}");
        assert_eq!(b.bad_request, 1, "{s:?}");
        assert!(
            a.state_bytes > 0 && b.state_bytes > 0,
            "state gauges populated: {s:?}"
        );
    });
}

#[test]
fn over_quota_tenant_sheds_alone() {
    // Quota 2: a burst of three b-lines keeps at most two unsettled
    // admissions; the third is shed OVERLOADED — while a's line on the
    // same connection is untouched.
    let registry = two_tenant_registry(Some(2));
    let cfg = quiet_config();
    let ctl = Control::new();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| oblivion_serve::run_registry(&registry, &cfg, &ctl));
        let addr = ctl.wait_addr(Duration::from_secs(5)).expect("no bind");
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).expect("connect");
        stream.set_nodelay(true).expect("nodelay");

        let mut burst = String::new();
        burst.push_str("MESH b PATH 1 0,0 3,3 id=q-1\n");
        burst.push_str("MESH b PATH 2 1,1 2,2 id=q-2\n");
        burst.push_str("MESH b PATH 3 0,1 3,0 id=q-3\n");
        burst.push_str("MESH a PATH 4 0,0 7,7 id=q-4\n");
        (&stream).write_all(burst.as_bytes()).expect("write");
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("shutdown");

        let replies = read_lines(&stream, 4, Instant::now() + Duration::from_secs(5));
        assert_eq!(replies.len(), 4, "replies: {replies:?}");
        assert!(replies[0].starts_with("OK id=q-1 "), "{:?}", replies[0]);
        assert!(replies[1].starts_with("OK id=q-2 "), "{:?}", replies[1]);
        assert!(
            replies[2].starts_with("ERR OVERLOADED id=q-3"),
            "third b-line is over quota 2: {:?}",
            replies[2]
        );
        assert!(
            replies[3].starts_with("OK id=q-4 "),
            "a is not b; its admission is untouched: {:?}",
            replies[3]
        );

        ctl.request_shutdown();
        let summary = server.join().expect("server panicked").expect("run failed");
        let s = summary.stats;
        assert!(s.conserved(), "{s:?}");
        assert_eq!(s.check(), Ok(()), "{s:?}");
        let a = s.tenant("a").expect("tenant a row");
        let b = s.tenant("b").expect("tenant b row");
        assert_eq!(b.shed_overloaded, 1, "shed charged to b: {s:?}");
        assert_eq!(a.shed_overloaded, 0, "none charged to a: {s:?}");
        assert_eq!(a.completed, 1, "{s:?}");
        assert_eq!(b.completed, 2, "{s:?}");
    });
}

#[test]
fn unknown_mesh_is_typed_and_unattributed() {
    let registry = two_tenant_registry(None);
    let cfg = quiet_config();
    let ctl = Control::new();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| oblivion_serve::run_registry(&registry, &cfg, &ctl));
        let addr = ctl.wait_addr(Duration::from_secs(5)).expect("no bind");
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).expect("connect");
        stream.set_nodelay(true).expect("nodelay");

        let burst = "MESH nope PATH 1 0,0 3,3 id=u-1\nMESH a PATH 2 0,0 3,3 id=u-2\n";
        (&stream).write_all(burst.as_bytes()).expect("write");
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("shutdown");

        let replies = read_lines(&stream, 2, Instant::now() + Duration::from_secs(5));
        assert_eq!(replies.len(), 2, "replies: {replies:?}");
        assert!(
            replies[0].starts_with("ERR UNKNOWN_MESH id=u-1"),
            "{:?}",
            replies[0]
        );
        assert!(replies[1].starts_with("OK id=u-2 "), "{:?}", replies[1]);

        ctl.request_shutdown();
        let summary = server.join().expect("server panicked").expect("run failed");
        let s = summary.stats;
        assert!(s.conserved(), "{s:?}");
        assert_eq!(s.check(), Ok(()), "{s:?}");
        assert_eq!(s.unknown_mesh, 1, "{s:?}");
        assert!(s.tenant("nope").is_none(), "no ledger for unknown ids");
        let a = s.tenant("a").expect("tenant a row");
        assert_eq!(a.accepted, 1, "unknown line never attributed: {s:?}");
    });
}

#[test]
fn admin_retire_drains_in_flight_then_sheds_typed_and_add_revives() {
    let registry = two_tenant_registry(None);
    // Per-line bursts with real work, so a line can be *in flight* on a
    // tenant when the retire lands.
    let cfg = ServeConfig {
        batch_max: 1,
        work: Duration::from_millis(200),
        deadline: Duration::from_secs(5),
        ..quiet_config()
    };
    let ctl = Control::new();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| oblivion_serve::run_registry(&registry, &cfg, &ctl));
        let addr = ctl.wait_addr(Duration::from_secs(5)).expect("no bind");
        let health = ctl.health_addr().expect("no health listener");
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).expect("connect");
        stream.set_nodelay(true).expect("nodelay");

        // r-1 starts routing (~200ms of work); the retire lands while it
        // is in flight. It must still complete — that is the drain.
        (&stream)
            .write_all(b"MESH b PATH 1 0,0 3,3 id=r-1\n")
            .expect("write");
        std::thread::sleep(Duration::from_millis(50));
        let retired = health_exchange(&health, "ADMIN RETIRE b");
        assert_eq!(retired, "OK retired b", "{retired:?}");
        // Lines parsed after the retire answer MESH_RETIRED, typed and
        // id-echoed, on the same still-healthy connection.
        (&stream)
            .write_all(b"MESH b PATH 2 1,1 2,2 id=r-2\nMESH a PATH 3 0,0 7,7 id=r-3\n")
            .expect("write");

        let replies = read_lines(&stream, 3, Instant::now() + Duration::from_secs(5));
        assert_eq!(replies.len(), 3, "replies: {replies:?}");
        assert!(
            replies[0].starts_with("OK id=r-1 "),
            "in-flight line completes across the retire: {:?}",
            replies[0]
        );
        assert!(
            replies[1].starts_with("ERR MESH_RETIRED id=r-2"),
            "{:?}",
            replies[1]
        );
        assert!(
            replies[2].starts_with("OK id=r-3 "),
            "other tenants keep routing: {:?}",
            replies[2]
        );

        // Double-retire and retiring the default are refused.
        let again = health_exchange(&health, "ADMIN RETIRE b");
        assert!(again.starts_with("ERR BAD_REQUEST"), "{again:?}");
        let default = health_exchange(&health, "ADMIN RETIRE a");
        assert!(default.starts_with("ERR BAD_REQUEST"), "{default:?}");
        let listed = health_exchange(&health, "ADMIN LIST");
        assert!(listed.contains("b:retired:0"), "{listed:?}");

        // Re-adding the id revives it; the next line routes again.
        let added = health_exchange(&health, "ADMIN ADD b 4x4 dim-order");
        assert!(added.starts_with("OK added b state_bytes="), "{added:?}");
        (&stream)
            .write_all(b"MESH b PATH 4 0,0 3,3 id=r-4\n")
            .expect("write");
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("shutdown");
        let tail = read_lines(&stream, 1, Instant::now() + Duration::from_secs(5));
        assert_eq!(tail.len(), 1, "replies: {tail:?}");
        assert!(tail[0].starts_with("OK id=r-4 "), "{:?}", tail[0]);

        // A live scrape mid-lifecycle still satisfies both conservation
        // laws and carries the per-tenant rows.
        let scrape = Client::new(&health.to_string(), Duration::from_secs(5))
            .expect("client")
            .scrape()
            .expect("scrape");
        let (exp, _) = oblivion_serve::parse_exposition(&scrape).expect("parse");
        exp.check().expect("live scrape conserves");
        assert!(exp.tenant("b").is_some(), "{scrape}");

        ctl.request_shutdown();
        let summary = server.join().expect("server panicked").expect("run failed");
        let s = summary.stats;
        assert!(s.conserved(), "{s:?}");
        assert_eq!(s.check(), Ok(()), "{s:?}");
        let b = s.tenant("b").expect("tenant b row");
        assert_eq!(b.completed, 2, "r-1 and r-4: {s:?}");
        assert_eq!(b.mesh_retired, 1, "r-2: {s:?}");
        assert_eq!(s.mesh_retired, 1, "{s:?}");
    });
}

#[test]
fn admin_add_rejects_garbage() {
    let registry = two_tenant_registry(None);
    let cfg = quiet_config();
    let ctl = Control::new();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| oblivion_serve::run_registry(&registry, &cfg, &ctl));
        let _addr = ctl.wait_addr(Duration::from_secs(5)).expect("no bind");
        let health = ctl.health_addr().expect("no health listener");
        for bad in [
            "ADMIN ADD",                  // missing everything
            "ADMIN ADD c",                // missing spec + router
            "ADMIN ADD c 4x4",            // missing router
            "ADMIN ADD c 4x4 frobnicate", // unknown router
            "ADMIN ADD c 0x4 dim-order",  // bad mesh spec
            "ADMIN ADD a 4x4 dim-order",  // id already live
            "ADMIN ADD bad*id 4x4 romm",  // invalid id
            "ADMIN FROB",                 // unknown verb
        ] {
            let reply = health_exchange(&health, bad);
            assert!(reply.starts_with("ERR BAD_REQUEST"), "{bad}: {reply:?}");
        }
        // And the registry is unchanged by all of it.
        let listed = health_exchange(&health, "ADMIN LIST");
        assert!(listed.starts_with("OK meshes a:live:"), "{listed:?}");
        assert!(!listed.contains(" c:"), "{listed:?}");
        ctl.request_shutdown();
        let summary = server.join().expect("server panicked").expect("run failed");
        assert!(summary.stats.conserved());
    });
}
