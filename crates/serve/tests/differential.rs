//! Differential test: the served answer must be *byte-identical* to the
//! in-process answer for the same `(mesh, router, seed, src, dst)`.
//!
//! Oblivious path selection is a pure function of those five inputs, so
//! the wire layer adds exactly zero entropy: any divergence here is a
//! serialization bug, an RNG-plumbing bug, or state leaking between
//! requests.

use oblivion_core::{build_router, Busch2D, BuschD, DimOrder, ObliviousRouter, ROUTER_NAMES};
use oblivion_mesh::{Coord, Mesh, NodeId, Path};
use oblivion_serve::client::PipelinedConn;
use oblivion_serve::{wire, Client, Control, Registry, RouterHandle, ServeConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

fn routers(mesh: &Mesh) -> Vec<Box<dyn ObliviousRouter>> {
    vec![
        Box::new(Busch2D::new(mesh.clone())),
        Box::new(BuschD::new(mesh.clone())),
        Box::new(DimOrder::new(mesh.clone())),
    ]
}

/// Deterministic request sample covering corners, the center, and
/// neighbors.
fn sample_pairs(mesh: &Mesh) -> Vec<(u64, Coord, Coord)> {
    let side = mesh.side(0);
    let c = |x: u32, y: u32| {
        let mut p = Coord::origin(2);
        p[0] = x;
        p[1] = y;
        p
    };
    vec![
        (0, c(0, 0), c(side - 1, side - 1)),
        (1, c(side - 1, 0), c(0, side - 1)),
        (42, c(3, 4), c(12, 9)),
        (0xDEAD_BEEF, c(side / 2, side / 2), c(0, 0)),
        (7, c(5, 5), c(5, 6)), // adjacent pair: shortest possible path
        (u64::MAX, c(1, 14), c(14, 1)),
    ]
}

#[test]
fn served_paths_are_byte_identical_to_in_process_answers() {
    let mesh = Mesh::new_mesh(&[16, 16]);
    for router in routers(&mesh) {
        let cfg = ServeConfig {
            port: 0,           // ephemeral: tests never fight over ports
            health_port: None, // not under test here
            threads: 2,
            announce: false,
            ..ServeConfig::default()
        };
        let ctl = Control::new();
        std::thread::scope(|scope| {
            let server = scope.spawn(|| oblivion_serve::run(router.as_ref(), &cfg, &ctl));
            let addr = ctl
                .wait_addr(Duration::from_secs(5))
                .expect("server did not bind");
            let client = Client::to(addr, Duration::from_secs(5));
            for (seed, src, dst) in sample_pairs(&mesh) {
                // The in-process ground truth, computed exactly the way
                // the server computes it.
                let mut rng = StdRng::seed_from_u64(seed);
                let routed = router.select_path(&src, &dst, &mut rng);
                let expected_line = wire::format_path_line(&routed.path, mesh.dim());

                // Structured comparison through the validating client...
                let hops = client
                    .request_path(&mesh, seed, &src, &dst)
                    .unwrap_or_else(|e| panic!("{}: request failed: {e:?}", router.name()));
                assert_eq!(
                    hops,
                    routed.path.nodes(),
                    "{}: served hops diverge for seed {seed}",
                    router.name()
                );

                // ...and the raw wire line, byte for byte.
                let raw = client
                    .round_trip(&format!(
                        "PATH {seed} {} {}\n",
                        wire::format_coord(&src, mesh.dim()),
                        wire::format_coord(&dst, mesh.dim())
                    ))
                    .expect("raw round trip failed");
                assert_eq!(
                    format!("OK {raw}\n"),
                    expected_line,
                    "{}: wire bytes diverge for seed {seed}",
                    router.name()
                );
            }
            // Repeating a request must reproduce the answer exactly: the
            // server holds no per-connection RNG state.
            let (seed, src, dst) = sample_pairs(&mesh)[2];
            let a = client.request_path(&mesh, seed, &src, &dst).unwrap();
            let b = client.request_path(&mesh, seed, &src, &dst).unwrap();
            assert_eq!(a, b, "{}: repeated request diverged", router.name());

            ctl.request_shutdown();
            let summary = server
                .join()
                .expect("server thread panicked")
                .expect("server run failed");
            assert!(summary.stats.conserved(), "{:?}", summary.stats);
            assert_eq!(summary.stats.bad_request, 0);
            assert_eq!(summary.stats.io_errors, 0);
        });
    }
}

#[test]
fn bad_requests_get_typed_errors_not_paths() {
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
        let addr = ctl.wait_addr(Duration::from_secs(5)).unwrap();
        let client = Client::to(addr, Duration::from_secs(5));
        for bad in [
            "PATH\n",                 // missing everything
            "PATH 7 0,0\n",           // missing dst
            "PATH x 0,0 1,1\n",       // non-numeric seed
            "PATH 7 0,0 9,9 extra\n", // trailing garbage
            "PATH 7 0,0 8,8\n",       // dst outside the 8x8 mesh
            "PATH 7 0,0 3,3,3\n",     // wrong dimensionality
            "FETCH 7 0,0 1,1\n",      // unknown verb
            "\n",                     // empty line
        ] {
            match client.round_trip(bad) {
                Err(oblivion_serve::ClientError::Server(
                    oblivion_serve::ErrorKind::BadRequest,
                    _,
                )) => {}
                other => panic!("{bad:?} should be BAD_REQUEST, got {other:?}"),
            }
        }
        ctl.request_shutdown();
        let summary = server.join().unwrap().unwrap();
        assert!(summary.stats.conserved(), "{:?}", summary.stats);
        assert_eq!(summary.stats.bad_request, 8);
        assert_eq!(summary.stats.completed, 0);
    });
}

/// Lines per pipelined burst: one full `batch_max` dispatch.
const BURST: usize = 64;

/// The geometries of the id walk, each with the tenant-id suffix its
/// routers are registered under: equal strides, wrap links (the torus),
/// unequal strides (the rectangle), and a third axis.
fn geometries() -> Vec<(&'static str, Mesh)> {
    vec![
        ("m16", Mesh::new_mesh(&[16, 16])),
        ("t16", Mesh::new_torus(&[16, 16])),
        ("r12x20", Mesh::new_mesh(&[12, 20])),
        ("m8x8x8", Mesh::new_mesh(&[8, 8, 8])),
    ]
}

/// `(tenant id, router)` for every `ROUTER_NAMES` entry that accepts
/// each geometry.
fn tenants() -> Vec<(String, Box<dyn ObliviousRouter>)> {
    geometries()
        .into_iter()
        .flat_map(|(geo, mesh)| {
            ROUTER_NAMES.iter().filter_map(move |name| {
                build_router(name, &mesh)
                    .ok()
                    .map(|r| (format!("{name}.{geo}"), r))
            })
        })
        .collect()
}

/// Query `i` of a burst on `mesh`: pseudo-random pairs, with a trivial
/// pair, the two ends of every axis (a wrap pair on the torus) and a
/// neighbor pair among them.
fn burst_query(mesh: &Mesh, i: usize) -> (u64, Coord, Coord) {
    let mix = |x: u64| {
        let z = (x ^ 0x5EED).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z ^ (z >> 29)
    };
    let n = mesh.node_count() as u64;
    let node = |x: u64| mesh.coord(NodeId((mix(x) % n) as usize));
    let seed = mix(!(i as u64));
    let src = node(2 * i as u64);
    let dst = match i {
        0 => src,
        1 | 2 => {
            let mut far = Coord::origin(mesh.dim());
            for a in 0..mesh.dim() {
                far[a] = mesh.side(a) - 1;
            }
            let near = far.with(0, 0);
            return if i == 1 {
                (seed, near, far)
            } else {
                (seed, far, near)
            };
        }
        3 => mesh.neighbors(&src)[0],
        _ => node(2 * i as u64 + 1),
    };
    (seed, src, dst)
}

/// One burst's request line and its expected reply, computed the way
/// the server's answer must come out: `select_path`, then the `OK` line.
fn burst_line(
    tenant: &str,
    router: &dyn ObliviousRouter,
    i: usize,
    out: &mut String,
    want: &mut Vec<String>,
) {
    let mesh = router.mesh();
    let (seed, src, dst) = burst_query(mesh, i);
    let id = format!("{tenant}-{i}");
    wire::push_path_request(out, seed, &src, &dst, mesh.dim(), Some(&id));
    out.insert_str(
        out.rfind("PATH ").expect("just pushed"),
        &format!("MESH {tenant} "),
    );
    let routed = router.select_path(&src, &dst, &mut StdRng::seed_from_u64(seed));
    want.push(wire::format_path_line_with_id(
        &routed.path,
        mesh.dim(),
        Some(&id),
    ));
}

/// Why a served `OK` line is not a path of the query on `mesh`, if it
/// is not: every hop must parse on `mesh`, consecutive hops must be
/// adjacent there, and the ends must be the query's. (The byte
/// comparison cannot see a decoding fault that `select_path` shares.)
fn invalid_reply(mesh: &Mesh, line: &str, i: usize) -> Option<String> {
    let (_, src, dst) = burst_query(mesh, i);
    let Ok((wire::Response::Ok(payload), _)) = wire::parse_response_with_id(line.trim_end()) else {
        return Some(format!("reply {i} is not a path: {line:?}"));
    };
    let hops: Vec<Coord> = match payload
        .split_ascii_whitespace()
        .map(|tok| wire::parse_coord(tok, mesh))
        .collect()
    {
        Ok(hops) => hops,
        Err(e) => return Some(format!("reply {i}: {e}")),
    };
    if (hops.first(), hops.last()) != (Some(&src), Some(&dst)) {
        return Some(format!("reply {i} does not join its query's ends"));
    }
    (!Path::new_unchecked(hops).is_valid(mesh)).then(|| format!("reply {i} has a non-adjacent hop"))
}

/// Sends `burst` as one write on a fresh connection and returns the
/// reply lines, LF included.
fn served(addr: std::net::SocketAddr, burst: &str, lines: usize) -> Vec<String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut conn = PipelinedConn::connect(addr, Duration::from_secs(5)).expect("connect");
    conn.send_burst(burst, deadline).expect("send burst");
    (0..lines)
        .map(|_| format!("{}\n", conn.recv_line(deadline).expect("reply")))
        .collect()
}

/// Every router on every geometry it accepts, each asked one pipelined
/// burst of 64 (one full id batch of `dispatch_burst`), then one burst
/// mixing two tenants with different strides and topologies, so each
/// tenant group decodes its ids on its own mesh. Every reply must be
/// byte-identical to `select_path` + `format_path_line_with_id`.
#[test]
fn pipelined_bursts_match_select_path_on_every_router_and_geometry() {
    let tenants = tenants();
    let registry = Registry::new(&tenants[0].0, None);
    for (id, router) in &tenants {
        registry
            .add(id, RouterHandle::Borrowed(router.as_ref()))
            .expect("add tenant");
    }
    for geo in ["t16", "r12x20", "m8x8x8"] {
        assert!(
            tenants.iter().any(|(id, _)| id.ends_with(geo)),
            "no router accepts {geo}"
        );
    }
    let cfg = ServeConfig {
        port: 0,
        health_port: None,
        threads: 1,
        announce: false,
        batch_max: BURST,
        ..ServeConfig::default()
    };
    let pick = |name: &str| {
        let (id, r) = tenants.iter().find(|(id, _)| id == name).expect(name);
        (id.as_str(), r.as_ref())
    };
    let mixed = [pick("busch-torus.t16"), pick("busch-padded.r12x20")];
    let ctl = Control::new();
    // Every burst's faults are gathered first and asserted after the
    // server has shut down, so a failure cannot leave it running.
    let mut faults = Vec::new();
    let stats = std::thread::scope(|scope| {
        let server = scope.spawn(|| oblivion_serve::run_registry(&registry, &cfg, &ctl));
        let addr = ctl.wait_addr(Duration::from_secs(5)).expect("no bind");
        for (id, router) in &tenants {
            let (mut burst, mut want) = (String::new(), Vec::new());
            for i in 0..BURST {
                burst_line(id, router.as_ref(), i, &mut burst, &mut want);
            }
            let got = served(addr, &burst, BURST);
            faults.extend((0..BURST).filter_map(|i| {
                invalid_reply(router.mesh(), &got[i], i).map(|why| format!("{id}: {why}"))
            }));
            if got != want {
                faults.push(format!("{id}: replies differ from select_path"));
            }
        }
        let (mut burst, mut want) = (String::new(), Vec::new());
        for i in 0..BURST {
            let (id, router) = mixed[(i / 3) % 2];
            burst_line(id, router, i, &mut burst, &mut want);
        }
        if served(addr, &burst, BURST) != want {
            faults.push("mixed tenants: replies differ from select_path".into());
        }
        ctl.request_shutdown();
        server
            .join()
            .expect("server thread panicked")
            .expect("server run failed")
            .stats
    });
    assert!(faults.is_empty(), "{}", faults.join("\n"));
    assert!(stats.conserved(), "{stats:?}");
    assert_eq!(
        stats.completed,
        ((tenants.len() + 1) * BURST) as u64,
        "{stats:?}"
    );
}
