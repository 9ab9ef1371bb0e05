//! Consistency between the implicit (router-side) and explicit
//! (materialized access-graph) views of the decomposition: the chain the
//! router navigates must be exactly the bitonic path in `G(M)`.

use oblivion::decomp::{AccessGraph, AccessGraphD, Decomp2, DecompD};
use oblivion::prelude::*;

#[test]
fn busch2d_chain_equals_access_graph_bitonic_path() {
    for k in [2u32, 3, 4] {
        let decomp = Decomp2::new(k);
        let graph = AccessGraph::build(&decomp);
        let mesh = decomp.mesh();
        let router = Busch2D::new(mesh.clone());
        let coords: Vec<Coord> = mesh.coords().collect();
        for s in &coords {
            for t in &coords {
                if s == t {
                    continue;
                }
                let implicit = router.chain(s, t);
                let mut explicit = graph.bitonic_path(&decomp, s, t);
                explicit.dedup();
                assert_eq!(
                    implicit, explicit,
                    "k={k} {s:?}->{t:?}: implicit chain and access-graph path differ"
                );
            }
        }
    }
}

/// The d-D twin of the test above, with the explicit `G(M)` of
/// [`AccessGraphD`] as the oracle: for every pair, every block of
/// `BuschD`'s chain is a block of the graph, consecutive blocks nest,
/// and the peak (the largest block) holds both ends.
#[test]
fn buschd_chain_blocks_are_access_graph_d_blocks() {
    for (d, k) in [(3usize, 2u32), (2, 3)] {
        let decomp = DecompD::new(d, k);
        let graph = AccessGraphD::build(&decomp);
        let blocks: std::collections::HashSet<Submesh> =
            graph.nodes().map(|v| graph.block(v).submesh).collect();
        let mesh = decomp.mesh();
        let router = BuschD::new(mesh.clone());
        let coords: Vec<Coord> = mesh.coords().collect();
        for s in &coords {
            for t in &coords {
                if s == t {
                    continue;
                }
                let chain = router.chain(s, t);
                for b in &chain {
                    assert!(
                        blocks.contains(b),
                        "d={d} k={k} {s:?}->{t:?}: {b:?} is not a block of G(M)"
                    );
                }
                for w in chain.windows(2) {
                    assert!(
                        w[0].contains_submesh(&w[1]) || w[1].contains_submesh(&w[0]),
                        "d={d} k={k} {s:?}->{t:?}: {:?} and {:?} do not nest",
                        w[0],
                        w[1]
                    );
                }
                let peak = chain.iter().max_by_key(|b| b.node_count()).unwrap();
                assert!(
                    peak.contains(s) && peak.contains(t),
                    "d={d} k={k} {s:?}->{t:?}: peak {peak:?} misses an end"
                );
            }
        }
    }
}

#[test]
fn buschd_equals_busch2d_when_bridges_align() {
    // The two algorithms differ (the 2-D one climbs level by level to the
    // DCA; the d-D one jumps from height h-hat to the bridge), but both
    // must produce chains whose first/last blocks and bridge contain the
    // same endpoints, and both must obey the same envelope: every chain
    // block contains s or t.
    let mesh = Mesh::new_mesh(&[16, 16]);
    let r2 = Busch2D::new(mesh.clone());
    let rd = BuschD::new(mesh.clone());
    let coords: Vec<Coord> = mesh.coords().collect();
    for s in &coords {
        for t in &coords {
            if s == t {
                continue;
            }
            for chain in [r2.chain(s, t), rd.chain(s, t)] {
                assert!(chain.iter().all(|b| b.contains(s) || b.contains(t)));
                // Exactly one block (the peak) contains both — or the
                // chain's peak is shared.
                assert!(chain.iter().any(|b| b.contains(s) && b.contains(t)));
            }
        }
    }
}

#[test]
fn padded_router_on_power_of_two_equals_buschd_paths() {
    // With identical RNG streams the padded router on a power-of-two mesh
    // must be byte-identical to BuschD (the clip is a no-op).
    use oblivion::routing::route_all_seeded;
    let mesh = Mesh::new_mesh(&[16, 16]);
    let direct = BuschD::new(mesh.clone());
    let padded = BuschPadded::new(mesh.clone());
    let pairs: Vec<(Coord, Coord)> = mesh
        .coords()
        .map(|c| (c, Coord::new(&[c[1], c[0]])))
        .filter(|(a, b)| a != b)
        .collect();
    let a = route_all_seeded(&direct, &pairs, 123);
    let b = route_all_seeded(&padded, &pairs, 123);
    assert_eq!(a, b);
}
