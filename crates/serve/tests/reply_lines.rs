//! The wire's digit writer against a `format!` reference: `OK` lines,
//! `PATH` request lines and bare coordinates come out byte for byte as
//! `Display` would spell them, at every dimension, on the digit-count
//! edges of the compile-time table and past it, with and without an
//! echoed id, and on lines longer than one stack chunk.

use oblivion_mesh::{Coord, Path, MAX_DIM};
use oblivion_serve::wire::{
    format_coord, format_path_line_with_id, push_path_line, push_path_request,
};
use proptest::prelude::*;

/// Components on either side of every digit-count step the writer
/// handles: the table's 1..=4 digits, the fallback above it, and the
/// widest `u32`.
const EDGES: [u32; 11] = [
    0,
    9,
    10,
    99,
    100,
    999,
    1000,
    9999,
    10_000,
    1_048_575,
    u32::MAX,
];

/// A component: mostly an edge value, sometimes any value below
/// 20,000, sometimes any `u32`.
fn component() -> impl Strategy<Value = u32> {
    (0..EDGES.len() + 2, any::<u32>()).prop_map(|(pick, x)| match EDGES.get(pick) {
        Some(&edge) => edge,
        None if pick == EDGES.len() => x % 20_000,
        None => x,
    })
}

/// `dim` components as a hop.
fn coord(xs: &[u32], dim: usize) -> Coord {
    Coord::new(&xs[..dim])
}

/// The reference spelling of a coordinate: `Display` digits joined by
/// commas.
fn spelled(c: &Coord) -> String {
    let parts: Vec<String> = c.as_slice().iter().map(u32::to_string).collect();
    parts.join(",")
}

/// The reference `OK` line.
fn reference_line(hops: &[Coord], id: Option<&str>) -> String {
    let mut line = String::from("OK");
    if let Some(id) = id {
        line.push_str(&format!(" id={id}"));
    }
    for hop in hops {
        line.push_str(&format!(" {}", spelled(hop)));
    }
    line.push('\n');
    line
}

/// Every writer agrees with the reference on one path.
fn check_line(hops: Vec<Coord>, dim: usize, id: Option<&str>) -> Result<(), TestCaseError> {
    let want = reference_line(&hops, id);
    let path = Path::new_unchecked(hops);
    let line = format_path_line_with_id(&path, dim, id);
    prop_assert_eq!(&line, &want);
    prop_assert_eq!(line.capacity(), line.len(), "measured exactly");
    let mut out = String::from("prior\n");
    push_path_line(&mut out, &path, dim, id);
    prop_assert_eq!(out, format!("prior\n{want}"));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn ok_lines_match_the_reference(
        dim in 1..=MAX_DIM,
        nodes in prop::collection::vec(prop::collection::vec(component(), MAX_DIM), 1..48),
        with_id in prop::bool::ANY,
    ) {
        let hops: Vec<Coord> = nodes.iter().map(|xs| coord(xs, dim)).collect();
        check_line(hops, dim, with_id.then_some("req-7.a:b_c"))?;
    }

    #[test]
    fn request_lines_and_coords_match_the_reference(
        dim in 1..=MAX_DIM,
        ends in prop::collection::vec(prop::collection::vec(component(), MAX_DIM), 2),
        seed in any::<u64>(),
        small_seed in 0u64..20_000,
        with_id in prop::bool::ANY,
    ) {
        let (src, dst) = (coord(&ends[0], dim), coord(&ends[1], dim));
        prop_assert_eq!(format_coord(&src, dim), spelled(&src));
        let id = with_id.then_some("x");
        for seed in [seed, small_seed] {
            let mut line = String::new();
            push_path_request(&mut line, seed, &src, &dst, dim, id);
            let tail = id.map_or(String::new(), |id| format!(" id={id}"));
            let want = format!("PATH {seed} {} {}{tail}\n", spelled(&src), spelled(&dst));
            prop_assert_eq!(line, want);
        }
    }
}

/// One-node paths (a request whose source is its destination) at every
/// dimension, with and without an id.
#[test]
fn one_node_paths_match_the_reference() {
    for dim in 1..=MAX_DIM {
        for &x in &EDGES {
            for id in [None, Some("solo")] {
                let hop = Coord::new(&vec![x; dim]);
                check_line(vec![hop], dim, id).unwrap();
            }
        }
    }
}

/// The widest line the writer can meet: every hop `MAX_DIM` components
/// of ten digits, up to hundreds of hops, so the line spans many stack
/// chunks.
#[test]
fn lines_longer_than_a_chunk_match_the_reference() {
    for hops in [1usize, 5, 6, 7, 50, 301] {
        let nodes: Vec<Coord> = (0..hops)
            .map(|i| {
                let xs: Vec<u32> = (0..MAX_DIM)
                    .map(|k| u32::MAX - (i * MAX_DIM + k) as u32)
                    .collect();
                Coord::new(&xs)
            })
            .collect();
        check_line(nodes, MAX_DIM, Some("long")).unwrap();
        // Mixed widths shift where each chunk ends.
        let mixed: Vec<Coord> = (0..hops)
            .map(|i| {
                let xs: Vec<u32> = (0..MAX_DIM)
                    .map(|k| EDGES[(i * 3 + k) % EDGES.len()])
                    .collect();
                Coord::new(&xs)
            })
            .collect();
        check_line(mixed, MAX_DIM, None).unwrap();
    }
}
