//! Router construction by name, with mesh-shape validation.
//!
//! Shared by the CLI (`--router`) and the serving layer's mesh registry
//! (`ADMIN ADD <id> <mesh> <router>`), so a router that can be named on
//! the command line can also be hot-added to a running daemon — and
//! both paths reject an incompatible mesh with the same message instead
//! of panicking inside a constructor.

use crate::baselines::{AccessTree, DimOrder, RandomDimOrder, Valiant};
use crate::busch2d::Busch2D;
use crate::busch_torus::BuschTorus;
use crate::buschd::BuschD;
use crate::padded::BuschPadded;
use crate::romm::Romm;
use crate::router::ObliviousRouter;
use oblivion_mesh::{Mesh, Topology};

/// Every router name [`build_router`] accepts.
pub const ROUTER_NAMES: &[&str] = &[
    "busch2d",
    "buschd",
    "busch-torus",
    "busch-padded",
    "access-tree",
    "valiant",
    "romm",
    "dim-order",
    "random-dim-order",
];

/// Parses a mesh spec like `64x64`, `16x16x16`, or `32` (1-D), capped
/// at `1 << 24` nodes so a typo cannot allocate the machine away.
pub fn parse_mesh_spec(spec: &str, torus: bool) -> Result<Mesh, String> {
    let dims: Result<Vec<u32>, _> = spec.split('x').map(str::parse::<u32>).collect();
    let dims = dims.map_err(|e| format!("bad mesh spec `{spec}`: {e}"))?;
    if dims.is_empty() || dims.len() > oblivion_mesh::MAX_DIM {
        return Err(format!(
            "mesh must have 1..={} dimensions",
            oblivion_mesh::MAX_DIM
        ));
    }
    if dims.contains(&0) {
        return Err("mesh sides must be positive".into());
    }
    let n: u64 = dims.iter().map(|&m| u64::from(m)).product();
    if n > 1 << 24 {
        return Err(format!("mesh with {n} nodes is too large for the CLI"));
    }
    Ok(Mesh::new(
        &dims,
        if torus {
            Topology::Torus
        } else {
            Topology::Mesh
        },
    ))
}

/// Whether the router named `name` runs on a torus, so a mesh spec given
/// alongside it is read as one. The CLI and the serving layer's
/// `ADMIN ADD` infer the topology from this instead of a flag.
pub fn implies_torus(name: &str) -> bool {
    name == "busch-torus"
}

/// Builds a router by name, validating the mesh shape the algorithm
/// requires (so callers report an error instead of panicking).
pub fn build_router(name: &str, mesh: &Mesh) -> Result<Box<dyn ObliviousRouter>, String> {
    let equal_pow2 = mesh
        .dims()
        .iter()
        .all(|&m| m == mesh.side(0) && m.is_power_of_two());
    let require = |ok: bool, what: &str| -> Result<(), String> {
        if ok {
            Ok(())
        } else {
            Err(format!("router `{name}` requires {what}"))
        }
    };
    match name {
        "busch2d" => require(
            mesh.dim() == 2 && equal_pow2 && mesh.topology() == Topology::Mesh,
            "a square power-of-two 2-D mesh",
        )?,
        "buschd" | "access-tree" => require(
            equal_pow2 && mesh.topology() == Topology::Mesh,
            "an equal-side power-of-two mesh",
        )?,
        "busch-torus" => require(
            equal_pow2 && mesh.topology() == Topology::Torus,
            "an equal-side power-of-two torus (--torus)",
        )?,
        "busch-padded" => require(mesh.topology() == Topology::Mesh, "a (non-torus) mesh")?,
        _ => {}
    }
    Ok(match name {
        "busch2d" => Box::new(Busch2D::new(mesh.clone())),
        "buschd" => Box::new(BuschD::new(mesh.clone())),
        "busch-torus" => Box::new(BuschTorus::new(mesh.clone())),
        "busch-padded" => Box::new(BuschPadded::new(mesh.clone())),
        "access-tree" => Box::new(AccessTree::new(mesh.clone())),
        "valiant" => Box::new(Valiant::new(mesh.clone())),
        "romm" => Box::new(Romm::new(mesh.clone())),
        "dim-order" => Box::new(DimOrder::new(mesh.clone())),
        "random-dim-order" => Box::new(RandomDimOrder::new(mesh.clone())),
        other => {
            return Err(format!(
                "unknown router `{other}`; choose one of {ROUTER_NAMES:?}"
            ))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_router_constructs_and_reports_state() {
        let mesh = parse_mesh_spec("8x8", false).unwrap();
        let torus = parse_mesh_spec("8x8", true).unwrap();
        for name in ROUTER_NAMES {
            let m = if implies_torus(name) { &torus } else { &mesh };
            let r = build_router(name, m).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(r.state_bytes() > 0, "{name} reports zero routing state");
        }
        assert!(build_router("nope", &mesh).is_err());
    }

    #[test]
    fn shape_validation_rejects_incompatible_meshes() {
        let rect = parse_mesh_spec("8x4", false).unwrap();
        assert!(build_router("busch2d", &rect).is_err());
        assert!(build_router("buschd", &rect).is_err());
        let mesh = parse_mesh_spec("8x8", false).unwrap();
        assert!(build_router("busch-torus", &mesh).is_err());
        let torus = parse_mesh_spec("8x8", true).unwrap();
        assert!(build_router("busch-padded", &torus).is_err());
    }

    #[test]
    fn mesh_specs_parse_and_reject() {
        assert_eq!(parse_mesh_spec("8x8", false).unwrap().dim(), 2);
        assert_eq!(
            parse_mesh_spec("4x4x4", true).unwrap().topology(),
            Topology::Torus
        );
        assert!(parse_mesh_spec("0x4", false).is_err());
        assert!(parse_mesh_spec("4xx4", false).is_err());
        assert!(parse_mesh_spec("9999999x9999999", false).is_err());
    }
}
