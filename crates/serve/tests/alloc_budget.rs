//! Allocation budgets of the per-path kernel, counted by a global
//! allocator after warm-up:
//!
//! - `select_path`: at most 2 allocations per call (the exact-size path
//!   is the only one the kernel needs);
//! - `route_batch` at batch 64: at most 1.1 per path;
//! - `push_path_line` into a warmed `String`: none;
//! - `format_path_line_with_id`: one, the returned line.
//!
//! Each thread counts only its own allocations, so the tests of this
//! binary may run in parallel.

use oblivion_core::{build_router, ObliviousRouter, PathQuery};
use oblivion_mesh::{Coord, Mesh, NodeId};
use oblivion_serve::wire::{format_path_line_with_id, push_path_line};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Const-initialised and without a destructor, so the allocator may
    /// touch it at any point of a thread's life.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to [`System`], counting allocation events per thread. A
/// `realloc` counts as one allocation: it may move the block.
struct Counting;

fn note() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds what `GlobalAlloc` requires; counting allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's guarantees on `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's guarantees on `layout` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: every block of this allocator comes from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: as for `dealloc`; the caller guarantees `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocation events `f` makes on this thread.
fn allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// `n` pseudo-random distinct-endpoint queries on `mesh`.
fn queries(mesh: &Mesh, n: u64) -> Vec<PathQuery> {
    let nodes = mesh.node_count() as u64;
    let node = |x: u64| mesh.coord(NodeId((x % nodes) as usize));
    (0..n)
        .map(|i| {
            let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED;
            let src: Coord = node(h >> 7);
            let mut dst = node(h >> 29);
            if dst == src {
                dst = node((h >> 29) + 1);
            }
            PathQuery { seed: h, src, dst }
        })
        .collect()
}

fn router(name: &str, spec: &[u32]) -> Box<dyn ObliviousRouter> {
    build_router(name, &Mesh::new_mesh(spec)).unwrap()
}

#[test]
fn select_path_allocates_at_most_twice_per_call() {
    for (name, spec) in [("busch2d", &[64, 64][..]), ("buschd", &[16, 16][..])] {
        let r = router(name, spec);
        let qs = queries(r.mesh(), 2000);
        let run = |qs: &[PathQuery]| {
            for q in qs {
                let rp = r.select_path(&q.src, &q.dst, &mut StdRng::seed_from_u64(q.seed));
                std::hint::black_box(rp);
            }
        };
        run(&qs[..1000]);
        let per_call = allocs(|| run(&qs[1000..])) as f64 / 1000.0;
        assert!(
            per_call <= 2.0,
            "{name}: {per_call} allocations per select_path"
        );
    }
}

#[test]
fn route_batch_allocates_at_most_1_1_per_path() {
    let r = router("busch2d", &[64, 64]);
    let qs = queries(r.mesh(), 4096);
    let mut out = Vec::with_capacity(64);
    let mut run = |qs: &[PathQuery]| {
        for chunk in qs.chunks(64) {
            r.route_batch(chunk, &mut out);
            std::hint::black_box(&out);
        }
    };
    run(&qs[..2048]);
    let per_path = allocs(|| run(&qs[2048..])) as f64 / 2048.0;
    assert!(per_path <= 1.1, "{per_path} allocations per routed path");
}

#[test]
fn reply_formatting_allocates_only_the_line_it_returns() {
    let r = router("busch2d", &[64, 64]);
    let paths: Vec<_> = queries(r.mesh(), 256)
        .iter()
        .map(|q| {
            r.select_path(&q.src, &q.dst, &mut StdRng::seed_from_u64(q.seed))
                .path
        })
        .collect();
    let mut reply = String::new();
    let burst = |reply: &mut String| {
        reply.clear();
        for p in &paths {
            push_path_line(reply, p, 2, Some("123456"));
        }
    };
    burst(&mut reply);
    assert_eq!(allocs(|| burst(&mut reply)), 0);
    let lines = allocs(|| {
        for p in &paths {
            std::hint::black_box(format_path_line_with_id(p, 2, Some("123456")));
        }
    });
    assert_eq!(lines, paths.len() as u64);
}
