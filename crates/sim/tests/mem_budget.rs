//! Heap budget of a saturated online run, counted by a global allocator
//! that tracks live and peak heap bytes.
//!
//! A run on 16×16 `busch2d` at injection rate 0.15 for 200 steps is past
//! saturation (it ends with packets still in flight at its horizon), and
//! thousands of packets are delivered over its course. The peak live heap of `OnlineSim::run` is bounded by what
//! the in-flight packets and the run's fixed tables need: a delivered
//! packet's path must be freed, and a hop must cost a few bytes, not a
//! coordinate.
//!
//! The file holds one test, so no other test's allocations overlap the
//! measured run.

use oblivion_core::build_router;
use oblivion_mesh::{Coord, Mesh, Path};
use oblivion_sim::{OnlineSim, SchedulingPolicy, UniformTraffic};
use rand::rngs::StdRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Peak live heap bytes the measured run may reach above its start: 1.5×
/// the 1,378,176 B it reaches with each packet's path held as a run of
/// edge ids and freed on delivery.
const PEAK_BUDGET: usize = 2_067_264;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Forwards to [`System`], tracking the bytes live and their peak.
struct Counting;

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds what `GlobalAlloc` requires; counting allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees on `layout` pass through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees on `layout` pass through.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: every block of this allocator comes from `System`.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; the caller guarantees `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            shrink(layout.size());
            grow(new_size);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn saturated_run_peak_heap_stays_in_budget() {
    let mesh = Mesh::new_mesh(&[16, 16]);
    let router = build_router("busch2d", &mesh).expect("busch2d accepts 16x16");
    let router = &*router;
    let source =
        |s: &Coord, t: &Coord, rng: &mut StdRng| -> Path { router.select_path(s, t, rng).path };
    let pattern = UniformTraffic::new(mesh.clone());
    let sim = OnlineSim::new(&mesh, SchedulingPolicy::Fifo, 0.15);

    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let result = sim.run(&pattern, &source, 200, 7);
    let peak = PEAK.load(Relaxed) - base;

    assert!(
        result.delivered > 2_000,
        "the run must move thousands of packets to measure anything: {result:?}"
    );
    assert!(
        peak <= PEAK_BUDGET,
        "peak live heap {peak} B over a budget of {PEAK_BUDGET} B ({} delivered, {} in flight)",
        result.delivered,
        result.in_flight
    );
}
