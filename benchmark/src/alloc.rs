//! A counting global allocator, std only.
//!
//! Counting is switched on only for traced runs: untraced, every
//! allocation pays one relaxed load of the switch and nothing else, so
//! the end-to-end metrics are not skewed by the instrument. Traced, the
//! client and the server's worker allocate millions of times a second
//! at once, so each thread counts on a counter of its own rather than
//! bouncing one cache line between cores.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};

static COUNTING: AtomicBool = AtomicBool::new(false);

/// Counters; threads take them in the order they first allocate while
/// counting, so up to this many counting threads never share one.
const SLOTS: usize = 4;

/// A counter on cache lines of its own.
#[repr(align(128))]
struct Counter(AtomicU64);

static ALLOCS: [Counter; SLOTS] = [const { Counter(AtomicU64::new(0)) }; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's counter. Const-initialised and without a
    /// destructor, so the allocator may use it at any point of a
    /// thread's life.
    static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Forwards to [`System`], counting allocation events while enabled.
/// A `realloc` counts as one allocation: it may move the block.
pub struct Counting;

#[inline]
fn note() {
    if COUNTING.load(Relaxed) {
        let slot = SLOT
            .try_with(|s| {
                if s.get() == usize::MAX {
                    s.set(NEXT_SLOT.fetch_add(1, Relaxed) % SLOTS);
                }
                s.get()
            })
            .unwrap_or(0);
        ALLOCS[slot].0.fetch_add(1, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds what `GlobalAlloc` requires; the counters are plain
// statistics that publish no memory, and counting allocates nothing.
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
        // SAFETY: `ptr` was allocated by `System` with `layout`, since
        // every allocation of this allocator is made by `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: as for `dealloc`; the caller guarantees `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turns counting on or off.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Relaxed);
}

/// Allocation events since the process started, on every thread
/// (counted only while counting was on).
pub fn total() -> u64 {
    ALLOCS.iter().map(|c| c.0.load(Relaxed)).sum()
}

/// Allocation events made by `f`, with counting on for its duration.
pub fn count<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let was = COUNTING.swap(true, Relaxed);
    let before = total();
    let r = f();
    let n = total() - before;
    COUNTING.store(was, Relaxed);
    (r, n)
}
