//! A counting global allocator for the `alloc.*` metrics.
//!
//! It forwards to the system allocator and counts only while
//! [`counted`] runs, so the timed cycles pay one relaxed load per call
//! and no shared-counter traffic between threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

// Statistics only: none of these publishes other data, hence `Relaxed`.
static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static PEAK_BYTES: AtomicI64 = AtomicI64::new(0);

/// The allocator; installed as `#[global_allocator]` by the crate root.
#[derive(Debug)]
pub struct Counting;

fn grew(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Relaxed);
    let live = LIVE_BYTES.fetch_add(bytes as i64, Relaxed) + bytes as i64;
    PEAK_BYTES.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            grew(layout.size());
        }
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            grew(layout.size());
        }
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Relaxed) {
            LIVE_BYTES.fetch_sub(layout.size() as i64, Relaxed);
        }
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            LIVE_BYTES.fetch_sub(layout.size() as i64, Relaxed);
            grew(new_size);
        }
        // SAFETY: as `dealloc`; `new_size` is passed through as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What [`counted`] saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocCount {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`, on any thread.
    pub allocations: u64,
    /// Most bytes live at once above the level when counting began.
    pub peak_bytes: u64,
}

/// Runs `f` with counting on. Not reentrant: one caller at a time.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, AllocCount) {
    ALLOCATIONS.store(0, Relaxed);
    LIVE_BYTES.store(0, Relaxed);
    PEAK_BYTES.store(0, Relaxed);
    COUNTING.store(true, Relaxed);
    let out = f();
    COUNTING.store(false, Relaxed);
    (
        out,
        AllocCount {
            allocations: ALLOCATIONS.load(Relaxed),
            peak_bytes: PEAK_BYTES.load(Relaxed).max(0) as u64,
        },
    )
}
