//! The counting allocator of the heap-budget tests: a [`GlobalAlloc`] that
//! forwards to [`System`](std::alloc::System) and counts every allocation
//! (`alloc`, `alloc_zeroed` and `realloc`; a free is not counted) and the
//! bytes each asked for (`new_size` for a `realloc`), the same shape and
//! rule as `benchmark/src/alloc.rs`. A test binary takes it with
//! `#[path = ".../kernel/tests/heap/counting.rs"] mod counting;`, which
//! makes it the binary's global allocator.
//!
//! This file holds the only `unsafe` in the workspace. The count is
//! process-wide, so a binary that includes it holds a single test: a
//! second test running on another thread would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// `(allocations, bytes requested)` so far by the whole test binary.
pub fn counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters (Relaxed: statistics
// read on the thread that bumped them) touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` with `layout` (this allocator
        // hands out nothing else); the caller vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;
