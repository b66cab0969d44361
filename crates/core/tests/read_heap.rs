//! Heap budget of the file read path: how many allocations a warmed-up
//! machine makes while a looping reader reads a file through VFS and MFS
//! in 16 KB chunks.
//!
//! The counting [`GlobalAlloc`] is the same shape as `frame_heap.rs`'s,
//! confined to this test binary; the budget is a single test in a file of
//! its own because a second test running on another thread would be
//! counted too.
//!
//! File data crosses no message: VFS grants the reader's buffer to the
//! file server, which copies each chunk from its I/O buffer straight into
//! it, and the reply carries only the count. The read-back scrub compares
//! a sampled chunk against one buffer the file server keeps.

use std::alloc::{GlobalAlloc, Layout};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use phoenix::apps::{DdLoop, DdLoopStatus};
use phoenix::experiments::fig8_files;
use phoenix::os::{names, Os};
use phoenix_simcore::time::SimDuration;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter (Relaxed: a statistic
// read on the thread that bumped it) touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { std::alloc::System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { std::alloc::System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout` (this allocator
        // hands out nothing else); the caller vouches for `new_size`.
        unsafe { std::alloc::System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The reader's chunk.
const CHUNK: u64 = 16 * 1024;

/// Reads counted after the warm-up.
const READS: u64 = 400;

/// Allocations over those reads.
const SPENT: u64 = 0;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[test]
fn a_warmed_up_file_read_allocates_nothing() {
    let file_size = 1 << 20;
    let mut os = Os::builder()
        .seed(2007)
        .with_disk(file_size / 512 + 1024, 7, fig8_files(file_size))
        .boot();
    let vfs = os.endpoint(names::VFS).expect("VFS runs");
    let status = Rc::new(RefCell::new(DdLoopStatus::default()));
    let reader = DdLoop::new(vfs, "bigfile", CHUNK, Rc::clone(&status));
    os.spawn_app("dd-loop", Box::new(reader));
    // Warm-up: more than one pass over the file, so every table, queue
    // and buffer a read reuses has grown.
    let warm = 3 * file_size;
    while status.borrow().bytes < warm {
        os.run_for(SimDuration::from_millis(10));
    }
    let bytes_before = status.borrow().bytes;
    let before = allocs();
    let mut reads = 0;
    while reads < READS {
        os.run_for(SimDuration::from_millis(1));
        reads = (status.borrow().bytes - bytes_before) / CHUNK;
    }
    let spent = allocs() - before;
    let st = status.borrow();
    println!(
        "read heap: {spent} allocations over {reads} reads of {CHUNK} bytes through VFS and MFS \
         ({} passes, {} errors)",
        st.passes, st.errors,
    );
    assert_eq!(st.errors, 0, "a fault-free machine");
    assert_eq!(spent, SPENT, "allocations over {reads} warmed-up reads");
}
