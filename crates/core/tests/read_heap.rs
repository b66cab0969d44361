//! Heap budget of the file read path: how many allocations a warmed-up
//! machine makes while a looping reader reads a file through VFS and MFS
//! in 16 KB chunks.
//!
//! The counting allocator is the kernel's `tests/heap/counting.rs`. It
//! counts the whole test binary, so the budget is a single test in a file
//! of its own: a second test running on another thread would be counted
//! too.
//!
//! File data crosses no message: VFS grants the reader's buffer to the
//! file server, which copies each chunk from its I/O buffer straight into
//! it, and the reply carries only the count. The read-back scrub compares
//! a sampled chunk against one buffer the file server keeps.

use std::cell::RefCell;
use std::rc::Rc;

use phoenix::apps::{DdLoop, DdLoopStatus};
use phoenix::experiments::fig8_files;
use phoenix::os::{names, Os};
use phoenix_simcore::time::SimDuration;

#[path = "../../kernel/tests/heap/counting.rs"]
mod counting;

/// The reader's chunk.
const CHUNK: u64 = 16 * 1024;

/// Reads counted after the warm-up.
const READS: u64 = 400;

/// Allocations over those reads.
const SPENT: u64 = 0;

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
    let before = counting::counts().0;
    let mut reads = 0;
    while reads < READS {
        os.run_for(SimDuration::from_millis(1));
        reads = (status.borrow().bytes - bytes_before) / CHUNK;
    }
    let spent = counting::counts().0 - before;
    let st = status.borrow();
    println!(
        "read heap: {spent} allocations over {reads} reads of {CHUNK} bytes through VFS and MFS \
         ({} passes, {} errors)",
        st.passes, st.errors,
    );
    assert_eq!(st.errors, 0, "a fault-free machine");
    assert_eq!(spent, SPENT, "allocations over {reads} warmed-up reads");
}
