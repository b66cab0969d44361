//! Heap budget of a node boot: how many allocations one fleet node
//! machine makes while it boots, and how many bytes they ask for, with
//! the options the fleet boots every node and every rebooted node with,
//! how many allocations `Os::builder()` makes before any option is set,
//! and what an empty trace ring of the kernel's default bound costs. A
//! ring allocates nothing until events are emitted and grows with them,
//! so a boot pays for the events it emits, not for the ring's bound.
//!
//! Node boots and reboots are most of a fleet's allocations, so this is
//! the gate that keeps a boot from doing work it does not need: a
//! direct restart is configured by having no script, so no boot parses
//! or clones one.
//!
//! The counting allocator is the kernel's `tests/heap/counting.rs`. It
//! counts the whole test binary, so the budget is a single test in a file
//! of its own: a second test running on another thread would be counted
//! too.

use phoenix::os::Os;
use phoenix_simcore::time::SimDuration;
use phoenix_simcore::trace::TraceRing;

#[path = "../../kernel/tests/heap/counting.rs"]
mod counting;

/// Allocations and bytes requested while `f` runs, and what it returned.
fn counted<T>(f: impl FnOnce() -> T) -> ((u64, u64), T) {
    let (allocs, bytes) = counting::counts();
    let out = f();
    let (allocs_after, bytes_after) = counting::counts();
    ((allocs_after - allocs, bytes_after - bytes), out)
}

/// A node machine as the fleet boots it (`fleet.rs`, `boot_node`).
fn boot_node(seed: u64) -> Os {
    Os::builder()
        .seed(seed)
        .heartbeat(SimDuration::from_millis(500), 3)
        .with_checkpointing()
        .boot()
}

/// Before a direct restart was spelled only as "no script", a node boot
/// read 1,066: every driver row parsed Fig. 2's generic script and threw
/// it away for the builder's one-line `restart` script, which the builder
/// parsed once and every driver row cloned, and every server row parsed
/// that one-line script too. `Os::builder()` read 7, all of them that
/// one-line script's parse. While every trace ring preallocated 4,096
/// events (458,752 bytes), a boot read 732 allocations and 545,689 bytes.
#[test]
fn a_node_boot_parses_no_policy() {
    // Warm-up: a first boot, so nothing lazily initialised once per
    // process is counted.
    drop(boot_node(2006));
    let ((boot, boot_bytes), os) = counted(|| boot_node(2007));
    drop(os);
    let ((builder, _), b) = counted(Os::builder);
    drop(b);
    let ((ring, ring_bytes), r) = counted(|| TraceRing::new(65_536));
    drop(r);
    println!(
        "boot heap: {boot} allocations and {boot_bytes} bytes per node boot, {builder} per \
         Os::builder(), {ring} and {ring_bytes} bytes per TraceRing::new(65_536)"
    );
    assert_eq!(builder, 0, "Os::builder()");
    assert_eq!((ring, ring_bytes), (0, 0), "an empty trace ring");
    assert_eq!(boot, 715, "one node boot");
    assert_eq!(boot_bytes, 98_116, "bytes of one node boot");
}
