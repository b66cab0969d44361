//! Heap budget of the fleet's steady state: how many allocations a
//! warmed-up, fault-free 8-node fleet makes over a second of heartbeat
//! rounds with no snapshot export due, and over a second in which every
//! node exports, transfers and has its successor receive one image.
//!
//! The counting allocator is the kernel's `tests/heap/counting.rs`. It
//! counts the whole test binary, so the budget is a single test in a file
//! of its own: a second test running on another thread would be counted
//! too.
//!
//! A node exports at 200 + 100·id ms and every 2 s after, so from an even
//! second the first second of each 2 s period holds eight exports and the
//! second none. A node machine that only runs (RS audits and heartbeats, a
//! finished print job) allocates nothing, so what is counted is the
//! fleet's own work.

use phoenix_fault::NodeChaosPlan;
use phoenix_fleet::{Fleet, FleetConfig};
use phoenix_simcore::time::SimDuration;

#[path = "../../kernel/tests/heap/counting.rs"]
mod counting;

const NODES: u8 = 8;
/// Heartbeat rounds in one second: the beats every 50 ms, each followed
/// by a round of their deliveries one link latency later.
const BEATS: u64 = 20;
/// What one replicated image costs once the warm-up has grown every
/// buffer: nothing. The sender writes the image into the buffer of its
/// last one, each segment shares a range of that buffer, and the
/// successor reassembles into the buffer of the image it held before.
const PER_IMAGE: u64 = 0;

/// Allocations while `fleet` runs one more second.
fn second(fleet: &mut Fleet) -> u64 {
    let before = counting::counts().0;
    fleet.run_for(SimDuration::from_secs(1));
    counting::counts().0 - before
}

/// At the commit before heartbeats, deliveries and images left the heap,
/// the quiet second read 500, 25 a beat: each agent's gossip vector, its
/// clone for the second ring neighbour and the tick's output `Vec` (24),
/// and the delivery round's collected `Vec` (1). A second of exports read
/// the same 500 and 32 per image. Before each end of a transfer kept its
/// buffers, an image read 3: the image the sender encoded from its
/// checkpoint store, the payload of its one segment (an image of a few
/// hundred bytes), and the buffer the successor reassembled it into.
#[test]
fn the_fleet_steady_state_stays_off_the_heap() {
    let cfg = FleetConfig {
        nodes: NODES,
        seed: 2007,
        ..FleetConfig::default()
    };
    let mut fleet = Fleet::new(cfg, NodeChaosPlan::new());
    fleet.run_for(SimDuration::from_secs(10));
    // Warm-up: a second of exports, so every buffer a round or an image
    // reuses has grown.
    let _ = second(&mut fleet);
    let quiet = second(&mut fleet);
    let replicated = |fleet: &Fleet| fleet.metrics.counter("fleet.snap.replicated");
    let before = replicated(&fleet);
    let exporting = second(&mut fleet);
    let images = replicated(&fleet) - before;
    assert_eq!(images, u64::from(NODES), "one image per node in the second");
    assert_eq!(fleet.metrics.counter("fleet.convictions"), 0);
    println!(
        "fleet heap: {NODES} nodes, fault-free: {} allocations per heartbeat round \
         ({quiet} over {BEATS}), {} per replicated image ({exporting} over {images}, \
         pinned at {PER_IMAGE})",
        quiet / BEATS,
        exporting.saturating_sub(quiet) / images,
    );
    assert_eq!(quiet, 0, "a second of heartbeat rounds with no export due");
    assert_eq!(exporting, images * PER_IMAGE, "a second of exports");
}
