//! Heap budget of the network frame path: how many allocations a
//! warmed-up machine makes per data frame it delivers while `wget`
//! downloads through the RTL8139 and through the DP8390, and how many a
//! fault-VM routine run makes once its driver's first run has sized the
//! VM.
//!
//! The counting allocator is the kernel's `tests/heap/counting.rs`. It
//! counts the whole test binary, so the budget is a single test in a file
//! of its own: a second test running on another thread would be counted
//! too.
//!
//! Every frame rides in a buffer the kernel lends (DESIGN §5x): the peer
//! encodes a data frame into one, the bus hands it back once the NIC has
//! it, the driver copies the frame out of the ring into another, and it
//! travels on as that buffer, to INET in the driver's message and to the
//! application as the payload INET strips the header from in place, which
//! hands it back once consumed. The ACK INET encodes, the frame the NIC
//! reads out of the driver's memory to transmit and the peer's timer
//! token go round the same way. The routine that checks a frame runs on
//! the VM its driver keeps.

use std::cell::RefCell;
use std::rc::Rc;

use phoenix::apps::{Wget, WgetStatus};
use phoenix::hw::dp8390::Dp8390;
use phoenix::hw::rtl8139::Rtl8139;
use phoenix::os::{hwmap, names, NicKind, Os};
use phoenix_drivers::libdriver::GuardedRoutine;
use phoenix_drivers::net::MAX_FRAME;
use phoenix_drivers::routines;
use phoenix_simcore::time::SimDuration;

#[path = "../../kernel/tests/heap/counting.rs"]
mod counting;

/// What one delivered data frame still allocates, by name: nothing. A
/// frame that has gone round once rides in a spare buffer.
const PER_FRAME: [(&str, u64); 0] = [];
/// The frames of each NIC's 200 ms window and the allocations in it: the
/// spare list is warm, so the window allocates nothing.
const RTL8139_WINDOW: (u64, u64) = (1_504, 0);
/// See [`RTL8139_WINDOW`].
const DP8390_WINDOW: (u64, u64) = (1_504, 0);

/// Routine runs counted after the first.
const RUNS: u64 = 1_000;

/// Boots a machine with `nic`, starts a download, warms it up for 1 s
/// and counts a 200 ms window: (frames the NIC received, allocations,
/// bytes delivered).
fn download_window(nic: NicKind, rx_ok: fn(&mut Os) -> u64) -> (u64, u64, u64) {
    let mut os = Os::builder().seed(2007).with_network(nic).boot();
    let inet = os.endpoint(names::INET).expect("INET runs");
    let status = Rc::new(RefCell::new(WgetStatus::default()));
    let wget = Wget::new(inet, 200_000_000, 7, Rc::clone(&status));
    os.spawn_app("wget", Box::new(wget));
    // Warm-up: the connection is open, every buffer a frame reuses has
    // grown and the spare list holds what the frames in flight need.
    os.run_for(SimDuration::from_secs(1));
    let (frames_before, bytes_before) = (rx_ok(&mut os), status.borrow().bytes);
    let before = counting::counts().0;
    os.run_for(SimDuration::from_millis(200));
    let spent = counting::counts().0 - before;
    let frames = rx_ok(&mut os) - frames_before;
    let delivered = status.borrow().bytes - bytes_before;
    assert!(!status.borrow().done, "the download is still running");
    assert!(frames > 100, "{frames} frames in 200 ms");
    (frames, spent, delivered)
}

#[test]
fn the_frame_path_and_a_routine_run_allocate_nothing() {
    let rtl = download_window(NicKind::Rtl8139, |os| {
        os.device_mut::<Rtl8139>(hwmap::NIC).expect("nic").rx_ok()
    });
    let dp = download_window(NicKind::Dp8390, |os| {
        os.device_mut::<Dp8390>(hwmap::NIC).expect("nic").rx_ok()
    });

    let mut rx = GuardedRoutine::new(&routines::with_cold_section(routines::net_rx(), 30));
    let frame = [0x5A; 1514];
    let run = |rx: &mut GuardedRoutine| {
        let (outcome, _) = rx.outcome(4 + MAX_FRAME + 16, |vm| {
            vm.mem[..4].copy_from_slice(&[1, 0, 0xEA, 0x05]);
            vm.mem[4..4 + frame.len()].copy_from_slice(&frame);
            vm.regs[routines::reg::A0 as usize] = frame.len() as u32;
            vm.regs[routines::reg::A1 as usize] = routines::HEADER_SUM_BYTES as u32;
        });
        assert!(outcome.is_ok(), "{outcome:?}");
    };
    run(&mut rx);
    let before = counting::counts().0;
    for _ in 0..RUNS {
        run(&mut rx);
    }
    let per_run = counting::counts().0 - before;

    let leg = |name: &str, (frames, spent, delivered): (u64, u64, u64)| {
        format!(
            "{name} download: {} allocations per delivered data frame ({spent} over {frames} \
             frames, {delivered} bytes)",
            spent.div_ceil(frames),
        )
    };
    println!(
        "frame heap: {}; {}; pinned {PER_FRAME:?}; {} per routine run ({per_run} over {RUNS})",
        leg("rtl8139", rtl),
        leg("dp8390", dp),
        per_run / RUNS,
    );
    assert_eq!((rtl.0, rtl.1), RTL8139_WINDOW, "200 ms of RTL8139 download");
    assert_eq!((dp.0, dp.1), DP8390_WINDOW, "200 ms of DP8390 download");
    assert_eq!(per_run, 0, "routine runs after the first");
}
