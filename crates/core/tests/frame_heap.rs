//! Heap budget of the network frame path: how many allocations a
//! warmed-up machine makes per data frame it delivers while `wget`
//! downloads through the RTL8139, and how many a fault-VM routine run
//! makes once its driver's first run has sized the VM.
//!
//! The counting allocator is the kernel's `tests/heap/counting.rs`. It
//! counts the whole test binary, so the budget is a single test in a file
//! of its own: a second test running on another thread would be counted
//! too.
//!
//! A frame is allocated once on its way in, where the driver copies it
//! out of the ring, and travels on as the same buffer: to INET in the
//! driver's message, to the application as the payload INET strips the
//! header from in place. The routine that checks it runs on the VM its
//! driver keeps.

use std::cell::RefCell;
use std::rc::Rc;

use phoenix::apps::{Wget, WgetStatus};
use phoenix::hw::rtl8139::Rtl8139;
use phoenix::os::{hwmap, names, NicKind, Os};
use phoenix_drivers::libdriver::GuardedRoutine;
use phoenix_drivers::net::MAX_FRAME;
use phoenix_drivers::routines;
use phoenix_simcore::time::SimDuration;

#[path = "../../kernel/tests/heap/counting.rs"]
mod counting;

/// What one delivered data frame costs: the frame the peer encodes and
/// the copy the driver takes out of the ring (the one allocation on the
/// way in), the ACK INET encodes, the ACK frame the NIC reads out of the
/// driver's memory to transmit, and the 8-byte token of the timer the
/// peer re-arms on that ACK.
const PER_FRAME: [(&str, u64); 5] = [
    ("peer frame", 1),
    ("ring copy", 1),
    ("INET ACK", 1),
    ("NIC tx frame", 1),
    ("peer timer token", 1),
];
/// The frames of the window and its allocations: one 1,476-byte frame
/// and one timer token of the window's frames fall outside it, so the
/// count is two short of five per frame.
const WINDOW: (u64, u64) = (1_504, 7_518);

/// Routine runs counted after the first.
const RUNS: u64 = 1_000;

#[test]
fn the_frame_path_allocates_once_per_frame_and_a_routine_run_never() {
    let mut os = Os::builder()
        .seed(2007)
        .with_network(NicKind::Rtl8139)
        .boot();
    let inet = os.endpoint(names::INET).expect("INET runs");
    let status = Rc::new(RefCell::new(WgetStatus::default()));
    let wget = Wget::new(inet, 200_000_000, 7, Rc::clone(&status));
    os.spawn_app("wget", Box::new(wget));
    // Warm-up: the connection is open and every buffer a frame reuses
    // has grown.
    os.run_for(SimDuration::from_secs(1));
    let rx_ok = |os: &mut Os| os.device_mut::<Rtl8139>(hwmap::NIC).expect("nic").rx_ok();
    let (frames_before, bytes_before) = (rx_ok(&mut os), status.borrow().bytes);
    let before = counting::counts().0;
    os.run_for(SimDuration::from_millis(200));
    let spent = counting::counts().0 - before;
    let frames = rx_ok(&mut os) - frames_before;
    let delivered = status.borrow().bytes - bytes_before;
    assert!(!status.borrow().done, "the download is still running");
    assert!(frames > 100, "{frames} frames in 200 ms");

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

    let per_frame: u64 = PER_FRAME.iter().map(|&(_, n)| n).sum();
    println!(
        "frame heap: rtl8139 download: {} allocations per delivered data frame ({spent} over \
         {frames} frames, {delivered} bytes, pinned {PER_FRAME:?}), {} per routine run \
         ({per_run} over {RUNS})",
        spent.div_ceil(frames),
        per_run / RUNS,
    );
    assert_eq!((frames, spent), WINDOW, "200 ms of download");
    assert_eq!(spent, frames * per_frame - 2, "five per frame");
    assert_eq!(per_run, 0, "routine runs after the first");
}
