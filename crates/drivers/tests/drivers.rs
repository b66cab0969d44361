//! Driver-level integration tests: each driver runs as a real process
//! against its device model, driven by a probe client speaking the wire
//! protocols.

use std::cell::RefCell;
use std::rc::Rc;

use phoenix_ckpt::proto::{ckpt, ckpt_status};
use phoenix_ckpt::Snapshot;
use phoenix_drivers::chardrv::{AudioPort, PrinterPort, StreamDevice, StreamDriver};
use phoenix_drivers::libdriver::{Driver, FaultPort};
use phoenix_drivers::proto::{bdev, cdev, drv, eth, status};
use phoenix_drivers::{
    DiskDriver, Dp8390Driver, KeyboardDriver, RamDiskDriver, Rtl8139Driver, ScsiCdDriver,
};
use phoenix_fault::{decode, encode, Instr};
use phoenix_hw::bus::{Bus, WireConfig};
use phoenix_hw::disk::{synth_sector, DiskDevice, SECTOR};
use phoenix_hw::dp8390::{Dp8390, Dp8390Config};
use phoenix_hw::rtl8139::{Rtl8139, Rtl8139Config};
use phoenix_hw::{AudioDac, Device, PeerCtx, Printer, RemotePeer, ScsiCdBurner, Uart};
use phoenix_kernel::memory::GrantAccess;
use phoenix_kernel::privileges::{IpcFilter, KernelCall, Privileges};
use phoenix_kernel::process::{ProcEvent, Process};
use phoenix_kernel::system::{Ctx, System, SystemConfig};
use phoenix_kernel::types::{DeviceId, Endpoint, Message};
use phoenix_simcore::time::SimDuration;

type Hook = Box<dyn FnMut(&mut Ctx<'_>, &ProcEvent)>;

struct Probe {
    hook: Hook,
}
impl Process for Probe {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        (self.hook)(ctx, &event);
    }
}

const DEV: DeviceId = DeviceId(1);
const IRQ: u8 = 5;

fn sata_rig(sectors: u64, seed: u64) -> (System, Bus, Endpoint) {
    let mut sys = System::new(SystemConfig::default());
    let mut bus = Bus::new();
    bus.add_device(DEV, IRQ, Box::new(DiskDevice::sata(sectors, seed)));
    let drv_ep = sys.spawn_boot(
        "blk.sata",
        // The real registration grants block drivers SafeCopy on top of
        // the baseline (they serve reads through client grants).
        Privileges::driver(DEV, IRQ).with_calls([
            KernelCall::Devio,
            KernelCall::IrqCtl,
            KernelCall::IommuMap,
            KernelCall::SafeCopy,
        ]),
        Box::new(Driver::new(DiskDriver::sata(DEV, IRQ, FaultPort::new()))),
    );
    (sys, bus, drv_ep)
}

#[test]
fn block_driver_serves_reads_through_grants() {
    let (mut sys, mut bus, drv_ep) = sata_rig(128, 42);
    let got: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
    let g2 = got.clone();
    sys.spawn_boot(
        "client",
        Privileges::server(),
        Box::new(Probe {
            hook: Box::new(move |ctx, ev| match ev {
                ProcEvent::Start => {
                    let g = ctx
                        .grant_create(drv_ep, 0, 2 * SECTOR, GrantAccess::Write)
                        .expect("grant");
                    let _ = ctx.sendrec(
                        drv_ep,
                        Message::new(bdev::READ)
                            .with_param(0, 7)
                            .with_param(1, 2)
                            .with_param(2, u64::from(g.0)),
                    );
                }
                ProcEvent::Reply {
                    result: Ok(reply), ..
                } => {
                    assert_eq!(reply.mtype, bdev::REPLY);
                    assert_eq!(reply.param(0), status::OK);
                    assert_eq!(reply.param(1), 2 * SECTOR as u64);
                    *g2.borrow_mut() = ctx.mem(0, 2 * SECTOR).unwrap().to_vec();
                }
                _ => {}
            }),
        }),
    );
    sys.run_until_idle(&mut bus, 1000);
    let data = got.borrow();
    assert_eq!(&data[..SECTOR], synth_sector(42, 7).as_slice());
    assert_eq!(&data[SECTOR..], synth_sector(42, 8).as_slice());
}

#[test]
fn block_driver_rejects_bad_grant_and_busy_overlap() {
    let (mut sys, mut bus, drv_ep) = sata_rig(128, 1);
    let replies: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    let r2 = replies.clone();
    sys.spawn_boot(
        "client",
        Privileges::server(),
        Box::new(Probe {
            hook: Box::new(move |ctx, ev| match ev {
                ProcEvent::Start => {
                    // Two overlapping requests: the second sees EAGAIN.
                    let g = ctx
                        .grant_create(drv_ep, 0, SECTOR, GrantAccess::Write)
                        .expect("grant");
                    let _ = ctx.sendrec(
                        drv_ep,
                        Message::new(bdev::READ)
                            .with_param(0, 0)
                            .with_param(1, 1)
                            .with_param(2, u64::from(g.0)),
                    );
                    let _ = ctx.sendrec(
                        drv_ep,
                        Message::new(bdev::READ)
                            .with_param(0, 1)
                            .with_param(1, 1)
                            .with_param(2, u64::from(g.0)),
                    );
                }
                ProcEvent::Reply {
                    result: Ok(reply), ..
                } => {
                    let first_ok = reply.param(0) == status::OK
                        && r2.borrow().iter().all(|&r| r != status::OK);
                    r2.borrow_mut().push(reply.param(0));
                    if first_ok {
                        // Driver idle again: a WRITE whose grant denies the
                        // driver read access must fail with EINVAL.
                        let wo = ctx
                            .grant_create(drv_ep, 0, SECTOR, GrantAccess::Write)
                            .expect("grant");
                        let _ = ctx.sendrec(
                            drv_ep,
                            Message::new(bdev::WRITE)
                                .with_param(0, 2)
                                .with_param(1, 1)
                                .with_param(2, u64::from(wo.0)),
                        );
                    }
                }
                _ => {}
            }),
        }),
    );
    sys.run_until_idle(&mut bus, 1000);
    let rs = replies.borrow();
    assert!(rs.contains(&status::EAGAIN), "overlap rejected: {rs:?}");
    assert!(
        rs.contains(&status::EINVAL),
        "write via write-only grant rejected: {rs:?}"
    );
    assert!(rs.contains(&status::OK), "first read served: {rs:?}");
}

#[test]
fn block_driver_panics_on_out_of_range_request() {
    // The driver's own VM-validated consistency check (lba+count beyond
    // capacity) fires as an internal panic — defect class 1.
    let (mut sys, mut bus, drv_ep) = sata_rig(16, 1);
    sys.spawn_boot(
        "client",
        Privileges::server(),
        Box::new(Probe {
            hook: Box::new(move |ctx, ev| {
                if matches!(ev, ProcEvent::Start) {
                    let g = ctx
                        .grant_create(drv_ep, 0, SECTOR, GrantAccess::Write)
                        .expect("grant");
                    let _ = ctx.sendrec(
                        drv_ep,
                        Message::new(bdev::READ)
                            .with_param(0, 1000) // way past capacity
                            .with_param(1, 1)
                            .with_param(2, u64::from(g.0)),
                    );
                }
            }),
        }),
    );
    sys.run_until_idle(&mut bus, 1000);
    assert!(!sys.is_live(drv_ep), "driver died of its own sanity check");
    assert!(sys.trace().find("consistency check failed").is_some());
}

#[test]
fn driver_answers_heartbeats_with_echoed_nonce() {
    let (mut sys, mut bus, drv_ep) = sata_rig(16, 1);
    let pongs: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    let p2 = pongs.clone();
    sys.spawn_boot(
        "rs",
        Privileges::server(),
        Box::new(Probe {
            hook: Box::new(move |ctx, ev| match ev {
                ProcEvent::Start => {
                    let _ = ctx.send(drv_ep, Message::new(drv::HB_PING).with_param(0, 777));
                }
                ProcEvent::Message(m) if m.mtype == drv::HB_PONG => {
                    p2.borrow_mut().push(m.param(0));
                }
                _ => {}
            }),
        }),
    );
    sys.run_until_idle(&mut bus, 100);
    assert_eq!(pongs.borrow().as_slice(), &[777]);
}

#[test]
fn driver_exits_cleanly_on_sigterm() {
    let (mut sys, mut bus, drv_ep) = sata_rig(16, 1);
    sys.run_until_idle(&mut bus, 100);
    sys.kill_by_user(drv_ep, phoenix_kernel::types::Signal::Term);
    sys.run_until_idle(&mut bus, 100);
    assert!(
        !sys.is_live(drv_ep),
        "SIGTERM triggers the libdriver clean exit"
    );
}

fn ramdisk_rig(region: Rc<RefCell<Vec<u8>>>, fp: FaultPort) -> (System, Bus, Endpoint) {
    let mut sys = System::new(SystemConfig::default());
    let mut privs = Privileges::server();
    privs.address_space = 256 * 1024;
    let drv_ep = sys.spawn_boot(
        "blk.ram",
        privs,
        Box::new(Driver::new(RamDiskDriver::new(region, fp))),
    );
    (sys, Bus::new(), drv_ep)
}

#[test]
fn ramdisk_driver_round_trips_without_hardware() {
    let region = RamDiskDriver::region(8);
    let (mut sys, mut bus, drv_ep) = ramdisk_rig(region.clone(), FaultPort::new());
    let done = Rc::new(RefCell::new(false));
    let d2 = done.clone();
    sys.spawn_boot(
        "client",
        Privileges::server(),
        Box::new(Probe {
            hook: Box::new(move |ctx, ev| match ev {
                ProcEvent::Start => {
                    ctx.mem_write(0, &vec![0xEE; SECTOR]).unwrap();
                    let g = ctx
                        .grant_create(drv_ep, 0, SECTOR, GrantAccess::Read)
                        .expect("grant");
                    let _ = ctx.sendrec(
                        drv_ep,
                        Message::new(bdev::WRITE)
                            .with_param(0, 3)
                            .with_param(1, 1)
                            .with_param(2, u64::from(g.0)),
                    );
                }
                ProcEvent::Reply {
                    result: Ok(reply), ..
                } => {
                    assert_eq!(reply.param(0), status::OK);
                    *d2.borrow_mut() = true;
                }
                _ => {}
            }),
        }),
    );
    sys.run_until_idle(&mut bus, 200);
    assert!(*done.borrow());
    assert_eq!(&region.borrow()[3 * SECTOR..3 * SECTOR + 4], &[0xEE; 4]);
}

/// Echo peer: reflects every frame back to the host.
struct Echo;
impl RemotePeer for Echo {
    fn frame_from_host(&mut self, ctx: &mut PeerCtx<'_, '_>, frame: &[u8]) {
        ctx.send_to_host(frame.to_vec());
    }
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn eth_rig(dp: bool) -> (System, Bus, Endpoint) {
    let mut sys = System::new(SystemConfig::default());
    let mut bus = Bus::new();
    let fp = FaultPort::new();
    let drv_ep = if dp {
        bus.add_device(DEV, IRQ, Box::new(Dp8390::new(Dp8390Config::default())));
        sys.spawn_boot(
            "eth.dp8390",
            // Net drivers may push received frames to their client.
            Privileges::driver(DEV, IRQ).with_ipc(IpcFilter::named(["rs", "inet"])),
            Box::new(Driver::new(Dp8390Driver::new(DEV, IRQ, fp))),
        )
    } else {
        bus.add_device(DEV, IRQ, Box::new(Rtl8139::new(Rtl8139Config::default())));
        sys.spawn_boot(
            "eth.rtl8139",
            Privileges::driver(DEV, IRQ).with_ipc(IpcFilter::named(["rs", "inet"])),
            Box::new(Driver::new(Rtl8139Driver::new(DEV, IRQ, fp))),
        )
    };
    bus.attach_peer(DEV, WireConfig::default(), Box::new(Echo));
    (sys, bus, drv_ep)
}

fn eth_echo_scenario(dp: bool) {
    let (mut sys, mut bus, drv_ep) = eth_rig(dp);
    let received: Rc<RefCell<Vec<Vec<u8>>>> = Rc::new(RefCell::new(Vec::new()));
    let r2 = received.clone();
    sys.spawn_boot(
        "inet",
        Privileges::server(),
        Box::new(Probe {
            hook: Box::new(move |ctx, ev| match ev {
                ProcEvent::Start => {
                    let _ = ctx.sendrec(drv_ep, Message::new(eth::INIT));
                }
                ProcEvent::Reply {
                    result: Ok(reply), ..
                } if reply.mtype == eth::INIT_REPLY => {
                    assert_eq!(reply.param(0), status::OK);
                    let _ = ctx.sendrec(
                        drv_ep,
                        Message::new(eth::WRITE).with_data(b"hello ethernet".to_vec()),
                    );
                }
                ProcEvent::Message(m) if m.mtype == eth::RECV => {
                    r2.borrow_mut().push(m.data.clone());
                }
                _ => {}
            }),
        }),
    );
    sys.run_until_idle(&mut bus, 2000);
    assert_eq!(
        received.borrow().as_slice(),
        &[b"hello ethernet".to_vec()],
        "echoed frame delivered through the rx path"
    );
}

#[test]
fn rtl8139_driver_echo_roundtrip() {
    eth_echo_scenario(false);
}

#[test]
fn dp8390_driver_echo_roundtrip() {
    eth_echo_scenario(true);
}

#[test]
fn mutated_rx_path_kills_the_driver_with_an_exception() {
    // Overwrite the first instructions with a wild load: the next
    // received frame traps the driver — defect class 2, exactly what the
    // campaign measures.
    let mut sys = System::new(SystemConfig::default());
    let mut bus = Bus::new();
    let fp = FaultPort::new();
    bus.add_device(DEV, IRQ, Box::new(Dp8390::new(Dp8390Config::default())));
    bus.attach_peer(DEV, WireConfig::default(), Box::new(Echo));
    let drv_ep = sys.spawn_boot(
        "eth.dp8390",
        Privileges::driver(DEV, IRQ).with_ipc(IpcFilter::named(["rs", "inet"])),
        Box::new(Driver::new(Dp8390Driver::new(DEV, IRQ, fp.clone()))),
    );
    sys.spawn_boot(
        "inet",
        Privileges::server(),
        Box::new(Probe {
            hook: Box::new(move |ctx, ev| match ev {
                ProcEvent::Start => {
                    let _ = ctx.sendrec(drv_ep, Message::new(eth::INIT));
                }
                ProcEvent::Reply {
                    result: Ok(reply), ..
                } if reply.mtype == eth::INIT_REPLY => {
                    // Delay the transmit so the harness can mutate the
                    // driver's code before the echo comes back.
                    let _ = ctx.set_alarm(phoenix_simcore::time::SimDuration::from_millis(10), 0);
                }
                ProcEvent::Alarm { .. } => {
                    let _ = ctx.sendrec(drv_ep, Message::new(eth::WRITE).with_data(vec![1; 64]));
                }
                _ => {}
            }),
        }),
    );
    // Run past INIT but not past the delayed WRITE.
    sys.run_until(&mut bus, phoenix_simcore::time::SimTime::from_micros(5_000));
    let code = fp.code_of("eth.dp8390").expect("driver published its code");
    code.borrow_mut()[0] = encode(Instr::MovImm(1, 0xFFFF));
    code.borrow_mut()[1] = encode(Instr::LoadB(0, 1, 0xFFFF));
    sys.run_until(
        &mut bus,
        phoenix_simcore::time::SimTime::from_micros(100_000),
    );
    assert!(
        !sys.is_live(drv_ep),
        "rx of the echoed frame trapped the driver"
    );
    assert!(sys.trace().find("MmuFault").is_some() || sys.trace().find("died").is_some());
}

#[test]
fn mutated_ramdisk_request_dies_like_a_driver() {
    // With the request routine's range asserts gone, a READ far past the
    // 8-sector region reaches the copy out of the backing memory. That
    // is a wild access by the driver — an MMU exception that kills the
    // driver process — not a reason for the simulator to fall over.
    let fp = FaultPort::new();
    let (mut sys, mut bus, drv_ep) = ramdisk_rig(RamDiskDriver::region(8), fp.clone());
    sys.run_until_idle(&mut bus, 50);
    let code = fp.code_of("blk.ram").expect("driver published its code");
    for word in code.borrow_mut().iter_mut() {
        if matches!(decode(*word), Instr::Assert(_)) {
            *word = encode(Instr::Nop);
        }
    }
    let replied = Rc::new(RefCell::new(false));
    let r2 = replied.clone();
    sys.spawn_boot(
        "client",
        Privileges::server(),
        Box::new(Probe {
            hook: Box::new(move |ctx, ev| match ev {
                ProcEvent::Start => {
                    let g = ctx
                        .grant_create(drv_ep, 0, SECTOR, GrantAccess::Write)
                        .expect("grant");
                    let _ = ctx.sendrec(
                        drv_ep,
                        Message::new(bdev::READ)
                            .with_param(0, 100)
                            .with_param(1, 1)
                            .with_param(2, u64::from(g.0)),
                    );
                }
                ProcEvent::Reply { result: Ok(_), .. } => *r2.borrow_mut() = true,
                _ => {}
            }),
        }),
    );
    sys.run_until_idle(&mut bus, 200);
    assert!(!sys.is_live(drv_ep), "the wild read killed the driver");
    assert!(sys.trace().find("MmuFault").is_some());
    assert!(!*replied.borrow(), "a dead driver answers nothing");
}

// ---------------------------------------------------------------------
// Stream drivers: one shell, two device halves
// ---------------------------------------------------------------------

/// What one scripted client session against a stream driver produced.
struct Session {
    sys: System,
    bus: Bus,
    /// Each reply as `(status, accepted, consumed watermark)`.
    replies: Vec<(u64, u64, u64)>,
    /// The watermarks the store was asked to save.
    saved: Vec<u64>,
}

/// Boots `StreamDriver<D>` on `device` (checkpointing against a scripted
/// "ds" when `ckpt`) and feeds it `writes` one at a time.
fn stream_session<D: StreamDevice + 'static>(
    device: Box<dyn Device>,
    ckpt: bool,
    writes: Vec<Message>,
) -> Session {
    let mut sys = System::new(SystemConfig::default());
    let mut bus = Bus::new();
    bus.add_device(DEV, IRQ, device);
    let saved: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    let s2 = saved.clone();
    // The store: no snapshot on record, every save acknowledged.
    let ds = sys.spawn_boot(
        "ds",
        Privileges::server(),
        Box::new(Probe {
            hook: Box::new(move |ctx, ev| {
                let ProcEvent::Request { call, msg } = ev else {
                    return;
                };
                let reply = if msg.mtype == ckpt::SAVE {
                    let frame = &msg.data[msg.param(0) as usize..];
                    let mark = Snapshot::decode(frame).ok().and_then(|s| s.as_watermark());
                    s2.borrow_mut().push(mark.expect("watermark frame"));
                    Message::new(ckpt::SAVE_REPLY)
                } else {
                    Message::new(ckpt::RESTORE_REPLY).with_param(0, ckpt_status::NOT_FOUND)
                };
                let _ = ctx.reply(*call, reply);
            }),
        }),
    );
    let mut drv = StreamDriver::<D>::new(DEV, IRQ, FaultPort::new());
    if ckpt {
        drv = drv.with_checkpointing(ds);
    }
    let drv_ep = sys.spawn_boot(
        "chr.stream",
        Privileges::driver(DEV, IRQ).with_ipc(IpcFilter::named(["rs", "ds"])),
        Box::new(Driver::new(drv)),
    );
    let replies: Rc<RefCell<Vec<(u64, u64, u64)>>> = Rc::new(RefCell::new(Vec::new()));
    let r2 = replies.clone();
    let mut queue = writes.into_iter();
    sys.spawn_boot(
        "client",
        Privileges::server(),
        Box::new(Probe {
            hook: Box::new(move |ctx, ev| {
                if let ProcEvent::Reply {
                    result: Ok(reply), ..
                } = ev
                {
                    let reply = cdev::Reply::from_message(reply).expect("a cdev reply");
                    let consumed = if reply.ack_seq != 0 {
                        reply.consumed
                    } else {
                        0
                    };
                    r2.borrow_mut().push((reply.status, reply.count, consumed));
                }
                if matches!(ev, ProcEvent::Start | ProcEvent::Reply { .. }) {
                    if let Some(next) = queue.next() {
                        let _ = ctx.sendrec(drv_ep, next);
                    }
                }
            }),
        }),
    );
    sys.run_until_idle(&mut bus, 10_000);
    let (replies, saved) = (replies.borrow().clone(), saved.borrow().clone());
    Session {
        sys,
        bus,
        replies,
        saved,
    }
}

/// The WAL-dedup contract, identical for both device halves: a replayed
/// prefix is acknowledged without touching the hardware, a lost
/// watermark jumps to the caller's log, every commit is checkpointed
/// before it is acknowledged.
fn stream_dedup_gap_cases<D: StreamDevice + 'static>(
    device: Box<dyn Device>,
    hw_bytes: impl Fn(&mut Bus) -> u64,
) {
    let write = |seq, offset, len| {
        let tagged = cdev::Write {
            seq,
            offset,
            dev: 0,
        };
        tagged.into_message().with_data(vec![b'x'; len])
    };
    let writes = vec![
        write(1, 0, 100),  // fresh
        write(1, 0, 100),  // the same entry replayed: pure duplicate
        write(2, 50, 100), // half replay, half fresh
        write(3, 300, 10), // watermark behind the caller's log: gap
    ];
    let mut run = stream_session::<D>(device, true, writes);
    let ok = status::OK;
    assert_eq!(
        run.replies,
        [
            (ok, 100, 100),
            (ok, 100, 100),
            (ok, 100, 150),
            (ok, 10, 310)
        ],
        "{}",
        D::LABEL
    );
    assert_eq!(run.sys.metrics().counter("ckpt.dedup_bytes"), 150);
    assert_eq!(run.sys.metrics().counter("ckpt.watermark_jumps"), 1);
    assert_eq!(run.saved, [100, 150, 310], "one save per commit");
    assert_eq!(hw_bytes(&mut run.bus), 160, "duplicates never reach it");
}

#[test]
fn stream_driver_dedups_replays_and_jumps_gaps_on_both_devices() {
    stream_dedup_gap_cases::<PrinterPort>(Box::new(Printer::new(1 << 20)), |bus| {
        bus.device_mut::<Printer>(DEV).unwrap().printed().len() as u64
    });
    stream_dedup_gap_cases::<AudioPort>(Box::new(AudioDac::new(1 << 20)), |bus| {
        bus.device_mut::<AudioDac>(DEV).unwrap().samples_played()
    });
}

#[test]
fn stream_driver_partial_accept_is_the_device_halfs_decision() {
    let big = |tagged: bool| {
        let seq = u64::from(tagged);
        let write = cdev::Write {
            seq,
            ..Default::default()
        };
        vec![write.into_message().with_data(vec![b'x'; 6144])]
    };
    let printer = || Box::new(Printer::new(1024)); // slow: 1 KB/s
    let dac = || Box::new(AudioDac::new(1 << 20));
    for tagged in [false, true] {
        // Printer: 6 KB into a 4 KB FIFO — accept what fits, and in WAL
        // mode commit (and save) exactly that much.
        let run = stream_session::<PrinterPort>(printer(), tagged, big(tagged));
        let (st, accepted, consumed) = run.replies[0];
        assert_eq!(st, status::OK);
        assert!(accepted > 0 && accepted <= 4096, "partial: {accepted}");
        if tagged {
            assert_eq!((consumed, run.saved), (accepted, vec![accepted]));
        }
        // Audio: a block is queued whole or not at all.
        let run = stream_session::<AudioPort>(dac(), tagged, big(tagged));
        assert_eq!(run.replies[0], (status::OK, 6144, 6144 * u64::from(tagged)));
    }
    // Over its DMA window the audio half refuses; an empty write is the
    // shell's EINVAL on both.
    let einval = |run: Session| assert_eq!(run.replies[0].0, status::EINVAL);
    let oversized = vec![Message::new(cdev::WRITE).with_data(vec![0; 64 * 1024 + 1])];
    einval(stream_session::<AudioPort>(dac(), false, oversized));
    let empty = || vec![Message::new(cdev::WRITE)];
    einval(stream_session::<AudioPort>(dac(), false, empty()));
    einval(stream_session::<PrinterPort>(printer(), false, empty()));
}

#[test]
fn a_stream_write_longer_than_one_routine_run_is_served() {
    // 8 KB is within both devices' MAX_WRITE but over what one run of the
    // pristine write routine sums inside the driver's step budget. The
    // second, small write is answered only by a driver that is still up.
    let writes = || {
        vec![
            Message::new(cdev::WRITE).with_data(vec![b'x'; 8192]),
            Message::new(cdev::WRITE).with_data(vec![b'y'; 16]),
        ]
    };
    let run = stream_session::<AudioPort>(Box::new(AudioDac::new(1 << 20)), false, writes());
    assert_eq!(
        run.replies,
        [(status::OK, 8192, 0), (status::OK, 16, 0)],
        "audio"
    );
    let run = stream_session::<PrinterPort>(Box::new(Printer::new(1 << 20)), false, writes());
    assert_eq!(run.replies.len(), 2, "printer: {:?}", run.replies);
    let (st, accepted, _) = run.replies[0];
    assert_eq!(st, status::OK);
    assert!(accepted > 0 && accepted <= 8192, "printer: {accepted}");
}

/// What a driver sends back for one request: the reply's kind and status,
/// or `None` when nothing comes back.
type Answer = Option<(u32, u64)>;

/// Boots `driver` (on `device`, when it has one) and hands it one
/// `mtype` request with every param zero.
fn answer_to(device: Option<Box<dyn Device>>, driver: Box<dyn Process>, mtype: u32) -> Answer {
    let mut sys = System::new(SystemConfig::default());
    let mut bus = Bus::new();
    if let Some(device) = device {
        bus.add_device(DEV, IRQ, device);
    }
    let mut privileges = Privileges::driver(DEV, IRQ)
        .with_calls([
            KernelCall::Devio,
            KernelCall::IrqCtl,
            KernelCall::IommuMap,
            KernelCall::SafeCopy,
        ])
        .with_ipc(IpcFilter::named(["rs", "ds", "inet"]));
    privileges.address_space = 256 * 1024;
    let drv_ep = sys.spawn_boot("drv", privileges, driver);
    let answer: Rc<RefCell<Answer>> = Rc::new(RefCell::new(None));
    let a2 = answer.clone();
    sys.spawn_boot(
        "client",
        Privileges::server(),
        Box::new(Probe {
            hook: Box::new(move |ctx, ev| match ev {
                ProcEvent::Start => {
                    let _ = ctx.sendrec(drv_ep, Message::new(mtype));
                }
                ProcEvent::Reply {
                    result: Ok(reply), ..
                } => *a2.borrow_mut() = Some((reply.mtype, reply.param(0))),
                _ => {}
            }),
        }),
    );
    sys.run_until_idle(&mut bus, 1000);
    let answer = *answer.borrow();
    answer
}

#[test]
fn every_driver_refuses_a_foreign_kind_and_its_own_reply_kind() {
    type Rig = fn() -> (Option<Box<dyn Device>>, Box<dyn Process>);
    // (driver, its rig, a request of another table, a reply of its own
    // table, the answer to each).
    let cases: [(&str, Rig, u32, u32, Answer, Answer); 8] = [
        (
            "disk",
            || {
                let disk = DiskDevice::sata(128, 1);
                (
                    Some(Box::new(disk)),
                    Box::new(Driver::new(DiskDriver::sata(DEV, IRQ, FaultPort::new()))),
                )
            },
            cdev::OPEN,
            bdev::REPLY,
            Some((bdev::REPLY, status::EINVAL)),
            Some((bdev::REPLY, status::EINVAL)),
        ),
        (
            "ramdisk",
            || {
                let region = RamDiskDriver::region(8);
                (
                    None,
                    Box::new(Driver::new(RamDiskDriver::new(region, FaultPort::new()))),
                )
            },
            cdev::OPEN,
            bdev::REPLY,
            Some((bdev::REPLY, status::EINVAL)),
            Some((bdev::REPLY, status::EINVAL)),
        ),
        (
            "printer",
            || {
                let drv = StreamDriver::<PrinterPort>::new(DEV, IRQ, FaultPort::new());
                (
                    Some(Box::new(Printer::new(32 * 1024))),
                    Box::new(Driver::new(drv)),
                )
            },
            bdev::OPEN,
            cdev::REPLY,
            Some((cdev::REPLY, status::EINVAL)),
            Some((cdev::REPLY, status::EINVAL)),
        ),
        (
            "audio",
            || {
                let drv = StreamDriver::<AudioPort>::new(DEV, IRQ, FaultPort::new());
                (
                    Some(Box::new(AudioDac::new(176_400))),
                    Box::new(Driver::new(drv)),
                )
            },
            bdev::OPEN,
            cdev::REPLY,
            Some((cdev::REPLY, status::EINVAL)),
            Some((cdev::REPLY, status::EINVAL)),
        ),
        (
            "scsi",
            || {
                let drv = ScsiCdDriver::new(DEV, IRQ, FaultPort::new());
                let burner = ScsiCdBurner::new(SimDuration::from_millis(300), 600_000);
                (Some(Box::new(burner)), Box::new(Driver::new(drv)))
            },
            bdev::OPEN,
            cdev::REPLY,
            Some((cdev::REPLY, status::EINVAL)),
            Some((cdev::REPLY, status::EINVAL)),
        ),
        (
            "keyboard",
            || {
                let drv = KeyboardDriver::new(DEV, IRQ, FaultPort::new());
                (Some(Box::new(Uart::new())), Box::new(Driver::new(drv)))
            },
            bdev::OPEN,
            cdev::REPLY,
            Some((cdev::REPLY, status::EINVAL)),
            Some((cdev::REPLY, status::EINVAL)),
        ),
        (
            "rtl8139",
            || {
                let nic = Rtl8139::new(Rtl8139Config::default());
                (
                    Some(Box::new(nic)),
                    Box::new(Driver::new(Rtl8139Driver::new(DEV, IRQ, FaultPort::new()))),
                )
            },
            cdev::OPEN,
            eth::INIT_REPLY,
            Some((eth::WRITE_REPLY, status::EINVAL)),
            Some((eth::WRITE_REPLY, status::EINVAL)),
        ),
        (
            "dp8390",
            || {
                let nic = Dp8390::new(Dp8390Config::default());
                (
                    Some(Box::new(nic)),
                    Box::new(Driver::new(Dp8390Driver::new(DEV, IRQ, FaultPort::new()))),
                )
            },
            cdev::OPEN,
            eth::INIT_REPLY,
            Some((eth::WRITE_REPLY, status::EINVAL)),
            Some((eth::WRITE_REPLY, status::EINVAL)),
        ),
    ];
    for (name, rig, foreign, own_reply, to_foreign, to_own_reply) in cases {
        let (device, driver) = rig();
        assert_eq!(
            answer_to(device, driver, foreign),
            to_foreign,
            "{name}: {foreign:#x}"
        );
        let (device, driver) = rig();
        assert_eq!(
            answer_to(device, driver, own_reply),
            to_own_reply,
            "{name}: {own_reply:#x}"
        );
    }
}
