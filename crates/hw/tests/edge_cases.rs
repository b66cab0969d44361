//! Device-model edge cases: ring overflow, ring wrap, wire loss, and the
//! wedge/hard-reset lifecycle.

use std::cell::RefCell;
use std::rc::Rc;

use phoenix_hw::bus::{wire_to_host_channel, Bus, WireConfig};
use phoenix_hw::dp8390::{self, Dp8390, Dp8390Config};
use phoenix_hw::rtl8139::{self, Rtl8139, Rtl8139Config};
use phoenix_hw::{PeerCtx, RemotePeer};
use phoenix_kernel::privileges::{KernelCall, Privileges};
use phoenix_kernel::process::{ProcEvent, Process};
use phoenix_kernel::system::{Ctx, System, SystemConfig};
use phoenix_kernel::types::DeviceId;
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
const IRQ: u8 = 4;

struct Quiet;
impl RemotePeer for Quiet {
    fn frame_from_host(&mut self, _: &mut PeerCtx<'_, '_>, _: &[u8]) {}
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn inject_frames(sys: &mut System, n: usize, size: usize) {
    for i in 0..n {
        sys.schedule_external(
            SimDuration::from_micros(10 + i as u64),
            wire_to_host_channel(DEV),
            vec![0xAB; size],
        );
    }
}

#[test]
fn rtl8139_ring_overflow_drops_and_flags_rer() {
    // Configure the card but never advance CAPR: the ring fills and the
    // device must drop with an RER indication instead of overwriting.
    let mut sys = System::new(SystemConfig::default());
    let mut bus = Bus::new();
    bus.add_device(DEV, IRQ, Box::new(Rtl8139::new(Rtl8139Config::default())));
    bus.attach_peer(DEV, WireConfig::default(), Box::new(Quiet));
    let saw_rer = Rc::new(RefCell::new(false));
    let sr = saw_rer.clone();
    sys.spawn_boot(
        "drv",
        Privileges::driver(DEV, IRQ),
        Box::new(Probe {
            hook: Box::new(move |ctx, ev| match ev {
                ProcEvent::Start => {
                    ctx.irq_enable(IRQ).unwrap();
                    ctx.devio_write(DEV, rtl8139::regs::CR, rtl8139::cr::RST)
                        .unwrap();
                    ctx.iommu_map(DEV, 0, 0, rtl8139::RX_RING_LEN).unwrap();
                    ctx.devio_write(DEV, rtl8139::regs::RBSTART, 0).unwrap();
                    ctx.devio_write(DEV, rtl8139::regs::RCR, rtl8139::rcr::AAP)
                        .unwrap();
                    ctx.devio_write(DEV, rtl8139::regs::IMR, 0xFFFF).unwrap();
                    ctx.devio_write(DEV, rtl8139::regs::CR, rtl8139::cr::RE)
                        .unwrap();
                }
                ProcEvent::Irq { .. } => {
                    let isr = ctx.devio_read(DEV, rtl8139::regs::ISR).unwrap();
                    ctx.devio_write(DEV, rtl8139::regs::ISR, isr).unwrap();
                    if isr & rtl8139::isr::RER != 0 {
                        *sr.borrow_mut() = true;
                    }
                    // Deliberately never advance CAPR.
                }
                _ => {}
            }),
        }),
    );
    // 64 KB ring; 1500-byte frames + headers fill it after ~43 frames.
    inject_frames(&mut sys, 60, 1500);
    sys.run_until_idle(&mut bus, 5000);
    let nic: &mut Rtl8139 = bus.device_mut(DEV).unwrap();
    assert!(nic.rx_dropped() > 0, "overflow must drop");
    assert!(
        nic.rx_ok() > 30,
        "most frames landed before the ring filled"
    );
    assert!(*saw_rer.borrow(), "driver saw the RER indication");
}

#[test]
fn dp8390_ring_wraps_and_preserves_frames() {
    // Read frames through the ring long enough to wrap PSTOP->PSTART and
    // verify payload integrity across the wrap.
    let mut sys = System::new(SystemConfig::default());
    let mut bus = Bus::new();
    bus.add_device(DEV, IRQ, Box::new(Dp8390::new(Dp8390Config::default())));
    bus.attach_peer(DEV, WireConfig::default(), Box::new(Quiet));
    let frames: Rc<RefCell<Vec<Vec<u8>>>> = Rc::new(RefCell::new(Vec::new()));
    let fr = frames.clone();
    sys.spawn_boot(
        "drv",
        Privileges::driver(DEV, IRQ),
        Box::new(Probe {
            hook: Box::new(move |ctx, ev| {
                use dp8390::{cr, regs};
                match ev {
                    ProcEvent::Start => {
                        ctx.irq_enable(IRQ).unwrap();
                        ctx.devio_write(DEV, regs::CR, cr::RST).unwrap();
                        // A deliberately tiny ring: pages 16..24 (2 KB).
                        ctx.devio_write(DEV, regs::PSTART, 16).unwrap();
                        ctx.devio_write(DEV, regs::PSTOP, 24).unwrap();
                        ctx.devio_write(DEV, regs::BNRY, 16).unwrap();
                        ctx.devio_write(DEV, regs::CURR, 16).unwrap();
                        ctx.devio_write(DEV, regs::IMR, 0xFF).unwrap();
                        ctx.devio_write(DEV, regs::RCR, dp8390::rcr::PRO).unwrap();
                        ctx.devio_write(DEV, regs::CR, cr::STA).unwrap();
                    }
                    ProcEvent::Irq { .. } => {
                        let isr = ctx.devio_read(DEV, regs::ISR).unwrap();
                        ctx.devio_write(DEV, regs::ISR, isr).unwrap();
                        // Drain: read header + payload via remote DMA.
                        loop {
                            let curr = ctx.devio_read(DEV, regs::CURR).unwrap() as u8;
                            let bnry = ctx.devio_read(DEV, regs::BNRY).unwrap() as u8;
                            if curr == bnry {
                                break;
                            }
                            let addr = u16::from(bnry) * 256;
                            ctx.devio_write(DEV, regs::RSAR0, u32::from(addr & 0xFF))
                                .unwrap();
                            ctx.devio_write(DEV, regs::RSAR1, u32::from(addr >> 8))
                                .unwrap();
                            ctx.devio_write(DEV, regs::RBCR0, 4).unwrap();
                            ctx.devio_write(DEV, regs::RBCR1, 0).unwrap();
                            ctx.devio_write(DEV, regs::CR, cr::STA | cr::RD_READ)
                                .unwrap();
                            let mut hdr = [0; 4];
                            let n = ctx.devio_read_block(DEV, regs::DATA, &mut hdr).unwrap();
                            assert_eq!(n, 4, "remote DMA fills the header");
                            let next = hdr[1];
                            let total = usize::from(u16::from_le_bytes([hdr[2], hdr[3]]));
                            let len = total - 4;
                            // Payload (may wrap at PSTOP).
                            let pstart = 16u16;
                            let pstop = 24u16;
                            let pay_addr = addr + 4;
                            let end = pstop * 256;
                            let mut frame = vec![0; len];
                            if pay_addr + len as u16 <= end {
                                ctx.devio_write(DEV, regs::RSAR0, u32::from(pay_addr & 0xFF))
                                    .unwrap();
                                ctx.devio_write(DEV, regs::RSAR1, u32::from(pay_addr >> 8))
                                    .unwrap();
                                ctx.devio_write(DEV, regs::RBCR0, (len & 0xFF) as u32)
                                    .unwrap();
                                ctx.devio_write(DEV, regs::RBCR1, (len >> 8) as u32)
                                    .unwrap();
                                ctx.devio_write(DEV, regs::CR, cr::STA | cr::RD_READ)
                                    .unwrap();
                                ctx.devio_read_block(DEV, regs::DATA, &mut frame).unwrap();
                            } else {
                                let first = usize::from(end - pay_addr);
                                ctx.devio_write(DEV, regs::RSAR0, u32::from(pay_addr & 0xFF))
                                    .unwrap();
                                ctx.devio_write(DEV, regs::RSAR1, u32::from(pay_addr >> 8))
                                    .unwrap();
                                ctx.devio_write(DEV, regs::RBCR0, (first & 0xFF) as u32)
                                    .unwrap();
                                ctx.devio_write(DEV, regs::RBCR1, (first >> 8) as u32)
                                    .unwrap();
                                ctx.devio_write(DEV, regs::CR, cr::STA | cr::RD_READ)
                                    .unwrap();
                                let (head, tail) = frame.split_at_mut(first);
                                ctx.devio_read_block(DEV, regs::DATA, head).unwrap();
                                let rest = len - first;
                                let base = pstart * 256;
                                ctx.devio_write(DEV, regs::RSAR0, u32::from(base & 0xFF))
                                    .unwrap();
                                ctx.devio_write(DEV, regs::RSAR1, u32::from(base >> 8))
                                    .unwrap();
                                ctx.devio_write(DEV, regs::RBCR0, (rest & 0xFF) as u32)
                                    .unwrap();
                                ctx.devio_write(DEV, regs::RBCR1, (rest >> 8) as u32)
                                    .unwrap();
                                ctx.devio_write(DEV, regs::CR, cr::STA | cr::RD_READ)
                                    .unwrap();
                                ctx.devio_read_block(DEV, regs::DATA, tail).unwrap();
                            }
                            fr.borrow_mut().push(frame);
                            ctx.devio_write(DEV, regs::BNRY, u32::from(next)).unwrap();
                        }
                    }
                    _ => {}
                }
            }),
        }),
    );
    // 12 frames of 500 bytes through a 2 KB ring: multiple wraps, but the
    // driver drains between arrivals (1 ms apart).
    for i in 0..12 {
        sys.schedule_external(
            SimDuration::from_millis(1 + i as u64),
            wire_to_host_channel(DEV),
            vec![i as u8; 500],
        );
    }
    sys.run_until_idle(&mut bus, 20_000);
    let got = frames.borrow();
    assert_eq!(got.len(), 12, "all frames received across ring wraps");
    for (i, f) in got.iter().enumerate() {
        assert_eq!(f.len(), 500);
        assert!(
            f.iter().all(|&b| b == i as u8),
            "frame {i} intact across wrap"
        );
    }
}

#[test]
fn lossy_wire_statistics_are_plausible() {
    // At 30% loss, roughly 30% of 400 injected frames vanish en route to
    // the peer. (Deterministic for a given seed.)
    struct Count {
        n: usize,
    }
    impl RemotePeer for Count {
        fn frame_from_host(&mut self, _: &mut PeerCtx<'_, '_>, _: &[u8]) {
            self.n += 1;
        }
        fn as_any(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }
    let mut sys = System::new(SystemConfig::default());
    let mut bus = Bus::new();
    bus.add_device(DEV, IRQ, Box::new(Rtl8139::new(Rtl8139Config::default())));
    bus.attach_peer(
        DEV,
        WireConfig {
            latency: SimDuration::from_micros(100),
            loss_prob: 0.3,
        },
        Box::new(Count { n: 0 }),
    );
    sys.spawn_boot(
        "drv",
        // This probe paces itself with alarms on top of the driver baseline.
        Privileges::driver(DEV, IRQ).with_calls([
            KernelCall::Devio,
            KernelCall::IrqCtl,
            KernelCall::IommuMap,
            KernelCall::SetAlarm,
        ]),
        Box::new(Probe {
            hook: Box::new(move |ctx, ev| match ev {
                ProcEvent::Start => {
                    ctx.devio_write(DEV, rtl8139::regs::CR, rtl8139::cr::RST)
                        .unwrap();
                    ctx.iommu_map(DEV, 0, 0, rtl8139::RX_RING_LEN + 2048)
                        .unwrap();
                    ctx.devio_write(DEV, rtl8139::regs::CR, rtl8139::cr::TE)
                        .unwrap();
                    ctx.mem_write(rtl8139::RX_RING_LEN, &[9u8; 64]).unwrap();
                    ctx.devio_write(DEV, rtl8139::regs::TSAD0, rtl8139::RX_RING_LEN as u32)
                        .unwrap();
                    ctx.set_alarm(SimDuration::from_micros(50), 0).unwrap();
                }
                ProcEvent::Alarm { token } if *token < 400 => {
                    ctx.devio_write(DEV, rtl8139::regs::TSD0, 64).unwrap();
                    ctx.set_alarm(SimDuration::from_micros(50), token + 1)
                        .unwrap();
                }
                _ => {}
            }),
        }),
    );
    sys.run_until_idle(&mut bus, 100_000);
    let peer: &mut Count = bus.peer_mut(DEV).unwrap();
    let arrived = peer.n;
    assert!(
        (220..=340).contains(&arrived),
        "~70% of 400 frames should arrive, got {arrived}"
    );
}

#[test]
fn wedged_dp8390_survives_soft_reset_until_hard_reset() {
    let mut sys = System::new(SystemConfig::default());
    let mut bus = Bus::new();
    bus.add_device(DEV, IRQ, Box::new(Dp8390::new(Dp8390Config::default())));
    {
        let nic: &mut Dp8390 = bus.device_mut(DEV).unwrap();
        nic.force_wedge();
        assert!(nic.is_wedged());
    }
    let reset_worked = Rc::new(RefCell::new(None));
    let rw = reset_worked.clone();
    sys.spawn_boot(
        "drv",
        Privileges::driver(DEV, IRQ),
        Box::new(Probe {
            hook: Box::new(move |ctx, ev| {
                if matches!(ev, ProcEvent::Start) {
                    ctx.devio_write(DEV, dp8390::regs::CR, dp8390::cr::RST)
                        .unwrap();
                    let cr = ctx.devio_read(DEV, dp8390::regs::CR).unwrap();
                    *rw.borrow_mut() = Some(cr & dp8390::cr::RST == 0);
                }
            }),
        }),
    );
    sys.run_until_idle(&mut bus, 100);
    assert_eq!(
        *reset_worked.borrow(),
        Some(false),
        "soft reset fails while wedged"
    );
    bus.hard_reset(DEV);
    let nic: &mut Dp8390 = bus.device_mut(DEV).unwrap();
    assert!(!nic.is_wedged(), "BIOS-level reset clears the wedge");
}
