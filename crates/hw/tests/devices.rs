//! Device-model integration tests: each device is driven through the real
//! kernel (privileges, IOMMU, IRQ routing) by a minimal scripted process.

use std::cell::RefCell;
use std::rc::Rc;

use phoenix_hw::bus::{Bus, WireConfig};
use phoenix_hw::chardev::{audio_regs, printer_regs, scsi_cmd, scsi_regs, scsi_status};
use phoenix_hw::disk::{self, cmd as dcmd, disk_isr, regs as dregs, synth_sector, SECTOR};
use phoenix_hw::dp8390::{self, Dp8390, Dp8390Config};
use phoenix_hw::rtl8139::{self, Rtl8139, Rtl8139Config};
use phoenix_hw::{AudioDac, DiskDevice, Printer, ScsiCdBurner};
use phoenix_kernel::privileges::Privileges;
use phoenix_kernel::process::{ProcEvent, Process};
use phoenix_kernel::system::{Ctx, System, SystemConfig};
use phoenix_kernel::types::DeviceId;
use phoenix_simcore::time::SimDuration;

type Hook = Box<dyn FnMut(&mut Ctx<'_>, &ProcEvent)>;

struct Driver {
    hook: Hook,
}

impl Process for Driver {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        (self.hook)(ctx, &event);
    }
}

fn boot_driver(sys: &mut System, dev: DeviceId, irq: u8, hook: Hook) {
    sys.spawn_boot(
        "drv",
        Privileges::driver(dev, irq),
        Box::new(Driver { hook }),
    );
}

const DEV: DeviceId = DeviceId(1);
const IRQ: u8 = 5;

#[test]
fn sata_read_roundtrip_via_dma_and_irq() {
    let mut sys = System::new(SystemConfig::default());
    let mut bus = Bus::new();
    bus.add_device(DEV, IRQ, Box::new(DiskDevice::sata(1024, 7)));
    let got: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
    let got2 = got.clone();
    boot_driver(
        &mut sys,
        DEV,
        IRQ,
        Box::new(move |ctx, ev| match ev {
            ProcEvent::Start => {
                ctx.irq_enable(IRQ).unwrap();
                // Map 8 KB of our memory as the DMA window at device
                // address 0x1000 and read 4 sectors at LBA 10.
                ctx.iommu_map(DEV, 0x1000, 0, 8192).unwrap();
                ctx.devio_write(DEV, dregs::LBA, 10).unwrap();
                ctx.devio_write(DEV, dregs::COUNT, 4).unwrap();
                ctx.devio_write(DEV, dregs::DMA_ADDR, 0x1000).unwrap();
                ctx.devio_write(DEV, dregs::CMD, dcmd::READ).unwrap();
                assert_eq!(
                    ctx.devio_read(DEV, dregs::STATUS).unwrap() & disk::status::BUSY,
                    disk::status::BUSY
                );
            }
            ProcEvent::Irq { .. } => {
                let isr = ctx.devio_read(DEV, dregs::ISR).unwrap();
                assert_eq!(isr & disk_isr::DONE, disk_isr::DONE);
                ctx.devio_write(DEV, dregs::ISR, isr).unwrap();
                *got2.borrow_mut() = ctx.mem(0, 4 * SECTOR).unwrap().to_vec();
            }
            _ => {}
        }),
    );
    sys.run_until_idle(&mut bus, 100);
    let data = got.borrow();
    assert_eq!(data.len(), 4 * SECTOR);
    for i in 0..4u64 {
        assert_eq!(
            &data[i as usize * SECTOR..(i as usize + 1) * SECTOR],
            synth_sector(7, 10 + i).as_slice(),
            "sector {i} content"
        );
    }
    // Timing: 150us overhead + 2048B @ 33MB/s ≈ 212us, plus small latencies.
    assert!(sys.now().as_micros() > 150 && sys.now().as_micros() < 1000);
}

#[test]
fn sata_write_then_read_back() {
    let mut sys = System::new(SystemConfig::default());
    let mut bus = Bus::new();
    bus.add_device(DEV, IRQ, Box::new(DiskDevice::sata(64, 1)));
    let phase = Rc::new(RefCell::new(0));
    let ph = phase.clone();
    boot_driver(
        &mut sys,
        DEV,
        IRQ,
        Box::new(move |ctx, ev| match ev {
            ProcEvent::Start => {
                ctx.irq_enable(IRQ).unwrap();
                ctx.iommu_map(DEV, 0, 0, 4096).unwrap();
                ctx.mem_write(0, &vec![0x5A; SECTOR]).unwrap();
                ctx.devio_write(DEV, dregs::LBA, 3).unwrap();
                ctx.devio_write(DEV, dregs::COUNT, 1).unwrap();
                ctx.devio_write(DEV, dregs::DMA_ADDR, 0).unwrap();
                ctx.devio_write(DEV, dregs::CMD, dcmd::WRITE).unwrap();
            }
            ProcEvent::Irq { .. } => {
                let isr = ctx.devio_read(DEV, dregs::ISR).unwrap();
                ctx.devio_write(DEV, dregs::ISR, isr).unwrap();
                let mut p = ph.borrow_mut();
                if *p == 0 {
                    *p = 1;
                    // Clear our buffer, then read the sector back.
                    ctx.mem_write(0, &vec![0u8; SECTOR]).unwrap();
                    ctx.devio_write(DEV, dregs::CMD, dcmd::READ).unwrap();
                } else {
                    let data = ctx.mem(0, SECTOR).unwrap();
                    assert!(data.iter().all(|&b| b == 0x5A));
                    *p = 2;
                }
            }
            _ => {}
        }),
    );
    sys.run_until_idle(&mut bus, 100);
    assert_eq!(*phase.borrow(), 2);
}

#[test]
fn sata_bad_lba_fails_and_dma_fault_detected() {
    let mut sys = System::new(SystemConfig::default());
    let mut bus = Bus::new();
    bus.add_device(DEV, IRQ, Box::new(DiskDevice::sata(16, 1)));
    let fails: Rc<RefCell<u32>> = Rc::new(RefCell::new(0));
    let f2 = fails.clone();
    boot_driver(
        &mut sys,
        DEV,
        IRQ,
        Box::new(move |ctx, ev| match ev {
            ProcEvent::Start => {
                ctx.irq_enable(IRQ).unwrap();
                // No IOMMU window mapped: the DMA will fault.
                ctx.devio_write(DEV, dregs::LBA, 0).unwrap();
                ctx.devio_write(DEV, dregs::COUNT, 1).unwrap();
                ctx.devio_write(DEV, dregs::CMD, dcmd::READ).unwrap();
            }
            ProcEvent::Irq { .. } => {
                let isr = ctx.devio_read(DEV, dregs::ISR).unwrap();
                ctx.devio_write(DEV, dregs::ISR, isr).unwrap();
                if isr & disk_isr::FAIL != 0 {
                    let mut f = f2.borrow_mut();
                    *f += 1;
                    if *f == 1 {
                        // Now try an out-of-range LBA (fails immediately).
                        ctx.devio_write(DEV, dregs::LBA, 99).unwrap();
                        ctx.devio_write(DEV, dregs::CMD, dcmd::READ).unwrap();
                    }
                }
            }
            _ => {}
        }),
    );
    sys.run_until_idle(&mut bus, 100);
    assert_eq!(*fails.borrow(), 2);
}

#[test]
fn floppy_requires_motor() {
    let mut sys = System::new(SystemConfig::default());
    let mut bus = Bus::new();
    bus.add_device(DEV, IRQ, Box::new(DiskDevice::floppy(3)));
    let outcome: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
    let oc = outcome.clone();
    boot_driver(
        &mut sys,
        DEV,
        IRQ,
        Box::new(move |ctx, ev| match ev {
            ProcEvent::Start => {
                ctx.irq_enable(IRQ).unwrap();
                ctx.iommu_map(DEV, 0, 0, 4096).unwrap();
                ctx.devio_write(DEV, dregs::LBA, 0).unwrap();
                ctx.devio_write(DEV, dregs::COUNT, 1).unwrap();
                // Motor off: must fail.
                ctx.devio_write(DEV, dregs::CMD, dcmd::READ).unwrap();
            }
            ProcEvent::Irq { .. } => {
                let isr = ctx.devio_read(DEV, dregs::ISR).unwrap();
                ctx.devio_write(DEV, dregs::ISR, isr).unwrap();
                oc.borrow_mut().push(isr);
                if isr & disk_isr::FAIL != 0 {
                    ctx.devio_write(DEV, dregs::MOTOR, 1).unwrap();
                    ctx.devio_write(DEV, dregs::CMD, dcmd::READ).unwrap();
                }
            }
            _ => {}
        }),
    );
    sys.run_until_idle(&mut bus, 100);
    let oc = outcome.borrow();
    assert_eq!(oc.len(), 2);
    assert_eq!(oc[0], disk_isr::FAIL);
    assert_eq!(oc[1], disk_isr::DONE);
}

#[test]
fn rtl8139_tx_rx_through_wire() {
    let mut sys = System::new(SystemConfig::default());
    let mut bus = Bus::new();
    bus.add_device(DEV, IRQ, Box::new(Rtl8139::new(Rtl8139Config::default())));
    // Echo peer bounces frames back with a marker byte appended.
    struct Echo;
    impl phoenix_hw::RemotePeer for Echo {
        fn frame_from_host(&mut self, ctx: &mut phoenix_hw::PeerCtx<'_, '_>, frame: &[u8]) {
            let mut f = frame.to_vec();
            f.push(0xEE);
            ctx.send_to_host(f);
        }
        fn as_any(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }
    bus.attach_peer(DEV, WireConfig::default(), Box::new(Echo));
    let received: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
    let rx = received.clone();
    boot_driver(
        &mut sys,
        DEV,
        IRQ,
        Box::new(move |ctx, ev| match ev {
            ProcEvent::Start => {
                ctx.irq_enable(IRQ).unwrap();
                // Reset, map the rx ring at device address 0, offset 0.
                ctx.devio_write(DEV, rtl8139::regs::CR, rtl8139::cr::RST)
                    .unwrap();
                ctx.iommu_map(DEV, 0, 0, rtl8139::RX_RING_LEN + 4096)
                    .unwrap();
                ctx.devio_write(DEV, rtl8139::regs::RBSTART, 0).unwrap();
                ctx.devio_write(DEV, rtl8139::regs::RCR, rtl8139::rcr::AAP)
                    .unwrap();
                ctx.devio_write(DEV, rtl8139::regs::IMR, 0xFFFF).unwrap();
                ctx.devio_write(DEV, rtl8139::regs::CR, rtl8139::cr::RE | rtl8139::cr::TE)
                    .unwrap();
                // Stage a frame just past the ring and transmit it.
                ctx.mem_write(rtl8139::RX_RING_LEN, b"ping").unwrap();
                ctx.devio_write(DEV, rtl8139::regs::TSAD0, rtl8139::RX_RING_LEN as u32)
                    .unwrap();
                ctx.devio_write(DEV, rtl8139::regs::TSD0, 4).unwrap();
            }
            ProcEvent::Irq { .. } => {
                let isr = ctx.devio_read(DEV, rtl8139::regs::ISR).unwrap();
                ctx.devio_write(DEV, rtl8139::regs::ISR, isr).unwrap();
                if isr & rtl8139::isr::ROK != 0 {
                    // Parse the ring: status(2) len(2) payload.
                    let hdr = ctx.mem(0, 4).unwrap();
                    let len = u16::from_le_bytes([hdr[2], hdr[3]]) as usize;
                    *rx.borrow_mut() = ctx.mem(4, len).unwrap().to_vec();
                }
            }
            _ => {}
        }),
    );
    sys.run_until_idle(&mut bus, 200);
    assert_eq!(received.borrow().as_slice(), b"ping\xEE");
    let nic: &mut Rtl8139 = bus.device_mut(DEV).unwrap();
    assert_eq!(nic.tx_ok(), 1);
    assert_eq!(nic.rx_ok(), 1);
}

#[test]
fn rtl8139_drops_frames_while_unconfigured_and_wedge_blocks_reset() {
    let mut sys = System::new(SystemConfig::default());
    let mut bus = Bus::new();
    bus.add_device(DEV, IRQ, Box::new(Rtl8139::new(Rtl8139Config::default())));
    struct Quiet;
    impl phoenix_hw::RemotePeer for Quiet {
        fn frame_from_host(&mut self, _: &mut phoenix_hw::PeerCtx<'_, '_>, _: &[u8]) {}
        fn as_any(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }
    bus.attach_peer(DEV, WireConfig::default(), Box::new(Quiet));
    // Inject a frame from the wire before any driver configured the card.
    sys.schedule_external(
        SimDuration::from_micros(10),
        (u64::from(DEV.0) << 16) | 3,
        b"lost".to_vec(),
    );
    sys.run_until_idle(&mut bus, 10);
    {
        let nic: &mut Rtl8139 = bus.device_mut(DEV).unwrap();
        assert_eq!(nic.rx_dropped(), 1);
        assert_eq!(nic.rx_ok(), 0);
        // Wedge the card: software reset must no longer work.
        nic.force_wedge();
    }
    let reset_ok: Rc<RefCell<Option<bool>>> = Rc::new(RefCell::new(None));
    let ro = reset_ok.clone();
    boot_driver(
        &mut sys,
        DEV,
        IRQ,
        Box::new(move |ctx, ev| {
            if matches!(ev, ProcEvent::Start) {
                ctx.devio_write(DEV, rtl8139::regs::CR, rtl8139::cr::RST)
                    .unwrap();
                let cr = ctx.devio_read(DEV, rtl8139::regs::CR).unwrap();
                *ro.borrow_mut() = Some(cr & rtl8139::cr::RST == 0);
            }
        }),
    );
    sys.run_until_idle(&mut bus, 10);
    assert_eq!(
        *reset_ok.borrow(),
        Some(false),
        "wedged card stays in reset"
    );
    // The BIOS-level hard reset clears the wedge.
    bus.hard_reset(DEV);
    let nic: &mut Rtl8139 = bus.device_mut(DEV).unwrap();
    assert!(!nic.is_wedged());
}

#[test]
fn dp8390_remote_dma_and_tx() {
    let mut sys = System::new(SystemConfig::default());
    let mut bus = Bus::new();
    bus.add_device(DEV, IRQ, Box::new(Dp8390::new(Dp8390Config::default())));
    struct Capture {
        frames: Vec<Vec<u8>>,
    }
    impl phoenix_hw::RemotePeer for Capture {
        fn frame_from_host(&mut self, _: &mut phoenix_hw::PeerCtx<'_, '_>, frame: &[u8]) {
            self.frames.push(frame.to_vec());
        }
        fn as_any(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }
    bus.attach_peer(
        DEV,
        WireConfig::default(),
        Box::new(Capture { frames: Vec::new() }),
    );
    boot_driver(
        &mut sys,
        DEV,
        IRQ,
        Box::new(move |ctx, ev| {
            if matches!(ev, ProcEvent::Start) {
                use dp8390::{cr, regs};
                ctx.devio_write(DEV, regs::CR, cr::RST).unwrap();
                // Configure ring pages 16..64, tx page 0, start the NIC.
                ctx.devio_write(DEV, regs::PSTART, 16).unwrap();
                ctx.devio_write(DEV, regs::PSTOP, 64).unwrap();
                ctx.devio_write(DEV, regs::BNRY, 16).unwrap();
                ctx.devio_write(DEV, regs::CURR, 16).unwrap();
                ctx.devio_write(DEV, regs::TPSR, 0).unwrap();
                ctx.devio_write(DEV, regs::IMR, 0xFF).unwrap();
                ctx.devio_write(DEV, regs::CR, cr::STA).unwrap();
                // Remote-DMA the frame into card memory at page 0.
                ctx.devio_write(DEV, regs::RSAR0, 0).unwrap();
                ctx.devio_write(DEV, regs::RSAR1, 0).unwrap();
                ctx.devio_write(DEV, regs::RBCR0, 5).unwrap();
                ctx.devio_write(DEV, regs::RBCR1, 0).unwrap();
                ctx.devio_write(DEV, regs::CR, cr::STA | cr::RD_WRITE)
                    .unwrap();
                ctx.devio_write_block(DEV, regs::DATA, b"hello").unwrap();
                // Transmit 5 bytes from page 0.
                ctx.devio_write(DEV, regs::TBCR0, 5).unwrap();
                ctx.devio_write(DEV, regs::TBCR1, 0).unwrap();
                ctx.devio_write(DEV, regs::CR, cr::STA | cr::TXP).unwrap();
            }
        }),
    );
    sys.run_until_idle(&mut bus, 100);
    let peer: &mut Capture = bus.peer_mut(DEV).unwrap();
    assert_eq!(peer.frames, vec![b"hello".to_vec()]);
    let nic: &mut Dp8390 = bus.device_mut(DEV).unwrap();
    assert_eq!(nic.tx_ok(), 1);
}

#[test]
fn printer_prints_fifo_contents_in_order() {
    let mut sys = System::new(SystemConfig::default());
    let mut bus = Bus::new();
    bus.add_device(DEV, IRQ, Box::new(Printer::new(2048)));
    boot_driver(
        &mut sys,
        DEV,
        IRQ,
        Box::new(move |ctx, ev| {
            if matches!(ev, ProcEvent::Start) {
                ctx.irq_enable(IRQ).unwrap();
                ctx.devio_write_block(DEV, printer_regs::DATA, b"page one\n")
                    .unwrap();
            }
        }),
    );
    sys.run_until_idle(&mut bus, 100);
    let p: &mut Printer = bus.device_mut(DEV).unwrap();
    assert_eq!(p.printed(), b"page one\n");
    // 9 bytes at 2048 B/s ≈ 4.4ms.
    assert!(sys.now().as_micros() >= 4000);
}

#[test]
fn audio_underrun_recorded_when_starved() {
    let mut sys = System::new(SystemConfig::default());
    let mut bus = Bus::new();
    bus.add_device(DEV, IRQ, Box::new(AudioDac::new(176_400)));
    boot_driver(
        &mut sys,
        DEV,
        IRQ,
        Box::new(move |ctx, ev| {
            if matches!(ev, ProcEvent::Start) {
                ctx.irq_enable(IRQ).unwrap();
                ctx.iommu_map(DEV, 0, 0, 8192).unwrap();
                ctx.mem_write(0, &vec![1u8; 4096]).unwrap();
                ctx.devio_write(DEV, audio_regs::BUF_ADDR, 0).unwrap();
                ctx.devio_write(DEV, audio_regs::BUF_LEN, 4096).unwrap();
                ctx.devio_write(DEV, audio_regs::CTRL, 1).unwrap();
                ctx.devio_write(DEV, audio_regs::START, 1).unwrap();
                // Only one block queued; after it plays the DAC starves.
            }
        }),
    );
    sys.run_until_idle(&mut bus, 100);
    let dac: &mut AudioDac = bus.device_mut(DEV).unwrap();
    assert_eq!(dac.samples_played(), 4096);
    assert_eq!(dac.underruns(), 1, "starvation after the only block");
}

#[test]
fn cd_burn_completes_with_steady_feed_and_ruins_on_gap() {
    let mut sys = System::new(SystemConfig::default());
    let mut bus = Bus::new();
    bus.add_device(
        DEV,
        IRQ,
        Box::new(ScsiCdBurner::new(SimDuration::from_millis(100), 1_000_000)),
    );
    let chunk_count = 4u32;
    let sent = Rc::new(RefCell::new(0u32));
    let s2 = sent.clone();
    boot_driver(
        &mut sys,
        DEV,
        IRQ,
        Box::new(move |ctx, ev| {
            let send_chunk = |ctx: &mut Ctx<'_>, seq: u32| {
                ctx.devio_write(DEV, scsi_regs::CHUNK_SEQ, seq).unwrap();
                ctx.devio_write(DEV, scsi_regs::DMA_ADDR, 0).unwrap();
                ctx.devio_write(DEV, scsi_regs::CHUNK_LEN, 512).unwrap();
                ctx.devio_write(DEV, scsi_regs::CMD, scsi_cmd::WRITE_CHUNK)
                    .unwrap();
            };
            match ev {
                ProcEvent::Start => {
                    ctx.irq_enable(IRQ).unwrap();
                    ctx.iommu_map(DEV, 0, 0, 4096).unwrap();
                    ctx.mem_write(0, &vec![0xCD; 512]).unwrap();
                    ctx.devio_write(DEV, scsi_regs::TOTAL_CHUNKS, chunk_count)
                        .unwrap();
                    ctx.devio_write(DEV, scsi_regs::CMD, scsi_cmd::START_BURN)
                        .unwrap();
                    send_chunk(ctx, 0);
                    *s2.borrow_mut() = 1;
                }
                ProcEvent::Irq { .. } => {
                    let mut s = s2.borrow_mut();
                    if *s < chunk_count {
                        send_chunk(ctx, *s);
                        *s += 1;
                    } else if *s == chunk_count {
                        ctx.devio_write(DEV, scsi_regs::CMD, scsi_cmd::FINALIZE)
                            .unwrap();
                        *s += 1;
                    }
                }
                _ => {}
            }
        }),
    );
    sys.run_until_idle(&mut bus, 200);
    {
        let cd: &mut ScsiCdBurner = bus.device_mut(DEV).unwrap();
        assert_eq!(cd.discs_completed(), 1);
        assert_eq!(cd.discs_ruined(), 0);
        assert_eq!(cd.burned().len(), 4 * 512);
    }

    // Second burn: start it, feed one chunk, then go silent — the deadline
    // passes and the disc is ruined (the driver "crashed").
    let mut sys2 = System::new(SystemConfig::default());
    let mut bus2 = Bus::new();
    bus2.add_device(
        DEV,
        IRQ,
        Box::new(ScsiCdBurner::new(SimDuration::from_millis(100), 1_000_000)),
    );
    boot_driver(
        &mut sys2,
        DEV,
        IRQ,
        Box::new(move |ctx, ev| {
            if matches!(ev, ProcEvent::Start) {
                ctx.iommu_map(DEV, 0, 0, 4096).unwrap();
                ctx.devio_write(DEV, scsi_regs::TOTAL_CHUNKS, 8).unwrap();
                ctx.devio_write(DEV, scsi_regs::CMD, scsi_cmd::START_BURN)
                    .unwrap();
                ctx.devio_write(DEV, scsi_regs::CHUNK_SEQ, 0).unwrap();
                ctx.devio_write(DEV, scsi_regs::DMA_ADDR, 0).unwrap();
                ctx.devio_write(DEV, scsi_regs::CHUNK_LEN, 512).unwrap();
                ctx.devio_write(DEV, scsi_regs::CMD, scsi_cmd::WRITE_CHUNK)
                    .unwrap();
                // ... and then silence.
            }
        }),
    );
    sys2.run_until_idle(&mut bus2, 200);
    let cd: &mut ScsiCdBurner = bus2.device_mut(DEV).unwrap();
    assert_eq!(cd.discs_ruined(), 1);
    assert_eq!(cd.discs_completed(), 0, "status: {}", cd.discs_completed());
}

#[test]
fn scsi_out_of_order_chunk_ruins_disc() {
    let mut sys = System::new(SystemConfig::default());
    let mut bus = Bus::new();
    bus.add_device(
        DEV,
        IRQ,
        Box::new(ScsiCdBurner::new(SimDuration::from_secs(10), 1_000_000)),
    );
    boot_driver(
        &mut sys,
        DEV,
        IRQ,
        Box::new(move |ctx, ev| {
            if matches!(ev, ProcEvent::Start) {
                ctx.iommu_map(DEV, 0, 0, 4096).unwrap();
                ctx.devio_write(DEV, scsi_regs::TOTAL_CHUNKS, 4).unwrap();
                ctx.devio_write(DEV, scsi_regs::CMD, scsi_cmd::START_BURN)
                    .unwrap();
                // A restarted driver that lost track restarts at chunk 0...
                // after chunk 0 was already burned once: burn 0, then 0 again.
                ctx.devio_write(DEV, scsi_regs::CHUNK_SEQ, 0).unwrap();
                ctx.devio_write(DEV, scsi_regs::DMA_ADDR, 0).unwrap();
                ctx.devio_write(DEV, scsi_regs::CHUNK_LEN, 16).unwrap();
                ctx.devio_write(DEV, scsi_regs::CMD, scsi_cmd::WRITE_CHUNK)
                    .unwrap();
                ctx.devio_write(DEV, scsi_regs::CHUNK_SEQ, 0).unwrap();
                ctx.devio_write(DEV, scsi_regs::CMD, scsi_cmd::WRITE_CHUNK)
                    .unwrap();
                assert_eq!(
                    ctx.devio_read(DEV, scsi_regs::STATUS).unwrap(),
                    scsi_status::RUINED
                );
            }
        }),
    );
    sys.run_until_idle(&mut bus, 50);
    let cd: &mut ScsiCdBurner = bus.device_mut(DEV).unwrap();
    assert_eq!(cd.discs_ruined(), 1);
}
