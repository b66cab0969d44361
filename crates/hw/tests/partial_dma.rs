//! What a disk transfer leaves behind when its IOMMU window is smaller
//! than the request: sector `i` moves iff sectors `0..=i` all lie inside
//! the window — the longest in-window prefix of whole sectors — and then
//! the controller raises `FAIL`. A sector that would fit is still not
//! moved once an earlier one did not. Each rule is checked on a disk
//! that stores its content and on one that synthesises it.

use std::cell::RefCell;
use std::rc::Rc;

use phoenix_hw::bus::Bus;
use phoenix_hw::disk::{
    cmd as dcmd, disk_isr, regs as dregs, synth_sector, SECTOR, STORED_SECTORS,
};
use phoenix_hw::DiskDevice;
use phoenix_kernel::privileges::Privileges;
use phoenix_kernel::process::{ProcEvent, Process};
use phoenix_kernel::system::{Ctx, System, SystemConfig};
use phoenix_kernel::types::DeviceId;

const DEV: DeviceId = DeviceId(1);
const IRQ: u8 = 5;
const DISK_SEED: u64 = 7;
const LBA: u32 = 10;
const COUNT: usize = 4;
/// Disk sizes on both sides of the stored-content bound.
const DISKS: [u64; 2] = [64, STORED_SECTORS + 1];

/// Device address and length of the window; it exposes driver memory
/// from `WIN_OFFSET` on. 1,280 bytes hold two and a half sectors.
const WIN_BASE: u32 = 0x1000;
const WIN_LEN: usize = 2 * SECTOR + SECTOR / 2;
const WIN_OFFSET: usize = SECTOR;
/// Driver memory the test fills and inspects.
const MEM: usize = 8 * SECTOR;

/// Sector `i` of what the driver stages for a WRITE.
fn staged(i: usize) -> Vec<u8> {
    vec![0xA0 + i as u8; SECTOR]
}

/// `(ISR, driver memory)`, both as the driver found them at the interrupt.
type Seen = Rc<RefCell<Option<(u32, Vec<u8>)>>>;

struct Driver {
    command: u32,
    dma_addr: u32,
    seen: Seen,
}

impl Process for Driver {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        match event {
            ProcEvent::Start => {
                ctx.irq_enable(IRQ).unwrap();
                ctx.iommu_map(DEV, u64::from(WIN_BASE), WIN_OFFSET, WIN_LEN)
                    .unwrap();
                let fill = if self.command == dcmd::READ {
                    vec![0xEE; MEM]
                } else {
                    // Sector `i` of the request sits at `WIN_OFFSET + i`
                    // sectors when the transfer starts at the window base.
                    let mut m = vec![0xEE; WIN_OFFSET];
                    (0..COUNT).for_each(|i| m.extend(staged(i)));
                    m.resize(MEM, 0xEE);
                    m
                };
                ctx.mem_write(0, &fill).unwrap();
                ctx.devio_write(DEV, dregs::LBA, LBA).unwrap();
                ctx.devio_write(DEV, dregs::COUNT, COUNT as u32).unwrap();
                ctx.devio_write(DEV, dregs::DMA_ADDR, self.dma_addr)
                    .unwrap();
                ctx.devio_write(DEV, dregs::CMD, self.command).unwrap();
            }
            ProcEvent::Irq { .. } => {
                let isr = ctx.devio_read(DEV, dregs::ISR).unwrap();
                let mem = ctx.mem(0, MEM).unwrap().to_vec();
                *self.seen.borrow_mut() = Some((isr, mem));
            }
            _ => {}
        }
    }
}

/// What one transfer left: the ISR and driver memory at the interrupt,
/// then the device with its overlay and counters.
struct Outcome {
    isr: u32,
    mem: Vec<u8>,
    bus: Bus,
}

impl Outcome {
    fn disk(&mut self) -> &mut DiskDevice {
        self.bus.device_mut::<DiskDevice>(DEV).unwrap()
    }

    fn failed_once(&mut self) {
        assert_eq!(self.isr, disk_isr::FAIL, "FAIL raised, DONE not");
        assert_eq!(self.disk().ops_failed(), 1);
        assert_eq!(self.disk().ops_done(), 0);
    }
}

fn transfer(sectors: u64, command: u32, dma_addr: u32) -> Outcome {
    let mut sys = System::new(SystemConfig::default());
    let mut bus = Bus::new();
    bus.add_device(DEV, IRQ, Box::new(DiskDevice::sata(sectors, DISK_SEED)));
    let seen = Seen::default();
    sys.spawn_boot(
        "drv",
        Privileges::driver(DEV, IRQ),
        Box::new(Driver {
            command,
            dma_addr,
            seen: seen.clone(),
        }),
    );
    sys.run_until_idle(&mut bus, 100);
    let (isr, mem) = seen
        .borrow_mut()
        .take()
        .expect("the controller interrupted");
    Outcome { isr, mem, bus }
}

#[test]
fn read_moves_the_whole_sectors_that_fit_then_fails() {
    for disk in DISKS {
        let mut out = transfer(disk, dcmd::READ, WIN_BASE);
        out.failed_once();
        let mut want = vec![0xEE; MEM];
        for i in 0..2 {
            let at = WIN_OFFSET + i * SECTOR;
            let lba = u64::from(LBA) + i as u64;
            want[at..at + SECTOR].copy_from_slice(&synth_sector(DISK_SEED, lba));
        }
        // The half sector of window left after the second one stays untouched.
        assert!(
            out.mem == want,
            "exactly sectors 0 and 1 arrived ({disk} sectors)"
        );
        assert_eq!(out.disk().model().written_sectors(), 0);
    }
}

#[test]
fn write_stores_the_whole_sectors_that_fit_then_fails() {
    for disk in DISKS {
        let mut out = transfer(disk, dcmd::WRITE, WIN_BASE);
        out.failed_once();
        let lba = u64::from(LBA);
        let model = out.disk().model().clone();
        assert_eq!(model.written_sectors(), 2);
        assert_eq!(model.read(lba).unwrap(), staged(0));
        assert_eq!(model.read(lba + 1).unwrap(), staged(1));
        for i in 2..COUNT as u64 {
            assert_eq!(
                model.read(lba + i).unwrap(),
                synth_sector(DISK_SEED, lba + i),
                "sector {i} keeps its synthetic content ({disk} sectors)"
            );
        }
    }
}

/// The transfer starts half a sector below the window base: sector 0
/// straddles the base, and although sector 1 lies wholly inside the
/// window nothing moves, because the prefix rule stops at sector 0.
#[test]
fn a_first_sector_below_the_window_base_moves_nothing() {
    let below = WIN_BASE - (SECTOR / 2) as u32;
    for disk in DISKS {
        let mut read = transfer(disk, dcmd::READ, below);
        read.failed_once();
        assert!(
            read.mem == vec![0xEE; MEM],
            "driver memory untouched ({disk} sectors)"
        );

        let mut write = transfer(disk, dcmd::WRITE, below);
        write.failed_once();
        assert_eq!(write.disk().model().written_sectors(), 0);
    }
}
