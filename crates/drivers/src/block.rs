//! Block device drivers: SATA, floppy, and the RAM disk of §6.2 fn. 1.
//!
//! Block drivers are *stateless* (§6.2): every request is self-contained
//! and disk block I/O is idempotent, so after a crash the file server can
//! simply reissue pending requests to the restarted driver. The only state
//! a driver holds is the request currently at the hardware — and that one
//! dies with it, which is exactly what the abort-and-retry protocol
//! handles.

use std::cell::RefCell;
use std::rc::Rc;

use phoenix_hw::disk::{cmd, disk_isr, regs, status as hw_status, SECTOR};
use phoenix_kernel::memory::GrantId;
use phoenix_kernel::system::Ctx;
use phoenix_kernel::types::{CallId, DeviceId, Endpoint, ExceptionKind, IrqLine, Message};
use phoenix_simcore::trace::TraceLevel;

use crate::libdriver::{DriverLogic, FaultPort, GuardedRoutine};
use crate::proto::{bdev, status};
use crate::routines;

/// Largest transfer a single request may carry (256 sectors = 128 KB),
/// bounded by the driver's DMA buffer.
pub const MAX_SECTORS: u64 = 256;

const DMA_BUF: usize = 0; // offset of the DMA buffer in driver memory
const DMA_LEN: usize = (MAX_SECTORS as usize) * SECTOR;

struct Pending {
    call: CallId,
    client: Endpoint,
    grant: GrantId,
    bytes: usize,
    is_read: bool,
    /// Descriptor checksum computed by the VM routine, echoed back to the
    /// file server (sentinel protocol: reply `param[2]` = 1 + checksum).
    csum: u32,
}

/// Driver for the register-level disk controllers of `phoenix-hw`
/// (SATA and floppy share the controller ABI; the floppy additionally
/// needs its motor spun up).
pub struct DiskDriver {
    dev: DeviceId,
    irq: IrqLine,
    needs_motor: bool,
    capacity: u64,
    pending: Option<Pending>,
    routine: GuardedRoutine,
    fault_port: FaultPort,
}

impl DiskDriver {
    /// Creates a SATA disk driver.
    pub fn sata(dev: DeviceId, irq: IrqLine, fault_port: FaultPort) -> Self {
        Self::new(dev, irq, false, fault_port)
    }

    /// Creates a floppy driver.
    pub fn floppy(dev: DeviceId, irq: IrqLine, fault_port: FaultPort) -> Self {
        Self::new(dev, irq, true, fault_port)
    }

    fn new(dev: DeviceId, irq: IrqLine, needs_motor: bool, fault_port: FaultPort) -> Self {
        DiskDriver {
            dev,
            irq,
            needs_motor,
            capacity: 0,
            pending: None,
            routine: request_routine(),
            fault_port,
        }
    }
}

/// The request routine both drivers run every READ / WRITE through.
fn request_routine() -> GuardedRoutine {
    GuardedRoutine::new(&routines::with_cold_section(routines::disk_request(), 30))
}

fn reply_status(ctx: &mut Ctx<'_>, call: CallId, status: u64, count: u64) {
    let reply = bdev::Reply {
        status,
        count,
        csum_echo: 0,
    };
    let _ = ctx.reply(call, reply.into_message());
}

/// Validates the request through the (possibly mutated) VM routine.
/// Returns the transfer size in bytes and the routine's descriptor
/// checksum, or `None` if the driver died. The checksum is echoed in
/// the eventual reply (`csum_echo` = 1 + checksum; 0 = "no echo", the
/// file server's sentinel skips the check) so the sentinel can verify
/// the driver actually processed the descriptor it was sent.
fn validate(
    routine: &mut GuardedRoutine,
    ctx: &mut Ctx<'_>,
    lba: u64,
    count: u64,
    capacity: u64,
) -> Option<(usize, u32)> {
    let vm = routine.run(ctx, 64, |vm| {
        vm.regs[routines::reg::A0 as usize] = lba as u32;
        vm.regs[routines::reg::A1 as usize] = count as u32;
        vm.regs[routines::reg::A2 as usize] = capacity as u32;
        let mut desc = [0u8; 16];
        desc[0..4].copy_from_slice(&(lba as u32).to_le_bytes());
        desc[4..8].copy_from_slice(&(count as u32).to_le_bytes());
        desc[8..12].copy_from_slice(&(capacity as u32).to_le_bytes());
        vm.mem[0..16].copy_from_slice(&desc);
    })?;
    let bytes = vm.regs[routines::reg::RES as usize] as usize;
    let csum = u32::from_le_bytes(vm.mem[16..20].try_into().unwrap_or([0; 4]));
    Some((bytes, csum))
}

/// Answers a completed transfer of `bytes` with the checksum echo.
fn reply_done(ctx: &mut Ctx<'_>, call: CallId, bytes: usize, csum: u32) {
    let reply = bdev::Reply {
        status: status::OK,
        count: bytes as u64,
        csum_echo: 1 + u64::from(csum),
    };
    let _ = ctx.reply(call, reply.into_message());
}

impl DriverLogic for DiskDriver {
    fn init(&mut self, ctx: &mut Ctx<'_>) {
        self.fault_port
            .publish(ctx.self_name(), self.routine.live());
        ctx.irq_enable(self.irq)
            .expect("driver privilege grants its IRQ");
        ctx.devio_write(self.dev, regs::CMD, cmd::RESET)
            .expect("driver privilege grants its device");
        if self.needs_motor {
            ctx.devio_write(self.dev, regs::MOTOR, 1)
                .expect("motor reg");
        }
        self.capacity = u64::from(
            ctx.devio_read(self.dev, regs::CAPACITY)
                .expect("capacity reg"),
        );
        ctx.iommu_map(self.dev, 0, DMA_BUF, DMA_LEN)
            .expect("map DMA window");
        ctx.trace(
            TraceLevel::Info,
            format!("disk ready, {} sectors", self.capacity),
        );
    }

    fn request(&mut self, ctx: &mut Ctx<'_>, call: CallId, msg: &Message) {
        let (is_read, lba, count, grant) = match bdev::Msg::decode(msg) {
            Some(bdev::Msg::OPEN(_)) => return reply_status(ctx, call, status::OK, self.capacity),
            Some(bdev::Msg::READ(bdev::Read { lba, count, grant })) => (true, lba, count, grant),
            Some(bdev::Msg::WRITE(bdev::Write { lba, count, grant })) => (false, lba, count, grant),
            Some(bdev::Msg::REPLY(_)) | None => return reply_status(ctx, call, status::EINVAL, 0),
        };
        if self.pending.is_some() {
            // One request at a time (MINIX drivers are single-threaded);
            // the FS serializes, so this is defensive.
            reply_status(ctx, call, status::EAGAIN, 0);
            return;
        }
        let checked = validate(&mut self.routine, ctx, lba, count, self.capacity);
        let Some((bytes, csum)) = checked else {
            return; // driver is dying; rendezvous will abort
        };
        let client = msg.source;
        let grant = GrantId(grant as u32);
        if !is_read {
            // Fetch the payload from the client's grant into the DMA
            // buffer before programming the device.
            if ctx.safecopy_from(client, grant, 0, DMA_BUF, bytes).is_err() {
                reply_status(ctx, call, status::EINVAL, 0);
                return;
            }
        }
        let ok = ctx.devio_write(self.dev, regs::LBA, lba as u32).is_ok()
            && ctx.devio_write(self.dev, regs::COUNT, count as u32).is_ok()
            && ctx
                .devio_write(self.dev, regs::DMA_ADDR, DMA_BUF as u32)
                .is_ok()
            && ctx
                .devio_write(
                    self.dev,
                    regs::CMD,
                    if is_read { cmd::READ } else { cmd::WRITE },
                )
                .is_ok();
        if !ok {
            reply_status(ctx, call, status::EIO, 0);
            return;
        }
        // Reject if the controller refused the command outright.
        let st = ctx.devio_read(self.dev, regs::STATUS).unwrap_or(0);
        if st & hw_status::BUSY == 0 {
            reply_status(ctx, call, status::EIO, 0);
            return;
        }
        self.pending = Some(Pending {
            call,
            client,
            grant,
            bytes,
            is_read,
            csum,
        });
    }

    fn irq(&mut self, ctx: &mut Ctx<'_>) {
        let isr = ctx.devio_read(self.dev, regs::ISR).unwrap_or(0);
        let _ = ctx.devio_write(self.dev, regs::ISR, isr);
        let Some(p) = self.pending.take() else { return };
        if isr & disk_isr::DONE != 0 {
            if p.is_read {
                // Hand the data to the client through its grant.
                if ctx
                    .safecopy_to(p.client, p.grant, 0, DMA_BUF, p.bytes)
                    .is_err()
                {
                    reply_status(ctx, p.call, status::EINVAL, 0);
                    return;
                }
            }
            reply_done(ctx, p.call, p.bytes, p.csum);
        } else {
            reply_status(ctx, p.call, status::EIO, 0);
        }
    }
}

/// The trusted RAM disk driver of §6.2 footnote 1: a ~450-line driver
/// backing a memory region, used to provide policy-script storage that
/// survives disk-driver failures.
///
/// The backing region models *physical* memory handed to the driver at
/// configuration time, so its contents survive a driver restart — the
/// driver process itself remains stateless.
pub struct RamDiskDriver {
    region: Rc<RefCell<Vec<u8>>>,
    routine: GuardedRoutine,
    fault_port: FaultPort,
}

impl RamDiskDriver {
    /// Creates a RAM disk driver over a shared backing region (whole
    /// sectors).
    pub fn new(region: Rc<RefCell<Vec<u8>>>, fault_port: FaultPort) -> Self {
        assert_eq!(
            region.borrow().len() % SECTOR,
            0,
            "region must be sector-aligned"
        );
        RamDiskDriver {
            region,
            routine: request_routine(),
            fault_port,
        }
    }

    /// Allocates a fresh zeroed backing region of `sectors` sectors.
    pub fn region(sectors: u64) -> Rc<RefCell<Vec<u8>>> {
        Rc::new(RefCell::new(vec![0; sectors as usize * SECTOR]))
    }

    fn capacity(&self) -> u64 {
        (self.region.borrow().len() / SECTOR) as u64
    }
}

impl DriverLogic for RamDiskDriver {
    fn init(&mut self, ctx: &mut Ctx<'_>) {
        self.fault_port
            .publish(ctx.self_name(), self.routine.live());
        ctx.trace(
            TraceLevel::Info,
            format!("ram disk ready, {} sectors", self.capacity()),
        );
    }

    fn request(&mut self, ctx: &mut Ctx<'_>, call: CallId, msg: &Message) {
        let (is_read, lba, count, grant) = match bdev::Msg::decode(msg) {
            Some(bdev::Msg::OPEN(_)) => {
                return reply_status(ctx, call, status::OK, self.capacity());
            }
            Some(bdev::Msg::READ(bdev::Read { lba, count, grant })) => (true, lba, count, grant),
            Some(bdev::Msg::WRITE(bdev::Write { lba, count, grant })) => (false, lba, count, grant),
            Some(bdev::Msg::REPLY(_)) | None => return reply_status(ctx, call, status::EINVAL, 0),
        };
        let capacity = self.capacity();
        let checked = validate(&mut self.routine, ctx, lba, count, capacity);
        let Some((bytes, csum)) = checked else {
            return;
        };
        let grant = GrantId(grant as u32);
        // `bytes` and `lba` passed a routine that may have been mutated: a
        // span outside the region is a wild access by the driver, and
        // kills it the way the MMU would.
        let off = (lba as usize).saturating_mul(SECTOR);
        let span = off..off.saturating_add(bytes);
        if is_read {
            let staged = match self.region.borrow().get(span) {
                Some(sectors) => ctx.mem_write(0, sectors),
                None => {
                    ctx.die_of_exception(ExceptionKind::MmuFault);
                    return;
                }
            };
            if staged.is_err() || ctx.safecopy_to(msg.source, grant, 0, 0, bytes).is_err() {
                reply_status(ctx, call, status::EINVAL, 0);
                return;
            }
        } else {
            if ctx.safecopy_from(msg.source, grant, 0, 0, bytes).is_err() {
                reply_status(ctx, call, status::EINVAL, 0);
                return;
            }
            let Ok(data) = ctx.mem(0, bytes) else {
                reply_status(ctx, call, status::EIO, 0);
                return;
            };
            match self.region.borrow_mut().get_mut(span) {
                Some(sectors) => sectors.copy_from_slice(data),
                None => {
                    ctx.die_of_exception(ExceptionKind::MmuFault);
                    return;
                }
            }
        }
        reply_done(ctx, call, bytes, csum);
    }
}
