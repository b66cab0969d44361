//! Network (Ethernet) drivers: RTL8139 and DP8390.
//!
//! Network drivers are stateless (§6.1): the network server re-sends
//! [`crate::proto::eth::INIT`] after every recovery, which re-enables
//! promiscuous mode and resumes I/O, "closely mimicking the steps that are
//! taken when the driver is first started". Frames lost while the driver
//! was dead are retransmitted end-to-end by the reliable transport.
//!
//! The `eth::*` protocol, the frame checks and the fault-VM routines on
//! the rx and tx paths exist once, in [`EthDriver`]; a [`Nic`] is the
//! card half — reset, enable, launch a transmit, step the receive ring.

use phoenix_fault::vm::Vm;
use phoenix_hw::dp8390;
use phoenix_hw::rtl8139::{self, RX_RING_LEN};
use phoenix_kernel::system::Ctx;
use phoenix_kernel::types::{CallId, DeviceId, Endpoint, IrqLine, Message};
use phoenix_simcore::trace::TraceLevel;

use crate::libdriver::{DriverLogic, FaultPort, GuardedRoutine};
use crate::proto::{eth, status};
use crate::routines;

/// Maximum Ethernet frame size accepted by the drivers.
pub const MAX_FRAME: usize = 1518;

/// One frame as the card presented it, before validation.
pub struct RxFrame {
    /// The 4-byte ring header.
    hdr: [u8; 4],
    /// Frame length the header declares (the rx routine bounds-checks it).
    declared_len: usize,
    /// The payload actually read, at most [`MAX_FRAME`] bytes, in a
    /// buffer lent by the kernel ([`Ctx::lend_buf`]).
    frame: Vec<u8>,
}

/// The card half of an Ethernet driver: everything that differs between
/// the RTL8139 and the DP8390.
pub trait Nic: Default {
    /// Card name in trace and panic texts.
    const LABEL: &'static str;
    /// Interrupt status register and its frame-received bit.
    const ISR: u16;
    /// See [`Nic::ISR`].
    const ISR_RX: u32;
    /// Bound on the frames drained per interrupt: a corrupted read
    /// pointer must not turn the drain into an unbounded loop (a real
    /// driver processes at most one ring's worth per IRQ).
    const FRAMES_PER_IRQ: usize;

    /// Resets the card and lays out its rings. `false` = the card is
    /// stuck in reset (§7.2: only a BIOS-level reset can help).
    fn reset(&mut self, ctx: &mut Ctx<'_>, dev: DeviceId) -> bool;

    /// Promiscuous mode, rx/tx enabled, I/O resumed (§6.1).
    fn enable(&mut self, ctx: &mut Ctx<'_>, dev: DeviceId) -> bool;

    /// Stages `frame` and launches the transmit.
    fn transmit(&mut self, ctx: &mut Ctx<'_>, dev: DeviceId, frame: &[u8]) -> bool;

    /// The next unread frame of the receive ring; `None` = ring drained.
    fn next_frame(&mut self, ctx: &mut Ctx<'_>, dev: DeviceId) -> Option<RxFrame>;

    /// Moves the read pointer past `rx`, which the rx routine (`vm`)
    /// accepted, and tells the card.
    fn consume(&mut self, ctx: &mut Ctx<'_>, dev: DeviceId, rx: &RxFrame, vm: &Vm);
}

/// Marshals a frame (at `at` in VM memory) for the rx / tx routines:
/// `A0` = declared length, `A1` = header bytes to checksum.
fn load_frame(vm: &mut Vm, at: usize, frame: &[u8], declared_len: usize) {
    vm.mem[at..at + frame.len()].copy_from_slice(frame);
    vm.regs[routines::reg::A0 as usize] = declared_len as u32;
    vm.regs[routines::reg::A1 as usize] = frame.len().min(routines::HEADER_SUM_BYTES) as u32;
}

fn io_status(ok: bool) -> u64 {
    if ok {
        status::OK
    } else {
        status::EIO
    }
}

/// An Ethernet driver: frames flow through the fault-VM routines into
/// and out of the [`Nic`].
pub struct EthDriver<N> {
    dev: DeviceId,
    irq: IrqLine,
    client: Option<Endpoint>,
    nic: N,
    rx_routine: GuardedRoutine,
    tx_routine: GuardedRoutine,
    fault_port: FaultPort,
}

/// The RTL8139 driver.
pub type Rtl8139Driver = EthDriver<Rtl8139Card>;
/// The DP8390 driver.
pub type Dp8390Driver = EthDriver<Dp8390Card>;

impl<N: Nic> EthDriver<N> {
    /// Creates the driver for device `dev` on IRQ line `irq`.
    pub fn new(dev: DeviceId, irq: IrqLine, fault_port: FaultPort) -> Self {
        EthDriver {
            dev,
            irq,
            client: None,
            nic: N::default(),
            rx_routine: GuardedRoutine::new(&routines::with_cold_section(routines::net_rx(), 30)),
            tx_routine: GuardedRoutine::new(&routines::net_tx()),
            fault_port,
        }
    }

    /// `eth::WRITE`: the reply status, or `None` if the (possibly
    /// mutated) transmit path killed the driver.
    fn write(&mut self, ctx: &mut Ctx<'_>, frame: &[u8]) -> Option<u64> {
        if frame.is_empty() || frame.len() > MAX_FRAME {
            return Some(status::EINVAL);
        }
        self.tx_routine.run(ctx, MAX_FRAME + 16, |vm| {
            load_frame(vm, 0, frame, frame.len());
        })?;
        Some(io_status(self.nic.transmit(ctx, self.dev, frame)))
    }

    fn drain_ring(&mut self, ctx: &mut Ctx<'_>) {
        for _ in 0..N::FRAMES_PER_IRQ {
            let Some(rx) = self.nic.next_frame(ctx, self.dev) else {
                return;
            };
            // Validate the header and checksum the payload on the
            // (possibly mutated) receive path.
            let vm = self.rx_routine.run(ctx, 4 + MAX_FRAME + 16, |vm| {
                vm.mem[0..4].copy_from_slice(&rx.hdr);
                load_frame(vm, 4, &rx.frame, rx.declared_len);
            });
            let Some(vm) = vm else {
                ctx.return_buf(rx.frame);
                return; // driver dying
            };
            self.nic.consume(ctx, self.dev, &rx, vm);
            match self.client {
                Some(client) => {
                    let _ = ctx.send(client, Message::new(eth::RECV).with_data(rx.frame));
                }
                None => ctx.return_buf(rx.frame),
            }
        }
    }
}

impl<N: Nic> DriverLogic for EthDriver<N> {
    fn init(&mut self, ctx: &mut Ctx<'_>) {
        self.fault_port
            .publish(ctx.self_name(), self.rx_routine.live());
        ctx.irq_enable(self.irq)
            .expect("driver privilege grants its IRQ");
        if !self.nic.reset(ctx, self.dev) {
            // §7.2: the card is confused and cannot be reinitialized by a
            // restarted driver — only a BIOS-level reset can help.
            ctx.panic(&format!(
                "{}: card stuck in reset, reinitialization failed",
                N::LABEL
            ));
            return;
        }
        ctx.trace(TraceLevel::Info, format!("{} reset complete", N::LABEL));
    }

    fn request(&mut self, ctx: &mut Ctx<'_>, call: CallId, msg: &Message) {
        let reply = match eth::Msg::decode(msg) {
            Some(eth::Msg::INIT) => {
                // (Re)initialization on behalf of the network server.
                self.client = Some(msg.source);
                let status = io_status(self.nic.enable(ctx, self.dev));
                eth::InitReply { status }.into_message()
            }
            Some(eth::Msg::WRITE) => match self.write(ctx, &msg.data) {
                Some(status) => eth::WriteReply { status }.into_message(),
                None => return, // dying
            },
            Some(eth::Msg::INIT_REPLY(_) | eth::Msg::WRITE_REPLY(_) | eth::Msg::RECV) | None => {
                let status = status::EINVAL;
                eth::WriteReply { status }.into_message()
            }
        };
        let _ = ctx.reply(call, reply);
    }

    fn irq(&mut self, ctx: &mut Ctx<'_>) {
        let isr = ctx.devio_read(self.dev, N::ISR).unwrap_or(0);
        let _ = ctx.devio_write(self.dev, N::ISR, isr);
        if isr & N::ISR_RX != 0 {
            self.drain_ring(ctx);
        }
    }
}

/// RTL8139: DMA rx ring in driver memory, DMA tx slots.
#[derive(Debug, Default)]
pub struct Rtl8139Card {
    capr: usize,
}

const TX_STAGE: usize = RX_RING_LEN; // tx staging right after the rx ring
const TX_STAGE_LEN: usize = 2048;

impl Rtl8139Card {
    /// Fills `out` with the ring bytes at `off`.
    fn ring_read(ctx: &mut Ctx<'_>, off: usize, out: &mut [u8]) {
        // The ring lives in our own memory; reads may wrap.
        let off = off % RX_RING_LEN;
        let len = out.len();
        if off + len <= RX_RING_LEN {
            out.copy_from_slice(ctx.mem(off, len).expect("ring in own space"));
        } else {
            let (head, tail) = out.split_at_mut(RX_RING_LEN - off);
            head.copy_from_slice(ctx.mem(off, head.len()).expect("ring head"));
            tail.copy_from_slice(ctx.mem(0, tail.len()).expect("ring tail"));
        }
    }
}

impl Nic for Rtl8139Card {
    const LABEL: &'static str = "rtl8139";
    const ISR: u16 = rtl8139::regs::ISR;
    const ISR_RX: u32 = rtl8139::isr::ROK;
    const FRAMES_PER_IRQ: usize = 64;

    fn reset(&mut self, ctx: &mut Ctx<'_>, dev: DeviceId) -> bool {
        use rtl8139::{cr, regs};
        ctx.devio_write(dev, regs::CR, cr::RST).expect("reset");
        let st = ctx.devio_read(dev, regs::CR).expect("read CR");
        if st & cr::RST != 0 {
            return false;
        }
        ctx.iommu_map(dev, 0, 0, RX_RING_LEN + TX_STAGE_LEN)
            .expect("map rx ring + tx staging");
        ctx.devio_write(dev, regs::RBSTART, 0).expect("rbstart");
        ctx.devio_write(dev, regs::IMR, 0xFFFF).expect("imr");
        self.capr = 0;
        true
    }

    fn enable(&mut self, ctx: &mut Ctx<'_>, dev: DeviceId) -> bool {
        use rtl8139::{cr, rcr, regs};
        ctx.devio_write(dev, regs::RCR, rcr::AAP).is_ok()
            && ctx.devio_write(dev, regs::CR, cr::RE | cr::TE).is_ok()
    }

    fn transmit(&mut self, ctx: &mut Ctx<'_>, dev: DeviceId, frame: &[u8]) -> bool {
        use rtl8139::regs;
        // Stage the frame and launch tx slot 0.
        ctx.mem_write(TX_STAGE, frame).is_ok()
            && ctx.devio_write(dev, regs::TSAD0, TX_STAGE as u32).is_ok()
            && ctx.devio_write(dev, regs::TSD0, frame.len() as u32).is_ok()
    }

    fn next_frame(&mut self, ctx: &mut Ctx<'_>, dev: DeviceId) -> Option<RxFrame> {
        let cbr = ctx.devio_read(dev, rtl8139::regs::CBR).ok()? as usize;
        if cbr == self.capr {
            return None;
        }
        let mut hdr = [0; 4];
        Self::ring_read(ctx, self.capr, &mut hdr);
        let declared_len = usize::from(u16::from_le_bytes([hdr[2], hdr[3]]));
        // The frame travels on to INET in the buffer it is read into.
        let mut frame = ctx.lend_buf();
        frame.resize(declared_len.min(MAX_FRAME), 0);
        Self::ring_read(ctx, self.capr + 4, &mut frame);
        Some(RxFrame {
            hdr,
            declared_len,
            frame,
        })
    }

    fn consume(&mut self, ctx: &mut Ctx<'_>, dev: DeviceId, rx: &RxFrame, _vm: &Vm) {
        self.capr = (self.capr + 4 + rx.declared_len) % RX_RING_LEN;
        let _ = ctx.devio_write(dev, rtl8139::regs::CAPR, self.capr as u32);
    }
}

/// DP8390: card-local packet memory, remote DMA data port, page-based rx
/// ring — a genuinely different code path from the RTL8139.
#[derive(Debug, Default)]
pub struct Dp8390Card {
    /// Last ring page consumed; `reset` points it at the ring start.
    bnry: u8,
}

// Ring layout inside the card's 16 KB: tx pages 0..16, rx ring 16..64.
const TX_PAGE: u8 = 0;
const PSTART: u8 = 16;
const PSTOP: u8 = 64;

impl Dp8390Card {
    /// Programs a remote-DMA transfer of `len` bytes at card address
    /// `addr`; `cmd` is the direction.
    fn remote_dma(ctx: &mut Ctx<'_>, dev: DeviceId, addr: u16, len: usize, cmd: u32) {
        use dp8390::{cr, regs};
        let _ = ctx.devio_write(dev, regs::RSAR0, u32::from(addr & 0xFF));
        let _ = ctx.devio_write(dev, regs::RSAR1, u32::from(addr >> 8));
        let _ = ctx.devio_write(dev, regs::RBCR0, (len & 0xFF) as u32);
        let _ = ctx.devio_write(dev, regs::RBCR1, (len >> 8) as u32);
        let _ = ctx.devio_write(dev, regs::CR, cr::STA | cmd);
    }

    /// Fills `out` with the card bytes at `addr`.
    fn remote_read(ctx: &mut Ctx<'_>, dev: DeviceId, addr: u16, out: &mut [u8]) {
        Self::remote_dma(ctx, dev, addr, out.len(), dp8390::cr::RD_READ);
        let _ = ctx.devio_read_block(dev, dp8390::regs::DATA, out);
    }
}

impl Nic for Dp8390Card {
    const LABEL: &'static str = "dp8390";
    const ISR: u16 = dp8390::regs::ISR;
    const ISR_RX: u32 = dp8390::isr::PRX;
    // With a corrupted BNRY (a mutated driver programming garbage into
    // the chip) the ring never converges.
    const FRAMES_PER_IRQ: usize = (PSTOP - PSTART) as usize;

    fn reset(&mut self, ctx: &mut Ctx<'_>, dev: DeviceId) -> bool {
        use dp8390::{cr, regs};
        ctx.devio_write(dev, regs::CR, cr::RST).expect("reset");
        let st = ctx.devio_read(dev, regs::CR).expect("read CR");
        if st & cr::RST != 0 {
            return false;
        }
        for (reg, page, what) in [
            (regs::PSTART, PSTART, "pstart"),
            (regs::PSTOP, PSTOP, "pstop"),
            (regs::BNRY, PSTART, "bnry"),
            (regs::CURR, PSTART, "curr"),
            (regs::TPSR, TX_PAGE, "tpsr"),
        ] {
            ctx.devio_write(dev, reg, u32::from(page)).expect(what);
        }
        ctx.devio_write(dev, regs::IMR, 0xFF).expect("imr");
        self.bnry = PSTART;
        true
    }

    fn enable(&mut self, ctx: &mut Ctx<'_>, dev: DeviceId) -> bool {
        use dp8390::{cr, rcr, regs};
        ctx.devio_write(dev, regs::RCR, rcr::PRO).is_ok()
            && ctx.devio_write(dev, regs::CR, cr::STA).is_ok()
    }

    fn transmit(&mut self, ctx: &mut Ctx<'_>, dev: DeviceId, frame: &[u8]) -> bool {
        use dp8390::{cr, regs};
        // Remote-DMA the frame into the tx pages, then launch.
        let tx_addr = u16::from(TX_PAGE) * 256;
        Self::remote_dma(ctx, dev, tx_addr, frame.len(), cr::RD_WRITE);
        let _ = ctx.devio_write_block(dev, regs::DATA, frame);
        let _ = ctx.devio_write(dev, regs::TBCR0, (frame.len() & 0xFF) as u32);
        let _ = ctx.devio_write(dev, regs::TBCR1, (frame.len() >> 8) as u32);
        ctx.devio_write(dev, regs::CR, cr::STA | cr::TXP).is_ok()
    }

    fn next_frame(&mut self, ctx: &mut Ctx<'_>, dev: DeviceId) -> Option<RxFrame> {
        let curr = ctx.devio_read(dev, dp8390::regs::CURR).ok()? as u8;
        if curr == self.bnry {
            return None;
        }
        let mut hdr = [0; 4];
        Self::remote_read(ctx, dev, u16::from(self.bnry) * 256, &mut hdr);
        let total = usize::from(u16::from_le_bytes([hdr[2], hdr[3]]));
        let declared_len = total.saturating_sub(4).min(MAX_FRAME);
        // The frame travels on to INET in the buffer it is read into. The
        // payload may wrap at PSTOP; read in up to two pieces.
        let mut frame = ctx.lend_buf();
        frame.resize(declared_len, 0);
        let payload_start = u16::from(self.bnry) * 256 + 4;
        let end_of_ring = u16::from(PSTOP) * 256;
        if payload_start + declared_len as u16 <= end_of_ring {
            Self::remote_read(ctx, dev, payload_start, &mut frame);
        } else {
            let (first, rest) = frame.split_at_mut(usize::from(end_of_ring - payload_start));
            Self::remote_read(ctx, dev, payload_start, first);
            Self::remote_read(ctx, dev, u16::from(PSTART) * 256, rest);
        }
        Some(RxFrame {
            hdr,
            declared_len,
            frame,
        })
    }

    fn consume(&mut self, ctx: &mut Ctx<'_>, dev: DeviceId, _rx: &RxFrame, vm: &Vm) {
        // The routine computed the next ring page (A2); program it into
        // BNRY. For pristine code that is the header's next-page byte; a
        // mutated routine may diverge, and the bogus value goes to the
        // chip — exactly how a faulty driver confuses the card (§7.2).
        self.bnry = vm.regs[routines::reg::A2 as usize] as u8;
        let _ = ctx.devio_write(dev, dp8390::regs::BNRY, u32::from(self.bnry));
    }
}
