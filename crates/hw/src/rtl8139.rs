//! Register-level model of a RealTek RTL8139 Ethernet controller — the NIC
//! the paper's Fig. 7 experiment kills a driver for, every 1–15 seconds.
//!
//! The model covers what the driver and the recovery experiments exercise:
//! software reset, rx/tx enable, promiscuous mode, a DMA rx ring in driver
//! memory, four DMA tx slots, and an interrupt status/mask pair. It also
//! models the §7.2 pathology: a faulty driver scribbling on reserved
//! registers can *wedge* the card so that a software reset no longer works
//! and only an out-of-band [`crate::bus::Device::hard_reset`] (a "low-level
//! BIOS reset") revives it.

use std::any::Any;

use phoenix_simcore::time::SimDuration;

use crate::bus::{DevCtx, Device, LINE_RATE};

/// Register map (offsets into the device's register window).
pub mod regs {
    /// Device / vendor id; reads `0x8139`.
    pub const IDR: u16 = 0x00;
    /// Command register.
    pub const CR: u16 = 0x37;
    /// Receive configuration register.
    pub const RCR: u16 = 0x44;
    /// Rx ring DMA base address (device-side address in the IOMMU window).
    pub const RBSTART: u16 = 0x30;
    /// Interrupt mask register.
    pub const IMR: u16 = 0x3C;
    /// Interrupt status register (write bits to acknowledge).
    pub const ISR: u16 = 0x3E;
    /// Rx read pointer (driver-owned).
    pub const CAPR: u16 = 0x38;
    /// Rx write pointer (device-owned, read-only).
    pub const CBR: u16 = 0x3A;
    /// Tx start address descriptors 0..4 (stride 4).
    pub const TSAD0: u16 = 0x20;
    /// Tx status/descriptor 0..4 (stride 4): write `len` to launch.
    pub const TSD0: u16 = 0x10;
}

/// Command register bits.
pub mod cr {
    /// Software reset.
    pub const RST: u32 = 0x10;
    /// Receiver enable.
    pub const RE: u32 = 0x08;
    /// Transmitter enable.
    pub const TE: u32 = 0x04;
}

/// Receive configuration bits.
pub mod rcr {
    /// Accept all packets (promiscuous mode).
    pub const AAP: u32 = 0x01;
}

/// Interrupt status bits.
pub mod isr {
    /// Receive OK.
    pub const ROK: u32 = 0x01;
    /// Receive error / ring overflow.
    pub const RER: u32 = 0x02;
    /// Transmit OK.
    pub const TOK: u32 = 0x04;
    /// Transmit error (DMA fault).
    pub const TER: u32 = 0x08;
}

/// Size of the rx ring the device expects at `RBSTART`.
pub const RX_RING_LEN: usize = 64 * 1024;

/// Per-packet header the device writes ahead of each received frame:
/// status (2 bytes, bit 0 = OK) then length (2 bytes).
pub const RX_HEADER_LEN: usize = 4;

/// Tunable model parameters.
#[derive(Debug, Clone, Default)]
pub struct Rtl8139Config {
    /// Probability that a write to a reserved register wedges the card
    /// (models the "card confused by the faulty driver" tail of §7.2).
    pub wedge_prob: f64,
}

/// The RTL8139 device model.
#[derive(Debug)]
pub struct Rtl8139 {
    cfg: Rtl8139Config,
    // Programmed state.
    cmd: u32,
    rcr: u32,
    rbstart: u32,
    imr: u32,
    isr: u32,
    capr: u32,
    cbr: u32,
    tsad: [u32; 4],
    ready: bool,
    wedged: bool,
    /// The ring header and frame `frame_in` is writing, kept so a frame
    /// costs no allocation once the buffer has grown.
    pkt: Vec<u8>,
    // Statistics (observable by tests and the harness).
    rx_ok: u64,
    rx_dropped: u64,
    tx_ok: u64,
    tx_err: u64,
}

impl Rtl8139 {
    /// Creates a powered-on but unconfigured card.
    pub fn new(cfg: Rtl8139Config) -> Self {
        Rtl8139 {
            cfg,
            cmd: 0,
            rcr: 0,
            rbstart: 0,
            imr: 0,
            isr: 0,
            capr: 0,
            cbr: 0,
            tsad: [0; 4],
            ready: false,
            wedged: false,
            pkt: Vec::new(),
            rx_ok: 0,
            rx_dropped: 0,
            tx_ok: 0,
            tx_err: 0,
        }
    }

    /// Whether the card is wedged (software reset no longer works).
    pub fn is_wedged(&self) -> bool {
        self.wedged
    }

    /// Forces the card into the wedged state (test hook).
    pub fn force_wedge(&mut self) {
        self.wedged = true;
        self.ready = false;
    }

    /// Frames received into the ring since power-on.
    pub fn rx_ok(&self) -> u64 {
        self.rx_ok
    }

    /// Frames dropped (rx disabled, ring overflow, card wedged/crashing
    /// driver window).
    pub fn rx_dropped(&self) -> u64 {
        self.rx_dropped
    }

    /// Frames transmitted.
    pub fn tx_ok(&self) -> u64 {
        self.tx_ok
    }

    /// Transmit attempts that faulted on DMA.
    pub fn tx_err(&self) -> u64 {
        self.tx_err
    }

    fn soft_reset(&mut self) {
        self.cmd = 0;
        self.rcr = 0;
        self.rbstart = 0;
        self.imr = 0;
        self.isr = 0;
        self.capr = 0;
        self.cbr = 0;
        self.tsad = [0; 4];
        self.ready = true;
    }

    fn rx_enabled(&self) -> bool {
        self.ready && !self.wedged && (self.cmd & cr::RE) != 0
    }

    fn irq_if_unmasked(&mut self, ctx: &mut DevCtx<'_, '_>, bits: u32) {
        self.isr |= bits;
        if self.isr & self.imr != 0 {
            ctx.raise_irq();
        }
    }

    fn ring_space(&self) -> usize {
        // Free bytes between the device write pointer and the driver read
        // pointer, modulo the ring.
        let used = (self.cbr.wrapping_sub(self.capr)) as usize % RX_RING_LEN;
        RX_RING_LEN - used - 1
    }
}

impl Device for Rtl8139 {
    fn name(&self) -> &str {
        "rtl8139"
    }

    fn read(&mut self, _ctx: &mut DevCtx<'_, '_>, reg: u16) -> u32 {
        match reg {
            regs::IDR => 0x8139,
            regs::CR => {
                let mut v = self.cmd;
                if self.wedged || !self.ready {
                    // Reset bit reads as stuck while the card is not ready.
                    v |= cr::RST;
                }
                v
            }
            regs::RCR => self.rcr,
            regs::RBSTART => self.rbstart,
            regs::IMR => self.imr,
            regs::ISR => self.isr,
            regs::CAPR => self.capr,
            regs::CBR => self.cbr,
            r if (regs::TSD0..regs::TSD0 + 16).contains(&r)
                && (r - regs::TSD0).is_multiple_of(4) =>
            {
                // Transmit slots always report "own" (free) in this model.
                0x2000
            }
            r if (regs::TSAD0..regs::TSAD0 + 16).contains(&r)
                && (r - regs::TSAD0).is_multiple_of(4) =>
            {
                self.tsad[usize::from((r - regs::TSAD0) / 4)]
            }
            _ => 0,
        }
    }

    fn write(&mut self, ctx: &mut DevCtx<'_, '_>, reg: u16, value: u32) {
        match reg {
            regs::CR => {
                if value & cr::RST != 0 {
                    if self.wedged {
                        // §7.2: a wedged card ignores software resets.
                        return;
                    }
                    self.soft_reset();
                } else {
                    self.cmd = value & (cr::RE | cr::TE);
                }
            }
            regs::RCR => self.rcr = value,
            regs::RBSTART => self.rbstart = value,
            regs::IMR => self.imr = value,
            regs::ISR => self.isr &= !value, // write-1-to-clear
            regs::CAPR => self.capr = value % RX_RING_LEN as u32,
            r if (regs::TSAD0..regs::TSAD0 + 16).contains(&r)
                && (r - regs::TSAD0).is_multiple_of(4) =>
            {
                self.tsad[usize::from((r - regs::TSAD0) / 4)] = value;
            }
            r if (regs::TSD0..regs::TSD0 + 16).contains(&r)
                && (r - regs::TSD0).is_multiple_of(4) =>
            {
                // Launch transmission of `value & 0x1FFF` bytes from TSADn.
                if !self.ready || self.wedged || (self.cmd & cr::TE) == 0 {
                    self.tx_err += 1;
                    self.irq_if_unmasked(ctx, isr::TER);
                    return;
                }
                let slot = usize::from((r - regs::TSD0) / 4);
                let len = (value & 0x1FFF) as usize;
                let mut frame = ctx.lend_buf();
                frame.resize(len, 0);
                match ctx.dma_read(u64::from(self.tsad[slot]), &mut frame) {
                    Ok(()) => {
                        self.tx_ok += 1;
                        let delay = SimDuration::for_transfer(len as u64, LINE_RATE);
                        // Serialize onto the wire, then report TOK.
                        ctx.tx_frame(frame);
                        ctx.set_timer_after(delay, u64::from(slot as u32));
                    }
                    Err(_) => {
                        // DMA fault: the driver programmed a bad address or
                        // died; the IOMMU contained the damage.
                        ctx.return_buf(frame);
                        self.tx_err += 1;
                        self.irq_if_unmasked(ctx, isr::TER);
                    }
                }
            }
            _ => {
                // Reserved register: a buggy driver poking here may wedge
                // the card.
                if self.cfg.wedge_prob > 0.0 {
                    let p = self.cfg.wedge_prob;
                    if ctx.rng().chance(p) {
                        self.wedged = true;
                        self.ready = false;
                    }
                }
            }
        }
    }

    fn timer(&mut self, ctx: &mut DevCtx<'_, '_>, _token: u64) {
        // Tx serialization finished.
        self.irq_if_unmasked(ctx, isr::TOK);
    }

    fn frame_in(&mut self, ctx: &mut DevCtx<'_, '_>, frame: &[u8]) {
        if !self.rx_enabled() {
            self.rx_dropped += 1;
            return;
        }
        // Non-promiscuous filtering would check the MAC here; the paper's
        // recovery procedure re-enables promiscuous mode after restart, so
        // we model AAP as "receive everything" and !AAP as "receive
        // nothing addressed elsewhere" — INET always runs promiscuous.
        if self.rcr & rcr::AAP == 0 {
            self.rx_dropped += 1;
            return;
        }
        let need = RX_HEADER_LEN + frame.len();
        if self.ring_space() < need {
            self.rx_dropped += 1;
            self.irq_if_unmasked(ctx, isr::RER);
            return;
        }
        // Compose header + frame and DMA it into the ring (wrapping).
        let pkt = &mut self.pkt;
        pkt.clear();
        pkt.extend_from_slice(&1u16.to_le_bytes()); // status: OK
        pkt.extend_from_slice(&(frame.len() as u16).to_le_bytes());
        pkt.extend_from_slice(frame);
        let base = u64::from(self.rbstart);
        let mut off = self.cbr as usize;
        let mut ok = true;
        for chunk in pkt.chunks(RX_RING_LEN - off % RX_RING_LEN) {
            if ctx
                .dma_write(base + (off % RX_RING_LEN) as u64, chunk)
                .is_err()
            {
                ok = false;
                break;
            }
            off += chunk.len();
        }
        if ok {
            self.cbr = (off % RX_RING_LEN) as u32;
            self.rx_ok += 1;
            self.irq_if_unmasked(ctx, isr::ROK);
        } else {
            // Driver dead: its IOMMU window is gone; frame lost.
            self.rx_dropped += 1;
        }
    }

    fn hard_reset(&mut self) {
        self.wedged = false;
        self.soft_reset();
        self.ready = false; // still needs a driver-issued software reset
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}
