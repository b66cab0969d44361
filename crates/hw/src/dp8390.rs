//! Register-level model of a National Semiconductor DP8390 (NE2000-class)
//! Ethernet controller — the fault-injection target of the paper's §7.2
//! campaign (12,500+ mutations injected into its driver).
//!
//! Architecturally unlike the RTL8139: the DP8390 has *card-local* packet
//! memory (16 KB) accessed through a remote-DMA data port, an rx ring made
//! of 256-byte pages between `PSTART` and `PSTOP`, and a transmit page the
//! driver fills before setting `TXP`. This forces its driver onto a
//! genuinely different code path, which is what makes the fault-injection
//! campaign meaningful.

use std::any::Any;

use phoenix_simcore::time::SimDuration;

use crate::bus::{DevCtx, Device, LINE_RATE};

/// Card-local packet memory size.
pub const CARD_MEM: usize = 16 * 1024;
/// Ring page size.
pub const PAGE: usize = 256;

/// Register map.
pub mod regs {
    /// Command register.
    pub const CR: u16 = 0x00;
    /// Rx ring start page.
    pub const PSTART: u16 = 0x01;
    /// Rx ring stop page (exclusive).
    pub const PSTOP: u16 = 0x02;
    /// Boundary: last page the driver has consumed.
    pub const BNRY: u16 = 0x03;
    /// Transmit page start.
    pub const TPSR: u16 = 0x04;
    /// Tx byte count, low byte.
    pub const TBCR0: u16 = 0x05;
    /// Tx byte count, high byte.
    pub const TBCR1: u16 = 0x06;
    /// Interrupt status (write-1-to-clear).
    pub const ISR: u16 = 0x07;
    /// Remote start address, low byte.
    pub const RSAR0: u16 = 0x08;
    /// Remote start address, high byte.
    pub const RSAR1: u16 = 0x09;
    /// Remote byte count, low byte.
    pub const RBCR0: u16 = 0x0A;
    /// Remote byte count, high byte.
    pub const RBCR1: u16 = 0x0B;
    /// Receive configuration register.
    pub const RCR: u16 = 0x0C;
    /// Current rx page (device write pointer).
    pub const CURR: u16 = 0x0D;
    /// Interrupt mask register.
    pub const IMR: u16 = 0x0F;
    /// Remote DMA data port.
    pub const DATA: u16 = 0x10;
}

/// Command register bits.
pub mod cr {
    /// Stop the NIC.
    pub const STP: u32 = 0x01;
    /// Start the NIC.
    pub const STA: u32 = 0x02;
    /// Transmit the packet at `TPSR`.
    pub const TXP: u32 = 0x04;
    /// Arm remote DMA read (card -> host).
    pub const RD_READ: u32 = 0x08;
    /// Arm remote DMA write (host -> card).
    pub const RD_WRITE: u32 = 0x10;
    /// Software reset (model extension; real NE2000 uses a reset port).
    pub const RST: u32 = 0x80;
}

/// Interrupt status bits.
pub mod isr {
    /// Packet received.
    pub const PRX: u32 = 0x01;
    /// Packet transmitted.
    pub const PTX: u32 = 0x02;
    /// Receive error.
    pub const RXE: u32 = 0x04;
    /// Transmit error.
    pub const TXE: u32 = 0x08;
    /// Rx ring overwrite warning (ring full).
    pub const OVW: u32 = 0x10;
    /// Remote DMA complete.
    pub const RDC: u32 = 0x40;
}

/// Receive configuration bits.
pub mod rcr {
    /// Promiscuous mode.
    pub const PRO: u32 = 0x10;
}

/// Tunable model parameters.
#[derive(Debug, Clone, Default)]
pub struct Dp8390Config {
    /// Probability that a reserved-register write wedges the card.
    pub wedge_prob: f64,
}

/// The DP8390 device model.
#[derive(Debug)]
pub struct Dp8390 {
    cfg: Dp8390Config,
    mem: Vec<u8>,
    cr: u32,
    pstart: u8,
    pstop: u8,
    bnry: u8,
    tpsr: u8,
    tbcr: u16,
    isr: u32,
    imr: u32,
    rsar: u16,
    rbcr: u16,
    rcr: u32,
    curr: u8,
    started: bool,
    wedged: bool,
    rx_ok: u64,
    rx_dropped: u64,
    tx_ok: u64,
    tx_err: u64,
}

impl Dp8390 {
    /// Creates a powered-on but unconfigured card.
    pub fn new(cfg: Dp8390Config) -> Self {
        Dp8390 {
            cfg,
            mem: vec![0; CARD_MEM],
            cr: cr::STP,
            pstart: 0,
            pstop: 0,
            bnry: 0,
            tpsr: 0,
            tbcr: 0,
            isr: 0,
            imr: 0,
            rsar: 0,
            rbcr: 0,
            rcr: 0,
            curr: 0,
            started: false,
            wedged: false,
            rx_ok: 0,
            rx_dropped: 0,
            tx_ok: 0,
            tx_err: 0,
        }
    }

    /// Whether the card is wedged.
    pub fn is_wedged(&self) -> bool {
        self.wedged
    }

    /// Forces the wedged state (test hook).
    pub fn force_wedge(&mut self) {
        self.wedged = true;
        self.started = false;
    }

    /// Frames received into the ring.
    pub fn rx_ok(&self) -> u64 {
        self.rx_ok
    }

    /// Frames dropped.
    pub fn rx_dropped(&self) -> u64 {
        self.rx_dropped
    }

    /// Frames transmitted.
    pub fn tx_ok(&self) -> u64 {
        self.tx_ok
    }

    /// Failed transmit attempts.
    pub fn tx_err(&self) -> u64 {
        self.tx_err
    }

    fn soft_reset(&mut self) {
        self.cr = cr::STP;
        self.isr = 0;
        self.imr = 0;
        self.rsar = 0;
        self.rbcr = 0;
        self.tbcr = 0;
        self.started = false;
    }

    fn irq_if_unmasked(&mut self, ctx: &mut DevCtx<'_, '_>, bits: u32) {
        self.isr |= bits;
        if self.isr & self.imr != 0 {
            ctx.raise_irq();
        }
    }

    fn ring_pages(&self) -> u8 {
        self.pstop.saturating_sub(self.pstart)
    }

    fn next_page(&self, p: u8) -> u8 {
        let n = p + 1;
        if n >= self.pstop {
            self.pstart
        } else {
            n
        }
    }

    /// Copies `bytes` into the ring at card address `dst`, wrapping at
    /// PSTOP; returns the address after them.
    fn ring_write(&mut self, mut dst: usize, bytes: &[u8]) -> usize {
        let stop = usize::from(self.pstop) * PAGE;
        let mut written = 0;
        while written < bytes.len() {
            if dst >= stop {
                dst = usize::from(self.pstart) * PAGE;
            }
            let room = (stop - dst).min(bytes.len() - written);
            self.mem[dst..dst + room].copy_from_slice(&bytes[written..written + room]);
            written += room;
            dst += room;
        }
        dst
    }

    fn pages_free(&self) -> u8 {
        // Pages between CURR (write) and BNRY (read), leaving one page gap.
        // A BNRY outside the ring (a confused driver programmed garbage)
        // is effectively masked by the chip's page counter wrap; treat it
        // as PSTART, as real DP8390s effectively do.
        let total = self.ring_pages();
        if total == 0 {
            return 0;
        }
        let bnry = if self.bnry >= self.pstart && self.bnry < self.pstop {
            self.bnry
        } else {
            self.pstart
        };
        let used = (self.curr.wrapping_add(total).wrapping_sub(bnry)) % total;
        total - used - 1
    }
}

impl Device for Dp8390 {
    fn name(&self) -> &str {
        "dp8390"
    }

    fn read(&mut self, ctx: &mut DevCtx<'_, '_>, reg: u16) -> u32 {
        match reg {
            regs::CR => {
                let mut v = self.cr;
                if self.wedged {
                    v |= cr::RST; // stuck in reset
                }
                v
            }
            regs::PSTART => u32::from(self.pstart),
            regs::PSTOP => u32::from(self.pstop),
            regs::BNRY => u32::from(self.bnry),
            regs::TPSR => u32::from(self.tpsr),
            regs::ISR => self.isr,
            regs::RCR => self.rcr,
            regs::CURR => u32::from(self.curr),
            regs::IMR => self.imr,
            regs::DATA => {
                // Single-byte remote DMA read.
                let mut b = [0];
                self.read_block(ctx, regs::DATA, &mut b);
                u32::from(b[0])
            }
            _ => 0,
        }
    }

    fn write(&mut self, ctx: &mut DevCtx<'_, '_>, reg: u16, value: u32) {
        match reg {
            regs::CR => {
                if value & cr::RST != 0 {
                    if self.wedged {
                        return; // §7.2: wedged card ignores resets
                    }
                    self.soft_reset();
                    return;
                }
                self.cr = value & (cr::STP | cr::STA | cr::RD_READ | cr::RD_WRITE);
                self.started = value & cr::STA != 0 && value & cr::STP == 0 && !self.wedged;
                if value & cr::TXP != 0 {
                    // Transmit from TPSR, TBCR bytes.
                    if !self.started {
                        self.tx_err += 1;
                        self.irq_if_unmasked(ctx, isr::TXE);
                        return;
                    }
                    let start = usize::from(self.tpsr) * PAGE;
                    let len = usize::from(self.tbcr);
                    if len == 0 || start + len > CARD_MEM {
                        self.tx_err += 1;
                        self.irq_if_unmasked(ctx, isr::TXE);
                        return;
                    }
                    let mut frame = ctx.lend_buf();
                    frame.extend_from_slice(&self.mem[start..start + len]);
                    self.tx_ok += 1;
                    let delay = SimDuration::for_transfer(len as u64, LINE_RATE);
                    ctx.tx_frame(frame);
                    ctx.set_timer_after(delay, 0);
                }
            }
            regs::PSTART => self.pstart = value as u8,
            regs::PSTOP => self.pstop = value as u8,
            regs::BNRY => {
                let v = value as u8;
                let in_ring = self.pstop > self.pstart && v >= self.pstart && v < self.pstop;
                if self.started && !in_ring {
                    // Programming a ring pointer outside the ring is the
                    // kind of faulty-driver behavior that can leave the
                    // chip "confused... and could not be reinitialized by
                    // the restarted driver" (§7.2).
                    if self.cfg.wedge_prob > 0.0 {
                        let p = self.cfg.wedge_prob;
                        if ctx.rng().chance(p) {
                            self.wedged = true;
                            self.started = false;
                        }
                    }
                }
                self.bnry = v;
            }
            regs::TPSR => self.tpsr = value as u8,
            regs::TBCR0 => self.tbcr = (self.tbcr & 0xFF00) | (value as u16 & 0xFF),
            regs::TBCR1 => self.tbcr = (self.tbcr & 0x00FF) | ((value as u16 & 0xFF) << 8),
            regs::ISR => self.isr &= !value,
            regs::RSAR0 => self.rsar = (self.rsar & 0xFF00) | (value as u16 & 0xFF),
            regs::RSAR1 => self.rsar = (self.rsar & 0x00FF) | ((value as u16 & 0xFF) << 8),
            regs::RBCR0 => self.rbcr = (self.rbcr & 0xFF00) | (value as u16 & 0xFF),
            regs::RBCR1 => self.rbcr = (self.rbcr & 0x00FF) | ((value as u16 & 0xFF) << 8),
            regs::RCR => self.rcr = value,
            regs::CURR => self.curr = value as u8,
            regs::IMR => self.imr = value,
            regs::DATA => {
                self.write_block(ctx, regs::DATA, &[value as u8]);
            }
            _ => {
                if self.cfg.wedge_prob > 0.0 {
                    let p = self.cfg.wedge_prob;
                    if ctx.rng().chance(p) {
                        self.wedged = true;
                        self.started = false;
                    }
                }
            }
        }
    }

    /// Remote DMA read: the card bytes at RSAR, at most RBCR of them,
    /// the rest of `buf` zero. Always fills all of `buf`.
    fn read_block(&mut self, ctx: &mut DevCtx<'_, '_>, reg: u16, buf: &mut [u8]) -> usize {
        if reg != regs::DATA || self.cr & cr::RD_READ == 0 || self.wedged {
            buf.fill(0);
            return buf.len();
        }
        let n = buf.len().min(usize::from(self.rbcr));
        let start = usize::from(self.rsar).min(CARD_MEM);
        let end = (start + n).min(CARD_MEM);
        let (got, rest) = buf.split_at_mut(end - start);
        got.copy_from_slice(&self.mem[start..end]);
        rest.fill(0);
        self.rsar = end as u16;
        self.rbcr -= n as u16;
        if self.rbcr == 0 {
            self.irq_if_unmasked(ctx, isr::RDC);
        }
        buf.len()
    }

    fn write_block(&mut self, ctx: &mut DevCtx<'_, '_>, reg: u16, data: &[u8]) {
        if reg != regs::DATA || self.cr & cr::RD_WRITE == 0 || self.wedged {
            return;
        }
        let n = data.len().min(usize::from(self.rbcr));
        let start = usize::from(self.rsar).min(CARD_MEM);
        let end = (start + n).min(CARD_MEM);
        self.mem[start..end].copy_from_slice(&data[..end - start]);
        self.rsar = end as u16;
        self.rbcr -= n as u16;
        if self.rbcr == 0 {
            self.irq_if_unmasked(ctx, isr::RDC);
        }
    }

    fn timer(&mut self, ctx: &mut DevCtx<'_, '_>, _token: u64) {
        self.irq_if_unmasked(ctx, isr::PTX);
    }

    fn frame_in(&mut self, ctx: &mut DevCtx<'_, '_>, frame: &[u8]) {
        if !self.started || self.wedged || self.ring_pages() < 2 {
            self.rx_dropped += 1;
            return;
        }
        if self.rcr & rcr::PRO == 0 {
            self.rx_dropped += 1;
            return;
        }
        let need_pages = (4 + frame.len()).div_ceil(PAGE) as u8;
        if self.pages_free() < need_pages {
            self.rx_dropped += 1;
            self.irq_if_unmasked(ctx, isr::OVW);
            return;
        }
        // Write the 4-byte header + frame into consecutive ring pages,
        // wrapping at PSTOP.
        let start = usize::from(self.curr) * PAGE;
        let next = {
            let mut p = self.curr;
            for _ in 0..need_pages {
                p = self.next_page(p);
            }
            p
        };
        let total = (4 + frame.len()) as u16;
        let [lo, hi] = total.to_le_bytes();
        // Status OK, the next packet page, the length.
        let after_header = self.ring_write(start, &[0x01, next, lo, hi]);
        self.ring_write(after_header, frame);
        self.curr = next;
        self.rx_ok += 1;
        self.irq_if_unmasked(ctx, isr::PRX);
    }

    fn hard_reset(&mut self) {
        self.wedged = false;
        self.soft_reset();
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}
