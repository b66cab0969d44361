//! A UART-style serial input device (keyboard/console line).
//!
//! This is the §6.3 *input* case: "If an input stream is interrupted due
//! to a device driver crash, input might be lost because it can only be
//! read from the controller once." The device has a tiny hardware FIFO;
//! bytes arrive on the line (injected as external events, like NIC
//! frames), and anything not drained by a driver before the FIFO fills —
//! or sitting in a crashed driver's buffer — is gone forever.

use std::any::Any;
use std::collections::VecDeque;

use crate::bus::{DevCtx, Device};

/// Register map.
pub mod uart_regs {
    /// Data register: reading pops one byte from the rx FIFO.
    pub const DATA: u16 = 0x00;
    /// Number of bytes waiting in the rx FIFO (read-only).
    pub const AVAILABLE: u16 = 0x04;
    /// Control: write 1 to reset (clears the FIFO — more input loss).
    pub const CONTROL: u16 = 0x08;
}

/// Hardware rx FIFO depth (16550-style).
pub const FIFO_DEPTH: usize = 16;

/// The serial input device.
#[derive(Debug, Default)]
pub struct Uart {
    fifo: VecDeque<u8>,
    /// Every byte that ever arrived on the line.
    line_total: u64,
    /// Bytes lost because the FIFO was full when they arrived.
    overruns: u64,
}

impl Uart {
    /// Creates the device with an empty FIFO.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes that arrived on the line since power-on.
    pub fn line_total(&self) -> u64 {
        self.line_total
    }

    /// Bytes dropped due to FIFO overrun (nobody drained in time).
    pub fn overruns(&self) -> u64 {
        self.overruns
    }
}

impl Device for Uart {
    fn name(&self) -> &str {
        "uart"
    }

    fn read(&mut self, _ctx: &mut DevCtx<'_, '_>, reg: u16) -> u32 {
        match reg {
            uart_regs::DATA => u32::from(self.fifo.pop_front().unwrap_or(0)),
            uart_regs::AVAILABLE => self.fifo.len() as u32,
            _ => 0,
        }
    }

    fn write(&mut self, _ctx: &mut DevCtx<'_, '_>, reg: u16, value: u32) {
        if reg == uart_regs::CONTROL && value & 1 != 0 {
            self.fifo.clear();
        }
    }

    /// Drains at most `buf.len()` bytes of the FIFO into `buf`: fewer
    /// than asked when the FIFO holds fewer.
    fn read_block(&mut self, _ctx: &mut DevCtx<'_, '_>, reg: u16, buf: &mut [u8]) -> usize {
        if reg != uart_regs::DATA {
            buf.fill(0);
            return buf.len();
        }
        let n = buf.len().min(self.fifo.len());
        for (b, byte) in buf.iter_mut().zip(self.fifo.drain(..n)) {
            *b = byte;
        }
        n
    }

    fn frame_in(&mut self, ctx: &mut DevCtx<'_, '_>, frame: &[u8]) {
        // Bytes arriving on the line. The FIFO is the only buffer the
        // hardware has: overruns are silent input loss.
        for &b in frame {
            self.line_total += 1;
            if self.fifo.len() == FIFO_DEPTH {
                self.overruns += 1;
            } else {
                self.fifo.push_back(b);
            }
        }
        if !frame.is_empty() {
            ctx.raise_irq();
        }
    }

    fn hard_reset(&mut self) {
        self.fifo.clear();
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::{wire_to_host_channel, Bus};
    use phoenix_kernel::memory::MemoryPool;
    use phoenix_kernel::platform::HwCtx;
    use phoenix_kernel::platform::Platform;
    use phoenix_kernel::types::DeviceId;
    use phoenix_simcore::rng::SimRng;
    use phoenix_simcore::time::SimTime;

    #[test]
    fn fifo_overrun_loses_input() {
        let dev = DeviceId(9);
        let mut bus = Bus::new();
        bus.add_device(dev, 3, Box::new(Uart::new()));
        let mut mem = MemoryPool::new();
        let mut rng = SimRng::new(1);
        let mut fx = Vec::new();
        let mut ctx = HwCtx::new(SimTime::ZERO, &mut mem, &mut rng, &mut fx);
        // 24 bytes into a 16-byte FIFO: 8 lost.
        bus.external(wire_to_host_channel(dev), (0..24u8).collect(), &mut ctx);
        let uart: &mut Uart = bus.device_mut(dev).unwrap();
        assert_eq!(uart.line_total(), 24);
        assert_eq!(uart.overruns(), 8);
        // Drain: only the first 16 survived, in order.
        let mut got = [0; 20];
        let mut ctx = HwCtx::new(SimTime::ZERO, &mut mem, &mut rng, &mut fx);
        let avail = bus.io_read(dev, uart_regs::AVAILABLE, &mut ctx);
        assert_eq!(avail, 16);
        let n = bus.io_read_block(dev, uart_regs::DATA, &mut got, &mut ctx);
        assert_eq!(n, 16, "fewer bytes than asked: the FIFO held 16");
        assert_eq!(got[..n], (0..16u8).collect::<Vec<_>>());
    }
}
