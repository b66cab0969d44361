//! The boundary between the kernel and the emulated hardware.
//!
//! The kernel does not know what devices exist; it forwards privileged
//! device I/O to a [`Platform`] implementation (the machine's bus) and gives
//! device models an IOMMU-checked view of process memory through [`HwCtx`].

use phoenix_simcore::rng::SimRng;
use phoenix_simcore::time::SimTime;

use crate::memory::{DmaFault, MemoryPool};
use crate::types::{DeviceId, IrqLine};

/// Side effects a device model can produce while handling I/O or timers.
#[derive(Clone, Debug, PartialEq)]
pub enum HwSideEffect {
    /// Assert an interrupt line; the kernel routes it to the registered
    /// driver as an IRQ notification.
    RaiseIrq(IrqLine),
    /// Ask for a timer callback on this device at an absolute time.
    ///
    /// By convention the owning [`DeviceId`] is encoded in the token's top
    /// 16 bits (the bus does this), so the kernel can route the callback.
    SetTimer {
        /// When the timer should fire.
        at: SimTime,
        /// Opaque token returned to the device (device id in top 16 bits).
        token: u64,
    },
    /// An event addressed to machine-level glue outside the kernel (e.g.
    /// a network frame leaving a NIC onto the wire).
    External {
        /// Delivery time.
        at: SimTime,
        /// Machine-defined channel.
        channel: u64,
        /// Payload bytes.
        payload: Vec<u8>,
    },
}

/// Context handed to [`Platform`] calls: the current time, the side-effect
/// sink, deterministic randomness, and IOMMU-checked DMA access to process
/// memory.
pub struct HwCtx<'a> {
    now: SimTime,
    mem: &'a mut MemoryPool,
    rng: &'a mut SimRng,
    fx: &'a mut Vec<HwSideEffect>,
}

impl<'a> HwCtx<'a> {
    /// Builds a context. Called by the kernel only.
    pub fn new(
        now: SimTime,
        mem: &'a mut MemoryPool,
        rng: &'a mut SimRng,
        fx: &'a mut Vec<HwSideEffect>,
    ) -> Self {
        HwCtx { now, mem, rng, fx }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Deterministic randomness for stochastic device behavior (loss,
    /// wedge probabilities).
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Asserts an IRQ line.
    pub fn raise_irq(&mut self, line: IrqLine) {
        self.fx.push(HwSideEffect::RaiseIrq(line));
    }

    /// Requests a device timer callback at `at`.
    pub fn set_timer(&mut self, at: SimTime, token: u64) {
        self.fx.push(HwSideEffect::SetTimer { at, token });
    }

    /// Emits a machine-level external event for immediate delivery.
    pub fn emit_external(&mut self, channel: u64, payload: Vec<u8>) {
        let at = self.now;
        self.emit_external_at(at, channel, payload);
    }

    /// Emits a machine-level external event for delivery at `at` (wire
    /// latency, media delays).
    pub fn emit_external_at(&mut self, at: SimTime, channel: u64, payload: Vec<u8>) {
        self.fx.push(HwSideEffect::External {
            at,
            channel,
            payload,
        });
    }

    /// IOMMU-checked DMA read from process memory.
    ///
    /// # Errors
    ///
    /// Faults if the device has no window, leaves its window, or the window
    /// owner died (see [`DmaFault`]).
    pub fn dma_read(&mut self, dev: DeviceId, addr: u64, buf: &mut [u8]) -> Result<(), DmaFault> {
        self.mem.dma_read(dev, addr, buf)
    }

    /// IOMMU-checked DMA write into process memory.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`HwCtx::dma_read`].
    pub fn dma_write(&mut self, dev: DeviceId, addr: u64, data: &[u8]) -> Result<(), DmaFault> {
        self.mem.dma_write(dev, addr, data)
    }

    /// The process memory behind a transfer of `len` bytes at `addr`, or
    /// the part of it before the end of the window (see
    /// [`MemoryPool::dma_span`]).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`HwCtx::dma_read`].
    pub fn dma_span(
        &mut self,
        dev: DeviceId,
        addr: u64,
        len: usize,
    ) -> Result<&mut [u8], DmaFault> {
        self.mem.dma_span(dev, addr, len)
    }
}

/// The hardware platform as seen by the kernel.
///
/// Implemented by the machine (the composition layer) on top of the device
/// bus from `phoenix-hw`. All methods receive an [`HwCtx`] so device models
/// can raise IRQs, schedule timers and perform checked DMA.
pub trait Platform {
    /// Reads a device register.
    fn io_read(&mut self, dev: DeviceId, reg: u16, ctx: &mut HwCtx<'_>) -> u32;

    /// Writes a device register.
    fn io_write(&mut self, dev: DeviceId, reg: u16, value: u32, ctx: &mut HwCtx<'_>);

    /// Buffered port input (MINIX `sys_sdevio`): reads `len` bytes from a
    /// data port in one kernel call. Default: byte-wise via [`Platform::io_read`].
    fn io_read_block(
        &mut self,
        dev: DeviceId,
        reg: u16,
        len: usize,
        ctx: &mut HwCtx<'_>,
    ) -> Vec<u8> {
        (0..len)
            .map(|_| self.io_read(dev, reg, ctx) as u8)
            .collect()
    }

    /// Buffered port output (MINIX `sys_sdevio`): writes `data` to a data
    /// port in one kernel call. Default: byte-wise via [`Platform::io_write`].
    fn io_write_block(&mut self, dev: DeviceId, reg: u16, data: &[u8], ctx: &mut HwCtx<'_>) {
        for &b in data {
            self.io_write(dev, reg, u32::from(b), ctx);
        }
    }

    /// Delivers a previously requested device timer.
    fn timer(&mut self, dev: DeviceId, token: u64, ctx: &mut HwCtx<'_>);

    /// Delivers a machine-level external event scheduled via
    /// [`crate::system::System::schedule_external`].
    fn external(&mut self, channel: u64, payload: Vec<u8>, ctx: &mut HwCtx<'_>);

    /// Whether a device id exists on the bus.
    fn has_device(&self, dev: DeviceId) -> bool;
}

/// A platform with no devices; useful in tests that exercise only IPC.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullPlatform;

impl Platform for NullPlatform {
    fn io_read(&mut self, _dev: DeviceId, _reg: u16, _ctx: &mut HwCtx<'_>) -> u32 {
        0
    }
    fn io_write(&mut self, _dev: DeviceId, _reg: u16, _value: u32, _ctx: &mut HwCtx<'_>) {}
    fn timer(&mut self, _dev: DeviceId, _token: u64, _ctx: &mut HwCtx<'_>) {}
    fn external(&mut self, _channel: u64, _payload: Vec<u8>, _ctx: &mut HwCtx<'_>) {}
    fn has_device(&self, _dev: DeviceId) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{IommuWindow, MemoryPool};
    use crate::types::Endpoint;

    #[test]
    fn hwctx_collects_side_effects() {
        let mut mem = MemoryPool::new();
        let mut rng = SimRng::new(1);
        let mut fx = Vec::new();
        let mut ctx = HwCtx::new(SimTime::from_micros(9), &mut mem, &mut rng, &mut fx);
        ctx.raise_irq(5);
        ctx.set_timer(SimTime::from_micros(20), 42);
        ctx.emit_external(1, vec![0xab]);
        assert_eq!(ctx.now(), SimTime::from_micros(9));
        assert_eq!(fx.len(), 3);
        assert_eq!(fx[0], HwSideEffect::RaiseIrq(5));
        assert!(
            matches!(fx[2], HwSideEffect::External { at, .. } if at == SimTime::from_micros(9))
        );
    }

    #[test]
    fn hwctx_dma_goes_through_iommu() {
        let ep = Endpoint::new(0, 1);
        let dev = DeviceId(1);
        let mut mem = MemoryPool::new();
        mem.attach(ep, 64);
        mem.iommu_map(
            dev,
            Some(IommuWindow {
                owner: ep,
                base: 0,
                offset: 0,
                len: 64,
            }),
        )
        .unwrap();
        let mut rng = SimRng::new(1);
        let mut fx = Vec::new();
        let mut ctx = HwCtx::new(SimTime::ZERO, &mut mem, &mut rng, &mut fx);
        ctx.dma_write(dev, 3, b"ok").unwrap();
        let mut buf = [0u8; 2];
        ctx.dma_read(dev, 3, &mut buf).unwrap();
        assert_eq!(&buf, b"ok");
        assert_eq!(
            ctx.dma_read(DeviceId(2), 0, &mut buf),
            Err(DmaFault::NoWindow)
        );
    }
}
