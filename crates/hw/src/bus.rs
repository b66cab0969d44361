//! The device bus: routes kernel device I/O to device models, wires NICs to
//! remote peers, and implements the kernel's [`Platform`] trait.

use std::any::Any;
use std::collections::BTreeMap;

use phoenix_kernel::memory::DmaFault;
use phoenix_kernel::platform::{HwCtx, Platform};
use phoenix_kernel::types::{DeviceId, IrqLine};
use phoenix_simcore::rng::SimRng;
use phoenix_simcore::time::{SimDuration, SimTime};

/// External-event channel kinds used on the bus (low 16 bits of a channel;
/// the device id occupies bits 16..32).
mod chan {
    /// Frame transmitted by a NIC, entering the wire.
    pub const WIRE_TX: u64 = 1;
    /// Frame arriving at the remote peer.
    pub const WIRE_TO_PEER: u64 = 2;
    /// Frame arriving back at the NIC from the wire.
    pub const WIRE_TO_HOST: u64 = 3;
    /// Timer set by the remote peer.
    pub const PEER_TIMER: u64 = 4;
}

fn encode_chan(dev: DeviceId, kind: u64) -> u64 {
    (u64::from(dev.0) << 16) | kind
}

fn decode_chan(channel: u64) -> (DeviceId, u64) {
    (DeviceId((channel >> 16) as u16), channel & 0xFFFF)
}

/// The external-event channel on which frames arrive at a NIC "from the
/// wire". Machine-level harnesses use this to inject raw frames (e.g.
/// malformed garbage) without a peer.
pub fn wire_to_host_channel(dev: DeviceId) -> u64 {
    encode_chan(dev, chan::WIRE_TO_HOST)
}

/// Context handed to a device model; wraps the kernel's [`HwCtx`] with the
/// device's identity so IRQ and timer bookkeeping is automatic.
pub struct DevCtx<'a, 'b> {
    dev: DeviceId,
    irq: IrqLine,
    hw: &'a mut HwCtx<'b>,
}

impl<'a, 'b> DevCtx<'a, 'b> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.hw.now()
    }

    /// Deterministic randomness.
    pub fn rng(&mut self) -> &mut SimRng {
        self.hw.rng()
    }

    /// This device's id.
    pub fn device(&self) -> DeviceId {
        self.dev
    }

    /// Asserts this device's interrupt line.
    pub fn raise_irq(&mut self) {
        self.hw.raise_irq(self.irq);
    }

    /// Schedules a timer callback on this device after `delay`.
    pub fn set_timer_after(&mut self, delay: SimDuration, token: u64) {
        let at = self.hw.now() + delay;
        // Kernel convention: device id in the token's top 16 bits.
        self.hw.set_timer(
            at,
            (u64::from(self.dev.0) << 48) | (token & 0xFFFF_FFFF_FFFF),
        );
    }

    /// DMA read from the driver's memory through the IOMMU.
    ///
    /// # Errors
    ///
    /// See [`DmaFault`].
    pub fn dma_read(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), DmaFault> {
        self.hw.dma_read(self.dev, addr, buf)
    }

    /// DMA write into the driver's memory through the IOMMU.
    ///
    /// # Errors
    ///
    /// See [`DmaFault`].
    pub fn dma_write(&mut self, addr: u64, data: &[u8]) -> Result<(), DmaFault> {
        self.hw.dma_write(self.dev, addr, data)
    }

    /// The driver memory behind a transfer of `len` bytes at `addr`, for
    /// the device to read or fill in place: all of it, or the part before
    /// the end of the IOMMU window.
    ///
    /// # Errors
    ///
    /// See [`DmaFault`].
    pub fn dma_span(&mut self, addr: u64, len: usize) -> Result<&mut [u8], DmaFault> {
        self.hw.dma_span(self.dev, addr, len)
    }

    /// Transmits a frame onto the wire attached to this device (NICs).
    pub fn tx_frame(&mut self, frame: Vec<u8>) {
        self.hw
            .emit_external(encode_chan(self.dev, chan::WIRE_TX), frame);
    }
}

/// An emulated device on the bus.
///
/// Register width is 32 bits; `reg` is a register offset, not a raw port
/// number. Default implementations make timers, frames and block I/O
/// optional for simple devices.
pub trait Device {
    /// Short device name for diagnostics (e.g. `"rtl8139"`).
    fn name(&self) -> &str;

    /// Register read.
    fn read(&mut self, ctx: &mut DevCtx<'_, '_>, reg: u16) -> u32;

    /// Register write.
    fn write(&mut self, ctx: &mut DevCtx<'_, '_>, reg: u16, value: u32);

    /// A timer set via [`DevCtx::set_timer_after`] fired.
    fn timer(&mut self, _ctx: &mut DevCtx<'_, '_>, _token: u64) {}

    /// A frame arrived from the attached wire (NICs only).
    fn frame_in(&mut self, _ctx: &mut DevCtx<'_, '_>, _frame: &[u8]) {}

    /// Buffered read from a data port (`sys_sdevio`); devices with a
    /// byte-stream port (DP8390 remote DMA) override this.
    fn read_block(&mut self, ctx: &mut DevCtx<'_, '_>, reg: u16, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.read(ctx, reg) as u8).collect()
    }

    /// Buffered write to a data port (`sys_sdevio`).
    fn write_block(&mut self, ctx: &mut DevCtx<'_, '_>, reg: u16, data: &[u8]) {
        for &b in data {
            self.write(ctx, reg, u32::from(b));
        }
    }

    /// Out-of-band full reset (models a BIOS-level reset, §7.2: "a
    /// low-level BIOS reset was needed"). Must clear any wedged state.
    fn hard_reset(&mut self) {}

    /// Downcasting support for tests and machine-level observers.
    fn as_any(&mut self) -> &mut dyn Any;
}

/// Context handed to a [`RemotePeer`].
pub struct PeerCtx<'a, 'b> {
    dev: DeviceId,
    latency: SimDuration,
    loss_to_host: f64,
    cut_to_host: bool,
    hw: &'a mut HwCtx<'b>,
}

impl<'a, 'b> PeerCtx<'a, 'b> {
    /// Builds a peer context for the peer-to-host direction of a wire.
    /// The bus builds one per delivery; protocol harnesses (e.g. the
    /// file-peer's one-way-loss tests) build their own to drive a
    /// [`RemotePeer`] without a full bus.
    pub fn new(
        dev: DeviceId,
        latency: SimDuration,
        loss_to_host: f64,
        cut_to_host: bool,
        hw: &'a mut HwCtx<'b>,
    ) -> Self {
        PeerCtx {
            dev,
            latency,
            loss_to_host,
            cut_to_host,
            hw,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.hw.now()
    }

    /// Deterministic randomness.
    pub fn rng(&mut self) -> &mut SimRng {
        self.hw.rng()
    }

    /// Sends a frame towards the host NIC; it arrives after the wire
    /// latency unless lost.
    pub fn send_to_host(&mut self, frame: Vec<u8>) {
        self.send_to_host_after(SimDuration::ZERO, frame);
    }

    /// Sends a frame towards the host NIC after an extra `delay` (used by
    /// peers to pace transmissions at their uplink rate).
    pub fn send_to_host_after(&mut self, delay: SimDuration, frame: Vec<u8>) {
        if self.cut_to_host {
            return;
        }
        let lost = self.loss_to_host > 0.0 && {
            let p = self.loss_to_host;
            self.hw.rng().chance(p)
        };
        if lost {
            return;
        }
        let at = self.hw.now() + delay + self.latency;
        self.hw
            .emit_external_at(at, encode_chan(self.dev, chan::WIRE_TO_HOST), frame);
    }

    /// Schedules a peer timer after `delay`.
    pub fn set_timer_after(&mut self, delay: SimDuration, token: u64) {
        let at = self.hw.now() + delay;
        self.hw.emit_external_at(
            at,
            encode_chan(self.dev, chan::PEER_TIMER),
            token.to_le_bytes().to_vec(),
        );
    }
}

/// The entity at the far end of a NIC's wire — e.g. the Internet server
/// `wget` downloads from in Fig. 7. Protocol logic (TCP-like retransmission)
/// lives in the peer implementation, not here.
pub trait RemotePeer {
    /// A frame from the host NIC arrived at the peer.
    fn frame_from_host(&mut self, ctx: &mut PeerCtx<'_, '_>, frame: &[u8]);

    /// A peer timer fired.
    fn timer(&mut self, _ctx: &mut PeerCtx<'_, '_>, _token: u64) {}

    /// Downcasting support for tests.
    fn as_any(&mut self) -> &mut dyn Any;
}

/// Line rate of both NIC models in bytes/second: 100 Mb/s Ethernet ≈
/// 12.5 MB/s (a real DP8390 is a 10 Mb/s card; it is modelled at 100 to
/// keep the two drivers' experiments comparable).
pub const LINE_RATE: u64 = 12_500_000;

/// Wire parameters between a NIC and its remote peer.
#[derive(Debug, Clone, Copy)]
pub struct WireConfig {
    /// One-way propagation + queueing latency.
    pub latency: SimDuration,
    /// Independent per-frame loss probability in each direction.
    pub loss_prob: f64,
}

impl Default for WireConfig {
    fn default() -> Self {
        WireConfig {
            latency: SimDuration::from_micros(200),
            loss_prob: 0.0,
        }
    }
}

/// Directional wire fault state, applied *on top of* [`WireConfig`]'s
/// symmetric per-frame loss. This is the chaos layer's seam for network
/// partitions and asymmetric loss: a hard `cut_*` drops every frame in
/// that direction (a partition), while `loss_*` raises one direction's
/// per-frame drop probability to `max(baseline, chaos)` — the failure
/// mode the symmetric `loss_prob` cannot express. Cleared (all-zero)
/// chaos is
/// byte-for-byte equivalent to no chaos, including RNG consumption, so
/// installing and removing it never perturbs unrelated streams.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WireChaos {
    /// Extra per-frame loss probability in the host→peer direction.
    pub loss_to_peer: f64,
    /// Extra per-frame loss probability in the peer→host direction.
    pub loss_to_host: f64,
    /// Hard partition host→peer: every outbound frame is dropped.
    pub cut_to_peer: bool,
    /// Hard partition peer→host: every inbound frame is dropped.
    pub cut_to_host: bool,
}

impl WireChaos {
    /// A full (two-way) partition.
    pub fn partition() -> Self {
        WireChaos {
            cut_to_peer: true,
            cut_to_host: true,
            ..Self::default()
        }
    }
}

struct DeviceSlot {
    irq: IrqLine,
    dev: Box<dyn Device>,
}

struct WireSlot {
    cfg: WireConfig,
    chaos: WireChaos,
    peer: Box<dyn RemotePeer>,
}

/// The platform bus: a set of devices plus optional wires to remote peers.
#[derive(Default)]
pub struct Bus {
    devices: BTreeMap<DeviceId, DeviceSlot>,
    wires: BTreeMap<DeviceId, WireSlot>,
}

impl Bus {
    /// Creates an empty bus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a device with its interrupt line.
    ///
    /// # Panics
    ///
    /// Panics if the device id is already taken.
    pub fn add_device(&mut self, dev: DeviceId, irq: IrqLine, device: Box<dyn Device>) {
        let prev = self.devices.insert(dev, DeviceSlot { irq, dev: device });
        assert!(prev.is_none(), "device id {dev} already on the bus");
    }

    /// Attaches a wire + remote peer to a NIC device.
    pub fn attach_peer(&mut self, dev: DeviceId, cfg: WireConfig, peer: Box<dyn RemotePeer>) {
        self.wires.insert(
            dev,
            WireSlot {
                cfg,
                chaos: WireChaos::default(),
                peer,
            },
        );
    }

    /// Installs directional wire chaos (partition / asymmetric loss) on
    /// the wire attached to `dev`. Replaces any previous chaos state.
    pub fn set_wire_chaos(&mut self, dev: DeviceId, chaos: WireChaos) {
        if let Some(slot) = self.wires.get_mut(&dev) {
            slot.chaos = chaos;
        }
    }

    /// Heals the wire attached to `dev` (removes directional chaos).
    pub fn clear_wire_chaos(&mut self, dev: DeviceId) {
        self.set_wire_chaos(dev, WireChaos::default());
    }

    /// Typed access to a device model (tests and machine-level observers).
    pub fn device_mut<T: Device + 'static>(&mut self, dev: DeviceId) -> Option<&mut T> {
        self.devices
            .get_mut(&dev)
            .and_then(|s| s.dev.as_any().downcast_mut::<T>())
    }

    /// Typed access to a remote peer.
    pub fn peer_mut<T: RemotePeer + 'static>(&mut self, dev: DeviceId) -> Option<&mut T> {
        self.wires
            .get_mut(&dev)
            .and_then(|s| s.peer.as_any().downcast_mut::<T>())
    }

    /// Performs an out-of-band full reset of a device (models operator /
    /// BIOS intervention for a wedged card, §7.2).
    pub fn hard_reset(&mut self, dev: DeviceId) {
        if let Some(slot) = self.devices.get_mut(&dev) {
            slot.dev.hard_reset();
        }
    }

    fn with_device<R>(
        &mut self,
        dev: DeviceId,
        ctx: &mut HwCtx<'_>,
        f: impl FnOnce(&mut dyn Device, &mut DevCtx<'_, '_>) -> R,
    ) -> Option<R> {
        let slot = self.devices.get_mut(&dev)?;
        let mut dctx = DevCtx {
            dev,
            irq: slot.irq,
            hw: ctx,
        };
        Some(f(slot.dev.as_mut(), &mut dctx))
    }
}

impl Platform for Bus {
    fn io_read(&mut self, dev: DeviceId, reg: u16, ctx: &mut HwCtx<'_>) -> u32 {
        self.with_device(dev, ctx, |d, c| d.read(c, reg))
            .unwrap_or(0)
    }

    fn io_write(&mut self, dev: DeviceId, reg: u16, value: u32, ctx: &mut HwCtx<'_>) {
        self.with_device(dev, ctx, |d, c| d.write(c, reg, value));
    }

    fn io_read_block(
        &mut self,
        dev: DeviceId,
        reg: u16,
        len: usize,
        ctx: &mut HwCtx<'_>,
    ) -> Vec<u8> {
        self.with_device(dev, ctx, |d, c| d.read_block(c, reg, len))
            .unwrap_or_default()
    }

    fn io_write_block(&mut self, dev: DeviceId, reg: u16, data: &[u8], ctx: &mut HwCtx<'_>) {
        self.with_device(dev, ctx, |d, c| d.write_block(c, reg, data));
    }

    fn timer(&mut self, dev: DeviceId, token: u64, ctx: &mut HwCtx<'_>) {
        self.with_device(dev, ctx, |d, c| d.timer(c, token));
    }

    fn external(&mut self, channel: u64, payload: Vec<u8>, ctx: &mut HwCtx<'_>) {
        let (dev, kind) = decode_chan(channel);
        match kind {
            chan::WIRE_TX => {
                // NIC -> wire: apply partition, loss, and latency towards
                // the peer. The baseline symmetric loss and the directional
                // chaos loss are independent drop trials.
                let Some(w) = self.wires.get(&dev) else {
                    return;
                };
                if w.chaos.cut_to_peer {
                    return;
                }
                let latency = w.cfg.latency;
                let loss = w.cfg.loss_prob.max(w.chaos.loss_to_peer);
                if loss > 0.0 && ctx.rng().chance(loss) {
                    return;
                }
                let at = ctx.now() + latency;
                ctx.emit_external_at(at, encode_chan(dev, chan::WIRE_TO_PEER), payload);
            }
            chan::WIRE_TO_PEER => {
                let Some(w) = self.wires.get_mut(&dev) else {
                    return;
                };
                let mut pctx = PeerCtx::new(
                    dev,
                    w.cfg.latency,
                    w.cfg.loss_prob.max(w.chaos.loss_to_host),
                    w.chaos.cut_to_host,
                    ctx,
                );
                w.peer.frame_from_host(&mut pctx, &payload);
            }
            chan::WIRE_TO_HOST => {
                self.with_device(dev, ctx, |d, c| d.frame_in(c, &payload));
            }
            chan::PEER_TIMER => {
                let Some(w) = self.wires.get_mut(&dev) else {
                    return;
                };
                let token = u64::from_le_bytes(payload.try_into().unwrap_or_default());
                let mut pctx = PeerCtx::new(
                    dev,
                    w.cfg.latency,
                    w.cfg.loss_prob.max(w.chaos.loss_to_host),
                    w.chaos.cut_to_host,
                    ctx,
                );
                w.peer.timer(&mut pctx, token);
            }
            _ => {}
        }
    }

    fn has_device(&self, dev: DeviceId) -> bool {
        self.devices.contains_key(&dev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_kernel::memory::MemoryPool;

    /// Loopback NIC: every transmitted frame is reflected by an echo peer.
    struct EchoNic {
        rx: Vec<Vec<u8>>,
    }
    impl Device for EchoNic {
        fn name(&self) -> &str {
            "echo-nic"
        }
        fn read(&mut self, _ctx: &mut DevCtx<'_, '_>, _reg: u16) -> u32 {
            self.rx.len() as u32
        }
        fn write(&mut self, ctx: &mut DevCtx<'_, '_>, _reg: u16, value: u32) {
            ctx.tx_frame(vec![value as u8]);
        }
        fn frame_in(&mut self, ctx: &mut DevCtx<'_, '_>, frame: &[u8]) {
            self.rx.push(frame.to_vec());
            ctx.raise_irq();
        }
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }

    struct EchoPeer;
    impl RemotePeer for EchoPeer {
        fn frame_from_host(&mut self, ctx: &mut PeerCtx<'_, '_>, frame: &[u8]) {
            let mut f = frame.to_vec();
            f.push(0xEE);
            ctx.send_to_host(f);
        }
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn drive(bus: &mut Bus, fx: Vec<phoenix_kernel::platform::HwSideEffect>) {
        // Minimal event pump for bus-only tests: process External effects
        // in time order.
        use phoenix_kernel::platform::HwSideEffect;
        let mut mem = MemoryPool::new();
        let mut rng = SimRng::new(7);
        let mut pending: Vec<(SimTime, u64, Vec<u8>)> = fx
            .into_iter()
            .filter_map(|e| match e {
                HwSideEffect::External {
                    at,
                    channel,
                    payload,
                } => Some((at, channel, payload)),
                _ => None,
            })
            .collect();
        while !pending.is_empty() {
            pending.sort_by_key(|(at, _, _)| *at);
            let (at, chanl, payload) = pending.remove(0);
            let mut fx2 = Vec::new();
            let mut ctx = HwCtx::new(at, &mut mem, &mut rng, &mut fx2);
            bus.external(chanl, payload, &mut ctx);
            for e in fx2 {
                if let HwSideEffect::External {
                    at,
                    channel,
                    payload,
                } = e
                {
                    pending.push((at, channel, payload));
                }
            }
        }
    }

    #[test]
    fn frame_roundtrip_through_wire_and_peer() {
        let dev = DeviceId(1);
        let mut bus = Bus::new();
        bus.add_device(dev, 3, Box::new(EchoNic { rx: Vec::new() }));
        bus.attach_peer(dev, WireConfig::default(), Box::new(EchoPeer));
        let mut mem = MemoryPool::new();
        let mut rng = SimRng::new(7);
        let mut fx = Vec::new();
        {
            let mut ctx = HwCtx::new(SimTime::ZERO, &mut mem, &mut rng, &mut fx);
            bus.io_write(dev, 0, 0x42, &mut ctx);
        }
        drive(&mut bus, fx);
        let nic: &mut EchoNic = bus.device_mut(dev).unwrap();
        assert_eq!(nic.rx, vec![vec![0x42, 0xEE]]);
    }

    #[test]
    fn lossy_wire_drops_everything_at_p1() {
        let dev = DeviceId(1);
        let mut bus = Bus::new();
        bus.add_device(dev, 3, Box::new(EchoNic { rx: Vec::new() }));
        bus.attach_peer(
            dev,
            WireConfig {
                latency: SimDuration::from_micros(10),
                loss_prob: 1.0,
            },
            Box::new(EchoPeer),
        );
        let mut mem = MemoryPool::new();
        let mut rng = SimRng::new(7);
        let mut fx = Vec::new();
        {
            let mut ctx = HwCtx::new(SimTime::ZERO, &mut mem, &mut rng, &mut fx);
            bus.io_write(dev, 0, 1, &mut ctx);
        }
        drive(&mut bus, fx);
        let nic: &mut EchoNic = bus.device_mut(dev).unwrap();
        assert!(nic.rx.is_empty());
    }

    /// Peer that counts frames it receives and echoes them (for
    /// asymmetric-loss tests: the count proves the forward path worked
    /// even when nothing makes it back).
    struct CountingPeer {
        seen: u64,
    }
    impl RemotePeer for CountingPeer {
        fn frame_from_host(&mut self, ctx: &mut PeerCtx<'_, '_>, frame: &[u8]) {
            self.seen += 1;
            ctx.send_to_host(frame.to_vec());
        }
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn send_one(bus: &mut Bus, dev: DeviceId, byte: u32) {
        let mut mem = MemoryPool::new();
        let mut rng = SimRng::new(7);
        let mut fx = Vec::new();
        {
            let mut ctx = HwCtx::new(SimTime::ZERO, &mut mem, &mut rng, &mut fx);
            bus.io_write(dev, 0, byte, &mut ctx);
        }
        drive(bus, fx);
    }

    #[test]
    fn one_way_cut_to_host_starves_replies_but_not_requests() {
        let dev = DeviceId(1);
        let mut bus = Bus::new();
        bus.add_device(dev, 3, Box::new(EchoNic { rx: Vec::new() }));
        bus.attach_peer(
            dev,
            WireConfig::default(),
            Box::new(CountingPeer { seen: 0 }),
        );
        bus.set_wire_chaos(
            dev,
            WireChaos {
                cut_to_host: true,
                ..Default::default()
            },
        );
        send_one(&mut bus, dev, 0x11);
        // Forward path intact: the peer saw the frame...
        assert_eq!(bus.peer_mut::<CountingPeer>(dev).unwrap().seen, 1);
        // ...but nothing came back.
        assert!(bus.device_mut::<EchoNic>(dev).unwrap().rx.is_empty());
    }

    #[test]
    fn one_way_cut_to_peer_blocks_requests() {
        let dev = DeviceId(1);
        let mut bus = Bus::new();
        bus.add_device(dev, 3, Box::new(EchoNic { rx: Vec::new() }));
        bus.attach_peer(
            dev,
            WireConfig::default(),
            Box::new(CountingPeer { seen: 0 }),
        );
        bus.set_wire_chaos(
            dev,
            WireChaos {
                cut_to_peer: true,
                ..Default::default()
            },
        );
        send_one(&mut bus, dev, 0x22);
        assert_eq!(bus.peer_mut::<CountingPeer>(dev).unwrap().seen, 0);
        assert!(bus.device_mut::<EchoNic>(dev).unwrap().rx.is_empty());
    }

    #[test]
    fn asymmetric_loss_probability_starves_one_direction() {
        let dev = DeviceId(1);
        let mut bus = Bus::new();
        bus.add_device(dev, 3, Box::new(EchoNic { rx: Vec::new() }));
        bus.attach_peer(
            dev,
            WireConfig::default(),
            Box::new(CountingPeer { seen: 0 }),
        );
        bus.set_wire_chaos(
            dev,
            WireChaos {
                loss_to_host: 1.0,
                ..WireChaos::default()
            },
        );
        send_one(&mut bus, dev, 0x33);
        assert_eq!(bus.peer_mut::<CountingPeer>(dev).unwrap().seen, 1);
        assert!(bus.device_mut::<EchoNic>(dev).unwrap().rx.is_empty());
    }

    #[test]
    fn healed_partition_restores_roundtrip() {
        let dev = DeviceId(1);
        let mut bus = Bus::new();
        bus.add_device(dev, 3, Box::new(EchoNic { rx: Vec::new() }));
        bus.attach_peer(
            dev,
            WireConfig::default(),
            Box::new(CountingPeer { seen: 0 }),
        );
        bus.set_wire_chaos(dev, WireChaos::partition());
        send_one(&mut bus, dev, 0x44);
        assert!(bus.device_mut::<EchoNic>(dev).unwrap().rx.is_empty());
        bus.clear_wire_chaos(dev);
        send_one(&mut bus, dev, 0x55);
        assert_eq!(bus.device_mut::<EchoNic>(dev).unwrap().rx, vec![vec![0x55]]);
    }

    #[test]
    fn unknown_device_reads_zero() {
        let mut bus = Bus::new();
        let mut mem = MemoryPool::new();
        let mut rng = SimRng::new(7);
        let mut fx = Vec::new();
        let mut ctx = HwCtx::new(SimTime::ZERO, &mut mem, &mut rng, &mut fx);
        assert_eq!(bus.io_read(DeviceId(99), 0, &mut ctx), 0);
        assert!(!bus.has_device(DeviceId(99)));
    }

    #[test]
    #[should_panic(expected = "already on the bus")]
    fn duplicate_device_id_panics() {
        let mut bus = Bus::new();
        bus.add_device(DeviceId(1), 1, Box::new(EchoNic { rx: Vec::new() }));
        bus.add_device(DeviceId(1), 2, Box::new(EchoNic { rx: Vec::new() }));
    }

    #[test]
    fn block_io_defaults_stream_bytes() {
        let dev = DeviceId(5);
        struct Port {
            buf: Vec<u8>,
        }
        impl Device for Port {
            fn name(&self) -> &str {
                "port"
            }
            fn read(&mut self, _c: &mut DevCtx<'_, '_>, _r: u16) -> u32 {
                self.buf.pop().map_or(0, u32::from)
            }
            fn write(&mut self, _c: &mut DevCtx<'_, '_>, _r: u16, v: u32) {
                self.buf.push(v as u8);
            }
            fn as_any(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut bus = Bus::new();
        bus.add_device(dev, 1, Box::new(Port { buf: Vec::new() }));
        let mut mem = MemoryPool::new();
        let mut rng = SimRng::new(7);
        let mut fx = Vec::new();
        let mut ctx = HwCtx::new(SimTime::ZERO, &mut mem, &mut rng, &mut fx);
        bus.io_write_block(dev, 0, b"abc", &mut ctx);
        let port: &mut Port = bus.device_mut(dev).unwrap();
        assert_eq!(port.buf, b"abc");
    }
}
