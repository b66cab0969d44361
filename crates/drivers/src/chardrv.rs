//! Character device drivers: printer, audio, and SCSI CD burner.
//!
//! These drivers cannot be transparently recovered (§6.3): "it is
//! impossible to tell whether data was lost" across a crash, so errors are
//! pushed to the application layer. The drivers themselves are ordinary
//! stateless request servers; what makes them special is what their
//! *clients* must do after a failure (reissue the print job, tolerate a
//! hiccup, or tell the user the disc is ruined).
//!
//! With the `phoenix-ckpt` subsystem enabled (`with_checkpointing`), the
//! stream drivers (printer, audio) and the input driver (keyboard)
//! escape that verdict: requests tagged with a write-ahead-log sequence
//! and stream offset are deduplicated against a consumed-progress
//! cursor, the cursor is checkpointed to the data store at quiescent
//! points, and a restarted incarnation lazily restores it before serving
//! its first request — making "how much of the stream was consumed"
//! decidable. The CD burner deliberately stays uncheckpointed: its side
//! effect (the laser) is external and unrepeatable, so a half-burned
//! disc remains the paper's irrecoverable case.

use phoenix_ckpt::{ConsumedCursor, SpareTail, StateGate};
use phoenix_hw::chardev::{audio_regs, printer_regs, scsi_cmd, scsi_regs, scsi_status};
use phoenix_hw::uart::uart_regs;
use phoenix_kernel::system::Ctx;
use phoenix_kernel::types::{CallId, DeviceId, Endpoint, IpcError, IrqLine, Message};
use phoenix_simcore::time::SimDuration;
use phoenix_simcore::trace::TraceLevel;

use crate::libdriver::{DriverLogic, FaultPort, GuardedRoutine};
use crate::proto::{cdev, drv, status};
use crate::routines;

/// Emits the timeline `replay` event the first time a restored driver
/// serves a logged request — the phase anchor between the episode's
/// publish and the client's byte-exact resumption.
fn emit_replay_event(ctx: &mut Ctx<'_>, gate: &mut StateGate, offset: u64, dup_bytes: u64) {
    let Some((rid, span)) = gate.take_replay_tag() else {
        return;
    };
    let ev = ctx
        .event(
            TraceLevel::Info,
            "serving replayed log entries past restored watermark".to_string(),
        )
        .with_field("ev", "replay")
        .with_field("offset", offset)
        .with_field("dup_bytes", dup_bytes)
        .in_recovery(rid)
        .with_parent_opt(span);
    ctx.trace_event(ev);
}

/// Alarm token driving a warm spare's tail polls.
const TOK_TAIL: u64 = 0x7A11;

/// The dormant half of a hot-standby stream driver: spawned by RS beside
/// a healthy primary under the `standby.<name>` identity, it stays off
/// the device entirely — no IRQ registration, no fault-port publication,
/// no device init — and shadows the primary's checkpoint record through
/// sequence-gated tail polls. At `drv::PROMOTE` the host driver runs its
/// deferred device bring-up and adopts the tailed watermark, skipping
/// the cold path's execute + restore round-trips.
struct StandbyRole {
    tail: SpareTail,
    period: SimDuration,
    polling: bool,
}

impl StandbyRole {
    fn new(ds: Endpoint, key: &str) -> Self {
        StandbyRole {
            tail: SpareTail::new(ds, key),
            period: SimDuration::from_millis(100),
            polling: false,
        }
    }

    /// Handles `drv::STANDBY`: adopt RS's tail-poll period and start
    /// polling — the cadence stays a policy decision, not a driver one.
    // analyze:recovery-root
    fn on_standby(&mut self, ctx: &mut Ctx<'_>, standby: drv::Standby) {
        let us = standby.period_us;
        if us > 0 {
            self.period = SimDuration::from_micros(us);
        }
        if !self.polling {
            self.polling = true;
            self.arm(ctx);
        }
    }

    fn arm(&mut self, ctx: &mut Ctx<'_>) {
        if ctx.set_alarm(self.period, TOK_TAIL).is_err() {
            ctx.metrics().incr("ckpt.tail_alarm_failed");
            self.polling = false;
        }
    }

    /// Tail alarm tick: poll the store, then re-arm.
    // analyze:recovery-root
    fn on_alarm(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token != TOK_TAIL || !self.polling {
            return;
        }
        self.tail.poll(ctx);
        self.arm(ctx);
    }
}

/// A cdev reply that carries nothing but its status.
fn status_reply(status: u64) -> Message {
    let reply = cdev::Reply {
        status,
        ..Default::default()
    };
    reply.into_message()
}

/// Runs the write routine over `data` in pieces of at most
/// [`routines::CHAR_WRITE_MAX_LEN`] bytes, each in a VM of
/// `mem_size(piece length)` bytes, and returns the wrapping sum of the
/// pieces' byte sums; `None` if a run killed the driver.
fn sum_payload(
    routine: &mut GuardedRoutine,
    ctx: &mut Ctx<'_>,
    data: &[u8],
    mem_size: impl Fn(usize) -> usize,
) -> Option<u32> {
    let mut sum = 0u32;
    for piece in data.chunks(routines::CHAR_WRITE_MAX_LEN) {
        let vm = routine.run(ctx, mem_size(piece.len()), |vm| {
            vm.mem[..piece.len()].copy_from_slice(piece);
            vm.regs[routines::reg::A0 as usize] = piece.len() as u32;
        })?;
        sum = sum.wrapping_add(vm.regs[routines::reg::RES as usize]);
    }
    Some(sum)
}

/// The primary service name of a (possibly standby) incarnation: a warm
/// spare named `standby.chr.printer` goes live as `chr.printer`.
fn primary_name(ctx: &Ctx<'_>) -> String {
    let name = ctx.self_name();
    drv::spare_of(name).unwrap_or(name).to_string()
}

/// The device half of a stream driver: everything that differs between
/// the printer and the audio DAC. The dedup cursor, the checkpoint gate,
/// the warm-spare role and the reply protocol live in [`StreamDriver`].
pub trait StreamDevice: Default {
    /// Checkpoint key and trace label (`"printer"`, `"audio"`).
    const LABEL: &'static str;
    /// Largest WRITE the device takes in one request.
    const MAX_WRITE: usize;

    /// Device-specific bring-up after the IRQ line is enabled. Stays
    /// panic-free: it runs on the recovery path.
    fn bring_up(&mut self, _ctx: &mut Ctx<'_>, _dev: DeviceId) {}

    /// Pushes `data` at the hardware. `Some(n)` = the first `n` bytes
    /// were committed (0 = device full, the client retries); `None` =
    /// the transfer failed outright (`EIO`).
    fn push(&mut self, ctx: &mut Ctx<'_>, dev: DeviceId, data: &[u8]) -> Option<usize>;
}

/// Printer: programmed I/O into the device FIFO, applying backpressure
/// by accepting only as many bytes as the FIFO has room for. The client
/// (`lpd`) loops until everything is accepted.
#[derive(Debug, Default)]
pub struct PrinterPort;

impl StreamDevice for PrinterPort {
    const LABEL: &'static str = "printer";
    const MAX_WRITE: usize = usize::MAX;

    fn push(&mut self, ctx: &mut Ctx<'_>, dev: DeviceId, data: &[u8]) -> Option<usize> {
        let free = ctx.devio_read(dev, printer_regs::FIFO_FREE).unwrap_or(0) as usize;
        let take = data.len().min(free);
        if take > 0 {
            let _ = ctx.devio_write_block(dev, printer_regs::DATA, &data[..take]);
        }
        Some(take)
    }
}

/// Audio: DMA-stages whole sample blocks into the DAC's queue through a
/// 64 KB IOMMU window — a block is queued entirely or not at all.
#[derive(Debug, Default)]
pub struct AudioPort;

impl StreamDevice for AudioPort {
    const LABEL: &'static str = "audio";
    const MAX_WRITE: usize = 64 * 1024;

    fn bring_up(&mut self, ctx: &mut Ctx<'_>, dev: DeviceId) {
        if ctx.iommu_map(dev, 0, 0, 64 * 1024).is_err() {
            ctx.metrics().incr("drv.iommu_map_failed");
        }
        if ctx.devio_write(dev, audio_regs::CTRL, 1).is_err() {
            ctx.metrics().incr("drv.device_init_failed");
        }
    }

    fn push(&mut self, ctx: &mut Ctx<'_>, dev: DeviceId, block: &[u8]) -> Option<usize> {
        let queued = ctx.mem_write(0, block).is_ok()
            && ctx.devio_write(dev, audio_regs::BUF_ADDR, 0).is_ok()
            && ctx
                .devio_write(dev, audio_regs::BUF_LEN, block.len() as u32)
                .is_ok()
            && ctx.devio_write(dev, audio_regs::START, 1).is_ok();
        queued.then_some(block.len())
    }
}

/// The printer driver.
pub type PrinterDriver = StreamDriver<PrinterPort>;
/// The audio driver.
pub type AudioDriver = StreamDriver<AudioPort>;

/// A stream character driver: WRITEs flow through the fault-VM routine
/// into the [`StreamDevice`], deduplicated against the consumed
/// watermark when the request is logged.
pub struct StreamDriver<D> {
    dev: DeviceId,
    irq: IrqLine,
    device: D,
    routine: GuardedRoutine,
    fault_port: FaultPort,
    /// Checkpoint gate; off = the paper's original error-push mode.
    gate: StateGate,
    /// Bytes committed into the device (the consumed watermark).
    cursor: ConsumedCursor,
    /// Warm-spare state; `Some` while dormant, cleared at promotion.
    standby: Option<StandbyRole>,
}

impl<D: StreamDevice> StreamDriver<D> {
    /// Creates the driver in the paper's error-push mode.
    pub fn new(dev: DeviceId, irq: IrqLine, fault_port: FaultPort) -> Self {
        StreamDriver {
            dev,
            irq,
            device: D::default(),
            routine: GuardedRoutine::new(&routines::with_cold_section(routines::char_write(), 30)),
            fault_port,
            gate: StateGate::off(),
            cursor: ConsumedCursor::new(),
            standby: None,
        }
    }

    /// Enables checkpoint/replay support: the consumed watermark is
    /// snapshotted to the data store after every commit, and logged
    /// requests are deduplicated against it after a restart.
    pub fn with_checkpointing(mut self, ds: Endpoint) -> Self {
        self.gate = StateGate::on(ds, D::LABEL);
        self
    }

    /// Configures this incarnation as a warm spare (implies
    /// checkpointing): it boots dormant — off the device — and goes live
    /// only on RS's promote message.
    pub fn standby(mut self, ds: Endpoint) -> Self {
        self = self.with_checkpointing(ds);
        self.standby = Some(StandbyRole::new(ds, D::LABEL));
        self
    }

    /// Device bring-up, shared by a primary's init and a spare's
    /// promotion. Stays panic-free: it runs on the recovery path.
    fn go_live(&mut self, ctx: &mut Ctx<'_>) {
        self.fault_port
            .publish(&primary_name(ctx), self.routine.live());
        if ctx.irq_enable(self.irq).is_err() {
            ctx.metrics().incr("drv.irq_enable_failed");
        }
        self.device.bring_up(ctx, self.dev);
    }

    /// Handles `drv::PROMOTE`: deferred device bring-up, fault-port
    /// publication under the primary name, and warm adoption of the
    /// tailed watermark — no restore round-trip is ever issued.
    // analyze:recovery-root
    fn promote(&mut self, ctx: &mut Ctx<'_>, promote: drv::Promote) {
        let Some(role) = self.standby.take() else {
            return; // already live (duplicate promote)
        };
        if let Some(mark) = role.tail.watermark() {
            self.cursor.restore(mark);
        }
        // The recovery-episode tag the first served request stamps on its
        // `replay` timeline event.
        self.gate
            .adopt_warm(role.tail.seq(), promote.recovery, promote.span);
        self.go_live(ctx);
        ctx.metrics().incr("drv.promotions");
        let ev = ctx
            .event(TraceLevel::Info, format!("{} standby went live", D::LABEL))
            .with_field("ev", "promote_live")
            .with_field("seq", role.tail.seq())
            .in_recovery_opt(promote.recovery)
            .with_parent_opt(promote.span);
        ctx.trace_event(ev);
    }

    /// Serves a validated WRITE (the fault point has already run).
    /// `csum` is the payload byte-sum the VM routine computed; it is
    /// echoed in the reply (`csum_echo` = 1 + sum) so the VFS sentinel can
    /// verify the driver processed the payload it was sent.
    fn serve_write(
        &mut self,
        ctx: &mut Ctx<'_>,
        call: CallId,
        write: cdev::Write,
        data: &[u8],
        csum: u32,
    ) {
        ctx.metrics().incr("cdev.writes");
        let reply = |count: u64| cdev::Reply {
            status: match count {
                0 => status::EAGAIN,
                _ => status::OK,
            },
            count,
            csum_echo: 1 + u64::from(csum),
            ..Default::default()
        };
        let cdev::Write { seq, offset, .. } = write;
        if !self.gate.enabled() || seq == 0 {
            // Legacy path: push what the device takes, let the client loop.
            let msg = match self.device.push(ctx, self.dev, data) {
                Some(take) => reply(take as u64).into_message(),
                None => status_reply(status::EIO),
            };
            let _ = ctx.reply(call, msg);
            return;
        }
        let plan = self.cursor.plan(offset, data);
        if plan.dup_bytes > 0 {
            ctx.metrics().add("ckpt.dedup_bytes", plan.dup_bytes);
        }
        if plan.gap_bytes > 0 {
            // Watermark lost (missing/corrupt snapshot): the caller's log
            // is authoritative — it only ever acks committed bytes.
            ctx.metrics().incr("ckpt.watermark_jumps");
        }
        let mut accepted = plan.dup_bytes;
        if !plan.fresh.is_empty() {
            let Some(take) = self.device.push(ctx, self.dev, plan.fresh) else {
                let eio = cdev::Reply {
                    status: status::EIO,
                    consumed: self.cursor.committed(),
                    ack_seq: seq,
                    ..Default::default()
                };
                let _ = ctx.reply(call, eio.into_message());
                return;
            };
            if take > 0 {
                self.cursor.commit_at(plan.start, take as u64);
            }
            accepted += take as u64;
        }
        let consumed = self.cursor.committed();
        emit_replay_event(ctx, &mut self.gate, offset, plan.dup_bytes);
        if accepted > plan.dup_bytes {
            // Quiescent point: the commit is complete, ack not yet
            // sent — snapshot before acknowledging.
            self.gate.save_now(ctx, || consumed.to_le_bytes().to_vec());
        }
        let acked = cdev::Reply {
            consumed,
            ack_seq: seq,
            ..reply(accepted)
        };
        let _ = ctx.reply(call, acked.into_message());
    }
}

impl<D: StreamDevice> DriverLogic for StreamDriver<D> {
    fn init(&mut self, ctx: &mut Ctx<'_>) {
        if self.standby.is_some() {
            // Dormant spare: the primary owns the device — stay off it.
            ctx.trace(TraceLevel::Info, format!("{} standby dormant", D::LABEL));
            return;
        }
        self.go_live(ctx);
        ctx.trace(TraceLevel::Info, format!("{} driver ready", D::LABEL));
    }

    fn message(&mut self, ctx: &mut Ctx<'_>, msg: &Message) {
        match drv::Msg::decode(msg) {
            Some(drv::Msg::STANDBY(standby)) => {
                if let Some(role) = self.standby.as_mut() {
                    role.on_standby(ctx, standby);
                }
            }
            Some(drv::Msg::PROMOTE(promote)) => self.promote(ctx, promote),
            _ => {}
        }
    }

    fn alarm(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if let Some(role) = self.standby.as_mut() {
            role.on_alarm(ctx, token);
        }
    }

    fn request(&mut self, ctx: &mut Ctx<'_>, call: CallId, msg: &Message) {
        match cdev::Msg::decode(msg) {
            Some(cdev::Msg::OPEN) => {
                let _ = ctx.reply(call, status_reply(status::OK));
            }
            Some(cdev::Msg::WRITE(write)) => {
                let data = &msg.data;
                if data.is_empty() || data.len() > D::MAX_WRITE {
                    let _ = ctx.reply(call, status_reply(status::EINVAL));
                    return;
                }
                if self.gate.park(ctx, call, msg) {
                    return; // served after the snapshot restore
                }
                let Some(csum) = sum_payload(&mut self.routine, ctx, data, |len| len.max(16) + 16)
                else {
                    return; // dying
                };
                self.serve_write(ctx, call, write, data, csum);
            }
            // A reply, an input device's read, the burner's requests, or
            // another table's kind.
            Some(cdev::Msg::REPLY(_) | cdev::Msg::READ(_))
            | Some(
                cdev::Msg::BURN_START(_) | cdev::Msg::BURN_CHUNK(_) | cdev::Msg::BURN_FINALIZE(_),
            )
            | None => {
                let _ = ctx.reply(call, status_reply(status::EINVAL));
            }
        }
    }

    fn reply(&mut self, ctx: &mut Ctx<'_>, call: CallId, result: &Result<Message, IpcError>) {
        if let Some(role) = self.standby.as_mut() {
            if role.tail.on_reply(ctx, call, result) {
                return;
            }
        }
        let cursor = &mut self.cursor;
        let restored = self.gate.on_reply(ctx, call, result, |_, snap| {
            if let Some(mark) = snap.as_watermark() {
                cursor.restore(mark);
            }
        });
        for (call, msg) in restored.into_iter().flatten() {
            self.request(ctx, call, &msg);
        }
    }
}

/// SCSI CD burner driver. Burn state lives *in the device*; a restarted
/// driver that continues a burn will present the wrong chunk sequence and
/// the device will (correctly) ruin the disc — the §6.3 case where the
/// error must be reported to the user.
pub struct ScsiCdDriver {
    dev: DeviceId,
    irq: IrqLine,
    /// Chunk request awaiting the device's write-complete interrupt.
    pending: Option<CallId>,
    routine: GuardedRoutine,
    fault_port: FaultPort,
}

impl ScsiCdDriver {
    /// Creates the SCSI CD driver.
    pub fn new(dev: DeviceId, irq: IrqLine, fault_port: FaultPort) -> Self {
        ScsiCdDriver {
            dev,
            irq,
            pending: None,
            routine: GuardedRoutine::new(&routines::with_cold_section(routines::char_write(), 30)),
            fault_port,
        }
    }

    fn device_status(&self, ctx: &mut Ctx<'_>) -> u32 {
        ctx.devio_read(self.dev, scsi_regs::STATUS)
            .unwrap_or(scsi_status::RUINED)
    }
}

impl DriverLogic for ScsiCdDriver {
    fn init(&mut self, ctx: &mut Ctx<'_>) {
        self.fault_port
            .publish(ctx.self_name(), self.routine.live());
        ctx.irq_enable(self.irq)
            .expect("driver privilege grants its IRQ");
        ctx.iommu_map(self.dev, 0, 0, 64 * 1024)
            .expect("map burn buffer");
        ctx.trace(TraceLevel::Info, "scsi cd driver ready".to_string());
    }

    fn request(&mut self, ctx: &mut Ctx<'_>, call: CallId, msg: &Message) {
        match cdev::Msg::decode(msg) {
            Some(cdev::Msg::OPEN) => {
                let _ = ctx.reply(call, status_reply(status::OK));
            }
            Some(cdev::Msg::BURN_START(start)) => {
                let total = start.chunks as u32;
                let _ = ctx.devio_write(self.dev, scsi_regs::TOTAL_CHUNKS, total);
                let _ = ctx.devio_write(self.dev, scsi_regs::CMD, scsi_cmd::START_BURN);
                let st = if self.device_status(ctx) == scsi_status::BURNING {
                    status::OK
                } else {
                    status::EIO
                };
                let _ = ctx.reply(call, status_reply(st));
            }
            Some(cdev::Msg::BURN_CHUNK(chunk)) => {
                let seq = chunk.index as u32;
                let data = &msg.data;
                if data.is_empty() || data.len() > 64 * 1024 {
                    let _ = ctx.reply(call, status_reply(status::EINVAL));
                    return;
                }
                if sum_payload(&mut self.routine, ctx, data, |len| len + 16).is_none() {
                    return;
                }
                if ctx.mem_write(0, data).is_err() {
                    let _ = ctx.reply(call, status_reply(status::EIO));
                    return;
                }
                let _ = ctx.devio_write(self.dev, scsi_regs::CHUNK_SEQ, seq);
                let _ = ctx.devio_write(self.dev, scsi_regs::DMA_ADDR, 0);
                let _ = ctx.devio_write(self.dev, scsi_regs::CHUNK_LEN, data.len() as u32);
                let _ = ctx.devio_write(self.dev, scsi_regs::CMD, scsi_cmd::WRITE_CHUNK);
                match self.device_status(ctx) {
                    scsi_status::BURNING => {
                        // The laser is writing; reply on the completion
                        // interrupt so the client is paced by the medium.
                        self.pending = Some(call);
                    }
                    _ => {
                        // Disc ruined: error pushed up to the application.
                        let _ = ctx.reply(call, status_reply(status::EIO));
                    }
                }
            }
            Some(cdev::Msg::BURN_FINALIZE(_)) => {
                let _ = ctx.devio_write(self.dev, scsi_regs::CMD, scsi_cmd::FINALIZE);
                let st = if self.device_status(ctx) == scsi_status::COMPLETE {
                    status::OK
                } else {
                    status::EIO
                };
                let _ = ctx.reply(call, status_reply(st));
            }
            Some(cdev::Msg::REPLY(_) | cdev::Msg::WRITE(_) | cdev::Msg::READ(_)) | None => {
                let _ = ctx.reply(call, status_reply(status::EINVAL));
            }
        }
    }

    fn irq(&mut self, ctx: &mut Ctx<'_>) {
        let Some(call) = self.pending.take() else {
            return;
        };
        let st = match self.device_status(ctx) {
            scsi_status::BURNING | scsi_status::COMPLETE => status::OK,
            _ => status::EIO,
        };
        let _ = ctx.reply(call, status_reply(st));
    }
}

/// Keyboard/serial input driver (the §6.3 *input* case).
///
/// The driver drains the UART's tiny hardware FIFO into its own line
/// buffer on every interrupt, and serves [`cdev::READ`] requests from that
/// buffer. The buffer is ordinary process state: when the driver crashes,
/// **every byte it had drained but not yet delivered is lost** — "input
/// might be lost because it can only be read from the controller once."
pub struct KeyboardDriver {
    dev: DeviceId,
    irq: IrqLine,
    /// Drained-but-undelivered input; dies with the driver — unless it
    /// is checkpointed to the data store after every change.
    line_buf: Vec<u8>,
    routine: GuardedRoutine,
    fault_port: FaultPort,
    /// Checkpoint gate; off = the paper's original lossy mode.
    gate: StateGate,
}

impl KeyboardDriver {
    /// Creates the keyboard driver.
    pub fn new(dev: DeviceId, irq: IrqLine, fault_port: FaultPort) -> Self {
        KeyboardDriver {
            dev,
            irq,
            line_buf: Vec::new(),
            routine: GuardedRoutine::new(&routines::with_cold_section(routines::char_write(), 30)),
            fault_port,
            gate: StateGate::off(),
        }
    }

    /// Enables line-buffer checkpointing: input drained from the UART
    /// (readable only once) survives a driver restart because the buffer
    /// is snapshotted outside the driver after every change.
    pub fn with_checkpointing(mut self, ds: Endpoint) -> Self {
        self.gate = StateGate::on(ds, "kbd");
        self
    }

    fn save_line_buf(&mut self, ctx: &mut Ctx<'_>) {
        self.gate.save_now(ctx, || self.line_buf.clone());
    }
}

impl DriverLogic for KeyboardDriver {
    fn init(&mut self, ctx: &mut Ctx<'_>) {
        self.fault_port
            .publish(ctx.self_name(), self.routine.live());
        ctx.irq_enable(self.irq)
            .expect("driver privilege grants its IRQ");
        ctx.trace(TraceLevel::Info, "keyboard driver ready".to_string());
    }

    fn request(&mut self, ctx: &mut Ctx<'_>, call: CallId, msg: &Message) {
        match cdev::Msg::decode(msg) {
            Some(cdev::Msg::OPEN) => {
                let _ = ctx.reply(call, status_reply(status::OK));
            }
            Some(cdev::Msg::READ(read)) => {
                if self.gate.park(ctx, call, msg) {
                    return; // served after the snapshot restore
                }
                let want = (read.len as usize).min(4096);
                let n = want.min(self.line_buf.len());
                let mut csum = 0u32;
                if n > 0 {
                    // The per-byte processing loop runs on the fault VM so
                    // the §7.2 campaign can target input drivers too.
                    let line = &self.line_buf[..n];
                    let vm = self.routine.run(ctx, n + 16, |vm| {
                        vm.mem[0..n].copy_from_slice(line);
                        vm.regs[routines::reg::A0 as usize] = n as u32;
                    });
                    let Some(vm) = vm else {
                        return; // dying; buffered input dies with us
                    };
                    csum = vm.regs[routines::reg::RES as usize];
                }
                let data: Vec<u8> = self.line_buf.drain(..n).collect();
                emit_replay_event(ctx, &mut self.gate, 0, n as u64);
                if n > 0 {
                    // Delivered bytes must leave the snapshot, or a later
                    // restore would re-deliver them.
                    self.save_line_buf(ctx);
                }
                // Echo the routine's byte-sum only when it ran (n > 0);
                // 0 = no echo, so empty reads stay sentinel-neutral.
                let echo = if n > 0 { 1 + u64::from(csum) } else { 0 };
                let reply = cdev::Reply {
                    status: status::OK,
                    count: n as u64,
                    csum_echo: echo,
                    ..Default::default()
                };
                let _ = ctx.reply(call, reply.into_message().with_data(data));
            }
            // A reply, an output device's write, the burner's requests, or
            // another table's kind.
            Some(cdev::Msg::REPLY(_) | cdev::Msg::WRITE(_))
            | Some(
                cdev::Msg::BURN_START(_) | cdev::Msg::BURN_CHUNK(_) | cdev::Msg::BURN_FINALIZE(_),
            )
            | None => {
                let _ = ctx.reply(call, status_reply(status::EINVAL));
            }
        }
    }

    fn irq(&mut self, ctx: &mut Ctx<'_>) {
        // Drain the hardware FIFO completely: it is tiny, and anything
        // left there risks an overrun on the next arrival.
        let mut drained = 0usize;
        loop {
            let avail = ctx.devio_read(self.dev, uart_regs::AVAILABLE).unwrap_or(0) as usize;
            if avail == 0 {
                break;
            }
            match ctx.devio_read_block(self.dev, uart_regs::DATA, avail) {
                Ok(bytes) => {
                    drained += bytes.len();
                    self.line_buf.extend_from_slice(&bytes);
                }
                Err(_) => break,
            }
        }
        // Input can arrive before the first READ: start the restore now
        // so drained-but-undelivered bytes get merged (restored prefix
        // first) instead of shadowing the snapshot.
        self.gate.ensure_restore(ctx);
        if drained > 0 {
            self.save_line_buf(ctx);
        }
    }

    fn reply(&mut self, ctx: &mut Ctx<'_>, call: CallId, result: &Result<Message, IpcError>) {
        let line_buf = &mut self.line_buf;
        let restored = self.gate.on_reply(ctx, call, result, |_, snap| {
            // Restored bytes were drained before the crash — they come
            // first; anything drained since the restart follows them.
            let mut merged = snap.payload.clone();
            merged.extend_from_slice(line_buf);
            *line_buf = merged;
        });
        let Some(parked) = restored else {
            return;
        };
        self.save_line_buf(ctx);
        for (call, msg) in parked {
            self.request(ctx, call, &msg);
        }
    }
}
