//! Driver-side checkpoint client: lazy restore on (re)start, fire-and-
//! forget saves, request parking, and recovery-episode threading.
//!
//! ## Why restore is lazy
//!
//! A restarted driver's `init` runs *before* RS re-publishes its new
//! endpoint in DS, so a restore issued from `init` would fail the
//! store's owner check (the stable name still maps to the dead
//! incarnation). Client traffic, however, can only arrive *after* the
//! publish — VFS learns the fresh endpoint from DS. The state machine
//! therefore restores on the first incoming request: park the request,
//! fetch the snapshot, then serve the parked backlog. The extra
//! round-trip costs one DS exchange per incarnation, not per request.

use std::collections::BTreeSet;

use phoenix_kernel::system::Ctx;
use phoenix_kernel::types::{CallId, Endpoint, IpcError, Message};
use phoenix_simcore::trace::{RecoveryId, SpanId, TraceLevel};

use crate::proto::{ckpt, ckpt_status};
use crate::snapshot::Snapshot;

/// How a completed restore resolved.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RestoreEvent {
    /// A valid snapshot was returned.
    Restored(Snapshot),
    /// No snapshot on record (first boot, or store lost it) — start
    /// from zero; the caller-held log remains authoritative.
    Missing,
    /// The record was rejected (CRC failure / denied) — same fallback
    /// as [`RestoreEvent::Missing`], but worth a counter.
    Rejected,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Fresh,
    Restoring,
    Ready,
}

/// Per-driver checkpoint state machine.
#[derive(Debug)]
pub struct DriverCkpt {
    ds: Endpoint,
    key: String,
    phase: Phase,
    restore_call: Option<CallId>,
    save_calls: BTreeSet<CallId>,
    next_seq: u64,
    parked: Vec<(CallId, Message)>,
    recovery: Option<RecoveryId>,
    span: Option<SpanId>,
    replay_pending: bool,
    /// Saves that errored at send time or were rejected by the store.
    pub saves_failed: u64,
}

impl DriverCkpt {
    /// A checkpoint client publishing under `key` (unique per driver;
    /// the store additionally scopes records by the owner's stable
    /// published name).
    pub fn new(ds: Endpoint, key: impl Into<String>) -> Self {
        DriverCkpt {
            ds,
            key: key.into(),
            phase: Phase::Fresh,
            restore_call: None,
            save_calls: BTreeSet::new(),
            next_seq: 0,
            parked: Vec::new(),
            recovery: None,
            span: None,
            replay_pending: false,
            saves_failed: 0,
        }
    }

    /// Whether the restore handshake has completed.
    pub fn ready(&self) -> bool {
        self.phase == Phase::Ready
    }

    /// Parks `(call, msg)` until the snapshot restore completes,
    /// starting the restore on the first request of this incarnation.
    /// Returns `true` if the request was parked (the caller must not
    /// serve it now); `false` once the driver is ready.
    // analyze:recovery-root
    pub fn park_until_restored(&mut self, ctx: &mut Ctx, call: CallId, msg: Message) -> bool {
        match self.phase {
            Phase::Ready => false,
            Phase::Restoring => {
                self.parked.push((call, msg));
                true
            }
            Phase::Fresh => {
                self.begin_restore(ctx);
                if self.phase == Phase::Ready {
                    // The restore could not even be sent; serve degraded.
                    return false;
                }
                self.parked.push((call, msg));
                true
            }
        }
    }

    /// Starts the snapshot restore if it has not begun yet — for paths
    /// with no request to park, e.g. an input driver's IRQ handler.
    // analyze:recovery-root
    pub fn ensure_restore(&mut self, ctx: &mut Ctx) {
        if self.phase == Phase::Fresh {
            self.begin_restore(ctx);
        }
    }

    fn begin_restore(&mut self, ctx: &mut Ctx) {
        let req = Message::new(ckpt::RESTORE).with_data(self.key.clone().into_bytes());
        match ctx.sendrec(self.ds, req) {
            Ok(call) => {
                self.restore_call = Some(call);
                self.phase = Phase::Restoring;
            }
            Err(_) => {
                // DS unreachable: degrade to log-only recovery rather
                // than wedging the driver.
                ctx.metrics().incr("ckpt.restore_send_failed");
                self.phase = Phase::Ready;
            }
        }
    }

    /// Routes a `ProcEvent::Reply`. Returns `Some((event, parked))` when
    /// it completed the restore handshake: the caller applies the event
    /// and then serves the parked backlog. Save acknowledgments are
    /// consumed silently (counters only).
    #[allow(clippy::type_complexity)]
    // analyze:recovery-root
    pub fn on_reply(
        &mut self,
        ctx: &mut Ctx,
        call: CallId,
        result: &Result<Message, IpcError>,
    ) -> Option<(RestoreEvent, Vec<(CallId, Message)>)> {
        if self.save_calls.remove(&call) {
            match result {
                Ok(reply) if reply.mtype != ckpt::SAVE_REPLY => {
                    // Wrong-type reply: a garbled or misdirected message
                    // must not be decoded as a save outcome.
                    self.saves_failed += 1;
                    ctx.metrics().incr("ckpt.save_bad_reply");
                    ctx.trace(
                        TraceLevel::Warn,
                        format!("checkpoint save got reply type {:#x}", reply.mtype),
                    );
                }
                Ok(reply) if reply.param(0) == ckpt_status::OK => {
                    ctx.metrics().incr("ckpt.saves_acked");
                }
                Ok(reply) => {
                    self.saves_failed += 1;
                    ctx.metrics().incr("ckpt.saves_rejected");
                    ctx.trace(
                        TraceLevel::Warn,
                        format!("checkpoint save rejected: status {}", reply.param(0)),
                    );
                }
                Err(_) => {
                    // DS died mid-save; the next save supersedes it.
                    self.saves_failed += 1;
                    ctx.metrics().incr("ckpt.saves_aborted");
                }
            }
            return None;
        }
        if self.restore_call != Some(call) {
            return None;
        }
        self.restore_call = None;
        self.phase = Phase::Ready;
        let event = match result {
            Err(_) => {
                ctx.metrics().incr("ckpt.restore_aborted");
                RestoreEvent::Missing
            }
            Ok(reply) if reply.mtype != ckpt::RESTORE_REPLY => {
                // Wrong-type reply: don't interpret foreign params as a
                // snapshot; fall back to fresh state.
                ctx.metrics().incr("ckpt.restore_bad_reply");
                RestoreEvent::Rejected
            }
            Ok(reply) => {
                self.recovery = RecoveryId::from_wire(reply.param(1));
                self.span = SpanId::from_wire(reply.param(2));
                match reply.param(0) {
                    s if s == ckpt_status::OK => match Snapshot::decode(&reply.data) {
                        Ok(snap) => {
                            self.next_seq = snap.seq;
                            ctx.metrics().incr("ckpt.restores");
                            RestoreEvent::Restored(snap)
                        }
                        Err(_) => {
                            ctx.metrics().incr("ckpt.restore_corrupt");
                            RestoreEvent::Rejected
                        }
                    },
                    s if s == ckpt_status::NOT_FOUND => {
                        ctx.metrics().incr("ckpt.restore_missing");
                        RestoreEvent::Missing
                    }
                    _ => {
                        ctx.metrics().incr("ckpt.restore_corrupt");
                        RestoreEvent::Rejected
                    }
                }
            }
        };
        self.replay_pending = self.recovery.is_some();
        let ev = ctx
            .event(TraceLevel::Info, format!("checkpoint restore: {event:?}"))
            .with_field("ev", "restore")
            .with_field("key", self.key.clone())
            .in_recovery_opt(self.recovery)
            .with_parent_opt(self.span);
        ctx.trace_event(ev);
        Some((event, std::mem::take(&mut self.parked)))
    }

    /// Publishes a snapshot payload (fire-and-forget; the reply is
    /// consumed by [`DriverCkpt::on_reply`]). The frame is tagged with
    /// this incarnation's endpoint generation and the next sequence.
    // analyze:recovery-root
    pub fn save(&mut self, ctx: &mut Ctx, payload: Vec<u8>) {
        self.next_seq += 1;
        let snap = Snapshot::new(ctx.self_endpoint().generation(), self.next_seq, payload);
        let mut data = self.key.clone().into_bytes();
        let key_len = data.len() as u64;
        data.extend_from_slice(&snap.encode());
        let req = Message::new(ckpt::SAVE)
            .with_param(0, key_len)
            .with_data(data);
        match ctx.sendrec(self.ds, req) {
            Ok(call) => {
                self.save_calls.insert(call);
                ctx.metrics().incr("ckpt.saves");
            }
            Err(_) => {
                self.saves_failed += 1;
                ctx.metrics().incr("ckpt.saves_aborted");
            }
        }
    }

    /// Adopts warm tailed state at promotion time: a hot spare that has
    /// been replaying the primary's checkpoint frames already holds the
    /// state a restore would fetch, so the handshake is skipped entirely
    /// — the client goes straight to `Ready` at the tailed sequence.
    /// `rid`/`span` come from RS's promote message and tag the replay
    /// event of the first request served, like a restore would.
    // analyze:recovery-root
    pub fn adopt_warm(&mut self, seq: u64, rid: Option<RecoveryId>, span: Option<SpanId>) {
        self.phase = Phase::Ready;
        self.restore_call = None;
        self.next_seq = self.next_seq.max(seq);
        self.recovery = rid;
        self.span = span;
        self.replay_pending = rid.is_some();
    }

    /// Consumes the one-shot replay tag: `Some((rid, span))` exactly
    /// once, on the first request served after a post-recovery restore.
    /// The driver emits the timeline's `replay` event with it.
    // analyze:recovery-root
    pub fn take_replay_tag(&mut self) -> Option<(RecoveryId, Option<SpanId>)> {
        if !self.replay_pending {
            return None;
        }
        self.replay_pending = false;
        self.recovery.map(|rid| (rid, self.span))
    }
}
