//! The externalised-state gate: a component's checkpoint client and the
//! crash-only contract around it, written once.
//!
//! A crash-only component (Microreboot's rule) keeps its state in a
//! store and rehydrates it before serving. Every checkpointed component
//! — VFS, MFS, INET, PM and the printer/audio/keyboard drivers — obeys
//! the same four rules, and this gate is the one place they are
//! implemented:
//!
//! 1. **No request before restore.** The first request of an incarnation
//!    starts the restore; it and everything behind it is parked.
//! 2. **Restore → apply → replay.** When the snapshot arrives the
//!    component's `apply` runs first, then the parked backlog is handed
//!    back in arrival order.
//! 3. **Quiescent-point save.** State changes only mark the gate dirty;
//!    one fire-and-forget save goes out at the end of the event, and none
//!    while the restore is still in flight.
//! 4. **Off is a phase, not a branch.** A gate that is off never parks,
//!    never saves and is always ready, so components carry no `Option` of
//!    their own.
//!
//! ## Why restore is lazy
//!
//! A restarted driver's `init` runs *before* RS re-publishes its new
//! endpoint in DS, so a restore issued from `init` would fail the
//! store's owner check (the stable name still maps to the dead
//! incarnation). Client traffic, however, can only arrive *after* the
//! publish — VFS learns the fresh endpoint from DS. The gate therefore
//! restores on the first incoming request: park the request, fetch the
//! snapshot, then serve the parked backlog. The extra round-trip costs
//! one DS exchange per incarnation, not per request.
//!
//! A system without failure handling keeps no checkpoints, so the whole
//! module is recovery code in Fig. 9's count:
//! analyze:recovery

use std::collections::BTreeSet;

use phoenix_kernel::system::Ctx;
use phoenix_kernel::types::{CallId, Endpoint, IpcError, Message};
use phoenix_simcore::trace::{RecoveryId, SpanId, TraceLevel};

use crate::proto::{ckpt, ckpt_status};
use crate::snapshot::Snapshot;

/// How a completed restore resolved (named in the restore trace line).
#[derive(Debug)]
enum RestoreEvent {
    /// A valid snapshot was returned.
    Restored(Snapshot),
    /// No snapshot on record (first boot, or store lost it) — start
    /// from zero; the caller-held log remains authoritative.
    Missing,
    /// The record was rejected (CRC failure / denied) — same fallback
    /// as [`RestoreEvent::Missing`], but worth a counter.
    Rejected,
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum Phase {
    /// The component does not externalise state.
    #[default]
    Off,
    /// Nothing asked of the store yet.
    Fresh,
    /// The restore is in flight; requests park.
    Restoring,
    /// Restored (or degraded to a clean slate); serving and saving.
    Ready,
}

/// One component's checkpoint client plus its dirty flag.
#[derive(Debug, Default)]
pub struct StateGate {
    ds: Endpoint,
    key: String,
    phase: Phase,
    dirty: bool,
    restore_call: Option<CallId>,
    save_calls: BTreeSet<CallId>,
    next_seq: u64,
    parked: Vec<(CallId, Message)>,
    recovery: Option<RecoveryId>,
    span: Option<SpanId>,
    replay_pending: bool,
}

impl StateGate {
    /// A gate for a component that does not externalise its state.
    pub fn off() -> Self {
        StateGate::default()
    }

    /// A gate checkpointing under `key` (unique per component; the store
    /// additionally scopes records by the owner's stable published name)
    /// against the store hosted by `ds`.
    pub fn on(ds: Endpoint, key: &str) -> Self {
        StateGate {
            ds,
            key: key.to_string(),
            phase: Phase::Fresh,
            ..StateGate::default()
        }
    }

    /// Whether the component externalises state at all.
    pub fn enabled(&self) -> bool {
        self.phase != Phase::Off
    }

    /// Whether requests may be served now (always, when off).
    pub fn ready(&self) -> bool {
        matches!(self.phase, Phase::Off | Phase::Ready)
    }

    /// Rule 1: `true` if the request was parked behind the restore and
    /// must not be served now. The first request of an incarnation
    /// starts the restore.
    // analyze:recovery-root
    pub fn park(&mut self, ctx: &mut Ctx<'_>, call: CallId, msg: &Message) -> bool {
        self.ensure_restore(ctx);
        if self.phase != Phase::Restoring {
            // Off, ready, or the restore could not even be sent and the
            // component serves degraded.
            return false;
        }
        self.parked.push((call, msg.clone()));
        true
    }

    /// Starts the restore if it has not begun yet — also for paths with
    /// no request to park (an input driver's IRQ, a frame racing INET's
    /// restore).
    // analyze:recovery-root
    pub fn ensure_restore(&mut self, ctx: &mut Ctx<'_>) {
        if self.phase != Phase::Fresh {
            return;
        }
        let req = Message::new(ckpt::RESTORE).with_data(self.key.clone().into_bytes());
        match ctx.sendrec(self.ds, req) {
            Ok(call) => {
                self.restore_call = Some(call);
                self.phase = Phase::Restoring;
            }
            Err(_) => {
                // DS unreachable: degrade to log-only recovery rather
                // than wedging the component.
                ctx.metrics().incr("ckpt.restore_send_failed");
                self.phase = Phase::Ready;
            }
        }
    }

    /// Rule 2. Routes a `ProcEvent::Reply`: save acknowledgements are
    /// consumed (`None`, like any reply that is not the gate's, counters
    /// only); the restore reply runs `apply` on a valid snapshot and
    /// returns the parked backlog, oldest first, for the caller to serve.
    // analyze:recovery-root
    pub fn on_reply(
        &mut self,
        ctx: &mut Ctx<'_>,
        call: CallId,
        result: &Result<Message, IpcError>,
        apply: impl FnOnce(&mut Ctx<'_>, &Snapshot),
    ) -> Option<Vec<(CallId, Message)>> {
        if self.save_calls.remove(&call) {
            Self::save_replied(ctx, result);
            return None;
        }
        if self.restore_call != Some(call) {
            return None;
        }
        self.restore_call = None;
        self.phase = Phase::Ready;
        let reply = result
            .as_ref()
            .map(|m| (ckpt::RestoreReply::from_message(m), &m.data));
        let event = match reply {
            Err(_) => {
                ctx.metrics().incr("ckpt.restore_aborted");
                RestoreEvent::Missing
            }
            Ok((None, _)) => {
                // Wrong-type reply: don't interpret foreign params as a
                // snapshot; fall back to fresh state.
                ctx.metrics().incr("ckpt.restore_bad_reply");
                RestoreEvent::Rejected
            }
            Ok((Some(reply), data)) => {
                self.recovery = reply.recovery;
                self.span = reply.span;
                match reply.status {
                    s if s == ckpt_status::OK => match Snapshot::decode(data) {
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
        if let RestoreEvent::Restored(snap) = &event {
            apply(ctx, snap);
        }
        Some(std::mem::take(&mut self.parked))
    }

    /// The store answered a save.
    fn save_replied(ctx: &mut Ctx<'_>, result: &Result<Message, IpcError>) {
        let reply = result
            .as_ref()
            .map(|m| (ckpt::SaveReply::from_message(m), m.mtype));
        match reply {
            Ok((None, mtype)) => {
                // Wrong-type reply: a garbled or misdirected message
                // must not be decoded as a save outcome.
                ctx.metrics().incr("ckpt.save_bad_reply");
                ctx.trace(
                    TraceLevel::Warn,
                    format!("checkpoint save got reply type {mtype:#x}"),
                );
            }
            Ok((Some(reply), _)) if reply.status == ckpt_status::OK => {
                ctx.metrics().incr("ckpt.saves_acked");
            }
            Ok((Some(reply), _)) => {
                ctx.metrics().incr("ckpt.saves_rejected");
                ctx.trace(
                    TraceLevel::Warn,
                    format!("checkpoint save rejected: status {}", reply.status),
                );
            }
            // DS died mid-save; the next save supersedes it.
            Err(_) => ctx.metrics().incr("ckpt.saves_aborted"),
        }
    }

    /// Records that externalised state changed during this event.
    pub fn mark_dirty(&mut self) {
        self.dirty = true;
    }

    /// Rule 3: at the end of an event, publishes `encode()` if anything
    /// changed — unless the restore is still in flight, in which case
    /// the gate stays dirty and the next event retries.
    // analyze:recovery-root
    pub fn save_if_dirty(&mut self, ctx: &mut Ctx<'_>, encode: impl FnOnce() -> Vec<u8>) {
        if self.dirty && self.ready() {
            self.save_now(ctx, encode);
            self.dirty = false;
        }
    }

    /// Publishes `encode()` right now, for a driver whose quiescent point
    /// is mid-request (commit done, acknowledgement not yet sent). The
    /// frame is tagged with this incarnation's endpoint generation and
    /// the next sequence; the reply is consumed by [`StateGate::on_reply`].
    // analyze:recovery-root
    pub fn save_now(&mut self, ctx: &mut Ctx<'_>, encode: impl FnOnce() -> Vec<u8>) {
        if self.phase != Phase::Ready {
            return;
        }
        self.next_seq += 1;
        let snap = Snapshot::new(ctx.self_endpoint().generation(), self.next_seq, encode());
        let mut data = self.key.clone().into_bytes();
        let key_len = data.len() as u64;
        data.extend_from_slice(&snap.encode());
        let req = ckpt::Save { key_len }.into_message().with_data(data);
        match ctx.sendrec(self.ds, req) {
            Ok(call) => {
                self.save_calls.insert(call);
                ctx.metrics().incr("ckpt.saves");
            }
            Err(_) => ctx.metrics().incr("ckpt.saves_aborted"),
        }
    }

    /// Adopts warm tailed state at promotion time: a hot spare that has
    /// been replaying the primary's checkpoint frames already holds the
    /// state a restore would fetch, so the handshake is skipped entirely
    /// — the gate goes straight to ready at the tailed sequence.
    /// `rid`/`span` come from RS's promote message and tag the replay
    /// event of the first request served, like a restore would.
    // analyze:recovery-root
    pub fn adopt_warm(&mut self, seq: u64, rid: Option<RecoveryId>, span: Option<SpanId>) {
        if self.phase == Phase::Off {
            return;
        }
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
