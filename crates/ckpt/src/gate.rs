//! The externalised-state gate: the crash-only contract, written once.
//!
//! A crash-only component (Microreboot's rule) keeps its state in a
//! store and rehydrates it before serving. Every checkpointed component
//! — VFS, MFS, INET, PM and the printer/audio/keyboard drivers — obeys
//! the same four rules around its [`DriverCkpt`], and this gate is the
//! one place they are implemented:
//!
//! 1. **No request before restore.** The first request of an incarnation
//!    starts the restore; it and everything behind it is parked.
//! 2. **Restore → apply → replay.** When the snapshot arrives the
//!    component's `apply` runs first, then the parked backlog is handed
//!    back in arrival order.
//! 3. **Quiescent-point save.** State changes only mark the gate dirty;
//!    one save goes out at the end of the event, and none while the
//!    restore is still in flight.
//! 4. **Off is a value, not a branch.** A gate that is off never parks,
//!    never saves and is always ready, so components carry no
//!    `Option<DriverCkpt>` of their own.

use phoenix_kernel::system::Ctx;
use phoenix_kernel::types::{CallId, Endpoint, IpcError, Message};
use phoenix_simcore::trace::{RecoveryId, SpanId};

use crate::driver::{DriverCkpt, RestoreEvent};
use crate::snapshot::Snapshot;

/// One component's checkpoint client plus its dirty flag.
#[derive(Debug, Default)]
pub struct StateGate {
    ckpt: Option<DriverCkpt>,
    dirty: bool,
}

impl StateGate {
    /// A gate for a component that does not externalise its state.
    pub fn off() -> Self {
        StateGate::default()
    }

    /// A gate checkpointing under `key` against the store hosted by `ds`.
    pub fn on(ds: Endpoint, key: &str) -> Self {
        StateGate {
            ckpt: Some(DriverCkpt::new(ds, key)),
            dirty: false,
        }
    }

    /// Whether the component externalises state at all.
    pub fn enabled(&self) -> bool {
        self.ckpt.is_some()
    }

    /// Whether requests may be served now (always, when off).
    pub fn ready(&self) -> bool {
        self.ckpt.as_ref().is_none_or(DriverCkpt::ready)
    }

    /// Rule 1: `true` if the request was parked behind the restore and
    /// must not be served now.
    // analyze:recovery-root
    pub fn park(&mut self, ctx: &mut Ctx<'_>, call: CallId, msg: &Message) -> bool {
        match self.ckpt.as_mut() {
            Some(ckpt) if !ckpt.ready() => ckpt.park_until_restored(ctx, call, msg.clone()),
            _ => false,
        }
    }

    /// Starts the restore on a path with no request to park (an input
    /// driver's IRQ, a frame racing INET's restore).
    // analyze:recovery-root
    pub fn ensure_restore(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(ckpt) = self.ckpt.as_mut() {
            ckpt.ensure_restore(ctx);
        }
    }

    /// Rule 2. Routes a `ProcEvent::Reply`: save acknowledgements are
    /// consumed (`None`, like any reply that is not the gate's); the
    /// restore reply runs `apply` on a valid snapshot and returns the
    /// parked backlog, oldest first, for the caller to serve.
    // analyze:recovery-root
    pub fn on_reply(
        &mut self,
        ctx: &mut Ctx<'_>,
        call: CallId,
        result: &Result<Message, IpcError>,
        apply: impl FnOnce(&mut Ctx<'_>, &Snapshot),
    ) -> Option<Vec<(CallId, Message)>> {
        let (event, parked) = self.ckpt.as_mut()?.on_reply(ctx, call, result)?;
        if let RestoreEvent::Restored(snap) = &event {
            apply(ctx, snap);
        }
        Some(parked)
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
        if !self.dirty {
            return;
        }
        match self.ckpt.as_mut() {
            Some(ckpt) if ckpt.ready() => ckpt.save(ctx, encode()),
            Some(_) => return,
            None => {}
        }
        self.dirty = false;
    }

    /// Publishes `encode()` right now, for a driver whose quiescent point
    /// is mid-request (commit done, acknowledgement not yet sent).
    // analyze:recovery-root
    pub fn save_now(&mut self, ctx: &mut Ctx<'_>, encode: impl FnOnce() -> Vec<u8>) {
        if let Some(ckpt) = self.ckpt.as_mut().filter(|c| c.ready()) {
            ckpt.save(ctx, encode());
        }
    }

    /// See [`DriverCkpt::adopt_warm`].
    // analyze:recovery-root
    pub fn adopt_warm(&mut self, seq: u64, rid: Option<RecoveryId>, span: Option<SpanId>) {
        if let Some(ckpt) = self.ckpt.as_mut() {
            ckpt.adopt_warm(seq, rid, span);
        }
    }

    /// See [`DriverCkpt::take_replay_tag`].
    // analyze:recovery-root
    pub fn take_replay_tag(&mut self) -> Option<(RecoveryId, Option<SpanId>)> {
        self.ckpt.as_mut()?.take_replay_tag()
    }
}
