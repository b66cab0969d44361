//! The data store (§5.3): naming, publish-subscribe, and private state
//! backup.
//!
//! The data store is "a simple name server that stores stable component
//! names along with the component's current IPC endpoint". The
//! reincarnation server keeps the naming records up to date; dependent
//! components subscribe to prefix patterns (the network server registers
//! `eth.*`) and are notified when a matching record changes, which is what
//! kicks off their own reintegration procedure after a driver restart.
//!
//! Private state lives in the checkpoint-store extension (`phoenix-ckpt`:
//! `ckpt::SAVE` / `RESTORE` / `TAIL` / `PROMOTE`): stateful components
//! back up snapshots and restore them after a restart; ownership is
//! authenticated against the *stable name* bound to the caller's endpoint
//! in the naming records, so a restarted incarnation (new endpoint, same
//! name) can still read its own backups.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use phoenix_ckpt::proto::{ckpt, ckpt_status};
use phoenix_ckpt::{CheckpointStore, RestoreOutcome, SaveOutcome};
use phoenix_drivers::proto::drv;
use phoenix_kernel::process::{ProcEvent, Process};
use phoenix_kernel::system::Ctx;
use phoenix_kernel::types::{Endpoint, Message};
use phoenix_simcore::trace::{RecoveryId, SpanId, TraceLevel};

use crate::proto::ds;

/// Status codes in DS replies.
pub mod ds_status {
    /// Success.
    pub const OK: u64 = 0;
    /// No pending update (CHECK drained the queue).
    pub const NO_UPDATE: u64 = 11;
    /// Caller may not publish (only the reincarnation server may).
    pub const DENIED: u64 = 13;
    /// Malformed or unknown request.
    pub const BAD_REQUEST: u64 = 22;
}

#[derive(Debug, Clone)]
struct Subscription {
    subscriber: Endpoint,
    /// Prefix before the `*` wildcard (or whole key for exact match).
    prefix: String,
    exact: bool,
}

impl Subscription {
    fn matches(&self, key: &str) -> bool {
        if self.exact {
            key == self.prefix
        } else {
            key.starts_with(&self.prefix)
        }
    }
}

/// The recovery episode behind a publish and its root span (`None` on a
/// boot-time publish).
type Episode = (Option<RecoveryId>, Option<SpanId>);

/// The data store server.
#[derive(Debug)]
pub struct DataStore {
    /// Who may publish naming records (the reincarnation server).
    publisher: Option<Endpoint>,
    names: BTreeMap<String, Endpoint>,
    subs: Vec<Subscription>,
    /// Pending `(key, endpoint, episode)` updates per subscriber, drained
    /// by CHECK. The episode lets a subscriber tag its reintegration work
    /// with the recovery that caused the update.
    pending: BTreeMap<Endpoint, VecDeque<(String, Endpoint, Episode)>>,
    /// Driver checkpoint store (the `phoenix-ckpt` DS extension). Shared
    /// with the embedding `Os` so tests and benches can inspect — or
    /// tamper with — records at rest. `None` = extension disabled:
    /// SAVE/RESTORE answer `DENIED`.
    ckpt_store: Option<Rc<RefCell<CheckpointStore>>>,
    /// Recovery episode behind the most recent publish of each stable
    /// name. Returned with RESTORE replies so a restarted driver can tag
    /// its restore/replay trace events with the episode that restarted it.
    last_publish: BTreeMap<String, Episode>,
}

impl DataStore {
    /// Creates an empty data store. The first process to publish becomes
    /// the trusted publisher (at boot that is RS, which publishes every
    /// service it starts).
    pub fn new() -> Self {
        DataStore {
            publisher: None,
            names: BTreeMap::new(),
            subs: Vec::new(),
            pending: BTreeMap::new(),
            ckpt_store: None,
            last_publish: BTreeMap::new(),
        }
    }

    /// Enables the driver-checkpoint extension, backed by `store`
    /// (builder style). The handle is shared: the embedding machine keeps
    /// a clone for out-of-band inspection and fault injection.
    // analyze:recovery
    pub fn with_checkpoint_store(mut self, store: Rc<RefCell<CheckpointStore>>) -> Self {
        self.ckpt_store = Some(store);
        self
    }

    // analyze:recovery
    fn owner_name_of(&self, ep: Endpoint) -> Option<&str> {
        self.names
            .iter()
            .find(|(_, &e)| e == ep)
            .map(|(k, _)| k.as_str())
    }

    fn publish(&mut self, ctx: &mut Ctx<'_>, key: String, ep: Endpoint, episode: Episode) {
        // A rebound name retires its old incarnation: that endpoint's
        // subscriptions and undrained updates go with it (its successor
        // subscribes afresh from its own endpoint).
        // analyze:recovery
        if let Some(old) = self.names.insert(key.clone(), ep).filter(|&old| old != ep) {
            self.subs.retain(|s| s.subscriber != old);
            self.pending.remove(&old);
        }
        // analyze:recovery
        self.last_publish.insert(key.clone(), episode);
        let (recovery, span) = episode;
        let ev = ctx
            .event(TraceLevel::Info, format!("publish {key} -> {ep}"))
            .with_field("ev", "publish")
            .with_field("key", key.as_str())
            .in_recovery_opt(recovery)
            .with_parent_opt(span);
        ctx.trace_event(ev);
        ctx.metrics().incr("ds.publishes");
        // Queue an update + notify for every matching subscriber. The
        // notify is payload-free (MINIX `notify`); subscribers come and
        // CHECK for the actual update, decoupling producer and consumers.
        let matches: Vec<Endpoint> = self
            .subs
            .iter()
            .filter(|s| s.matches(&key))
            .map(|s| s.subscriber)
            .collect();
        for sub in matches {
            self.pending
                .entry(sub)
                .or_default()
                .push_back((key.clone(), ep, episode));
            let _ = ctx.notify(sub);
        }
    }

    // analyze:recovery
    fn handle_ckpt_save(&mut self, ctx: &mut Ctx<'_>, msg: &Message, save: ckpt::Save) -> Message {
        let fail = |status| ckpt::SaveReply { status, seq: 0 }.into_message();
        let Some(store) = self.ckpt_store.as_ref() else {
            return fail(ckpt_status::DENIED);
        };
        let Some(owner) = self.owner_name_of(msg.source).map(str::to_string) else {
            ctx.metrics().incr("ds.ckpt_denied");
            return fail(ckpt_status::DENIED);
        };
        let klen = save.key_len as usize;
        if klen == 0 || klen > msg.data.len() {
            return fail(ckpt_status::CORRUPT);
        }
        let key = String::from_utf8_lossy(&msg.data[..klen]).to_string();
        let outcome = store.borrow_mut().save(&owner, &key, &msg.data[klen..]);
        match outcome {
            SaveOutcome::Stored { seq } => {
                ctx.metrics().incr("ds.ckpt_saves");
                // Occupancy gauges: campaign digests surface checkpoint-
                // store growth (a leaking snapshot shows up as a drifting
                // gauge, not an invisible heap).
                let (bytes, records) = {
                    let s = store.borrow();
                    (s.total_bytes(), s.len() as u64)
                };
                ctx.metrics().set("ds.snapshot_bytes", bytes);
                ctx.metrics().set("ckpt.store_size", records);
                let status = ckpt_status::OK;
                ckpt::SaveReply { status, seq }.into_message()
            }
            SaveOutcome::Stale { .. } => {
                ctx.metrics().incr("ds.ckpt_stale_rejected");
                fail(ckpt_status::STALE)
            }
            SaveOutcome::Corrupt => {
                ctx.metrics().incr("ds.ckpt_corrupt_rejected");
                fail(ckpt_status::CORRUPT)
            }
        }
    }

    // analyze:recovery
    fn handle_ckpt_restore(&mut self, ctx: &mut Ctx<'_>, msg: &Message) -> Message {
        let denied = ckpt::RestoreReply {
            status: ckpt_status::DENIED,
            ..Default::default()
        };
        let Some(store) = self.ckpt_store.as_ref() else {
            return denied.into_message();
        };
        let Some(owner) = self.owner_name_of(msg.source).map(str::to_string) else {
            ctx.metrics().incr("ds.ckpt_denied");
            return denied.into_message();
        };
        // Thread the recovery episode that (re)published this name so the
        // driver can tag its restore/replay trace events with it; none on
        // a boot-time publish.
        let (recovery, span) = self.last_publish.get(&owner).copied().unwrap_or_default();
        let key = String::from_utf8_lossy(&msg.data).to_string();
        let outcome = store.borrow_mut().restore(&owner, &key);
        let (status, snapshot) = match outcome {
            RestoreOutcome::Found(snap) => {
                ctx.metrics().incr("ds.ckpt_restores");
                (ckpt_status::OK, snap.encode())
            }
            RestoreOutcome::Missing => {
                ctx.metrics().incr("ds.ckpt_restore_missing");
                (ckpt_status::NOT_FOUND, Vec::new())
            }
            RestoreOutcome::Corrupt => {
                ctx.metrics().incr("ds.ckpt_restore_corrupt");
                (ckpt_status::CORRUPT, Vec::new())
            }
        };
        let reply = ckpt::RestoreReply {
            status,
            recovery,
            span,
        };
        reply.into_message().with_data(snapshot)
    }

    /// Serves a warm spare's `ckpt::TAIL` poll: the latest snapshot
    /// frame of the *primary's* record. Authorization is by naming
    /// convention — only the endpoint published under `standby.<name>`
    /// may tail `<name>`'s records — which, like every owner check here,
    /// binds the capability to the caller's live endpoint generation.
    // analyze:recovery
    fn handle_ckpt_tail(&mut self, ctx: &mut Ctx<'_>, msg: &Message) -> Message {
        let reply = |status| ckpt::TailReply { status }.into_message();
        let Some(store) = self.ckpt_store.as_ref() else {
            return reply(ckpt_status::DENIED);
        };
        let Some(primary) = self
            .owner_name_of(msg.source)
            .and_then(drv::spare_of)
            .map(str::to_string)
        else {
            ctx.metrics().incr("ds.ckpt_tail_denied");
            return reply(ckpt_status::DENIED);
        };
        let key = String::from_utf8_lossy(&msg.data).to_string();
        let outcome = store.borrow_mut().restore(&primary, &key);
        match outcome {
            RestoreOutcome::Found(snap) => {
                ctx.metrics().incr("ds.ckpt_tails");
                reply(ckpt_status::OK).with_data(snap.encode())
            }
            RestoreOutcome::Missing => reply(ckpt_status::NOT_FOUND),
            RestoreOutcome::Corrupt => {
                ctx.metrics().incr("ds.ckpt_restore_corrupt");
                reply(ckpt_status::CORRUPT)
            }
        }
    }

    /// Re-frames every checkpoint record owned by the named primary with
    /// a clamped incarnation, so a promoted spare — which lives in a
    /// younger slot generation than the dead primary — can keep saving
    /// without tripping the store's ghost check. Only the trusted
    /// publisher (RS) may request this.
    // analyze:recovery
    fn handle_ckpt_promote(&mut self, ctx: &mut Ctx<'_>, msg: &Message) -> Message {
        let fail = |status| ckpt::PromoteReply { status, adopted: 0 }.into_message();
        if self.publisher != Some(msg.source) {
            ctx.metrics().incr("ds.ckpt_promote_denied");
            return fail(ckpt_status::DENIED);
        }
        let Some(store) = self.ckpt_store.as_ref() else {
            return fail(ckpt_status::NOT_FOUND);
        };
        let owner = String::from_utf8_lossy(&msg.data).to_string();
        let frames: Vec<(String, Vec<u8>)> = store
            .borrow()
            .export()
            .into_iter()
            .filter(|(o, _, _)| *o == owner)
            .map(|(_, k, w)| (k, w))
            .collect();
        let mut adopted = 0u64;
        for (k, w) in &frames {
            if store.borrow_mut().adopt(&owner, k, w) {
                adopted += 1;
            }
        }
        // The spare is the primary now: drop its standby binding so the
        // endpoint resolves to exactly one owner name (and the tail
        // capability dies with the role).
        self.names.remove(&drv::spare_name(&owner));
        ctx.metrics().incr("ds.ckpt_promotions");
        let status = ckpt_status::OK;
        ckpt::PromoteReply { status, adopted }.into_message()
    }

    /// Serves one naming / publish-subscribe request and returns the reply.
    fn on_ds_request(&mut self, ctx: &mut Ctx<'_>, msg: &Message) -> Message {
        match ds::Msg::decode(msg) {
            Some(ds::Msg::PUBLISH(publish)) => {
                // First publisher wins the role if unset (boot wiring);
                // afterwards only RS may update naming records.
                if self.publisher.is_none() {
                    self.publisher = Some(msg.source);
                }
                if self.publisher != Some(msg.source) {
                    return ack(ds_status::DENIED);
                }
                let key = String::from_utf8_lossy(&msg.data).to_string();
                let episode = (publish.recovery, publish.span);
                self.publish(ctx, key, publish.endpoint, episode);
                ack(ds_status::OK)
            }
            Some(ds::Msg::SUBSCRIBE) => {
                let pat = String::from_utf8_lossy(&msg.data).to_string();
                let (prefix, exact) = match pat.strip_suffix('*') {
                    Some(p) => (p.to_string(), false),
                    None => (pat.clone(), true),
                };
                let sub = Subscription {
                    subscriber: msg.source,
                    prefix,
                    exact,
                };
                // Replay records that already match, so subscribers need
                // not race the publisher at boot.
                let existing: Vec<(String, Endpoint, Episode)> = self
                    .names
                    .iter()
                    .filter(|(k, _)| sub.matches(k))
                    .map(|(k, &e)| (k.clone(), e, (None, None)))
                    .collect();
                let has_existing = !existing.is_empty();
                self.pending.entry(msg.source).or_default().extend(existing);
                if has_existing {
                    let _ = ctx.notify(msg.source);
                }
                self.subs.push(sub);
                ctx.trace(
                    TraceLevel::Info,
                    format!("{} subscribed to {pat}", msg.source),
                );
                ack(ds_status::OK)
            }
            Some(ds::Msg::CHECK) => {
                let q = self.pending.entry(msg.source).or_default();
                match q.pop_front() {
                    Some((key, endpoint, (recovery, span))) => {
                        let update = ds::CheckReply {
                            status: ds_status::OK,
                            endpoint,
                            recovery,
                            span,
                        };
                        update.into_message().with_data(key.into_bytes())
                    }
                    None => {
                        let drained = ds::CheckReply {
                            status: ds_status::NO_UPDATE,
                            ..Default::default()
                        };
                        drained.into_message()
                    }
                }
            }
            Some(ds::Msg::CHECK_REPLY(_) | ds::Msg::ACK(_)) | None => ack(ds_status::BAD_REQUEST),
        }
    }
}

/// The generic acknowledgement of `status`.
fn ack(status: u64) -> Message {
    ds::Ack { status }.into_message()
}

impl Default for DataStore {
    fn default() -> Self {
        Self::new()
    }
}

impl Process for DataStore {
    // analyze:recovery-root
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        let ProcEvent::Request { call, msg } = event else {
            return;
        };
        let reply = match ckpt::Msg::decode(&msg) {
            // Checkpoint save, authenticated by the caller's published
            // name: the record is scoped to that *stable name*, so a
            // restarted incarnation reads its own snapshots while a ghost
            // (previous incarnation racing its replacement) is rejected
            // by the store's incarnation tag.
            // analyze:recovery
            Some(ckpt::Msg::SAVE(save)) => self.handle_ckpt_save(ctx, &msg, save),
            // analyze:recovery
            Some(ckpt::Msg::RESTORE) => self.handle_ckpt_restore(ctx, &msg),
            // analyze:recovery
            Some(ckpt::Msg::TAIL) => self.handle_ckpt_tail(ctx, &msg),
            // analyze:recovery
            Some(ckpt::Msg::PROMOTE) => self.handle_ckpt_promote(ctx, &msg),
            // A checkpoint reply is no data-store kind either: the data
            // store's own dispatch answers it BAD_REQUEST.
            Some(
                ckpt::Msg::SAVE_REPLY(_)
                | ckpt::Msg::RESTORE_REPLY(_)
                | ckpt::Msg::TAIL_REPLY(_)
                | ckpt::Msg::PROMOTE_REPLY(_),
            )
            | None => self.on_ds_request(ctx, &msg),
        };
        let _ = ctx.reply(call, reply);
    }
}
