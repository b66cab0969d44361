//! The shared server library ("libserver"): what `libdriver` is for
//! drivers, for the crash-only servers.
//!
//! §7.3 of the paper credits a shared library for keeping the per-driver
//! recovery cost at a handful of lines. The servers obey one uniform
//! crash-only contract too — state lives in the data store, a restart
//! rehydrates before serving — so that contract is one piece of code:
//! [`Server`] wraps a [`ServerLogic`] and owns
//!
//! * the **fault plane**: one poll per event; an injected crash panics
//!   the incarnation, a stall swallows every event, a garble XORs the
//!   type of every client-facing frame sent through [`Shell::reply`] /
//!   [`Shell::push`];
//! * the **state gate** ([`StateGate`]): requests park until the
//!   snapshot is restored, `decode` then `adopt` run before the backlog
//!   replays in arrival order, and one save goes out per dirty event. A
//!   payload `decode` rejects — truncated, trailing bytes, a name that is
//!   not UTF-8 — is garbage: the shell counts it and the incarnation
//!   keeps its clean slate, the same rule for every server;
//! * the **data-store watch** ([`DsWatch`]): subscribe, notify → `CHECK`,
//!   the decoded update, and the drain of queued updates;
//! * **complaint filing** ([`Shell::complain`]).
//!
//! Inside one event the order is fixed: fault poll → dispatch → save;
//! inside a reply: gate → data-store watch → the component's own calls.
//! A server supplies its state codec (`encode` / `decode` / `adopt`),
//! its request logic and its sentinels — nothing else.

use phoenix_ckpt::StateGate;
use phoenix_kernel::process::{ProcEvent, Process};
use phoenix_kernel::system::Ctx;
use phoenix_kernel::types::{CallId, Endpoint, IpcError, Message};
use phoenix_simcore::trace::TraceLevel;

use crate::faultplane::{garble_message, FaultAction, FaultPlane, FaultState};
use crate::proto::{complain, ds, evidence};

/// The literal names one server goes by.
#[derive(Debug, Clone, Copy)]
pub struct Names {
    /// Stable service name: the fault-plane cell, and the prefix of the
    /// `<server>.complaints` / `sentinel.<server>.<evidence>` counters.
    pub server: &'static str,
    /// Checkpoint-store key of the externalised state.
    pub state_key: &'static str,
    /// Counter: injected crashes taken.
    pub injected_crash: &'static str,
    /// Counter: events swallowed while stalled.
    pub stalled_events: &'static str,
    /// Counter: client-facing frames garbled.
    pub garbled_replies: &'static str,
    /// Counter: restored payloads `decode` rejected.
    pub restore_garbage: &'static str,
}

/// What a crash-only server supplies; [`Server`] does the rest.
pub trait ServerLogic {
    /// The server's literal metric and store names.
    const NAMES: Names;

    /// What a payload decodes into.
    // analyze:recovery
    type Saved;

    /// Serialises the externalised state (called at most once per event,
    /// and only when [`StateGate::mark_dirty`] was).
    // analyze:recovery
    fn encode(&self) -> Vec<u8>;

    /// Parses a restored payload; pure, and total over arbitrary bytes.
    /// `None` = not something `encode` wrote: the server keeps its cold
    /// state and the shell counts [`Names::restore_garbage`].
    // analyze:recovery
    fn decode(payload: &[u8]) -> Option<Self::Saved>;

    /// Merges decoded state in, before any request is served.
    // analyze:recovery
    fn adopt(&mut self, ctx: &mut Ctx<'_>, saved: Self::Saved);

    /// Serves one client request — live, or replayed from the backlog
    /// parked behind the restore.
    fn request(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_>, call: CallId, msg: Message);

    /// A subscribed data-store record changed.
    fn ds_update(&mut self, _sh: &mut Shell, _ctx: &mut Ctx<'_>, _update: DsUpdate) {}

    /// Every other event: `Start`, one-way messages, alarms, child exits
    /// and replies to the calls the server itself issued.
    fn event(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_>, event: ProcEvent);
}

/// A changed data-store record: its key (the payload of the
/// `ds::CHECK_REPLY` that announced it) and that reply, which names the
/// endpoint the key now maps to and the recovery episode behind the
/// publish (`None` = boot publish).
pub type DsUpdate = (String, ds::CheckReply);

/// The subscriber side of the data store's publish-subscribe (§5.3):
/// DS notifies payload-free, the subscriber `CHECK`s for the update and
/// keeps checking until the queue is drained.
#[derive(Debug)]
pub struct DsWatch {
    ds: Endpoint,
    check_call: Option<CallId>,
}

impl DsWatch {
    /// A watch on the data store at `ds`.
    pub fn new(ds: Endpoint) -> Self {
        DsWatch {
            ds,
            check_call: None,
        }
    }

    /// The data store's endpoint.
    pub fn ds(&self) -> Endpoint {
        self.ds
    }

    /// Subscribes to keys matching `pattern` (trailing `*` = prefix).
    pub fn subscribe(&self, ctx: &mut Ctx<'_>, pattern: &str) {
        let _ = ctx.sendrec(
            self.ds,
            Message::new(ds::SUBSCRIBE).with_data(pattern.as_bytes().to_vec()),
        );
    }

    /// Asks for the next pending update unless a `CHECK` is in flight.
    /// Call on a notify from [`DsWatch::ds`], and again after handling
    /// an update to drain whatever else is queued.
    pub fn check(&mut self, ctx: &mut Ctx<'_>) {
        if self.check_call.is_none() {
            self.check_call = ctx.sendrec(self.ds, Message::new(ds::CHECK)).ok();
        }
    }

    /// Routes a reply: `None` = not the watch's call; `Some(None)` = the
    /// `CHECK` came back empty, aborted or garbled; `Some(Some(update))`
    /// = handle it, then [`DsWatch::check`] again.
    pub fn on_reply(
        &mut self,
        call: CallId,
        result: &Result<Message, IpcError>,
    ) -> Option<Option<DsUpdate>> {
        if self.check_call != Some(call) {
            return None;
        }
        self.check_call = None;
        let Ok(reply) = result else {
            return Some(None);
        };
        let update = ds::CheckReply::from_message(reply).filter(|u| u.status == 0);
        Some(update.map(|u| (String::from_utf8_lossy(&reply.data).to_string(), u)))
    }
}

/// The half of [`Server`] a [`ServerLogic`] talks to.
#[derive(Debug)]
pub struct Shell {
    names: Names,
    fault: FaultState,
    /// The externalised-state gate; logic marks it dirty.
    pub gate: StateGate,
    /// The data-store watch; logic subscribes on `Start`.
    pub watch: DsWatch,
}

impl Shell {
    /// The injected-garble filter every client-facing frame goes through.
    fn outgoing(&mut self, ctx: &mut Ctx<'_>, msg: Message) -> Message {
        if !self.fault.garbling() {
            return msg;
        }
        ctx.metrics().incr(self.names.garbled_replies);
        garble_message(msg)
    }

    /// Answers a client request.
    pub fn reply(&mut self, ctx: &mut Ctx<'_>, call: CallId, msg: Message) {
        let msg = self.outgoing(ctx, msg);
        let _ = ctx.reply(call, msg);
    }

    /// Pushes a one-way client-facing message.
    pub fn push(&mut self, ctx: &mut Ctx<'_>, dst: Endpoint, msg: Message) {
        let msg = self.outgoing(ctx, msg);
        let _ = ctx.send(dst, msg);
    }

    /// Files a typed complaint with the reincarnation server at `rs`
    /// (§5.1 input 5): RS verifies the accuser's authority and weighs
    /// the evidence class before acting. `trace` is the warning logged.
    // analyze:recovery
    pub fn complain(
        &mut self,
        ctx: &mut Ctx<'_>,
        rs: Endpoint,
        (accused, incarnation): (&str, Option<Endpoint>),
        kind: u32,
        trace: String,
    ) {
        ctx.trace(TraceLevel::Warn, trace);
        let server = self.names.server;
        ctx.metrics().incr(&format!("{server}.complaints"));
        ctx.metrics()
            .incr(&format!("sentinel.{server}.{}", evidence::name(kind)));
        let _ = ctx.sendrec(rs, complain(kind, accused, incarnation));
    }
}

/// The shared server main loop around device-free [`ServerLogic`].
#[derive(Debug)]
pub struct Server<L> {
    shell: Shell,
    logic: L,
}

impl<L: ServerLogic> Server<L> {
    /// Wraps `logic`, watching the data store at `ds`. `crash_only` is
    /// the microreboot configuration: state is externalised to `ds`
    /// under [`Names::state_key`], and injected defects arrive through
    /// the given plane under [`Names::server`].
    pub fn new(logic: L, ds: Endpoint, crash_only: Option<&FaultPlane>) -> Self {
        let names = L::NAMES;
        let (gate, fault) = match crash_only {
            Some(plane) => (
                StateGate::on(ds, names.state_key),
                FaultState::attached(plane, names.server),
            ),
            None => (StateGate::off(), FaultState::detached()),
        };
        Server {
            shell: Shell {
                names,
                fault,
                gate,
                watch: DsWatch::new(ds),
            },
            logic,
        }
    }
}

impl<L: ServerLogic> Process for Server<L> {
    // analyze:recovery-root
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        let Server { shell: sh, logic } = self;
        match sh.fault.poll() {
            FaultAction::Crash => {
                ctx.metrics().incr(sh.names.injected_crash);
                ctx.panic("injected server defect: wild store");
                return;
            }
            FaultAction::Stall => {
                // Lost wakeup: the incarnation swallows every event.
                // Pending sendrec rendezvous stay open, which is what the
                // RS stall audit keys on.
                ctx.metrics().incr(sh.names.stalled_events);
                return;
            }
            FaultAction::Garble | FaultAction::None => {}
        }
        match event {
            ProcEvent::Notify { from } if from == sh.watch.ds() => sh.watch.check(ctx),
            ProcEvent::Request { call, msg } => {
                if !sh.gate.park(ctx, call, &msg) {
                    logic.request(sh, ctx, call, msg);
                }
            }
            ProcEvent::Reply { call, result } => {
                // analyze:recovery
                let garbage = sh.names.restore_garbage;
                // analyze:recovery
                let restored = sh.gate.on_reply(ctx, call, &result, |ctx, snap| {
                    match L::decode(&snap.payload) {
                        Some(saved) => logic.adopt(ctx, saved),
                        None => ctx.metrics().incr(garbage),
                    }
                });
                if let Some(parked) = restored {
                    for (call, msg) in parked {
                        logic.request(sh, ctx, call, msg);
                    }
                } else if let Some(update) = sh.watch.on_reply(call, &result) {
                    if let Some(update) = update {
                        logic.ds_update(sh, ctx, update);
                        sh.watch.check(ctx);
                    }
                } else {
                    logic.event(sh, ctx, ProcEvent::Reply { call, result });
                }
            }
            other => logic.event(sh, ctx, other),
        }
        // analyze:recovery
        sh.gate.save_if_dirty(ctx, || logic.encode());
    }
}
