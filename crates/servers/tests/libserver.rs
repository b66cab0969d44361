//! The crash-only shell against a fake: `Server<Fake>` runs on the real
//! kernel between a scripted data store and a probe client, so every
//! rule the shell owns — park until restored, apply then replay in
//! order, one save per dirty event, stall/garble/crash handling, the
//! data-store watch and complaint filing — is checked once, without any
//! real server's request logic in the way.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use phoenix_ckpt::proto::{ckpt, ckpt_status};
use phoenix_ckpt::Snapshot;
use phoenix_kernel::platform::NullPlatform;
use phoenix_kernel::privileges::Privileges;
use phoenix_kernel::process::{ProcEvent, Process};
use phoenix_kernel::system::{Ctx, System, SystemConfig};
use phoenix_kernel::types::{CallId, Endpoint, Message};
use phoenix_servers::ds::ds_status;
use phoenix_servers::faultplane::GARBLE_XOR;
use phoenix_servers::libserver::{DsUpdate, Names, ServerLogic, Shell};
use phoenix_servers::proto::{ds, evidence, rs};
use phoenix_servers::{FaultPlane, Server, ServerFault};
use phoenix_simcore::time::SimDuration;
use phoenix_simcore::trace::{RecoveryId, SpanId};

// The fake's own protocol.
const SET: u32 = 0x7001; // request: value = param 0 (dirty)
const GET: u32 = 0x7002; // request: read the value
const VALUE: u32 = 0x7003; // reply to both: param 0 = value
const PING: u32 = 0x7004; // one-way: pushes PONG back
const PONG: u32 = 0x7005;
const TOUCH: u32 = 0x7006; // one-way: value += 1 (dirty)
const ACCUSE: u32 = 0x7007; // one-way: file a complaint about "victim"

/// A one-word server: its externalised state is `value`.
struct Fake {
    value: u64,
    rs: Endpoint,
    /// `apply:<v>` / `set:<v>` / `get`, in the order the shell ran them.
    log: Rc<RefCell<Vec<String>>>,
    updates: Rc<RefCell<Vec<DsUpdate>>>,
}

impl ServerLogic for Fake {
    const NAMES: Names = Names {
        server: "fake",
        state_key: "word",
        injected_crash: "fake.injected_crash",
        stalled_events: "fake.stalled_events",
        garbled_replies: "fake.garbled_replies",
        restore_garbage: "fake.restore_garbage",
    };

    fn encode(&self) -> Vec<u8> {
        self.value.to_le_bytes().to_vec()
    }

    type Saved = u64;

    fn decode(payload: &[u8]) -> Option<u64> {
        Some(u64::from_le_bytes(payload.try_into().ok()?))
    }

    fn adopt(&mut self, _ctx: &mut Ctx<'_>, saved: u64) {
        self.value = saved;
        self.log.borrow_mut().push(format!("apply:{}", self.value));
    }

    fn request(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_>, call: CallId, msg: Message) {
        if msg.mtype == SET {
            self.value = msg.param(0);
            sh.gate.mark_dirty();
            self.log.borrow_mut().push(format!("set:{}", self.value));
        } else {
            self.log.borrow_mut().push("get".to_string());
        }
        sh.reply(ctx, call, Message::new(VALUE).with_param(0, self.value));
    }

    fn ds_update(&mut self, _sh: &mut Shell, _ctx: &mut Ctx<'_>, update: DsUpdate) {
        self.updates.borrow_mut().push(update);
    }

    fn event(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_>, event: ProcEvent) {
        match event {
            ProcEvent::Start => sh.watch.subscribe(ctx, "x.*"),
            ProcEvent::Message(msg) => match msg.mtype {
                PING => sh.push(ctx, msg.source, Message::new(PONG)),
                TOUCH => {
                    self.value += 1;
                    sh.gate.mark_dirty();
                }
                ACCUSE => {
                    let accused = ("victim", Some(msg.source));
                    let why = "fake evidence".to_string();
                    sh.complain(ctx, self.rs, accused, evidence::BAD_REPLY, why);
                }
                _ => {}
            },
            _ => {}
        }
    }
}

/// What the scripted data store answers and what it saw.
#[derive(Default)]
struct DsScript {
    /// `RESTORE` answers with this payload (`None` = `NOT_FOUND`).
    snapshot: Option<Vec<u8>>,
    /// Queued `CHECK_REPLY`s; a subscriber is notified while any remain.
    pending: VecDeque<Message>,
    restores: u32,
    /// Payload of every well-formed `ckpt::SAVE`, in arrival order.
    saves: Vec<Vec<u8>>,
    subscriptions: Vec<String>,
    checks: u32,
}

type Hook = Box<dyn FnMut(&mut Ctx<'_>, &ProcEvent)>;

struct Probe(Hook);

impl Process for Probe {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        (self.0)(ctx, &event);
    }
}

fn probe(sys: &mut System, name: &str, hook: Hook) -> Endpoint {
    sys.spawn_boot(name, Privileges::server(), Box::new(Probe(hook)))
}

/// The scripted store. `RESTORE` is answered 10 ms late, so everything a
/// client sends at once is parked behind it.
fn fake_ds(sys: &mut System, script: &Rc<RefCell<DsScript>>) -> Endpoint {
    let script = script.clone();
    let mut held: Option<CallId> = None;
    probe(
        sys,
        "ds",
        Box::new(move |ctx, ev| {
            let mut s = script.borrow_mut();
            match ev {
                ProcEvent::Request { call, msg } => match msg.mtype {
                    ckpt::RESTORE => {
                        s.restores += 1;
                        held = Some(*call);
                        let _ = ctx.set_alarm(SimDuration::from_millis(10), 0);
                    }
                    ckpt::SAVE => {
                        let key_len = msg.param(0) as usize;
                        let snap = Snapshot::decode(&msg.data[key_len..]).expect("snapshot frame");
                        s.saves.push(snap.payload);
                        let _ = ctx.reply(*call, Message::new(ckpt::SAVE_REPLY));
                    }
                    ds::SUBSCRIBE => {
                        let pattern = String::from_utf8_lossy(&msg.data).to_string();
                        s.subscriptions.push(pattern);
                        let _ = ctx.reply(*call, Message::new(ds::ACK));
                        if !s.pending.is_empty() {
                            let _ = ctx.notify(msg.source);
                        }
                    }
                    ds::CHECK => {
                        s.checks += 1;
                        let none =
                            Message::new(ds::CHECK_REPLY).with_param(0, ds_status::NO_UPDATE);
                        let _ = ctx.reply(*call, s.pending.pop_front().unwrap_or(none));
                    }
                    other => panic!("fake ds got {other:#x}"),
                },
                ProcEvent::Alarm { .. } => {
                    let reply = match &s.snapshot {
                        Some(payload) => Message::new(ckpt::RESTORE_REPLY)
                            .with_data(Snapshot::new(1, 7, payload.clone()).encode()),
                        None => {
                            Message::new(ckpt::RESTORE_REPLY).with_param(0, ckpt_status::NOT_FOUND)
                        }
                    };
                    if let Some(call) = held.take() {
                        let _ = ctx.reply(call, reply);
                    }
                }
                _ => {}
            }
        }),
    )
}

/// A complaint as RS decoded it: `(kind, accused, incarnation)`.
type Filed = (u32, String, Option<Endpoint>);

/// The rig: scripted store, fake RS, and `Server<Fake>` between them.
struct Rig {
    sys: System,
    server: Endpoint,
    script: Rc<RefCell<DsScript>>,
    log: Rc<RefCell<Vec<String>>>,
    updates: Rc<RefCell<Vec<DsUpdate>>>,
    complaints: Rc<RefCell<Vec<Filed>>>,
    clients: u32,
}

impl Rig {
    fn new(script: DsScript, crash_only: Option<&FaultPlane>) -> Rig {
        let mut sys = System::new(SystemConfig::default());
        let script = Rc::new(RefCell::new(script));
        let dse = fake_ds(&mut sys, &script);
        let complaints = Rc::new(RefCell::new(Vec::new()));
        let seen = complaints.clone();
        let rs = probe(
            &mut sys,
            "rs",
            Box::new(move |_, ev| {
                if let ProcEvent::Request { msg, .. } = ev {
                    let c = rs::Complain::from_message(msg).expect("a complaint");
                    let accused = String::from_utf8_lossy(&msg.data).to_string();
                    seen.borrow_mut()
                        .push((c.kind as u32, accused, c.incarnation));
                }
            }),
        );
        let log = Rc::new(RefCell::new(Vec::new()));
        let updates = Rc::new(RefCell::new(Vec::new()));
        let fake = Fake {
            value: 0,
            rs,
            log: log.clone(),
            updates: updates.clone(),
        };
        let server = sys.spawn_boot(
            "fake",
            Privileges::server(),
            Box::new(Server::new(fake, dse, crash_only)),
        );
        Rig {
            sys,
            server,
            script,
            log,
            updates,
            complaints,
            clients: 0,
        }
    }

    /// Spawns a client that sends `msgs` back to back (requests by
    /// `sendrec`, the fake's one-way kinds by `send`), runs the system
    /// idle and returns `(type, param 0)` of everything it got back.
    fn client(&mut self, msgs: Vec<Message>) -> Vec<(u32, u64)> {
        let server = self.server;
        let got = Rc::new(RefCell::new(Vec::new()));
        let sink = got.clone();
        self.clients += 1;
        probe(
            &mut self.sys,
            &format!("client{}", self.clients),
            Box::new(move |ctx, ev| match ev {
                ProcEvent::Start => {
                    for m in &msgs {
                        if matches!(m.mtype, SET | GET) {
                            let _ = ctx.sendrec(server, m.clone());
                        } else {
                            let _ = ctx.send(server, m.clone());
                        }
                    }
                }
                ProcEvent::Reply {
                    result: Ok(reply), ..
                } => sink.borrow_mut().push((reply.mtype, reply.param(0))),
                ProcEvent::Message(m) => sink.borrow_mut().push((m.mtype, m.param(0))),
                _ => {}
            }),
        );
        self.sys.run_until_idle(&mut NullPlatform, 10_000);
        let got = got.borrow().clone();
        got
    }

    fn counter(&self, name: &str) -> u64 {
        self.sys.metrics().counter(name)
    }
}

fn set(v: u64) -> Message {
    Message::new(SET).with_param(0, v)
}

fn word(v: u64) -> Option<Vec<u8>> {
    Some(v.to_le_bytes().to_vec())
}

#[test]
fn requests_before_restore_are_parked_then_replayed_in_arrival_order() {
    let script = DsScript {
        snapshot: word(41),
        ..DsScript::default()
    };
    let mut rig = Rig::new(script, Some(&FaultPlane::new()));
    let got = rig.client(vec![Message::new(GET), set(1), set(2), Message::new(GET)]);
    // The first GET sees the *restored* word: it waited for `apply`.
    assert_eq!(got, vec![(VALUE, 41), (VALUE, 1), (VALUE, 2), (VALUE, 2)]);
    assert_eq!(
        *rig.log.borrow(),
        ["apply:41", "get", "set:1", "set:2", "get"]
    );
    assert_eq!(
        rig.script.borrow().restores,
        1,
        "one restore per incarnation"
    );
}

#[test]
fn rejected_payload_counts_restore_garbage_and_serving_continues_cold() {
    let script = DsScript {
        snapshot: Some(vec![1, 2, 3]), // a valid frame whose payload is not a word
        ..DsScript::default()
    };
    let mut rig = Rig::new(script, Some(&FaultPlane::new()));
    let got = rig.client(vec![Message::new(GET), set(9)]);
    assert_eq!(
        got,
        vec![(VALUE, 0), (VALUE, 9)],
        "cold state, still serving"
    );
    assert_eq!(rig.counter("fake.restore_garbage"), 1);
    assert_eq!(*rig.log.borrow(), ["get", "set:9"]);
}

#[test]
fn one_dirty_event_is_exactly_one_save_and_none_before_the_gate_is_ready() {
    let mut rig = Rig::new(DsScript::default(), Some(&FaultPlane::new()));
    // A dirty one-way event on a fresh incarnation: nothing to park, so
    // no restore starts, and no save may overwrite the unread snapshot.
    rig.client(vec![Message::new(TOUCH)]);
    assert_eq!(rig.script.borrow().restores, 0);
    assert!(rig.script.borrow().saves.is_empty());
    // The first request restores (NOT_FOUND), is replayed, and the event
    // ends on the one save the gate still owed.
    assert_eq!(rig.client(vec![Message::new(GET)]), vec![(VALUE, 1)]);
    assert_eq!(rig.script.borrow().saves, vec![1u64.to_le_bytes().to_vec()]);
    // Clean events save nothing; each dirty one saves once.
    rig.client(vec![Message::new(GET), Message::new(PING)]);
    assert_eq!(rig.script.borrow().saves.len(), 1);
    rig.client(vec![set(5), Message::new(GET), set(6)]);
    let saves = rig.script.borrow().saves.clone();
    assert_eq!(saves[1..], [5u64.to_le_bytes(), 6u64.to_le_bytes()]);
    assert_eq!(rig.counter("ckpt.saves"), 3);
}

#[test]
fn a_gate_that_is_off_never_parks_and_never_saves() {
    let mut rig = Rig::new(DsScript::default(), None);
    let got = rig.client(vec![set(3), Message::new(TOUCH), Message::new(GET)]);
    assert_eq!(got, vec![(VALUE, 3), (VALUE, 4)]);
    let script = rig.script.borrow();
    assert_eq!((script.restores, script.saves.len()), (0, 0));
}

#[test]
fn stall_swallows_every_event_and_crash_kills_the_incarnation() {
    let plane = FaultPlane::new();
    plane.arm("fake", ServerFault::Stall);
    let mut rig = Rig::new(DsScript::default(), Some(&plane));
    let got = rig.client(vec![Message::new(GET), Message::new(PING), set(1)]);
    assert!(got.is_empty(), "a stalled server answers nothing: {got:?}");
    // Start + three client events, all swallowed before dispatch.
    assert_eq!(rig.counter("fake.stalled_events"), 4);
    assert!(rig.script.borrow().subscriptions.is_empty());
    assert!(rig.log.borrow().is_empty());
    assert!(rig.sys.is_live(rig.server), "stalled, not dead");

    let plane = FaultPlane::new();
    let mut rig = Rig::new(DsScript::default(), Some(&plane));
    rig.client(vec![]);
    plane.arm("fake", ServerFault::Crash);
    let got = rig.client(vec![Message::new(GET)]);
    assert!(got.is_empty());
    assert_eq!(rig.counter("fake.injected_crash"), 1);
    assert!(!rig.sys.is_live(rig.server));
}

#[test]
fn garble_xors_client_facing_frames_only() {
    let plane = FaultPlane::new();
    plane.arm("fake", ServerFault::Garble);
    let mut rig = Rig::new(DsScript::default(), Some(&plane));
    let got = rig.client(vec![set(8), Message::new(PING), Message::new(ACCUSE)]);
    // (The SET waited out the restore, so the PONG overtook its reply.)
    assert_eq!(got, vec![(PONG ^ GARBLE_XOR, 0), (VALUE ^ GARBLE_XOR, 8)]);
    assert_eq!(rig.counter("fake.garbled_replies"), 2);
    // The server's own calls went out clean: the store decoded the
    // restore and the save, RS decoded the complaint.
    let script = rig.script.borrow();
    assert_eq!(script.subscriptions, ["x.*"]);
    assert_eq!(script.restores, 1);
    assert_eq!(script.saves, vec![8u64.to_le_bytes().to_vec()]);
    assert_eq!(rig.complaints.borrow().len(), 1);
}

#[test]
fn complaints_are_counted_by_class_and_reach_rs_decodable() {
    let mut rig = Rig::new(DsScript::default(), None);
    rig.client(vec![Message::new(ACCUSE)]);
    let client = rig.sys.endpoint_by_name("client1");
    assert_eq!(
        *rig.complaints.borrow(),
        [(evidence::BAD_REPLY, "victim".to_string(), client)]
    );
    assert_eq!(rig.counter("fake.complaints"), 1);
    assert_eq!(rig.counter("sentinel.fake.bad-reply"), 1);
}

#[test]
fn ds_watch_decodes_updates_with_and_without_a_recovery_token_and_drains() {
    let (a, b) = (Endpoint::new(3, 9), Endpoint::new(4, 1));
    let updates = [
        (
            "x.a".to_string(),
            a,
            RecoveryId::from_wire(5),
            SpanId::from_wire(6),
        ),
        ("x.b".to_string(), b, None, None),
    ]
    .map(|(key, endpoint, recovery, span)| {
        let update = ds::CheckReply {
            status: 0,
            endpoint,
            recovery,
            span,
        };
        (key, update)
    });
    let script = DsScript {
        pending: updates
            .iter()
            .map(|(key, u)| u.into_message().with_data(key.as_bytes().to_vec()))
            .collect(),
        ..DsScript::default()
    };
    let mut rig = Rig::new(script, None);
    rig.client(vec![]);
    assert_eq!(*rig.updates.borrow(), updates);
    // One notify, three CHECKs: the watch kept checking until NO_UPDATE.
    assert_eq!(rig.script.borrow().checks, 3);
    // Only the data store's notify is a data-store notify.
    let server = rig.server;
    probe(
        &mut rig.sys,
        "stranger",
        Box::new(move |ctx, ev| {
            if matches!(ev, ProcEvent::Start) {
                let _ = ctx.notify(server);
            }
        }),
    );
    rig.sys.run_until_idle(&mut NullPlatform, 10_000);
    assert_eq!(rig.script.borrow().checks, 3);
}
