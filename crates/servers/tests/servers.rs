//! Server-level integration tests: the data store, reincarnation server
//! and transport exercised against the real kernel with purpose-built
//! probe processes.

use std::cell::RefCell;
use std::rc::Rc;

use phoenix_ckpt::proto::{ckpt, ckpt_status};
use phoenix_ckpt::{CheckpointStore, Snapshot};
use phoenix_kernel::platform::NullPlatform;
use phoenix_kernel::privileges::Privileges;
use phoenix_kernel::process::{ProcEvent, Process};
use phoenix_kernel::system::{Ctx, System, SystemConfig};
use phoenix_kernel::types::{Endpoint, Message, Signal};
use phoenix_servers::ds::ds_status;
use phoenix_servers::policy::PolicyScript;
use phoenix_servers::proto::{complain, ds, rs as rsp};
use phoenix_servers::rs::{ReincarnationServer, ServiceConfig};
use phoenix_servers::{DataStore, ProcessManager, Server};
use phoenix_simcore::time::SimTime;

type Hook = Box<dyn FnMut(&mut Ctx<'_>, &ProcEvent)>;

struct Probe {
    hook: Hook,
}

impl Process for Probe {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        (self.hook)(ctx, &event);
    }
}

fn probe(sys: &mut System, name: &str, hook: Hook) -> Endpoint {
    sys.spawn_boot(name, Privileges::server(), Box::new(Probe { hook }))
}

fn run(sys: &mut System) {
    sys.run_until_idle(&mut NullPlatform, 10_000);
}

// ---------------------------------------------------------------------
// Data store
// ---------------------------------------------------------------------

#[test]
fn ds_non_publisher_is_denied() {
    let mut sys = System::new(SystemConfig::default());
    let dse = sys.spawn_boot("ds", Privileges::server(), Box::new(DataStore::new()));
    let outcome: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    let oc = outcome.clone();
    // First publisher claims the role...
    probe(
        &mut sys,
        "rs",
        Box::new(move |ctx, ev| {
            if matches!(ev, ProcEvent::Start) {
                let _ = ctx.sendrec(dse, Message::new(ds::PUBLISH).with_data(b"a".to_vec()));
            }
        }),
    );
    run(&mut sys);
    // ...then an impostor tries to publish.
    probe(
        &mut sys,
        "impostor",
        Box::new(move |ctx, ev| match ev {
            ProcEvent::Start => {
                let _ = ctx.sendrec(dse, Message::new(ds::PUBLISH).with_data(b"evil".to_vec()));
            }
            ProcEvent::Reply {
                result: Ok(reply), ..
            } => {
                oc.borrow_mut().push(reply.param(0));
            }
            _ => {}
        }),
    );
    run(&mut sys);
    assert_eq!(outcome.borrow().as_slice(), &[ds_status::DENIED]);
}

/// The kinds of the retired private-record store and name lookup
/// (`0x0601` retract, `0x0602` lookup, `0x0607` store, `0x0608` retrieve)
/// fall to the default arm, from the publisher as from anyone.
#[test]
fn ds_retired_request_kinds_are_bad_requests() {
    let mut sys = System::new(SystemConfig::default());
    let dse = sys.spawn_boot("ds", Privileges::server(), Box::new(DataStore::new()));
    let replies: Rc<RefCell<Vec<(u32, u64)>>> = Rc::new(RefCell::new(Vec::new()));
    let rc = replies.clone();
    probe(
        &mut sys,
        "rs",
        Box::new(move |ctx, ev| match ev {
            ProcEvent::Start => {
                let _ = ctx.sendrec(dse, Message::new(ds::PUBLISH).with_data(b"rs".to_vec()));
                for kind in [0x0601, 0x0602, 0x0607, 0x0608] {
                    let msg = Message::new(kind)
                        .with_param(0, 1)
                        .with_data(b"rs".to_vec());
                    let _ = ctx.sendrec(dse, msg);
                }
            }
            ProcEvent::Reply {
                result: Ok(reply), ..
            } => rc.borrow_mut().push((reply.mtype, reply.param(0))),
            _ => {}
        }),
    );
    run(&mut sys);
    let bad = (ds::ACK, ds_status::BAD_REQUEST);
    assert_eq!(
        replies.borrow().as_slice(),
        &[(ds::ACK, ds_status::OK), bad, bad, bad, bad]
    );
}

/// A restarted server subscribes again from its new endpoint. When RS
/// rebinds the server's name, the old endpoint's subscriptions and queue
/// go with the binding, so a later publish reaches the live incarnation
/// only — not every incarnation it ever had.
#[test]
fn ds_rebinding_a_name_drops_the_old_endpoints_subscriptions() {
    let mut sys = System::new(SystemConfig::default());
    let dse = sys.spawn_boot("ds", Privileges::server(), Box::new(DataStore::new()));
    let notified: Rc<RefCell<Vec<&str>>> = Rc::new(RefCell::new(Vec::new()));
    let subscriber = |name: &'static str| -> Hook {
        let log = notified.clone();
        Box::new(move |ctx, ev| match ev {
            ProcEvent::Start => {
                let subscribe = Message::new(ds::SUBSCRIBE).with_data(b"eth.*".to_vec());
                let _ = ctx.sendrec(dse, subscribe);
            }
            ProcEvent::Notify { .. } => {
                let _ = ctx.sendrec(dse, Message::new(ds::CHECK));
            }
            ProcEvent::Reply {
                result: Ok(reply), ..
            } if reply.mtype == ds::CHECK_REPLY && reply.data == b"eth.x" => {
                log.borrow_mut().push(name);
            }
            _ => {}
        })
    };
    let old = probe(&mut sys, "old", subscriber("old"));
    let new = probe(&mut sys, "new", subscriber("new"));
    run(&mut sys);
    probe(
        &mut sys,
        "rs",
        Box::new(move |ctx, ev| {
            if matches!(ev, ProcEvent::Start) {
                let publish = |key: &[u8], endpoint| {
                    let publish = ds::Publish {
                        endpoint,
                        ..Default::default()
                    };
                    publish.into_message().with_data(key.to_vec())
                };
                let _ = ctx.sendrec(dse, publish(b"inet", old));
                let _ = ctx.sendrec(dse, publish(b"inet", new));
                let _ = ctx.sendrec(dse, publish(b"eth.x", Endpoint::new(9, 1)));
            }
        }),
    );
    run(&mut sys);
    assert_eq!(notified.borrow().as_slice(), ["new"]);
}

#[test]
fn ds_subscription_replays_existing_and_delivers_updates() {
    let mut sys = System::new(SystemConfig::default());
    let dse = sys.spawn_boot("ds", Privileges::server(), Box::new(DataStore::new()));
    let seen: Rc<RefCell<Vec<(String, Endpoint)>>> = Rc::new(RefCell::new(Vec::new()));
    // Publisher publishes BEFORE the subscriber exists.
    let e1 = Endpoint::new(5, 1);
    probe(
        &mut sys,
        "rs",
        Box::new(move |ctx, ev| {
            if matches!(ev, ProcEvent::Start) {
                let publish = ds::Publish {
                    endpoint: e1,
                    ..Default::default()
                };
                let publish = publish.into_message().with_data(b"eth.one".to_vec());
                let _ = ctx.sendrec(dse, publish);
            }
        }),
    );
    run(&mut sys);
    let sc = seen.clone();
    let sub = probe(
        &mut sys,
        "inet",
        Box::new(move |ctx, ev| match ev {
            ProcEvent::Start => {
                let _ = ctx.sendrec(
                    dse,
                    Message::new(ds::SUBSCRIBE).with_data(b"eth.*".to_vec()),
                );
            }
            ProcEvent::Notify { .. } => {
                let _ = ctx.sendrec(dse, Message::new(ds::CHECK));
            }
            ProcEvent::Reply {
                result: Ok(reply), ..
            } if reply.mtype == ds::CHECK_REPLY && reply.param(0) == ds_status::OK => {
                let update = ds::CheckReply::from_message(reply).expect("a check reply");
                sc.borrow_mut().push((
                    String::from_utf8_lossy(&reply.data).to_string(),
                    update.endpoint,
                ));
                let _ = ctx.sendrec(dse, Message::new(ds::CHECK));
            }
            _ => {}
        }),
    );
    let _ = sub;
    run(&mut sys);
    assert_eq!(
        seen.borrow().as_slice(),
        &[("eth.one".to_string(), e1)],
        "pre-existing record replayed on subscribe"
    );
}

#[test]
fn ds_ckpt_save_requires_a_published_name() {
    let mut sys = System::new(SystemConfig::default());
    let store = Rc::new(RefCell::new(CheckpointStore::new()));
    let dse = sys.spawn_boot(
        "ds",
        Privileges::server(),
        Box::new(DataStore::new().with_checkpoint_store(Rc::clone(&store))),
    );
    let results: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));

    // An unpublished component may not save, even a well-formed frame.
    let rc = results.clone();
    probe(
        &mut sys,
        "anon",
        Box::new(move |ctx, ev| match ev {
            ProcEvent::Start => {
                let mut data = b"k".to_vec();
                data.extend_from_slice(&Snapshot::watermark(1, 1, 7).encode());
                let _ = ctx.sendrec(
                    dse,
                    Message::new(ckpt::SAVE).with_param(0, 1).with_data(data),
                );
            }
            ProcEvent::Reply {
                result: Ok(reply), ..
            } => rc.borrow_mut().push(reply.param(0)),
            _ => {}
        }),
    );
    run(&mut sys);
    assert_eq!(results.borrow().as_slice(), &[ckpt_status::DENIED]);
    assert!(store.borrow().is_empty(), "a denied save stores nothing");
}

// ---------------------------------------------------------------------
// Reincarnation server
// ---------------------------------------------------------------------

struct NullService;
impl Process for NullService {
    fn on_event(&mut self, _ctx: &mut Ctx<'_>, _event: ProcEvent) {}
}

/// Boots DS, PM and RS guarding `services`; the server-class ones are
/// RS's complainants.
fn boot_rs(sys: &mut System, services: Vec<ServiceConfig>) -> Endpoint {
    let dse = sys.spawn_boot("ds", Privileges::server(), Box::new(DataStore::new()));
    let pm = sys.spawn_boot(
        "pm",
        Privileges::process_manager(),
        Box::new(Server::new(ProcessManager::new(), dse, None)),
    );
    sys.spawn_boot(
        "rs",
        Privileges::reincarnation_server(),
        Box::new(ReincarnationServer::new(pm, dse, services)),
    )
}

fn svc(name: &str) -> ServiceConfig {
    ServiceConfig::driver(name).without_heartbeat()
}

#[test]
fn rs_policy_restarts_dependent_components() {
    // §5.2's network-server example: recovering one component requires
    // restarting its dependents (DHCP client, X server). Here `inetd`'s
    // policy restarts `dhcpd` whenever inetd recovers.
    let mut sys = System::new(SystemConfig::default());
    let policy = PolicyScript::parse("restart\nrestart-component dhcpd\n").unwrap();
    let services = vec![svc("inetd").with_policy(policy), svc("dhcpd")];
    boot_rs(&mut sys, services);
    sys.register_program(
        "inetd",
        Privileges::server(),
        Box::new(|| Box::new(NullService)),
    );
    sys.register_program(
        "dhcpd",
        Privileges::server(),
        Box::new(|| Box::new(NullService)),
    );
    sys.run_until(&mut NullPlatform, SimTime::from_micros(100_000));
    let inetd0 = sys.endpoint_by_name("inetd").unwrap();
    let dhcpd0 = sys.endpoint_by_name("dhcpd").unwrap();
    sys.kill_by_user(inetd0, Signal::Kill);
    sys.run_until(&mut NullPlatform, SimTime::from_micros(400_000));
    let inetd1 = sys.endpoint_by_name("inetd").unwrap();
    let dhcpd1 = sys.endpoint_by_name("dhcpd").unwrap();
    assert_ne!(inetd0, inetd1, "inetd restarted");
    assert_ne!(dhcpd0, dhcpd1, "dependent dhcpd restarted too");
    assert_eq!(sys.metrics().counter("rs.recoveries"), 2);
}

#[test]
fn rs_rejects_complaints_from_unauthorized_sources() {
    let mut sys = System::new(SystemConfig::default());
    let services = vec![svc("victim")];
    let rs = boot_rs(&mut sys, services);
    sys.register_program(
        "victim",
        Privileges::server(),
        Box::new(|| Box::new(NullService)),
    );
    sys.run_until(&mut NullPlatform, SimTime::from_micros(100_000));
    let victim0 = sys.endpoint_by_name("victim").unwrap();
    let st: Rc<RefCell<Option<u64>>> = Rc::new(RefCell::new(None));
    let st2 = st.clone();
    probe(
        &mut sys,
        "rando",
        Box::new(move |ctx, ev| match ev {
            ProcEvent::Start => {
                let _ = ctx.sendrec(rs, complain(0, "victim", None));
            }
            ProcEvent::Reply {
                result: Ok(reply), ..
            } => {
                *st2.borrow_mut() = Some(reply.param(0));
            }
            _ => {}
        }),
    );
    sys.run_until(&mut NullPlatform, SimTime::from_micros(400_000));
    assert_eq!(*st.borrow(), Some(13), "EACCES");
    assert_eq!(
        sys.endpoint_by_name("victim"),
        Some(victim0),
        "victim untouched by unauthorized complaint"
    );
}

#[test]
fn rs_accepts_complaints_from_authorized_complainants() {
    let mut sys = System::new(SystemConfig::default());
    let services = vec![svc("victim"), ServiceConfig::server("complainer")];
    let rs = boot_rs(&mut sys, services);
    sys.register_program(
        "victim",
        Privileges::server(),
        Box::new(|| Box::new(NullService)),
    );
    // The complainer files a complaint when poked.
    sys.register_program(
        "complainer",
        Privileges::server(),
        Box::new(move || {
            Box::new(Probe {
                hook: Box::new(move |ctx, ev| {
                    if matches!(ev, ProcEvent::Notify { .. }) {
                        let _ = ctx.sendrec(rs, complain(0, "victim", None));
                    }
                }),
            })
        }),
    );
    sys.run_until(&mut NullPlatform, SimTime::from_micros(100_000));
    let victim0 = sys.endpoint_by_name("victim").unwrap();
    let complainer = sys.endpoint_by_name("complainer").unwrap();
    probe(
        &mut sys,
        "poker",
        Box::new(move |ctx, ev| {
            if matches!(ev, ProcEvent::Start) {
                let _ = ctx.notify(complainer);
            }
        }),
    );
    sys.run_until(&mut NullPlatform, SimTime::from_micros(500_000));
    assert_ne!(
        sys.endpoint_by_name("victim"),
        Some(victim0),
        "victim replaced"
    );
    assert_eq!(sys.metrics().counter("rs.defect.complaint"), 1);
}

#[test]
fn rs_admin_down_disables_recovery() {
    let mut sys = System::new(SystemConfig::default());
    let services = vec![svc("drv")];
    let rs = boot_rs(&mut sys, services);
    sys.register_program(
        "drv",
        Privileges::server(),
        Box::new(|| Box::new(NullService)),
    );
    sys.run_until(&mut NullPlatform, SimTime::from_micros(100_000));
    assert!(sys.endpoint_by_name("drv").is_some());
    probe(
        &mut sys,
        "admin",
        Box::new(move |ctx, ev| {
            if matches!(ev, ProcEvent::Start) {
                let _ = ctx.sendrec(rs, Message::new(rsp::DOWN).with_data(b"drv".to_vec()));
            }
        }),
    );
    sys.run_until(&mut NullPlatform, SimTime::from_micros(600_000));
    assert!(sys.endpoint_by_name("drv").is_none(), "service stays down");
    assert_eq!(sys.metrics().counter("rs.recoveries"), 0);
    // ...until the admin brings it up again.
    probe(
        &mut sys,
        "admin2",
        Box::new(move |ctx, ev| {
            if matches!(ev, ProcEvent::Start) {
                let _ = ctx.sendrec(rs, Message::new(rsp::UP).with_data(b"drv".to_vec()));
            }
        }),
    );
    sys.run_until(&mut NullPlatform, SimTime::from_micros(800_000));
    assert!(sys.endpoint_by_name("drv").is_some(), "service up again");
}

#[test]
fn rs_sigterm_escalates_to_sigkill_on_update() {
    // A driver that ignores SIGTERM must still be replaceable: RS
    // escalates to SIGKILL after a grace period (§6).
    struct Stubborn;
    impl Process for Stubborn {
        fn on_event(&mut self, _ctx: &mut Ctx<'_>, _event: ProcEvent) {
            // ignores everything, including SIGTERM
        }
    }
    let mut sys = System::new(SystemConfig::default());
    let services = vec![svc("stubborn").with_policy(PolicyScript::generic())];
    let rs = boot_rs(&mut sys, services);
    sys.register_program(
        "stubborn",
        Privileges::server(),
        Box::new(|| Box::new(Stubborn)),
    );
    sys.run_until(&mut NullPlatform, SimTime::from_micros(100_000));
    let old = sys.endpoint_by_name("stubborn").unwrap();
    probe(
        &mut sys,
        "admin",
        Box::new(move |ctx, ev| {
            if matches!(ev, ProcEvent::Start) {
                let _ = ctx.sendrec(
                    rs,
                    Message::new(rsp::UPDATE).with_data(b"stubborn".to_vec()),
                );
            }
        }),
    );
    // Grace period is 500ms; give it 2s.
    sys.run_until(&mut NullPlatform, SimTime::from_micros(2_100_000));
    let new = sys.endpoint_by_name("stubborn").unwrap();
    assert_ne!(old, new, "escalation killed the stubborn driver");
    assert_eq!(sys.metrics().counter("rs.defect.update"), 1);
}

// ---------------------------------------------------------------------
// Complaint arbitration (fail-silent evidence -> restart decisions)
// ---------------------------------------------------------------------

use phoenix_servers::proto::evidence;

fn complain_msg(accused: &str, kind: u32) -> Message {
    complain(kind, accused, None)
}

#[test]
fn rs_low_confidence_complaint_below_quorum_does_not_restart() {
    let mut sys = System::new(SystemConfig::default());
    let services = vec![svc("victim"), ServiceConfig::server("complainer")];
    let rs = boot_rs(&mut sys, services);
    sys.register_program(
        "victim",
        Privileges::server(),
        Box::new(|| Box::new(NullService)),
    );
    sys.register_program(
        "complainer",
        Privileges::server(),
        Box::new(move || {
            Box::new(Probe {
                hook: Box::new(move |ctx, ev| {
                    if matches!(ev, ProcEvent::Notify { .. }) {
                        let _ = ctx.sendrec(rs, complain_msg("victim", evidence::CRC_MISMATCH));
                    }
                }),
            })
        }),
    );
    sys.run_until(&mut NullPlatform, SimTime::from_micros(100_000));
    let victim0 = sys.endpoint_by_name("victim").unwrap();
    let complainer = sys.endpoint_by_name("complainer").unwrap();
    probe(
        &mut sys,
        "poker",
        Box::new(move |ctx, ev| {
            if matches!(ev, ProcEvent::Start) {
                let _ = ctx.notify(complainer);
            }
        }),
    );
    sys.run_until(&mut NullPlatform, SimTime::from_micros(500_000));
    assert_eq!(
        sys.endpoint_by_name("victim"),
        Some(victim0),
        "one low-confidence complaint must not restart the accused"
    );
    assert_eq!(sys.metrics().counter("rs.complaints.below_quorum"), 1);
    assert_eq!(sys.metrics().counter("rs.complaints.quorum_restarts"), 0);
    assert_eq!(sys.metrics().counter("rs.defect.complaint"), 0);
}

#[test]
fn rs_low_confidence_quorum_restarts_the_accused() {
    let mut sys = System::new(SystemConfig::default());
    let services = vec![svc("victim"), ServiceConfig::server("complainer")];
    let rs = boot_rs(&mut sys, services);
    sys.register_program(
        "victim",
        Privileges::server(),
        Box::new(|| Box::new(NullService)),
    );
    sys.register_program(
        "complainer",
        Privileges::server(),
        Box::new(move || {
            Box::new(Probe {
                hook: Box::new(move |ctx, ev| {
                    if matches!(ev, ProcEvent::Notify { .. }) {
                        let _ = ctx.sendrec(rs, complain_msg("victim", evidence::CRC_MISMATCH));
                    }
                }),
            })
        }),
    );
    sys.run_until(&mut NullPlatform, SimTime::from_micros(100_000));
    let victim0 = sys.endpoint_by_name("victim").unwrap();
    let complainer = sys.endpoint_by_name("complainer").unwrap();
    // Three pokes, spaced so each notify is delivered separately; all
    // three complaints land inside the 2 s arbitration window.
    let mut pokes = 0u32;
    probe(
        &mut sys,
        "poker",
        Box::new(move |ctx, ev| match ev {
            ProcEvent::Start | ProcEvent::Alarm { .. } => {
                let _ = ctx.notify(complainer);
                pokes += 1;
                if pokes < 3 {
                    let _ = ctx.set_alarm(phoenix_simcore::time::SimDuration::from_millis(50), 0);
                }
            }
            _ => {}
        }),
    );
    sys.run_until(&mut NullPlatform, SimTime::from_micros(800_000));
    assert_ne!(
        sys.endpoint_by_name("victim"),
        Some(victim0),
        "three same-window complaints form a quorum"
    );
    assert_eq!(sys.metrics().counter("rs.complaints.quorum_restarts"), 1);
    assert_eq!(sys.metrics().counter("rs.defect.complaint"), 1);
}

#[test]
fn rs_inverts_suspicion_onto_a_babbling_accuser() {
    // DIR Net's blame assignment: an accuser blaming everything around
    // it is the more plausible defect — restart the accuser, not the
    // accused.
    let mut sys = System::new(SystemConfig::default());
    let services = vec![
        svc("victim-a"),
        svc("victim-b"),
        svc("victim-c"),
        ServiceConfig::server("complainer"),
    ];
    let rs = boot_rs(&mut sys, services);
    for name in ["victim-a", "victim-b", "victim-c"] {
        sys.register_program(
            name,
            Privileges::server(),
            Box::new(|| Box::new(NullService)),
        );
    }
    // The malicious accuser blames a different service on every poke.
    sys.register_program(
        "complainer",
        Privileges::server(),
        Box::new(move || {
            let mut nth = 0usize;
            Box::new(Probe {
                hook: Box::new(move |ctx, ev| {
                    if matches!(ev, ProcEvent::Notify { .. }) {
                        let accused = ["victim-a", "victim-b", "victim-c"][nth % 3];
                        nth += 1;
                        let _ = ctx.sendrec(rs, complain_msg(accused, evidence::CRC_MISMATCH));
                    }
                }),
            })
        }),
    );
    sys.run_until(&mut NullPlatform, SimTime::from_micros(100_000));
    let a0 = sys.endpoint_by_name("victim-a").unwrap();
    let b0 = sys.endpoint_by_name("victim-b").unwrap();
    let c0 = sys.endpoint_by_name("victim-c").unwrap();
    let accuser0 = sys.endpoint_by_name("complainer").unwrap();
    let mut pokes = 0u32;
    probe(
        &mut sys,
        "poker",
        Box::new(move |ctx, ev| match ev {
            ProcEvent::Start | ProcEvent::Alarm { .. } => {
                let _ = ctx.notify(accuser0);
                pokes += 1;
                if pokes < 3 {
                    let _ = ctx.set_alarm(phoenix_simcore::time::SimDuration::from_millis(50), 0);
                }
            }
            _ => {}
        }),
    );
    sys.run_until(&mut NullPlatform, SimTime::from_micros(800_000));
    assert_eq!(sys.endpoint_by_name("victim-a"), Some(a0), "accused spared");
    assert_eq!(sys.endpoint_by_name("victim-b"), Some(b0), "accused spared");
    assert_eq!(sys.endpoint_by_name("victim-c"), Some(c0), "accused spared");
    assert_ne!(
        sys.endpoint_by_name("complainer"),
        Some(accuser0),
        "the serial accuser is the one restarted"
    );
    assert_eq!(sys.metrics().counter("rs.complaints.inversions"), 1);
}

#[test]
fn rs_drops_ghost_complaints_against_dead_incarnations() {
    let mut sys = System::new(SystemConfig::default());
    let services = vec![svc("victim"), ServiceConfig::server("complainer")];
    let rs = boot_rs(&mut sys, services);
    sys.register_program(
        "victim",
        Privileges::server(),
        Box::new(|| Box::new(NullService)),
    );
    let st: Rc<RefCell<Option<u64>>> = Rc::new(RefCell::new(None));
    let st2 = st.clone();
    let victim_ep: Rc<RefCell<Option<Endpoint>>> = Rc::new(RefCell::new(None));
    let victim_ep2 = victim_ep.clone();
    sys.register_program(
        "complainer",
        Privileges::server(),
        Box::new(move || {
            let st3 = st2.clone();
            let victim_ep3 = victim_ep2.clone();
            Box::new(Probe {
                hook: Box::new(move |ctx, ev| match ev {
                    ProcEvent::Notify { .. } => {
                        // Evidence pinned to a stale incarnation of the
                        // victim: same slot, wrong generation. Even a
                        // high-confidence kind says nothing about the
                        // successor.
                        let victim = victim_ep3.borrow().unwrap_or_default();
                        let stale = Endpoint::new(victim.slot(), victim.generation() + 1000);
                        let _ =
                            ctx.sendrec(rs, complain(evidence::BAD_REPLY, "victim", Some(stale)));
                    }
                    ProcEvent::Reply {
                        result: Ok(reply), ..
                    } if reply.mtype == rsp::ACK => {
                        *st3.borrow_mut() = Some(reply.param(0));
                    }
                    _ => {}
                }),
            })
        }),
    );
    sys.run_until(&mut NullPlatform, SimTime::from_micros(100_000));
    let victim0 = sys.endpoint_by_name("victim").unwrap();
    *victim_ep.borrow_mut() = Some(victim0);
    let complainer = sys.endpoint_by_name("complainer").unwrap();
    probe(
        &mut sys,
        "poker",
        Box::new(move |ctx, ev| {
            if matches!(ev, ProcEvent::Start) {
                let _ = ctx.notify(complainer);
            }
        }),
    );
    sys.run_until(&mut NullPlatform, SimTime::from_micros(500_000));
    assert_eq!(
        sys.endpoint_by_name("victim"),
        Some(victim0),
        "ghost evidence must not restart the successor incarnation"
    );
    assert_eq!(sys.metrics().counter("rs.complaints.rejected_ghost"), 1);
    assert_eq!(sys.metrics().counter("rs.defect.complaint"), 0);
}

#[test]
fn rs_rejects_self_complaints() {
    let mut sys = System::new(SystemConfig::default());
    let services = vec![ServiceConfig::server("complainer")];
    let rs = boot_rs(&mut sys, services);
    let st: Rc<RefCell<Option<u64>>> = Rc::new(RefCell::new(None));
    let st2 = st.clone();
    sys.register_program(
        "complainer",
        Privileges::server(),
        Box::new(move || {
            let st3 = st2.clone();
            Box::new(Probe {
                hook: Box::new(move |ctx, ev| match ev {
                    ProcEvent::Notify { .. } => {
                        // A confused server accusing itself must not be
                        // able to trigger its own restart.
                        let _ = ctx.sendrec(rs, complain_msg("complainer", evidence::BAD_REPLY));
                    }
                    ProcEvent::Reply {
                        result: Ok(reply), ..
                    } if reply.mtype == rsp::ACK => {
                        *st3.borrow_mut() = Some(reply.param(0));
                    }
                    _ => {}
                }),
            })
        }),
    );
    sys.run_until(&mut NullPlatform, SimTime::from_micros(100_000));
    let complainer0 = sys.endpoint_by_name("complainer").unwrap();
    probe(
        &mut sys,
        "poker",
        Box::new(move |ctx, ev| {
            if matches!(ev, ProcEvent::Start) {
                let _ = ctx.notify(complainer0);
            }
        }),
    );
    sys.run_until(&mut NullPlatform, SimTime::from_micros(500_000));
    assert_eq!(*st.borrow(), Some(22), "EINVAL");
    assert_eq!(
        sys.endpoint_by_name("complainer"),
        Some(complainer0),
        "self-complaint rejected"
    );
    assert_eq!(sys.metrics().counter("rs.complaints.rejected_self"), 1);
    assert_eq!(sys.metrics().counter("rs.recoveries"), 0);
}

#[test]
fn rs_counts_but_ignores_complaints_about_unknown_services() {
    let mut sys = System::new(SystemConfig::default());
    let services = vec![ServiceConfig::server("complainer")];
    let rs = boot_rs(&mut sys, services);
    let st: Rc<RefCell<Option<u64>>> = Rc::new(RefCell::new(None));
    let st2 = st.clone();
    sys.register_program(
        "complainer",
        Privileges::server(),
        Box::new(move || {
            let st3 = st2.clone();
            Box::new(Probe {
                hook: Box::new(move |ctx, ev| match ev {
                    ProcEvent::Notify { .. } => {
                        let _ = ctx.sendrec(rs, complain_msg("no-such-svc", evidence::BAD_REPLY));
                    }
                    ProcEvent::Reply {
                        result: Ok(reply), ..
                    } if reply.mtype == rsp::ACK => {
                        *st3.borrow_mut() = Some(reply.param(0));
                    }
                    _ => {}
                }),
            })
        }),
    );
    sys.run_until(&mut NullPlatform, SimTime::from_micros(100_000));
    let complainer = sys.endpoint_by_name("complainer").unwrap();
    probe(
        &mut sys,
        "poker",
        Box::new(move |ctx, ev| {
            if matches!(ev, ProcEvent::Start) {
                let _ = ctx.notify(complainer);
            }
        }),
    );
    sys.run_until(&mut NullPlatform, SimTime::from_micros(500_000));
    assert_eq!(*st.borrow(), Some(22), "EINVAL");
    assert_eq!(sys.metrics().counter("rs.complaints.rejected_unknown"), 1);
    assert_eq!(sys.metrics().counter("rs.recoveries"), 0);
}

#[test]
fn rs_two_distinct_accusers_form_a_quorum() {
    let mut sys = System::new(SystemConfig::default());
    let services = vec![
        svc("victim"),
        ServiceConfig::server("acc-one"),
        ServiceConfig::server("acc-two"),
    ];
    let rs = boot_rs(&mut sys, services);
    sys.register_program(
        "victim",
        Privileges::server(),
        Box::new(|| Box::new(NullService)),
    );
    for name in ["acc-one", "acc-two"] {
        sys.register_program(
            name,
            Privileges::server(),
            Box::new(move || {
                Box::new(Probe {
                    hook: Box::new(move |ctx, ev| {
                        if matches!(ev, ProcEvent::Notify { .. }) {
                            let _ = ctx.sendrec(rs, complain_msg("victim", evidence::CRC_MISMATCH));
                        }
                    }),
                })
            }),
        );
    }
    sys.run_until(&mut NullPlatform, SimTime::from_micros(100_000));
    let victim0 = sys.endpoint_by_name("victim").unwrap();
    let one = sys.endpoint_by_name("acc-one").unwrap();
    let two = sys.endpoint_by_name("acc-two").unwrap();
    let mut pokes = 0u32;
    probe(
        &mut sys,
        "poker",
        Box::new(move |ctx, ev| match ev {
            ProcEvent::Start | ProcEvent::Alarm { .. } => {
                let _ = ctx.notify(if pokes == 0 { one } else { two });
                pokes += 1;
                if pokes < 2 {
                    let _ = ctx.set_alarm(phoenix_simcore::time::SimDuration::from_millis(50), 0);
                }
            }
            _ => {}
        }),
    );
    sys.run_until(&mut NullPlatform, SimTime::from_micros(800_000));
    assert_ne!(
        sys.endpoint_by_name("victim"),
        Some(victim0),
        "independent corroboration restarts the accused"
    );
    assert_eq!(sys.metrics().counter("rs.complaints.quorum_restarts"), 1);
}

// ---------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------

/// DS, PM and RS each answer a request of another table's kind, and a
/// reply kind of their own table sent as a request, with their refusal:
/// `(kind, status)` of the reply.
#[test]
fn every_server_refuses_a_foreign_kind_and_its_own_reply_kind() {
    use phoenix_servers::pm::pm_status;
    use phoenix_servers::proto::pm;
    let mut sys = System::new(SystemConfig::default());
    let rse = boot_rs(&mut sys, Vec::new());
    run(&mut sys);
    let dse = sys.endpoint_by_name("ds").unwrap();
    let pme = sys.endpoint_by_name("pm").unwrap();
    let bad_ds = Some((ds::ACK, ds_status::BAD_REQUEST));
    let denied_pm = Some((pm::KILL_REPLY, pm_status::DENIED));
    let einval_rs = Some((rsp::ACK, 22));
    // (server, request kind, answer)
    let cases = [
        (dse, rsp::UP, bad_ds),
        (dse, ds::ACK, bad_ds),
        (dse, ckpt::SAVE_REPLY, bad_ds),
        (pme, ds::PUBLISH, denied_pm),
        (pme, pm::START_REPLY, denied_pm),
        (rse, ds::PUBLISH, einval_rs),
        (rse, rsp::ACK, einval_rs),
    ];
    for (server, kind, expected) in cases {
        let answer: Rc<RefCell<Option<(u32, u64)>>> = Rc::new(RefCell::new(None));
        let a2 = answer.clone();
        probe(
            &mut sys,
            "client",
            Box::new(move |ctx, ev| match ev {
                ProcEvent::Start => {
                    let _ = ctx.sendrec(server, Message::new(kind).with_data(b"x".to_vec()));
                }
                ProcEvent::Reply {
                    result: Ok(reply), ..
                } => *a2.borrow_mut() = Some((reply.mtype, reply.param(0))),
                _ => {}
            }),
        );
        run(&mut sys);
        assert_eq!(*answer.borrow(), expected, "{server} answering {kind:#x}");
    }
}
