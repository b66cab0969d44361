//! Integration tests for the kernel's public API: IPC semantics, process
//! lifecycle, rendezvous abort on death, privileges, alarms, device I/O.

use std::cell::RefCell;
use std::rc::Rc;

use phoenix_kernel::platform::{HwCtx, NullPlatform, Platform};
use phoenix_kernel::privileges::{IpcFilter, KernelCall, Privileges};
use phoenix_kernel::process::{ProcEvent, Process};
use phoenix_kernel::system::{Ctx, System, SystemConfig};
use phoenix_kernel::types::{
    AlarmId, DeviceId, Endpoint, ExceptionKind, ExitReason, IpcError, KernelError, KillOrigin,
    Message, Signal,
};
use phoenix_simcore::time::{SimDuration, SimTime};

/// A scriptable process: each delivered event is appended to a shared log,
/// and an optional reaction closure runs against the context.
type Reaction = Box<dyn FnMut(&mut Ctx<'_>, &ProcEvent)>;

struct Scripted {
    log: Rc<RefCell<Vec<String>>>,
    react: Option<Reaction>,
}

impl Scripted {
    fn new(log: Rc<RefCell<Vec<String>>>) -> Self {
        Scripted { log, react: None }
    }
    fn with_react(log: Rc<RefCell<Vec<String>>>, react: Reaction) -> Self {
        Scripted {
            log,
            react: Some(react),
        }
    }
}

impl Process for Scripted {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        let entry = match &event {
            ProcEvent::Start => "start".to_string(),
            ProcEvent::Message(m) => format!("msg:{}", m.mtype),
            ProcEvent::Request { msg, .. } => format!("req:{}", msg.mtype),
            ProcEvent::Reply { result, .. } => match result {
                Ok(m) => format!("reply:{}", m.mtype),
                Err(e) => format!("reply-err:{e:?}"),
            },
            ProcEvent::Notify { from } => format!("notify:{from}"),
            ProcEvent::Signal(s) => format!("signal:{s}"),
            ProcEvent::Alarm { token } => format!("alarm:{token}"),
            ProcEvent::Irq { line } => format!("irq:{line}"),
            ProcEvent::ChildExited(st) => format!("chld:{}:{:?}", st.name, st.reason),
        };
        self.log
            .borrow_mut()
            .push(format!("{}@{entry}", ctx.self_name()));
        if let Some(r) = &mut self.react {
            r(ctx, &event);
        }
    }
}

fn new_sys() -> System {
    System::new(SystemConfig::default())
}

fn log() -> Rc<RefCell<Vec<String>>> {
    Rc::new(RefCell::new(Vec::new()))
}

#[test]
fn start_event_delivered_on_spawn() {
    let mut sys = new_sys();
    let l = log();
    sys.spawn_boot(
        "a",
        Privileges::server(),
        Box::new(Scripted::new(l.clone())),
    );
    sys.run_until_idle(&mut NullPlatform, 10);
    assert_eq!(l.borrow().as_slice(), ["a@start"]);
}

#[test]
fn send_delivers_message_with_latency() {
    let mut sys = new_sys();
    let l = log();
    let b = sys.spawn_boot(
        "b",
        Privileges::server(),
        Box::new(Scripted::new(l.clone())),
    );
    sys.spawn_boot(
        "a",
        Privileges::server(),
        Box::new(Scripted::with_react(
            l.clone(),
            Box::new(move |ctx, ev| {
                if matches!(ev, ProcEvent::Start) {
                    ctx.send(b, Message::new(42)).unwrap();
                }
            }),
        )),
    );
    sys.run_until_idle(&mut NullPlatform, 10);
    assert!(l.borrow().contains(&"b@msg:42".to_string()));
    assert_eq!(
        sys.now(),
        SimTime::from_micros(2),
        "one ipc latency elapsed"
    );
}

#[test]
fn sendrec_reply_roundtrip() {
    let mut sys = new_sys();
    let l = log();
    // Echo server: replies to every request with mtype+1.
    let echo = sys.spawn_boot(
        "echo",
        Privileges::server(),
        Box::new(Scripted::with_react(
            l.clone(),
            Box::new(|ctx, ev| {
                if let ProcEvent::Request { call, msg } = ev {
                    ctx.reply(*call, Message::new(msg.mtype + 1)).unwrap();
                }
            }),
        )),
    );
    sys.spawn_boot(
        "client",
        Privileges::server(),
        Box::new(Scripted::with_react(
            l.clone(),
            Box::new(move |ctx, ev| {
                if matches!(ev, ProcEvent::Start) {
                    ctx.sendrec(echo, Message::new(10)).unwrap();
                }
            }),
        )),
    );
    sys.run_until_idle(&mut NullPlatform, 20);
    let lg = l.borrow();
    assert!(lg.contains(&"echo@req:10".to_string()));
    assert!(lg.contains(&"client@reply:11".to_string()));
}

#[test]
fn killing_callee_aborts_open_call_with_edeadsrcdst() {
    let mut sys = new_sys();
    let l = log();
    // The "driver" receives the request but never replies.
    let driver = sys.spawn_boot(
        "drv",
        Privileges::server(),
        Box::new(Scripted::new(l.clone())),
    );
    sys.spawn_boot(
        "fs",
        Privileges::server(),
        Box::new(Scripted::with_react(
            l.clone(),
            Box::new(move |ctx, ev| {
                if matches!(ev, ProcEvent::Start) {
                    ctx.sendrec(driver, Message::new(77)).unwrap();
                }
            }),
        )),
    );
    sys.run_until_idle(&mut NullPlatform, 20);
    assert!(l.borrow().contains(&"drv@req:77".to_string()));
    // Now the driver dies with the call open: the kernel must abort the
    // rendezvous (§6.2).
    assert!(sys.kill_by_user(driver, Signal::Kill));
    sys.run_until_idle(&mut NullPlatform, 20);
    assert!(
        l.borrow()
            .contains(&"fs@reply-err:DeadDestination".to_string()),
        "caller must see the aborted rendezvous: {:?}",
        l.borrow()
    );
    assert_eq!(sys.metrics().counter("ipc.aborted_calls"), 1);
}

#[test]
fn request_in_flight_to_dying_process_also_aborts() {
    // The callee dies *between* send and delivery: the queued request finds
    // a stale endpoint and the kernel still aborts the call.
    let mut sys = new_sys();
    let l = log();
    let driver = sys.spawn_boot(
        "drv",
        Privileges::server(),
        Box::new(Scripted::new(l.clone())),
    );
    sys.spawn_boot(
        "fs",
        Privileges::server(),
        Box::new(Scripted::with_react(
            l.clone(),
            Box::new(move |ctx, ev| {
                if matches!(ev, ProcEvent::Start) {
                    ctx.sendrec(driver, Message::new(5)).unwrap();
                }
            }),
        )),
    );
    // Run only the spawn events (start of drv + start of fs), leaving the
    // request queued, then kill the driver before delivery.
    sys.step(&mut NullPlatform);
    sys.step(&mut NullPlatform);
    assert!(sys.kill_by_user(driver, Signal::Kill));
    sys.run_until_idle(&mut NullPlatform, 20);
    assert!(l
        .borrow()
        .contains(&"fs@reply-err:DeadDestination".to_string()));
    assert!(!l.borrow().contains(&"drv@req:5".to_string()));
    // The call is aborted once, at the death; the late request is only
    // dropped.
    assert_eq!(sys.metrics().counter("ipc.aborted_calls"), 1);
    assert_eq!(sys.metrics().counter("ipc.stale_drops"), 1);
}

#[test]
fn a_dying_callee_aborts_what_it_owes_in_call_order() {
    let mut sys = new_sys();
    let l = log();
    let driver = sys.spawn_boot(
        "drv",
        Privileges::server(),
        Box::new(Scripted::new(l.clone())),
    );
    // Three callers open their calls in the order c, a, b: not the order
    // of their slots.
    for (name, at_ms) in [("a", 2), ("b", 3), ("c", 1)] {
        let calls = l.clone();
        sys.spawn_boot(
            name,
            Privileges::server(),
            Box::new(Scripted::with_react(
                l.clone(),
                Box::new(move |ctx, ev| match ev {
                    ProcEvent::Start => {
                        ctx.set_alarm(SimDuration::from_millis(at_ms), 0).unwrap();
                    }
                    ProcEvent::Alarm { .. } => {
                        let call = ctx.sendrec(driver, Message::new(1)).unwrap();
                        let me = ctx.self_name().to_string();
                        calls.borrow_mut().push(format!("{me} opened {}", call.0));
                    }
                    _ => {}
                }),
            )),
        );
    }
    sys.run_until(&mut NullPlatform, SimTime::from_micros(4_000));
    assert!(sys.kill_by_user(driver, Signal::Kill));
    sys.run_until_idle(&mut NullPlatform, 20);
    let lg = l.borrow();
    let calls: Vec<&str> = lg
        .iter()
        .filter(|e| e.contains("opened") || e.contains("reply"))
        .map(String::as_str)
        .collect();
    assert_eq!(
        calls,
        [
            "c opened 1",
            "a opened 2",
            "b opened 3",
            "c@reply-err:DeadDestination",
            "a@reply-err:DeadDestination",
            "b@reply-err:DeadDestination",
        ]
    );
    assert_eq!(sys.metrics().counter("ipc.aborted_calls"), 3);
}

/// What a process does with the events it is sent; the endpoint is a
/// bystander it may call or talk to.
type Callee = fn(&mut Ctx<'_>, &ProcEvent, Endpoint);

/// `request_stalled(callee, 10 ms)` as a third process sees it 20 ms
/// after `caller` opened a call to `callee`, which reacts with `does`;
/// `dies` names a process killed 5 ms in.
fn stalled_after_20ms(does: Callee, dies: Option<&str>) -> bool {
    let mut sys = new_sys();
    let l = log();
    let sink = sys.spawn_boot(
        "sink",
        Privileges::server(),
        Box::new(Scripted::new(l.clone())),
    );
    let callee = sys.spawn_boot(
        "callee",
        Privileges::server(),
        Box::new(Scripted::with_react(
            l.clone(),
            Box::new(move |ctx, ev| does(ctx, ev, sink)),
        )),
    );
    sys.spawn_boot(
        "caller",
        Privileges::server(),
        Box::new(Scripted::with_react(
            l.clone(),
            Box::new(move |ctx, ev| {
                if matches!(ev, ProcEvent::Start) {
                    ctx.sendrec(callee, Message::new(1)).unwrap();
                }
            }),
        )),
    );
    let answer = Rc::new(RefCell::new(None));
    let answer2 = answer.clone();
    let watcher = sys.spawn_boot(
        "watcher",
        Privileges::server(),
        Box::new(Scripted::with_react(
            l,
            Box::new(move |ctx, ev| {
                if matches!(ev, ProcEvent::Signal(_)) {
                    let stalled = ctx.request_stalled(callee, SimDuration::from_millis(10));
                    *answer2.borrow_mut() = Some(stalled);
                }
            }),
        )),
    );
    sys.run_until(&mut NullPlatform, SimTime::from_micros(5_000));
    if let Some(name) = dies {
        let ep = sys.endpoint_by_name(name).unwrap();
        assert!(sys.kill_by_user(ep, Signal::Kill));
    }
    sys.run_until(&mut NullPlatform, SimTime::from_micros(20_000));
    assert!(sys.kill_by_user(watcher, Signal::Term));
    sys.run_until_idle(&mut NullPlatform, 100);
    answer.take().expect("the watcher answered")
}

#[test]
fn request_stalled_truth_table() {
    let silent: Callee = |_, _, _| {};
    let talked_before_the_window: Callee = |ctx, ev, sink| {
        if matches!(ev, ProcEvent::Start) {
            ctx.notify(sink).unwrap();
        }
    };
    let calls_downstream: Callee = |ctx, ev, sink| {
        if matches!(ev, ProcEvent::Request { .. }) {
            ctx.sendrec(sink, Message::new(2)).unwrap();
        }
    };
    let talks_within_the_window: Callee = |ctx, ev, sink| match ev {
        ProcEvent::Request { .. } => {
            ctx.set_alarm(SimDuration::from_millis(15), 0).unwrap();
        }
        ProcEvent::Alarm { .. } => ctx.send(sink, Message::new(3)).unwrap(),
        _ => {}
    };
    let table = [
        ("sat upon, never talked", silent, None, true),
        (
            "sat upon, talked before the window",
            talked_before_the_window,
            None,
            true,
        ),
        ("holds a call of its own", calls_downstream, None, false),
        (
            "talked within the window",
            talks_within_the_window,
            None,
            false,
        ),
        ("the caller is dead", silent, Some("caller"), false),
        ("the callee is dead", silent, Some("callee"), false),
    ];
    for (case, does, dies, stalled) in table {
        assert_eq!(stalled_after_20ms(does, dies), stalled, "{case}");
    }
}

#[test]
fn a_babble_flag_dies_with_its_incarnation() {
    let mut sys = new_sys();
    sys.mark_sticky("echo");
    let echo = || -> Box<Scripted> {
        Box::new(Scripted::with_react(
            log(),
            Box::new(|ctx, ev| {
                if let ProcEvent::Request { call, .. } = ev {
                    ctx.reply(*call, Message::new(0)).unwrap();
                }
            }),
        ))
    };
    let first = sys.spawn_boot("echo", Privileges::server(), echo());
    // On SIGTERM the client asks whether `target` is flagged, then opens
    // `burst` calls to it at once: `burst` replies in the same instant.
    let target = Rc::new(std::cell::Cell::new(first));
    let burst = Rc::new(std::cell::Cell::new(0u32));
    let answers: Rc<RefCell<Vec<bool>>> = Rc::default();
    let (t, b, a) = (target.clone(), burst.clone(), answers.clone());
    let client = sys.spawn_boot(
        "client",
        Privileges::server(),
        Box::new(Scripted::with_react(
            log(),
            Box::new(move |ctx, ev| {
                if matches!(ev, ProcEvent::Signal(_)) {
                    a.borrow_mut().push(ctx.babble_flagged(t.get()));
                    for _ in 0..b.get() {
                        ctx.sendrec(t.get(), Message::new(1)).unwrap();
                    }
                }
            }),
        )),
    );
    let round = |sys: &mut System, n: u32| {
        burst.set(n);
        assert!(sys.kill_by_user(client, Signal::Term));
        sys.run_until_idle(&mut NullPlatform, 20_000);
    };
    sys.run_until_idle(&mut NullPlatform, 10);
    round(&mut sys, 5_001); // one reply over the budget
    round(&mut sys, 0);
    assert!(sys.kill_by_user(first, Signal::Kill));
    let second = sys.spawn_boot("echo", Privileges::server(), echo());
    assert_eq!(second.slot(), first.slot(), "the sticky slot is reclaimed");
    target.set(second);
    // Within the same 100 ms: a window the dead incarnation opened would
    // be over budget at the first of these replies.
    round(&mut sys, 5_000);
    round(&mut sys, 1);
    round(&mut sys, 0);
    assert_eq!(*answers.borrow(), [false, true, false, false, true]);
    assert_eq!(sys.metrics().counter("kernel.babble.flagged"), 2);
    assert!(sys.now() < SimTime::from_micros(100_000), "one window");
}

#[test]
fn send_to_dead_endpoint_fails_fast() {
    let mut sys = new_sys();
    let l = log();
    let victim = sys.spawn_boot(
        "v",
        Privileges::server(),
        Box::new(Scripted::new(l.clone())),
    );
    let result: Rc<RefCell<Option<Result<(), IpcError>>>> = Rc::new(RefCell::new(None));
    let result2 = result.clone();
    let sender = sys.spawn_boot(
        "s",
        Privileges::server(),
        Box::new(Scripted::with_react(
            l.clone(),
            Box::new(move |ctx, ev| {
                if matches!(ev, ProcEvent::Notify { .. }) {
                    *result2.borrow_mut() = Some(ctx.send(victim, Message::new(1)));
                }
            }),
        )),
    );
    sys.run_until_idle(&mut NullPlatform, 10);
    sys.kill_by_user(victim, Signal::Kill);
    // Poke the sender via a notify from a third process.
    sys.spawn_boot(
        "poker",
        Privileges::server(),
        Box::new(Scripted::with_react(
            l.clone(),
            Box::new(move |ctx, ev| {
                if matches!(ev, ProcEvent::Start) {
                    ctx.notify(sender).unwrap();
                }
            }),
        )),
    );
    sys.run_until_idle(&mut NullPlatform, 10);
    assert_eq!(*result.borrow(), Some(Err(IpcError::DeadDestination)));
}

#[test]
fn restarted_slot_does_not_receive_stale_messages() {
    let mut sys = new_sys();
    let l = log();
    let old = sys.spawn_boot(
        "drv",
        Privileges::server(),
        Box::new(Scripted::new(l.clone())),
    );
    let sender_log = l.clone();
    let sender = sys.spawn_boot(
        "s",
        Privileges::server(),
        Box::new(Scripted::with_react(
            sender_log,
            Box::new(move |ctx, ev| {
                if matches!(ev, ProcEvent::Notify { .. }) {
                    // Send to the OLD endpoint; succeeds at send time
                    // because the process is still alive.
                    ctx.send(old, Message::new(9)).unwrap();
                }
            }),
        )),
    );
    sys.run_until_idle(&mut NullPlatform, 10);
    // Trigger the send, then kill + respawn into the same slot before the
    // message is delivered.
    sys.spawn_boot(
        "poker",
        Privileges::server(),
        Box::new(Scripted::with_react(
            l.clone(),
            Box::new(move |ctx, ev| {
                if matches!(ev, ProcEvent::Start) {
                    ctx.notify(sender).unwrap();
                }
            }),
        )),
    );
    // Deliver poker start + notify, which queues the message to `old`.
    sys.step(&mut NullPlatform); // poker start
    sys.step(&mut NullPlatform); // sender notify -> send queued
    sys.kill_by_user(old, Signal::Kill);
    let newep = sys.spawn_boot(
        "drv",
        Privileges::server(),
        Box::new(Scripted::new(l.clone())),
    );
    assert_eq!(newep.slot(), old.slot(), "slot reused");
    assert_ne!(newep, old, "generation differs");
    sys.run_until_idle(&mut NullPlatform, 20);
    let lg = l.borrow();
    let drv_msgs: Vec<_> = lg.iter().filter(|e| e.contains("drv@msg")).collect();
    assert!(
        drv_msgs.is_empty(),
        "stale message must be dropped: {drv_msgs:?}"
    );
    assert!(sys.metrics().counter("ipc.stale_drops") >= 1);
}

#[test]
fn notify_and_alarm_delivery() {
    let mut sys = new_sys();
    let l = log();
    sys.spawn_boot(
        "t",
        Privileges::server(),
        Box::new(Scripted::with_react(
            l.clone(),
            Box::new(|ctx, ev| {
                if matches!(ev, ProcEvent::Start) {
                    ctx.set_alarm(SimDuration::from_millis(5), 99).unwrap();
                }
            }),
        )),
    );
    sys.run_until_idle(&mut NullPlatform, 10);
    assert!(l.borrow().contains(&"t@alarm:99".to_string()));
    assert_eq!(sys.now(), SimTime::from_micros(5_000));
}

#[test]
fn cancelled_alarm_does_not_fire() {
    let mut sys = new_sys();
    let l = log();
    sys.spawn_boot(
        "t",
        Privileges::server(),
        Box::new(Scripted::with_react(
            l.clone(),
            Box::new(|ctx, ev| {
                if matches!(ev, ProcEvent::Start) {
                    let id = ctx.set_alarm(SimDuration::from_millis(5), 1).unwrap();
                    assert!(ctx.cancel_alarm(id));
                    ctx.set_alarm(SimDuration::from_millis(1), 2).unwrap();
                }
            }),
        )),
    );
    sys.run_until_idle(&mut NullPlatform, 10);
    let lg = l.borrow();
    assert!(lg.contains(&"t@alarm:2".to_string()));
    assert!(!lg.contains(&"t@alarm:1".to_string()));
}

/// Sets `n` alarms 5 ms ahead at start, tokens `0..n`.
fn sets_alarms(log: Rc<RefCell<Vec<String>>>, n: u64) -> Box<Scripted> {
    Box::new(Scripted::with_react(
        log,
        Box::new(move |ctx, ev| {
            if matches!(ev, ProcEvent::Start) {
                for token in 0..n {
                    ctx.set_alarm(SimDuration::from_millis(5), token).unwrap();
                }
            }
        }),
    ))
}

#[test]
fn death_cancels_pending_alarms() {
    let mut sys = new_sys();
    let l = log();
    let t = sys.spawn_boot("t", Privileges::server(), sets_alarms(l.clone(), 100));
    sys.spawn_boot("other", Privileges::server(), sets_alarms(l.clone(), 1));
    sys.step(&mut NullPlatform); // t's start (sets its alarms)
    sys.kill_by_user(t, Signal::Kill);
    // The next incarnation takes the slot: an alarm of the dead one that
    // still fired would be addressed to a stale endpoint.
    let again = sys.spawn_boot("t", Privileges::server(), sets_alarms(l.clone(), 0));
    assert_eq!(again.slot(), t.slot());
    sys.run_until_idle(&mut NullPlatform, 1_000);
    let lg = l.borrow();
    assert!(!lg.iter().any(|e| e.starts_with("t@alarm")), "{lg:?}");
    assert!(lg.contains(&"other@alarm:0".to_string()), "{lg:?}");
    assert_eq!(
        sys.metrics().counter("ipc.stale_drops"),
        0,
        "cancelled with their owner, not delivered and dropped"
    );
    assert_eq!(sys.now(), SimTime::from_micros(5_000));
}

/// `cancel_alarm` answers `true` only to the process that set the alarm,
/// and only while it is pending: not to another process holding the id,
/// not once the alarm fired, not through an id whose place in the kernel's
/// tables a later alarm has taken.
#[test]
fn an_alarm_id_answers_only_to_its_owner_and_only_while_pending() {
    let mut sys = new_sys();
    let l = log();
    let board: Rc<RefCell<Vec<AlarmId>>> = Rc::default();
    let (a_board, a_log) = (board.clone(), l.clone());
    sys.spawn_boot(
        "a",
        Privileges::server(),
        Box::new(Scripted::with_react(
            l.clone(),
            Box::new(move |ctx, ev| match ev {
                ProcEvent::Start => {
                    for (ms, token) in [(5, 1), (1, 2)] {
                        let id = ctx.set_alarm(SimDuration::from_millis(ms), token);
                        a_board.borrow_mut().push(id.unwrap());
                    }
                }
                ProcEvent::Alarm { token: 2 } => {
                    let fired = a_board.borrow()[1];
                    let mut answers = vec![ctx.cancel_alarm(fired)];
                    // Whatever the fired alarm occupied is free to be
                    // taken by these; its id must not reach them.
                    for _ in 0..3 {
                        ctx.set_alarm(SimDuration::from_millis(2), 3).unwrap();
                        answers.push(ctx.cancel_alarm(fired));
                    }
                    a_log
                        .borrow_mut()
                        .push(format!("a cancels fired: {answers:?}"));
                }
                _ => {}
            }),
        )),
    );
    let (b_board, b_log) = (board.clone(), l.clone());
    sys.spawn_boot(
        "b",
        Privileges::server(),
        Box::new(Scripted::with_react(
            l.clone(),
            Box::new(move |ctx, ev| match ev {
                ProcEvent::Start => {
                    ctx.set_alarm(SimDuration::from_millis(2), 9).unwrap();
                }
                ProcEvent::Alarm { .. } => {
                    let answers: Vec<bool> = b_board
                        .borrow()
                        .iter()
                        .map(|&id| ctx.cancel_alarm(id))
                        .collect();
                    b_log
                        .borrow_mut()
                        .push(format!("b cancels a's: {answers:?}"));
                }
                _ => {}
            }),
        )),
    );
    sys.run_until_idle(&mut NullPlatform, 100);
    let lg = l.borrow();
    let alarms: Vec<&str> = lg
        .iter()
        .filter(|e| e.contains("alarm") || e.contains("cancels"))
        .map(String::as_str)
        .collect();
    assert_eq!(
        alarms,
        [
            "a@alarm:2",
            "a cancels fired: [false, false, false, false]",
            "b@alarm:9",
            "b cancels a's: [false, false]",
            "a@alarm:3",
            "a@alarm:3",
            "a@alarm:3",
            "a@alarm:1",
        ]
    );
    assert_eq!(sys.now(), SimTime::from_micros(5_000));
}

#[test]
fn sigterm_is_catchable_sigkill_is_not() {
    let mut sys = new_sys();
    let l = log();
    let t = sys.spawn_boot(
        "t",
        Privileges::server(),
        Box::new(Scripted::new(l.clone())),
    );
    sys.run_until_idle(&mut NullPlatform, 10);
    sys.kill_by_user(t, Signal::Term);
    sys.run_until_idle(&mut NullPlatform, 10);
    assert!(l.borrow().contains(&"t@signal:SIGTERM".to_string()));
    assert!(
        sys.is_live(t),
        "SIGTERM alone does not kill our scripted process"
    );
    sys.kill_by_user(t, Signal::Kill);
    assert!(!sys.is_live(t));
    sys.run_until_idle(&mut NullPlatform, 10);
    assert!(
        !l.borrow().iter().any(|e| e.contains("SIGKILL")),
        "SIGKILL never delivered"
    );
}

#[test]
fn ipc_filter_enforced() {
    let mut sys = new_sys();
    let l = log();
    let secret = sys.spawn_boot(
        "secret",
        Privileges::server(),
        Box::new(Scripted::new(l.clone())),
    );
    let mut p = Privileges::server();
    p.ipc = IpcFilter::named(["rs"]); // not allowed to reach "secret"
    let result: Rc<RefCell<Option<Result<(), IpcError>>>> = Rc::new(RefCell::new(None));
    let result2 = result.clone();
    sys.spawn_boot(
        "restricted",
        p,
        Box::new(Scripted::with_react(
            l.clone(),
            Box::new(move |ctx, ev| {
                if matches!(ev, ProcEvent::Start) {
                    *result2.borrow_mut() = Some(ctx.send(secret, Message::new(1)));
                }
            }),
        )),
    );
    sys.run_until_idle(&mut NullPlatform, 10);
    assert_eq!(*result.borrow(), Some(Err(IpcError::NotPermitted)));
    assert!(!l.borrow().contains(&"secret@msg:1".to_string()));
    assert_eq!(sys.metrics().counter("ipc.denied"), 1);
}

#[test]
fn kernel_call_mask_enforced() {
    let mut sys = new_sys();
    let l = log();
    let errs: Rc<RefCell<Vec<KernelError>>> = Rc::new(RefCell::new(Vec::new()));
    let errs2 = errs.clone();
    let mut p = Privileges::user();
    p.ipc = IpcFilter::AllowAll;
    sys.spawn_boot(
        "app",
        p,
        Box::new(Scripted::with_react(
            l.clone(),
            Box::new(move |ctx, ev| {
                if matches!(ev, ProcEvent::Start) {
                    let mut es = errs2.borrow_mut();
                    es.push(ctx.devio_read(DeviceId(0), 0).unwrap_err());
                    es.push(ctx.sys_spawn("x", None).unwrap_err());
                    es.push(ctx.sys_kill(ctx.self_endpoint(), Signal::Kill).unwrap_err());
                    es.push(ctx.irq_enable(3).unwrap_err());
                }
            }),
        )),
    );
    sys.run_until_idle(&mut NullPlatform, 10);
    assert_eq!(
        errs.borrow().as_slice(),
        [
            KernelError::CallNotPermitted,
            KernelError::CallNotPermitted,
            KernelError::CallNotPermitted,
            KernelError::CallNotPermitted,
        ]
    );
}

/// Privileges are bound at exec time: after a program's table is
/// adjusted, the incarnation already running keeps the table it was
/// spawned with, and the next spawn gets the new one. Each incarnation
/// tries to reach `peer` at its start and again 10 ms later; the table is
/// widened to allow it between the two spawns.
#[test]
fn a_running_incarnation_keeps_the_table_it_was_spawned_with() {
    let mut sys = new_sys();
    let peer = sys.spawn_boot("peer", Privileges::server(), Box::new(Scripted::new(log())));
    /// Each try: who made it, and what the kernel answered.
    type Tries = Rc<RefCell<Vec<(Endpoint, Result<(), IpcError>)>>>;
    let tries: Tries = Rc::default();
    let t = tries.clone();
    let mut narrow = Privileges::server();
    narrow.ipc = IpcFilter::named(["rs"]);
    sys.register_program(
        "drv",
        narrow,
        Box::new(move || {
            let t = t.clone();
            Box::new(Scripted::with_react(
                log(),
                Box::new(move |ctx, ev| {
                    if matches!(ev, ProcEvent::Start) {
                        ctx.set_alarm(SimDuration::from_millis(10), 0).unwrap();
                    }
                    if matches!(ev, ProcEvent::Start | ProcEvent::Alarm { .. }) {
                        let tried = ctx.send(peer, Message::new(1));
                        t.borrow_mut().push((ctx.self_endpoint(), tried));
                    }
                }),
            ))
        }),
    );
    let spawned: Rc<RefCell<Vec<Endpoint>>> = Rc::default();
    let s = spawned.clone();
    let mut pm = Privileges::process_manager();
    pm.kernel_calls.insert(KernelCall::SetAlarm);
    sys.spawn_boot(
        "pm",
        pm,
        Box::new(Scripted::with_react(
            log(),
            Box::new(move |ctx, ev| {
                if matches!(ev, ProcEvent::Start) {
                    ctx.set_alarm(SimDuration::from_millis(5), 0).unwrap();
                }
                if matches!(ev, ProcEvent::Start | ProcEvent::Alarm { .. }) {
                    s.borrow_mut().push(ctx.sys_spawn("drv", None).unwrap());
                }
            }),
        )),
    );
    sys.run_until(&mut NullPlatform, SimTime::from_micros(2_000));
    assert!(sys.adjust_program_privileges("drv", |p| p.ipc = IpcFilter::AllowAll));
    sys.run_until_idle(&mut NullPlatform, 100);
    let [old, new] = spawned.borrow()[..] else {
        panic!("two spawns of drv, not {:?}", spawned.borrow());
    };
    let denied = Err(IpcError::NotPermitted);
    let of = |ep: Endpoint| -> Vec<Result<(), IpcError>> {
        let tries = tries.borrow();
        tries
            .iter()
            .filter(|(e, _)| *e == ep)
            .map(|&(_, r)| r)
            .collect()
    };
    assert_eq!(of(old), [denied, denied], "the running incarnation");
    assert_eq!(of(new), [Ok(()), Ok(())], "the spawn after the change");
    assert_eq!(
        sys.declared_privileges()["drv"].ipc,
        IpcFilter::AllowAll,
        "the registry holds the new table"
    );
}

/// Only a holder of `MagicGrant` may grant another process's memory: a
/// server holding `SetGrant` is refused exactly as a missing call is.
#[test]
fn a_magic_grant_needs_its_own_call() {
    use phoenix_kernel::memory::{GrantAccess, GrantId};
    use phoenix_kernel::privileges::KernelCall;
    let mut sys = new_sys();
    let l = log();
    let errs: Rc<RefCell<Vec<Result<(), KernelError>>>> = Rc::default();
    let user = sys.spawn_boot(
        "client",
        Privileges::user(),
        Box::new(Scripted::new(l.clone())),
    );
    for (name, calls) in [
        ("srv", vec![KernelCall::SetGrant, KernelCall::SafeCopy]),
        ("vfs", vec![KernelCall::MagicGrant]),
    ] {
        let errs = errs.clone();
        sys.spawn_boot(
            name,
            Privileges::server().with_calls(calls),
            Box::new(Scripted::with_react(
                l.clone(),
                Box::new(move |ctx, ev| {
                    if matches!(ev, ProcEvent::Start) {
                        let me = ctx.self_endpoint();
                        let made = ctx.magic_grant_create(user, me, 0, 64, GrantAccess::Write);
                        let revoked = ctx.magic_grant_revoke(*made.as_ref().unwrap_or(&GrantId(1)));
                        errs.borrow_mut().extend([made.map(|_| ()), revoked]);
                    }
                }),
            )),
        );
    }
    sys.run_until_idle(&mut NullPlatform, 10);
    // `srv` starts first: refused twice; then `vfs`, granted and revoked.
    let refused = Err(KernelError::CallNotPermitted);
    assert_eq!(errs.borrow().as_slice(), [refused, refused, Ok(()), Ok(())]);
    assert!(!Privileges::server().allows_call(KernelCall::MagicGrant));
}

#[test]
fn exception_death_reports_reason_to_parent() {
    // PM-style parent: spawns a child program that dies of an MMU fault.
    let mut sys = new_sys();
    let l = log();
    sys.register_program(
        "buggy",
        Privileges::server(),
        Box::new(|| Box::new(Crasher)),
    );
    struct Crasher;
    impl Process for Crasher {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
            if matches!(event, ProcEvent::Start) {
                ctx.die_of_exception(ExceptionKind::MmuFault);
            }
        }
    }
    sys.spawn_boot(
        "pm",
        Privileges::process_manager(),
        Box::new(Scripted::with_react(
            l.clone(),
            Box::new(|ctx, ev| {
                if matches!(ev, ProcEvent::Start) {
                    ctx.sys_spawn("buggy", None).unwrap();
                }
            }),
        )),
    );
    sys.run_until_idle(&mut NullPlatform, 10);
    assert!(
        l.borrow()
            .iter()
            .any(|e| e.starts_with("pm@chld:buggy:Exception(MmuFault)")),
        "{:?}",
        l.borrow()
    );
}

#[test]
fn voluntary_exit_and_panic_reach_parent_with_reason() {
    let mut sys = new_sys();
    let l = log();
    struct Exiter(i32);
    impl Process for Exiter {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
            if matches!(event, ProcEvent::Start) {
                if self.0 == 0 {
                    ctx.panic("internal inconsistency");
                } else {
                    ctx.exit(self.0);
                }
            }
        }
    }
    sys.register_program(
        "exiter",
        Privileges::server(),
        Box::new(|| Box::new(Exiter(3))),
    );
    sys.register_program(
        "panicker",
        Privileges::server(),
        Box::new(|| Box::new(Exiter(0))),
    );
    sys.spawn_boot(
        "pm",
        Privileges::process_manager(),
        Box::new(Scripted::with_react(
            l.clone(),
            Box::new(|ctx, ev| {
                if matches!(ev, ProcEvent::Start) {
                    ctx.sys_spawn("exiter", None).unwrap();
                    ctx.sys_spawn("panicker", None).unwrap();
                }
            }),
        )),
    );
    sys.run_until_idle(&mut NullPlatform, 20);
    let lg = l.borrow();
    assert!(lg.iter().any(|e| e.contains("chld:exiter:Exited(3)")));
    assert!(lg.iter().any(|e| e.contains("chld:panicker:Panicked")));
}

#[test]
fn program_versions_support_dynamic_update() {
    let mut sys = new_sys();
    let l = log();
    struct Version(u32);
    impl Process for Version {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
            if matches!(event, ProcEvent::Start) {
                let v = self.0;
                ctx.trace(
                    phoenix_simcore::trace::TraceLevel::Info,
                    format!("running v{v}"),
                );
            }
        }
    }
    sys.register_program(
        "drv",
        Privileges::server(),
        Box::new(|| Box::new(Version(1))),
    );
    sys.update_program("drv", Box::new(|| Box::new(Version(2))))
        .unwrap();
    assert_eq!(sys.program_version("drv"), Some(2));
    let spawned: Rc<RefCell<Vec<Endpoint>>> = Rc::new(RefCell::new(Vec::new()));
    let spawned2 = spawned.clone();
    sys.spawn_boot(
        "pm",
        Privileges::process_manager(),
        Box::new(Scripted::with_react(
            l,
            Box::new(move |ctx, ev| {
                if matches!(ev, ProcEvent::Start) {
                    spawned2
                        .borrow_mut()
                        .push(ctx.sys_spawn("drv", None).unwrap());
                    spawned2
                        .borrow_mut()
                        .push(ctx.sys_spawn("drv", Some(1)).unwrap());
                    assert_eq!(
                        ctx.sys_spawn("drv", Some(3)),
                        Err(KernelError::NoSuchProgram)
                    );
                    assert_eq!(ctx.sys_spawn("nope", None), Err(KernelError::NoSuchProgram));
                }
            }),
        )),
    );
    sys.run_until_idle(&mut NullPlatform, 10);
    let eps = spawned.borrow();
    assert_eq!(sys.version_of(eps[0]), Some(2), "default runs latest");
    assert_eq!(sys.version_of(eps[1]), Some(1), "explicit version honored");
    assert_eq!(sys.program_of(eps[0]), Some("drv"));
    assert!(sys.trace().find("running v2").is_some());
}

#[test]
fn stuck_process_drops_events_until_killed() {
    let mut sys = new_sys();
    let l = log();
    let loops = sys.spawn_boot(
        "loopy",
        Privileges::server(),
        Box::new(Scripted::with_react(
            l.clone(),
            Box::new(|ctx, ev| {
                if matches!(ev, ProcEvent::Start) {
                    ctx.hang();
                }
            }),
        )),
    );
    sys.run_until_idle(&mut NullPlatform, 10);
    assert!(sys.is_live(loops));
    assert!(sys.is_stuck(loops));
    // Messages to a stuck process vanish into its (never-drained) mailbox.
    sys.spawn_boot(
        "s",
        Privileges::server(),
        Box::new(Scripted::with_react(
            l.clone(),
            Box::new(move |ctx, ev| {
                if matches!(ev, ProcEvent::Start) {
                    ctx.send(loops, Message::new(8)).unwrap();
                }
            }),
        )),
    );
    sys.run_until_idle(&mut NullPlatform, 10);
    assert!(!l.borrow().contains(&"loopy@msg:8".to_string()));
    assert_eq!(sys.metrics().counter("ipc.stuck_drops"), 1);
    // SIGKILL still works on a stuck process (that is how RS recovers it).
    assert!(sys.kill_by_user(loops, Signal::Kill));
    assert!(!sys.is_live(loops));
}

#[test]
fn reply_to_dead_caller_returns_error() {
    let mut sys = new_sys();
    let l = log();
    let call_store: Rc<RefCell<Option<phoenix_kernel::types::CallId>>> =
        Rc::new(RefCell::new(None));
    let cs = call_store.clone();
    let server = sys.spawn_boot(
        "server",
        Privileges::server(),
        Box::new(Scripted::with_react(
            l.clone(),
            Box::new(move |ctx, ev| match ev {
                ProcEvent::Request { call, .. } => {
                    // Hold the reply until poked by a notify.
                    *cs.borrow_mut() = Some(*call);
                }
                ProcEvent::Notify { .. } => {
                    let call = cs.borrow_mut().take().unwrap();
                    assert_eq!(
                        ctx.reply(call, Message::new(0)),
                        Err(IpcError::DeadDestination)
                    );
                }
                _ => {}
            }),
        )),
    );
    let client = sys.spawn_boot(
        "client",
        Privileges::server(),
        Box::new(Scripted::with_react(
            l.clone(),
            Box::new(move |ctx, ev| {
                if matches!(ev, ProcEvent::Start) {
                    ctx.sendrec(server, Message::new(1)).unwrap();
                }
            }),
        )),
    );
    sys.run_until_idle(&mut NullPlatform, 10);
    sys.kill_by_user(client, Signal::Kill);
    sys.run_until_idle(&mut NullPlatform, 10);
    // Poke the server to attempt the reply.
    sys.spawn_boot(
        "poker",
        Privileges::server(),
        Box::new(Scripted::with_react(
            l.clone(),
            Box::new(move |ctx, ev| {
                if matches!(ev, ProcEvent::Start) {
                    ctx.notify(server).unwrap();
                }
            }),
        )),
    );
    sys.run_until_idle(&mut NullPlatform, 10);
}

#[test]
fn double_reply_rejected() {
    let mut sys = new_sys();
    let l = log();
    let echo = sys.spawn_boot(
        "echo",
        Privileges::server(),
        Box::new(Scripted::with_react(
            l.clone(),
            Box::new(|ctx, ev| {
                if let ProcEvent::Request { call, .. } = ev {
                    ctx.reply(*call, Message::new(1)).unwrap();
                    assert_eq!(ctx.reply(*call, Message::new(2)), Err(IpcError::NoSuchCall));
                }
            }),
        )),
    );
    sys.spawn_boot(
        "c",
        Privileges::server(),
        Box::new(Scripted::with_react(
            l.clone(),
            Box::new(move |ctx, ev| {
                if matches!(ev, ProcEvent::Start) {
                    ctx.sendrec(echo, Message::new(0)).unwrap();
                }
            }),
        )),
    );
    sys.run_until_idle(&mut NullPlatform, 10);
}

#[test]
fn reply_by_third_party_rejected() {
    let mut sys = new_sys();
    let l = log();
    let shared_call: Rc<RefCell<Option<phoenix_kernel::types::CallId>>> =
        Rc::new(RefCell::new(None));
    let sc = shared_call.clone();
    let callee = sys.spawn_boot(
        "callee",
        Privileges::server(),
        Box::new(Scripted::with_react(
            l.clone(),
            Box::new(move |_ctx, ev| {
                if let ProcEvent::Request { call, .. } = ev {
                    *sc.borrow_mut() = Some(*call);
                }
            }),
        )),
    );
    sys.spawn_boot(
        "caller",
        Privileges::server(),
        Box::new(Scripted::with_react(
            l.clone(),
            Box::new(move |ctx, ev| {
                if matches!(ev, ProcEvent::Start) {
                    ctx.sendrec(callee, Message::new(0)).unwrap();
                }
            }),
        )),
    );
    sys.run_until_idle(&mut NullPlatform, 10);
    let sc2 = shared_call.clone();
    sys.spawn_boot(
        "intruder",
        Privileges::server(),
        Box::new(Scripted::with_react(
            l.clone(),
            Box::new(move |ctx, ev| {
                if matches!(ev, ProcEvent::Start) {
                    let call = sc2.borrow().unwrap();
                    assert_eq!(
                        ctx.reply(call, Message::new(666)),
                        Err(IpcError::NoSuchCall)
                    );
                }
            }),
        )),
    );
    sys.run_until_idle(&mut NullPlatform, 10);
    assert!(!l.borrow().iter().any(|e| e.contains("reply:666")));
}

/// A one-register test device: reads return the last written value; writing
/// raises IRQ 4 and schedules a timer that raises IRQ 4 again.
struct TestDevice {
    value: u32,
    dev: DeviceId,
}

impl Platform for TestDevice {
    fn io_read(&mut self, dev: DeviceId, _reg: u16, _ctx: &mut HwCtx<'_>) -> u32 {
        assert_eq!(dev, self.dev);
        self.value
    }
    fn io_write(&mut self, dev: DeviceId, _reg: u16, value: u32, ctx: &mut HwCtx<'_>) {
        assert_eq!(dev, self.dev);
        self.value = value;
        ctx.raise_irq(4);
        let at = ctx.now() + SimDuration::from_millis(1);
        ctx.set_timer(at, (u64::from(dev.0) << 48) | 7);
    }
    fn timer(&mut self, dev: DeviceId, token: u64, ctx: &mut HwCtx<'_>) {
        assert_eq!(dev, self.dev);
        assert_eq!(token, 7);
        ctx.raise_irq(4);
    }
    fn external(&mut self, _channel: u64, _payload: Vec<u8>, _ctx: &mut HwCtx<'_>) {}
    fn has_device(&self, dev: DeviceId) -> bool {
        dev == self.dev
    }
}

#[test]
fn devio_and_irq_routing() {
    let mut sys = new_sys();
    let mut dev = TestDevice {
        value: 0,
        dev: DeviceId(1),
    };
    let l = log();
    sys.spawn_boot(
        "drv",
        Privileges::driver(DeviceId(1), 4),
        Box::new(Scripted::with_react(
            l.clone(),
            Box::new(|ctx, ev| match ev {
                ProcEvent::Start => {
                    ctx.irq_enable(4).unwrap();
                    ctx.devio_write(DeviceId(1), 0, 0xBEEF).unwrap();
                }
                ProcEvent::Irq { .. } => {
                    let v = ctx.devio_read(DeviceId(1), 0).unwrap();
                    assert_eq!(v, 0xBEEF);
                }
                _ => {}
            }),
        )),
    );
    sys.run_until_idle(&mut dev, 20);
    let irqs = l.borrow().iter().filter(|e| e.contains("irq:4")).count();
    assert_eq!(irqs, 2, "one immediate IRQ + one from the device timer");
    assert_eq!(sys.metrics().counter("irq.delivered"), 2);
}

#[test]
fn devio_denied_for_wrong_device() {
    let mut sys = new_sys();
    let mut dev = TestDevice {
        value: 0,
        dev: DeviceId(1),
    };
    let l = log();
    sys.spawn_boot(
        "drv",
        Privileges::driver(DeviceId(2), 9), // privileges for a different device
        Box::new(Scripted::with_react(
            l,
            Box::new(|ctx, ev| {
                if matches!(ev, ProcEvent::Start) {
                    assert_eq!(
                        ctx.devio_read(DeviceId(1), 0),
                        Err(KernelError::DeviceNotPermitted)
                    );
                    assert_eq!(
                        ctx.devio_read(DeviceId(2), 0),
                        Err(KernelError::NoSuchDevice),
                        "allowed by privilege but absent from the bus"
                    );
                    assert_eq!(ctx.irq_enable(4), Err(KernelError::IrqNotPermitted));
                }
            }),
        )),
    );
    sys.run_until_idle(&mut dev, 10);
}

#[test]
fn irq_after_driver_death_is_unhandled() {
    let mut sys = new_sys();
    let mut dev = TestDevice {
        value: 0,
        dev: DeviceId(1),
    };
    let l = log();
    let drv = sys.spawn_boot(
        "drv",
        Privileges::driver(DeviceId(1), 4),
        Box::new(Scripted::with_react(
            l,
            Box::new(|ctx, ev| {
                if matches!(ev, ProcEvent::Start) {
                    ctx.irq_enable(4).unwrap();
                    // Write schedules a timer that raises IRQ 4 in 1ms.
                    ctx.devio_write(DeviceId(1), 0, 1).unwrap();
                }
            }),
        )),
    );
    sys.step(&mut dev); // start: irq registered, immediate IRQ queued, timer set
    sys.kill_by_user(drv, Signal::Kill);
    sys.run_until_idle(&mut dev, 20);
    // Both the immediate IRQ (stale delivery) and the timer IRQ (no
    // handler) are lost rather than misdelivered.
    assert_eq!(sys.metrics().counter("irq.unhandled"), 1);
    assert!(sys.metrics().counter("ipc.stale_drops") >= 1);
}

#[test]
fn grants_work_through_ctx() {
    let mut sys = new_sys();
    let l = log();
    let consumer_log = l.clone();
    struct Producer {
        peer: Option<Endpoint>,
    }
    impl Process for Producer {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
            match event {
                ProcEvent::Message(m) if m.mtype == 1 => {
                    // Peer announces itself; write data, grant, and tell it.
                    let peer = m.source;
                    ctx.mem_write(64, b"payload!").unwrap();
                    let g = ctx
                        .grant_create(peer, 64, 8, phoenix_kernel::memory::GrantAccess::Read)
                        .unwrap();
                    ctx.send(peer, Message::new(2).with_param(0, u64::from(g.0)))
                        .unwrap();
                    self.peer = Some(peer);
                }
                _ => {}
            }
        }
    }
    let producer = sys.spawn_boot(
        "producer",
        Privileges::server(),
        Box::new(Producer { peer: None }),
    );
    sys.spawn_boot(
        "consumer",
        Privileges::server(),
        Box::new(Scripted::with_react(
            consumer_log,
            Box::new(move |ctx, ev| match ev {
                ProcEvent::Start => {
                    ctx.send(producer, Message::new(1)).unwrap();
                }
                ProcEvent::Message(m) if m.mtype == 2 => {
                    let g = phoenix_kernel::memory::GrantId(m.param(0) as u32);
                    ctx.safecopy_from(producer, g, 0, 0, 8).unwrap();
                    assert_eq!(ctx.mem(0, 8).unwrap(), b"payload!");
                    ctx.trace(phoenix_simcore::trace::TraceLevel::Info, "copied".into());
                }
                _ => {}
            }),
        )),
    );
    sys.run_until_idle(&mut NullPlatform, 20);
    assert!(sys.trace().find("copied").is_some());
}

#[test]
fn exit_reason_kill_origin_distinguished() {
    // Class 3 (killed by user) vs class 2-style system kill must be
    // distinguishable in the exit status the parent receives.
    let mut sys = new_sys();
    let l = log();
    struct Idle;
    impl Process for Idle {
        fn on_event(&mut self, _ctx: &mut Ctx<'_>, _event: ProcEvent) {}
    }
    sys.register_program("d", Privileges::server(), Box::new(|| Box::new(Idle)));
    let pm = sys.spawn_boot(
        "pm",
        Privileges::process_manager(),
        Box::new(Scripted::with_react(
            l.clone(),
            Box::new(|ctx, ev| {
                if matches!(ev, ProcEvent::Start) {
                    ctx.sys_spawn("d", None).unwrap();
                }
            }),
        )),
    );
    let _ = pm;
    sys.run_until_idle(&mut NullPlatform, 10);
    let d = sys.endpoint_by_name("d").unwrap();
    sys.kill_by_user(d, Signal::Kill);
    sys.run_until_idle(&mut NullPlatform, 10);
    assert!(l.borrow().iter().any(|e| e.contains(&format!(
        "chld:d:{:?}",
        ExitReason::Signaled(Signal::Kill, KillOrigin::User)
    ))));
}

#[test]
fn run_until_advances_clock_without_events() {
    let mut sys = new_sys();
    sys.run_until(&mut NullPlatform, SimTime::from_micros(5_000_000));
    assert_eq!(sys.now(), SimTime::from_micros(5_000_000));
}

#[test]
fn live_processes_lists_current_incarnations() {
    let mut sys = new_sys();
    let l = log();
    let a = sys.spawn_boot(
        "a",
        Privileges::server(),
        Box::new(Scripted::new(l.clone())),
    );
    sys.spawn_boot("b", Privileges::server(), Box::new(Scripted::new(l)));
    sys.run_until_idle(&mut NullPlatform, 10);
    assert_eq!(sys.live_processes().len(), 2);
    sys.kill_by_user(a, Signal::Kill);
    assert_eq!(sys.live_processes().len(), 1);
    assert_eq!(sys.endpoint_by_name("a"), None);
    assert!(sys.endpoint_by_name("b").is_some());
}

/// A program's live incarnations are the processes `sys_spawn` made from
/// it, in slot order: a boot process of the same name and another
/// program's children are not among them, a killed one leaves, and a
/// child stays after its parent dies.
#[test]
fn live_incarnations_lists_what_sys_spawn_made_of_one_program() {
    struct Idle;
    impl Process for Idle {
        fn on_event(&mut self, _ctx: &mut Ctx<'_>, _event: ProcEvent) {}
    }
    let mut sys = new_sys();
    sys.register_program("d", Privileges::server(), Box::new(|| Box::new(Idle)));
    sys.register_program("e", Privileges::server(), Box::new(|| Box::new(Idle)));
    let spawned: Rc<RefCell<Vec<Endpoint>>> = Rc::new(RefCell::new(Vec::new()));
    let s = spawned.clone();
    let spawn = Box::new(move |ctx: &mut Ctx<'_>, ev: &ProcEvent| {
        if matches!(ev, ProcEvent::Start) {
            for program in ["d", "e", "d"] {
                s.borrow_mut().push(ctx.sys_spawn(program, None).unwrap());
            }
        }
    });
    let pm = sys.spawn_boot(
        "pm",
        Privileges::process_manager(),
        Box::new(Scripted::with_react(log(), spawn)),
    );
    sys.spawn_boot("d", Privileges::server(), Box::new(Idle));
    sys.run_until_idle(&mut NullPlatform, 10);
    // What a process asking the kernel sees now.
    let mut probes = 0;
    let mut probe = |sys: &mut System| {
        let seen: Rc<RefCell<Vec<Endpoint>>> = Rc::new(RefCell::new(Vec::new()));
        let s = seen.clone();
        let ask = Box::new(move |ctx: &mut Ctx<'_>, ev: &ProcEvent| {
            if matches!(ev, ProcEvent::Start) {
                *s.borrow_mut() = ctx.live_incarnations("d").collect();
            }
        });
        probes += 1;
        let name = format!("probe{probes}");
        sys.spawn_boot(
            &name,
            Privileges::server(),
            Box::new(Scripted::with_react(log(), ask)),
        );
        sys.run_until_idle(&mut NullPlatform, 10);
        seen.take()
    };
    let (d1, d2) = (spawned.borrow()[0], spawned.borrow()[2]);
    let mut both = vec![d1, d2];
    both.sort_by_key(|ep| ep.slot());
    assert_eq!(probe(&mut sys), both);
    assert!(sys.kill_by_user(pm, Signal::Kill));
    sys.run_until_idle(&mut NullPlatform, 10);
    assert_eq!(probe(&mut sys), both, "a child outlives its parent");
    assert!(sys.kill_by_user(d1, Signal::Kill));
    sys.run_until_idle(&mut NullPlatform, 10);
    assert_eq!(probe(&mut sys), [d2]);
}
