//! The two rules of the client engines (`phoenix::client`), each checked
//! against a scripted VFS for every `Job` of the char-stream writer and
//! every policy of the file reader:
//!
//! * a send the kernel refuses is an aborted call;
//! * every event ends in a call in flight, an armed alarm, or a terminal
//!   status the harness can see — no client parks silently.
//!
//! These are paths no campaign exercises (one that did would have hung on
//! its guard), so the script plays the server: a vector of replies, one
//! per request, and what the client sent is the observation.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use phoenix::apps::{
    CkptLpd, CkptLpdStatus, Dd, DdLoop, DdLoopStatus, DdStatus, Lpd, LpdLoop, LpdLoopStatus,
    LpdStatus,
};
use phoenix::os::Os;
use phoenix_drivers::proto::{cdev, status};
use phoenix_kernel::process::{ProcEvent, Process};
use phoenix_kernel::system::Ctx;
use phoenix_kernel::types::{Endpoint, Message};
use phoenix_servers::proto::{evidence, fs, rs};
use phoenix_simcore::time::{SimDuration, SimTime};

/// What the script does with one request.
enum Step {
    Reply(Message),
    /// Reply, then exit: the client's next send is refused by the kernel.
    ReplyAndExit(Message),
}

/// Every request the script received, with its arrival time.
type Seen = Rc<RefCell<Vec<(SimTime, Message)>>>;

/// The scripted server: answers the n-th request with the n-th step; past
/// the end of the script it answers `then`, or leaves the call open.
struct Script {
    steps: VecDeque<Step>,
    then: Option<Message>,
    seen: Seen,
}

impl Process for Script {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        let ProcEvent::Request { call, msg } = event else {
            return;
        };
        self.seen.borrow_mut().push((ctx.now(), msg));
        match self.steps.pop_front() {
            Some(Step::Reply(reply)) => {
                let _ = ctx.reply(call, reply);
            }
            Some(Step::ReplyAndExit(reply)) => {
                let _ = ctx.reply(call, reply);
                ctx.exit(0);
            }
            None => {
                if let Some(reply) = self.then.clone() {
                    let _ = ctx.reply(call, reply);
                }
            }
        }
    }
}

/// One machine with a scripted VFS and a scripted RS that acknowledges
/// (and records) every complaint.
struct Rig {
    os: Os,
    vfs: Endpoint,
    rs: Endpoint,
    requests: Seen,
    complaints: Seen,
}

fn rig(steps: Vec<Step>) -> Rig {
    let mut os = Os::builder().seed(16).boot();
    let (requests, complaints) = (Seen::default(), Seen::default());
    let vfs = os.spawn_app(
        "script-vfs",
        Box::new(Script {
            steps: steps.into(),
            then: None,
            seen: requests.clone(),
        }),
    );
    let rs = os.spawn_app(
        "script-rs",
        Box::new(Script {
            steps: VecDeque::new(),
            then: Some(Message::new(rs::ACK)),
            seen: complaints.clone(),
        }),
    );
    Rig {
        os,
        vfs,
        rs,
        requests,
        complaints,
    }
}

impl Rig {
    fn run(&mut self, app: Box<dyn Process>) {
        self.os
            .spawn_app_with_ipc("client", app, &["script-vfs", "script-rs"]);
        self.os.run_for(SimDuration::from_secs(1));
    }

    /// Kinds of the requests the scripted VFS received, in order.
    fn kinds(&self) -> Vec<u32> {
        self.requests
            .borrow()
            .iter()
            .map(|(_, m)| m.mtype)
            .collect()
    }

    /// Time between the arrivals of requests `a` and `b`.
    fn gap(&self, a: usize, b: usize) -> SimDuration {
        let seen = self.requests.borrow();
        seen[b].0.since(seen[a].0)
    }

    fn request(&self, i: usize) -> Message {
        self.requests.borrow()[i].1.clone()
    }
}

fn dev_reply(st: u64, accepted: u64) -> Message {
    Message::new(cdev::REPLY)
        .with_param(0, st)
        .with_param(1, accepted)
}

/// An accepted 1 KB chunk; the acknowledgment is what a checkpointed
/// driver adds (ignored by the other jobs).
fn accepted_chunk(n: u64) -> Message {
    let acked = cdev::Reply {
        status: status::OK,
        count: 1024,
        consumed: n * 1024,
        ack_seq: n,
        ..Default::default()
    };
    acked.into_message()
}

/// `(seq, offset)` of a logged write; `None` for an unlogged one.
fn wal(write: &Message) -> Option<(u64, u64)> {
    let write = cdev::Write::from_message(write).filter(|w| w.seq != 0)?;
    Some((write.seq, write.offset))
}

fn driver_died() -> Message {
    Message::new(fs::DATA_REPLY)
        .with_param(0, status::EIO)
        .with_param(2, 1)
}

fn opened(size: u64) -> Message {
    Message::new(fs::OPEN_REPLY)
        .with_param(1, 3)
        .with_param(2, size)
}

/// An OK read reply of `len` bytes: only the count, as a file server
/// sends it (the script copies nothing into the reader's buffer).
fn data(len: u64) -> Message {
    Message::new(fs::DATA_REPLY).with_param(1, len)
}

/// A 4 KB job whose n-th 1 KB chunk is all `n`s.
fn job() -> Vec<u8> {
    (0..4096).map(|i| (i / 1024) as u8).collect()
}

/// The four jobs of the char-stream writer. Each returns a probe of
/// `(errors or restarts counted, terminal)`.
type Probe = Box<dyn Fn() -> (u64, bool)>;
type Spawn = fn(Endpoint, Endpoint) -> (Box<dyn Process>, Probe);

const WRITERS: [(&str, Spawn); 4] = [
    ("lpd", |vfs, _| {
        let st = Rc::new(RefCell::new(LpdStatus::default()));
        let app = Lpd::new(vfs, job(), st.clone());
        let probe = move || {
            (
                st.borrow().job_restarts + st.borrow().fatal,
                st.borrow().done,
            )
        };
        (Box::new(app), Box::new(probe))
    }),
    ("lpd-unaware", |vfs, _| {
        let st = Rc::new(RefCell::new(LpdStatus::default()));
        let app = Lpd::new_unaware(vfs, job(), st.clone());
        let probe = move || (st.borrow().fatal, st.borrow().done);
        (Box::new(app), Box::new(probe))
    }),
    ("ckpt-lpd", |vfs, _| {
        let st = Rc::new(RefCell::new(CkptLpdStatus::default()));
        let app = CkptLpd::new(vfs, job(), st.clone());
        let probe = move || {
            (
                st.borrow().replays + st.borrow().app_errors,
                st.borrow().done,
            )
        };
        (Box::new(app), Box::new(probe))
    }),
    ("lpd-loop", |vfs, _| {
        let st = Rc::new(RefCell::new(LpdLoopStatus::default()));
        let app = LpdLoop::new(vfs, vec![9; 1024], st.clone());
        let probe = move || (st.borrow().errors, false);
        (Box::new(app), Box::new(probe))
    }),
];

/// The three policies of the file reader, same probe.
const READERS: [(&str, Spawn); 3] = [
    ("dd", |vfs, _| {
        let st = Rc::new(RefCell::new(DdStatus::default()));
        let app = Dd::new(vfs, "f", 4096, st.clone());
        let probe = move || {
            (
                st.borrow().errors,
                st.borrow().done || st.borrow().errors > 0,
            )
        };
        (Box::new(app), Box::new(probe))
    }),
    ("dd-aware", |vfs, rs| {
        let st = Rc::new(RefCell::new(DdStatus::default()));
        let app = Dd::new(vfs, "f", 4096, st.clone()).recovery_aware(rs);
        let probe = move || (st.borrow().retries, st.borrow().done);
        (Box::new(app), Box::new(probe))
    }),
    ("dd-loop", |vfs, _| {
        let st = Rc::new(RefCell::new(DdLoopStatus::default()));
        let app = DdLoop::new(vfs, "f", 4096, st.clone());
        let probe = move || (st.borrow().errors, false);
        (Box::new(app), Box::new(probe))
    }),
];

const OPEN: u32 = fs::OPEN;
const WRITE: u32 = cdev::WRITE;
const READ: u32 = fs::READ;

#[test]
fn a_transient_error_gets_the_declared_policy_and_never_parks() {
    // EIO with the driver-died flag clear: the device's own error.
    for (name, spawn) in WRITERS {
        let mut rig = rig(vec![
            Step::Reply(dev_reply(status::OK, 0)),
            Step::Reply(dev_reply(status::EIO, 0)),
        ]);
        let (app, probe) = spawn(rig.vfs, rig.rs);
        rig.run(app);
        let (counted, terminal) = probe();
        assert_eq!(counted, 1, "{name}: the error is counted once");
        match name {
            // Either print daemon tells the user and is done.
            "lpd" | "lpd-unaware" => {
                assert!(terminal, "{name} parked");
                assert_eq!(rig.kinds(), [OPEN, WRITE]);
            }
            // The logged job resends the same entry after the grace period.
            "ckpt-lpd" => {
                assert_eq!(rig.kinds(), [OPEN, WRITE, WRITE]);
                assert_eq!(wal(&rig.request(2)), wal(&rig.request(1)));
                assert!(rig.gap(1, 2) >= SimDuration::from_millis(100));
            }
            // The feeder reopens.
            _ => {
                assert_eq!(rig.kinds(), [OPEN, WRITE, OPEN]);
                assert!(rig.gap(1, 2) >= SimDuration::from_millis(100));
            }
        }
    }
    for (name, spawn) in READERS {
        let mut rig = rig(vec![
            Step::Reply(opened(8192)),
            Step::Reply(Message::new(fs::DATA_REPLY).with_param(0, status::EIO)),
        ]);
        let (app, probe) = spawn(rig.vfs, rig.rs);
        rig.run(app);
        assert_eq!(probe().0, 1, "{name}: the error is counted once");
        match name {
            // Count and stop: the error is the report to the user.
            "dd" => assert_eq!(rig.kinds(), [OPEN, READ]),
            // Reissue at the same offset, at once.
            "dd-aware" => {
                assert_eq!(rig.kinds(), [OPEN, READ, READ]);
                assert_eq!(rig.request(2).params, rig.request(1).params);
            }
            // Back off and reopen.
            _ => {
                assert_eq!(rig.kinds(), [OPEN, READ, OPEN]);
                assert!(rig.gap(1, 2) >= SimDuration::from_millis(100));
            }
        }
    }
}

#[test]
fn a_refused_send_is_an_aborted_call() {
    // At `Start`: nobody is behind the endpoint the client was given.
    for (name, spawn) in WRITERS.into_iter().chain(READERS) {
        let mut rig = rig(vec![]);
        assert!(rig.os.kill_by_user("script-vfs"));
        rig.os.run_for(SimDuration::from_millis(10));
        let (app, probe) = spawn(rig.vfs, rig.rs);
        rig.run(app);
        let (counted, terminal) = probe();
        match name {
            "lpd-unaware" | "dd" => assert!(counted == 1 && terminal, "{name} parked"),
            // Everyone else keeps knocking: an alarm is always armed.
            _ => assert!(counted > 1, "{name} parked after {counted} attempt(s)"),
        }
    }
    // Mid-job: the server answers one data request and is gone.
    for (name, spawn) in WRITERS {
        let mut rig = rig(vec![
            Step::Reply(dev_reply(status::OK, 0)),
            Step::ReplyAndExit(accepted_chunk(1)),
        ]);
        let (app, probe) = spawn(rig.vfs, rig.rs);
        rig.run(app);
        let (counted, terminal) = probe();
        match name {
            "lpd-unaware" => assert!(counted == 1 && terminal, "{name} parked"),
            _ => assert!(counted > 1, "{name} parked after {counted} attempt(s)"),
        }
    }
    for (name, spawn) in READERS {
        let mut rig = rig(vec![
            Step::Reply(opened(8192)),
            Step::ReplyAndExit(data(4096)),
        ]);
        let (app, probe) = spawn(rig.vfs, rig.rs);
        rig.run(app);
        let (counted, terminal) = probe();
        match name {
            "dd" => assert!(counted == 1 && terminal, "{name} parked"),
            _ => assert!(counted > 1, "{name} parked after {counted} attempt(s)"),
        }
    }
}

#[test]
fn a_full_fifo_is_retried_once_after_the_drain_delay() {
    for (name, spawn) in WRITERS {
        let mut rig = rig(vec![
            Step::Reply(dev_reply(status::OK, 0)),
            Step::Reply(dev_reply(status::EAGAIN, 0)),
        ]);
        let (app, probe) = spawn(rig.vfs, rig.rs);
        rig.run(app);
        assert_eq!(probe().0, 0, "{name}: a full FIFO is not an error");
        // One retry, left outstanding by the script; not in the same tick.
        assert_eq!(rig.kinds(), [OPEN, WRITE, WRITE], "{name}");
        assert_eq!(rig.request(2).data, rig.request(1).data, "{name}");
        let gap = rig.gap(1, 2);
        assert!(
            gap >= SimDuration::from_millis(20) && gap < SimDuration::from_millis(100),
            "{name}: retried after {gap:?}"
        );
    }
}

#[test]
fn a_dead_driver_means_what_the_job_declared() {
    for (name, spawn) in WRITERS {
        // Chunk 1 is accepted; the driver dies holding chunk 2.
        let mut rig = rig(vec![
            Step::Reply(dev_reply(status::OK, 0)),
            Step::Reply(accepted_chunk(1)),
            Step::Reply(driver_died()),
            Step::Reply(dev_reply(status::OK, 0)),
        ]);
        let (app, probe) = spawn(rig.vfs, rig.rs);
        rig.run(app);
        let (counted, terminal) = probe();
        assert_eq!(counted, 1, "{name}: one driver death");
        if name == "lpd-unaware" {
            // Abandon and tell the user.
            assert!(terminal);
            assert_eq!(rig.kinds(), [OPEN, WRITE, WRITE]);
            continue;
        }
        assert_eq!(rig.kinds(), [OPEN, WRITE, WRITE, OPEN, WRITE], "{name}");
        assert!(rig.gap(2, 3) >= SimDuration::from_millis(100), "{name}");
        let resumed = rig.request(4);
        match name {
            // Start over: nobody knows what reached the paper.
            "lpd" => assert_eq!(resumed.data, vec![0; 1024]),
            // Replay from the first unacknowledged log entry: chunk 2.
            "ckpt-lpd" => {
                assert_eq!(resumed.data, vec![1; 1024]);
                assert_eq!(wal(&resumed), Some((2, 1024)));
            }
            // Just reopen and keep feeding.
            _ => assert_eq!(resumed.data, vec![9; 1024]),
        }
    }
}

#[test]
fn a_garbled_reply_to_an_aware_reader_is_one_complaint_then_the_same_offset() {
    let mut rig = rig(vec![
        Step::Reply(opened(8192)),
        Step::Reply(data(4096)),
        Step::Reply(Message::new(fs::DATA_REPLY ^ 0x5A5A)),
    ]);
    let st = Rc::new(RefCell::new(DdStatus::default()));
    let dd = Dd::new(rig.vfs, "f", 4096, st.clone()).recovery_aware(rig.rs);
    rig.run(Box::new(dd));
    assert_eq!((st.borrow().complaints, st.borrow().retries), (1, 1));
    let complaints = rig.complaints.borrow();
    assert_eq!(complaints.len(), 1);
    let filed = &complaints[0].1;
    let c = rs::Complain::from_message(filed).expect("a complaint");
    assert_eq!(
        (c.kind, filed.data.as_slice(), c.incarnation),
        (
            u64::from(evidence::BAD_REPLY),
            b"vfs".as_slice(),
            Some(rig.vfs)
        )
    );
    // The read the garbage consumed is asked again: offset 4096 both times.
    assert_eq!(rig.kinds(), [OPEN, READ, READ, READ]);
    assert_eq!(rig.request(3).params, rig.request(2).params);
    assert_eq!(rig.request(3).param(1), 4096);
}
