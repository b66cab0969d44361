//! The §6.2 engine against fakes: `Server<FileServer<V>>` runs on the
//! real kernel between a scripted block driver, a scripted data store
//! and a fake RS, so every rule the engine owns — park on abort, reopen
//! and reissue on publish, the deadlines, the paced `EAGAIN` retry, the
//! sentinels, the scrub, the checkpoint — is checked once, and for both
//! on-disk formats: each test is generic over the [`Volume`] and runs on
//! a disk image built by that format's own `mkfs`.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use phoenix_ckpt::proto::{ckpt, ckpt_status};
use phoenix_ckpt::Snapshot;
use phoenix_drivers::proto::{bdev, status};
use phoenix_hw::disk::{DiskModel, SECTOR};
use phoenix_kernel::memory::{GrantAccess, GrantId};
use phoenix_kernel::platform::NullPlatform;
use phoenix_kernel::privileges::Privileges;
use phoenix_kernel::process::{ProcEvent, Process};
use phoenix_kernel::system::{Ctx, System, SystemConfig};
use phoenix_kernel::types::{Endpoint, Message, Signal};
use phoenix_servers::ds::ds_status;
use phoenix_servers::fsfat::{mkfs_fat, Fat16};
use phoenix_servers::fsfmt::{mkfs, FileContent, FileSpec, Inode, Minix};
use phoenix_servers::mfs::{FileServer, Volume};
use phoenix_servers::proto::{ds, evidence, fs, rs};
use phoenix_servers::{FaultPlane, Server};
use phoenix_simcore::time::{SimDuration, SimTime};
use phoenix_simcore::trace::{RecoveryId, SpanId};

const DRIVER_KEY: &str = "blk.fake";
const FILE: &str = "data.bin";
/// 40 sectors of explicit content: byte `i` is `i % 251`.
const FILE_SECTORS: u64 = 40;
/// One-way message to the fake store: notify your subscribers.
const POKE: u32 = 0x7101;

type Mkfs = fn(&mut DiskModel, &[FileSpec]) -> Vec<Inode>;

fn content() -> Vec<u8> {
    (0..FILE_SECTORS as usize * SECTOR)
        .map(|i| (i % 251) as u8)
        .collect()
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

/// What the fake driver does with the next data request.
#[derive(Clone, Copy, Debug)]
enum Behave {
    /// Transfer and answer correctly.
    Serve,
    /// Never answer (a lost reply, or the request a kill will abort).
    Drop,
    Eagain,
    /// Answer with a message that is not `bdev::REPLY`.
    WrongType,
    /// Claim one sector less than asked.
    Short,
    /// Transfer correctly but echo a wrong descriptor checksum.
    BadEcho,
}

/// One request as the fake driver saw it.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Seen {
    driver: Endpoint,
    mtype: u32,
    lba: u64,
    sectors: u64,
    at: SimTime,
}

struct DriverScript {
    disk: DiskModel,
    /// Behaviour of the next data requests, front first; empty = serve.
    plan: VecDeque<Behave>,
    answer_open: bool,
    seen: Vec<Seen>,
    /// Whether the grant of a dropped request still worked 6 s later.
    stale_grant_usable: Option<bool>,
}

/// Spawns one incarnation of the scripted block driver.
fn fake_driver(sys: &mut System, script: &Rc<RefCell<DriverScript>>) -> Endpoint {
    let script = script.clone();
    let mut dropped: Option<(Endpoint, GrantId)> = None;
    probe(
        sys,
        DRIVER_KEY,
        Box::new(move |ctx, ev| {
            let mut s = script.borrow_mut();
            match ev {
                ProcEvent::Request { call, msg } => {
                    let (lba, sectors) = (msg.param(0), msg.param(1));
                    s.seen.push(Seen {
                        driver: ctx.self_endpoint(),
                        mtype: msg.mtype,
                        lba,
                        sectors,
                        at: ctx.now(),
                    });
                    let reply = |st: u64, n: u64, echo: u64| {
                        Message::new(bdev::REPLY)
                            .with_param(0, st)
                            .with_param(1, n)
                            .with_param(2, echo)
                    };
                    if msg.mtype == bdev::OPEN {
                        if s.answer_open {
                            let capacity = s.disk.sectors();
                            let _ = ctx.reply(*call, reply(status::OK, capacity, 0));
                        }
                        return;
                    }
                    let grant = GrantId(msg.param(2) as u32);
                    let bytes = sectors as usize * SECTOR;
                    let behave = s.plan.pop_front().unwrap_or(Behave::Serve);
                    if matches!(behave, Behave::Serve | Behave::BadEcho) {
                        if msg.mtype == bdev::READ {
                            let data: Vec<u8> = (lba..lba + sectors)
                                .flat_map(|l| s.disk.read(l).expect("in range"))
                                .collect();
                            ctx.mem_write(0, &data).unwrap();
                            ctx.safecopy_to(msg.source, grant, 0, 0, bytes).unwrap();
                        } else {
                            ctx.safecopy_from(msg.source, grant, 0, 0, bytes).unwrap();
                            let data = ctx.mem(0, bytes).unwrap();
                            for (i, sector) in data.chunks(SECTOR).enumerate() {
                                assert!(s.disk.write(lba + i as u64, sector));
                            }
                        }
                    }
                    let answer = match behave {
                        Behave::Serve => reply(status::OK, bytes as u64, 0),
                        Behave::BadEcho => reply(status::OK, bytes as u64, u64::MAX),
                        Behave::Short => reply(status::OK, (bytes - SECTOR) as u64, 0),
                        Behave::Eagain => reply(status::EAGAIN, 0, 0),
                        Behave::WrongType => Message::new(0x7777),
                        Behave::Drop => {
                            dropped = Some((msg.source, grant));
                            let _ = ctx.set_alarm(SimDuration::from_secs(6), 0);
                            return;
                        }
                    };
                    let _ = ctx.reply(*call, answer);
                }
                ProcEvent::Alarm { .. } => {
                    if let Some((granter, grant)) = dropped.take() {
                        let ok = ctx.safecopy_to(granter, grant, 0, 0, SECTOR).is_ok();
                        s.stale_grant_usable = Some(ok);
                    }
                }
                _ => {}
            }
        }),
    )
}

/// What the scripted data store answers and what it saw.
#[derive(Default)]
struct DsScript {
    /// `RESTORE` answers with this payload (`None` = `NOT_FOUND`).
    snapshot: Option<Vec<u8>>,
    /// Queued `CHECK_REPLY`s.
    pending: VecDeque<Message>,
    /// Payload of every `ckpt::SAVE`, in arrival order.
    saves: Vec<Vec<u8>>,
    subscribers: Vec<Endpoint>,
}

fn fake_ds(sys: &mut System, script: &Rc<RefCell<DsScript>>) -> Endpoint {
    let script = script.clone();
    probe(
        sys,
        "ds",
        Box::new(move |ctx, ev| {
            let mut s = script.borrow_mut();
            match ev {
                ProcEvent::Request { call, msg } => {
                    let reply = match msg.mtype {
                        ckpt::RESTORE => match &s.snapshot {
                            Some(payload) => Message::new(ckpt::RESTORE_REPLY)
                                .with_data(Snapshot::new(1, 7, payload.clone()).encode()),
                            None => Message::new(ckpt::RESTORE_REPLY)
                                .with_param(0, ckpt_status::NOT_FOUND),
                        },
                        ckpt::SAVE => {
                            let key_len = msg.param(0) as usize;
                            let snap =
                                Snapshot::decode(&msg.data[key_len..]).expect("snapshot frame");
                            s.saves.push(snap.payload);
                            Message::new(ckpt::SAVE_REPLY)
                        }
                        ds::SUBSCRIBE => {
                            s.subscribers.push(msg.source);
                            Message::new(ds::ACK)
                        }
                        ds::CHECK => s.pending.pop_front().unwrap_or_else(|| {
                            Message::new(ds::CHECK_REPLY).with_param(0, ds_status::NO_UPDATE)
                        }),
                        other => panic!("fake ds got {other:#x}"),
                    };
                    let _ = ctx.reply(*call, reply);
                }
                ProcEvent::Message(m) if m.mtype == POKE => {
                    for sub in &s.subscribers {
                        let _ = ctx.notify(*sub);
                    }
                }
                _ => {}
            }
        }),
    )
}

/// A complaint as RS decoded it: `(kind, accused, incarnation)`.
type Filed = (u32, String, Option<Endpoint>);
/// `(status, data)` of each read a client got answered, in order.
type Answers = Rc<RefCell<Vec<(u64, Vec<u8>)>>>;

/// The rig: scripted driver, scripted store, fake RS, and the file
/// server for volume `V` between them.
struct Rig {
    sys: System,
    server: &'static str,
    driver: Endpoint,
    drv: Rc<RefCell<DriverScript>>,
    store: Rc<RefCell<DsScript>>,
    complaints: Rc<RefCell<Vec<Filed>>>,
    probes: u32,
}

impl Rig {
    /// The usual start: everything booted, the first driver incarnation
    /// published, no checkpointing.
    fn up<V: Volume + 'static>(mkfs: Mkfs) -> Rig {
        let mut rig = Rig::new::<V>(mkfs, DsScript::default(), None);
        rig.publish(None);
        rig
    }

    /// Boots everything; the driver is up but not yet published.
    fn new<V: Volume + 'static>(mkfs: Mkfs, store: DsScript, plane: Option<&FaultPlane>) -> Rig {
        let mut sys = System::new(SystemConfig::default());
        let store = Rc::new(RefCell::new(store));
        let dse = fake_ds(&mut sys, &store);
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
        let mut disk = DiskModel::new(4096, 21);
        let spec = FileSpec {
            name: FILE.to_string(),
            content: FileContent::Bytes(content()),
        };
        mkfs(&mut disk, &[spec]);
        let drv = Rc::new(RefCell::new(DriverScript {
            disk,
            plan: VecDeque::new(),
            answer_open: true,
            seen: Vec::new(),
            stale_grant_usable: None,
        }));
        let driver = fake_driver(&mut sys, &drv);
        let server = V::NAMES.shell.server;
        let logic = FileServer::<V>::new(rs, DRIVER_KEY);
        sys.spawn_boot(
            server,
            Privileges::server(),
            Box::new(Server::new(logic, dse, plane)),
        );
        let mut rig = Rig {
            sys,
            server,
            driver,
            drv,
            store,
            complaints,
            probes: 0,
        };
        rig.run();
        rig
    }

    fn run(&mut self) {
        self.sys.run_until_idle(&mut NullPlatform, 100_000);
    }

    /// Runs for 100 ms: long enough for any exchange, short of every
    /// deadline.
    fn run_briefly(&mut self) {
        let until = self.sys.now() + SimDuration::from_millis(100);
        self.sys.run_until(&mut NullPlatform, until);
    }

    fn spawn(&mut self, hook: Hook) {
        self.probes += 1;
        probe(&mut self.sys, &format!("probe{}", self.probes), hook);
    }

    /// Announces the current driver incarnation through the store, as
    /// part of recovery episode `rid` if given, and runs the system idle.
    fn publish(&mut self, rid: Option<u64>) {
        let update = ds::CheckReply {
            status: 0,
            endpoint: self.driver,
            recovery: rid.and_then(RecoveryId::from_wire),
            span: rid.and_then(|r| SpanId::from_wire(r + 100)),
        };
        let update = update
            .into_message()
            .with_data(DRIVER_KEY.as_bytes().to_vec());
        self.store.borrow_mut().pending.push_back(update);
        let dse = self.sys.endpoint_by_name("ds").unwrap();
        self.spawn(Box::new(move |ctx, ev| {
            if matches!(ev, ProcEvent::Start) {
                let _ = ctx.send(dse, Message::new(POKE));
            }
        }));
        self.run();
    }

    /// Kills the driver (aborting whatever it holds) and starts a fresh
    /// incarnation, not yet published.
    fn restart_driver(&mut self) {
        assert!(self.sys.kill_by_user(self.driver, Signal::Kill));
        self.run();
        self.driver = fake_driver(&mut self.sys, &self.drv);
        self.run();
    }

    /// Starts a client that opens the file and then reads each
    /// `(offset, len)` in turn; does not run the system.
    fn reader(&mut self, reads: Vec<(u64, u64)>) -> Answers {
        let server = self.sys.endpoint_by_name(self.server).unwrap();
        let answers = Answers::default();
        let sink = answers.clone();
        let mut todo: VecDeque<(u64, u64)> = reads.into();
        let mut ino = None;
        self.spawn(Box::new(move |ctx, ev| {
            match ev {
                ProcEvent::Start => {
                    let open = Message::new(fs::OPEN).with_data(FILE.as_bytes().to_vec());
                    let _ = ctx.sendrec(server, open);
                    return;
                }
                ProcEvent::Reply {
                    result: Ok(reply), ..
                } if ino.is_none() => {
                    assert_eq!(reply.param(0), status::OK, "open");
                    ino = Some(reply.param(1));
                }
                ProcEvent::Reply {
                    result: Ok(reply), ..
                } => {
                    // The bytes are in the reader's buffer; the reply,
                    // OK or not, carries only their count.
                    assert!(reply.data.is_empty(), "no file byte in a reply");
                    let count = reply.param(1) as usize;
                    let data = ctx.mem(0, count).expect("the count fits the buffer");
                    sink.borrow_mut().push((reply.param(0), data.to_vec()));
                }
                _ => return,
            }
            if let (Some(ino), Some((offset, len))) = (ino, todo.pop_front()) {
                // Straight to the file server: the reader grants it its
                // own buffer, as VFS grants it a client's.
                let grant = ctx
                    .grant_create(server, 0, len as usize, GrantAccess::Write)
                    .expect("the buffer fits");
                let read = Message::new(fs::READ)
                    .with_param(0, ino)
                    .with_param(1, offset)
                    .with_param(2, len)
                    .with_param(4, u64::from(grant.0));
                let _ = ctx.sendrec(server, read);
            }
        }));
        answers
    }

    /// Reads the whole file once and returns what the client got.
    fn read_all(&mut self) -> Vec<(u64, Vec<u8>)> {
        let answers = self.reader(vec![(0, FILE_SECTORS * SECTOR as u64)]);
        self.run();
        let got = answers.borrow().clone();
        got
    }

    fn counter(&self, suffix: &str) -> u64 {
        self.sys
            .metrics()
            .counter(&format!("{}.{suffix}", self.server))
    }

    fn sentinel(&self, suffix: &str) -> u64 {
        let name = format!("sentinel.{}.{suffix}", self.server);
        self.sys.metrics().counter(&name)
    }

    /// Data requests (not opens) the driver saw, as `(lba, sectors)`.
    fn data_requests(&self) -> Vec<(u64, u64)> {
        let seen = &self.drv.borrow().seen;
        let data = seen.iter().filter(|s| s.mtype != bdev::OPEN);
        data.map(|s| (s.lba, s.sectors)).collect()
    }

    fn opens(&self) -> usize {
        let seen = &self.drv.borrow().seen;
        seen.iter().filter(|s| s.mtype == bdev::OPEN).count()
    }

    fn plan(&mut self, plan: &[Behave]) {
        self.drv.borrow_mut().plan = plan.iter().copied().collect();
    }

    fn complaint_kinds(&self) -> Vec<u32> {
        self.complaints.borrow().iter().map(|c| c.0).collect()
    }
}

/// §6.2 end to end: the rendezvous is aborted, the request is parked,
/// nothing moves until the store announces the new incarnation, then the
/// device is reopened and the same chunk reissued.
fn abort_parks_until_publish_then_reopens_and_reissues<V: Volume + 'static>(mkfs: Mkfs) {
    let mut rig = Rig::up::<V>(mkfs);
    assert_eq!(rig.read_all(), vec![(status::OK, content())], "mounted");
    let before = rig.data_requests().len();
    rig.plan(&[Behave::Drop]);
    let answers = rig.reader(vec![(0, FILE_SECTORS * SECTOR as u64)]);
    rig.run_briefly();
    let parked = *rig.data_requests().last().unwrap();
    rig.restart_driver();
    assert_eq!(rig.counter("pending_aborts"), 1, "marked pending");
    assert!(answers.borrow().is_empty(), "the client just waits");
    assert_eq!(
        rig.data_requests().len(),
        before + 1,
        "nothing reissued yet"
    );
    assert_eq!(rig.opens(), 1, "the new incarnation is not touched yet");

    rig.publish(Some(5));
    assert_eq!(*answers.borrow(), vec![(status::OK, content())]);
    assert_eq!(rig.opens(), 2, "minor device reopened");
    assert_eq!(rig.data_requests()[before + 1], parked, "same chunk again");
    let seen = rig.drv.borrow().seen.clone();
    let reopen = seen.iter().rposition(|s| s.mtype == bdev::OPEN).unwrap();
    assert_eq!(seen[reopen].driver, rig.driver, "at the new incarnation");
    assert!(
        seen[reopen + 1..].iter().all(|s| s.driver == rig.driver),
        "reopen precedes the reissue"
    );
    assert_eq!(rig.counter("reissues"), 1);
    assert_eq!(rig.counter("driver_reintegrations"), 1);
    assert!(rig.complaints.borrow().is_empty(), "a crash is RS's to see");
    // Both recovery events carry the episode of the publish.
    let kinds: Vec<String> = rig
        .sys
        .trace()
        .events_for(RecoveryId::from_wire(5).unwrap())
        .filter(|(_, e)| e.component == rig.server)
        .filter_map(|(_, e)| e.kind().map(str::to_string))
        .collect();
    assert_eq!(kinds, ["reintegrate", "resume"]);
}

/// The reply to the post-restart reopen is lost: the engine may not sit
/// on its parked request forever.
fn lost_reopen_reply_ends_in_a_deadline_complaint<V: Volume + 'static>(mkfs: Mkfs) {
    let mut rig = Rig::up::<V>(mkfs);
    rig.read_all();
    rig.drv.borrow_mut().answer_open = false;
    rig.restart_driver();
    let t0 = rig.sys.now();
    rig.publish(Some(6));
    let driver = Some(rig.driver);
    assert_eq!(
        *rig.complaints.borrow(),
        [(evidence::DEADLINE, DRIVER_KEY.to_string(), driver)]
    );
    assert!(rig.sys.now() >= t0 + SimDuration::from_secs(5));
    assert_eq!(rig.sentinel("deadline"), 1);
    // RS restarts the accused; the next publish retriggers the reopen.
    rig.drv.borrow_mut().answer_open = true;
    rig.restart_driver();
    rig.publish(Some(7));
    assert_eq!(rig.read_all(), vec![(status::OK, content())]);
}

/// A data reply is lost: deadline complaint, the chunk's grant is
/// revoked, and the request is reissued to the replacement.
fn lost_data_reply_ends_in_a_deadline_complaint_and_revokes_the_grant<V: Volume + 'static>(
    mkfs: Mkfs,
) {
    let mut rig = Rig::up::<V>(mkfs);
    rig.read_all();
    rig.plan(&[Behave::Drop]);
    let answers = rig.reader(vec![(0, SECTOR as u64)]);
    rig.run();
    assert_eq!(rig.complaint_kinds(), [evidence::DEADLINE]);
    assert_eq!(rig.drv.borrow().stale_grant_usable, Some(false));
    assert!(answers.borrow().is_empty());
    rig.restart_driver();
    rig.publish(Some(8));
    assert_eq!(answers.borrow()[0].1, content()[..SECTOR]);
    assert_eq!(rig.counter("reissues"), 1);
}

/// A chunk's response deadline is cancelled when its reply lands: after
/// whole-file reads the system goes idle where the last reply did, with
/// no deadline left to fire five seconds later as a no-op.
fn answered_chunks_leave_no_deadline_behind<V: Volume + 'static>(mkfs: Mkfs) {
    let mut rig = Rig::up::<V>(mkfs);
    let (t0, before) = (rig.sys.now(), rig.data_requests().len());
    for _ in 0..3 {
        assert_eq!(rig.read_all(), vec![(status::OK, content())]);
    }
    let chunks = rig.data_requests().len() - before;
    assert!(chunks >= 3, "a chunk or more per read, {chunks} in all");
    let idle_after = rig.sys.now().since(t0);
    assert!(
        idle_after < SimDuration::from_secs(1),
        "idle {idle_after:?} after the reads began: a deadline outlived its reply"
    );
    assert!(rig.complaints.borrow().is_empty());
}

/// `EAGAIN` is retried once after `RETRY_DELAY`, never in the same tick
/// (the same-tick loop is what livelocked under message chaos).
fn eagain_is_retried_once_after_a_pause<V: Volume + 'static>(mkfs: Mkfs) {
    let mut rig = Rig::up::<V>(mkfs);
    rig.read_all();
    let before = rig.drv.borrow().seen.len();
    rig.plan(&[Behave::Eagain]);
    let answers = rig.reader(vec![(0, SECTOR as u64)]);
    rig.run();
    assert_eq!(answers.borrow()[0].1, content()[..SECTOR]);
    let seen = rig.drv.borrow().seen[before..].to_vec();
    assert_eq!(seen.len(), 2, "one refusal, one retry: {seen:?}");
    assert_eq!(
        (seen[0].lba, seen[0].sectors),
        (seen[1].lba, seen[1].sectors)
    );
    let pause = seen[1].at.since(seen[0].at);
    let (least, most) = (SimDuration::from_millis(1), SimDuration::from_millis(2));
    assert!(
        least <= pause && pause < most,
        "paced, not same-tick: {pause:?}"
    );
    assert_eq!(rig.counter("retries"), 1);
    assert!(rig.complaints.borrow().is_empty());
}

/// The three reply sentinels: wrong type, short transfer, and a
/// descriptor-checksum echo that disagrees (bounded retries, then `EIO`).
fn reply_sentinels_file_typed_complaints<V: Volume + 'static>(mkfs: Mkfs) {
    for (behave, kind, counter) in [
        (Behave::WrongType, evidence::BAD_REPLY, "bad-reply"),
        (Behave::Short, evidence::SHORT_TRANSFER, "short-transfer"),
    ] {
        let mut rig = Rig::up::<V>(mkfs);
        rig.read_all();
        rig.plan(&[behave]);
        let answers = rig.reader(vec![(0, SECTOR as u64)]);
        rig.run();
        assert_eq!(rig.complaint_kinds(), [kind], "{behave:?}");
        assert_eq!(rig.sentinel(counter), 1);
        // High-confidence evidence: the request waits for the restart.
        assert!(answers.borrow().is_empty(), "{behave:?}");
        rig.restart_driver();
        rig.publish(Some(9));
        assert_eq!(answers.borrow()[0].1, content()[..SECTOR], "{behave:?}");
    }

    let mut rig = Rig::up::<V>(mkfs);
    rig.read_all();
    let before = rig.data_requests().len();
    rig.plan(&[Behave::BadEcho; 4]);
    let answers = rig.reader(vec![(0, SECTOR as u64), (0, SECTOR as u64)]);
    rig.run();
    // CSUM_RETRIES = 3: the chunk goes out four times, each mismatch is
    // one complaint, then the client gets EIO — and the next read works.
    assert_eq!(rig.complaint_kinds(), [evidence::CRC_MISMATCH; 4]);
    assert_eq!(rig.sentinel("csum_retries"), 3);
    assert_eq!(rig.data_requests().len(), before + 5);
    let got = answers.borrow();
    assert_eq!(got[0], (status::EIO, Vec::new()));
    assert_eq!(got[1], (status::OK, content()[..SECTOR].to_vec()));
}

/// One read chunk in eight is read twice and compared.
fn every_eighth_chunk_is_scrubbed<V: Volume + 'static>(mkfs: Mkfs) {
    let mut rig = Rig::up::<V>(mkfs);
    // Sixteen one-sector reads are sixteen chunks (the mount's reads are
    // not sampled).
    let sector = SECTOR as u64;
    let answers = rig.reader((0..16).map(|i| (i * sector, sector)).collect());
    rig.run();
    assert_eq!(answers.borrow().len(), 16);
    let data: Vec<u8> = answers.borrow().iter().flat_map(|a| a.1.clone()).collect();
    assert_eq!(data, content()[..16 * SECTOR]);
    let requests = rig.data_requests();
    let chunks = &requests[requests.len() - 18..];
    assert_eq!(chunks[7], chunks[8], "8th chunk re-read");
    assert_eq!(chunks[16], chunks[17], "16th chunk re-read");
    assert_eq!(chunks.iter().filter(|c| **c == chunks[0]).count(), 1);
    assert_eq!((rig.sentinel("scrubs"), rig.sentinel("scrub_ok")), (2, 2));
    assert_eq!(rig.sentinel("scrub_mismatch"), 0);
}

/// Crash-only contract: the mount is checkpointed once, a restart
/// rehydrates from it without touching the disk, and a payload that does
/// not parse is counted and followed by a clean remount.
fn checkpoint_rehydrates_and_garbage_remounts_cleanly<V: Volume + 'static>(mkfs: Mkfs) {
    // A request that arrives before the driver is announced: the shell
    // restores first, so the mount comes from the payload or not at all.
    let boot = |snapshot: Option<Vec<u8>>| {
        let store = DsScript {
            snapshot,
            ..DsScript::default()
        };
        let mut rig = Rig::new::<V>(mkfs, store, Some(&FaultPlane::new()));
        let answers = rig.reader(vec![(0, FILE_SECTORS * SECTOR as u64)]);
        rig.run();
        rig.publish(None);
        assert_eq!(*answers.borrow(), vec![(status::OK, content())]);
        rig
    };
    let mounts = |rig: &Rig| rig.data_requests().iter().filter(|r| r.0 == 0).count();

    let first = boot(None);
    let saves = first.store.borrow().saves.clone();
    assert_eq!(saves.len(), 1, "saved at mount, not per request");
    assert_eq!(mounts(&first), 1, "a cold mount starts at sector 0");

    let warm = boot(Some(saves[0].clone()));
    assert_eq!(warm.counter("mount_restored"), 1);
    assert_eq!(mounts(&warm), 0, "no mount I/O after a restore");
    assert!(warm.store.borrow().saves.is_empty(), "nothing changed");

    let mut truncated = saves[0].clone();
    truncated.truncate(saves[0].len() / 2);
    for payload in [truncated, vec![0xA5; 700], Vec::new()] {
        let cold = boot(Some(payload));
        assert_eq!(cold.counter("mount_restore_garbage"), 1);
        assert_eq!(cold.counter("mount_restored"), 0);
        assert_eq!(mounts(&cold), 1, "clean remount");
        assert_eq!(cold.store.borrow().saves, saves, "and a fresh save");
    }
}

macro_rules! for_both_formats {
    ($($test:ident),* $(,)?) => {
        mod minix {
            use super::*;
            $(#[test] fn $test() { super::$test::<Minix>(mkfs); })*
        }
        mod fat16 {
            use super::*;
            $(#[test] fn $test() { super::$test::<Fat16>(mkfs_fat); })*
        }
    };
}

for_both_formats!(
    abort_parks_until_publish_then_reopens_and_reissues,
    lost_reopen_reply_ends_in_a_deadline_complaint,
    lost_data_reply_ends_in_a_deadline_complaint_and_revokes_the_grant,
    answered_chunks_leave_no_deadline_behind,
    eagain_is_retried_once_after_a_pause,
    reply_sentinels_file_typed_complaints,
    every_eighth_chunk_is_scrubbed,
    checkpoint_rehydrates_and_garbage_remounts_cleanly,
);
