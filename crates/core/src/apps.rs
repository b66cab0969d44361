//! Workload applications.
//!
//! These are the `wget`, `dd`, printer-daemon, MP3-player and CD-burner
//! programs the paper's evaluation and examples are built around. Each app
//! shares an observable state cell with the harness (single-threaded
//! simulation, so `Rc<RefCell<..>>`).

use std::cell::RefCell;
use std::rc::Rc;

use phoenix_ckpt::proto::{reply_ack, tag_request};
use phoenix_ckpt::WriteAheadLog;
use phoenix_drivers::proto::{cdev, status};
use phoenix_kernel::process::{ProcEvent, Process};
use phoenix_kernel::system::Ctx;
use phoenix_kernel::types::{Endpoint, Message};
use phoenix_servers::proto::{complain, evidence, fs, rs as rsp, sock};
use phoenix_servers::vfs::DRIVER_DIED_PARAM;
use phoenix_simcore::digest::{Md5, Sha1};
use phoenix_simcore::time::{SimDuration, SimTime};
use phoenix_simcore::trace::TraceLevel;

/// Shared observable state of a [`Wget`] download.
#[derive(Debug, Default)]
pub struct WgetStatus {
    /// Bytes received so far.
    pub bytes: u64,
    /// Download complete (FIN received).
    pub done: bool,
    /// MD5 of the received stream (set when done).
    pub md5: Option<String>,
    /// Virtual time of the last data arrival.
    pub last_data_at: Option<SimTime>,
    /// Data-flow gaps larger than the gap threshold: `(start, length)`.
    pub gaps: Vec<(SimTime, SimDuration)>,
    /// Completion time.
    pub finished_at: Option<SimTime>,
    /// Recovery-aware mode only: reissued connects/requests after a
    /// server failure.
    pub retries: u64,
    /// Recovery-aware mode only: garbled-reply complaints filed with RS.
    pub complaints: u64,
}

/// `wget`: downloads `size` bytes over a reliable stream and MD5-sums them
/// (Fig. 7).
pub struct Wget {
    inet: Endpoint,
    size: u64,
    content_seed: u64,
    conn: Option<u64>,
    md5: Md5,
    status: Rc<RefCell<WgetStatus>>,
    gap_threshold: SimDuration,
    /// Recovery-aware mode: where to file complaints about garbled INET
    /// replies (`None` = the paper's recovery-unaware baseline, which
    /// simply wedges when its server fails silently).
    rs: Option<Endpoint>,
    /// The GET request was acknowledged; data flow resumes by itself
    /// after a server microreboot, no reissue needed.
    request_acked: bool,
}

impl Wget {
    /// Creates the app; observe progress through `status`.
    pub fn new(
        inet: Endpoint,
        size: u64,
        content_seed: u64,
        status: Rc<RefCell<WgetStatus>>,
    ) -> Self {
        Wget {
            inet,
            size,
            content_seed,
            conn: None,
            md5: Md5::new(),
            status,
            gap_threshold: SimDuration::from_millis(50),
            rs: None,
            request_acked: false,
        }
    }

    /// Makes the download survive INET microreboots: aborted or
    /// error-status calls are reissued, and garbled replies are reported
    /// to RS as `BAD_REPLY` evidence before retrying.
    pub fn recovery_aware(mut self, rs: Endpoint) -> Self {
        self.rs = Some(rs);
        self
    }

    fn complain(&mut self, ctx: &mut Ctx<'_>, accused: Endpoint) {
        let Some(rs) = self.rs else { return };
        let _ = ctx.sendrec(rs, complain(evidence::BAD_REPLY, "inet", Some(accused)));
        self.status.borrow_mut().complaints += 1;
    }

    /// Reissues whatever call the download is blocked on. The connection
    /// handle survives a microreboot (INET's session slab is
    /// externalized), so only the not-yet-acknowledged step is redone.
    /// During the dead window the sendrec itself fails synchronously, so
    /// a retry alarm keeps knocking until the sticky slot routes
    /// somewhere live.
    fn resume(&mut self, ctx: &mut Ctx<'_>) {
        if self.status.borrow().done {
            return;
        }
        self.status.borrow_mut().retries += 1;
        let sent = match self.conn {
            None => ctx.sendrec(self.inet, Message::new(sock::CONNECT)).is_ok(),
            Some(conn) if !self.request_acked => {
                let req = format!("GET {} {}", self.size, self.content_seed);
                ctx.sendrec(
                    self.inet,
                    Message::new(sock::SEND)
                        .with_param(0, conn)
                        .with_data(req.into_bytes()),
                )
                .is_ok()
            }
            Some(_) => true,
        };
        if !sent {
            let _ = ctx.set_alarm(SimDuration::from_millis(50), 0);
        }
    }
}

impl Process for Wget {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        match event {
            ProcEvent::Start => {
                let _ = ctx.sendrec(self.inet, Message::new(sock::CONNECT));
            }
            ProcEvent::Reply {
                result: Ok(reply), ..
            } if reply.mtype == sock::CONNECT_REPLY && reply.param(0) == 0 => {
                let conn = reply.param(1);
                self.conn = Some(conn);
                let req = format!("GET {} {}", self.size, self.content_seed);
                let _ = ctx.sendrec(
                    self.inet,
                    Message::new(sock::SEND)
                        .with_param(0, conn)
                        .with_data(req.into_bytes()),
                );
            }
            ProcEvent::Reply {
                result: Ok(reply), ..
            } if reply.mtype == sock::ACK => {
                if reply.param(0) == 0 {
                    self.request_acked = true;
                } else if self.rs.is_some() {
                    // The restored session slab does not know this
                    // connection (it died before the first quiescent-point
                    // save): start the download over.
                    self.conn = None;
                    self.request_acked = false;
                    self.resume(ctx);
                }
            }
            ProcEvent::Reply {
                result: Ok(reply), ..
            } if reply.mtype == rsp::ACK => {
                // RS acknowledged a complaint; nothing to do.
            }
            ProcEvent::Reply {
                result: Ok(reply), ..
            } if self.rs.is_some() => {
                if reply.mtype == sock::CONNECT_REPLY {
                    // Error-status connect: reissue.
                    self.resume(ctx);
                } else {
                    // A reply type this app never asked for: fail-silent
                    // evidence against the incarnation that sent it.
                    self.complain(ctx, reply.source);
                    self.resume(ctx);
                }
            }
            ProcEvent::Reply { result: Err(_), .. } if self.rs.is_some() => {
                // The call was aborted by the server's death; reissue once
                // the sticky slot routes to the replacement incarnation.
                self.resume(ctx);
            }
            ProcEvent::Alarm { .. } if self.rs.is_some() => {
                // Retry knock from the dead window.
                self.resume(ctx);
            }
            ProcEvent::Message(msg) if msg.mtype == sock::DATA => {
                self.md5.update(&msg.data);
                let now = ctx.now();
                let mut st = self.status.borrow_mut();
                if let Some(prev) = st.last_data_at {
                    let gap = now.since(prev);
                    if gap >= self.gap_threshold {
                        st.gaps.push((prev, gap));
                    }
                }
                st.last_data_at = Some(now);
                st.bytes += msg.data.len() as u64;
            }
            ProcEvent::Message(msg) if msg.mtype == sock::CLOSED => {
                let mut st = self.status.borrow_mut();
                st.done = true;
                st.finished_at = Some(ctx.now());
                st.md5 = Some(self.md5.clone().finish_hex());
                ctx.trace(
                    TraceLevel::Info,
                    format!("wget complete: {} bytes", st.bytes),
                );
            }
            ProcEvent::Message(msg) if self.rs.is_some() => {
                // A push of a type this app cannot parse: garbled stream
                // traffic from a corrupting server.
                self.complain(ctx, msg.source);
            }
            _ => {}
        }
    }
}

/// Shared observable state of a [`Dd`] run.
#[derive(Debug, Default)]
pub struct DdStatus {
    /// Bytes read so far.
    pub bytes: u64,
    /// Read complete.
    pub done: bool,
    /// SHA-1 of the data (set when done).
    pub sha1: Option<String>,
    /// Completion time.
    pub finished_at: Option<SimTime>,
    /// I/O errors observed (should stay 0: block recovery is transparent).
    pub errors: u64,
    /// Recovery-aware mode only: reads/opens reissued at the same offset
    /// after a server failure (progress is never lost, so the SHA-1 stays
    /// byte-exact across microreboots).
    pub retries: u64,
    /// Recovery-aware mode only: garbled-reply complaints filed with RS.
    pub complaints: u64,
}

/// `dd`: sequentially reads a file through VFS/MFS in fixed-size chunks
/// and pipes it into `sha1sum` (Fig. 8).
pub struct Dd {
    vfs: Endpoint,
    path: String,
    chunk: u64,
    ino: Option<u64>,
    size: u64,
    offset: u64,
    /// Which mounted file server the handle belongs to (0 = root/MFS,
    /// 1 = the `/fat/` mount).
    fs_id: u64,
    sha1: Sha1,
    status: Rc<RefCell<DdStatus>>,
    /// Recovery-aware mode: where to file complaints about garbled VFS
    /// replies (`None` = recovery-unaware baseline).
    rs: Option<Endpoint>,
}

impl Dd {
    /// Creates the app reading `path` in `chunk`-byte reads. Paths under
    /// `/fat/` read from the FAT mount.
    pub fn new(vfs: Endpoint, path: &str, chunk: u64, status: Rc<RefCell<DdStatus>>) -> Self {
        Dd {
            vfs,
            path: path.to_string(),
            chunk,
            ino: None,
            size: 0,
            offset: 0,
            fs_id: u64::from(path.starts_with("/fat/")),
            sha1: Sha1::new(),
            status,
            rs: None,
        }
    }

    /// Makes the read survive VFS/MFS microreboots: aborted or
    /// error-status calls are reissued at the *same* offset (so the SHA-1
    /// stays byte-exact), and garbled replies are reported to RS as
    /// `BAD_REPLY` evidence before retrying.
    pub fn recovery_aware(mut self, rs: Endpoint) -> Self {
        self.rs = Some(rs);
        self
    }

    fn complain(&mut self, ctx: &mut Ctx<'_>, accused: Endpoint) {
        let Some(rs) = self.rs else { return };
        let _ = ctx.sendrec(rs, complain(evidence::BAD_REPLY, "vfs", Some(accused)));
        self.status.borrow_mut().complaints += 1;
    }

    /// Reissues whatever call the read is blocked on: the OPEN if no
    /// handle exists yet, otherwise the READ at the unchanged offset.
    /// During the dead window — the old incarnation is gone, the
    /// replacement not yet spawned — the sendrec itself fails
    /// synchronously, so a retry alarm keeps knocking until the sticky
    /// slot routes somewhere live.
    fn resume(&mut self, ctx: &mut Ctx<'_>) {
        if self.status.borrow().done {
            return;
        }
        self.status.borrow_mut().retries += 1;
        let sent = if self.ino.is_some() {
            self.next_read(ctx)
        } else {
            let path = self.path.clone();
            ctx.sendrec(
                self.vfs,
                Message::new(fs::OPEN).with_data(path.into_bytes()),
            )
            .is_ok()
        };
        if !sent {
            let _ = ctx.set_alarm(SimDuration::from_millis(50), 0);
        }
    }

    fn next_read(&mut self, ctx: &mut Ctx<'_>) -> bool {
        let ino = self.ino.expect("opened");
        let want = self.chunk.min(self.size - self.offset);
        ctx.sendrec(
            self.vfs,
            Message::new(fs::READ)
                .with_param(0, ino)
                .with_param(1, self.offset)
                .with_param(2, want)
                .with_param(7, self.fs_id),
        )
        .is_ok()
    }
}

impl Process for Dd {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        match event {
            ProcEvent::Start => {
                let path = self.path.clone();
                let _ = ctx.sendrec(
                    self.vfs,
                    Message::new(fs::OPEN).with_data(path.into_bytes()),
                );
            }
            ProcEvent::Reply {
                result: Ok(reply), ..
            } => match reply.mtype {
                fs::OPEN_REPLY => {
                    if reply.param(0) == status::OK {
                        self.ino = Some(reply.param(1));
                        self.size = reply.param(2);
                        if self.size == 0 {
                            let mut st = self.status.borrow_mut();
                            st.done = true;
                            st.finished_at = Some(ctx.now());
                            st.sha1 = Some(self.sha1.clone().finish_hex());
                            return;
                        }
                        self.next_read(ctx);
                    } else if self.rs.is_some() {
                        // Error-status open during a server microreboot
                        // (e.g. the mount table is still rehydrating):
                        // reissue rather than give up.
                        self.resume(ctx);
                    } else {
                        self.status.borrow_mut().errors += 1;
                    }
                }
                fs::DATA_REPLY => {
                    if reply.param(0) != status::OK {
                        if self.rs.is_some() {
                            // Same offset, so no bytes are skipped or
                            // double-hashed.
                            self.resume(ctx);
                        } else {
                            self.status.borrow_mut().errors += 1;
                        }
                        return;
                    }
                    self.sha1.update(&reply.data);
                    self.offset += reply.data.len() as u64;
                    let mut st = self.status.borrow_mut();
                    st.bytes = self.offset;
                    if self.offset >= self.size {
                        st.done = true;
                        st.finished_at = Some(ctx.now());
                        st.sha1 = Some(self.sha1.clone().finish_hex());
                        drop(st);
                        ctx.trace(
                            TraceLevel::Info,
                            format!("dd complete: {} bytes", self.offset),
                        );
                    } else {
                        drop(st);
                        self.next_read(ctx);
                    }
                }
                rsp::ACK => {
                    // RS acknowledged a complaint; nothing to do.
                }
                _ => {
                    if self.rs.is_some() {
                        // A reply type this app never asked for: garbled
                        // server output. File the evidence, then retry the
                        // in-flight call (the garbage consumed its reply).
                        self.complain(ctx, reply.source);
                        self.resume(ctx);
                    }
                }
            },
            ProcEvent::Reply { result: Err(_), .. } => {
                if self.rs.is_some() {
                    // The call was aborted by the server's death; reissue
                    // once the sticky slot routes to the replacement.
                    self.resume(ctx);
                } else {
                    // Recovery-unaware baseline: a server death is an I/O
                    // error the application reports to the user.
                    self.status.borrow_mut().errors += 1;
                }
            }
            ProcEvent::Alarm { .. } if self.rs.is_some() => {
                // Retry knock from the dead window.
                self.resume(ctx);
            }
            _ => {}
        }
    }
}

/// Shared observable state of an [`Lpd`] print job.
#[derive(Debug, Default)]
pub struct LpdStatus {
    /// Bytes the printer driver accepted.
    pub accepted: u64,
    /// Whole-job restarts after a driver failure (§6.3: recovery-aware,
    /// duplicates possible).
    pub job_restarts: u64,
    /// The daemon reached a terminal state: job committed, or (for the
    /// recovery-unaware variant) abandoned after a fatal error.
    pub done: bool,
    /// Unrecoverable errors.
    pub fatal: u64,
}

/// A recovery-aware printer daemon: on a driver failure it *reissues the
/// whole job* rather than bothering the user (§6.3) — at the price of
/// possibly duplicated output. The recovery-*unaware* variant
/// ([`Lpd::new_unaware`]) instead gives up and reports the failure, the
/// paper's baseline for applications that were never taught about driver
/// recovery.
pub struct Lpd {
    vfs: Endpoint,
    job: Vec<u8>,
    sent: usize,
    state: LpdState,
    status: Rc<RefCell<LpdStatus>>,
    retry_delay: SimDuration,
    recovery_aware: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LpdState {
    /// OPEN request outstanding.
    Opening,
    /// WRITE request outstanding.
    Writing,
    /// Waiting for the retry alarm, then reopen from scratch.
    BackoffOpen,
    /// Waiting for the FIFO to drain, then write more.
    BackoffWrite,
    /// Job finished.
    Done,
}

const PRINTER_DEV_INDEX: u64 = 0; // /dev/lp in the VFS device table

impl Lpd {
    /// Creates the daemon with one `job` to print.
    pub fn new(vfs: Endpoint, job: Vec<u8>, status: Rc<RefCell<LpdStatus>>) -> Self {
        Lpd {
            vfs,
            job,
            sent: 0,
            state: LpdState::Opening,
            status,
            retry_delay: SimDuration::from_millis(100),
            recovery_aware: true,
        }
    }

    /// Creates a recovery-*unaware* daemon: a driver failure is fatal and
    /// reported to the user instead of retried.
    pub fn new_unaware(vfs: Endpoint, job: Vec<u8>, status: Rc<RefCell<LpdStatus>>) -> Self {
        let mut lpd = Self::new(vfs, job, status);
        lpd.recovery_aware = false;
        lpd
    }

    fn open(&mut self, ctx: &mut Ctx<'_>) {
        self.state = LpdState::Opening;
        let _ = ctx.sendrec(
            self.vfs,
            Message::new(fs::OPEN).with_data(b"/dev/lp".to_vec()),
        );
    }

    fn send_chunk(&mut self, ctx: &mut Ctx<'_>) {
        self.state = LpdState::Writing;
        let chunk = &self.job[self.sent..(self.sent + 1024).min(self.job.len())];
        let _ = ctx.sendrec(
            self.vfs,
            Message::new(cdev::WRITE)
                .with_param(7, PRINTER_DEV_INDEX)
                .with_data(chunk.to_vec()),
        );
    }

    fn restart_job(&mut self, ctx: &mut Ctx<'_>) {
        if !self.recovery_aware {
            // The baseline app: it has no recovery logic, so the driver
            // failure surfaces to the user and the job is abandoned.
            self.state = LpdState::Done;
            let mut st = self.status.borrow_mut();
            st.fatal += 1;
            st.done = true;
            ctx.trace(
                TraceLevel::Error,
                "printer failed; job abandoned, user notified".to_string(),
            );
            return;
        }
        // The driver died: nobody can tell how much of the stream made it
        // to paper, so redo the job from the start after a grace period.
        self.sent = 0;
        self.state = LpdState::BackoffOpen;
        self.status.borrow_mut().job_restarts += 1;
        ctx.trace(
            TraceLevel::Warn,
            "printer failed; reissuing job".to_string(),
        );
        let _ = ctx.set_alarm(self.retry_delay, 0);
    }
}

impl Process for Lpd {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        match event {
            ProcEvent::Start => self.open(ctx),
            ProcEvent::Alarm { .. } => match self.state {
                LpdState::BackoffOpen => self.open(ctx),
                LpdState::BackoffWrite => self.send_chunk(ctx),
                _ => {}
            },
            ProcEvent::Reply { result: Err(_), .. } => self.restart_job(ctx),
            ProcEvent::Reply {
                result: Ok(reply), ..
            } => match self.state {
                LpdState::Opening => {
                    if reply.param(0) == status::OK {
                        self.send_chunk(ctx);
                    } else {
                        // Driver not back yet; try again shortly.
                        self.state = LpdState::BackoffOpen;
                        let _ = ctx.set_alarm(self.retry_delay, 0);
                    }
                }
                LpdState::Writing => match reply.param(0) {
                    status::OK if reply.param(1) > 0 => {
                        let accepted = reply.param(1) as usize;
                        self.sent += accepted;
                        self.status.borrow_mut().accepted += accepted as u64;
                        if self.sent >= self.job.len() {
                            self.state = LpdState::Done;
                            self.status.borrow_mut().done = true;
                            ctx.trace(TraceLevel::Info, "print job done".to_string());
                        } else {
                            self.send_chunk(ctx);
                        }
                    }
                    status::OK | status::EAGAIN => {
                        // Printer FIFO full: wait for it to drain a bit.
                        self.state = LpdState::BackoffWrite;
                        let _ = ctx.set_alarm(SimDuration::from_millis(20), 1);
                    }
                    _ if reply.param(DRIVER_DIED_PARAM) == 1 => self.restart_job(ctx),
                    _ => {
                        self.status.borrow_mut().fatal += 1;
                    }
                },
                _ => {}
            },
            _ => {}
        }
    }
}

/// Shared observable state of an [`Mp3Player`].
#[derive(Debug, Default)]
pub struct Mp3Status {
    /// Sample blocks delivered to the driver.
    pub blocks_played: u64,
    /// Blocks dropped across driver failures ("small hiccups", §6.3).
    pub blocks_dropped: u64,
    /// Playback finished.
    pub done: bool,
}

/// An MP3 player that keeps playing through audio-driver recoveries,
/// accepting hiccups (§6.3).
pub struct Mp3Player {
    vfs: Endpoint,
    blocks_total: u64,
    block_bytes: usize,
    block_period: SimDuration,
    next_block: u64,
    status: Rc<RefCell<Mp3Status>>,
}

const AUDIO_DEV_INDEX: u64 = 1; // /dev/audio in the VFS device table

impl Mp3Player {
    /// Plays `blocks_total` blocks of `block_bytes` bytes, one per
    /// `block_period` (matched to the DAC's consumption rate).
    pub fn new(
        vfs: Endpoint,
        blocks_total: u64,
        block_bytes: usize,
        block_period: SimDuration,
        status: Rc<RefCell<Mp3Status>>,
    ) -> Self {
        Mp3Player {
            vfs,
            blocks_total,
            block_bytes,
            block_period,
            next_block: 0,
            status,
        }
    }

    fn feed(&mut self, ctx: &mut Ctx<'_>) {
        if self.next_block >= self.blocks_total {
            self.status.borrow_mut().done = true;
            ctx.trace(TraceLevel::Info, "playback finished".to_string());
            return;
        }
        let block = vec![(self.next_block & 0xFF) as u8; self.block_bytes];
        self.next_block += 1;
        let _ = ctx.sendrec(
            self.vfs,
            Message::new(cdev::WRITE)
                .with_param(7, AUDIO_DEV_INDEX)
                .with_data(block),
        );
        let _ = ctx.set_alarm(self.block_period, 0);
    }
}

impl Process for Mp3Player {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        match event {
            ProcEvent::Start => self.feed(ctx),
            ProcEvent::Alarm { .. } => self.feed(ctx),
            ProcEvent::Reply { result, .. } => {
                let ok = matches!(&result, Ok(reply) if reply.param(0) == status::OK);
                let mut st = self.status.borrow_mut();
                if ok {
                    st.blocks_played += 1;
                } else {
                    // Hiccup: the block is gone; keep playing (§6.3).
                    st.blocks_dropped += 1;
                }
            }
            _ => {}
        }
    }
}

/// Shared observable state of a [`CdBurn`].
#[derive(Debug, Default)]
pub struct CdBurnStatus {
    /// Chunks written successfully.
    pub chunks_written: u64,
    /// The burn completed and was finalized.
    pub completed: bool,
    /// The burn failed; the user must be told the disc is ruined (§6.3).
    pub reported_to_user: bool,
}

/// A CD burning application. Burning cannot survive a driver failure: on
/// any error the app stops and reports to the user.
pub struct CdBurn {
    vfs: Endpoint,
    chunks: u64,
    chunk_bytes: usize,
    state: BurnState,
    status: Rc<RefCell<CdBurnStatus>>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BurnState {
    Starting,
    Writing(u64),
    Finalizing,
    Done,
}

const SCSI_DEV_INDEX: u64 = 2; // /dev/cd in the VFS device table

impl CdBurn {
    /// Burns `chunks` chunks of `chunk_bytes` each.
    pub fn new(
        vfs: Endpoint,
        chunks: u64,
        chunk_bytes: usize,
        status: Rc<RefCell<CdBurnStatus>>,
    ) -> Self {
        CdBurn {
            vfs,
            chunks,
            chunk_bytes,
            state: BurnState::Starting,
            status,
        }
    }

    fn fail(&mut self, ctx: &mut Ctx<'_>) {
        self.state = BurnState::Done;
        self.status.borrow_mut().reported_to_user = true;
        ctx.trace(
            TraceLevel::Error,
            "cd burn failed: disc ruined, user notified".to_string(),
        );
    }
}

impl Process for CdBurn {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        match event {
            ProcEvent::Start => {
                let _ = ctx.sendrec(
                    self.vfs,
                    Message::new(cdev::BURN_START)
                        .with_param(0, self.chunks)
                        .with_param(7, SCSI_DEV_INDEX),
                );
            }
            ProcEvent::Reply { result, .. } => {
                let ok = matches!(&result, Ok(reply) if reply.param(0) == status::OK);
                if !ok {
                    self.fail(ctx);
                    return;
                }
                match self.state {
                    BurnState::Starting => {
                        self.state = BurnState::Writing(0);
                        let chunk = vec![0xCD; self.chunk_bytes];
                        let _ = ctx.sendrec(
                            self.vfs,
                            Message::new(cdev::BURN_CHUNK)
                                .with_param(0, 0)
                                .with_param(7, SCSI_DEV_INDEX)
                                .with_data(chunk),
                        );
                    }
                    BurnState::Writing(seq) => {
                        self.status.borrow_mut().chunks_written = seq + 1;
                        let next = seq + 1;
                        if next >= self.chunks {
                            self.state = BurnState::Finalizing;
                            let _ = ctx.sendrec(
                                self.vfs,
                                Message::new(cdev::BURN_FINALIZE).with_param(7, SCSI_DEV_INDEX),
                            );
                        } else {
                            self.state = BurnState::Writing(next);
                            let chunk = vec![0xCD; self.chunk_bytes];
                            let _ = ctx.sendrec(
                                self.vfs,
                                Message::new(cdev::BURN_CHUNK)
                                    .with_param(0, next)
                                    .with_param(7, SCSI_DEV_INDEX)
                                    .with_data(chunk),
                            );
                        }
                    }
                    BurnState::Finalizing => {
                        self.state = BurnState::Done;
                        self.status.borrow_mut().completed = true;
                        ctx.trace(TraceLevel::Info, "cd burn complete".to_string());
                    }
                    BurnState::Done => {}
                }
            }
            _ => {}
        }
    }
}

/// Shared observable state of a [`UdpPing`] app.
#[derive(Debug, Default)]
pub struct UdpStatus {
    /// Datagrams sent (including application-level resends).
    pub sent: u64,
    /// Distinct sequence numbers acknowledged by echo.
    pub echoed: u64,
    /// Application-level resends of unacknowledged datagrams (Fig. 4's
    /// "UDP recovery" at the application layer).
    pub resent: u64,
    /// Target sequence count reached.
    pub done: bool,
}

/// An application using unreliable datagrams with its *own* recovery: it
/// resends datagrams whose echo never arrived, demonstrating
/// application-level UDP recovery (Fig. 4).
pub struct UdpPing {
    inet: Endpoint,
    total: u64,
    period: SimDuration,
    next_seq: u64,
    acked: Vec<bool>,
    status: Rc<RefCell<UdpStatus>>,
}

impl UdpPing {
    /// Sends `total` datagrams, one per `period`, resending unacked ones.
    pub fn new(
        inet: Endpoint,
        total: u64,
        period: SimDuration,
        status: Rc<RefCell<UdpStatus>>,
    ) -> Self {
        UdpPing {
            inet,
            total,
            period,
            next_seq: 0,
            acked: vec![false; total as usize],
            status,
        }
    }

    fn send_seq(&mut self, ctx: &mut Ctx<'_>, seq: u64) {
        let payload = seq.to_le_bytes().to_vec();
        let _ = ctx.sendrec(
            self.inet,
            Message::new(sock::DGRAM_SEND)
                .with_param(1, seq)
                .with_data(payload),
        );
        self.status.borrow_mut().sent += 1;
    }

    fn tick(&mut self, ctx: &mut Ctx<'_>) {
        if self.next_seq < self.total {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.send_seq(ctx, seq);
        } else {
            // All first attempts out: application-level recovery resends
            // the ones whose echoes were lost during driver outages.
            if let Some(seq) = self.acked.iter().position(|&a| !a) {
                self.status.borrow_mut().resent += 1;
                self.send_seq(ctx, seq as u64);
            } else {
                self.status.borrow_mut().done = true;
                return;
            }
        }
        let _ = ctx.set_alarm(self.period, 0);
    }
}

impl Process for UdpPing {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        match event {
            ProcEvent::Start | ProcEvent::Alarm { .. } => self.tick(ctx),
            ProcEvent::Message(msg) if msg.mtype == sock::DGRAM_DATA && msg.data.len() == 8 => {
                let seq = u64::from_le_bytes(msg.data[..8].try_into().expect("8 bytes"));
                if let Some(slot) = self.acked.get_mut(seq as usize) {
                    if !*slot {
                        *slot = true;
                        self.status.borrow_mut().echoed += 1;
                    }
                }
            }
            _ => {}
        }
    }
}

/// Shared observable state of a [`TtyReader`].
#[derive(Debug, Default)]
pub struct TtyStatus {
    /// Every byte the application received, in order.
    pub received: Vec<u8>,
    /// Driver-died errors observed while polling.
    pub driver_errors: u64,
}

/// A terminal reader polling `/dev/kbd` (§6.3's input case).
///
/// Input that the keyboard driver drained from the hardware FIFO but had
/// not yet delivered when it crashed is *gone* — the reader observes a gap
/// in the stream and simply keeps reading after recovery.
pub struct TtyReader {
    vfs: Endpoint,
    poll: SimDuration,
    status: Rc<RefCell<TtyStatus>>,
}

const KBD_DEV_INDEX: u64 = 3; // /dev/kbd in the VFS device table

impl TtyReader {
    /// Creates a reader polling every `poll`.
    pub fn new(vfs: Endpoint, poll: SimDuration, status: Rc<RefCell<TtyStatus>>) -> Self {
        TtyReader { vfs, poll, status }
    }

    fn read(&mut self, ctx: &mut Ctx<'_>) {
        let _ = ctx.sendrec(
            self.vfs,
            Message::new(cdev::READ)
                .with_param(0, 256)
                .with_param(7, KBD_DEV_INDEX),
        );
    }
}

impl Process for TtyReader {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        match event {
            ProcEvent::Start => self.read(ctx),
            ProcEvent::Alarm { .. } => self.read(ctx),
            ProcEvent::Reply { result, .. } => {
                match result {
                    Ok(reply) if reply.param(0) == status::OK => {
                        self.status
                            .borrow_mut()
                            .received
                            .extend_from_slice(&reply.data);
                    }
                    _ => {
                        // Driver dead or erroring: note it and keep polling
                        // — the stream resumes after recovery (§6.3).
                        self.status.borrow_mut().driver_errors += 1;
                    }
                }
                let _ = ctx.set_alarm(self.poll, 0);
            }
            _ => {}
        }
    }
}

/// Shared observable state of a [`CkptLpd`].
#[derive(Debug, Default)]
pub struct CkptLpdStatus {
    /// Bytes of the job appended to the write-ahead log.
    pub appended: u64,
    /// Bytes the driver has acknowledged as committed to the device.
    pub acked: u64,
    /// Driver failures survived by replaying from the log (no job
    /// restart, no duplicate output).
    pub replays: u64,
    /// Errors that surfaced to the application anyway.
    pub app_errors: u64,
    /// The whole job is committed.
    pub done: bool,
}

/// A checkpoint-aware printer daemon: the job lives in a caller-held
/// write-ahead log, every WRITE is tagged with its log sequence and
/// absolute stream offset, and the driver's consumed-progress
/// acknowledgment advances the log. When the driver dies the daemon
/// replays from the first unacknowledged entry — the restarted driver's
/// restored watermark deduplicates anything that already reached the
/// device, so the printed stream is byte-exact: no duplicated page, no
/// lost line (contrast with [`Lpd`], which reissues the whole job).
pub struct CkptLpd {
    vfs: Endpoint,
    wal: WriteAheadLog,
    state: CkptLpdState,
    status: Rc<RefCell<CkptLpdStatus>>,
    retry_delay: SimDuration,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CkptLpdState {
    /// OPEN request outstanding.
    Opening,
    /// Logged WRITE outstanding.
    Writing,
    /// Waiting out a driver recovery, then reopen and replay.
    BackoffOpen,
    /// Waiting for the FIFO to drain, then resend the unacked entry.
    BackoffWrite,
    /// Job fully committed.
    Done,
}

impl CkptLpd {
    /// Creates the daemon; `job` is chunked into the write-ahead log up
    /// front.
    pub fn new(vfs: Endpoint, job: Vec<u8>, status: Rc<RefCell<CkptLpdStatus>>) -> Self {
        let mut wal = WriteAheadLog::new();
        for chunk in job.chunks(1024) {
            wal.append(chunk.to_vec());
        }
        status.borrow_mut().appended = wal.appended();
        CkptLpd {
            vfs,
            wal,
            state: CkptLpdState::Opening,
            status,
            retry_delay: SimDuration::from_millis(100),
        }
    }

    fn open(&mut self, ctx: &mut Ctx<'_>) {
        self.state = CkptLpdState::Opening;
        let _ = ctx.sendrec(
            self.vfs,
            Message::new(fs::OPEN).with_data(b"/dev/lp".to_vec()),
        );
    }

    fn send_next(&mut self, ctx: &mut Ctx<'_>) {
        let Some(entry) = self.wal.next_unacked() else {
            self.state = CkptLpdState::Done;
            self.status.borrow_mut().done = true;
            ctx.trace(
                TraceLevel::Info,
                "print job committed byte-exact".to_string(),
            );
            return;
        };
        let msg = tag_request(
            Message::new(cdev::WRITE)
                .with_param(7, PRINTER_DEV_INDEX)
                .with_data(entry.data.clone()),
            entry.seq,
            entry.offset,
        );
        self.state = CkptLpdState::Writing;
        let _ = ctx.sendrec(self.vfs, msg);
    }

    fn replay(&mut self, ctx: &mut Ctx<'_>) {
        // The driver died mid-request. The log knows exactly what is
        // unacknowledged; wait out the restart, then replay from there.
        self.status.borrow_mut().replays += 1;
        self.state = CkptLpdState::BackoffOpen;
        ctx.trace(
            TraceLevel::Warn,
            "printer failed; replaying write-ahead log".to_string(),
        );
        let _ = ctx.set_alarm(self.retry_delay, 0);
    }
}

impl Process for CkptLpd {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        match event {
            ProcEvent::Start => self.open(ctx),
            ProcEvent::Alarm { .. } => match self.state {
                CkptLpdState::BackoffOpen => self.open(ctx),
                CkptLpdState::BackoffWrite => self.send_next(ctx),
                _ => {}
            },
            ProcEvent::Reply { result: Err(_), .. } => self.replay(ctx),
            ProcEvent::Reply {
                result: Ok(reply), ..
            } => match self.state {
                CkptLpdState::Opening => {
                    if reply.param(0) == status::OK {
                        self.send_next(ctx);
                    } else {
                        // Driver not republished yet; try again shortly.
                        self.state = CkptLpdState::BackoffOpen;
                        let _ = ctx.set_alarm(self.retry_delay, 0);
                    }
                }
                CkptLpdState::Writing => {
                    if reply.param(DRIVER_DIED_PARAM) == 1 {
                        self.replay(ctx);
                        return;
                    }
                    let before = self.wal.acked();
                    if let Some((consumed, _seq)) = reply_ack(&reply) {
                        self.wal.ack(consumed);
                        self.status.borrow_mut().acked = self.wal.acked();
                    }
                    match reply.param(0) {
                        status::OK if self.wal.acked() > before => self.send_next(ctx),
                        status::OK | status::EAGAIN => {
                            // FIFO full: wait for it to drain a bit.
                            self.state = CkptLpdState::BackoffWrite;
                            let _ = ctx.set_alarm(SimDuration::from_millis(20), 1);
                        }
                        _ => {
                            self.status.borrow_mut().app_errors += 1;
                            self.state = CkptLpdState::BackoffWrite;
                            let _ = ctx.set_alarm(self.retry_delay, 1);
                        }
                    }
                }
                _ => {}
            },
            _ => {}
        }
    }
}

/// Shared observable state of a [`CkptMp3Player`].
#[derive(Debug, Default)]
pub struct CkptMp3Status {
    /// Sample blocks appended to the write-ahead log.
    pub appended_blocks: u64,
    /// Bytes the driver has acknowledged as queued to the DAC.
    pub acked: u64,
    /// Driver failures survived by replaying from the log.
    pub replays: u64,
    /// Errors that surfaced to the application anyway.
    pub app_errors: u64,
    /// Every block is committed.
    pub done: bool,
}

/// A checkpoint-aware MP3 player: sample blocks are paced into a
/// write-ahead log and drained to the driver with sequence/offset tags.
/// Across a driver failure it replays unacknowledged blocks instead of
/// dropping them — the restored watermark deduplicates, so playback
/// resumes exactly past the last sample the DAC consumed (contrast with
/// [`Mp3Player`], which accepts hiccups).
pub struct CkptMp3Player {
    vfs: Endpoint,
    blocks_total: u64,
    block_bytes: usize,
    block_period: SimDuration,
    wal: WriteAheadLog,
    appended: u64,
    in_flight: bool,
    status: Rc<RefCell<CkptMp3Status>>,
}

impl CkptMp3Player {
    /// Plays `blocks_total` blocks of `block_bytes` bytes, one appended
    /// per `block_period` (matched to the DAC's consumption rate).
    pub fn new(
        vfs: Endpoint,
        blocks_total: u64,
        block_bytes: usize,
        block_period: SimDuration,
        status: Rc<RefCell<CkptMp3Status>>,
    ) -> Self {
        CkptMp3Player {
            vfs,
            blocks_total,
            block_bytes,
            block_period,
            wal: WriteAheadLog::new(),
            appended: 0,
            in_flight: false,
            status,
        }
    }

    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        if self.in_flight {
            return;
        }
        let Some(entry) = self.wal.next_unacked() else {
            if self.appended >= self.blocks_total {
                let mut st = self.status.borrow_mut();
                if !st.done {
                    st.done = true;
                    ctx.trace(
                        TraceLevel::Info,
                        "playback committed byte-exact".to_string(),
                    );
                }
            }
            return;
        };
        let msg = tag_request(
            Message::new(cdev::WRITE)
                .with_param(7, AUDIO_DEV_INDEX)
                .with_data(entry.data.clone()),
            entry.seq,
            entry.offset,
        );
        self.in_flight = ctx.sendrec(self.vfs, msg).is_ok();
    }

    fn tick(&mut self, ctx: &mut Ctx<'_>) {
        if self.appended < self.blocks_total {
            let block = vec![(self.appended & 0xFF) as u8; self.block_bytes];
            self.appended += 1;
            self.wal.append(block);
            self.status.borrow_mut().appended_blocks = self.appended;
            let _ = ctx.set_alarm(self.block_period, 0);
        } else if !self.wal.is_drained() {
            // All blocks are in the log; keep ticking until the driver
            // has acknowledged every one (it may be mid-restart).
            let _ = ctx.set_alarm(self.block_period, 0);
        }
        self.pump(ctx);
    }
}

impl Process for CkptMp3Player {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        match event {
            ProcEvent::Start | ProcEvent::Alarm { .. } => self.tick(ctx),
            ProcEvent::Reply { result, .. } => {
                self.in_flight = false;
                match result {
                    Ok(reply) if reply.param(0) == status::OK => {
                        if let Some((consumed, _seq)) = reply_ack(&reply) {
                            self.wal.ack(consumed);
                            self.status.borrow_mut().acked = self.wal.acked();
                        }
                        self.pump(ctx);
                    }
                    Ok(reply) if reply.param(DRIVER_DIED_PARAM) == 1 => {
                        // Replayed on a later tick, once the driver is back.
                        self.status.borrow_mut().replays += 1;
                    }
                    Err(_) => {
                        self.status.borrow_mut().replays += 1;
                    }
                    Ok(_) => {
                        self.status.borrow_mut().app_errors += 1;
                    }
                }
            }
            _ => {}
        }
    }
}

/// Shared observable state of a [`DdLoop`].
#[derive(Debug, Default)]
pub struct DdLoopStatus {
    /// Total bytes read across all passes.
    pub bytes: u64,
    /// Completed full-file passes.
    pub passes: u64,
    /// I/O errors surfaced to the app (sentinel-rejected transfers,
    /// server deaths); the loop retries after each one.
    pub errors: u64,
}

/// Endless sequential reader: like [`Dd`] but wraps to offset 0 after
/// each pass and retries after errors instead of stopping — the
/// block-class traffic source of the fail-silent campaign, where the
/// *rate of progress* (not completion) is the liveness signal.
pub struct DdLoop {
    vfs: Endpoint,
    path: String,
    chunk: u64,
    ino: Option<u64>,
    size: u64,
    offset: u64,
    status: Rc<RefCell<DdLoopStatus>>,
}

impl DdLoop {
    /// Creates the looping reader over `path` in `chunk`-byte reads.
    pub fn new(vfs: Endpoint, path: &str, chunk: u64, status: Rc<RefCell<DdLoopStatus>>) -> Self {
        DdLoop {
            vfs,
            path: path.to_string(),
            chunk,
            ino: None,
            size: 0,
            offset: 0,
            status,
        }
    }

    fn open(&mut self, ctx: &mut Ctx<'_>) {
        self.ino = None;
        let path = self.path.clone();
        let _ = ctx.sendrec(
            self.vfs,
            Message::new(fs::OPEN).with_data(path.into_bytes()),
        );
    }

    fn next_read(&mut self, ctx: &mut Ctx<'_>) {
        let Some(ino) = self.ino else { return };
        let want = self.chunk.min(self.size - self.offset);
        let _ = ctx.sendrec(
            self.vfs,
            Message::new(fs::READ)
                .with_param(0, ino)
                .with_param(1, self.offset)
                .with_param(2, want),
        );
    }

    fn backoff(&mut self, ctx: &mut Ctx<'_>) {
        self.status.borrow_mut().errors += 1;
        let _ = ctx.set_alarm(SimDuration::from_millis(100), 0);
    }
}

impl Process for DdLoop {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        match event {
            ProcEvent::Start => self.open(ctx),
            ProcEvent::Alarm { .. } => self.open(ctx),
            ProcEvent::Reply {
                result: Ok(reply), ..
            } => match reply.mtype {
                fs::OPEN_REPLY => {
                    if reply.param(0) == status::OK && reply.param(2) > 0 {
                        self.ino = Some(reply.param(1));
                        self.size = reply.param(2);
                        self.offset = 0;
                        self.next_read(ctx);
                    } else {
                        self.backoff(ctx);
                    }
                }
                fs::DATA_REPLY => {
                    if reply.param(0) != status::OK || reply.data.is_empty() {
                        self.backoff(ctx);
                        return;
                    }
                    self.offset += reply.data.len() as u64;
                    {
                        let mut st = self.status.borrow_mut();
                        st.bytes += reply.data.len() as u64;
                        if self.offset >= self.size {
                            st.passes += 1;
                        }
                    }
                    if self.offset >= self.size {
                        self.offset = 0;
                    }
                    self.next_read(ctx);
                }
                _ => self.backoff(ctx),
            },
            ProcEvent::Reply { result: Err(_), .. } => self.backoff(ctx),
            _ => {}
        }
    }
}

/// Shared observable state of an [`LpdLoop`].
#[derive(Debug, Default)]
pub struct LpdLoopStatus {
    /// Bytes the printer driver accepted.
    pub accepted: u64,
    /// Errors surfaced to the app; the loop reopens and retries.
    pub errors: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LpdLoopState {
    Opening,
    Writing,
    BackoffOpen,
    BackoffWrite,
}

/// Endless printer feeder: writes a fixed chunk to `/dev/lp` forever,
/// backing off on a full FIFO and reopening after errors or driver
/// deaths — the char-class traffic source of the fail-silent campaign.
pub struct LpdLoop {
    vfs: Endpoint,
    chunk: Vec<u8>,
    state: LpdLoopState,
    status: Rc<RefCell<LpdLoopStatus>>,
}

impl LpdLoop {
    /// Creates the feeder writing `chunk` repeatedly.
    pub fn new(vfs: Endpoint, chunk: Vec<u8>, status: Rc<RefCell<LpdLoopStatus>>) -> Self {
        LpdLoop {
            vfs,
            chunk,
            state: LpdLoopState::Opening,
            status,
        }
    }

    fn open(&mut self, ctx: &mut Ctx<'_>) {
        self.state = LpdLoopState::Opening;
        let _ = ctx.sendrec(
            self.vfs,
            Message::new(fs::OPEN).with_data(b"/dev/lp".to_vec()),
        );
    }

    fn write(&mut self, ctx: &mut Ctx<'_>) {
        self.state = LpdLoopState::Writing;
        let _ = ctx.sendrec(
            self.vfs,
            Message::new(cdev::WRITE)
                .with_param(7, PRINTER_DEV_INDEX)
                .with_data(self.chunk.clone()),
        );
    }

    fn reopen_later(&mut self, ctx: &mut Ctx<'_>) {
        self.state = LpdLoopState::BackoffOpen;
        self.status.borrow_mut().errors += 1;
        let _ = ctx.set_alarm(SimDuration::from_millis(100), 0);
    }
}

impl Process for LpdLoop {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        match event {
            ProcEvent::Start => self.open(ctx),
            ProcEvent::Alarm { .. } => match self.state {
                LpdLoopState::BackoffOpen => self.open(ctx),
                LpdLoopState::BackoffWrite => self.write(ctx),
                _ => {}
            },
            ProcEvent::Reply { result: Err(_), .. } => self.reopen_later(ctx),
            ProcEvent::Reply {
                result: Ok(reply), ..
            } => match self.state {
                LpdLoopState::Opening => {
                    if reply.param(0) == status::OK {
                        self.write(ctx);
                    } else {
                        self.state = LpdLoopState::BackoffOpen;
                        let _ = ctx.set_alarm(SimDuration::from_millis(100), 0);
                    }
                }
                LpdLoopState::Writing => match reply.param(0) {
                    status::OK if reply.param(1) > 0 => {
                        self.status.borrow_mut().accepted += reply.param(1);
                        self.write(ctx);
                    }
                    status::OK | status::EAGAIN => {
                        // FIFO full: wait for it to drain a bit.
                        self.state = LpdLoopState::BackoffWrite;
                        let _ = ctx.set_alarm(SimDuration::from_millis(20), 1);
                    }
                    _ => self.reopen_later(ctx),
                },
                _ => {}
            },
            _ => {}
        }
    }
}
