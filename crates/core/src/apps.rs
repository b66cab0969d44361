//! Workload applications.
//!
//! These are the `wget`, `dd`, printer-daemon, MP3-player and CD-burner
//! programs the paper's evaluation and examples are built around. Each app
//! shares an observable state cell with the harness (single-threaded
//! simulation, so `Rc<RefCell<..>>`).
//!
//! Every request here is built by `phoenix_servers::proto` and every
//! reply read through its classifier. The printer daemons and the file
//! readers are policies ([`Job`]s, [`Sink`]s) over the two engines of
//! [`crate::client`]; the other apps keep their own event loop because
//! their §6.3 policy *is* their control flow.

use std::cell::RefCell;
use std::rc::Rc;

use phoenix_ckpt::WriteAheadLog;
use phoenix_drivers::proto::cdev;
use phoenix_kernel::process::{ProcEvent, Process};
use phoenix_kernel::system::Ctx;
use phoenix_kernel::types::{Endpoint, Message};
use phoenix_servers::proto::{self, classify, rs as rsp, sock, Dev, ReplyClass};
use phoenix_simcore::digest::{Md5, Sha1};
use phoenix_simcore::time::{SimDuration, SimTime};
use phoenix_simcore::trace::TraceLevel;

use crate::client::{After, CharWriter, Failure, FileReader, Job, Recover, Retry, Sink};

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
    /// Recovery-aware mode: reissue across INET microreboots (the
    /// default is the paper's recovery-unaware baseline, which simply
    /// wedges when its server fails silently).
    retry: Retry,
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
            retry: Retry::default(),
            request_acked: false,
        }
    }

    /// Makes the download survive INET microreboots: aborted or
    /// error-status calls are reissued, and garbled replies are reported
    /// to RS as `BAD_REPLY` evidence before retrying.
    pub fn recovery_aware(mut self, rs: Endpoint) -> Self {
        self.retry = Retry::aware(rs);
        self
    }

    fn complain(&mut self, ctx: &mut Ctx<'_>, accused: Endpoint) {
        if self.retry.complain(ctx, "inet", accused) {
            self.status.borrow_mut().complaints += 1;
        }
    }

    /// Issues whatever call the download is blocked on: the CONNECT
    /// while there is no connection, then the GET until it is
    /// acknowledged. During a server's dead window the sendrec itself
    /// fails synchronously, so a retry alarm keeps knocking until the
    /// sticky slot routes somewhere live.
    fn issue(&mut self, ctx: &mut Ctx<'_>) {
        let msg = match self.conn {
            None => proto::connect(),
            Some(conn) if !self.request_acked => proto::get(conn, self.size, self.content_seed),
            Some(_) => return,
        };
        if ctx.sendrec(self.inet, msg).is_err() && self.retry.is_aware() {
            Retry::knock(ctx);
        }
    }

    /// Reissues after a failure. The connection handle survives a
    /// microreboot (INET's session slab is externalized), so only the
    /// not-yet-acknowledged step is redone.
    fn resume(&mut self, ctx: &mut Ctx<'_>) {
        if self.status.borrow().done || !self.retry.is_aware() {
            return;
        }
        self.status.borrow_mut().retries += 1;
        self.issue(ctx);
    }
}

impl Process for Wget {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        match event {
            ProcEvent::Start => self.issue(ctx),
            ProcEvent::Reply {
                result: Ok(reply), ..
            } if matches!(rsp::Msg::decode(&reply), Some(rsp::Msg::ACK(_))) => {
                // RS acknowledged a complaint; nothing to do.
            }
            ProcEvent::Reply { result, .. } => {
                let class = match self.conn {
                    None => classify(sock::CONNECT_REPLY, &result),
                    Some(_) => classify(sock::ACK, &result),
                };
                match (class, result, self.conn) {
                    (ReplyClass::Ok, Ok(reply), None) => {
                        self.conn = sock::ConnectReply::from_message(&reply).map(|r| r.conn);
                        self.issue(ctx);
                    }
                    (ReplyClass::Ok, ..) => self.request_acked = true,
                    (ReplyClass::Garbled, Ok(reply), _) => {
                        // A reply type this app never asked for: fail-silent
                        // evidence against the incarnation that sent it.
                        self.complain(ctx, reply.source);
                        self.resume(ctx);
                    }
                    (ReplyClass::Gone, ..) | (_, _, None) => {
                        // The call was aborted by the server's death, or
                        // the connect came back with an error status:
                        // reissue once the sticky slot routes to the
                        // replacement incarnation.
                        self.resume(ctx);
                    }
                    (_, _, Some(_)) if self.retry.is_aware() => {
                        // The restored session slab does not know this
                        // connection (it died before the first quiescent-point
                        // save): start the download over.
                        self.conn = None;
                        self.request_acked = false;
                        self.resume(ctx);
                    }
                    _ => {}
                }
            }
            // Retry knock from the dead window.
            ProcEvent::Alarm { .. } => self.resume(ctx),
            ProcEvent::Message(msg) => match sock::Msg::decode(&msg) {
                Some(sock::Msg::DATA(_)) => {
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
                    // Consumed: the frame's buffer goes back to the kernel.
                    ctx.return_buf(msg.data);
                }
                Some(sock::Msg::CLOSED(_)) => {
                    let mut st = self.status.borrow_mut();
                    st.done = true;
                    st.finished_at = Some(ctx.now());
                    st.md5 = Some(self.md5.clone().finish_hex());
                    ctx.trace(
                        TraceLevel::Info,
                        format!("wget complete: {} bytes", st.bytes),
                    );
                }
                // A push of a type this app cannot parse: garbled stream
                // traffic from a corrupting server.
                _ => self.complain(ctx, msg.source),
            },
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
/// and pipes it into `sha1sum` (Fig. 8). Paths under `/fat/` read from
/// the FAT mount.
pub type Dd = FileReader<Sha1Sum>;

/// [`Dd`]'s [`Sink`]: hashes the stream and finishes at end of file.
pub struct Sha1Sum {
    sha1: Sha1,
    status: Rc<RefCell<DdStatus>>,
    /// Recovery-aware mode: reissue across VFS/MFS microreboots (the
    /// default is the recovery-unaware baseline).
    retry: Retry,
}

impl Dd {
    /// Creates the app reading `path` in `chunk`-byte reads.
    pub fn new(vfs: Endpoint, path: &str, chunk: u64, status: Rc<RefCell<DdStatus>>) -> Self {
        let sink = Sha1Sum {
            sha1: Sha1::new(),
            status,
            retry: Retry::default(),
        };
        FileReader::with_sink(vfs, path, chunk, sink)
    }

    /// Makes the read survive VFS/MFS microreboots: aborted or
    /// error-status calls are reissued at the *same* offset (so the SHA-1
    /// stays byte-exact), and garbled replies are reported to RS as
    /// `BAD_REPLY` evidence before retrying.
    pub fn recovery_aware(mut self, rs: Endpoint) -> Self {
        self.sink.retry = Retry::aware(rs);
        self
    }
}

impl Sink for Sha1Sum {
    fn data(&mut self, data: &[u8], offset: u64) {
        self.sha1.update(data);
        self.status.borrow_mut().bytes = offset;
    }

    fn end_of_file(&mut self, ctx: &mut Ctx<'_>, bytes: u64) -> bool {
        let mut st = self.status.borrow_mut();
        st.done = true;
        st.finished_at = Some(ctx.now());
        st.sha1 = Some(self.sha1.clone().finish_hex());
        ctx.trace(TraceLevel::Info, format!("dd complete: {bytes} bytes"));
        false
    }

    fn failed(&mut self, ctx: &mut Ctx<'_>, why: Failure) -> Recover {
        let mut st = self.status.borrow_mut();
        if !self.retry.is_aware() {
            // Recovery-unaware baseline: a server death is an I/O error
            // the application reports to the user.
            st.errors += 1;
            return Recover::Stop;
        }
        if let Failure::Garbled(accused) = why {
            // Garbled server output: file the evidence, then retry the
            // in-flight call (the garbage consumed its reply).
            st.complaints += u64::from(self.retry.complain(ctx, "vfs", accused));
        }
        st.retries += 1;
        Recover::Reissue
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
pub type Lpd = CharWriter<PrintJob>;

/// [`Lpd`]'s [`Job`]: one buffer, printed from the start again after a
/// driver failure.
pub struct PrintJob {
    data: Vec<u8>,
    sent: usize,
    status: Rc<RefCell<LpdStatus>>,
    recovery_aware: bool,
}

impl Lpd {
    /// Creates the daemon with one `job` to print.
    pub fn new(vfs: Endpoint, job: Vec<u8>, status: Rc<RefCell<LpdStatus>>) -> Self {
        let job = PrintJob {
            data: job,
            sent: 0,
            status,
            recovery_aware: true,
        };
        CharWriter::with_job(vfs, Dev::Printer, job)
    }

    /// Creates a recovery-*unaware* daemon: a driver failure is fatal and
    /// reported to the user instead of retried.
    pub fn new_unaware(vfs: Endpoint, job: Vec<u8>, status: Rc<RefCell<LpdStatus>>) -> Self {
        let mut lpd = Self::new(vfs, job, status);
        lpd.job.recovery_aware = false;
        lpd
    }
}

impl Job for PrintJob {
    fn next_write(&mut self, dev: Dev) -> Option<Message> {
        let rest = self.data.get(self.sent..).filter(|rest| !rest.is_empty())?;
        Some(dev.write(rest[..rest.len().min(1024)].to_vec()))
    }

    fn acked(&mut self, reply: &cdev::Reply) -> bool {
        let accepted = reply.count;
        self.sent += accepted as usize;
        self.status.borrow_mut().accepted += accepted;
        accepted > 0
    }

    fn finished(&mut self, ctx: &mut Ctx<'_>) {
        self.status.borrow_mut().done = true;
        ctx.trace(TraceLevel::Info, "print job done".to_string());
    }

    fn failed(&mut self, ctx: &mut Ctx<'_>, died: bool) -> After {
        let mut st = self.status.borrow_mut();
        if !(died && self.recovery_aware) {
            // The baseline app has no recovery logic, and an error the
            // live driver reports (out of paper) is not a recovery matter
            // for either variant: the failure surfaces to the user and
            // the job is abandoned.
            st.fatal += 1;
            st.done = true;
            ctx.trace(
                TraceLevel::Error,
                "printer failed; job abandoned, user notified".to_string(),
            );
            return After::Abandon;
        }
        // The driver died: nobody can tell how much of the stream made it
        // to paper, so redo the job from the start after a grace period.
        self.sent = 0;
        st.job_restarts += 1;
        ctx.trace(
            TraceLevel::Warn,
            "printer failed; reissuing job".to_string(),
        );
        After::Reopen
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
        let _ = ctx.sendrec(self.vfs, Dev::Audio.write(block));
        let _ = ctx.set_alarm(self.block_period, 0);
    }
}

impl Process for Mp3Player {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        match event {
            ProcEvent::Start => self.feed(ctx),
            ProcEvent::Alarm { .. } => self.feed(ctx),
            ProcEvent::Reply { result, .. } => {
                let mut st = self.status.borrow_mut();
                if classify(cdev::REPLY, &result) == ReplyClass::Ok {
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

    /// A burn has no retry: a send the kernel refuses ruins the disc like
    /// any other failure.
    fn call(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        if ctx.sendrec(self.vfs, msg).is_err() {
            self.fail(ctx);
        }
    }

    fn burn_chunk(&mut self, ctx: &mut Ctx<'_>, seq: u64) {
        self.state = BurnState::Writing(seq);
        self.call(ctx, Dev::Scsi.burn_chunk(seq, vec![0xCD; self.chunk_bytes]));
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
            ProcEvent::Start => self.call(ctx, Dev::Scsi.burn_start(self.chunks)),
            ProcEvent::Reply { result, .. } => {
                if classify(cdev::REPLY, &result) != ReplyClass::Ok {
                    self.fail(ctx);
                    return;
                }
                match self.state {
                    BurnState::Starting => self.burn_chunk(ctx, 0),
                    BurnState::Writing(seq) => {
                        self.status.borrow_mut().chunks_written = seq + 1;
                        let next = seq + 1;
                        if next >= self.chunks {
                            self.state = BurnState::Finalizing;
                            self.call(ctx, Dev::Scsi.burn_finalize());
                        } else {
                            self.burn_chunk(ctx, next);
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
        let _ = ctx.sendrec(self.inet, proto::dgram(seq, seq.to_le_bytes().to_vec()));
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
            ProcEvent::Message(msg)
                if matches!(sock::Msg::decode(&msg), Some(sock::Msg::DGRAM_DATA))
                    && msg.data.len() == 8 =>
            {
                let seq = u64::from_le_bytes(msg.data[..8].try_into().expect("8 bytes"));
                if let Some(slot) = self.acked.get_mut(seq as usize) {
                    if !*slot {
                        *slot = true;
                        self.status.borrow_mut().echoed += 1;
                    }
                }
                ctx.return_buf(msg.data);
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

impl TtyReader {
    /// Creates a reader polling every `poll`.
    pub fn new(vfs: Endpoint, poll: SimDuration, status: Rc<RefCell<TtyStatus>>) -> Self {
        TtyReader { vfs, poll, status }
    }

    fn read(&mut self, ctx: &mut Ctx<'_>) {
        if ctx.sendrec(self.vfs, Dev::Kbd.read(256)).is_err() {
            // VFS itself is between incarnations: same as a dead driver.
            self.status.borrow_mut().driver_errors += 1;
            let _ = ctx.set_alarm(self.poll, 0);
        }
    }
}

impl Process for TtyReader {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        match event {
            ProcEvent::Start => self.read(ctx),
            ProcEvent::Alarm { .. } => self.read(ctx),
            ProcEvent::Reply { result, .. } => {
                match (classify(cdev::REPLY, &result), result) {
                    (ReplyClass::Ok, Ok(reply)) => {
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
pub type CkptLpd = CharWriter<LoggedJob>;

/// [`CkptLpd`]'s [`Job`]: the first unacknowledged log entry is always
/// what comes next, before a failure or after one.
pub struct LoggedJob {
    wal: WriteAheadLog,
    status: Rc<RefCell<CkptLpdStatus>>,
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
        CharWriter::with_job(vfs, Dev::Printer, LoggedJob { wal, status })
    }
}

/// The WRITE of the first unacknowledged log entry, tagged with its log
/// sequence and absolute stream offset; `None` when the log is drained.
fn logged_write(wal: &WriteAheadLog, dev: Dev) -> Option<Message> {
    let entry = wal.next_unacked()?;
    Some(dev.logged_write(entry.data.clone(), entry.seq, entry.offset))
}

/// Advances the log by the consumed-progress acknowledgment `reply`
/// carries, if any; returns the acknowledged watermark.
fn note_ack(wal: &mut WriteAheadLog, reply: &cdev::Reply) -> u64 {
    if reply.ack_seq != 0 {
        wal.ack(reply.consumed);
    }
    wal.acked()
}

impl Job for LoggedJob {
    fn next_write(&mut self, dev: Dev) -> Option<Message> {
        logged_write(&self.wal, dev)
    }

    fn acked(&mut self, reply: &cdev::Reply) -> bool {
        let before = self.wal.acked();
        let acked = note_ack(&mut self.wal, reply);
        self.status.borrow_mut().acked = acked;
        acked > before
    }

    fn finished(&mut self, ctx: &mut Ctx<'_>) {
        self.status.borrow_mut().done = true;
        ctx.trace(
            TraceLevel::Info,
            "print job committed byte-exact".to_string(),
        );
    }

    fn failed(&mut self, ctx: &mut Ctx<'_>, died: bool) -> After {
        if !died {
            self.status.borrow_mut().app_errors += 1;
            return After::Resend;
        }
        // The driver died mid-request. The log knows exactly what is
        // unacknowledged; wait out the restart, then replay from there.
        self.status.borrow_mut().replays += 1;
        ctx.trace(
            TraceLevel::Warn,
            "printer failed; replaying write-ahead log".to_string(),
        );
        After::Reopen
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
        let Some(msg) = logged_write(&self.wal, Dev::Audio) else {
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
                let reply = result.as_ref().ok().and_then(cdev::Reply::from_message);
                match (classify(cdev::REPLY, &result), reply) {
                    (ReplyClass::Ok, Some(reply)) => {
                        self.status.borrow_mut().acked = note_ack(&mut self.wal, &reply);
                        self.pump(ctx);
                    }
                    (ReplyClass::DriverDied | ReplyClass::Gone, _) => {
                        // Replayed on a later tick, once the driver is back.
                        self.status.borrow_mut().replays += 1;
                    }
                    _ => {
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
pub type DdLoop = FileReader<Passes>;

/// [`DdLoop`]'s [`Sink`]: counts bytes and passes, and after any failure
/// reopens and starts the pass over.
pub struct Passes(Rc<RefCell<DdLoopStatus>>);

impl DdLoop {
    /// Creates the looping reader over `path` in `chunk`-byte reads.
    pub fn new(vfs: Endpoint, path: &str, chunk: u64, status: Rc<RefCell<DdLoopStatus>>) -> Self {
        FileReader::with_sink(vfs, path, chunk, Passes(status))
    }
}

impl Sink for Passes {
    fn data(&mut self, data: &[u8], _offset: u64) {
        self.0.borrow_mut().bytes += data.len() as u64;
    }

    fn end_of_file(&mut self, _ctx: &mut Ctx<'_>, _bytes: u64) -> bool {
        self.0.borrow_mut().passes += 1;
        true
    }

    fn failed(&mut self, _ctx: &mut Ctx<'_>, _why: Failure) -> Recover {
        self.0.borrow_mut().errors += 1;
        Recover::Reopen
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

/// Endless printer feeder: writes a fixed chunk to `/dev/lp` forever,
/// backing off on a full FIFO and reopening after errors or driver
/// deaths — the char-class traffic source of the fail-silent campaign.
pub type LpdLoop = CharWriter<Feed>;

/// [`LpdLoop`]'s [`Job`]: the same chunk, again; any failure just reopens.
pub struct Feed {
    chunk: Vec<u8>,
    status: Rc<RefCell<LpdLoopStatus>>,
}

impl LpdLoop {
    /// Creates the feeder writing `chunk` repeatedly.
    pub fn new(vfs: Endpoint, chunk: Vec<u8>, status: Rc<RefCell<LpdLoopStatus>>) -> Self {
        CharWriter::with_job(vfs, Dev::Printer, Feed { chunk, status })
    }
}

impl Job for Feed {
    fn next_write(&mut self, dev: Dev) -> Option<Message> {
        Some(dev.write(self.chunk.clone()))
    }

    fn acked(&mut self, reply: &cdev::Reply) -> bool {
        self.status.borrow_mut().accepted += reply.count;
        reply.count > 0
    }

    fn failed(&mut self, _ctx: &mut Ctx<'_>, _died: bool) -> After {
        self.status.borrow_mut().errors += 1;
        After::Reopen
    }
}
