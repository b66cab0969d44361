//! §6.3 from the client's side: the protocol engines under the apps.
//!
//! A character-driver failure cannot be hidden by VFS, so it is pushed up
//! and the *application* finishes the recovery — reissue the job, replay
//! a log, tell the user. Those are policies over one protocol, and the
//! protocol is written here once:
//!
//! * [`CharWriter`] — open a device, stream chunks into it, wait out a
//!   full FIFO, reopen after a failure. What is written and what a dead
//!   driver means is its [`Job`].
//! * [`FileReader`] — open a file, read it in chunks at an explicit
//!   offset. Where the bytes go and what a failed call means is its
//!   [`Sink`].
//! * [`Retry`] — the recovery-aware client's answer to a server
//!   microreboot: file the evidence, reissue, and knock until the
//!   replacement incarnation is there.
//!
//! Two rules hold in both engines. *A send the kernel refuses is an
//! aborted call* — while a server is between incarnations `sendrec` fails
//! synchronously, and that is the same failure as a call the server died
//! holding. *Every event ends in a call in flight, an armed alarm, or a
//! terminal status the harness can see* — no client parks silently.
//!
//! Requests, replies and reply classes come from `phoenix_servers::proto`
//! and the `protocol!` rows; nothing here knows a param index.

use phoenix_drivers::proto::cdev;
use phoenix_kernel::process::{ProcEvent, Process};
use phoenix_kernel::system::Ctx;
use phoenix_kernel::types::{Endpoint, Message};
use phoenix_servers::proto::{self, classify, complain, evidence, fs, rs, Dev, File, ReplyClass};
use phoenix_simcore::time::SimDuration;

/// Grace period before reopening after a failure: RS needs about this
/// long to have the replacement driver published.
const REOPEN_DELAY: SimDuration = SimDuration::from_millis(100);

/// How long a full device FIFO is given to drain before writing more.
const FIFO_DELAY: SimDuration = SimDuration::from_millis(20);

/// Where a [`FileReader`]'s chunk lands in its own address space: the
/// file server copies it there through VFS's grant, and the reply says
/// how many bytes it copied.
const READ_BUF: u64 = 0;

/// What a [`Job`] wants after a failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum After {
    /// Wait out the driver restart, then reopen the device and write
    /// whatever [`Job::next_write`] says comes next.
    Reopen,
    /// Keep the device open and send the same chunk again after the
    /// grace period.
    Resend,
    /// Give up; the job has told the user.
    Abandon,
}

/// One stream of writes to a character device, and its §6.3 policy.
pub trait Job {
    /// The next WRITE to `dev`, or `None` when the job is complete.
    fn next_write(&mut self, dev: Dev) -> Option<Message>;
    /// Notes the progress a reply from the driver reports (as
    /// [`proto::dev_reply`] reads it); `true` if the stream advanced
    /// (otherwise the FIFO was full).
    fn acked(&mut self, reply: &cdev::Reply) -> bool;
    /// Every chunk is written.
    fn finished(&mut self, _ctx: &mut Ctx<'_>) {}
    /// A call failed. `died`: the driver died under the job (§6.3), so
    /// nobody can tell how much of the outstanding chunk reached the
    /// device; otherwise the device reported an error of its own.
    fn failed(&mut self, ctx: &mut Ctx<'_>, died: bool) -> After;
}

/// The call a [`CharWriter`] is waiting on. The alarm token a back-off
/// is armed with says which one to make when it is over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Call {
    Open = 0,
    Write = 1,
}

/// The char-stream writer: open → write → FIFO back-off → reopen, for
/// any [`Job`].
pub struct CharWriter<J> {
    vfs: Endpoint,
    dev: Dev,
    pub(crate) job: J,
    /// The call in flight; `None` while backing off, and for good once
    /// the job is finished or abandoned.
    waiting: Option<Call>,
}

impl<J: Job> CharWriter<J> {
    /// A writer that streams `job` into `dev` through `vfs`.
    pub fn with_job(vfs: Endpoint, dev: Dev, job: J) -> Self {
        CharWriter {
            vfs,
            dev,
            job,
            waiting: None,
        }
    }

    fn call(&mut self, ctx: &mut Ctx<'_>, call: Call) {
        let msg = match call {
            Call::Open => self.dev.open(),
            Call::Write => match self.job.next_write(self.dev) {
                Some(msg) => msg,
                None => return self.job.finished(ctx),
            },
        };
        self.waiting = Some(call);
        if ctx.sendrec(self.vfs, msg).is_err() {
            self.failed(ctx, true);
        }
    }

    fn retry(ctx: &mut Ctx<'_>, delay: SimDuration, call: Call) {
        let _ = ctx.set_alarm(delay, call as u64);
    }

    fn failed(&mut self, ctx: &mut Ctx<'_>, died: bool) {
        self.waiting = None;
        match self.job.failed(ctx, died) {
            After::Reopen => Self::retry(ctx, REOPEN_DELAY, Call::Open),
            After::Resend => Self::retry(ctx, REOPEN_DELAY, Call::Write),
            After::Abandon => {}
        }
    }

    fn on_write_reply(&mut self, ctx: &mut Ctx<'_>, class: ReplyClass, reply: &Message) {
        let died = match class {
            ReplyClass::Gone | ReplyClass::DriverDied => true,
            ReplyClass::Garbled => false,
            ReplyClass::Ok | ReplyClass::Busy | ReplyClass::Status(_) => {
                // Error and busy replies of a checkpointed driver still
                // carry its consumed watermark.
                let advanced = self.job.acked(&proto::dev_reply(reply).unwrap_or_default());
                match class {
                    ReplyClass::Ok if advanced => return self.call(ctx, Call::Write),
                    ReplyClass::Status(_) => false,
                    _ => return Self::retry(ctx, FIFO_DELAY, Call::Write),
                }
            }
        };
        self.failed(ctx, died);
    }
}

impl<J: Job> Process for CharWriter<J> {
    // analyze:recovery-root
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        match event {
            ProcEvent::Start => self.call(ctx, Call::Open),
            ProcEvent::Alarm { token } if self.waiting.is_none() => {
                let call = if token == Call::Open as u64 {
                    Call::Open
                } else {
                    Call::Write
                };
                self.call(ctx, call);
            }
            ProcEvent::Reply { result, .. } => {
                let class = classify(cdev::REPLY, &result);
                let Ok(reply) = result else {
                    return self.failed(ctx, true);
                };
                match self.waiting.take() {
                    Some(Call::Open) if class == ReplyClass::Ok => self.call(ctx, Call::Write),
                    // Driver not (re)published yet; try again shortly.
                    Some(Call::Open) => Self::retry(ctx, REOPEN_DELAY, Call::Open),
                    Some(Call::Write) => self.on_write_reply(ctx, class, &reply),
                    None => {}
                }
            }
            _ => {}
        }
    }
}

/// The recovery-aware client's retry across a server microreboot.
/// `Retry::default()` is the paper's recovery-unaware baseline, which
/// files nothing and never knocks.
#[derive(Debug, Clone, Copy, Default)]
pub struct Retry {
    /// Where complaints about garbled replies go.
    rs: Option<Endpoint>,
}

impl Retry {
    /// A retry that files its evidence with `rs`.
    pub fn aware(rs: Endpoint) -> Self {
        Retry { rs: Some(rs) }
    }

    /// Whether the client survives server failures at all.
    pub fn is_aware(&self) -> bool {
        self.rs.is_some()
    }

    /// Files `BAD_REPLY` evidence against the incarnation of `server`
    /// that sent a reply the protocol cannot produce. `true` if filed.
    pub fn complain(&self, ctx: &mut Ctx<'_>, server: &str, accused: Endpoint) -> bool {
        let Some(rs) = self.rs else { return false };
        let _ = ctx.sendrec(rs, complain(evidence::BAD_REPLY, server, Some(accused)));
        true
    }

    /// The reissue was refused: the old incarnation is gone, the
    /// replacement not yet spawned. Knock again shortly — the sticky
    /// slot routes to the replacement once there is one.
    pub fn knock(ctx: &mut Ctx<'_>) {
        let _ = ctx.set_alarm(SimDuration::from_millis(50), 0);
    }
}

/// Why a call of the reader produced nothing it can use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// The kernel refused the send: nobody is behind the endpoint.
    Refused,
    /// The server died holding the call.
    Aborted,
    /// An error status (or an OK reply with no data in it).
    Status,
    /// A reply kind the request cannot produce, from this incarnation.
    Garbled(Endpoint),
}

/// What a [`Sink`] wants after a [`Failure`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recover {
    /// Stop; the error has been reported to the user.
    Stop,
    /// Issue the same call again — the same offset, so no byte is
    /// skipped or read twice.
    Reissue,
    /// Drop the handle, wait out the recovery, reopen and start over.
    Reopen,
}

/// Where a [`FileReader`]'s bytes go, and its failure policy.
pub trait Sink {
    /// `data` arrived; the file is now read up to `offset`.
    fn data(&mut self, data: &[u8], offset: u64);
    /// The file is read to its end, `bytes` in all. `true` to read it
    /// again from the start, `false` when the reader is finished.
    fn end_of_file(&mut self, ctx: &mut Ctx<'_>, bytes: u64) -> bool;
    /// A call failed.
    fn failed(&mut self, ctx: &mut Ctx<'_>, why: Failure) -> Recover;
}

/// The sequential file reader: open → chunked reads at an explicit
/// offset → end of file, for any [`Sink`].
pub struct FileReader<S> {
    vfs: Endpoint,
    path: String,
    chunk: u64,
    file: Option<File>,
    offset: u64,
    pub(crate) sink: S,
}

impl<S: Sink> FileReader<S> {
    /// A reader of `path` through `vfs` in `chunk`-byte reads.
    pub fn with_sink(vfs: Endpoint, path: &str, chunk: u64, sink: S) -> Self {
        FileReader {
            vfs,
            path: path.to_string(),
            chunk,
            file: None,
            offset: 0,
            sink,
        }
    }

    /// Issues the call the read is blocked on: the OPEN while there is no
    /// handle, otherwise the READ at the current offset.
    fn issue(&mut self, ctx: &mut Ctx<'_>) {
        let msg = match &self.file {
            None => proto::open(&self.path),
            Some(file) => {
                let left = file.size.saturating_sub(self.offset);
                file.read(self.offset, self.chunk.min(left), READ_BUF)
            }
        };
        if ctx.sendrec(self.vfs, msg).is_err() {
            self.failed(ctx, Failure::Refused);
        }
    }

    fn failed(&mut self, ctx: &mut Ctx<'_>, why: Failure) {
        match self.sink.failed(ctx, why) {
            Recover::Stop => {}
            Recover::Reissue if why == Failure::Refused => Retry::knock(ctx),
            Recover::Reissue => self.issue(ctx),
            Recover::Reopen => {
                self.file = None;
                let _ = ctx.set_alarm(REOPEN_DELAY, 0);
            }
        }
    }

    /// Reads on from the current offset, or ends the pass there.
    fn advance(&mut self, ctx: &mut Ctx<'_>, file: File) {
        if self.offset >= file.size {
            if !self.sink.end_of_file(ctx, self.offset) {
                // Finished: nothing in flight, nothing armed.
                return;
            }
            if file.size == 0 {
                // Another pass over nothing would spin.
                return self.failed(ctx, Failure::Status);
            }
            self.offset = 0;
        }
        self.issue(ctx);
    }
}

impl<S: Sink> Process for FileReader<S> {
    // analyze:recovery-root
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        match event {
            ProcEvent::Start | ProcEvent::Alarm { .. } => self.issue(ctx),
            ProcEvent::Reply {
                result: Ok(reply), ..
            } if matches!(rs::Msg::decode(&reply), Some(rs::Msg::ACK(_))) => {
                // RS acknowledged a complaint; nothing to do.
            }
            ProcEvent::Reply { result, .. } => {
                let class = match self.file {
                    None => classify(fs::OPEN_REPLY, &result),
                    Some(_) => classify(fs::DATA_REPLY, &result),
                };
                match (class, result, self.file) {
                    (ReplyClass::Ok, Ok(reply), None) => match File::opened(&self.path, &reply) {
                        Some(file) => {
                            self.file = Some(file);
                            self.offset = 0;
                            self.advance(ctx, file);
                        }
                        None => self.failed(ctx, Failure::Status),
                    },
                    (ReplyClass::Ok, Ok(reply), Some(file)) => {
                        let count = fs::DataReply::from_message(&reply).map_or(0, |r| r.count);
                        match ctx.mem(READ_BUF as usize, count as usize) {
                            Ok(data) if count > 0 => {
                                self.offset += count;
                                self.sink.data(data, self.offset);
                                self.advance(ctx, file);
                            }
                            _ => self.failed(ctx, Failure::Status),
                        }
                    }
                    (ReplyClass::Garbled, Ok(reply), _) => {
                        self.failed(ctx, Failure::Garbled(reply.source));
                    }
                    (ReplyClass::Gone, ..) => self.failed(ctx, Failure::Aborted),
                    _ => self.failed(ctx, Failure::Status),
                }
            }
            _ => {}
        }
    }
}
