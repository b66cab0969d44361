//! The block-backed file server engine: transparent block-driver
//! recovery (§6.2), written once.
//!
//! Disk block I/O is idempotent, so when the kernel aborts an IPC
//! rendezvous because the disk driver died, the file server *marks the
//! request pending*, waits for the data store to announce the restarted
//! driver's new endpoint, re-opens its minor devices, and reissues the
//! failed operations — transparently to the applications above it.
//!
//! The file server also acts as the §5.1 arbiter input: if a driver
//! sends a malformed reply (protocol violation) or fails to answer
//! within a deadline, it files a complaint with the reincarnation server
//! asking for replacement.
//!
//! Fig. 5 puts two file servers on this procedure. They are one
//! [`FileServer`] over two [`Volume`]s: the engine owns everything that
//! is about the *driver* — endpoint, reopen, chunked grant I/O, parking,
//! reissue, retry pacing, sentinels, complaints, the request queue — and
//! a volume only what is about the *disk*: which sectors to read at
//! mount and what they mean, how names compare, and how the mounted
//! state is externalised. Both formats mount into the same table of
//! [`Inode`]s, so the engine never asks which one it serves.

use std::collections::VecDeque;

use phoenix_drivers::proto::{bdev, status};
use phoenix_hw::disk::SECTOR;
use phoenix_kernel::memory::{GrantAccess, GrantId};
use phoenix_kernel::process::ProcEvent;
use phoenix_kernel::system::Ctx;
use phoenix_kernel::types::{AlarmId, CallId, Endpoint, IpcError, Message};
use phoenix_simcore::time::SimDuration;
use phoenix_simcore::trace::{RecoveryId, SpanId, TraceLevel};

use crate::fsfmt::Inode;
use crate::libserver::{DsUpdate, Names, ServerLogic, Shell};
use crate::proto::{evidence, fs};

/// I/O buffer: offset 0 of the server's memory, room for one maximal
/// transfer.
const IO_BUF: usize = 0;
/// Largest single driver request (256 sectors).
const MAX_CHUNK_SECTORS: u64 = 256;
/// Driver response deadline before the file server complains to RS.
// analyze:recovery
const DRIVER_DEADLINE: SimDuration = SimDuration::from_secs(5);
/// Pause before retrying a chunk the driver answered with EAGAIN. An
/// immediate reissue spins a tight IPC loop against a still-busy device
/// (hundreds of round trips per device op), which under message chaos all
/// but guarantees one EAGAIN reply is eventually lost — wedging the
/// server until the response deadline convicts a perfectly healthy
/// driver. Pacing the retry past the typical device op keeps it to a
/// handful of exchanges.
const RETRY_DELAY: SimDuration = SimDuration::from_millis(1);
/// Checksum-mismatch retries before the active op fails with EIO. Matches
/// RS's complaint quorum, so the retries file exactly the evidence needed
/// for a restart of a driver that persistently miscomputes.
// analyze:recovery
const CSUM_RETRIES: u32 = 3;
/// One in `SCRUB_SAMPLE` read chunks is re-read and compared (the
/// sampled read-back scrub of the fail-silent sentinel).
// analyze:recovery
const SCRUB_SAMPLE: u64 = 8;

/// The literal names one file server goes by: the shell's, plus the
/// engine's own counters.
#[derive(Debug, Clone, Copy)]
pub struct FsNames {
    /// What the `libserver` shell needs.
    pub shell: Names,
    /// Counter: client reads started.
    pub reads: &'static str,
    /// Counter: client writes started.
    pub writes: &'static str,
    /// Counter: driver requests parked on an aborted rendezvous.
    pub pending_aborts: &'static str,
    /// Counter: paced retries after `EAGAIN`.
    pub retries: &'static str,
    /// Counter: parked requests reissued to a restarted driver.
    pub reissues: &'static str,
    /// Counter: restarted drivers reopened.
    pub driver_reintegrations: &'static str,
    /// Counter: mounts rehydrated from a checkpoint.
    pub mount_restored: &'static str,
    /// Counter: chunks retried after a checksum-class violation.
    pub csum_retries: &'static str,
    /// Counter: read chunks sampled for the read-back scrub.
    pub scrubs: &'static str,
    /// Counter: scrub re-reads that agreed.
    pub scrub_ok: &'static str,
    /// Counter: scrub re-reads that differed.
    pub scrub_mismatch: &'static str,
}

/// One step of a volume's mount read plan.
#[derive(Debug, PartialEq, Eq)]
pub enum MountStep {
    /// Read these sectors and come back with their bytes.
    Read {
        /// First sector.
        lba: u64,
        /// Sector count.
        sectors: u64,
    },
    /// Done: the volume's files, extents resolved.
    Mounted(Vec<Inode>),
    /// The last read does not parse as this format (the reason is
    /// traced); the mount is abandoned and starts over on demand.
    Bad(&'static str),
}

/// An on-disk format, as far as [`FileServer`] needs one. Implementations
/// know sectors and bytes; they never see the driver, the kernel context
/// or a metric (the `format-purity` lint holds them to that).
pub trait Volume: Default {
    /// The server's literal metric and store names.
    const NAMES: FsNames;

    /// The mount read plan as a step function: `None` starts it over,
    /// `Some(bytes)` hands back what the previous [`MountStep::Read`]
    /// asked for.
    fn mount_step(&mut self, last_read: Option<&[u8]>) -> MountStep;

    /// The spelling under which a requested name is looked up.
    fn canonical_name(raw: &[u8]) -> String;

    /// Serialises the mounted state for the checkpoint.
    // analyze:recovery
    fn encode(&self, files: &[Inode]) -> Vec<u8>;

    /// Parses a checkpoint payload; `None` if it is not one.
    // analyze:recovery
    fn decode(payload: &[u8]) -> Option<(Self, Vec<Inode>)>;
}

/// The DATA_REPLY of `status` and byte `count`.
fn data_reply(status: u64, count: u64) -> Message {
    let reply = fs::DataReply {
        status,
        count,
        ..Default::default()
    };
    reply.into_message()
}

/// Byte-sum of the 16-byte request descriptor the driver validates —
/// mirrors the checksum `routines::disk_request` computes, so the file
/// server can cross-check the driver's echoed value.
// analyze:recovery
fn descriptor_sum(lba: u64, count: u64, capacity: u64) -> u32 {
    let mut d = [0u8; 16];
    d[0..4].copy_from_slice(&(lba as u32).to_le_bytes());
    d[4..8].copy_from_slice(&(count as u32).to_le_bytes());
    d[8..12].copy_from_slice(&(capacity as u32).to_le_bytes());
    d.iter().map(|&b| u32::from(b)).sum()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MountState {
    NotMounted,
    /// The volume's read plan is running.
    Reading,
    Mounted,
}

/// A client's buffer as the file server reaches it: the grant the
/// request named, in the table of its sender (VFS's magic grant over the
/// buffer in the client's own space).
#[derive(Debug, Clone, Copy)]
struct ClientBuf {
    granter: Endpoint,
    grant: GrantId,
}

impl ClientBuf {
    /// The buffer of request `msg`, whose `grant` slot says `grant`;
    /// `None` if that cannot be a grant id.
    fn named(msg: &Message, grant: u64) -> Option<Self> {
        let grant = GrantId(u32::try_from(grant).ok()?);
        Some(ClientBuf {
            granter: msg.source,
            grant,
        })
    }
}

#[derive(Debug)]
enum OpKind {
    /// Internal mount I/O.
    Mount,
    /// Client read: each chunk is copied into the client's buffer; the
    /// reply carries the byte count.
    Read { client: CallId, buf: ClientBuf },
    /// Client write: each chunk is copied out of the client's buffer;
    /// the reply carries the byte count.
    Write { client: CallId, buf: ClientBuf },
}

#[derive(Debug)]
struct Active {
    kind: OpKind,
    /// Absolute file position of the next byte to transfer (reads) or the
    /// next byte to write.
    file_pos: u64,
    /// Total bytes still to transfer.
    remaining: u64,
    /// Bytes moved so far: the offset of the next chunk in the client's
    /// buffer.
    done: u64,
    /// Index into the file table (usize::MAX during mount).
    ino: usize,
    // Current chunk at the driver:
    chunk_lba: u64,
    chunk_sectors: u64,
    chunk_skip: usize,
    grant: Option<GrantId>,
    driver_call: Option<CallId>,
    /// Sequence number used by the response-deadline alarm.
    seq: u64,
    /// The response-deadline alarm itself, cancelled when the reply lands.
    deadline: Option<AlarmId>,
    /// Set when the rendezvous was aborted: retry on driver restart.
    waiting_driver: bool,
    /// Checksum-mismatch retries consumed by the current op.
    csum_retries: u32,
    /// The chunk at the driver is the re-read of a sampled chunk, whose
    /// first read waits in [`FileServer`]'s scrub buffer.
    scrubbing: bool,
}

impl Active {
    /// An op with nothing at the driver yet.
    fn new(kind: OpKind, ino: usize, file_pos: u64, remaining: u64) -> Self {
        Active {
            kind,
            file_pos,
            remaining,
            done: 0,
            ino,
            chunk_lba: 0,
            chunk_sectors: 0,
            chunk_skip: 0,
            grant: None,
            driver_call: None,
            seq: 0,
            deadline: None,
            waiting_driver: false,
            csum_retries: 0,
            scrubbing: false,
        }
    }
}

/// The file server's logic; run it as `Server<FileServer<V>>`. Its
/// externalised state is the cache metadata (crash-only contract): what
/// the volume read at mount is checkpointed at mount time so a restarted
/// incarnation rehydrates without re-reading the disk.
pub struct FileServer<V> {
    rs: Endpoint,
    driver_key: String,
    driver: Option<Endpoint>,
    driver_open: bool,
    open_call: Option<CallId>,
    /// Sequence number of the response-deadline alarm guarding the
    /// current reopen: the reply delivery can be lost in flight (chaos),
    /// which completes the rendezvous without the server ever hearing
    /// back, so awaiting it unguarded would wedge the server forever.
    open_seq: Option<u64>,
    /// Sequence number of a pending EAGAIN-backoff alarm; the retry
    /// reissues the active chunk when it fires.
    retry_seq: Option<u64>,
    mount: MountState,
    volume: V,
    files: Vec<Inode>,
    queue: VecDeque<(CallId, Message)>,
    active: Option<Active>,
    next_seq: u64,
    /// Recovery episode behind the driver update currently being
    /// reintegrated (from the DS CHECK reply); tags the reopen/reissue
    /// trace events with the causing episode.
    recovery: Option<RecoveryId>,
    recovery_parent: Option<SpanId>,
    /// Device capacity in sectors, from the driver's OPEN reply; feeds
    /// the descriptor-checksum cross-check.
    capacity: u64,
    /// Read chunks completed, for scrub sampling.
    scrub_chunks: u64,
    /// The first read of the sampled chunk being scrubbed; one buffer,
    /// reused for every sample.
    scrub_buf: Vec<u8>,
}

impl<V: Volume> FileServer<V> {
    /// Creates a file server bound to the block driver published under
    /// `driver_key` (e.g. `"blk.sata"`); `rs` receives its complaints.
    pub fn new(rs: Endpoint, driver_key: &str) -> Self {
        FileServer {
            rs,
            driver_key: driver_key.to_string(),
            driver: None,
            driver_open: false,
            open_call: None,
            open_seq: None,
            retry_seq: None,
            mount: MountState::NotMounted,
            volume: V::default(),
            files: Vec::new(),
            queue: VecDeque::new(),
            active: None,
            next_seq: 1,
            recovery: None,
            recovery_parent: None,
            capacity: 0,
            scrub_chunks: 0,
            scrub_buf: Vec::new(),
        }
    }

    fn driver_ready(&self) -> bool {
        self.driver.is_some() && self.driver_open
    }

    // analyze:recovery
    fn complain(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_>, kind: u32, why: &str) {
        // §5.1 input 5: ask RS to replace the malfunctioning driver.
        let trace = format!("complaining about {}: {why}", self.driver_key);
        sh.complain(ctx, self.rs, (&self.driver_key, self.driver), kind, trace);
    }

    /// Handles a checksum-class sentinel violation: complain (the
    /// low-confidence evidence accumulates toward RS's quorum) and retry
    /// the chunk a bounded number of times; if the driver keeps
    /// miscomputing, fail the op so the client is not stuck while RS's
    /// restart is in flight.
    // analyze:recovery
    fn csum_violation(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_>, why: &str) {
        self.complain(sh, ctx, evidence::CRC_MISMATCH, why);
        let Some(a) = self.active.as_mut() else {
            return;
        };
        a.scrubbing = false;
        if a.csum_retries < CSUM_RETRIES {
            a.csum_retries += 1;
            ctx.metrics().incr(V::NAMES.csum_retries);
            self.issue_chunk(sh, ctx);
        } else {
            self.finish_active(sh, ctx, status::EIO);
        }
    }

    /// Issues (or reissues) the current chunk to the driver.
    fn issue_chunk(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_>) {
        let Some(driver) = self.driver else {
            if let Some(a) = self.active.as_mut() {
                a.waiting_driver = true;
            }
            return;
        };
        let Some(a) = self.active.as_mut() else {
            return;
        };
        let bytes = (a.chunk_sectors * SECTOR as u64) as usize;
        let write = matches!(a.kind, OpKind::Write { .. });
        if let OpKind::Write { buf, .. } = a.kind {
            // Stage the chunk in the I/O buffer, straight from the
            // client's (writes are sector-aligned, so the chunk starts at
            // what is done).
            let done = a.done as usize;
            if ctx
                .safecopy_from(buf.granter, buf.grant, done, IO_BUF, bytes)
                .is_err()
            {
                return self.client_gone(sh, ctx);
            }
        }
        let access = if write {
            GrantAccess::Read
        } else {
            GrantAccess::Write
        };
        let grant = match ctx.grant_create(driver, IO_BUF, bytes, access) {
            Ok(g) => g,
            Err(e) => {
                ctx.trace(TraceLevel::Error, format!("grant failed: {e}"));
                return;
            }
        };
        let msg = {
            let (lba, count, grant) = (a.chunk_lba, a.chunk_sectors, u64::from(grant.0));
            if write {
                bdev::Write { lba, count, grant }.into_message()
            } else {
                bdev::Read { lba, count, grant }.into_message()
            }
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        match ctx.sendrec(driver, msg) {
            Ok(call) => {
                let Some(a) = self.active.as_mut() else {
                    let _ = ctx.grant_revoke(grant);
                    return;
                };
                a.grant = Some(grant);
                a.driver_call = Some(call);
                a.seq = seq;
                a.waiting_driver = false;
                // Response deadline (complaint input, §5.1).
                // analyze:recovery
                a.deadline = ctx.set_alarm(DRIVER_DEADLINE, seq).ok();
            }
            // analyze:recovery
            Err(_) => {
                // Driver died between publish and send: wait for restart.
                let _ = ctx.grant_revoke(grant);
                let Some(a) = self.active.as_mut() else {
                    return;
                };
                a.grant = None;
                a.driver_call = None;
                a.waiting_driver = true;
                ctx.metrics().incr(V::NAMES.pending_aborts);
            }
        }
    }

    /// Ends the active op whose client buffer the kernel no longer
    /// reaches: the client (or the VFS incarnation that granted it) is
    /// gone, so nobody is waiting for the bytes. The driver did its part;
    /// nothing is filed against it.
    fn client_gone(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_>) {
        ctx.trace(TraceLevel::Warn, "client buffer gone".to_string());
        self.finish_active(sh, ctx, status::EIO);
    }

    /// Computes the next chunk for the active op and sends it.
    fn start_next_chunk(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_>) {
        let Some(a) = self.active.as_mut() else {
            return;
        };
        match a.kind {
            OpKind::Mount => {
                // Mount chunks are set up explicitly in `begin_mount` /
                // `mount_continue`.
            }
            OpKind::Read { .. } | OpKind::Write { .. } => {
                // A corrupt or stale externalized file table could leave
                // the position out of bounds after a restore: fail the op,
                // don't kill the incarnation.
                let Some(ino) = self.files.get(a.ino) else {
                    self.finish_active(sh, ctx, status::EIO);
                    return;
                };
                let Some((lba, in_off)) = ino.locate(a.file_pos) else {
                    self.finish_active(sh, ctx, status::EIO);
                    return;
                };
                let contiguous = ino.contiguous_sectors_at(a.file_pos);
                let want_bytes = in_off as u64 + a.remaining;
                let sectors = want_bytes
                    .div_ceil(SECTOR as u64)
                    .min(contiguous)
                    .min(MAX_CHUNK_SECTORS);
                a.chunk_lba = lba;
                a.chunk_sectors = sectors;
                a.chunk_skip = in_off;
            }
        }
        self.issue_chunk(sh, ctx);
    }

    fn finish_active(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_>, st: u64) {
        let Some(a) = self.active.take() else {
            return;
        };
        match a.kind {
            OpKind::Mount => {
                // handled by mount_continue; only failures land here
                ctx.trace(TraceLevel::Error, format!("mount I/O failed: {st}"));
                self.mount = MountState::NotMounted;
            }
            OpKind::Read { client, .. } | OpKind::Write { client, .. } => {
                let count = if st == status::OK { a.done } else { 0 };
                sh.reply(ctx, client, data_reply(st, count));
            }
        }
        self.pump(sh, ctx);
    }

    /// Sends the mount op's next read, as the volume's plan asked.
    fn mount_read(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_>, lba: u64, sectors: u64) {
        let Some(a) = self.active.as_mut() else {
            self.mount = MountState::NotMounted;
            return;
        };
        a.chunk_lba = lba;
        a.chunk_sectors = sectors;
        self.issue_chunk(sh, ctx);
    }

    fn begin_mount(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_>) {
        let MountStep::Read { lba, sectors } = self.volume.mount_step(None) else {
            return;
        };
        self.mount = MountState::Reading;
        self.active = Some(Active::new(OpKind::Mount, usize::MAX, 0, SECTOR as u64));
        self.mount_read(sh, ctx, lba, sectors);
    }

    fn mount_continue(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_>, step: MountStep) {
        match step {
            MountStep::Bad(why) => {
                ctx.trace(TraceLevel::Error, why.to_string());
                self.active = None;
                self.mount = MountState::NotMounted;
            }
            MountStep::Read { lba, sectors } => self.mount_read(sh, ctx, lba, sectors),
            MountStep::Mounted(files) => {
                self.files = files;
                self.mount = MountState::Mounted;
                self.active = None;
                sh.gate.mark_dirty();
                ctx.trace(
                    TraceLevel::Info,
                    format!("mounted: {} files", self.files.len()),
                );
                self.pump(sh, ctx);
            }
        }
    }

    /// Starts queued work when idle.
    fn pump(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_>) {
        if self.active.is_some() || !self.driver_ready() {
            return;
        }
        if self.mount != MountState::Mounted {
            if self.mount == MountState::NotMounted {
                self.begin_mount(sh, ctx);
            }
            return;
        }
        while let Some((call, msg)) = self.queue.pop_front() {
            match fs::Msg::decode(&msg) {
                Some(fs::Msg::OPEN(_)) => {
                    let name = V::canonical_name(&msg.data);
                    let opened = self.files.iter().position(|i| i.name == name);
                    let reply = match opened {
                        Some(idx) => fs::OpenReply {
                            status: status::OK,
                            ino: idx as u64,
                            size: self.files[idx].size,
                        },
                        None => fs::OpenReply {
                            status: status::ENODEV,
                            ..Default::default()
                        },
                    };
                    sh.reply(ctx, call, reply.into_message());
                }
                Some(fs::Msg::READ(read)) => {
                    let (ino, offset, len) = (read.ino as usize, read.offset, read.len);
                    let (Some(inode), Some(buf)) =
                        (self.files.get(ino), ClientBuf::named(&msg, read.grant))
                    else {
                        sh.reply(ctx, call, data_reply(status::EINVAL, 0));
                        continue;
                    };
                    let len = len.min(inode.size.saturating_sub(offset));
                    if len == 0 {
                        sh.reply(ctx, call, data_reply(status::OK, 0));
                        continue;
                    }
                    ctx.metrics().incr(V::NAMES.reads);
                    let kind = OpKind::Read { client: call, buf };
                    self.active = Some(Active::new(kind, ino, offset, len));
                    self.start_next_chunk(sh, ctx);
                    return;
                }
                Some(fs::Msg::WRITE(write)) => {
                    // In place only: sector-aligned and inside the file's
                    // extents, which holds for either format's table.
                    let (ino, offset, len) = (write.ino as usize, write.offset, write.len);
                    let aligned = offset % SECTOR as u64 == 0 && len % SECTOR as u64 == 0;
                    let in_file = self
                        .files
                        .get(ino)
                        .is_some_and(|i| offset.checked_add(len).is_some_and(|end| end <= i.size));
                    let buf = ClientBuf::named(&msg, write.grant);
                    let Some(buf) = buf.filter(|_| len != 0 && aligned && in_file) else {
                        sh.reply(ctx, call, data_reply(status::EINVAL, 0));
                        continue;
                    };
                    ctx.metrics().incr(V::NAMES.writes);
                    let kind = OpKind::Write { client: call, buf };
                    self.active = Some(Active::new(kind, ino, offset, len));
                    self.start_next_chunk(sh, ctx);
                    return;
                }
                Some(fs::Msg::OPEN_REPLY(_) | fs::Msg::DATA_REPLY(_)) | None => {
                    sh.reply(ctx, call, data_reply(status::EINVAL, 0));
                }
            }
        }
    }

    fn on_driver_published(&mut self, ctx: &mut Ctx<'_>, ep: Endpoint) {
        // analyze:recovery
        let recovered = self.driver.is_some_and(|old| old != ep);
        self.driver = Some(ep);
        self.driver_open = false;
        // Reinitialize the driver by reopening minor devices (§6.2). The
        // reopen gets the same response deadline as data requests: its
        // reply can be lost in flight, and an unguarded await would leave
        // the server sitting on client requests with no call open — exactly what
        // the RS progress audit convicts.
        let open = bdev::Open { minor: 0 }.into_message();
        self.open_call = ctx.sendrec(ep, open).ok();
        // analyze:recovery
        if self.open_call.is_some() {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.open_seq = Some(seq);
            let _ = ctx.set_alarm(DRIVER_DEADLINE, seq);
        }
        // analyze:recovery
        if recovered {
            ctx.metrics().incr(V::NAMES.driver_reintegrations);
            let ev = ctx
                .event(TraceLevel::Info, format!("block driver recovered as {ep}"))
                .with_field("ev", "reintegrate")
                .with_field("driver", self.driver_key.as_str())
                .in_recovery_opt(self.recovery)
                .with_parent_opt(self.recovery_parent);
            ctx.trace_event(ev);
        }
    }

    fn on_driver_reply(
        &mut self,
        sh: &mut Shell,
        ctx: &mut Ctx<'_>,
        result: Result<Message, IpcError>,
    ) {
        // Revoke the chunk grant and cancel its deadline in all cases.
        if let Some(a) = self.active.as_mut() {
            if let Some(g) = a.grant.take() {
                let _ = ctx.grant_revoke(g);
            }
            if let Some(deadline) = a.deadline.take() {
                ctx.cancel_alarm(deadline);
            }
        }
        match result {
            // analyze:recovery
            Err(_) => {
                // §6.2: "If I/O was in progress at the time of the
                // failure, the IPC rendezvous will be aborted by the
                // kernel, and the file server marks the request as
                // pending", then blocks until the restart notification.
                let Some(a) = self.active.as_mut() else {
                    return;
                };
                a.driver_call = None;
                a.waiting_driver = true;
                self.driver_open = false;
                ctx.metrics().incr(V::NAMES.pending_aborts);
                ctx.trace(
                    TraceLevel::Warn,
                    "driver request aborted; marked pending until restart".to_string(),
                );
            }
            Ok(reply) => {
                let Some(a) = self.active.as_mut() else {
                    return;
                };
                a.driver_call = None;
                // analyze:recovery
                let Some(reply) = bdev::Reply::from_message(&reply) else {
                    // Protocol violation: unexpected message type.
                    a.waiting_driver = true;
                    self.complain(sh, ctx, evidence::BAD_REPLY, "unexpected reply type");
                    return;
                };
                match reply.status {
                    status::OK => {
                        let is_write = matches!(a.kind, OpKind::Write { .. });
                        let is_mount = matches!(a.kind, OpKind::Mount);
                        let bytes = (a.chunk_sectors * SECTOR as u64) as usize;
                        // analyze:recovery
                        let expect_sum =
                            descriptor_sum(a.chunk_lba, a.chunk_sectors, self.capacity);
                        // analyze:recovery
                        if reply.count as usize != bytes {
                            a.waiting_driver = true;
                            self.complain(sh, ctx, evidence::SHORT_TRANSFER, "short transfer");
                            return;
                        }
                        // Sentinel: the driver echoes the checksum of the
                        // request descriptor it validated (1 + sum, 0 = no
                        // echo); a disagreement means its validation path
                        // computed garbage.
                        // analyze:recovery
                        let echo = reply.csum_echo;
                        // analyze:recovery
                        if echo != 0 && echo != 1 + u64::from(expect_sum) {
                            self.csum_violation(sh, ctx, "descriptor checksum echo mismatch");
                            return;
                        }
                        if is_mount {
                            let Ok(data) = ctx.mem(IO_BUF, bytes) else {
                                ctx.trace(TraceLevel::Error, "io buffer read failed".to_string());
                                self.finish_active(sh, ctx, status::EIO);
                                return;
                            };
                            let step = self.volume.mount_step(Some(data));
                            self.mount_continue(sh, ctx, step);
                            return;
                        }
                        if is_write {
                            let Some(a) = self.active.as_mut() else {
                                return;
                            };
                            let take = bytes as u64;
                            a.done += take;
                            a.file_pos += take;
                            a.remaining -= take.min(a.remaining);
                        } else {
                            let Ok(data) = ctx.mem(IO_BUF, bytes) else {
                                ctx.trace(TraceLevel::Error, "io buffer read failed".to_string());
                                self.finish_active(sh, ctx, status::EIO);
                                return;
                            };
                            let Some(a) = self.active.as_mut() else {
                                return;
                            };
                            // analyze:recovery
                            let scrubbed = std::mem::take(&mut a.scrubbing);
                            // analyze:recovery
                            if scrubbed {
                                // Second read of a scrubbed chunk: the two
                                // reads must agree byte for byte.
                                if data != self.scrub_buf {
                                    ctx.metrics().incr(V::NAMES.scrub_mismatch);
                                    self.csum_violation(sh, ctx, "read-back scrub mismatch");
                                    return;
                                }
                            } else {
                                self.scrub_chunks += 1;
                                if self.scrub_chunks.is_multiple_of(SCRUB_SAMPLE) {
                                    // Sampled read-back scrub: keep a copy,
                                    // re-read the same chunk and compare
                                    // before trusting the data.
                                    self.scrub_buf.clear();
                                    self.scrub_buf.extend_from_slice(data);
                                    a.scrubbing = true;
                                    ctx.metrics().incr(V::NAMES.scrubs);
                                    self.issue_chunk(sh, ctx);
                                    return;
                                }
                            }
                            let OpKind::Read { buf, .. } = a.kind else {
                                return;
                            };
                            // The chunk goes straight into the client's
                            // buffer, after the bytes already there.
                            let (start, done) = (a.chunk_skip, a.done as usize);
                            let take = (bytes - start).min(a.remaining as usize);
                            let (granter, grant) = (buf.granter, buf.grant);
                            if ctx
                                .safecopy_to(granter, grant, done, IO_BUF + start, take)
                                .is_err()
                            {
                                return self.client_gone(sh, ctx);
                            }
                            a.done += take as u64;
                            a.file_pos += take as u64;
                            a.remaining -= take as u64;
                            // analyze:recovery
                            if scrubbed {
                                ctx.metrics().incr(V::NAMES.scrub_ok);
                            }
                        }
                        let remaining = self.active.as_ref().map_or(0, |a| a.remaining);
                        if remaining == 0 {
                            self.finish_active(sh, ctx, status::OK);
                        } else {
                            self.start_next_chunk(sh, ctx);
                        }
                    }
                    status::EAGAIN => {
                        // Driver busy (e.g. a duplicated delivery raced the
                        // op already at the device): back off past the op
                        // instead of hammering the driver with a same-tick
                        // reissue loop.
                        ctx.metrics().incr(V::NAMES.retries);
                        let seq = self.next_seq;
                        self.next_seq += 1;
                        self.retry_seq = Some(seq);
                        let _ = ctx.set_alarm(RETRY_DELAY, seq);
                    }
                    _ => {
                        self.finish_active(sh, ctx, status::EIO);
                    }
                }
            }
        }
    }
}

impl<V: Volume> ServerLogic for FileServer<V> {
    const NAMES: Names = V::NAMES.shell;

    /// Serializes the mount metadata. It only changes at mount time, so
    /// the save fires once per incarnation that mounted.
    // analyze:recovery
    fn encode(&self) -> Vec<u8> {
        self.volume.encode(&self.files)
    }

    // analyze:recovery
    type Saved = (V, Vec<Inode>);

    // analyze:recovery
    fn decode(payload: &[u8]) -> Option<(V, Vec<Inode>)> {
        V::decode(payload)
    }

    /// Mounts from the restored metadata, so the normal mount path (and
    /// its three reads) is skipped.
    // analyze:recovery
    fn adopt(&mut self, ctx: &mut Ctx<'_>, (volume, files): (V, Vec<Inode>)) {
        self.volume = volume;
        self.files = files;
        self.mount = MountState::Mounted;
        ctx.metrics().incr(V::NAMES.mount_restored);
    }

    fn request(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_>, call: CallId, msg: Message) {
        self.queue.push_back((call, msg));
        self.pump(sh, ctx);
    }

    fn ds_update(&mut self, _sh: &mut Shell, ctx: &mut Ctx<'_>, (key, update): DsUpdate) {
        if key == self.driver_key {
            // analyze:recovery
            self.recovery = update.recovery;
            // analyze:recovery
            self.recovery_parent = update.span;
            self.on_driver_published(ctx, update.endpoint);
        }
    }

    fn event(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_>, event: ProcEvent) {
        match event {
            ProcEvent::Start => sh.watch.subscribe(ctx, "blk.*"),
            ProcEvent::Reply { call, result } => {
                if Some(call) == self.open_call {
                    self.open_call = None;
                    self.open_seq = None;
                    let opened = result.as_ref().map(|reply| {
                        bdev::Reply::from_message(reply).filter(|r| r.status == status::OK)
                    });
                    match opened {
                        Ok(Some(reply)) => {
                            self.driver_open = true;
                            // OPEN replies carry the device capacity, which
                            // feeds the descriptor-checksum cross-check.
                            self.capacity = reply.count;
                            // Reissue the pending request, then resume
                            // normal operation (§6.2). The episode id is
                            // consumed here: whatever happens next is
                            // ordinary operation again.
                            // analyze:recovery
                            let rid = self.recovery.take();
                            // analyze:recovery
                            let parent = self.recovery_parent.take();
                            // analyze:recovery
                            if self.active.as_ref().is_some_and(|a| a.waiting_driver) {
                                let ev = ctx
                                    .event(TraceLevel::Info, "reissue pending io".to_string())
                                    .with_field("ev", "resume")
                                    .with_field("driver", self.driver_key.as_str())
                                    .in_recovery_opt(rid)
                                    .with_parent_opt(parent);
                                ctx.trace_event(ev);
                                ctx.metrics().incr(V::NAMES.reissues);
                                self.issue_chunk(sh, ctx);
                            } else {
                                self.pump(sh, ctx);
                            }
                        }
                        // analyze:recovery
                        Ok(None) => {
                            // A restarted driver answering its reopen with
                            // garbage is as defective as one that never
                            // answers: complain so RS replaces it instead
                            // of waiting forever for a publish that will
                            // never come.
                            let why = "garbled reply to device reopen";
                            self.complain(sh, ctx, evidence::BAD_REPLY, why);
                        }
                        // Died before answering: the kernel already told
                        // RS; the restart publish retriggers the reopen.
                        // analyze:recovery
                        Err(_) => {}
                    }
                    return;
                }
                if self.active.as_ref().and_then(|a| a.driver_call) == Some(call) {
                    self.on_driver_reply(sh, ctx, result);
                }
                // Replies to SUBSCRIBE / COMPLAIN need no action.
            }
            ProcEvent::Alarm { token } => {
                // Reopen deadline: no usable reply to the post-restart
                // OPEN within the window. The reply may have been lost in
                // flight (the rendezvous is closed, so no abort will ever
                // wake us) — complain so RS restarts the driver and the
                // resulting publish retriggers the reopen.
                // analyze:recovery
                if self.open_seq == Some(token) {
                    self.open_seq = None;
                    self.open_call = None;
                    self.complain(sh, ctx, evidence::DEADLINE, "no reply to device reopen");
                    return;
                }
                // EAGAIN backoff expired: reissue the active chunk (unless
                // something else — a driver restart — already did).
                if self.retry_seq == Some(token) {
                    self.retry_seq = None;
                    let idle = self
                        .active
                        .as_ref()
                        .is_some_and(|a| a.driver_call.is_none() && !a.waiting_driver);
                    if idle {
                        self.issue_chunk(sh, ctx);
                    }
                    return;
                }
                // Driver response deadline: if the same request is still
                // outstanding, the driver "fails to respond to a request"
                // (§5.1) and we ask RS to replace it.
                // analyze:recovery
                let stuck = self
                    .active
                    .as_ref()
                    .is_some_and(|a| a.driver_call.is_some() && a.seq == token);
                // analyze:recovery
                if stuck {
                    if let Some(a) = self.active.as_mut() {
                        a.driver_call = None;
                        a.waiting_driver = true;
                        if let Some(g) = a.grant.take() {
                            let _ = ctx.grant_revoke(g);
                        }
                    }
                    self.complain(sh, ctx, evidence::DEADLINE, "no response within deadline");
                }
            }
            _ => {}
        }
    }
}
