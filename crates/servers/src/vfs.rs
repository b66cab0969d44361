//! The virtual file system server.
//!
//! VFS routes application I/O: paths under `/dev/` go to character device
//! drivers (discovered via the data store under `chr.*`), everything else
//! goes to the file server (`fs.*`). For character devices VFS implements
//! the §6.3 contract: a driver failure mid-stream cannot be recovered
//! transparently, so the error — including an explicit "driver died"
//! indication — is pushed up to the application, which may be
//! recovery-aware (reissue the print job) or must inform the user.

use std::collections::BTreeMap;

use phoenix_drivers::proto::{cdev, status};
use phoenix_kernel::memory::{GrantAccess, GrantId};
use phoenix_kernel::process::ProcEvent;
use phoenix_kernel::system::Ctx;
use phoenix_kernel::types::{CallId, Endpoint, IpcError, Message};
use phoenix_simcore::trace::TraceLevel;
use phoenix_simcore::wire::{Len, Reader, Writer};

use crate::libserver::{DsUpdate, Names, ServerLogic, Shell};
use crate::proto::{self, evidence, fs, DEV_TABLE, FAT_ROUTE};

/// A forwarded request: the client's call, and what the reply is vetted
/// against.
#[derive(Debug, Clone)]
enum Forward {
    /// To a char driver: the protocol sentinel's expectation.
    Dev(CallId, SentinelExpect),
    /// To a file server: the accused `(route, endpoint)` should the reply
    /// violate the fs protocol — VFS vets its sibling servers' replies
    /// just as it vets char drivers' (MFS has its own sentinels). The
    /// route names the server: [`FAT_ROUTE`] the FAT mount, any other
    /// the root file server. Last, the magic grant over the client's
    /// buffer a READ or WRITE carries, revoked when the forward ends.
    Fs(CallId, u64, Endpoint, Option<GrantId>),
}

impl Forward {
    /// The client's call.
    fn client(&self) -> CallId {
        match *self {
            Forward::Dev(client, _) | Forward::Fs(client, ..) => client,
        }
    }

    /// The write-ahead-log sequence of the forwarded request (0 = not
    /// logged). It is echoed in the failure reply so a checkpointing
    /// client can mark exactly which log entry was in flight when the
    /// driver died — the entry it must replay first.
    // analyze:recovery
    fn wal_seq(&self) -> u64 {
        match self {
            Forward::Dev(_, exp) => match exp.kind {
                cdev::Msg::WRITE(write) => write.seq,
                _ => 0,
            },
            Forward::Fs(..) => 0,
        }
    }
}

/// What a char-driver reply must conform to (the protocol sentinel's
/// state-machine expectation, recorded when the request was forwarded).
// analyze:recovery
#[derive(Debug, Clone, Copy)]
struct SentinelExpect {
    /// Data-store key (doubles as the accused service name).
    key: &'static str,
    /// Driver incarnation the request went to.
    driver: Endpoint,
    /// The forwarded request, decoded.
    kind: cdev::Msg,
    /// Request payload length (WRITE) or requested byte cap (READ).
    len: usize,
    /// Byte-sum of the forwarded payload (WRITE only).
    sum: Option<u32>,
}

/// The sentinel expectation for the request `kind`, decoded from `msg`,
/// forwarded to the char driver published under `key`.
// analyze:recovery
fn sentinel(key: &'static str, driver: Endpoint, kind: cdev::Msg, msg: &Message) -> SentinelExpect {
    let (len, sum) = match kind {
        cdev::Msg::READ(read) => (read.len as usize, None),
        cdev::Msg::WRITE(_) => (msg.data.len(), Some(byte_sum(&msg.data))),
        _ => (msg.data.len(), None),
    };
    SentinelExpect {
        key,
        driver,
        kind,
        len,
        sum,
    }
}

/// Plain byte-sum, mirroring the checksum the char-driver fault routine
/// computes over the payload it processed.
// analyze:recovery
fn byte_sum(data: &[u8]) -> u32 {
    data.iter().map(|&b| u32::from(b)).sum()
}

/// Validates a char-driver reply against the sentinel expectation.
/// Returns the driver's reply, or the evidence class and description of
/// the violation.
// analyze:recovery
fn vet_reply(exp: &SentinelExpect, reply: &Message) -> Result<cdev::Reply, (u32, &'static str)> {
    let Some(driver) = cdev::Reply::from_message(reply) else {
        return Err((evidence::BAD_REPLY, "wrong reply type"));
    };
    if driver.status != status::OK {
        return Ok(driver); // error replies carry nothing to vet
    }
    let bytes = driver.count as usize;
    match exp.kind {
        cdev::Msg::WRITE(_) if bytes > exp.len => {
            return Err((evidence::SUSPECT_REPLY, "accepted more bytes than sent"));
        }
        cdev::Msg::READ(_) if bytes != reply.data.len() || reply.data.len() > exp.len => {
            return Err((evidence::SUSPECT_REPLY, "reply length inconsistent"));
        }
        _ => {}
    }
    // Checksum echo (1 + sum, 0 = driver does not echo): writes are
    // checked against the payload we forwarded, reads against the data
    // the driver delivered.
    let echo = driver.csum_echo;
    if echo != 0 {
        let sum = match exp.kind {
            cdev::Msg::READ(_) => Some(byte_sum(&reply.data)),
            _ => exp.sum,
        };
        if let Some(s) = sum {
            if echo != 1 + u64::from(s) {
                return Err((evidence::CRC_MISMATCH, "checksum echo mismatch"));
            }
        }
    }
    Ok(driver)
}

/// A character-device request VFS routes: the request, decoded, and the
/// data-store key of the device it names. `None` for any other kind or
/// device.
fn dev_of(msg: &Message) -> Option<(cdev::Msg, &'static str)> {
    let request = cdev::Msg::decode(msg);
    let dev = match request {
        Some(
            cdev::Msg::WRITE(cdev::Write { dev, .. })
            | cdev::Msg::READ(cdev::Read { dev, .. })
            | cdev::Msg::BURN_START(cdev::BurnStart { dev, .. })
            | cdev::Msg::BURN_CHUNK(cdev::BurnChunk { dev, .. })
            | cdev::Msg::BURN_FINALIZE(cdev::BurnFinalize { dev }),
        ) => dev,
        Some(cdev::Msg::OPEN | cdev::Msg::REPLY(_)) | None => return None,
    };
    Some((request?, DEV_TABLE.get(dev as usize)?.2))
}

/// The route bindings: VFS's externalised state (crash-only contract),
/// checkpointed so a restarted incarnation serves its first request
/// without waiting for the DS re-subscribe round-trips.
// analyze:recovery
#[derive(Debug, Default)]
pub struct Mounts {
    fs: Option<Endpoint>,
    fat: Option<Endpoint>,
    chr: BTreeMap<String, Endpoint>,
}

// analyze:recovery
impl Mounts {
    /// Serialises the bindings (layout: DESIGN §5e, "what is on the wire").
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        Endpoint::put_opt(self.fs, &mut w);
        Endpoint::put_opt(self.fat, &mut w);
        w.seq(Len::U16, self.chr.iter(), |w, (key, &ep)| {
            w.str(Len::U8, key);
            Endpoint::put_opt(Some(ep), w);
        });
        w.into_bytes()
    }
}

/// The VFS server's logic; run it as `Server<Vfs>`.
pub struct Vfs {
    rs: Endpoint,
    fs_key: String,
    /// Optional second file server (Fig. 5's FAT) mounted at `/fat/`.
    fat_key: Option<String>,
    mounts: Mounts,
    forwards: BTreeMap<CallId, Forward>,
    /// Requests parked until the file server is known.
    waiting_fs: Vec<(CallId, Message)>,
}

impl Vfs {
    /// Creates VFS; the file server is discovered under `fs_key`
    /// (e.g. `"mfs"`). `rs` receives protocol-sentinel complaints.
    pub fn new(rs: Endpoint, fs_key: &str) -> Self {
        Vfs {
            rs,
            fs_key: fs_key.to_string(),
            fat_key: None,
            mounts: Mounts::default(),
            forwards: BTreeMap::new(),
            waiting_fs: Vec::new(),
        }
    }

    /// Additionally mounts a FAT server (discovered under `fat_key`) at
    /// the `/fat/` prefix (builder style).
    pub fn with_fat(mut self, fat_key: &str) -> Self {
        self.fat_key = Some(fat_key.to_string());
        self
    }

    fn device_key(path: &str) -> Option<&'static str> {
        DEV_TABLE
            .iter()
            .find(|(_, dev, _)| *dev == path)
            .map(|(_, _, key)| *key)
    }

    /// Refuses the client's `call` with `st`; nothing was forwarded.
    fn fail(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_>, call: CallId, st: u64) {
        let refusal = fs::DataReply {
            status: st,
            ..Default::default()
        };
        sh.reply(ctx, call, refusal.into_message());
    }

    /// Fails a forwarded request whose server died or broke protocol,
    /// echoing the write-ahead-log sequence of the request (0 = not
    /// logged).
    // analyze:recovery
    fn fail_forward(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_>, fwd: &Forward) {
        let wal_seq = fwd.wal_seq();
        if wal_seq != 0 {
            ctx.metrics().incr("vfs.ckpt_aborted_requests");
        }
        let refusal = fs::DataReply {
            status: status::EIO,
            driver_died: 1,
            ack_seq: wal_seq,
            ..Default::default()
        };
        sh.reply(ctx, fwd.client(), refusal.into_message());
    }

    /// Forwards to the file server of `route`, recording the accused
    /// identity so the reply can be vetted against the fs protocol. A
    /// READ or WRITE goes with a grant over the client's buffer; one the
    /// client's space does not hold is refused.
    fn forward(
        &mut self,
        sh: &mut Shell,
        ctx: &mut Ctx<'_>,
        route: u64,
        dst: Endpoint,
        client: CallId,
        msg: Message,
    ) {
        let Some((msg, grant)) = Self::grant_buffer(ctx, dst, msg) else {
            return self.fail(sh, ctx, client, status::EINVAL);
        };
        self.forward_vetted(sh, ctx, dst, msg, Forward::Fs(client, route, dst, grant));
    }

    /// `msg` as it goes to the file server `dst`: a READ (WRITE) names,
    /// in `grant`, VFS's magic grant of write (read) access for `dst`
    /// over the buffer the client named in its own space — MINIX's
    /// `cpf_grant_magic`, so file data never rides in a message. Any
    /// other request goes as it came. `None` if the client's space does
    /// not hold the buffer, or the client is gone.
    fn grant_buffer(
        ctx: &mut Ctx<'_>,
        dst: Endpoint,
        msg: Message,
    ) -> Option<(Message, Option<GrantId>)> {
        let request = fs::Msg::decode(&msg);
        let (buf, len, access) = match request {
            Some(fs::Msg::READ(r)) => (r.buf, r.len, GrantAccess::Write),
            Some(fs::Msg::WRITE(w)) => (w.buf, w.len, GrantAccess::Read),
            _ => return Some((msg, None)),
        };
        let (buf, len) = (usize::try_from(buf).ok()?, usize::try_from(len).ok()?);
        let grant = ctx
            .magic_grant_create(msg.source, dst, buf, len, access)
            .ok()?;
        let id = u64::from(grant.0);
        let granted = match request {
            Some(fs::Msg::WRITE(w)) => fs::Write { grant: id, ..w }.into_message(),
            Some(fs::Msg::READ(r)) => fs::Read { grant: id, ..r }.into_message(),
            _ => msg,
        };
        Some((granted, Some(grant)))
    }

    /// Revokes the grant a forward carried: its file server has answered,
    /// died, or was never reached.
    fn end_forward(ctx: &mut Ctx<'_>, fwd: &Forward) {
        if let Forward::Fs(.., Some(grant)) = *fwd {
            let _ = ctx.magic_grant_revoke(grant);
        }
    }

    fn forward_vetted(
        &mut self,
        sh: &mut Shell,
        ctx: &mut Ctx<'_>,
        dst: Endpoint,
        msg: Message,
        fwd: Forward,
    ) {
        match ctx.sendrec(dst, msg) {
            Ok(call) => {
                self.forwards.insert(call, fwd);
            }
            // analyze:recovery
            Err(_) => {
                Self::end_forward(ctx, &fwd);
                self.fail_forward(sh, ctx, &fwd);
            }
        }
    }

    /// Files a typed complaint with RS against the component `fwd` went
    /// to — char drivers and sibling servers go through the same arbiter.
    // analyze:recovery
    fn complain(&self, sh: &mut Shell, ctx: &mut Ctx<'_>, fwd: &Forward, kind: u32, why: &str) {
        let (name, accused) = match *fwd {
            Forward::Dev(_, exp) => (exp.key, exp.driver),
            Forward::Fs(_, FAT_ROUTE, fat, _) => (self.fat_key.as_deref().unwrap_or_default(), fat),
            Forward::Fs(_, _, fsrv, _) => (self.fs_key.as_str(), fsrv),
        };
        let trace = format!("complaining about {name}: {why}");
        sh.complain(ctx, self.rs, (name, Some(accused)), kind, trace);
    }

    fn route(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_>, call: CallId, msg: Message) {
        // Character-device traffic carries the device path in OPEN; data
        // requests carry their route — the `dev` of a cdev request, the
        // `route` (mount id) of an fs one — set by the request
        // constructors of `crate::proto` that every application speaks
        // through.
        match fs::Msg::decode(&msg) {
            Some(fs::Msg::OPEN(_)) => {
                let path = String::from_utf8_lossy(&msg.data).to_string();
                let (route, name) = proto::mount_of(&path);
                if let Some(key) = Self::device_key(&path) {
                    match self.mounts.chr.get(key).copied() {
                        Some(drv) => {
                            let open = Message::new(cdev::OPEN);
                            let exp = sentinel(key, drv, cdev::Msg::OPEN, &open);
                            self.forward_vetted(sh, ctx, drv, open, Forward::Dev(call, exp));
                        }
                        None => self.fail(sh, ctx, call, status::ENODEV),
                    }
                } else if route == FAT_ROUTE {
                    // The FAT mount (Fig. 5's second file server).
                    match self.mounts.fat {
                        Some(fat) => {
                            let open = fs::Open { route }.into_message();
                            let fwd = open.with_data(name.as_bytes().to_vec());
                            self.forward(sh, ctx, route, fat, call, fwd);
                        }
                        None => self.fail(sh, ctx, call, status::ENODEV),
                    }
                } else {
                    match self.mounts.fs {
                        Some(fsrv) => self.forward(sh, ctx, route, fsrv, call, msg),
                        None => self.waiting_fs.push((call, msg)),
                    }
                }
            }
            // Which file server the handle belongs to.
            Some(
                fs::Msg::READ(fs::Read { route, .. }) | fs::Msg::WRITE(fs::Write { route, .. }),
            ) => {
                let dst = if route == FAT_ROUTE {
                    self.mounts.fat
                } else {
                    self.mounts.fs
                };
                match dst {
                    Some(fsrv) => self.forward(sh, ctx, route, fsrv, call, msg),
                    None => self.waiting_fs.push((call, msg)),
                }
            }
            // A char-device request, or no request at all.
            Some(fs::Msg::OPEN_REPLY(_) | fs::Msg::DATA_REPLY(_)) | None => {
                let Some((request, key)) = dev_of(&msg) else {
                    return self.fail(sh, ctx, call, status::EINVAL);
                };
                match self.mounts.chr.get(key).copied() {
                    Some(drv) => {
                        let exp = sentinel(key, drv, request, &msg);
                        self.forward_vetted(sh, ctx, drv, msg, Forward::Dev(call, exp));
                    }
                    None => self.fail(sh, ctx, call, status::ENODEV),
                }
            }
        }
    }

    /// The reply to a forwarded request: vet it, then relay or fail.
    fn on_forward_reply(
        &mut self,
        sh: &mut Shell,
        ctx: &mut Ctx<'_>,
        fwd: Forward,
        result: Result<Message, IpcError>,
    ) {
        Self::end_forward(ctx, &fwd);
        match result {
            Ok(mut reply) => {
                // analyze:recovery
                match &fwd {
                    Forward::Dev(_, exp) => {
                        let driver = match vet_reply(exp, &reply) {
                            Ok(driver) => driver,
                            Err((kind, why)) => {
                                // Protocol violation: complain to RS and push
                                // an explicit error to the client rather than
                                // relaying garbage. The driver-died flag is
                                // set so recovery-aware clients treat the
                                // suspect driver like a dead one and redo the
                                // work.
                                self.complain(sh, ctx, &fwd, kind, why);
                                self.fail_forward(sh, ctx, &fwd);
                                return;
                            }
                        };
                        // The checksum echo is a VFS<->driver protocol
                        // detail; strip it so the client-visible slot keeps
                        // its driver-died-flag meaning.
                        let data = std::mem::take(&mut reply.data);
                        let stripped = cdev::Reply {
                            csum_echo: 0,
                            ..driver
                        };
                        reply = stripped.into_message().with_data(data);
                    }
                    Forward::Fs(..) => {
                        // File-server forward: a reply of the wrong type
                        // means the sibling server's reply path computes
                        // garbage — a fail-silent server defect. Complain
                        // (high-confidence evidence) and fail the client so
                        // it redoes the work against the replacement
                        // incarnation.
                        let kind = fs::Msg::decode(&reply);
                        if !matches!(kind, Some(fs::Msg::OPEN_REPLY(_) | fs::Msg::DATA_REPLY(_))) {
                            let why = "wrong fs reply type";
                            self.complain(sh, ctx, &fwd, evidence::BAD_REPLY, why);
                            self.fail_forward(sh, ctx, &fwd);
                            return;
                        }
                    }
                }
                sh.reply(ctx, fwd.client(), reply);
            }
            // analyze:recovery
            Err(_) => {
                // §6.3: the char driver (or FS) died mid-request; push
                // the error to the application.
                ctx.metrics().incr("vfs.driver_died_errors");
                self.fail_forward(sh, ctx, &fwd);
            }
        }
    }
}

impl ServerLogic for Vfs {
    const NAMES: Names = Names {
        server: "vfs",
        state_key: "mounts",
        injected_crash: "vfs.injected_crash",
        stalled_events: "vfs.stalled_events",
        garbled_replies: "vfs.garbled_replies",
        restore_garbage: "vfs.mounts_restore_garbage",
    };

    // analyze:recovery
    type Saved = Mounts;

    // analyze:recovery
    fn encode(&self) -> Vec<u8> {
        self.mounts.encode()
    }

    // analyze:recovery
    fn decode(payload: &[u8]) -> Option<Mounts> {
        let mut r = Reader::new(payload);
        let mounts = Mounts {
            fs: Endpoint::get_opt(&mut r)?,
            fat: Endpoint::get_opt(&mut r)?,
            chr: r.seq(Len::U16, |r| {
                Some((r.str(Len::U8)?.to_string(), Endpoint::get_opt(r)??))
            })?,
        };
        r.finish()?;
        Some(mounts)
    }

    /// Fills in only what the DS replay has not already delivered
    /// (fresher endpoints win over the snapshot; a stale binding merely
    /// costs one driver-died failure).
    // analyze:recovery
    fn adopt(&mut self, ctx: &mut Ctx<'_>, saved: Mounts) {
        let m = &mut self.mounts;
        m.fs = m.fs.or(saved.fs);
        m.fat = m.fat.or(saved.fat);
        for (key, ep) in saved.chr {
            m.chr.entry(key).or_insert(ep);
        }
        ctx.metrics().incr("vfs.mounts_restored");
    }

    fn request(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_>, call: CallId, msg: Message) {
        self.route(sh, ctx, call, msg);
    }

    fn ds_update(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_>, (key, update): DsUpdate) {
        // `update.recovery` is the episode behind it (None = boot publish).
        let ep = update.endpoint;
        if key == self.fs_key {
            // analyze:recovery
            let rebound = self.mounts.fs.is_some_and(|old| old != ep);
            // analyze:recovery
            if self.mounts.fs != Some(ep) {
                sh.gate.mark_dirty();
            }
            self.mounts.fs = Some(ep);
            let parked = std::mem::take(&mut self.waiting_fs);
            if rebound || !parked.is_empty() {
                let ev = ctx
                    .event(
                        TraceLevel::Info,
                        format!(
                            "file server {key} -> {ep}; {} parked requests",
                            parked.len()
                        ),
                    )
                    .with_field("ev", "resume")
                    .with_field("key", key.as_str())
                    .with_field("parked", parked.len() as u64)
                    .in_recovery_opt(update.recovery)
                    .with_parent_opt(update.span);
                ctx.trace_event(ev);
            }
            // Parked requests all go to the root file server, whatever
            // their route.
            for (c, m) in parked {
                self.forward(sh, ctx, 0, ep, c, m);
            }
        } else if Some(&key) == self.fat_key.as_ref() {
            // analyze:recovery
            if self.mounts.fat != Some(ep) {
                sh.gate.mark_dirty();
            }
            self.mounts.fat = Some(ep);
        } else if key.starts_with("chr.") {
            // analyze:recovery
            let rebound = self.mounts.chr.get(&key).is_some_and(|&old| old != ep);
            // analyze:recovery
            if self.mounts.chr.get(&key) != Some(&ep) {
                sh.gate.mark_dirty();
            }
            let ev = ctx
                .event(TraceLevel::Info, format!("char driver {key} -> {ep}"))
                .with_field("ev", if rebound { "reintegrate" } else { "resume" })
                .with_field("key", key.as_str())
                .in_recovery_opt(update.recovery)
                .with_parent_opt(update.span);
            ctx.trace_event(ev);
            self.mounts.chr.insert(key, ep);
        }
    }

    fn event(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_>, event: ProcEvent) {
        match event {
            ProcEvent::Start => {
                sh.watch.subscribe(ctx, &self.fs_key);
                sh.watch.subscribe(ctx, "chr.*");
                if let Some(fat) = &self.fat_key {
                    sh.watch.subscribe(ctx, fat);
                }
            }
            ProcEvent::Reply { call, result } => {
                // Anything not in the table is a subscribe ack or the like.
                if let Some(fwd) = self.forwards.remove(&call) {
                    self.on_forward_reply(sh, ctx, fwd, result);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A data-store key longer than the one-byte prefix can say is cut,
    /// prefix and bytes agreeing: the frame still decodes.
    #[test]
    fn an_overlong_key_is_cut_not_corrupted() {
        let mut mounts = Mounts::default();
        let long = format!("chr.{}\u{e9}tail", "x".repeat(250));
        mounts.chr.insert(long.clone(), Endpoint::new(9, 1));
        mounts
            .chr
            .insert("chr.kbd".to_string(), Endpoint::new(13, 1));
        let restored = Vfs::decode(&mounts.encode()).expect("still one of ours");
        let keys: Vec<&str> = restored.chr.keys().map(String::as_str).collect();
        assert_eq!(keys, ["chr.kbd", &long[..254]]);
    }
}
