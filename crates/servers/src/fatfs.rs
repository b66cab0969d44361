//! The FAT file server — the second file server of Fig. 5.
//!
//! A read-only FAT16 server with exactly the same transparent
//! block-driver recovery contract as [`crate::mfs`]: aborted rendezvous →
//! request parked → driver reintegrated via the data store → pending I/O
//! reissued. Running it beside MFS demonstrates that the recovery
//! machinery is a property of the *architecture*, not of one file
//! system's code.

use std::collections::VecDeque;

use phoenix_drivers::proto::{bdev, status};
use phoenix_hw::disk::SECTOR;
use phoenix_kernel::memory::{GrantAccess, GrantId};
use phoenix_kernel::process::{ProcEvent, Process};
use phoenix_kernel::system::Ctx;
use phoenix_kernel::types::{CallId, Endpoint, IpcError, Message};
use phoenix_simcore::trace::TraceLevel;

use crate::fsfat::{decode_dirent, Bpb, DirEntry, EOC};
use crate::libserver::DsWatch;
use crate::proto::fs;

const IO_BUF: usize = 0;
const MAX_CHUNK_SECTORS: u64 = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MountState {
    NotMounted,
    ReadingBoot,
    ReadingFat,
    ReadingRoot,
    Mounted,
}

/// A mounted file: directory entry plus its resolved cluster chain.
#[derive(Debug, Clone)]
struct FatFile {
    entry: DirEntry,
    /// Cluster chain in order.
    chain: Vec<u16>,
}

impl FatFile {
    /// Maps a byte offset to `(lba, offset-within-sector)`.
    fn locate(&self, bpb: &Bpb, offset: u64) -> Option<(u64, usize)> {
        if offset >= u64::from(self.entry.size) {
            return None;
        }
        let cluster_bytes = u64::from(bpb.sectors_per_cluster) * SECTOR as u64;
        let chain_idx = (offset / cluster_bytes) as usize;
        let cluster = *self.chain.get(chain_idx)?;
        let within = offset % cluster_bytes;
        Some((
            bpb.cluster_lba(cluster) + within / SECTOR as u64,
            (within % SECTOR as u64) as usize,
        ))
    }

    /// Contiguous sectors available from the sector containing `offset`
    /// (cluster chains allocated sequentially merge into long runs).
    fn contiguous_sectors_at(&self, bpb: &Bpb, offset: u64) -> u64 {
        let cluster_bytes = u64::from(bpb.sectors_per_cluster) * SECTOR as u64;
        let mut idx = (offset / cluster_bytes) as usize;
        let Some(&first) = self.chain.get(idx) else {
            return 0;
        };
        let mut run_end = first;
        // Extend over physically consecutive clusters.
        while idx + 1 < self.chain.len() && self.chain[idx + 1] == run_end + 1 {
            run_end += 1;
            idx += 1;
        }
        let sector_in_cluster = (offset % cluster_bytes) / SECTOR as u64;
        let run_sectors = u64::from(run_end - first + 1) * u64::from(bpb.sectors_per_cluster);
        run_sectors - sector_in_cluster
    }
}

#[derive(Debug)]
struct Active {
    client: Option<CallId>, // None during mount
    file_pos: u64,
    remaining: u64,
    assembled: Vec<u8>,
    file: usize,
    chunk_lba: u64,
    chunk_sectors: u64,
    chunk_skip: usize,
    grant: Option<GrantId>,
    driver_call: Option<CallId>,
    waiting_driver: bool,
}

/// The FAT16 file server.
pub struct FatServer {
    watch: DsWatch,
    driver_key: String,
    driver: Option<Endpoint>,
    driver_open: bool,
    open_call: Option<CallId>,
    mount: MountState,
    bpb: Option<Bpb>,
    fat: Vec<u16>,
    files: Vec<FatFile>,
    queue: VecDeque<(CallId, Message)>,
    active: Option<Active>,
}

impl FatServer {
    /// Creates the server bound to the block driver published under
    /// `driver_key`.
    pub fn new(ds: Endpoint, driver_key: &str) -> Self {
        FatServer {
            watch: DsWatch::new(ds),
            driver_key: driver_key.to_string(),
            driver: None,
            driver_open: false,
            open_call: None,
            mount: MountState::NotMounted,
            bpb: None,
            fat: Vec::new(),
            files: Vec::new(),
            queue: VecDeque::new(),
            active: None,
        }
    }

    fn driver_ready(&self) -> bool {
        self.driver.is_some() && self.driver_open
    }

    fn issue_chunk(&mut self, ctx: &mut Ctx<'_>) {
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
        let grant = match ctx.grant_create(driver, IO_BUF, bytes, GrantAccess::Write) {
            Ok(g) => g,
            Err(e) => {
                ctx.trace(TraceLevel::Error, format!("grant failed: {e}"));
                return;
            }
        };
        let msg = Message::new(bdev::READ)
            .with_param(0, a.chunk_lba)
            .with_param(1, a.chunk_sectors)
            .with_param(2, u64::from(grant.0));
        match ctx.sendrec(driver, msg) {
            Ok(call) => {
                let Some(a) = self.active.as_mut() else {
                    return;
                };
                a.grant = Some(grant);
                a.driver_call = Some(call);
                a.waiting_driver = false;
            }
            Err(_) => {
                let _ = ctx.grant_revoke(grant);
                let Some(a) = self.active.as_mut() else {
                    return;
                };
                a.grant = None;
                a.driver_call = None;
                a.waiting_driver = true;
                ctx.metrics().incr("fat.pending_aborts");
            }
        }
    }

    fn start_next_chunk(&mut self, ctx: &mut Ctx<'_>) {
        let Some(a) = self.active.as_ref() else {
            return;
        };
        let Some(bpb) = self.bpb.as_ref() else {
            // Lost the mount mid-operation (restored state went bad):
            // fail the request rather than the whole server.
            self.finish_active(ctx, status::EIO);
            return;
        };
        let f = &self.files[a.file];
        let Some((lba, in_off)) = f.locate(bpb, a.file_pos) else {
            // Position walked off the chain — corrupted FAT or
            // restored cursor; fail the op, keep serving.
            self.finish_active(ctx, status::EIO);
            return;
        };
        let contiguous = f.contiguous_sectors_at(bpb, a.file_pos);
        let want_bytes = in_off as u64 + a.remaining;
        let sectors = want_bytes
            .div_ceil(SECTOR as u64)
            .min(contiguous)
            .min(MAX_CHUNK_SECTORS);
        let (lba, sectors, skip) = (lba, sectors, in_off);
        let Some(a) = self.active.as_mut() else {
            return;
        };
        a.chunk_lba = lba;
        a.chunk_sectors = sectors;
        a.chunk_skip = skip;
        self.issue_chunk(ctx);
    }

    fn finish_active(&mut self, ctx: &mut Ctx<'_>, st: u64) {
        let Some(a) = self.active.take() else { return };
        if let Some(client) = a.client {
            let reply = if st == status::OK {
                Message::new(fs::DATA_REPLY)
                    .with_param(0, status::OK)
                    .with_param(1, a.assembled.len() as u64)
                    .with_data(a.assembled)
            } else {
                Message::new(fs::DATA_REPLY).with_param(0, st)
            };
            let _ = ctx.reply(client, reply);
        }
        self.pump(ctx);
    }

    fn begin_mount_read(&mut self, ctx: &mut Ctx<'_>, lba: u64, sectors: u64) {
        self.active = Some(Active {
            client: None,
            file_pos: 0,
            remaining: sectors * SECTOR as u64,
            assembled: Vec::new(),
            file: usize::MAX,
            chunk_lba: lba,
            chunk_sectors: sectors,
            chunk_skip: 0,
            grant: None,
            driver_call: None,
            waiting_driver: false,
        });
        self.issue_chunk(ctx);
    }

    fn mount_continue(&mut self, ctx: &mut Ctx<'_>, data: Vec<u8>) {
        match self.mount {
            MountState::ReadingBoot => {
                let Some(bpb) = Bpb::decode(&data) else {
                    ctx.trace(TraceLevel::Error, "bad FAT boot sector".to_string());
                    self.active = None;
                    self.mount = MountState::NotMounted;
                    return;
                };
                self.mount = MountState::ReadingFat;
                let (start, len) = (bpb.fat_start(), u64::from(bpb.fat_size));
                self.bpb = Some(bpb);
                self.active = None;
                self.begin_mount_read(ctx, start, len);
            }
            MountState::ReadingFat => {
                self.fat = data
                    .chunks_exact(2)
                    .map(|c| u16::from_le_bytes([c[0], c[1]]))
                    .collect();
                self.mount = MountState::ReadingRoot;
                let Some(bpb) = self.bpb.as_ref() else {
                    // BPB vanished between mount phases: abort the
                    // mount; the retry alarm will start over.
                    ctx.trace(TraceLevel::Error, "mount lost BPB".to_string());
                    self.mount = MountState::NotMounted;
                    return;
                };
                let (start, len) = (bpb.root_start(), bpb.root_sectors());
                self.active = None;
                self.begin_mount_read(ctx, start, len);
            }
            MountState::ReadingRoot => {
                let mut files = Vec::new();
                for raw in data.chunks_exact(32) {
                    let Some(entry) = decode_dirent(raw) else {
                        continue;
                    };
                    // Resolve the cluster chain now; serving then works
                    // from memory like MFS's extents.
                    let mut chain = Vec::new();
                    let mut c = entry.first_cluster;
                    let mut hops = 0;
                    while c != EOC && c >= 2 {
                        chain.push(c);
                        c = self.fat.get(usize::from(c)).copied().unwrap_or(EOC);
                        hops += 1;
                        if hops > self.fat.len() {
                            break; // corrupt chain; serve what we have
                        }
                    }
                    files.push(FatFile { entry, chain });
                }
                self.files = files;
                self.mount = MountState::Mounted;
                self.active = None;
                ctx.trace(
                    TraceLevel::Info,
                    format!("fat mounted: {} files", self.files.len()),
                );
                self.pump(ctx);
            }
            _ => {}
        }
    }

    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        if self.active.is_some() || !self.driver_ready() {
            return;
        }
        if self.mount != MountState::Mounted {
            if self.mount == MountState::NotMounted {
                self.mount = MountState::ReadingBoot;
                self.begin_mount_read(ctx, 0, 1);
            }
            return;
        }
        while let Some((call, msg)) = self.queue.pop_front() {
            match msg.mtype {
                fs::OPEN => {
                    let name = String::from_utf8_lossy(&msg.data).to_lowercase();
                    let reply = match self.files.iter().position(|f| f.entry.name == name) {
                        Some(idx) => Message::new(fs::OPEN_REPLY)
                            .with_param(0, status::OK)
                            .with_param(1, idx as u64)
                            .with_param(2, u64::from(self.files[idx].entry.size)),
                        None => Message::new(fs::OPEN_REPLY).with_param(0, status::ENODEV),
                    };
                    let _ = ctx.reply(call, reply);
                }
                fs::READ => {
                    let (file, offset, len) = (msg.param(0) as usize, msg.param(1), msg.param(2));
                    let Some(f) = self.files.get(file) else {
                        let _ = ctx.reply(
                            call,
                            Message::new(fs::DATA_REPLY).with_param(0, status::EINVAL),
                        );
                        continue;
                    };
                    let len = len.min(u64::from(f.entry.size).saturating_sub(offset));
                    if len == 0 {
                        let _ = ctx.reply(
                            call,
                            Message::new(fs::DATA_REPLY)
                                .with_param(0, status::OK)
                                .with_param(1, 0),
                        );
                        continue;
                    }
                    ctx.metrics().incr("fat.reads");
                    self.active = Some(Active {
                        client: Some(call),
                        file_pos: offset,
                        remaining: len,
                        assembled: Vec::with_capacity(len as usize),
                        file,
                        chunk_lba: 0,
                        chunk_sectors: 0,
                        chunk_skip: 0,
                        grant: None,
                        driver_call: None,
                        waiting_driver: false,
                    });
                    self.start_next_chunk(ctx);
                    return;
                }
                _ => {
                    // Read-only server: writes are politely refused.
                    let _ = ctx.reply(
                        call,
                        Message::new(fs::DATA_REPLY).with_param(0, status::EINVAL),
                    );
                }
            }
        }
    }

    fn on_driver_published(&mut self, ctx: &mut Ctx<'_>, ep: Endpoint) {
        let recovered = self.driver.is_some_and(|old| old != ep);
        self.driver = Some(ep);
        self.driver_open = false;
        self.open_call = ctx
            .sendrec(ep, Message::new(bdev::OPEN).with_param(0, 0))
            .ok();
        if recovered {
            ctx.metrics().incr("fat.driver_reintegrations");
            ctx.trace(
                TraceLevel::Info,
                format!("fat: block driver recovered as {ep}"),
            );
        }
    }

    fn on_driver_reply(&mut self, ctx: &mut Ctx<'_>, result: Result<Message, IpcError>) {
        if let Some(g) = self.active.as_mut().and_then(|a| a.grant.take()) {
            let _ = ctx.grant_revoke(g);
        }
        match result {
            Err(_) => {
                // [recovery:begin] same contract as MFS (§6.2): park the
                // aborted request until the restarted driver is announced.
                let Some(a) = self.active.as_mut() else {
                    return;
                };
                a.driver_call = None;
                a.waiting_driver = true;
                self.driver_open = false;
                ctx.metrics().incr("fat.pending_aborts");
                // [recovery:end]
            }
            Ok(reply) => {
                let Some(a) = self.active.as_mut() else {
                    return;
                };
                a.driver_call = None;
                match reply.param(0) {
                    status::OK => {
                        let bytes = (a.chunk_sectors * SECTOR as u64) as usize;
                        let Ok(data) = ctx.mem_read(IO_BUF, bytes) else {
                            ctx.trace(TraceLevel::Error, "io buffer read failed".to_string());
                            self.finish_active(ctx, status::EIO);
                            return;
                        };
                        if a.file == usize::MAX {
                            self.mount_continue(ctx, data);
                            return;
                        }
                        let start = a.chunk_skip;
                        let take = (bytes - start).min(a.remaining as usize);
                        a.assembled.extend_from_slice(&data[start..start + take]);
                        a.file_pos += take as u64;
                        a.remaining -= take as u64;
                        if a.remaining == 0 {
                            self.finish_active(ctx, status::OK);
                        } else {
                            self.start_next_chunk(ctx);
                        }
                    }
                    status::EAGAIN => {
                        self.issue_chunk(ctx);
                    }
                    _ => {
                        self.finish_active(ctx, status::EIO);
                    }
                }
            }
        }
    }
}

impl Process for FatServer {
    // analyze:recovery-root
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        match event {
            ProcEvent::Start => self.watch.subscribe(ctx, &self.driver_key),
            ProcEvent::Notify { from } if from == self.watch.ds() => self.watch.check(ctx),
            ProcEvent::Request { call, msg } => {
                self.queue.push_back((call, msg));
                self.pump(ctx);
            }
            ProcEvent::Reply { call, result } => {
                if let Some(update) = self.watch.on_reply(call, &result) {
                    if let Some(update) = update {
                        if update.key == self.driver_key {
                            self.on_driver_published(ctx, update.endpoint);
                        }
                        self.watch.check(ctx);
                    }
                    return;
                }
                if Some(call) == self.open_call {
                    self.open_call = None;
                    if let Ok(reply) = result {
                        if reply.mtype == bdev::REPLY && reply.param(0) == status::OK {
                            self.driver_open = true;
                            // [recovery:begin]
                            if self.active.as_ref().is_some_and(|a| a.waiting_driver) {
                                ctx.trace(TraceLevel::Info, "fat: reissue pending io".to_string());
                                ctx.metrics().incr("fat.reissues");
                                self.issue_chunk(ctx);
                            } else {
                                self.pump(ctx);
                            }
                            // [recovery:end]
                        }
                    }
                    return;
                }
                if self.active.as_ref().and_then(|a| a.driver_call) == Some(call) {
                    self.on_driver_reply(ctx, result);
                }
            }
            _ => {}
        }
    }
}
