//! File-server write path: durability across driver kills, and a
//! model-based random-read check against the synthetic disk content.

use std::cell::RefCell;
use std::rc::Rc;

use phoenix::experiments::fig8_files;
use phoenix::os::{names, Os};
use phoenix_drivers::proto::status;
use phoenix_hw::disk::{synth_sector, SECTOR};
use phoenix_kernel::process::{ProcEvent, Process};
use phoenix_kernel::system::Ctx;
use phoenix_kernel::types::{Endpoint, Message};
use phoenix_servers::proto::{self, fs, File};
use phoenix_simcore::rng::SimRng;
use phoenix_simcore::time::SimDuration;

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

/// Where a rig stages what it writes, in its own address space.
const WRITE_BUF: u64 = 0;
/// Where a rig's reads land: apart from the write buffer, so a read that
/// copied nothing cannot pass for the bytes written.
const READ_BUF: u64 = 1 << 20;

/// [`File::write`] of `data`, staged at [`WRITE_BUF`].
fn write(ctx: &mut Ctx<'_>, file: File, offset: u64, data: &[u8]) -> Message {
    ctx.mem_write(WRITE_BUF as usize, data)
        .expect("the buffer fits");
    file.write(offset, data.len() as u64, WRITE_BUF)
}

/// The bytes an OK DATA_REPLY to a read at [`READ_BUF`] says landed
/// there; empty for any other reply.
fn read_back(ctx: &mut Ctx<'_>, reply: &Message) -> Vec<u8> {
    let count = fs::DataReply::from_message(reply)
        .filter(|r| r.status == status::OK)
        .map_or(0, |r| r.count);
    assert!(reply.data.is_empty(), "no file byte rides in a reply");
    ctx.mem(READ_BUF as usize, count as usize)
        .expect("the count fits the buffer")
        .to_vec()
}

/// Writes a sector-aligned pattern, then reads it back.
struct WriteRead {
    vfs: Endpoint,
    path: &'static str,
    file: Option<File>,
    pattern: Vec<u8>,
    offset: u64,
    stage: u8,
    ok: Rc<RefCell<Option<bool>>>,
}

impl Process for WriteRead {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        match event {
            ProcEvent::Start => {
                let _ = ctx.sendrec(self.vfs, proto::open(self.path));
            }
            ProcEvent::Reply {
                result: Ok(reply), ..
            } => match self.stage {
                0 => {
                    assert_eq!(reply.param(0), status::OK, "open");
                    let file = File::opened(self.path, &reply).expect("an open reply");
                    self.file = Some(file);
                    self.stage = 1;
                    let msg = write(ctx, file, self.offset, &self.pattern);
                    let _ = ctx.sendrec(self.vfs, msg);
                }
                1 => {
                    assert_eq!(reply.param(0), status::OK, "write status");
                    assert_eq!(reply.param(1), self.pattern.len() as u64, "bytes written");
                    self.stage = 2;
                    let file = self.file.unwrap();
                    let len = self.pattern.len() as u64;
                    let _ = ctx.sendrec(self.vfs, file.read(self.offset, len, READ_BUF));
                }
                2 => {
                    let good = read_back(ctx, &reply) == self.pattern;
                    *self.ok.borrow_mut() = Some(good);
                    self.stage = 3;
                }
                _ => {}
            },
            ProcEvent::Reply { result: Err(_), .. } => {
                *self.ok.borrow_mut() = Some(false);
            }
            _ => {}
        }
    }
}

#[test]
fn write_then_read_back_roundtrips() {
    // The engine's in-place write is format-agnostic: the same round
    // trip through the root mount and through `/fat/`. 300 sectors of a
    // pattern that differs in every sector: more than one driver chunk
    // (256 sectors) each way, so each chunk must come from and land at
    // its own place in the client's buffer.
    let file_size = 1_000_000u64;
    let sectors = file_size / 512 + 1024;
    for path in ["bigfile", "/fat/bigfile"] {
        let mut os = Os::builder()
            .seed(61)
            .with_disk(sectors, 9, fig8_files(file_size))
            .with_fat_disk(8192, 10, fig8_files(file_size))
            .boot();
        let vfs = os.endpoint(names::VFS).unwrap();
        let ok = Rc::new(RefCell::new(None));
        os.spawn_app(
            "wr",
            Box::new(WriteRead {
                vfs,
                path,
                file: None,
                pattern: (0..300 * SECTOR)
                    .map(|i| (i / SECTOR + i % 251) as u8)
                    .collect(),
                offset: 10 * SECTOR as u64,
                stage: 0,
                ok: ok.clone(),
            }),
        );
        os.run_for(SimDuration::from_secs(2));
        assert_eq!(*ok.borrow(), Some(true), "{path}");
    }
}

#[test]
fn write_survives_driver_kill_between_write_and_read() {
    // The write lands on the disk; the driver is killed; the read-back
    // after recovery sees the written data (durability across recovery).
    let file_size = 1_000_000u64;
    let sectors = file_size / 512 + 1024;
    let mut os = Os::builder()
        .seed(62)
        .with_disk(sectors, 9, fig8_files(file_size))
        .boot();
    let vfs = os.endpoint(names::VFS).unwrap();

    // Stage 1: write only.
    struct WriteOnly {
        vfs: Endpoint,
        pattern: Vec<u8>,
        done: Rc<RefCell<bool>>,
        opened: bool,
    }
    impl Process for WriteOnly {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
            match event {
                ProcEvent::Start => {
                    let _ = ctx.sendrec(self.vfs, proto::open("bigfile"));
                }
                ProcEvent::Reply {
                    result: Ok(reply), ..
                } => {
                    if !self.opened {
                        self.opened = true;
                        let file = File::opened("bigfile", &reply).expect("an open reply");
                        let msg = write(ctx, file, 0, &self.pattern);
                        let _ = ctx.sendrec(self.vfs, msg);
                    } else {
                        assert_eq!(reply.param(0), status::OK);
                        *self.done.borrow_mut() = true;
                    }
                }
                _ => {}
            }
        }
    }
    let wrote = Rc::new(RefCell::new(false));
    let pattern = vec![0x77u8; 2 * SECTOR];
    os.spawn_app(
        "writer",
        Box::new(WriteOnly {
            vfs,
            pattern: pattern.clone(),
            done: wrote.clone(),
            opened: false,
        }),
    );
    let mut guard = 0;
    while !*wrote.borrow() && guard < 100 {
        os.run_for(ms(100));
        guard += 1;
    }
    assert!(*wrote.borrow());

    // Kill + recover the driver.
    os.kill_by_user(names::BLK_SATA);
    os.run_for(SimDuration::from_secs(1));
    assert!(os.is_up(names::BLK_SATA));

    // Stage 2: read back through the recovered driver.
    struct ReadBack {
        vfs: Endpoint,
        want: Vec<u8>,
        ok: Rc<RefCell<Option<bool>>>,
        opened: bool,
    }
    impl Process for ReadBack {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
            match event {
                ProcEvent::Start => {
                    let _ = ctx.sendrec(self.vfs, proto::open("bigfile"));
                }
                ProcEvent::Reply {
                    result: Ok(reply), ..
                } => {
                    if !self.opened {
                        self.opened = true;
                        let file = File::opened("bigfile", &reply).expect("an open reply");
                        let len = self.want.len() as u64;
                        let _ = ctx.sendrec(self.vfs, file.read(0, len, READ_BUF));
                    } else {
                        *self.ok.borrow_mut() = Some(read_back(ctx, &reply) == self.want);
                    }
                }
                _ => {}
            }
        }
    }
    let ok = Rc::new(RefCell::new(None));
    os.spawn_app(
        "reader",
        Box::new(ReadBack {
            vfs,
            want: pattern,
            ok: ok.clone(),
            opened: false,
        }),
    );
    os.run_for(SimDuration::from_secs(2));
    assert_eq!(
        *ok.borrow(),
        Some(true),
        "written data survives driver recovery"
    );
}

#[test]
fn random_reads_match_the_synthetic_disk_model() {
    // Model-based check: 20 random (offset, len) reads, and one long
    // unaligned one, must equal the bytes predicted from the
    // deterministic sector function.
    let disk_seed = 63;
    let file_size = 300_000u64;
    let sectors = file_size / 512 + 1024;
    let mut os = Os::builder()
        .seed(63)
        .with_disk(sectors, disk_seed, fig8_files(file_size))
        .boot();
    let vfs = os.endpoint(names::VFS).unwrap();
    // The file's first extent starts right after the inode table; compute
    // its base lba the same way mkfs does (1 sector superblock + table).
    let mut scratch = phoenix_hw::disk::DiskModel::new(sectors, disk_seed);
    let inodes = phoenix_servers::fsfmt::mkfs(&mut scratch, &fig8_files(file_size));
    let base_lba = inodes[0].extents[0].start;

    let mut rng = SimRng::new(99);
    let mut probes = Vec::new();
    for _ in 0..20 {
        let off = rng.range_u64(0..file_size - 1);
        let len = rng.range_u64(1..(file_size - off).min(40_000));
        probes.push((off, len));
    }
    // Unaligned and longer than one driver chunk.
    probes.push((1_000, 200_000));

    struct Prober {
        vfs: Endpoint,
        probes: Vec<(u64, u64)>,
        next: usize,
        file: Option<File>,
        results: Rc<RefCell<Vec<Vec<u8>>>>,
    }
    impl Process for Prober {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
            match event {
                ProcEvent::Start => {
                    let _ = ctx.sendrec(self.vfs, proto::open("bigfile"));
                }
                ProcEvent::Reply {
                    result: Ok(reply), ..
                } => {
                    if self.file.is_none() {
                        self.file = Some(File::opened("bigfile", &reply).expect("an open reply"));
                    } else {
                        self.results.borrow_mut().push(read_back(ctx, &reply));
                        self.next += 1;
                    }
                    if self.next < self.probes.len() {
                        let (off, len) = self.probes[self.next];
                        let read = self.file.unwrap().read(off, len, READ_BUF);
                        let _ = ctx.sendrec(self.vfs, read);
                    }
                }
                _ => {}
            }
        }
    }
    let results = Rc::new(RefCell::new(Vec::new()));
    os.spawn_app(
        "prober",
        Box::new(Prober {
            vfs,
            probes: probes.clone(),
            next: 0,
            file: None,
            results: results.clone(),
        }),
    );
    os.run_for(SimDuration::from_secs(5));
    let results = results.borrow();
    assert_eq!(results.len(), probes.len());
    for ((off, len), got) in probes.iter().zip(results.iter()) {
        // Expected bytes from the synthetic model.
        let mut want = Vec::with_capacity(*len as usize);
        let mut pos = *off;
        while (want.len() as u64) < *len {
            let lba = base_lba + pos / 512;
            let in_off = (pos % 512) as usize;
            let sector = synth_sector(disk_seed, lba);
            let take = ((*len - want.len() as u64) as usize).min(512 - in_off);
            want.extend_from_slice(&sector[in_off..in_off + take]);
            pos += take as u64;
        }
        assert_eq!(got, &want, "probe at offset {off} len {len}");
    }
}
