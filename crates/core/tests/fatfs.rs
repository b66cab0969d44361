//! The second file server of Fig. 5: the same engine as MFS over a FAT16
//! volume on its own disk + driver, with the same transparent recovery
//! contract.

use std::cell::RefCell;
use std::rc::Rc;

use phoenix::apps::{Dd, DdLoop, DdLoopStatus, DdStatus};
use phoenix::loadgen::{LoadStatus, VfsJobMix, VfsLoadConfig};
use phoenix::os::{names, Os};
use phoenix_fault::chaos::ChaosPlan;
use phoenix_hw::disk::DiskModel;
use phoenix_servers::fsfat::mkfs_fat;
use phoenix_servers::fsfmt::{expected_sha1, FileContent, FileSpec};
use phoenix_simcore::time::SimDuration;

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

fn fat_files(size: u64) -> Vec<FileSpec> {
    vec![
        FileSpec {
            name: "hello.txt".to_string(),
            content: FileContent::Bytes(b"hello from fat".to_vec()),
        },
        FileSpec {
            name: "big.bin".to_string(),
            content: FileContent::Synthetic { size },
        },
    ]
}

fn expected_big_sha1(sectors: u64, seed: u64, size: u64) -> String {
    let mut scratch = DiskModel::new(sectors, seed);
    let files = mkfs_fat(&mut scratch, &fat_files(size));
    expected_sha1(seed, &files[1])
}

#[test]
fn fat_mount_serves_files() {
    let (sectors, seed, size) = (16_384u64, 71u64, 2_000_000u64);
    let mut os = Os::builder()
        .seed(70)
        .with_fat_disk(sectors, seed, fat_files(size))
        .boot();
    assert!(os.is_up(names::FAT));
    assert!(os.is_up(names::BLK_SATA2));
    let vfs = os.endpoint(names::VFS).unwrap();
    let status = Rc::new(RefCell::new(DdStatus::default()));
    os.spawn_app(
        "dd",
        Box::new(Dd::new(vfs, "/fat/big.bin", 64 * 1024, status.clone())),
    );
    let mut guard = 0;
    while !status.borrow().done && guard < 200 {
        os.run_for(ms(100));
        guard += 1;
    }
    let st = status.borrow();
    assert!(st.done, "fat read completes; bytes={}", st.bytes);
    assert_eq!(st.errors, 0);
    assert_eq!(
        st.sha1.as_deref(),
        Some(expected_big_sha1(sectors, seed, size).as_str())
    );
}

#[test]
fn fat_driver_recovery_is_transparent_like_mfs() {
    // Fig. 5's claim, for the second file server: kill the FAT volume's
    // driver mid-read; the FAT server parks + reissues; data is intact.
    let (sectors, seed, size) = (32_768u64, 72u64, 6_000_000u64);
    let mut os = Os::builder()
        .seed(71)
        .with_fat_disk(sectors, seed, fat_files(size))
        .boot();
    let vfs = os.endpoint(names::VFS).unwrap();
    let status = Rc::new(RefCell::new(DdStatus::default()));
    os.spawn_app(
        "dd",
        Box::new(Dd::new(vfs, "/fat/big.bin", 64 * 1024, status.clone())),
    );
    os.run_for(ms(60));
    assert!(os.kill_by_user(names::BLK_SATA2));
    let mut guard = 0;
    while !status.borrow().done && guard < 400 {
        os.run_for(ms(100));
        guard += 1;
    }
    let st = status.borrow();
    assert!(
        st.done,
        "read completes despite the kill; bytes={}",
        st.bytes
    );
    assert_eq!(st.errors, 0, "transparent to the application");
    assert_eq!(
        st.sha1.as_deref(),
        Some(expected_big_sha1(sectors, seed, size).as_str()),
        "data intact"
    );
    assert!(
        os.metrics().counter("fat.reissues") >= 1,
        "pending I/O reissued"
    );
    assert_eq!(os.metrics().counter("rs.recoveries"), 1);
}

#[test]
fn both_file_servers_ride_out_simultaneous_driver_kills() {
    // MFS and FAT each lose their own driver at the same instant; both
    // recover independently (Fig. 5, both arrows at once).
    let mfs_size = 2_000_000u64;
    let mfs_sectors = mfs_size / 512 + 1024;
    let (fat_sectors, fat_seed, fat_size) = (16_384u64, 73u64, 2_000_000u64);
    let mut os = Os::builder()
        .seed(72)
        .with_disk(mfs_sectors, 55, phoenix::experiments::fig8_files(mfs_size))
        .with_fat_disk(fat_sectors, fat_seed, fat_files(fat_size))
        .boot();
    let vfs = os.endpoint(names::VFS).unwrap();
    let st_mfs = Rc::new(RefCell::new(DdStatus::default()));
    let st_fat = Rc::new(RefCell::new(DdStatus::default()));
    os.spawn_app(
        "dd-mfs",
        Box::new(Dd::new(vfs, "bigfile", 64 * 1024, st_mfs.clone())),
    );
    os.spawn_app(
        "dd-fat",
        Box::new(Dd::new(vfs, "/fat/big.bin", 64 * 1024, st_fat.clone())),
    );
    os.run_for(ms(60));
    assert!(os.kill_by_user(names::BLK_SATA));
    assert!(os.kill_by_user(names::BLK_SATA2));
    let mut guard = 0;
    while (!st_mfs.borrow().done || !st_fat.borrow().done) && guard < 400 {
        os.run_for(ms(100));
        guard += 1;
    }
    assert!(st_mfs.borrow().done && st_fat.borrow().done);
    assert_eq!(st_mfs.borrow().errors + st_fat.borrow().errors, 0);
    assert_eq!(
        st_mfs.borrow().sha1.as_deref(),
        Some(phoenix::experiments::fig8_expected_sha1(mfs_sectors, 55, mfs_size).as_str())
    );
    assert_eq!(
        st_fat.borrow().sha1.as_deref(),
        Some(expected_big_sha1(fat_sectors, fat_seed, fat_size).as_str())
    );
    assert_eq!(os.metrics().counter("rs.recoveries"), 2);
}

#[test]
fn neither_file_server_wedges_silently_under_driver_chaos() {
    // The same 2 MB read through both mounts while the fabric drops,
    // delays, duplicates and corrupts driver traffic. Chaos may cost a
    // recovery-unaware `dd` an error, but a read that neither finishes
    // nor fails must have been reported to RS: a lost driver reply has to
    // end in a deadline complaint, never in a server waiting forever.
    let size = 2_000_000u64;
    let mfs_sectors = size / 512 + 1024;
    for seed in 1..=10u64 {
        let mut os = Os::builder()
            .seed(seed)
            .with_disk(mfs_sectors, 55, phoenix::experiments::fig8_files(size))
            .with_fat_disk(16_384, 73, fat_files(size))
            .boot();
        os.set_chaos(Box::new(ChaosPlan::driver_traffic(0.3)));
        let vfs = os.endpoint(names::VFS).unwrap();
        let mounts = [
            ("bigfile", "mfs.complaints"),
            ("/fat/big.bin", "fat.complaints"),
        ];
        let reads = mounts.map(|(path, complaints)| {
            let status = Rc::new(RefCell::new(DdStatus::default()));
            let dd = Dd::new(vfs, path, 64 * 1024, status.clone());
            os.spawn_app(&format!("dd:{path}"), Box::new(dd));
            (path, complaints, status)
        });
        let mut guard = 0;
        while reads.iter().any(|(_, _, st)| !st.borrow().done) && guard < 1200 {
            os.run_for(ms(100));
            guard += 1;
        }
        for (path, complaints, status) in &reads {
            let st = status.borrow();
            let silent = !st.done && st.errors == 0 && os.metrics().counter(complaints) == 0;
            assert!(
                !silent,
                "seed {seed}: {path} wedged silently at {} bytes",
                st.bytes
            );
        }
    }
}

#[test]
fn a_handle_reads_from_the_server_that_opened_it() {
    // Every client that holds a file handle, on each mount of one `Os`
    // with both disks: the bytes it moves must be read by the file server
    // that opened the path, and the other one must not see a single READ.
    type Spawn = fn(&mut Os, &str) -> Box<dyn Fn() -> u64>;
    let readers: [(&str, Spawn); 3] = [
        ("dd", |os, path| {
            let st = Rc::new(RefCell::new(DdStatus::default()));
            let vfs = os.endpoint(names::VFS).unwrap();
            os.spawn_app("dd", Box::new(Dd::new(vfs, path, 64 * 1024, st.clone())));
            Box::new(move || st.borrow().bytes)
        }),
        ("dd-loop", |os, path| {
            let st = Rc::new(RefCell::new(DdLoopStatus::default()));
            let vfs = os.endpoint(names::VFS).unwrap();
            let dd = DdLoop::new(vfs, path, 64 * 1024, st.clone());
            os.spawn_app("dd-loop", Box::new(dd));
            Box::new(move || st.borrow().bytes)
        }),
        ("vfs-mix", |os, path| {
            let st = Rc::new(RefCell::new(LoadStatus::default()));
            let vfs = os.endpoint(names::VFS).unwrap();
            let cfg = VfsLoadConfig {
                clients: 4,
                path: path.to_string(),
                ..VfsLoadConfig::default()
            };
            os.spawn_app("mix", Box::new(VfsJobMix::new(vfs, cfg, st.clone())));
            Box::new(move || st.borrow().bytes)
        }),
    ];
    let size = 2_000_000u64;
    let mounts = [
        ("bigfile", "mfs.reads", "fat.reads"),
        ("/fat/big.bin", "fat.reads", "mfs.reads"),
    ];
    for (reader, spawn) in readers {
        for (path, owner, other) in mounts {
            let mut os = Os::builder()
                .seed(75)
                .with_disk(
                    size / 512 + 1024,
                    55,
                    phoenix::experiments::fig8_files(size),
                )
                .with_fat_disk(16_384, 73, fat_files(size))
                .boot();
            let bytes = spawn(&mut os, path);
            os.run_for(SimDuration::from_secs(1));
            let (owner_reads, other_reads) =
                (os.metrics().counter(owner), os.metrics().counter(other));
            assert!(bytes() > 0, "{reader} {path}: moved no bytes");
            assert!(owner_reads > 0, "{reader} {path}: no {owner}");
            assert_eq!(other_reads, 0, "{reader} {path}: {other} served the handle");
        }
    }
}

#[test]
fn fat_small_file_and_missing_file() {
    use phoenix_drivers::proto::status;
    use phoenix_kernel::process::{ProcEvent, Process};
    use phoenix_kernel::system::Ctx;
    use phoenix_kernel::types::Endpoint;
    use phoenix_servers::proto::{self, File};

    let mut os = Os::builder()
        .seed(73)
        .with_fat_disk(8192, 74, fat_files(10_000))
        .boot();
    let vfs = os.endpoint(names::VFS).unwrap();

    type Results = Rc<RefCell<Vec<(u64, Vec<u8>)>>>;
    struct Small {
        vfs: Endpoint,
        results: Results,
        step: u8,
    }
    impl Process for Small {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
            match event {
                ProcEvent::Start => {
                    let _ = ctx.sendrec(self.vfs, proto::open("/fat/hello.txt"));
                }
                ProcEvent::Reply {
                    result: Ok(reply), ..
                } => match self.step {
                    0 => {
                        assert_eq!(reply.param(0), status::OK);
                        assert_eq!(reply.param(2), 14, "size of hello.txt");
                        self.step = 1;
                        let file = File::opened("/fat/hello.txt", &reply).expect("an open reply");
                        let _ = ctx.sendrec(self.vfs, file.read(0, 14, 0));
                    }
                    1 => {
                        let count = reply.param(1) as usize;
                        let data = ctx.mem(0, count).expect("in the buffer").to_vec();
                        self.results.borrow_mut().push((reply.param(0), data));
                        self.step = 2;
                        let _ = ctx.sendrec(self.vfs, proto::open("/fat/nope.bin"));
                    }
                    2 => {
                        self.results.borrow_mut().push((reply.param(0), Vec::new()));
                        self.step = 3;
                    }
                    _ => {}
                },
                _ => {}
            }
        }
    }
    let results = Rc::new(RefCell::new(Vec::new()));
    os.spawn_app(
        "small",
        Box::new(Small {
            vfs,
            results: results.clone(),
            step: 0,
        }),
    );
    os.run_for(SimDuration::from_secs(2));
    let r = results.borrow();
    assert_eq!(r.len(), 2);
    assert_eq!(r[0].0, status::OK);
    assert_eq!(r[0].1, b"hello from fat");
    assert_eq!(r[1].0, status::ENODEV, "missing file");
}
