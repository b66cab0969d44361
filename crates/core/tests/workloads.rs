//! Workload-level robustness: concurrent file-server clients, connect
//! across a driver outage, and recovery accounting sanity.

use std::cell::RefCell;
use std::rc::Rc;

use phoenix::apps::{Dd, DdStatus, Wget, WgetStatus};
use phoenix::experiments::{fig8_expected_sha1, fig8_files};
use phoenix::os::{names, NicKind, Os};
use phoenix_servers::netproto::stream_md5;
use phoenix_simcore::time::SimDuration;

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

#[test]
fn two_concurrent_readers_both_get_correct_data_across_a_kill() {
    // MFS serializes client requests; two dd instances interleave reads
    // while the driver is killed once. Both checksums must come out right.
    let disk_seed = 31;
    let file_size = 2_000_000u64;
    let sectors = file_size / 512 + 1024;
    let mut os = Os::builder()
        .seed(30)
        .with_disk(sectors, disk_seed, fig8_files(file_size))
        .boot();
    let vfs = os.endpoint(names::VFS).unwrap();
    let st_a = Rc::new(RefCell::new(DdStatus::default()));
    let st_b = Rc::new(RefCell::new(DdStatus::default()));
    os.spawn_app(
        "dd-a",
        Box::new(Dd::new(vfs, "bigfile", 64 * 1024, st_a.clone())),
    );
    os.spawn_app(
        "dd-b",
        Box::new(Dd::new(vfs, "bigfile", 32 * 1024, st_b.clone())),
    );
    os.run_for(ms(100));
    os.kill_by_user(names::BLK_SATA);
    let mut guard = 0;
    while (!st_a.borrow().done || !st_b.borrow().done) && guard < 600 {
        os.run_for(ms(100));
        guard += 1;
    }
    let expected = fig8_expected_sha1(sectors, disk_seed, file_size);
    for (name, st) in [("a", st_a), ("b", st_b)] {
        let st = st.borrow();
        assert!(st.done, "reader {name} finished");
        assert_eq!(st.errors, 0, "reader {name} saw no errors");
        assert_eq!(
            st.sha1.as_deref(),
            Some(expected.as_str()),
            "reader {name} checksum"
        );
    }
}

#[test]
fn connect_succeeds_even_when_driver_dies_during_handshake() {
    // Kill the driver immediately after the app starts connecting: the
    // SYN (or SYN-ACK) is lost, INET's handshake retransmit covers it
    // once the restarted driver is reintegrated.
    let mut os = Os::builder().seed(33).with_network(NicKind::Rtl8139).boot();
    let inet = os.endpoint(names::INET).unwrap();
    let status = Rc::new(RefCell::new(WgetStatus::default()));
    let size = 200_000u64;
    os.spawn_app("wget", Box::new(Wget::new(inet, size, 3, status.clone())));
    // Kill before the handshake can complete (IPC latency is ~µs but the
    // wire adds 200µs each way; kill at t+50µs lands mid-handshake).
    os.run_for(SimDuration::from_micros(50));
    os.kill_by_user(names::ETH_RTL8139);
    let mut guard = 0;
    while !status.borrow().done && guard < 300 {
        os.run_for(ms(100));
        guard += 1;
    }
    let st = status.borrow();
    assert!(st.done, "download completes despite handshake-time kill");
    assert_eq!(st.md5.as_deref(), Some(stream_md5(3, size).as_str()));
    assert!(os.metrics().counter("inet.syn_retransmits") >= 1 || st.bytes == size);
}

#[test]
fn recovery_time_histogram_tracks_every_recovery() {
    let mut os = Os::builder().seed(34).with_network(NicKind::Rtl8139).boot();
    for _ in 0..5 {
        os.kill_by_user(names::ETH_RTL8139);
        os.run_for(ms(400));
    }
    let h = os
        .metrics()
        .log_histogram("rs.recovery_time")
        .expect("histogram exists");
    assert_eq!(h.count(), 5);
    // Direct restart: each recovery is the exec latency plus IPC noise.
    assert!(h.mean_duration().unwrap() < ms(50), "mean {:?}", h.mean());
    assert!(
        h.min().unwrap() >= 10_000,
        "at least the 10 ms exec latency"
    );
}

#[test]
fn downloads_of_every_small_size_complete_intact() {
    // Edge sizes around segment boundaries: empty-ish, one byte, exactly
    // one MSS, one MSS ± 1, several segments.
    for &size in &[1u64, 1459, 1460, 1461, 4096, 100_000] {
        let mut os = Os::builder()
            .seed(35 ^ size)
            .with_network(NicKind::Rtl8139)
            .boot();
        let inet = os.endpoint(names::INET).unwrap();
        let status = Rc::new(RefCell::new(WgetStatus::default()));
        os.spawn_app(
            "wget",
            Box::new(Wget::new(inet, size, size, status.clone())),
        );
        let mut guard = 0;
        while !status.borrow().done && guard < 100 {
            os.run_for(ms(100));
            guard += 1;
        }
        let st = status.borrow();
        assert!(st.done, "size {size} completes");
        assert_eq!(st.bytes, size, "size {size} byte count");
        assert_eq!(
            st.md5.as_deref(),
            Some(stream_md5(size, size).as_str()),
            "size {size} digest"
        );
    }
}

#[test]
fn fs_read_edge_cases() {
    // Unaligned offsets, cross-sector reads, reads past EOF.
    use phoenix_drivers::proto::status;
    use phoenix_kernel::process::{ProcEvent, Process};
    use phoenix_kernel::system::Ctx;
    use phoenix_kernel::types::{Endpoint, Message};
    use phoenix_servers::proto::fs;

    let disk_seed = 36;
    let file_size = 10_000u64; // not sector-aligned
    let sectors = 1024;
    let mut os = Os::builder()
        .seed(36)
        .with_disk(sectors, disk_seed, fig8_files(file_size))
        .boot();
    let vfs = os.endpoint(names::VFS).unwrap();

    struct EdgeReader {
        vfs: Endpoint,
        ino: Option<u64>,
        size: u64,
        step: usize,
        results: Rc<RefCell<Vec<(u64, usize)>>>, // (status, bytes)
    }
    impl Process for EdgeReader {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
            match event {
                ProcEvent::Start => {
                    let _ = ctx.sendrec(
                        self.vfs,
                        Message::new(fs::OPEN).with_data(b"bigfile".to_vec()),
                    );
                }
                ProcEvent::Reply {
                    result: Ok(reply), ..
                } => {
                    if self.ino.is_none() {
                        assert_eq!(reply.param(0), status::OK);
                        self.ino = Some(reply.param(1));
                        self.size = reply.param(2);
                    } else {
                        // The count; the bytes are in the reader's
                        // buffer, none in the reply.
                        assert!(reply.data.is_empty());
                        self.results
                            .borrow_mut()
                            .push((reply.param(0), reply.param(1) as usize));
                        self.step += 1;
                    }
                    let ino = self.ino.unwrap();
                    // (offset, len) probes, in order.
                    let probes = [
                        (1u64, 100u64),        // unaligned start
                        (500, 24),             // crosses sector boundary
                        (self.size - 10, 100), // clamped at EOF
                        (self.size + 5, 10),   // entirely past EOF
                    ];
                    if self.step < probes.len() {
                        let (off, len) = probes[self.step];
                        let _ = ctx.sendrec(
                            self.vfs,
                            Message::new(fs::READ)
                                .with_param(0, ino)
                                .with_param(1, off)
                                .with_param(2, len),
                        );
                    }
                }
                _ => {}
            }
        }
    }
    let results = Rc::new(RefCell::new(Vec::new()));
    os.spawn_app(
        "edge",
        Box::new(EdgeReader {
            vfs,
            ino: None,
            size: 0,
            step: 0,
            results: results.clone(),
        }),
    );
    os.run_for(SimDuration::from_secs(2));
    let r = results.borrow();
    assert_eq!(r.len(), 4, "all probes answered: {r:?}");
    assert_eq!(r[0], (0, 100), "unaligned read");
    assert_eq!(r[1], (0, 24), "cross-sector read");
    assert_eq!(r[2], (0, 10), "EOF-clamped read");
    assert_eq!(r[3], (0, 0), "read past EOF returns zero bytes");
}
