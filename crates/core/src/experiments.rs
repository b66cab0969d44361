//! Reusable experiment drivers for the paper's evaluation (§7.1):
//! Fig. 7 (network throughput under driver kills), Fig. 8 (disk throughput
//! under driver kills), and the Fig. 3 recovery-scheme matrix.

use std::cell::RefCell;
use std::rc::Rc;

use phoenix_hw::disk::DiskModel;
use phoenix_servers::fsfmt::{self, FileContent, FileSpec};
use phoenix_servers::netproto::stream_md5;
use phoenix_servers::peer::FilePeer;
use phoenix_simcore::time::{SimDuration, SimTime};

use crate::apps::{CdBurn, CdBurnStatus, Dd, DdStatus, Lpd, LpdStatus, Wget, WgetStatus};
use crate::os::{names, NicKind, Os};

/// Result of one Fig. 7 network run.
#[derive(Debug, Clone)]
pub struct NetRunResult {
    /// Kill interval (None = uninterrupted baseline).
    pub kill_interval: Option<SimDuration>,
    /// Transfer time.
    pub elapsed: SimDuration,
    /// Payload throughput in MB/s.
    pub throughput_mbs: f64,
    /// MD5 of received data matches the original file.
    pub md5_ok: bool,
    /// Number of driver kills performed.
    pub kills: u64,
    /// Mean data-flow gap across kills (the observable recovery time).
    pub mean_gap: Option<SimDuration>,
    /// Transport retransmission batches at the peer.
    pub retransmissions: u64,
}

/// Runs the Fig. 7 experiment: download `size` bytes via the RTL8139
/// while killing its driver every `kill_interval` (or never).
pub fn fig7_network_run(size: u64, kill_interval: Option<SimDuration>, seed: u64) -> NetRunResult {
    let content_seed = seed ^ 0x5157_4745; // "WGET"
    let mut os = Os::builder()
        .seed(seed)
        .with_network(NicKind::Rtl8139)
        .boot();
    let inet = os.endpoint(names::INET).expect("inet up after boot");
    let status = Rc::new(RefCell::new(WgetStatus::default()));
    let start = os.now();
    os.spawn_app(
        "wget",
        Box::new(Wget::new(inet, size, content_seed, status.clone())),
    );

    let driver = os.eth_driver_name().expect("network configured");
    // Generous timeout: 20x the ideal transfer time plus a minute.
    let deadline =
        start + SimDuration::from_secs_f64(size as f64 / 500_000.0) + SimDuration::from_secs(60);
    let kills = run_under_kills(&mut os, driver, kill_interval, deadline, || {
        status.borrow().done
    });
    let st = status.borrow();
    let finished = st.finished_at.unwrap_or(os.now());
    let elapsed = finished.since(start);
    let md5_ok = st.md5.as_deref() == Some(stream_md5(content_seed, size).as_str());
    let mean_gap = if st.gaps.is_empty() {
        None
    } else {
        let total: SimDuration = st
            .gaps
            .iter()
            .map(|(_, g)| *g)
            .fold(SimDuration::ZERO, |a, b| a + b);
        Some(total / st.gaps.len() as u64)
    };
    let retransmissions = os
        .peer_mut::<FilePeer>()
        .map(|p| p.retransmissions())
        .unwrap_or(0);
    NetRunResult {
        kill_interval,
        elapsed,
        throughput_mbs: size as f64 / 1e6 / elapsed.as_secs_f64(),
        md5_ok,
        kills,
        mean_gap,
        retransmissions,
    }
}

/// The paper's crash-simulation script (§7.1) around a transfer: runs `os`
/// in 100 ms slices until `done` holds or `deadline` passes, looking up
/// `driver` and SIGKILLing it every `kill_interval` (never if `None`),
/// counted from now. Returns the kills that found the driver.
fn run_under_kills(
    os: &mut Os,
    driver: &str,
    kill_interval: Option<SimDuration>,
    deadline: SimTime,
    done: impl Fn() -> bool,
) -> u64 {
    let mut kills = 0;
    let mut next_kill = kill_interval.map(|i| os.now() + i);
    let slice = SimDuration::from_millis(100);
    while !done() && os.now() < deadline {
        let target = match next_kill {
            Some(nk) => nk.min(os.now() + slice),
            None => os.now() + slice,
        };
        os.run_for(target.since(os.now()).max(SimDuration::from_micros(1)));
        if let (Some(nk), Some(interval)) = (next_kill, kill_interval) {
            if os.now() >= nk {
                if os.kill_by_user(driver) {
                    kills += 1;
                }
                next_kill = Some(nk + interval);
            }
        }
    }
    kills
}

/// Result of one Fig. 8 disk run.
#[derive(Debug, Clone)]
pub struct DiskRunResult {
    /// Kill interval (None = uninterrupted baseline).
    pub kill_interval: Option<SimDuration>,
    /// Transfer time.
    pub elapsed: SimDuration,
    /// Throughput in MB/s.
    pub throughput_mbs: f64,
    /// SHA-1 matches the expected file content.
    pub sha1_ok: bool,
    /// Number of driver kills performed.
    pub kills: u64,
    /// I/O errors the application saw (must be 0: recovery is transparent).
    pub app_errors: u64,
}

/// The standard disk layout used by the Fig. 8 experiment.
pub fn fig8_files(file_size: u64) -> Vec<FileSpec> {
    vec![FileSpec {
        name: "bigfile".to_string(),
        content: FileContent::Synthetic { size: file_size },
    }]
}

/// Expected SHA-1 of `bigfile`, computed without I/O.
pub fn fig8_expected_sha1(sectors: u64, disk_seed: u64, file_size: u64) -> String {
    let mut scratch = DiskModel::new(sectors, disk_seed);
    let inodes = fsfmt::mkfs(&mut scratch, &fig8_files(file_size));
    fsfmt::expected_sha1(disk_seed, &inodes[0])
}

/// Runs the Fig. 8 experiment: `dd` a `file_size`-byte file through
/// VFS/MFS off the SATA disk while killing the disk driver every
/// `kill_interval`.
pub fn fig8_disk_run(
    file_size: u64,
    kill_interval: Option<SimDuration>,
    seed: u64,
) -> DiskRunResult {
    let disk_seed = seed ^ 0x5341_5441; // "SATA"
    let sectors = file_size / 512 + 1024;
    let mut os = Os::builder()
        .seed(seed)
        .with_disk(sectors, disk_seed, fig8_files(file_size))
        .boot();
    let vfs = os.endpoint(names::VFS).expect("vfs up after boot");
    let status = Rc::new(RefCell::new(DdStatus::default()));
    let start = os.now();
    os.spawn_app(
        "dd",
        Box::new(Dd::new(vfs, "bigfile", 128 * 1024, status.clone())),
    );

    let deadline = start
        + SimDuration::from_secs_f64(file_size as f64 / 1_500_000.0)
        + SimDuration::from_secs(60);
    let kills = run_under_kills(&mut os, names::BLK_SATA, kill_interval, deadline, || {
        status.borrow().done
    });
    let st = status.borrow();
    let finished = st.finished_at.unwrap_or(os.now());
    let elapsed = finished.since(start);
    let expected = fig8_expected_sha1(sectors, disk_seed, file_size);
    DiskRunResult {
        kill_interval,
        elapsed,
        throughput_mbs: file_size as f64 / 1e6 / elapsed.as_secs_f64(),
        sha1_ok: st.sha1.as_deref() == Some(expected.as_str()),
        kills,
        app_errors: st.errors,
    }
}

/// Outcome of one recovery-scheme probe (one row of Fig. 3).
#[derive(Debug, Clone)]
pub struct SchemeOutcome {
    /// Driver class name.
    pub class: &'static str,
    /// Whether recovery was transparent to the application.
    pub transparent: bool,
    /// Whether the application recovered with its own logic (§6.3).
    pub app_recovered: bool,
    /// Whether the user had to be told (CD burn case).
    pub user_informed: bool,
    /// Where recovery happened.
    pub recovered_by: &'static str,
}

/// Probes all three recovery schemes of Fig. 3 with one driver kill each.
pub fn fig3_schemes(seed: u64) -> Vec<SchemeOutcome> {
    let mut out = Vec::new();

    // --- network: transparent, by the network server -------------------
    {
        let size = 2_000_000;
        let content_seed = seed ^ 1;
        let mut os = Os::builder()
            .seed(seed)
            .with_network(NicKind::Rtl8139)
            .boot();
        let inet = os.endpoint(names::INET).expect("inet up");
        let status = Rc::new(RefCell::new(WgetStatus::default()));
        os.spawn_app(
            "wget",
            Box::new(Wget::new(inet, size, content_seed, status.clone())),
        );
        os.run_for(SimDuration::from_millis(300));
        os.kill_by_user(names::ETH_RTL8139);
        os.run_until(SimDuration::from_millis(100), 400, |_| status.borrow().done);
        let st = status.borrow();
        let md5_ok = st.md5.as_deref() == Some(stream_md5(content_seed, size).as_str());
        out.push(SchemeOutcome {
            class: "network",
            transparent: st.done && md5_ok,
            app_recovered: false,
            user_informed: false,
            recovered_by: "network server",
        });
    }

    // --- block: transparent, by the file server ------------------------
    {
        let file_size = 2_000_000;
        let disk_seed = seed ^ 2;
        let sectors = file_size / 512 + 1024;
        let mut os = Os::builder()
            .seed(seed)
            .with_disk(sectors, disk_seed, fig8_files(file_size))
            .boot();
        let vfs = os.endpoint(names::VFS).expect("vfs up");
        let status = Rc::new(RefCell::new(DdStatus::default()));
        os.spawn_app(
            "dd",
            Box::new(Dd::new(vfs, "bigfile", 64 * 1024, status.clone())),
        );
        os.run_for(SimDuration::from_millis(100));
        os.kill_by_user(names::BLK_SATA);
        os.run_until(SimDuration::from_millis(100), 400, |_| status.borrow().done);
        let st = status.borrow();
        let expected = fig8_expected_sha1(sectors, disk_seed, file_size);
        let sha_ok = st.sha1.as_deref() == Some(expected.as_str());
        out.push(SchemeOutcome {
            class: "block",
            transparent: st.done && sha_ok && st.errors == 0,
            app_recovered: false,
            user_informed: false,
            recovered_by: "file server",
        });
    }

    // --- character (printer): app-level recovery -----------------------
    {
        let mut os = Os::builder().seed(seed).with_chardevs().boot();
        let vfs = os.endpoint(names::VFS).expect("vfs up");
        let status = Rc::new(RefCell::new(LpdStatus::default()));
        let job = vec![b'P'; 64 * 1024];
        os.spawn_app("lpd", Box::new(Lpd::new(vfs, job, status.clone())));
        os.run_for(SimDuration::from_millis(300));
        os.kill_by_user(names::CHR_PRINTER);
        os.run_until(SimDuration::from_millis(100), 400, |_| status.borrow().done);
        let st = status.borrow();
        out.push(SchemeOutcome {
            class: "character (printer)",
            transparent: false,
            app_recovered: st.done && st.job_restarts > 0,
            user_informed: false,
            recovered_by: "application (lpd redoes the job)",
        });
    }

    // --- character (CD burner): user must be informed ------------------
    {
        let mut os = Os::builder().seed(seed).with_chardevs().boot();
        let vfs = os.endpoint(names::VFS).expect("vfs up");
        let status = Rc::new(RefCell::new(CdBurnStatus::default()));
        os.spawn_app(
            "cdburn",
            Box::new(CdBurn::new(vfs, 2000, 4096, status.clone())),
        );
        os.run_for(SimDuration::from_millis(200));
        os.kill_by_user(names::CHR_SCSI);
        os.run_until(SimDuration::from_millis(100), 100, |_| {
            let st = status.borrow();
            st.completed || st.reported_to_user
        });
        let st = status.borrow();
        out.push(SchemeOutcome {
            class: "character (cd burn)",
            transparent: false,
            app_recovered: false,
            user_informed: st.reported_to_user,
            recovered_by: "user (disc ruined, error reported)",
        });
    }

    out
}
