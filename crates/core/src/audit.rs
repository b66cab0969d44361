//! Deterministic workload for the least-authority conformance audit.
//!
//! The audit (§4's principle-of-least-authority tables) compares each
//! component's *declared* privileges against the authority it actually
//! *exercises*. "Actually exercises" needs a workload that drives every
//! subsystem through its full repertoire: normal traffic, driver crashes
//! and recoveries, a wedged driver caught by the file server's deadline
//! complaint, and a chaos phase that stresses the retry paths. This
//! module runs that workload under the simulator and returns the
//! observed-vs-declared snapshot for [`phoenix_kernel::audit`].
//!
//! Everything here is a pure function of the seed: the snapshot — and
//! therefore the audit verdict gating CI — is byte-stable across runs.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use phoenix_fault::chaos::ChaosPlan;
use phoenix_kernel::authority::{audit, AuthorityUsage, PolaFinding};
use phoenix_kernel::privileges::Privileges;
use phoenix_servers::fsfmt::{FileContent, FileSpec};
use phoenix_simcore::time::SimDuration;

use crate::apps::{
    CdBurn, CdBurnStatus, Dd, DdStatus, Lpd, LpdStatus, Mp3Player, Mp3Status, TtyReader, TtyStatus,
    UdpPing, UdpStatus, Wget, WgetStatus,
};
use crate::os::{names, NicKind, Os, OverGrant};

/// Everything the audit needs from one workload run.
#[derive(Clone, Debug)]
pub struct AuthoritySnapshot {
    /// Declared privilege table per component (program registry overlaid
    /// on live processes, keyed by stable name).
    pub declared: BTreeMap<String, Privileges>,
    /// Authority actually exercised during the run.
    pub usage: AuthorityUsage,
    /// Components in audit scope: long-lived system services, not
    /// transient apps or service utilities.
    pub scope: BTreeSet<String>,
}

impl AuthoritySnapshot {
    /// Diffs declared against observed authority for in-scope components.
    pub fn findings(&self) -> Vec<PolaFinding> {
        audit(&self.declared, &self.usage, &self.scope)
    }
}

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

/// Runs `os` until `done()` holds, in 100 ms steps, bounded by `guard`
/// steps so a regression can't hang the audit.
fn run_until(os: &mut Os, guard: u32, mut done: impl FnMut() -> bool) {
    let mut left = guard;
    while !done() && left > 0 {
        os.run_for(ms(100));
        left -= 1;
    }
    assert!(done(), "audit workload phase did not complete within guard");
}

/// Boots the full system configuration and drives the authority
/// workload: every server and driver class does real work, three drivers
/// are crashed and recovered, one driver is wedged so the file server's
/// deadline complaint path fires, and a chaos phase exercises the
/// retransmit/reissue machinery. Returns the declared/observed snapshot.
///
/// `overgrants` seed deliberate POLA violations into the declared tables
/// (red-path testing); pass an empty `Vec` for the real audit.
pub fn run_authority_workload(
    seed: u64,
    overgrants: Vec<(String, OverGrant)>,
) -> AuthoritySnapshot {
    let disk_seed = seed ^ 0x5eed;
    let fat_seed = seed ^ 0xfa7;
    let mfs_size = 900_000u64;
    let fat_size = 300_000u64;
    let net_size = 400_000u64;
    let content_seed = seed.wrapping_mul(3) | 1;

    let mut builder = Os::builder()
        .seed(seed)
        .with_network(NicKind::Rtl8139)
        .with_disk(
            mfs_size / 512 + 1024,
            disk_seed,
            vec![FileSpec {
                name: "bigfile".to_string(),
                content: FileContent::Synthetic { size: mfs_size },
            }],
        )
        .with_fat_disk(
            fat_size / 512 + 1024,
            fat_seed,
            vec![FileSpec {
                name: "big.bin".to_string(),
                content: FileContent::Synthetic { size: fat_size },
            }],
        )
        .with_chardevs()
        // Slow enough (detection ~8 s) that MFS's 5 s driver deadline
        // fires first for the wedged SATA driver — the complaint path is
        // part of the authority being audited.
        .heartbeat(ms(2000), 3);
    for (service, grant) in overgrants {
        builder = builder.overgrant(&service, grant);
    }
    let mut os = builder.boot();

    let inet = os.endpoint(names::INET).expect("inet up");
    let vfs = os.endpoint(names::VFS).expect("vfs up");

    // Phase 1: every subsystem does real work concurrently — TCP download
    // (inet + ethernet), MFS and FAT reads (both block drivers, grants,
    // per-chunk deadlines), printing, audio playback, a CD burn, UDP
    // echo, and keyboard input.
    let wget = Rc::new(RefCell::new(WgetStatus::default()));
    os.spawn_app(
        "wget",
        Box::new(Wget::new(inet, net_size, content_seed, wget.clone())),
    );
    let dd_mfs = Rc::new(RefCell::new(DdStatus::default()));
    os.spawn_app(
        "dd-mfs",
        Box::new(Dd::new(vfs, "bigfile", 64 * 1024, dd_mfs.clone())),
    );
    let dd_fat = Rc::new(RefCell::new(DdStatus::default()));
    os.spawn_app(
        "dd-fat",
        Box::new(Dd::new(vfs, "/fat/big.bin", 64 * 1024, dd_fat.clone())),
    );
    let lpd = Rc::new(RefCell::new(LpdStatus::default()));
    os.spawn_app(
        "lpd",
        Box::new(Lpd::new(vfs, vec![b'x'; 48 * 1024], lpd.clone())),
    );
    let mp3 = Rc::new(RefCell::new(Mp3Status::default()));
    os.spawn_app(
        "mp3",
        Box::new(Mp3Player::new(vfs, 60, 4096, ms(23), mp3.clone())),
    );
    let burn = Rc::new(RefCell::new(CdBurnStatus::default()));
    os.spawn_app(
        "cdburn",
        Box::new(CdBurn::new(vfs, 120, 4096, burn.clone())),
    );
    let udp = Rc::new(RefCell::new(UdpStatus::default()));
    os.spawn_app("udp", Box::new(UdpPing::new(inet, 60, ms(5), udp.clone())));
    let tty = Rc::new(RefCell::new(TtyStatus::default()));
    os.spawn_app("tty", Box::new(TtyReader::new(vfs, ms(50), tty.clone())));
    for (i, chunk) in (b'a'..=b'z').collect::<Vec<_>>().chunks(4).enumerate() {
        os.type_input(ms(20 * (i as u64 + 1)), chunk.to_vec());
    }

    // Phase 2: driver defects mid-work. Both SATA drivers are wedged in
    // a loop right away, so the first dd chunk drives each into the loop
    // and its file server's per-chunk deadline expires and files a
    // complaint with RS (§5.1 defect class 5) — exercising the rs IPC and
    // alarm grants MFS and FAT declare. The printer driver gets its
    // checksum computation garbled (a fail-silent defect): VFS's protocol
    // sentinel spots the bad echoes and complains until the quorum
    // restarts it — the path behind VFS's declared rs IPC grant. The
    // ethernet driver is killed outright mid-transfer (exit-report
    // recovery).
    assert!(os.wedge_driver_in_loop(names::BLK_SATA), "sata wedge");
    assert!(os.wedge_driver_in_loop(names::BLK_SATA2), "sata2 wedge");
    assert!(
        os.garble_driver_checksum(names::CHR_PRINTER),
        "printer garble"
    );
    os.run_for(ms(200));
    assert!(os.kill_by_user(names::ETH_RTL8139), "eth kill");

    run_until(&mut os, 900, || {
        wget.borrow().done
            && dd_mfs.borrow().done
            && dd_fat.borrow().done
            && lpd.borrow().done
            && mp3.borrow().done
            && burn.borrow().completed
            && udp.borrow().done
    });
    assert!(
        os.metrics().counter("rs.recoveries") >= 4,
        "eth, printer and both wedged sata drivers recovered (rs.recoveries={}, heartbeat={}, exit={}, complaint={})",
        os.metrics().counter("rs.recoveries"),
        os.metrics().counter("rs.defect.heartbeat"),
        os.metrics().counter("rs.defect.exit"),
        os.metrics().counter("rs.defect.complaint"),
    );
    assert!(
        os.metrics().counter("mfs.complaints") >= 1 || os.trace().find("complain").is_some(),
        "the wedge forced a deadline complaint"
    );
    assert!(
        os.metrics().counter("fat.complaints") >= 1,
        "the second wedge forced FAT's deadline complaint"
    );
    assert!(
        os.metrics().counter("vfs.complaints") >= 1,
        "the garbled printer checksum forced a sentinel complaint (vfs.complaints={})",
        os.metrics().counter("vfs.complaints"),
    );

    // Phase 3: chaos. The driver-traffic preset drops/delays/duplicates/
    // corrupts driver IPC while a second download rides through another
    // ethernet crash — retry and reissue paths all fire.
    os.set_chaos(Box::new(ChaosPlan::driver_traffic(1.0)));
    let wget2 = Rc::new(RefCell::new(WgetStatus::default()));
    os.spawn_app(
        "wget2",
        Box::new(Wget::new(
            inet,
            net_size / 2,
            content_seed ^ 5,
            wget2.clone(),
        )),
    );
    os.run_for(ms(150));
    assert!(os.kill_by_user(names::ETH_RTL8139), "eth kill under chaos");
    run_until(&mut os, 900, || wget2.borrow().done);
    os.clear_chaos();

    // Settle so in-flight recovery chatter (publishes, acks, heartbeat
    // catch-up) lands before the books close.
    os.run_for(SimDuration::from_secs(2));

    AuthoritySnapshot {
        declared: os.declared_privileges(),
        usage: os.authority_usage().clone(),
        scope: os.audit_scope(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_snapshots_are_identical() {
        let a = run_authority_workload(11, Vec::new());
        let b = run_authority_workload(11, Vec::new());
        assert_eq!(a.declared, b.declared);
        assert_eq!(a.usage.components().count(), b.usage.components().count());
        for ((na, ra), (nb, rb)) in a.usage.components().zip(b.usage.components()) {
            assert_eq!(na, nb);
            assert_eq!(ra, rb);
        }
        assert_eq!(a.scope, b.scope);
    }
}
