//! Chaos-layer integration tests: driver recovery must stay transparent
//! (§6.1, §6.2) while the IPC fabric drops, delays, duplicates and
//! corrupts messages, stalls endpoints, and kills processes mid-recovery —
//! and the hardened RS must neither flap (restart storms) nor miss
//! defects (lost exit reports).

use std::cell::RefCell;
use std::rc::Rc;

use phoenix::apps::{Dd, DdStatus, Wget, WgetStatus};
use phoenix::campaign::{run_chaos_campaign, ChaosCampaignConfig};
use phoenix::os::{hwmap, names, NicKind, Os};
use phoenix_fault::{ChaosPlan, ChaosRule, NameFilter};
use phoenix_hw::rtl8139::Rtl8139;
use phoenix_kernel::chaos::IpcClass;
use phoenix_servers::fsfmt::{FileContent, FileSpec};
use phoenix_servers::netproto::stream_md5;
use phoenix_simcore::time::{SimDuration, SimTime};

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

#[test]
fn network_recovery_transparent_under_chaos() {
    // §6.1 under fire: the full driver-traffic preset (10% drop, 10%
    // delay, 5% duplication, 2% corruption) plus two user kills; wget
    // still completes with an intact MD5.
    let size = 6_000_000u64;
    let content_seed = 77;
    let mut os = Os::builder()
        .seed(40)
        .with_network(NicKind::Rtl8139)
        .heartbeat(ms(500), 3)
        .chaos(ChaosPlan::driver_traffic(1.0))
        .boot();
    let inet = os.endpoint(names::INET).unwrap();
    let status = Rc::new(RefCell::new(WgetStatus::default()));
    os.spawn_app(
        "wget",
        Box::new(Wget::new(inet, size, content_seed, status.clone())),
    );
    os.run_for(ms(150));
    assert!(os.kill_by_user(names::ETH_RTL8139));
    os.run_for(ms(600));
    assert!(os.kill_by_user(names::ETH_RTL8139));
    let mut guard = 0;
    while !status.borrow().done && guard < 1200 {
        os.run_for(ms(100));
        guard += 1;
    }
    let st = status.borrow();
    assert!(
        st.done,
        "download must complete under chaos (bytes={})",
        st.bytes
    );
    assert_eq!(st.bytes, size);
    assert_eq!(
        st.md5.as_deref(),
        Some(stream_md5(content_seed, size).as_str()),
        "no end-to-end corruption despite a corrupting fabric"
    );
    assert!(os.metrics().counter("rs.recoveries") >= 2);
    assert!(
        os.metrics().counter("chaos.dropped") > 0,
        "chaos actually engaged"
    );
    assert_eq!(os.metrics().counter("rs.storms"), 0, "no restart storm");
    assert_eq!(os.metrics().counter("rs.gave_up"), 0);
}

#[test]
fn block_recovery_transparent_under_chaos() {
    // §6.2 under fire: kill the SATA driver mid-read while the fabric
    // misbehaves; dd completes with the right SHA-1 and zero errors.
    let disk_seed = 1234;
    let file_size = 2_000_000u64;
    let sectors = file_size / 512 + 1024;
    let files = vec![FileSpec {
        name: "bigfile".to_string(),
        content: FileContent::Synthetic { size: file_size },
    }];
    let mut os = Os::builder()
        .seed(41)
        .with_disk(sectors, disk_seed, files)
        .heartbeat(ms(500), 3)
        .chaos(ChaosPlan::driver_traffic(1.0))
        .boot();
    let vfs = os.endpoint(names::VFS).unwrap();
    let status = Rc::new(RefCell::new(DdStatus::default()));
    os.spawn_app(
        "dd",
        Box::new(Dd::new(vfs, "bigfile", 64 * 1024, status.clone())),
    );
    os.run_for(ms(200));
    assert!(os.kill_by_user(names::BLK_SATA));
    let mut guard = 0;
    while !status.borrow().done && guard < 1200 {
        os.run_for(ms(100));
        guard += 1;
    }
    let st = status.borrow();
    assert!(
        st.done,
        "dd must complete under chaos; bytes={} errors={}",
        st.bytes, st.errors
    );
    assert_eq!(st.errors, 0, "block recovery stays transparent");
    let expected = phoenix::experiments::fig8_expected_sha1(sectors, disk_seed, file_size);
    assert_eq!(st.sha1.as_deref(), Some(expected.as_str()));
    assert!(os.metrics().counter("rs.recoveries") >= 1);
    assert_eq!(os.metrics().counter("rs.storms"), 0);
}

#[test]
fn stalled_driver_trips_heartbeat_detection() {
    // A chaos stall window holds every message to the driver (including
    // heartbeat pings); RS counts the misses and replaces it.
    let stall_from = SimTime::from_micros(2_500_000);
    let stall_until = SimTime::from_micros(6_000_000);
    let mut os = Os::builder()
        .seed(42)
        .with_network(NicKind::Rtl8139)
        .heartbeat(ms(250), 2)
        .chaos(ChaosPlan::new().stall(
            NameFilter::exact(names::ETH_RTL8139),
            stall_from,
            stall_until,
        ))
        .boot();
    let old = os.endpoint(names::ETH_RTL8139).unwrap();
    os.run_for(SimDuration::from_secs(8));
    assert!(
        os.metrics().counter("chaos.stalled") > 0,
        "messages were held"
    );
    assert!(
        os.metrics().counter("rs.defect.heartbeat") >= 1,
        "stall long enough for {} misses",
        2
    );
    let new = os.endpoint(names::ETH_RTL8139).unwrap();
    assert_ne!(old, new, "driver replaced after the stall");
}

#[test]
fn crash_during_recovery_still_recovers() {
    // The chaos layer kills the *fresh incarnation* 2 ms after it spawns;
    // RS must treat that as a new defect and recover again.
    let mut os = Os::builder()
        .seed(43)
        .with_network(NicKind::Rtl8139)
        .chaos(ChaosPlan::new().kill_during_recovery(
            NameFilter::exact(names::ETH_RTL8139),
            0,
            1,
            ms(2),
        ))
        .boot();
    let old = os.endpoint(names::ETH_RTL8139).unwrap();
    os.kill_by_user(names::ETH_RTL8139);
    os.run_for(SimDuration::from_secs(5));
    assert_eq!(
        os.metrics().counter("chaos.kills"),
        1,
        "the scripted mid-recovery kill fired"
    );
    let new = os
        .endpoint(names::ETH_RTL8139)
        .expect("driver up after double failure");
    assert_ne!(old, new);
    assert!(
        os.metrics().counter("rs.recoveries") >= 2,
        "both the original and the mid-recovery crash were recovered"
    );
    assert_eq!(os.metrics().counter("rs.gave_up"), 0);
}

#[test]
fn restart_storm_escalates_then_gives_up() {
    // A wedged card makes every restart die at init: the crash loop blows
    // the restart budget; RS escalates restart -> restart-with-deps ->
    // extended cool-down -> give up instead of flapping forever.
    let mut os = Os::builder()
        .seed(44)
        .with_network(NicKind::Rtl8139)
        .restart_budget(3, SimDuration::from_secs(10))
        .service_deps(names::ETH_RTL8139, &[names::INET])
        .boot();
    let inet_before = os.endpoint(names::INET).unwrap();
    {
        let nic: &mut Rtl8139 = os.device_mut(hwmap::NIC).unwrap();
        nic.force_wedge();
    }
    os.kill_by_user(names::ETH_RTL8139);
    os.run_for(SimDuration::from_secs(30));
    assert!(
        os.metrics().counter("rs.storms") >= 3,
        "budget exceeded repeatedly"
    );
    assert_eq!(
        os.metrics().counter("rs.gave_up"),
        1,
        "ladder ends in give-up"
    );
    assert!(!os.is_up(names::ETH_RTL8139));
    // Level-1 escalation restarted the declared dependent.
    assert!(os.trace().find("restarting dependent inet").is_some());
    assert_ne!(
        os.endpoint(names::INET),
        Some(inet_before),
        "inet was restarted too"
    );
    // The ladder bounds the flapping: without it the 10ms exec latency
    // would allow hundreds of restart attempts in 30s.
    assert!(os.metrics().counter("rs.defect.exit") < 20);
}

#[test]
fn lost_exit_report_is_reconciled() {
    // Chaos drops every PM->RS send (the SIGCHLD path). The liveness
    // audit notices the dead endpoint anyway and runs recovery.
    let mut os = Os::builder()
        .seed(45)
        .with_network(NicKind::Rtl8139)
        .chaos(
            ChaosPlan::new().rule(
                ChaosRule::new()
                    .from(NameFilter::exact("pm"))
                    .to(NameFilter::exact("rs"))
                    .classes(&[IpcClass::Send])
                    .drop(1.0),
            ),
        )
        .boot();
    let old = os.endpoint(names::ETH_RTL8139).unwrap();
    os.kill_by_user(names::ETH_RTL8139);
    os.run_for(SimDuration::from_secs(5));
    assert!(
        os.metrics().counter("rs.lost_sigchld") >= 1,
        "the loss was detected"
    );
    let new = os
        .endpoint(names::ETH_RTL8139)
        .expect("recovered without any SIGCHLD");
    assert_ne!(old, new);
}

#[test]
fn lost_publish_ack_is_retried_and_alerted() {
    // DS acknowledgements never reach RS: publish verification retries a
    // bounded number of times, then alerts — while recovery itself still
    // completes (the publish *request* did get through).
    let mut os = Os::builder()
        .seed(46)
        .with_network(NicKind::Rtl8139)
        .chaos(
            ChaosPlan::new().rule(
                ChaosRule::new()
                    .from(NameFilter::exact("ds"))
                    .to(NameFilter::exact("rs"))
                    .classes(&[IpcClass::Reply])
                    .drop(1.0),
            ),
        )
        .boot();
    let old = os.endpoint(names::ETH_RTL8139).unwrap();
    os.kill_by_user(names::ETH_RTL8139);
    os.run_for(SimDuration::from_secs(5));
    assert_ne!(
        os.endpoint(names::ETH_RTL8139),
        Some(old),
        "recovery completes"
    );
    assert!(
        os.metrics().counter("rs.publish_retries") >= 1,
        "re-publish attempted"
    );
    assert!(
        os.metrics().counter("rs.publish_failed") >= 1,
        "verification gave up after the retry budget and alerted"
    );
}

#[test]
fn chaos_campaign_moderate_intensity_recovers_everything() {
    // The acceptance bar: at moderate intensity (<=10% drop, one
    // mid-recovery kill) every kill recovers and no restart budget is
    // exceeded.
    let cfg = ChaosCampaignConfig {
        kills_per_target: 2,
        kill_interval: SimDuration::from_secs(3),
        ..ChaosCampaignConfig::default()
    };
    let r = run_chaos_campaign(&cfg).0;
    assert_eq!(r.kills.len(), 4);
    assert!(
        (r.recovery_rate() - 1.0).abs() < f64::EPSILON,
        "100% eventual recovery required: {}",
        r.render()
    );
    assert_eq!(r.storms, 0, "zero restart storms required: {}", r.render());
    assert_eq!(r.gave_up, 0);
    assert_eq!(r.recovery_kills, 1, "the scripted mid-recovery kill fired");
    assert!(r.mean_mttr() > SimDuration::ZERO);
}

#[test]
fn same_seed_chaos_runs_are_byte_identical() {
    // Determinism regression: chaos draws come from a forked, dedicated
    // stream, so two same-seed campaigns must produce identical metrics
    // digests (and thus identical behavior).
    let cfg = ChaosCampaignConfig {
        kills_per_target: 1,
        kill_interval: SimDuration::from_secs(2),
        ..ChaosCampaignConfig::default()
    };
    let a = run_chaos_campaign(&cfg).0;
    let b = run_chaos_campaign(&cfg).0;
    assert!(!a.digest.is_empty());
    assert_eq!(a.digest, b.digest, "same seed, same digest");
    assert_eq!(a.render(), b.render(), "same seed, same summary");
}
