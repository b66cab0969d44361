//! End-to-end recovery tests: the paper's §6 recovery schemes and §5
//! detection inputs, exercised through the full OS.

use std::cell::RefCell;
use std::rc::Rc;

use phoenix::apps::{
    CdBurn, CdBurnStatus, Dd, DdStatus, Lpd, LpdStatus, Mp3Player, Mp3Status, UdpPing, UdpStatus,
    Wget, WgetStatus,
};
use phoenix::os::{hwmap, names, NicKind, Os};
use phoenix_hw::chardev::ScsiCdBurner;
use phoenix_hw::rtl8139::Rtl8139;
use phoenix_hw::AudioDac;
use phoenix_servers::fsfmt::{FileContent, FileSpec};
use phoenix_servers::netproto::stream_md5;
use phoenix_simcore::time::SimDuration;

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

#[test]
fn boot_brings_up_all_services() {
    let os = Os::builder()
        .seed(1)
        .with_network(NicKind::Rtl8139)
        .with_disk(4096, 5, vec![])
        .with_chardevs()
        .boot();
    for name in [
        names::INET,
        names::VFS,
        names::MFS,
        names::ETH_RTL8139,
        names::BLK_SATA,
        names::CHR_PRINTER,
        names::CHR_AUDIO,
        names::CHR_SCSI,
    ] {
        assert!(os.is_up(name), "{name} should be up after boot");
    }
    assert!(os.metrics().counter("rs.recoveries") == 0);
    let _ = os.trace();
}

#[test]
fn network_driver_recovery_is_transparent_to_wget() {
    // §6.1 / Fig. 4: kill the Ethernet driver mid-download; wget still
    // completes with an intact MD5.
    let seed = 42;
    let size = 12_000_000u64; // ~1.1s at the 11 MB/s uplink
    let content_seed = 77;
    let mut os = Os::builder()
        .seed(seed)
        .with_network(NicKind::Rtl8139)
        .boot();
    let inet = os.endpoint(names::INET).unwrap();
    let status = Rc::new(RefCell::new(WgetStatus::default()));
    os.spawn_app(
        "wget",
        Box::new(Wget::new(inet, size, content_seed, status.clone())),
    );
    os.run_for(ms(150));
    assert!(status.borrow().bytes > 0, "transfer started");
    // Two kills early in the transfer.
    assert!(os.kill_by_user(names::ETH_RTL8139));
    os.run_for(ms(400));
    assert!(os.kill_by_user(names::ETH_RTL8139));
    let mut guard = 0;
    while !status.borrow().done && guard < 600 {
        os.run_for(ms(100));
        guard += 1;
    }
    let st = status.borrow();
    assert!(st.done, "download must complete despite two driver kills");
    assert_eq!(st.bytes, size);
    assert_eq!(
        st.md5.as_deref(),
        Some(stream_md5(content_seed, size).as_str()),
        "no data corruption (the paper's md5sum check)"
    );
    assert_eq!(os.metrics().counter("rs.recoveries"), 2);
    assert_eq!(os.metrics().counter("inet.driver_reintegrations"), 2);
    assert!(
        os.metrics().counter("rs.defect.killed") == 2,
        "kill -9 is defect class 3"
    );
}

#[test]
fn block_driver_recovery_is_transparent_to_dd() {
    // §6.2 / Fig. 5: kill the SATA driver mid-read; dd completes with the
    // same SHA-1 and zero application-visible errors.
    let seed = 9;
    let disk_seed = 1234;
    let file_size = 4_000_000u64;
    let sectors = file_size / 512 + 1024;
    let files = vec![FileSpec {
        name: "bigfile".to_string(),
        content: FileContent::Synthetic { size: file_size },
    }];
    let mut os = Os::builder()
        .seed(seed)
        .with_disk(sectors, disk_seed, files.clone())
        .boot();
    let vfs = os.endpoint(names::VFS).unwrap();
    let status = Rc::new(RefCell::new(DdStatus::default()));
    os.spawn_app(
        "dd",
        Box::new(Dd::new(vfs, "bigfile", 64 * 1024, status.clone())),
    );
    os.run_for(ms(100));
    assert!(os.kill_by_user(names::BLK_SATA));
    os.run_for(ms(900));
    assert!(os.kill_by_user(names::BLK_SATA));
    let mut guard = 0;
    while !status.borrow().done && guard < 600 {
        os.run_for(ms(100));
        guard += 1;
    }
    let st = status.borrow();
    assert!(
        st.done,
        "dd must complete; bytes={} errors={}",
        st.bytes, st.errors
    );
    assert_eq!(st.errors, 0, "block recovery is transparent");
    let expected = phoenix::experiments::fig8_expected_sha1(sectors, disk_seed, file_size);
    assert_eq!(
        st.sha1.as_deref(),
        Some(expected.as_str()),
        "sha1sum must match"
    );
    assert!(
        os.metrics().counter("mfs.pending_aborts") >= 1,
        "a request was marked pending"
    );
    assert!(
        os.metrics().counter("mfs.reissues") >= 1,
        "pending I/O was reissued"
    );
    // Trace-order property (§5.3): the new endpoint is published before
    // the file server reissues pending I/O.
    let t = os.trace();
    let pub_idx = t.find("publish blk.sata").expect("publish traced");
    let reissue = t.find_from(pub_idx, "reissue pending io");
    assert!(reissue.is_some(), "reissue follows a publish");
}

#[test]
fn printer_recovery_requires_recovery_aware_app() {
    // §6.3: the printer driver dies mid-job; lpd reissues the whole job
    // (duplicates possible), the user never hears about it.
    let mut os = Os::builder().seed(3).with_chardevs().boot();
    let vfs = os.endpoint(names::VFS).unwrap();
    let status = Rc::new(RefCell::new(LpdStatus::default()));
    let job = vec![b'x'; 96 * 1024];
    os.spawn_app("lpd", Box::new(Lpd::new(vfs, job.clone(), status.clone())));
    os.run_for(ms(400));
    assert!(os.kill_by_user(names::CHR_PRINTER));
    let mut guard = 0;
    while !status.borrow().done && guard < 600 {
        os.run_for(ms(100));
        guard += 1;
    }
    let st = status.borrow();
    assert!(st.done, "job finishes after app-level recovery");
    assert!(st.job_restarts >= 1, "the job had to be reissued");
    assert_eq!(st.fatal, 0);
    assert!(
        st.accepted >= job.len() as u64,
        "at least one full job accepted; duplicates allowed ({} >= {})",
        st.accepted,
        job.len()
    );
}

#[test]
fn audio_recovery_causes_hiccup_but_playback_continues() {
    // The generic Fig. 2 policy backs off 1s before the restart, so the
    // outage is long enough to hear.
    use phoenix_servers::policy::PolicyScript;
    let mut os = Os::builder()
        .seed(4)
        .with_chardevs()
        .service_policy(names::CHR_AUDIO, Some(PolicyScript::generic()), vec![])
        .boot();
    let vfs = os.endpoint(names::VFS).unwrap();
    let status = Rc::new(RefCell::new(Mp3Status::default()));
    // 4 KB blocks at 176,400 B/s play for ~23.2 ms; feeding every 23 ms
    // keeps at most one block of slack, so an outage is audible.
    os.spawn_app(
        "mp3",
        Box::new(Mp3Player::new(vfs, 200, 4096, ms(23), status.clone())),
    );
    os.run_for(ms(1000));
    assert!(os.kill_by_user(names::CHR_AUDIO));
    let mut guard = 0;
    while !status.borrow().done && guard < 200 {
        os.run_for(ms(100));
        guard += 1;
    }
    let st = status.borrow();
    assert!(st.done, "playback finishes");
    assert!(st.blocks_dropped >= 1, "the outage cost at least one block");
    assert!(st.blocks_played >= 150, "most blocks played");
    let dac: &mut AudioDac = os.device_mut(hwmap::AUDIO).unwrap();
    assert!(dac.underruns() >= 1, "the hiccup is audible at the device");
}

#[test]
fn cd_burn_failure_is_reported_to_user() {
    // §6.3: "continuing the CD or DVD burn process if the SCSI driver
    // fails will most certainly produce a corrupted disc, so the error
    // must be reported to the user."
    let mut os = Os::builder().seed(5).with_chardevs().boot();
    let vfs = os.endpoint(names::VFS).unwrap();
    let status = Rc::new(RefCell::new(CdBurnStatus::default()));
    os.spawn_app(
        "cdburn",
        Box::new(CdBurn::new(vfs, 5000, 4096, status.clone())),
    );
    os.run_for(ms(300));
    assert!(status.borrow().chunks_written > 0, "burn underway");
    assert!(os.kill_by_user(names::CHR_SCSI));
    let mut guard = 0;
    while guard < 200 {
        let st = status.borrow();
        if st.reported_to_user || st.completed {
            break;
        }
        drop(st);
        os.run_for(ms(100));
        guard += 1;
    }
    {
        let st = status.borrow();
        assert!(st.reported_to_user, "user must be informed");
        assert!(!st.completed);
    }
    // Let the device's feed deadline expire: the laser runs off the end.
    os.run_for(SimDuration::from_secs(1));
    let cd: &mut ScsiCdBurner = os.device_mut(hwmap::SCSI).unwrap();
    assert_eq!(cd.discs_ruined(), 1, "the disc is physically ruined");
}

#[test]
fn cd_burn_completes_without_failures() {
    let mut os = Os::builder().seed(6).with_chardevs().boot();
    let vfs = os.endpoint(names::VFS).unwrap();
    let status = Rc::new(RefCell::new(CdBurnStatus::default()));
    os.spawn_app(
        "cdburn",
        Box::new(CdBurn::new(vfs, 200, 4096, status.clone())),
    );
    let mut guard = 0;
    while !status.borrow().completed && guard < 200 {
        os.run_for(ms(100));
        guard += 1;
    }
    assert!(status.borrow().completed);
    let cd: &mut ScsiCdBurner = os.device_mut(hwmap::SCSI).unwrap();
    assert_eq!(cd.discs_completed(), 1);
    assert_eq!(cd.discs_ruined(), 0);
}

#[test]
fn udp_loss_is_recovered_at_application_level() {
    // Fig. 4's "UDP recovery" arrow: datagrams lost during the outage are
    // resent by the application itself.
    let mut os = Os::builder().seed(7).with_network(NicKind::Rtl8139).boot();
    let inet = os.endpoint(names::INET).unwrap();
    let status = Rc::new(RefCell::new(UdpStatus::default()));
    os.spawn_app(
        "udp",
        Box::new(UdpPing::new(inet, 400, ms(5), status.clone())),
    );
    os.run_for(ms(500));
    assert!(os.kill_by_user(names::ETH_RTL8139));
    let mut guard = 0;
    while !status.borrow().done && guard < 600 {
        os.run_for(ms(100));
        guard += 1;
    }
    let st = status.borrow();
    assert!(st.done, "all datagrams eventually echoed");
    assert_eq!(st.echoed, 400);
    assert!(
        st.resent >= 1,
        "the outage forced application-level resends"
    );
}

#[test]
fn heartbeat_detects_stuck_driver() {
    // §5.1 input 4: a driver stuck in an infinite loop answers no
    // heartbeats; RS kills and restarts it.
    let mut os = Os::builder()
        .seed(8)
        .with_network(NicKind::Rtl8139)
        .heartbeat(ms(250), 2)
        .boot();
    let inet = os.endpoint(names::INET).unwrap();
    let status = Rc::new(RefCell::new(UdpStatus::default()));
    os.spawn_app(
        "udp",
        Box::new(UdpPing::new(inet, 100_000, ms(5), status.clone())),
    );
    os.run_for(ms(100));
    let old = os.endpoint(names::ETH_RTL8139).unwrap();
    assert!(os.wedge_driver_in_loop(names::ETH_RTL8139));
    // The next datagram drives the driver into the loop; heartbeats then
    // go unanswered until RS kills it.
    os.run_for(SimDuration::from_secs(5));
    let new = os.endpoint(names::ETH_RTL8139).unwrap();
    assert_ne!(old, new, "driver was replaced");
    assert_eq!(os.metrics().counter("rs.defect.heartbeat"), 1);
    assert!(os.trace().find("missed").is_some());
}

#[test]
fn complaint_detects_unresponsive_driver_without_heartbeats() {
    // §5.1 input 5: with heartbeats off, only the file server's response
    // deadline catches a stuck disk driver; it complains to RS, which
    // replaces the driver, and the read still completes.
    let disk_seed = 11;
    let file_size = 1_000_000u64;
    let sectors = file_size / 512 + 1024;
    let mut os = Os::builder()
        .seed(10)
        .with_disk(
            sectors,
            disk_seed,
            phoenix::experiments::fig8_files(file_size),
        )
        .no_heartbeat()
        .boot();
    let vfs = os.endpoint(names::VFS).unwrap();
    let status = Rc::new(RefCell::new(DdStatus::default()));
    let old = os.endpoint(names::BLK_SATA).unwrap();
    // Wedge the driver *before* dd's first request reaches it.
    assert!(os.wedge_driver_in_loop(names::BLK_SATA));
    os.spawn_app(
        "dd",
        Box::new(Dd::new(vfs, "bigfile", 64 * 1024, status.clone())),
    );
    // MFS's first request hangs the driver; the 5s deadline passes; MFS
    // complains; RS replaces the driver; the request is reissued.
    let mut guard = 0;
    while !status.borrow().done && guard < 300 {
        os.run_for(ms(100));
        guard += 1;
    }
    let st = status.borrow();
    assert!(st.done, "read completes after complaint-driven recovery");
    assert_eq!(st.errors, 0);
    assert!(os.metrics().counter("mfs.complaints") >= 1);
    assert_eq!(os.metrics().counter("rs.defect.complaint"), 1);
    assert_ne!(os.endpoint(names::BLK_SATA), Some(old));
}

#[test]
fn dynamic_update_replaces_driver_without_backoff() {
    // §5.1 input 6 / §6: a dynamic update SIGTERMs the driver and starts
    // the newest registered version — even while I/O could be in flight.
    use phoenix_drivers::libdriver::{Driver, FaultPort};
    use phoenix_drivers::Rtl8139Driver;
    let mut os = Os::builder().seed(12).with_network(NicKind::Rtl8139).boot();
    assert_eq!(os.running_version(names::ETH_RTL8139), Some(1));
    let fp = FaultPort::new();
    os.register_update(
        names::ETH_RTL8139,
        Box::new(move || {
            Box::new(Driver::new(Rtl8139Driver::new(
                hwmap::NIC,
                hwmap::NIC_IRQ,
                fp.clone(),
            )))
        }),
    )
    .unwrap();
    os.service_update(names::ETH_RTL8139);
    os.run_for(SimDuration::from_millis(200));
    assert_eq!(
        os.running_version(names::ETH_RTL8139),
        Some(2),
        "new version running"
    );
    assert_eq!(os.metrics().counter("rs.defect.update"), 1);
    assert_eq!(os.metrics().counter("rs.recoveries"), 1);
    // The driver obeyed the SIGTERM, so the SIGKILL escalation armed for
    // the old incarnation must not hit the fresh one when it fires.
    let updated = os.endpoint(names::ETH_RTL8139);
    os.run_for(SimDuration::from_secs(2));
    assert_eq!(
        os.endpoint(names::ETH_RTL8139),
        updated,
        "update left alone"
    );
    assert_eq!(os.metrics().counter("rs.defect.killed"), 0);
    assert_eq!(os.metrics().counter("rs.recoveries"), 1);
    // Updates do not count as failures, so a subsequent real failure gets
    // failure count 1 (no accumulated backoff).
    let old = os.endpoint(names::ETH_RTL8139).unwrap();
    os.kill_by_user(names::ETH_RTL8139);
    os.run_for(SimDuration::from_secs(1));
    assert_ne!(os.endpoint(names::ETH_RTL8139), Some(old));
}

#[test]
fn audit_sweep_runs_over_an_empty_service_table() {
    // The audit is RS's own sign of life (the beacon the fleet agent
    // convicts on) and drives the PM guard and the adapt controllers; it
    // must not depend on there being a service to sweep.
    let mut os = Os::builder().boot();
    os.run_for(SimDuration::from_secs(3));
    assert!(os.metrics().counter("rs.beacon") >= 6);
}

#[test]
fn user_restart_command_works() {
    // §5.1 input 3 via the service utility rather than a raw kill.
    let mut os = Os::builder().seed(13).with_network(NicKind::Rtl8139).boot();
    let old = os.endpoint(names::ETH_RTL8139).unwrap();
    os.service_restart(names::ETH_RTL8139);
    os.run_for(SimDuration::from_secs(1));
    let new = os.endpoint(names::ETH_RTL8139).unwrap();
    assert_ne!(old, new);
    assert_eq!(os.metrics().counter("rs.defect.killed"), 1);
}

#[test]
fn wedged_card_defeats_recovery_until_hard_reset() {
    // §7.2's real-hardware tail: the card is confused; restarted drivers
    // panic at init; only a BIOS-level reset revives the system.
    let mut os = Os::builder().seed(14).with_network(NicKind::Rtl8139).boot();
    {
        let nic: &mut Rtl8139 = os.device_mut(hwmap::NIC).unwrap();
        nic.force_wedge();
    }
    let old = os.endpoint(names::ETH_RTL8139).unwrap();
    os.kill_by_user(names::ETH_RTL8139);
    os.run_for(SimDuration::from_secs(5));
    // Every restart panics during init ("card stuck in reset"), until the
    // crash loop blows the restart budget and the storm ladder gives up
    // instead of flapping forever.
    assert!(
        os.metrics().counter("rs.defect.exit") >= 2,
        "restart attempts keep dying"
    );
    assert!(os.trace().find("stuck in reset").is_some());
    assert!(
        os.metrics().counter("rs.gave_up") >= 1,
        "storm ladder bounds the crash loop"
    );
    // Out-of-band BIOS reset + a user restart request (§5.1 input 3)
    // fixes it: the manual override clears the give-up state.
    os.hard_reset_device(hwmap::NIC);
    os.service_restart(names::ETH_RTL8139);
    os.run_for(SimDuration::from_secs(8));
    let new = os.endpoint(names::ETH_RTL8139);
    assert!(
        new.is_some() && new != Some(old),
        "recovered after hard reset: {new:?}"
    );
}

#[test]
fn ramdisk_contents_survive_driver_restart() {
    // §6.2 footnote 1: the RAM disk region is physical memory; a driver
    // restart does not lose it.
    let mut os = Os::builder().seed(15).with_ramdisk(128).boot();
    assert!(os.is_up(names::BLK_RAM));
    let region = os.ramdisk_region().unwrap();
    region.borrow_mut()[0..4].copy_from_slice(b"KEEP");
    let old = os.endpoint(names::BLK_RAM).unwrap();
    os.kill_by_user(names::BLK_RAM);
    os.run_for(SimDuration::from_secs(2));
    assert_ne!(os.endpoint(names::BLK_RAM), Some(old), "driver restarted");
    assert_eq!(&region.borrow()[0..4], b"KEEP", "contents preserved");
}

#[test]
fn repeated_kills_always_recover() {
    // Mini version of the §7.1 robustness claim: many kills in a row,
    // every one recovered, each incarnation fresh.
    let mut os = Os::builder().seed(16).with_network(NicKind::Rtl8139).boot();
    let mut seen = std::collections::HashSet::new();
    for i in 0..20 {
        let ep = os
            .endpoint(names::ETH_RTL8139)
            .unwrap_or_else(|| panic!("driver up, round {i}"));
        assert!(seen.insert(ep), "every incarnation has a unique endpoint");
        os.kill_by_user(names::ETH_RTL8139);
        os.run_for(ms(500));
    }
    assert_eq!(os.metrics().counter("rs.recoveries"), 20);
    assert_eq!(
        os.metrics()
            .log_histogram("rs.recovery_time")
            .map(|h| h.count()),
        Some(20)
    );
}

#[test]
fn exponential_backoff_policy_slows_crash_loops() {
    // §5.2 / Fig. 2 ablation: with the generic policy, restart delays grow
    // exponentially while a wedged card makes every restart fail.
    use phoenix_servers::policy::PolicyScript;
    let mut os = Os::builder()
        .seed(17)
        .with_network(NicKind::Rtl8139)
        .service_policy(names::ETH_RTL8139, Some(PolicyScript::generic()), vec![])
        .boot();
    {
        let nic: &mut Rtl8139 = os.device_mut(hwmap::NIC).unwrap();
        nic.force_wedge();
    }
    os.kill_by_user(names::ETH_RTL8139);
    // 30 virtual seconds: with backoff 1+2+4+8+16 the crash loop fits
    // only ~6 attempts; direct restart would make hundreds.
    os.run_for(SimDuration::from_secs(30));
    let attempts = os.metrics().counter("rs.defect.exit");
    assert!(
        (2..=8).contains(&attempts),
        "backoff must bound the crash loop, got {attempts}"
    );
    assert!(os.trace().find("restarting eth.rtl8139 after").is_some());
}

#[test]
fn give_up_policy_stops_recovery_and_alerts() {
    use phoenix_servers::policy::PolicyScript;
    let policy = PolicyScript::parse(
        "if repetition > 2 then\n alert \"giving up on $component\"\n give-up\nelse\n restart\nend\n",
    )
    .unwrap();
    let mut os = Os::builder()
        .seed(18)
        .with_network(NicKind::Rtl8139)
        .service_policy(names::ETH_RTL8139, Some(policy), vec![])
        .boot();
    {
        let nic: &mut Rtl8139 = os.device_mut(hwmap::NIC).unwrap();
        nic.force_wedge();
    }
    os.kill_by_user(names::ETH_RTL8139);
    os.run_for(SimDuration::from_secs(10));
    assert!(!os.is_up(names::ETH_RTL8139), "policy gave up");
    assert_eq!(os.metrics().counter("rs.gave_up"), 1);
    assert!(os.metrics().counter("rs.alerts") >= 1);
    assert!(os.trace().find("ALERT: giving up on eth.rtl8139").is_some());
}

#[test]
fn deterministic_runs_for_same_seed() {
    let run = |seed| {
        let size = 500_000;
        let r = phoenix::experiments::fig7_network_run(size, Some(ms(300)), seed);
        (r.kills, r.elapsed, r.md5_ok, r.retransmissions)
    };
    assert_eq!(run(99), run(99), "same seed, same run");
}

#[test]
fn keyboard_input_is_lost_across_driver_crash_but_stream_resumes() {
    // §6.3's input case: "If an input stream is interrupted due to a
    // device driver crash, input might be lost because it can only be
    // read from the controller once."
    use phoenix::apps::{TtyReader, TtyStatus};
    let mut os = Os::builder().seed(21).with_chardevs().boot();
    let vfs = os.endpoint(names::VFS).unwrap();
    let status = Rc::new(RefCell::new(TtyStatus::default()));
    // A slow reader (100ms poll) lets input accumulate in the driver's
    // line buffer — the state that dies with it.
    os.spawn_app(
        "tty",
        Box::new(TtyReader::new(vfs, ms(100), status.clone())),
    );

    // Type the alphabet, one burst of 4 chars every 20ms; the driver's
    // line buffer holds drained-but-unread input.
    let typed: Vec<u8> = (b'a'..=b'z').collect();
    for (i, chunk) in typed.chunks(4).enumerate() {
        os.type_input(ms(20 * (i as u64 + 1)), chunk.to_vec());
    }
    // Kill the driver while it holds bursts 1-2 undelivered.
    os.run_for(ms(50));
    assert!(os.kill_by_user(names::CHR_KBD));
    os.run_for(ms(400));

    let st = status.borrow();
    // The stream resumed: characters typed well after the crash arrived.
    assert!(
        st.received.contains(&b'z'),
        "post-recovery input flows again: {:?}",
        String::from_utf8_lossy(&st.received)
    );
    // Received is a strictly ordered subsequence of what was typed...
    let mut it = typed.iter();
    for b in st.received.iter() {
        assert!(
            it.any(|t| t == b),
            "received stream must be an ordered subsequence of the typed stream"
        );
    }
    // ...but not all of it: something was irrecoverably lost.
    assert!(
        st.received.len() < typed.len(),
        "input held by the dead driver must be lost ({} of {} arrived)",
        st.received.len(),
        typed.len()
    );
    // (A 100ms poller may never even observe the ~10ms outage — recovery
    // is that fast; the *loss* is what cannot be hidden.)
    assert_eq!(os.metrics().counter("rs.recoveries"), 1);
}
