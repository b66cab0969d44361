//! Causal recovery tracing tests: every recovery episode carries a
//! `RecoveryId` minted by RS at defect detection and threaded through the
//! DS publish and the dependents' reintegration, so the §5.3 ordering
//! properties can be asserted on the *filtered* trace of one episode —
//! even while other recoveries interleave.

use std::cell::RefCell;
use std::rc::Rc;

use phoenix::apps::{Dd, DdStatus, UdpPing, UdpStatus};
use phoenix::campaign::{run_chaos_campaign, ChaosCampaignConfig};
use phoenix::os::{names, NicKind, Os};
use phoenix_servers::fsfmt::{FileContent, FileSpec};
use phoenix_simcore::export::{export_jsonl, parse_jsonl};
use phoenix_simcore::obs::Episode;
use phoenix_simcore::time::SimDuration;
use phoenix_simcore::trace::TraceEvent;

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

/// Position of the first rid-filtered event matching `kind` emitted by
/// `component`, in trace order.
fn position_of(events: &[(usize, &TraceEvent)], component: &str, kind: &str) -> Option<usize> {
    events
        .iter()
        .position(|(_, e)| e.component == component && e.kind() == Some(kind))
}

/// Asserts the §5.3 causal order within one episode: RS notices the
/// defect, the fresh incarnation comes up, DS publishes the new endpoint,
/// and only then does the dependent resume.
fn assert_causal_order(os: &Os, ep: &Episode, dependent: &str) {
    let events: Vec<(usize, &TraceEvent)> = os.trace().events_for(ep.rid).collect();
    let defect = position_of(&events, "rs", "defect").expect("defect event tagged");
    let alive = position_of(&events, "rs", "alive").expect("alive event tagged");
    let publish = position_of(&events, "ds", "publish").expect("publish event tagged");
    let resume = position_of(&events, dependent, "resume")
        .or_else(|| position_of(&events, dependent, "reintegrate"))
        .expect("dependent reintegration tagged");
    assert!(defect < alive, "defect precedes alive ({})", ep.render());
    assert!(alive < publish, "alive precedes publish ({})", ep.render());
    assert!(
        publish < resume,
        "DS publishes the new endpoint before {dependent} resumes ({})",
        ep.render()
    );
}

#[test]
fn block_recovery_episode_is_complete_and_causally_ordered() {
    // Kill a SATA driver mid-read: the episode must reconstruct with all
    // three phases, and the rid-filtered trace must show the DS publish
    // *before* the file server reissues the pending I/O (§5.3, §6.2) —
    // for either file server, since the engine does the tagging.
    let file_size = 4_000_000u64;
    let sectors = file_size / 512 + 1024;
    let files = |name: &str| {
        vec![FileSpec {
            name: name.to_string(),
            content: FileContent::Synthetic { size: file_size },
        }]
    };
    for (driver, dependent, path, reissues) in [
        (names::BLK_SATA, names::MFS, "bigfile", "mfs.reissues"),
        (names::BLK_SATA2, names::FAT, "/fat/big.bin", "fat.reissues"),
    ] {
        let mut os = Os::builder()
            .seed(9)
            .with_disk(sectors, 77, files("bigfile"))
            .with_fat_disk(16_384, 78, files("big.bin"))
            .boot();
        let vfs = os.endpoint(names::VFS).unwrap();
        let status = Rc::new(RefCell::new(DdStatus::default()));
        os.spawn_app(
            "dd",
            Box::new(Dd::new(vfs, path, 64 * 1024, status.clone())),
        );
        os.run_for(ms(100));
        assert!(os.kill_by_user(driver));
        os.run_for(ms(900));
        assert!(os.kill_by_user(driver));
        let mut guard = 0;
        while !status.borrow().done && guard < 600 {
            os.run_for(ms(100));
            guard += 1;
        }
        assert!(status.borrow().done, "{path}");
        assert!(os.metrics().counter(reissues) >= 1, "{reissues}");

        let timeline = os.timeline();
        let ep = timeline
            .for_service(driver)
            .find(|e| e.complete())
            .unwrap_or_else(|| panic!("a complete {driver} episode"));
        assert!(ep.detection().is_some(), "detection phase present");
        assert!(ep.repair().is_some(), "repair phase present");
        assert!(
            ep.reintegration().is_some(),
            "{driver}: reintegration phase present"
        );
        assert!(ep.defect_at.is_some(), "kernel death anchored the episode");
        assert_causal_order(&os, ep, dependent);
        assert!(timeline.unaccounted().is_empty(), "no half-traced episodes");
    }
}

#[test]
fn network_recovery_episode_is_complete_and_causally_ordered() {
    // Kill the Ethernet driver under datagram load: DS must publish the
    // new endpoint before INET reinitializes the driver (§5.3, §6.1).
    let mut os = Os::builder().seed(32).with_network(NicKind::Rtl8139).boot();
    let inet = os.endpoint(names::INET).unwrap();
    let status = Rc::new(RefCell::new(UdpStatus::default()));
    os.spawn_app(
        "udp",
        Box::new(UdpPing::new(inet, 100_000, ms(5), status.clone())),
    );
    os.run_for(ms(200));
    assert!(os.kill_by_user(names::ETH_RTL8139));
    os.run_for(SimDuration::from_secs(2));

    let timeline = os.timeline();
    let ep = timeline
        .for_service(names::ETH_RTL8139)
        .find(|e| e.complete())
        .expect("a complete eth.rtl8139 episode");
    assert_causal_order(&os, ep, names::INET);
    // The INET resume ("ethernet driver initialized") is the episode's
    // resumption point, after the publish.
    assert!(ep.resumed_at.is_some());
    assert!(ep.resumed_at >= ep.published_at);
}

#[test]
fn chaos_campaign_episodes_stay_causally_ordered() {
    // Under a hostile fabric (drops, delays, duplicates, corruption) every
    // *complete* episode must still show publish-before-resume, and every
    // scripted kill must reconstruct into an accounted episode.
    let cfg = ChaosCampaignConfig {
        seed: 4242,
        kills_per_target: 3,
        kill_interval: SimDuration::from_secs(2),
        mid_recovery_kill: true,
        ..ChaosCampaignConfig::default()
    };
    let (result, os) = run_chaos_campaign(&cfg);
    assert!(result.recovery_rate() > 0.9);
    let timeline = os.timeline();
    assert!(
        timeline.complete_count() >= 6,
        "all scripted kills reconstructed:\n{}",
        timeline.render()
    );
    assert!(
        timeline.unaccounted().is_empty(),
        "every episode complete, superseded, or given up:\n{}",
        timeline.render()
    );
    for ep in timeline.episodes.iter().filter(|e| e.complete()) {
        let dependent = if ep.service == names::BLK_SATA {
            names::MFS
        } else {
            names::INET
        };
        // Chaos may starve a dependent of its resume for a while; only
        // assert ordering when the dependent's reintegration was traced.
        let events: Vec<(usize, &TraceEvent)> = os.trace().events_for(ep.rid).collect();
        if position_of(&events, dependent, "resume").is_some()
            || position_of(&events, dependent, "reintegrate").is_some()
        {
            assert_causal_order(&os, ep, dependent);
        }
    }
    // Phase histograms landed in the registry.
    assert!(os.metrics().counter("obs.episodes.complete") >= 6);
    assert!(os.metrics().log_histogram("recovery.phase.total").is_some());
}

#[test]
fn same_seed_traces_export_byte_identical_jsonl() {
    // The digest-style regression: two same-seed runs must export
    // byte-identical structured traces, and the export must round-trip.
    let run = || {
        let mut os = Os::builder().seed(55).with_network(NicKind::Rtl8139).boot();
        os.kill_by_user(names::ETH_RTL8139);
        os.run_for(SimDuration::from_secs(2));
        export_jsonl(os.trace().events())
    };
    let (a, b) = (run(), run());
    assert_eq!(a, b, "same seed, byte-identical JSONL export");
    let parsed = parse_jsonl(&a).expect("export parses back");
    assert_eq!(export_jsonl(parsed.iter()), a, "lossless round-trip");
    assert!(parsed.iter().any(|e| e.recovery.is_some()));
}
