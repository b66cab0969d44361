//! Network-path stress: packet loss on the wire combined with driver
//! kills, wedge-prone hardware under mutation, and the RAM-disk policy
//! storage of §6.2 footnote 1.

use std::cell::RefCell;
use std::rc::Rc;

use phoenix::apps::{Wget, WgetStatus};
use phoenix::os::{names, NicKind, Os};
use phoenix_hw::dp8390::Dp8390Config;
use phoenix_hw::rtl8139::Rtl8139Config;
use phoenix_hw::WireConfig;
use phoenix_servers::netproto::stream_md5;
use phoenix_servers::policy::PolicyScript;
use phoenix_simcore::time::SimDuration;

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

#[test]
fn download_survives_packet_loss_plus_driver_kills() {
    // 1% frame loss in each direction *and* two driver kills: the
    // transport's retransmission machinery covers both failure sources,
    // like TCP in the paper ("even in the face of lost, misordered, or
    // garbled packets").
    let size = 2_000_000u64;
    let content_seed = 5;
    let mut os = Os::builder()
        .seed(55)
        .with_network(NicKind::Rtl8139)
        .network_tuning(
            Rtl8139Config::default(),
            Dp8390Config::default(),
            WireConfig {
                latency: SimDuration::from_micros(200),
                loss_prob: 0.01,
            },
        )
        .boot();
    let inet = os.endpoint(names::INET).unwrap();
    let status = Rc::new(RefCell::new(WgetStatus::default()));
    os.spawn_app(
        "wget",
        Box::new(Wget::new(inet, size, content_seed, status.clone())),
    );
    os.run_for(ms(100));
    os.kill_by_user(names::ETH_RTL8139);
    os.run_for(ms(600));
    os.kill_by_user(names::ETH_RTL8139);
    let mut guard = 0;
    while !status.borrow().done && guard < 1200 {
        os.run_for(ms(100));
        guard += 1;
    }
    let st = status.borrow();
    assert!(st.done, "download completes under loss + kills");
    assert_eq!(
        st.md5.as_deref(),
        Some(stream_md5(content_seed, size).as_str()),
        "every byte intact despite loss and two recoveries"
    );
}

#[test]
fn garbled_frames_are_dropped_not_fatal() {
    // Inject raw garbage onto the rx path: INET must count and drop it.
    let mut os = Os::builder().seed(56).with_network(NicKind::Rtl8139).boot();
    // Channel encoding: (dev << 16) | WIRE_TO_HOST(3); NIC is device 1.
    for i in 0..5u8 {
        os_schedule_frame(&mut os, vec![0xAA, i, 7, 9]);
    }
    os.run_for(ms(50));
    // The system is still healthy; a well-formed transfer works.
    let inet = os.endpoint(names::INET).unwrap();
    let status = Rc::new(RefCell::new(WgetStatus::default()));
    os.spawn_app(
        "wget",
        Box::new(Wget::new(inet, 100_000, 1, status.clone())),
    );
    let mut guard = 0;
    while !status.borrow().done && guard < 100 {
        os.run_for(ms(100));
        guard += 1;
    }
    assert!(status.borrow().done);
    assert!(os.metrics().counter("inet.garbled_frames") >= 5);
}

fn os_schedule_frame(os: &mut Os, frame: Vec<u8>) {
    // Frames arrive "from the wire" via the machine's external channel.
    os.inject_rx_frame(frame);
}

#[test]
fn campaign_against_wedgeable_hardware_recovers_with_hard_resets() {
    // A short campaign with an aggressively wedge-prone card: recovery
    // must still converge, possibly via the BIOS-reset escape hatch
    // (the <1% tail of §7.2).
    use phoenix::campaign::{run_campaign, CampaignConfig};
    let cfg = CampaignConfig {
        seed: 77,
        injections: 400,
        wedge_prob: 0.5,
        ..CampaignConfig::default()
    };
    let (result, _) = run_campaign(&cfg);
    assert!(result.injections == 400);
    assert!(
        !result.crashes.is_empty(),
        "some mutations must crash the driver"
    );
    for (i, c) in result.crashes.iter().enumerate() {
        assert!(c.recovered, "crash #{i} must eventually recover");
    }
}

#[test]
fn ramdisk_stores_policy_scripts_that_survive_disk_driver_loss() {
    // §6.2 footnote 1: "the system can be configured with a dedicated RAM
    // disk to provide trusted storage for crucial data, such as the
    // driver binaries, the shell, and policy scripts." Store a policy on
    // the RAM disk, lose the SATA driver, and parse the policy from the
    // still-available region.
    let mut os = Os::builder()
        .seed(57)
        .with_disk(4096, 1, vec![])
        .with_ramdisk(64)
        .boot();
    let region = os.ramdisk_region().unwrap();
    let script = phoenix_servers::policy::GENERIC_POLICY.as_bytes();
    region.borrow_mut()[..script.len()].copy_from_slice(script);

    // The disk driver dies; the RAM disk is unaffected.
    os.kill_by_user(names::BLK_SATA);
    os.run_for(ms(200));
    let text = String::from_utf8(region.borrow()[..script.len()].to_vec()).unwrap();
    let parsed = PolicyScript::parse(&text).expect("policy parses from RAM disk");
    let d = parsed.run(&phoenix_servers::policy::PolicyInput {
        component: "blk.sata".to_string(),
        reason: phoenix_servers::policy::reason::EXIT,
        repetition: 1,
        params: vec![],
        backoff_base: None,
        backoff_cap: None,
    });
    assert!(d.restart);
    // Meanwhile the SATA driver has been reincarnated as usual.
    os.run_for(ms(500));
    assert!(os.is_up(names::BLK_SATA));
    assert!(os.is_up(names::BLK_RAM));
}
