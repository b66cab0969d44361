//! Same-seed fingerprints of every campaign family at a small config.
//!
//! The campaigns are pure functions of their config, so each digest below
//! is a refactoring oracle: a structural change to `phoenix::campaign` (or
//! anything under it) is behaviour-preserving iff these literals still
//! hold. A deliberate behaviour change regenerates them, together with
//! the `results/` artefacts, in the same commit.

use phoenix::campaign::{
    run_campaign, run_chaos_campaign, run_ckpt_campaign, run_failsilent_campaign,
    run_failsilent_control, run_microreboot_campaign, run_microreboot_control, run_slo_campaign,
    run_standby_campaign, run_standby_control, CampaignConfig, ChaosCampaignConfig,
    CkptCampaignConfig, FailsilentConfig, MicrorebootConfig, SloCampaignConfig,
    StandbyCampaignConfig,
};
use phoenix::loadgen::{InetLoadConfig, VfsLoadConfig};
use phoenix_fleet::{run_fleet_campaign, FleetCampaignConfig};
use phoenix_simcore::time::SimDuration;

#[test]
fn sec72_small_campaign_is_pinned() {
    let cfg = CampaignConfig {
        injections: 300,
        ..CampaignConfig::default()
    };
    let (result, traffic) = run_campaign(&cfg);
    assert_eq!(
        format!("{}; echoed {}", result.render(), traffic.borrow().echoed),
        "injected 300 faults -> 3 detectable crashes: 1 exits/panics (33%), 1 CPU/MMU exceptions (33%), 1 missing heartbeats (33%); recovery ok 3 (100.0%), hard resets 0, silent freezes (user restart) 0; echoed 971"
    );
}

#[test]
fn chaos_digest_is_pinned() {
    let cfg = ChaosCampaignConfig {
        kills_per_target: 1,
        kill_interval: SimDuration::from_secs(1),
        ..ChaosCampaignConfig::default()
    };
    assert_eq!(
        run_chaos_campaign(&cfg).0.digest,
        "bbdac780ac272f1ff94eb0020fbcbeb0"
    );
}

#[test]
fn ckpt_digests_are_pinned() {
    let digest = |checkpointing| {
        let cfg = CkptCampaignConfig {
            faults: 4,
            checkpointing,
            ..CkptCampaignConfig::default()
        };
        run_ckpt_campaign(&cfg).0.digest
    };
    assert_eq!(digest(true), "fb0429a07ed09fa5c136aad7943f7e9b");
    assert_eq!(digest(false), "c236985b1355a4b82777cde5afcc7046");
}

/// One round over the three driver classes is ~120 mutations; seed 3 is
/// the cheapest of the first eight, and the arms run as separate tests so
/// the harness overlaps them.
fn failsilent_cfg(sentinels: bool) -> FailsilentConfig {
    FailsilentConfig {
        seed: 3,
        rounds: 1,
        detect_window: SimDuration::from_secs(2),
        sentinels,
    }
}

#[test]
fn failsilent_armed_digest_is_pinned() {
    let (armed, _) = run_failsilent_campaign(&failsilent_cfg(true));
    assert_eq!(armed.digest, "b7f54fe57c36825c1efde6157646cf92");
}

#[test]
fn failsilent_baseline_and_control_digests_are_pinned() {
    let (baseline, _) = run_failsilent_campaign(&failsilent_cfg(false));
    assert_eq!(baseline.digest, "901ce255b59dc822a2762f8d8f5ededa");
    let control = run_failsilent_control(&failsilent_cfg(true), SimDuration::from_secs(2));
    assert_eq!(control.digest, "9a199106fda108d2320d669c6e2a4581");
}

#[test]
fn microreboot_digests_are_pinned() {
    let cfg = MicrorebootConfig {
        rounds: 1,
        ..MicrorebootConfig::default()
    };
    assert_eq!(
        run_microreboot_campaign(&cfg).0.digest,
        "6ab34a0cd89b984686ae3d144111a990"
    );
    let control = run_microreboot_control(&cfg, SimDuration::from_secs(2));
    assert_eq!(control.digest, "69ea5c42d7f437d6d1ab118b851fbeaa");
}

#[test]
fn slo_digest_is_pinned() {
    let cfg = SloCampaignConfig {
        seed: 1907,
        inet: InetLoadConfig {
            sessions: 100,
            interarrival: SimDuration::from_millis(400),
            ramp: SimDuration::from_millis(400),
            linger: SimDuration::from_millis(300),
            horizon: SimDuration::from_secs(3),
            ..InetLoadConfig::default()
        },
        vfs: VfsLoadConfig {
            clients: 4,
            interarrival: SimDuration::from_millis(50),
            horizon: SimDuration::from_secs(3),
            ..VfsLoadConfig::default()
        },
        intensity: 0.2,
        kills_per_target: 1,
        kill_interval: SimDuration::from_millis(500),
        file_size: 64 * 1024,
    };
    assert_eq!(
        run_slo_campaign(&cfg).0.digest,
        "503ee0e7a816bf5cec558b07b3a112d1"
    );
}

#[test]
fn standby_digests_are_pinned() {
    let cfg = |hot_standby| StandbyCampaignConfig {
        faults: 2,
        hot_standby,
        ..StandbyCampaignConfig::default()
    };
    assert_eq!(
        run_standby_campaign(&cfg(true)).0.digest,
        "f2aef7988a3dde0934ab77a6b2d347bc"
    );
    assert_eq!(
        run_standby_campaign(&cfg(false)).0.digest,
        "0e2be675d9d4452c7248b65f844e239b"
    );
    let control = run_standby_control(&cfg(true), SimDuration::from_secs(2));
    assert_eq!(control.digest, "286ea1febc85b89a5da979cf1cfe7a27");
}

#[test]
fn fleet_digest_is_pinned() {
    let cfg = FleetCampaignConfig {
        faults: 2,
        ..FleetCampaignConfig::default()
    };
    assert_eq!(
        run_fleet_campaign(&cfg).digest,
        "201e364cad300585abe0d9f32edfa911"
    );
}
