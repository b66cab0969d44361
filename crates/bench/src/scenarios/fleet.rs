//! Fleet campaign: N-node distributed reincarnation under node-level
//! chaos — the "who recovers the recoverer" evaluation.

use phoenix_fleet::{run_fleet_campaign, run_fleet_control, FleetCampaignConfig};

use crate::Report;

/// Drives a fleet of independent machines through the standard mixed
/// node-fault schedule (RS kills, whole-node crashes, one-way
/// partitions, asymmetric loss) and reports per-phase node MTTRs —
/// detect (fault to quorum conviction), repair (conviction to reborn
/// boot), reintegrate (reborn boot to peer-observed) — in the same
/// timeline-fold style as the single-machine recovery bench. Gates:
///
/// * two same-seed campaign runs must produce byte-identical per-node
///   and fleet digests;
/// * every injected RS kill and node crash must be convicted and the
///   victim rebooted by a surviving peer — zero unrecovered faults;
/// * at least one conviction each of `rs-silent` and `node-unreachable`
///   evidence (both detection paths exercised);
/// * no conviction without an injected fault behind it, in the campaign
///   or in the no-fault control run (zero false restarts);
/// * warm recovery: no reboot may cold-start without a peer snapshot.
pub fn fleet(r: &mut Report) {
    let mut cfg = FleetCampaignConfig::default();
    if r.quick() {
        cfg.faults = 12;
    }
    r.note(format!(
        "fleet campaign — {} nodes x {} node-level faults\n",
        cfg.fleet.nodes, cfg.faults,
    ));

    // Campaign, twice: the second run exists only to check determinism.
    let campaign = run_fleet_campaign(&cfg);
    let rerun = run_fleet_campaign(&cfg);
    // No-fault control over a shorter horizon: any conviction here is a
    // false restart.
    let control = run_fleet_control(&FleetCampaignConfig {
        faults: cfg.faults.min(4),
        ..cfg.clone()
    });

    r.line(campaign.render());
    r.line(format!(
        "no-fault control: {} convictions, {} reboots",
        control.convictions, control.reboots
    ));

    r.require_same_digest(&campaign.digest, &rerun.digest);
    r.require(
        campaign.node_digests == rerun.node_digests,
        "same-seed per-node digests differ",
    );
    r.require(
        campaign.unrecovered == 0,
        format!("{} node faults never recovered", campaign.unrecovered),
    );
    r.require(
        campaign.reboots >= campaign.injected,
        format!(
            "{} injected node faults but only {} reboots",
            campaign.injected, campaign.reboots
        ),
    );
    let evidence_count = |name: &str| {
        campaign
            .by_evidence
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, c)| *c)
    };
    r.require(
        evidence_count("rs-silent") > 0,
        "no rs-silent conviction: the killed-RS detection path never fired",
    );
    r.require(
        evidence_count("node-unreachable") > 0,
        "no node-unreachable conviction: the node-crash detection path never fired",
    );
    r.require(
        campaign.false_convictions == 0,
        format!(
            "{} convictions without an injected fault behind them",
            campaign.false_convictions
        ),
    );
    r.require(
        campaign.cold_recoveries == 0,
        format!(
            "{} reboots cold-started without a peer-held snapshot",
            campaign.cold_recoveries
        ),
    );
    r.require(
        control.convictions == 0 && control.reboots == 0,
        format!(
            "false restarts in the no-fault control: {} convictions, {} reboots",
            control.convictions, control.reboots
        ),
    );
}
