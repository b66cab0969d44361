//! Microreboot campaign: crash/stall/garble mutations against the
//! *system servers* (VFS, MFS, INET and PM) on the crash-only machine —
//! checkpointing servers, sticky slots, recursive PM guard, escalation
//! ladder.

use phoenix::campaign::{
    run_microreboot_campaign, run_microreboot_control, MicrorebootConfig, SNAPSHOT_CAP_BYTES,
};
use phoenix_simcore::time::SimDuration;

use crate::Report;

/// Each round arms one injected defect per server while a recovery-aware
/// observer job (a `dd` read through VFS/MFS, a `wget` download through
/// INET) watches it, and classifies the injection as
/// detected-and-recovered (byte-exact transparent or not), fail-silent
/// survived, or benign. A no-fault control run checks that healthy
/// servers are never restarted. Gates:
///
/// * two same-seed campaign runs must produce byte-identical metric
///   digests;
/// * detection coverage and transparent recovery must both reach 95%
///   (the recovery-unaware baseline scores 0: a wedged server simply
///   hangs its callers forever);
/// * every detected or user-restarted server must come back up;
/// * the no-fault control must report zero restarts, zero accepted
///   complaints and zero escalations, with the workloads live;
/// * the externalized server state must stay under the snapshot cap.
pub fn microreboot(r: &mut Report) {
    let cfg = if r.quick() {
        MicrorebootConfig::default().quick()
    } else {
        MicrorebootConfig::default()
    };
    r.note(format!(
        "microreboot campaign — {} mutation rounds x 4 system servers\n",
        cfg.rounds,
    ));

    // Campaign, twice: the second run exists only to check determinism.
    let (campaign, os) = run_microreboot_campaign(&cfg);
    let (rerun, _) = run_microreboot_campaign(&cfg);
    // No-fault control: anything restarted here is a false positive.
    let control = run_microreboot_control(&cfg, SimDuration::from_secs(30));

    r.line(campaign.render());
    r.line("");
    r.line(format!(
        "no-fault control: {} restarts, {} pm recoveries, {} accepted \
         complaints, {} escalations, echoed {}, disk bytes {}",
        control.restarts,
        control.pm_recoveries,
        control.complaints_accepted,
        control.escalations,
        control.echoed,
        control.disk_bytes,
    ));
    r.line("");
    let shown = ["rs.", "ds.snapshot", "ckpt.", "pm."];
    for (k, v) in os.metrics().counters() {
        if shown.iter().any(|p| k.starts_with(p)) {
            r.line(format!("{k}={v}"));
        }
    }
    r.line("");
    r.line(os.timeline().render());

    r.require_same_digest(&campaign.digest, &rerun.digest);
    r.require(
        campaign.coverage() >= 0.95,
        format!(
            "detection coverage {:.1}% below the 95% gate",
            campaign.coverage() * 100.0
        ),
    );
    r.require(
        campaign.transparency() >= 0.95,
        format!(
            "transparent recovery {:.1}% below the 95% gate",
            campaign.transparency() * 100.0
        ),
    );
    let unrecovered: u64 = campaign.servers.iter().map(|s| s.unrecovered).sum();
    r.require(
        unrecovered == 0,
        format!("{unrecovered} servers failed to come back up"),
    );
    r.require(
        campaign.escalations[0] > 0,
        "no level-1 microreboot was ever recorded",
    );
    r.require(
        !campaign.snapshot_over_cap(),
        format!(
            "externalized server state {} bytes exceeds the {}-byte cap",
            campaign.snapshot_bytes, SNAPSHOT_CAP_BYTES
        ),
    );
    r.require(
        control.restarts == 0
            && control.pm_recoveries == 0
            && control.complaints_accepted == 0
            && control.escalations == 0,
        format!(
            "false positives in the no-fault control: {} restarts, {} pm \
             recoveries, {} accepted complaints, {} escalations",
            control.restarts,
            control.pm_recoveries,
            control.complaints_accepted,
            control.escalations,
        ),
    );
    r.require(
        control.echoed > 0 && control.disk_bytes > 0,
        format!(
            "control workloads not live: echoed {}, disk bytes {}",
            control.echoed, control.disk_bytes
        ),
    );
}
