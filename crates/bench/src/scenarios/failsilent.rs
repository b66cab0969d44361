//! Fail-silent defect campaign: §7.2 mutations that do *not* crash the
//! driver, against the protocol-sentinel / babble-guard / complaint-
//! arbitration stack.

use phoenix::campaign::{run_failsilent_campaign, run_failsilent_control, FailsilentConfig};
use phoenix_simcore::obs::sentinel_counters;
use phoenix_simcore::time::SimDuration;

use crate::Report;

/// Drives the mutation engine round-robin over all three driver classes
/// (DP8390 net, SATA block, printer char) while one workload per class
/// keeps the hot paths busy, and classifies every injection as
/// detected-and-recovered, fail-silent-survived (the user has to restart
/// by hand), or benign. A second arm runs the identical schedule with the
/// sentinel layers disarmed (`without_sentinels`) — the crash-only
/// baseline — and a no-fault control run checks that healthy drivers are
/// never restarted. Gates:
///
/// * two same-seed campaign runs must produce byte-identical metric
///   digests;
/// * at least one detection must be sentinel-only (complaint evidence
///   with no crash-class counter movement): coverage strictly above the
///   crash-only baseline;
/// * every detected or user-restarted driver must recover;
/// * the no-fault control run must report zero restarts and zero
///   accepted complaints, with all three workloads live.
pub fn failsilent(r: &mut Report) {
    let cfg = if r.quick() {
        FailsilentConfig::default().quick()
    } else {
        FailsilentConfig::default()
    };
    r.note(format!(
        "fail-silent campaign — {} mutation rounds x 3 driver classes\n",
        cfg.rounds,
    ));

    // Armed arm, twice: the second run exists only to check determinism.
    let (armed, os) = run_failsilent_campaign(&cfg);
    let (rerun, _) = run_failsilent_campaign(&cfg);
    // Crash-only baseline arm: same schedule, sentinels disarmed.
    let baseline_cfg = FailsilentConfig {
        sentinels: false,
        ..cfg.clone()
    };
    let (baseline, _) = run_failsilent_campaign(&baseline_cfg);
    // No-fault control: anything restarted here is a false positive.
    let control = run_failsilent_control(&cfg, SimDuration::from_secs(30));

    r.line("sentinels armed:");
    r.line(armed.render());
    r.line("");
    r.line("crash-only baseline (sentinels disarmed):");
    r.line(baseline.render());
    r.line("");
    r.line(format!(
        "no-fault control: {} restarts, {} accepted complaints, echoed {}, \
         disk bytes {}, printed {}",
        control.restarts,
        control.complaints_accepted,
        control.echoed,
        control.disk_bytes,
        control.printed,
    ));
    r.line("");
    for (k, v) in sentinel_counters(os.metrics()) {
        r.line(format!("{k}={v}"));
    }
    r.line("");
    r.line(os.timeline().render());

    r.require_same_digest(&armed.digest, &rerun.digest);
    r.require(
        armed.sentinel_only() > 0,
        "no sentinel-only detection: coverage is not above the \
         crash-only baseline",
    );
    r.require(
        armed.coverage() > armed.crash_only_coverage(),
        format!(
            "coverage {:.3} not strictly above crash-only baseline {:.3}",
            armed.coverage(),
            armed.crash_only_coverage()
        ),
    );
    r.require(
        armed.unrecovered() == 0,
        format!(
            "{} drivers failed to recover after restart",
            armed.unrecovered()
        ),
    );
    r.require(
        control.restarts == 0 && control.complaints_accepted == 0,
        format!(
            "false positives in the no-fault control: {} restarts, {} \
             accepted complaints",
            control.restarts, control.complaints_accepted
        ),
    );
    r.require(
        control.echoed > 0 && control.disk_bytes > 0 && control.printed > 0,
        format!(
            "control workloads not live: echoed {}, disk {}, printed {}",
            control.echoed, control.disk_bytes, control.printed
        ),
    );
}
