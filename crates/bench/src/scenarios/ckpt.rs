//! Checkpoint overhead: recovery transparency and per-request logging cost
//! of the `phoenix-ckpt` subsystem.

use phoenix::campaign::{run_ckpt_campaign, CkptCampaignConfig, CkptCampaignResult};

use crate::{phase_rows, Report};

fn mode_row(c: &CkptCampaignResult) -> Vec<String> {
    vec![
        if c.checkpointing { "ckpt" } else { "legacy" }.to_string(),
        format!("{}", c.kills),
        format!("{:.0}%", c.transparency_rate() * 100.0),
        format!("{}", c.app_visible_errors),
        format!("{}", c.printer_byte_exact),
        format!("{}", c.samples_played == c.expected_samples),
        format!("{:.3}", c.overhead_msgs_per_request()),
    ]
}

/// Runs the checkpoint campaign — repeated kills of the printer and audio
/// drivers while a print job and a paced audio stream are in flight —
/// once with checkpointing on (twice, for the determinism gate) and once
/// with the paper's §6.3 error-push baseline, then reports the
/// recovery-transparency rate and the per-request overhead of write-ahead
/// logging plus snapshotting. Gates:
///
/// * the checkpointed run must be fully transparent: zero app-visible
///   errors, byte-exact printer stream, every audio byte played once;
/// * the baseline run must still surface errors to the applications
///   (§6.3 semantics must not silently disappear);
/// * two same-seed checkpointed runs must produce identical digests.
pub fn ckpt(r: &mut Report) {
    let faults = if r.quick() { 12 } else { 100 };
    let cfg = |checkpointing| CkptCampaignConfig {
        faults,
        checkpointing,
        ..CkptCampaignConfig::default()
    };
    r.note(format!(
        "checkpoint overhead — char-driver kills with and without \
         phoenix-ckpt ({faults} faults)\n",
    ));
    let (ckpt, os) = run_ckpt_campaign(&cfg(true));
    let (rerun, _) = run_ckpt_campaign(&cfg(true));
    let (legacy, _) = run_ckpt_campaign(&cfg(false));

    r.line(ckpt.render());
    r.line(legacy.render());
    r.line("");
    r.rows(&[mode_row(&ckpt), mode_row(&legacy)]);
    r.rows(&phase_rows(&os));

    r.require_same_digest(&ckpt.digest, &rerun.digest);
    r.require(ckpt.workloads_done, "checkpointed workloads did not finish");
    r.require(
        ckpt.app_visible_errors == 0,
        format!(
            "checkpointed recovery leaked {} errors to the applications",
            ckpt.app_visible_errors
        ),
    );
    r.require(
        ckpt.printer_byte_exact,
        format!(
            "checkpointed printer stream not byte-exact ({}/{} bytes)",
            ckpt.printed_bytes, ckpt.expected_printed
        ),
    );
    r.require(
        ckpt.samples_played == ckpt.expected_samples,
        format!(
            "checkpointed audio stream incomplete ({}/{} bytes)",
            ckpt.samples_played, ckpt.expected_samples
        ),
    );
    r.require(
        ckpt.recovered_kills == ckpt.kills,
        format!(
            "only {}/{} kills recovered",
            ckpt.recovered_kills, ckpt.kills
        ),
    );
    r.require(
        legacy.app_visible_errors > 0,
        "baseline run surfaced no errors — §6.3 error-push semantics lost",
    );
}
