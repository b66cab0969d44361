//! The chaos campaign (recovery rate and MTTR vs. IPC-fabric hostility)
//! and its phase-resolved recovery timeline.

use phoenix::campaign::{run_chaos_campaign, ChaosCampaignConfig};
use phoenix_simcore::export::{export_chrome_trace, export_jsonl, parse_jsonl};
use phoenix_simcore::time::SimDuration;

use crate::{phase_rows, Report};

/// Sweeps the chaos intensity of the [`phoenix_fault::ChaosPlan`] driver-
/// traffic preset (drop, delay, duplicate, corrupt) while repeatedly
/// killing the network and block drivers, with one scripted kill landing
/// *inside* an ongoing recovery. Gates on the invariants the sweep
/// demonstrates: every kill recovers, no restart budget is exceeded
/// (zero storms), and nothing gives up, at every intensity — the preset
/// attacks driver traffic, so MTTR stays flat while the transport absorbs
/// the losses.
pub fn chaos(r: &mut Report) {
    r.note("chaos campaign — driver recovery under a hostile IPC fabric\n");
    let headers = [
        "intensity",
        "kills",
        "recovered",
        "mean MTTR",
        "mid-recovery kills",
        "storms",
        "give-ups",
        "dropped",
        "corrupted",
    ];
    let mut rows = Vec::new();
    for intensity in [0.0, 0.25, 0.5, 1.0, 2.0] {
        let cfg = ChaosCampaignConfig {
            intensity,
            ..ChaosCampaignConfig::default()
        };
        let c = run_chaos_campaign(&cfg).0;
        r.line(c.render());
        r.require(
            c.recovery_rate() >= 1.0,
            format!(
                "intensity {intensity:.2}: recovery rate {:.0}% below 100%",
                c.recovery_rate() * 100.0
            ),
        );
        r.require(
            c.storms == 0,
            format!("intensity {intensity:.2}: {} restart storms", c.storms),
        );
        r.require(
            c.gave_up == 0,
            format!("intensity {intensity:.2}: {} give-ups", c.gave_up),
        );
        rows.push(vec![
            format!("{intensity:.2}"),
            format!("{}", c.kills.len()),
            format!("{:.0}%", c.recovery_rate() * 100.0),
            format!("{}", c.mean_mttr()),
            format!("{}", c.recovery_kills),
            format!("{}", c.storms),
            format!("{}", c.gave_up),
            format!("{}", c.dropped),
            format!("{}", c.corrupted),
        ]);
    }
    r.line("");
    for row in &rows {
        let cells: Vec<String> = headers
            .iter()
            .zip(row)
            .map(|(h, c)| format!("{h}={c}"))
            .collect();
        r.line(cells.join(" "));
    }
}

/// Runs the chaos campaign at intensity 1.0, folds the causal trace into
/// per-episode phase timings — detection, repair, reintegration — and
/// emits the phase breakdown plus deterministic JSONL and Chrome-trace
/// exports. Gates:
///
/// * every scripted kill must reconstruct into an accounted episode
///   (complete, superseded by a later one, or explicitly given up);
/// * every complete episode must have all three phases;
/// * two same-seed runs must export byte-identical JSONL;
/// * the JSONL export must parse back losslessly.
pub fn timeline(r: &mut Report) {
    let cfg = ChaosCampaignConfig {
        // 2 targets (network + block driver), so 50 rounds = the 100-fault
        // campaign of the acceptance bar; --quick scales to 6 faults.
        kills_per_target: if r.quick() { 3 } else { 50 },
        kill_interval: SimDuration::from_secs(2),
        mid_recovery_kill: false,
        ..ChaosCampaignConfig::default()
    };
    r.note(format!(
        "recovery timeline — phase-resolved MTTR over the chaos campaign \
         ({} scripted kills)\n",
        2 * cfg.kills_per_target,
    ));

    // Two same-seed runs: the second exists only to check determinism.
    let (result, os) = run_chaos_campaign(&cfg);
    let (_, os2) = run_chaos_campaign(&cfg);
    let jsonl = export_jsonl(os.trace().events());
    r.require(
        jsonl == export_jsonl(os2.trace().events()),
        "same-seed runs exported different JSONL traces",
    );
    match parse_jsonl(&jsonl) {
        Ok(parsed) => r.require(
            export_jsonl(parsed.iter()) == jsonl,
            "JSONL round-trip is lossy",
        ),
        Err(e) => r.require(false, format!("JSONL export failed to parse back: {e}")),
    }

    let timeline = os.timeline();
    r.line(result.render());
    r.line("");
    r.line(timeline.render());
    r.rows(&phase_rows(&os));

    let expected = result.kills.iter().filter(|k| k.recovered).count();
    r.require(
        timeline.complete_count() >= expected,
        format!(
            "only {} complete episodes for {expected} recovered kills",
            timeline.complete_count(),
        ),
    );
    for ep in timeline.unaccounted() {
        r.require(false, format!("unaccounted episode: {}", ep.render()));
    }
    for ep in timeline.episodes.iter().filter(|e| e.complete()) {
        r.require(
            ep.detection().is_some() && ep.repair().is_some() && ep.reintegration().is_some(),
            format!("episode missing a phase: {}", ep.render()),
        );
    }
    r.attach("timeline", "jsonl", jsonl);
    r.attach("timeline", "trace.json", export_chrome_trace(&timeline));
}
