//! Standby MTTR bench: hot-standby failover vs cold restart+replay.

use phoenix::campaign::{
    render_adapt_gauges, run_standby_campaign, run_standby_control, StandbyCampaignConfig,
    StandbyCampaignResult,
};
use phoenix_simcore::json::Json;
use phoenix_simcore::time::SimDuration;

use crate::Report;

// ---------------------------------------------------------------------
// JSON in a fixed key order — byte-stable for a given outcome, so the
// committed file doubles as a determinism witness.

fn arm_json(label: &str, r: &StandbyCampaignResult) -> Json {
    let classes = r.classes.iter().map(|c| {
        Json::obj([
            ("driver", c.driver.as_str().into()),
            ("faults", c.faults.into()),
            ("recovered", c.recovered.into()),
            ("repair_episodes", c.repair_episodes.into()),
            ("repair_mean_us", c.repair_mean_us.into()),
            ("repair_max_us", c.repair_max_us.into()),
        ])
    });
    let adapt = r
        .adapt_gauges
        .iter()
        .map(|(k, v)| Json::obj([("gauge", k.as_str().into()), ("value", (*v).into())]));
    let adapt_trace = r.adapt_trace.iter().map(|(p, lo, hi)| {
        Json::obj([
            ("param", p.as_str().into()),
            ("min", (*lo).into()),
            ("max", (*hi).into()),
        ])
    });
    Json::obj([
        ("arm", label.into()),
        ("hot_standby", r.hot_standby.into()),
        ("faults", r.faults.into()),
        ("recoveries", r.recoveries.into()),
        ("promotions", r.promotions.into()),
        ("spares_started", r.spares_started.into()),
        ("tail_polls", r.tail_polls.into()),
        ("tail_adopted", r.tail_adopted.into()),
        ("replays", r.replays.into()),
        ("app_errors", r.app_visible_errors.into()),
        ("printer_byte_exact", r.printer_byte_exact.into()),
        ("audio_dup_bytes", r.audio_dup_bytes.into()),
        ("watermark_jumps", r.watermark_jumps.into()),
        ("adapt_updates", r.adapt_updates.into()),
        ("classes", Json::Arr(classes.collect())),
        ("adapt", Json::Arr(adapt.collect())),
        ("adapt_trace", Json::Arr(adapt_trace.collect())),
        ("digest", r.digest.as_str().into()),
    ])
}

/// Runs the standby campaign twice on the same deterministic defect
/// schedule — wedge loops (heartbeat class) alternating with checksum
/// garbles (complaint class) against the printer and audio drivers —
/// once with warm spares armed and once with the cold restart+replay
/// baseline, both under the canonical self-tuning policy
/// (`STANDBY_ADAPT_POLICY`). A third arm runs fault-free for 30 virtual
/// seconds to prove the promotion machinery never fires on a healthy
/// machine.
///
/// The comparison is attached as `results/BENCH_standby[_quick].json` in
/// a deterministic, integer-only schema (`phoenix-bench-standby/v1`).
/// Gates:
///
/// * two same-seed standby runs must produce byte-identical digests —
///   and that digest covers the `rs.adapt.*` gauges and trajectory
///   histograms, so the adaptation trajectory itself is gated;
/// * every fault must recover in both arms, with zero app-visible
///   errors, a byte-exact printer stream and a complete audio stream;
/// * the standby arm must promote spares (not cold-restart through
///   them) and its repair-phase MTTR must be strictly lower than the
///   cold arm's for BOTH driver classes;
/// * the no-fault control must report zero promotions, zero recoveries
///   and zero accepted complaints while both spares tail the WAL;
/// * the adapt controllers must run, and every `rs.adapt.trace.*`
///   trajectory must stay inside its declared clamp band.
pub fn standby(r: &mut Report) {
    let faults = if r.quick() { 8 } else { 100 };
    let cfg = |hot_standby| StandbyCampaignConfig {
        faults,
        hot_standby,
        ..StandbyCampaignConfig::default()
    };
    r.note(format!(
        "standby MTTR — hot-standby failover vs cold restart+replay \
         ({faults} faults)\n",
    ));

    let (standby, os) = run_standby_campaign(&cfg(true));
    let (rerun, _) = run_standby_campaign(&cfg(true));
    let (cold, _) = run_standby_campaign(&cfg(false));
    let control = run_standby_control(&cfg(true), SimDuration::from_secs(30));

    r.line(standby.render());
    r.line("");
    r.line(cold.render());
    r.line("");
    r.line(format!(
        "control (30 s, no faults): promotions {}, recoveries {}, \
         complaints {}, spares {}, tail polls {}",
        control.promotions,
        control.recoveries,
        control.complaints_accepted,
        control.spares_started,
        control.tail_polls,
    ));
    r.note(render_adapt_gauges(&os));

    r.require_same_digest(&standby.digest, &rerun.digest);
    for (a, arm) in [(&standby, "standby"), (&cold, "cold")] {
        r.require(a.faults > 0, format!("{arm} arm injected no faults"));
        r.require(
            a.recoveries >= a.faults,
            format!(
                "{arm} arm: only {} recoveries for {} faults",
                a.recoveries, a.faults
            ),
        );
        r.require(
            a.workloads_done,
            format!("{arm} arm: workloads did not finish"),
        );
        r.require(
            a.app_visible_errors == 0,
            format!(
                "{arm} arm leaked {} errors to the applications",
                a.app_visible_errors
            ),
        );
        r.require(
            a.printer_byte_exact,
            format!(
                "{arm} arm: printer stream not byte-exact ({}/{} bytes)",
                a.printed_bytes, a.expected_printed
            ),
        );
        r.require(
            a.samples_played >= a.expected_samples,
            format!(
                "{arm} arm: audio stream incomplete ({}/{} bytes)",
                a.samples_played, a.expected_samples
            ),
        );
        // §6.3: audio failover is not transparent — a promoted spare's
        // tailed watermark may lag by one tail period, duplicating at
        // most one period of samples (17,640 B at 176.4 KB/s) per
        // promotion. Nothing may be duplicated on the cold path.
        r.require(
            a.audio_dup_bytes <= a.promotions * 17_640,
            format!(
                "{arm} arm: {} duplicated audio bytes exceeds the tail \
                 window for {} promotions",
                a.audio_dup_bytes, a.promotions
            ),
        );
        r.require(a.adapt_updates > 0, format!("{arm} arm: adapt never ran"));
        for v in &a.adapt_out_of_band {
            r.require(false, format!("{arm} arm: {v}"));
        }
    }
    r.require(
        standby.promotions >= standby.faults,
        format!(
            "standby arm cold-restarted: {} promotions for {} faults",
            standby.promotions, standby.faults
        ),
    );
    r.require(
        cold.promotions == 0,
        format!("cold arm reported {} promotions", cold.promotions),
    );
    for driver in ["chr.printer", "chr.audio"] {
        let (Some(s), Some(c)) = (standby.class(driver), cold.class(driver)) else {
            r.require(false, format!("missing class row for {driver}"));
            continue;
        };
        r.require(
            s.repair_episodes > 0 && c.repair_episodes > 0,
            format!("{driver}: no repair episodes folded"),
        );
        r.require(
            s.repair_mean_us < c.repair_mean_us,
            format!(
                "{driver}: standby repair MTTR {} not strictly below cold {}",
                SimDuration::from_micros(s.repair_mean_us),
                SimDuration::from_micros(c.repair_mean_us),
            ),
        );
    }
    r.require(
        control.promotions == 0 && control.recoveries == 0 && control.complaints_accepted == 0,
        format!(
            "false failover in the no-fault control: {} promotions, {} \
             recoveries, {} complaints",
            control.promotions, control.recoveries, control.complaints_accepted
        ),
    );
    r.require(
        control.spares_started >= 2 && control.tail_polls > 0,
        "control: spares never tailed the WAL",
    );
    r.require(
        control.printed_acked > 0 && control.audio_acked > 0,
        "control: workloads made no progress",
    );

    let control = Json::obj([
        ("promotions", control.promotions.into()),
        ("recoveries", control.recoveries.into()),
        ("complaints_accepted", control.complaints_accepted.into()),
        ("spares_started", control.spares_started.into()),
        ("tail_polls", control.tail_polls.into()),
        ("digest", control.digest.as_str().into()),
    ]);
    let doc = Json::obj([
        ("schema", "phoenix-bench-standby/v1".into()),
        (
            "arms",
            Json::Arr(vec![arm_json("standby", &standby), arm_json("cold", &cold)]),
        ),
        ("control", control),
    ]);
    r.attach("BENCH_standby", "json", doc.compact() + "\n");
}
