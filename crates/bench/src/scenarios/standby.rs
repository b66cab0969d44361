//! Standby MTTR bench: hot-standby failover vs cold restart+replay.

use std::fmt::Write as _;

use phoenix::campaign::{
    render_adapt_gauges, run_standby_campaign, run_standby_control, StandbyCampaignConfig,
    StandbyCampaignResult,
};
use phoenix_simcore::time::SimDuration;

use crate::Report;

// ---------------------------------------------------------------------
// JSON: hand-rolled, integers only, fixed key order — byte-stable for a
// given outcome, so the committed file doubles as a determinism witness.

fn push_arm(out: &mut String, label: &str, r: &StandbyCampaignResult) {
    let _ = write!(
        out,
        "{{\"arm\":\"{label}\",\"hot_standby\":{},\"faults\":{},\
         \"recoveries\":{},\"promotions\":{},\"spares_started\":{},\
         \"tail_polls\":{},\"tail_adopted\":{},\"replays\":{},\
         \"app_errors\":{},\"printer_byte_exact\":{},\
         \"audio_dup_bytes\":{},\"watermark_jumps\":{},\
         \"adapt_updates\":{},\"classes\":[",
        r.hot_standby,
        r.faults,
        r.recoveries,
        r.promotions,
        r.spares_started,
        r.tail_polls,
        r.tail_adopted,
        r.replays,
        r.app_visible_errors,
        r.printer_byte_exact,
        r.audio_dup_bytes,
        r.watermark_jumps,
        r.adapt_updates,
    );
    for (i, c) in r.classes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"driver\":\"{}\",\"faults\":{},\"recovered\":{},\
             \"repair_episodes\":{},\"repair_mean_us\":{},\
             \"repair_max_us\":{}}}",
            c.driver, c.faults, c.recovered, c.repair_episodes, c.repair_mean_us, c.repair_max_us,
        );
    }
    out.push_str("],\"adapt\":[");
    for (i, (k, v)) in r.adapt_gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"gauge\":\"{k}\",\"value\":{v}}}");
    }
    out.push_str("],\"adapt_trace\":[");
    for (i, (p, lo, hi)) in r.adapt_trace.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"param\":\"{p}\",\"min\":{lo},\"max\":{hi}}}");
    }
    let _ = write!(out, "],\"digest\":\"{}\"}}", r.digest);
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

    let mut json = String::from("{\"schema\":\"phoenix-bench-standby/v1\",\"arms\":[");
    push_arm(&mut json, "standby", &standby);
    json.push(',');
    push_arm(&mut json, "cold", &cold);
    let _ = writeln!(
        json,
        "],\"control\":{{\"promotions\":{},\"recoveries\":{},\
         \"complaints_accepted\":{},\"spares_started\":{},\
         \"tail_polls\":{},\"digest\":\"{}\"}}}}",
        control.promotions,
        control.recoveries,
        control.complaints_accepted,
        control.spares_started,
        control.tail_polls,
        control.digest,
    );
    r.attach("BENCH_standby", "json", json);
}
