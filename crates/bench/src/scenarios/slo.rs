//! SLO-under-chaos bench: the repo's first committed perf trajectory.

use phoenix::campaign::{run_slo_campaign, SloCampaignConfig, SloCampaignResult, SloPhaseRow};
use phoenix::loadgen::{InetLoadConfig, VfsLoadConfig};
use phoenix_simcore::json::Json;
use phoenix_simcore::obs::phase;
use phoenix_simcore::time::SimDuration;

use crate::Report;

/// Minimum successful-latency samples a phase row needs before its p99
/// participates in the regression gate (tiny rows are pure noise).
const GATE_MIN_SAMPLES: u64 = 50;

/// Tolerance band of the regression gate, percent.
const GATE_TOLERANCE_PCT: u64 = 10;

const RECOVERY_PHASES: [&str; 4] = [
    phase::DETECT,
    phase::REPAIR,
    phase::REINTEGRATE,
    phase::REPLAY,
];

/// One sweep point: a load level crossed with a chaos intensity.
struct SweepPoint {
    load: &'static str,
    intensity_permille: u32,
    cfg: SloCampaignConfig,
    /// The primary point carries the digest gate and the regression
    /// baseline (and the README's headline numbers).
    primary: bool,
}

fn sweep(quick: bool) -> Vec<SweepPoint> {
    let mut points = Vec::new();
    let loads: &[(&str, u32, u32)] = if quick {
        // CI-sized: the integration-test fleet, two intensities.
        &[("light", 300, 8)]
    } else {
        // Full: a light fleet for contrast plus the 10⁴-session fleet.
        &[("light", 3_500, 8), ("full", 14_000, 32)]
    };
    let intensities: &[u32] = if quick { &[0, 200] } else { &[0, 300, 600] };
    for &(load, sessions, clients) in loads {
        for &ip in intensities {
            let cfg = if quick {
                SloCampaignConfig {
                    seed: 1907,
                    inet: InetLoadConfig {
                        sessions,
                        interarrival: SimDuration::from_millis(400),
                        ramp: SimDuration::from_millis(400),
                        linger: SimDuration::from_millis(300),
                        horizon: SimDuration::from_secs(5),
                        ..InetLoadConfig::default()
                    },
                    vfs: VfsLoadConfig {
                        clients,
                        interarrival: SimDuration::from_millis(50),
                        horizon: SimDuration::from_secs(5),
                        ..VfsLoadConfig::default()
                    },
                    intensity: f64::from(ip) / 1000.0,
                    kills_per_target: 1,
                    kill_interval: SimDuration::from_millis(500),
                    file_size: 64 * 1024,
                }
            } else {
                // Offered load ~82% of the peer's 11 MB/s pacing
                // (14k sessions / 4.5 s x ~2.9 KB mean response): close
                // enough to capacity that recovery visibly queues, but
                // the no-chaos control is not in permanent overload.
                // Linger near the interarrival keeps the slots
                // concurrently open, so peak_live stays above 10^4.
                SloCampaignConfig {
                    inet: InetLoadConfig {
                        sessions,
                        interarrival: SimDuration::from_millis(4_500),
                        linger: SimDuration::from_millis(4_200),
                        ..InetLoadConfig::default()
                    },
                    vfs: VfsLoadConfig {
                        clients,
                        ..VfsLoadConfig::default()
                    },
                    intensity: f64::from(ip) / 1000.0,
                    ..SloCampaignConfig::default()
                }
            };
            // Primary: the heaviest load at the middle (default) chaos
            // intensity — the configuration the paper's claims live on.
            let primary = load == loads[loads.len() - 1].0 && ip == if quick { 200 } else { 300 };
            points.push(SweepPoint {
                load,
                intensity_permille: ip,
                cfg,
                primary,
            });
        }
    }
    points
}

// ---------------------------------------------------------------------
// JSON: integers only, fixed key order — byte-stable for a given sweep
// outcome, so the committed file doubles as a determinism witness.

fn phase_json(p: &SloPhaseRow) -> Json {
    Json::obj([
        ("phase", p.phase.as_str().into()),
        ("requests", p.requests.into()),
        ("failed", p.failed.into()),
        ("goodput_bytes", p.goodput_bytes.into()),
        ("phase_us", p.phase_us.into()),
        ("hol_depth", p.hol_depth.into()),
        ("samples", p.samples.into()),
        ("p50_us", p.p50_us.into()),
        ("p99_us", p.p99_us.into()),
        ("p999_us", p.p999_us.into()),
    ])
}

fn run_json(pt: &SweepPoint, r: &SloCampaignResult) -> Json {
    let recovered = r.kills.iter().filter(|k| k.recovered).count();
    Json::obj([
        ("load", pt.load.into()),
        ("sessions", pt.cfg.inet.sessions.into()),
        ("vfs_clients", pt.cfg.vfs.clients.into()),
        ("intensity_permille", pt.intensity_permille.into()),
        ("seed", pt.cfg.seed.into()),
        ("kills", r.kills.len().into()),
        ("recovered", recovered.into()),
        ("started", r.started.into()),
        ("completed", r.completed.into()),
        ("failed", r.failed.into()),
        ("shed", r.shed.into()),
        ("peak_live", r.peak_live.into()),
        ("inet_drained", u64::from(r.inet_drained).into()),
        ("vfs_drained", u64::from(r.vfs_drained).into()),
        ("unaccounted", r.unaccounted_episodes.into()),
        ("trace_dropped", r.trace_dropped.into()),
        ("digest", r.digest.as_str().into()),
        (
            "phases",
            Json::Arr(r.phases.iter().map(phase_json).collect()),
        ),
    ])
}

fn render_json(quick: bool, runs: &[(SweepPoint, SloCampaignResult)]) -> String {
    let mut doc: Vec<(&str, Json)> = vec![
        ("schema", "phoenix-bench-slo/v1".into()),
        ("quick", u64::from(quick).into()),
    ];
    // The gate block repeats the primary run's headline numbers, so the
    // regression gate reads one flat object of the committed baseline.
    if let Some((pt, r)) = runs.iter().find(|(pt, _)| pt.primary) {
        let steady_p99 = r.phase(phase::STEADY).map_or(0, |p| p.p99_us);
        let (rec_p99, rec_samples) = recovery_p99(r);
        let gate = Json::obj([
            ("sessions", pt.cfg.inet.sessions.into()),
            ("intensity_permille", pt.intensity_permille.into()),
            ("completed", r.completed.into()),
            ("goodput_bytes", total_goodput(r).into()),
            ("steady_p99_us", steady_p99.into()),
            ("recovery_p99_us", rec_p99.into()),
            ("recovery_samples", rec_samples.into()),
        ]);
        doc.push(("gate", gate));
    }
    let runs = runs.iter().map(|(pt, r)| run_json(pt, r)).collect();
    doc.push(("runs", Json::Arr(runs)));
    Json::obj(doc).compact() + "\n"
}

/// Response bytes delivered across all phases of a run.
fn total_goodput(r: &SloCampaignResult) -> u64 {
    r.phases.iter().map(|p| p.goodput_bytes).sum()
}

/// p99 over the best-sampled recovery phase (detection/repair/
/// reintegration/replay), with its sample count.
fn recovery_p99(r: &SloCampaignResult) -> (u64, u64) {
    RECOVERY_PHASES
        .iter()
        .filter_map(|ph| r.phase(ph))
        .map(|p| (p.p99_us, p.samples))
        .max_by_key(|&(_, samples)| samples)
        .unwrap_or((0, 0))
}

/// Sweeps the SLO campaign over load level × chaos intensity: an
/// open-loop INET client fleet (10⁴+ concurrent sessions at full load)
/// plus a multi-client VFS/disk job mix, while the network and block
/// drivers are repeatedly killed under fabric chaos. Every completed
/// request is attributed to steady state or the recovery phase its
/// completion fell into, giving p50/p99/p999 latency, goodput and
/// head-of-line depth per phase.
///
/// The sweep is attached as `results/BENCH_slo[_quick].json` in a
/// deterministic, integer-only schema (`phoenix-bench-slo/v1`): committed
/// to the repo, it is the baseline the regression gate compares against.
/// Gates:
///
/// * two same-seed runs of the primary sweep point must produce
///   byte-identical metric digests;
/// * every kill must recover, both generators must drain, and the
///   timeline fold must account for every recovery episode;
/// * the primary chaos point must attribute completions to recovery
///   phases (an empty recovery row means the join is broken);
/// * at full load the fleet must actually reach 10⁴ concurrently-open
///   sessions (`peak_live`);
/// * against the committed baseline: completed requests and goodput may
///   not drop more than 10%, and steady-state / recovery p99 latency may
///   not rise more than 10% (rows with too few samples are skipped).
pub fn slo(r: &mut Report) {
    let quick = r.quick();
    let points = sweep(quick);
    r.note(format!(
        "slo under chaos — {} sweep points (load x intensity)\n",
        points.len(),
    ));

    let mut runs: Vec<(SweepPoint, SloCampaignResult)> = Vec::new();
    for pt in points {
        let (result, _os) = run_slo_campaign(&pt.cfg);
        r.line(format!(
            "[{} x {:.2}] {}\n",
            pt.load,
            f64::from(pt.intensity_permille) / 1000.0,
            result.render()
        ));
        if pt.primary {
            // Digest gate: the campaign must be a pure function of its
            // seed — rerun the primary point and compare.
            let (rerun, _os) = run_slo_campaign(&pt.cfg);
            r.require_same_digest(&result.digest, &rerun.digest);
        }
        runs.push((pt, result));
    }

    // ---- per-run invariant gates ----
    for (pt, run) in &runs {
        let tag = format!("[{} x {}]", pt.load, pt.intensity_permille);
        let unrecovered = run.kills.iter().filter(|k| !k.recovered).count();
        r.require(
            unrecovered == 0,
            format!("{tag} {unrecovered} kills did not recover"),
        );
        r.require(
            run.inet_drained && run.vfs_drained,
            format!(
                "{tag} load did not drain (inet {}, vfs {})",
                run.inet_drained, run.vfs_drained
            ),
        );
        r.require(
            run.unaccounted_episodes == 0,
            format!(
                "{tag} {} recovery episodes unaccounted in the fold",
                run.unaccounted_episodes
            ),
        );
        if pt.primary {
            let rec_requests: u64 = RECOVERY_PHASES
                .iter()
                .filter_map(|ph| run.phase(ph))
                .map(|p| p.requests)
                .sum();
            r.require(
                rec_requests > 0,
                format!("{tag} no requests attributed to any recovery phase"),
            );
        }
        r.require(
            quick || pt.load != "full" || run.peak_live >= 10_000,
            format!(
                "{tag} peak_live {} below the 10^4-session floor",
                run.peak_live
            ),
        );
    }

    // ---- regression gate against the committed baseline ----
    match r.committed("BENCH_slo", "json") {
        Some(baseline) => check_regression(&baseline, &runs, r),
        None => r.note("no committed BENCH_slo baseline — skipping the regression gate"),
    }

    let rows: Vec<Vec<String>> = runs
        .iter()
        .flat_map(|(pt, run)| {
            run.phases.iter().map(move |p| {
                vec![
                    pt.load.to_string(),
                    format!("{:.2}", f64::from(pt.intensity_permille) / 1000.0),
                    p.phase.clone(),
                    p.requests.to_string(),
                    p.p50_us.to_string(),
                    p.p99_us.to_string(),
                    p.p999_us.to_string(),
                    p.goodput_bytes.to_string(),
                    p.hol_depth.to_string(),
                ]
            })
        })
        .collect();
    r.table(
        &[
            "load", "chaos", "phase", "req", "p50us", "p99us", "p999us", "goodput", "hol",
        ],
        &rows,
    );
    r.attach("BENCH_slo", "json", render_json(quick, &runs));
}

/// Tolerance-band comparison of the primary run against the committed
/// baseline's `gate` block: throughput may not drop, latency may not
/// rise, by more than [`GATE_TOLERANCE_PCT`].
fn check_regression(baseline: &str, runs: &[(SweepPoint, SloCampaignResult)], report: &mut Report) {
    let Some((pt, r)) = runs.iter().find(|(pt, _)| pt.primary) else {
        return;
    };
    let doc = match Json::parse(baseline) {
        Ok(doc) => doc,
        Err(e) => return report.require(false, format!("committed baseline: {e}")),
    };
    let Some(gate) = doc.get("gate") else {
        return report.note("committed baseline has no gate block — skipping");
    };
    let gate_u64 = |key| gate.get(key).and_then(Json::as_u64);
    // A baseline recorded for a different sweep shape is not comparable;
    // regenerating it lands in the same commit as the config change.
    if gate_u64("sessions") != Some(u64::from(pt.cfg.inet.sessions))
        || gate_u64("intensity_permille") != Some(u64::from(pt.intensity_permille))
    {
        report.note("baseline was recorded for a different primary config — skipping");
        return;
    }
    let pct = GATE_TOLERANCE_PCT;
    // Lower-is-regression counters.
    for (key, now) in [
        ("completed", r.completed),
        ("goodput_bytes", total_goodput(r)),
    ] {
        let Some(base) = gate_u64(key) else {
            continue;
        };
        report.require(
            now * 100 >= base * (100 - pct),
            format!("{key} regressed more than {pct}%: {now} vs baseline {base}"),
        );
    }
    // Higher-is-regression latencies; skip under-sampled rows.
    let steady = r.phase(phase::STEADY);
    let (rec_p99, rec_samples) = recovery_p99(r);
    let base_rec_samples = gate_u64("recovery_samples").unwrap_or(0);
    let checks = [
        (
            "steady_p99_us",
            steady.map_or(0, |p| p.p99_us),
            steady.map_or(0, |p| p.samples),
        ),
        (
            "recovery_p99_us",
            rec_p99,
            rec_samples.min(base_rec_samples),
        ),
    ];
    for (key, now, samples) in checks {
        let Some(base) = gate_u64(key) else {
            continue;
        };
        if samples < GATE_MIN_SAMPLES || base == 0 {
            continue;
        }
        report.require(
            now * 100 <= base * (100 + pct),
            format!("{key} regressed more than {pct}%: {now}us vs baseline {base}us"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The primary quick point with one steady row: `completed` requests
    /// at a steady-state p99 of `p99_us`, over 1,000 samples.
    fn primary_run(completed: u64, p99_us: u64) -> Vec<(SweepPoint, SloCampaignResult)> {
        let point = sweep(true)
            .into_iter()
            .find(|pt| pt.primary)
            .expect("the quick sweep has a primary point");
        let steady = SloPhaseRow {
            phase: phase::STEADY.to_string(),
            requests: completed,
            failed: 0,
            goodput_bytes: completed * 1_000,
            phase_us: 5_000_000,
            hol_depth: 1,
            samples: 1_000,
            p50_us: p99_us / 2,
            p99_us,
            p999_us: p99_us,
        };
        let result = SloCampaignResult {
            completed,
            phases: vec![steady],
            ..SloCampaignResult::default()
        };
        vec![(point, result)]
    }

    fn gate_failures(baseline: &str, now: &[(SweepPoint, SloCampaignResult)]) -> Vec<String> {
        let mut report = Report::new("slo", true);
        check_regression(baseline, now, &mut report);
        report.failures
    }

    #[test]
    fn a_run_within_the_band_passes() {
        let baseline = render_json(true, &primary_run(1_000, 10_000));
        // 9 % fewer completions and goodput, a 9 % higher p99.
        let now = primary_run(910, 10_900);
        assert_eq!(gate_failures(&baseline, &now), Vec::<String>::new());
    }

    #[test]
    fn a_run_outside_the_band_fails_on_each_metric() {
        let baseline = render_json(true, &primary_run(1_000, 10_000));
        let now = primary_run(890, 11_100);
        assert_eq!(
            gate_failures(&baseline, &now),
            [
                "completed regressed more than 10%: 890 vs baseline 1000",
                "goodput_bytes regressed more than 10%: 890000 vs baseline 1000000",
                "steady_p99_us regressed more than 10%: 11100us vs baseline 10000us",
            ]
        );
    }

    #[test]
    fn a_baseline_without_a_gate_block_is_skipped() {
        let baseline = "{\"schema\":\"phoenix-bench-slo/v1\",\"quick\":1,\"runs\":[]}\n";
        let now = primary_run(1, u64::MAX / 200);
        assert_eq!(gate_failures(baseline, &now), Vec::<String>::new());
    }

    #[test]
    fn a_baseline_that_does_not_parse_fails_the_gate() {
        let now = primary_run(1_000, 10_000);
        assert_eq!(
            gate_failures("{\"gate\":", &now),
            ["committed baseline: unexpected end of input at byte 8"]
        );
    }
}
