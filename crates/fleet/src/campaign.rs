//! Fleet chaos campaigns: drive N nodes through a mixed node-level
//! fault schedule, fold per-phase node MTTR statistics, and emit the
//! deterministic fleet digest the CI gate compares across runs.

use phoenix_fault::NodeChaosPlan;
use phoenix_simcore::rng::SimRng;
use phoenix_simcore::time::{SimDuration, SimTime};

use crate::fleet::{Fleet, FleetConfig};

/// Campaign shape.
#[derive(Clone, Debug)]
pub struct FleetCampaignConfig {
    /// Fleet shape and pacing.
    pub fleet: FleetConfig,
    /// Number of scheduled node-level faults.
    pub faults: u32,
    /// When the first fault strikes (after the fleet has settled and the
    /// first snapshot generation has replicated).
    pub start: SimDuration,
    /// Spacing between faults. Must exceed worst-case recovery
    /// (detect ≈ 2.5s for a silent RS + reboot + reintegration) or
    /// later faults hit nodes still down and are skipped.
    pub interval: SimDuration,
    /// Quiet tail after the last fault for recoveries to drain.
    pub drain: SimDuration,
}

impl Default for FleetCampaignConfig {
    fn default() -> Self {
        FleetCampaignConfig {
            fleet: FleetConfig::default(),
            faults: 100,
            start: SimDuration::from_secs(5),
            interval: SimDuration::from_secs(10),
            drain: SimDuration::from_secs(15),
        }
    }
}

/// Mean/p95/max of one MTTR phase, in microseconds, plus sample count.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseStat {
    /// Number of recoveries that contributed.
    pub samples: u64,
    /// Mean duration in microseconds.
    pub mean_us: u64,
    /// 95th percentile in microseconds.
    pub p95_us: u64,
    /// Worst case in microseconds.
    pub max_us: u64,
}

/// One campaign run's outcome.
#[derive(Clone, Debug)]
pub struct FleetCampaignResult {
    /// Faults actually injected (node faults that found a live victim).
    pub injected: u64,
    /// Faults skipped because the victim was already down or pending.
    pub skipped: u64,
    /// Convictions handed down by arbiters.
    pub convictions: u64,
    /// Convictions with no injected fault behind them (must be 0).
    pub false_convictions: u64,
    /// Completed node reboots.
    pub reboots: u64,
    /// Reboots that found no peer-held snapshot.
    pub cold_recoveries: u64,
    /// Node faults never recovered by campaign end (must be 0).
    pub unrecovered: u64,
    /// Per-evidence conviction counts `(evidence name, count)`.
    pub by_evidence: Vec<(String, u64)>,
    /// Fault-to-conviction phase.
    pub detect: PhaseStat,
    /// Conviction-to-reboot phase.
    pub repair: PhaseStat,
    /// Reboot-to-peer-observed phase.
    pub reintegrate: PhaseStat,
    /// The deterministic fleet digest.
    pub digest: String,
    /// Per-node digests (`down` for dead nodes).
    pub node_digests: Vec<String>,
}

fn phase_stat(fleet: &Fleet, name: &str) -> PhaseStat {
    let Some(h) = fleet.metrics.log_histogram(name) else {
        return PhaseStat::default();
    };
    PhaseStat {
        samples: h.count(),
        mean_us: h.mean().map_or(0, |us| us as u64),
        p95_us: h.quantile(0.95).unwrap_or(0),
        max_us: h.max().unwrap_or(0),
    }
}

/// Runs one fleet campaign: builds the mixed schedule off the fleet
/// seed, drives the event loop to the drain horizon, and folds the
/// result. Pure function of the config — same config, same digest.
// analyze:recovery-root
pub fn run_fleet_campaign(cfg: &FleetCampaignConfig) -> FleetCampaignResult {
    let start = SimTime::ZERO + cfg.start;
    // analyze:allow(rng-construction): the schedule stream is forked off
    // the fleet seed by domain, so plan and fleet share one root.
    let mut rng = SimRng::new(cfg.fleet.seed).fork("fleet-campaign-plan");
    let plan =
        NodeChaosPlan::campaign_mix(cfg.fleet.nodes, cfg.faults, start, cfg.interval, &mut rng);
    let horizon = cfg.start + cfg.interval * u64::from(cfg.faults) + cfg.drain;
    let mut fleet = Fleet::new(cfg.fleet.clone(), plan);
    fleet.run_for(horizon);
    fleet.finalize();
    summarize(&fleet)
}

/// Runs the no-fault control: the same fleet, the same horizon, an empty
/// schedule. Any conviction here is a false restart.
pub fn run_fleet_control(cfg: &FleetCampaignConfig) -> FleetCampaignResult {
    let horizon = cfg.start + cfg.interval * u64::from(cfg.faults) + cfg.drain;
    let mut fleet = Fleet::new(cfg.fleet.clone(), NodeChaosPlan::new());
    fleet.run_for(horizon);
    fleet.finalize();
    summarize(&fleet)
}

fn summarize(fleet: &Fleet) -> FleetCampaignResult {
    let m = &fleet.metrics;
    let injected = m.counter("fleet.fault.kill_rs") + m.counter("fleet.fault.node_crash");
    let by_evidence = m
        .counters()
        .filter_map(|(k, v)| {
            k.strip_prefix("fleet.convictions.")
                .filter(|rest| !matches!(*rest, "false" | "duplicate"))
                .map(|rest| (rest.to_string(), v))
        })
        .collect();
    FleetCampaignResult {
        injected,
        skipped: m.counter("fleet.fault.skipped"),
        convictions: m.counter("fleet.convictions"),
        false_convictions: m.counter("fleet.convictions.false"),
        reboots: m.counter("fleet.reboots"),
        cold_recoveries: m.counter("fleet.recover.cold"),
        unrecovered: m.counter("fleet.faults.unrecovered"),
        by_evidence,
        detect: phase_stat(fleet, "fleet.mttr.detect"),
        repair: phase_stat(fleet, "fleet.mttr.repair"),
        reintegrate: phase_stat(fleet, "fleet.mttr.reintegrate"),
        digest: fleet.digest(),
        node_digests: fleet.node_digests(),
    }
}

impl FleetCampaignResult {
    /// Human-readable campaign report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let phase = |name: &str, p: &PhaseStat| {
            if p.samples == 0 {
                format!("  {name:<12} (no samples)\n")
            } else {
                format!(
                    "  {name:<12} n={:<4} mean={:>8.1}ms  p95={:>8.1}ms  max={:>8.1}ms\n",
                    p.samples,
                    p.mean_us as f64 / 1000.0,
                    p.p95_us as f64 / 1000.0,
                    p.max_us as f64 / 1000.0,
                )
            }
        };
        out.push_str(&format!(
            "faults injected={} skipped={}  convictions={} (false={})  reboots={} cold={}  unrecovered={}\n",
            self.injected,
            self.skipped,
            self.convictions,
            self.false_convictions,
            self.reboots,
            self.cold_recoveries,
            self.unrecovered,
        ));
        out.push_str("convictions by evidence:\n");
        for (name, count) in &self.by_evidence {
            out.push_str(&format!("  {name:<18} {count}\n"));
        }
        out.push_str("node MTTR phases:\n");
        out.push_str(&phase("detect", &self.detect));
        out.push_str(&phase("repair", &self.repair));
        out.push_str(&phase("reintegrate", &self.reintegrate));
        out.push_str(&format!("fleet digest: {}\n", self.digest));
        for (id, d) in self.node_digests.iter().enumerate() {
            out.push_str(&format!("  node{id}: {d}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> FleetCampaignConfig {
        FleetCampaignConfig {
            faults: 8,
            ..FleetCampaignConfig::default()
        }
    }

    /// The quick campaign recovers every node fault, convicts no one
    /// falsely, and replays byte-identically.
    #[test]
    fn quick_campaign_recovers_and_replays_identically() {
        let cfg = quick();
        let a = run_fleet_campaign(&cfg);
        assert!(a.injected >= 2, "mix schedules kill-rs and node-crash");
        assert_eq!(a.convictions, a.reboots + a.false_convictions);
        assert_eq!(a.false_convictions, 0);
        assert_eq!(a.unrecovered, 0);
        assert!(a.detect.samples >= 2);
        assert!(a.repair.mean_us > 0);
        let b = run_fleet_campaign(&cfg);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.node_digests, b.node_digests);
    }

    /// The control run (no faults) convicts nobody.
    #[test]
    fn control_run_is_quiet() {
        let mut cfg = quick();
        cfg.faults = 2; // short horizon; control only needs the window
        let r = run_fleet_control(&cfg);
        assert_eq!(r.convictions, 0);
        assert_eq!(r.reboots, 0);
        assert_eq!(r.injected, 0);
    }
}
