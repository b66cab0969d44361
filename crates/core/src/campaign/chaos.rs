//! Chaos campaign: recovery under a hostile IPC fabric.

use phoenix_fault::chaos::ChaosPlan;
use phoenix_fault::NameFilter;
use phoenix_simcore::time::SimDuration;

use super::{
    fossilize, kill_net_and_block, push_trace_loss, recovery_rate, spawn_udp_traffic,
    ChaosKillRecord,
};
use crate::os::{names, NicKind, Os};

/// Parameters of the chaos-resilience campaign: repeated driver kills
/// while the IPC fabric drops, delays, duplicates and corrupts messages.
#[derive(Debug, Clone)]
pub struct ChaosCampaignConfig {
    /// Root seed.
    pub seed: u64,
    /// Scale factor on the [`ChaosPlan::driver_traffic`] preset
    /// (1.0 = 10% drop, 10% delay, 5% duplication, 2% corruption).
    pub intensity: f64,
    /// User kills per driver under test (network and block).
    pub kills_per_target: u64,
    /// Virtual time between consecutive kills.
    pub kill_interval: SimDuration,
    /// Arm one kill of the network driver's *fresh incarnation during
    /// recovery* (crash-during-recovery resilience).
    pub mid_recovery_kill: bool,
}

impl Default for ChaosCampaignConfig {
    fn default() -> Self {
        ChaosCampaignConfig {
            seed: 2007,
            intensity: 1.0,
            kills_per_target: 4,
            kill_interval: SimDuration::from_secs(5),
            mid_recovery_kill: true,
        }
    }
}

/// Aggregate chaos-campaign outcome.
#[derive(Debug, Clone, Default)]
pub struct ChaosCampaignResult {
    /// Chaos intensity the campaign ran at.
    pub intensity: f64,
    /// Every kill in order.
    pub kills: Vec<ChaosKillRecord>,
    /// Messages the chaos layer dropped / delayed / duplicated / corrupted.
    pub dropped: u64,
    /// See [`ChaosCampaignResult::dropped`].
    pub delayed: u64,
    /// See [`ChaosCampaignResult::dropped`].
    pub duplicated: u64,
    /// See [`ChaosCampaignResult::dropped`].
    pub corrupted: u64,
    /// Mid-recovery kills the chaos layer executed.
    pub recovery_kills: u64,
    /// Restart storms RS detected (must be 0 at moderate intensity).
    pub storms: u64,
    /// Services RS gave up on.
    pub gave_up: u64,
    /// Extra defects RS recovered beyond the scripted kills (heartbeat
    /// misses from stalls, corrupted-request panics, ...).
    pub total_recoveries: u64,
    /// Trace events lost to ring eviction. Non-zero means the folded
    /// recovery timeline may be missing episodes or phases.
    pub trace_dropped: u64,
    /// Per-event-kind breakdown of [`ChaosCampaignResult::trace_dropped`].
    pub trace_dropped_by_kind: Vec<(String, u64)>,
    /// MD5 over the canonical metrics dump — byte-identical across two
    /// same-seed runs (determinism regression handle).
    pub digest: String,
}

impl ChaosCampaignResult {
    /// Fraction of kills that recovered, in [0, 1].
    pub fn recovery_rate(&self) -> f64 {
        recovery_rate(&self.kills)
    }

    /// Mean time to repair over the recovered kills.
    pub fn mean_mttr(&self) -> SimDuration {
        let recovered: Vec<&ChaosKillRecord> = self.kills.iter().filter(|k| k.recovered).collect();
        if recovered.is_empty() {
            return SimDuration::ZERO;
        }
        let total: u64 = recovered.iter().map(|k| k.mttr.as_micros()).sum();
        SimDuration::from_micros(total / recovered.len() as u64)
    }

    /// Renders the §7.2-style summary line.
    pub fn render(&self) -> String {
        let mut line = format!(
            "chaos intensity {:.2}: {} kills -> recovery {:.0}%, mean MTTR {}, \
             {} mid-recovery kills, {} storms, {} give-ups; fabric dropped {} \
             delayed {} duplicated {} corrupted {}; digest {}",
            self.intensity,
            self.kills.len(),
            self.recovery_rate() * 100.0,
            self.mean_mttr(),
            self.recovery_kills,
            self.storms,
            self.gave_up,
            self.dropped,
            self.delayed,
            self.duplicated,
            self.corrupted,
            self.digest,
        );
        push_trace_loss(
            &mut line,
            "; ",
            self.trace_dropped,
            &self.trace_dropped_by_kind,
            " (timeline may be incomplete)",
        );
        line
    }
}

/// Runs the chaos campaign: boots a machine with the RTL8139 network stack
/// and a SATA disk, installs the driver-traffic chaos preset, then
/// repeatedly kills the network and block drivers (§7.1's crash-simulation
/// script) while the fabric misbehaves, measuring recovery rate and MTTR.
/// The booted [`Os`] comes back with the summary, so the caller can export
/// the trace and fold the recovery timeline of the exact run it describes.
pub fn run_chaos_campaign(cfg: &ChaosCampaignConfig) -> (ChaosCampaignResult, Os) {
    let mut plan = ChaosPlan::driver_traffic(cfg.intensity);
    if cfg.mid_recovery_kill {
        // Strike the first respawned network-driver incarnation 2 ms into
        // its life — recovery must survive a crash *during* recovery.
        plan = plan.kill_during_recovery(
            NameFilter::exact(names::ETH_RTL8139),
            0,
            1,
            SimDuration::from_millis(2),
        );
    }
    let mut os = Os::builder()
        .seed(cfg.seed)
        .with_network(NicKind::Rtl8139)
        .with_disk(4096, cfg.seed ^ 0x5eed, vec![])
        .heartbeat(SimDuration::from_millis(500), 3)
        .chaos(plan)
        .boot();
    spawn_udp_traffic(&mut os);
    os.run_for(SimDuration::from_millis(100));

    let kills = kill_net_and_block(&mut os, cfg.kills_per_target, cfg.kill_interval);
    // Drain in-flight recoveries before reading the counters.
    os.run_for(SimDuration::from_secs(2));
    let fossil = fossilize(&mut os, &[]);
    let m = os.metrics();
    let result = ChaosCampaignResult {
        intensity: cfg.intensity,
        kills,
        dropped: m.counter("chaos.dropped"),
        delayed: m.counter("chaos.delayed"),
        duplicated: m.counter("chaos.duplicated"),
        corrupted: m.counter("chaos.corrupted"),
        recovery_kills: m.counter("chaos.kills"),
        storms: m.counter("rs.storms"),
        gave_up: m.counter("rs.gave_up"),
        total_recoveries: m.counter("rs.recoveries"),
        trace_dropped: fossil.trace_dropped,
        trace_dropped_by_kind: fossil.trace_dropped_by_kind,
        digest: fossil.digest,
    };
    (result, os)
}
