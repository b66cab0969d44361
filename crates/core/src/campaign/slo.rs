//! SLO campaign: phase-attributed latency under open-loop load and chaos.

use std::cell::RefCell;
use std::rc::Rc;

use phoenix_fault::chaos::ChaosPlan;
use phoenix_simcore::obs::{phase, RequestRecord};
use phoenix_simcore::time::SimDuration;

use super::{
    fossilize, kill_net_and_block, push_trace_loss, recovery_rate, stream_file, ChaosKillRecord,
};
use crate::loadgen::{InetLoadConfig, InetLoadGen, LoadStatus, VfsJobMix, VfsLoadConfig};
use crate::os::{names, NicKind, Os};

/// Parameters of the SLO campaign: an open-loop INET client fleet plus a
/// multi-client VFS job mix run against a machine whose network and block
/// drivers are repeatedly killed (optionally under fabric chaos), with
/// every completed request attributed to steady state or a recovery
/// phase.
#[derive(Debug, Clone)]
pub struct SloCampaignConfig {
    /// Root seed.
    pub seed: u64,
    /// INET fleet tuning (session count, interarrival, sizes, linger).
    pub inet: InetLoadConfig,
    /// VFS job-mix tuning (client count, interarrival, chunk sizes).
    pub vfs: VfsLoadConfig,
    /// Chaos intensity for the `driver_traffic` preset; 0 disables the
    /// chaos layer entirely (pure kill campaign).
    pub intensity: f64,
    /// Kills per target driver (network and block, alternating).
    pub kills_per_target: u32,
    /// Virtual time between consecutive kills.
    pub kill_interval: SimDuration,
    /// Size of the on-disk file the VFS mix reads.
    pub file_size: u64,
}

impl Default for SloCampaignConfig {
    fn default() -> Self {
        SloCampaignConfig {
            seed: 2007,
            inet: InetLoadConfig::default(),
            vfs: VfsLoadConfig::default(),
            intensity: 0.3,
            kills_per_target: 2,
            kill_interval: SimDuration::from_secs(2),
            file_size: 256 * 1024,
        }
    }
}

/// Per-phase SLO row: latency percentiles, goodput and head-of-line
/// depth for one recovery phase (or steady state).
#[derive(Debug, Clone)]
pub struct SloPhaseRow {
    /// Phase name (`phoenix_simcore::obs::phase`).
    pub phase: String,
    /// Requests whose completion fell in this phase.
    pub requests: u64,
    /// Failed (or shed) requests attributed to this phase.
    pub failed: u64,
    /// Response payload bytes delivered in this phase.
    pub goodput_bytes: u64,
    /// Total virtual time spent in this phase across all episodes.
    pub phase_us: u64,
    /// Peak head-of-line depth (requests in flight) seen in this phase.
    pub hol_depth: u64,
    /// Successful-request latency samples behind the percentiles.
    pub samples: u64,
    /// Latency percentiles over successful requests, microseconds.
    pub p50_us: u64,
    /// See [`SloPhaseRow::p50_us`].
    pub p99_us: u64,
    /// See [`SloPhaseRow::p50_us`].
    pub p999_us: u64,
}

/// Aggregate SLO-campaign outcome.
#[derive(Debug, Clone, Default)]
pub struct SloCampaignResult {
    /// Chaos intensity the campaign ran at.
    pub intensity: f64,
    /// INET session slots the fleet multiplexed.
    pub sessions: u32,
    /// Every kill in order.
    pub kills: Vec<ChaosKillRecord>,
    /// Requests admitted (INET + VFS).
    pub started: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests that failed.
    pub failed: u64,
    /// Arrivals shed at a full slot backlog.
    pub shed: u64,
    /// Peak concurrently-open INET connections.
    pub peak_live: u64,
    /// The INET fleet drained every scheduled arrival.
    pub inet_drained: bool,
    /// The VFS mix drained every scheduled arrival.
    pub vfs_drained: bool,
    /// Recovery episodes the trace fold could not fully account for.
    pub unaccounted_episodes: u64,
    /// One row per phase that saw requests or wall time, in
    /// detection → repair → reintegration → replay → steady order.
    pub phases: Vec<SloPhaseRow>,
    /// Trace events lost to ring eviction (see [`super::ChaosCampaignResult`]).
    pub trace_dropped: u64,
    /// Per-event-kind breakdown of [`SloCampaignResult::trace_dropped`].
    pub trace_dropped_by_kind: Vec<(String, u64)>,
    /// MD5 over the canonical metrics dump (determinism handle).
    pub digest: String,
}

impl SloCampaignResult {
    /// Fraction of kills that recovered, in [0, 1].
    pub fn recovery_rate(&self) -> f64 {
        recovery_rate(&self.kills)
    }

    /// The row for a phase, if it saw requests or wall time.
    pub fn phase(&self, name: &str) -> Option<&SloPhaseRow> {
        self.phases.iter().find(|p| p.phase == name)
    }

    /// Renders the summary: one header line plus one line per phase.
    pub fn render(&self) -> String {
        let mut out = format!(
            "slo under chaos {:.2}: {} sessions, {} kills -> recovery {:.0}%; \
             {} started / {} completed / {} failed / {} shed, peak live {}; \
             digest {}",
            self.intensity,
            self.sessions,
            self.kills.len(),
            self.recovery_rate() * 100.0,
            self.started,
            self.completed,
            self.failed,
            self.shed,
            self.peak_live,
            self.digest,
        );
        push_trace_loss(
            &mut out,
            "; ",
            self.trace_dropped,
            &self.trace_dropped_by_kind,
            " (timeline may be incomplete)",
        );
        for p in &self.phases {
            out.push_str(&format!(
                "\n  {:<12} {:>8} req {:>6} failed  p50 {:>8}us p99 {:>8}us \
                 p999 {:>8}us  goodput {:>10} B  hol {:>4}  span {}",
                p.phase,
                p.requests,
                p.failed,
                p.p50_us,
                p.p99_us,
                p.p999_us,
                p.goodput_bytes,
                p.hol_depth,
                SimDuration::from_micros(p.phase_us),
            ));
        }
        out
    }
}

/// Runs the SLO campaign: boots the RTL8139 network stack and a SATA disk
/// carrying the job-mix file, spawns the open-loop INET fleet and the VFS
/// reader mix, then kills the network and block drivers in alternation
/// (under fabric chaos when `intensity > 0`) while the load keeps
/// arriving. After the load drains, the recovery timeline is folded and
/// every request is attributed to steady state or the phase its
/// completion fell into.
///
/// Checkpointing is deliberately left off: the campaign kills drivers
/// only (INET and VFS survive and keep their state), and per-dispatch
/// INET snapshots would be quadratic in the 10⁴-connection slab.
pub fn run_slo_campaign(cfg: &SloCampaignConfig) -> (SloCampaignResult, Os) {
    let mut builder = Os::builder()
        .seed(cfg.seed)
        .with_network(NicKind::Rtl8139)
        .with_disk(
            cfg.file_size / 512 + 256,
            cfg.seed ^ 0xd15c,
            stream_file(&cfg.vfs.path, cfg.file_size),
        )
        .heartbeat(SimDuration::from_millis(500), 3);
    if cfg.intensity > 0.0 {
        builder = builder.chaos(ChaosPlan::driver_traffic(cfg.intensity));
    }
    let mut os = builder.boot();

    let inet_status = Rc::new(RefCell::new(LoadStatus::default()));
    let vfs_status = Rc::new(RefCell::new(LoadStatus::default()));
    let inet = os.endpoint(names::INET).expect("inet up after boot");
    let vfs = os.endpoint(names::VFS).expect("vfs up after boot");
    os.spawn_app(
        "slo-inet-fleet",
        Box::new(InetLoadGen::new(
            inet,
            cfg.inet.clone(),
            inet_status.clone(),
        )),
    );
    os.spawn_app(
        "slo-vfs-mix",
        Box::new(VfsJobMix::new(vfs, cfg.vfs.clone(), vfs_status.clone())),
    );

    // Let the fleet ramp to steady state before the first kill, so the
    // steady-state row has samples to compare the recovery rows against.
    os.run_for(cfg.inet.ramp);
    let kills = kill_net_and_block(&mut os, u64::from(cfg.kills_per_target), cfg.kill_interval);

    // Drain: run until both generators report every scheduled arrival
    // admitted, shed or completed (bounded — a wedged run still returns,
    // with `*_drained` false in the result).
    os.run_until(SimDuration::from_millis(100), 600, |_| {
        inet_status.borrow().drained && vfs_status.borrow().drained
    });
    os.run_for(SimDuration::from_secs(1));

    // Join the request log against the folded timeline. The INET records
    // come first, then VFS — a fixed order, so two same-seed runs fold
    // byte-identically.
    let ist = inet_status.borrow();
    let vst = vfs_status.borrow();
    let requests: Vec<RequestRecord> = ist.records.iter().chain(&vst.records).copied().collect();
    let fossil = fossilize(&mut os, &requests);

    // Phase rows in recovery-first order; steady last as the baseline.
    let m = os.metrics();
    let order = [
        phase::DETECT,
        phase::REPAIR,
        phase::REINTEGRATE,
        phase::REPLAY,
        phase::STEADY,
    ];
    let mut phases = Vec::new();
    for ph in order {
        let requests = m.counter(&format!("slo.requests.{ph}"));
        let phase_us = m.counter(&format!("slo.phase_us.{ph}"));
        if requests == 0 && phase_us == 0 {
            continue;
        }
        let (samples, p50, p99, p999) =
            m.log_histogram(&format!("slo.latency.{ph}"))
                .map_or((0, 0, 0, 0), |h| {
                    (
                        h.count(),
                        h.quantile(0.5).unwrap_or(0),
                        h.quantile(0.99).unwrap_or(0),
                        h.quantile(0.999).unwrap_or(0),
                    )
                });
        phases.push(SloPhaseRow {
            phase: ph.to_string(),
            requests,
            failed: m.counter(&format!("slo.failed.{ph}")),
            goodput_bytes: m.counter(&format!("slo.goodput_bytes.{ph}")),
            phase_us,
            hol_depth: m.counter(&format!("slo.hol_depth.{ph}")),
            samples,
            p50_us: p50,
            p99_us: p99,
            p999_us: p999,
        });
    }
    let result = SloCampaignResult {
        intensity: cfg.intensity,
        sessions: cfg.inet.sessions,
        kills,
        started: ist.started + vst.started,
        completed: ist.completed + vst.completed,
        failed: ist.failed + vst.failed,
        shed: ist.shed + vst.shed,
        peak_live: ist.peak_live,
        inet_drained: ist.drained,
        vfs_drained: vst.drained,
        unaccounted_episodes: fossil.timeline.unaccounted().len() as u64,
        phases,
        trace_dropped: fossil.trace_dropped,
        trace_dropped_by_kind: fossil.trace_dropped_by_kind,
        digest: fossil.digest,
    };
    (result, os)
}
