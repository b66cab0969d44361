//! The §7 campaign families: kill or mutate a component, watch the
//! system recover, fossilize what happened into a same-seed digest.
//!
//! Each family lives in its own file and holds only what is genuinely
//! its own — config, fault plan, result rows: [`sec72`](run_campaign)
//! injects until the driver crashes, [`chaos`](run_chaos_campaign) and
//! [`slo`](run_slo_campaign) kill on a schedule,
//! [`ckpt`](run_ckpt_campaign) and [`standby`](run_standby_campaign)
//! stream through the char drivers, [`failsilent`](run_failsilent_campaign)
//! and [`microreboot`](run_microreboot_campaign) mutate until a detector
//! fires or the workload freezes. What they share has exactly one
//! definition, in this file: the scripted-kill schedule, the
//! detected/benign/fail-silent window, the background-traffic and
//! char-stream rigs with their device oracle, and the fossilize step that
//! turns a finished run into a digest. Every wait in here is one
//! [`Os::run_until`].

use std::cell::RefCell;
use std::rc::Rc;

use phoenix_hw::chardev::{AudioDac, Printer};
use phoenix_kernel::types::Endpoint;
use phoenix_servers::fsfmt::{FileContent, FileSpec};
use phoenix_servers::policy::reason;
use phoenix_simcore::digest::Md5;
use phoenix_simcore::obs::{RequestRecord, Timeline};
use phoenix_simcore::time::SimDuration;

use crate::apps::{CkptLpd, CkptLpdStatus, CkptMp3Player, CkptMp3Status, UdpPing, UdpStatus};
use crate::os::{hwmap, names, Os};

mod chaos;
mod ckpt;
mod failsilent;
mod microreboot;
mod sec72;
mod slo;
mod standby;

pub use chaos::*;
pub use ckpt::*;
pub use failsilent::*;
pub use microreboot::*;
pub use sec72::*;
pub use slo::*;
pub use standby::*;

// ------------------------------------------------------------------------
// Fossilize: fold a finished run into the digest-covered registry.

/// Fossilizes the trace ring's loss accounting into the digest-covered
/// registry: the total plus one `trace.dropped.{kind}` gauge per evicted
/// event kind, so high-volume request events can't silently evict
/// recovery events without the digest noticing. Returns the total and
/// the per-kind breakdown for the campaign's warning line.
pub fn fossilize_trace_loss(os: &mut Os) -> (u64, Vec<(String, u64)>) {
    let dropped = os.trace_dropped();
    let by_kind = os.trace_dropped_by_kind();
    os.metrics_mut().add("trace.dropped", dropped);
    for (kind, n) in &by_kind {
        os.metrics_mut().add(&format!("trace.dropped.{kind}"), *n);
    }
    (dropped, by_kind)
}

/// MD5 over the sorted counter dump: the determinism fingerprint of a run.
pub fn metrics_digest(os: &Os) -> String {
    let mut md5 = Md5::new();
    os.metrics().digest_counters(&mut md5);
    md5.finish_hex()
}

/// What [`fossilize`] leaves behind for the result rows.
struct Fossil {
    /// The folded recovery timeline the phase metrics came from.
    timeline: Timeline,
    /// Trace events lost to ring eviction (0 = complete timeline).
    trace_dropped: u64,
    /// Per-event-kind breakdown of `trace_dropped`.
    trace_dropped_by_kind: Vec<(String, u64)>,
    /// [`metrics_digest`] of the run, taken after everything below landed.
    digest: String,
}

/// Ends a run: folds the trace into per-episode phase timings, joins
/// `requests` against them (the SLO family's per-phase latency rows;
/// empty for everyone else), fossilizes both — and the ring's loss
/// counter — as metrics, then fingerprints the registry. Phase MTTRs thus
/// land in the same digest as every other counter.
fn fossilize(os: &mut Os, requests: &[RequestRecord]) -> Fossil {
    let timeline = os.timeline();
    timeline.record_into(os.metrics_mut());
    timeline.record_requests_into(requests, os.metrics_mut());
    let (trace_dropped, trace_dropped_by_kind) = fossilize_trace_loss(os);
    Fossil {
        timeline,
        trace_dropped,
        trace_dropped_by_kind,
        digest: metrics_digest(os),
    }
}

/// Appends `{lead}WARNING: N trace events lost (kind n, ...){tail}` to a
/// render when the ring evicted anything; a complete trace adds nothing.
fn push_trace_loss(
    out: &mut String,
    lead: &str,
    dropped: u64,
    by_kind: &[(String, u64)],
    tail: &str,
) {
    if dropped == 0 {
        return;
    }
    let parts: Vec<String> = by_kind.iter().map(|(k, n)| format!("{k} {n}")).collect();
    let breakdown = if parts.is_empty() {
        String::new()
    } else {
        format!(" ({})", parts.join(", "))
    };
    out.push_str(&format!(
        "{lead}WARNING: {dropped} trace events lost{breakdown}{tail}"
    ));
}

// ------------------------------------------------------------------------
// Defect classes: who noticed.

const DEFECTS: [u8; 6] = [
    reason::EXIT,
    reason::EXCEPTION,
    reason::KILLED,
    reason::HEARTBEAT,
    reason::COMPLAINT,
    reason::UPDATE,
];

/// The `rs.defect.*` counters in [`DEFECTS`] order; a before/after delta
/// says which detector fired.
fn defect_counts(os: &Os) -> [u64; 6] {
    DEFECTS.map(|d| os.metrics().counter(reason::counter(d)))
}

// ------------------------------------------------------------------------
// Waiting for RS, and the scripted-kill schedule.

/// Waits for RS to replace the `before` incarnation of `service`.
fn await_fresh(
    os: &mut Os,
    service: &str,
    before: Endpoint,
    step: SimDuration,
    max_steps: u64,
) -> bool {
    os.run_until(step, max_steps, |os| {
        os.endpoint(service).is_some_and(|ep| ep != before)
    })
}

/// One kill and its observed recovery.
#[derive(Debug, Clone)]
pub struct ChaosKillRecord {
    /// Service killed.
    pub target: String,
    /// Whether a fresh incarnation came up within the grace period.
    pub recovered: bool,
    /// Time from the kill to the fresh incarnation (mean time to repair).
    pub mttr: SimDuration,
}

/// `part / whole` in [0, 1]; an empty population scores 1 (nothing to
/// miss).
fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        return 1.0;
    }
    part as f64 / whole as f64
}

/// Fraction of kills that recovered, in [0, 1].
fn recovery_rate(kills: &[ChaosKillRecord]) -> f64 {
    let recovered = kills.iter().filter(|k| k.recovered).count();
    ratio(recovered as u64, kills.len() as u64)
}

/// One scripted kill (§7.1's crash-simulation script): waits for the
/// target to be up — it may still be inside a lengthened recovery from
/// the previous round — kills it in the name of the user, waits for the
/// fresh incarnation, then lets the system settle. Both waits poll every
/// 10 ms for at most `grace_steps`.
fn scripted_kill(
    os: &mut Os,
    target: &str,
    grace_steps: u64,
    settle: SimDuration,
) -> ChaosKillRecord {
    let poll = SimDuration::from_millis(10);
    os.run_until(poll, grace_steps, |os| os.is_up(target));
    let Some(before) = os.endpoint(target) else {
        return ChaosKillRecord {
            target: target.to_string(),
            recovered: false,
            mttr: SimDuration::ZERO,
        };
    };
    let t0 = os.now();
    os.kill_by_user(target);
    let recovered = await_fresh(os, target, before, poll, grace_steps);
    let mttr = os.now().since(t0);
    os.run_for(settle);
    ChaosKillRecord {
        target: target.to_string(),
        recovered,
        mttr,
    }
}

/// The kill schedule of the chaos and SLO campaigns: `rounds` times the
/// RTL8139 network driver, then the SATA block driver.
fn kill_net_and_block(os: &mut Os, rounds: u64, settle: SimDuration) -> Vec<ChaosKillRecord> {
    let mut kills = Vec::new();
    for _ in 0..rounds {
        for target in [names::ETH_RTL8139, names::BLK_SATA] {
            kills.push(scripted_kill(os, target, 3000, settle));
        }
    }
    kills
}

// ------------------------------------------------------------------------
// The mutation window: detected, benign, or fail-silent.

/// How one injected defect ended.
#[derive(PartialEq)]
enum Outcome {
    /// Some detector fired: RS replaced the incarnation.
    Detected,
    /// The workload kept going and nobody complained.
    Benign,
    /// The workload froze and every detector stayed quiet for the whole
    /// window — what the paper calls fail-silent (§3).
    FailSilent,
}

/// Watches `service` after a mutation, polling every `poll`: the
/// endpoint (any detector fired -> RS replaced the incarnation) against
/// `shrugged_off` (the workload made it past the mutation). Progress can
/// race a complaint quorum that is still accumulating, so the arbiter
/// gets `beat` more before the mutation is called benign. An
/// endpoint-stable, frozen `window` is the fail-silent verdict.
fn watch_window(
    os: &mut Os,
    service: &str,
    before: Endpoint,
    window: SimDuration,
    poll: SimDuration,
    beat: SimDuration,
    mut shrugged_off: impl FnMut() -> bool,
) -> Outcome {
    let started = os.now();
    loop {
        if os.endpoint(service) != Some(before) {
            return Outcome::Detected;
        }
        if shrugged_off() {
            os.run_for(beat);
            return if os.endpoint(service) != Some(before) {
                Outcome::Detected
            } else {
                Outcome::Benign
            };
        }
        if os.now().since(started) >= window {
            return Outcome::FailSilent;
        }
        os.run_for(poll);
    }
}

/// Waits (up to 30 s) for the replacement of a detected or user-restarted
/// component.
fn await_recovered(os: &mut Os, service: &str, before: Endpoint) -> bool {
    await_fresh(os, service, before, SimDuration::from_millis(100), 300)
}

/// Undetected by every layer: the §5.1-input-3 user notices the frozen
/// workload and restarts the component by hand.
fn user_restart(os: &mut Os, service: &str, before: Endpoint) -> bool {
    os.service_restart(service);
    await_recovered(os, service, before)
}

// ------------------------------------------------------------------------
// Rigs: background traffic, and the char-device streams with their oracle.

/// Background datagram period of [`spawn_udp_traffic`]'s pinger.
const TRAFFIC_PERIOD: SimDuration = SimDuration::from_millis(5);

/// Spawns the always-on datagram pinger that keeps a network driver's
/// hot paths executing, so mutations, drops and corruptions actually
/// have something to hit.
fn spawn_udp_traffic(os: &mut Os) -> Rc<RefCell<UdpStatus>> {
    let status = Rc::new(RefCell::new(UdpStatus::default()));
    let inet = os.endpoint(names::INET).expect("inet up after boot");
    os.spawn_app(
        "udp-traffic",
        Box::new(UdpPing::new(
            inet,
            2_000_000,
            TRAFFIC_PERIOD,
            status.clone(),
        )),
    );
    status
}

/// The one synthetic file the disk-backed workloads read.
fn stream_file(name: &str, size: u64) -> Vec<FileSpec> {
    vec![FileSpec {
        name: name.to_string(),
        content: FileContent::Synthetic { size },
    }]
}

/// Deterministic pattern for the print job: a pure function of the seed,
/// so the byte-exactness oracle can regenerate it.
pub fn ckpt_print_job(seed: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (seed.wrapping_mul(31).wrapping_add(i as u64 * 131) >> 3) as u8)
        .collect()
}

/// One audio block: 25 ms of CD stereo audio.
const AUDIO_BLOCK_BYTES: usize = 4410;
const AUDIO_BLOCK_PERIOD: SimDuration = SimDuration::from_millis(25);

/// The checkpointed print job and paced audio stream that the ckpt and
/// standby campaigns run through the char drivers.
struct CkptStreams {
    lpd: Rc<RefCell<CkptLpdStatus>>,
    mp3: Rc<RefCell<CkptMp3Status>>,
}

impl CkptStreams {
    fn spawn(os: &mut Os, job: Vec<u8>, audio_blocks: u64) -> CkptStreams {
        let vfs = os.endpoint(names::VFS).expect("vfs up after boot");
        let lpd = Rc::new(RefCell::new(CkptLpdStatus::default()));
        let mp3 = Rc::new(RefCell::new(CkptMp3Status::default()));
        os.spawn_app("ckpt-lpd", Box::new(CkptLpd::new(vfs, job, lpd.clone())));
        os.spawn_app(
            "ckpt-mp3",
            Box::new(CkptMp3Player::new(
                vfs,
                audio_blocks,
                AUDIO_BLOCK_BYTES,
                AUDIO_BLOCK_PERIOD,
                mp3.clone(),
            )),
        );
        CkptStreams { lpd, mp3 }
    }

    /// Both workloads acked by their drivers to the last byte.
    fn done(&self) -> bool {
        self.lpd.borrow().done && self.mp3.borrow().done
    }

    /// Errors that surfaced to the applications (must be 0).
    fn app_errors(&self) -> u64 {
        self.lpd.borrow().app_errors + self.mp3.borrow().app_errors
    }

    /// Log replays the applications performed (transparent).
    fn replays(&self) -> u64 {
        self.lpd.borrow().replays + self.mp3.borrow().replays
    }
}

/// Bytes the DAC played (device oracle).
fn samples_played(os: &mut Os) -> u64 {
    os.device_mut::<AudioDac>(hwmap::AUDIO)
        .map_or(0, |d| d.samples_played())
}

/// Bytes the printer committed to paper (device oracle).
fn printed_bytes(os: &mut Os) -> u64 {
    os.device_mut::<Printer>(hwmap::PRINTER)
        .map_or(0, |p| p.printed().len() as u64)
}

/// The printed stream equals `job` byte-for-byte — no duplicated page,
/// no lost line.
fn printer_byte_exact(os: &mut Os, job: &[u8]) -> bool {
    os.device_mut::<Printer>(hwmap::PRINTER)
        .is_some_and(|p| p.printed() == job)
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use phoenix_kernel::chaos::{ChaosInterposer, ChaosVerdict, IpcClass, IpcEnvelope};
    use phoenix_servers::policy::AdaptParam;
    use phoenix_simcore::rng::SimRng;
    use phoenix_simcore::time::SimTime;

    use super::*;

    /// When RS pinged each guarded service. RS's one-way messages to a
    /// guarded service are its heartbeat pings; PM's liveness ping and a
    /// warm spare's `standby.*` start order are the others, and are left
    /// out. Every delivery passes through untouched.
    struct PingLog(Rc<RefCell<BTreeMap<String, Vec<SimTime>>>>);

    impl ChaosInterposer for PingLog {
        fn on_ipc(&mut self, now: SimTime, env: &IpcEnvelope<'_>, _: &mut SimRng) -> ChaosVerdict {
            let to = env.to_name;
            if env.from_name == "rs"
                && env.class == IpcClass::Send
                && to != "pm"
                && !to.starts_with("standby.")
            {
                let mut log = self.0.borrow_mut();
                log.entry(to.to_string()).or_default().push(now);
            }
            ChaosVerdict::Deliver
        }
    }

    /// Runs `os` for `d` with no fault and returns, per pinged service,
    /// the intervals between its consecutive pings.
    fn ping_intervals(os: &mut Os, d: SimDuration) -> BTreeMap<String, Vec<SimDuration>> {
        let log = Rc::new(RefCell::new(BTreeMap::new()));
        os.set_chaos(Box::new(PingLog(log.clone())));
        os.run_for(d);
        os.clear_chaos();
        let log = log.borrow();
        log.iter()
            .map(|(name, at)| {
                let gaps = at.windows(2).map(|w| w[1].since(w[0])).collect();
                (name.clone(), gaps)
            })
            .collect()
    }

    /// The heartbeat period RS reports for `service`.
    fn reported_period(os: &Os, service: &str) -> SimDuration {
        let gauge = AdaptParam::HeartbeatPeriod.gauge(service);
        SimDuration::from_micros(os.metrics().counter(&gauge))
    }

    /// The microreboot rig and the standby rig with and without the adapt
    /// rules, each with its heartbeat-guarded drivers. All three rigs
    /// configure a 500 ms period.
    fn rigs(with_adapt: bool) -> Vec<(&'static str, Os, Vec<&'static str>)> {
        let standby = |adapt| {
            let cfg = StandbyCampaignConfig {
                faults: 2,
                adapt,
                ..StandbyCampaignConfig::default()
            };
            standby::standby_rig(&cfg).0
        };
        // Checkpointing brings the character devices.
        let chardevs = vec![
            names::CHR_AUDIO,
            names::CHR_KBD,
            names::CHR_PRINTER,
            names::CHR_SCSI,
        ];
        let mut disk_and_nic = vec![names::BLK_SATA];
        disk_and_nic.extend(&chardevs);
        disk_and_nic.push(names::ETH_DP8390);
        let mut rigs = vec![
            (
                "microreboot",
                microreboot::microreboot_rig(&MicrorebootConfig::default()).os,
                disk_and_nic,
            ),
            ("standby", standby(false), chardevs.clone()),
        ];
        if with_adapt {
            rigs.push(("standby with adapt", standby(true), chardevs));
        }
        rigs
    }

    #[test]
    fn rs_pings_every_guarded_driver_at_its_configured_period() {
        for (rig, mut os, drivers) in rigs(false) {
            let pings = ping_intervals(&mut os, SimDuration::from_secs(6));
            assert_eq!(pings.keys().cloned().collect::<Vec<_>>(), drivers, "{rig}");
            for (driver, gaps) in &pings {
                assert!(gaps.len() >= 10, "{rig}: {driver} pinged {gaps:?}");
                for gap in gaps {
                    assert_eq!(*gap, SimDuration::from_millis(500), "{rig}: {driver}");
                }
            }
        }
    }

    #[test]
    fn reported_heartbeat_period_is_the_observed_interval() {
        for (rig, mut os, drivers) in rigs(true) {
            // Long enough for the adapt rule to settle at its clamp edge
            // and ping twice there.
            let pings = ping_intervals(&mut os, SimDuration::from_secs(10));
            for driver in drivers {
                let last = pings[driver].last().copied();
                let reported = reported_period(&os, driver);
                assert_eq!(Some(reported), last, "{rig}: {driver}");
            }
        }
    }
}
