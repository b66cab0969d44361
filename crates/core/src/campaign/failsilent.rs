//! Fail-silent campaign: mutations that do NOT crash the driver.

use std::cell::RefCell;
use std::rc::Rc;

use phoenix_simcore::time::SimDuration;

use super::{
    await_recovered, defect_counts, fossilize, push_trace_loss, ratio, spawn_udp_traffic,
    stream_file, user_restart, watch_window, Outcome,
};
use crate::apps::{DdLoop, DdLoopStatus, LpdLoop, LpdLoopStatus, UdpStatus};
use crate::os::{names, NicKind, Os};

/// Virtual time between an injection and the first classification check
/// (the mutation needs live traffic to take effect).
const INJECTION_INTERVAL: SimDuration = SimDuration::from_millis(20);

/// The three driver classes the fail-silent campaign mutates, with the
/// workload class that observes each one.
const FAILSILENT_TARGETS: [(&str, &str); 3] = [
    ("net", names::ETH_DP8390),
    ("block", names::BLK_SATA),
    ("char", names::CHR_PRINTER),
];

/// Parameters of the fail-silent detection campaign.
#[derive(Debug, Clone)]
pub struct FailsilentConfig {
    /// Root seed; the whole campaign is a pure function of it.
    pub seed: u64,
    /// Injection rounds. Each round mutates every driver class once.
    pub rounds: u64,
    /// How long an injected driver may sit endpoint-stable with a frozen
    /// workload before we declare the defect *fail-silent survived*. Must
    /// exceed every detector's horizon (MFS deadline 5 s, kernel progress
    /// watchdog 8 s, RS audit 750 ms) so "survived" means "survived all
    /// of them".
    pub detect_window: SimDuration,
    /// With `false`, boots the machine via
    /// [`crate::os::OsBuilder::without_sentinels`]: the crash-only
    /// baseline arm (heartbeats and exceptions still fire; protocol
    /// sentinels, babble guards and RS guard polling do not).
    pub sentinels: bool,
}

impl Default for FailsilentConfig {
    fn default() -> Self {
        FailsilentConfig {
            seed: 2007,
            rounds: 40,
            detect_window: SimDuration::from_secs(10),
            sentinels: true,
        }
    }
}

impl FailsilentConfig {
    /// CI-sized variant (seconds, not minutes).
    pub fn quick(mut self) -> Self {
        self.rounds = 8;
        self
    }
}

/// Per-driver-class outcome counts.
#[derive(Debug, Clone, Default)]
pub struct FailsilentClassStats {
    /// Workload class ("net" / "block" / "char").
    pub class: String,
    /// Driver service name.
    pub driver: String,
    /// Mutations actually applied to this driver.
    pub injections: u64,
    /// Defects detected by the system (any RS defect class) and followed
    /// by a successful restart attempt.
    pub detected: u64,
    /// Detected defects where complaint evidence participated.
    pub sentinel_detected: u64,
    /// Detected defects where ONLY the complaint counter moved: the
    /// crash-only detectors (exit / exception / heartbeat) saw nothing,
    /// so these are coverage strictly beyond the baseline.
    pub sentinel_only: u64,
    /// Mutations that froze the workload yet survived the whole detect
    /// window unnoticed; the user restarts the driver by hand (§5.1
    /// input 3). These are the defects the paper calls fail-silent.
    pub fail_silent: u64,
    /// Rounds that exhausted their mutation budget with every mutation
    /// shrugged off (progress continued, no detector fired). Individual
    /// benign mutations inside a round are visible as `injections` minus
    /// the round outcomes.
    pub benign: u64,
    /// Detected or user-restarted drivers that did not come back up
    /// within the recovery guard.
    pub unrecovered: u64,
}

/// Outcome of [`run_failsilent_campaign`].
#[derive(Debug, Clone, Default)]
pub struct FailsilentResult {
    /// Whether the sentinel layers were armed (vs the baseline arm).
    pub sentinels: bool,
    /// One entry per driver class, in [`FAILSILENT_TARGETS`] order.
    pub classes: Vec<FailsilentClassStats>,
    /// Trace events lost to ring eviction (0 means the folded timeline
    /// in the digest is complete).
    pub trace_dropped: u64,
    /// Per-event-kind breakdown of [`FailsilentResult::trace_dropped`].
    pub trace_dropped_by_kind: Vec<(String, u64)>,
    /// MD5 over the canonical metrics dump — byte-identical across two
    /// same-seed runs.
    pub digest: String,
}

impl FailsilentResult {
    fn sum(&self, f: impl Fn(&FailsilentClassStats) -> u64) -> u64 {
        self.classes.iter().map(f).sum()
    }

    /// Total mutations applied.
    pub fn injections(&self) -> u64 {
        self.sum(|c| c.injections)
    }

    /// Total system-detected defects.
    pub fn detected(&self) -> u64 {
        self.sum(|c| c.detected)
    }

    /// Detections invisible to the crash-only baseline.
    pub fn sentinel_only(&self) -> u64 {
        self.sum(|c| c.sentinel_only)
    }

    /// Fail-silent survivors (user had to restart by hand).
    pub fn fail_silent(&self) -> u64 {
        self.sum(|c| c.fail_silent)
    }

    /// Mutations the workloads shrugged off.
    pub fn benign(&self) -> u64 {
        self.sum(|c| c.benign)
    }

    /// Restarts that did not complete within the guard.
    pub fn unrecovered(&self) -> u64 {
        self.sum(|c| c.unrecovered)
    }

    /// Detected / (detected + fail-silent), in [0, 1]. Benign mutations
    /// are excluded: there was nothing to detect.
    pub fn coverage(&self) -> f64 {
        ratio(self.detected(), self.detected() + self.fail_silent())
    }

    /// Coverage with the sentinel-only detections reclassified as misses:
    /// what the crash-only baseline would have scored on the same defect
    /// population.
    pub fn crash_only_coverage(&self) -> f64 {
        ratio(
            self.detected() - self.sentinel_only(),
            self.detected() + self.fail_silent(),
        )
    }

    /// Renders the per-class table plus the coverage summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for c in &self.classes {
            out.push_str(&format!(
                "{:<5} {:<12} inj {:>3}: detected {:>3} (sentinel {:>3}, \
                 sentinel-only {:>3}), fail-silent {:>3}, benign {:>3}, \
                 unrecovered {}\n",
                c.class,
                c.driver,
                c.injections,
                c.detected,
                c.sentinel_detected,
                c.sentinel_only,
                c.fail_silent,
                c.benign,
                c.unrecovered,
            ));
        }
        out.push_str(&format!(
            "coverage {:.1}% (crash-only baseline {:.1}%); digest {}",
            self.coverage() * 100.0,
            self.crash_only_coverage() * 100.0,
            self.digest,
        ));
        push_trace_loss(
            &mut out,
            "; ",
            self.trace_dropped,
            &self.trace_dropped_by_kind,
            "",
        );
        out
    }
}

/// Outcome of [`run_failsilent_control`]: the no-fault arm. Anything RS
/// restarted here is by definition a false restart of a healthy driver.
#[derive(Debug, Clone, Default)]
pub struct FailsilentControl {
    /// Recoveries RS executed (must be 0).
    pub restarts: u64,
    /// Complaints RS accepted (must be 0 — healthy drivers never accrue
    /// evidence).
    pub complaints_accepted: u64,
    /// Net datagrams echoed end to end (liveness floor).
    pub echoed: u64,
    /// Bytes the block workload read (liveness floor).
    pub disk_bytes: u64,
    /// Bytes the printer driver accepted (liveness floor).
    pub printed: u64,
    /// Same determinism fingerprint as the campaign's.
    pub digest: String,
}

/// The always-on workloads, one per driver class. Their monotone
/// odometers are how the campaign tells "driver quietly dead" from
/// "mutation was benign".
struct Workloads {
    udp: Rc<RefCell<UdpStatus>>,
    dd: Rc<RefCell<DdLoopStatus>>,
    lpd: Rc<RefCell<LpdLoopStatus>>,
}

impl Workloads {
    /// Progress of the workload watching [`FAILSILENT_TARGETS`]`[class]`.
    fn progress(&self, class: usize) -> u64 {
        match class {
            0 => self.udp.borrow().echoed,
            1 => self.dd.borrow().bytes,
            _ => self.lpd.borrow().accepted,
        }
    }
}

/// Boots the three-class machine with one always-on workload per driver
/// class.
fn failsilent_rig(cfg: &FailsilentConfig) -> (Os, Workloads) {
    let file_size = 256 * 1024u64;
    let mut builder = Os::builder()
        .seed(cfg.seed)
        .with_network(NicKind::Dp8390)
        .with_disk(
            file_size / 512 + 256,
            cfg.seed ^ 0xd15c,
            stream_file("stream", file_size),
        )
        .with_chardevs()
        .heartbeat(SimDuration::from_millis(500), 2);
    if !cfg.sentinels {
        builder = builder.without_sentinels();
    }
    let mut os = builder.boot();
    let vfs = os.endpoint(names::VFS).expect("vfs up after boot");

    let udp = spawn_udp_traffic(&mut os);
    let dd = Rc::new(RefCell::new(DdLoopStatus::default()));
    os.spawn_app(
        "dd-loop",
        Box::new(DdLoop::new(vfs, "stream", 16 * 1024, dd.clone())),
    );
    let lpd = Rc::new(RefCell::new(LpdLoopStatus::default()));
    let page: Vec<u8> = (0..512u32).map(|i| (i * 7 + 13) as u8).collect();
    os.spawn_app("lpd-loop", Box::new(LpdLoop::new(vfs, page, lpd.clone())));
    os.run_for(SimDuration::from_millis(200));
    (os, Workloads { udp, dd, lpd })
}

/// Runs the fail-silent campaign: round-robin §7.2 mutations over the
/// net, block and char drivers while one workload per class keeps their
/// hot paths busy, classifying every injection as detected-and-recovered,
/// fail-silent-survived, or benign. Hands back the booted [`Os`] so
/// callers can inspect `sentinel.*` / `rs.complaints.*` counters and the
/// folded recovery timeline.
pub fn run_failsilent_campaign(cfg: &FailsilentConfig) -> (FailsilentResult, Os) {
    let (mut os, loads) = failsilent_rig(cfg);
    let poll = SimDuration::from_millis(100);
    let mut classes: Vec<FailsilentClassStats> = FAILSILENT_TARGETS
        .iter()
        .map(|(class, driver)| FailsilentClassStats {
            class: class.to_string(),
            driver: driver.to_string(),
            ..FailsilentClassStats::default()
        })
        .collect();

    for _ in 0..cfg.rounds {
        for (i, (_, driver)) in FAILSILENT_TARGETS.iter().enumerate() {
            let stats = &mut classes[i];
            // Make sure the victim is actually up before mutating it.
            os.run_until(poll, 300, |os| os.is_up(driver));
            let Some(before) = os.endpoint(driver) else {
                stats.unrecovered += 1;
                continue;
            };
            let counts_before = defect_counts(&os);

            // §7.2's method, per class: "repeatedly injected 1 randomly
            // selected fault into the running driver until it crashed" —
            // here, until any detector fires (endpoint replaced) or the
            // workload freezes with no detection (fail-silent). Most
            // single mutations land in cold code and change nothing; the
            // paper needed ~36 per visible defect.
            let mut outcome = Outcome::Benign;
            let mut mutations = 0u64;
            while outcome == Outcome::Benign && mutations < 200 {
                if os.endpoint(driver) != Some(before) {
                    // A previous mutation's defect surfaced late.
                    outcome = Outcome::Detected;
                    break;
                }
                if os.inject_fault(driver).is_none() {
                    break;
                }
                mutations += 1;
                stats.injections += 1;
                os.run_for(INJECTION_INTERVAL);
                let p0 = loads.progress(i);
                outcome = watch_window(
                    &mut os,
                    driver,
                    before,
                    cfg.detect_window,
                    poll,
                    poll,
                    || loads.progress(i) > p0,
                );
            }

            match outcome {
                Outcome::Benign => stats.benign += 1,
                Outcome::Detected => {
                    let recovered = await_recovered(&mut os, driver, before);
                    let after = defect_counts(&os);
                    // exit, exception, killed, heartbeat — everything
                    // the crash-only baseline can see.
                    let crash_classes_moved = (0..4).any(|k| after[k] > counts_before[k]);
                    stats.detected += 1;
                    if after[4] > counts_before[4] {
                        stats.sentinel_detected += 1;
                        if !crash_classes_moved {
                            stats.sentinel_only += 1;
                        }
                    }
                    if !recovered {
                        stats.unrecovered += 1;
                    }
                }
                Outcome::FailSilent => {
                    stats.fail_silent += 1;
                    if !user_restart(&mut os, driver, before) {
                        stats.unrecovered += 1;
                    }
                }
            }
            // Let the workloads re-establish before the next mutation.
            os.run_for(poll);
        }
    }

    // Drain, then fossilize the timeline and trace-loss into the digest.
    os.run_for(SimDuration::from_secs(1));
    let fossil = fossilize(&mut os, &[]);
    let result = FailsilentResult {
        sentinels: cfg.sentinels,
        classes,
        trace_dropped: fossil.trace_dropped,
        trace_dropped_by_kind: fossil.trace_dropped_by_kind,
        digest: fossil.digest,
    };
    (result, os)
}

/// Runs the no-fault control arm: the same machine and workloads, zero
/// injections, fixed virtual duration. With the sentinels armed, every
/// restart or accepted complaint it reports is a false positive.
pub fn run_failsilent_control(cfg: &FailsilentConfig, run_for: SimDuration) -> FailsilentControl {
    let (mut os, loads) = failsilent_rig(cfg);
    os.run_for(run_for);
    let digest = fossilize(&mut os, &[]).digest;
    FailsilentControl {
        restarts: os.metrics().counter("rs.recoveries"),
        complaints_accepted: os.metrics().counter("rs.complaints.accepted"),
        echoed: loads.progress(0),
        disk_bytes: loads.progress(1),
        printed: loads.progress(2),
        digest,
    }
}
