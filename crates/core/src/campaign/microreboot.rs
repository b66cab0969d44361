//! Microreboot campaign: crash-only system servers under mutation.

use std::cell::RefCell;
use std::rc::Rc;

use phoenix_servers::ServerFault;
use phoenix_simcore::obs::RECOVERY_PHASES;
use phoenix_simcore::time::SimDuration;

use super::{
    await_recovered, fossilize, push_trace_loss, ratio, spawn_udp_traffic, stream_file,
    user_restart, watch_window, Outcome,
};
use crate::apps::{Dd, DdStatus, UdpStatus, Wget, WgetStatus};
use crate::os::{names, NicKind, Os};

/// The four system servers the microreboot campaign mutates. PM is not in
/// the RS service table — its recovery is the *recursive* path where RS
/// spawns the replacement itself.
const MICROREBOOT_TARGETS: [&str; 4] = [names::VFS, names::MFS, names::INET, "pm"];

/// RS's counters of the recursive ladder's rungs, bottom up: microreboot,
/// dependency-group reboot, storm.
const ESCALATION_COUNTERS: [&str; 3] = [
    "rs.escalations.level1",
    "rs.escalations.level2",
    "rs.escalations.level3",
];

/// Parameters of the server-microreboot campaign.
#[derive(Debug, Clone)]
pub struct MicrorebootConfig {
    /// Root seed; the whole campaign is a pure function of it.
    pub seed: u64,
    /// Injection rounds. Each round mutates every system server once.
    pub rounds: u64,
    /// How long a mutated server may sit endpoint-stable before the
    /// defect is declared *fail-silent survived*. Must exceed every
    /// detector's horizon: the kernel request-age guard (8 s) plus one
    /// RS audit period, and three missed PM liveness pings.
    pub detect_window: SimDuration,
}

/// Warn when a server's externalized session state exceeds this many
/// bytes in the DS snapshot store — crash-only restarts are only cheap
/// while the state that must be rehydrated stays small.
pub const SNAPSHOT_CAP_BYTES: u64 = 16 * 1024;

impl Default for MicrorebootConfig {
    fn default() -> Self {
        MicrorebootConfig {
            seed: 2007,
            rounds: 10,
            detect_window: SimDuration::from_secs(12),
        }
    }
}

impl MicrorebootConfig {
    /// CI-sized variant (seconds, not minutes).
    pub fn quick(mut self) -> Self {
        self.rounds = 3;
        self
    }
}

/// Per-server outcome counts.
#[derive(Debug, Clone, Default)]
pub struct MicrorebootServerStats {
    /// Server name ("vfs" / "mfs" / "inet" / "pm").
    pub server: String,
    /// Mutations applied to this server.
    pub injections: u64,
    /// Injected defect mix.
    pub crashes: u64,
    /// Wedge defects (server swallows events without crashing).
    pub stalls: u64,
    /// Corruption defects (server garbles its replies).
    pub garbles: u64,
    /// Defects some detector noticed: the incarnation was replaced
    /// within the detect window.
    pub detected: u64,
    /// Detected rounds whose observer job still finished byte-exact
    /// with zero application-visible errors (microreboot transparency).
    pub transparent: u64,
    /// Mutations that froze the system yet survived the whole window
    /// unnoticed; the user restarts the server by hand.
    pub fail_silent: u64,
    /// Mutations that visibly changed nothing inside the window.
    pub benign: u64,
    /// Detected or user-restarted servers that did not come back up.
    pub unrecovered: u64,
}

/// Outcome of [`run_microreboot_campaign`].
#[derive(Debug, Clone, Default)]
pub struct MicrorebootResult {
    /// One entry per server, in [`MICROREBOOT_TARGETS`] order.
    pub servers: Vec<MicrorebootServerStats>,
    /// Recursive-escalation ladder counts over the whole campaign:
    /// single-server microreboots, dependency-group reboots, storm
    /// escalations (`rs.escalations.level{1,2,3}`).
    pub escalations: [u64; 3],
    /// Final `ds.snapshot_bytes` gauge (externalized server state).
    pub snapshot_bytes: u64,
    /// Final `ckpt.store_size` gauge (records in the DS snapshot store).
    pub snapshot_records: u64,
    /// Per-phase MTTR rows folded from the causal trace:
    /// `(phase, episodes, mean)`.
    pub phase_mttr: Vec<(&'static str, u64, SimDuration)>,
    /// Trace events lost to ring eviction (0 = complete timeline).
    pub trace_dropped: u64,
    /// Per-event-kind breakdown of [`MicrorebootResult::trace_dropped`].
    pub trace_dropped_by_kind: Vec<(String, u64)>,
    /// MD5 over the canonical metrics dump — byte-identical across two
    /// same-seed runs.
    pub digest: String,
}

impl MicrorebootResult {
    fn sum(&self, f: impl Fn(&MicrorebootServerStats) -> u64) -> u64 {
        self.servers.iter().map(f).sum()
    }

    /// Total mutations applied.
    pub fn injections(&self) -> u64 {
        self.sum(|s| s.injections)
    }

    /// Total detected-and-replaced defects.
    pub fn detected(&self) -> u64 {
        self.sum(|s| s.detected)
    }

    /// Total fail-silent survivors.
    pub fn fail_silent(&self) -> u64 {
        self.sum(|s| s.fail_silent)
    }

    /// Total transparent recoveries.
    pub fn transparent(&self) -> u64 {
        self.sum(|s| s.transparent)
    }

    /// Detected / (detected + fail-silent), in [0, 1].
    pub fn coverage(&self) -> f64 {
        ratio(self.detected(), self.detected() + self.fail_silent())
    }

    /// Transparent / detected, in [0, 1]: of the defects the system
    /// caught, how many the observer application never noticed.
    pub fn transparency(&self) -> f64 {
        ratio(self.transparent(), self.detected())
    }

    /// `true` when the externalized state outgrew [`SNAPSHOT_CAP_BYTES`].
    pub fn snapshot_over_cap(&self) -> bool {
        self.snapshot_bytes > SNAPSHOT_CAP_BYTES
    }

    /// Renders the per-server table, the escalation ladder, the phase
    /// MTTR table and the coverage summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for s in &self.servers {
            out.push_str(&format!(
                "{:<5} inj {:>3} (crash {:>2} stall {:>2} garble {:>2}): \
                 detected {:>3}, transparent {:>3}, fail-silent {:>2}, \
                 benign {:>2}, unrecovered {}\n",
                s.server,
                s.injections,
                s.crashes,
                s.stalls,
                s.garbles,
                s.detected,
                s.transparent,
                s.fail_silent,
                s.benign,
                s.unrecovered,
            ));
        }
        out.push_str(&format!(
            "escalations: {} microreboots, {} group reboots, {} storm\n",
            self.escalations[0], self.escalations[1], self.escalations[2],
        ));
        for (phase, episodes, mean) in &self.phase_mttr {
            out.push_str(&format!(
                "phase {phase:<12} episodes {episodes:>3}  mean {mean}\n"
            ));
        }
        out.push_str(&format!(
            "snapshot store: {} bytes in {} records (cap {})",
            self.snapshot_bytes, self.snapshot_records, SNAPSHOT_CAP_BYTES,
        ));
        if self.snapshot_over_cap() {
            out.push_str(" -- WARNING: over cap, rehydration no longer cheap");
        }
        out.push('\n');
        out.push_str(&format!(
            "coverage {:.1}%, transparency {:.1}%; digest {}",
            self.coverage() * 100.0,
            self.transparency() * 100.0,
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

/// Outcome of [`run_microreboot_control`]: the no-fault arm. Any restart
/// or escalation here is a false positive against a healthy server.
#[derive(Debug, Clone, Default)]
pub struct MicrorebootControl {
    /// Service recoveries RS executed (must be 0).
    pub restarts: u64,
    /// Recursive PM recoveries (must be 0).
    pub pm_recoveries: u64,
    /// Complaints RS accepted (must be 0).
    pub complaints_accepted: u64,
    /// Escalation-ladder activations (must all be 0).
    pub escalations: u64,
    /// Net datagrams echoed end to end (liveness floor).
    pub echoed: u64,
    /// Bytes the pristine reader hashed (liveness floor).
    pub disk_bytes: u64,
    /// Same determinism fingerprint as the campaign's.
    pub digest: String,
}

pub(super) struct MicrorebootRig {
    pub(super) os: Os,
    udp: Rc<RefCell<UdpStatus>>,
    /// SHA-1 a pristine, fault-free read of the stream file produces.
    expected_sha1: String,
    /// MD5 a pristine, fault-free download produces.
    expected_md5: String,
    /// Monotone suffix for observer process names (determinism: names
    /// are part of the spawn order the kernel sees).
    observer_seq: u64,
}

const MICROREBOOT_FILE: u64 = 128 * 1024;
const MICROREBOOT_DOWNLOAD: u64 = 32 * 1024;

/// What a per-round observer application watches.
enum Observer {
    Disk(Rc<RefCell<DdStatus>>),
    Net(Rc<RefCell<WgetStatus>>),
}

impl Observer {
    /// Monotone progress odometer.
    fn progress(&self) -> u64 {
        match self {
            Observer::Disk(st) => st.borrow().bytes,
            Observer::Net(st) => st.borrow().bytes,
        }
    }

    fn done(&self) -> bool {
        match self {
            Observer::Disk(st) => st.borrow().done,
            Observer::Net(st) => st.borrow().done,
        }
    }

    /// Completed byte-exact with no application-visible errors.
    fn byte_exact(&self, rig: &MicrorebootRig) -> bool {
        match self {
            Observer::Disk(st) => {
                let st = st.borrow();
                st.done && st.errors == 0 && st.sha1.as_deref() == Some(rig.expected_sha1.as_str())
            }
            Observer::Net(st) => {
                let st = st.borrow();
                st.done && st.md5.as_deref() == Some(rig.expected_md5.as_str())
            }
        }
    }
}

impl MicrorebootRig {
    /// Spawns the per-round observer job: a recovery-aware reader for the
    /// file-system servers (and PM, where it is a pure liveness witness),
    /// a recovery-aware download for INET.
    fn spawn_observer(&mut self, target: &str) -> Observer {
        self.observer_seq += 1;
        let rs = self.os.endpoint("rs").expect("rs is immortal");
        let allow = ["vfs", "pm", "inet", "rs"];
        if target == names::INET {
            let inet = self.os.endpoint(names::INET).expect("inet up");
            let st = Rc::new(RefCell::new(WgetStatus::default()));
            // Content seed 0 on every round: the pristine reference digest
            // is the one byte-exact expectation for all net observers.
            let app = Wget::new(inet, MICROREBOOT_DOWNLOAD, 0, st.clone()).recovery_aware(rs);
            self.os.spawn_app_with_ipc(
                &format!("wget-{}", self.observer_seq),
                Box::new(app),
                &allow,
            );
            Observer::Net(st)
        } else {
            let vfs = self.os.endpoint(names::VFS).expect("vfs up");
            let st = Rc::new(RefCell::new(DdStatus::default()));
            let app = Dd::new(vfs, "stream", 8 * 1024, st.clone()).recovery_aware(rs);
            self.os
                .spawn_app_with_ipc(&format!("dd-{}", self.observer_seq), Box::new(app), &allow);
            Observer::Disk(st)
        }
    }
}

/// Boots the crash-only machine (checkpointing servers, sticky slots,
/// PM guard) with always-on datagram traffic, and records the byte-exact
/// expectations from one pristine run of each observer job.
pub(super) fn microreboot_rig(cfg: &MicrorebootConfig) -> MicrorebootRig {
    let mut os = Os::builder()
        .seed(cfg.seed)
        .with_network(NicKind::Dp8390)
        .with_disk(
            MICROREBOOT_FILE / 512 + 256,
            cfg.seed ^ 0xd15c,
            stream_file("stream", MICROREBOOT_FILE),
        )
        .with_checkpointing()
        .heartbeat(SimDuration::from_millis(500), 2)
        .boot();
    let inet = os.endpoint(names::INET).expect("inet up after boot");
    let vfs = os.endpoint(names::VFS).expect("vfs up after boot");
    let udp = spawn_udp_traffic(&mut os);

    // Pristine reference jobs: their digests define "byte-exact" for
    // every later observer, and they warm the mount tables and session
    // slabs so the first checkpoint save happens before any fault.
    let dd_ref = Rc::new(RefCell::new(DdStatus::default()));
    os.spawn_app(
        "dd-ref",
        Box::new(Dd::new(vfs, "stream", 8 * 1024, dd_ref.clone())),
    );
    let wget_ref = Rc::new(RefCell::new(WgetStatus::default()));
    os.spawn_app(
        "wget-ref",
        Box::new(Wget::new(inet, MICROREBOOT_DOWNLOAD, 0, wget_ref.clone())),
    );
    os.run_until(SimDuration::from_millis(50), 600, |_| {
        dd_ref.borrow().done && wget_ref.borrow().done
    });
    let expected_sha1 = dd_ref.borrow().sha1.clone().expect("pristine read done");
    let expected_md5 = wget_ref
        .borrow()
        .md5
        .clone()
        .expect("pristine download done");
    MicrorebootRig {
        os,
        udp,
        expected_sha1,
        expected_md5,
        observer_seq: 0,
    }
}

/// Runs the microreboot campaign: round-robin crash/stall/garble
/// mutations over VFS, MFS, INET and PM while recovery-aware observer
/// jobs watch each one, classifying every injection as
/// detected-and-recovered (transparent or not), fail-silent-survived, or
/// benign. Hands back the booted [`Os`] for counter and timeline
/// inspection.
pub fn run_microreboot_campaign(cfg: &MicrorebootConfig) -> (MicrorebootResult, Os) {
    let mut rig = microreboot_rig(cfg);
    let poll = SimDuration::from_millis(100);
    let mut servers: Vec<MicrorebootServerStats> = MICROREBOOT_TARGETS
        .iter()
        .map(|server| MicrorebootServerStats {
            server: server.to_string(),
            ..MicrorebootServerStats::default()
        })
        .collect();

    for _ in 0..cfg.rounds {
        for (i, target) in MICROREBOOT_TARGETS.iter().enumerate() {
            let stats = &mut servers[i];
            // Make sure the victim is actually up before mutating it.
            rig.os.run_until(poll, 300, |os| os.is_up(target));
            let Some(before) = rig.os.endpoint(target) else {
                stats.unrecovered += 1;
                continue;
            };

            // The fault is armed *before* the observer starts so the
            // observer's own first request is what consumes it: a crash
            // lands mid-job, a stall leaves the observer's open call to
            // age into the kernel request-age guard, a garble corrupts a
            // reply the observer is actually waiting for. (PM's trigger
            // is the RS liveness ping instead.)
            stats.injections += 1;
            match rig.os.inject_server_fault(target) {
                ServerFault::Crash => stats.crashes += 1,
                ServerFault::Stall => stats.stalls += 1,
                ServerFault::Garble => stats.garbles += 1,
                ServerFault::Benign => {}
            }
            let observer = rig.spawn_observer(target);

            // PM is not on the observer's path, so its completion says
            // nothing about PM's health; only the endpoint and the
            // window classify a PM round.
            let outcome = watch_window(
                &mut rig.os,
                target,
                before,
                cfg.detect_window,
                SimDuration::from_millis(50),
                SimDuration::from_millis(200),
                || *target != "pm" && observer.done(),
            );
            match outcome {
                Outcome::Benign => stats.benign += 1,
                Outcome::Detected => {
                    stats.detected += 1;
                    if !await_recovered(&mut rig.os, target, before) {
                        stats.unrecovered += 1;
                    }
                    // Transparency: the observer must finish byte-exact
                    // across the microreboot. Progress-based cutoff so a
                    // wedged job does not burn the whole budget.
                    let mut idle = 0;
                    while !observer.done() && idle < 100 {
                        let p0 = observer.progress();
                        rig.os.run_for(poll);
                        idle = if observer.progress() > p0 {
                            0
                        } else {
                            idle + 1
                        };
                    }
                    if observer.byte_exact(&rig) {
                        stats.transparent += 1;
                    }
                }
                Outcome::FailSilent => {
                    stats.fail_silent += 1;
                    // No user-facing restart handle exists for PM — that
                    // is exactly why RS must guard it.
                    if *target == "pm" || !user_restart(&mut rig.os, target, before) {
                        stats.unrecovered += 1;
                    }
                }
            }
            // Let the machine settle before the next mutation.
            rig.os.run_for(poll);
        }
    }

    // Drain, then fossilize the timeline and trace-loss into the digest.
    rig.os.run_for(SimDuration::from_secs(1));
    let fossil = fossilize(&mut rig.os, &[]);
    let m = rig.os.metrics();
    let phase_mttr = RECOVERY_PHASES
        .iter()
        .filter_map(|&(phase, name)| {
            let h = m.log_histogram(name)?;
            Some((phase, h.count(), h.mean_duration()?))
        })
        .collect();
    let result = MicrorebootResult {
        servers,
        escalations: ESCALATION_COUNTERS.map(|name| m.counter(name)),
        snapshot_bytes: m.counter("ds.snapshot_bytes"),
        snapshot_records: m.counter("ckpt.store_size"),
        phase_mttr,
        trace_dropped: fossil.trace_dropped,
        trace_dropped_by_kind: fossil.trace_dropped_by_kind,
        digest: fossil.digest,
    };
    (result, rig.os)
}

/// Runs the no-fault control arm: the same crash-only machine and
/// workloads, zero injections, fixed virtual duration. Every restart,
/// accepted complaint or escalation it reports is a false positive.
pub fn run_microreboot_control(
    cfg: &MicrorebootConfig,
    run_for: SimDuration,
) -> MicrorebootControl {
    let mut rig = microreboot_rig(cfg);
    // One fault-free observer per server keeps the exact campaign
    // traffic pattern on the wire while nothing is injected.
    let observers: Vec<Observer> = MICROREBOOT_TARGETS
        .iter()
        .map(|target| rig.spawn_observer(target))
        .collect();
    rig.os.run_for(run_for);
    let echoed = rig.udp.borrow().echoed;
    let digest = fossilize(&mut rig.os, &[]).digest;
    let m = rig.os.metrics();
    MicrorebootControl {
        restarts: m.counter("rs.recoveries"),
        pm_recoveries: m.counter("rs.pm_recoveries"),
        complaints_accepted: m.counter("rs.complaints.accepted"),
        escalations: ESCALATION_COUNTERS.iter().map(|name| m.counter(name)).sum(),
        echoed,
        disk_bytes: observers.iter().map(Observer::progress).sum(),
        digest,
    }
}
