//! The four benchmark workloads: input generation, one rep, output checks.
//!
//! Every workload is a deterministic simulation driven by one host thread;
//! `--seed` reaches only [`generate`] (configs, content seeds, fault
//! plan), never the measured code directly. A rep runs the workload once
//! from a cold boot and returns what it measured plus every output-check
//! violation it found; the caller turns a violation into a non-zero exit.
//!
//! Why these four (the README has the long version):
//!
//! * `slo_chaos` — small-message path: kernel IPC, the chaos interposer's
//!   per-message decision, `MetricsRegistry`, event-queue timers, INET /
//!   VFS / MFS. Bulk copies and checkpointing do nothing here.
//! * `bulk_io` — the same kernel used the other way: few messages, large
//!   grants. SafeCopy, the hardware models, the per-frame fault-VM driver
//!   routines and MD5/SHA-1 dominate. It is also the paper's Fig. 7/8.
//! * `mutation` — fault VM, `apply_random_fault`, sentinels, RS
//!   arbitration, and long detect windows where only heartbeats and
//!   audits tick: the idle-event path.
//! * `fleet_failover` — the only user of `fleet::{wire,link,agent,proto}`,
//!   of 1 ms `Os::run_for` quanta (10^6 tiny slices instead of a few long
//!   ones) and of checkpoint save / WAL / snapshot codec / whole-node
//!   reboot.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use phoenix::apps::{Dd, DdStatus, Wget, WgetStatus};
use phoenix::campaign::{
    fossilize_trace_loss, metrics_digest, run_failsilent_campaign, run_failsilent_control,
    run_slo_campaign, FailsilentConfig, SloCampaignConfig,
};
use phoenix::experiments::{fig8_expected_sha1, fig8_files};
use phoenix::loadgen::{InetLoadConfig, VfsLoadConfig};
use phoenix::{names, NicKind, Os};
use phoenix_fault::NodeChaosPlan;
use phoenix_fleet::{Fleet, FleetCampaignConfig, FleetConfig};
use phoenix_servers::netproto::stream_md5;
use phoenix_simcore::obs::phase;
use phoenix_simcore::rng::SimRng;
use phoenix_simcore::time::{SimDuration, SimTime};

use crate::alloc;
use crate::span::{elapsed_ns, Tracer};

/// Workload names, in the order they run and print.
pub const WORKLOADS: [&str; 4] = ["slo_chaos", "bulk_io", "mutation", "fleet_failover"];

/// Chaos intensity of `slo_chaos`, as a scale on the `driver_traffic`
/// plan: about 55 actions fire per rep (drops, delays, duplicates and
/// corruptions of driver-bound messages and replies), so every handling
/// path runs, and every request still succeeds.
///
/// It is the highest intensity found at which no operation fails, which
/// the benchmark contract requires. Over 56 seeds no request failed at
/// 0.3 permille; at 0.5 permille one seed of 56 lost 7 requests and at
/// 1 permille 3 seeds of 16 lost one; from 2 permille on, a dropped
/// block-driver message stalls the VFS mix for seconds and the drain time
/// is bimodal across seeds (29 s to 67 s of simulated time); at 10
/// permille some VFS requests never complete. That regime measures a retry
/// pathology (ROADMAP item 4), not the simulator.
pub const CHAOS_INTENSITY: f64 = 0.0003;

/// Deep enough that arrivals during a driver outage or a chaos stall queue
/// instead of being shed: no request may fail here.
const SLO_BACKLOG: usize = 4_096;

/// Bulk transfer sizes: wget over the RTL8139, then dd over SATA.
const BULK_NET_BYTES: u64 = 96 << 20;
const BULK_DISK_BYTES: u64 = 192 << 20;
/// Injection rounds of `mutation`, each mutating all three driver classes.
const MUTATION_ROUNDS: u64 = 6;
/// Driver SIGKILL period during both transfers (Fig. 7/8's 2 s column).
const BULK_KILL_INTERVAL: SimDuration = SimDuration::from_secs(2);

/// Generated inputs of one workload.
pub enum Inputs {
    /// `slo_chaos`.
    Slo(SloCampaignConfig),
    /// `bulk_io`.
    Bulk(BulkInputs),
    /// `mutation`.
    Mutation(FailsilentConfig),
    /// `fleet_failover`.
    Fleet(FleetInputs),
}

/// Inputs of `bulk_io`: seeds, expected digests, kill schedule phase.
pub struct BulkInputs {
    seed: u64,
    content_seed: u64,
    expected_md5: String,
    disk_seed: u64,
    sectors: u64,
    expected_sha1: String,
    /// When the first kill of each transfer strikes; later kills follow
    /// every [`BULK_KILL_INTERVAL`].
    first_kill: SimDuration,
}

/// Inputs of `fleet_failover`: the campaign shape and its fault schedule.
pub struct FleetInputs {
    cfg: FleetCampaignConfig,
    plan: NodeChaosPlan,
    horizon: SimDuration,
}

/// Simulated recovery-phase totals over all folded episodes of a rep.
/// Each phase has one owner, so the four sums add up to the MTTR sum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseSums {
    /// Complete recovery episodes folded.
    pub episodes: u64,
    /// Defect to noticed, microseconds, summed.
    pub detect_us: u64,
    /// Noticed to fresh incarnation alive.
    pub repair_us: u64,
    /// Alive to last dependent resumed, minus the replay window.
    pub reintegrate_us: u64,
    /// Publish to last caller-log replay (checkpointed dependents only).
    pub replay_us: u64,
}

impl PhaseSums {
    /// Defect to reintegrated, summed over all episodes.
    pub fn mttr_us(&self) -> u64 {
        self.detect_us + self.repair_us + self.reintegrate_us + self.replay_us
    }

    fn add(&mut self, other: &PhaseSums) {
        self.episodes += other.episodes;
        self.detect_us += other.detect_us;
        self.repair_us += other.repair_us;
        self.reintegrate_us += other.reintegrate_us;
        self.replay_us += other.replay_us;
    }
}

/// What one rep measured. All simulated quantities are exact integers.
#[derive(Debug, Clone, Default)]
pub struct RepOutcome {
    /// Host nanoseconds spent inside the simulator (boot, run, fold,
    /// digest, teardown); the harness's own bookkeeping is excluded.
    pub wall_ns: u64,
    /// Heap allocations made inside the simulator during the rep (traced
    /// binary only; 0 otherwise).
    pub allocs: u64,
    /// Bytes those allocations asked for.
    pub alloc_bytes: u64,
    /// Same-seed determinism handle of the rep.
    pub digest: String,
    /// Simulated time to finish the workload: drain time (`slo_chaos`),
    /// both transfer times (`bulk_io`), campaign end (`mutation`), last
    /// fault reintegrated (`fleet_failover`).
    pub sim_elapsed_us: u64,
    /// Simulated time advanced in total (boots and settling included).
    pub sim_advanced_us: u64,
    /// Recovery phase sums.
    pub phases: PhaseSums,
    /// Operations the workload attempted (see the README for the unit).
    pub ops_attempted: u64,
    /// Operations that failed.
    pub ops_failed: u64,
    /// Per-layer counters and workload results, integer base units.
    pub counts: Vec<(&'static str, u64)>,
    /// Output-check violations; empty for a correct rep.
    pub failures: Vec<String>,
}

/// Generates the inputs of `workload` from `seed`. For `mutation` this
/// also runs the short no-fault control (zero restarts, zero accepted
/// complaints): a rig that restarts healthy drivers cannot measure
/// detection.
pub fn generate(workload: &str, seed: u64, tracer: &mut Tracer) -> Result<Inputs, String> {
    match workload {
        "slo_chaos" => Ok(Inputs::Slo(SloCampaignConfig {
            seed,
            inet: InetLoadConfig {
                sessions: 7_000,
                interarrival: SimDuration::from_millis(4_500),
                linger: SimDuration::from_millis(4_200),
                backlog_cap: SLO_BACKLOG,
                ..InetLoadConfig::default()
            },
            vfs: VfsLoadConfig {
                clients: 16,
                backlog_cap: SLO_BACKLOG,
                ..VfsLoadConfig::default()
            },
            intensity: CHAOS_INTENSITY,
            kills_per_target: 2,
            kill_interval: SimDuration::from_secs(2),
            file_size: 256 * 1024,
        })),
        "bulk_io" => {
            let content_seed = seed ^ 0x5157_4745; // "WGET"
            let disk_seed = seed ^ 0x5341_5441; // "SATA"
            let sectors = BULK_DISK_BYTES / 512 + 1024;
            let expected_md5 = tracer.span("servers.stream_md5", |_| {
                stream_md5(content_seed, BULK_NET_BYTES)
            });
            let expected_sha1 = tracer.span("core.fig8_expected_sha1", |_| {
                fig8_expected_sha1(sectors, disk_seed, BULK_DISK_BYTES)
            });
            let mut rng = SimRng::new(seed).fork("bulk-io-kill-plan");
            let first_kill = SimDuration::from_millis(1_000 + rng.range_u64(0..1_000));
            Ok(Inputs::Bulk(BulkInputs {
                seed,
                content_seed,
                expected_md5,
                disk_seed,
                sectors,
                expected_sha1,
                first_kill,
            }))
        }
        "mutation" => {
            let cfg = FailsilentConfig {
                seed,
                rounds: MUTATION_ROUNDS,
                ..FailsilentConfig::default()
            };
            let control = tracer.span("core.run_failsilent_control", |_| {
                run_failsilent_control(&cfg, SimDuration::from_secs(5))
            });
            if control.restarts != 0 || control.complaints_accepted != 0 {
                return Err(format!(
                    "mutation no-fault control: {} restarts, {} accepted complaints (want 0, 0)",
                    control.restarts, control.complaints_accepted
                ));
            }
            if control.echoed == 0 || control.disk_bytes == 0 || control.printed == 0 {
                return Err("mutation no-fault control: a workload made no progress".to_string());
            }
            Ok(Inputs::Mutation(cfg))
        }
        "fleet_failover" => {
            let cfg = FleetCampaignConfig {
                fleet: FleetConfig {
                    nodes: 8,
                    seed,
                    ..FleetConfig::default()
                },
                faults: 150,
                ..FleetCampaignConfig::default()
            };
            // The schedule `run_fleet_campaign` would build: same stream,
            // same mix, so digests match that entry point's.
            let mut rng = SimRng::new(cfg.fleet.seed).fork("fleet-campaign-plan");
            let plan = NodeChaosPlan::campaign_mix(
                cfg.fleet.nodes,
                cfg.faults,
                SimTime::ZERO + cfg.start,
                cfg.interval,
                &mut rng,
            );
            let horizon = cfg.start + cfg.interval * u64::from(cfg.faults) + cfg.drain;
            Ok(Inputs::Fleet(FleetInputs { cfg, plan, horizon }))
        }
        other => Err(format!(
            "unknown workload `{other}` (want one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// Runs one rep of the workload from a cold boot.
pub fn run_rep(inputs: &Inputs, tracer: &mut Tracer) -> RepOutcome {
    tracer.span("rep", |t| match inputs {
        Inputs::Slo(cfg) => slo_rep(cfg, t),
        Inputs::Bulk(b) => bulk_rep(b, t),
        Inputs::Mutation(cfg) => mutation_rep(cfg, t),
        Inputs::Fleet(f) => fleet_rep(f, t),
    })
}

/// Accumulates host time and heap traffic of the stretches of a rep that
/// run simulator code; the harness's own bookkeeping between them (result
/// extraction, check messages) is left out of both.
#[derive(Default)]
struct Meter {
    wall_ns: u64,
    allocs: u64,
    alloc_bytes: u64,
}

impl Meter {
    fn run<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (allocs, bytes) = alloc::counts();
        let started = Instant::now();
        let out = f();
        self.wall_ns += elapsed_ns(started);
        let (allocs_after, bytes_after) = alloc::counts();
        self.allocs += allocs_after - allocs;
        self.alloc_bytes += bytes_after - bytes;
        out
    }

    fn into_outcome(self, mut out: RepOutcome) -> RepOutcome {
        out.wall_ns = self.wall_ns;
        out.allocs = self.allocs;
        out.alloc_bytes = self.alloc_bytes;
        out
    }
}

fn sim_now_us(os: &Os) -> u64 {
    os.now().since(SimTime::ZERO).as_micros()
}

/// Folds the machine's recovery timeline into phase sums and checks that
/// the fold accounts for every episode.
fn fold_phases(os: &Os, failures: &mut Vec<String>) -> PhaseSums {
    let timeline = os.timeline();
    let unaccounted = timeline.unaccounted().len();
    if unaccounted > 0 {
        failures.push(format!("{unaccounted} recovery episodes unaccounted"));
    }
    let mut sums = PhaseSums::default();
    for ep in timeline.episodes.iter().filter(|ep| ep.complete()) {
        sums.episodes += 1;
        let mut reintegrate = 0;
        let mut replay = 0;
        for (ph, start, end) in ep.windows() {
            let us = end.since(start).as_micros();
            match ph {
                phase::DETECT => sums.detect_us += us,
                phase::REPAIR => sums.repair_us += us,
                phase::REPLAY => replay += us,
                _ => reintegrate += us,
            }
        }
        // The replay window lies inside the reintegration window; give
        // that stretch to replay alone so the phases partition the MTTR.
        sums.reintegrate_us += reintegrate.saturating_sub(replay);
        sums.replay_us += replay;
    }
    sums
}

/// IPC messages the machine's kernel has carried, all four classes.
pub fn ipc_msgs(os: &Os) -> u64 {
    let m = os.metrics();
    ["ipc.sends", "ipc.sendrecs", "ipc.replies", "ipc.notifies"]
        .iter()
        .map(|name| m.counter(name))
        .sum()
}

/// Per-layer counters of one machine, under their metric names.
fn os_counts(os: &Os) -> Vec<(&'static str, u64)> {
    let m = os.metrics();
    let c = |name: &str| m.counter(name);
    vec![
        ("kernel.ipc_msgs", ipc_msgs(os)),
        ("kernel.irqs", c("irq.delivered")),
        ("kernel.ipc_aborted", c("ipc.aborted_calls")),
        (
            "kernel.chaos_actions",
            c("chaos.dropped")
                + c("chaos.delayed")
                + c("chaos.duplicated")
                + c("chaos.corrupted")
                + c("chaos.stalled"),
        ),
        ("kernel.spawns", c("kernel.spawns")),
        ("servers.rs_recoveries", c("rs.recoveries")),
        (
            "servers.rs_complaints_accepted",
            c("rs.complaints.accepted"),
        ),
        ("servers.inet_retransmits", c("inet.retransmits")),
        ("servers.mfs_reissues", c("mfs.reissues")),
        ("servers.mfs_retries", c("mfs.retries")),
        ("servers.ds_publishes", c("ds.publishes")),
        ("ckpt.saves", c("ckpt.saves")),
        ("ckpt.restores", c("ckpt.restores")),
        ("ckpt.tail_polls", c("ckpt.tail_polls")),
    ]
}

fn add_counts(into: &mut Vec<(&'static str, u64)>, from: Vec<(&'static str, u64)>) {
    for (name, v) in from {
        match into.iter_mut().find(|(n, _)| *n == name) {
            Some((_, total)) => *total += v,
            None => into.push((name, v)),
        }
    }
}

fn slo_rep(cfg: &SloCampaignConfig, tracer: &mut Tracer) -> RepOutcome {
    let mut meter = Meter::default();
    let (result, os) =
        meter.run(|| tracer.span("core.run_slo_campaign", |_| run_slo_campaign(cfg)));

    let mut out = RepOutcome {
        digest: result.digest.clone(),
        sim_elapsed_us: sim_now_us(&os),
        sim_advanced_us: sim_now_us(&os),
        ops_attempted: result.started + result.shed,
        ops_failed: result.failed + result.shed,
        counts: os_counts(&os),
        ..RepOutcome::default()
    };
    let unrecovered = result.kills.iter().filter(|k| !k.recovered).count();
    if unrecovered > 0 {
        out.failures
            .push(format!("{unrecovered} driver kills did not recover"));
    }
    if !result.inet_drained || !result.vfs_drained {
        out.failures.push(format!(
            "load did not drain (inet {}, vfs {})",
            result.inet_drained, result.vfs_drained
        ));
    }
    if result.unaccounted_episodes > 0 {
        out.failures.push(format!(
            "{} recovery episodes unaccounted in the campaign fold",
            result.unaccounted_episodes
        ));
    }
    if result.trace_dropped > 0 {
        out.failures
            .push(format!("{} trace events dropped", result.trace_dropped));
    }
    if result.completed + result.failed != result.started {
        out.failures.push(format!(
            "request ledger does not balance: {} started, {} completed, {} failed",
            result.started, result.completed, result.failed
        ));
    }
    out.phases = tracer.span("simcore.fold_timeline", |_| {
        fold_phases(&os, &mut out.failures)
    });
    let recovery_p99_us = [
        phase::DETECT,
        phase::REPAIR,
        phase::REINTEGRATE,
        phase::REPLAY,
    ]
    .iter()
    .filter_map(|ph| result.phase(ph))
    .max_by_key(|p| p.samples)
    .map_or(0, |p| p.p99_us);
    out.counts.extend([
        (
            "core.slo_steady_p99_sim_us",
            result.phase(phase::STEADY).map_or(0, |p| p.p99_us),
        ),
        ("core.slo_recovery_p99_sim_us", recovery_p99_us),
        ("core.slo_shed", result.shed),
    ]);
    meter.run(|| tracer.span("core.drop_os", |_| drop(os)));
    meter.into_outcome(out)
}

/// A booted bulk-transfer machine with its application spawned.
struct BulkRig {
    os: Os,
    /// When the application was spawned.
    start: SimTime,
    /// The driver the kill schedule targets.
    driver: &'static str,
    done: Box<dyn Fn() -> bool>,
    /// Finish time (if finished) and every output-check violation.
    verdict: Box<dyn Fn() -> (Option<SimTime>, Vec<String>)>,
}

fn net_rig(b: &BulkInputs, tracer: &mut Tracer) -> BulkRig {
    let mut os = tracer.span("core.boot", |_| {
        Os::builder()
            .seed(b.seed)
            .with_network(NicKind::Rtl8139)
            .boot()
    });
    let status = Rc::new(RefCell::new(WgetStatus::default()));
    let inet = os.endpoint(names::INET).expect("inet up after boot");
    let start = os.now();
    os.spawn_app(
        "wget",
        Box::new(Wget::new(
            inet,
            BULK_NET_BYTES,
            b.content_seed,
            status.clone(),
        )),
    );
    let driver = os.eth_driver_name().expect("network configured");
    let (st, expected) = (status.clone(), b.expected_md5.clone());
    BulkRig {
        os,
        start,
        driver,
        done: Box::new(move || status.borrow().done),
        verdict: Box::new(move || {
            let st = st.borrow();
            let mut failures = Vec::new();
            if !st.done || st.bytes != BULK_NET_BYTES {
                failures.push(format!(
                    "wget got {} of {BULK_NET_BYTES} bytes (done {})",
                    st.bytes, st.done
                ));
            }
            if st.md5.as_deref() != Some(expected.as_str()) {
                failures.push(format!("wget MD5 {:?} != expected {expected}", st.md5));
            }
            (st.finished_at, failures)
        }),
    }
}

fn disk_rig(b: &BulkInputs, tracer: &mut Tracer) -> BulkRig {
    let mut os = tracer.span("core.boot", |_| {
        Os::builder()
            .seed(b.seed)
            .with_disk(b.sectors, b.disk_seed, fig8_files(BULK_DISK_BYTES))
            .boot()
    });
    let status = Rc::new(RefCell::new(DdStatus::default()));
    let vfs = os.endpoint(names::VFS).expect("vfs up after boot");
    let start = os.now();
    os.spawn_app(
        "dd",
        Box::new(Dd::new(vfs, "bigfile", 128 * 1024, status.clone())),
    );
    let (st, expected) = (status.clone(), b.expected_sha1.clone());
    BulkRig {
        os,
        start,
        driver: names::BLK_SATA,
        done: Box::new(move || status.borrow().done),
        verdict: Box::new(move || {
            let st = st.borrow();
            let mut failures = Vec::new();
            if !st.done || st.bytes != BULK_DISK_BYTES || st.errors != 0 {
                failures.push(format!(
                    "dd read {} of {BULK_DISK_BYTES} bytes with {} errors (done {})",
                    st.bytes, st.errors, st.done
                ));
            }
            if st.sha1.as_deref() != Some(expected.as_str()) {
                failures.push(format!("dd SHA-1 {:?} != expected {expected}", st.sha1));
            }
            (st.finished_at, failures)
        }),
    }
}

/// Runs the rig until its application is done while SIGKILLing the driver
/// on the schedule — the loop of `experiments::fig7_network_run` /
/// `fig8_disk_run`, inlined so the harness keeps the machine for its
/// counters and timeline. Returns the kills performed.
fn run_with_kills(rig: &mut BulkRig, first_kill: SimDuration) -> u64 {
    let os = &mut rig.os;
    let deadline = rig.start + SimDuration::from_secs(300);
    let mut kills = 0;
    let mut next_kill = rig.start + first_kill;
    let slice = SimDuration::from_millis(100);
    while !(rig.done)() && os.now() < deadline {
        let target = next_kill.min(os.now() + slice);
        let step = target.since(os.now());
        os.run_for(if step.is_zero() {
            SimDuration::from_micros(1)
        } else {
            step
        });
        if os.now() >= next_kill {
            if os.kill_by_user(rig.driver) {
                kills += 1;
            }
            next_kill += BULK_KILL_INTERVAL;
        }
    }
    // A kill can land just before the last byte does; let that recovery
    // finish so "every kill recovered" is checked on a settled machine.
    os.run_for(SimDuration::from_millis(500));
    kills
}

fn bulk_rep(b: &BulkInputs, tracer: &mut Tracer) -> RepOutcome {
    let mut meter = Meter::default();
    let mut out = RepOutcome::default();
    let mut digests = Vec::new();
    let mut intact_mib = 0;
    type Build = fn(&BulkInputs, &mut Tracer) -> BulkRig;
    let transfers: [(Build, _, _, _); 2] = [
        (
            net_rig,
            "core.run_for.wget",
            BULK_NET_BYTES,
            "core.bulk_net_sim_kb_s",
        ),
        (
            disk_rig,
            "core.run_for.dd",
            BULK_DISK_BYTES,
            "core.bulk_disk_sim_kb_s",
        ),
    ];
    for (build, run_span, bytes, rate_name) in transfers {
        let (mut rig, kills) = meter.run(|| {
            let mut rig = build(b, tracer);
            let kills = tracer.span(run_span, |_| run_with_kills(&mut rig, b.first_kill));
            (rig, kills)
        });
        let (finished_at, violations) = (rig.verdict)();
        if violations.is_empty() {
            intact_mib += bytes >> 20;
        }
        out.failures.extend(violations);
        let recoveries = rig.os.metrics().counter("rs.recoveries");
        if kills == 0 || recoveries < kills {
            out.failures.push(format!(
                "{kills} driver kills, {recoveries} recoveries (want at least one kill, all recovered)"
            ));
        }
        let elapsed = finished_at.unwrap_or(rig.os.now()).since(rig.start);
        out.sim_elapsed_us += elapsed.as_micros();
        out.sim_advanced_us += sim_now_us(&rig.os);
        let sums = tracer.span("simcore.fold_timeline", |_| {
            fold_phases(&rig.os, &mut out.failures)
        });
        out.phases.add(&sums);
        add_counts(&mut out.counts, os_counts(&rig.os));
        out.counts
            .push((rate_name, bytes * 1_000 / elapsed.as_micros().max(1)));

        let dropped = meter.run(|| {
            let dropped = tracer.span("core.metrics_digest", |_| {
                let (dropped, _) = fossilize_trace_loss(&mut rig.os);
                digests.push(metrics_digest(&rig.os));
                dropped
            });
            tracer.span("core.drop_os", |_| drop(rig));
            dropped
        });
        if dropped > 0 {
            out.failures.push(format!("{dropped} trace events dropped"));
        }
    }
    out.digest = digests.join("+");
    out.ops_attempted = (BULK_NET_BYTES + BULK_DISK_BYTES) >> 20;
    out.ops_failed = out.ops_attempted - intact_mib;
    meter.into_outcome(out)
}

fn mutation_rep(cfg: &FailsilentConfig, tracer: &mut Tracer) -> RepOutcome {
    let mut meter = Meter::default();
    let (result, os) = meter.run(|| {
        tracer.span("core.run_failsilent_campaign", |_| {
            run_failsilent_campaign(cfg)
        })
    });

    let mut out = RepOutcome {
        digest: result.digest.clone(),
        sim_elapsed_us: sim_now_us(&os),
        sim_advanced_us: sim_now_us(&os),
        // One operation per applied mutation: inject, then watch the
        // driver until a detector fires, the workload moves on, or the
        // detect window closes. It fails when the restart never lands. A
        // defect that froze the workload unnoticed is the campaign's
        // finding (`core.mut_fail_silent`), not a failed operation: about
        // one seed in ten has one, and the benchmark contract wants
        // workloads on which no operation fails.
        ops_attempted: result.injections(),
        ops_failed: result.unrecovered(),
        counts: os_counts(&os),
        ..RepOutcome::default()
    };
    if result.unrecovered() > 0 {
        out.failures.push(format!(
            "{} mutated drivers did not come back",
            result.unrecovered()
        ));
    }
    if result.trace_dropped > 0 {
        out.failures
            .push(format!("{} trace events dropped", result.trace_dropped));
    }
    if result.detected() == 0 {
        out.failures
            .push("no mutation was detected: the campaign measured nothing".to_string());
    }
    out.phases = tracer.span("simcore.fold_timeline", |_| {
        fold_phases(&os, &mut out.failures)
    });
    out.counts.extend([
        ("core.mut_injections", result.injections()),
        ("core.mut_detected", result.detected()),
        ("core.mut_fail_silent", result.fail_silent()),
    ]);
    meter.run(|| tracer.span("core.drop_os", |_| drop(os)));
    meter.into_outcome(out)
}

/// Faults the fleet has injected that need a recovery (RS kills and node
/// crashes; partitions and loss windows heal by themselves).
fn fleet_faults_injected(fleet: &Fleet) -> u64 {
    fleet.metrics.counter("fleet.fault.kill_rs") + fleet.metrics.counter("fleet.fault.node_crash")
}

/// Runs the fleet to the campaign horizon and returns when, in simulated
/// microseconds, the last injected fault had been reintegrated: the
/// campaign's drain time. The horizon itself is a constant of the inputs
/// and would say nothing.
///
/// The fleet advances in slices of ten whole quanta, which simulates
/// exactly what one `run_for(horizon)` does (same digest); between slices
/// three counters are read, under 1 % of the rep's host time.
fn run_fleet_to_horizon(fleet: &mut Fleet, horizon: SimDuration) -> u64 {
    let slice = SimDuration::from_millis(10);
    let end = fleet.now() + horizon;
    let mut outstanding = false;
    let mut recovered_at = fleet.now();
    while fleet.now() < end {
        fleet.run_for(slice.min(end.since(fleet.now())));
        let recovered = fleet.metrics.counter("fleet.mttr.reintegrate.samples");
        if fleet_faults_injected(fleet) > recovered {
            outstanding = true;
        } else if outstanding {
            outstanding = false;
            recovered_at = fleet.now();
        }
    }
    recovered_at.since(SimTime::ZERO).as_micros()
}

fn fleet_rep(f: &FleetInputs, tracer: &mut Tracer) -> RepOutcome {
    let mut meter = Meter::default();
    let (fleet, digest, recovered_at_us) = meter.run(|| {
        let mut fleet = tracer.span("fleet.Fleet::new", |_| {
            Fleet::new(f.cfg.fleet.clone(), f.plan.clone())
        });
        let recovered_at_us = tracer.span("fleet.run_for", |_| {
            run_fleet_to_horizon(&mut fleet, f.horizon)
        });
        tracer.span("fleet.finalize", |_| fleet.finalize());
        let digest = tracer.span("fleet.digest", |_| fleet.digest());
        (fleet, digest, recovered_at_us)
    });

    let m = &fleet.metrics;
    let c = |name: &str| m.counter(name);
    let injected = fleet_faults_injected(&fleet);
    let mut out = RepOutcome {
        digest,
        sim_elapsed_us: recovered_at_us,
        sim_advanced_us: f.horizon.as_micros(),
        ops_attempted: injected,
        ops_failed: c("fleet.faults.unrecovered") + c("fleet.convictions.false"),
        ..RepOutcome::default()
    };
    let phase_sum = |name: &str| {
        (
            c(&format!("fleet.mttr.{name}.total_us")),
            c(&format!("fleet.mttr.{name}.samples")),
        )
    };
    let (detect_us, detect_n) = phase_sum("detect");
    let (repair_us, repair_n) = phase_sum("repair");
    let (reintegrate_us, reintegrate_n) = phase_sum("reintegrate");
    out.phases = PhaseSums {
        episodes: detect_n,
        detect_us,
        repair_us,
        reintegrate_us,
        replay_us: 0,
    };
    if detect_n != repair_n || detect_n != reintegrate_n || detect_n != injected {
        out.failures.push(format!(
            "fleet phases do not cover every fault: {injected} injected, \
             {detect_n} detected, {repair_n} repaired, {reintegrate_n} reintegrated"
        ));
    }
    if c("fleet.faults.unrecovered") > 0 || c("fleet.nodes.down") > 0 {
        out.failures.push(format!(
            "{} node faults never recovered, {} nodes down at the end",
            c("fleet.faults.unrecovered"),
            c("fleet.nodes.down")
        ));
    }
    if c("fleet.convictions.false") > 0 {
        out.failures.push(format!(
            "{} convictions without an injected fault behind them",
            c("fleet.convictions.false")
        ));
    }
    if c("fleet.recover.cold") > 0 {
        out.failures.push(format!(
            "{} reboots cold-started without a peer snapshot",
            c("fleet.recover.cold")
        ));
    }
    // Per-node print job: every byte appended to the write-ahead log was
    // acknowledged as committed, and no error reached the application.
    for id in 0..f.cfg.fleet.nodes {
        let status = fleet.workload(id);
        let st = status.borrow();
        if st.app_errors != 0 || !st.done || st.acked != st.appended {
            out.failures.push(format!(
                "node {id} print job not byte-exact: {} of {} bytes acked, {} errors, done {}",
                st.acked, st.appended, st.app_errors, st.done
            ));
        }
    }
    out.counts.extend([
        ("fleet.wire_sent", c("fleet.wire.sent")),
        ("fleet.snap_replicated", c("fleet.snap.replicated")),
    ]);
    meter.run(|| tracer.span("fleet.drop", |_| drop(fleet)));
    meter.into_outcome(out)
}
