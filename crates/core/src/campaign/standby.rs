//! Standby campaign: hot-standby failover vs cold restart+replay.

use phoenix_servers::policy::{AdaptParam, PolicyScript};
use phoenix_simcore::time::SimDuration;

use super::{
    ckpt_print_job, fossilize, printed_bytes, printer_byte_exact, push_trace_loss, samples_played,
    CkptStreams, AUDIO_BLOCK_BYTES,
};
use crate::os::{names, Os};

/// The canonical self-tuning recovery policy: one clamped bang-bang
/// controller per adaptable [`phoenix_servers::policy::PolicyParams`]
/// field, driven by the failure rate, the complaint rate and the p95 of
/// recent repair times. Every clamp band contains the value each service
/// of the standby rig starts from, so an idle system parks each parameter
/// at a band edge and a failure burst walks it deterministically toward
/// the other. Campaigns assert the
/// `rs.adapt.trace.*` trajectory histograms never leave these bands.
pub const STANDBY_ADAPT_POLICY: &str = "\
adapt heartbeat_period when failures >= 1 halve else double clamp 250ms 2s
adapt backoff_base when failures >= 1 halve else double clamp 100ms 1s
adapt backoff_cap when failures >= 2 add 1 else sub 1 clamp 3 8
adapt restart_budget when failures >= 1 add 5 else sub 1 clamp 5 40
adapt budget_window when mttr_p95 > 5 halve else double clamp 10s 60s
adapt quorum_complaints when complaints >= 2 add 1 else sub 1 clamp 2 6
";

/// Parses [`STANDBY_ADAPT_POLICY`].
pub fn standby_adapt_script() -> PolicyScript {
    // analyze:allow(unwrap-recovery): parses a const known-good script;
    // covered by the policy unit tests, cannot fail at runtime.
    PolicyScript::parse(STANDBY_ADAPT_POLICY).expect("canonical adapt policy parses")
}

/// The live `rs.adapt.*` gauge values of the printer and audio drivers,
/// in name order. They live in the counter registry, so every campaign
/// digest already covers them; this helper surfaces them for the
/// human-readable line.
pub fn adapt_gauges(os: &Os) -> Vec<(String, u64)> {
    let gauges: Vec<String> = [names::CHR_PRINTER, names::CHR_AUDIO]
        .into_iter()
        .flat_map(|d| AdaptParam::ALL.map(|p| p.gauge(d)))
        .collect();
    // The registry iterates in name order and holds only the gauges RS
    // reads for each driver.
    os.metrics()
        .counters()
        .filter(|(k, _)| gauges.iter().any(|g| g == k))
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

/// Renders the adapted-parameter line printed next to campaign digests.
pub fn render_adapt_gauges(os: &Os) -> String {
    format!("adapt: {}", join_gauges(&adapt_gauges(os)))
}

/// `param=value` pairs, space-separated, without the `rs.adapt.` prefix.
fn join_gauges(gauges: &[(String, u64)]) -> String {
    let parts: Vec<String> = gauges
        .iter()
        .map(|(k, v)| format!("{}={v}", k.trim_start_matches("rs.adapt.")))
        .collect();
    parts.join(" ")
}

/// Parameters of the standby campaign: repeated deterministic defects
/// (wedge loops and checksum garbles, alternating) against the printer
/// and audio drivers while checkpointed workloads stream through them,
/// with hot-standby failover and the adapt controllers on or off.
#[derive(Debug, Clone)]
pub struct StandbyCampaignConfig {
    /// Root seed.
    pub seed: u64,
    /// Faults to inject, alternating printer / audio, and within each
    /// driver alternating wedge (heartbeat defect) / garble (complaint
    /// defect).
    pub faults: u64,
    /// `true` = warm spares tail the WAL and are promoted at detection
    /// time; `false` = the cold restart+replay baseline.
    pub hot_standby: bool,
    /// Install [`STANDBY_ADAPT_POLICY`] on RS.
    pub adapt: bool,
}

/// Virtual settle time after each recovery.
const FAULT_INTERVAL: SimDuration = SimDuration::from_millis(400);

impl Default for StandbyCampaignConfig {
    fn default() -> Self {
        StandbyCampaignConfig {
            seed: 2007,
            faults: 100,
            hot_standby: true,
            adapt: true,
        }
    }
}

/// Per-driver-class outcome of the standby campaign.
#[derive(Debug, Clone, Default)]
pub struct StandbyClassStats {
    /// Driver service name.
    pub driver: String,
    /// Faults injected into this driver.
    pub faults: u64,
    /// Faults followed by a completed recovery inside the guard.
    pub recovered: u64,
    /// Faults whose recovery never completed.
    pub unrecovered: u64,
    /// Repair-phase episodes folded from the trace for this driver.
    pub repair_episodes: usize,
    /// Mean repair phase (noticed -> alive), microseconds.
    pub repair_mean_us: u64,
    /// Worst repair phase, microseconds.
    pub repair_max_us: u64,
}

/// Aggregate standby-campaign outcome.
#[derive(Debug, Clone, Default)]
pub struct StandbyCampaignResult {
    /// Whether warm spares were armed.
    pub hot_standby: bool,
    /// Whether the adapt controllers ran.
    pub adapt: bool,
    /// Faults injected.
    pub faults: u64,
    /// Recoveries RS completed (`rs.recoveries`).
    pub recoveries: u64,
    /// Spare promotions (`rs.standby.promotions`).
    pub promotions: u64,
    /// Warm spares spawned (`rs.standby.spares_started`).
    pub spares_started: u64,
    /// Checkpoint tail polls the spares issued (`ckpt.tail_polls`).
    pub tail_polls: u64,
    /// Tail replies that advanced a spare's cursor (`ckpt.tail_adopted`).
    pub tail_adopted: u64,
    /// One entry per driver class, printer then audio.
    pub classes: Vec<StandbyClassStats>,
    /// Bytes the printer committed to paper (device oracle).
    pub printed_bytes: u64,
    /// Bytes the print job contained.
    pub expected_printed: u64,
    /// The printed stream equals the job byte-for-byte.
    pub printer_byte_exact: bool,
    /// Bytes the DAC played (device oracle).
    pub samples_played: u64,
    /// Bytes the audio stream contained.
    pub expected_samples: u64,
    /// Samples played twice (§6.3: audio recovery is not transparent —
    /// a promoted spare's tailed watermark may lag the primary by up to
    /// one tail period, so the replayed suffix can duplicate a block).
    pub audio_dup_bytes: u64,
    /// Errors that surfaced to the applications (must be 0).
    pub app_visible_errors: u64,
    /// Log replays the checkpointed apps performed.
    pub replays: u64,
    /// Watermark jumps (lost/stale snapshot, caller log trusted).
    pub watermark_jumps: u64,
    /// Both workloads ran to completion.
    pub workloads_done: bool,
    /// Controller steps that changed a parameter (`rs.adapt.updates`).
    pub adapt_updates: u64,
    /// Final adapted values of the printer and audio drivers, in name
    /// order.
    pub adapt_gauges: Vec<(String, u64)>,
    /// Per-parameter trajectory range `(param, min, max)` observed by the
    /// audit-sweep trace histograms — the whole range must sit inside the
    /// rule's clamp band.
    pub adapt_trace: Vec<(String, u64, u64)>,
    /// Clamp-band violations found in the `rs.adapt.trace.*`
    /// trajectories (must be empty).
    pub adapt_out_of_band: Vec<String>,
    /// Trace events lost to ring eviction (0 = complete timeline).
    pub trace_dropped: u64,
    /// Per-event-kind breakdown of trace loss.
    pub trace_dropped_by_kind: Vec<(String, u64)>,
    /// MD5 over the canonical metrics dump — byte-identical across two
    /// same-seed runs.
    pub digest: String,
}

impl StandbyCampaignResult {
    /// The stats row for a driver class.
    pub fn class(&self, driver: &str) -> Option<&StandbyClassStats> {
        self.classes.iter().find(|c| c.driver == driver)
    }

    /// Renders the summary: mode line, per-class repair rows, workload
    /// integrity, and the adapted-parameter line next to the digest.
    pub fn render(&self) -> String {
        let mut out = format!(
            "standby={} adapt={}: {} faults -> {} recoveries \
             ({} promotions, {} spares, {} tail polls / {} adopted)\n",
            self.hot_standby,
            self.adapt,
            self.faults,
            self.recoveries,
            self.promotions,
            self.spares_started,
            self.tail_polls,
            self.tail_adopted,
        );
        for c in &self.classes {
            out.push_str(&format!(
                "{:<12} faults {:>3} recovered {:>3} unrecovered {}  \
                 repair mean {} max {} over {} episodes\n",
                c.driver,
                c.faults,
                c.recovered,
                c.unrecovered,
                SimDuration::from_micros(c.repair_mean_us),
                SimDuration::from_micros(c.repair_max_us),
                c.repair_episodes,
            ));
        }
        out.push_str(&format!(
            "printer {}/{} bytes (byte-exact: {}), audio {}/{} bytes \
             ({} duplicated), app errors {}, replays {}, watermark jumps {}\n",
            self.printed_bytes,
            self.expected_printed,
            self.printer_byte_exact,
            self.samples_played,
            self.expected_samples,
            self.audio_dup_bytes,
            self.app_visible_errors,
            self.replays,
            self.watermark_jumps,
        ));
        out.push_str(&format!(
            "adapt updates {}, {}; digest {}",
            self.adapt_updates,
            join_gauges(&self.adapt_gauges),
            self.digest,
        ));
        if !self.adapt_trace.is_empty() {
            let ranges: Vec<String> = self
                .adapt_trace
                .iter()
                .map(|(p, lo, hi)| format!("{p}={lo}..{hi}"))
                .collect();
            out.push_str(&format!("\nadapt trajectory: {}", ranges.join(" ")));
        }
        for v in &self.adapt_out_of_band {
            out.push_str(&format!("\nWARNING: {v}"));
        }
        push_trace_loss(
            &mut out,
            "\n",
            self.trace_dropped,
            &self.trace_dropped_by_kind,
            "",
        );
        out
    }
}

/// Outcome of [`run_standby_control`]: the no-fault arm with hot standby
/// armed. Any promotion or recovery here is a false failover of a
/// healthy driver.
#[derive(Debug, Clone, Default)]
pub struct StandbyControl {
    /// Spare promotions (must be 0).
    pub promotions: u64,
    /// Recoveries RS executed (must be 0).
    pub recoveries: u64,
    /// Complaints RS accepted (must be 0).
    pub complaints_accepted: u64,
    /// Warm spares spawned (liveness floor: both classes covered).
    pub spares_started: u64,
    /// Tail polls issued (liveness floor: the tail loop actually runs).
    pub tail_polls: u64,
    /// Bytes the printer workload got acknowledged (liveness floor).
    pub printed_acked: u64,
    /// Bytes the audio workload got acknowledged (liveness floor).
    pub audio_acked: u64,
    /// Same determinism fingerprint as the campaign's.
    pub digest: String,
}

/// The two checkpointed streams of a standby run, by driver class
/// (0 = printer, 1 = audio).
pub(super) struct StandbyStreams {
    apps: CkptStreams,
    job_len: u64,
    expected_samples: u64,
}

impl StandbyStreams {
    /// Monotone per-class progress odometer (driver-acked bytes).
    fn progress(&self, class: usize) -> u64 {
        if class == 0 {
            self.apps.lpd.borrow().acked
        } else {
            self.apps.mp3.borrow().acked
        }
    }

    fn done(&self, class: usize) -> bool {
        if class == 0 {
            self.apps.lpd.borrow().done
        } else {
            self.apps.mp3.borrow().done
        }
    }
}

/// Boots the char-device machine (checkpointing on, warm spares and the
/// adapt controllers per `cfg`) with the checkpointed print and audio
/// workloads sized to stay in flight across the whole fault schedule.
pub(super) fn standby_rig(cfg: &StandbyCampaignConfig) -> (Os, StandbyStreams) {
    let mut builder = Os::builder()
        .seed(cfg.seed)
        .heartbeat(SimDuration::from_millis(500), 3);
    builder = if cfg.hot_standby {
        builder.with_hot_standby()
    } else {
        builder.with_checkpointing()
    };
    if cfg.adapt {
        builder = builder.adapt_policy(standby_adapt_script());
    }
    let mut os = builder.boot();

    // The drivers deduplicate replayed WAL writes against an absolute
    // stream watermark, so each class runs ONE long job sized to outlast
    // the whole schedule: a wedge is detected by heartbeat alone, but a
    // garbled checksum only trips the sentinels while requests flow.
    // Budget ~8 s of stream per fault (worst-case wedge detection is
    // 3 misses at the 2 s heartbeat-period clamp ceiling, plus backoff
    // and pacing) — the printer eats 32 KB/s, the DAC 176.4 KB/s.
    let secs = cfg.faults * 8 + 20;
    let job = ckpt_print_job(cfg.seed, (secs * 32 * 1024) as usize);
    let job_len = job.len() as u64;
    let audio_blocks = secs * 40;
    let apps = CkptStreams::spawn(&mut os, job, audio_blocks);
    // Let the workloads open their devices and the spares start tailing.
    os.run_for(SimDuration::from_millis(300));
    let streams = StandbyStreams {
        apps,
        job_len,
        expected_samples: audio_blocks * AUDIO_BLOCK_BYTES as u64,
    };
    (os, streams)
}

/// Fills the result fields shared by the campaign and its control:
/// fossilizes the run, folds the per-class repair phases, snapshots the
/// standby and adapt counters, and audits the `rs.adapt.trace.*`
/// trajectories against the declared clamp bands.
fn standby_fossilize(os: &mut Os, cfg: &StandbyCampaignConfig) -> StandbyCampaignResult {
    let fossil = fossilize(os, &[]);

    let mut classes = Vec::new();
    for driver in [names::CHR_PRINTER, names::CHR_AUDIO] {
        let repairs: Vec<u64> = fossil
            .timeline
            .episodes
            .iter()
            .filter(|e| e.service == driver)
            .filter_map(|e| e.repair().map(|d| d.as_micros()))
            .collect();
        let mean = if repairs.is_empty() {
            0
        } else {
            repairs.iter().sum::<u64>() / repairs.len() as u64
        };
        classes.push(StandbyClassStats {
            driver: driver.to_string(),
            repair_episodes: repairs.len(),
            repair_mean_us: mean,
            repair_max_us: repairs.iter().copied().max().unwrap_or(0),
            ..StandbyClassStats::default()
        });
    }

    // Clamp-band audit: the per-parameter trajectory histograms must
    // never leave the band their rule declared.
    let mut out_of_band = Vec::new();
    let mut adapt_trace = Vec::new();
    if cfg.adapt {
        for rule in standby_adapt_script().adapt_rules() {
            let (lo, hi) = rule.clamp_band();
            let name = rule.param.trace();
            if let Some(h) = os.metrics().log_histogram(name) {
                let (min, max) = (h.min().unwrap_or(lo), h.max().unwrap_or(hi));
                adapt_trace.push((rule.param.name().to_string(), min, max));
                if min < lo || max > hi {
                    out_of_band.push(format!(
                        "{name} left clamp band [{lo}, {hi}]: saw [{min}, {max}]"
                    ));
                }
            }
        }
    }

    let m = os.metrics();
    StandbyCampaignResult {
        hot_standby: cfg.hot_standby,
        adapt: cfg.adapt,
        recoveries: m.counter("rs.recoveries"),
        promotions: m.counter("rs.standby.promotions"),
        spares_started: m.counter("rs.standby.spares_started"),
        tail_polls: m.counter("ckpt.tail_polls"),
        tail_adopted: m.counter("ckpt.tail_adopted"),
        classes,
        watermark_jumps: m.counter("ckpt.watermark_jumps"),
        adapt_updates: m.counter("rs.adapt.updates"),
        adapt_gauges: adapt_gauges(os),
        adapt_trace,
        adapt_out_of_band: out_of_band,
        trace_dropped: fossil.trace_dropped,
        trace_dropped_by_kind: fossil.trace_dropped_by_kind,
        digest: fossil.digest,
        ..StandbyCampaignResult::default()
    }
}

/// Runs the standby campaign: boots the char-device machine with warm
/// spares on or off, streams the checkpointed print job and audio stream
/// through the drivers, and injects deterministic defects — wedge loops
/// (heartbeat class) alternating with checksum garbles (complaint class)
/// — into the printer and audio drivers in turn. Each fault waits for
/// the recovery counter to move before the next, so the repair-phase
/// histograms compare promotion against cold restart+replay on the same
/// defect schedule. Hands back the booted [`Os`] for inspection.
pub fn run_standby_campaign(cfg: &StandbyCampaignConfig) -> (StandbyCampaignResult, Os) {
    let (mut os, streams) = standby_rig(cfg);
    let poll = SimDuration::from_millis(10);
    let mut class_faults = [0u64; 2];
    let mut class_recovered = [0u64; 2];
    let mut class_unrecovered = [0u64; 2];

    for i in 0..cfg.faults {
        let class = (i % 2) as usize;
        let target = [names::CHR_PRINTER, names::CHR_AUDIO][class];
        // Wait until the (possibly just-recovered) driver is actually
        // serving again: the class odometer must move. The stream is
        // sized to outlast the schedule, but a wedged driver with no
        // traffic cannot trip the complaint sentinels, so never inject
        // into a finished class.
        let p0 = streams.progress(class);
        os.run_until(poll, 1200, |_| {
            streams.done(class) || streams.progress(class) != p0
        });
        if streams.done(class) {
            continue;
        }
        // Deterministic defect: wedge -> heartbeat miss, garble ->
        // complaint quorum. Both end in RS replacing the incarnation.
        let wedge = (i / 2) % 2 == 0;
        let injected = if wedge {
            os.wedge_driver_in_loop(target)
        } else {
            os.garble_driver_checksum(target)
        };
        if !injected {
            os.run_for(SimDuration::from_millis(100));
            continue;
        }
        class_faults[class] += 1;
        let rec_before = os.metrics().counter("rs.recoveries");
        if os.run_until(poll, 2000, |os| {
            os.metrics().counter("rs.recoveries") > rec_before
        }) {
            class_recovered[class] += 1;
        } else {
            class_unrecovered[class] += 1;
        }
        os.run_for(FAULT_INTERVAL);
    }

    // Drain: the streams are sized to outlast the schedule, so let both
    // run to completion and the devices catch up (the DAC still has
    // queued blocks, the printer FIFO is draining). The guard is sized
    // for the leftover stream, not wall-clock comfort — the sim is fast.
    let expected_printed = streams.job_len;
    let expected_samples = streams.expected_samples;
    let max_steps = (cfg.faults + 4) * 8 * 20 * 2; // 2x budget, 50 ms steps
    os.run_until(SimDuration::from_millis(50), max_steps, |os| {
        streams.apps.done()
            && samples_played(os) >= expected_samples
            && printed_bytes(os) >= expected_printed
    });

    let mut result = standby_fossilize(&mut os, cfg);
    result.faults = class_faults.iter().sum();
    for (i, c) in result.classes.iter_mut().enumerate() {
        c.faults = class_faults[i];
        c.recovered = class_recovered[i];
        c.unrecovered = class_unrecovered[i];
    }
    result.expected_printed = expected_printed;
    result.expected_samples = expected_samples;
    let job = ckpt_print_job(cfg.seed, expected_printed as usize);
    result.printed_bytes = printed_bytes(&mut os);
    result.printer_byte_exact = printer_byte_exact(&mut os, &job);
    result.samples_played = samples_played(&mut os);
    result.audio_dup_bytes = result.samples_played.saturating_sub(expected_samples);
    result.app_visible_errors = streams.apps.app_errors();
    result.replays = streams.apps.replays();
    result.workloads_done = streams.apps.done();
    (result, os)
}

/// Runs the no-fault control arm: hot standby armed, the same workloads,
/// zero injections, fixed virtual duration. Every promotion, recovery or
/// accepted complaint it reports is a false failover.
pub fn run_standby_control(cfg: &StandbyCampaignConfig, run_for: SimDuration) -> StandbyControl {
    let (mut os, streams) = standby_rig(cfg);
    os.run_for(run_for);
    let result = standby_fossilize(&mut os, cfg);
    StandbyControl {
        promotions: result.promotions,
        recoveries: result.recoveries,
        complaints_accepted: os.metrics().counter("rs.complaints.accepted"),
        spares_started: result.spares_started,
        tail_polls: result.tail_polls,
        printed_acked: streams.progress(0),
        audio_acked: streams.progress(1),
        digest: result.digest,
    }
}
