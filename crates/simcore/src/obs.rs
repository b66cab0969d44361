//! Recovery-episode timeline analysis.
//!
//! Folds a structured trace (see [`crate::trace`]) into per-episode phase
//! timings, mirroring the paper's recovery-time decomposition (§7.1):
//!
//! * **detection** — the component died (kernel `death` event) until the
//!   reincarnation server noticed the defect (`defect` event). For defects
//!   the RS itself initiates (missed heartbeats, complaints) the kill it
//!   issues is the earliest observable origin, so detection measures the
//!   kernel-exit→SIGCHLD delivery path; the preceding silent-failure window
//!   is unobservable by construction.
//! * **repair** — defect noticed until the fresh incarnation is alive
//!   (`alive` event: policy ran, exec completed, process initialized).
//! * **reintegration** — the data store published the new endpoint
//!   (`publish` event) until the last dependent resumed (INET re-init,
//!   VFS/MFS pending-I/O reissue); zero when nothing depends on the
//!   restarted component.
//!
//! The fold keys off [`RecoveryId`] correlation tokens and conventional
//! `ev` fields, never off message text, so the analyzer is robust to
//! wording changes. Under chaos the correlation token travels inside IPC
//! messages and can be bit-flipped by a corrupting fabric; the fold
//! therefore tolerates events with unknown ids (they open a skeleton
//! episode that simply stays incomplete) and never panics.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::metrics::MetricsRegistry;
use crate::time::{SimDuration, SimTime};
use crate::trace::{RecoveryId, TraceEvent};

/// Conventional values of the `ev` field recognized by the fold.
pub mod kind {
    /// Kernel: a process died (fields: `proc`, `ep`, `reason`).
    pub const DEATH: &str = "death";
    /// RS: defect detected, episode opens (fields: `service`, `class`).
    pub const DEFECT: &str = "defect";
    /// RS: restart scheduled by policy (field: `delay_us`).
    pub const RESTART: &str = "restart";
    /// RS: fresh incarnation exec'd (field: `service`).
    pub const EXEC: &str = "exec";
    /// RS: fresh incarnation alive and published (fields: `service`, `ep`).
    pub const ALIVE: &str = "alive";
    /// DS: new endpoint published to subscribers (fields: `key`, `ep`).
    pub const PUBLISH: &str = "publish";
    /// Dependent server: begins reintegrating the new endpoint.
    pub const REINTEGRATE: &str = "reintegrate";
    /// Dependent server: fully resumed (I/O reissued, driver re-inited).
    pub const RESUME: &str = "resume";
    /// RS: escalation ladder ended in give-up; episode is terminal.
    pub const GAVE_UP: &str = "gave-up";
    /// Driver: pulled its last checkpoint from DS (fields: `seq`,
    /// `watermark`).
    pub const RESTORE: &str = "restore";
    /// Driver: caller-held log replayed past the restored watermark
    /// (fields: `offset`, `dup_bytes`).
    pub const REPLAY: &str = "replay";
}

/// Counter-name prefixes of the fail-silent detection machinery:
/// `sentinel.*` (per-server protocol-sentinel evidence) and
/// `rs.complaints.*` (RS complaint-arbitration outcomes).
pub const SENTINEL_PREFIXES: [&str; 2] = ["sentinel.", "rs.complaints."];

/// Extracts the sentinel / complaint-arbitration counters from a
/// metrics registry, in sorted-name order — the observability surface
/// the fail-silent campaign reports alongside the recovery timeline
/// (and folds into its determinism digest next to `trace.dropped`).
pub fn sentinel_counters(metrics: &MetricsRegistry) -> Vec<(String, u64)> {
    metrics
        .counters()
        .filter(|(name, _)| SENTINEL_PREFIXES.iter().any(|p| name.starts_with(p)))
        .map(|(name, v)| (name.to_string(), v))
        .collect()
}

/// Phase labels used by request attribution (`slo.*` metric suffixes).
/// `STEADY` means the completion fell outside every episode window.
pub mod phase {
    /// Outside every recovery window.
    pub const STEADY: &str = "steady";
    /// Between the kernel-observed death and RS noticing the defect.
    pub const DETECT: &str = "detect";
    /// Between RS noticing and the fresh incarnation coming alive.
    pub const REPAIR: &str = "repair";
    /// Between the fresh incarnation and the last dependent resuming.
    pub const REINTEGRATE: &str = "reintegrate";
    /// Inside the caller-log replay window of a checkpointed dependent.
    pub const REPLAY: &str = "replay";

    /// All labels, steady first — the iteration order reports use.
    pub const ALL: [&str; 5] = [STEADY, DETECT, REPAIR, REINTEGRATE, REPLAY];
}

/// The recovery-time histograms [`Timeline::record_into`] feeds, in
/// microseconds: `(phase label, metric name)` in report order — the
/// phases of an episode, then the episode end to end.
pub const RECOVERY_PHASES: [(&str, &str); 5] = [
    (phase::DETECT, "recovery.phase.detect"),
    (phase::REPAIR, "recovery.phase.repair"),
    (phase::REINTEGRATE, "recovery.phase.reintegrate"),
    (phase::REPLAY, "recovery.phase.replay"),
    ("total", "recovery.phase.total"),
];

/// The `slo.*` metric names of one phase, so the request fold names a
/// counter without building its name.
struct SloNames {
    phase: &'static str,
    requests: &'static str,
    failed: &'static str,
    latency: &'static str,
    goodput_bytes: &'static str,
    phase_us: &'static str,
    hol_depth: &'static str,
}

macro_rules! slo_names {
    ($($phase:literal),*) => {
        [$(SloNames {
            phase: $phase,
            requests: concat!("slo.requests.", $phase),
            failed: concat!("slo.failed.", $phase),
            latency: concat!("slo.latency.", $phase),
            goodput_bytes: concat!("slo.goodput_bytes.", $phase),
            phase_us: concat!("slo.phase_us.", $phase),
            hol_depth: concat!("slo.hol_depth.", $phase),
        }),*]
    };
}

/// One row per label of [`phase::ALL`], in that order.
static SLO_NAMES: [SloNames; 5] = slo_names!("steady", "detect", "repair", "reintegrate", "replay");

fn slo_names(phase: &str) -> &'static SloNames {
    SLO_NAMES
        .iter()
        .find(|names| names.phase == phase)
        // analyze:allow(panic-reach): callers pass a label of `phase::ALL`,
        // and a unit test holds the table to that list.
        .expect("a label of phase::ALL")
}

/// One client request as recorded by the load generator: issue and
/// completion instants on the virtual clock, payload size, and whether
/// it completed successfully. The attribution fold joins these against
/// the recovery timeline after the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestRecord {
    /// When the client issued the request (open-loop arrival).
    pub start: SimTime,
    /// When the reply (or failure) reached the client.
    pub end: SimTime,
    /// Payload bytes delivered (0 for failed requests).
    pub bytes: u64,
    /// `false` if the request errored or was abandoned.
    pub ok: bool,
}

/// One reconstructed recovery episode: every rid-tagged event between the
/// defect and the last dependent's resumption, reduced to phase anchors.
#[derive(Debug, Clone, PartialEq)]
pub struct Episode {
    /// The correlation token all events of this episode share.
    pub rid: RecoveryId,
    /// Service that failed (empty if only corrupted-id events were seen).
    pub service: String,
    /// Defect class as classified by RS (§5.1), e.g. `"exit"`.
    pub class: String,
    /// Kernel-observed death of the old incarnation, if recorded.
    pub defect_at: Option<SimTime>,
    /// RS noticed the defect (episode start).
    pub noticed_at: Option<SimTime>,
    /// Fresh incarnation alive (repair done).
    pub alive_at: Option<SimTime>,
    /// DS published the new endpoint.
    pub published_at: Option<SimTime>,
    /// Last dependent-server event (reintegration done).
    pub resumed_at: Option<SimTime>,
    /// Last caller-held-log replay past the restored checkpoint
    /// watermark (the `phoenix-ckpt` replay phase).
    pub replay_done_at: Option<SimTime>,
    /// RS gave up on this service; the episode is terminal but incomplete.
    pub gave_up: bool,
    /// A later episode for the same service opened before this one
    /// completed (e.g. the fresh incarnation was killed mid-recovery and
    /// became a new defect); phases are attributed to the successor.
    pub superseded: bool,
    /// Number of rid-tagged events folded into this episode.
    pub events: usize,
}

impl Episode {
    fn new(rid: RecoveryId) -> Self {
        Episode {
            rid,
            service: String::new(),
            class: String::new(),
            defect_at: None,
            noticed_at: None,
            alive_at: None,
            published_at: None,
            resumed_at: None,
            replay_done_at: None,
            gave_up: false,
            superseded: false,
            events: 0,
        }
    }

    /// Detection latency: kernel death → RS notices. Zero when the kernel
    /// death event was not observed (e.g. evicted from the ring).
    pub fn detection(&self) -> Option<SimDuration> {
        let noticed = self.noticed_at?;
        Some(noticed.since(self.defect_at.unwrap_or(noticed)))
    }

    /// Repair latency: RS notices → fresh incarnation alive.
    pub fn repair(&self) -> Option<SimDuration> {
        Some(self.alive_at?.since(self.noticed_at?))
    }

    /// Reintegration latency: DS publish → last dependent resumed. Zero
    /// when the restarted component has no dependents.
    pub fn reintegration(&self) -> Option<SimDuration> {
        let published = self.published_at?;
        Some(
            self.resumed_at
                .unwrap_or(published)
                .max(published)
                .since(published),
        )
    }

    /// Replay latency: DS publish → last caller-log replay past the
    /// restored watermark. `None` for episodes without checkpointed
    /// dependents.
    pub fn replay(&self) -> Option<SimDuration> {
        Some(self.replay_done_at?.since(self.published_at?))
    }

    /// End-to-end latency: kernel death (or RS notice) → last event.
    pub fn total(&self) -> Option<SimDuration> {
        let start = self.defect_at.or(self.noticed_at)?;
        let end = [
            self.noticed_at,
            self.alive_at,
            self.published_at,
            self.resumed_at,
            self.replay_done_at,
        ]
        .into_iter()
        .flatten()
        .fold(start, SimTime::max);
        Some(end.since(start))
    }

    /// `true` when all three phases have anchors: the defect was noticed,
    /// the service came back, and the new endpoint was published.
    pub fn complete(&self) -> bool {
        self.noticed_at.is_some() && self.alive_at.is_some() && self.published_at.is_some()
    }

    /// Phase windows of this episode as `(phase, start, end)` triples in
    /// *precedence* order for request attribution: a completion instant
    /// is matched against detection, repair, replay, then reintegration
    /// (replay overlaps the tail of reintegration and wins inside its
    /// window). Windows are half-open `[start, end)`: a request
    /// completing exactly when the last dependent resumed already sees
    /// the recovered system and counts as steady state.
    pub fn windows(&self) -> impl Iterator<Item = (&'static str, SimTime, SimTime)> {
        let mut out = [None; 4];
        if let Some(noticed) = self.noticed_at {
            let start = self.defect_at.unwrap_or(noticed);
            out[0] = Some((phase::DETECT, start, noticed));
            if let Some(alive) = self.alive_at {
                out[1] = Some((phase::REPAIR, noticed, alive));
                if let (Some(published), Some(replay_done)) =
                    (self.published_at, self.replay_done_at)
                {
                    out[2] = Some((phase::REPLAY, published, replay_done));
                }
                let reint_end = [self.published_at, self.resumed_at, self.replay_done_at]
                    .into_iter()
                    .flatten()
                    .fold(alive, SimTime::max);
                out[3] = Some((phase::REINTEGRATE, alive, reint_end));
            }
        }
        out.into_iter().flatten()
    }

    /// One human-readable summary line.
    pub fn render(&self) -> String {
        let phase = |d: Option<SimDuration>| match d {
            Some(d) => format!("{d}"),
            None => "-".to_string(),
        };
        let status = if self.complete() {
            "complete"
        } else if self.gave_up {
            "gave-up"
        } else if self.superseded {
            "superseded"
        } else {
            "incomplete"
        };
        format!(
            "{} {} [{}] detect={} repair={} reintegrate={} total={} ({status}, {} events)",
            self.rid,
            if self.service.is_empty() {
                "?"
            } else {
                &self.service
            },
            if self.class.is_empty() {
                "?"
            } else {
                &self.class
            },
            phase(self.detection()),
            phase(self.repair()),
            phase(self.reintegration()),
            phase(self.total()),
            self.events,
        )
    }
}

/// All episodes reconstructed from one trace, in episode-id order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timeline {
    /// The reconstructed episodes, ordered by [`RecoveryId`].
    pub episodes: Vec<Episode>,
}

/// Folds a trace into a [`Timeline`]. Events must arrive oldest-first
/// (the order [`crate::trace::TraceRing::events`] yields).
// analyze:recovery-root
pub fn fold_timeline<'a>(events: impl IntoIterator<Item = &'a TraceEvent>) -> Timeline {
    let mut episodes: BTreeMap<u64, Episode> = BTreeMap::new();
    // Most recent kernel-observed death per process name, consumed by the
    // next defect event for that service so a stale death can't be
    // attributed to a later, unrelated episode.
    let mut last_death: BTreeMap<String, SimTime> = BTreeMap::new();
    for e in events {
        if e.kind() == Some(kind::DEATH) {
            if let Some(name) = e.field_str("proc") {
                last_death.insert(name.to_string(), e.at);
            }
            continue;
        }
        let Some(rid) = e.recovery else {
            continue;
        };
        let ep = episodes
            .entry(rid.as_u64())
            .or_insert_with(|| Episode::new(rid));
        ep.events += 1;
        match e.kind() {
            Some(kind::DEFECT) => {
                if let Some(service) = e.field_str("service") {
                    ep.service = service.to_string();
                    ep.defect_at = last_death.remove(service);
                }
                if let Some(class) = e.field_str("class") {
                    ep.class = class.to_string();
                }
                ep.noticed_at = Some(e.at);
            }
            Some(kind::ALIVE) => {
                ep.alive_at = Some(e.at);
            }
            Some(kind::PUBLISH) if e.component == "ds" => {
                if ep.published_at.is_none() {
                    ep.published_at = Some(e.at);
                }
            }
            Some(kind::GAVE_UP) => {
                ep.gave_up = true;
            }
            Some(kind::RESTORE) => {
                // A checkpointed driver pulling its snapshot is dependent
                // activity; it anchors resumption but not replay.
                ep.resumed_at = Some(ep.resumed_at.unwrap_or(e.at).max(e.at));
            }
            Some(kind::REPLAY) => {
                ep.replay_done_at = Some(ep.replay_done_at.unwrap_or(e.at).max(e.at));
                ep.resumed_at = Some(ep.resumed_at.unwrap_or(e.at).max(e.at));
            }
            _ => {
                // Any rid-tagged event from outside the recovery
                // infrastructure is a dependent reintegrating; the last
                // one marks the episode's resumption point.
                if e.component != "rs" && e.component != "ds" {
                    ep.resumed_at = Some(ep.resumed_at.unwrap_or(e.at).max(e.at));
                }
            }
        }
    }
    let mut episodes: Vec<Episode> = episodes.into_values().collect();
    // Supersede pass: an incomplete episode followed by a later episode
    // for the same service was subsumed by it (mid-recovery crash).
    let mut latest: BTreeMap<String, u64> = BTreeMap::new();
    for ep in episodes.iter().rev() {
        if ep.service.is_empty() {
            continue;
        }
        if !latest.contains_key(&ep.service) {
            latest.insert(ep.service.clone(), ep.rid.as_u64());
        }
    }
    for ep in &mut episodes {
        if !ep.complete()
            && !ep.gave_up
            && latest
                .get(&ep.service)
                .is_some_and(|&r| r > ep.rid.as_u64())
        {
            ep.superseded = true;
        }
    }
    Timeline { episodes }
}

impl Timeline {
    /// The episode with id `rid`, if reconstructed.
    pub fn episode(&self, rid: RecoveryId) -> Option<&Episode> {
        self.episodes.iter().find(|e| e.rid == rid)
    }

    /// Episodes for `service`, in id order.
    pub fn for_service<'a>(&'a self, service: &'a str) -> impl Iterator<Item = &'a Episode> {
        self.episodes.iter().filter(move |e| e.service == service)
    }

    /// Number of complete episodes.
    pub fn complete_count(&self) -> usize {
        self.episodes.iter().filter(|e| e.complete()).count()
    }

    /// Episodes that are neither complete nor accounted for (superseded by
    /// a successor or terminated by give-up). A non-empty result means the
    /// trace lost part of a recovery — the bench gates on this.
    pub fn unaccounted(&self) -> Vec<&Episode> {
        self.episodes
            .iter()
            .filter(|e| !e.complete() && !e.superseded && !e.gave_up)
            .collect()
    }

    /// Feeds per-phase histograms and episode counters into `metrics`:
    /// one [`RECOVERY_PHASES`] sample per phase a complete episode went
    /// through (`replay` only with checkpointed dependents), and the
    /// `obs.episodes.*` counters.
    // analyze:recovery-root
    pub fn record_into(&self, metrics: &mut MetricsRegistry) {
        for ep in &self.episodes {
            metrics.incr("obs.episodes");
            if ep.superseded {
                metrics.incr("obs.episodes.superseded");
            }
            if ep.gave_up {
                metrics.incr("obs.episodes.gave_up");
            }
            if !ep.complete() {
                continue;
            }
            metrics.incr("obs.episodes.complete");
            let durations = [
                ep.detection(),
                ep.repair(),
                ep.reintegration(),
                ep.replay(),
                ep.total(),
            ];
            for ((_, name), d) in RECOVERY_PHASES.iter().zip(durations) {
                if let Some(d) = d {
                    metrics.record_duration(name, d);
                }
            }
        }
    }

    /// Attributes a completion instant to a recovery phase, or to steady
    /// state when it falls outside every episode's windows. Episodes are
    /// scanned in id order and each episode's windows in precedence
    /// order ([`Episode::windows`]), so the attribution of any instant
    /// is a pure function of the timeline.
    // analyze:recovery-root
    pub fn attribute(&self, at: SimTime) -> (&'static str, Option<RecoveryId>) {
        for ep in &self.episodes {
            for (ph, start, end) in ep.windows() {
                if at >= start && at < end {
                    return (ph, Some(ep.rid));
                }
            }
        }
        (phase::STEADY, None)
    }

    /// Folds per-request latency records into `metrics`, attributing
    /// each completion to steady state or a recovery phase:
    ///
    /// * `slo.latency.{phase}` — [`crate::metrics::LogHistogram`] of
    ///   completion latencies in microseconds (successful requests);
    /// * `slo.requests.{phase}` / `slo.failed.{phase}` — completion and
    ///   failure counts;
    /// * `slo.goodput_bytes.{phase}` — payload bytes delivered;
    /// * `slo.phase_us.{phase}` — total wall (virtual) time spent in the
    ///   phase across all episodes, with `steady` making the span sum to
    ///   the full `[first start, last end]` request span — the
    ///   denominator for goodput rates;
    /// * `slo.hol_depth.{phase}` — maximum head-of-line depth (requests
    ///   in flight) observed while the system was in the phase.
    // analyze:recovery-root
    pub fn record_requests_into(&self, requests: &[RequestRecord], metrics: &mut MetricsRegistry) {
        if requests.is_empty() {
            return;
        }
        for r in requests {
            let names = slo_names(self.attribute(r.end).0);
            metrics.incr(names.requests);
            if r.ok {
                metrics.record_duration(names.latency, r.end.since(r.start));
                metrics.add(names.goodput_bytes, r.bytes);
            } else {
                metrics.incr(names.failed);
            }
        }
        // Phase wall-time: clip every episode window to the request span
        // and charge the remainder to steady state. Windows of distinct
        // episodes do not overlap in practice (one recovery at a time per
        // service, and concurrent services' windows are charged to both —
        // acceptable for a denominator that only feeds rates).
        let span_start = requests
            .iter()
            .map(|r| r.start)
            .min()
            .unwrap_or(SimTime::ZERO);
        let span_end = requests.iter().map(|r| r.end).max().unwrap_or(span_start);
        let span_us = span_end.since(span_start).as_micros();
        let mut recovery_us = 0u64;
        for ep in &self.episodes {
            let mut charged_until = SimTime::ZERO;
            for (ph, start, end) in ep.windows() {
                let s = start.max(span_start).max(charged_until);
                let e = if end < span_end { end } else { span_end };
                if e > s {
                    let us = e.since(s).as_micros();
                    metrics.add(slo_names(ph).phase_us, us);
                    recovery_us += us;
                    charged_until = e;
                }
            }
        }
        metrics.add("slo.phase_us.steady", span_us.saturating_sub(recovery_us));
        // Head-of-line depth: sweep arrivals/completions in time order
        // (completions first at equal instants) and record the peak
        // in-flight depth seen within each phase.
        let mut edges: Vec<(SimTime, i64)> = Vec::with_capacity(requests.len() * 2);
        for r in requests {
            edges.push((r.start, 1));
            edges.push((r.end, -1));
        }
        edges.sort_by_key(|&(t, delta)| (t, delta));
        let mut depth = 0i64;
        let mut peak: BTreeMap<&'static str, i64> = BTreeMap::new();
        for (t, delta) in edges {
            depth += delta;
            if delta > 0 {
                let (ph, _) = self.attribute(t);
                let entry = peak.entry(ph).or_default();
                *entry = (*entry).max(depth);
            }
        }
        for (ph, d) in peak {
            metrics.set(slo_names(ph).hol_depth, d.max(0) as u64);
        }
    }

    /// Renders every episode, one line each.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for ep in &self.episodes {
            let _ = writeln!(out, "{}", ep.render());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::tests::rid;
    use crate::trace::{TraceLevel, TraceRing};

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn ev(at: u64, comp: &str, kind_: &str, episode: Option<u64>) -> TraceEvent {
        let mut e = TraceEvent::new(t(at), TraceLevel::Info, comp, kind_).with_field("ev", kind_);
        if let Some(r) = episode {
            e = e.in_recovery(rid(r));
        }
        e
    }

    fn full_episode() -> Vec<TraceEvent> {
        vec![
            ev(100, "kernel", kind::DEATH, None)
                .with_field("proc", "eth.rtl8139")
                .with_field("reason", "exit"),
            ev(110, "rs", kind::DEFECT, Some(1))
                .with_field("service", "eth.rtl8139")
                .with_field("class", "exit"),
            ev(120, "rs", kind::RESTART, Some(1)),
            ev(500, "rs", kind::ALIVE, Some(1)).with_field("service", "eth.rtl8139"),
            ev(510, "ds", kind::PUBLISH, Some(1)).with_field("key", "eth.rtl8139"),
            ev(520, "inet", kind::REINTEGRATE, Some(1)),
            ev(900, "inet", kind::RESUME, Some(1)),
        ]
    }

    #[test]
    fn folds_one_complete_episode_with_phases() {
        let events = full_episode();
        let tl = fold_timeline(events.iter());
        assert_eq!(tl.episodes.len(), 1);
        let ep = &tl.episodes[0];
        assert!(ep.complete(), "{}", ep.render());
        assert_eq!(ep.service, "eth.rtl8139");
        assert_eq!(ep.class, "exit");
        assert_eq!(ep.detection(), Some(SimDuration::from_micros(10)));
        assert_eq!(ep.repair(), Some(SimDuration::from_micros(390)));
        assert_eq!(ep.reintegration(), Some(SimDuration::from_micros(390)));
        assert_eq!(ep.total(), Some(SimDuration::from_micros(800)));
        assert!(tl.unaccounted().is_empty());
    }

    #[test]
    fn missing_death_event_gives_zero_detection() {
        let mut events = full_episode();
        events.remove(0);
        let tl = fold_timeline(events.iter());
        let ep = &tl.episodes[0];
        assert_eq!(ep.detection(), Some(SimDuration::ZERO));
        assert!(ep.complete());
    }

    #[test]
    fn no_dependents_means_zero_reintegration() {
        let events = [
            ev(10, "rs", kind::DEFECT, Some(2)).with_field("service", "chr.printer"),
            ev(50, "rs", kind::ALIVE, Some(2)),
            ev(55, "ds", kind::PUBLISH, Some(2)),
        ];
        let tl = fold_timeline(events.iter());
        let ep = &tl.episodes[0];
        assert!(ep.complete());
        assert_eq!(ep.reintegration(), Some(SimDuration::ZERO));
    }

    #[test]
    fn mid_recovery_crash_marks_predecessor_superseded() {
        let events = [
            ev(10, "rs", kind::DEFECT, Some(1)).with_field("service", "eth"),
            // The fresh incarnation dies before coming alive: a new
            // episode opens for the same service.
            ev(30, "rs", kind::DEFECT, Some(2)).with_field("service", "eth"),
            ev(90, "rs", kind::ALIVE, Some(2)),
            ev(95, "ds", kind::PUBLISH, Some(2)),
        ];
        let tl = fold_timeline(events.iter());
        assert_eq!(tl.episodes.len(), 2);
        assert!(tl.episodes[0].superseded);
        assert!(!tl.episodes[0].complete());
        assert!(tl.episodes[1].complete());
        assert!(tl.unaccounted().is_empty());
        assert_eq!(tl.complete_count(), 1);
    }

    #[test]
    fn gave_up_episode_is_terminal_not_unaccounted() {
        let events = [
            ev(10, "rs", kind::DEFECT, Some(1)).with_field("service", "eth"),
            ev(20, "rs", kind::GAVE_UP, Some(1)),
        ];
        let tl = fold_timeline(events.iter());
        assert!(tl.episodes[0].gave_up);
        assert!(tl.unaccounted().is_empty());
    }

    #[test]
    fn truly_incomplete_episode_is_unaccounted() {
        let events = [ev(10, "rs", kind::DEFECT, Some(1)).with_field("service", "eth")];
        let tl = fold_timeline(events.iter());
        assert_eq!(tl.unaccounted().len(), 1);
    }

    #[test]
    fn corrupted_rid_opens_skeleton_episode_without_panic() {
        // A bit-flipped correlation token arrives on a dependent's event:
        // the fold keeps it as an unknown, incomplete episode.
        let mut events = full_episode();
        events.push(ev(950, "inet", kind::RESUME, Some(0xdead_beef)));
        let tl = fold_timeline(events.iter());
        assert_eq!(tl.episodes.len(), 2);
        let skel = tl.episode(rid(0xdead_beef)).unwrap();
        assert!(!skel.complete());
        assert!(skel.service.is_empty());
    }

    #[test]
    fn record_into_fills_histograms_and_counters() {
        let events = full_episode();
        let tl = fold_timeline(events.iter());
        let mut m = MetricsRegistry::new();
        tl.record_into(&mut m);
        assert_eq!(m.counter("obs.episodes"), 1);
        assert_eq!(m.counter("obs.episodes.complete"), 1);
        let h = m.log_histogram("recovery.phase.repair").unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.mean_duration(), Some(SimDuration::from_micros(390)));
        assert_eq!(
            m.log_histogram("recovery.phase.total").unwrap().max(),
            Some(800)
        );
        assert!(m.log_histogram("recovery.phase.replay").is_none());
    }

    #[test]
    fn sentinel_counters_filters_the_two_families_sorted() {
        let mut m = MetricsRegistry::new();
        m.incr("sentinel.mfs.crc-mismatch");
        m.add("rs.complaints.accepted", 3);
        m.incr("rs.defect.complaint"); // not part of the surface
        m.incr("inet.garbled_frames"); // not part of the surface
        let got = sentinel_counters(&m);
        assert_eq!(
            got,
            vec![
                ("rs.complaints.accepted".to_string(), 3),
                ("sentinel.mfs.crc-mismatch".to_string(), 1),
            ]
        );
    }

    #[test]
    fn attribute_maps_instants_to_phases() {
        let tl = fold_timeline(full_episode().iter());
        assert_eq!(tl.attribute(t(50)), (phase::STEADY, None));
        assert_eq!(tl.attribute(t(100)), (phase::DETECT, Some(rid(1))));
        assert_eq!(tl.attribute(t(109)), (phase::DETECT, Some(rid(1))));
        assert_eq!(tl.attribute(t(110)), (phase::REPAIR, Some(rid(1))));
        assert_eq!(tl.attribute(t(499)), (phase::REPAIR, Some(rid(1))));
        assert_eq!(tl.attribute(t(500)), (phase::REINTEGRATE, Some(rid(1))));
        // The instant the last dependent resumed is already steady state.
        assert_eq!(tl.attribute(t(900)), (phase::STEADY, None));
        assert_eq!(tl.attribute(t(5000)), (phase::STEADY, None));
    }

    #[test]
    fn attribute_prefers_replay_inside_its_window() {
        let mut events = full_episode();
        events.push(
            ev(700, "drv", kind::REPLAY, Some(1))
                .with_field("offset", 42u64)
                .with_field("dup_bytes", 0u64),
        );
        let tl = fold_timeline(events.iter());
        // Replay window [510,700) wins over reintegrate [500,900).
        assert_eq!(tl.attribute(t(505)), (phase::REINTEGRATE, Some(rid(1))));
        assert_eq!(tl.attribute(t(600)), (phase::REPLAY, Some(rid(1))));
        assert_eq!(tl.attribute(t(750)), (phase::REINTEGRATE, Some(rid(1))));
    }

    #[test]
    fn request_fold_attributes_latency_goodput_and_hol() {
        let tl = fold_timeline(full_episode().iter());
        let reqs = [
            // Steady-state completion before the defect.
            RequestRecord {
                start: t(10),
                end: t(50),
                bytes: 100,
                ok: true,
            },
            // Issued steady, completes mid-repair (head-of-line victim).
            RequestRecord {
                start: t(90),
                end: t(200),
                bytes: 100,
                ok: true,
            },
            // Failed during repair.
            RequestRecord {
                start: t(120),
                end: t(130),
                bytes: 0,
                ok: false,
            },
            // Completes during reintegration.
            RequestRecord {
                start: t(480),
                end: t(600),
                bytes: 300,
                ok: true,
            },
            // Steady again after resumption.
            RequestRecord {
                start: t(900),
                end: t(950),
                bytes: 100,
                ok: true,
            },
        ];
        let mut m = MetricsRegistry::new();
        tl.record_requests_into(&reqs, &mut m);
        assert_eq!(m.counter("slo.requests.steady"), 2);
        assert_eq!(m.counter("slo.requests.repair"), 2);
        assert_eq!(m.counter("slo.requests.reintegrate"), 1);
        assert_eq!(m.counter("slo.failed.repair"), 1);
        assert_eq!(m.counter("slo.goodput_bytes.steady"), 200);
        assert_eq!(m.counter("slo.goodput_bytes.repair"), 100);
        assert_eq!(m.counter("slo.goodput_bytes.reintegrate"), 300);
        let h = m.log_histogram("slo.latency.repair").unwrap();
        assert_eq!(h.count(), 1, "failed request records no latency");
        assert_eq!(h.max(), Some(110));
        // Phase time partitions the request span [10, 950]:
        // detect 10, repair 390, reintegrate 400, steady = 940-800 = 140.
        assert_eq!(m.counter("slo.phase_us.detect"), 10);
        assert_eq!(m.counter("slo.phase_us.repair"), 390);
        assert_eq!(m.counter("slo.phase_us.reintegrate"), 400);
        assert_eq!(m.counter("slo.phase_us.steady"), 140);
        // HOL: at t=120 the repair-phase arrival sees 2 in flight.
        assert_eq!(m.counter("slo.hol_depth.repair"), 2);
        assert_eq!(m.counter("slo.hol_depth.steady"), 1);
    }

    /// The fold's answers, pinned at the commit before its per-request
    /// `format!` and per-episode `Vec` were removed: every counter the
    /// fold writes, over all five phases, as one rendered string.
    #[test]
    fn request_fold_renders_the_pinned_counters() {
        let mut events = full_episode();
        events.push(ev(700, "drv", kind::REPLAY, Some(1)));
        let tl = fold_timeline(events.iter());
        let reqs: Vec<RequestRecord> = (0..1000u64)
            .map(|i| {
                let start = (i * 7) % 1100;
                let ok = i % 7 != 0;
                RequestRecord {
                    start: t(start),
                    end: t(start + 1 + (i * 13) % 97),
                    bytes: if ok { (i % 5) * 100 } else { 0 },
                    ok,
                }
            })
            .collect();
        let mut m = MetricsRegistry::new();
        tl.record_requests_into(&reqs, &mut m);
        assert_eq!(m.render_counters(), PINNED_FOLD_COUNTERS);
        let latencies: Vec<(&str, u64, Option<u64>)> = m
            .log_histograms()
            .map(|(name, h)| (name, h.count(), h.max()))
            .collect();
        assert_eq!(latencies, PINNED_FOLD_LATENCIES);
    }

    const PINNED_FOLD_COUNTERS: &str = "\
        slo.failed.reintegrate = 24\n\
        slo.failed.repair = 57\n\
        slo.failed.replay = 24\n\
        slo.failed.steady = 38\n\
        slo.goodput_bytes.detect = 1400\n\
        slo.goodput_bytes.reintegrate = 31800\n\
        slo.goodput_bytes.repair = 65100\n\
        slo.goodput_bytes.replay = 27400\n\
        slo.goodput_bytes.steady = 45700\n\
        slo.hol_depth.detect = 50\n\
        slo.hol_depth.reintegrate = 44\n\
        slo.hol_depth.repair = 51\n\
        slo.hol_depth.replay = 44\n\
        slo.hol_depth.steady = 51\n\
        slo.phase_us.detect = 10\n\
        slo.phase_us.reintegrate = 200\n\
        slo.phase_us.repair = 390\n\
        slo.phase_us.replay = 190\n\
        slo.phase_us.steady = 397\n\
        slo.requests.detect = 9\n\
        slo.requests.reintegrate = 181\n\
        slo.requests.repair = 383\n\
        slo.requests.replay = 162\n\
        slo.requests.steady = 265\n\
    ";
    const PINNED_FOLD_LATENCIES: [(&str, u64, Option<u64>); 5] = [
        ("slo.latency.detect", 9, Some(74)),
        ("slo.latency.reintegrate", 157, Some(97)),
        ("slo.latency.repair", 326, Some(97)),
        ("slo.latency.replay", 138, Some(97)),
        ("slo.latency.steady", 227, Some(97)),
    ];

    #[test]
    fn the_name_table_has_one_row_per_phase_label() {
        let rows: Vec<&str> = SLO_NAMES.iter().map(|names| names.phase).collect();
        assert_eq!(rows, phase::ALL);
    }

    #[test]
    fn recovery_phase_names_follow_the_phase_labels() {
        let labels: Vec<&str> = RECOVERY_PHASES.iter().map(|(label, _)| *label).collect();
        assert_eq!(labels[..4], phase::ALL[1..], "every label but steady");
        assert_eq!(labels[4], "total");
        for (label, name) in RECOVERY_PHASES {
            assert_eq!(name, format!("recovery.phase.{label}"));
        }
    }

    #[test]
    fn windows_are_the_same_triples_in_the_same_order() {
        let windows = |events: Vec<TraceEvent>| -> Vec<(&'static str, SimTime, SimTime)> {
            let tl = fold_timeline(events.iter());
            tl.episodes[0].windows().collect()
        };
        // Not noticed: only a corrupted-id skeleton, no defect event.
        assert_eq!(
            windows(vec![ev(520, "inet", kind::REINTEGRATE, Some(1))]),
            vec![]
        );
        // Noticed only.
        let mut events = full_episode();
        events.truncate(3);
        assert_eq!(windows(events), vec![(phase::DETECT, t(100), t(110))]);
        // Alive, never published: reintegration is empty.
        let mut events = full_episode();
        events.truncate(4);
        assert_eq!(
            windows(events),
            vec![
                (phase::DETECT, t(100), t(110)),
                (phase::REPAIR, t(110), t(500)),
                (phase::REINTEGRATE, t(500), t(500)),
            ]
        );
        // Full episode with a replay window.
        let mut events = full_episode();
        events.push(ev(700, "drv", kind::REPLAY, Some(1)));
        assert_eq!(
            windows(events),
            vec![
                (phase::DETECT, t(100), t(110)),
                (phase::REPAIR, t(110), t(500)),
                (phase::REPLAY, t(510), t(700)),
                (phase::REINTEGRATE, t(500), t(900)),
            ]
        );
    }

    #[test]
    fn request_fold_on_empty_input_is_a_noop() {
        let tl = fold_timeline(full_episode().iter());
        let mut m = MetricsRegistry::new();
        tl.record_requests_into(&[], &mut m);
        assert_eq!(m.render_counters(), "");
    }

    #[test]
    fn folds_straight_from_a_ring() {
        let mut ring = TraceRing::new(64);
        for e in full_episode() {
            ring.emit_event(e);
        }
        let tl = fold_timeline(ring.events());
        assert_eq!(tl.complete_count(), 1);
        assert!(tl.render().contains("r1 eth.rtl8139 [exit]"));
    }
}
