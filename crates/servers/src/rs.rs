//! The reincarnation server (§5): defect detection and policy-driven
//! recovery.
//!
//! RS is the parent-of-record for every system service: it asks the
//! process manager to execute service binaries, publishes their endpoints
//! in the data store, and then guards them continuously. Defects reach RS
//! through all six §5.1 inputs:
//!
//! 1. process exit or panic — SIGCHLD report from PM;
//! 2. killed by CPU/MMU exception — SIGCHLD report from PM;
//! 3. killed by user — SIGCHLD report, or an explicit `service restart`;
//! 4. heartbeat missing N consecutive times — RS's own periodic pings;
//! 5. complaint by an authorized component — `rs::COMPLAIN`;
//! 6. dynamic update — `rs::UPDATE` (SIGTERM, escalating to SIGKILL).
//!
//! On a defect RS runs the component's policy script (§5.2) and carries
//! out its decision: restart after (possibly exponential-backoff) delay,
//! restart dependent components, raise alerts, give up, or request a
//! whole-system reboot. After a restart RS publishes the *new* endpoint in
//! the data store before dependents learn about it (§5.3).
//!
//! # Hardening against a hostile IPC fabric
//!
//! The recovery machinery itself must survive lost, delayed, duplicated and
//! corrupted messages, and crashes *during* recovery:
//!
//! * **Start-call timeouts** — a PM_START whose reply never arrives is
//!   retried; a late reply to an abandoned attempt reveals a *ghost*
//!   incarnation, which RS has PM kill.
//! * **Early-death reconciliation** — a SIGCHLD for an endpoint RS has not
//!   yet bound to a service is remembered; if a later START_REPLY names that
//!   endpoint, the fresh incarnation died mid-recovery and recovery re-runs.
//! * **Kill-reply reconciliation** — PM answering `NO_PROCESS` to an RS
//!   kill while RS still thinks the service is up means the exit report was
//!   lost; the defect is synthesized on the spot.
//! * **Liveness audit** — a periodic sweep asks the kernel whether each
//!   supposedly-up endpoint is still alive, catching any remaining lost
//!   exit notifications.
//! * **Verified publish** — DS publishes are acknowledged; a missing or
//!   failed acknowledgement triggers bounded re-publish with an alert when
//!   the budget is exhausted.
//! * **Restart budgets + storm escalation** — each service has a sliding-
//!   window restart budget; exceeding it escalates restart → restart with
//!   dependents → alert with extended cool-down → give up, instead of
//!   flapping forever. Restart delays carry deterministic jitter so herds
//!   of failing services do not thunder back in lock-step.
//!
//! # Self-tuning policies and hot standby
//!
//! Two closed-loop extensions sit on top of the static machinery:
//!
//! * **Adapt controllers** — a policy script's `adapt` rules bind live
//!   [`PolicyParams`] entries (heartbeat period, backoff base/cap,
//!   restart budget and window, complaint quorum) to deterministic
//!   bang-bang controllers driven by observed failure rate, complaint
//!   rate, or repair-MTTR percentiles. Every step is clamped to the
//!   rule's declared band and surfaced as an `rs.adapt.*` gauge.
//! * **Hot-standby failover** — a service marked `hot_standby` gets a
//!   warm spare incarnation (`standby.<program>`) that continuously
//!   tails the primary's checkpoint record in DS. At defect time RS
//!   *promotes* the spare — re-frames the checkpoint record for the new
//!   incarnation, tells the spare to go live, publishes — instead of
//!   paying fork+exec+restore, collapsing the repair phase to a publish
//!   round-trip.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use phoenix_ckpt::proto::{ckpt, ckpt_status};
use phoenix_drivers::proto::drv;
use phoenix_kernel::process::{ProcEvent, Process};
use phoenix_kernel::system::Ctx;
use phoenix_kernel::types::{CallId, Endpoint, ExitReason, Message, Signal};
use phoenix_simcore::rng::SimRng;
use phoenix_simcore::time::{SimDuration, SimTime};
use phoenix_simcore::trace::{RecoveryId, SpanId, TraceLevel};

use crate::policy::{
    reason, AdaptParam, AdaptSignal, PolicyDecision, PolicyInput, PolicyParams, PolicyScript,
};
use crate::proto::{ds, evidence, pm, rs as rsp, unpack_endpoint, Complaint};

/// Configuration of one guarded service, as passed to the `service`
/// utility in MINIX (§5: "the driver's binary, a stable name, the process'
/// precise privileges, a heartbeat period, and, optionally, a parametrized
/// policy script").
///
/// Privileges live in the kernel's program registry (bound to the binary),
/// so they are not repeated here.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Program name in the kernel registry; doubles as the stable name.
    pub program: String,
    /// Key published in the data store (e.g. `eth.rtl8139`, `blk.sata`).
    pub publish_key: String,
    /// Heartbeat period; `None` disables heartbeats for this service.
    pub heartbeat_period: Option<SimDuration>,
    /// Consecutive missed heartbeats before recovery is initiated
    /// ("failing to respond N consecutive times", §5.1).
    pub heartbeat_misses: u32,
    /// Recovery policy; `None` means a direct restart with no script
    /// (like disk drivers, whose script could not be read from the dead
    /// disk, §6.2).
    pub policy: Option<PolicyScript>,
    /// Parameters passed to the policy script (`$1`, ...).
    pub policy_params: Vec<String>,
    /// Maximum restarts within [`ServiceConfig::budget_window`] before the
    /// storm-escalation ladder engages.
    pub restart_budget: u32,
    /// Sliding window over which restarts are counted.
    pub budget_window: SimDuration,
    /// Components restarted alongside this one when the recursive ladder
    /// escalates to a dependency-group reboot, or when a restart storm
    /// escalates to restart-with-dependents.
    pub deps: Vec<String>,
    /// Server-class component (VFS, MFS, INET, ...): crash-only with
    /// externalized session state. Server-class services get the recursive
    /// escalation ladder (microreboot first, dependency-group reboot on
    /// recurrence), are audited for progress stalls even without
    /// heartbeats, and may be accused by any live caller, not only the
    /// configured complainants.
    pub server: bool,
    /// Keep a warm spare incarnation (`standby.<program>`) continuously
    /// tailing this service's checkpoint record, and promote it at defect
    /// time instead of cold-restarting. Requires a `standby.<program>`
    /// entry in the kernel program registry; RS disables the flag at run
    /// time if PM reports none.
    pub hot_standby: bool,
}

impl ServiceConfig {
    /// A driver config with the generic Fig. 2 policy and the baseline
    /// heartbeat/budget parameters from [`PolicyParams::BASELINE`].
    pub fn driver(program: &str, publish_key: &str) -> Self {
        let base = PolicyParams::BASELINE;
        ServiceConfig {
            program: program.to_string(),
            publish_key: publish_key.to_string(),
            heartbeat_period: Some(base.heartbeat_period),
            heartbeat_misses: base.heartbeat_misses,
            policy: Some(PolicyScript::generic()),
            policy_params: Vec::new(),
            restart_budget: base.restart_budget,
            budget_window: base.budget_window,
            deps: Vec::new(),
            server: false,
            hot_standby: false,
        }
    }

    /// A crash-only system-server config: no heartbeats (servers
    /// legitimately block on their drivers), direct-restart policy, and
    /// the recursive microreboot ladder enabled.
    pub fn server(program: &str, publish_key: &str) -> Self {
        let base = PolicyParams::BASELINE;
        ServiceConfig {
            program: program.to_string(),
            publish_key: publish_key.to_string(),
            heartbeat_period: None,
            heartbeat_misses: base.heartbeat_misses,
            policy: Some(PolicyScript::direct_restart()),
            policy_params: Vec::new(),
            restart_budget: base.restart_budget,
            budget_window: base.budget_window,
            deps: Vec::new(),
            server: true,
            hot_standby: false,
        }
    }

    /// Replaces the policy script (builder style).
    pub fn with_policy(mut self, policy: PolicyScript) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Disables the policy script: direct restart (§6.2 disk drivers).
    pub fn without_policy(mut self) -> Self {
        self.policy = None;
        self
    }

    /// Sets the policy parameters (builder style).
    pub fn with_params(mut self, params: Vec<String>) -> Self {
        self.policy_params = params;
        self
    }

    /// Sets the heartbeat period (builder style).
    pub fn with_heartbeat(mut self, period: SimDuration, misses: u32) -> Self {
        self.heartbeat_period = Some(period);
        self.heartbeat_misses = misses;
        self
    }

    /// Disables heartbeats (builder style).
    pub fn without_heartbeat(mut self) -> Self {
        self.heartbeat_period = None;
        self
    }

    /// Sets the restart budget: at most `budget` restarts per `window`
    /// before storm escalation (builder style).
    pub fn with_budget(mut self, budget: u32, window: SimDuration) -> Self {
        self.restart_budget = budget;
        self.budget_window = window;
        self
    }

    /// Sets the components restarted with this one when a storm escalates
    /// (builder style).
    pub fn with_deps(mut self, deps: Vec<String>) -> Self {
        self.deps = deps;
        self
    }

    /// Enables hot-standby failover (builder style): RS keeps a warm
    /// spare tailing the checkpoint record and promotes it at defect
    /// time instead of cold-restarting.
    pub fn with_hot_standby(mut self) -> Self {
        self.hot_standby = true;
        self
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SvcState {
    /// Not running, no restart scheduled.
    Down,
    /// PM_START in flight.
    Starting,
    /// Running and guarded.
    Up,
    /// Dead; restart alarm armed.
    WaitRestart,
    /// Policy gave up (or administrative down); no automatic recovery.
    GivenUp,
}

/// An unacknowledged DS publish being verified.
#[derive(Debug, Clone, Copy)]
struct PendingPublish {
    ep: Endpoint,
    attempts: u32,
}

struct Service {
    cfg: ServiceConfig,
    state: SvcState,
    endpoint: Option<Endpoint>,
    /// Failure count fed to the policy as `repetition`.
    failures: u32,
    /// Defect class RS already knows (set before RS-initiated kills).
    pending_reason: Option<u8>,
    /// Program version to use for the next start (None = latest).
    next_version: Option<u32>,
    hb_nonce: u64,
    hb_outstanding: u32,
    /// Heartbeat chain epoch; stale chains from before a restart carry an
    /// old epoch and are ignored.
    hb_epoch: u16,
    died_at: Option<SimTime>,
    admin_down: bool,
    /// The PM_START call currently awaited, with its attempt number.
    current_start: Option<(CallId, u16)>,
    start_attempt: u16,
    /// Restart timestamps inside the sliding budget window.
    restart_times: VecDeque<SimTime>,
    /// Storm-escalation ladder position (0 = calm).
    storm_level: u32,
    pending_publish: Option<PendingPublish>,
    /// Correlation token of the recovery episode in flight (minted at
    /// defect detection, overwritten by the next defect). Carried on every
    /// RS trace event of the episode and threaded to DS on publish.
    recovery: Option<RecoveryId>,
    /// Root span of the episode (the defect event); RS events and the DS
    /// publish parent-link to it.
    span: Option<SpanId>,
    /// The warm spare incarnation tailing this service's checkpoint
    /// record, if hot standby is on and the spare is up.
    spare: Option<Endpoint>,
    /// A spare PM_START is in flight.
    spare_pending: bool,
}

/// Minimum time between a service's death and its restarted incarnation
/// (fork + exec + image load).
const EXEC_LATENCY: SimDuration = SimDuration::from_millis(10);

/// How long RS waits for a PM_START reply before assuming the request or
/// its reply was lost and retrying.
const START_TIMEOUT: SimDuration = SimDuration::from_millis(50);

/// How long RS waits for a DS publish acknowledgement before re-publishing.
const PUBLISH_TIMEOUT: SimDuration = SimDuration::from_millis(10);

/// Re-publish attempts before RS raises an alert and stops trying.
const MAX_PUBLISH_RETRIES: u32 = 3;

/// Period of the liveness audit that catches lost exit notifications.
/// Deliberately off-cycle from the 1 s heartbeat default.
const AUDIT_PERIOD: SimDuration = SimDuration::from_millis(750);

/// Sliding window over which the adapt controllers count failures and
/// complaints. Wider than the complaint window so slow-burn flapping is
/// visible; narrower than the budget window so controllers react before
/// the storm ladder fires.
const ADAPT_WINDOW: SimDuration = SimDuration::from_secs(10);

/// Most recent repair-MTTR samples kept for the `mttr_p95` adapt signal.
const ADAPT_MTTR_SAMPLES: usize = 32;

/// How often a warm spare polls DS for the primary's latest checkpoint
/// frame (the WAL-tail period passed in `drv::STANDBY`).
const SPARE_TAIL_PERIOD: SimDuration = SimDuration::from_millis(100);

/// Age beyond which an open request against a heartbeat-guarded driver
/// counts as a progress stall. Deliberately longer than the servers' own
/// 5 s driver deadlines, so the kernel watchdog is the second line, not
/// the first.
const STALL_AGE: SimDuration = SimDuration::from_secs(8);

// Alarm token layout: kind in the high 32 bits, a 16-bit sequence/epoch in
// bits 16..32, service index in the low 16 bits.
const TOK_HB: u64 = 1;
const TOK_RESTART: u64 = 2;
const TOK_ESCALATE: u64 = 3;
const TOK_START_TIMEOUT: u64 = 4;
const TOK_REPUBLISH: u64 = 5;
const TOK_AUDIT: u64 = 6;
const TOK_PM_RESTART: u64 = 7;
const TOK_SPARE: u64 = 8;

fn token(kind: u64, idx: usize) -> u64 {
    (kind << 32) | idx as u64
}

fn token_seq(kind: u64, seq: u16, idx: usize) -> u64 {
    (kind << 32) | (u64::from(seq) << 16) | idx as u64
}

/// Most unmatched dead endpoints remembered for early-death reconciliation.
const EARLY_DEATHS_CAP: usize = 64;

/// The reincarnation server.
pub struct ReincarnationServer {
    pm: Endpoint,
    ds: Endpoint,
    services: Vec<Service>,
    by_name: BTreeMap<String, usize>,
    /// Service names authorized to file complaints (trusted servers with
    /// `may_complain`).
    complainants: Vec<String>,
    /// In-flight PM_START calls.
    start_calls: BTreeMap<CallId, usize>,
    /// PM_START calls RS timed out on; a late success reply reveals a
    /// ghost incarnation that must be killed.
    orphan_calls: BTreeMap<CallId, usize>,
    /// In-flight PM_KILL calls, for NO_PROCESS reconciliation.
    kill_calls: BTreeMap<CallId, usize>,
    /// In-flight DS publish calls.
    publish_calls: BTreeMap<CallId, usize>,
    /// Dead endpoints from SIGCHLD reports that matched no service (yet).
    early_deaths: VecDeque<Endpoint>,
    /// Deterministic jitter source, forked from the run seed at Start.
    jitter: Option<SimRng>,
    started_boot: bool,
    /// Monotonic source of recovery correlation tokens (ids start at 1;
    /// 0 is the wire encoding of "none").
    next_recovery: u64,
    /// Low-confidence complaint ledger, per accused service: (accuser
    /// stable name, evidence kind, filing time). Pruned to the live
    /// complaint window; cleared when the accused is killed.
    complaint_ledger: BTreeMap<usize, VecDeque<(String, u32, SimTime)>>,
    /// Recent accusation targets per accuser, for the accused-vs-accuser
    /// inversion. Keyed on the accuser's *stable published name* (falling
    /// back to the endpoint rendering for unguarded callers), so a server
    /// that restarts under a new incarnation keeps its accusation history
    /// and the map does not leak one entry per dead incarnation.
    accuser_history: BTreeMap<String, VecDeque<(usize, SimTime)>>,
    /// Whether the audit sweep also polls the kernel babble/progress
    /// guards for heartbeat-guarded services.
    kernel_guards: bool,
    /// Whether complaints can trigger restarts. With arbitration
    /// disarmed, complaints are vetted and counted but never acted on —
    /// the crash-only baseline arm of the fail-silent campaign.
    arbitration: bool,
    /// Program name RS respawns PM under when guarding it (`None`
    /// disables PM guarding). PM is outside the service table — it is the
    /// trusted process *executor* — so its recovery is recursive: RS uses
    /// its own spawn/kill privileges instead of asking PM to act on
    /// itself.
    pm_program: Option<String>,
    /// A PM respawn alarm is armed; suppresses duplicate defect handling
    /// from the audit sweep while the replacement incarnation boots.
    pm_restarting: bool,
    /// When the current PM defect was detected (MTTR accounting).
    pm_died_at: Option<SimTime>,
    /// Correlation token / root span of the PM recovery episode in
    /// flight, so `fold_timeline` attributes the episode like any other.
    pm_recovery: Option<RecoveryId>,
    pm_span: Option<SpanId>,
    /// Liveness pings to PM the pong for which has not come back yet. A
    /// wedged PM with no START/KILL in flight leaves no stalled request
    /// to audit, so RS pings it like a driver heartbeat.
    pm_pong_outstanding: u32,
    /// When the most recent service recovery completed. Client requests
    /// legitimately age while a dependency is being reincarnated, so the
    /// progress watchdog gives server-class components a full stall
    /// window of grace after any recovery before convicting them.
    last_recovery_done: Option<SimTime>,
    /// The live policy-parameter table. Starts at
    /// [`PolicyParams::BASELINE`]; the adapt controllers write through it
    /// and every window/quorum/backoff read goes through it.
    params: PolicyParams,
    /// Admin-editable adapt script: its `adapt` rules are stepped once
    /// per audit sweep against the observed signal windows. `None` keeps
    /// every parameter static.
    adapt_script: Option<PolicyScript>,
    /// Defect detection times inside [`ADAPT_WINDOW`] (failure-rate
    /// signal).
    adapt_defects: VecDeque<SimTime>,
    /// Complaint filing times inside [`ADAPT_WINDOW`] (complaint-rate
    /// signal).
    adapt_complaints: VecDeque<SimTime>,
    /// Most recent repair-MTTR samples in microseconds, capped at
    /// [`ADAPT_MTTR_SAMPLES`] (p95 signal).
    adapt_mttr: VecDeque<u64>,
    /// In-flight PM_START calls for warm spares.
    spare_start_calls: BTreeMap<CallId, usize>,
    /// Outstanding `ckpt::PROMOTE` re-framing calls to DS, by service.
    promote_calls: BTreeMap<CallId, usize>,
}

impl ReincarnationServer {
    /// Creates RS, wired to PM and DS, guarding `services`.
    pub fn new(
        pm: Endpoint,
        ds: Endpoint,
        services: Vec<ServiceConfig>,
        complainants: Vec<String>,
    ) -> Self {
        let mut by_name = BTreeMap::new();
        let services: Vec<Service> = services
            .into_iter()
            .map(|cfg| Service {
                cfg,
                state: SvcState::Down,
                endpoint: None,
                failures: 0,
                pending_reason: None,
                next_version: None,
                hb_nonce: 0,
                hb_outstanding: 0,
                hb_epoch: 0,
                died_at: None,
                admin_down: false,
                current_start: None,
                start_attempt: 0,
                restart_times: VecDeque::new(),
                storm_level: 0,
                pending_publish: None,
                recovery: None,
                span: None,
                spare: None,
                spare_pending: false,
            })
            .collect();
        for (i, s) in services.iter().enumerate() {
            by_name.insert(s.cfg.program.clone(), i);
        }
        ReincarnationServer {
            pm,
            ds,
            services,
            by_name,
            complainants,
            start_calls: BTreeMap::new(),
            orphan_calls: BTreeMap::new(),
            kill_calls: BTreeMap::new(),
            publish_calls: BTreeMap::new(),
            early_deaths: VecDeque::new(),
            jitter: None,
            started_boot: false,
            next_recovery: 0,
            complaint_ledger: BTreeMap::new(),
            accuser_history: BTreeMap::new(),
            kernel_guards: true,
            arbitration: true,
            pm_program: None,
            pm_restarting: false,
            pm_died_at: None,
            pm_recovery: None,
            pm_span: None,
            pm_pong_outstanding: 0,
            last_recovery_done: None,
            params: PolicyParams::BASELINE,
            adapt_script: None,
            adapt_defects: VecDeque::new(),
            adapt_complaints: VecDeque::new(),
            adapt_mttr: VecDeque::new(),
            spare_start_calls: BTreeMap::new(),
            promote_calls: BTreeMap::new(),
        }
    }

    /// Installs the adapt script (builder style): its `adapt` rules are
    /// stepped once per audit sweep, writing through the live
    /// [`PolicyParams`] table within their declared clamp bands.
    pub fn with_adapt(mut self, script: PolicyScript) -> Self {
        self.adapt_script = Some(script);
        self
    }

    /// Enables recursive PM guarding (builder style): RS audits the
    /// process manager itself, vets its replies, and — holding per-
    /// instance spawn/kill privileges — respawns it under `program`,
    /// re-registers as exit-report sink, and re-publishes the `pm` name
    /// so the new incarnation can rehydrate its checkpointed records.
    pub fn with_pm_guard(mut self, program: &str) -> Self {
        self.pm_program = Some(program.to_string());
        self
    }

    /// Enables or disables audit-sweep polling of the kernel babble and
    /// progress guards (builder style).
    pub fn with_kernel_guards(mut self, on: bool) -> Self {
        self.kernel_guards = on;
        self
    }

    /// Enables or disables acting on complaints (builder style). Disarmed
    /// arbitration still vets and counts complaints, so the evidence
    /// stream stays observable in the crash-only baseline.
    pub fn with_arbitration(mut self, on: bool) -> Self {
        self.arbitration = on;
        self
    }

    fn start_service(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        let svc = &mut self.services[idx];
        if matches!(svc.state, SvcState::Starting | SvcState::Up) {
            return;
        }
        let version = svc.next_version.take().map_or(0, u64::from);
        let msg = Message::new(pm::START)
            .with_param(0, version)
            .with_data(svc.cfg.program.clone().into_bytes());
        match ctx.sendrec(self.pm, msg) {
            Ok(call) => {
                let svc = &mut self.services[idx];
                svc.state = SvcState::Starting;
                svc.start_attempt = svc.start_attempt.wrapping_add(1);
                svc.current_start = Some((call, svc.start_attempt));
                let attempt = svc.start_attempt;
                let exec_ev = ctx
                    .event(
                        TraceLevel::Info,
                        format!("exec {} (attempt {attempt})", svc.cfg.program),
                    )
                    .with_field("ev", "exec")
                    .with_field("service", svc.cfg.program.as_str())
                    .with_field("attempt", u64::from(attempt))
                    .in_recovery_opt(svc.recovery)
                    .with_parent_opt(svc.span);
                ctx.trace_event(exec_ev);
                self.start_calls.insert(call, idx);
                // If neither the request nor its reply survives the fabric,
                // this alarm notices and retries.
                let _ = ctx.set_alarm(START_TIMEOUT, token_seq(TOK_START_TIMEOUT, attempt, idx));
            }
            Err(e) => {
                let name = self.services[idx].cfg.program.clone();
                if self.pm_program.is_some() {
                    // PM itself is down. Re-arm the start and recover PM
                    // recursively rather than abandoning the service.
                    self.services[idx].state = SvcState::WaitRestart;
                    ctx.trace(
                        TraceLevel::Warn,
                        format!("cannot reach PM to start {name}: {e}; will retry"),
                    );
                    let _ = ctx.set_alarm(EXEC_LATENCY.saturating_mul(4), token(TOK_RESTART, idx));
                    if !ctx.proc_alive(self.pm) {
                        self.recover_pm(ctx, reason::EXIT, true);
                    }
                } else {
                    self.services[idx].state = SvcState::GivenUp;
                    ctx.trace(
                        TraceLevel::Error,
                        format!("cannot reach PM to start {name}: {e}"),
                    );
                }
            }
        }
    }

    fn kill_service(&mut self, ctx: &mut Ctx<'_>, idx: usize, term: bool) {
        let Some(ep) = self.services[idx].endpoint else {
            return;
        };
        // The incarnation under accusation is going away; its successor
        // starts with a clean complaint record.
        self.complaint_ledger.remove(&idx);
        let msg = Message::new(pm::KILL)
            .with_param(0, u64::from(ep.slot()))
            .with_param(1, u64::from(ep.generation()))
            .with_param(2, u64::from(!term));
        if let Ok(call) = ctx.sendrec(self.pm, msg) {
            self.kill_calls.insert(call, idx);
        }
    }

    /// Kills a ghost incarnation discovered through a late START reply.
    /// No reconciliation: if this kill is lost too, the ghost is unknown to
    /// every naming path and eventually exits on its own.
    fn kill_ghost(&mut self, ctx: &mut Ctx<'_>, ep: Endpoint) {
        ctx.metrics().incr("rs.ghost_kills");
        ctx.trace(
            TraceLevel::Warn,
            format!("killing ghost incarnation {ep} from an abandoned start"),
        );
        let msg = Message::new(pm::KILL)
            .with_param(0, u64::from(ep.slot()))
            .with_param(1, u64::from(ep.generation()))
            .with_param(2, 1);
        let _ = ctx.sendrec(self.pm, msg);
    }

    fn publish(&mut self, ctx: &mut Ctx<'_>, idx: usize, ep: Endpoint) {
        let svc = &mut self.services[idx];
        let attempts = match &svc.pending_publish {
            Some(pp) if pp.ep == ep => pp.attempts,
            _ => 0,
        };
        svc.pending_publish = Some(PendingPublish { ep, attempts });
        let key = svc.cfg.publish_key.clone();
        // The correlation token and root span ride in spare parameters so
        // DS — and, through DS's update notifications, every dependent —
        // can tag its own reintegration events with the same episode id.
        let rid_wire = svc.recovery.map_or(0, RecoveryId::as_u64);
        let span_wire = svc.span.map_or(0, SpanId::as_u64);
        let msg = Message::new(ds::PUBLISH)
            .with_param(0, u64::from(ep.slot()))
            .with_param(1, u64::from(ep.generation()))
            .with_param(2, rid_wire)
            .with_param(3, span_wire)
            .with_data(key.into_bytes());
        if let Ok(call) = ctx.sendrec(self.ds, msg) {
            self.publish_calls.insert(call, idx);
        }
        // Verify the acknowledgement arrives; re-publish if it does not.
        let seq = attempts as u16;
        let _ = ctx.set_alarm(PUBLISH_TIMEOUT, token_seq(TOK_REPUBLISH, seq, idx));
    }

    /// Applies deterministic jitter (multiplier in [1.0, 1.25)) to a
    /// restart delay so synchronized failures do not restart in lock-step.
    fn jittered(&mut self, delay: SimDuration) -> SimDuration {
        let Some(rng) = self.jitter.as_mut() else {
            return delay;
        };
        let millis_per_mille = rng.range_u64(0..250);
        SimDuration::from_micros(delay.as_micros() + delay.as_micros() * millis_per_mille / 1000)
    }

    /// The live value of `p` when an adapt controller drives it, `None`
    /// when it is statically configured. A parameter counts as
    /// controller-driven only if the installed script has a rule binding
    /// it — otherwise per-service config keeps full authority.
    fn adapted(&self, p: AdaptParam) -> Option<u64> {
        let script = self.adapt_script.as_ref()?;
        script
            .adapt_rules()
            .iter()
            .any(|r| r.param == p)
            .then(|| p.read(&self.params))
    }

    /// Heartbeat period for service `idx`: the adapt-controller value
    /// when one drives it, the service config otherwise. `None` keeps
    /// heartbeats off for services configured without them.
    fn effective_heartbeat(&self, idx: usize) -> Option<SimDuration> {
        self.services[idx].cfg.heartbeat_period.map(|p| {
            self.adapted(AdaptParam::HeartbeatPeriod)
                .map(SimDuration::from_micros)
                .unwrap_or(p)
        })
    }

    /// Feeds one repair-MTTR sample to the adapt signal window.
    fn note_mttr(&mut self, dt: SimDuration) {
        if self.adapt_script.is_none() {
            return;
        }
        if self.adapt_mttr.len() >= ADAPT_MTTR_SAMPLES {
            self.adapt_mttr.pop_front();
        }
        self.adapt_mttr.push_back(dt.as_micros());
    }

    // [recovery:begin]
    /// Common defect entry point: classify, check the restart budget, run
    /// the policy, act (§5.2).
    fn handle_defect(&mut self, ctx: &mut Ctx<'_>, idx: usize, defect: u8) {
        let now = ctx.now();
        let svc = &mut self.services[idx];
        svc.state = SvcState::Down;
        svc.endpoint = None;
        svc.hb_outstanding = 0;
        svc.pending_publish = None;
        svc.died_at = Some(now);
        if svc.admin_down {
            svc.admin_down = false;
            ctx.trace(
                TraceLevel::Info,
                format!("service {} administratively down", svc.cfg.program),
            );
            return;
        }
        if defect != reason::UPDATE {
            svc.failures += 1;
        }
        let name = svc.cfg.program.clone();
        // Mint the episode's correlation token and root span here, at
        // detection: every event of this recovery chain — RS's own, the
        // data store's publish, and each dependent's reintegration — will
        // carry this id, letting the timeline analyzer reassemble the
        // episode and time its phases.
        self.next_recovery += 1;
        let rid = RecoveryId(self.next_recovery);
        let root = ctx.new_span();
        self.services[idx].recovery = Some(rid);
        self.services[idx].span = Some(root);
        ctx.metrics()
            .incr(&format!("rs.defect.{}", reason::name(defect)));
        let defect_ev = ctx
            .event(
                TraceLevel::Warn,
                format!(
                    "defect in {name}: {} (failure #{})",
                    reason::name(defect),
                    self.services[idx].failures
                ),
            )
            .with_field("ev", "defect")
            .with_field("service", name.as_str())
            .with_field("class", reason::name(defect))
            .with_field("failures", u64::from(self.services[idx].failures))
            .in_recovery(rid)
            .with_span(root);
        ctx.trace_event(defect_ev);
        // Observed-failure signal for the adapt controllers.
        if self.adapt_script.is_some() && defect != reason::UPDATE && defect != reason::KILLED {
            self.adapt_defects.push_back(now);
        }
        // Restart-budget bookkeeping over a sliding window. A long quiet
        // period de-escalates the storm ladder. User-initiated defects
        // (kill, update) are administrative actions, not crash loops, and
        // never count against the budget. The budget and its window come
        // from the adapt controllers when a rule drives them, from the
        // per-service config otherwise.
        let budget_window = self
            .adapted(AdaptParam::BudgetWindow)
            .map(SimDuration::from_micros)
            .unwrap_or(self.services[idx].cfg.budget_window);
        let restart_budget = self
            .adapted(AdaptParam::RestartBudget)
            .map(|v| v as u32)
            .unwrap_or(self.services[idx].cfg.restart_budget);
        let mut storm_level = 0;
        if defect != reason::UPDATE && defect != reason::KILLED {
            let svc = &mut self.services[idx];
            let window_start = if now.as_micros() > budget_window.as_micros() {
                SimTime::from_micros(now.as_micros() - budget_window.as_micros())
            } else {
                SimTime::ZERO
            };
            while svc.restart_times.front().is_some_and(|&t| t < window_start) {
                svc.restart_times.pop_front();
            }
            if svc.restart_times.is_empty() {
                svc.storm_level = 0;
            }
            svc.restart_times.push_back(now);
            if svc.restart_times.len() as u32 > restart_budget {
                svc.storm_level += 1;
                storm_level = svc.storm_level;
                ctx.metrics().incr("rs.storms");
                ctx.metrics().incr("rs.alerts");
                let storm_ev = ctx
                    .event(
                        TraceLevel::Error,
                        format!(
                            "ALERT: restart storm in {name}: {} restarts inside {} (level {})",
                            self.services[idx].restart_times.len(),
                            budget_window,
                            storm_level,
                        ),
                    )
                    .with_field("ev", "escalate")
                    .with_field("service", name.as_str())
                    .with_field("level", u64::from(storm_level))
                    .in_recovery(rid)
                    .with_parent(root);
                ctx.trace_event(storm_ev);
            }
        }
        // Recursive escalation ladder for server-class components: reboot
        // the smallest suspect first. The first defect inside the budget
        // window is a single-server microreboot (level 1); a recurrence
        // escalates to a dependency-group reboot — the server plus its
        // dependent components, in case shared protocol state is what is
        // poisoned (level 2); a full restart storm falls through to the
        // storm ladder's cool-down and give-up (level 3).
        if self.services[idx].cfg.server && defect != reason::UPDATE && defect != reason::KILLED {
            let recurrences = self.services[idx].restart_times.len();
            if storm_level > 0 {
                ctx.metrics().incr("rs.escalations.level3");
            } else if recurrences >= 2 {
                ctx.metrics().incr("rs.escalations.level2");
                // The group reboot fires once per window: later
                // recurrences stay single-server until the storm ladder
                // takes over, so a flapping server cannot amplify into a
                // permanent dependency-restart loop.
                if recurrences == 2 {
                    let group_ev = ctx
                        .event(
                            TraceLevel::Warn,
                            format!(
                                "defect in {name} recurred inside {budget_window}; \
                                 escalating to dependency-group reboot"
                            ),
                        )
                        .with_field("ev", "escalate")
                        .with_field("service", name.as_str())
                        .with_field("level", 2u64)
                        .in_recovery(rid)
                        .with_parent(root);
                    ctx.trace_event(group_ev);
                    for dep in self.services[idx].cfg.deps.clone() {
                        if let Some(&dep_idx) = self.by_name.get(&dep) {
                            if self.services[dep_idx].state == SvcState::Up {
                                ctx.trace(
                                    TraceLevel::Warn,
                                    format!("group reboot: restarting dependent {dep}"),
                                );
                                self.services[dep_idx].pending_reason = Some(reason::KILLED);
                                self.kill_service(ctx, dep_idx, false);
                            }
                        }
                    }
                }
            } else {
                ctx.metrics().incr("rs.escalations.level1");
            }
        }
        if storm_level >= 3 {
            // The ladder is exhausted: restarting, restarting with
            // dependents and cooling down all failed to calm the service.
            self.services[idx].state = SvcState::GivenUp;
            ctx.metrics().incr("rs.gave_up");
            let give_ev = ctx
                .event(
                    TraceLevel::Error,
                    format!("giving up on {name} after sustained restart storm"),
                )
                .with_field("ev", "gave-up")
                .with_field("service", name.as_str())
                .in_recovery(rid)
                .with_parent(root);
            ctx.trace_event(give_ev);
            self.retire_spare(ctx, idx);
            return;
        }
        if storm_level == 1 {
            // First escalation: the service alone keeps failing — restart
            // it together with its dependents in case shared state between
            // them is what is poisoned.
            for dep in self.services[idx].cfg.deps.clone() {
                if let Some(&dep_idx) = self.by_name.get(&dep) {
                    if self.services[dep_idx].state == SvcState::Up {
                        ctx.trace(
                            TraceLevel::Warn,
                            format!("storm escalation: restarting dependent {dep}"),
                        );
                        self.services[dep_idx].pending_reason = Some(reason::KILLED);
                        self.kill_service(ctx, dep_idx, false);
                    }
                }
            }
        }
        // Execute the policy script associated with the component. No
        // script (disk drivers) means a direct restart from the copy in
        // RAM (§6.2).
        let svc = &self.services[idx];
        let input = PolicyInput {
            component: name.clone(),
            reason: defect,
            repetition: svc.failures.max(1),
            params: svc.cfg.policy_params.clone(),
            backoff_base: self
                .adapted(AdaptParam::BackoffBase)
                .map(SimDuration::from_micros),
            backoff_cap: self.adapted(AdaptParam::BackoffCap).map(|v| v as u32),
        };
        let decision = match &svc.cfg.policy {
            Some(script) => script.run(&input),
            None => PolicyDecision {
                restart: true,
                ..PolicyDecision::default()
            },
        };
        for alert in &decision.alerts {
            ctx.metrics().incr("rs.alerts");
            ctx.trace(TraceLevel::Warn, format!("ALERT: {alert}"));
        }
        for line in &decision.logs {
            ctx.trace(TraceLevel::Info, format!("policy log: {line}"));
        }
        for dep in decision.restart_components.clone() {
            if let Some(&dep_idx) = self.by_name.get(&dep) {
                if self.services[dep_idx].state == SvcState::Up {
                    self.services[dep_idx].pending_reason = Some(reason::KILLED);
                    self.kill_service(ctx, dep_idx, false);
                }
            }
        }
        if decision.reboot {
            ctx.metrics().incr("rs.reboot_requested");
            ctx.trace(
                TraceLevel::Error,
                "policy requested system reboot".to_string(),
            );
        }
        if decision.gave_up || !decision.restart {
            self.services[idx].state = SvcState::GivenUp;
            ctx.metrics().incr("rs.gave_up");
            let give_ev = ctx
                .event(TraceLevel::Error, format!("giving up on {name}"))
                .with_field("ev", "gave-up")
                .with_field("service", name.as_str())
                .in_recovery(rid)
                .with_parent(root);
            ctx.trace_event(give_ev);
            self.retire_spare(ctx, idx);
            return;
        }
        self.services[idx].next_version = decision.version;
        // Hot-standby failover: when a warm spare is live, promote it
        // instead of cold-restarting — the repair phase collapses from
        // fork+exec+restore+replay to a publish round-trip. Updates and
        // version-pinned restarts must load a different binary, so they
        // always cold-restart and retire the now-stale spare.
        if defect == reason::UPDATE || self.services[idx].next_version.is_some() {
            self.retire_spare(ctx, idx);
        } else if let Some(spare) = self.services[idx].spare.take() {
            if ctx.proc_alive(spare) {
                self.promote_spare(ctx, idx, spare);
                return;
            }
            // The spare died alongside the primary (correlated fault):
            // fall through to a cold restart; the audit sweep refills
            // the spare slot once the service is back up.
            ctx.metrics().incr("rs.standby.spare_dead_at_promotion");
        }
        // Even a "direct" restart pays the fork+exec+image-load cost; this
        // also keeps a component that dies at initialization from turning
        // into an unthrottled crash loop. Storm level 2 adds an extended
        // cool-down on top of whatever the policy decided.
        let mut delay = decision.delay.max(EXEC_LATENCY);
        if storm_level == 2 {
            delay = delay.saturating_mul(16);
            let cool_ev = ctx
                .event(
                    TraceLevel::Warn,
                    format!("storm escalation: extended cool-down of {delay} for {name}"),
                )
                .with_field("ev", "escalate")
                .with_field("service", name.as_str())
                .with_field("level", 2u64)
                .in_recovery(rid)
                .with_parent(root);
            ctx.trace_event(cool_ev);
        }
        let delay = self.jittered(delay);
        self.services[idx].state = SvcState::WaitRestart;
        if !decision.delay.is_zero() {
            ctx.trace(
                TraceLevel::Info,
                format!("restarting {name} after {}", decision.delay),
            );
        }
        let restart_ev = ctx
            .event(
                TraceLevel::Info,
                format!("restart of {name} armed in {delay}"),
            )
            .with_field("ev", "restart")
            .with_field("service", name.as_str())
            .with_field("delay_us", delay.as_micros())
            .in_recovery(rid)
            .with_parent(root);
        ctx.trace_event(restart_ev);
        let _ = ctx.set_alarm(delay, token(TOK_RESTART, idx));
    }

    fn service_by_endpoint(&self, ep: Endpoint) -> Option<usize> {
        self.services.iter().position(|s| s.endpoint == Some(ep))
    }

    /// Whether some recovery is in flight, or completed less than a full
    /// stall window ago. While that holds, old client requests against a
    /// *server* prove nothing — the server may simply be waiting out a
    /// dependency's reincarnation — so the progress watchdog holds fire.
    fn recovery_in_flight(&self, now: SimTime) -> bool {
        if self.pm_restarting {
            return true;
        }
        if self
            .last_recovery_done
            .is_some_and(|t| now.since(t) <= STALL_AGE)
        {
            return true;
        }
        self.services.iter().any(|s| {
            matches!(
                s.state,
                SvcState::Starting | SvcState::WaitRestart | SvcState::Down
            )
        })
    }

    fn endpoint_is_complainant(&self, ep: Endpoint) -> bool {
        self.complainants.iter().any(|name| {
            self.by_name
                .get(name)
                .is_some_and(|&i| self.services[i].endpoint == Some(ep))
        })
    }

    /// Stable key for budget/accusation maps: the guarded service's
    /// published name when the accuser is one, else the endpoint
    /// rendering (unguarded callers never change incarnation under RS).
    fn accuser_key(&self, ep: Endpoint) -> String {
        self.service_by_endpoint(ep)
            .map(|i| self.services[i].cfg.program.clone())
            .unwrap_or_else(|| ep.to_string())
    }

    /// Convicts service `idx` on a complaint-class defect: records the
    /// evidence, marks the pending reason, and kills it so the policy
    /// restart runs.
    fn restart_on_complaint(&mut self, ctx: &mut Ctx<'_>, idx: usize, why: String) {
        ctx.trace(TraceLevel::Warn, why);
        self.services[idx].pending_reason = Some(reason::COMPLAINT);
        self.kill_service(ctx, idx, false);
    }

    /// Arbitrates an `rs::COMPLAIN` message (defect class 5, §5.1) and
    /// returns the reply status. Complaints carry an evidence kind and the
    /// accused incarnation's endpoint; RS rejects unauthorized, unknown,
    /// self- and ghost complaints, inverts accuser-vs-accused when one
    /// accuser blames too many services, restarts immediately on
    /// high-confidence evidence, and requires a quorum for the rest.
    fn arbitrate_complaint(
        &mut self,
        ctx: &mut Ctx<'_>,
        msg: &Message,
        idx: Option<usize>,
        name: &str,
    ) -> u64 {
        let source = msg.source;
        // Server-class services accept complaints from *any* live caller:
        // their clients are ordinary applications, which are exactly the
        // components positioned to notice a garbled reply. Everything
        // else still requires complainant authorization.
        let accused_is_server = idx.is_some_and(|i| self.services[i].cfg.server);
        if !self.endpoint_is_complainant(source) && !accused_is_server {
            ctx.metrics().incr("rs.complaints.rejected_unauthorized");
            return 13; // EACCES
        }
        let Some(i) = idx else {
            // Counted, not acted on: no defect-table entry is touched.
            ctx.metrics().incr("rs.complaints.rejected_unknown");
            ctx.trace(
                TraceLevel::Warn,
                format!("complaint about unknown service {name:?} from {source}"),
            );
            return 22; // EINVAL
        };
        let Complaint {
            kind,
            incarnation: accused_ep,
            ..
        } = Complaint::decode(msg);
        ctx.metrics()
            .incr(&format!("rs.complaints.evidence.{}", evidence::name(kind)));
        // Observed-complaint signal for the adapt controllers (vetted
        // enough to count: authorized accuser, known accused).
        if self.adapt_script.is_some() {
            self.adapt_complaints.push_back(ctx.now());
        }
        if self.services[i].endpoint == Some(source) {
            // A component cannot be witness against itself (and a
            // confused server must not be able to trigger its own
            // restart through the complaint path).
            ctx.metrics().incr("rs.complaints.rejected_self");
            ctx.trace(
                TraceLevel::Warn,
                format!("self-complaint from {name} ({source}) rejected"),
            );
            return 22;
        }
        if let Some(acc) = accused_ep {
            if self.services[i].endpoint != Some(acc) {
                // Ghost complaint: evidence gathered against an
                // incarnation that has already been replaced says
                // nothing about its successor.
                ctx.metrics().incr("rs.complaints.rejected_ghost");
                ctx.trace(
                    TraceLevel::Info,
                    format!("ghost complaint about {name} incarnation {acc} dropped"),
                );
                return 0;
            }
        }
        if self.services[i].state != SvcState::Up {
            ctx.metrics().incr("rs.complaints.ignored_down");
            return 0;
        }
        if !self.arbitration {
            // Crash-only baseline: the evidence was vetted and counted
            // above, but nothing is restarted on its account.
            ctx.metrics().incr("rs.complaints.disarmed");
            return 0;
        }
        // Accused-vs-accuser inversion: an accuser blaming many distinct
        // services inside one window is the more plausible defect. The
        // history is keyed on the accuser's stable name so it survives
        // the accuser's own microreboots.
        let now = ctx.now();
        let complaint_window = self.params.complaint_window;
        let accuser_name = self.accuser_key(source);
        let hist = self
            .accuser_history
            .entry(accuser_name.clone())
            .or_default();
        hist.push_back((i, now));
        while hist
            .front()
            .is_some_and(|&(_, t)| now.since(t) > complaint_window)
        {
            hist.pop_front();
        }
        let distinct_accused: BTreeSet<usize> = hist.iter().map(|&(j, _)| j).collect();
        if distinct_accused.len() >= self.params.inversion_accused as usize {
            self.accuser_history.remove(&accuser_name);
            ctx.metrics().incr("rs.complaints.inversions");
            let accuser = self.service_by_endpoint(source);
            if let Some(a) = accuser.filter(|&a| self.services[a].state == SvcState::Up) {
                self.restart_on_complaint(
                    ctx,
                    a,
                    format!(
                        "accuser {accuser_name} blamed {} services in {complaint_window}; \
                         inverting suspicion and restarting the accuser",
                        distinct_accused.len()
                    ),
                );
            } else {
                ctx.trace(
                    TraceLevel::Warn,
                    format!("accuser {accuser_name} discredited; complaint dropped"),
                );
            }
            return 0;
        }
        if evidence::high_confidence(kind) {
            ctx.metrics().incr("rs.complaints.accepted");
            self.restart_on_complaint(
                ctx,
                i,
                format!(
                    "complaint about {name} from {source} ({})",
                    evidence::name(kind)
                ),
            );
            return 0;
        }
        // Low-confidence evidence accumulates toward a quorum. Accusers
        // are counted by stable name, so one flapping accuser cannot
        // impersonate a quorum across its own incarnations.
        let entries = self.complaint_ledger.entry(i).or_default();
        entries.push_back((accuser_name, kind, now));
        while entries
            .front()
            .is_some_and(|(_, _, t)| now.since(*t) > complaint_window)
        {
            entries.pop_front();
        }
        let n = entries.len();
        let distinct = entries
            .iter()
            .map(|(a, _, _)| a)
            .collect::<BTreeSet<_>>()
            .len();
        if n >= self.params.quorum_complaints as usize
            || distinct >= self.params.quorum_accusers as usize
        {
            ctx.metrics().incr("rs.complaints.accepted");
            ctx.metrics().incr("rs.complaints.quorum_restarts");
            self.restart_on_complaint(
                ctx,
                i,
                format!(
                    "quorum of {n} complaints ({distinct} accusers) against {name}; restarting"
                ),
            );
        } else {
            ctx.metrics().incr("rs.complaints.below_quorum");
        }
        0
    }

    /// Remembers a dead endpoint that matched no guarded service, so a
    /// later START_REPLY naming it is recognized as an already-dead
    /// incarnation (crash before RS learned the endpoint).
    fn remember_early_death(&mut self, ep: Endpoint) {
        if self.early_deaths.len() >= EARLY_DEATHS_CAP {
            self.early_deaths.pop_front();
        }
        self.early_deaths.push_back(ep);
    }

    /// Kills a retired warm spare (its tailed state is for a binary or
    /// incarnation that will never be promoted).
    fn retire_spare(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        self.services[idx].spare_pending = false;
        let Some(ep) = self.services[idx].spare.take() else {
            return;
        };
        ctx.metrics().incr("rs.standby.spares_retired");
        ctx.trace(
            TraceLevel::Info,
            format!(
                "retiring stale spare {ep} of {}",
                self.services[idx].cfg.program
            ),
        );
        let msg = Message::new(pm::KILL)
            .with_param(0, u64::from(ep.slot()))
            .with_param(1, u64::from(ep.generation()))
            .with_param(2, 1);
        let _ = ctx.sendrec(self.pm, msg);
    }

    /// Spawns the warm spare incarnation for a hot-standby service. The
    /// spare runs the `standby.<program>` registry entry: the same driver
    /// logic in standby mode — no device grab, no fault-port publish —
    /// tailing the primary's checkpoint record until promoted.
    fn start_spare(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        let svc = &self.services[idx];
        if !svc.cfg.hot_standby
            || svc.spare.is_some()
            || svc.spare_pending
            || svc.state != SvcState::Up
        {
            return;
        }
        let program = format!("standby.{}", svc.cfg.program);
        let msg = Message::new(pm::START)
            .with_param(0, 0)
            .with_data(program.into_bytes());
        if let Ok(call) = ctx.sendrec(self.pm, msg) {
            self.services[idx].spare_pending = true;
            self.spare_start_calls.insert(call, idx);
        }
    }

    /// Handles the PM reply to a spare spawn.
    fn complete_spare_start(
        &mut self,
        ctx: &mut Ctx<'_>,
        idx: usize,
        result: Result<Message, phoenix_kernel::types::IpcError>,
    ) {
        self.services[idx].spare_pending = false;
        match result {
            Ok(reply) if reply.mtype == pm::START_REPLY && reply.param(0) == 0 => {
                let ep = unpack_endpoint(reply.param(1), reply.param(2));
                let svc = &self.services[idx];
                if !svc.cfg.hot_standby || svc.state != SvcState::Up || svc.spare.is_some() {
                    // The primary died (or the spare slot was filled)
                    // while this spawn was in flight; the incarnation
                    // is a ghost.
                    self.kill_ghost(ctx, ep);
                    return;
                }
                self.services[idx].spare = Some(ep);
                ctx.metrics().incr("rs.standby.spares_started");
                ctx.trace(
                    TraceLevel::Info,
                    format!(
                        "warm spare {ep} tailing for {}",
                        self.services[idx].cfg.program
                    ),
                );
                // Publish the spare under its standby name so DS can
                // owner-authenticate its tail reads against the live
                // endpoint generation, then start the tail loop.
                let standby_key = format!("standby.{}", self.services[idx].cfg.publish_key);
                let msg = Message::new(ds::PUBLISH)
                    .with_param(0, u64::from(ep.slot()))
                    .with_param(1, u64::from(ep.generation()))
                    .with_data(standby_key.into_bytes());
                let _ = ctx.sendrec(self.ds, msg);
                let arm = Message::new(drv::STANDBY).with_param(0, SPARE_TAIL_PERIOD.as_micros());
                let _ = ctx.send(ep, arm);
            }
            Ok(reply) if reply.mtype == pm::START_REPLY => {
                // PM says the standby program cannot run (most likely no
                // `standby.<program>` registry entry): disable hot
                // standby for this service instead of spawn-looping.
                self.services[idx].cfg.hot_standby = false;
                ctx.metrics().incr("rs.standby.unavailable");
                ctx.trace(
                    TraceLevel::Warn,
                    format!(
                        "no standby program for {}; hot standby disabled",
                        self.services[idx].cfg.program
                    ),
                );
            }
            _ => {
                // Garbled or aborted: the audit sweep (and this alarm)
                // retry while the service is up.
                let _ = ctx.set_alarm(EXEC_LATENCY.saturating_mul(4), token(TOK_SPARE, idx));
            }
        }
    }

    /// Promotes the warm spare to primary at defect time — failover, not
    /// restart+replay. Order matters: the checkpoint record is re-framed
    /// first (so the promoted incarnation's own saves pass the store's
    /// ghost check), then the spare is told to go live, then the new
    /// endpoint is published before dependents learn of it (§5.3).
    // analyze:recovery-root
    fn promote_spare(&mut self, ctx: &mut Ctx<'_>, idx: usize, ep: Endpoint) {
        let name = self.services[idx].cfg.program.clone();
        let key = self.services[idx].cfg.publish_key.clone();
        let rid = self.services[idx].recovery;
        let span = self.services[idx].span;
        let svc = &mut self.services[idx];
        svc.state = SvcState::Up;
        svc.endpoint = Some(ep);
        svc.hb_outstanding = 0;
        svc.hb_epoch = svc.hb_epoch.wrapping_add(1);
        let epoch = svc.hb_epoch;
        ctx.metrics().incr("rs.standby.promotions");
        let ev = ctx
            .event(
                TraceLevel::Info,
                format!("promoting warm spare {ep} to {name}"),
            )
            .with_field("ev", "promote")
            .with_field("service", name.as_str())
            .in_recovery_opt(rid)
            .with_parent_opt(span);
        ctx.trace_event(ev);
        // Re-frame the stored snapshot with a clamped incarnation: the
        // spare lives in a younger slot generation than the dead
        // primary, so its first save would otherwise be ghost-rejected.
        let promote = Message::new(ckpt::PROMOTE).with_data(key.into_bytes());
        if let Ok(call) = ctx.sendrec(self.ds, promote) {
            self.promote_calls.insert(call, idx);
        }
        // Tell the spare to go live: deferred device init, fault-port
        // publish under the primary name, stop tailing, adopt the
        // tailed watermark as warm state.
        let go = Message::new(drv::PROMOTE)
            .with_param(0, rid.map_or(0, RecoveryId::as_u64))
            .with_param(1, span.map_or(0, SpanId::as_u64));
        let _ = ctx.send(ep, go);
        // Publish before dependents are notified (§5.3), verified like
        // any other publish.
        self.publish(ctx, idx, ep);
        if let Some(died) = self.services[idx].died_at.take() {
            let dt = ctx.now().since(died);
            self.last_recovery_done = Some(ctx.now());
            self.note_mttr(dt);
            ctx.metrics().incr("rs.recoveries");
            ctx.metrics()
                .histogram_mut("rs.recovery_time")
                .record_duration(dt);
            let alive_ev = ctx
                .event(
                    TraceLevel::Info,
                    format!("recovered {name} by promotion as {ep} in {dt}"),
                )
                .with_field("ev", "alive")
                .with_field("service", name.as_str())
                .with_field("mttr_us", dt.as_micros())
                .with_field("promoted", 1u64)
                .in_recovery_opt(rid)
                .with_parent_opt(span);
            ctx.trace_event(alive_ev);
        }
        if let Some(period) = self.effective_heartbeat(idx) {
            let _ = ctx.set_alarm(period, token_seq(TOK_HB, epoch, idx));
        }
        // Refill the spare slot behind the promoted incarnation.
        let _ = ctx.set_alarm(EXEC_LATENCY, token(TOK_SPARE, idx));
    }

    /// Steps every adapt rule once against the observed signal windows,
    /// writing results through the live [`PolicyParams`] table (each step
    /// clamped to the rule's declared band) and mirroring the values into
    /// `rs.adapt.*` gauges plus a per-parameter trajectory histogram that
    /// campaigns assert stays inside the clamp band.
    // analyze:recovery-root
    fn run_adapt_controllers(&mut self, ctx: &mut Ctx<'_>) {
        let Some(script) = self.adapt_script.take() else {
            return;
        };
        let now = ctx.now();
        while self
            .adapt_defects
            .front()
            .is_some_and(|&t| now.since(t) > ADAPT_WINDOW)
        {
            self.adapt_defects.pop_front();
        }
        while self
            .adapt_complaints
            .front()
            .is_some_and(|&t| now.since(t) > ADAPT_WINDOW)
        {
            self.adapt_complaints.pop_front();
        }
        for rule in script.adapt_rules() {
            let sample = match rule.signal {
                AdaptSignal::Failures => self.adapt_defects.len() as i64,
                AdaptSignal::Complaints => self.adapt_complaints.len() as i64,
                AdaptSignal::MttrP95Ms => {
                    if self.adapt_mttr.is_empty() {
                        0
                    } else {
                        let mut v: Vec<u64> = self.adapt_mttr.iter().copied().collect();
                        v.sort_unstable();
                        (v[(v.len() - 1) * 95 / 100] / 1000) as i64
                    }
                }
            };
            if let Some(new) = rule.step(sample, &mut self.params) {
                ctx.metrics().incr("rs.adapt.updates");
                ctx.metrics().set(rule.param.gauge(), new);
                let ev = ctx
                    .event(
                        TraceLevel::Info,
                        format!(
                            "adapt: {} -> {new} ({} = {sample})",
                            rule.param.name(),
                            rule.signal.name()
                        ),
                    )
                    .with_field("ev", "adapt")
                    .with_field("param", rule.param.name())
                    .with_field("value", new);
                ctx.trace_event(ev);
            }
            ctx.metrics()
                .histogram_mut(&format!("rs.adapt.trace.{}", rule.param.name()))
                .record(rule.param.read(&self.params) as f64);
        }
        self.adapt_script = Some(script);
    }

    /// Handles the successful completion of a tracked PM_START call.
    fn complete_start(&mut self, ctx: &mut Ctx<'_>, idx: usize, ep: Endpoint) {
        let svc_name = self.services[idx].cfg.program.clone();
        self.services[idx].current_start = None;
        if let Some(pos) = self.early_deaths.iter().position(|&d| d == ep) {
            // The fresh incarnation is already dead — it crashed between
            // its spawn and this reply (a mid-recovery kill). Re-enter
            // recovery instead of guarding a corpse.
            self.early_deaths.remove(pos);
            ctx.metrics().incr("rs.early_death_rescues");
            ctx.trace(
                TraceLevel::Warn,
                format!(
                    "{svc_name} incarnation {ep} died before start completed; re-running recovery"
                ),
            );
            self.services[idx].state = SvcState::Up;
            self.services[idx].endpoint = Some(ep);
            let defect = self.services[idx]
                .pending_reason
                .take()
                .unwrap_or(reason::KILLED);
            self.handle_defect(ctx, idx, defect);
            return;
        }
        let svc = &mut self.services[idx];
        svc.state = SvcState::Up;
        svc.endpoint = Some(ep);
        svc.hb_outstanding = 0;
        svc.hb_epoch = svc.hb_epoch.wrapping_add(1);
        let epoch = svc.hb_epoch;
        // Publish the new endpoint *before* dependents are notified — the
        // data store does both atomically from the subscribers' point of
        // view (§5.3) — and verify the acknowledgement comes back.
        self.publish(ctx, idx, ep);
        if let Some(died) = self.services[idx].died_at.take() {
            let dt = ctx.now().since(died);
            self.last_recovery_done = Some(ctx.now());
            self.note_mttr(dt);
            ctx.metrics().incr("rs.recoveries");
            ctx.metrics()
                .histogram_mut("rs.recovery_time")
                .record_duration(dt);
            let alive_ev = ctx
                .event(
                    TraceLevel::Info,
                    format!("recovered {svc_name} as {ep} in {dt}"),
                )
                .with_field("ev", "alive")
                .with_field("service", svc_name.as_str())
                .with_field("mttr_us", dt.as_micros())
                .in_recovery_opt(self.services[idx].recovery)
                .with_parent_opt(self.services[idx].span);
            ctx.trace_event(alive_ev);
        } else {
            ctx.metrics().incr("rs.starts");
            ctx.trace(TraceLevel::Info, format!("started {svc_name} as {ep}"));
        }
        if let Some(period) = self.effective_heartbeat(idx) {
            let _ = ctx.set_alarm(period, token_seq(TOK_HB, epoch, idx));
        }
        // A hot-standby service gets its warm spare as soon as the
        // primary is up (initial start and after every cold restart).
        self.start_spare(ctx, idx);
    }

    /// Publishes the `pm` name in the data store, so dependents can find
    /// the process manager and PM's own checkpoint saves pass DS's
    /// owner authentication. DS is in the never-restarted trusted base,
    /// so this skips the verified-publish ladder used for services.
    fn publish_pm(&mut self, ctx: &mut Ctx<'_>) {
        let rid_wire = self.pm_recovery.map_or(0, RecoveryId::as_u64);
        let span_wire = self.pm_span.map_or(0, SpanId::as_u64);
        let msg = Message::new(ds::PUBLISH)
            .with_param(0, u64::from(self.pm.slot()))
            .with_param(1, u64::from(self.pm.generation()))
            .with_param(2, rid_wire)
            .with_param(3, span_wire)
            .with_data(b"pm".to_vec());
        let _ = ctx.sendrec(self.ds, msg);
    }

    /// PM defect entry point — recursive recovery. RS cannot ask PM to
    /// restart itself, so it falls back on its own per-instance
    /// spawn/kill privileges. `dead` says whether the incarnation is
    /// already gone (audit or exit report) or must be killed first
    /// (stall, garbled replies).
    fn recover_pm(&mut self, ctx: &mut Ctx<'_>, defect: u8, dead: bool) {
        if self.pm_program.is_none() || self.pm_restarting {
            return;
        }
        self.pm_restarting = true;
        self.next_recovery += 1;
        let rid = RecoveryId(self.next_recovery);
        let root = ctx.new_span();
        self.pm_recovery = Some(rid);
        self.pm_span = Some(root);
        self.pm_died_at = Some(ctx.now());
        ctx.metrics().incr("rs.pm_defects");
        ctx.metrics()
            .incr(&format!("rs.defect.{}", reason::name(defect)));
        let defect_ev = ctx
            .event(
                TraceLevel::Warn,
                format!("defect in pm: {}", reason::name(defect)),
            )
            .with_field("ev", "defect")
            .with_field("service", "pm")
            .with_field("class", reason::name(defect))
            .in_recovery(rid)
            .with_span(root);
        ctx.trace_event(defect_ev);
        if !dead {
            let _ = ctx.sys_kill(self.pm, Signal::Kill);
        }
        let _ = ctx.set_alarm(EXEC_LATENCY, token(TOK_PM_RESTART, 0));
    }

    /// Spawns the replacement PM incarnation, re-registers RS as the
    /// exit-report sink, and re-publishes the `pm` name. In-flight
    /// PM_START calls were aborted by the kernel when the old PM died;
    /// their error replies re-arm per-service restart alarms, which
    /// re-drive the starts against the new incarnation.
    fn respawn_pm(&mut self, ctx: &mut Ctx<'_>) {
        let Some(program) = self.pm_program.clone() else {
            return;
        };
        let exec_ev = ctx
            .event(TraceLevel::Info, "exec pm (recursive recovery)".to_string())
            .with_field("ev", "exec")
            .with_field("service", "pm")
            .in_recovery_opt(self.pm_recovery)
            .with_parent_opt(self.pm_span);
        ctx.trace_event(exec_ev);
        match ctx.sys_spawn(&program, None) {
            Ok(ep) => {
                self.pm = ep;
                self.pm_restarting = false;
                self.pm_pong_outstanding = 0;
                // Become the new incarnation's exit-report sink before any
                // child can die, then make the name visible again.
                let _ = ctx.send(ep, Message::new(pm::REGISTER));
                self.publish_pm(ctx);
                if let Some(died) = self.pm_died_at.take() {
                    let dt = ctx.now().since(died);
                    self.last_recovery_done = Some(ctx.now());
                    self.note_mttr(dt);
                    ctx.metrics().incr("rs.pm_recoveries");
                    ctx.metrics()
                        .histogram_mut("rs.recovery_time")
                        .record_duration(dt);
                    let alive_ev = ctx
                        .event(TraceLevel::Info, format!("recovered pm as {ep} in {dt}"))
                        .with_field("ev", "alive")
                        .with_field("service", "pm")
                        .with_field("mttr_us", dt.as_micros())
                        .in_recovery_opt(self.pm_recovery)
                        .with_parent_opt(self.pm_span);
                    ctx.trace_event(alive_ev);
                }
            }
            Err(_) => {
                ctx.metrics().incr("rs.pm_respawn_failed");
                ctx.metrics().incr("rs.alerts");
                ctx.trace(
                    TraceLevel::Error,
                    format!("ALERT: cannot respawn {program}; retrying"),
                );
                let _ = ctx.set_alarm(EXEC_LATENCY.saturating_mul(4), token(TOK_PM_RESTART, 0));
            }
        }
    }
    // [recovery:end]
}

impl Process for ReincarnationServer {
    // analyze:recovery-root
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        match event {
            ProcEvent::Start => {
                if self.started_boot {
                    return;
                }
                self.started_boot = true;
                // Forking is a pure function of (seed, domain): jitter gets
                // its own stream without perturbing anyone else's draws.
                self.jitter = Some(ctx.rng().fork("rs-jitter"));
                // Every tunable parameter is a gauge from boot, so
                // campaign digests always show the live table (baseline
                // values until a controller steps).
                for p in AdaptParam::ALL {
                    ctx.metrics().set(p.gauge(), p.read(&self.params));
                }
                // Become PM's exit-report sink before any child can die.
                let _ = ctx.send(self.pm, Message::new(pm::REGISTER));
                if self.pm_program.is_some() {
                    // PM's checkpoint saves are owner-authenticated
                    // against the published `pm` name; publish it before
                    // the first service start can make PM dirty.
                    self.publish_pm(ctx);
                }
                for idx in 0..self.services.len() {
                    self.start_service(ctx, idx);
                }
                // Periodic liveness audit: catches lost exit reports.
                let _ = ctx.set_alarm(AUDIT_PERIOD, token(TOK_AUDIT, 0));
            }
            ProcEvent::Reply { call, result } => {
                if let Some(idx) = self.start_calls.remove(&call) {
                    let svc_name = self.services[idx].cfg.program.clone();
                    match result {
                        Ok(reply) if reply.mtype == pm::START_REPLY && reply.param(0) == 0 => {
                            let ep = unpack_endpoint(reply.param(1), reply.param(2));
                            self.complete_start(ctx, idx, ep);
                        }
                        Ok(reply) if reply.mtype == pm::START_REPLY => {
                            // A well-formed failure status (unknown
                            // program, denied) is PM telling the truth:
                            // the service cannot run.
                            self.services[idx].current_start = None;
                            self.services[idx].state = SvcState::GivenUp;
                            ctx.metrics().incr("rs.gave_up");
                            ctx.trace(
                                TraceLevel::Error,
                                format!("failed to start {svc_name}: status {}", reply.param(0)),
                            );
                        }
                        Ok(reply) => {
                            // Wrong reply type: PM is garbling. The start
                            // outcome is unknown, so retry it, and treat
                            // the garble as a PM defect (high-confidence
                            // evidence — RS observed it firsthand).
                            self.services[idx].current_start = None;
                            self.services[idx].state = SvcState::WaitRestart;
                            ctx.metrics().incr("rs.pm_garbled_replies");
                            ctx.trace(
                                TraceLevel::Warn,
                                format!(
                                    "garbled PM reply (mtype {:#x}) to start of {svc_name}",
                                    reply.mtype
                                ),
                            );
                            let _ = ctx
                                .set_alarm(EXEC_LATENCY.saturating_mul(4), token(TOK_RESTART, idx));
                            self.recover_pm(ctx, reason::COMPLAINT, false);
                        }
                        Err(_) => {
                            // The rendezvous aborted: PM died with the
                            // call open. Re-arm the start; PM recovery
                            // (exit report or audit) runs in parallel.
                            self.services[idx].current_start = None;
                            self.services[idx].state = SvcState::WaitRestart;
                            ctx.metrics().incr("rs.start_aborted");
                            ctx.trace(
                                TraceLevel::Warn,
                                format!("start of {svc_name} aborted by PM death; will retry"),
                            );
                            let _ = ctx
                                .set_alarm(EXEC_LATENCY.saturating_mul(4), token(TOK_RESTART, idx));
                            if self.pm_program.is_some() && !ctx.proc_alive(self.pm) {
                                self.recover_pm(ctx, reason::EXIT, true);
                            }
                        }
                    }
                } else if let Some(idx) = self.orphan_calls.remove(&call) {
                    // A reply to a start attempt RS had given up on. If it
                    // succeeded, a ghost incarnation is running unguarded.
                    if let Ok(reply) = result {
                        if reply.mtype == pm::START_REPLY && reply.param(0) == 0 {
                            let ghost = unpack_endpoint(reply.param(1), reply.param(2));
                            // Never kill the endpoint we currently guard:
                            // the "orphan" may be the very call whose
                            // timeout raced its reply.
                            if self.services[idx].endpoint != Some(ghost) {
                                self.kill_ghost(ctx, ghost);
                            }
                        }
                    }
                } else if let Some(idx) = self.kill_calls.remove(&call) {
                    // PM said NO_PROCESS while RS still thinks the service
                    // is up: the exit report was lost. Synthesize the
                    // defect rather than wait for the audit.
                    if let Ok(reply) = result {
                        if reply.mtype != pm::KILL_REPLY {
                            // Garbled kill reply: a PM defect. The kill's
                            // real outcome is unknown; the liveness audit
                            // reconciles the target either way.
                            ctx.metrics().incr("rs.pm_garbled_replies");
                            self.recover_pm(ctx, reason::COMPLAINT, false);
                        } else if reply.param(0) == crate::pm::pm_status::NO_PROCESS
                            && self.services[idx].state == SvcState::Up
                        {
                            let defect = self.services[idx]
                                .pending_reason
                                .take()
                                .unwrap_or(reason::KILLED);
                            ctx.metrics().incr("rs.lost_sigchld");
                            ctx.trace(
                                TraceLevel::Warn,
                                format!(
                                    "{} already dead at kill time; synthesizing defect",
                                    self.services[idx].cfg.program
                                ),
                            );
                            self.handle_defect(ctx, idx, defect);
                        }
                    }
                } else if let Some(idx) = self.spare_start_calls.remove(&call) {
                    self.complete_spare_start(ctx, idx, result);
                } else if let Some(idx) = self.promote_calls.remove(&call) {
                    match result {
                        Ok(reply)
                            if reply.mtype == ckpt::PROMOTE_REPLY
                                && reply.param(0) == ckpt_status::OK =>
                        {
                            ctx.metrics()
                                .add("rs.standby.records_adopted", reply.param(1));
                        }
                        _ => {
                            // The snapshot re-frame failed (no records,
                            // DS died mid-call). The promoted driver is
                            // live either way — its tailed watermark is
                            // the warm state; only a later cold restore
                            // would have used the DS frames.
                            ctx.metrics().incr("rs.standby.promote_unframed");
                            ctx.trace(
                                TraceLevel::Warn,
                                format!(
                                    "snapshot re-frame for promoted {} not confirmed",
                                    self.services[idx].cfg.program
                                ),
                            );
                        }
                    }
                } else if let Some(idx) = self.publish_calls.remove(&call) {
                    match result {
                        Ok(reply) if reply.mtype == ds::ACK && reply.param(0) == 0 => {
                            let svc = &mut self.services[idx];
                            if svc.pending_publish.is_some() {
                                svc.pending_publish = None;
                                ctx.metrics().incr("rs.publish_verified");
                            }
                        }
                        _ => {
                            // Bad status or aborted call: leave the pending
                            // record; the re-publish alarm will retry.
                            ctx.trace(
                                TraceLevel::Warn,
                                format!(
                                    "publish of {} not acknowledged cleanly",
                                    self.services[idx].cfg.publish_key
                                ),
                            );
                        }
                    }
                }
            }
            // RS is the parent of any PM incarnation it respawned, so the
            // kernel reports that incarnation's death directly here — no
            // forwarding PM exists to relay it.
            ProcEvent::ChildExited(status)
                if self.pm_program.is_some() && status.endpoint == self.pm =>
            {
                let defect = match status.reason {
                    ExitReason::Exception(_) => reason::EXCEPTION,
                    _ => reason::EXIT,
                };
                self.recover_pm(ctx, defect, true);
            }
            ProcEvent::Message(msg) => match msg.mtype {
                // [recovery:begin]
                pm::SIGCHLD => {
                    let ep = unpack_endpoint(msg.param(0), msg.param(1));
                    let Some(idx) = self.service_by_endpoint(ep) else {
                        if let Some(i) = self.services.iter().position(|s| s.spare == Some(ep)) {
                            // The warm spare died, not the primary: no
                            // recovery episode, just refill the slot
                            // after a spawn latency.
                            self.services[i].spare = None;
                            ctx.metrics().incr("rs.standby.spare_deaths");
                            ctx.trace(
                                TraceLevel::Warn,
                                format!(
                                    "warm spare {ep} of {} died; respawning",
                                    self.services[i].cfg.program
                                ),
                            );
                            let _ = ctx.set_alarm(EXEC_LATENCY, token(TOK_SPARE, i));
                            return;
                        }
                        // Not a currently-guarded endpoint: either a user
                        // process (ignore) or a service incarnation that
                        // died before RS bound it (remember for
                        // reconciliation).
                        self.remember_early_death(ep);
                        return;
                    };
                    // Defect classes 1-3 (§5.1) from the exit status,
                    // unless RS already knows why it killed the process
                    // (heartbeat 4, complaint 5, update 6, user 3).
                    let defect = self.services[idx].pending_reason.take().unwrap_or({
                        match msg.param(2) {
                            0 | 1 => reason::EXIT,
                            2 => reason::EXCEPTION,
                            _ => reason::KILLED,
                        }
                    });
                    self.handle_defect(ctx, idx, defect);
                }
                drv::HB_PONG => {
                    if self.pm_program.is_some() && msg.source == self.pm {
                        self.pm_pong_outstanding = 0;
                    } else if let Some(idx) = self.service_by_endpoint(msg.source) {
                        self.services[idx].hb_outstanding = 0;
                    }
                }
                // [recovery:end]
                _ => {}
            },
            ProcEvent::Request { call, msg } => {
                let name = String::from_utf8_lossy(&msg.data).to_string();
                let idx = self.by_name.get(&name).copied();
                let mut st = 0u64;
                match (msg.mtype, idx) {
                    (rsp::UP, Some(i)) => {
                        self.services[i].admin_down = false;
                        if self.services[i].state == SvcState::GivenUp {
                            self.services[i].state = SvcState::Down;
                            self.services[i].storm_level = 0;
                            self.services[i].restart_times.clear();
                        }
                        self.start_service(ctx, i);
                    }
                    (rsp::RESTART, Some(i)) => {
                        // User-initiated replacement, defect class 3. On a
                        // given-up service this is the operator overriding
                        // the storm ladder (e.g. after fixing the hardware
                        // out of band), so the storm state resets too.
                        if self.services[i].state == SvcState::Up {
                            self.services[i].pending_reason = Some(reason::KILLED);
                            self.kill_service(ctx, i, false);
                        } else {
                            if self.services[i].state == SvcState::GivenUp {
                                self.services[i].state = SvcState::Down;
                                self.services[i].storm_level = 0;
                                self.services[i].restart_times.clear();
                            }
                            self.start_service(ctx, i);
                        }
                    }
                    (rsp::UPDATE, Some(i)) => {
                        // Dynamic update, defect class 6: ask nicely with
                        // SIGTERM, escalate to SIGKILL if ignored (§6).
                        if self.services[i].state == SvcState::Up {
                            self.services[i].pending_reason = Some(reason::UPDATE);
                            self.kill_service(ctx, i, true);
                            let _ = ctx
                                .set_alarm(SimDuration::from_millis(500), token(TOK_ESCALATE, i));
                        } else {
                            self.start_service(ctx, i);
                        }
                    }
                    (rsp::DOWN, Some(i)) => {
                        if self.services[i].state == SvcState::Up {
                            self.services[i].admin_down = true;
                            self.kill_service(ctx, i, false);
                        } else {
                            self.services[i].state = SvcState::GivenUp;
                        }
                    }
                    (rsp::COMPLAIN, i) => {
                        // Defect class 5: an authorized server reports a
                        // protocol violation; RS arbitrates (§5.1).
                        st = self.arbitrate_complaint(ctx, &msg, i, &name);
                    }
                    _ => st = 22, // EINVAL / unknown service
                }
                let _ = ctx.reply(call, Message::new(rsp::ACK).with_param(0, st));
            }
            // [recovery:begin]
            ProcEvent::Alarm { token: t } => {
                let (kind, seq, idx) =
                    (t >> 32, ((t >> 16) & 0xFFFF) as u16, (t & 0xFFFF) as usize);
                if kind == TOK_PM_RESTART {
                    self.respawn_pm(ctx);
                    return;
                }
                if idx >= self.services.len() {
                    return;
                }
                match kind {
                    TOK_HB => {
                        let eff_period = self.effective_heartbeat(idx);
                        let svc = &mut self.services[idx];
                        if svc.state != SvcState::Up || svc.hb_epoch != seq {
                            return; // heartbeat chain ends; restart rearms
                        }
                        if svc.hb_outstanding >= svc.cfg.heartbeat_misses {
                            // Defect class 4: the process is stuck.
                            svc.pending_reason = Some(reason::HEARTBEAT);
                            let name = svc.cfg.program.clone();
                            ctx.trace(
                                TraceLevel::Warn,
                                format!("{name} missed {} heartbeats, killing", svc.hb_outstanding),
                            );
                            self.kill_service(ctx, idx, false);
                            return;
                        }
                        svc.hb_nonce += 1;
                        let nonce = svc.hb_nonce;
                        svc.hb_outstanding += 1;
                        let ep = svc.endpoint;
                        // A config update can drop the heartbeat period
                        // while an alarm is in flight; end the chain rather
                        // than crash the recovery infrastructure itself.
                        // The period itself is live: the next ping in the
                        // chain honors the adapt controller's latest value.
                        let Some(period) = eff_period else {
                            svc.hb_outstanding = 0;
                            return;
                        };
                        if let Some(ep) = ep {
                            // Nonblocking status request (§5.1): a sick
                            // driver can never hang RS.
                            let _ = ctx.send(ep, Message::new(drv::HB_PING).with_param(0, nonce));
                        }
                        let _ = ctx.set_alarm(period, token_seq(TOK_HB, seq, idx));
                    }
                    TOK_RESTART if self.services[idx].state == SvcState::WaitRestart => {
                        self.start_service(ctx, idx);
                    }
                    TOK_SPARE => {
                        self.start_spare(ctx, idx);
                    }
                    TOK_ESCALATE if self.services[idx].state == SvcState::Up => {
                        // SIGTERM was ignored; escalate to SIGKILL.
                        self.kill_service(ctx, idx, false);
                    }
                    TOK_START_TIMEOUT => {
                        // Only the alarm matching the current attempt may
                        // declare it lost; alarms from completed or
                        // superseded attempts are stale.
                        let svc = &self.services[idx];
                        let Some((call, attempt)) = svc.current_start else {
                            return;
                        };
                        if attempt != seq || svc.state != SvcState::Starting {
                            return;
                        }
                        if self.start_calls.remove(&call).is_some() {
                            // The attempt is abandoned, not forgotten: a
                            // late success reply means a ghost to reap.
                            self.orphan_calls.insert(call, idx);
                            self.services[idx].current_start = None;
                            self.services[idx].state = SvcState::Down;
                            ctx.metrics().incr("rs.start_timeouts");
                            ctx.trace(
                                TraceLevel::Warn,
                                format!(
                                    "start of {} timed out; retrying",
                                    self.services[idx].cfg.program
                                ),
                            );
                            self.start_service(ctx, idx);
                        }
                    }
                    TOK_REPUBLISH => {
                        let svc = &self.services[idx];
                        let Some(pp) = svc.pending_publish else {
                            return;
                        };
                        // Stale alarm from an earlier publish attempt, or
                        // the service died meanwhile.
                        if pp.attempts as u16 != seq
                            || svc.state != SvcState::Up
                            || svc.endpoint != Some(pp.ep)
                        {
                            return;
                        }
                        if pp.attempts >= MAX_PUBLISH_RETRIES {
                            self.services[idx].pending_publish = None;
                            ctx.metrics().incr("rs.publish_failed");
                            ctx.metrics().incr("rs.alerts");
                            ctx.trace(
                                TraceLevel::Error,
                                format!(
                                    "ALERT: cannot verify publish of {} after {} attempts",
                                    self.services[idx].cfg.publish_key, pp.attempts
                                ),
                            );
                            return;
                        }
                        self.services[idx].pending_publish = Some(PendingPublish {
                            ep: pp.ep,
                            attempts: pp.attempts + 1,
                        });
                        ctx.metrics().incr("rs.publish_retries");
                        ctx.trace(
                            TraceLevel::Warn,
                            format!(
                                "re-publishing {} (attempt {})",
                                self.services[idx].cfg.publish_key,
                                pp.attempts + 1
                            ),
                        );
                        self.publish(ctx, idx, pp.ep);
                    }
                    TOK_AUDIT => {
                        // Liveness beacon for the fleet layer: a healthy
                        // RS advances this counter every audit sweep, so
                        // a per-node fleet agent gossiping the counter
                        // can tell a dead or wedged RS (stalled beacon)
                        // from a merely idle one.
                        ctx.metrics().incr("rs.beacon");
                        // Step the adapt controllers against the signal
                        // windows before any sweep decision this cycle
                        // reads the parameter table.
                        self.run_adapt_controllers(ctx);
                        // Keep the accusation history from leaking: drop
                        // accusers whose whole window has expired.
                        let now = ctx.now();
                        let complaint_window = self.params.complaint_window;
                        self.accuser_history.retain(|_, h| {
                            h.back()
                                .is_some_and(|&(_, t)| now.since(t) <= complaint_window)
                        });
                        // Recursive guard: audit PM itself first — every
                        // other recovery depends on it, and no one else
                        // reports its death (its own forwarding is gone).
                        if self.pm_program.is_some() && !self.pm_restarting {
                            if !ctx.proc_alive(self.pm) {
                                self.recover_pm(ctx, reason::EXIT, true);
                            } else if self.kernel_guards && ctx.request_stalled(self.pm, STALL_AGE)
                            {
                                ctx.metrics().incr(&format!(
                                    "rs.complaints.evidence.{}",
                                    evidence::name(evidence::PROGRESS)
                                ));
                                self.recover_pm(ctx, reason::HEARTBEAT, false);
                            } else if self.pm_pong_outstanding >= 3 {
                                // Three audits without a pong: PM is
                                // alive per the kernel but swallowing (or
                                // garbling) everything it is sent.
                                self.pm_pong_outstanding = 0;
                                ctx.metrics().incr("rs.pm_pings_missed");
                                self.recover_pm(ctx, reason::HEARTBEAT, false);
                            } else {
                                self.pm_pong_outstanding += 1;
                                let _ = ctx.send(self.pm, Message::new(drv::HB_PING));
                            }
                        }
                        // Sweep for lost exit notifications: a guarded
                        // endpoint the kernel no longer knows is a defect
                        // whose SIGCHLD never made it.
                        for i in 0..self.services.len() {
                            let svc = &self.services[i];
                            if svc.state != SvcState::Up {
                                continue;
                            }
                            let Some(ep) = svc.endpoint else { continue };
                            if !ctx.proc_alive(ep) {
                                ctx.metrics().incr("rs.audit_reaped");
                                ctx.metrics().incr("rs.lost_sigchld");
                                ctx.trace(
                                    TraceLevel::Warn,
                                    format!(
                                        "audit: {} ({ep}) is gone but no exit report arrived",
                                        svc.cfg.program
                                    ),
                                );
                                let defect = self.services[i]
                                    .pending_reason
                                    .take()
                                    .unwrap_or(reason::KILLED);
                                self.handle_defect(ctx, i, defect);
                                continue;
                            }
                            // Hot-standby upkeep: reap a silently-dead
                            // spare and refill an empty slot (covers lost
                            // spare SIGCHLDs and spawn retries).
                            if self.services[i].cfg.hot_standby {
                                if let Some(sep) = self.services[i].spare {
                                    if !ctx.proc_alive(sep) {
                                        self.services[i].spare = None;
                                        ctx.metrics().incr("rs.standby.spare_deaths");
                                        self.start_spare(ctx, i);
                                    }
                                } else {
                                    self.start_spare(ctx, i);
                                }
                            }
                            // Kernel guard evidence (high confidence): the
                            // IPC layer flagged the endpoint as babbling,
                            // or it is sitting on requests far past the
                            // stall threshold. Polled for heartbeat-guarded
                            // services (drivers) and for server-class
                            // components, whose stalls would otherwise be
                            // invisible — a wedged server swallows requests
                            // without ever crashing. STALL_AGE exceeds the
                            // servers' own driver deadlines, so a server
                            // legitimately waiting out a driver recovery is
                            // not mistaken for a stall.
                            if !self.kernel_guards {
                                continue;
                            }
                            if self.services[i].cfg.heartbeat_period.is_none()
                                && !self.services[i].cfg.server
                            {
                                continue;
                            }
                            let program = self.services[i].cfg.program.clone();
                            if ctx.babble_flagged(ep) {
                                ctx.metrics().incr(&format!(
                                    "rs.complaints.evidence.{}",
                                    evidence::name(evidence::BABBLE)
                                ));
                                ctx.metrics().incr("rs.complaints.accepted");
                                self.restart_on_complaint(
                                    ctx,
                                    i,
                                    format!("babble guard flagged {program}; restarting"),
                                );
                            } else if ctx.request_stalled(ep, STALL_AGE)
                                && (!self.services[i].cfg.server || !self.recovery_in_flight(now))
                            {
                                ctx.metrics().incr(&format!(
                                    "rs.complaints.evidence.{}",
                                    evidence::name(evidence::PROGRESS)
                                ));
                                ctx.metrics().incr("rs.complaints.accepted");
                                self.restart_on_complaint(
                                    ctx,
                                    i,
                                    format!(
                                        "{program} sits on requests older than {STALL_AGE} \
                                         without crashing; restarting"
                                    ),
                                );
                            }
                        }
                        let _ = ctx.set_alarm(AUDIT_PERIOD, token(TOK_AUDIT, 0));
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }
}
// [recovery:end]
