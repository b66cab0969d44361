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
//! 5. complaint by an authorized component — `rs::COMPLAIN`; the
//!    complainants are the live incarnations of the server-class services
//!    of the table;
//! 6. dynamic update — `rs::UPDATE` (SIGTERM, escalating to SIGKILL).
//!
//! On a defect RS runs the component's policy script (§5.2) and carries
//! out its decision: restart after (possibly exponential-backoff) delay,
//! restart dependent components, raise alerts, give up, or request a
//! whole-system reboot. After a restart RS publishes the *new* endpoint in
//! the data store before dependents learn about it (§5.3).
//!
//! # Structure: detect → decide → act
//!
//! This file is the *shell*: it **detects** (the six inputs above, the
//! start/kill/publish reply reconciliation, heartbeats, the audit sweep)
//! and it **acts** (kernel calls, alarms, metrics, trace). What to do is
//! **decided** by the plain values of [`decide`], which see no `Ctx`: the
//! restart ladder ([`decide::RestartRecord`]), the complaint arbiter
//! ([`decide::Arbiter`]) and the repair plan ([`decide::Repair`]). Every
//! recovery — a service's or PM's own — is one [`Episode`], opened at
//! detection and closed when the fresh incarnation is alive.
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
//!   kill of the incarnation RS still guards means its exit report was
//!   lost; the defect is synthesized on the spot. A reply about an earlier
//!   incarnation says nothing about its successor.
//! * **Liveness audit** — a periodic sweep asks the kernel whether each
//!   supposedly-up endpoint is still alive, catching any remaining lost
//!   exit notifications.
//! * **Verified publish** — DS publishes are acknowledged; a missing or
//!   failed acknowledgement triggers bounded re-publish with an alert when
//!   the budget is exhausted. An acknowledgement verifies the publish of
//!   its own incarnation only.
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
//! * **Adapt controllers** — a policy script's `adapt` rules bind
//!   [`PolicyParams`] entries (heartbeat period, backoff base/cap,
//!   restart budget and window, complaint quorum) to deterministic
//!   bang-bang controllers driven by observed failure rate, complaint
//!   rate, or repair-MTTR percentiles. Each guarded service carries its
//!   own table: a rule steps every service it binds from that service's
//!   own value, clamped to the rule's declared band. The per-service
//!   `rs.adapt.<service>.*` gauges report the values RS uses.
//! * **Hot-standby failover** — a service marked `hot_standby` gets a
//!   warm spare incarnation (`standby.<program>`) that continuously
//!   tails the primary's checkpoint record in DS. At defect time RS
//!   *promotes* the spare — re-frames the checkpoint record for the new
//!   incarnation, tells the spare to go live, publishes — instead of
//!   paying fork+exec+restore, collapsing the repair phase to a publish
//!   round-trip.

pub mod decide;

use std::collections::{BTreeMap, VecDeque};

use phoenix_ckpt::proto::{ckpt, ckpt_status};
use phoenix_drivers::proto::{drv, status};
use phoenix_kernel::process::{ProcEvent, Process};
use phoenix_kernel::system::Ctx;
use phoenix_kernel::types::{CallId, Endpoint, ExitReason, IpcError, Message, Signal};
use phoenix_simcore::obs::kind;
use phoenix_simcore::rng::SimRng;
use phoenix_simcore::time::{SimDuration, SimTime};
use phoenix_simcore::trace::{RecoveryId, SpanId, TraceLevel};

use self::decide::{
    Accusation, Accused, Arbiter, Escalation, Grounds, Quorum, Repair, RestartRecord, Rung,
    Verdict, Window, COMPLAINT_WINDOW, EXEC_LATENCY,
};
use crate::pm::pm_status;
use crate::policy::{
    reason, AdaptParam, AdaptSignal, PolicyDecision, PolicyInput, PolicyParams, PolicyScript,
};
use crate::proto::{ds, evidence, pack_endpoint, pm, rs as rsp, unpack_endpoint, Complaint};

/// Configuration of one guarded service, as passed to the `service`
/// utility in MINIX (§5: "the driver's binary, a stable name, the process'
/// precise privileges, a heartbeat period, and, optionally, a parametrized
/// policy script").
///
/// Privileges live in the kernel's program registry (bound to the binary),
/// so they are not repeated here.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Program name in the kernel registry; doubles as the stable name
    /// and the key published in the data store (e.g. `eth.rtl8139`).
    pub program: String,
    /// Recovery policy; `None` means a direct restart with no script
    /// (like disk drivers, whose script could not be read from the dead
    /// disk, §6.2).
    pub policy: Option<PolicyScript>,
    /// Parameters passed to the policy script (`$1`, ...).
    pub policy_params: Vec<String>,
    /// The service's policy parameters: heartbeat period and misses
    /// ("failing to respond N consecutive times", §5.1), backoff, restart
    /// budget and window, complaint quorum. The builders set the
    /// heartbeat and budget values; only the adapt controllers change the
    /// others.
    params: PolicyParams,
    /// Components restarted alongside this one when the recursive ladder
    /// escalates to a dependency-group reboot, or when a restart storm
    /// escalates to restart-with-dependents.
    pub deps: Vec<String>,
    /// Server-class component (VFS, MFS, INET, ...): crash-only with
    /// externalized session state. Server-class services get the recursive
    /// escalation ladder (microreboot first, dependency-group reboot on
    /// recurrence), are audited for progress stalls even without
    /// heartbeats, may be accused by any live caller, and are the
    /// complainants: a complaint filed by a server's live incarnation is
    /// authorized.
    pub server: bool,
    /// RS pings the service at `params.heartbeat_period`.
    heartbeat: bool,
    /// Keep a warm spare incarnation (`standby.<program>`) continuously
    /// tailing this service's checkpoint record, and promote it at defect
    /// time instead of cold-restarting. Requires a `standby.<program>`
    /// entry in the kernel program registry; RS disables the flag at run
    /// time if PM reports none.
    pub hot_standby: bool,
}

impl ServiceConfig {
    /// The baseline parameters from [`PolicyParams::BASELINE`] around
    /// `policy`, heartbeats on.
    fn baseline(program: &str, policy: PolicyScript) -> Self {
        ServiceConfig {
            program: program.to_string(),
            policy: Some(policy),
            policy_params: Vec::new(),
            params: PolicyParams::BASELINE,
            deps: Vec::new(),
            server: false,
            heartbeat: true,
            hot_standby: false,
        }
    }

    /// A driver config with the generic Fig. 2 policy and the baseline
    /// heartbeat/budget parameters.
    pub fn driver(program: &str) -> Self {
        Self::baseline(program, PolicyScript::generic())
    }

    /// A crash-only system-server config: no heartbeats (servers
    /// legitimately block on their drivers), direct-restart policy, and
    /// the recursive microreboot ladder enabled.
    pub fn server(program: &str) -> Self {
        ServiceConfig {
            server: true,
            heartbeat: false,
            ..Self::baseline(program, PolicyScript::direct_restart())
        }
    }

    /// Replaces the policy script (builder style).
    pub fn with_policy(mut self, policy: PolicyScript) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Sets the heartbeat period (builder style).
    pub fn with_heartbeat(mut self, period: SimDuration, misses: u32) -> Self {
        self.heartbeat = true;
        self.params.heartbeat_period = period;
        self.params.heartbeat_misses = misses;
        self
    }

    /// Disables heartbeats (builder style).
    pub fn without_heartbeat(mut self) -> Self {
        self.heartbeat = false;
        self
    }

    /// Sets the restart budget: restarts within `window` before the
    /// storm-escalation ladder engages (builder style).
    pub fn with_restart_budget(mut self, budget: u32, window: SimDuration) -> Self {
        self.params.restart_budget = budget;
        self.params.budget_window = window;
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

    /// Whether RS reads `p` from this service's [`PolicyParams`], so an
    /// `adapt` rule for `p` binds the service and a gauge reports it: the
    /// heartbeat period only if RS pings the service, the backoff base
    /// only if a rule of the `adapt` script drives it (the policy
    /// script's `backoff(<literal>)` applies otherwise), every other
    /// parameter always.
    fn reads(&self, p: AdaptParam, adapt: Option<&PolicyScript>) -> bool {
        match p {
            AdaptParam::HeartbeatPeriod => self.heartbeat,
            AdaptParam::BackoffBase => adapt.is_some_and(|s| s.binds(p)),
            _ => true,
        }
    }

    /// What the policy script sees of failure number `repetition`, of
    /// class `defect`, under the `adapt` script.
    fn policy_input(
        &self,
        defect: u8,
        repetition: u32,
        adapt: Option<&PolicyScript>,
    ) -> PolicyInput {
        let params = &self.params;
        PolicyInput {
            component: self.program.clone(),
            reason: defect,
            repetition,
            params: self.policy_params.clone(),
            backoff_base: self
                .reads(AdaptParam::BackoffBase, adapt)
                .then_some(params.backoff_base),
            backoff_cap: Some(params.backoff_cap),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SvcState {
    /// Not running, no restart scheduled.
    Down,
    /// The PM_START call `call`, start attempt `attempt`, is in flight.
    Starting { call: CallId, attempt: u16 },
    /// Running and guarded.
    Up(Live),
    /// Dead; restart alarm armed.
    WaitRestart,
    /// Policy gave up (or administrative down); no automatic recovery.
    GivenUp,
}

/// What RS knows of a running incarnation; it dies with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Live {
    ep: Endpoint,
    /// Heartbeat pings not answered yet.
    pings: u32,
    /// Attempts of the DS publish being verified, `None` once its
    /// acknowledgement arrived or RS stopped trying.
    publish: Option<u32>,
}

/// The warm spare of a hot-standby service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Spare {
    /// No spare, none being spawned.
    Absent,
    /// A spare PM_START is in flight.
    Spawning,
    /// Up, tailing the primary's checkpoint record.
    Tailing(Endpoint),
}

// [recovery:begin]
/// One recovery episode, a guarded service's or PM's own: opened at
/// detection, it tags every RS event of the recovery chain and rides on
/// the DS publish, so the data store and each dependent tag their
/// reintegration events with the same id and the timeline analyzer can
/// reassemble the episode and time its phases. The tags outlive the
/// recovery (a late re-publish still belongs to it) until the next defect
/// overwrites them.
#[derive(Debug, Clone, Copy)]
struct Episode {
    /// Correlation token.
    rid: RecoveryId,
    /// Root span (the defect event); every other event parent-links to it.
    span: SpanId,
    /// Detection time, taken when the fresh incarnation is alive.
    died_at: Option<SimTime>,
}

impl Episode {
    /// Mints the token and root span and reports the defect. `failures`
    /// is the count fed to the policy script (PM runs none).
    fn open(
        ctx: &mut Ctx<'_>,
        minted: &mut u64,
        service: &str,
        defect: u8,
        failures: Option<u32>,
    ) -> Episode {
        *minted += 1;
        let rid = RecoveryId(*minted);
        let span = ctx.new_span();
        let class = reason::name(defect);
        ctx.metrics().incr(reason::counter(defect));
        let message = match failures {
            Some(n) => format!("defect in {service}: {class} (failure #{n})"),
            None => format!("defect in {service}: {class}"),
        };
        let mut ev = ctx
            .event(TraceLevel::Warn, message)
            .with_field("ev", kind::DEFECT)
            .with_field("service", service)
            .with_field("class", class);
        if let Some(n) = failures {
            ev = ev.with_field("failures", u64::from(n));
        }
        ctx.trace_event(ev.in_recovery(rid).with_span(span));
        Episode {
            rid,
            span,
            died_at: Some(ctx.now()),
        }
    }

    /// The token and root span of `episode` as wire values; `(0, 0)` for a
    /// boot-time start, which has none.
    fn wire(episode: Option<Episode>) -> (u64, u64) {
        episode.map_or((0, 0), |e| (e.rid.as_u64(), e.span.as_u64()))
    }
}

/// Whom an RS event is about: a stable name and its most recent episode
/// (a boot-time start has none).
#[derive(Clone, Copy)]
struct Subject<'a>(&'a str, Option<Episode>);

impl Subject<'_> {
    /// Records an event of kind `ev` with the given integer fields,
    /// tagged with the episode.
    fn emit(
        self,
        ctx: &mut Ctx<'_>,
        level: TraceLevel,
        ev: &str,
        message: String,
        fields: &[(&str, u64)],
    ) {
        let mut event = ctx
            .event(level, message)
            .with_field("ev", ev)
            .with_field("service", self.0);
        for &(key, value) in fields {
            event = event.with_field(key, value);
        }
        if let Some(e) = self.1 {
            event = event.in_recovery(e.rid).with_parent(e.span);
        }
        ctx.trace_event(event);
    }
}
// [recovery:end]

struct Service {
    cfg: ServiceConfig,
    /// The `rs.adapt.*` gauge of each parameter RS reads from
    /// `cfg.params`, named once at boot.
    gauges: Vec<(AdaptParam, String)>,
    state: SvcState,
    /// Failure count fed to the policy as `repetition`.
    failures: u32,
    /// Defect class RS already knows (set before RS-initiated kills).
    pending_reason: Option<u8>,
    /// Program version to use for the next start (None = latest).
    next_version: Option<u32>,
    hb_nonce: u64,
    /// Incarnation epoch, bumped whenever a fresh incarnation goes up.
    /// Heartbeat chains and update-escalation alarms carry the epoch they
    /// were armed for; a stale one is ignored.
    hb_epoch: u16,
    admin_down: bool,
    /// The number of the most recent start attempt.
    start_attempt: u16,
    /// Restart history inside the sliding budget window and the
    /// storm-ladder position.
    restarts: RestartRecord,
    /// The most recent recovery episode.
    episode: Option<Episode>,
    /// The warm spare of a hot-standby service.
    spare: Spare,
}

impl Service {
    /// The running incarnation, if the service is up.
    fn live_mut(&mut self) -> Option<&mut Live> {
        match &mut self.state {
            SvcState::Up(live) => Some(live),
            _ => None,
        }
    }

    /// The endpoint of the running incarnation, if the service is up.
    fn endpoint(&self) -> Option<Endpoint> {
        match self.state {
            SvcState::Up(live) => Some(live.ep),
            _ => None,
        }
    }

    /// Takes the warm spare if it is up; a spawn in flight stays.
    fn take_spare(&mut self) -> Option<Endpoint> {
        let Spare::Tailing(ep) = self.spare else {
            return None;
        };
        self.spare = Spare::Absent;
        Some(ep)
    }
}

/// How long RS waits for a PM_START reply before assuming the request or
/// its reply was lost and retrying.
const START_TIMEOUT: SimDuration = SimDuration::from_millis(50);

/// Back-off before retrying a start, spawn or respawn that PM (or the
/// kernel) could not carry out.
const RETRY_DELAY: SimDuration = SimDuration::from_micros(EXEC_LATENCY.as_micros() * 4);

/// How long RS waits for a DS publish acknowledgement before re-publishing.
const PUBLISH_TIMEOUT: SimDuration = SimDuration::from_millis(10);

/// Re-publish attempts before RS raises an alert and stops trying.
const MAX_PUBLISH_RETRIES: u32 = 3;

/// Period of the liveness audit that catches lost exit notifications.
/// Deliberately off-cycle from the 1 s heartbeat default.
const AUDIT_PERIOD: SimDuration = SimDuration::from_millis(750);

/// How long a SIGTERMed service has to exit before a dynamic update
/// escalates to SIGKILL (§6).
const UPDATE_GRACE: SimDuration = SimDuration::from_millis(500);

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

/// Program, stable name and DS key of the process manager RS guards.
const PM_NAME: &str = "pm";

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

/// What one of RS's own calls came back with: the reply message, or the
/// abort error.
type CallResult = Result<Message, IpcError>;

/// Most unmatched dead endpoints remembered for early-death reconciliation.
const EARLY_DEATHS_CAP: usize = 64;

/// What one of RS's own in-flight calls asked for.
enum Call {
    /// PM_START of a service.
    Start,
    /// A PM_START RS timed out on; a late success reply reveals a ghost
    /// incarnation that must be killed.
    Orphan,
    /// PM_KILL of the incarnation, for NO_PROCESS reconciliation.
    Kill(Endpoint),
    /// DS publish of the incarnation.
    Publish(Endpoint),
    /// PM_START of a warm spare.
    SpareStart,
    /// `ckpt::PROMOTE` re-framing call to DS.
    Promote,
}

/// PM_START of `program` at `version` (0 = latest).
fn start_request(program: String, version: u64) -> Message {
    let start = pm::Start { version }.into_message();
    start.with_data(program.into_bytes())
}

/// PM_KILL of `ep`: SIGTERM if `term`, else SIGKILL.
fn kill_request(ep: Endpoint, term: bool) -> Message {
    let (slot, generation) = pack_endpoint(ep);
    let signal = u64::from(!term);
    let kill = pm::Kill {
        slot,
        generation,
        signal,
    };
    kill.into_message()
}

/// DS publish of `key` → `ep`. The episode rides along so DS — and,
/// through DS's update notifications, every dependent — can tag its own
/// reintegration events with the same episode id.
fn publish_request(key: String, ep: Endpoint, episode: Option<Episode>) -> Message {
    let ((slot, generation), (recovery, span)) = (pack_endpoint(ep), Episode::wire(episode));
    let publish = ds::Publish {
        slot,
        generation,
        recovery,
        span,
    };
    publish.into_message().with_data(key.into_bytes())
}

/// RS's guard of PM itself. PM is outside the service table — it is the
/// trusted process *executor* — so its recovery is recursive: RS uses its
/// own spawn/kill privileges instead of asking PM to act on itself, on a
/// fixed plan (no script, no budget, no jitter).
#[derive(Debug, Clone, Copy, Default)]
struct PmGuard {
    /// A PM respawn alarm is armed; suppresses duplicate defect handling
    /// from the audit sweep while the replacement incarnation boots.
    restarting: bool,
    /// The most recent PM recovery episode, so `fold_timeline` attributes
    /// it like any other.
    episode: Option<Episode>,
    /// Liveness pings to PM the pong for which has not come back yet. A
    /// wedged PM with no START/KILL in flight leaves no stalled request
    /// to audit, so RS pings it like a driver heartbeat.
    pings: u32,
}

/// The admin-editable adapt script and the signal windows its rules are
/// stepped against, once per audit sweep.
struct Adapt {
    script: PolicyScript,
    /// Defect detections inside [`ADAPT_WINDOW`] (failure-rate signal).
    defects: Window<()>,
    /// Complaint filings inside [`ADAPT_WINDOW`] (complaint-rate signal).
    complaints: Window<()>,
    /// Most recent repair-MTTR samples in microseconds, capped at
    /// [`ADAPT_MTTR_SAMPLES`] (p95 signal).
    mttr: VecDeque<u64>,
}

/// The reincarnation server.
pub struct ReincarnationServer {
    pm: Endpoint,
    ds: Endpoint,
    services: Vec<Service>,
    /// RS's own in-flight calls: what each asked for, and of which service.
    calls: BTreeMap<CallId, (Call, usize)>,
    /// Dead endpoints from SIGCHLD reports that matched no service (yet).
    early_deaths: VecDeque<Endpoint>,
    /// Deterministic jitter source, forked from the run seed at Start;
    /// `None` until RS has booted.
    jitter: Option<SimRng>,
    /// Monotonic source of recovery correlation tokens (ids start at 1;
    /// 0 is the wire encoding of "none").
    next_recovery: u64,
    /// Complaint arbitration state. Its `disarmed` flag is the fail-silent
    /// switch: when set, complaints are vetted and counted but never
    /// acted on and the audit sweep does not poll the kernel babble and
    /// progress guards — the crash-only baseline arm of the fail-silent
    /// campaign.
    arbiter: Arbiter<String>,
    /// Whether, and how, RS guards PM itself.
    pm_guard: Option<PmGuard>,
    /// When the most recent service recovery completed. Client requests
    /// legitimately age while a dependency is being reincarnated, so the
    /// progress watchdog gives server-class components a full stall
    /// window of grace after any recovery before convicting them.
    last_recovery_done: Option<SimTime>,
    /// `None` keeps every parameter static.
    adapt: Option<Adapt>,
}

impl ReincarnationServer {
    /// Creates RS, wired to PM and DS, guarding `services`. The
    /// server-class services are the complainants.
    pub fn new(pm: Endpoint, ds: Endpoint, services: Vec<ServiceConfig>) -> Self {
        let services = services
            .into_iter()
            .map(|cfg| Service {
                cfg,
                gauges: Vec::new(),
                state: SvcState::Down,
                failures: 0,
                pending_reason: None,
                next_version: None,
                hb_nonce: 0,
                hb_epoch: 0,
                admin_down: false,
                start_attempt: 0,
                restarts: RestartRecord::default(),
                episode: None,
                spare: Spare::Absent,
            })
            .collect();
        ReincarnationServer {
            pm,
            ds,
            services,
            calls: BTreeMap::new(),
            early_deaths: VecDeque::new(),
            jitter: None,
            next_recovery: 0,
            arbiter: Arbiter::default(),
            pm_guard: None,
            last_recovery_done: None,
            adapt: None,
        }
    }

    /// Installs the adapt script (builder style): its `adapt` rules are
    /// stepped once per audit sweep, each writing through the
    /// [`PolicyParams`] of every service it binds, within its declared
    /// clamp band.
    pub fn with_adapt(mut self, script: PolicyScript) -> Self {
        self.adapt = Some(Adapt {
            script,
            defects: Window::default(),
            complaints: Window::default(),
            mttr: VecDeque::new(),
        });
        self
    }

    /// Enables recursive PM guarding (builder style): RS audits the
    /// process manager itself, vets its replies, and — holding per-
    /// instance spawn/kill privileges — respawns the `pm` program,
    /// re-registers as exit-report sink, and re-publishes the `pm` name
    /// so the new incarnation can rehydrate its checkpointed records.
    pub fn with_pm_guard(mut self) -> Self {
        self.pm_guard = Some(PmGuard::default());
        self
    }

    /// Arms or disarms fail-silent detection (builder style): acting on
    /// complaints, and audit-sweep polling of the kernel babble and
    /// progress guards. Disarmed, complaints are still vetted and
    /// counted, so the evidence stream stays observable in the crash-only
    /// baseline.
    pub fn with_sentinels(mut self, on: bool) -> Self {
        self.arbiter.disarmed = !on;
        self
    }

    fn start_service(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        let svc = &mut self.services[idx];
        if matches!(svc.state, SvcState::Starting { .. } | SvcState::Up(_)) {
            return;
        }
        let name = &svc.cfg.program;
        let version = svc.next_version.take().map_or(0, u64::from);
        match ctx.sendrec(self.pm, start_request(name.clone(), version)) {
            Ok(call) => {
                svc.start_attempt = svc.start_attempt.wrapping_add(1);
                let attempt = svc.start_attempt;
                svc.state = SvcState::Starting { call, attempt };
                Subject(name, svc.episode).emit(
                    ctx,
                    TraceLevel::Info,
                    kind::EXEC,
                    format!("exec {name} (attempt {attempt})"),
                    &[("attempt", u64::from(attempt))],
                );
                self.calls.insert(call, (Call::Start, idx));
                // If neither the request nor its reply survives the fabric,
                // this alarm notices and retries.
                let _ = ctx.set_alarm(START_TIMEOUT, token_seq(TOK_START_TIMEOUT, attempt, idx));
            }
            Err(e) if self.pm_guard.is_some() => {
                // PM itself is down. Re-arm the start and recover PM
                // recursively rather than abandoning the service.
                ctx.trace(
                    TraceLevel::Warn,
                    format!("cannot reach PM to start {name}: {e}; will retry"),
                );
                self.arm_restart(ctx, idx, RETRY_DELAY);
                if !ctx.proc_alive(self.pm) {
                    self.recover_pm(ctx, reason::EXIT, true);
                }
            }
            Err(e) => {
                svc.state = SvcState::GivenUp;
                ctx.trace(
                    TraceLevel::Error,
                    format!("cannot reach PM to start {name}: {e}"),
                );
            }
        }
    }

    /// Parks service `idx` until a restart alarm `delay` from now.
    fn arm_restart(&mut self, ctx: &mut Ctx<'_>, idx: usize, delay: SimDuration) {
        self.services[idx].state = SvcState::WaitRestart;
        let _ = ctx.set_alarm(delay, token(TOK_RESTART, idx));
    }

    fn kill_service(&mut self, ctx: &mut Ctx<'_>, idx: usize, term: bool) {
        let Some(ep) = self.services[idx].endpoint() else {
            return;
        };
        self.arbiter.clear(idx);
        if let Ok(call) = ctx.sendrec(self.pm, kill_request(ep, term)) {
            self.calls.insert(call, (Call::Kill(ep), idx));
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
        let _ = ctx.sendrec(self.pm, kill_request(ep, false));
    }

    /// Publishes the live incarnation of service `idx` in DS, verified:
    /// the attempt is booked until its acknowledgement arrives.
    fn publish(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        let svc = &mut self.services[idx];
        let Some(live) = svc.live_mut() else {
            return;
        };
        let (ep, attempts) = (live.ep, *live.publish.get_or_insert(0));
        let publish = publish_request(svc.cfg.program.clone(), ep, svc.episode);
        if let Ok(call) = ctx.sendrec(self.ds, publish) {
            self.calls.insert(call, (Call::Publish(ep), idx));
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

    /// Feeds one repair-MTTR sample to the adapt signal window.
    fn note_mttr(&mut self, dt: SimDuration) {
        let Some(adapt) = &mut self.adapt else {
            return;
        };
        if adapt.mttr.len() >= ADAPT_MTTR_SAMPLES {
            adapt.mttr.pop_front();
        }
        adapt.mttr.push_back(dt.as_micros());
    }

    // [recovery:begin]
    /// Common defect entry point (§5.2): reset the service, open the
    /// episode, consult the restart ladder, run the policy script, carry
    /// out the repair.
    fn handle_defect(&mut self, ctx: &mut Ctx<'_>, idx: usize, defect: u8) {
        let svc = &mut self.services[idx];
        svc.state = SvcState::Down;
        let name = svc.cfg.program.clone();
        if svc.admin_down {
            svc.admin_down = false;
            ctx.trace(
                TraceLevel::Info,
                format!("service {name} administratively down"),
            );
            return;
        }
        if defect != reason::UPDATE {
            svc.failures += 1;
        }
        let failures = svc.failures;
        let episode = Episode::open(ctx, &mut self.next_recovery, &name, defect, Some(failures));
        svc.episode = Some(episode);
        // Observed-failure signal for the adapt controllers.
        if let Some(adapt) = &mut self.adapt {
            if defect != reason::UPDATE && defect != reason::KILLED {
                adapt.defects.push(ctx.now(), ());
            }
        }
        let escalation = self.escalate(ctx, idx, &name, defect);
        if escalation.gives_up() {
            return self.give_up(ctx, idx, " after sustained restart storm");
        }
        if escalation.restarts_dependents() {
            let deps = self.services[idx].cfg.deps.clone();
            self.restart_dependents(ctx, deps, Some("storm escalation"));
        }
        // Execute the policy script associated with the component. No
        // script (disk drivers) means a direct restart from the copy in
        // RAM (§6.2).
        let svc = &self.services[idx];
        let adapt = self.adapt.as_ref().map(|a| &a.script);
        let input = svc.cfg.policy_input(defect, failures.max(1), adapt);
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
        self.restart_dependents(ctx, decision.restart_components.clone(), None);
        if decision.reboot {
            ctx.metrics().incr("rs.reboot_requested");
            ctx.trace(
                TraceLevel::Error,
                "policy requested system reboot".to_string(),
            );
        }
        let spare_alive =
            matches!(self.services[idx].spare, Spare::Tailing(ep) if ctx.proc_alive(ep));
        match Repair::plan(&decision, defect, &escalation, spare_alive) {
            Repair::GiveUp => self.give_up(ctx, idx, ""),
            Repair::PromoteSpare => {
                if let Some(spare) = self.services[idx].take_spare() {
                    self.promote_spare(ctx, idx, spare);
                }
            }
            Repair::Restart { delay, stale_spare } => {
                self.services[idx].next_version = decision.version;
                if stale_spare {
                    self.retire_spare(ctx, idx);
                } else if self.services[idx].take_spare().is_some() {
                    // The spare died alongside the primary (correlated
                    // fault): cold restart; the audit sweep refills the
                    // spare slot once the service is back up.
                    ctx.metrics().incr("rs.standby.spare_dead_at_promotion");
                }
                let subject = Subject(&name, Some(episode));
                if escalation.cools_down() {
                    subject.emit(
                        ctx,
                        TraceLevel::Warn,
                        "escalate",
                        format!("storm escalation: extended cool-down of {delay} for {name}"),
                        &[("level", 2)],
                    );
                }
                let delay = self.jittered(delay);
                if !decision.delay.is_zero() {
                    ctx.trace(
                        TraceLevel::Info,
                        format!("restarting {name} after {}", decision.delay),
                    );
                }
                subject.emit(
                    ctx,
                    TraceLevel::Info,
                    kind::RESTART,
                    format!("restart of {name} armed in {delay}"),
                    &[("delay_us", delay.as_micros())],
                );
                self.arm_restart(ctx, idx, delay);
            }
        }
    }

    /// Books the defect on the restart ladder and reports and carries out
    /// what it says short of the give-up: the storm alert, the
    /// server-class rung, the once-per-window group reboot. The budget
    /// and its window are the service's own.
    fn escalate(&mut self, ctx: &mut Ctx<'_>, idx: usize, name: &str, defect: u8) -> Escalation {
        let svc = &mut self.services[idx];
        let (budget, window) = (svc.cfg.params.restart_budget, svc.cfg.params.budget_window);
        let server = svc.cfg.server;
        let escalation = svc
            .restarts
            .on_defect(ctx.now(), defect, budget, window, server);
        let (restarts, storm) = (escalation.restarts, escalation.storm);
        let subject = Subject(name, svc.episode);
        if storm > 0 {
            ctx.metrics().incr("rs.storms");
            ctx.metrics().incr("rs.alerts");
            subject.emit(
                ctx,
                TraceLevel::Error,
                "escalate",
                format!(
                    "ALERT: restart storm in {name}: {restarts} restarts inside {window} \
                     (level {storm})"
                ),
                &[("level", u64::from(storm))],
            );
        }
        match escalation.rung {
            Some(Rung::Micro) => ctx.metrics().incr("rs.escalations.level1"),
            Some(Rung::Group { reboot }) => {
                ctx.metrics().incr("rs.escalations.level2");
                if reboot {
                    subject.emit(
                        ctx,
                        TraceLevel::Warn,
                        "escalate",
                        format!(
                            "defect in {name} recurred inside {window}; \
                             escalating to dependency-group reboot"
                        ),
                        &[("level", 2)],
                    );
                    let deps = svc.cfg.deps.clone();
                    self.restart_dependents(ctx, deps, Some("group reboot"));
                }
            }
            Some(Rung::Storm) => ctx.metrics().incr("rs.escalations.level3"),
            None => {}
        }
        escalation
    }

    /// Kills every service of `deps` that is up, so its own recovery
    /// restarts it; `why` labels the trace line.
    fn restart_dependents(&mut self, ctx: &mut Ctx<'_>, deps: Vec<String>, why: Option<&str>) {
        for dep in deps {
            let Some(dep_idx) = self.service_named(&dep) else {
                continue;
            };
            if self.services[dep_idx].endpoint().is_none() {
                continue;
            }
            if let Some(why) = why {
                ctx.trace(
                    TraceLevel::Warn,
                    format!("{why}: restarting dependent {dep}"),
                );
            }
            self.services[dep_idx].pending_reason = Some(reason::KILLED);
            self.kill_service(ctx, dep_idx, false);
        }
    }

    /// Ends the episode without a restart: the policy script or the storm
    /// ladder gave up on service `idx`.
    fn give_up(&mut self, ctx: &mut Ctx<'_>, idx: usize, why: &str) {
        let svc = &mut self.services[idx];
        svc.state = SvcState::GivenUp;
        ctx.metrics().incr("rs.gave_up");
        let name = &svc.cfg.program;
        let message = format!("giving up on {name}{why}");
        Subject(name, svc.episode).emit(ctx, TraceLevel::Error, kind::GAVE_UP, message, &[]);
        self.retire_spare(ctx, idx);
    }

    /// Closes the open episode of service `idx` (`None`: PM) now that its
    /// fresh incarnation `ep` is alive, with the MTTR accounting. Returns
    /// false when no episode was open — a first start, not a recovery.
    fn close_episode(
        &mut self,
        ctx: &mut Ctx<'_>,
        idx: Option<usize>,
        ep: Endpoint,
        promoted: bool,
    ) -> bool {
        let (episode, name, counter) = match idx {
            Some(i) => {
                let svc = &mut self.services[i];
                (&mut svc.episode, svc.cfg.program.as_str(), "rs.recoveries")
            }
            None => {
                let Some(guard) = &mut self.pm_guard else {
                    return false;
                };
                (&mut guard.episode, PM_NAME, "rs.pm_recoveries")
            }
        };
        let Some(died) = episode.as_mut().and_then(|e| e.died_at.take()) else {
            return false;
        };
        let dt = ctx.now().since(died);
        ctx.metrics().incr(counter);
        ctx.metrics().record_duration("rs.recovery_time", dt);
        let how = if promoted { " by promotion" } else { "" };
        // `promoted` is recorded only on a promotion.
        let fields = [("mttr_us", dt.as_micros()), ("promoted", 1)];
        Subject(name, *episode).emit(
            ctx,
            TraceLevel::Info,
            kind::ALIVE,
            format!("recovered {name}{how} as {ep} in {dt}"),
            &fields[..1 + usize::from(promoted)],
        );
        self.last_recovery_done = Some(ctx.now());
        self.note_mttr(dt);
        true
    }

    /// Service `idx` is dead: its defect class is the one RS recorded
    /// before killing the process itself (heartbeat 4, complaint 5,
    /// update 6, user 3), else `observed`.
    fn reap(&mut self, ctx: &mut Ctx<'_>, idx: usize, observed: u8) {
        let defect = self.services[idx].pending_reason.take().unwrap_or(observed);
        self.handle_defect(ctx, idx, defect);
    }

    fn service_by_endpoint(&self, ep: Endpoint) -> Option<usize> {
        self.services.iter().position(|s| s.endpoint() == Some(ep))
    }

    fn service_named(&self, name: &str) -> Option<usize> {
        self.services.iter().position(|s| s.cfg.program == name)
    }

    /// Whether some recovery is in flight, or completed less than a full
    /// stall window ago. While that holds, old client requests against a
    /// *server* prove nothing — the server may simply be waiting out a
    /// dependency's reincarnation — so the progress watchdog holds fire.
    fn recovery_in_flight(&self, now: SimTime) -> bool {
        let recovering = |s: &Service| !matches!(s.state, SvcState::Up(_) | SvcState::GivenUp);
        self.pm_guard.is_some_and(|g| g.restarting)
            || self
                .last_recovery_done
                .is_some_and(|t| now.since(t) <= STALL_AGE)
            || self.services.iter().any(recovering)
    }

    /// Restarts service `idx` on a complaint-class defect: marks the
    /// pending reason and kills it so the policy restart runs.
    fn restart_on_complaint(&mut self, ctx: &mut Ctx<'_>, idx: usize, why: String) {
        ctx.trace(TraceLevel::Warn, why);
        self.services[idx].pending_reason = Some(reason::COMPLAINT);
        self.kill_service(ctx, idx, false);
    }

    /// Convicts the accused service `idx`.
    fn convict(&mut self, ctx: &mut Ctx<'_>, idx: usize, why: String) {
        ctx.metrics().incr("rs.complaints.accepted");
        self.restart_on_complaint(ctx, idx, why);
    }

    /// Puts an `rs::COMPLAIN` message (defect class 5, §5.1) about the
    /// service named `name` (table entry `idx`) before the arbiter,
    /// reports and carries out the verdict, and returns the reply status.
    fn on_complaint(
        &mut self,
        ctx: &mut Ctx<'_>,
        source: Endpoint,
        complaint: Complaint<'_>,
        idx: Option<usize>,
    ) -> u64 {
        let name = &*complaint.accused;
        let kind = complaint.kind;
        let accuser_idx = self.service_by_endpoint(source);
        let accuser = accuser_idx.map(|a| &self.services[a]);
        let accusation = Accusation {
            source,
            // A guarded accuser is keyed on its stable name; an unguarded
            // caller, which never changes incarnation under RS, on its
            // endpoint.
            accuser: accuser.map_or_else(|| source.to_string(), |a| a.cfg.program.clone()),
            // The complainants are the live server-class incarnations.
            authorized: accuser.is_some_and(|a| a.cfg.server),
            kind,
            incarnation: complaint.incarnation,
            accused: idx.map(|i| {
                let svc = &self.services[i];
                Accused {
                    idx: i,
                    server: svc.cfg.server,
                    endpoint: svc.endpoint(),
                    quorum: Quorum::service(svc.cfg.params.quorum_complaints),
                }
            }),
        };
        let verdict = self.arbiter.judge(ctx.now(), accusation);
        if verdict.vetted() {
            ctx.metrics().incr(evidence::complaint_counter(kind));
            // Observed-complaint signal for the adapt controllers.
            if let Some(adapt) = &mut self.adapt {
                adapt.complaints.push(ctx.now(), ());
            }
        }
        match verdict {
            Verdict::Unauthorized => {
                ctx.metrics().incr("rs.complaints.rejected_unauthorized");
                return status::EACCES;
            }
            Verdict::Unknown => {
                ctx.metrics().incr("rs.complaints.rejected_unknown");
                ctx.trace(
                    TraceLevel::Warn,
                    format!("complaint about unknown service {name:?} from {source}"),
                );
                return status::EINVAL;
            }
            Verdict::SelfAccusation => {
                ctx.metrics().incr("rs.complaints.rejected_self");
                ctx.trace(
                    TraceLevel::Warn,
                    format!("self-complaint from {name} ({source}) rejected"),
                );
                return status::EINVAL;
            }
            Verdict::Ghost { incarnation } => {
                ctx.metrics().incr("rs.complaints.rejected_ghost");
                ctx.trace(
                    TraceLevel::Info,
                    format!("ghost complaint about {name} incarnation {incarnation} dropped"),
                );
            }
            Verdict::Down => ctx.metrics().incr("rs.complaints.ignored_down"),
            Verdict::Disarmed => ctx.metrics().incr("rs.complaints.disarmed"),
            Verdict::Discredited => ctx.metrics().incr("rs.complaints.discredited"),
            Verdict::Inverted { accuser, distinct } => {
                ctx.metrics().incr("rs.complaints.inversions");
                match accuser_idx {
                    Some(a) => self.restart_on_complaint(
                        ctx,
                        a,
                        format!(
                            "accuser {accuser} blamed {distinct} services in {COMPLAINT_WINDOW}; \
                             inverting suspicion and restarting the accuser"
                        ),
                    ),
                    None => ctx.trace(
                        TraceLevel::Warn,
                        format!("accuser {accuser} discredited; complaint dropped"),
                    ),
                }
            }
            Verdict::Convicted { accused, grounds } => {
                let why = match grounds {
                    Grounds::HighConfidence => {
                        let class = evidence::name(kind);
                        format!("complaint about {name} from {source} ({class})")
                    }
                    Grounds::Quorum { n, distinct } => {
                        ctx.metrics().incr("rs.complaints.quorum_restarts");
                        format!(
                            "quorum of {n} complaints ({distinct} accusers) against {name}; \
                             restarting"
                        )
                    }
                };
                self.convict(ctx, accused, why);
            }
            Verdict::BelowQuorum => ctx.metrics().incr("rs.complaints.below_quorum"),
        }
        0
    }

    /// Kills a retired warm spare (its tailed state is for a binary or
    /// incarnation that will never be promoted).
    fn retire_spare(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        let svc = &mut self.services[idx];
        let Spare::Tailing(ep) = std::mem::replace(&mut svc.spare, Spare::Absent) else {
            return;
        };
        ctx.metrics().incr("rs.standby.spares_retired");
        let name = &svc.cfg.program;
        ctx.trace(
            TraceLevel::Info,
            format!("retiring stale spare {ep} of {name}"),
        );
        let _ = ctx.sendrec(self.pm, kill_request(ep, false));
    }

    /// Spawns the warm spare incarnation for a hot-standby service. The
    /// spare runs the `standby.<program>` registry entry: the same driver
    /// logic in standby mode — no device grab, no fault-port publish —
    /// tailing the primary's checkpoint record until promoted.
    fn start_spare(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        let svc = &mut self.services[idx];
        if !svc.cfg.hot_standby || svc.spare != Spare::Absent || svc.endpoint().is_none() {
            return;
        }
        let start = start_request(drv::spare_name(&svc.cfg.program), 0);
        if let Ok(call) = ctx.sendrec(self.pm, start) {
            svc.spare = Spare::Spawning;
            self.calls.insert(call, (Call::SpareStart, idx));
        }
    }

    /// Handles the PM reply to a spare spawn.
    fn complete_spare_start(&mut self, ctx: &mut Ctx<'_>, idx: usize, result: CallResult) {
        let svc = &mut self.services[idx];
        if svc.spare == Spare::Spawning {
            svc.spare = Spare::Absent;
        }
        let name = &svc.cfg.program;
        let reply = result.as_ref().ok().and_then(pm::StartReply::from_message);
        let Some(spare) = reply.filter(|r| r.status == pm_status::OK) else {
            if reply.is_some() {
                // PM says the standby program cannot run (most likely no
                // `standby.<program>` registry entry): disable hot
                // standby for this service instead of spawn-looping.
                svc.cfg.hot_standby = false;
                ctx.metrics().incr("rs.standby.unavailable");
                ctx.trace(
                    TraceLevel::Warn,
                    format!("no standby program for {name}; hot standby disabled"),
                );
            } else {
                // Garbled or aborted: the audit sweep (and this alarm)
                // retry while the service is up.
                let _ = ctx.set_alarm(RETRY_DELAY, token(TOK_SPARE, idx));
            }
            return;
        };
        let ep = unpack_endpoint(spare.slot, spare.generation);
        if !svc.cfg.hot_standby || svc.endpoint().is_none() || svc.spare != Spare::Absent {
            // The primary died (or the spare slot was filled) while this
            // spawn was in flight; the incarnation is a ghost.
            return self.kill_ghost(ctx, ep);
        }
        svc.spare = Spare::Tailing(ep);
        ctx.metrics().incr("rs.standby.spares_started");
        ctx.trace(
            TraceLevel::Info,
            format!("warm spare {ep} tailing for {name}"),
        );
        // Publish the spare under its standby name so DS can
        // owner-authenticate its tail reads against the live endpoint
        // generation, then start the tail loop.
        let publish = publish_request(drv::spare_name(&svc.cfg.program), ep, None);
        let _ = ctx.sendrec(self.ds, publish);
        let period_us = SPARE_TAIL_PERIOD.as_micros();
        let _ = ctx.send(ep, drv::Standby { period_us }.into_message());
    }

    /// Marks service `idx` up as incarnation `ep` and returns the fresh
    /// incarnation epoch its heartbeat chain runs under.
    fn bind_incarnation(&mut self, idx: usize, ep: Endpoint) -> u16 {
        let svc = &mut self.services[idx];
        svc.state = SvcState::Up(Live {
            ep,
            pings: 0,
            publish: None,
        });
        svc.hb_epoch = svc.hb_epoch.wrapping_add(1);
        svc.hb_epoch
    }

    /// Promotes the warm spare to primary at defect time — failover, not
    /// restart+replay. Order matters: the checkpoint record is re-framed
    /// first (so the promoted incarnation's own saves pass the store's
    /// ghost check), then the spare is told to go live, then the new
    /// endpoint is published before dependents learn of it (§5.3).
    // analyze:recovery-root
    fn promote_spare(&mut self, ctx: &mut Ctx<'_>, idx: usize, ep: Endpoint) {
        let epoch = self.bind_incarnation(idx, ep);
        let svc = &self.services[idx];
        let name = &svc.cfg.program;
        ctx.metrics().incr("rs.standby.promotions");
        let message = format!("promoting warm spare {ep} to {name}");
        Subject(name, svc.episode).emit(ctx, TraceLevel::Info, "promote", message, &[]);
        // Re-frame the stored snapshot with a clamped incarnation: the
        // spare lives in a younger slot generation than the dead
        // primary, so its first save would otherwise be ghost-rejected.
        let key = svc.cfg.program.clone();
        let promote = Message::new(ckpt::PROMOTE).with_data(key.into_bytes());
        if let Ok(call) = ctx.sendrec(self.ds, promote) {
            self.calls.insert(call, (Call::Promote, idx));
        }
        // Tell the spare to go live: deferred device init, fault-port
        // publish under the primary name, stop tailing, adopt the
        // tailed watermark as warm state.
        let (recovery, span) = Episode::wire(svc.episode);
        let _ = ctx.send(ep, drv::Promote { recovery, span }.into_message());
        // Publish before dependents are notified (§5.3), verified like
        // any other publish.
        self.publish(ctx, idx);
        self.close_episode(ctx, Some(idx), ep, true);
        let cfg = &self.services[idx].cfg;
        if cfg.heartbeat {
            let _ = ctx.set_alarm(cfg.params.heartbeat_period, token_seq(TOK_HB, epoch, idx));
        }
        // Refill the spare slot behind the promoted incarnation.
        let _ = ctx.set_alarm(EXEC_LATENCY, token(TOK_SPARE, idx));
    }

    /// Steps every adapt rule once against the observed signal windows,
    /// writing through the [`PolicyParams`] of each service the rule
    /// binds (each step clamped to the rule's declared band) and
    /// mirroring the values into the services' `rs.adapt.*` gauges plus a
    /// per-parameter trajectory histogram that campaigns assert stays
    /// inside the clamp band.
    // analyze:recovery-root
    fn run_adapt_controllers(&mut self, ctx: &mut Ctx<'_>) {
        let Some(adapt) = &mut self.adapt else {
            return;
        };
        let now = ctx.now();
        adapt.defects.prune(now, ADAPT_WINDOW);
        adapt.complaints.prune(now, ADAPT_WINDOW);
        for rule in adapt.script.adapt_rules() {
            let sample = match rule.signal {
                AdaptSignal::Failures => adapt.defects.len() as i64,
                AdaptSignal::Complaints => adapt.complaints.len() as i64,
                AdaptSignal::MttrP95Ms => {
                    if adapt.mttr.is_empty() {
                        0
                    } else {
                        let mut v: Vec<u64> = adapt.mttr.iter().copied().collect();
                        v.sort_unstable();
                        (v[(v.len() - 1) * 95 / 100] / 1000) as i64
                    }
                }
            };
            let (param, signal) = (rule.param.name(), rule.signal.name());
            for svc in &mut self.services {
                let Some((_, gauge)) = svc.gauges.iter().find(|(p, _)| *p == rule.param) else {
                    continue; // the rule does not bind this service
                };
                if let Some(new) = rule.step(sample, &mut svc.cfg.params) {
                    ctx.metrics().incr("rs.adapt.updates");
                    ctx.metrics().set(gauge, new);
                    let name = &svc.cfg.program;
                    let ev = ctx
                        .event(
                            TraceLevel::Info,
                            format!("adapt: {name} {param} -> {new} ({signal} = {sample})"),
                        )
                        .with_field("ev", "adapt")
                        .with_field("service", name.as_str())
                        .with_field("param", param)
                        .with_field("value", new);
                    ctx.trace_event(ev);
                }
                ctx.metrics()
                    .record(rule.param.trace(), rule.param.read(&svc.cfg.params));
            }
        }
    }

    /// Handles the successful completion of a tracked PM_START call.
    fn complete_start(&mut self, ctx: &mut Ctx<'_>, idx: usize, ep: Endpoint) {
        if let Some(pos) = self.early_deaths.iter().position(|&d| d == ep) {
            // The fresh incarnation is already dead — it crashed between
            // its spawn and this reply (a mid-recovery kill). Re-enter
            // recovery instead of guarding a corpse.
            self.early_deaths.remove(pos);
            ctx.metrics().incr("rs.early_death_rescues");
            let name = &self.services[idx].cfg.program;
            ctx.trace(
                TraceLevel::Warn,
                format!("{name} incarnation {ep} died before start completed; re-running recovery"),
            );
            return self.reap(ctx, idx, reason::KILLED);
        }
        let epoch = self.bind_incarnation(idx, ep);
        // Publish the new endpoint *before* dependents are notified — the
        // data store does both atomically from the subscribers' point of
        // view (§5.3) — and verify the acknowledgement comes back.
        self.publish(ctx, idx);
        if !self.close_episode(ctx, Some(idx), ep, false) {
            ctx.metrics().incr("rs.starts");
            let name = &self.services[idx].cfg.program;
            ctx.trace(TraceLevel::Info, format!("started {name} as {ep}"));
        }
        let cfg = &self.services[idx].cfg;
        if cfg.heartbeat {
            let _ = ctx.set_alarm(cfg.params.heartbeat_period, token_seq(TOK_HB, epoch, idx));
        }
        // A hot-standby service gets its warm spare as soon as the
        // primary is up (initial start and after every cold restart).
        self.start_spare(ctx, idx);
    }

    /// Publishes the `pm` name in the data store, so dependents can find
    /// the process manager and PM's own checkpoint saves pass DS's
    /// owner authentication. DS is in the never-restarted trusted base,
    /// so this skips the verified-publish ladder used for services.
    fn publish_pm(&self, ctx: &mut Ctx<'_>) {
        let episode = self.pm_guard.and_then(|g| g.episode);
        let publish = publish_request(PM_NAME.to_string(), self.pm, episode);
        let _ = ctx.sendrec(self.ds, publish);
    }

    /// PM defect entry point — recursive recovery. RS cannot ask PM to
    /// restart itself, so it falls back on its own per-instance
    /// spawn/kill privileges. `dead` says whether the incarnation is
    /// already gone (audit or exit report) or must be killed first
    /// (stall, garbled replies).
    fn recover_pm(&mut self, ctx: &mut Ctx<'_>, defect: u8, dead: bool) {
        let Some(guard) = self.pm_guard.as_mut().filter(|g| !g.restarting) else {
            return;
        };
        guard.restarting = true;
        ctx.metrics().incr("rs.pm_defects");
        let episode = Episode::open(ctx, &mut self.next_recovery, PM_NAME, defect, None);
        guard.episode = Some(episode);
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
        let Some(guard) = self.pm_guard else {
            return;
        };
        let message = "exec pm (recursive recovery)".to_string();
        Subject(PM_NAME, guard.episode).emit(ctx, TraceLevel::Info, kind::EXEC, message, &[]);
        match ctx.sys_spawn(PM_NAME, None) {
            Ok(ep) => {
                self.pm = ep;
                self.pm_guard = Some(PmGuard {
                    restarting: false,
                    pings: 0,
                    ..guard
                });
                // Become the new incarnation's exit-report sink before any
                // child can die, then make the name visible again.
                let _ = ctx.send(ep, Message::new(pm::REGISTER));
                self.publish_pm(ctx);
                self.close_episode(ctx, None, ep, false);
            }
            Err(_) => {
                ctx.metrics().incr("rs.pm_respawn_failed");
                ctx.metrics().incr("rs.alerts");
                ctx.trace(
                    TraceLevel::Error,
                    format!("ALERT: cannot respawn {PM_NAME}; retrying"),
                );
                let _ = ctx.set_alarm(RETRY_DELAY, token(TOK_PM_RESTART, 0));
            }
        }
    }

    /// Exit reports and heartbeat replies.
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: &Message) {
        if let Some(drv::Msg::HB_PONG(_)) = drv::Msg::decode(msg) {
            let source = msg.source;
            if let Some(guard) = self.pm_guard.as_mut().filter(|_| source == self.pm) {
                guard.pings = 0;
            } else if let Some(live) = self
                .services
                .iter_mut()
                .find_map(|s| s.live_mut().filter(|l| l.ep == source))
            {
                live.pings = 0;
            }
            return;
        }
        let Some(pm::Msg::SIGCHLD(exit)) = pm::Msg::decode(msg) else {
            return;
        };
        let ep = unpack_endpoint(exit.slot, exit.generation);
        if let Some(idx) = self.service_by_endpoint(ep) {
            // Defect classes 1-3 (§5.1) from the exit kind.
            let observed = match u32::try_from(exit.reason) {
                Ok(pm::EXITED | pm::PANICKED) => reason::EXIT,
                Ok(pm::EXCEPTION) => reason::EXCEPTION,
                _ => reason::KILLED,
            };
            self.reap(ctx, idx, observed);
        } else if let Some(i) = self
            .services
            .iter()
            .position(|s| s.spare == Spare::Tailing(ep))
        {
            // The warm spare died, not the primary: no recovery
            // episode, just refill the slot after a spawn latency.
            self.services[i].spare = Spare::Absent;
            ctx.metrics().incr("rs.standby.spare_deaths");
            let name = &self.services[i].cfg.program;
            ctx.trace(
                TraceLevel::Warn,
                format!("warm spare {ep} of {name} died; respawning"),
            );
            let _ = ctx.set_alarm(EXEC_LATENCY, token(TOK_SPARE, i));
        } else {
            // Not a currently-guarded endpoint: either a user
            // process (ignore) or a service incarnation that died
            // before RS bound it. Remember it, so a later
            // START_REPLY naming it is recognized as an
            // already-dead incarnation.
            if self.early_deaths.len() >= EARLY_DEATHS_CAP {
                self.early_deaths.pop_front();
            }
            self.early_deaths.push_back(ep);
        }
    }

    fn on_alarm(&mut self, ctx: &mut Ctx<'_>, t: u64) {
        let (kind, seq, idx) = (t >> 32, ((t >> 16) & 0xFFFF) as u16, (t & 0xFFFF) as usize);
        // The table-free alarms first: they must run over an empty
        // service table too.
        match kind {
            TOK_PM_RESTART => return self.respawn_pm(ctx),
            TOK_AUDIT => return self.audit(ctx),
            _ if idx >= self.services.len() => return,
            _ => {}
        }
        let svc = &self.services[idx];
        match kind {
            TOK_HB => self.heartbeat(ctx, idx, seq),
            TOK_RESTART if svc.state == SvcState::WaitRestart => self.start_service(ctx, idx),
            TOK_SPARE => self.start_spare(ctx, idx),
            // SIGTERM was ignored by the incarnation it was sent to;
            // escalate to SIGKILL.
            TOK_ESCALATE if svc.endpoint().is_some() && svc.hb_epoch == seq => {
                self.kill_service(ctx, idx, false);
            }
            TOK_START_TIMEOUT => self.start_timed_out(ctx, idx, seq),
            TOK_REPUBLISH => self.republish(ctx, idx, seq),
            _ => {}
        }
    }

    /// One link of service `idx`'s heartbeat chain (defect class 4).
    fn heartbeat(&mut self, ctx: &mut Ctx<'_>, idx: usize, epoch: u16) {
        let svc = &mut self.services[idx];
        let SvcState::Up(live) = &mut svc.state else {
            return; // heartbeat chain ends; restart rearms
        };
        if svc.hb_epoch != epoch {
            return;
        }
        if live.pings >= svc.cfg.params.heartbeat_misses {
            // Defect class 4: the process is stuck.
            svc.pending_reason = Some(reason::HEARTBEAT);
            let (name, missed) = (&svc.cfg.program, live.pings);
            ctx.trace(
                TraceLevel::Warn,
                format!("{name} missed {missed} heartbeats, killing"),
            );
            return self.kill_service(ctx, idx, false);
        }
        svc.hb_nonce += 1;
        let nonce = svc.hb_nonce;
        live.pings += 1;
        // Nonblocking status request (§5.1): a sick driver can never
        // hang RS.
        let _ = ctx.send(live.ep, drv::HbPing { nonce }.into_message());
        // The period is live: the next ping in the chain honors the
        // adapt controller's latest value.
        let period = svc.cfg.params.heartbeat_period;
        let _ = ctx.set_alarm(period, token_seq(TOK_HB, epoch, idx));
    }

    /// The start-call timeout of attempt `attempt` fired. Only the alarm
    /// matching the current attempt may declare it lost; alarms from
    /// completed or superseded attempts are stale.
    fn start_timed_out(&mut self, ctx: &mut Ctx<'_>, idx: usize, attempt: u16) {
        let svc = &mut self.services[idx];
        let call = match svc.state {
            SvcState::Starting { call, attempt: a } if a == attempt => call,
            _ => return,
        };
        if let Some((what @ Call::Start, _)) = self.calls.get_mut(&call) {
            // The attempt is abandoned, not forgotten: a late success
            // reply means a ghost to reap.
            *what = Call::Orphan;
            svc.state = SvcState::Down;
            ctx.metrics().incr("rs.start_timeouts");
            let name = &svc.cfg.program;
            ctx.trace(
                TraceLevel::Warn,
                format!("start of {name} timed out; retrying"),
            );
            self.start_service(ctx, idx);
        }
    }

    /// The acknowledgement of publish attempt `attempt` is overdue:
    /// re-publish, within the retry budget.
    fn republish(&mut self, ctx: &mut Ctx<'_>, idx: usize, attempt: u16) {
        let svc = &mut self.services[idx];
        // Stale alarm from an earlier publish attempt, or the service
        // died meanwhile.
        let SvcState::Up(live) = &mut svc.state else {
            return;
        };
        let Some(attempts) = live.publish.filter(|&a| a as u16 == attempt) else {
            return;
        };
        let key = &svc.cfg.program;
        if attempts >= MAX_PUBLISH_RETRIES {
            live.publish = None;
            ctx.metrics().incr("rs.publish_failed");
            ctx.metrics().incr("rs.alerts");
            ctx.trace(
                TraceLevel::Error,
                format!("ALERT: cannot verify publish of {key} after {attempts} attempts"),
            );
            return;
        }
        let attempts = attempts + 1;
        live.publish = Some(attempts);
        ctx.metrics().incr("rs.publish_retries");
        ctx.trace(
            TraceLevel::Warn,
            format!("re-publishing {key} (attempt {attempts})"),
        );
        self.publish(ctx, idx);
    }

    /// The periodic liveness audit: catches lost exit notifications and
    /// silent stalls, and is RS's own sign of life.
    fn audit(&mut self, ctx: &mut Ctx<'_>) {
        // Liveness beacon for the fleet layer: a healthy RS advances this
        // counter every audit sweep, so a per-node fleet agent gossiping
        // the counter can tell a dead or wedged RS (stalled beacon) from
        // a merely idle one.
        ctx.metrics().incr("rs.beacon");
        // Step the adapt controllers against the signal windows before
        // any sweep decision this cycle reads the parameter table.
        self.run_adapt_controllers(ctx);
        self.arbiter.expire(ctx.now());
        // Recursive guard: audit PM itself first — every other recovery
        // depends on it, and no one else reports its death (its own
        // forwarding is gone). Three detectors: gone, sitting on a
        // request, deaf to pings.
        if let Some(guard) = self.pm_guard.as_mut().filter(|g| !g.restarting) {
            if !ctx.proc_alive(self.pm) {
                self.recover_pm(ctx, reason::EXIT, true);
            } else if !self.arbiter.disarmed && ctx.request_stalled(self.pm, STALL_AGE) {
                ctx.metrics()
                    .incr(evidence::complaint_counter(evidence::PROGRESS));
                self.recover_pm(ctx, reason::HEARTBEAT, false);
            } else if guard.pings >= 3 {
                // Three audits without a pong: PM is alive per the kernel
                // but swallowing (or garbling) everything it is sent.
                guard.pings = 0;
                ctx.metrics().incr("rs.pm_pings_missed");
                self.recover_pm(ctx, reason::HEARTBEAT, false);
            } else {
                guard.pings += 1;
                let _ = ctx.send(self.pm, Message::new(drv::HB_PING));
            }
        }
        for i in 0..self.services.len() {
            self.audit_service(ctx, i);
        }
        let _ = ctx.set_alarm(AUDIT_PERIOD, token(TOK_AUDIT, 0));
    }

    /// Audits one supposedly-up service: a guarded endpoint the kernel no
    /// longer knows is a defect whose SIGCHLD never made it; then spare
    /// upkeep; then the kernel guards.
    fn audit_service(&mut self, ctx: &mut Ctx<'_>, i: usize) {
        let svc = &mut self.services[i];
        let Some(ep) = svc.endpoint() else {
            return;
        };
        let name = &svc.cfg.program;
        if !ctx.proc_alive(ep) {
            ctx.metrics().incr("rs.audit_reaped");
            ctx.metrics().incr("rs.lost_sigchld");
            ctx.trace(
                TraceLevel::Warn,
                format!("audit: {name} ({ep}) is gone but no exit report arrived"),
            );
            return self.reap(ctx, i, reason::KILLED);
        }
        // Hot-standby upkeep: reap a silently-dead spare and refill an
        // empty slot (covers lost spare SIGCHLDs and spawn retries).
        if svc.cfg.hot_standby {
            if matches!(svc.spare, Spare::Tailing(sep) if !ctx.proc_alive(sep)) {
                svc.spare = Spare::Absent;
                ctx.metrics().incr("rs.standby.spare_deaths");
            }
            self.start_spare(ctx, i);
        }
        // Kernel guard evidence (high confidence): the IPC layer flagged
        // the endpoint as babbling, or it is sitting on requests far past
        // the stall threshold. Polled for heartbeat-guarded services
        // (drivers) and for server-class components, whose stalls would
        // otherwise be invisible — a wedged server swallows requests
        // without ever crashing. STALL_AGE exceeds the servers' own
        // driver deadlines, so a server legitimately waiting out a driver
        // recovery is not mistaken for a stall.
        let svc = &self.services[i];
        let name = &svc.cfg.program;
        if self.arbiter.disarmed || !(svc.cfg.heartbeat || svc.cfg.server) {
            return;
        }
        let (kind, why) = if ctx.babble_flagged(ep) {
            let why = format!("babble guard flagged {name}; restarting");
            (evidence::BABBLE, why)
        } else if ctx.request_stalled(ep, STALL_AGE)
            && (!svc.cfg.server || !self.recovery_in_flight(ctx.now()))
        {
            let why = format!(
                "{name} sits on requests older than {STALL_AGE} without crashing; restarting"
            );
            (evidence::PROGRESS, why)
        } else {
            return;
        };
        ctx.metrics().incr(evidence::complaint_counter(kind));
        self.convict(ctx, i, why);
    }
    // [recovery:end]

    fn boot(&mut self, ctx: &mut Ctx<'_>) {
        if self.jitter.is_some() {
            return;
        }
        // Forking is a pure function of (seed, domain): jitter gets its
        // own stream without perturbing anyone else's draws.
        self.jitter = Some(ctx.rng().fork("rs-jitter"));
        // Every parameter RS reads is a gauge from boot, so campaign
        // digests always show each service's live table.
        let adapt = self.adapt.as_ref().map(|a| &a.script);
        for svc in &mut self.services {
            let cfg = &svc.cfg;
            let read = AdaptParam::ALL.into_iter().filter(|&p| cfg.reads(p, adapt));
            svc.gauges = read.map(|p| (p, p.gauge(&cfg.program))).collect();
            for (p, gauge) in &svc.gauges {
                ctx.metrics().set(gauge, p.read(&cfg.params));
            }
        }
        // Become PM's exit-report sink before any child can die.
        let _ = ctx.send(self.pm, Message::new(pm::REGISTER));
        if self.pm_guard.is_some() {
            // PM's checkpoint saves are owner-authenticated against the
            // published `pm` name; publish it before the first service
            // start can make PM dirty.
            self.publish_pm(ctx);
        }
        for idx in 0..self.services.len() {
            self.start_service(ctx, idx);
        }
        // Periodic liveness audit: catches lost exit reports.
        let _ = ctx.set_alarm(AUDIT_PERIOD, token(TOK_AUDIT, 0));
    }

    /// Reconciles the reply to one of RS's own calls.
    fn on_reply(&mut self, ctx: &mut Ctx<'_>, call: CallId, result: CallResult) {
        let Some((what, idx)) = self.calls.remove(&call) else {
            return;
        };
        match what {
            Call::Start => self.start_replied(ctx, idx, result),
            Call::Orphan => {
                // If the abandoned attempt succeeded, a ghost incarnation
                // is running unguarded. Never kill the endpoint we
                // currently guard: the "orphan" may be the very call
                // whose timeout raced its reply.
                let reply = result.as_ref().ok().and_then(pm::StartReply::from_message);
                if let Some(ghost) = reply.filter(|r| r.status == pm_status::OK) {
                    let ghost = unpack_endpoint(ghost.slot, ghost.generation);
                    if self.services[idx].endpoint() != Some(ghost) {
                        self.kill_ghost(ctx, ghost);
                    }
                }
            }
            Call::Kill(target) => self.kill_replied(ctx, idx, target, result),
            Call::SpareStart => self.complete_spare_start(ctx, idx, result),
            Call::Promote => match result
                .as_ref()
                .ok()
                .and_then(ckpt::PromoteReply::from_message)
            {
                Some(reply) if reply.status == ckpt_status::OK => {
                    ctx.metrics()
                        .add("rs.standby.records_adopted", reply.adopted);
                }
                _ => {
                    // The snapshot re-frame failed (no records, DS died
                    // mid-call). The promoted driver is live either way —
                    // its tailed watermark is the warm state; only a
                    // later cold restore would have used the DS frames.
                    ctx.metrics().incr("rs.standby.promote_unframed");
                    let name = &self.services[idx].cfg.program;
                    ctx.trace(
                        TraceLevel::Warn,
                        format!("snapshot re-frame for promoted {name} not confirmed"),
                    );
                }
            },
            Call::Publish(ep) => {
                let svc = &mut self.services[idx];
                let ack = result.as_ref().ok().and_then(ds::Ack::from_message);
                if ack.is_some_and(|ack| ack.status == 0) {
                    // It verifies the publish of its own incarnation only.
                    let live = svc.live_mut().filter(|l| l.ep == ep);
                    if live.and_then(|l| l.publish.take()).is_some() {
                        ctx.metrics().incr("rs.publish_verified");
                    }
                } else {
                    // Bad status or aborted call: leave the pending record;
                    // the re-publish alarm will retry.
                    let key = &svc.cfg.program;
                    ctx.trace(
                        TraceLevel::Warn,
                        format!("publish of {key} not acknowledged cleanly"),
                    );
                }
            }
        }
    }

    /// The reply to the tracked PM_START call of service `idx`.
    fn start_replied(&mut self, ctx: &mut Ctx<'_>, idx: usize, result: CallResult) {
        let reply = result.as_ref().ok().and_then(pm::StartReply::from_message);
        if let Some(started) = reply.filter(|r| r.status == pm_status::OK) {
            let ep = unpack_endpoint(started.slot, started.generation);
            return self.complete_start(ctx, idx, ep);
        }
        let svc = &mut self.services[idx];
        let name = &svc.cfg.program;
        match (reply, result) {
            (Some(reply), _) => {
                // A well-formed failure status (unknown program, denied)
                // is PM telling the truth: the service cannot run.
                svc.state = SvcState::GivenUp;
                ctx.metrics().incr("rs.gave_up");
                let status = reply.status;
                ctx.trace(
                    TraceLevel::Error,
                    format!("failed to start {name}: status {status}"),
                );
            }
            (None, Ok(reply)) => {
                // Wrong reply type: PM is garbling. The start outcome is
                // unknown, so retry it, and treat the garble as a PM
                // defect (high-confidence evidence — RS observed it
                // firsthand).
                ctx.metrics().incr("rs.pm_garbled_replies");
                let mtype = reply.mtype;
                ctx.trace(
                    TraceLevel::Warn,
                    format!("garbled PM reply (mtype {mtype:#x}) to start of {name}"),
                );
                self.arm_restart(ctx, idx, RETRY_DELAY);
                self.recover_pm(ctx, reason::COMPLAINT, false);
            }
            (None, Err(_)) => {
                // The rendezvous aborted: PM died with the call open.
                // Re-arm the start; PM recovery (exit report or audit)
                // runs in parallel.
                ctx.metrics().incr("rs.start_aborted");
                ctx.trace(
                    TraceLevel::Warn,
                    format!("start of {name} aborted by PM death; will retry"),
                );
                self.arm_restart(ctx, idx, RETRY_DELAY);
                if !ctx.proc_alive(self.pm) {
                    self.recover_pm(ctx, reason::EXIT, true);
                }
            }
        }
    }

    /// The reply to an RS kill of incarnation `target` of service `idx`.
    fn kill_replied(
        &mut self,
        ctx: &mut Ctx<'_>,
        idx: usize,
        target: Endpoint,
        result: CallResult,
    ) {
        let Ok(reply) = result else { return };
        let Some(reply) = pm::KillReply::from_message(&reply) else {
            // Garbled kill reply: a PM defect. The kill's real outcome is
            // unknown; the liveness audit reconciles the target either
            // way.
            ctx.metrics().incr("rs.pm_garbled_replies");
            return self.recover_pm(ctx, reason::COMPLAINT, false);
        };
        let svc = &self.services[idx];
        if reply.status == pm_status::NO_PROCESS && svc.endpoint() == Some(target) {
            // PM said NO_PROCESS about the incarnation RS still guards:
            // its exit report was lost. Synthesize the defect rather than
            // wait for the audit.
            ctx.metrics().incr("rs.lost_sigchld");
            let name = &svc.cfg.program;
            ctx.trace(
                TraceLevel::Warn,
                format!("{name} already dead at kill time; synthesizing defect"),
            );
            self.reap(ctx, idx, reason::KILLED);
        }
    }

    /// The `service` utility's commands and complaints (defect classes 3,
    /// 5 and 6).
    fn on_request(&mut self, ctx: &mut Ctx<'_>, call: CallId, msg: &Message) {
        let name = String::from_utf8_lossy(&msg.data).to_string();
        let idx = self.service_named(&name);
        let mut st = 0u64;
        match (rsp::Msg::decode(msg), idx) {
            (Some(rsp::Msg::UP), Some(i)) => {
                self.services[i].admin_down = false;
                self.start_by_operator(ctx, i);
            }
            // User-initiated replacement, defect class 3.
            (Some(rsp::Msg::RESTART), Some(i)) => {
                if self.services[i].endpoint().is_some() {
                    self.services[i].pending_reason = Some(reason::KILLED);
                    self.kill_service(ctx, i, false);
                } else {
                    self.start_by_operator(ctx, i);
                }
            }
            // Dynamic update, defect class 6: ask nicely with SIGTERM,
            // escalate to SIGKILL if this incarnation ignores it (§6).
            (Some(rsp::Msg::UPDATE), Some(i)) => {
                if self.services[i].endpoint().is_some() {
                    self.services[i].pending_reason = Some(reason::UPDATE);
                    self.kill_service(ctx, i, true);
                    let epoch = self.services[i].hb_epoch;
                    let _ = ctx.set_alarm(UPDATE_GRACE, token_seq(TOK_ESCALATE, epoch, i));
                } else {
                    self.start_service(ctx, i);
                }
            }
            (Some(rsp::Msg::DOWN), Some(i)) => {
                if self.services[i].endpoint().is_some() {
                    self.services[i].admin_down = true;
                    self.kill_service(ctx, i, false);
                } else {
                    self.services[i].state = SvcState::GivenUp;
                }
            }
            // Defect class 5: an authorized server reports a protocol
            // violation; RS arbitrates (§5.1).
            (Some(rsp::Msg::COMPLAIN(c)), i) => {
                st = self.on_complaint(ctx, msg.source, Complaint::read(c, &msg.data), i);
            }
            // EINVAL: an unknown service, or not a request RS serves.
            (Some(rsp::Msg::UP | rsp::Msg::RESTART | rsp::Msg::UPDATE | rsp::Msg::DOWN), None)
            | (Some(rsp::Msg::ACK(_)) | None, _) => st = status::EINVAL,
        }
        let _ = ctx.reply(call, rsp::Ack { status: st }.into_message());
    }

    /// Starts a service that is not up on the operator's word. On a
    /// given-up service this overrides the storm ladder (e.g. after
    /// fixing the hardware out of band), so the storm state resets too.
    fn start_by_operator(&mut self, ctx: &mut Ctx<'_>, i: usize) {
        let svc = &mut self.services[i];
        if svc.state == SvcState::GivenUp {
            svc.state = SvcState::Down;
            svc.restarts.operator_override();
        }
        self.start_service(ctx, i);
    }
}

impl Process for ReincarnationServer {
    // analyze:recovery-root
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        match event {
            ProcEvent::Start => self.boot(ctx),
            ProcEvent::Reply { call, result } => self.on_reply(ctx, call, result),
            // RS is the parent of any PM incarnation it respawned, so the
            // kernel reports that incarnation's death directly here — no
            // forwarding PM exists to relay it.
            ProcEvent::ChildExited(exit) if self.pm_guard.is_some() && exit.endpoint == self.pm => {
                let defect = match exit.reason {
                    ExitReason::Exception(_) => reason::EXCEPTION,
                    _ => reason::EXIT,
                };
                self.recover_pm(ctx, defect, true);
            }
            ProcEvent::Message(msg) => self.on_message(ctx, &msg),
            ProcEvent::Request { call, msg } => self.on_request(ctx, call, &msg),
            ProcEvent::Alarm { token } => self.on_alarm(ctx, token),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use phoenix_kernel::platform::NullPlatform;
    use phoenix_kernel::privileges::Privileges;
    use phoenix_kernel::system::{System, SystemConfig};

    use super::*;
    use crate::{DataStore, ProcessManager, Server};

    /// Answers RS's heartbeat pings and nothing else.
    struct Ponger;

    impl Process for Ponger {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
            if let ProcEvent::Message(msg) = event {
                if let Some(drv::HbPing { nonce }) = drv::HbPing::from_message(&msg) {
                    let _ = ctx.send(msg.source, drv::HbPong { nonce }.into_message());
                }
            }
        }
    }

    /// Boots RS guarding `services`, each a [`Ponger`], under the adapt
    /// script `adapt`, and runs through the first audit sweep: one step
    /// of every rule.
    fn one_sweep(services: Vec<ServiceConfig>, adapt: &str) -> System {
        let mut sys = System::new(SystemConfig::default());
        for svc in &services {
            let factory = Box::new(|| Box::new(Ponger) as Box<dyn Process>);
            sys.register_program(&svc.program, Privileges::server(), factory);
        }
        let ds = sys.spawn_boot("ds", Privileges::server(), Box::new(DataStore::new()));
        let pm = Box::new(Server::new(ProcessManager::new(), ds, None));
        let pm = sys.spawn_boot("pm", Privileges::process_manager(), pm);
        let adapt = PolicyScript::parse(adapt).unwrap();
        let rs = ReincarnationServer::new(pm, ds, services).with_adapt(adapt);
        sys.spawn_boot("rs", Privileges::reincarnation_server(), Box::new(rs));
        let end = SimTime::ZERO + AUDIT_PERIOD + SimDuration::from_millis(1);
        sys.run_until(&mut NullPlatform, end);
        sys
    }

    const HALVE_HEARTBEAT: &str =
        "adapt heartbeat_period when failures >= 0 halve else hold clamp 100ms 2s\n";

    #[test]
    fn a_rule_steps_each_bound_service_from_its_own_value() {
        let services = vec![
            ServiceConfig::driver("fast").with_heartbeat(SimDuration::from_millis(500), 3),
            ServiceConfig::driver("slow"),
        ];
        let sys = one_sweep(services, HALVE_HEARTBEAT);
        let period = |svc| {
            let gauge = AdaptParam::HeartbeatPeriod.gauge(svc);
            SimDuration::from_micros(sys.metrics().counter(&gauge))
        };
        assert_eq!(period("fast"), SimDuration::from_millis(250));
        assert_eq!(period("slow"), SimDuration::from_millis(500));
        assert_eq!(sys.metrics().counter("rs.adapt.updates"), 2);
    }

    #[test]
    fn a_heartbeat_period_rule_leaves_a_service_without_heartbeats_alone() {
        let services = vec![
            ServiceConfig::driver("pinged"),
            ServiceConfig::driver("quiet").without_heartbeat(),
            ServiceConfig::server("server"),
        ];
        let sys = one_sweep(services, HALVE_HEARTBEAT);
        let m = sys.metrics();
        let periods: Vec<_> = m
            .counters()
            .filter(|(k, _)| k.ends_with(".heartbeat_period_us"))
            .collect();
        assert_eq!(periods, [("rs.adapt.pinged.heartbeat_period_us", 500_000)]);
        assert_eq!(m.counter("rs.adapt.updates"), 1);
        let trajectory = m.log_histogram(AdaptParam::HeartbeatPeriod.trace());
        assert_eq!(trajectory.map(|h| h.count()), Some(1));
        // The other parameters are read for every service.
        assert_eq!(m.counter("rs.adapt.quiet.restart_budget"), 10);
        assert_eq!(m.counter("rs.adapt.server.quorum_complaints"), 3);
    }

    fn backoff_2s() -> ServiceConfig {
        let policy = PolicyScript::parse("sleep backoff(2s)\nrestart\n").unwrap();
        ServiceConfig::driver("d").with_policy(policy)
    }

    #[test]
    fn backoff_cap_reaches_the_script_from_the_service() {
        let mut cfg = backoff_2s();
        let adapt = "adapt backoff_cap when failures >= 1 sub 6 else hold clamp 1 7\n";
        let adapt = PolicyScript::parse(adapt).unwrap();
        // One controller step: 7 doublings -> 1.
        assert_eq!(adapt.adapt_rules()[0].step(1, &mut cfg.params), Some(1));
        let input = cfg.policy_input(reason::EXIT, 5, Some(&adapt));
        assert_eq!(input.backoff_cap, Some(1));
        let delay = cfg.policy.as_ref().unwrap().run(&input).delay;
        assert_eq!(delay, SimDuration::from_secs(4));
    }

    #[test]
    fn without_a_binding_rule_the_backoff_literal_wins() {
        let cfg = backoff_2s();
        let policy = cfg.policy.as_ref().unwrap();
        let delay = |adapt: Option<&PolicyScript>| {
            let input = cfg.policy_input(reason::EXIT, 1, adapt);
            policy.run(&input).delay
        };
        let parse = |src| PolicyScript::parse(src).unwrap();
        let cap_rule = parse("adapt backoff_cap when failures >= 1 add 1 else hold clamp 1 9\n");
        let base_rule =
            parse("adapt backoff_base when failures >= 1 halve else hold clamp 100ms 1s\n");
        assert_eq!(delay(None), SimDuration::from_secs(2));
        assert_eq!(delay(Some(&cap_rule)), SimDuration::from_secs(2));
        // A rule that binds the base: the service's own value.
        assert_eq!(delay(Some(&base_rule)), SimDuration::from_secs(1));
    }
}
