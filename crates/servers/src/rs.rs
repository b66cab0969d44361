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
//! # One incarnation lifecycle
//!
//! Every incarnation RS guards sits in a slot: a service's primary, its
//! warm spare, and PM itself when RS guards it. Each slot holds the same
//! state, and every incarnation is started, bound, published, killed and
//! reaped the same way. The roles differ only in their starter — a
//! PM_START, or for PM, which cannot start itself, RS's own `sys_spawn` —
//! and in what RS does when the incarnation dies: the service's recovery
//! for a primary, a refill for a spare, a fixed respawn plan for PM.
//!
//! # Hardening against a hostile IPC fabric
//!
//! The recovery machinery itself must survive lost, delayed, duplicated and
//! corrupted messages, and crashes *during* recovery:
//!
//! * **Start-call timeouts** — when the timeout of a slot's current
//!   start fires, RS reconciles against the kernel's process table: every
//!   live incarnation of the slot's program that no slot holds is an
//!   *orphan* of a start whose reply was lost, and RS has PM kill it; a
//!   start still in flight is then retried. A reply to a start that is no
//!   longer the slot's current one reveals a *ghost* incarnation, which
//!   RS has PM kill unless the kernel no longer runs it.
//! * **Early-death reconciliation** — a SIGCHLD for an endpoint RS has not
//!   yet bound to a slot is remembered; if a later START_REPLY names that
//!   endpoint, the fresh incarnation died before its bind and is reaped.
//! * **Kill-reply reconciliation** — PM answering `NO_PROCESS` to an RS
//!   kill of the incarnation a slot still holds means its exit report was
//!   lost; the death is synthesized on the spot. A reply about an earlier
//!   incarnation says nothing about its successor.
//! * **Liveness audit** — a periodic sweep asks the kernel whether each
//!   supposedly-up endpoint is still alive, catching any remaining lost
//!   exit notifications, and reaps the orphans of every slot with no
//!   start in flight: a START delayed past its retry's timeout, whose
//!   reply is lost, spawns after both reconciles.
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
use crate::proto::{ds, evidence, pm, rs as rsp};

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
    /// Recovery policy; `None`, the default, means a direct restart with
    /// no script (like disk drivers, whose script could not be read from
    /// the dead disk, §6.2).
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
    /// entry in the kernel program registry; if PM reports none, RS gives
    /// the spare slot up and the service runs without one.
    pub hot_standby: bool,
}

impl ServiceConfig {
    /// A driver config: the baseline parameters from
    /// [`PolicyParams::BASELINE`], heartbeats on, and a direct restart
    /// until [`ServiceConfig::with_policy`] gives it a script.
    pub fn driver(program: &str) -> Self {
        ServiceConfig {
            program: program.to_string(),
            policy: None,
            policy_params: Vec::new(),
            params: PolicyParams::BASELINE,
            deps: Vec::new(),
            server: false,
            heartbeat: true,
            hot_standby: false,
        }
    }

    /// A crash-only system-server config: no heartbeats (servers
    /// legitimately block on their drivers), direct restart, and the
    /// recursive microreboot ladder enabled.
    pub fn server(program: &str) -> Self {
        ServiceConfig {
            server: true,
            heartbeat: false,
            ..Self::driver(program)
        }
    }

    /// Sets the policy script (builder style).
    // analyze:recovery
    pub fn with_policy(mut self, policy: PolicyScript) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Sets the heartbeat period (builder style).
    // analyze:recovery
    pub fn with_heartbeat(mut self, period: SimDuration, misses: u32) -> Self {
        self.heartbeat = true;
        self.params.heartbeat_period = period;
        self.params.heartbeat_misses = misses;
        self
    }

    /// Disables heartbeats (builder style).
    // analyze:recovery
    pub fn without_heartbeat(mut self) -> Self {
        self.heartbeat = false;
        self
    }

    /// Sets the restart budget: restarts within `window` before the
    /// storm-escalation ladder engages (builder style).
    // analyze:recovery
    pub fn with_restart_budget(mut self, budget: u32, window: SimDuration) -> Self {
        self.params.restart_budget = budget;
        self.params.budget_window = window;
        self
    }

    /// Sets the components restarted with this one when a storm escalates
    /// (builder style).
    // analyze:recovery
    pub fn with_deps(mut self, deps: Vec<String>) -> Self {
        self.deps = deps;
        self
    }

    /// Enables hot-standby failover (builder style): RS keeps a warm
    /// spare tailing the checkpoint record and promotes it at defect
    /// time instead of cold-restarting.
    // analyze:recovery
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
    // analyze:recovery
    fn reads(&self, p: AdaptParam, adapt: Option<&PolicyScript>) -> bool {
        match p {
            AdaptParam::HeartbeatPeriod => self.heartbeat,
            AdaptParam::BackoffBase => adapt.is_some_and(|s| s.binds(p)),
            _ => true,
        }
    }

    /// What the policy script sees of failure number `repetition`, of
    /// class `defect`, under the `adapt` script.
    // analyze:recovery
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

/// The state of an incarnation slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum SvcState {
    /// Not running, no restart scheduled.
    #[default]
    Down,
    /// The PM_START call `call` of the slot's current start attempt is
    /// in flight.
    Starting { call: CallId },
    /// Running and guarded.
    Up(Live),
    /// Dead; restart alarm armed.
    WaitRestart,
    /// Given up on (by the policy, by the operator's DOWN, or because PM
    /// cannot run the program); no automatic recovery.
    GivenUp,
}

/// What RS knows of a running incarnation; it dies with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Live {
    ep: Endpoint,
    /// Liveness pings not answered yet.
    pings: u32,
    /// Attempts of the DS publish being verified, `None` once its
    /// acknowledgement arrived or RS stopped trying.
    publish: Option<u32>,
}

/// Which incarnation slot something is about. The roles differ only in
/// their starter and in what RS does when the incarnation dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// The primary of service `idx`: started by PM_START; its death is a
    /// defect, recovered by the service's policy.
    Primary(usize),
    /// The warm spare (`standby.<program>`) of hot-standby service `idx`:
    /// started by PM_START behind a running primary, tailing its
    /// checkpoint record; its death only refills the slot.
    Spare(usize),
    /// PM itself, when RS guards it: spawned by RS's own `sys_spawn`, as PM
    /// cannot start itself, and respawned on a fixed plan.
    Pm,
}

/// One incarnation slot: a service's primary or spare, or PM.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    state: SvcState,
    /// The number of the most recent start attempt.
    attempt: u16,
    /// The most recent recovery episode; a spare has none.
    episode: Option<Episode>,
}

impl Slot {
    /// Runs the fresh incarnation `ep` in the slot.
    fn bind(&mut self, ep: Endpoint) {
        let live = Live {
            ep,
            ..Live::default()
        };
        self.state = SvcState::Up(live);
    }

    /// The running incarnation, if there is one.
    fn live_mut(&mut self) -> Option<&mut Live> {
        match &mut self.state {
            SvcState::Up(live) => Some(live),
            _ => None,
        }
    }

    /// The endpoint of the running incarnation, if there is one.
    fn endpoint(&self) -> Option<Endpoint> {
        match self.state {
            SvcState::Up(live) => Some(live.ep),
            _ => None,
        }
    }
}

/// One recovery episode, a guarded service's or PM's own: opened at
/// detection, it tags every RS event of the recovery chain and rides on
/// the DS publish, so the data store and each dependent tag their
/// reintegration events with the same id and the timeline analyzer can
/// reassemble the episode and time its phases. The tags outlive the
/// recovery (a late re-publish still belongs to it) until the next defect
/// overwrites them.
// analyze:recovery
#[derive(Debug, Clone, Copy)]
struct Episode {
    /// Correlation token.
    rid: RecoveryId,
    /// Root span (the defect event); every other event parent-links to it.
    span: SpanId,
    /// Detection time, taken when the fresh incarnation is alive.
    died_at: Option<SimTime>,
}

// analyze:recovery
impl Episode {
    /// Mints the token and root span and reports the defect. `failures`
    /// is the count fed to the policy script (PM runs none).
    fn open(
        ctx: &mut Ctx<'_>,
        minted: &mut Option<RecoveryId>,
        service: &str,
        defect: u8,
        failures: Option<u32>,
    ) -> Episode {
        let rid = RecoveryId::after(*minted);
        *minted = Some(rid);
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
}

/// Whom an RS event is about: a stable name and its most recent episode
/// (a boot-time start has none).
// analyze:recovery
#[derive(Clone, Copy)]
struct Subject<'a>(&'a str, Option<Episode>);

// analyze:recovery
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

struct Service {
    cfg: ServiceConfig,
    /// The `rs.adapt.*` gauge of each parameter RS reads from
    /// `cfg.params`, named once at boot.
    gauges: Vec<(AdaptParam, String)>,
    /// The primary incarnation.
    primary: Slot,
    /// The warm spare of a hot-standby service.
    spare: Slot,
    /// The warm spare's program, `standby.<program>`; empty without hot
    /// standby.
    standby: String,
    /// Failure count fed to the policy as `repetition`.
    failures: u32,
    /// Defect class RS already knows (set before RS-initiated kills).
    pending_reason: Option<u8>,
    /// Program version to use for the next start (None = latest).
    next_version: Option<u32>,
    hb_nonce: u64,
    /// Incarnation epoch, bumped whenever a fresh primary goes up.
    /// Heartbeat chains and update-escalation alarms carry the epoch they
    /// were armed for; a stale one is ignored.
    hb_epoch: u16,
    /// Restart history inside the sliding budget window and the
    /// storm-ladder position.
    restarts: RestartRecord,
}

impl Service {
    /// The endpoint of the running primary, if the service is up.
    fn endpoint(&self) -> Option<Endpoint> {
        self.primary.endpoint()
    }

    /// Whether a spare may start: the service runs hot standby and its
    /// primary is up.
    // analyze:recovery
    fn wants_spare(&self) -> bool {
        self.cfg.hot_standby && self.endpoint().is_some()
    }

    /// Moves the primary to `state`, out of any start or run. A spare
    /// start in flight is abandoned with it: its reply names a ghost.
    fn stop(&mut self, state: SvcState) {
        self.primary.state = state;
        if let SvcState::Starting { .. } = self.spare.state {
            self.spare.state = SvcState::Down;
        }
    }

    /// Takes the warm spare if it is up; a start in flight stays.
    // analyze:recovery
    fn take_spare(&mut self) -> Option<Endpoint> {
        let ep = self.spare.endpoint()?;
        self.spare.state = SvcState::Down;
        Some(ep)
    }
}

/// How long RS waits for a PM_START reply before assuming the request or
/// its reply was lost and retrying.
// analyze:recovery
const START_TIMEOUT: SimDuration = SimDuration::from_millis(50);

/// Back-off before retrying a start, spawn or respawn that PM (or the
/// kernel) could not carry out.
// analyze:recovery
const RETRY_DELAY: SimDuration = SimDuration::from_micros(EXEC_LATENCY.as_micros() * 4);

/// How long RS waits for a DS publish acknowledgement before re-publishing.
// analyze:recovery
const PUBLISH_TIMEOUT: SimDuration = SimDuration::from_millis(10);

/// Re-publish attempts before RS raises an alert and stops trying.
// analyze:recovery
const MAX_PUBLISH_RETRIES: u32 = 3;

/// Period of the liveness audit that catches lost exit notifications.
/// Deliberately off-cycle from the 1 s heartbeat default.
// analyze:recovery
const AUDIT_PERIOD: SimDuration = SimDuration::from_millis(750);

/// How long a SIGTERMed service has to exit before a dynamic update
/// escalates to SIGKILL (§6).
const UPDATE_GRACE: SimDuration = SimDuration::from_millis(500);

/// Sliding window over which the adapt controllers count failures and
/// complaints. Wider than the complaint window so slow-burn flapping is
/// visible; narrower than the budget window so controllers react before
/// the storm ladder fires.
// analyze:recovery
const ADAPT_WINDOW: SimDuration = SimDuration::from_secs(10);

/// Most recent repair-MTTR samples kept for the `mttr_p95` adapt signal.
// analyze:recovery
const ADAPT_MTTR_SAMPLES: usize = 32;

/// How often a warm spare polls DS for the primary's latest checkpoint
/// frame (the WAL-tail period passed in `drv::STANDBY`).
// analyze:recovery
const SPARE_TAIL_PERIOD: SimDuration = SimDuration::from_millis(100);

/// Age beyond which an open request against a heartbeat-guarded driver
/// counts as a progress stall. Deliberately longer than the servers' own
/// 5 s driver deadlines, so the kernel watchdog is the second line, not
/// the first.
// analyze:recovery
const STALL_AGE: SimDuration = SimDuration::from_secs(8);

/// Program, stable name and DS key of the process manager RS guards.
// analyze:recovery
const PM_NAME: &str = "pm";

// Alarm token layout: kind from bit 40, the slot's role in bits 32..40, a
// 16-bit sequence/epoch in bits 16..32, the service index in the low 16
// bits.
// analyze:recovery
const TOK_HB: u64 = 1;
// analyze:recovery
const TOK_RESTART: u64 = 2;
const TOK_ESCALATE: u64 = 3;
// analyze:recovery
const TOK_START_TIMEOUT: u64 = 4;
// analyze:recovery
const TOK_REPUBLISH: u64 = 5;
// analyze:recovery
const TOK_AUDIT: u64 = 6;

/// The alarm token of `kind` with sequence `seq` for slot `role`.
fn token(kind: u64, seq: u16, role: Role) -> u64 {
    let (tag, idx) = match role {
        Role::Primary(i) => (0, i),
        Role::Spare(i) => (1, i),
        Role::Pm => (2, 0),
    };
    (kind << 40) | (tag << 32) | (u64::from(seq) << 16) | idx as u64
}

/// What one of RS's own calls came back with: the reply message, or the
/// abort error.
type CallResult = Result<Message, IpcError>;

/// Most unmatched dead endpoints remembered for early-death reconciliation.
// analyze:recovery
const EARLY_DEATHS_CAP: usize = 64;

/// What one of RS's own in-flight calls asked for.
enum Call {
    /// PM_START of the slot's incarnation.
    Start,
    /// PM_KILL of the incarnation, for NO_PROCESS reconciliation.
    Kill(Endpoint),
    /// DS publish of the incarnation.
    Publish(Endpoint),
    /// `ckpt::PROMOTE` re-framing call to DS.
    Promote,
}

/// PM_START of `program` at `version` (0 = latest).
fn start_request(program: String, version: u64) -> Message {
    let start = pm::Start { version }.into_message();
    start.with_data(program.into_bytes())
}

/// PM_KILL of `ep`: SIGTERM if `term`, else SIGKILL.
fn kill_request(target: Endpoint, term: bool) -> Message {
    let signal = u64::from(!term);
    pm::Kill { target, signal }.into_message()
}

/// DS publish of `key` → `ep`. The episode rides along so DS — and,
/// through DS's update notifications, every dependent — can tag its own
/// reintegration events with the same episode id.
fn publish_request(key: String, endpoint: Endpoint, episode: Option<Episode>) -> Message {
    let publish = ds::Publish {
        endpoint,
        recovery: episode.map(|e| e.rid),
        span: episode.map(|e| e.span),
    };
    publish.into_message().with_data(key.into_bytes())
}

/// The admin-editable adapt script and the signal windows its rules are
/// stepped against, once per audit sweep.
// analyze:recovery
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
    /// RS's own in-flight calls: what each asked for, and for which slot.
    calls: BTreeMap<CallId, (Call, Role)>,
    /// Dead endpoints from SIGCHLD reports that matched no service (yet).
    early_deaths: VecDeque<Endpoint>,
    /// Deterministic jitter source, forked from the run seed at Start;
    /// `None` until RS has booted.
    jitter: Option<SimRng>,
    /// The last recovery correlation token minted (`None` before the
    /// first); each episode takes the id after it.
    last_recovery: Option<RecoveryId>,
    /// Complaint arbitration state. Its `disarmed` flag is the fail-silent
    /// switch: when set, complaints are vetted and counted but never
    /// acted on and the audit sweep does not poll the kernel babble and
    /// progress guards — the crash-only baseline arm of the fail-silent
    /// campaign.
    arbiter: Arbiter<String>,
    /// PM's incarnation slot, when RS guards PM itself.
    pm_slot: Option<Slot>,
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
                standby: if cfg.hot_standby {
                    drv::spare_name(&cfg.program)
                } else {
                    String::new()
                },
                cfg,
                gauges: Vec::new(),
                primary: Slot::default(),
                spare: Slot::default(),
                failures: 0,
                pending_reason: None,
                next_version: None,
                hb_nonce: 0,
                hb_epoch: 0,
                restarts: RestartRecord::default(),
            })
            .collect();
        ReincarnationServer {
            pm,
            ds,
            services,
            calls: BTreeMap::new(),
            early_deaths: VecDeque::new(),
            jitter: None,
            last_recovery: None,
            arbiter: Arbiter::default(),
            pm_slot: None,
            last_recovery_done: None,
            adapt: None,
        }
    }

    /// Installs the adapt script (builder style): its `adapt` rules are
    /// stepped once per audit sweep, each writing through the
    /// [`PolicyParams`] of every service it binds, within its declared
    /// clamp band.
    // analyze:recovery
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
    /// so the new incarnation can restore its checkpointed reaper binding.
    // analyze:recovery
    pub fn with_pm_guard(mut self) -> Self {
        let mut pm = Slot::default();
        pm.bind(self.pm);
        self.pm_slot = Some(pm);
        self
    }

    /// Arms or disarms fail-silent detection (builder style): acting on
    /// complaints, and audit-sweep polling of the kernel babble and
    /// progress guards. Disarmed, complaints are still vetted and
    /// counted, so the evidence stream stays observable in the crash-only
    /// baseline.
    // analyze:recovery
    pub fn with_sentinels(mut self, on: bool) -> Self {
        self.arbiter.disarmed = !on;
        self
    }

    /// Slot `role`, if there is one: an index past the service table, or
    /// PM unguarded, names none.
    fn slot(&mut self, role: Role) -> Option<&mut Slot> {
        match role {
            Role::Primary(i) => self.services.get_mut(i).map(|s| &mut s.primary),
            Role::Spare(i) => self.services.get_mut(i).map(|s| &mut s.spare),
            Role::Pm => self.pm_slot.as_mut(),
        }
    }

    /// The slot whose running incarnation is `ep`.
    fn slot_of(&self, ep: Endpoint) -> Option<Role> {
        let pm = self.pm_slot.map(|s| (Role::Pm, s));
        let services = self.services.iter().enumerate();
        let mut slots = pm.into_iter().chain(
            services.flat_map(|(i, s)| [(Role::Primary(i), s.primary), (Role::Spare(i), s.spare)]),
        );
        slots.find_map(|(role, s)| (s.endpoint() == Some(ep)).then_some(role))
    }

    /// The program slot `role` runs, which is also its stable name and
    /// DS key.
    fn name(&self, role: Role) -> &str {
        match role {
            Role::Primary(i) => &self.services[i].cfg.program,
            Role::Spare(i) => &self.services[i].standby,
            Role::Pm => PM_NAME,
        }
    }

    /// Starts a fresh incarnation in slot `role` with the role's starter:
    /// a PM_START under the start timeout, or for PM, which cannot start
    /// itself, RS's own spawn call.
    fn start(&mut self, ctx: &mut Ctx<'_>, role: Role) {
        let ready = match self.slot(role).map(|s| s.state) {
            Some(SvcState::Down | SvcState::WaitRestart) => true,
            // A given-up primary starts on the operator's word; a spare PM
            // could not run stays off.
            Some(SvcState::GivenUp) => !matches!(role, Role::Spare(_)),
            _ => false,
        };
        let version = match role {
            _ if !ready => return,
            // analyze:recovery
            Role::Pm => return self.spawn_pm(ctx),
            Role::Primary(i) => self.services[i].next_version.take(),
            // analyze:recovery
            Role::Spare(i) if self.services[i].wants_spare() => None,
            // analyze:recovery
            Role::Spare(_) => return,
        };
        let start = start_request(self.name(role).to_string(), version.map_or(0, u64::from));
        match ctx.sendrec(self.pm, start) {
            Ok(call) => {
                let attempt = self.exec(ctx, role);
                if let Some(slot) = self.slot(role) {
                    slot.state = SvcState::Starting { call };
                }
                self.calls.insert(call, (Call::Start, role));
                // If neither the request nor its reply survives the fabric,
                // this alarm notices and retries.
                // analyze:recovery
                let _ = ctx.set_alarm(START_TIMEOUT, token(TOK_START_TIMEOUT, attempt, role));
            }
            // analyze:recovery
            Err(e) => {
                let why = format!("cannot reach PM to start {}: {e}", self.name(role));
                self.pm_lost(ctx, role, why);
            }
        }
    }

    /// PM's starter: RS's own spawn call, which answers at once.
    // analyze:recovery
    fn spawn_pm(&mut self, ctx: &mut Ctx<'_>) {
        self.exec(ctx, Role::Pm);
        match ctx.sys_spawn(PM_NAME, None) {
            Ok(ep) => self.complete_start(ctx, Role::Pm, ep),
            Err(_) => {
                ctx.metrics().incr("rs.pm_respawn_failed");
                ctx.metrics().incr("rs.alerts");
                ctx.trace(
                    TraceLevel::Error,
                    format!("ALERT: cannot respawn {PM_NAME}; retrying"),
                );
                self.arm_restart(ctx, Role::Pm, RETRY_DELAY);
            }
        }
    }

    /// Counts and reports a start attempt of slot `role`; returns its
    /// number.
    fn exec(&mut self, ctx: &mut Ctx<'_>, role: Role) -> u16 {
        let Some(slot) = self.slot(role) else {
            return 0;
        };
        slot.attempt = slot.attempt.wrapping_add(1);
        let (attempt, episode) = (slot.attempt, slot.episode);
        let name = self.name(role);
        Subject(name, episode).emit(
            ctx,
            TraceLevel::Info,
            kind::EXEC,
            format!("exec {name} (attempt {attempt})"),
            &[("attempt", u64::from(attempt))],
        );
        attempt
    }

    /// Slot `role`'s start failed, as `why` says, because PM is gone.
    /// Under the PM guard the start is re-armed and PM recovered; without
    /// it, PM is not coming back, and RS gives up.
    // analyze:recovery
    fn pm_lost(&mut self, ctx: &mut Ctx<'_>, role: Role, why: String) {
        ctx.trace(TraceLevel::Warn, why);
        if self.pm_slot.is_none() {
            if let Some(slot) = self.slot(role) {
                slot.state = SvcState::GivenUp;
            }
            return;
        }
        self.arm_restart(ctx, role, RETRY_DELAY);
        if !ctx.proc_alive(self.pm) {
            self.recover_pm(ctx, reason::EXIT, true);
        }
    }

    /// Parks slot `role` until a restart alarm `delay` from now.
    // analyze:recovery
    fn arm_restart(&mut self, ctx: &mut Ctx<'_>, role: Role, delay: SimDuration) {
        if let Some(slot) = self.slot(role) {
            slot.state = SvcState::WaitRestart;
        }
        let _ = ctx.set_alarm(delay, token(TOK_RESTART, 0, role));
    }

    fn kill_service(&mut self, ctx: &mut Ctx<'_>, idx: usize, term: bool) {
        let Some(ep) = self.services[idx].endpoint() else {
            return;
        };
        // analyze:recovery
        self.arbiter.clear(idx);
        self.kill(ctx, Role::Primary(idx), ep, term);
    }

    /// Kills incarnation `ep` of slot `role`, by SIGTERM if `term`, else
    /// SIGKILL: PM by RS's own kill call, any other by a PM_KILL tracked
    /// for NO_PROCESS reconciliation.
    fn kill(&mut self, ctx: &mut Ctx<'_>, role: Role, ep: Endpoint, term: bool) {
        if role == Role::Pm {
            let _ = ctx.sys_kill(ep, if term { Signal::Term } else { Signal::Kill });
        } else if let Ok(call) = ctx.sendrec(self.pm, kill_request(ep, term)) {
            self.calls.insert(call, (Call::Kill(ep), role));
        }
    }

    /// Publishes slot `role`'s running incarnation in DS, verified: the
    /// attempt is booked until its acknowledgement arrives.
    fn publish(&mut self, ctx: &mut Ctx<'_>, role: Role) {
        let Some(slot) = self.slot(role) else {
            return;
        };
        let episode = slot.episode;
        let Some(live) = slot.live_mut() else {
            return;
        };
        let (ep, attempts) = (live.ep, *live.publish.get_or_insert(0));
        let publish = publish_request(self.name(role).to_string(), ep, episode);
        if let Ok(call) = ctx.sendrec(self.ds, publish) {
            self.calls.insert(call, (Call::Publish(ep), role));
        }
        // Verify the acknowledgement arrives; re-publish if it does not.
        // analyze:recovery
        let seq = attempts as u16;
        // analyze:recovery
        let _ = ctx.set_alarm(PUBLISH_TIMEOUT, token(TOK_REPUBLISH, seq, role));
    }

    /// Applies deterministic jitter (multiplier in [1.0, 1.25)) to a
    /// restart delay so synchronized failures do not restart in lock-step.
    // analyze:recovery
    fn jittered(&mut self, delay: SimDuration) -> SimDuration {
        let Some(rng) = self.jitter.as_mut() else {
            return delay;
        };
        let millis_per_mille = rng.range_u64(0..250);
        SimDuration::from_micros(delay.as_micros() + delay.as_micros() * millis_per_mille / 1000)
    }

    /// Feeds one repair-MTTR sample to the adapt signal window.
    // analyze:recovery
    fn note_mttr(&mut self, dt: SimDuration) {
        let Some(adapt) = &mut self.adapt else {
            return;
        };
        if adapt.mttr.len() >= ADAPT_MTTR_SAMPLES {
            adapt.mttr.pop_front();
        }
        adapt.mttr.push_back(dt.as_micros());
    }

    /// Common defect entry point (§5.2): reset the service, open the
    /// episode, consult the restart ladder, run the policy script, carry
    /// out the repair.
    // analyze:recovery
    fn handle_defect(&mut self, ctx: &mut Ctx<'_>, idx: usize, defect: u8) {
        let svc = &mut self.services[idx];
        svc.stop(SvcState::Down);
        let name = svc.cfg.program.clone();
        if defect != reason::UPDATE {
            svc.failures += 1;
        }
        let failures = svc.failures;
        let episode = Episode::open(ctx, &mut self.last_recovery, &name, defect, Some(failures));
        svc.primary.episode = Some(episode);
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
        // script means a direct restart, the decision of §7.1's
        // experiments and of disk drivers, which restart from the copy
        // in RAM (§6.2).
        let cfg = &self.services[idx].cfg;
        let decision = match &cfg.policy {
            Some(script) => {
                let adapt = self.adapt.as_ref().map(|a| &a.script);
                script.run(&cfg.policy_input(defect, failures.max(1), adapt))
            }
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
        let spare = self.services[idx].spare.endpoint();
        let spare_alive = spare.is_some_and(|ep| ctx.proc_alive(ep));
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
                self.arm_restart(ctx, Role::Primary(idx), delay);
            }
        }
    }

    /// Books the defect on the restart ladder and reports and carries out
    /// what it says short of the give-up: the storm alert, the
    /// server-class rung, the once-per-window group reboot. The budget
    /// and its window are the service's own.
    // analyze:recovery
    fn escalate(&mut self, ctx: &mut Ctx<'_>, idx: usize, name: &str, defect: u8) -> Escalation {
        let svc = &mut self.services[idx];
        let (budget, window) = (svc.cfg.params.restart_budget, svc.cfg.params.budget_window);
        let server = svc.cfg.server;
        let escalation = svc
            .restarts
            .on_defect(ctx.now(), defect, budget, window, server);
        let (restarts, storm) = (escalation.restarts, escalation.storm);
        let subject = Subject(name, svc.primary.episode);
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
    // analyze:recovery
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
    // analyze:recovery
    fn give_up(&mut self, ctx: &mut Ctx<'_>, idx: usize, why: &str) {
        let svc = &mut self.services[idx];
        svc.primary.state = SvcState::GivenUp;
        ctx.metrics().incr("rs.gave_up");
        let name = &svc.cfg.program;
        let message = format!("giving up on {name}{why}");
        Subject(name, svc.primary.episode).emit(
            ctx,
            TraceLevel::Error,
            kind::GAVE_UP,
            message,
            &[],
        );
        self.retire_spare(ctx, idx);
    }

    /// Closes the open episode of slot `role` now that its fresh
    /// incarnation is alive, with the MTTR accounting. Returns false when
    /// no episode was open: a first start, or a spare, which has none.
    // analyze:recovery
    fn close_episode(&mut self, ctx: &mut Ctx<'_>, role: Role, promoted: bool) -> bool {
        let counter = match role {
            Role::Pm => "rs.pm_recoveries",
            _ => "rs.recoveries",
        };
        let Some(slot) = self.slot(role) else {
            return false;
        };
        let Some(died) = slot.episode.as_mut().and_then(|e| e.died_at.take()) else {
            return false;
        };
        let (episode, ep) = (slot.episode, slot.endpoint().unwrap_or_default());
        let name = self.name(role);
        let dt = ctx.now().since(died);
        ctx.metrics().incr(counter);
        ctx.metrics().record_duration("rs.recovery_time", dt);
        let how = if promoted { " by promotion" } else { "" };
        // `promoted` is recorded only on a promotion.
        let fields = [("mttr_us", dt.as_micros()), ("promoted", 1)];
        Subject(name, episode).emit(
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

    /// The incarnation in slot `role` is dead: its exit report, the audit
    /// or PM's NO_PROCESS said so, or it died before its start completed.
    /// What follows is the role's: for a primary the service's recovery,
    /// under the defect class RS recorded before killing it itself
    /// (heartbeat 4, complaint 5, update 6, user 3), else `observed`; for a
    /// spare a refill, with no episode; for PM the fixed plan, with no
    /// script, no ladder and no jitter.
    // analyze:recovery
    fn reap(&mut self, ctx: &mut Ctx<'_>, role: Role, observed: u8) {
        match role {
            Role::Primary(idx) => {
                let defect = self.services[idx].pending_reason.take().unwrap_or(observed);
                self.handle_defect(ctx, idx, defect);
            }
            Role::Spare(idx) => {
                ctx.metrics().incr("rs.standby.spare_deaths");
                let name = &self.services[idx].standby;
                ctx.trace(TraceLevel::Warn, format!("{name} died; respawning"));
                self.arm_restart(ctx, role, EXEC_LATENCY);
            }
            Role::Pm => {
                ctx.metrics().incr("rs.pm_defects");
                let episode = Episode::open(ctx, &mut self.last_recovery, PM_NAME, observed, None);
                if let Some(slot) = &mut self.pm_slot {
                    slot.episode = Some(episode);
                }
                self.arm_restart(ctx, role, EXEC_LATENCY);
            }
        }
    }

    fn service_named(&self, name: &str) -> Option<usize> {
        self.services.iter().position(|s| s.cfg.program == name)
    }

    /// Whether some recovery is in flight, or completed less than a full
    /// stall window ago. While that holds, old client requests against a
    /// *server* prove nothing — the server may simply be waiting out a
    /// dependency's reincarnation — so the progress watchdog holds fire.
    // analyze:recovery
    fn recovery_in_flight(&self, now: SimTime) -> bool {
        let recovering =
            |s: &Service| !matches!(s.primary.state, SvcState::Up(_) | SvcState::GivenUp);
        self.pm_slot.is_some_and(|s| s.endpoint().is_none())
            || self
                .last_recovery_done
                .is_some_and(|t| now.since(t) <= STALL_AGE)
            || self.services.iter().any(recovering)
    }

    /// Restarts service `idx` on a complaint-class defect: marks the
    /// pending reason and kills it so the policy restart runs.
    // analyze:recovery
    fn restart_on_complaint(&mut self, ctx: &mut Ctx<'_>, idx: usize, why: String) {
        ctx.trace(TraceLevel::Warn, why);
        self.services[idx].pending_reason = Some(reason::COMPLAINT);
        self.kill_service(ctx, idx, false);
    }

    /// Convicts the accused service `idx`.
    // analyze:recovery
    fn convict(&mut self, ctx: &mut Ctx<'_>, idx: usize, why: String) {
        ctx.metrics().incr("rs.complaints.accepted");
        self.restart_on_complaint(ctx, idx, why);
    }

    /// Puts an `rs::COMPLAIN` message (defect class 5, §5.1) about the
    /// service named `name` (table entry `idx`) before the arbiter,
    /// reports and carries out the verdict, and returns the reply status.
    // analyze:recovery
    fn on_complaint(
        &mut self,
        ctx: &mut Ctx<'_>,
        source: Endpoint,
        complaint: rsp::Complain,
        name: &str,
        idx: Option<usize>,
    ) -> u64 {
        let kind = complaint.kind as u32;
        let accuser_idx = match self.slot_of(source) {
            Some(Role::Primary(a)) => Some(a),
            _ => None,
        };
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
    // analyze:recovery
    fn retire_spare(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        let Some(ep) = self.services[idx].take_spare() else {
            return;
        };
        ctx.metrics().incr("rs.standby.spares_retired");
        let name = &self.services[idx].cfg.program;
        ctx.trace(
            TraceLevel::Info,
            format!("retiring stale spare {ep} of {name}"),
        );
        self.kill(ctx, Role::Spare(idx), ep, false);
    }

    /// Starts the heartbeat epoch of service `idx`'s fresh primary:
    /// heartbeat chains and update escalations of earlier incarnations
    /// go stale. RS pings the primary from now, if it pings the service.
    // analyze:recovery
    fn arm_heartbeat(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        let svc = &mut self.services[idx];
        svc.hb_epoch = svc.hb_epoch.wrapping_add(1);
        if svc.cfg.heartbeat {
            let tok = token(TOK_HB, svc.hb_epoch, Role::Primary(idx));
            let _ = ctx.set_alarm(svc.cfg.params.heartbeat_period, tok);
        }
    }

    /// Promotes the warm spare to primary at defect time — failover, not
    /// restart+replay. Order matters: the checkpoint record is re-framed
    /// first (so the promoted incarnation's own saves pass the store's
    /// ghost check), then the spare is told to go live, then the new
    /// endpoint is published before dependents learn of it (§5.3).
    // analyze:recovery-root
    // analyze:recovery
    fn promote_spare(&mut self, ctx: &mut Ctx<'_>, idx: usize, ep: Endpoint) {
        let role = Role::Primary(idx);
        self.services[idx].primary.bind(ep);
        let svc = &self.services[idx];
        let name = &svc.cfg.program;
        ctx.metrics().incr("rs.standby.promotions");
        let message = format!("promoting warm spare {ep} to {name}");
        Subject(name, svc.primary.episode).emit(ctx, TraceLevel::Info, "promote", message, &[]);
        // Re-frame the stored snapshot with a clamped incarnation: the
        // spare lives in a younger slot generation than the dead
        // primary, so its first save would otherwise be ghost-rejected.
        let key = svc.cfg.program.clone();
        let promote = Message::new(ckpt::PROMOTE).with_data(key.into_bytes());
        if let Ok(call) = ctx.sendrec(self.ds, promote) {
            self.calls.insert(call, (Call::Promote, role));
        }
        // Tell the spare to go live: deferred device init, fault-port
        // publish under the primary name, stop tailing, adopt the
        // tailed watermark as warm state.
        let episode = self.services[idx].primary.episode;
        let (recovery, span) = (episode.map(|e| e.rid), episode.map(|e| e.span));
        let _ = ctx.send(ep, drv::Promote { recovery, span }.into_message());
        // Publish before dependents are notified (§5.3), verified like
        // any other publish.
        self.publish(ctx, role);
        self.close_episode(ctx, role, true);
        self.arm_heartbeat(ctx, idx);
        // Refill the spare slot behind the promoted incarnation.
        self.arm_restart(ctx, Role::Spare(idx), EXEC_LATENCY);
    }

    /// Steps every adapt rule once against the observed signal windows,
    /// writing through the [`PolicyParams`] of each service the rule
    /// binds (each step clamped to the rule's declared band) and
    /// mirroring the values into the services' `rs.adapt.*` gauges plus a
    /// per-parameter trajectory histogram that campaigns assert stays
    /// inside the clamp band.
    // analyze:recovery-root
    // analyze:recovery
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

    /// Binds incarnation `ep`, just started, to slot `role`, unless it is
    /// already dead.
    fn complete_start(&mut self, ctx: &mut Ctx<'_>, role: Role, ep: Endpoint) {
        // analyze:recovery
        if let Some(pos) = self.early_deaths.iter().position(|&d| d == ep) {
            // The fresh incarnation is already dead — it crashed between
            // its spawn and this reply (a mid-recovery kill). Reap it
            // instead of guarding a corpse.
            self.early_deaths.remove(pos);
            ctx.metrics().incr("rs.early_death_rescues");
            let name = self.name(role);
            ctx.trace(
                TraceLevel::Warn,
                format!("{name} incarnation {ep} died before start completed; re-running recovery"),
            );
            return self.reap(ctx, role, reason::KILLED);
        }
        if let Some(slot) = self.slot(role) {
            slot.bind(ep);
        }
        // analyze:recovery
        if role == Role::Pm {
            // Become the new incarnation's exit-report sink before any
            // child can die. PM_START calls in flight were aborted with
            // the old PM; their error replies re-arm the starts against
            // the new one.
            self.pm = ep;
            let _ = ctx.send(ep, Message::new(pm::REGISTER));
        }
        // Publish the new endpoint *before* dependents are notified — the
        // data store does both atomically from the subscribers' point of
        // view (§5.3) — and verify the acknowledgement comes back. DS
        // owner-authenticates PM's checkpoint saves and a spare's tail
        // reads against the published endpoint.
        self.publish(ctx, role);
        // analyze:recovery
        let recovered = self.close_episode(ctx, role, false);
        match role {
            Role::Primary(idx) => {
                if !recovered {
                    ctx.metrics().incr("rs.starts");
                    let name = &self.services[idx].cfg.program;
                    ctx.trace(TraceLevel::Info, format!("started {name} as {ep}"));
                }
                // analyze:recovery
                self.arm_heartbeat(ctx, idx);
                // A hot-standby service gets its warm spare as soon as the
                // primary is up (initial start and after every cold
                // restart).
                // analyze:recovery
                self.start(ctx, Role::Spare(idx));
            }
            // analyze:recovery
            Role::Spare(idx) => {
                ctx.metrics().incr("rs.standby.spares_started");
                let name = &self.services[idx].cfg.program;
                ctx.trace(
                    TraceLevel::Info,
                    format!("warm spare {ep} tailing for {name}"),
                );
                let period_us = SPARE_TAIL_PERIOD.as_micros();
                let _ = ctx.send(ep, drv::Standby { period_us }.into_message());
            }
            // analyze:recovery
            Role::Pm => {}
        }
    }

    /// PM defect entry point — recursive recovery. `dead` says whether
    /// the incarnation is already gone (audit or exit report) or RS must
    /// kill it first (stall, garbled replies).
    // analyze:recovery
    fn recover_pm(&mut self, ctx: &mut Ctx<'_>, defect: u8, dead: bool) {
        let Some(ep) = self.pm_slot.and_then(|s| s.endpoint()) else {
            return;
        };
        self.reap(ctx, Role::Pm, defect);
        if !dead {
            self.kill(ctx, Role::Pm, ep, false);
        }
    }

    /// Exit reports and heartbeat replies.
    // analyze:recovery
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: &Message) {
        if let Some(drv::Msg::HB_PONG(_)) = drv::Msg::decode(msg) {
            let role = self.slot_of(msg.source);
            if let Some(live) = role.and_then(|r| self.slot(r)?.live_mut()) {
                live.pings = 0;
            }
            return;
        }
        let Some(pm::Msg::SIGCHLD(exit)) = pm::Msg::decode(msg) else {
            return;
        };
        if let Some(role) = self.slot_of(exit.endpoint) {
            // Defect classes 1-3 (§5.1) from the exit kind.
            let observed = match u32::try_from(exit.reason) {
                Ok(pm::EXITED | pm::PANICKED) => reason::EXIT,
                Ok(pm::EXCEPTION) => reason::EXCEPTION,
                _ => reason::KILLED,
            };
            self.reap(ctx, role, observed);
        } else {
            // Not a currently-guarded endpoint: either a user
            // process (ignore) or an incarnation that died before RS
            // bound it. Remember it, so a later START_REPLY naming it
            // is recognized as an already-dead incarnation.
            if self.early_deaths.len() >= EARLY_DEATHS_CAP {
                self.early_deaths.pop_front();
            }
            self.early_deaths.push_back(exit.endpoint);
        }
    }

    fn on_alarm(&mut self, ctx: &mut Ctx<'_>, t: u64) {
        let (kind, seq, idx) = (t >> 40, (t >> 16) as u16, (t & 0xFFFF) as usize);
        let role = match (t >> 32) & 0xFF {
            0 => Role::Primary(idx),
            // analyze:recovery
            1 => Role::Spare(idx),
            _ => Role::Pm,
        };
        // The audit is table-free: it must run over an empty service
        // table too.
        // analyze:recovery
        if kind == TOK_AUDIT {
            return self.audit(ctx);
        }
        let Some(&mut slot) = self.slot(role) else {
            return;
        };
        match (kind, role) {
            // analyze:recovery
            (TOK_RESTART, _) if slot.state == SvcState::WaitRestart => self.start(ctx, role),
            // analyze:recovery
            (TOK_START_TIMEOUT, _) => self.start_timed_out(ctx, role, seq),
            // analyze:recovery
            (TOK_REPUBLISH, _) => self.republish(ctx, role, seq),
            // analyze:recovery
            (TOK_HB, Role::Primary(idx)) => self.heartbeat(ctx, idx, seq),
            // SIGTERM was ignored by the incarnation it was sent to;
            // escalate to SIGKILL.
            (TOK_ESCALATE, Role::Primary(idx))
                if slot.endpoint().is_some() && self.services[idx].hb_epoch == seq =>
            {
                self.kill_service(ctx, idx, false);
            }
            _ => {}
        }
    }

    /// One link of service `idx`'s heartbeat chain (defect class 4).
    // analyze:recovery
    fn heartbeat(&mut self, ctx: &mut Ctx<'_>, idx: usize, epoch: u16) {
        let svc = &mut self.services[idx];
        let SvcState::Up(live) = &mut svc.primary.state else {
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
        let _ = ctx.set_alarm(period, token(TOK_HB, epoch, Role::Primary(idx)));
    }

    /// Kills every incarnation of slot `role`'s program that the kernel
    /// runs, no slot holds and RS is not killing already: the spawn of a
    /// start whose reply was lost, which no reply or exit report would
    /// ever name. Allocates nothing when there is no orphan.
    // analyze:recovery
    fn reap_orphans(&mut self, ctx: &mut Ctx<'_>, role: Role) {
        let killing = |ep| {
            self.calls
                .values()
                .any(|(call, _)| matches!(*call, Call::Kill(e) if e == ep))
        };
        let orphans: Vec<Endpoint> = ctx
            .live_incarnations(self.name(role))
            .filter(|&ep| self.slot_of(ep).is_none() && !killing(ep))
            .collect();
        for orphan in orphans {
            ctx.metrics().incr("rs.orphans_reaped");
            let why = format!("killing orphan incarnation {orphan} of {}", self.name(role));
            ctx.trace(TraceLevel::Warn, why);
            self.kill(ctx, role, orphan, false);
        }
    }

    /// The start-call timeout of attempt `attempt` of slot `role` fired.
    /// An alarm of an earlier attempt is stale: a newer start may be in
    /// flight, its spawn not answered yet. For the current attempt — still
    /// in flight, answered, or abandoned by an operator DOWN — RS first
    /// reaps the slot's orphans; a start still in flight is then declared
    /// lost and retried.
    // analyze:recovery
    fn start_timed_out(&mut self, ctx: &mut Ctx<'_>, role: Role, attempt: u16) {
        let Some(slot) = self.slot(role).filter(|s| s.attempt == attempt) else {
            return;
        };
        let in_flight = matches!(slot.state, SvcState::Starting { .. });
        self.reap_orphans(ctx, role);
        let Some(slot) = self.slot(role).filter(|_| in_flight) else {
            return;
        };
        // The attempt is abandoned, not forgotten: its call stays open,
        // and a late success reply names a ghost to reap.
        slot.state = SvcState::Down;
        ctx.metrics().incr("rs.start_timeouts");
        let name = self.name(role);
        ctx.trace(
            TraceLevel::Warn,
            format!("start of {name} timed out; retrying"),
        );
        self.start(ctx, role);
    }

    /// The acknowledgement of publish attempt `attempt` of slot `role` is
    /// overdue: re-publish, within the retry budget.
    // analyze:recovery
    fn republish(&mut self, ctx: &mut Ctx<'_>, role: Role, attempt: u16) {
        // Stale alarm from an earlier publish attempt, or the incarnation
        // died meanwhile.
        let Some(live) = self.slot(role).and_then(Slot::live_mut) else {
            return;
        };
        let Some(attempts) = live.publish.filter(|&a| a as u16 == attempt) else {
            return;
        };
        if attempts >= MAX_PUBLISH_RETRIES {
            live.publish = None;
            ctx.metrics().incr("rs.publish_failed");
            ctx.metrics().incr("rs.alerts");
            let key = self.name(role);
            ctx.trace(
                TraceLevel::Error,
                format!("ALERT: cannot verify publish of {key} after {attempts} attempts"),
            );
            return;
        }
        let attempts = attempts + 1;
        live.publish = Some(attempts);
        ctx.metrics().incr("rs.publish_retries");
        let key = self.name(role);
        ctx.trace(
            TraceLevel::Warn,
            format!("re-publishing {key} (attempt {attempts})"),
        );
        self.publish(ctx, role);
    }

    /// The periodic liveness audit: catches lost exit notifications and
    /// silent stalls, and is RS's own sign of life.
    // analyze:recovery
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
        // request, silent to pings.
        if let Some(live) = self.pm_slot.as_mut().and_then(Slot::live_mut) {
            if !ctx.proc_alive(live.ep) {
                self.recover_pm(ctx, reason::EXIT, true);
            } else if !self.arbiter.disarmed && ctx.request_stalled(live.ep, STALL_AGE) {
                ctx.metrics()
                    .incr(evidence::complaint_counter(evidence::PROGRESS));
                self.recover_pm(ctx, reason::HEARTBEAT, false);
            } else if live.pings >= 3 {
                // Three audits without a pong: PM is alive per the kernel
                // but swallowing (or garbling) everything it is sent.
                ctx.metrics().incr("rs.pm_pings_missed");
                self.recover_pm(ctx, reason::HEARTBEAT, false);
            } else {
                live.pings += 1;
                let _ = ctx.send(live.ep, Message::new(drv::HB_PING));
            }
        }
        for i in 0..self.services.len() {
            self.audit_service(ctx, i);
        }
        // A START delayed past its retry's timeout spawns after both
        // reconciles; if its reply is lost too, only this sweep finds the
        // spawn. A slot with a start in flight may yet bind one.
        let services = 0..self.services.len();
        let roles = services.flat_map(|i| [Role::Primary(i), Role::Spare(i)]);
        for role in [Role::Pm].into_iter().chain(roles) {
            let state = self.slot(role).map(|s| s.state);
            if state.is_some_and(|state| !matches!(state, SvcState::Starting { .. })) {
                self.reap_orphans(ctx, role);
            }
        }
        let _ = ctx.set_alarm(AUDIT_PERIOD, token(TOK_AUDIT, 0, Role::Pm));
    }

    /// Whether slot `role` holds an incarnation the kernel no longer
    /// knows: a death whose exit report never made it, reaped here.
    // analyze:recovery
    fn audit_gone(&mut self, ctx: &mut Ctx<'_>, role: Role) -> bool {
        let Some(ep) = self.slot(role).and_then(|s| s.endpoint()) else {
            return false;
        };
        if ctx.proc_alive(ep) {
            return false;
        }
        ctx.metrics().incr("rs.audit_reaped");
        ctx.metrics().incr("rs.lost_sigchld");
        let name = self.name(role);
        ctx.trace(
            TraceLevel::Warn,
            format!("audit: {name} ({ep}) is gone but no exit report arrived"),
        );
        self.reap(ctx, role, reason::KILLED);
        true
    }

    /// Audits one supposedly-up service: its primary and its spare for
    /// lost exit reports, then a refill of an empty spare slot, then the
    /// kernel guards.
    // analyze:recovery
    fn audit_service(&mut self, ctx: &mut Ctx<'_>, i: usize) {
        let Some(ep) = self.services[i].endpoint() else {
            return;
        };
        if self.audit_gone(ctx, Role::Primary(i)) {
            return;
        }
        self.audit_gone(ctx, Role::Spare(i));
        self.start(ctx, Role::Spare(i));
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

    fn boot(&mut self, ctx: &mut Ctx<'_>) {
        if self.jitter.is_some() {
            return;
        }
        // Forking is a pure function of (seed, domain): jitter gets its
        // own stream without perturbing anyone else's draws.
        // analyze:recovery
        self.jitter = Some(ctx.rng().fork("rs-jitter"));
        // Every parameter RS reads is a gauge from boot, so campaign
        // digests always show each service's live table.
        // analyze:recovery
        let adapt = self.adapt.as_ref().map(|a| &a.script);
        // analyze:recovery
        for svc in &mut self.services {
            let cfg = &svc.cfg;
            let read = AdaptParam::ALL.into_iter().filter(|&p| cfg.reads(p, adapt));
            svc.gauges = read.map(|p| (p, p.gauge(&cfg.program))).collect();
            for (p, gauge) in &svc.gauges {
                ctx.metrics().set(gauge, p.read(&cfg.params));
            }
        }
        // Become PM's exit-report sink before any child can die.
        // analyze:recovery
        let _ = ctx.send(self.pm, Message::new(pm::REGISTER));
        // PM's checkpoint saves are owner-authenticated against the
        // published `pm` name; under the guard, publish it before the
        // first service start can make PM dirty.
        // analyze:recovery
        self.publish(ctx, Role::Pm);
        for idx in 0..self.services.len() {
            self.start(ctx, Role::Primary(idx));
        }
        // Periodic liveness audit: catches lost exit reports.
        // analyze:recovery
        let _ = ctx.set_alarm(AUDIT_PERIOD, token(TOK_AUDIT, 0, Role::Pm));
    }

    /// Reconciles the reply to one of RS's own calls.
    fn on_reply(&mut self, ctx: &mut Ctx<'_>, call: CallId, result: CallResult) {
        let Some((what, role)) = self.calls.remove(&call) else {
            return;
        };
        match what {
            Call::Start => self.start_replied(ctx, call, role, result),
            // analyze:recovery
            Call::Kill(ep) => self.kill_replied(ctx, role, ep, result),
            // analyze:recovery
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
                    let name = self.name(role);
                    ctx.trace(
                        TraceLevel::Warn,
                        format!("snapshot re-frame for promoted {name} not confirmed"),
                    );
                }
            },
            // analyze:recovery
            Call::Publish(ep) => {
                let ack = result.as_ref().ok().and_then(ds::Ack::from_message);
                if ack.is_some_and(|ack| ack.status == 0) {
                    // It verifies the publish of its own incarnation only.
                    let live = self.slot(role).and_then(Slot::live_mut);
                    if live
                        .filter(|l| l.ep == ep)
                        .and_then(|l| l.publish.take())
                        .is_some()
                    {
                        ctx.metrics().incr("rs.publish_verified");
                    }
                } else {
                    // Bad status or aborted call: leave the pending record;
                    // the re-publish alarm will retry.
                    let key = self.name(role);
                    ctx.trace(
                        TraceLevel::Warn,
                        format!("publish of {key} not acknowledged cleanly"),
                    );
                }
            }
        }
    }

    /// The reply to PM_START call `call` of slot `role`. A call that is
    /// no longer the slot's current start names a ghost: RS kills it,
    /// unless it is the very incarnation the slot runs (a timeout that
    /// raced its reply) or one the kernel no longer runs (reaped as an
    /// orphan when the timeout fired). A START delayed past the timeout
    /// spawns after that reconcile, so only its reply, or the next audit,
    /// can name it.
    fn start_replied(&mut self, ctx: &mut Ctx<'_>, call: CallId, role: Role, result: CallResult) {
        let reply = result.as_ref().ok().and_then(pm::StartReply::from_message);
        let started = reply.filter(|r| r.status == pm_status::OK);
        let started = started.map(|r| r.endpoint);
        let Some(&mut slot) = self.slot(role) else {
            return;
        };
        // analyze:recovery
        if !matches!(slot.state, SvcState::Starting { call: c } if c == call) {
            let ghost = started.filter(|&ep| slot.endpoint() != Some(ep) && ctx.proc_alive(ep));
            if let Some(ghost) = ghost {
                ctx.metrics().incr("rs.ghost_kills");
                ctx.trace(
                    TraceLevel::Warn,
                    format!("killing ghost incarnation {ghost} from an abandoned start"),
                );
                self.kill(ctx, role, ghost, false);
            }
            return;
        }
        if let Some(ep) = started {
            return self.complete_start(ctx, role, ep);
        }
        let name = self.name(role);
        match (reply, result) {
            (Some(reply), _) => {
                // A well-formed failure status (unknown program, denied)
                // is PM telling the truth: the program cannot run. For a
                // spare, most likely no `standby.<program>` entry: the
                // service runs without one.
                let counter = match role {
                    // analyze:recovery
                    Role::Spare(_) => "rs.standby.unavailable",
                    _ => "rs.gave_up",
                };
                ctx.metrics().incr(counter);
                let status = reply.status;
                ctx.trace(
                    TraceLevel::Error,
                    format!("failed to start {name}: status {status}"),
                );
                if let Some(slot) = self.slot(role) {
                    slot.state = SvcState::GivenUp;
                }
            }
            // analyze:recovery
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
                self.arm_restart(ctx, role, RETRY_DELAY);
                self.recover_pm(ctx, reason::COMPLAINT, false);
            }
            // analyze:recovery
            (None, Err(_)) => {
                // The rendezvous aborted: PM died with the call open. PM
                // recovery (exit report or audit) runs in parallel.
                ctx.metrics().incr("rs.start_aborted");
                let why = format!("start of {name} aborted by PM death; will retry");
                self.pm_lost(ctx, role, why);
            }
        }
    }

    /// The reply to an RS kill of incarnation `ep` of slot `role`.
    // analyze:recovery
    fn kill_replied(&mut self, ctx: &mut Ctx<'_>, role: Role, ep: Endpoint, result: CallResult) {
        let Ok(reply) = result else { return };
        let Some(reply) = pm::KillReply::from_message(&reply) else {
            // Garbled kill reply: a PM defect. The kill's real outcome is
            // unknown; the liveness audit reconciles the target either
            // way.
            ctx.metrics().incr("rs.pm_garbled_replies");
            return self.recover_pm(ctx, reason::COMPLAINT, false);
        };
        let current = self.slot(role).and_then(|s| s.endpoint()) == Some(ep);
        if reply.status == pm_status::NO_PROCESS && current {
            // PM said NO_PROCESS about the incarnation RS still guards:
            // its exit report was lost. Synthesize the defect rather than
            // wait for the audit.
            ctx.metrics().incr("rs.lost_sigchld");
            let name = self.name(role);
            ctx.trace(
                TraceLevel::Warn,
                format!("{name} already dead at kill time; synthesizing defect"),
            );
            self.reap(ctx, role, reason::KILLED);
        }
    }

    /// The `service` utility's commands and complaints (defect classes 3,
    /// 5 and 6).
    fn on_request(&mut self, ctx: &mut Ctx<'_>, call: CallId, msg: &Message) {
        let name = String::from_utf8_lossy(&msg.data).to_string();
        let idx = self.service_named(&name);
        let mut st = 0u64;
        match (rsp::Msg::decode(msg), idx) {
            (Some(rsp::Msg::UP), Some(i)) => self.start_by_operator(ctx, i),
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
                    let _ =
                        ctx.set_alarm(UPDATE_GRACE, token(TOK_ESCALATE, epoch, Role::Primary(i)));
                } else {
                    self.start(ctx, Role::Primary(i));
                }
            }
            // Stopped on the operator's word: no recovery runs until an
            // UP. The operator wins over a start in flight, whose reply
            // names a ghost.
            (Some(rsp::Msg::DOWN), Some(i)) => {
                self.kill_service(ctx, i, false);
                self.services[i].stop(SvcState::GivenUp);
            }
            // Defect class 5: an authorized server reports a protocol
            // violation; RS arbitrates (§5.1).
            // analyze:recovery
            (Some(rsp::Msg::COMPLAIN(c)), i) => {
                st = self.on_complaint(ctx, msg.source, c, &name, i);
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
        // analyze:recovery
        if svc.primary.state == SvcState::GivenUp {
            svc.primary.state = SvcState::Down;
            svc.restarts.operator_override();
        }
        self.start(ctx, Role::Primary(i));
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
            // analyze:recovery
            ProcEvent::ChildExited(exit) if self.slot_of(exit.endpoint) == Some(Role::Pm) => {
                let defect = match exit.reason {
                    ExitReason::Exception(_) => reason::EXCEPTION,
                    _ => reason::EXIT,
                };
                self.reap(ctx, Role::Pm, defect);
            }
            // analyze:recovery
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
