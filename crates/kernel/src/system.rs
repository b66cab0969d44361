//! The kernel proper: process table, IPC, signals, alarms, IRQ routing, and
//! the event-dispatch loop.
//!
//! [`System`] owns all kernel state and the event queue. The composition
//! layer (the *machine*) drives it with [`System::step`], passing in the
//! hardware [`Platform`]. Process handlers run to completion and perform
//! system calls through [`Ctx`].

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use phoenix_simcore::event::EventQueue;
use phoenix_simcore::metrics::MetricsRegistry;
use phoenix_simcore::rng::SimRng;
use phoenix_simcore::time::{SimDuration, SimTime};
use phoenix_simcore::trace::{SpanId, TraceEvent, TraceLevel, TraceRing};

use crate::authority::{AuthorityUsage, UsageSlot};
use crate::chaos::{ChaosInterposer, ChaosVerdict, IpcClass, IpcEnvelope};
use crate::memory::{GrantAccess, GrantId, IommuWindow, MemoryPool};
use crate::platform::{HwCtx, HwSideEffect, Platform};
use crate::privileges::{KernelCall, Privileges};
use crate::process::{ProcEvent, Process, ProgramFactory};
use crate::types::{
    AlarmId, CallId, DeviceId, Endpoint, ExceptionKind, ExitReason, ExitStatus, IpcError, IrqLine,
    KernelError, KillOrigin, Message, Signal, Slot,
};

/// Latency of message/notification delivery (MINIX IPC is a few
/// microseconds on 2007 hardware).
const IPC_LATENCY: SimDuration = SimDuration::from_micros(2);
/// Latency from IRQ assertion to driver notification.
const IRQ_LATENCY: SimDuration = SimDuration::from_micros(1);
/// Trace ring capacity.
const TRACE_CAPACITY: usize = 65_536;
/// Max sends + notifies one endpoint may originate within a single
/// handler dispatch before it is flagged as babbling. Sized well above
/// any legitimate burst (a full 48-page rx-ring drain is ~12 frames) and
/// well below the spray a corrupted ring pointer produces (48 per
/// interrupt).
// analyze:recovery
const BABBLE_DISPATCH_BUDGET: u32 = 24;
/// Max replies one endpoint may issue within [`BABBLE_WINDOW`] before it
/// is flagged (livelocked reply storm).
// analyze:recovery
const BABBLE_REPLY_BUDGET: u32 = 5_000;
/// Sliding-window length for the reply-rate budget.
// analyze:recovery
const BABBLE_WINDOW: SimDuration = SimDuration::from_millis(100);

/// What a run chooses about its kernel; everything else is a constant
/// above.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Root seed for all randomness in the run.
    pub seed: u64,
    /// Whether the babble guard observes the IPC fabric. The guard only
    /// *flags* endpoints (queried via [`Ctx::babble_flagged`]); it never
    /// suppresses delivery, so enabling it cannot change a run's event
    /// stream.
    pub babble_guard: bool,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            seed: 0xDEAD_BEEF,
            babble_guard: true,
        }
    }
}

/// Events flowing through the kernel's queue.
enum SysEvent {
    Deliver {
        to: Endpoint,
        item: ProcEvent,
    },
    DevTimer {
        dev: DeviceId,
        token: u64,
    },
    External {
        channel: u64,
        payload: Vec<u8>,
    },
    /// A chaos-plan scheduled kill of a fresh incarnation (crash during
    /// recovery). Ignored if the incarnation already died.
    ChaosKill {
        ep: Endpoint,
    },
    /// An alarm firing: delivers [`ProcEvent::Alarm`] to its owner. While
    /// it is pending, this entry of the queue is all the kernel keeps of it.
    Alarm {
        to: Endpoint,
        token: u64,
    },
}

impl SysEvent {
    /// Whether this is a pending alarm `ep` set: what entitles `ep` to
    /// cancel it, and what dooms it when `ep` dies.
    fn is_alarm_of(&self, ep: Endpoint) -> bool {
        matches!(self, SysEvent::Alarm { to, .. } if *to == ep)
    }
}

/// One incarnation, with the kernel state that concerns it alone — its
/// ledger row, IPC stamp, babble window and the calls it owes — so that a
/// system call touches only its own slot and its destination's, and that
/// state dies with the slot.
struct LiveProc {
    /// Interned at spawn: every dispatch, privilege check and chaos
    /// envelope of this incarnation borrows or ref-counts this one copy.
    name: Rc<str>,
    /// The name's row of the authority ledger, resolved at spawn.
    usage: UsageSlot,
    endpoint: Endpoint,
    parent: Option<Endpoint>,
    /// The table it was exec'd with, shared with its program's registry
    /// entry until that entry is adjusted.
    privileges: Rc<Privileges>,
    handler: Option<Box<dyn Process>>,
    stuck: bool,
    program: Option<String>,
    program_version: u32,
    /// Last time it attempted any IPC (send, sendrec, reply, notify). The
    /// progress watchdog uses this to tell a wedged callee — one that
    /// swallows requests and talks to no one — from a callee that is
    /// merely slow: the latter keeps issuing IPC (driver retries,
    /// downstream calls) while its callers' requests age.
    last_ipc: Option<SimTime>,
    /// Its reply-rate window for the babble guard: (window start, replies
    /// so far).
    reply_window: Option<(SimTime, u32)>,
    /// Why the babble guard flagged it, once it has.
    babble: Option<&'static str>,
    /// The calls it must answer, in [`CallId`] order.
    owed: Vec<OpenCall>,
}

enum SlotState {
    Free,
    Live(Box<LiveProc>),
}

/// The live process at `ep`, if `ep` is its current incarnation. Takes the
/// slot table rather than the [`System`] so a caller can hold the answer
/// while it mutates the kernel's other tables.
fn live_in(slots: &[SlotState], ep: Endpoint) -> Option<&LiveProc> {
    match slots.get(ep.slot() as usize) {
        Some(SlotState::Live(p)) if p.endpoint == ep => Some(p),
        _ => None,
    }
}

/// [`live_in`], for writing.
fn live_in_mut(slots: &mut [SlotState], ep: Endpoint) -> Option<&mut LiveProc> {
    match slots.get_mut(ep.slot() as usize) {
        Some(SlotState::Live(p)) if p.endpoint == ep => Some(p),
        _ => None,
    }
}

/// A rendezvous the callee owes an answer: it sits in the callee's
/// [`LiveProc::owed`].
struct OpenCall {
    id: CallId,
    caller: Endpoint,
    /// When the rendezvous opened; the progress watchdog compares this
    /// against the stall threshold (see [`Ctx::request_stalled`]).
    opened_at: SimTime,
}

struct ProgramEntry {
    /// What the next spawn is granted: each incarnation shares it.
    privileges: Rc<Privileges>,
    factories: Vec<ProgramFactory>,
}

/// Result of one [`System::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepStatus {
    /// An event was dispatched.
    Progress,
    /// The queue is empty.
    Idle,
}

/// The microkernel: process table, IPC, memory, alarms, IRQs, event loop.
pub struct System {
    cfg: SystemConfig,
    queue: EventQueue<SysEvent>,
    slots: Vec<SlotState>,
    generations: Vec<u32>,
    next_call: u64,
    irq_handlers: BTreeMap<IrqLine, Endpoint>,
    programs: BTreeMap<String, ProgramEntry>,
    /// The authority ledger; each incarnation carries its row
    /// (`LiveProc::usage`).
    usage: AuthorityUsage,
    mem: MemoryPool,
    trace: TraceRing,
    metrics: MetricsRegistry,
    rng: SimRng,
    chaos: Option<Box<dyn ChaosInterposer>>,
    chaos_rng: SimRng,
    /// The side-effect buffer every hardware call fills and
    /// [`System::apply_fx`] drains: taken, used and put back, so its
    /// capacity is allocated once per kernel.
    fx_scratch: Vec<HwSideEffect>,
    /// Endpoint currently being dispatched, with the number of sends +
    /// notifies it has originated within this dispatch (babble guard).
    cur_dispatch: Option<(Endpoint, u32)>,
    /// Names of processes with *sticky slots*: system servers whose
    /// address, as far as clients are concerned, survives a microreboot.
    /// IPC aimed at a dead incarnation of a sticky name is transparently
    /// redirected to the live incarnation (clients keep their cached
    /// endpoint across server restarts; MINIX pins server slots for the
    /// same reason).
    sticky_names: BTreeSet<String>,
    /// Dead incarnations of sticky names, recorded at death so a stale
    /// endpoint can be mapped back to the name it served.
    retired_sticky: BTreeMap<Endpoint, String>,
    /// Child-exit reports whose (sticky) parent was down at delivery
    /// time, buffered per parent name and flushed when the replacement
    /// incarnation spawns — a PM microreboot must not lose SIGCHLDs.
    orphaned_reports: BTreeMap<String, Vec<ProcEvent>>,
}

impl System {
    /// Creates a kernel with the given configuration.
    pub fn new(cfg: SystemConfig) -> Self {
        // analyze:allow(rng-construction): the root RNG of the run; every
        // other stream in the system forks from this one.
        let rng = SimRng::new(cfg.seed);
        // Chaos draws from its own forked stream so installing or removing
        // a plan never perturbs the randomness the rest of the run sees.
        let chaos_rng = rng.fork("kernel-chaos");
        let trace = TraceRing::new(TRACE_CAPACITY);
        System {
            cfg,
            queue: EventQueue::new(),
            slots: Vec::new(),
            generations: Vec::new(),
            next_call: 1,
            irq_handlers: BTreeMap::new(),
            programs: BTreeMap::new(),
            usage: AuthorityUsage::new(),
            mem: MemoryPool::new(),
            trace,
            metrics: MetricsRegistry::new(),
            rng,
            chaos: None,
            chaos_rng,
            fx_scratch: Vec::new(),
            cur_dispatch: None,
            sticky_names: BTreeSet::new(),
            retired_sticky: BTreeMap::new(),
            orphaned_reports: BTreeMap::new(),
        }
    }

    /// Declares `name` a sticky-slot process (see [`System::resolve_sticky`]).
    pub fn mark_sticky(&mut self, name: &str) {
        self.sticky_names.insert(name.to_string());
    }

    /// Maps a possibly-stale endpoint of a sticky name to the live
    /// incarnation serving that name. Live endpoints (and non-sticky dead
    /// ones) pass through unchanged.
    fn resolve_sticky(&mut self, dst: Endpoint) -> Endpoint {
        if self.is_live(dst) {
            return dst;
        }
        let Some(name) = self.retired_sticky.get(&dst) else {
            return dst;
        };
        match self.endpoint_by_name(name) {
            Some(live) => {
                self.metrics.incr("kernel.sticky_redirects");
                live
            }
            None => dst,
        }
    }

    /// Installs a chaos interposer on the IPC fabric. Replaces any plan
    /// already installed.
    pub fn set_chaos(&mut self, plan: Box<dyn ChaosInterposer>) {
        self.trace.emit(
            self.now(),
            TraceLevel::Warn,
            "kernel",
            "chaos interposer installed".to_string(),
        );
        self.chaos = Some(plan);
    }

    /// Removes the chaos interposer; subsequent IPC is delivered normally.
    pub fn clear_chaos(&mut self) {
        if self.chaos.take().is_some() {
            self.trace.emit(
                self.now(),
                TraceLevel::Warn,
                "kernel",
                "chaos interposer removed".to_string(),
            );
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// The execution trace (shared by all components).
    pub fn trace(&self) -> &TraceRing {
        &self.trace
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Mutable metrics access.
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// The kernel's memory pool (address spaces, grants, IOMMU).
    pub fn memory(&self) -> &MemoryPool {
        &self.mem
    }

    /// Observed authority per component (IPC destinations, kernel calls,
    /// devices, IRQ lines actually exercised), keyed by stable name.
    ///
    /// Recording happens at the privilege-check hook points, so only
    /// *permitted* operations are counted: a denied attempt is not
    /// authority the component holds. Replies are not recorded either —
    /// the incoming request is the capability, not the privilege table.
    pub fn authority_usage(&self) -> &AuthorityUsage {
        &self.usage
    }

    /// Declared privilege tables keyed by stable name: every live process,
    /// overlaid with the program registry (the registry wins — it is what a
    /// restarted incarnation will be granted).
    pub fn declared_privileges(&self) -> BTreeMap<String, Privileges> {
        let mut out = BTreeMap::new();
        for p in self.live() {
            out.insert(p.name.to_string(), Privileges::clone(&p.privileges));
        }
        for (name, entry) in &self.programs {
            out.insert(name.clone(), Privileges::clone(&entry.privileges));
        }
        out
    }

    /// Names of all registered program images, in name order.
    pub fn registered_programs(&self) -> Vec<String> {
        self.programs.keys().cloned().collect()
    }

    // ------------------------------------------------------------------
    // Program registry (binary images)
    // ------------------------------------------------------------------

    /// Registers a program image under `name` with the privileges it will
    /// be granted when executed.
    pub fn register_program(
        &mut self,
        name: &str,
        privileges: Privileges,
        factory: ProgramFactory,
    ) {
        match self.programs.get_mut(name) {
            Some(entry) => {
                entry.privileges = Rc::new(privileges);
                entry.factories.push(factory);
            }
            None => {
                let entry = ProgramEntry {
                    privileges: Rc::new(privileges),
                    factories: vec![factory],
                };
                self.programs.insert(name.to_string(), entry);
            }
        }
    }

    /// Applies `f` to the privilege table a program's future incarnations
    /// will be granted. Returns `false` if no such program is registered.
    ///
    /// Already-running incarnations keep their current table (as in MINIX,
    /// privileges are bound at exec time): the entry's table is copied
    /// before it is changed while an incarnation shares it. Used by the
    /// audit harness to seed deliberate over-grants.
    pub fn adjust_program_privileges(
        &mut self,
        name: &str,
        f: impl FnOnce(&mut Privileges),
    ) -> bool {
        match self.programs.get_mut(name) {
            Some(entry) => {
                f(Rc::make_mut(&mut entry.privileges));
                true
            }
            None => false,
        }
    }

    /// Registers a *new version* of an existing program (dynamic update).
    ///
    /// # Errors
    ///
    /// Fails with [`KernelError::NoSuchProgram`] if the program was never
    /// registered.
    pub fn update_program(
        &mut self,
        name: &str,
        factory: ProgramFactory,
    ) -> Result<u32, KernelError> {
        let entry = self
            .programs
            .get_mut(name)
            .ok_or(KernelError::NoSuchProgram)?;
        entry.factories.push(factory);
        Ok(entry.factories.len() as u32)
    }

    /// Latest registered version number of a program (1-based).
    pub fn program_version(&self, name: &str) -> Option<u32> {
        self.programs.get(name).map(|e| e.factories.len() as u32)
    }

    // ------------------------------------------------------------------
    // Process lifecycle
    // ------------------------------------------------------------------

    fn find_free_slot(&mut self) -> Slot {
        for (i, s) in self.slots.iter().enumerate() {
            if matches!(s, SlotState::Free) {
                return i as Slot;
            }
        }
        self.slots.push(SlotState::Free);
        self.generations.push(0);
        (self.slots.len() - 1) as Slot
    }

    /// Slot for a new process named `name`. Sticky names reclaim the slot
    /// they last occupied (if still free): the endpoint generation then
    /// grows monotonically across server incarnations, which the
    /// checkpoint store's ghost-incarnation check relies on.
    fn find_slot_for(&mut self, name: &str) -> Slot {
        if self.sticky_names.contains(name) {
            let prev = self.retired_sticky.iter().find_map(|(ep, n)| {
                (n == name && matches!(self.slots.get(ep.slot() as usize), Some(SlotState::Free)))
                    .then(|| ep.slot())
            });
            if let Some(slot) = prev {
                return slot;
            }
        }
        self.find_free_slot()
    }

    fn spawn_internal(
        &mut self,
        name: &str,
        parent: Option<Endpoint>,
        privileges: Rc<Privileges>,
        handler: Box<dyn Process>,
        program: Option<(String, u32)>,
    ) -> Endpoint {
        let slot = self.find_slot_for(name);
        self.generations[slot as usize] += 1;
        let ep = Endpoint::new(slot, self.generations[slot as usize]);
        self.mem.attach(ep, privileges.address_space);
        let (prog, ver) = match program {
            Some((p, v)) => (Some(p), v),
            None => (None, 0),
        };
        self.slots[slot as usize] = SlotState::Live(Box::new(LiveProc {
            name: Rc::from(name),
            usage: self.usage.slot(name),
            endpoint: ep,
            parent,
            privileges,
            handler: Some(handler),
            stuck: false,
            program: prog,
            program_version: ver,
            last_ipc: None,
            reply_window: None,
            babble: None,
            owed: Vec::new(),
        }));
        let spawn_ev = TraceEvent::new(
            self.now(),
            TraceLevel::Info,
            "kernel",
            format!("spawn {name} as {ep}"),
        )
        .with_field("ev", "spawn")
        .with_field("proc", name);
        self.trace.emit_event(spawn_ev);
        self.metrics.incr("kernel.spawns");
        self.queue.schedule_now(SysEvent::Deliver {
            to: ep,
            item: ProcEvent::Start,
        });
        // Flush child-exit reports buffered while this (sticky) name was
        // down — delivered after Start so the handler is initialized.
        if let Some(reports) = self.orphaned_reports.remove(name) {
            for item in reports {
                self.queue
                    .schedule_after(IPC_LATENCY, SysEvent::Deliver { to: ep, item });
            }
        }
        // Give an installed chaos plan the chance to kill this incarnation
        // shortly after birth — if the spawn is a recovery, that is a crash
        // *during* recovery, which RS must absorb.
        if let Some(mut chaos) = self.chaos.take() {
            let now = self.now();
            let verdict = chaos.on_spawn(now, name, ep, &mut self.chaos_rng);
            self.chaos = Some(chaos);
            if let Some(delay) = verdict {
                self.trace.emit(
                    now,
                    TraceLevel::Warn,
                    "chaos",
                    format!("scheduling kill of {name} ({ep}) {delay} after spawn"),
                );
                self.queue.schedule_after(delay, SysEvent::ChaosKill { ep });
            }
        }
        ep
    }

    /// Creates a process at boot time (used by the machine for the trusted
    /// base: PM, RS, DS, VFS, MFS, INET and initial applications).
    pub fn spawn_boot(
        &mut self,
        name: &str,
        privileges: Privileges,
        handler: Box<dyn Process>,
    ) -> Endpoint {
        self.spawn_internal(name, None, Rc::new(privileges), handler, None)
    }

    /// Kills a process on behalf of an interactive user (`kill -9`),
    /// defect class 3 of §5.1. Returns `false` if the endpoint is stale.
    pub fn kill_by_user(&mut self, ep: Endpoint, signal: Signal) -> bool {
        if !self.is_live(ep) {
            return false;
        }
        match signal {
            Signal::Kill => {
                self.destroy(ep, ExitReason::Signaled(Signal::Kill, KillOrigin::User));
            }
            Signal::Term => {
                self.queue.schedule_after(
                    IPC_LATENCY,
                    SysEvent::Deliver {
                        to: ep,
                        item: ProcEvent::Signal(Signal::Term),
                    },
                );
            }
        }
        true
    }

    /// Whether `ep` refers to the current incarnation of a live process.
    pub fn is_live(&self, ep: Endpoint) -> bool {
        live_in(&self.slots, ep).is_some()
    }

    /// Whether the process at `ep` is stuck (unresponsive but not dead).
    pub fn is_stuck(&self, ep: Endpoint) -> bool {
        live_in(&self.slots, ep).is_some_and(|p| p.stuck)
    }

    /// Endpoint of the live process named `name`, if any.
    ///
    /// This is a machine/test convenience; components themselves must use
    /// the data store for naming, as the paper prescribes.
    pub fn endpoint_by_name(&self, name: &str) -> Option<Endpoint> {
        self.live().find(|p| &*p.name == name).map(|p| p.endpoint)
    }

    /// Name of the live process at `ep`, if any.
    pub fn name_of(&self, ep: Endpoint) -> Option<&str> {
        live_in(&self.slots, ep).map(|p| &*p.name)
    }

    /// [`System::name_of`] as a trace line spells it: owned, `?` for a
    /// dead endpoint.
    fn traced_name(&self, ep: Endpoint) -> String {
        self.name_of(ep).unwrap_or("?").to_string()
    }

    /// Program version the process at `ep` was executed from (0 for boot
    /// processes, 1-based for program-spawned ones).
    pub fn version_of(&self, ep: Endpoint) -> Option<u32> {
        live_in(&self.slots, ep).map(|p| p.program_version)
    }

    /// Program name the process at `ep` was executed from, if any.
    pub fn program_of(&self, ep: Endpoint) -> Option<&str> {
        live_in(&self.slots, ep)?.program.as_deref()
    }

    /// Names and endpoints of all live processes, in slot order.
    pub fn live_processes(&self) -> Vec<(String, Endpoint)> {
        let live = self.live().map(|p| (p.name.to_string(), p.endpoint));
        live.collect()
    }

    /// Every live process, in slot order.
    fn live(&self) -> impl Iterator<Item = &LiveProc> {
        self.slots.iter().filter_map(|s| match s {
            SlotState::Live(p) => Some(&**p),
            SlotState::Free => None,
        })
    }

    fn destroy(&mut self, ep: Endpoint, reason: ExitReason) {
        if !self.is_live(ep) {
            return;
        }
        // Everything the kernel keeps about this incarnation alone leaves
        // with its slot; of that, only the calls it owed need an answer.
        let SlotState::Live(dead) =
            std::mem::replace(&mut self.slots[ep.slot() as usize], SlotState::Free)
        else {
            return;
        };
        let (name, parent, owed) = (dead.name, dead.parent, dead.owed);
        // The structured `death` event anchors an episode's detection
        // latency: the timeline analyzer pairs it with the RS `defect`
        // event for the same process name (the kernel cannot know the
        // recovery id — it is minted later, by RS, when it notices).
        let death_ev = TraceEvent::new(
            self.now(),
            TraceLevel::Warn,
            "kernel",
            format!("process {name} ({ep}) died: {reason:?}"),
        )
        .with_field("ev", "death")
        .with_field("proc", &*name)
        .with_field("reason", format!("{reason:?}"));
        self.trace.emit_event(death_ev);
        self.metrics.incr("kernel.deaths");
        if self.sticky_names.contains(&*name) {
            self.retired_sticky.insert(ep, name.to_string());
        }
        self.mem.detach(ep);
        self.irq_handlers.retain(|_, h| *h != ep);
        self.queue.cancel_where(|ev| ev.is_alarm_of(ep));
        // Abort the rendezvous the dead process owed, in call order: the
        // kernel tells each caller the call failed (EDEADSRCDST). This is
        // what lets the file server mark requests pending (§6.2).
        for OpenCall { id, caller, .. } in owed {
            self.metrics.incr("ipc.aborted_calls");
            let caller_name = self.traced_name(caller);
            let abort_ev = TraceEvent::new(
                self.now(),
                TraceLevel::Info,
                "kernel",
                format!("abort rendezvous: {caller_name} called dead {name}"),
            )
            .with_field("ev", "abort")
            .with_field("caller", caller_name.as_str())
            .with_field("callee", &*name);
            self.trace.emit_event(abort_ev);
            self.queue.schedule_after(
                IPC_LATENCY,
                SysEvent::Deliver {
                    to: caller,
                    item: ProcEvent::Reply {
                        call: id,
                        result: Err(IpcError::DeadDestination),
                    },
                },
            );
        }
        // Calls the dead process had outstanding stay open in their
        // callees' `owed` so the eventual reply gets EDEADSRCDST (the
        // caller is gone), mirroring MINIX semantics; they are reaped when
        // the callee replies or dies.
        // POSIX-style exit notification to the parent (PM), which the
        // reincarnation server relies on for defect classes 1-3.
        if let Some(parent) = parent {
            let status = ExitStatus {
                endpoint: ep,
                name: name.to_string(),
                reason,
            };
            self.queue.schedule_after(
                IPC_LATENCY,
                SysEvent::Deliver {
                    to: parent,
                    item: ProcEvent::ChildExited(status),
                },
            );
        }
    }

    // ------------------------------------------------------------------
    // Event loop
    // ------------------------------------------------------------------

    /// Schedules a machine-level external event (wire deliveries, workload
    /// arrivals) to be handed back to [`Platform::external`].
    pub fn schedule_external(&mut self, after: SimDuration, channel: u64, payload: Vec<u8>) {
        self.queue
            .schedule_after(after, SysEvent::External { channel, payload });
    }

    /// Dispatches the next event. Returns [`StepStatus::Idle`] when the
    /// queue is empty.
    pub fn step(&mut self, platform: &mut dyn Platform) -> StepStatus {
        let Some((_, ev)) = self.queue.pop() else {
            return StepStatus::Idle;
        };
        self.handle(platform, ev);
        StepStatus::Progress
    }

    fn handle(&mut self, platform: &mut dyn Platform, ev: SysEvent) {
        match ev {
            SysEvent::Deliver { to, item } => self.dispatch(platform, to, item),
            SysEvent::Alarm { to, token } => {
                self.dispatch(platform, to, ProcEvent::Alarm { token });
            }
            SysEvent::DevTimer { dev, token } => {
                self.with_hw(|hw| platform.timer(dev, token, hw));
            }
            SysEvent::External { channel, payload } => {
                self.with_hw(|hw| platform.external(channel, payload, hw));
            }
            SysEvent::ChaosKill { ep } => {
                if self.is_live(ep) {
                    self.metrics.incr("chaos.kills");
                    self.destroy(ep, ExitReason::Signaled(Signal::Kill, KillOrigin::User));
                }
            }
        }
    }

    /// Runs one hardware call against the kernel's memory, RNG and the
    /// scratch side-effect buffer, then applies what the device asked for.
    fn with_hw<R>(&mut self, call: impl FnOnce(&mut HwCtx<'_>) -> R) -> R {
        let mut fx = std::mem::take(&mut self.fx_scratch);
        let now = self.queue.now();
        let out = call(&mut HwCtx::new(now, &mut self.mem, &mut self.rng, &mut fx));
        self.apply_fx(&mut fx);
        self.fx_scratch = fx;
        out
    }

    /// Runs until the queue is idle or `max_events` were dispatched.
    /// Returns the number of events dispatched.
    pub fn run_until_idle(&mut self, platform: &mut dyn Platform, max_events: u64) -> u64 {
        let mut n = 0;
        while n < max_events && self.step(platform) == StepStatus::Progress {
            n += 1;
        }
        n
    }

    /// Runs all events up to and including time `t`, then advances the
    /// clock to exactly `t`.
    pub fn run_until(&mut self, platform: &mut dyn Platform, t: SimTime) {
        while let Some((_, ev)) = self.queue.pop_due(t) {
            self.handle(platform, ev);
        }
        if self.queue.now() < t {
            self.queue.advance_to(t);
        }
    }

    fn apply_fx(&mut self, fx: &mut Vec<HwSideEffect>) {
        for f in fx.drain(..) {
            match f {
                HwSideEffect::RaiseIrq(line) => match self.irq_handlers.get(&line) {
                    Some(&ep) => {
                        self.metrics.incr("irq.delivered");
                        self.queue.schedule_after(
                            IRQ_LATENCY,
                            SysEvent::Deliver {
                                to: ep,
                                item: ProcEvent::Irq { line },
                            },
                        );
                    }
                    None => {
                        // No driver registered (e.g. it just crashed):
                        // the interrupt is lost, exactly like on real
                        // hardware with the line masked.
                        self.metrics.incr("irq.unhandled");
                    }
                },
                HwSideEffect::SetTimer { at, token } => {
                    // Device timers carry the device id in the token's high
                    // bits; see Ctx::devio_* which encodes it.
                    let dev = DeviceId((token >> 48) as u16);
                    let token = token & 0xFFFF_FFFF_FFFF;
                    self.queue
                        .schedule_at(at, SysEvent::DevTimer { dev, token });
                }
                HwSideEffect::External {
                    at,
                    channel,
                    payload,
                } => {
                    self.queue
                        .schedule_at(at, SysEvent::External { channel, payload });
                }
            }
        }
    }

    /// Funnel for all process-originated IPC deliveries (send, sendrec
    /// request, reply, notify). An installed chaos interposer judges each
    /// one; without chaos the delivery is scheduled after the IPC latency,
    /// unchanged.
    fn schedule_ipc(&mut self, from: Endpoint, to: Endpoint, item: ProcEvent) {
        let class = match &item {
            ProcEvent::Message(_) => IpcClass::Send,
            ProcEvent::Request { .. } => IpcClass::Request,
            ProcEvent::Reply { .. } => IpcClass::Reply,
            ProcEvent::Notify { .. } => IpcClass::Notify,
            // Non-IPC events never pass through this funnel.
            // analyze:allow(panic-reach): kernel TCB invariant — the match above is the
            // only caller-facing funnel; a non-IPC event here is kernel corruption, which
            // the paper's fault model (§3) places outside the recoverable set.
            _ => unreachable!("schedule_ipc called with a non-IPC event"),
        };
        // analyze:recovery
        if self.cfg.babble_guard {
            self.babble_account(from, class);
        }
        let Some(mut chaos) = self.chaos.take() else {
            self.queue
                .schedule_after(IPC_LATENCY, SysEvent::Deliver { to, item });
            return;
        };
        let name_in = |slots, ep| live_in(slots, ep).map_or("?", |p| &*p.name);
        let from_name = name_in(&self.slots, from);
        let to_name = name_in(&self.slots, to);
        let now = self.queue.now();
        let verdict = chaos.on_ipc(
            now,
            &IpcEnvelope {
                from,
                to,
                from_name,
                to_name,
                class,
            },
            &mut self.chaos_rng,
        );
        self.chaos = Some(chaos);
        match verdict {
            ChaosVerdict::Deliver => {
                self.queue
                    .schedule_after(IPC_LATENCY, SysEvent::Deliver { to, item });
            }
            ChaosVerdict::Drop => {
                self.metrics.incr("chaos.dropped");
                // A dropped request leaves the rendezvous open on purpose:
                // the caller experiences a lost message, not an abort.
                self.discard(item);
            }
            ChaosVerdict::Delay(extra) => {
                self.metrics.incr("chaos.delayed");
                self.queue
                    .schedule_after(IPC_LATENCY + extra, SysEvent::Deliver { to, item });
            }
            ChaosVerdict::Duplicate { extra_delay } => {
                self.metrics.incr("chaos.duplicated");
                self.queue.schedule_after(
                    IPC_LATENCY,
                    SysEvent::Deliver {
                        to,
                        item: item.clone(),
                    },
                );
                self.queue
                    .schedule_after(IPC_LATENCY + extra_delay, SysEvent::Deliver { to, item });
            }
            ChaosVerdict::Corrupt => {
                let mut item = item;
                let flipped = match &mut item {
                    ProcEvent::Message(m) | ProcEvent::Request { msg: m, .. } => {
                        Self::corrupt_message(m, &mut self.chaos_rng);
                        true
                    }
                    ProcEvent::Reply { result: Ok(m), .. } => {
                        Self::corrupt_message(m, &mut self.chaos_rng);
                        true
                    }
                    _ => false,
                };
                if flipped {
                    self.metrics.incr("chaos.corrupted");
                }
                self.queue
                    .schedule_after(IPC_LATENCY, SysEvent::Deliver { to, item });
            }
            ChaosVerdict::HoldUntil(release) => {
                self.metrics.incr("chaos.stalled");
                let at = std::cmp::max(now + IPC_LATENCY, release);
                self.queue.schedule_at(at, SysEvent::Deliver { to, item });
            }
        }
    }

    /// Babble-guard bookkeeping for one IPC origination. Purely
    /// observational: budgets are counted and endpoints flagged, but the
    /// delivery itself is untouched, so the guard can never perturb a
    /// run's event stream.
    // analyze:recovery
    fn babble_account(&mut self, from: Endpoint, class: IpcClass) {
        match class {
            IpcClass::Send | IpcClass::Notify => {
                if let Some((ep, count)) = self.cur_dispatch.as_mut() {
                    if *ep == from {
                        *count += 1;
                        if *count > BABBLE_DISPATCH_BUDGET {
                            self.flag_babble(from, "unsolicited-send burst");
                        }
                    }
                }
            }
            IpcClass::Reply => {
                let now = self.now();
                let Some(p) = live_in_mut(&mut self.slots, from) else {
                    return;
                };
                let window = p.reply_window.get_or_insert((now, 0));
                if now.since(window.0) > BABBLE_WINDOW {
                    *window = (now, 0);
                }
                window.1 += 1;
                if window.1 > BABBLE_REPLY_BUDGET {
                    self.flag_babble(from, "reply-rate over budget");
                }
            }
            IpcClass::Request => {}
        }
    }

    /// Marks `ep` as babbling (idempotent per incarnation).
    // analyze:recovery
    fn flag_babble(&mut self, ep: Endpoint, why: &'static str) {
        match live_in_mut(&mut self.slots, ep) {
            Some(p) if p.babble.is_none() => p.babble = Some(why),
            _ => return,
        }
        self.metrics.incr("kernel.babble.flagged");
        let name = self.traced_name(ep);
        let ev = TraceEvent::new(
            self.now(),
            TraceLevel::Warn,
            "kernel",
            format!("babble guard flagged {name} ({ep}): {why}"),
        )
        .with_field("ev", "babble")
        .with_field("proc", name.as_str())
        .with_field("why", why);
        self.trace.emit_event(ev);
    }

    /// Hands back the payload of an IPC delivery the kernel discards.
    fn discard(&mut self, item: ProcEvent) {
        if let ProcEvent::Message(m)
        | ProcEvent::Request { msg: m, .. }
        | ProcEvent::Reply { result: Ok(m), .. } = item
        {
            self.mem.return_buf(m.data);
        }
    }

    /// Flips one uniformly chosen bit in the message payload: the type tag,
    /// a scalar parameter, or a data byte.
    fn corrupt_message(msg: &mut Message, rng: &mut SimRng) {
        // Bit layout: 32 mtype bits, 8*64 param bits, then data bits.
        let total = 32 + 8 * 64 + msg.data.len() * 8;
        let bit = rng.range_usize(0..total);
        if bit < 32 {
            msg.mtype ^= 1 << bit;
        } else if bit < 32 + 8 * 64 {
            let b = bit - 32;
            // analyze:allow(raw-param): chaos flips a bit of any kind by design.
            msg.params[b / 64] ^= 1 << (b % 64);
        } else {
            let b = bit - 32 - 8 * 64;
            msg.data[b / 8] ^= 1 << (b % 8);
        }
    }

    fn dispatch(&mut self, platform: &mut dyn Platform, to: Endpoint, item: ProcEvent) {
        if !self.is_live(to) {
            // A child-exit report for a dead *sticky* parent (a mid-reboot
            // PM) is not droppable: redirect it to the live replacement
            // incarnation, or buffer it until one spawns.
            if matches!(item, ProcEvent::ChildExited(_)) {
                if let Some(name) = self.retired_sticky.get(&to).cloned() {
                    match self.endpoint_by_name(&name) {
                        Some(live_ep) => {
                            self.metrics.incr("kernel.sticky_redirects");
                            self.queue
                                .schedule_now(SysEvent::Deliver { to: live_ep, item });
                        }
                        None => {
                            self.metrics.incr("kernel.orphaned_child_exits");
                            self.orphaned_reports.entry(name).or_default().push(item);
                        }
                    }
                    return;
                }
            }
            // Delivery to a dead or restarted process. A request's call
            // was already aborted when its callee died: `sendrec` opens
            // calls only to live endpoints, and `destroy` aborts every
            // call the dead incarnation owed.
            self.metrics.incr("ipc.stale_drops");
            self.discard(item);
            return;
        }
        let Some(p) = live_in_mut(&mut self.slots, to) else {
            // analyze:allow(panic-reach): kernel TCB invariant — the dispatcher only
            // runs slots it just verified live; a dead slot here is scheduler
            // corruption, not a component failure the RS could recover.
            unreachable!()
        };
        if p.stuck {
            // A stuck process (infinite loop) consumes no events; its
            // mailbox would grow in a real system. Requests must still be
            // tracked so they abort when the process is finally killed.
            self.metrics.incr("ipc.stuck_drops");
            self.discard(item);
            return;
        }
        // analyze:allow(panic-reach): kernel TCB invariant — handler is only absent
        // while that same process is being dispatched, and dispatch is not reentrant.
        let mut handler = p.handler.take().expect("handler present for live process");
        let name = Rc::clone(&p.name);
        let usage = p.usage;
        let mut ctx = Ctx {
            sys: self,
            platform,
            self_ep: to,
            self_name: name,
            self_usage: usage,
            exit: None,
            hang: false,
        };
        ctx.sys.cur_dispatch = Some((to, 0));
        handler.on_event(&mut ctx, item);
        ctx.sys.cur_dispatch = None;
        let exit = ctx.exit.take();
        let hang = ctx.hang;
        match exit {
            Some(reason) => {
                // Handler chose to die (exit/panic) or tripped an exception.
                self.destroy(to, reason);
            }
            None => {
                if let Some(p) = live_in_mut(&mut self.slots, to) {
                    p.handler = Some(handler);
                    if hang {
                        p.stuck = true;
                    }
                }
            }
        }
    }
}

/// The system-call interface available to a process while handling an
/// event. Created by the kernel for each dispatch.
pub struct Ctx<'a> {
    sys: &'a mut System,
    platform: &'a mut dyn Platform,
    self_ep: Endpoint,
    self_name: Rc<str>,
    /// This process's row of the authority ledger.
    self_usage: UsageSlot,
    exit: Option<ExitReason>,
    hang: bool,
}

impl<'a> Ctx<'a> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sys.now()
    }

    /// This process's endpoint.
    pub fn self_endpoint(&self) -> Endpoint {
        self.self_ep
    }

    /// This process's stable name.
    pub fn self_name(&self) -> &str {
        &self.self_name
    }

    /// The shared deterministic RNG.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.sys.rng
    }

    /// Emits a trace event attributed to this process.
    pub fn trace(&mut self, level: TraceLevel, message: String) {
        let now = self.sys.now();
        self.sys.trace.emit(now, level, &self.self_name, message);
    }

    /// Builds a structured event attributed to this process at the current
    /// virtual time. Chain `with_field`/`in_recovery`/`with_span` on the
    /// result and record it with [`Ctx::trace_event`].
    pub fn event(&self, level: TraceLevel, message: impl Into<String>) -> TraceEvent {
        TraceEvent::new(self.sys.now(), level, &*self.self_name, message)
    }

    /// Records a structured event (subject to the ring's level filter).
    pub fn trace_event(&mut self, event: TraceEvent) {
        self.sys.trace.emit_event(event);
    }

    /// Allocates a span id from the kernel trace ring's monotonic counter.
    pub fn new_span(&mut self) -> SpanId {
        self.sys.trace.new_span()
    }

    /// The metrics registry.
    pub fn metrics(&mut self) -> &mut MetricsRegistry {
        &mut self.sys.metrics
    }

    /// Lends a spare frame buffer of length 0 (see
    /// [`MemoryPool::lend_buf`]); not a kernel call, only host memory.
    pub fn lend_buf(&mut self) -> Vec<u8> {
        self.sys.mem.lend_buf()
    }

    /// Hands a consumed frame's buffer back (see
    /// [`MemoryPool::return_buf`]).
    pub fn return_buf(&mut self, buf: Vec<u8>) {
        self.sys.mem.return_buf(buf);
    }

    fn privileges(&self) -> &Privileges {
        match live_in(&self.sys.slots, self.self_ep) {
            Some(p) => &p.privileges,
            // analyze:allow(panic-reach): kernel TCB invariant — a Ctx only exists
            // while its process runs, and a running process is by construction live.
            None => unreachable!("running process must be live"),
        }
    }

    fn check_call(&mut self, call: KernelCall) -> Result<(), KernelError> {
        if self.privileges().allows_call(call) {
            self.sys.usage.record_call(self.self_usage, call);
            Ok(())
        } else {
            Err(KernelError::CallNotPermitted)
        }
    }

    fn check_ipc_target(&mut self, dst: Endpoint) -> Result<(), IpcError> {
        let to = live_in(&self.sys.slots, dst).ok_or(IpcError::DeadDestination)?;
        if self.privileges().ipc.allows(&to.name) {
            let to = to.usage;
            self.sys.usage.record_ipc(self.self_usage, to);
            Ok(())
        } else {
            self.sys.metrics.incr("ipc.denied");
            Err(IpcError::NotPermitted)
        }
    }

    /// Stamps this process's last IPC attempt for the progress watchdog.
    fn stamp_ipc(&mut self) {
        let now = self.sys.now();
        if let Some(me) = live_in_mut(&mut self.sys.slots, self.self_ep) {
            me.last_ipc = Some(now);
        }
    }

    // ------------------------------------------------------------------
    // IPC
    // ------------------------------------------------------------------

    /// Sends a one-way message.
    ///
    /// # Errors
    ///
    /// [`IpcError::DeadDestination`] if `dst` is stale,
    /// [`IpcError::NotPermitted`] if the privilege IPC mask denies it.
    pub fn send(&mut self, dst: Endpoint, mut msg: Message) -> Result<(), IpcError> {
        let dst = self.sys.resolve_sticky(dst);
        if let Err(e) = self.check_ipc_target(dst) {
            self.return_buf(msg.data);
            return Err(e);
        }
        msg.source = self.self_ep;
        self.sys.metrics.incr("ipc.sends");
        self.stamp_ipc();
        self.sys
            .schedule_ipc(self.self_ep, dst, ProcEvent::Message(msg));
        Ok(())
    }

    /// Sends a request and opens a call awaiting a reply (MINIX `sendrec`).
    ///
    /// The reply — or an [`IpcError::DeadDestination`] abort if the callee
    /// dies first — arrives later as [`ProcEvent::Reply`].
    ///
    /// # Errors
    ///
    /// Same as [`Ctx::send`].
    pub fn sendrec(&mut self, dst: Endpoint, mut msg: Message) -> Result<CallId, IpcError> {
        let dst = self.sys.resolve_sticky(dst);
        if let Err(e) = self.check_ipc_target(dst) {
            self.return_buf(msg.data);
            return Err(e);
        }
        msg.source = self.self_ep;
        let call = CallId(self.sys.next_call);
        self.sys.next_call += 1;
        let opened_at = self.sys.now();
        if let Some(callee) = live_in_mut(&mut self.sys.slots, dst) {
            callee.owed.push(OpenCall {
                id: call,
                caller: self.self_ep,
                opened_at,
            });
        }
        self.sys.metrics.incr("ipc.sendrecs");
        self.stamp_ipc();
        self.sys
            .schedule_ipc(self.self_ep, dst, ProcEvent::Request { call, msg });
        Ok(call)
    }

    /// Replies to an open call previously received as
    /// [`ProcEvent::Request`]. Replying is always permitted: the request
    /// itself is the capability.
    ///
    /// # Errors
    ///
    /// [`IpcError::NoSuchCall`] if the call is not open or was not
    /// addressed to this process; [`IpcError::DeadDestination`] if the
    /// caller died in the meantime.
    pub fn reply(&mut self, call: CallId, mut msg: Message) -> Result<(), IpcError> {
        let caller = match self.close_call(call) {
            Ok(caller) => caller,
            Err(e) => {
                self.return_buf(msg.data);
                return Err(e);
            }
        };
        msg.source = self.self_ep;
        self.sys.metrics.incr("ipc.replies");
        self.stamp_ipc();
        self.sys.schedule_ipc(
            self.self_ep,
            caller,
            ProcEvent::Reply {
                call,
                result: Ok(msg),
            },
        );
        Ok(())
    }

    /// Removes `call` from what this process owes: the caller to reply to.
    fn close_call(&mut self, call: CallId) -> Result<Endpoint, IpcError> {
        let owed = live_in_mut(&mut self.sys.slots, self.self_ep)
            .map(|me| &mut me.owed)
            .ok_or(IpcError::NoSuchCall)?;
        let at = owed
            .iter()
            .position(|c| c.id == call)
            .ok_or(IpcError::NoSuchCall)?;
        let caller = owed.remove(at).caller;
        if self.sys.is_live(caller) {
            Ok(caller)
        } else {
            Err(IpcError::DeadDestination)
        }
    }

    /// Posts a payload-free notification (MINIX `notify`): non-blocking,
    /// used by the data store's publish-subscribe and by heartbeat checks
    /// so the reincarnation server can never be blocked by a sick driver.
    ///
    /// # Errors
    ///
    /// Same as [`Ctx::send`].
    pub fn notify(&mut self, dst: Endpoint) -> Result<(), IpcError> {
        let dst = self.sys.resolve_sticky(dst);
        self.check_ipc_target(dst)?;
        let from = self.self_ep;
        self.sys.metrics.incr("ipc.notifies");
        self.stamp_ipc();
        self.sys.schedule_ipc(from, dst, ProcEvent::Notify { from });
        Ok(())
    }

    // ------------------------------------------------------------------
    // Lifecycle system calls
    // ------------------------------------------------------------------

    /// Terminates this process voluntarily with `code` (defect class 1).
    pub fn exit(&mut self, code: i32) {
        self.exit = Some(ExitReason::Exited(code));
    }

    /// Terminates this process with a panic diagnostic (defect class 1).
    pub fn panic(&mut self, msg: &str) {
        self.exit = Some(ExitReason::Panicked(msg.to_string()));
    }

    /// Kills this process as if a CPU/MMU exception occurred (defect
    /// class 2). Driver code calls this when the fault-injection VM traps.
    pub fn die_of_exception(&mut self, kind: ExceptionKind) {
        self.exit = Some(ExitReason::Exception(kind));
    }

    /// Marks this process stuck in an infinite loop: it stays alive but
    /// stops consuming events, so only missing heartbeats (defect class 4)
    /// or an external kill can get rid of it.
    pub fn hang(&mut self) {
        self.hang = true;
    }

    /// Spawns a registered program (process manager only).
    ///
    /// The child's parent is the calling process, which will receive
    /// [`ProcEvent::ChildExited`] when it dies. `version` selects a
    /// specific registered version (1-based); `None` runs the latest.
    ///
    /// # Errors
    ///
    /// [`KernelError::CallNotPermitted`] without the `Spawn` privilege;
    /// [`KernelError::NoSuchProgram`] for unknown names or versions.
    pub fn sys_spawn(
        &mut self,
        program: &str,
        version: Option<u32>,
    ) -> Result<Endpoint, KernelError> {
        self.check_call(KernelCall::Spawn)?;
        let entry = self
            .sys
            .programs
            .get(program)
            .ok_or(KernelError::NoSuchProgram)?;
        let ver = match version {
            Some(v) => {
                if v == 0 || v as usize > entry.factories.len() {
                    return Err(KernelError::NoSuchProgram);
                }
                v
            }
            None => entry.factories.len() as u32,
        };
        let handler = (entry.factories[ver as usize - 1])();
        let privileges = Rc::clone(&entry.privileges);
        let parent = self.self_ep;
        Ok(self.sys.spawn_internal(
            program,
            Some(parent),
            privileges,
            handler,
            Some((program.to_string(), ver)),
        ))
    }

    /// Sends a signal to another process (process manager only).
    ///
    /// [`Signal::Kill`] destroys the target immediately (it works even on a
    /// stuck process); [`Signal::Term`] is delivered as a catchable event.
    ///
    /// # Errors
    ///
    /// [`KernelError::CallNotPermitted`] without the `Kill` privilege;
    /// [`KernelError::BadEndpoint`] if `target` is stale.
    pub fn sys_kill(&mut self, target: Endpoint, signal: Signal) -> Result<(), KernelError> {
        self.check_call(KernelCall::Kill)?;
        if !self.sys.is_live(target) {
            return Err(KernelError::BadEndpoint);
        }
        match signal {
            Signal::Kill => {
                self.sys.destroy(
                    target,
                    ExitReason::Signaled(Signal::Kill, KillOrigin::System),
                );
            }
            Signal::Term => {
                self.sys.queue.schedule_after(
                    IPC_LATENCY,
                    SysEvent::Deliver {
                        to: target,
                        item: ProcEvent::Signal(Signal::Term),
                    },
                );
            }
        }
        Ok(())
    }

    /// Whether `target` is the current incarnation of a live process.
    ///
    /// Status query used by the reincarnation server's liveness audit: when
    /// chaos (or real hardware) loses an exit notification, RS can still
    /// detect that a supposedly-up service is gone and start recovery.
    // analyze:recovery
    pub fn proc_alive(&self, target: Endpoint) -> bool {
        self.sys.is_live(target)
    }

    /// The live incarnations of registered program `program` — the
    /// processes [`Ctx::sys_spawn`] made from it, whoever their parent —
    /// in slot order.
    ///
    /// Status query used by the reincarnation server's start
    /// reconciliation: an incarnation of a guarded program that no slot
    /// holds is an orphan of a start whose reply was lost.
    // analyze:recovery
    pub fn live_incarnations<'s>(
        &'s self,
        program: &'s str,
    ) -> impl Iterator<Item = Endpoint> + 's {
        let runs = move |p: &&LiveProc| p.program.as_deref() == Some(program);
        self.sys.live().filter(runs).map(|p| p.endpoint)
    }

    /// Whether the kernel babble guard has flagged `target`'s current
    /// incarnation for exceeding its unsolicited-send or reply-rate
    /// budget. Status query for the reincarnation server's audit sweep;
    /// the flag dies with the incarnation.
    // analyze:recovery
    pub fn babble_flagged(&self, target: Endpoint) -> bool {
        live_in(&self.sys.slots, target).is_some_and(|p| p.babble.is_some())
    }

    /// Whether `target` is sitting on a rendezvous older than
    /// `older_than` whose caller is still alive — a callee that
    /// heartbeats but never completes work. Status query for the
    /// reincarnation server's progress watchdog.
    ///
    /// An old request alone is not a conviction: a callee that is itself
    /// waiting on an open call of its own (a server blocked on its
    /// driver), or that attempted any IPC within the window, is merely
    /// *slow* — its requests may legitimately age while a dependency
    /// limps through recovery on a chaotic fabric. Only a callee that is
    /// both sat-upon and silent is wedged.
    // analyze:recovery
    pub fn request_stalled(&self, target: Endpoint, older_than: SimDuration) -> bool {
        let now = self.sys.now();
        let Some(callee) = live_in(&self.sys.slots, target) else {
            return false;
        };
        let sat_upon = callee
            .owed
            .iter()
            .any(|c| self.sys.is_live(c.caller) && now.since(c.opened_at) > older_than);
        if !sat_upon {
            return false;
        }
        // The target's own calls sit with their callees: a scan of the
        // live slots, once per reincarnation-server audit.
        let owes = |p: &LiveProc| p.owed.iter().any(|c| c.caller == target);
        let calling = self.sys.live().any(owes);
        !calling && callee.last_ipc.is_none_or(|t| now.since(t) > older_than)
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// Sets an alarm that fires as [`ProcEvent::Alarm`] with `token`.
    ///
    /// # Errors
    ///
    /// [`KernelError::CallNotPermitted`] without the `SetAlarm` privilege.
    pub fn set_alarm(&mut self, after: SimDuration, token: u64) -> Result<AlarmId, KernelError> {
        self.check_call(KernelCall::SetAlarm)?;
        let to = self.self_ep;
        let alarm = SysEvent::Alarm { to, token };
        Ok(AlarmId(self.sys.queue.schedule_after(after, alarm)))
    }

    /// Cancels an alarm set earlier. Returns `true` if it was still
    /// pending and belonged to this process.
    pub fn cancel_alarm(&mut self, id: AlarmId) -> bool {
        let me = self.self_ep;
        self.sys.queue.cancel_if(id.0, |ev| ev.is_alarm_of(me))
    }

    // ------------------------------------------------------------------
    // Device access
    // ------------------------------------------------------------------

    fn check_device(&mut self, dev: DeviceId) -> Result<(), KernelError> {
        self.check_call(KernelCall::Devio)?;
        if !self.privileges().allows_device(dev) {
            return Err(KernelError::DeviceNotPermitted);
        }
        if !self.platform.has_device(dev) {
            return Err(KernelError::NoSuchDevice);
        }
        self.sys.usage.record_device(self.self_usage, dev);
        Ok(())
    }

    /// Reads a device register (`sys_devio`).
    ///
    /// # Errors
    ///
    /// Permission failures per the privilege table, or
    /// [`KernelError::NoSuchDevice`] if the bus has no such device.
    pub fn devio_read(&mut self, dev: DeviceId, reg: u16) -> Result<u32, KernelError> {
        self.check_device(dev)?;
        Ok(self.sys.with_hw(|hw| self.platform.io_read(dev, reg, hw)))
    }

    /// Writes a device register (`sys_devio`).
    ///
    /// # Errors
    ///
    /// Same as [`Ctx::devio_read`].
    pub fn devio_write(&mut self, dev: DeviceId, reg: u16, value: u32) -> Result<(), KernelError> {
        self.check_device(dev)?;
        self.sys
            .with_hw(|hw| self.platform.io_write(dev, reg, value, hw));
        Ok(())
    }

    /// Buffered port input into `buf` (MINIX `sys_sdevio`): the number of
    /// bytes the port gave, at most `buf.len()`.
    ///
    /// # Errors
    ///
    /// Same as [`Ctx::devio_read`].
    pub fn devio_read_block(
        &mut self,
        dev: DeviceId,
        reg: u16,
        buf: &mut [u8],
    ) -> Result<usize, KernelError> {
        self.check_device(dev)?;
        Ok(self
            .sys
            .with_hw(|hw| self.platform.io_read_block(dev, reg, buf, hw)))
    }

    /// Buffered port output (MINIX `sys_sdevio`).
    ///
    /// # Errors
    ///
    /// Same as [`Ctx::devio_read`].
    pub fn devio_write_block(
        &mut self,
        dev: DeviceId,
        reg: u16,
        data: &[u8],
    ) -> Result<(), KernelError> {
        self.check_device(dev)?;
        self.sys
            .with_hw(|hw| self.platform.io_write_block(dev, reg, data, hw));
        Ok(())
    }

    /// Registers this process as the handler for an IRQ line
    /// (`sys_irqctl`). Future interrupts arrive as [`ProcEvent::Irq`].
    ///
    /// # Errors
    ///
    /// [`KernelError::IrqNotPermitted`] if the line is not in the
    /// privilege table.
    pub fn irq_enable(&mut self, line: IrqLine) -> Result<(), KernelError> {
        self.check_call(KernelCall::IrqCtl)?;
        if !self.privileges().allows_irq(line) {
            return Err(KernelError::IrqNotPermitted);
        }
        self.sys.usage.record_irq(self.self_usage, line);
        self.sys.irq_handlers.insert(line, self.self_ep);
        Ok(())
    }

    /// Maps this process's memory region `[offset, offset+len)` as the
    /// DMA window of `dev` at device address `base` (`sys_iommu`). Pass
    /// `len == 0` to unmap.
    ///
    /// # Errors
    ///
    /// Privilege failures, or [`KernelError::BadRange`] if the region
    /// exceeds the address space.
    pub fn iommu_map(
        &mut self,
        dev: DeviceId,
        base: u64,
        offset: usize,
        len: usize,
    ) -> Result<(), KernelError> {
        self.check_call(KernelCall::IommuMap)?;
        if !self.privileges().allows_device(dev) {
            return Err(KernelError::DeviceNotPermitted);
        }
        self.sys.usage.record_device(self.self_usage, dev);
        let window = if len == 0 {
            None
        } else {
            Some(IommuWindow {
                owner: self.self_ep,
                base,
                offset,
                len,
            })
        };
        self.sys.mem.iommu_map(dev, window)
    }

    // ------------------------------------------------------------------
    // Memory
    // ------------------------------------------------------------------

    /// Writes into this process's own address space.
    ///
    /// # Errors
    ///
    /// [`KernelError::BadRange`] if out of bounds.
    pub fn mem_write(&mut self, offset: usize, data: &[u8]) -> Result<(), KernelError> {
        self.sys.mem.write_own(self.self_ep, offset, data)
    }

    /// Borrows `len` bytes at `offset` of this process's own address
    /// space.
    ///
    /// # Errors
    ///
    /// [`KernelError::BadRange`] if out of bounds.
    pub fn mem(&mut self, offset: usize, len: usize) -> Result<&[u8], KernelError> {
        self.sys.mem.read_own(self.self_ep, offset, len)
    }

    /// Size of this process's address space.
    pub fn mem_size(&mut self) -> usize {
        self.sys
            .mem
            .size_of(self.self_ep)
            .expect("own space exists")
    }

    /// Creates a grant over this process's memory for `grantee`
    /// (`sys_setgrant`).
    ///
    /// # Errors
    ///
    /// Privilege failures or [`KernelError::BadRange`].
    pub fn grant_create(
        &mut self,
        grantee: Endpoint,
        offset: usize,
        len: usize,
        access: GrantAccess,
    ) -> Result<GrantId, KernelError> {
        self.check_call(KernelCall::SetGrant)?;
        self.sys
            .mem
            .grant_create(self.self_ep, grantee, offset, len, access)
    }

    /// Revokes a grant created earlier.
    ///
    /// # Errors
    ///
    /// [`KernelError::BadGrant`] if unknown.
    pub fn grant_revoke(&mut self, id: GrantId) -> Result<(), KernelError> {
        self.check_call(KernelCall::SetGrant)?;
        self.sys.mem.grant_revoke(self.self_ep, id)
    }

    /// Creates a grant for `grantee` over `offset..offset + len` of
    /// `owner`'s memory (`sys_magicgrant`, MINIX's `cpf_grant_magic`).
    ///
    /// # Errors
    ///
    /// Privilege failures; see
    /// [`MemoryPool::magic_grant_create`](crate::memory::MemoryPool::magic_grant_create).
    pub fn magic_grant_create(
        &mut self,
        owner: Endpoint,
        grantee: Endpoint,
        offset: usize,
        len: usize,
        access: GrantAccess,
    ) -> Result<GrantId, KernelError> {
        self.check_call(KernelCall::MagicGrant)?;
        self.sys
            .mem
            .magic_grant_create(self.self_ep, owner, grantee, offset, len, access)
    }

    /// Revokes a magic grant created earlier.
    ///
    /// # Errors
    ///
    /// Privilege failures; [`KernelError::BadGrant`] if unknown.
    pub fn magic_grant_revoke(&mut self, id: GrantId) -> Result<(), KernelError> {
        self.check_call(KernelCall::MagicGrant)?;
        self.sys.mem.grant_revoke(self.self_ep, id)
    }

    /// Copies from a granter's memory into this process's
    /// (`sys_safecopyfrom`).
    ///
    /// # Errors
    ///
    /// See [`MemoryPool::safecopy_from`](crate::memory::MemoryPool::safecopy_from).
    pub fn safecopy_from(
        &mut self,
        granter: Endpoint,
        grant: GrantId,
        grant_offset: usize,
        dst_offset: usize,
        len: usize,
    ) -> Result<(), KernelError> {
        self.check_call(KernelCall::SafeCopy)?;
        self.sys
            .mem
            .safecopy_from(self.self_ep, granter, grant, grant_offset, dst_offset, len)
    }

    /// Copies from this process's memory into a granter's
    /// (`sys_safecopyto`).
    ///
    /// # Errors
    ///
    /// See [`MemoryPool::safecopy_to`](crate::memory::MemoryPool::safecopy_to).
    pub fn safecopy_to(
        &mut self,
        granter: Endpoint,
        grant: GrantId,
        grant_offset: usize,
        src_offset: usize,
        len: usize,
    ) -> Result<(), KernelError> {
        self.check_call(KernelCall::SafeCopy)?;
        self.sys
            .mem
            .safecopy_to(self.self_ep, granter, grant, grant_offset, src_offset, len)
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;

    use super::*;
    use crate::platform::NullPlatform;

    /// Sets `n` 1 ms alarms at start and cancels the first at once; on a
    /// signal, tries to cancel every one of them and reports the answers.
    struct Alarmist {
        n: u64,
        ids: Vec<AlarmId>,
        recancelled: Rc<RefCell<Vec<bool>>>,
    }

    impl Process for Alarmist {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
            match event {
                ProcEvent::Start => {
                    for token in 0..self.n {
                        let id = ctx.set_alarm(SimDuration::from_millis(1), token);
                        self.ids.push(id.expect("servers may set alarms"));
                    }
                    assert!(ctx.cancel_alarm(self.ids[0]));
                }
                ProcEvent::Signal(_) => {
                    *self.recancelled.borrow_mut() =
                        self.ids.iter().map(|&id| ctx.cancel_alarm(id)).collect();
                }
                _ => {}
            }
        }
    }

    #[test]
    fn a_fired_alarm_is_forgotten() {
        let mut sys = System::new(SystemConfig::default());
        let recancelled = Rc::new(RefCell::new(Vec::new()));
        let ep = sys.spawn_boot(
            "a",
            Privileges::server(),
            Box::new(Alarmist {
                n: 50,
                ids: Vec::new(),
                recancelled: Rc::clone(&recancelled),
            }),
        );
        sys.step(&mut NullPlatform);
        assert_eq!(sys.queue.len(), 49, "50 set, one cancelled");
        sys.run_until(&mut NullPlatform, SimTime::from_micros(2_000));
        assert!(sys.queue.is_empty(), "49 fired: nothing of them is kept");
        sys.kill_by_user(ep, Signal::Term);
        sys.run_until_idle(&mut NullPlatform, 10);
        assert_eq!(
            *recancelled.borrow(),
            vec![false; 50],
            "neither the cancelled alarm nor a fired one is pending"
        );
    }
}
