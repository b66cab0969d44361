//! The shared driver library ("libdriver").
//!
//! MINIX device drivers share a message loop provided by a small library;
//! §7.3 reports that supporting recovery required "exactly 5 lines of code
//! in the shared driver library to handle the new request types" —
//! heartbeat replies and clean shutdown. The heartbeat reply carries an
//! `// analyze:recovery` marker, which Fig. 9's counter reads; the clean
//! shutdown does not, as a system without failure handling still stops
//! and replaces drivers.
//!
//! The library also hosts the fault-injection plumbing: a driver's hot-path
//! routines are VM programs cloned from a pristine image at start; the
//! campaign mutates the *running* copy through [`FaultPort`], and a restart
//! naturally comes up pristine again — exactly the paper's model where the
//! reincarnation server restarts a fresh copy of the binary.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use phoenix_fault::vm::{Outcome, Trap, Vm};
use phoenix_kernel::process::{ProcEvent, Process};
use phoenix_kernel::system::Ctx;
use phoenix_kernel::types::{ExceptionKind, Message, Signal};
use phoenix_simcore::trace::TraceLevel;

use crate::proto::drv;

/// Step budget for one routine execution; exceeding it means the driver is
/// stuck in an infinite loop (defect class 4).
pub const GAS_LIMIT: u64 = 50_000;

/// A driver's live, mutable code image.
pub type CodeCell = Rc<RefCell<Vec<u32>>>;

/// Shared registry mapping running-driver names to their live (mutable)
/// code images. The fault-injection campaign mutates code through this.
#[derive(Clone, Default)]
pub struct FaultPort {
    map: Rc<RefCell<BTreeMap<String, CodeCell>>>,
}

impl FaultPort {
    /// Creates an empty port.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes (or republishes, after a restart) a driver's live code.
    pub fn publish(&self, name: &str, code: CodeCell) {
        self.map.borrow_mut().insert(name.to_string(), code);
    }

    /// The live code image of a running driver, if published.
    pub fn code_of(&self, name: &str) -> Option<CodeCell> {
        self.map.borrow().get(name).cloned()
    }
}

impl std::fmt::Debug for FaultPort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FaultPort({} images)", self.map.borrow().len())
    }
}

/// A driver hot path compiled to fault-VM code.
///
/// Cloned from the pristine image at driver start; the running copy may be
/// mutated by the injector. The routine owns the one [`Vm`] it runs on:
/// its memory is allocated at the first run and reset before every run
/// to what [`Vm::new`] returns, so no run sees what an earlier one left.
#[derive(Debug, Clone)]
pub struct GuardedRoutine {
    live: CodeCell,
    vm: Vm,
}

impl GuardedRoutine {
    /// Instantiates a routine from its pristine program.
    pub fn new(pristine: &[u32]) -> Self {
        GuardedRoutine {
            live: Rc::new(RefCell::new(pristine.to_vec())),
            vm: Vm::new(0),
        }
    }

    /// The live (mutable) code cell, for publication via [`FaultPort`].
    pub fn live(&self) -> CodeCell {
        Rc::clone(&self.live)
    }

    /// Runs the live code in the routine's VM, reset to `mem_size`
    /// zeroed bytes and prepared by `setup`: the outcome, and the VM as
    /// the run left it.
    pub fn outcome(&mut self, mem_size: usize, setup: impl FnOnce(&mut Vm)) -> (Outcome, &Vm) {
        self.vm.reset_to(mem_size);
        setup(&mut self.vm);
        let outcome = self.vm.run(&self.live.borrow(), GAS_LIMIT);
        (outcome, &self.vm)
    }

    /// Executes the routine in a VM of `mem_size` zeroed bytes, with
    /// `setup` preparing registers/memory.
    ///
    /// Returns `Some(vm)` on normal completion so the caller can read
    /// results. On a trap or loop the driver dies the way the mutated
    /// binary dictates — panic, exception, or hang — and `None` is
    /// returned; the caller must abandon the request immediately.
    pub fn run(
        &mut self,
        ctx: &mut Ctx<'_>,
        mem_size: usize,
        setup: impl FnOnce(&mut Vm),
    ) -> Option<&Vm> {
        let (outcome, vm) = self.outcome(mem_size, setup);
        match outcome {
            Outcome::Halted { .. } => Some(vm),
            Outcome::Trapped { trap, pc } => {
                match trap {
                    // The driver's own sanity check: an internal panic
                    // (defect class 1).
                    Trap::Assert => ctx.panic(&format!("consistency check failed at pc {pc}")),
                    // Hardware-detected faults: killed by exception
                    // (defect class 2).
                    Trap::MemoryFault | Trap::BadJump => {
                        ctx.die_of_exception(ExceptionKind::MmuFault);
                    }
                    Trap::IllegalInstruction => {
                        ctx.die_of_exception(ExceptionKind::IllegalInstruction);
                    }
                    Trap::Alignment => ctx.die_of_exception(ExceptionKind::Alignment),
                    Trap::DivideByZero => ctx.die_of_exception(ExceptionKind::DivideByZero),
                }
                None
            }
            Outcome::OutOfGas => {
                // Infinite loop: the driver stops responding; only missing
                // heartbeats (class 4) or SIGKILL get rid of it.
                ctx.hang();
                None
            }
        }
    }
}

/// Device-specific driver logic plugged into the shared message loop.
pub trait DriverLogic {
    /// One-time (re)initialization: reset the device, map DMA windows,
    /// register IRQs. Runs on every (re)start.
    fn init(&mut self, ctx: &mut Ctx<'_>);

    /// Handles a client request (`sendrec`); must eventually reply via
    /// `ctx.reply(call, ..)` unless the driver is dying.
    fn request(&mut self, ctx: &mut Ctx<'_>, call: phoenix_kernel::types::CallId, msg: &Message);

    /// Handles a one-way message.
    fn message(&mut self, _ctx: &mut Ctx<'_>, _msg: &Message) {}

    /// Handles a device interrupt.
    fn irq(&mut self, _ctx: &mut Ctx<'_>) {}

    /// Handles a driver alarm.
    fn alarm(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}

    /// Handles the reply to a request the driver itself issued with
    /// `sendrec` — checkpointed drivers talk to the data store's
    /// checkpoint extension this way (snapshot save/restore). Most
    /// drivers never initiate calls, so the default drops replies.
    fn reply(
        &mut self,
        _ctx: &mut Ctx<'_>,
        _call: phoenix_kernel::types::CallId,
        _result: &Result<Message, phoenix_kernel::types::IpcError>,
    ) {
    }
}

/// The shared driver main loop: wraps device-specific [`DriverLogic`] in
/// the generic protocol handling every MINIX driver gets from libdriver.
pub struct Driver<L> {
    logic: L,
}

impl<L: DriverLogic> Driver<L> {
    /// Wraps device logic in the shared loop.
    pub fn new(logic: L) -> Self {
        Driver { logic }
    }
}

impl<L: DriverLogic> Process for Driver<L> {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        match event {
            ProcEvent::Start => {
                let ev = ctx
                    .event(TraceLevel::Info, "driver starting".to_string())
                    .with_field("ev", "start");
                ctx.trace_event(ev);
                self.logic.init(ctx);
            }
            ProcEvent::Message(msg) => match drv::Msg::decode(&msg) {
                // Reply to the reincarnation server's heartbeat request so
                // it can tell a live driver from a stuck one (§5.1, input 4).
                // analyze:recovery
                Some(drv::Msg::HB_PING(drv::HbPing { nonce })) => {
                    let pong = drv::HbPong { nonce }.into_message();
                    let _ = ctx.send(msg.source, pong);
                }
                _ => self.logic.message(ctx, &msg),
            },
            ProcEvent::Request { call, msg } => self.logic.request(ctx, call, &msg),
            ProcEvent::Reply { call, result } => self.logic.reply(ctx, call, &result),
            ProcEvent::Irq { .. } => self.logic.irq(ctx),
            ProcEvent::Alarm { token } => self.logic.alarm(ctx, token),
            ProcEvent::Signal(Signal::Term) => {
                // Clean shutdown on SIGTERM so dynamic updates can replace
                // a live driver (§6).
                ctx.exit(0);
            }
            _ => {}
        }
    }
}
