//! Microkernel substrate of the Phoenix failure-resilient OS.
//!
//! This crate models the kernel layer of the paper's architecture (§4):
//! every server and driver is an isolated user-mode [`process::Process`]
//! with a private address space, a privilege table enforcing the principle
//! of least authority, and rendezvous-style IPC whose *abort-on-death*
//! semantics are what make transparent driver recovery possible (§6.2: "the
//! IPC rendezvous will be aborted by the kernel, and the file server marks
//! the request as pending").
//!
//! Key pieces:
//!
//! * [`types::Endpoint`] — slot + generation; restarting a driver changes
//!   its endpoint so stale messages are never misdelivered (§5.3).
//! * [`system::System`] — process table, IPC, signals, alarms, IRQ routing,
//!   and the discrete-event dispatch loop.
//! * [`protocol!`] — one row per message kind: its value, direction,
//!   reply, and which params slot each field rides in ([`layout`]).
//! * [`system::Ctx`] — the system-call interface handed to a process while
//!   it handles an event.
//! * [`memory::MemoryPool`] — address spaces, capability-style memory
//!   grants (`safecopy`), and the I/O MMU that confines device DMA.
//! * [`privileges::Privileges`] — per-process IPC masks, kernel-call masks,
//!   device and IRQ grants.
//! * [`platform::Platform`] — the boundary to the emulated hardware bus.
//!
//! # Example
//!
//! ```
//! use phoenix_kernel::platform::NullPlatform;
//! use phoenix_kernel::privileges::Privileges;
//! use phoenix_kernel::process::{ProcEvent, Process};
//! use phoenix_kernel::system::{Ctx, System, SystemConfig};
//!
//! struct Greeter;
//! impl Process for Greeter {
//!     fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
//!         if let ProcEvent::Start = event {
//!             ctx.trace(phoenix_simcore::trace::TraceLevel::Info, "hello".into());
//!         }
//!     }
//! }
//!
//! let mut sys = System::new(SystemConfig::default());
//! sys.spawn_boot("greeter", Privileges::server(), Box::new(Greeter));
//! sys.run_until_idle(&mut NullPlatform, 100);
//! assert!(sys.trace().find("hello").is_some());
//! ```

pub mod authority;
pub mod chaos;
pub mod layout;
pub mod memory;
pub mod platform;
pub mod privileges;
pub mod process;
pub mod system;
pub mod types;

pub use authority::{audit, AuthorityUsage, PolaFinding, PolaViolation, UsageRecord};
pub use chaos::{ChaosInterposer, ChaosVerdict, IpcClass, IpcEnvelope};
pub use memory::{DmaFault, GrantAccess, GrantId, IommuWindow, MemoryPool};
pub use platform::{HwCtx, HwSideEffect, NullPlatform, Platform};
pub use privileges::{IpcFilter, KernelCall, Privileges};
pub use process::{ProcEvent, Process, ProgramFactory};
pub use system::{Ctx, StepStatus, System, SystemConfig};
pub use types::{
    AlarmId, CallId, DeviceId, Endpoint, ExceptionKind, ExitReason, ExitStatus, IpcError, IrqLine,
    KernelError, KillOrigin, Message, Signal, Slot,
};
