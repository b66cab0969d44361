//! Fundamental kernel types: endpoints, messages, signals, exit statuses.

use std::fmt;

use phoenix_simcore::event::EventId;
use phoenix_simcore::wire::{Reader, Writer};

/// A process slot index in the kernel's process table.
pub type Slot = u16;

/// An IPC endpoint: a process slot plus a generation number.
///
/// The paper (§5.3) relies on *temporarily unique* endpoints: "a component's
/// endpoint changes with each restart, and the IPC capabilities of dependent
/// processes must be updated accordingly". The generation number is what
/// makes a restarted driver unreachable through its old endpoint, so stale
/// messages can never be delivered to the wrong incarnation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Endpoint {
    slot: Slot,
    generation: u32,
}

impl Endpoint {
    /// Constructs an endpoint from its parts. Normally only the kernel does
    /// this; components receive endpoints from the kernel or the data store.
    pub const fn new(slot: Slot, generation: u32) -> Self {
        Endpoint { slot, generation }
    }

    /// The process-table slot.
    pub const fn slot(self) -> Slot {
        self.slot
    }

    /// The incarnation number of the slot.
    pub const fn generation(self) -> u32 {
        self.generation
    }

    /// Appends the endpoint as externalised state holds it:
    /// `slot:u16 generation:u32`.
    pub fn put(self, w: &mut Writer) {
        w.u16(self.slot);
        w.u32(self.generation);
    }

    /// Reads what [`Endpoint::put`] wrote.
    pub fn get(r: &mut Reader<'_>) -> Option<Endpoint> {
        Some(Endpoint::new(r.u16()?, r.u32()?))
    }

    /// Appends an optional endpoint: a `1` tag and the endpoint, or `0`.
    pub fn put_opt(ep: Option<Endpoint>, w: &mut Writer) {
        match ep {
            Some(ep) => {
                w.u8(1);
                ep.put(w);
            }
            None => w.u8(0),
        }
    }

    /// Reads what [`Endpoint::put_opt`] wrote; any other tag is garbage.
    pub fn get_opt(r: &mut Reader<'_>) -> Option<Option<Endpoint>> {
        match r.u8()? {
            0 => Some(None),
            1 => Endpoint::get(r).map(Some),
            _ => None,
        }
    }
}

impl fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ep{}:{}", self.slot, self.generation)
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Identifies an emulated device on the platform bus.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct DeviceId(pub u16);

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dev{}", self.0)
    }
}

/// A hardware interrupt line number.
pub type IrqLine = u8;

/// The fixed-size IPC message, modeled on MINIX's message union: a type tag,
/// a handful of scalar parameters, and an optional byte payload standing in
/// for the I/O vectors that MINIX passes via memory grants.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Message {
    /// Filled in by the kernel on delivery; senders need not set it.
    pub source: Endpoint,
    /// Protocol-defined message type tag.
    pub mtype: u32,
    /// Scalar parameters (request arguments, status codes, positions...).
    pub params: [u64; 8],
    /// Bulk payload. Kept small in practice; large transfers use grants.
    pub data: Vec<u8>,
}

impl Message {
    /// Creates a message with the given type tag and zeroed parameters.
    pub fn new(mtype: u32) -> Self {
        Message {
            source: Endpoint::new(0, 0),
            mtype,
            params: [0; 8],
            data: Vec::new(),
        }
    }

    /// Sets parameter `i` (builder style). Shipping code writes a slot
    /// through its kind's [`protocol!`](crate::protocol) row instead.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 8`.
    pub fn with_param(mut self, i: usize, v: u64) -> Self {
        self.params[i] = v;
        self
    }

    /// Attaches a byte payload (builder style).
    pub fn with_data(mut self, data: Vec<u8>) -> Self {
        self.data = data;
        self
    }

    /// Parameter `i` as `u64`. Shipping code reads a slot through its
    /// kind's [`protocol!`](crate::protocol) row instead.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 8`.
    pub fn param(&self, i: usize) -> u64 {
        self.params[i]
    }
}

impl fmt::Debug for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Message{{type={}, from={}, params={:?}, {}B}}",
            // analyze:allow(raw-mtype): a print of the kind, no dispatch.
            self.mtype,
            self.source,
            &self.params[..4],
            self.data.len()
        )
    }
}

/// Identifies an open `sendrec` call awaiting a reply.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct CallId(pub u64);

/// Identifies a pending kernel alarm so it can be cancelled: the id of its
/// entry in the kernel's event queue, which only the kernel can name.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct AlarmId(pub(crate) EventId);

/// POSIX-style signals the kernel can deliver or act upon.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Signal {
    /// Polite termination request; delivered to the process, which is
    /// expected to exit cleanly (used for dynamic updates, §6).
    Term,
    /// Immediate kill; never delivered, the kernel destroys the process.
    Kill,
}

impl fmt::Display for Signal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Signal::Term => f.write_str("SIGTERM"),
            Signal::Kill => f.write_str("SIGKILL"),
        }
    }
}

/// Hardware exception kinds a process can die from (§5.1 defect class 2:
/// "crashed by CPU or MMU exception").
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ExceptionKind {
    /// Access outside the process's address space (bad pointer).
    MmuFault,
    /// Illegal or garbled instruction.
    IllegalInstruction,
    /// Integer division by zero.
    DivideByZero,
    /// Misaligned or otherwise invalid memory operand.
    Alignment,
}

impl fmt::Display for ExceptionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ExceptionKind::MmuFault => "MMU fault",
            ExceptionKind::IllegalInstruction => "illegal instruction",
            ExceptionKind::DivideByZero => "divide by zero",
            ExceptionKind::Alignment => "alignment fault",
        };
        f.write_str(s)
    }
}

/// Why a process left the system. This is the exit status the process
/// manager collects and forwards to the reincarnation server, which maps it
/// onto the paper's defect classes 1–3 (§5.1).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ExitReason {
    /// Voluntary `exit(code)`.
    Exited(i32),
    /// Voluntary panic with a diagnostic (MINIX `panic()`).
    Panicked(String),
    /// Killed by the kernel after a CPU/MMU exception.
    Exception(ExceptionKind),
    /// Killed by a signal (`who` records user vs. system origin).
    Signaled(Signal, KillOrigin),
}

/// Who requested a kill — lets the reincarnation server distinguish defect
/// class 3 ("killed by user") from internal terminations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KillOrigin {
    /// An interactive user (e.g. `kill -9` from a shell).
    User,
    /// A system component (e.g. RS escalating SIGTERM to SIGKILL).
    System,
}

/// Full exit record delivered to the parent process.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ExitStatus {
    /// The endpoint the process had when it died.
    pub endpoint: Endpoint,
    /// Stable process name (e.g. `"eth.rtl8139"`).
    pub name: String,
    /// Why it died.
    pub reason: ExitReason,
}

/// Errors returned by IPC primitives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IpcError {
    /// Destination endpoint's slot is empty or its generation is stale —
    /// the MINIX `EDEADSRCDST` case that aborts a rendezvous when a driver
    /// dies mid-request.
    DeadDestination,
    /// The caller's privilege IPC mask does not allow this destination.
    NotPermitted,
    /// Reply to a call that is no longer open (caller died or already
    /// answered).
    NoSuchCall,
}

impl fmt::Display for IpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            IpcError::DeadDestination => "destination process is dead (EDEADSRCDST)",
            IpcError::NotPermitted => "IPC destination not permitted",
            IpcError::NoSuchCall => "no such open call",
        };
        f.write_str(s)
    }
}

impl std::error::Error for IpcError {}

/// Errors returned by kernel calls.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KernelError {
    /// The calling process's privilege table does not allow this call.
    CallNotPermitted,
    /// Device access denied (not in the I/O port privilege set).
    DeviceNotPermitted,
    /// IRQ line access denied.
    IrqNotPermitted,
    /// No such device on the bus.
    NoSuchDevice,
    /// Grant id invalid, revoked, or not addressed to the caller.
    BadGrant,
    /// Copy range outside the granted region or the address space.
    BadRange,
    /// No program registered under the requested name.
    NoSuchProgram,
    /// Target endpoint invalid or stale.
    BadEndpoint,
    /// Process table is full.
    NoFreeSlot,
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            KernelError::CallNotPermitted => "kernel call not permitted",
            KernelError::DeviceNotPermitted => "device access not permitted",
            KernelError::IrqNotPermitted => "IRQ line not permitted",
            KernelError::NoSuchDevice => "no such device",
            KernelError::BadGrant => "bad or revoked memory grant",
            KernelError::BadRange => "range outside grant or address space",
            KernelError::NoSuchProgram => "no such program image",
            KernelError::BadEndpoint => "bad or stale endpoint",
            KernelError::NoFreeSlot => "process table full",
        };
        f.write_str(s)
    }
}

impl std::error::Error for KernelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_identity_includes_generation() {
        let old = Endpoint::new(5, 1);
        let new = Endpoint::new(5, 2);
        assert_ne!(old, new, "same slot, different incarnation");
        assert_eq!(old.slot(), new.slot());
        assert_eq!(format!("{old}"), "ep5:1");
    }

    #[test]
    fn message_builder() {
        let m = Message::new(7).with_param(0, 42).with_data(vec![1, 2, 3]);
        assert_eq!(m.mtype, 7);
        assert_eq!(m.param(0), 42);
        assert_eq!(m.param(1), 0);
        assert_eq!(m.data, vec![1, 2, 3]);
    }

    #[test]
    fn errors_display() {
        assert!(IpcError::DeadDestination
            .to_string()
            .contains("EDEADSRCDST"));
        assert!(KernelError::BadGrant.to_string().contains("grant"));
        assert_eq!(Signal::Kill.to_string(), "SIGKILL");
        assert_eq!(ExceptionKind::MmuFault.to_string(), "MMU fault");
    }
}
