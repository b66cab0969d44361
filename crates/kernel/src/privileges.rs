//! Per-process privilege tables (principle of least authority, §4).
//!
//! Every system process is loaded with a privilege structure restricting its
//! IPC destinations, kernel calls, I/O ports (modeled as whole devices), and
//! IRQ lines. User processes get [`Privileges::user`]; device drivers get a
//! narrow grant covering only their own device.

use std::collections::BTreeSet;

use crate::types::{DeviceId, IrqLine};

/// The kernel calls a process may issue.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum KernelCall {
    /// Programmed device I/O (`sys_devio`).
    Devio,
    /// Register for an IRQ line (`sys_irqctl`).
    IrqCtl,
    /// Capability-checked inter-address-space copy (`sys_safecopy`).
    SafeCopy,
    /// Create/revoke memory grants (`sys_setgrant`).
    SetGrant,
    /// Create/revoke grants over *another* process's memory (MINIX's
    /// `cpf_grant_magic`, `sys_magicgrant`): VFS granting a client's
    /// buffer to a file server.
    MagicGrant,
    /// Map an I/O MMU window for DMA (`sys_iommu`).
    IommuMap,
    /// Set a watchdog/alarm timer (`sys_setalarm`).
    SetAlarm,
    /// Create a new system process (`sys_fork`+`sys_exec`; PM only).
    Spawn,
    /// Destroy a process (`sys_kill`; PM only).
    Kill,
}

impl KernelCall {
    /// Stable lowercase name matching the MINIX-style call it models.
    pub const fn name(self) -> &'static str {
        match self {
            KernelCall::Devio => "sys_devio",
            KernelCall::IrqCtl => "sys_irqctl",
            KernelCall::SafeCopy => "sys_safecopy",
            KernelCall::SetGrant => "sys_setgrant",
            KernelCall::MagicGrant => "sys_magicgrant",
            KernelCall::IommuMap => "sys_iommu",
            KernelCall::SetAlarm => "sys_setalarm",
            KernelCall::Spawn => "sys_spawn",
            KernelCall::Kill => "sys_kill",
        }
    }
}

/// Which endpoints a process may address with IPC.
///
/// Filters are by *stable process name*, mirroring how MINIX 3 protection
/// files name IPC targets; the kernel resolves names against its process
/// table at send time, so restarted components stay reachable.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub enum IpcFilter {
    /// May send to any process (trusted servers).
    #[default]
    AllowAll,
    /// May send only to the named processes.
    AllowNamed(BTreeSet<String>),
    /// May not initiate IPC at all (it may still *reply* to open calls, as
    /// replies are capabilities conferred by the incoming request).
    DenyAll,
}

impl IpcFilter {
    /// Builds an allow-list filter from names.
    pub fn named<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        IpcFilter::AllowNamed(names.into_iter().map(Into::into).collect())
    }

    /// Whether a destination with `name` is permitted.
    pub fn allows(&self, name: &str) -> bool {
        match self {
            IpcFilter::AllowAll => true,
            IpcFilter::AllowNamed(set) => set.contains(name),
            IpcFilter::DenyAll => false,
        }
    }
}

/// The complete privilege table of one process.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Privileges {
    /// Unprivileged user id assigned to the system process (§4: "System
    /// processes are given an unprivileged user and group ID").
    pub uid: u32,
    /// Allowed IPC destinations.
    pub ipc: IpcFilter,
    /// Allowed kernel calls.
    pub kernel_calls: BTreeSet<KernelCall>,
    /// Devices whose I/O registers this process may touch.
    pub devices: BTreeSet<DeviceId>,
    /// IRQ lines this process may register for.
    pub irq_lines: BTreeSet<IrqLine>,
    /// Size of the process's private address space in bytes.
    pub address_space: usize,
    /// Authorized to file complaints with the reincarnation server asking
    /// for another component's replacement (§5.1 defect class 5).
    pub may_complain: bool,
}

impl Default for Privileges {
    fn default() -> Self {
        Privileges::user()
    }
}

impl Privileges {
    /// Privileges of an ordinary application process: no device access,
    /// IPC only to the servers that implement POSIX for it, and the alarm
    /// call (the kernel backend of POSIX `alarm(2)`).
    pub fn user() -> Self {
        Privileges {
            uid: 1000,
            ipc: IpcFilter::named(["vfs", "pm", "inet"]),
            kernel_calls: [KernelCall::SetAlarm].into_iter().collect(),
            devices: BTreeSet::new(),
            irq_lines: BTreeSet::new(),
            // Room for the buffers file reads land in: `dd`'s 128 KB
            // chunk, a job mix's 32 slots of 64 KB. A space costs the
            // host only the bytes its process touches.
            address_space: 4 * 1024 * 1024,
            may_complain: false,
        }
    }

    /// Privileges of a device driver for one device and one IRQ line.
    ///
    /// The baseline is the least authority *every* driver in the system
    /// exercises: heartbeat pongs to RS, device I/O on its own device, IRQ
    /// registration, and a DMA window. Drivers that serve requests through
    /// grants (block drivers) or push data to a server (network drivers)
    /// extend this with [`Privileges::with_calls`] / [`Privileges::with_ipc`]
    /// at registration; the least-authority audit verifies every extension
    /// is exercised.
    pub fn driver(device: DeviceId, irq: IrqLine) -> Self {
        Privileges {
            uid: 900,
            ipc: IpcFilter::named(["rs"]),
            kernel_calls: [KernelCall::Devio, KernelCall::IrqCtl, KernelCall::IommuMap]
                .into_iter()
                .collect(),
            devices: [device].into_iter().collect(),
            irq_lines: [irq].into_iter().collect(),
            address_space: 256 * 1024,
            may_complain: false,
        }
    }

    /// Privileges of a trusted server (VFS, MFS, INET, DS): full IPC, copy
    /// and alarm calls, no device access.
    pub fn server() -> Self {
        Privileges {
            uid: 800,
            ipc: IpcFilter::AllowAll,
            kernel_calls: [
                KernelCall::SafeCopy,
                KernelCall::SetGrant,
                KernelCall::SetAlarm,
            ]
            .into_iter()
            .collect(),
            devices: BTreeSet::new(),
            irq_lines: BTreeSet::new(),
            address_space: 4 * 1024 * 1024,
            may_complain: true,
        }
    }

    /// Privileges of the process manager: may spawn and kill processes,
    /// and reports exits only to the reincarnation server. Name-based IPC
    /// filters survive restarts, so nothing rewrites a filter at runtime
    /// and the kernel has no call for it (the audit flagged PM's old
    /// `sys_privctl` grant as never exercised).
    pub fn process_manager() -> Self {
        let mut p = Privileges::server();
        p.uid = 0;
        p.ipc = IpcFilter::named(["rs"]);
        p.kernel_calls = [KernelCall::Spawn, KernelCall::Kill].into_iter().collect();
        p
    }

    /// Privileges of the reincarnation server: alarms for heartbeat and
    /// restart timers, and broad IPC (it pings every guarded service by
    /// endpoint). Actual spawning and killing is delegated to the process
    /// manager by IPC, so RS needs no other kernel call.
    pub fn reincarnation_server() -> Self {
        let mut p = Privileges::server();
        p.uid = 0;
        p.kernel_calls = [KernelCall::SetAlarm].into_iter().collect();
        p
    }

    /// Replaces the IPC filter (builder style). Used where a component's
    /// observed authority is narrower than its constructor's default — the
    /// least-authority audit flags the difference otherwise.
    pub fn with_ipc(mut self, ipc: IpcFilter) -> Self {
        self.ipc = ipc;
        self
    }

    /// Replaces the kernel-call set (builder style).
    pub fn with_calls<I: IntoIterator<Item = KernelCall>>(mut self, calls: I) -> Self {
        self.kernel_calls = calls.into_iter().collect();
        self
    }

    /// Returns whether `call` is permitted.
    pub fn allows_call(&self, call: KernelCall) -> bool {
        self.kernel_calls.contains(&call)
    }

    /// Returns whether I/O to `device` is permitted.
    pub fn allows_device(&self, device: DeviceId) -> bool {
        self.devices.contains(&device)
    }

    /// Returns whether registering for `irq` is permitted.
    pub fn allows_irq(&self, irq: IrqLine) -> bool {
        self.irq_lines.contains(&irq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn user_has_only_the_alarm_call() {
        let p = Privileges::user();
        assert!(!p.allows_call(KernelCall::Devio));
        assert!(!p.allows_call(KernelCall::Spawn));
        assert!(p.allows_call(KernelCall::SetAlarm), "POSIX alarm(2)");
        assert!(p.ipc.allows("vfs"));
        assert!(
            !p.ipc.allows("eth.rtl8139"),
            "apps cannot talk to drivers directly"
        );
    }

    #[test]
    fn driver_confined_to_own_device() {
        let p = Privileges::driver(DeviceId(3), 11);
        assert!(p.allows_device(DeviceId(3)));
        assert!(!p.allows_device(DeviceId(4)));
        assert!(p.allows_irq(11));
        assert!(!p.allows_irq(12));
        assert!(p.allows_call(KernelCall::Devio));
        assert!(!p.allows_call(KernelCall::Kill), "drivers cannot kill");
        assert!(!p.may_complain);
    }

    #[test]
    fn only_pm_spawns() {
        assert!(Privileges::process_manager().allows_call(KernelCall::Spawn));
        assert!(!Privileges::server().allows_call(KernelCall::Spawn));
        assert!(!Privileges::reincarnation_server().allows_call(KernelCall::Spawn));
    }

    #[test]
    fn ipc_filter_variants() {
        assert!(IpcFilter::AllowAll.allows("anyone"));
        assert!(!IpcFilter::DenyAll.allows("anyone"));
        let f = IpcFilter::named(["ds", "rs"]);
        assert!(f.allows("ds"));
        assert!(!f.allows("vfs"));
    }

    #[test]
    fn servers_may_complain_drivers_may_not() {
        assert!(Privileges::server().may_complain);
        assert!(!Privileges::driver(DeviceId(0), 0).may_complain);
    }
}
