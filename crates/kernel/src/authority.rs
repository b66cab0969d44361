//! Observed-authority recording and the least-authority audit.
//!
//! §4 of the paper loads every system process with a minimal privilege
//! table, but nothing in the original system *measures* whether those
//! tables are actually minimal. This module closes the loop: the kernel
//! records, per stable process name, which IPC destinations, kernel calls,
//! devices, and IRQ lines a component actually exercised; the audit then
//! diffs observed usage against the declared [`Privileges`] tables and
//! reports declared-but-never-exercised grants as POLA (principle of least
//! authority) violations.
//!
//! Usage is keyed by stable *name*, not endpoint, so a driver's authority
//! footprint accumulates across restarts — exactly the identity the
//! privilege tables themselves are declared under. The kernel resolves the
//! name to its ledger row once per incarnation, at spawn; every permitted
//! operation then records through that row's `UsageSlot`, an index, and
//! names are rendered only when the ledger is read.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::privileges::{IpcFilter, KernelCall, Privileges};
use crate::types::{DeviceId, IrqLine};

/// One component's observed authority footprint.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UsageRecord {
    /// Stable names of IPC destinations this component sent to.
    pub ipc_to: BTreeSet<String>,
    /// Kernel calls it issued (and passed the privilege check for).
    pub calls: BTreeSet<KernelCall>,
    /// Devices whose I/O registers it touched.
    pub devices: BTreeSet<DeviceId>,
    /// IRQ lines it registered for.
    pub irqs: BTreeSet<IrqLine>,
}

/// A component's row of the [`AuthorityUsage`] ledger: one per stable
/// name, resolved at spawn and carried by the incarnation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct UsageSlot(u32);

/// What one row recorded; IPC destinations are other rows.
#[derive(Clone, Debug, Default)]
struct Row {
    ipc_to: BTreeSet<UsageSlot>,
    calls: BTreeSet<KernelCall>,
    devices: BTreeSet<DeviceId>,
    irqs: BTreeSet<IrqLine>,
}

/// Observed authority for every component, one row per stable process
/// name.
#[derive(Clone, Debug, Default)]
pub struct AuthorityUsage {
    /// Each name's row, in name order.
    slots: BTreeMap<String, UsageSlot>,
    rows: Vec<Row>,
}

impl AuthorityUsage {
    /// Creates an empty usage table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The row of `name`, created on first use. A row that never records
    /// anything is not part of what the ledger reads back.
    pub(crate) fn slot(&mut self, name: &str) -> UsageSlot {
        if let Some(&slot) = self.slots.get(name) {
            return slot;
        }
        let slot = UsageSlot(self.rows.len() as u32);
        self.rows.push(Row::default());
        self.slots.insert(name.to_string(), slot);
        slot
    }

    /// Records a successful IPC send from `from` to `to`.
    pub(crate) fn record_ipc(&mut self, from: UsageSlot, to: UsageSlot) {
        self.rows[from.0 as usize].ipc_to.insert(to);
    }

    /// Records a kernel call that passed the privilege check.
    pub(crate) fn record_call(&mut self, who: UsageSlot, call: KernelCall) {
        self.rows[who.0 as usize].calls.insert(call);
    }

    /// Records device register access that passed the privilege check.
    pub(crate) fn record_device(&mut self, who: UsageSlot, dev: DeviceId) {
        self.rows[who.0 as usize].devices.insert(dev);
    }

    /// Records an IRQ line registration that passed the privilege check.
    pub(crate) fn record_irq(&mut self, who: UsageSlot, irq: IrqLine) {
        self.rows[who.0 as usize].irqs.insert(irq);
    }

    /// The usage record of `who`, if it exercised any authority.
    pub fn get(&self, who: &str) -> Option<UsageRecord> {
        self.render(*self.slots.get(who)?)
    }

    /// All components with recorded usage, in name order.
    pub fn components(&self) -> impl Iterator<Item = (&str, UsageRecord)> {
        self.slots
            .iter()
            .filter_map(|(name, &slot)| Some((name.as_str(), self.render(slot)?)))
    }

    /// Row `slot` with its destinations named; `None` if it recorded
    /// nothing.
    fn render(&self, slot: UsageSlot) -> Option<UsageRecord> {
        let row = &self.rows[slot.0 as usize];
        let record = UsageRecord {
            ipc_to: self
                .slots
                .iter()
                .filter(|(_, to)| row.ipc_to.contains(to))
                .map(|(name, _)| name.clone())
                .collect(),
            calls: row.calls.clone(),
            devices: row.devices.clone(),
            irqs: row.irqs.clone(),
        };
        (record != UsageRecord::default()).then_some(record)
    }
}

/// The kind of excess authority a [`PolaFinding`] reports.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum PolaViolation {
    /// The component declares `IpcFilter::AllowAll` — a wildcard that the
    /// audit cannot prove minimal. Must be explicitly justified.
    IpcWildcard,
    /// A named IPC destination was granted but never sent to.
    IpcUnused {
        /// The unexercised destination name.
        dest: String,
    },
    /// A kernel call was granted but never issued.
    CallUnused {
        /// The unexercised call.
        call: KernelCall,
    },
    /// A device grant was never exercised.
    DeviceUnused {
        /// The unexercised device.
        device: DeviceId,
    },
    /// An IRQ line grant was never exercised.
    IrqUnused {
        /// The unexercised IRQ line.
        irq: IrqLine,
    },
}

/// One least-authority violation: `component` holds a grant it never used.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct PolaFinding {
    /// Stable name of the over-provisioned component.
    pub component: String,
    /// What excess authority it holds.
    pub violation: PolaViolation,
}

impl PolaFinding {
    /// A stable machine-readable key for the grant (`ipc:*`, `ipc:pm`,
    /// `call:sys_setgrant`, `dev:3`, `irq:9`) — used by allowlists.
    pub fn grant_key(&self) -> String {
        match &self.violation {
            PolaViolation::IpcWildcard => "ipc:*".to_string(),
            PolaViolation::IpcUnused { dest } => format!("ipc:{dest}"),
            PolaViolation::CallUnused { call } => format!("call:{}", call.name()),
            PolaViolation::DeviceUnused { device } => format!("dev:{}", device.0),
            PolaViolation::IrqUnused { irq } => format!("irq:{irq}"),
        }
    }
}

impl fmt::Display for PolaFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.violation {
            PolaViolation::IpcWildcard => write!(
                f,
                "{}: declares IpcFilter::AllowAll (wildcard IPC authority)",
                self.component
            ),
            PolaViolation::IpcUnused { dest } => write!(
                f,
                "{}: may send to \"{dest}\" but never did",
                self.component
            ),
            PolaViolation::CallUnused { call } => write!(
                f,
                "{}: granted {} but never called it",
                self.component,
                call.name()
            ),
            PolaViolation::DeviceUnused { device } => write!(
                f,
                "{}: granted I/O on {device} but never touched it",
                self.component
            ),
            PolaViolation::IrqUnused { irq } => write!(
                f,
                "{}: granted IRQ line {irq} but never registered for it",
                self.component
            ),
        }
    }
}

/// Diffs declared privileges against observed usage for every component in
/// `scope`, returning all declared-but-never-exercised grants.
///
/// Components in scope but absent from `declared` are skipped (nothing to
/// audit); components that never ran produce findings for *all* their
/// grants, which is intended — a registered program that is never exercised
/// by the audit workload is a coverage gap worth surfacing.
///
/// `may_complain` is deliberately not audited: complaints only fire on
/// protocol violations by *other* components, so a clean run proves nothing
/// about whether the grant is needed.
pub fn audit(
    declared: &BTreeMap<String, Privileges>,
    usage: &AuthorityUsage,
    scope: &BTreeSet<String>,
) -> Vec<PolaFinding> {
    let mut findings = Vec::new();
    for name in scope {
        let Some(privs) = declared.get(name) else {
            continue;
        };
        let used = usage.get(name).unwrap_or_default();
        match &privs.ipc {
            IpcFilter::AllowAll => findings.push(PolaFinding {
                component: name.clone(),
                violation: PolaViolation::IpcWildcard,
            }),
            IpcFilter::AllowNamed(dests) => {
                for dest in dests {
                    if !used.ipc_to.contains(dest) {
                        findings.push(PolaFinding {
                            component: name.clone(),
                            violation: PolaViolation::IpcUnused { dest: dest.clone() },
                        });
                    }
                }
            }
            IpcFilter::DenyAll => {}
        }
        for &call in &privs.kernel_calls {
            if !used.calls.contains(&call) {
                findings.push(PolaFinding {
                    component: name.clone(),
                    violation: PolaViolation::CallUnused { call },
                });
            }
        }
        for &device in &privs.devices {
            if !used.devices.contains(&device) {
                findings.push(PolaFinding {
                    component: name.clone(),
                    violation: PolaViolation::DeviceUnused { device },
                });
            }
        }
        for &irq in &privs.irq_lines {
            if !used.irqs.contains(&irq) {
                findings.push(PolaFinding {
                    component: name.clone(),
                    violation: PolaViolation::IrqUnused { irq },
                });
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scope_of(names: &[&str]) -> BTreeSet<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unused_grants_become_findings() {
        let mut declared = BTreeMap::new();
        declared.insert(
            "drv".to_string(),
            Privileges::driver(DeviceId(3), 11).with_ipc(IpcFilter::named(["rs", "ds"])),
        );
        let mut usage = AuthorityUsage::new();
        let (drv, rs) = (usage.slot("drv"), usage.slot("rs"));
        usage.record_ipc(drv, rs);
        usage.record_call(drv, KernelCall::Devio);
        usage.record_device(drv, DeviceId(3));
        usage.record_irq(drv, 11);

        let findings = audit(&declared, &usage, &scope_of(&["drv"]));
        let keys: Vec<String> = findings.iter().map(|f| f.grant_key()).collect();
        assert!(keys.contains(&"ipc:ds".to_string()), "unused ipc dest");
        assert!(
            keys.contains(&"call:sys_iommu".to_string()),
            "unused kernel call"
        );
        assert!(!keys.contains(&"ipc:rs".to_string()), "used grants pass");
        assert!(!keys.contains(&"dev:3".to_string()));
        assert!(!keys.contains(&"irq:11".to_string()));
    }

    #[test]
    fn wildcard_ipc_is_always_flagged() {
        let mut declared = BTreeMap::new();
        declared.insert("srv".to_string(), Privileges::server().with_calls([]));
        let mut usage = AuthorityUsage::new();
        let srv = usage.slot("srv");
        for dest in ["a", "b"] {
            let to = usage.slot(dest);
            usage.record_ipc(srv, to);
        }
        let findings = audit(&declared, &usage, &scope_of(&["srv"]));
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].grant_key(), "ipc:*");
    }

    #[test]
    fn exact_usage_produces_no_findings() {
        let mut declared = BTreeMap::new();
        declared.insert(
            "drv".to_string(),
            Privileges::driver(DeviceId(1), 9)
                .with_ipc(IpcFilter::named(["rs"]))
                .with_calls([KernelCall::Devio, KernelCall::IrqCtl]),
        );
        let mut usage = AuthorityUsage::new();
        let (drv, rs) = (usage.slot("drv"), usage.slot("rs"));
        usage.record_ipc(drv, rs);
        usage.record_call(drv, KernelCall::Devio);
        usage.record_call(drv, KernelCall::IrqCtl);
        usage.record_device(drv, DeviceId(1));
        usage.record_irq(drv, 9);
        assert!(audit(&declared, &usage, &scope_of(&["drv"])).is_empty());
    }

    #[test]
    fn out_of_scope_components_are_ignored() {
        let mut declared = BTreeMap::new();
        declared.insert("app".to_string(), Privileges::user());
        let usage = AuthorityUsage::new();
        assert!(audit(&declared, &usage, &scope_of(&["drv"])).is_empty());
    }

    #[test]
    fn usage_accumulates_across_incarnations() {
        let mut usage = AuthorityUsage::new();
        let (eth, rs) = (usage.slot("eth"), usage.slot("rs"));
        usage.record_ipc(eth, rs);
        // Restarted incarnation, same stable name: the same row.
        let again = usage.slot("eth");
        assert_eq!(again, eth);
        let inet = usage.slot("inet");
        usage.record_ipc(again, inet);
        let rec = usage.get("eth").expect("recorded");
        assert_eq!(rec.ipc_to, scope_of(&["inet", "rs"]));
    }

    #[test]
    fn rows_that_recorded_nothing_are_not_read_back() {
        let mut usage = AuthorityUsage::new();
        let (vfs, mfs) = (usage.slot("vfs"), usage.slot("mfs"));
        usage.slot("idle");
        usage.record_ipc(vfs, mfs);
        usage.record_call(mfs, KernelCall::SetAlarm);
        assert_eq!(usage.get("idle"), None);
        assert_eq!(usage.get("nobody"), None);
        let names: Vec<&str> = usage.components().map(|(name, _)| name).collect();
        assert_eq!(names, ["mfs", "vfs"], "name order, not row order");
    }
}
