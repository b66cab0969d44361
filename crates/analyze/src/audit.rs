//! Least-authority conformance: runs the deterministic authority
//! workload and reports declared grants that were never exercised.
//!
//! The workload (see `phoenix::audit`) boots the full configuration,
//! drives every server and driver class through real work plus crash
//! recovery and a chaos phase, then diffs observed authority against the
//! declared privilege tables. Anything declared but unexercised is a
//! POLA violation (§4): authority a compromised or wild-pointer-driven
//! component could abuse but that the system never needs.
//!
//! Wildcard IPC filters are always reported by the kernel-side audit;
//! the ones that are genuinely irreducible are justified here, visibly,
//! rather than silently skipped.

use phoenix::audit::AuthoritySnapshot;
use phoenix::{run_authority_workload, OverGrant};
use phoenix_kernel::PolaFinding;

/// The seed every CI audit run uses. Any seed works (the workload's
/// authority trace is seed-independent by design); pinning one keeps the
/// gate byte-stable.
pub const AUDIT_SEED: u64 = 11;

/// A deliberately retained grant the audit would otherwise flag.
pub struct Justification {
    /// Component name.
    pub component: &'static str,
    /// Stable grant key, e.g. `ipc:*` (see `PolaFinding::grant_key`).
    pub grant_key: &'static str,
    /// Why least authority cannot be narrowed further here.
    pub reason: &'static str,
}

/// Grants that cannot be narrowed to a static allow-list: their
/// destination sets are dynamic by nature. Everything else must conform.
pub const JUSTIFIED: &[Justification] = &[
    Justification {
        component: "rs",
        grant_key: "ipc:*",
        reason: "pings and restarts every guarded service; the guarded set changes at runtime \
                 as services register",
    },
    Justification {
        component: "ds",
        grant_key: "ipc:*",
        reason: "pushes publish/retract notifications to arbitrary subscribers; the subscriber \
                 set is dynamic",
    },
    Justification {
        component: "inet",
        grant_key: "ipc:*",
        reason: "delivers socket data to dynamically spawned application processes by name",
    },
];

/// Outcome of one audit run.
pub struct AuditOutcome {
    /// The raw snapshot (for reports).
    pub snapshot: AuthoritySnapshot,
    /// Findings not covered by a justification — these fail the gate.
    pub violations: Vec<PolaFinding>,
    /// Findings covered by [`JUSTIFIED`], with the recorded reason.
    pub justified: Vec<(PolaFinding, &'static str)>,
}

/// Runs the authority workload (optionally with seeded over-grants) and
/// splits findings into violations and justified wildcards.
pub fn run_audit(seed: u64, overgrants: Vec<(String, OverGrant)>) -> AuditOutcome {
    let snapshot = run_authority_workload(seed, overgrants);
    let mut violations = Vec::new();
    let mut justified = Vec::new();
    for finding in snapshot.findings() {
        let excuse = JUSTIFIED
            .iter()
            .find(|j| j.component == finding.component && j.grant_key == finding.grant_key());
        match excuse {
            Some(j) => justified.push((finding, j.reason)),
            None => violations.push(finding),
        }
    }
    AuditOutcome {
        snapshot,
        violations,
        justified,
    }
}
