//! Least-authority audit integration tests: the real system must pass
//! the audit clean (green), and a deliberately over-granted driver must
//! be caught (red). Together they prove the gate can actually fail — a
//! clean run is only meaningful if the instrument detects violations
//! when they exist.

use phoenix::os::{hwmap, names};
use phoenix::OverGrant;
use phoenix_analyze::audit::{run_audit, AUDIT_SEED};
use phoenix_kernel::{KernelCall, PolaViolation};

#[test]
fn real_system_passes_the_audit_clean() {
    let outcome = run_audit(AUDIT_SEED, Vec::new());
    assert!(
        outcome.violations.is_empty(),
        "declared privilege tables must match exercised authority: {:?}",
        outcome.violations
    );
    // The justified wildcards are exactly the three dynamic-destination
    // servers — anything else must be narrowed, not excused.
    let justified: Vec<&str> = outcome
        .justified
        .iter()
        .map(|(f, _)| f.component.as_str())
        .collect();
    assert_eq!(justified, ["ds", "inet", "rs"]);
    // Sanity: the workload exercised the full breadth of the system.
    assert!(outcome.snapshot.scope.len() >= 14);
    assert!(outcome.snapshot.scope.iter().any(|c| c == "eth.rtl8139"));
}

#[test]
fn overgranted_kernel_call_is_caught() {
    // Seed a driver with a call it never issues; the audit must flag
    // exactly that grant and nothing else.
    let outcome = run_audit(
        AUDIT_SEED,
        vec![(
            names::BLK_SATA.to_string(),
            OverGrant::Call(KernelCall::SetAlarm),
        )],
    );
    assert_eq!(outcome.violations.len(), 1, "{:?}", outcome.violations);
    let v = &outcome.violations[0];
    assert_eq!(v.component, names::BLK_SATA);
    assert_eq!(v.grant_key(), "call:sys_setalarm");
    assert!(matches!(
        v.violation,
        PolaViolation::CallUnused {
            call: KernelCall::SetAlarm
        }
    ));
}

#[test]
fn overgranted_device_and_ipc_are_caught() {
    // A keyboard driver that could touch the SATA controller and chat
    // with the file server is precisely the §4 scenario the privilege
    // tables exist to prevent.
    let outcome = run_audit(
        AUDIT_SEED,
        vec![
            (names::CHR_KBD.to_string(), OverGrant::Device(hwmap::SATA)),
            (
                names::CHR_KBD.to_string(),
                OverGrant::Ipc("mfs".to_string()),
            ),
        ],
    );
    let keys: Vec<String> = outcome
        .violations
        .iter()
        .map(|v| format!("{}/{}", v.component, v.grant_key()))
        .collect();
    assert_eq!(keys, ["chr.kbd/ipc:mfs", "chr.kbd/dev:2"], "{keys:?}");
}
