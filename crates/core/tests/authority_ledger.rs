//! The authority ledger the least-authority audit reads, pinned as text:
//! after the audit workload at its CI seed, every component that
//! exercised anything, with the IPC destinations it sent to, the kernel
//! calls it issued, the devices it touched and the IRQ lines it
//! registered for. A change to how the kernel records authority that
//! moves none of this is a refactor.

use std::fmt::Write as _;

use phoenix::run_authority_workload;

fn list<T: std::fmt::Display>(items: impl IntoIterator<Item = T>) -> String {
    let items: Vec<String> = items.into_iter().map(|i| i.to_string()).collect();
    format!("[{}]", items.join(" "))
}

fn ledger() -> String {
    let snapshot = run_authority_workload(11, Vec::new());
    let mut out = String::new();
    for (name, used) in snapshot.usage.components() {
        writeln!(
            out,
            "{name}: ipc={} calls={} dev={} irq={}",
            list(&used.ipc_to),
            list(used.calls.iter().map(|c| c.name())),
            list(used.devices.iter().map(|d| d.0)),
            list(&used.irqs),
        )
        .unwrap();
    }
    out
}

#[test]
fn authority_ledger_is_pinned() {
    let actual = ledger();
    let expected = include_str!("authority_ledger.txt");
    assert!(
        actual == expected,
        "authority ledger moved; what the audit workload exercises now:\n{actual}"
    );
}
