//! What `Os::boot` assembles, pinned as text: for every builder
//! configuration used in-tree, the audit scope, which components are up
//! after the boot settle, the order the kernel spawned them in, the
//! order the drivers started in, and every declared privilege table.
//! A change to boot that moves none of this is a refactor.

use std::fmt::Write as _;

use phoenix::os::{NicKind, Os, OsBuilder};
use phoenix_kernel::privileges::{IpcFilter, Privileges};
use phoenix_servers::fsfmt::{FileContent, FileSpec};
use phoenix_simcore::time::SimDuration;
use phoenix_simcore::trace::TraceEvent;

fn one_file(name: &str) -> Vec<FileSpec> {
    vec![FileSpec {
        name: name.to_string(),
        content: FileContent::Synthetic { size: 100_000 },
    }]
}

fn with_disk(b: OsBuilder) -> OsBuilder {
    b.with_disk(2048, 11, one_file("bigfile"))
}

fn with_fat(b: OsBuilder) -> OsBuilder {
    b.with_fat_disk(2048, 12, one_file("big.bin"))
}

/// The machine `audit.rs` boots, at small disk sizes.
fn audit_machine(b: OsBuilder) -> OsBuilder {
    with_fat(with_disk(b.with_network(NicKind::Rtl8139)))
        .with_chardevs()
        .heartbeat(SimDuration::from_millis(2000), 3)
}

type Config = (&'static str, fn(OsBuilder) -> OsBuilder);

const CONFIGS: [Config; 11] = [
    ("bare", |b| b),
    ("network rtl8139", |b| b.with_network(NicKind::Rtl8139)),
    ("network dp8390", |b| b.with_network(NicKind::Dp8390)),
    ("disk", with_disk),
    ("disk + fat", |b| with_fat(with_disk(b))),
    ("fat only", with_fat),
    ("chardevs", |b| b.with_chardevs()),
    ("checkpointing", |b| b.with_checkpointing()),
    ("hot standby", |b| b.with_hot_standby()),
    ("ramdisk + floppy", |b| b.with_ramdisk(64).with_floppy()),
    ("audit machine", audit_machine),
];

fn list<T: std::fmt::Display>(items: impl IntoIterator<Item = T>) -> String {
    let items: Vec<String> = items.into_iter().map(|i| i.to_string()).collect();
    format!("[{}]", items.join(" "))
}

fn render_privileges(p: &Privileges) -> String {
    let ipc = match &p.ipc {
        IpcFilter::AllowAll => "all".to_string(),
        IpcFilter::AllowNamed(names) => list(names),
        IpcFilter::DenyAll => "none".to_string(),
    };
    format!(
        "uid={} ipc={} calls={} dev={} irq={} as={} complain={}",
        p.uid,
        ipc,
        list(p.kernel_calls.iter().map(|c| c.name())),
        list(p.devices.iter().map(|d| d.0)),
        list(&p.irq_lines),
        p.address_space,
        p.may_complain,
    )
}

/// Components of the trace events tagged `ev=<kind>`, in emission order.
fn traced<'a>(os: &'a Os, kind: &str, name: fn(&'a TraceEvent) -> &'a str) -> String {
    list(
        os.trace()
            .events()
            .filter(|e| e.field_str("ev") == Some(kind))
            .map(name),
    )
}

fn manifest() -> String {
    let mut out = String::new();
    for (label, configure) in CONFIGS {
        let os = configure(Os::builder().seed(17)).boot();
        assert_eq!(os.trace_dropped(), 0, "boot fits the trace ring");
        let declared = os.declared_privileges();
        let scope = os.audit_scope();
        writeln!(out, "== {label}").unwrap();
        writeln!(out, "scope {}", list(&scope)).unwrap();
        let down = scope.iter().filter(|n| !os.is_up(n));
        writeln!(out, "down {}", list(down)).unwrap();
        let spawned = traced(&os, "spawn", |e| e.field_str("proc").unwrap_or("?"));
        writeln!(out, "spawn {spawned}").unwrap();
        let started = traced(&os, "start", |e| e.component.as_str());
        writeln!(out, "start {started}").unwrap();
        for (name, privs) in &declared {
            writeln!(out, "priv {name}: {}", render_privileges(privs)).unwrap();
        }
    }
    out
}

#[test]
fn boot_manifest_is_pinned() {
    let actual = manifest();
    let expected = include_str!("boot_manifest.txt");
    assert!(
        actual == expected,
        "boot manifest moved; what boot assembles now:\n{actual}"
    );
}
