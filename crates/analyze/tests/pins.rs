//! What the determinism lints and the dead-edge pass report, as
//! literals: on every source string `lint_rules.rs` feeds the linter, on
//! the real workspace, and on one protocol fixture written under the
//! build's scratch directory. Captured from the lexical scanners before
//! their rules moved onto the token stream; the adapters below may follow
//! the crate's entry points, the expected values may not. The fixture is
//! written in `protocol!` rows, each kind on the line its annotated const
//! stood on when the values were captured.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use phoenix_analyze::proto_model::Dir;
use phoenix_analyze::{conformance, lint, load, workspace_root};

// ------------------------------------------------------------- adapters

/// `(line, rule)` of every finding in one source text.
fn lint_hits(path: &str, src: &str) -> Vec<(usize, &'static str)> {
    lint::lint_source(path, src, &lint::default_rules())
        .into_iter()
        .map(|f| (f.line, f.rule))
        .collect()
}

/// `(file, line, rule)` of every lint finding under `root`.
fn workspace_lint(root: &Path) -> Vec<(String, usize, &'static str)> {
    lint::lint_workspace(&load(root).unwrap())
        .into_iter()
        .map(|f| (f.file, f.line, f.rule))
        .collect()
}

/// The dead edges as the gate prints them, and `(file, line, module)` of
/// every glob warning.
fn dead_edges(root: &Path) -> (Vec<String>, Vec<(String, usize, String)>) {
    let dead = conformance::analyze(&load(root).unwrap(), conformance::PROTO_FILES);
    (
        dead.dead_edges.iter().map(ToString::to_string).collect(),
        dead.glob_warnings
            .into_iter()
            .map(|g| (g.file, g.line, g.module))
            .collect(),
    )
}

/// Keys of the usage table that count no reference at all.
fn zero_rows(root: &Path) -> Vec<String> {
    conformance::analyze(&load(root).unwrap(), conformance::PROTO_FILES)
        .usage
        .into_iter()
        .filter(|(_, u)| u.sends + u.handles == 0)
        .map(|(k, _)| k)
        .collect()
}

// ---------------------------------------------------------------- lints

const PRAGMA_BLOCK: &str = "\
// analyze:allow(rng-construction): the root RNG of the run; every
// other stream forks from this one.
let rng = SimRng::new(cfg.seed);
";

const PRAGMA_LEAK: &str = "\
// analyze:allow(rng-construction): covers only the next line
let a = SimRng::new(1);
let b = SimRng::new(2);
";

const TEST_MODULE: &str = "\
fn prod() {}
#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    #[test]
    fn t() { let x = SimRng::new(1); x.gen(); map.get(&k).unwrap(); }
}
";

const DECIDE: &str = "crates/servers/src/rs/decide.rs";
const DECIDE_SRCS: [&str; 4] = [
    "fn judge(ctx: &mut Ctx<'_>) {}\n",
    "use phoenix_kernel::system::Ctx;\n",
    "ctx.metrics().incr(\"rs.storms\");\n",
    "ctx.trace(TraceLevel::Warn, why);\n",
];

const FORMATS: [&str; 2] = ["crates/servers/src/fsfmt.rs", "crates/servers/src/fsfat.rs"];
const FORMAT_SRCS: [&str; 4] = [
    "fn apply(&mut self, ctx: &mut Ctx<'_>, payload: &[u8]) -> bool {}\n",
    "use phoenix_kernel::system::Ctx;\n",
    "ctx.metrics().incr(\"fat.mount_restored\");\n",
    "let call = ctx.sendrec(driver, Message::new(bdev::READ));\n",
];

const CODECS: [&str; 5] = [
    "crates/servers/src/inet.rs",
    "crates/servers/src/vfs.rs",
    "crates/servers/src/pm.rs",
    "crates/fleet/src/proto.rs",
    "crates/ckpt/src/snapshot.rs",
];
const CODEC_SRCS: [&str; 2] = [
    "let n = u32::from_le_bytes(buf.get(at..at + 4)?.try_into().ok()?);\n",
    "out.extend_from_slice(&ep.slot().to_le_bytes());\n",
];

/// `(line, rule)` of each expected finding.
type Hits = &'static [(usize, &'static str)];

/// `(path, source, findings)` for the one-off strings of `lint_rules.rs`.
const SINGLES: &[(&str, &str, Hits)] = &[
    (
        "crates/kernel/src/x.rs",
        "fn f() { let t = std::time::Instant::now(); }\n",
        &[(1, "wall-clock")],
    ),
    (
        "crates/servers/src/x.rs",
        "use std::time::SystemTime;\n",
        &[(1, "wall-clock")],
    ),
    (
        "crates/kernel/src/x.rs",
        "fn f(now: SimTime) -> SimTime { now + SimDuration::from_millis(1) }\n",
        &[],
    ),
    (
        "crates/bench/src/lib.rs",
        "let t = std::time::Instant::now();\n",
        &[],
    ),
    (
        "crates/core/src/experiments.rs",
        "pub type Instant = SimTime;\nfn f(t: Instant) -> Instant { t }\n",
        &[],
    ),
    (
        "crates/servers/src/rs.rs",
        "use std::collections::HashMap;\n",
        &[(1, "hash-collection")],
    ),
    (
        "crates/hw/src/x.rs",
        "let s: HashSet<u32> = HashSet::new();\n",
        &[(1, "hash-collection")],
    ),
    (
        "crates/servers/src/rs.rs",
        "use std::collections::{BTreeMap, BTreeSet};\n",
        &[],
    ),
    (
        "crates/drivers/src/x.rs",
        "let rng = SimRng::new(42);\n",
        &[(1, "rng-construction")],
    ),
    (
        "crates/drivers/src/x.rs",
        "let rng = parent.fork(\"driver\");\n",
        &[],
    ),
    (
        "crates/simcore/src/rng.rs",
        "let rng = SimRng::new(seed);\n",
        &[],
    ),
    (
        "crates/core/src/x.rs",
        "std::thread::spawn(move || work());\n",
        &[(1, "thread")],
    ),
    (
        "crates/kernel/src/x.rs",
        "use std::collections::HashMap; // analyze:allow(hash-collection): ffi table\n",
        &[],
    ),
    ("crates/kernel/src/x.rs", PRAGMA_BLOCK, &[]),
    (
        "crates/kernel/src/x.rs",
        PRAGMA_LEAK,
        &[(3, "rng-construction")],
    ),
    (
        "crates/kernel/src/x.rs",
        "use std::collections::HashMap; // analyze:allow(wall-clock): wrong rule\n",
        &[(1, "hash-collection")],
    ),
    (
        "crates/kernel/src/x.rs",
        "// let rng = SimRng::new(42);\n/* std::thread::spawn(f); */\n",
        &[],
    ),
    ("crates/servers/src/rs.rs", TEST_MODULE, &[]),
    (
        "crates/hw/src/bus.rs",
        "fn a() {}\nuse std::collections::HashMap;\n",
        &[(2, "hash-collection")],
    ),
];

#[test]
fn every_source_string_of_lint_rules_reports_what_it_reported() {
    for (path, src, expected) in SINGLES {
        assert_eq!(lint_hits(path, src), *expected, "{path}: {src}");
    }
    for src in DECIDE_SRCS {
        assert_eq!(lint_hits(DECIDE, src), [(1, "decide-purity")], "{src}");
        assert_eq!(lint_hits("crates/servers/src/rs.rs", src), [], "{src}");
    }
    for src in FORMAT_SRCS {
        for format in FORMATS {
            assert_eq!(lint_hits(format, src), [(1, "format-purity")], "{src}");
        }
        assert_eq!(lint_hits("crates/servers/src/mfs.rs", src), [], "{src}");
    }
    for src in CODEC_SRCS {
        for codec in CODECS {
            assert_eq!(lint_hits(codec, src), [(1, "raw-cursor")], "{src}");
        }
        assert_eq!(lint_hits("crates/servers/src/fsfmt.rs", src), [], "{src}");
        assert_eq!(lint_hits("crates/simcore/src/wire.rs", src), [], "{src}");
    }
}

// ------------------------------------------------------- real workspace

#[test]
fn the_real_workspace_reports_nothing() {
    let root = workspace_root();
    assert_eq!(workspace_lint(&root), []);
    let (edges, globs) = dead_edges(&root);
    assert_eq!(edges, [] as [String; 0]);
    assert_eq!(globs, []);
    assert_eq!(zero_rows(&root), [] as [String; 0]);
    let proto = conformance::analyze(&load(&root).unwrap(), conformance::PROTO_FILES);
    assert_eq!(proto.findings.len(), 0);
    assert_eq!(proto.suppressed.len(), 0);
    let values = proto.kinds.iter().filter(|k| k.dir == Dir::Value).count();
    assert_eq!(
        (proto.kinds.len(), values),
        (77, 14),
        "63 message kinds, 14 values"
    );
    // `Msg::decode`'s `None` means "another table's kind" only while no
    // two message rows, in any tables, share a value.
    let messages = proto.kinds.iter().filter(|k| k.dir != Dir::Value);
    let distinct: BTreeSet<u32> = messages.map(|k| k.value).collect();
    assert_eq!(distinct.len(), 63, "two message rows share a value");
}

// -------------------------------------------------------------- fixture

/// A protocol file with one dead message kind (`ping::PLANTED`), one dead
/// value kind (`evidence::PLANTED`), a kind whose only namesake in use
/// lives in another module (`bdev::READ` beside `cdev::READ`), a `u64`
/// status code nothing names, and a module one user glob-imports.
const FIXTURE_PROTO: &str = "\
pub mod status {
    pub const OK: u64 = 0;
}
pub mod bdev {
    phoenix_kernel::protocol! {
        request READ = 0x201 -> REPLY;
        reply REPLY = 0x202;
    }
}
pub mod cdev {
    phoenix_kernel::protocol! {
        request READ = 0x301 -> REPLY;
        reply REPLY = 0x302;
    }
}
pub mod ping {
    phoenix_kernel::protocol! {
        oneway PLANTED = 0x102;
        oneway TESTED = 0x103;
        oneway IMPORTED = 0x104;
    }
}
pub mod evidence {
    phoenix_kernel::protocol! {
        /// The driver failed to answer in time.
        value DEADLINE = 1;
        value PLANTED = 2;
    }
}
pub mod globbed {
    phoenix_kernel::protocol! {
        oneway NAMED = 0x400;
        oneway UNNAMED = 0x401;
    }
}
";

/// An aliased module, a brace import, a module glob, a const imported by
/// name; `cdev::READ` is matched, `bdev::READ` never is.
const FIXTURE_USER: &str = "\
use crate::proto::cdev as chr;
use crate::proto::{bdev, evidence};
use crate::proto::globbed::*;
use crate::proto::ping::{IMPORTED};

fn serve(m: &Message) {
    match chr::Msg::decode(m) {
        Some(chr::Msg::READ) => reply(chr::REPLY),
        _ => {}
    }
    if let Some(bdev::Msg::REPLY) = bdev::Msg::decode(m) {
        note(evidence::DEADLINE);
    }
    send(NAMED);
    send(IMPORTED);
}
";

/// A kind only an integration test names is not dead.
const FIXTURE_TEST: &str = "\
use phoenix_drivers::proto::ping;

#[test]
fn t() {
    assert_eq!(ping::Msg::decode(&reply), Some(ping::Msg::TESTED));
}
";

fn fixture_root() -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("pins_fixture");
    let write = |rel: &str, text: &str| {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, text).unwrap();
    };
    write("crates/drivers/src/proto.rs", FIXTURE_PROTO);
    write("crates/drivers/src/user.rs", FIXTURE_USER);
    write("crates/drivers/tests/t.rs", FIXTURE_TEST);
    root
}

#[test]
fn the_fixture_reports_its_three_dead_kinds_and_its_glob() {
    let root = fixture_root();
    let (edges, globs) = dead_edges(&root);
    assert_eq!(
        edges,
        [
            "crates/drivers/src/proto.rs:6: [dead-edge] bdev::READ is never sent or handled",
            "crates/drivers/src/proto.rs:18: [dead-edge] ping::PLANTED is never sent or handled",
            "crates/drivers/src/proto.rs:27: [dead-edge] evidence::PLANTED is never sent or handled",
        ]
    );
    assert_eq!(
        globs,
        [(
            "crates/drivers/src/user.rs".to_string(),
            3,
            "globbed".to_string()
        )]
    );
    assert_eq!(zero_rows(&root), [] as [String; 0]);
}
