//! Fixture tests: each determinism lint rule must fire on a minimal bad
//! snippet, stay quiet on the idiomatic alternative, and honor
//! `analyze:allow` pragmas and the test-module exemption.

use phoenix_analyze::lint::{default_rules, lint_source, LintFinding};

fn run(path: &str, src: &str) -> Vec<LintFinding> {
    lint_source(path, src, &default_rules())
}

fn rules_hit(path: &str, src: &str) -> Vec<&'static str> {
    run(path, src).into_iter().map(|f| f.rule).collect()
}

#[test]
fn wall_clock_reads_are_flagged() {
    let src = "fn f() { let t = std::time::Instant::now(); }\n";
    assert_eq!(rules_hit("crates/kernel/src/x.rs", src), ["wall-clock"]);
    let src = "use std::time::SystemTime;\n";
    assert_eq!(rules_hit("crates/servers/src/x.rs", src), ["wall-clock"]);
    // SimTime is the sanctioned clock.
    let src = "fn f(now: SimTime) -> SimTime { now + SimDuration::from_millis(1) }\n";
    assert!(run("crates/kernel/src/x.rs", src).is_empty());
}

#[test]
fn wall_clock_is_allowed_in_the_bench_harness() {
    let src = "let t = std::time::Instant::now();\n";
    assert!(run("crates/bench/src/lib.rs", src).is_empty());
}

#[test]
fn the_type_alias_instant_is_not_a_wall_clock_read() {
    // experiments.rs aliases `Instant` to SimTime; only std's Instant
    // and `Instant::now()` count.
    let src = "pub type Instant = SimTime;\nfn f(t: Instant) -> Instant { t }\n";
    assert!(run("crates/core/src/experiments.rs", src).is_empty());
}

#[test]
fn hash_collections_are_flagged() {
    let src = "use std::collections::HashMap;\n";
    assert_eq!(
        rules_hit("crates/servers/src/rs.rs", src),
        ["hash-collection"]
    );
    let src = "let s: HashSet<u32> = HashSet::new();\n";
    assert_eq!(run("crates/hw/src/x.rs", src).len(), 1);
    let src = "use std::collections::{BTreeMap, BTreeSet};\n";
    assert!(run("crates/servers/src/rs.rs", src).is_empty());
}

#[test]
fn rng_construction_is_flagged_outside_the_rng_module() {
    let src = "let rng = SimRng::new(42);\n";
    assert_eq!(
        rules_hit("crates/drivers/src/x.rs", src),
        ["rng-construction"]
    );
    // Forking an existing stream is the sanctioned way.
    let src = "let rng = parent.fork(\"driver\");\n";
    assert!(run("crates/drivers/src/x.rs", src).is_empty());
    // The rng module itself defines the constructor.
    let src = "let rng = SimRng::new(seed);\n";
    assert!(run("crates/simcore/src/rng.rs", src).is_empty());
}

#[test]
fn host_threads_are_flagged() {
    let src = "std::thread::spawn(move || work());\n";
    assert_eq!(rules_hit("crates/core/src/x.rs", src), ["thread"]);
}

#[test]
fn rs_decide_file_must_stay_pure() {
    let decide = "crates/servers/src/rs/decide.rs";
    for src in [
        "fn judge(ctx: &mut Ctx<'_>) {}\n",
        "use phoenix_kernel::system::Ctx;\n",
        "ctx.metrics().incr(\"rs.storms\");\n",
        "ctx.trace(TraceLevel::Warn, why);\n",
    ] {
        assert_eq!(rules_hit(decide, src), ["decide-purity"], "{src}");
        // The shell next door reports and acts on the decisions.
        assert!(run("crates/servers/src/rs.rs", src).is_empty());
    }
}

#[test]
fn format_files_know_nothing_about_drivers() {
    for src in [
        "fn apply(&mut self, ctx: &mut Ctx<'_>, payload: &[u8]) -> bool {}\n",
        "use phoenix_kernel::system::Ctx;\n",
        "ctx.metrics().incr(\"fat.mount_restored\");\n",
        "let call = ctx.sendrec(driver, Message::new(bdev::READ));\n",
    ] {
        for format in ["crates/servers/src/fsfmt.rs", "crates/servers/src/fsfat.rs"] {
            assert_eq!(rules_hit(format, src), ["format-purity"], "{src}");
        }
        // The engine is where the driver is handled.
        assert!(run("crates/servers/src/mfs.rs", src).is_empty());
    }
}

#[test]
fn state_codecs_go_through_the_wire_cursor() {
    for src in [
        "let n = u32::from_le_bytes(buf.get(at..at + 4)?.try_into().ok()?);\n",
        "out.extend_from_slice(&ep.slot().to_le_bytes());\n",
    ] {
        for codec in [
            "crates/servers/src/inet.rs",
            "crates/servers/src/vfs.rs",
            "crates/servers/src/pm.rs",
            "crates/fleet/src/proto.rs",
            "crates/ckpt/src/snapshot.rs",
        ] {
            assert_eq!(rules_hit(codec, src), ["raw-cursor"], "{src}");
        }
        // Fixed-offset layouts (on-disk structures, the cursor itself)
        // convert by position.
        assert!(run("crates/servers/src/fsfmt.rs", src).is_empty());
        assert!(run("crates/simcore/src/wire.rs", src).is_empty());
    }
}

#[test]
fn message_slots_go_through_their_rows() {
    for src in [
        "let nonce = msg.param(0);\n",
        "let pong = Message::new(drv::HB_PONG).with_param(0, nonce);\n",
        "reply.params[2] = 0;\n",
    ] {
        assert_eq!(
            rules_hit("crates/servers/src/vfs.rs", src),
            ["raw-param"],
            "{src}"
        );
        // The message type and the layout macro are where a slot is a number.
        assert!(run("crates/kernel/src/types.rs", src).is_empty());
        assert!(run("crates/kernel/src/layout.rs", src).is_empty());
    }
    // The row names the slot and checks the kind.
    let src = "let nonce = drv::HbPing::from_message(&msg).map_or(0, |p| p.nonce);\n";
    assert!(run("crates/drivers/src/libdriver.rs", src).is_empty());
    // The chaos corrupter flips a bit of any kind, under its one pragma.
    let src = "\
// analyze:allow(raw-param): chaos flips a bit of any kind by design.
msg.params[b / 64] ^= 1 << (b % 64);
";
    assert!(run("crates/kernel/src/system.rs", src).is_empty());
}

#[test]
fn message_kinds_are_matched_through_their_tables() {
    for src in [
        "if msg.mtype == bdev::READ { serve(); }\n",
        "Ok(reply) if reply.mtype != eth::WRITE_REPLY => complain(),\n",
        "match msg.mtype {\n    ds::PUBLISH => publish(),\n    _ => {}\n}\n",
        "match (msg.mtype, idx) {\n    (rs::UP, Some(i)) => up(i),\n    _ => {}\n}\n",
    ] {
        assert_eq!(
            rules_hit("crates/servers/src/rs.rs", src),
            ["raw-mtype"],
            "{src}"
        );
        // The generated decoder is the one match on a kind number; the
        // rest of the kernel is held to the rule like any other crate.
        assert!(run("crates/kernel/src/layout.rs", src).is_empty());
        assert_eq!(
            rules_hit("crates/kernel/src/system.rs", src),
            ["raw-mtype"],
            "{src}"
        );
    }
    // A match on the table's enum; a diagnostic that prints the kind as
    // its last argument.
    for src in [
        "match ds::Msg::decode(&msg) {\n    Some(ds::Msg::PUBLISH(p)) => publish(p),\n    _ => {}\n}\n",
        "let why = format!(\"reply type {:#x}\", reply.mtype);\n",
    ] {
        assert!(run("crates/servers/src/ds.rs", src).is_empty(), "{src}");
    }
    // A garble check against a kind the caller names, under its pragma.
    let src = "\
// analyze:allow(raw-mtype): the one kind the call expects, named by number.
let outcome = if reply.mtype == expected { Some(reply) } else { None };
";
    assert!(run("crates/servers/src/proto.rs", src).is_empty());
}

#[test]
fn same_line_pragma_suppresses() {
    let src = "use std::collections::HashMap; // analyze:allow(hash-collection): ffi table\n";
    assert!(run("crates/kernel/src/x.rs", src).is_empty());
}

#[test]
fn preceding_comment_block_pragma_suppresses() {
    // The pragma may sit several comment lines above the code line
    // (rustfmt wraps long reasons).
    let src = "\
// analyze:allow(rng-construction): the root RNG of the run; every
// other stream forks from this one.
let rng = SimRng::new(cfg.seed);
";
    assert!(run("crates/kernel/src/x.rs", src).is_empty());
}

#[test]
fn pragma_does_not_leak_past_the_next_code_line() {
    let src = "\
// analyze:allow(rng-construction): covers only the next line
let a = SimRng::new(1);
let b = SimRng::new(2);
";
    let hits = run("crates/kernel/src/x.rs", src);
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].line, 3);
}

#[test]
fn pragma_for_a_different_rule_does_not_suppress() {
    let src = "use std::collections::HashMap; // analyze:allow(wall-clock): wrong rule\n";
    assert_eq!(run("crates/kernel/src/x.rs", src).len(), 1);
}

#[test]
fn commented_out_code_is_not_flagged() {
    let src = "// let rng = SimRng::new(42);\n/* std::thread::spawn(f); */\n";
    assert!(run("crates/kernel/src/x.rs", src).is_empty());
}

#[test]
fn test_modules_are_exempt() {
    let src = "\
fn prod() {}
#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    #[test]
    fn t() { let x = SimRng::new(1); x.gen(); map.get(&k).unwrap(); }
}
";
    assert!(run("crates/servers/src/rs.rs", src).is_empty());
}

#[test]
fn a_gated_struct_field_exempts_itself_only() {
    let src = "\
struct S {
    #[cfg(test)]
    log: HashSet<u8>,
    m: HashMap<u8, u8>,
}
";
    let hits = run("crates/fleet/src/x.rs", src);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!((hits[0].line, hits[0].rule), (4, "hash-collection"));
}

#[test]
fn a_gated_struct_literal_field_exempts_itself_only() {
    // Neither the next field nor the first line of the next function.
    let src = "\
fn new() -> S {
    S {
        #[cfg(test)]
        log: Vec::new(),
        m: HashMap::new(),
    }
}
fn next(m: &HashMap<u8, u8>) {}
";
    let lines: Vec<usize> = (run("crates/fleet/src/x.rs", src).iter())
        .map(|f| f.line)
        .collect();
    assert_eq!(lines, [5, 8]);
}

#[test]
fn a_pattern_matches_whole_tokens_of_code() {
    // Not the inside of a string, not part of a longer identifier.
    let src = "let s = \"HashMap\";\nlet m = MyHashMapper::new();\n";
    assert!(run("crates/kernel/src/x.rs", src).is_empty());
}

#[test]
fn a_path_split_over_lines_is_one_finding_at_its_first_line() {
    let src = "fn f() {\n    let rng = SimRng::\n        new(1);\n}\n";
    let hits = run("crates/drivers/src/x.rs", src);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!((hits[0].line, hits[0].rule), (2, "rng-construction"));
    assert_eq!(hits[0].excerpt, "let rng = SimRng::");
}

#[test]
fn findings_carry_position_and_excerpt() {
    let src = "fn a() {}\nuse std::collections::HashMap;\n";
    let hits = run("crates/hw/src/bus.rs", src);
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].line, 2);
    assert_eq!(hits[0].file, "crates/hw/src/bus.rs");
    assert_eq!(hits[0].excerpt, "use std::collections::HashMap;");
    assert_eq!(
        hits[0].to_string(),
        "crates/hw/src/bus.rs:2: [hash-collection] use std::collections::HashMap;"
    );
}

#[test]
fn the_real_workspace_is_clean() {
    // The gate ci.sh enforces, as a test: no unsuppressed determinism
    // findings and no dead protocol edges in the actual sources.
    use phoenix_analyze::conformance;
    let files = phoenix_analyze::load(&phoenix_analyze::workspace_root()).unwrap();
    let findings = phoenix_analyze::lint::lint_workspace(&files);
    assert!(findings.is_empty(), "determinism lints: {findings:?}");
    let edges = conformance::analyze(&files, conformance::PROTO_FILES).dead_edges;
    assert!(edges.is_empty(), "dead protocol edges: {edges:?}");
}
