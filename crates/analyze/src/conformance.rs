//! Protocol-conformance pass: holds the rows of the `protocol!` tables
//! ([`crate::proto_model`]) against how the workspace actually uses each
//! message kind.
//!
//! What a row gets wrong on its own (a slot out of range, two fields in
//! one slot, a request without a reply, a reply that names no kind) the
//! compiler rejects. What is left needs the whole workspace:
//!
//! 1. **Pairing** — a `reply` kind must be the reply of at least one
//!    request (`proto-orphan-reply`).
//! 2. **Handler coverage** — every reference to a kind is resolved
//!    through the file's `use` lines (`rsp::COMPLAIN` with
//!    `use ..proto::rs as rsp`, so same-named kinds of different modules
//!    — `bdev::READ`, `cdev::READ` — are kept apart) and is a *handle* or
//!    a *send* by its syntax alone. A handle is a path through a table's
//!    enum (`cdev::Msg::REPLY`, as a receiver's `match` arm names it) or
//!    a row's layout decoding a message (`cdev::Reply::from_message`).
//!    Every other reference — the const, or the layout built
//!    (`cdev::Reply { .. }.into_message()`) — is a send. A variant in an
//!    or-pattern beside a bare `None` (`Some(cdev::Msg::REPLY(_)) | None`)
//!    is neither: the receiver refuses it as it refuses another table's
//!    kind, and an owning receiver must list its own reply kinds in such
//!    an arm, so counting them would let it stand in for every reader of
//!    its replies. A kind sent
//!    somewhere but handled nowhere is a message the system emits and
//!    then drops on the floor (`proto-unhandled`); a kind handled
//!    somewhere but never sent is a dispatch arm that can never fire
//!    (`proto-unsent`). The compiler already proves that an owning
//!    receiver lists every kind of its table; these two rules hold what
//!    it cannot: that someone sends each kind and reads each reply.
//! 3. **Dead edges** — a kind (message or value) the usage table has no
//!    row for: nothing in the workspace, tests included, names it. It
//!    widens the nominal protocol surface, and therefore what an audit
//!    must reason about, without buying any behavior (`dead-edge`).
//! 4. **Field types** — a typed field fills as many slots as its type's
//!    `impl Field` in the kernel's layout module states. A type the model
//!    finds no such width for would leave the slot registry short, so it
//!    is a finding (`proto-field-type`), not a guess.
//!
//! Findings anchor at the row's line; all but `dead-edge` are suppressed
//! by the usual `// analyze:allow(rule): reason` pragma in the comment
//! block above the row.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::ast::{self, TokenKind};
use crate::proto_model::{self, Dir, Kind};
use crate::Source;

/// The protocol files the model is built from.
pub const PROTO_FILES: &[&str] = &[
    "crates/drivers/src/proto.rs",
    "crates/servers/src/proto.rs",
    "crates/ckpt/src/proto.rs",
    "crates/fleet/src/proto.rs",
];

/// One conformance finding.
#[derive(Clone, Debug)]
pub struct Finding {
    pub file: String,
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A finding silenced by an `analyze:allow` pragma, kept for the report.
#[derive(Clone, Debug)]
pub struct Suppressed {
    pub file: String,
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

/// How one kind is referenced across the workspace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KindUsage {
    pub sends: usize,
    pub handles: usize,
}

/// Conformance pass outcome.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    pub findings: Vec<Finding>,
    pub suppressed: Vec<Suppressed>,
    /// Every row of the protocol files, in file then row order.
    pub kinds: Vec<Kind>,
    /// `module::KIND` → usage counts: one row per kind named anywhere
    /// (what a send or a handle means is defined for message kinds only).
    pub usage: BTreeMap<String, KindUsage>,
    /// Kinds with no row in `usage` (rule `dead-edge`).
    pub dead_edges: Vec<Finding>,
    /// Module globs, whose kinds all count as live.
    pub glob_warnings: Vec<GlobImport>,
}

/// A `use ...proto::m::*` glob import: a bare `NAME` under it may be the
/// module's const or a local, so reference counting would undercount
/// and report false-positive dead edges. Every const of the globbed
/// module is instead conservatively live, and the import is surfaced as
/// a loud warning so someone narrows it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GlobImport {
    /// Workspace-relative path of the importing file.
    pub file: String,
    /// 1-based line of the `use`.
    pub line: usize,
    /// The globbed protocol module (empty for `use ...proto::*`, which
    /// is fully resolved instead of warned about).
    pub module: String,
}

impl fmt::Display for GlobImport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [glob-import] `use ...proto::{}::*` defeats per-const reference \
             counting; all of `{}`'s kinds are conservatively treated as live — import \
             the kinds by name",
            self.file, self.line, self.module, self.module
        )
    }
}

/// Per-file import resolution for protocol references.
#[derive(Clone, Debug, Default)]
struct UseMap {
    /// Local alias → protocol module (`rsp` → `rs`, `cdev` → `cdev`).
    modules: BTreeMap<String, String>,
    /// Consts imported by bare name: local name → `(module, const)`.
    consts: BTreeMap<String, (String, String)>,
    /// `use ...proto::m::*` imports seen in this file.
    globs: Vec<GlobImport>,
}

/// Builds the local import map for one file from its `use` lines
/// (`use crate::proto::{cdev, status};`, `use crate::proto::rs as rsp;`,
/// `use crate::proto::bdev::{READ, WRITE};`). `use ...proto::*` resolves
/// to every module (which the fallback below already grants);
/// `use ...proto::m::*` is recorded as a [`GlobImport`].
fn use_map(rel_path: &str, source: &str, modules: &BTreeSet<String>) -> UseMap {
    let mut out = UseMap::default();
    for (lineno, line) in source.lines().enumerate() {
        let t = line.trim();
        if !t.starts_with("use ") {
            continue;
        }
        let Some(idx) = t.rfind("proto::") else {
            continue;
        };
        let tail = t[idx + "proto::".len()..].trim_end_matches(';');
        if tail == "*" {
            // `use ...proto::*`: every module lands in scope under its
            // own name — the fully-qualified fallback below covers it.
            continue;
        }
        if let Some(inner) = tail.strip_prefix('{') {
            for item in inner.trim_end_matches('}').split(',') {
                let item = item.trim();
                if item.is_empty() {
                    continue;
                }
                match item.split_once(" as ") {
                    Some((real, alias)) => {
                        out.modules
                            .insert(alias.trim().to_string(), real.trim().to_string());
                    }
                    None => {
                        out.modules.insert(item.to_string(), item.to_string());
                    }
                }
            }
        } else if let Some((module, rest)) = tail.split_once("::") {
            // `use ...proto::m::{A, B}`, `use ...proto::m::A`, or
            // `use ...proto::m::*`.
            if modules.contains(module) {
                if rest.trim() == "*" {
                    out.globs.push(GlobImport {
                        file: rel_path.to_string(),
                        line: lineno + 1,
                        module: module.to_string(),
                    });
                    continue;
                }
                let names = rest.trim_start_matches('{').trim_end_matches('}');
                for name in names.split(',') {
                    out.consts.insert(
                        name.trim().to_string(),
                        (module.to_string(), name.trim().to_string()),
                    );
                }
            }
        } else {
            match tail.split_once(" as ") {
                Some((real, alias)) => {
                    out.modules
                        .insert(alias.trim().to_string(), real.trim().to_string());
                }
                None => {
                    out.modules.insert(tail.to_string(), tail.to_string());
                }
            }
        }
    }
    // A fully qualified `proto::m::CONST` needs no import at all.
    for m in modules {
        out.modules.entry(m.clone()).or_insert_with(|| m.clone());
    }
    out
}

/// What a protocol name refers to: `(module, ident)` of a row's const or
/// layout struct → the row's key, and whether it is the layout.
type Names = BTreeMap<(String, String), (String, bool)>;

/// Counts send/handle references to the rows' kinds in one file's tokens.
fn count_refs(
    tokens: &[ast::Token],
    uses: &UseMap,
    names: &Names,
    usage: &mut BTreeMap<String, KindUsage>,
) {
    // Consts of glob-imported modules are referenceable by bare name.
    let glob_mods: BTreeSet<&str> = uses.globs.iter().map(|g| g.module.as_str()).collect();
    let ident = |at: Option<usize>| at.and_then(|at| tokens.get(at)?.kind.ident());
    let path_sep = |at: Option<usize>| {
        at.and_then(|at| tokens.get(at))
            .is_some_and(|t| t.kind == TokenKind::PathSep)
    };
    for (i, tok) in tokens.iter().enumerate() {
        let TokenKind::Ident(name) = &tok.kind else {
            continue;
        };
        let lookup = |module: &str| names.get(&(module.to_string(), name.clone()));
        let back = |n: usize| i.checked_sub(n);
        // `alias::Msg::NAME`: the kind's variant of its table's enum.
        let through_enum = path_sep(back(1)) && ident(back(2)) == Some("Msg") && path_sep(back(3));
        let resolved = if path_sep(back(1)) {
            // Qualified `alias::NAME` or `alias::Msg::NAME`.
            let module = if through_enum { back(4) } else { back(2) };
            ident(module)
                .and_then(|q| uses.modules.get(q))
                .and_then(|m| lookup(m))
        } else if path_sep(Some(i + 1)) {
            // First segment of a path — not the const itself.
            None
        } else if let Some((m, c)) = uses.consts.get(name) {
            names.get(&(m.clone(), c.clone()))
        } else {
            glob_mods.iter().find_map(|m| lookup(m))
        };
        let Some((key, layout)) = resolved else {
            continue;
        };
        if through_enum && beside_none(tokens, i) {
            continue;
        }
        let decodes =
            *layout && path_sep(Some(i + 1)) && ident(Some(i + 2)) == Some("from_message");
        let entry = usage.entry(key.clone()).or_default();
        if through_enum || decodes {
            entry.handles += 1;
        } else {
            entry.sends += 1;
        }
    }
}

/// Whether the enum path at token `i` is an alternative of an
/// or-pattern that also lists a bare `None`, as in
/// `Some(pm::Msg::KILL_REPLY(_)) | None =>`: the receiver answers the
/// kind as it answers another table's, so the path is no handle (and no
/// send either). The or-pattern is walked outward from the path in both
/// directions, up to the arm's `=>`, a guard, a `,` or an `=`.
fn beside_none(tokens: &[ast::Token], i: usize) -> bool {
    let kind = |at: usize| tokens.get(at).map(|t| &t.kind);
    let walk = |order: &mut dyn Iterator<Item = usize>, forward: bool| {
        // Depth relative to the path; `min` is the level of the pattern
        // the walk has climbed out to, deeper tokens are sibling groups.
        let (mut depth, mut min, mut bar) = (0i32, 0i32, false);
        for at in order {
            let t = &tokens[at].kind;
            match t {
                TokenKind::Open(_) => depth += if forward { 1 } else { -1 },
                TokenKind::Close(_) => depth += if forward { -1 } else { 1 },
                _ if depth > min => continue,
                TokenKind::Ident(w) if w == "None" => return bar,
                // rustfmt's trailing comma closes a group, it ends nothing.
                TokenKind::Punct(',')
                    if forward && matches!(kind(at + 1), Some(TokenKind::Close(_))) => {}
                TokenKind::FatArrow | TokenKind::Punct(',' | ';' | '=') => return false,
                TokenKind::Ident(w) if w == "if" => return false,
                _ => {}
            }
            min = min.min(depth);
            bar = *t == TokenKind::Punct('|');
        }
        false
    };
    walk(&mut (i + 1..tokens.len()), true) || walk(&mut (0..i).rev(), false)
}

/// A finding anchored at row `k`.
fn at_row(k: &Kind, rule: &'static str, message: String) -> Finding {
    Finding {
        file: k.file.clone(),
        line: k.line,
        rule,
        message,
    }
}

/// Runs the conformance pass over the loaded workspace: the files
/// named in `proto_files` hold the rows, kind references are counted
/// in every file (tests included). The gate passes [`PROTO_FILES`]; the
/// fixture tests name their own.
pub fn analyze(files: &[Source], proto_files: &[&str]) -> Outcome {
    // In `proto_files` order: it is the order of the rows and the report.
    let protos = || {
        proto_files
            .iter()
            .filter_map(|p| files.iter().find(|f| f.rel == *p))
    };
    let layout = files.iter().find(|f| f.rel == proto_model::LAYOUT_FILE);
    let widths = layout.map(proto_model::field_widths).unwrap_or_default();
    let parse = |p| proto_model::parse_proto_source(p, &widths);
    let kinds: Vec<Kind> = protos().flat_map(parse).collect();

    let mut names = Names::new();
    for k in &kinds {
        let key = k.key();
        names.insert((k.module.clone(), k.name.clone()), (key.clone(), false));
        if let Some(layout) = &k.layout {
            names.insert((k.module.clone(), layout.clone()), (key, true));
        }
    }
    let modules: BTreeSet<String> = kinds.iter().map(|k| k.module.clone()).collect();

    let mut usage: BTreeMap<String, KindUsage> = BTreeMap::new();
    let mut glob_warnings: Vec<GlobImport> = Vec::new();
    for file in files {
        let uses = use_map(&file.rel, &file.text, &modules);
        count_refs(&file.ast.tokens, &uses, &names, &mut usage);
        glob_warnings.extend(uses.globs);
    }
    let globbed: BTreeSet<&str> = glob_warnings.iter().map(|g| g.module.as_str()).collect();
    let dead_edges = kinds
        .iter()
        .filter(|k| !usage.contains_key(&k.key()) && !globbed.contains(k.module.as_str()))
        .map(|k| {
            at_row(
                k,
                "dead-edge",
                format!("{} is never sent or handled", k.key()),
            )
        })
        .collect();

    let mut raw: Vec<Finding> = Vec::new();
    // Pairing: a reply nobody asks for.
    let replied: BTreeSet<(&str, &str)> = kinds
        .iter()
        .filter_map(|k| Some((k.module.as_str(), k.reply.as_deref()?)))
        .collect();
    for k in kinds.iter().filter(|k| k.dir == Dir::Reply) {
        if !replied.contains(&(k.module.as_str(), k.name.as_str())) {
            let message = format!("reply {} is not the declared reply of any request", k.key());
            raw.push(at_row(k, "proto-orphan-reply", message));
        }
    }

    // Field types: a typed field that fills no slot.
    for k in &kinds {
        for (_, _, field) in k.fields.iter().filter(|(_, slots, _)| *slots == 0) {
            let message = format!(
                "{}'s `{field}`: no `impl Field` states its type's width",
                k.key()
            );
            raw.push(at_row(k, "proto-field-type", message));
        }
    }

    // Handler coverage.
    for k in kinds.iter().filter(|k| k.dir != Dir::Value) {
        let Some(u) = usage.get(&k.key()) else {
            continue; // unreferenced entirely: a dead edge, reported above
        };
        if u.sends > 0 && u.handles == 0 {
            let message = format!(
                "{} is sent at {} site(s) but matched in no dispatch arm",
                k.key(),
                u.sends
            );
            raw.push(at_row(k, "proto-unhandled", message));
        } else if u.handles > 0 && u.sends == 0 {
            let message = format!(
                "{} is matched in {} dispatch arm(s) but never sent",
                k.key(),
                u.handles
            );
            raw.push(at_row(k, "proto-unsent", message));
        }
    }

    // Split suppressed findings out via pragmas at the definition site.
    let mut findings = Vec::new();
    let mut suppressed = Vec::new();
    let src_by_file: BTreeMap<&str, &str> = protos()
        .map(|f| (f.rel.as_str(), f.text.as_str()))
        .collect();
    for f in raw {
        let allowed = src_by_file
            .get(f.file.as_str())
            .is_some_and(|src| ast::allowed_at(src, f.line, f.rule));
        if allowed {
            suppressed.push(Suppressed {
                file: f.file,
                line: f.line,
                rule: f.rule,
                message: f.message,
            });
        } else {
            findings.push(f);
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    suppressed.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));

    Outcome {
        findings,
        suppressed,
        kinds,
        usage,
        dead_edges,
        glob_warnings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(sends, handles)` of `key` in `src`, over the tables `ds`
    /// (`PUBLISH` with layout `Publish`, `ACK`), `bdev` (`READ`, `WRITE`)
    /// and `rs` (`UP`, `COMPLAIN`).
    fn usage_of(src: &str, key: &str) -> (usize, usize) {
        let rows = [
            ("ds", "PUBLISH", Some("Publish")),
            ("ds", "ACK", None),
            ("bdev", "READ", None),
            ("bdev", "WRITE", None),
            ("rs", "UP", None),
            ("rs", "COMPLAIN", None),
        ];
        let mut names = Names::new();
        for (module, name, layout) in rows {
            let row = format!("{module}::{name}");
            names.insert((module.to_string(), name.to_string()), (row.clone(), false));
            if let Some(layout) = layout {
                names.insert((module.to_string(), layout.to_string()), (row, true));
            }
        }
        let uses = use_map("f.rs", src, &module_set(&["ds", "bdev", "rs"]));
        let mut usage = BTreeMap::new();
        count_refs(&ast::tokenize(src), &uses, &names, &mut usage);
        let u = usage.remove(key).unwrap_or_default();
        (u.sends, u.handles)
    }

    fn module_set(names: &[&str]) -> BTreeSet<String> {
        names.iter().map(|n| n.to_string()).collect()
    }

    #[test]
    fn aliased_and_brace_imports_resolve() {
        let src = "\
use crate::proto::{cdev, status};
use crate::proto::rs as rsp;
";
        let map = use_map("f.rs", src, &module_set(&["rs", "blk", "cdev"])).modules;
        assert_eq!(map.get("cdev").map(String::as_str), Some("cdev"));
        assert_eq!(map.get("rsp").map(String::as_str), Some("rs"));
        // Unimported modules still resolve under their own name (full
        // `proto::m::CONST` paths need no use line).
        assert_eq!(map.get("blk").map(String::as_str), Some("blk"));
    }

    #[test]
    fn proto_level_glob_resolves_every_module() {
        let uses = use_map(
            "f.rs",
            "use crate::proto::*;\n",
            &module_set(&["rs", "blk"]),
        );
        assert!(uses.globs.is_empty(), "proto::* is resolved, not warned");
        assert_eq!(uses.modules.get("rs").map(String::as_str), Some("rs"));
        assert_eq!(uses.modules.get("blk").map(String::as_str), Some("blk"));
    }

    #[test]
    fn module_level_glob_is_warned_and_conservative() {
        let uses = use_map(
            "crates/x/src/f.rs",
            "use crate::proto::blk::*;\n",
            &module_set(&["blk"]),
        );
        assert_eq!(uses.globs.len(), 1);
        let g = &uses.globs[0];
        assert_eq!(g.module, "blk");
        assert_eq!(g.line, 1);
        assert_eq!(g.file, "crates/x/src/f.rs");
        assert!(
            g.to_string().contains("glob-import"),
            "warning names its rule loudly: {g}"
        );
    }

    #[test]
    fn direct_const_imports_count_as_references() {
        let uses = use_map(
            "f.rs",
            "use crate::proto::blk::{READ, WRITE};\n",
            &module_set(&["blk"]),
        );
        assert_eq!(
            uses.consts.get("READ"),
            Some(&("blk".to_string(), "READ".to_string()))
        );
        assert_eq!(
            uses.consts.get("WRITE"),
            Some(&("blk".to_string(), "WRITE".to_string()))
        );
    }

    #[test]
    fn enum_paths_and_decoders_are_handles_everything_else_is_a_send() {
        let src = "match ds::Msg::decode(&m) { Some(ds::Msg::PUBLISH(p)) => x(p), _ => {} }";
        assert_eq!(usage_of(src, "ds::PUBLISH"), (0, 1));
        let src = "let p = ds::Publish::from_message(&m);";
        assert_eq!(usage_of(src, "ds::PUBLISH"), (0, 1));
        // The layout built is the kind sent.
        let src = "ctx.send(dst, ds::Publish { slot: 1 }.into_message());";
        assert_eq!(usage_of(src, "ds::PUBLISH"), (1, 0));
        // A comparison by hand is no dispatch the analyzer recognises.
        let src = "if reply.mtype == ds::ACK { } assert_eq!(reply.mtype, ds::ACK);";
        assert_eq!(usage_of(src, "ds::ACK"), (2, 0));
        // Through an aliased module.
        let src =
            "use crate::proto::rs as rsp;\nif let Some(rsp::Msg::UP) = rsp::Msg::decode(&m) {}";
        assert_eq!(usage_of(src, "rs::UP"), (0, 1));
    }

    #[test]
    fn variants_refused_beside_none_are_neither_sends_nor_handles() {
        for src in [
            "match m { Some(ds::Msg::PUBLISH(p)) => x(p), Some(ds::Msg::ACK) | None => no() }",
            "match m { None | Some(ds::Msg::ACK) => no(), _ => {} }",
            // rustfmt's layout of a long refusal: a trailing comma.
            "match m { Some(\n bdev::Msg::READ(_)\n | ds::Msg::ACK,\n)\n | None => no() }",
            "match (m, i) { (Some(rs::Msg::UP), Some(i)) => x(i), (Some(ds::Msg::ACK) | None, _) => no() }",
            "if matches!(m, Some(ds::Msg::ACK) | None) { no() }",
        ] {
            assert_eq!(usage_of(src, "ds::ACK"), (0, 0), "{src}");
        }
        // `None` in another tuple element, in an arm body, or behind a
        // guard is no alternative of the path's pattern.
        for src in [
            "match (m, i) { (Some(ds::Msg::ACK), None) => x(), _ => {} }",
            "match m { Some(ds::Msg::ACK) => None, _ => {} }",
            "match m { Some(ds::Msg::ACK) if y == None => x(), _ => {} }",
            "match m { None => a(), Some(ds::Msg::ACK) => x(), _ => {} }",
        ] {
            assert_eq!(usage_of(src, "ds::ACK"), (0, 1), "{src}");
        }
    }

    #[test]
    fn construction_and_argument_positions_are_sends() {
        assert_eq!(
            usage_of("let m = Message::new(ds::PUBLISH);", "ds::PUBLISH"),
            (1, 0)
        );
        assert_eq!(usage_of("send(dst, bdev::READ, buf)", "bdev::READ"), (1, 0));
        let src = "let mtype = if w { bdev::WRITE } else { bdev::READ };";
        assert_eq!(usage_of(src, "bdev::WRITE"), (1, 0));
        // A reference as the last token of a file.
        assert_eq!(usage_of("ds::Publish", "ds::PUBLISH"), (1, 0));
    }

    #[test]
    fn multiline_send_expressions_classify_correctly() {
        // The kind sits on its own line: tokens do not care.
        let src = "let m =\n    Message::new(\n        ds::PUBLISH,\n    );";
        assert_eq!(usage_of(src, "ds::PUBLISH"), (1, 0));
    }

    #[test]
    fn tuple_match_arms_are_handles() {
        // RS dispatches its requests on a (kind, service) tuple.
        let src =
            "match (rs::Msg::decode(&m), idx) { (Some(rs::Msg::COMPLAIN(c)), i) => x(i), _ => {} }";
        assert_eq!(usage_of(src, "rs::COMPLAIN"), (0, 1));
        let src =
            "match (rs::Msg::decode(&m), idx) { (Some(rs::Msg::UP), Some(i)) => x(i), _ => {} }";
        assert_eq!(usage_of(src, "rs::UP"), (0, 1));
    }

    #[test]
    fn call_arguments_inside_arm_bodies_stay_sends() {
        let src = "match q { A => send(dst, ds::PUBLISH), B => other() }";
        assert_eq!(usage_of(src, "ds::PUBLISH"), (1, 0));
    }
}
