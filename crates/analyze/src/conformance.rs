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
//!    — `bdev::READ`, `cdev::READ` — are kept apart) and classified by
//!    its token context as a *send* (construction/argument position) or
//!    a *handle* (a `match` arm pattern or an `==`/`!=` comparison). A
//!    row's layout struct stands for its kind: `cdev::Reply::from_message`
//!    handles `cdev::REPLY`, any other mention of `cdev::Reply` (a struct
//!    literal, `into_message`) sends it. A kind sent somewhere but handled
//!    nowhere is a message the system emits and then drops on the floor
//!    (`proto-unhandled`); a kind handled somewhere but never sent is a
//!    dispatch arm that can never fire (`proto-unsent`).
//! 3. **Dead edges** — a kind (message or value) the usage table has no
//!    row for: nothing in the workspace, tests included, names it. It
//!    widens the nominal protocol surface, and therefore what an audit
//!    must reason about, without buying any behavior (`dead-edge`).
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

/// Macros whose argument position is an equality / pattern check, not a
/// send: `assert_eq!(reply.mtype, ds::ACK)` handles the kind.
const COMPARISON_MACROS: &[&str] = &[
    "assert_eq",
    "assert_ne",
    "debug_assert_eq",
    "debug_assert_ne",
    "matches",
];

/// Functions whose kind argument is what a reply is checked against, not
/// something put on the wire: `classify(sock::ACK, &result)` — the one
/// reply classifier of `servers/src/proto.rs` — handles the kind.
const COMPARISON_FNS: &[&str] = &["classify"];

/// What encloses a token: the innermost unmatched `(` walking backward.
enum Enclosure {
    /// `name(...` — a call (or `name!(...` when `bang`).
    Call { name: String, bang: bool },
    /// A `(` not preceded by a callee ident: tuple pattern, match
    /// scrutinee, plain grouping.
    Group,
    /// No unmatched `(` before a statement boundary.
    None,
}

/// Walks backward from `start` (exclusive) to find the innermost
/// enclosing paren group and its callee, stopping at statement
/// boundaries (`{`, `}`, `;`, `=>`).
fn enclosure(tokens: &[ast::Token], start: usize) -> Enclosure {
    let mut depth = 0usize;
    let mut i = start;
    for _ in 0..64 {
        if i == 0 {
            return Enclosure::None;
        }
        i -= 1;
        match &tokens[i].kind {
            TokenKind::Close(')') => depth += 1,
            TokenKind::Open('(') if depth > 0 => depth -= 1,
            TokenKind::Open('(') => {
                return match i.checked_sub(1).map(|p| &tokens[p].kind) {
                    Some(TokenKind::Ident(n)) if n != "match" => Enclosure::Call {
                        name: n.clone(),
                        bang: false,
                    },
                    Some(TokenKind::Bang) => match i.checked_sub(2).map(|p| &tokens[p].kind) {
                        Some(TokenKind::Ident(n)) => Enclosure::Call {
                            name: n.clone(),
                            bang: true,
                        },
                        _ => Enclosure::Group,
                    },
                    _ => Enclosure::Group,
                };
            }
            TokenKind::Open('{') | TokenKind::Close('}') | TokenKind::FatArrow if depth == 0 => {
                return Enclosure::None;
            }
            TokenKind::Punct(';') if depth == 0 => return Enclosure::None,
            _ => {}
        }
    }
    Enclosure::None
}

/// Classifies one reference site given the token stream and the index of
/// the const's identifier token.
///
/// Handle positions: `==`/`!=` adjacency; the argument list of a
/// comparison macro or of the reply classifier; a match-arm pattern — including tuple patterns like
/// `(rsp::COMPLAIN, i) =>` — recognized by a forward scan to `=>` that
/// is vetoed when the enclosing paren group is a call's argument list
/// (`send(dst, K), NEXT => ...` stays a send). Everything else is a
/// send. Known over-approximation: a kind nested inside a constructor
/// pattern (`Some(K) =>`) classifies as a send.
fn classify(tokens: &[ast::Token], idx: usize) -> RefClass {
    // Handle: `== K`, `K ==`, `!= K`, `K !=`.
    let prev_relevant = path_start(tokens, idx)
        .checked_sub(1)
        .map(|i| &tokens[i].kind);
    if matches!(
        prev_relevant,
        Some(TokenKind::EqEq) | Some(TokenKind::NotEq)
    ) {
        return RefClass::Handle;
    }
    match tokens.get(idx + 1).map(|t| &t.kind) {
        Some(TokenKind::EqEq) | Some(TokenKind::NotEq) => return RefClass::Handle,
        _ => {}
    }
    let enc = enclosure(tokens, path_start(tokens, idx));
    if let Enclosure::Call { name, bang } = &enc {
        let comparisons = if *bang {
            COMPARISON_MACROS
        } else {
            COMPARISON_FNS
        };
        if comparisons.contains(&name.as_str()) {
            return RefClass::Handle;
        }
    }
    // Handle: a match-arm pattern — scan forward through pattern-ish
    // tokens (`|` alternation, tuple commas/parens, further paths;
    // guards and expressions are cut off by the stop set) for a fat
    // arrow, then veto if the site sits in a call's argument list.
    let mut j = idx + 1;
    let mut steps = 0;
    while let Some(t) = tokens.get(j) {
        match &t.kind {
            TokenKind::FatArrow => {
                return match enc {
                    Enclosure::Call { bang: false, .. } => RefClass::Send,
                    _ => RefClass::Handle,
                };
            }
            TokenKind::Punct('|')
            | TokenKind::Punct(',')
            | TokenKind::Punct('_')
            | TokenKind::PathSep
            | TokenKind::Ident(_)
            | TokenKind::Open('(')
            | TokenKind::Close(')') => {}
            _ => break,
        }
        j += 1;
        steps += 1;
        if steps > 24 {
            break;
        }
    }
    RefClass::Send
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RefClass {
    Send,
    Handle,
}

/// Index of the first token of the path ending at `idx` (walks back
/// through `Ident :: Ident` chains).
fn path_start(tokens: &[ast::Token], idx: usize) -> usize {
    let mut i = idx;
    while i >= 2
        && tokens[i - 1].kind == TokenKind::PathSep
        && matches!(tokens[i - 2].kind, TokenKind::Ident(_))
    {
        i -= 2;
    }
    i
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
    for (i, tok) in tokens.iter().enumerate() {
        let TokenKind::Ident(name) = &tok.kind else {
            continue;
        };
        let lookup = |module: &str| names.get(&(module.to_string(), name.clone()));
        // Qualified `alias::NAME`?
        let resolved = if i >= 2 && tokens[i - 1].kind == TokenKind::PathSep {
            match &tokens[i - 2].kind {
                TokenKind::Ident(q) => uses.modules.get(q).and_then(|m| lookup(m)),
                _ => None,
            }
        } else if tokens
            .get(i + 1)
            .is_some_and(|t| t.kind == TokenKind::PathSep)
        {
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
        let entry = usage.entry(key.clone()).or_default();
        let class = if *layout {
            // `Layout::from_message` reads the kind; anything else builds it.
            let decodes = matches!(
                (tokens.get(i + 1).map(|t| &t.kind), tokens.get(i + 2).map(|t| &t.kind)),
                (Some(TokenKind::PathSep), Some(TokenKind::Ident(f))) if f == "from_message"
            );
            if decodes {
                RefClass::Handle
            } else {
                RefClass::Send
            }
        } else {
            classify(tokens, i)
        };
        match class {
            RefClass::Send => entry.sends += 1,
            RefClass::Handle => entry.handles += 1,
        }
    }
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
    let kinds: Vec<Kind> = protos().flat_map(proto_model::parse_proto_source).collect();

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

    fn toks(src: &str) -> Vec<ast::Token> {
        ast::tokenize(src)
    }

    fn class_of(src: &str, name: &str) -> RefClass {
        let tokens = toks(src);
        let idx = tokens
            .iter()
            .position(|t| t.kind.ident() == Some(name))
            .unwrap();
        classify(&tokens, idx)
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
    fn match_arms_and_comparisons_are_handles() {
        assert_eq!(
            class_of("match m.mtype { ds::PUBLISH => x() }", "PUBLISH"),
            RefClass::Handle
        );
        assert_eq!(
            class_of("if reply.mtype == bdev::REPLY { }", "REPLY"),
            RefClass::Handle
        );
        assert_eq!(
            class_of("if reply.mtype != cdev::REPLY { }", "REPLY"),
            RefClass::Handle
        );
        assert_eq!(
            class_of("match k { eth::RECV | eth::WRITE => x() }", "RECV"),
            RefClass::Handle
        );
    }

    #[test]
    fn construction_and_argument_positions_are_sends() {
        assert_eq!(
            class_of("let m = Message::new(ds::PUBLISH);", "PUBLISH"),
            RefClass::Send
        );
        assert_eq!(
            class_of("send(dst, bdev::READ, buf)", "READ"),
            RefClass::Send
        );
        assert_eq!(
            class_of(
                "let mtype = if w { bdev::WRITE } else { bdev::READ };",
                "WRITE"
            ),
            RefClass::Send
        );
    }

    #[test]
    fn multiline_send_expressions_classify_correctly() {
        // The kind sits on its own line: tokens do not care.
        let src = "let m =\n    Message::new(\n        ds::PUBLISH,\n    );";
        assert_eq!(class_of(src, "PUBLISH"), RefClass::Send);
    }

    #[test]
    fn tuple_match_arms_are_handles() {
        // RS dispatches control messages on a (mtype, service) tuple.
        let src = "match (msg.mtype, idx) { (rs::COMPLAIN, i) => x(i), _ => {} }";
        assert_eq!(class_of(src, "COMPLAIN"), RefClass::Handle);
        let src = "match (msg.mtype, idx) { (rs::UP, Some(i)) => x(i), _ => {} }";
        assert_eq!(class_of(src, "UP"), RefClass::Handle);
        // Not only the first arm: the walk-back stops at the previous
        // arm's closing brace.
        let src = "match t { (rs::UP, _) => {} (rs::DOWN, i) => x(i) }";
        assert_eq!(class_of(src, "DOWN"), RefClass::Handle);
    }

    #[test]
    fn call_arguments_inside_arm_bodies_stay_sends() {
        // The `, NEXT =>` after the call's closing paren must not trick
        // the forward scan into seeing a pattern.
        let src = "match q { A => send(dst, ds::PUBLISH), B => other() }";
        assert_eq!(class_of(src, "PUBLISH"), RefClass::Send);
    }

    #[test]
    fn comparison_macros_are_handles() {
        let src = "assert_eq!(reply.mtype, ds::ACK);";
        assert_eq!(class_of(src, "ACK"), RefClass::Handle);
        let src = "assert_eq!(ds::ACK, reply.mtype);";
        assert_eq!(class_of(src, "ACK"), RefClass::Handle);
        let src = "if matches!(m.mtype, rs::UP | rs::DOWN) { }";
        assert_eq!(class_of(src, "DOWN"), RefClass::Handle);
        // An ordinary function argument is still a send.
        let src = "enqueue(ds::ACK);";
        assert_eq!(class_of(src, "ACK"), RefClass::Send);
        // The reply classifier's expected kind is a comparison.
        let src = "let class = classify(sock::ACK, &result);";
        assert_eq!(class_of(src, "ACK"), RefClass::Handle);
    }
}
