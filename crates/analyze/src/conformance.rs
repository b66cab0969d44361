//! Protocol-conformance pass: checks the typed protocol model parsed by
//! [`crate::proto_model`] against itself and against how the workspace
//! actually uses each message kind.
//!
//! Three families of findings:
//!
//! 1. **Model errors** — unannotated or malformed kinds
//!    (`proto-missing`, `proto-malformed`), surfaced from the parser.
//! 2. **Pairing symmetry** — a `request` must name an existing `reply`
//!    kind in its module; the named kind must be annotated `reply`; a
//!    `reply` kind must be the target of at least one request; `oneway`
//!    and `value` kinds must not carry pairing or (for values) slot
//!    clauses (`proto-bad-reply`, `proto-orphan-reply`).
//! 3. **Handler coverage** — the dual of the dead-edge pass. Every
//!    reference to a kind is classified by its token context as a *send*
//!    (construction/argument position) or a *handle* (a `match` arm
//!    pattern or an `==`/`!=` comparison). A kind sent somewhere but
//!    handled nowhere is a message the system emits and then drops on
//!    the floor (`proto-unhandled`); a kind handled somewhere but never
//!    sent is a dispatch arm that can never fire (`proto-unsent`).
//!    Kinds referenced nowhere at all stay the dead-edge pass's
//!    business and are not re-reported here.
//!
//! Findings anchor at the kind's definition line and are suppressed by
//! the usual `// analyze:allow(rule): reason` pragma in the comment
//! block above the const.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::Path;

use crate::ast::{self, TokenKind};
use crate::deadedge::use_map;
use crate::proto_model::{self, Dir, ProtoModel, SlotRegistry};

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
    pub model: ProtoModel,
    pub registry: SlotRegistry,
    /// `module::KIND` → usage counts (message kinds only).
    pub usage: BTreeMap<String, KindUsage>,
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

/// Counts send/handle references to `kinds` in one file.
fn count_refs(
    source: &str,
    modules: &BTreeSet<String>,
    kinds: &BTreeSet<(String, String)>,
    rel_path: &str,
    usage: &mut BTreeMap<String, KindUsage>,
) {
    let uses = use_map(rel_path, source, modules);
    // Consts of glob-imported modules are referenceable by bare name.
    let glob_mods: BTreeSet<&str> = uses.globs.iter().map(|g| g.module.as_str()).collect();
    let tokens = ast::tokenize(source);
    for (i, tok) in tokens.iter().enumerate() {
        let TokenKind::Ident(name) = &tok.kind else {
            continue;
        };
        // Qualified `alias::NAME`?
        let resolved: Option<(String, String)> =
            if i >= 2 && tokens[i - 1].kind == TokenKind::PathSep {
                match &tokens[i - 2].kind {
                    TokenKind::Ident(q) => uses
                        .modules
                        .get(q)
                        .map(|m| (m.clone(), name.clone()))
                        .filter(|key| kinds.contains(key)),
                    _ => None,
                }
            } else if tokens
                .get(i + 1)
                .is_some_and(|t| t.kind == TokenKind::PathSep)
            {
                // First segment of a path — not the const itself.
                None
            } else if let Some((m, c)) = uses.consts.get(name) {
                let key = (m.clone(), c.clone());
                kinds.contains(&key).then_some(key)
            } else if !glob_mods.is_empty() {
                glob_mods
                    .iter()
                    .map(|m| (m.to_string(), name.clone()))
                    .find(|key| kinds.contains(key))
            } else {
                None
            };
        let Some((module, konst)) = resolved else {
            continue;
        };
        let entry = usage.entry(format!("{module}::{konst}")).or_default();
        match classify(&tokens, i) {
            RefClass::Send => entry.sends += 1,
            RefClass::Handle => entry.handles += 1,
        }
    }
}

/// Runs the conformance pass over the workspace rooted at `root`.
pub fn run(root: &Path) -> Outcome {
    let mut proto_sources: Vec<(String, String)> = Vec::new();
    for rel in PROTO_FILES {
        let Ok(source) = std::fs::read_to_string(root.join(rel)) else {
            continue;
        };
        proto_sources.push((rel.to_string(), source));
    }
    let mut usage_sources: Vec<(String, String)> = Vec::new();
    let mut paths = crate::workspace_sources(root);
    paths.extend(crate::workspace_test_sources(root));
    for path in paths {
        let Ok(source) = std::fs::read_to_string(&path) else {
            continue;
        };
        usage_sources.push((crate::rel(root, &path), source));
    }
    analyze(&proto_sources, &usage_sources)
}

/// Runs the conformance pass over in-memory sources: `proto_sources`
/// are `(rel_path, text)` protocol definition files, `usage_sources`
/// the files whose kind references are counted. This is the seam the
/// fixture tests drive.
pub fn analyze(proto_sources: &[(String, String)], usage_sources: &[(String, String)]) -> Outcome {
    let models = proto_sources
        .iter()
        .map(|(rel, source)| proto_model::parse_proto_source(rel, source))
        .collect();
    let model = proto_model::merge(models);
    let registry = proto_model::build_slot_registry(&model);

    let message_kinds: BTreeSet<(String, String)> = model
        .kinds
        .iter()
        .filter(|k| k.dir != Dir::Value)
        .map(|k| (k.module.clone(), k.name.clone()))
        .collect();
    let modules: BTreeSet<String> = model.kinds.iter().map(|k| k.module.clone()).collect();

    let mut usage: BTreeMap<String, KindUsage> = BTreeMap::new();
    for (rel, source) in usage_sources {
        count_refs(source, &modules, &message_kinds, rel, &mut usage);
    }

    let mut raw: Vec<Finding> = Vec::new();
    for e in &model.errors {
        raw.push(Finding {
            file: e.file.clone(),
            line: e.line,
            rule: e.rule,
            message: e.message.clone(),
        });
    }

    // Pairing symmetry.
    let mut reply_targets: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for k in &model.kinds {
        if let Some(r) = &k.reply {
            reply_targets
                .entry(format!("{}::{}", k.module, r))
                .or_default()
                .push(k.key());
        }
    }
    for k in &model.kinds {
        match k.dir {
            Dir::Request => match &k.reply {
                None => raw.push(Finding {
                    file: k.file.clone(),
                    line: k.line,
                    rule: "proto-bad-reply",
                    message: format!("request {} declares no reply kind", k.key()),
                }),
                Some(r) => match model.kind(&k.module, r) {
                    None => raw.push(Finding {
                        file: k.file.clone(),
                        line: k.line,
                        rule: "proto-bad-reply",
                        message: format!(
                            "request {} names reply `{}` which does not exist in module `{}`",
                            k.key(),
                            r,
                            k.module
                        ),
                    }),
                    Some(t) if t.dir != Dir::Reply => raw.push(Finding {
                        file: k.file.clone(),
                        line: k.line,
                        rule: "proto-bad-reply",
                        message: format!(
                            "request {} names `{}` as its reply, but that kind is annotated `{}`",
                            k.key(),
                            t.key(),
                            t.dir.name()
                        ),
                    }),
                    Some(_) => {}
                },
            },
            Dir::Reply => {
                if !reply_targets.contains_key(&k.key()) {
                    raw.push(Finding {
                        file: k.file.clone(),
                        line: k.line,
                        rule: "proto-orphan-reply",
                        message: format!(
                            "reply {} is not the declared reply of any request",
                            k.key()
                        ),
                    });
                }
            }
            Dir::Oneway | Dir::Value => {
                if k.reply.is_some() {
                    raw.push(Finding {
                        file: k.file.clone(),
                        line: k.line,
                        rule: "proto-malformed",
                        message: format!(
                            "{} kind {} must not declare a reply pairing",
                            k.dir.name(),
                            k.key()
                        ),
                    });
                }
                if k.dir == Dir::Value && (!k.params.is_empty() || !k.reply_params.is_empty()) {
                    raw.push(Finding {
                        file: k.file.clone(),
                        line: k.line,
                        rule: "proto-malformed",
                        message: format!("value {} must not claim parameter slots", k.key()),
                    });
                }
            }
        }
    }

    // Slot collisions.
    for c in &registry.collisions {
        raw.push(Finding {
            file: c.file.clone(),
            line: c.line,
            rule: "proto-slot-collision",
            message: format!(
                "{} param {} claimed by both `{}` and `{}`",
                c.kind, c.slot, c.first_owner, c.second_owner
            ),
        });
    }

    // Handler coverage.
    for k in &model.kinds {
        if k.dir == Dir::Value {
            continue;
        }
        let Some(u) = usage.get(&k.key()) else {
            continue; // unreferenced entirely: the dead-edge pass owns it
        };
        if u.sends > 0 && u.handles == 0 {
            raw.push(Finding {
                file: k.file.clone(),
                line: k.line,
                rule: "proto-unhandled",
                message: format!(
                    "{} is sent at {} site(s) but matched in no dispatch arm",
                    k.key(),
                    u.sends
                ),
            });
        } else if u.handles > 0 && u.sends == 0 {
            raw.push(Finding {
                file: k.file.clone(),
                line: k.line,
                rule: "proto-unsent",
                message: format!(
                    "{} is matched in {} dispatch arm(s) but never sent",
                    k.key(),
                    u.handles
                ),
            });
        }
    }

    // Split suppressed findings out via pragmas at the definition site.
    let mut findings = Vec::new();
    let mut suppressed = Vec::new();
    let src_by_file: BTreeMap<&str, &str> = proto_sources
        .iter()
        .map(|(f, s)| (f.as_str(), s.as_str()))
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
        model,
        registry,
        usage,
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
        // The lexical scanner's blind spot: the kind sits on its own line.
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
