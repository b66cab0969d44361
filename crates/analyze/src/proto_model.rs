//! Typed protocol model parsed from `/// proto:` doc-comment
//! annotations on message-kind constants.
//!
//! ## Annotation grammar
//!
//! Every `pub const NAME: u32` inside a `pub mod` of a `proto.rs` file
//! is a message kind and must carry at least one `/// proto:` line in
//! its doc comment. A line holds comma-separated clauses:
//!
//! ```text
//! /// proto: request, reply=LOOKUP_REPLY, params 0=key-len
//! /// proto: reply, params 0=status, params 1/2=endpoint
//! /// proto: oneway, params 0=conn-id
//! /// proto: value
//! ```
//!
//! Clauses:
//!
//! - `request` — a kind sent with `sendrec`; must name its reply kind
//!   via `reply=NAME` (a const in the same module).
//! - `reply` — a kind sent with `reply`; must be the target of at least
//!   one request's `reply=`.
//! - `oneway` — fire-and-forget (notifications, pushed data).
//! - `value` — not a message kind at all (status codes, evidence
//!   classes). A module whose own doc carries `proto: values` declares
//!   every const inside it a value, so enumerations need not annotate
//!   each entry.
//! - `reply=NAME` — pairing edge for a `request`.
//! - `params S=owner` — parameter-slot ownership for this kind's own
//!   message: slots `S` (one index or `/`-joined indices, each 0..=7)
//!   are owned by feature `owner` (a kebab-case tag such as
//!   `recovery-token` or `ckpt-watermark`).
//! - `reply-params S=owner` — slots the *reply* to this request carries;
//!   they register in the reply kind's slot space, which is exactly how
//!   cross-feature collisions (e.g. a watermark and a token both
//!   claiming reply param 3) become visible.
//!
//! Multiple `/// proto:` lines per const are allowed and encouraged —
//! each feature annotates the slots it rides on, and the
//! [`SlotRegistry`] arbitrates: two claims on the same `(kind, slot)`
//! agree only if they name the same owner.

use std::collections::BTreeMap;

use crate::Source;

/// Direction of a message kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dir {
    Request,
    Reply,
    Oneway,
    /// Not a message: a tagged value namespace (status codes, evidence
    /// classes).
    Value,
}

impl Dir {
    pub fn name(self) -> &'static str {
        match self {
            Dir::Request => "request",
            Dir::Reply => "reply",
            Dir::Oneway => "oneway",
            Dir::Value => "value",
        }
    }
}

/// One parsed message kind.
#[derive(Clone, Debug)]
pub struct Kind {
    /// Protocol module, e.g. `bdev`.
    pub module: String,
    /// Const name, e.g. `READ`.
    pub name: String,
    /// Defining file (workspace-relative).
    pub file: String,
    /// 1-based line of the const.
    pub line: usize,
    pub dir: Dir,
    /// For requests: the declared reply kind (same module).
    pub reply: Option<String>,
    /// Slot claims on this kind's own message: `(slot, owner)`.
    pub params: Vec<(u8, String)>,
    /// Slot claims on this request's reply message.
    pub reply_params: Vec<(u8, String)>,
}

impl Kind {
    /// `module::NAME`, the display key used throughout reports.
    pub fn key(&self) -> String {
        format!("{}::{}", self.module, self.name)
    }
}

/// A problem found while parsing annotations into the model.
#[derive(Clone, Debug)]
pub struct ModelError {
    pub file: String,
    pub line: usize,
    /// Finding rule name (for pragma suppression): `proto-missing` or
    /// `proto-malformed`.
    pub rule: &'static str,
    pub message: String,
}

/// The parsed protocol model for the whole workspace.
#[derive(Clone, Debug, Default)]
pub struct ProtoModel {
    pub kinds: Vec<Kind>,
    pub errors: Vec<ModelError>,
}

impl ProtoModel {
    pub fn kind(&self, module: &str, name: &str) -> Option<&Kind> {
        self.kinds
            .iter()
            .find(|k| k.module == module && k.name == name)
    }
}

/// Parses one clause list (the text after `proto:`) into a partially
/// filled kind. Returns an error message on malformed input.
fn parse_clauses(text: &str, kind: &mut KindBuilder) -> Result<(), String> {
    for clause in text.split(',') {
        let clause = clause.trim();
        if clause.is_empty() {
            continue;
        }
        match clause {
            "request" => kind.set_dir(Dir::Request)?,
            "reply" => kind.set_dir(Dir::Reply)?,
            "oneway" => kind.set_dir(Dir::Oneway)?,
            "value" => kind.set_dir(Dir::Value)?,
            _ => {
                if let Some(target) = clause.strip_prefix("reply=") {
                    let target = target.trim();
                    if target.is_empty()
                        || !target
                            .chars()
                            .all(|c| c.is_ascii_alphanumeric() || c == '_')
                    {
                        return Err(format!("bad reply target `{target}`"));
                    }
                    if let Some(prev) = &kind.reply {
                        if prev != target {
                            return Err(format!(
                                "conflicting reply targets `{prev}` and `{target}`"
                            ));
                        }
                    }
                    kind.reply = Some(target.to_string());
                } else if let Some(rest) = clause.strip_prefix("reply-params ") {
                    let claims = parse_slots(rest)?;
                    kind.reply_params.extend(claims);
                } else if let Some(rest) = clause.strip_prefix("params ") {
                    let claims = parse_slots(rest)?;
                    kind.params.extend(claims);
                } else {
                    return Err(format!("unknown clause `{clause}`"));
                }
            }
        }
    }
    Ok(())
}

/// Parses `0/1=endpoint` into `[(0, "endpoint"), (1, "endpoint")]`.
fn parse_slots(spec: &str) -> Result<Vec<(u8, String)>, String> {
    let Some((slots, owner)) = spec.split_once('=') else {
        return Err(format!("slot spec `{spec}` missing `=owner`"));
    };
    let owner = owner.trim();
    if owner.is_empty()
        || !owner
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
    {
        return Err(format!("bad slot owner `{owner}` (kebab-case required)"));
    }
    let mut out = Vec::new();
    for part in slots.trim().split('/') {
        let n: u8 = part
            .trim()
            .parse()
            .map_err(|_| format!("bad slot index `{part}`"))?;
        if n > 7 {
            return Err(format!(
                "slot index {n} out of range (messages have 8 params)"
            ));
        }
        out.push((n, owner.to_string()));
    }
    Ok(out)
}

struct KindBuilder {
    dir: Option<Dir>,
    reply: Option<String>,
    params: Vec<(u8, String)>,
    reply_params: Vec<(u8, String)>,
}

impl KindBuilder {
    fn new() -> Self {
        KindBuilder {
            dir: None,
            reply: None,
            params: Vec::new(),
            reply_params: Vec::new(),
        }
    }
    fn set_dir(&mut self, d: Dir) -> Result<(), String> {
        match self.dir {
            None => {
                self.dir = Some(d);
                Ok(())
            }
            Some(prev) if prev == d => Ok(()),
            Some(prev) => Err(format!(
                "conflicting directions `{}` and `{}`",
                prev.name(),
                d.name()
            )),
        }
    }
}

/// Extracts `proto:` annotation payloads from a doc-comment block.
fn proto_lines(docs: &[String]) -> Vec<String> {
    docs.iter()
        .filter_map(|d| d.trim().strip_prefix("proto:"))
        .map(|rest| rest.trim().to_string())
        .collect()
}

/// Parses one protocol source file into kinds + errors.
pub fn parse_proto_source(source: &Source) -> ProtoModel {
    let (rel_path, file) = (source.rel.as_str(), &source.ast);
    let mut model = ProtoModel::default();

    // Modules whose doc says `proto: values`: every const inside is a
    // value, annotated or not.
    let value_mods: Vec<String> = file
        .mods
        .iter()
        .filter(|m| proto_lines(&m.docs).iter().any(|l| l.trim() == "values"))
        .map(|m| m.name.clone())
        .collect();

    for c in &file.consts {
        if c.ty != "u32" {
            continue; // message kinds are u32 by repo convention
        }
        let Some(module) = c.mod_path.last().cloned() else {
            continue; // top-level consts are not protocol kinds
        };
        let in_value_mod = value_mods.contains(&module);
        let lines = proto_lines(&c.docs);
        if lines.is_empty() {
            if in_value_mod {
                model.kinds.push(Kind {
                    module,
                    name: c.name.clone(),
                    file: rel_path.to_string(),
                    line: c.line,
                    dir: Dir::Value,
                    reply: None,
                    params: Vec::new(),
                    reply_params: Vec::new(),
                });
            } else {
                model.errors.push(ModelError {
                    file: rel_path.to_string(),
                    line: c.line,
                    rule: "proto-missing",
                    message: format!("{}::{} has no `/// proto:` annotation", module, c.name),
                });
            }
            continue;
        }
        let mut b = KindBuilder::new();
        let mut failed = false;
        for l in &lines {
            if let Err(e) = parse_clauses(l, &mut b) {
                model.errors.push(ModelError {
                    file: rel_path.to_string(),
                    line: c.line,
                    rule: "proto-malformed",
                    message: format!("{}::{}: {e}", module, c.name),
                });
                failed = true;
            }
        }
        if failed {
            continue;
        }
        let dir = match b.dir {
            Some(d) => d,
            None if in_value_mod => Dir::Value,
            None => {
                model.errors.push(ModelError {
                    file: rel_path.to_string(),
                    line: c.line,
                    rule: "proto-malformed",
                    message: format!(
                        "{}::{} annotation declares no direction (request/reply/oneway/value)",
                        module, c.name
                    ),
                });
                continue;
            }
        };
        model.kinds.push(Kind {
            module,
            name: c.name.clone(),
            file: rel_path.to_string(),
            line: c.line,
            dir,
            reply: b.reply,
            params: b.params,
            reply_params: b.reply_params,
        });
    }
    model
}

/// The workspace-wide param-slot ownership registry: `(kind, slot)` →
/// owner feature. Built by folding every kind's own `params` claims plus
/// every request's `reply-params` claims (registered under the reply
/// kind). Conflicting owners for one slot are collisions.
#[derive(Clone, Debug, Default)]
pub struct SlotRegistry {
    /// `(module::KIND, slot)` → (owner, claim site file, line).
    pub slots: BTreeMap<(String, u8), (String, String, usize)>,
    pub collisions: Vec<SlotCollision>,
}

/// Two features claiming the same parameter slot of the same kind.
#[derive(Clone, Debug)]
pub struct SlotCollision {
    /// `module::KIND`.
    pub kind: String,
    pub slot: u8,
    pub first_owner: String,
    pub second_owner: String,
    /// File/line of the colliding (second) claim.
    pub file: String,
    pub line: usize,
}

impl SlotRegistry {
    fn claim(&mut self, kind_key: String, slot: u8, owner: &str, file: &str, line: usize) {
        match self.slots.get(&(kind_key.clone(), slot)) {
            Some((prev, _, _)) if prev != owner => {
                self.collisions.push(SlotCollision {
                    kind: kind_key,
                    slot,
                    first_owner: prev.clone(),
                    second_owner: owner.to_string(),
                    file: file.to_string(),
                    line,
                });
            }
            Some(_) => {}
            None => {
                self.slots.insert(
                    (kind_key, slot),
                    (owner.to_string(), file.to_string(), line),
                );
            }
        }
    }
}

/// Builds the slot registry over a merged model.
pub fn build_slot_registry(model: &ProtoModel) -> SlotRegistry {
    let mut reg = SlotRegistry::default();
    for k in &model.kinds {
        for (slot, owner) in &k.params {
            reg.claim(k.key(), *slot, owner, &k.file, k.line);
        }
    }
    for k in &model.kinds {
        if let Some(reply) = &k.reply {
            let reply_key = format!("{}::{}", k.module, reply);
            for (slot, owner) in &k.reply_params {
                reg.claim(reply_key.clone(), *slot, owner, &k.file, k.line);
            }
        }
    }
    reg
}

/// Merges per-file models into one workspace model.
pub fn merge(models: Vec<ProtoModel>) -> ProtoModel {
    let mut out = ProtoModel::default();
    for m in models {
        out.kinds.extend(m.kinds);
        out.errors.extend(m.errors);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ProtoModel {
        parse_proto_source(&Source::new("p.rs", src))
    }

    const SRC: &str = "
pub mod ds {
    /// Publish a key.
    /// proto: request, reply=ACK, params 0/1=endpoint, params 2/3=recovery-token
    pub const PUBLISH: u32 = 0x0600;
    /// proto: reply, params 0=status
    pub const ACK: u32 = 0x060A;
}
/// Evidence classes.
/// proto: values
pub mod evidence {
    pub const DEADLINE: u32 = 1;
}
";

    #[test]
    fn parses_directions_pairing_and_slots() {
        let m = parse(SRC);
        assert!(m.errors.is_empty(), "{:?}", m.errors);
        let publish = m.kind("ds", "PUBLISH").unwrap();
        assert_eq!(publish.dir, Dir::Request);
        assert_eq!(publish.reply.as_deref(), Some("ACK"));
        assert_eq!(publish.params.len(), 4);
        let ack = m.kind("ds", "ACK").unwrap();
        assert_eq!(ack.dir, Dir::Reply);
        let ev = m.kind("evidence", "DEADLINE").unwrap();
        assert_eq!(ev.dir, Dir::Value, "module-level `proto: values` applies");
    }

    #[test]
    fn missing_annotation_is_an_error() {
        let m = parse("pub mod x { pub const A: u32 = 1; }");
        assert_eq!(m.errors.len(), 1);
        assert_eq!(m.errors[0].rule, "proto-missing");
    }

    #[test]
    fn malformed_clause_is_an_error() {
        let src = "pub mod x {\n    /// proto: request, reply=\n    pub const A: u32 = 1;\n}";
        let m = parse(src);
        assert_eq!(m.errors.len(), 1);
        assert_eq!(m.errors[0].rule, "proto-malformed");
    }

    #[test]
    fn slot_out_of_range_is_an_error() {
        let src = "pub mod x {\n    /// proto: oneway, params 9=nope\n    pub const A: u32 = 1;\n}";
        let m = parse(src);
        assert_eq!(m.errors.len(), 1);
        assert!(m.errors[0].message.contains("out of range"));
    }

    #[test]
    fn registry_flags_cross_feature_collisions() {
        let src = "
pub mod x {
    /// proto: request, reply=R, reply-params 3=ckpt-watermark
    pub const A: u32 = 1;
    /// proto: reply, params 3=recovery-token
    pub const R: u32 = 2;
}
";
        let m = parse(src);
        let reg = build_slot_registry(&m);
        assert_eq!(reg.collisions.len(), 1);
        let c = &reg.collisions[0];
        assert_eq!(c.kind, "x::R");
        assert_eq!(c.slot, 3);
    }

    #[test]
    fn same_owner_claims_merge_silently() {
        let src = "
pub mod x {
    /// proto: request, reply=R, reply-params 3=tok
    pub const A: u32 = 1;
    /// proto: reply, params 3=tok
    pub const R: u32 = 2;
}
";
        let m = parse(src);
        let reg = build_slot_registry(&m);
        assert!(reg.collisions.is_empty());
    }
}
