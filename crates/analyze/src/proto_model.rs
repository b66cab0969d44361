//! The protocol model: every message kind of the workspace, read from the
//! `protocol!` tables of the protocol files.
//!
//! A row of a table (`phoenix_kernel::layout` holds the grammar) names
//! one kind:
//!
//! ```text
//! request READ = 0x0201 -> REPLY, Read { lba: 0, count: 1, grant: 2 }
//! reply REPLY = 0x0203, Reply { status: 0, count: 1, csum_echo: 2 }
//! request KILL = 0x0503 -> KILL_REPLY, Kill { target: 0 as Endpoint, signal: 2 }
//! oneway RECV = 0x0304;
//! value DEADLINE = 1;
//! ```
//!
//! The compiler has already checked what a row can get wrong on its own: a
//! slot outside 0..=7, two fields in one slot, a request without a reply,
//! a reply that names no kind, an unknown direction. The model only
//! records each row (its module, direction, value, reply and fields) for
//! the conformance pass and the report. A typed field fills the slots its
//! type's `impl Field` in [`LAYOUT_FILE`] states (`const SLOTS`), read by
//! [`field_widths`]; a type it states no width for fills 0 slots, which
//! the conformance pass reports.

use std::collections::BTreeMap;

use crate::ast::{brace_end, Token, TokenKind};
use crate::Source;

/// Direction of a message kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dir {
    Request,
    Reply,
    Oneway,
    /// Not a message: a tagged value (an evidence class).
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

    fn parse(word: &str) -> Option<Dir> {
        [Dir::Request, Dir::Reply, Dir::Oneway, Dir::Value]
            .into_iter()
            .find(|d| d.name() == word)
    }
}

/// One row: a message kind.
#[derive(Clone, Debug)]
pub struct Kind {
    /// Protocol module, e.g. `bdev`.
    pub module: String,
    /// Const name, e.g. `READ`.
    pub name: String,
    /// Defining file (workspace-relative).
    pub file: String,
    /// 1-based line of the const's name in the row.
    pub line: usize,
    pub dir: Dir,
    /// The kind's number, e.g. `0x0201`.
    pub value: u32,
    /// For requests: the reply kind (same module).
    pub reply: Option<String>,
    /// The row's layout struct, e.g. `Read`; `None` for a row without
    /// fields.
    pub layout: Option<String>,
    /// `(slot, slots filled from it, field)` in row order; 0 slots for a
    /// type no `impl Field` of [`LAYOUT_FILE`] states.
    pub fields: Vec<(u8, u8, String)>,
}

impl Kind {
    /// `module::NAME`, the display key used throughout reports.
    pub fn key(&self) -> String {
        format!("{}::{}", self.module, self.name)
    }
}

/// The file whose `impl Field for <type>` blocks state each field type's
/// width.
pub const LAYOUT_FILE: &str = "crates/kernel/src/layout.rs";

/// The slots a field of each type fills: for every `impl .. Field for
/// <type> { .. }` in `layout`'s tokens, the `const SLOTS: usize = <n>;` in
/// its body, keyed by [`type_name`].
pub fn field_widths(layout: &Source) -> BTreeMap<String, u8> {
    let tokens = &layout.ast.tokens;
    let is = |k: usize, word: &str| tokens.get(k).and_then(|t| t.kind.ident()) == Some(word);
    let width = |at: usize| {
        let open = (at..tokens.len()).find(|&k| tokens[k].kind == TokenKind::Open('{'))?;
        let is_slots = |k: &usize| is(*k, "const") && is(k + 1, "SLOTS");
        let slots = (open..brace_end(tokens, open)).find(is_slots)?;
        let n = tokens.get(slots + 5)?.kind.to_string().parse().ok()?;
        Some((type_name(&tokens[at + 2..open]), n))
    };
    let impls = (0..tokens.len()).filter(|&k| is(k, "Field") && is(k + 1, "for"));
    impls.filter_map(width).collect()
}

/// A type as its tokens spell it, each path cut to its last segment
/// (`Option<trace::SpanId>` is `Option<SpanId>`).
fn type_name(tokens: &[Token]) -> String {
    let path = |k: usize| tokens.get(k).is_some_and(|t| t.kind == TokenKind::PathSep);
    let kept = (0..tokens.len()).filter(|&k| !path(k) && !path(k + 1));
    kept.map(|k| tokens[k].kind.to_string()).collect()
}

/// The rows of every `protocol!` table in one file, in source order; a
/// typed field fills the slots `widths` ([`field_widths`]) gives its type.
/// A row the reader cannot follow ends its table: the compiler rejects it
/// anyway.
pub fn parse_proto_source(source: &Source, widths: &BTreeMap<String, u8>) -> Vec<Kind> {
    let mut kinds = Vec::new();
    for call in source.ast.macros.iter().filter(|m| m.name == "protocol") {
        let mut rows = Rows {
            tokens: &source.ast.tokens[call.body.clone()],
            at: 0,
            widths,
        };
        let module = call.mod_path.last().cloned().unwrap_or_default();
        while let Some(mut kind) = rows.next_row() {
            kind.module.clone_from(&module);
            kind.file.clone_from(&source.rel);
            kinds.push(kind);
        }
    }
    kinds
}

/// A cursor over one table's tokens.
struct Rows<'a> {
    tokens: &'a [Token],
    at: usize,
    widths: &'a BTreeMap<String, u8>,
}

impl Rows<'_> {
    fn peek(&self) -> Option<&TokenKind> {
        self.tokens.get(self.at).map(|t| &t.kind)
    }

    fn eat(&mut self, kind: &TokenKind) -> Option<()> {
        (self.peek()? == kind).then(|| self.at += 1)
    }

    fn ident(&mut self) -> Option<String> {
        let name = self.peek()?.ident()?.to_string();
        self.at += 1;
        Some(name)
    }

    fn number(&mut self) -> Option<String> {
        let TokenKind::Number(n) = self.peek()? else {
            return None;
        };
        let n = n.clone();
        self.at += 1;
        Some(n)
    }

    /// `dir NAME = value [-> REPLY] (; | , Layout { field: slot [as Type], .. })`,
    /// after any `#[..]` attributes (a `///` comment is no token).
    fn next_row(&mut self) -> Option<Kind> {
        while self.eat(&TokenKind::Pound).is_some() {
            self.at = self.tokens[self.at..]
                .iter()
                .position(|t| t.kind == TokenKind::Close(']'))
                .map_or(self.tokens.len(), |p| self.at + p + 1);
        }
        let dir = Dir::parse(&self.ident()?)?;
        let line = self.tokens.get(self.at)?.line;
        let name = self.ident()?;
        self.eat(&TokenKind::Punct('='))?;
        let value = self.number()?.replace('_', "");
        let value = match value.strip_prefix("0x") {
            Some(hex) => u32::from_str_radix(hex, 16).ok()?,
            None => value.parse().ok()?,
        };
        let reply = match self.eat(&TokenKind::Punct('-')) {
            Some(()) => {
                self.eat(&TokenKind::Punct('>'))?;
                Some(self.ident()?)
            }
            None => None,
        };
        let mut kind = Kind {
            module: String::new(),
            name,
            file: String::new(),
            line,
            dir,
            value,
            reply,
            layout: None,
            fields: Vec::new(),
        };
        if self.eat(&TokenKind::Punct(';')).is_some() {
            return Some(kind);
        }
        self.eat(&TokenKind::Punct(','))?;
        kind.layout = Some(self.ident()?);
        self.eat(&TokenKind::Open('{'))?;
        while self.eat(&TokenKind::Close('}')).is_none() {
            let field = self.ident()?;
            self.eat(&TokenKind::Punct(':'))?;
            let slot = self.number()?.parse().ok()?;
            let slots = match self.eat(&TokenKind::Ident("as".into())) {
                Some(()) => self.widths.get(&self.ty()).copied().unwrap_or(0),
                None => 1,
            };
            kind.fields.push((slot, slots, field));
            self.eat(&TokenKind::Punct(','));
        }
        Some(kind)
    }

    /// A field's type ([`type_name`]): the tokens up to the `,` or `}`
    /// that ends the field.
    fn ty(&mut self) -> String {
        let start = self.at;
        let ends = |t: &TokenKind| matches!(t, TokenKind::Punct(',') | TokenKind::Close('}'));
        while self.peek().is_some_and(|t| !ends(t)) {
            self.at += 1;
        }
        type_name(&self.tokens[start..self.at])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "
pub mod ds {
    phoenix_kernel::protocol! {
        /// Publish a key.
        request PUBLISH = 0x0600 -> ACK, Publish {
            endpoint: 0 as Endpoint,
            span: 3 as Option<trace::SpanId>,
            mode: 2,
        }
        #[doc = \"Acknowledged.\"]
        reply ACK = 0x060A, Ack { status: 0 }
        oneway GONE = 0x060B;
    }
}
pub mod evidence {
    phoenix_kernel::protocol! {
        value DEADLINE = 1;
    }
}
";

    /// The field types of `SRC`, as `phoenix_kernel::layout` states them.
    const LAYOUT: &str = "
impl Field for Endpoint {
    const SLOTS: usize = 2;
    fn write(self, params: &mut [u64; 8], at: usize) {}
}
impl crate::layout::Field for Option<phoenix_simcore::trace::SpanId> {
    const SLOTS: usize = 1;
}
";

    #[test]
    fn parses_directions_pairing_and_slots() {
        let widths = field_widths(&Source::new(LAYOUT_FILE, LAYOUT));
        let expected = [
            ("Endpoint".to_string(), 2),
            ("Option<SpanId>".to_string(), 1),
        ];
        assert_eq!(widths, BTreeMap::from(expected));
        let kinds = parse_proto_source(&Source::new("p.rs", SRC), &widths);
        let rows: Vec<String> = kinds
            .iter()
            .map(|k| {
                let reply = k.reply.as_deref().unwrap_or("-");
                let layout = k.layout.as_deref().unwrap_or("-");
                let (line, dir, key, value) = (k.line, k.dir.name(), k.key(), k.value);
                format!("{line}: {dir} {key} {value:#x} {reply} {layout}")
            })
            .collect();
        assert_eq!(
            rows,
            [
                "5: request ds::PUBLISH 0x600 ACK Publish",
                "11: reply ds::ACK 0x60a - Ack",
                "12: oneway ds::GONE 0x60b - -",
                "17: value evidence::DEADLINE 0x1 - -",
            ]
        );
        let publish = &kinds[0];
        let field = |slot, slots, name: &str| (slot, slots, name.to_string());
        assert_eq!(
            publish.fields,
            [
                field(0, 2, "endpoint"),
                field(3, 1, "span"),
                field(2, 1, "mode")
            ]
        );
        assert_eq!(publish.file, "p.rs");
        // A type no `impl Field` states fills no slot; the row is kept.
        let unknown = parse_proto_source(&Source::new("p.rs", SRC), &BTreeMap::new());
        assert_eq!(unknown.len(), kinds.len());
        let publish = &unknown[0];
        assert_eq!(
            publish.fields[..2],
            [field(0, 0, "endpoint"), field(3, 0, "span")]
        );
    }
}
