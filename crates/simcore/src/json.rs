//! The workspace's one JSON value, writer and reader.
//!
//! Everything the workspace writes as JSON — the trace exports, the
//! `BENCH_*` baselines, the analyzer's report — is unsigned integers,
//! booleans, strings, arrays and objects, so that is all [`Json`] holds:
//! no null, no fractions, no negative numbers. Objects keep insertion
//! order. [`Json::compact`] writes them in that order with no whitespace;
//! [`Json::pretty`] writes them with sorted keys and 2-space indentation.
//! Either way two equal values render to the same bytes, so a committed
//! artefact doubles as a determinism witness.
//!
//! [`Json::parse`] is total: malformed input is an [`Error`] naming a byte
//! offset, never a panic.

use std::fmt;

/// A JSON value. Numbers, booleans and strings convert with `.into()`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Json {
    /// An unsigned integer.
    Num(u64),
    /// `true` or `false`.
    Bool(bool),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n)
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::Num(u64::from(n))
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as u64)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl Json {
    /// An object of `pairs`, in order.
    pub fn obj<'a>(pairs: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// The value under `key` if this is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The compact form: no whitespace, keys in insertion order, no
    /// trailing newline.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, None);
        out
    }

    /// The pretty form: 2-space indentation, object keys sorted, empty
    /// containers as `[]` / `{}`, and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Appends the compact form if `indent` is `None`, else the pretty
    /// form at that depth.
    fn render(&self, out: &mut String, indent: Option<usize>) {
        let (open, close, mut members): (_, _, Vec<(Option<&String>, &Json)>) = match self {
            Json::Num(n) => return out.push_str(&n.to_string()),
            Json::Bool(b) => return out.push_str(&b.to_string()),
            Json::Str(s) => return escape_into(out, s),
            Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Obj(pairs) => ('{', '}', pairs.iter().map(|(k, v)| (Some(k), v)).collect()),
        };
        let inner = indent.map(|depth| depth + 1);
        if inner.is_some() {
            // Array items have no key, so this stable sort keeps their order.
            members.sort_by_key(|&(key, _)| key);
        }
        out.push(open);
        for (i, (key, value)) in members.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            if let Some(depth) = inner {
                out.push('\n');
                out.push_str(&"  ".repeat(depth));
            }
            if let Some(key) = key {
                escape_into(out, key);
                out.push_str(if inner.is_some() { ": " } else { ":" });
            }
            value.render(out, inner);
        }
        if let (Some(depth), false) = (indent, members.is_empty()) {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        }
        out.push(close);
    }

    /// Parses one JSON value, optionally surrounded by whitespace.
    pub fn parse(text: &str) -> Result<Json, Error> {
        let mut p = Parser { text, pos: 0 };
        let value = p.value(0)?;
        match p.peek() {
            None => Ok(value),
            Some(_) => p.err("trailing bytes after the value"),
        }
    }
}

/// Appends `s` as a JSON string literal: quoted, with `"`, `\` and every
/// control character escaped.
fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Why [`Json::parse`] rejected its input, and where.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Error {
    /// Byte offset into the input.
    pub at: usize,
    /// What was wrong there.
    pub what: &'static str,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.what, self.at)
    }
}

/// Arrays and objects nested deeper than this are rejected rather than
/// risking the stack.
const MAX_DEPTH: usize = 128;

/// A cursor over the input. `pos` never passes the end and only ever
/// stops on a character boundary: it advances over ASCII bytes one at a
/// time and over anything else only inside a string run.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err<T>(&self, what: &'static str) -> Result<T, Error> {
        Err(Error { at: self.pos, what })
    }

    /// The bytes not yet consumed.
    fn rest(&self) -> &[u8] {
        &self.text.as_bytes()[self.pos..]
    }

    /// Skips whitespace and returns the next byte, without consuming it.
    fn peek(&mut self) -> Option<u8> {
        let bytes = self.text.as_bytes();
        while self.pos < bytes.len() && matches!(bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r') {
            self.pos += 1;
        }
        bytes.get(self.pos).copied()
    }

    fn value(&mut self, depth: usize) -> Result<Json, Error> {
        if depth > MAX_DEPTH {
            return self.err("nested too deep");
        }
        match self.peek() {
            Some(open @ (b'[' | b'{')) => self.container(open, depth),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'0'..=b'9') => self.number(),
            Some(b't') if self.rest().starts_with(b"true") => self.keyword(4, true),
            Some(b'f') if self.rest().starts_with(b"false") => self.keyword(5, false),
            None => self.err("unexpected end of input"),
            Some(_) => self.err("expected a value"),
        }
    }

    fn keyword(&mut self, len: usize, value: bool) -> Result<Json, Error> {
        self.pos += len;
        Ok(Json::Bool(value))
    }

    /// An array or object, starting at its opening bracket.
    fn container(&mut self, open: u8, depth: usize) -> Result<Json, Error> {
        let close = if open == b'[' { b']' } else { b'}' };
        let (mut items, mut pairs) = (Vec::new(), Vec::new());
        self.pos += 1;
        if self.peek() == Some(close) {
            self.pos += 1;
        } else {
            loop {
                if open == b'[' {
                    items.push(self.value(depth + 1)?);
                } else {
                    if self.peek() != Some(b'"') {
                        return self.err("expected a string key");
                    }
                    let key = self.string()?;
                    if self.peek() != Some(b':') {
                        return self.err("expected ':'");
                    }
                    self.pos += 1;
                    pairs.push((key, self.value(depth + 1)?));
                }
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(c) if c == close => break self.pos += 1,
                    None => return self.err("unexpected end of input"),
                    Some(_) => return self.err("expected ',' or a closing bracket"),
                }
            }
        }
        Ok(if open == b'[' {
            Json::Arr(items)
        } else {
            Json::Obj(pairs)
        })
    }

    fn number(&mut self) -> Result<Json, Error> {
        let start = self.pos;
        let bytes = self.text.as_bytes();
        while self.pos < bytes.len() && bytes[self.pos].is_ascii_digit() {
            self.pos += 1;
        }
        let digits = &self.text[start..self.pos];
        if digits.len() > 1 && digits.starts_with('0') {
            self.pos = start;
            return self.err("leading zero");
        }
        if matches!(self.rest().first(), Some(b'.' | b'e' | b'E')) {
            return self.err("only unsigned integers are supported");
        }
        digits.parse().map(Json::Num).or_else(|_| {
            self.pos = start;
            self.err("number out of range")
        })
    }

    /// A string literal, starting at its opening quote.
    fn string(&mut self) -> Result<String, Error> {
        let bytes = self.text.as_bytes();
        let mut out = String::new();
        self.pos += 1;
        loop {
            let run = self.pos;
            while self.pos < bytes.len() && !matches!(bytes[self.pos], b'"' | b'\\' | 0..=0x1f) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => out.push(self.escape()?),
                None => return self.err("unterminated string"),
                Some(_) => return self.err("unescaped control character in string"),
            }
        }
    }

    /// One escape sequence, starting at its backslash.
    fn escape(&mut self) -> Result<char, Error> {
        self.pos += 1;
        let c = match self.rest().first() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let hex = self.text.get(self.pos + 1..self.pos + 5);
                let hex = hex.filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
                let Some(c) = hex.and_then(|h| char::from_u32(u32::from_str_radix(h, 16).ok()?))
                else {
                    return self.err("bad \\u escape");
                };
                self.pos += 4;
                c
            }
            None => return self.err("unterminated string"),
            Some(_) => return self.err("unknown escape"),
        };
        self.pos += 1;
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        Json::obj([
            ("b", Json::from(2u64)),
            ("a", Json::from("x\"y\n\u{1}é")),
            (
                "list",
                Json::Arr(vec![true.into(), false.into(), Json::Arr(vec![])]),
            ),
            ("empty", Json::Obj(vec![])),
        ])
    }

    #[test]
    fn compact_keeps_insertion_order_and_escapes() {
        assert_eq!(
            sample().compact(),
            r#"{"b":2,"a":"x\"y\n\u0001é","list":[true,false,[]],"empty":{}}"#
        );
    }

    #[test]
    fn pretty_sorts_keys_and_indents_by_two() {
        assert_eq!(
            sample().pretty(),
            "{\n  \"a\": \"x\\\"y\\n\\u0001é\",\n  \"b\": 2,\n  \"empty\": {},\n  \
             \"list\": [\n    true,\n    false,\n    []\n  ]\n}\n"
        );
    }

    #[test]
    fn both_forms_parse_back_to_the_value() {
        let v = sample();
        assert_eq!(Json::parse(&v.compact()), Ok(v.clone()));
        let Json::Obj(mut pairs) = v else {
            unreachable!()
        };
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(Json::parse(&sample().pretty()), Ok(Json::Obj(pairs)));
    }

    #[test]
    fn every_escape_parses() {
        let parsed = Json::parse(r#"" \" \\ \/ \b \f \n \r \t \u00e9 \u0041 ""#);
        assert_eq!(parsed, Ok(Json::from(" \" \\ / \u{8} \u{c} \n \r \t é A ")));
    }

    #[test]
    fn accessors_read_objects() {
        let v = Json::parse(r#"{"n":7,"s":"x","o":{"k":1}}"#).unwrap();
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("s"), Some(&Json::from("x")));
        assert_eq!(v.get("o").and_then(|o| o.get("k")), Some(&Json::Num(1)));
        assert_eq!(v.get("s").and_then(Json::as_u64), None);
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Num(1).get("n"), None);
    }

    #[test]
    fn bad_input_names_the_offset() {
        for (text, at, what) in [
            ("", 0, "unexpected end of input"),
            ("{} x", 3, "trailing bytes after the value"),
            ("[1,]", 3, "expected a value"),
            ("[1 2]", 3, "expected ',' or a closing bracket"),
            ("{1:2}", 1, "expected a string key"),
            ("{\"a\" 2}", 5, "expected ':'"),
            ("-1", 0, "expected a value"),
            ("null", 0, "expected a value"),
            ("1.5", 1, "only unsigned integers are supported"),
            ("01", 0, "leading zero"),
            ("18446744073709551616", 0, "number out of range"),
            ("\"abc", 4, "unterminated string"),
            ("\"a\nb\"", 2, "unescaped control character in string"),
            ("\"\\x\"", 2, "unknown escape"),
            ("\"\\u12\"", 2, "bad \\u escape"),
            ("\"\\u+123\"", 2, "bad \\u escape"),
            ("\"\\ud800\"", 2, "bad \\u escape"),
            ("tru", 0, "expected a value"),
        ] {
            assert_eq!(Json::parse(text), Err(Error { at, what }), "{text:?}");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        assert_eq!(Json::parse(&deep).unwrap_err().what, "nested too deep");
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn u64_max_round_trips() {
        let v = Json::Num(u64::MAX);
        assert_eq!(Json::parse(&v.compact()), Ok(v));
    }
}
