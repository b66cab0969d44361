//! The analyzer's one front end: every pass reads Rust through it.
//!
//! The container this repo builds in has no crate registry, so `syn` is
//! unavailable; this module implements the *subset* of Rust structure
//! the passes need — a real tokenizer (strings, chars, lifetimes, nested
//! block comments, doc comments) and an item-level scanner (modules,
//! impl blocks, functions with body token ranges, brace-delimited macro
//! invocations, and which tokens sit under `#[cfg(test)]`). Everything
//! downstream of here reasons over tokens, never raw lines, so a
//! construct split over several lines is still one construct and text
//! quoted inside a string or a comment is not code.
//!
//! What it deliberately does not do: expression parsing, type
//! resolution, or macro expansion. The passes that build on it document
//! the approximations they layer on top (token-run patterns in
//! [`crate::lint`], name-based call resolution in [`crate::reach`],
//! token-context classification in [`crate::conformance`]).

use std::fmt;

/// One lexical token with its 1-based source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Token {
    pub kind: TokenKind,
    pub line: usize,
}

/// Token kinds. Punctuation that the passes dispatch on gets its own
/// variant; everything else is folded into `Punct`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword.
    Ident(String),
    /// Integer / float literal (value kept as written).
    Number(String),
    /// `::`
    PathSep,
    /// `=>`
    FatArrow,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `(` `)` `{` `}` `[` `]`
    Open(char),
    Close(char),
    /// `!` (macro bang or negation)
    Bang,
    /// `.`
    Dot,
    /// `#`
    Pound,
    /// Any other single punctuation character.
    Punct(char),
}

impl TokenKind {
    /// The identifier text, if this token is one.
    pub fn ident(&self) -> Option<&str> {
        match self {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) | TokenKind::Number(s) => write!(f, "{s}"),
            TokenKind::PathSep => write!(f, "::"),
            TokenKind::FatArrow => write!(f, "=>"),
            TokenKind::EqEq => write!(f, "=="),
            TokenKind::NotEq => write!(f, "!="),
            TokenKind::Open(c) | TokenKind::Close(c) | TokenKind::Punct(c) => write!(f, "{c}"),
            TokenKind::Bang => write!(f, "!"),
            TokenKind::Dot => write!(f, "."),
            TokenKind::Pound => write!(f, "#"),
        }
    }
}

/// Tokenizes Rust source. String/char/lifetime-aware; comments are
/// dropped here (root markers are recovered line-wise by the item
/// scanner, pragmas by [`allowed_at`] from the raw source).
// One hand-written scanner loop: an arm per lexeme class, state in locals.
#[allow(clippy::too_many_lines)]
pub fn tokenize(source: &str) -> Vec<Token> {
    let b = source.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    let mut line = 1;
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if b.get(i + 1) == Some(&b'/') => {
                // Line comment (incl. doc comments); skip to newline.
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                // Block comment, nesting-aware.
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i..].starts_with(b"/*") {
                        depth += 1;
                        i += 2;
                    } else if b[i..].starts_with(b"*/") {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'"' => {
                // String literal; honor escapes, count newlines — also
                // the one an escape swallows (a `\` line continuation).
                i += 1;
                while i < b.len() {
                    match b[i] {
                        b'\\' => {
                            if b.get(i + 1) == Some(&b'\n') {
                                line += 1;
                            }
                            i += 2;
                        }
                        b'"' => {
                            i += 1;
                            break;
                        }
                        b'\n' => {
                            line += 1;
                            i += 1;
                        }
                        _ => i += 1,
                    }
                }
            }
            b'r' if b.get(i + 1) == Some(&b'"') || b[i..].starts_with(b"r#") => {
                // Raw string r"..." / r#"..."# / r##"..."## (also covers
                // the r#ident raw-identifier case by falling through).
                let mut j = i + 1;
                let mut hashes = 0;
                while b.get(j) == Some(&b'#') {
                    hashes += 1;
                    j += 1;
                }
                if b.get(j) == Some(&b'"') {
                    j += 1;
                    let closer: Vec<u8> = std::iter::once(b'"')
                        .chain(std::iter::repeat_n(b'#', hashes))
                        .collect();
                    while j < b.len() && !b[j..].starts_with(&closer) {
                        if b[j] == b'\n' {
                            line += 1;
                        }
                        j += 1;
                    }
                    i = (j + closer.len()).min(b.len());
                } else {
                    // r#ident — raw identifier.
                    let start = j;
                    let mut k = start;
                    while k < b.len() && (b[k].is_ascii_alphanumeric() || b[k] == b'_') {
                        k += 1;
                    }
                    out.push(Token {
                        kind: TokenKind::Ident(String::from_utf8_lossy(&b[start..k]).into_owned()),
                        line,
                    });
                    i = k;
                }
            }
            b'\'' => {
                // Lifetime ('a) vs char literal ('x', '\n', '\u{..}').
                let next = b.get(i + 1).copied().unwrap_or(0);
                let after = b.get(i + 2).copied().unwrap_or(0);
                if (next.is_ascii_alphabetic() || next == b'_') && after != b'\'' {
                    // Lifetime: skip the tick and the identifier.
                    i += 1;
                    while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                        i += 1;
                    }
                } else {
                    // Char literal; honor escapes.
                    i += 1;
                    while i < b.len() {
                        match b[i] {
                            b'\\' => i += 2,
                            b'\'' => {
                                i += 1;
                                break;
                            }
                            b'\n' => {
                                line += 1;
                                i += 1;
                            }
                            _ => i += 1,
                        }
                    }
                }
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                out.push(Token {
                    kind: TokenKind::Ident(String::from_utf8_lossy(&b[start..i]).into_owned()),
                    line,
                });
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < b.len()
                    && (b[i].is_ascii_alphanumeric() || b[i] == b'_' || b[i] == b'.')
                    && !(b[i] == b'.' && b.get(i + 1) == Some(&b'.'))
                {
                    i += 1;
                }
                out.push(Token {
                    kind: TokenKind::Number(String::from_utf8_lossy(&b[start..i]).into_owned()),
                    line,
                });
            }
            b':' if b.get(i + 1) == Some(&b':') => {
                out.push(Token {
                    kind: TokenKind::PathSep,
                    line,
                });
                i += 2;
            }
            b'=' if b.get(i + 1) == Some(&b'>') => {
                out.push(Token {
                    kind: TokenKind::FatArrow,
                    line,
                });
                i += 2;
            }
            b'=' if b.get(i + 1) == Some(&b'=') => {
                out.push(Token {
                    kind: TokenKind::EqEq,
                    line,
                });
                i += 2;
            }
            b'!' if b.get(i + 1) == Some(&b'=') => {
                out.push(Token {
                    kind: TokenKind::NotEq,
                    line,
                });
                i += 2;
            }
            b'(' | b'{' | b'[' => {
                out.push(Token {
                    kind: TokenKind::Open(c as char),
                    line,
                });
                i += 1;
            }
            b')' | b'}' | b']' => {
                out.push(Token {
                    kind: TokenKind::Close(c as char),
                    line,
                });
                i += 1;
            }
            b'!' => {
                out.push(Token {
                    kind: TokenKind::Bang,
                    line,
                });
                i += 1;
            }
            b'.' => {
                out.push(Token {
                    kind: TokenKind::Dot,
                    line,
                });
                i += 1;
            }
            b'#' => {
                out.push(Token {
                    kind: TokenKind::Pound,
                    line,
                });
                i += 1;
            }
            c => {
                out.push(Token {
                    kind: TokenKind::Punct(c as char),
                    line,
                });
                i += 1;
            }
        }
    }
    out
}

/// A function item: where it lives, how it can be addressed, and the
/// token range of its body.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Enclosing `impl` type name, if any (`Ctx`, `ReincarnationServer`).
    pub impl_type: Option<String>,
    /// Type parameters in scope: the enclosing impl's plus the fn's own
    /// (`impl<V: Volume> ..` → `V`). A `V::f(..)` call names no type.
    pub type_params: Vec<String>,
    /// Enclosing inline `mod` path segments (not the file's own module).
    pub mod_path: Vec<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Token index range of the body (inside the outer braces),
    /// half-open. Empty for bodyless trait-method declarations.
    pub body: std::ops::Range<usize>,
    /// Whether a `// analyze:recovery-root` marker sits in the comment
    /// block directly above the item.
    pub recovery_root: bool,
    /// Whether the item (or an enclosing mod/impl) is `#[cfg(test)]`.
    pub cfg_test: bool,
}

/// A brace-delimited macro invocation among the items (`protocol! { .. }`).
#[derive(Clone, Debug)]
pub struct MacroCall {
    /// The macro's name: the last path segment before the `!`.
    pub name: String,
    /// Enclosing inline `mod` path segments.
    pub mod_path: Vec<String>,
    /// Token index range of the body (inside the braces), half-open.
    pub body: std::ops::Range<usize>,
}

/// Item-level view of one source file.
#[derive(Clone, Debug, Default)]
pub struct FileAst {
    pub tokens: Vec<Token>,
    pub fns: Vec<FnItem>,
    pub macros: Vec<MacroCall>,
    /// Per token: whether it sits under `#[cfg(test)]` — from the
    /// attribute to the end of the item, field or statement it gates, or
    /// anywhere inside a gated `mod`/`impl`/brace group. A function is
    /// cut whole: an attribute inside a shipping body gates nothing.
    pub in_test: Vec<bool>,
}

/// Comment metadata gathered per source line before tokenizing.
struct LineNotes {
    /// Whether the line is comment-only or blank (doc or plain).
    comment_or_blank: Vec<bool>,
    /// Whether the line's comment text contains `analyze:recovery-root`.
    root_marker: Vec<bool>,
}

fn scan_lines(source: &str) -> LineNotes {
    let mut comment_or_blank = Vec::new();
    let mut root_marker = Vec::new();
    for raw in source.lines() {
        let t = raw.trim();
        comment_or_blank.push(t.is_empty() || t.starts_with("//"));
        root_marker.push(t.starts_with("//") && t.contains("analyze:recovery-root"));
    }
    LineNotes {
        comment_or_blank,
        root_marker,
    }
}

/// Scope kinds tracked while walking the token stream.
#[derive(Clone, Debug, PartialEq)]
enum Scope {
    Mod(String, bool),               // name, cfg_test
    Impl(String, Vec<String>, bool), // type name, type params, cfg_test
    Other(bool),                     // any other brace (fn body handled separately)
}

impl Scope {
    fn cfg_test(&self) -> bool {
        match self {
            Scope::Mod(_, t) | Scope::Impl(_, _, t) | Scope::Other(t) => *t,
        }
    }
}

/// The inline `mod` path of a scope stack.
fn mod_path(stack: &[Scope]) -> Vec<String> {
    stack
        .iter()
        .filter_map(|s| match s {
            Scope::Mod(m, _) => Some(m.clone()),
            _ => None,
        })
        .collect()
}

/// Index of the bracket closing the one at `tokens[open]`, or the end of
/// the stream if it never closes.
pub(crate) fn brace_end(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        match t.kind {
            TokenKind::Open(_) => depth += 1,
            TokenKind::Close(_) => depth -= 1,
            _ => {}
        }
        if depth == 0 {
            return k;
        }
    }
    tokens.len()
}

/// Type-parameter names of the generics list opening at `tokens[at]`
/// (`<V: Volume, const N: usize>` → `V`); empty if none opens there.
/// Lifetimes never reach the token stream.
fn type_params(tokens: &[Token], at: usize) -> Vec<String> {
    let mut out = Vec::new();
    if tokens.get(at).map(|t| &t.kind) != Some(&TokenKind::Punct('<')) {
        return out;
    }
    let mut depth = 0i32;
    for (prev, tok) in tokens[at..].iter().zip(&tokens[at + 1..]) {
        match &prev.kind {
            TokenKind::Punct('<') => depth += 1,
            TokenKind::Punct('>') => depth -= 1,
            _ => {}
        }
        if depth <= 0 {
            break;
        }
        let opens_param = matches!(prev.kind, TokenKind::Punct('<') | TokenKind::Punct(','));
        if let (1, true, Some(name)) = (depth, opens_param, tok.kind.ident()) {
            if name != "const" {
                out.push(name.to_string());
            }
        }
    }
    out
}

/// Parses one file into its item-level AST.
// One hand-written recursive-descent loop: an arm per item kind.
#[allow(clippy::too_many_lines)]
pub fn parse_file(source: &str) -> FileAst {
    let notes = scan_lines(source);
    let tokens = tokenize(source);
    let mut fns = Vec::new();
    let mut macros = Vec::new();
    let root_above = |l: usize| -> bool {
        let mut i = l.saturating_sub(1);
        while i >= 1 && notes.comment_or_blank[i - 1] {
            if notes.root_marker[i - 1] {
                return true;
            }
            i -= 1;
        }
        false
    };

    let mut stack: Vec<Scope> = Vec::new();
    let mut i = 0;
    // Attributes seen since the last item at this nesting level; only
    // cfg(test) is tracked.
    let mut pending_cfg_test = false;
    let mut in_test = vec![false; tokens.len()];
    while i < tokens.len() {
        // The `#[cfg(test)]` cut: whatever this step consumes — one token,
        // an item header, a whole function — takes the verdict that holds
        // where it starts.
        let start = i;
        let gated = pending_cfg_test || stack.iter().any(Scope::cfg_test);
        match &tokens[i].kind {
            TokenKind::Pound
                if matches!(
                    tokens.get(i + 1).map(|t| &t.kind),
                    Some(TokenKind::Open('['))
                ) =>
            {
                // Attribute: scan its bracket group, note cfg(test).
                let mut depth = 0;
                let mut is_cfg_test = false;
                let mut j = i + 1;
                while j < tokens.len() {
                    match &tokens[j].kind {
                        TokenKind::Open('[') => depth += 1,
                        TokenKind::Close(']') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        TokenKind::Ident(s) if s == "cfg" => {
                            if let Some(TokenKind::Open('(')) = tokens.get(j + 1).map(|t| &t.kind) {
                                if tokens.get(j + 2).and_then(|t| t.kind.ident()) == Some("test") {
                                    is_cfg_test = true;
                                }
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                pending_cfg_test |= is_cfg_test;
                i = j + 1;
            }
            TokenKind::Ident(kw) if kw == "mod" => {
                let name = tokens
                    .get(i + 1)
                    .and_then(|t| t.kind.ident())
                    .unwrap_or("")
                    .to_string();
                // Inline mod? The `{` follows the name (possibly after
                // nothing else — `mod x;` is out-of-line).
                match tokens.get(i + 2).map(|t| &t.kind) {
                    Some(TokenKind::Open('{')) => {
                        stack.push(Scope::Mod(name, pending_cfg_test));
                        i += 3;
                    }
                    _ => i += 2,
                }
                pending_cfg_test = false;
            }
            TokenKind::Ident(kw) if kw == "impl" => {
                // Find the type name: last path segment before `{` (after
                // `for` if present), skipping generics.
                let mut j = i + 1;
                let mut angle = 0i32;
                let mut last_ident = String::new();
                let mut saw_for = false;
                let mut saw_where = false;
                let mut after_for_ident = String::new();
                while j < tokens.len() {
                    match &tokens[j].kind {
                        TokenKind::Punct('<') => angle += 1,
                        TokenKind::Punct('>') => angle -= 1,
                        TokenKind::Open('{') if angle <= 0 => break,
                        TokenKind::Punct(';') => break,
                        TokenKind::Ident(s) if s == "for" => saw_for = true,
                        // A where clause ends the type-position idents.
                        TokenKind::Ident(s) if s == "where" => saw_where = true,
                        TokenKind::Ident(s) if angle <= 0 && !saw_where => {
                            if saw_for {
                                after_for_ident = s.clone();
                            } else {
                                last_ident = s.clone();
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                let ty = if saw_for { after_for_ident } else { last_ident };
                if j < tokens.len() && tokens[j].kind == TokenKind::Open('{') {
                    let params = type_params(&tokens, i + 1);
                    stack.push(Scope::Impl(ty, params, pending_cfg_test));
                    i = j + 1;
                } else {
                    i = j + 1;
                }
                pending_cfg_test = false;
            }
            TokenKind::Ident(kw) if kw == "fn" => {
                let name = tokens
                    .get(i + 1)
                    .and_then(|t| t.kind.ident())
                    .unwrap_or("")
                    .to_string();
                let line = tokens[i].line;
                // Scan to the body `{` at angle-depth 0 (skips generics,
                // args, return type) or a `;` (trait declaration).
                let mut j = i + 2;
                let mut angle = 0i32;
                let mut paren = 0i32;
                let mut body = 0..0;
                while j < tokens.len() {
                    match &tokens[j].kind {
                        TokenKind::Punct('<') => angle += 1,
                        TokenKind::Punct('>') => angle = (angle - 1).max(0),
                        TokenKind::Open('(') | TokenKind::Open('[') => paren += 1,
                        TokenKind::Close(')') | TokenKind::Close(']') => paren -= 1,
                        TokenKind::Open('{') if paren == 0 => {
                            let end = brace_end(&tokens, j);
                            body = j + 1..end.min(tokens.len() - 1);
                            j = end + 1;
                            break;
                        }
                        TokenKind::Punct(';') if paren == 0 => {
                            j += 1;
                            break;
                        }
                        _ => {}
                    }
                    j += 1;
                }
                let enclosing_impl = stack.iter().rev().find_map(|s| match s {
                    Scope::Impl(t, params, _) => Some((t.clone(), params.clone())),
                    _ => None,
                });
                let (impl_type, mut in_scope) = match enclosing_impl {
                    Some((ty, params)) => (Some(ty), params),
                    None => (None, Vec::new()),
                };
                in_scope.extend(type_params(&tokens, i + 2));
                if !name.is_empty() {
                    fns.push(FnItem {
                        name,
                        impl_type,
                        type_params: in_scope,
                        mod_path: mod_path(&stack),
                        line,
                        body,
                        recovery_root: root_above(line),
                        cfg_test: gated,
                    });
                }
                pending_cfg_test = false;
                i = j;
            }
            // `name! { .. }` among the items: its body stays in the walk.
            TokenKind::Bang
                if matches!(
                    tokens.get(i + 1).map(|t| &t.kind),
                    Some(TokenKind::Open('{'))
                ) =>
            {
                if let Some(name) = i.checked_sub(1).and_then(|p| tokens[p].kind.ident()) {
                    macros.push(MacroCall {
                        name: name.to_string(),
                        mod_path: mod_path(&stack),
                        body: i + 2..brace_end(&tokens, i + 1),
                    });
                }
                i += 1;
            }
            TokenKind::Open('{') => {
                stack.push(Scope::Other(pending_cfg_test));
                pending_cfg_test = false;
                i += 1;
            }
            TokenKind::Close('}') => {
                stack.pop();
                pending_cfg_test = false;
                i += 1;
            }
            // An attribute on a field, a variant or a statement ends with
            // it; it says nothing about the next item.
            TokenKind::Punct(',' | ';') => {
                pending_cfg_test = false;
                i += 1;
            }
            _ => {
                i += 1;
            }
        }
        let end = i.min(in_test.len());
        in_test[start..end].fill(gated);
    }

    FileAst {
        tokens,
        fns,
        macros,
        in_test,
    }
}

/// Whether line `l` (1-based) carries — or sits directly below a comment
/// block carrying — an `analyze:allow(rule)` pragma, given the raw
/// source. The one suppression rule every pass shares.
pub fn allowed_at(source: &str, l: usize, rule: &str) -> bool {
    let needle = format!("analyze:allow({rule})");
    let lines: Vec<&str> = source.lines().collect();
    if l == 0 || l > lines.len() {
        return false;
    }
    if lines[l - 1].contains(&needle) {
        return true;
    }
    // Walk the contiguous comment/blank block directly above.
    let mut i = l - 1; // 0-based index of the line above
    while i >= 1 {
        let t = lines[i - 1].trim();
        if t.is_empty() || t.starts_with("//") {
            if t.contains(&needle) {
                return true;
            }
            i -= 1;
        } else {
            break;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizer_skips_strings_comments_lifetimes() {
        let src = r#"
// a comment with .unwrap() inside
fn f<'a>(x: &'a str) -> bool {
    let s = "not .unwrap() either";
    let c = '\'';
    x.is_empty() /* block .unwrap() */
}
"#;
        let toks = tokenize(src);
        let unwraps = toks
            .iter()
            .filter(|t| t.kind.ident() == Some("unwrap"))
            .count();
        assert_eq!(
            unwraps, 0,
            "patterns inside strings/comments are not tokens"
        );
        assert!(toks.iter().any(|t| t.kind.ident() == Some("is_empty")));
    }

    #[test]
    fn parses_fns_with_impl_and_mod_context() {
        let src = "
mod outer {
    struct S;
    impl S {
        fn method(&self) { helper(); }
    }
    fn helper() {}
}
";
        let ast = parse_file(src);
        assert_eq!(ast.fns.len(), 2);
        let m = &ast.fns[0];
        assert_eq!(m.name, "method");
        assert_eq!(m.impl_type.as_deref(), Some("S"));
        assert_eq!(m.mod_path, vec!["outer".to_string()]);
        let h = &ast.fns[1];
        assert_eq!(h.name, "helper");
        assert_eq!(h.impl_type, None);
    }

    #[test]
    fn cfg_test_marks_items_and_enclosing_mods() {
        let src = "
fn shipped() {}
#[cfg(test)]
fn gated() {}
#[cfg(test)]
mod tests {
    fn inner() {}
}
fn after() {}
";
        let ast = parse_file(src);
        let by_name = |n: &str| ast.fns.iter().find(|f| f.name == n).unwrap();
        assert!(!by_name("shipped").cfg_test);
        assert!(by_name("gated").cfg_test);
        assert!(by_name("inner").cfg_test);
        assert!(
            !by_name("after").cfg_test,
            "scanning resumes after a test mod"
        );
    }

    #[test]
    fn cfg_test_on_a_field_or_a_statement_does_not_reach_the_next_fn() {
        let src = "
struct S {
    a: u8,
    #[cfg(test)]
    log: Vec<u8>,
}
fn after_field() {
    #[cfg(test)]
    log.push(1);
    for x in y {}
}
fn after_statement() {}
struct Last {
    #[cfg(test)]
    only: u8
}
fn after_last_field() {}
";
        let ast = parse_file(src);
        for f in &ast.fns {
            assert!(!f.cfg_test, "{} is shipped code", f.name);
        }
        assert_eq!(ast.fns.len(), 3);
        // The per-token cut: the gated fields and nothing else. A function
        // body is taken whole, so the statement inside one is not cut.
        let cut: Vec<&str> = (ast.tokens.iter().zip(&ast.in_test))
            .filter(|(_, gated)| **gated)
            .filter_map(|(t, _)| t.kind.ident())
            .collect();
        assert_eq!(cut, ["log", "Vec", "u8", "only", "u8"]);
    }

    #[test]
    fn recovery_root_marker_attaches_to_next_fn() {
        let src = "
// analyze:recovery-root
fn entry() {}
fn not_root() {}
";
        let ast = parse_file(src);
        assert!(ast.fns[0].recovery_root);
        assert!(!ast.fns[1].recovery_root);
    }

    #[test]
    fn a_string_continuation_keeps_the_line_count() {
        // Every `\` + newline inside a literal used to lose one line, so
        // a marker below enough of them sat "above" the wrong function.
        let src = "
fn talks() {
    let _ = \"one \\
             two\";
}
// analyze:recovery-root
fn entry() {}
";
        let ast = parse_file(src);
        assert_eq!((ast.fns[1].name.as_str(), ast.fns[1].line), ("entry", 7));
        assert!(ast.fns[1].recovery_root);
    }

    #[test]
    fn brace_macro_calls_capture_their_module_and_body() {
        let src = "
pub mod ds {
    phoenix_kernel::protocol! {
        /// Publish a key.
        request PUBLISH = 0x0600 -> ACK;
    }
    macro_rules! not_a_call { () => {}; }
    fn f() { inner! { x } }
    pub const fn g() -> u8 { 0 }
}
";
        let ast = parse_file(src);
        assert_eq!(ast.macros.len(), 1, "{:?}", ast.macros);
        let call = &ast.macros[0];
        assert_eq!(
            (call.name.as_str(), &call.mod_path[..]),
            ("protocol", &["ds".to_string()][..])
        );
        let body: Vec<String> = ast.tokens[call.body.clone()]
            .iter()
            .map(|t| t.kind.to_string())
            .collect();
        assert_eq!(body.concat(), "requestPUBLISH=0x0600->ACK;");
        // The walk goes on past the body, and a `const fn` is a fn.
        let fns: Vec<&str> = ast.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(fns, ["f", "g"]);
    }

    #[test]
    fn allowed_at_matches_same_line_and_block_above() {
        let src = "fn f() {\n    // analyze:allow(panic-reach): invariant\n    x.unwrap();\n    y.unwrap(); // analyze:allow(panic-reach): ok\n    z.unwrap();\n}\n";
        assert!(allowed_at(src, 3, "panic-reach"));
        assert!(allowed_at(src, 4, "panic-reach"));
        assert!(!allowed_at(src, 5, "panic-reach"));
    }
}
