//! The one line counter: shipping lines per crate, and Fig. 9's
//! executable and recovery-specific lines per component (§7.3).
//!
//! A *shipping line* is counted the way the paper's `sclc.pl` counts,
//! blank lines and comments omitted: a file is cut at its first column-0
//! `#[cfg(test)]`, and above the cut every line counts that is neither
//! blank nor, after its indent, starts with `//`. So attribute lines and
//! the interior lines of a `/* */` comment count, and so does an indented
//! `#[cfg(test)]` item: this is a rule over lines, not a parse.
//!
//! *Recovery code* follows §7.3's rule: a unit is recovery code if a
//! system without failure handling would not contain it. A comment line
//! that is exactly `// analyze:recovery` marks the unit directly below it
//! (comment lines may sit between): an item (`fn`, `impl`, `struct`,
//! `enum`, `const`), or, inside a body, one match arm or one statement. A
//! `//! analyze:recovery` line in the module doc marks the whole file.
//! Where a unit ends comes from the token stream ([`unit_end`]). A marker
//! that covers no unit, or sits inside a unit already marked, is a
//! finding.

use std::collections::BTreeMap;
use std::path::Path;

use crate::ast::{brace_end, parse_file, Token, TokenKind};
use crate::conformance::Finding;

/// One unit under a recovery marker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Unit {
    /// Workspace-relative path of its file.
    pub file: String,
    /// 1-based line of the marker.
    pub line: usize,
    /// The unit's first line below its attributes, trimmed; the marker
    /// itself for a whole file.
    pub what: String,
    /// Shipping lines the unit covers.
    pub lines: usize,
}

/// Counts one file into `out`; `rel` names it.
pub fn count_file(rel: &str, text: &str, out: &mut Counted) {
    let raw: Vec<&str> = text.lines().collect();
    let cut = raw.iter().position(|l| l.starts_with("#[cfg(test)]"));
    let shipped = &raw[..cut.unwrap_or(raw.len())];
    let comment = |l: &&str| l.trim().starts_with("//");
    let code = |l: &&&str| !l.trim().is_empty() && !comment(l);
    let tokens = parse_file(text).tokens;
    let mut covered = 0; // the last line of the latest unit
    for (line, marker) in (1..).zip(shipped) {
        let module = match marker.trim() {
            "// analyze:recovery" => false,
            "//! analyze:recovery" => true,
            _ => continue,
        };
        let next = tokens.partition_point(|t| t.line <= line);
        let first = tokens.get(next).map_or(0, |t| t.line);
        let unit = if line <= covered {
            None
        } else if module {
            (next == 0).then_some((line, raw.len()))
        } else if first > 0 && raw[line..first - 1].iter().all(comment) {
            unit_end(&tokens, next).map(|end| (first, tokens[end].line))
        } else {
            None
        };
        let Some((first, last)) = unit else {
            out.findings.push(Finding {
                file: rel.to_string(),
                line,
                rule: "recovery-marker",
                message: "the marker covers no unit of its own".to_string(),
            });
            continue;
        };
        covered = last;
        let mut heads = raw[first - 1..].iter().map(|l| l.trim());
        let what = heads
            .find(|l| !l.starts_with("#["))
            .unwrap_or_default()
            .to_string();
        let span = first - 1..last.min(shipped.len());
        let lines = shipped[span].iter().filter(code).count();
        let file = rel.to_string();
        out.units.push(Unit {
            file,
            line,
            what,
            lines,
        });
    }
    let shipping = shipped.iter().filter(code).count();
    out.shipping.insert(rel.to_string(), shipping);
}

/// Index of the last token of the unit starting at `tokens[start]`, or
/// `None` if no unit starts there (an enclosing group closes first).
///
/// Attributes are part of the unit. An item (`fn`, `impl`, `struct`,
/// `enum`, `trait` or `mod` before the first `{` or `;`) ends at its first
/// top-level brace group or `;`. Anything else is a statement or a match
/// arm: it ends at a top-level `;`, at an arm's `,`, just before the
/// brace that closes the enclosing body, or at the close of its block
/// when it starts with one (`if`, `match`, `for`, `while`, `loop`,
/// `unsafe`, `{`) and no `else`, `=` or `in` follows (the brace group of
/// an `if let` or `for` pattern is not the block).
pub fn unit_end(tokens: &[Token], start: usize) -> Option<usize> {
    const ITEM: &[&str] = &["fn", "impl", "struct", "enum", "trait", "mod"];
    const BLOCK: &[&str] = &["if", "match", "for", "while", "loop", "unsafe"];
    let kind = |k: usize| tokens.get(k).map(|t| &t.kind);
    let is = |k: usize, words: &[&str]| {
        kind(k)
            .and_then(TokenKind::ident)
            .is_some_and(|w| words.contains(&w))
    };
    let mut i = start;
    while kind(i) == Some(&TokenKind::Pound) {
        i = brace_end(tokens, i + 1) + 1;
    }
    let head_ends = |k: &usize| {
        matches!(
            kind(*k),
            None | Some(TokenKind::Open('{') | TokenKind::Punct(';'))
        )
    };
    let item = (i..).take_while(|k| !head_ends(k)).any(|k| is(k, ITEM));
    let block_like = |k: usize| kind(k) == Some(&TokenKind::Open('{')) || is(k, BLOCK);
    let (mut blocky, mut arm_body, mut depth) = (block_like(i), false, 0usize);
    for (k, t) in tokens.iter().enumerate().skip(i) {
        match &t.kind {
            TokenKind::Open(_) => depth += 1,
            TokenKind::Close(_) if depth == 0 => return k.checked_sub(1).filter(|&e| e >= start),
            TokenKind::Close(c) => {
                depth -= 1;
                let goes_on =
                    is(k + 1, &["else", "in"]) || kind(k + 1) == Some(&TokenKind::Punct('='));
                if *c == '}' && depth == 0 && (item || blocky && !goes_on) {
                    return Some(k);
                }
            }
            TokenKind::FatArrow if depth == 0 && !item && !arm_body => {
                arm_body = true;
                blocky = block_like(k + 1);
            }
            TokenKind::Punct(';') if depth == 0 => return Some(k),
            TokenKind::Punct(',') if depth == 0 && arm_body => return Some(k),
            _ => {}
        }
    }
    None
}

/// The workspace's count.
#[derive(Clone, Debug, Default)]
pub struct Counted {
    /// Shipping lines of every `crates/*/src` file, by workspace-relative
    /// path.
    pub shipping: BTreeMap<String, usize>,
    /// The recovery units, in path and source order; they never overlap.
    pub units: Vec<Unit>,
    /// Markers that cover no unit.
    pub findings: Vec<Finding>,
}

/// Counts every file of `crates/*/src`, this crate's included. Fails
/// naming a file it cannot read.
pub fn count(root: &Path) -> std::io::Result<Counted> {
    let mut paths = Vec::new();
    for dir in std::fs::read_dir(root.join("crates"))?.filter_map(|e| e.ok()) {
        crate::collect_rs(&dir.path().join("src"), &mut paths);
    }
    let mut out = Counted::default();
    for (rel, text) in crate::read(root, paths)? {
        count_file(&rel, &text, &mut out);
    }
    Ok(out)
}

/// Fig. 9's components mapped onto this code base, one a line: the name,
/// then its files. A component with no files shares another's: the RAM
/// disk is counted within `block.rs`, the DP8390 shares `net.rs` with the
/// RTL8139. The file server is one engine and its two
/// on-disk formats (Fig. 5's MFS and FAT); the server library is the
/// crash-only shell and the state gate under it, the checkpoint client.
pub const FIG9: &str = "\
Reinc. Server: crates/servers/src/rs.rs crates/servers/src/rs/decide.rs crates/servers/src/policy.rs
Data Store: crates/servers/src/ds.rs
VFS Server: crates/servers/src/vfs.rs
File Server: crates/servers/src/mfs.rs crates/servers/src/fsfmt.rs crates/servers/src/fsfat.rs
SATA Driver: crates/drivers/src/block.rs
RAM Disk:
Network Server: crates/servers/src/inet.rs crates/servers/src/netproto.rs crates/servers/src/peer.rs
RTL8139 Driver: crates/drivers/src/net.rs
DP8390 Driver:
Driver Library: crates/drivers/src/libdriver.rs crates/drivers/src/routines.rs crates/drivers/src/proto.rs
Server Library: crates/servers/src/libserver.rs crates/ckpt/src/gate.rs
Process Manager: crates/servers/src/pm.rs
Microkernel: crates/kernel/src/system.rs crates/kernel/src/memory.rs crates/kernel/src/platform.rs \
             crates/kernel/src/privileges.rs crates/kernel/src/process.rs crates/kernel/src/types.rs";

impl Counted {
    /// Shipping lines per crate directory name, in name order.
    pub fn crates(&self) -> BTreeMap<&str, usize> {
        let mut out = BTreeMap::new();
        for (rel, n) in &self.shipping {
            *out.entry(rel.split('/').nth(1).unwrap_or("")).or_default() += n;
        }
        out
    }

    /// Fig. 9's rows, in table order: the component, its shipping lines,
    /// its recovery lines and its recovery units.
    pub fn fig9(&self) -> Vec<(&'static str, usize, usize, Vec<&Unit>)> {
        let row = |line: &'static str| {
            let (component, paths) = line.split_once(':').unwrap_or((line, ""));
            let files: Vec<&str> = paths.split_whitespace().collect();
            let total = files.iter().filter_map(|&f| self.shipping.get(f)).sum();
            let mine = |u: &&Unit| files.contains(&u.file.as_str());
            let units: Vec<&Unit> = self.units.iter().filter(mine).collect();
            let recovery = units.iter().map(|u| u.lines).sum();
            (component, total, recovery, units)
        };
        FIG9.lines().map(row).collect()
    }
}
