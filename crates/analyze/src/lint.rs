//! Determinism lints: a lexical scan for constructs that break the
//! simulator's same-seed-byte-identical invariant.
//!
//! The scanner is deliberately dumb — line-oriented substring matching
//! with comment stripping — so it has no dependencies, runs in
//! milliseconds, and its verdicts are trivially reproducible. The cost
//! is a known set of blind spots (multi-line expressions, aliased
//! imports), which is acceptable for a gate whose job is to stop the
//! *common* regressions: someone reaching for `std::time` or a
//! `HashMap` out of habit.
//!
//! ## Suppression
//!
//! A finding is suppressed by a pragma on the same line, or in the
//! comment block directly above the offending line (the reason may wrap
//! over several comment lines):
//!
//! ```text
//! // analyze:allow(rule-name): why this use is sound
//! ```
//!
//! Test code is exempt: any `#[cfg(test)]`-attributed item (a trailing
//! `mod tests`, or a single mid-file item) is skipped by tracking the
//! item's braces — a mid-file `#[cfg(test)]` no longer exempts the rest
//! of the file, which used to be a real hole (one gated helper silenced
//! every rule below it).

use std::fmt;
use std::path::Path;

/// One lint rule: a name (used in pragmas), the substrings that trigger
/// it, path scoping, and the rationale shown in reports.
pub struct Rule {
    /// Pragma name, e.g. `wall-clock`.
    pub name: &'static str,
    /// A line containing any of these (outside comments) is a finding.
    pub patterns: &'static [&'static str],
    /// If non-empty, only files whose workspace-relative path starts
    /// with one of these prefixes are checked.
    pub only_in: &'static [&'static str],
    /// Files whose path starts with one of these are never checked.
    pub exempt: &'static [&'static str],
    /// Why the construct is banned.
    pub rationale: &'static str,
}

/// The determinism rule set for this repository.
pub fn default_rules() -> Vec<Rule> {
    vec![
        Rule {
            name: "wall-clock",
            patterns: &[
                "std::time::Instant",
                "std::time::SystemTime",
                "Instant::now()",
                "SystemTime::now()",
            ],
            only_in: &[],
            // The bench harness measures *host* elapsed time by design.
            exempt: &["crates/bench/"],
            rationale: "wall-clock reads differ across runs; use SimTime from phoenix-simcore",
        },
        Rule {
            name: "hash-collection",
            patterns: &["HashMap", "HashSet"],
            only_in: &[],
            exempt: &["crates/bench/"],
            rationale: "std hash iteration order is randomized per process; use BTreeMap/BTreeSet",
        },
        Rule {
            name: "rng-construction",
            patterns: &["SimRng::new("],
            only_in: &[],
            // The rng module itself, and the bench harness's own seeds.
            exempt: &["crates/simcore/src/rng.rs", "crates/bench/"],
            rationale: "every stream must fork from the run's root RNG so draws are a pure \
                        function of the seed; constructing a fresh SimRng creates an unforked \
                        stream",
        },
        Rule {
            name: "thread",
            patterns: &["std::thread", "thread::spawn"],
            only_in: &[],
            exempt: &[],
            rationale: "host threads introduce scheduling nondeterminism; the simulator is \
                        single-threaded by construction",
        },
        Rule {
            name: "decide-purity",
            patterns: &["Ctx<", "phoenix_kernel::system", ".metrics()", "TraceLevel"],
            only_in: &["crates/servers/src/rs/decide.rs"],
            exempt: &[],
            rationale: "RS's decisions are plain values: a kernel context, a metric or a trace \
                        call in the decide file puts the event loop back between the rules and \
                        the tests, explorer and checkpoint that drive them as data; report the \
                        decision from the shell in rs.rs",
        },
        Rule {
            name: "format-purity",
            patterns: &["Ctx<", "phoenix_kernel::system", ".metrics()", "sendrec"],
            only_in: &["crates/servers/src/fsfmt.rs", "crates/servers/src/fsfat.rs"],
            exempt: &[],
            rationale: "an on-disk format knows sectors and bytes, nothing about drivers: a \
                        kernel context, a metric or an IPC call in a format file is driver \
                        handling growing a second copy outside the one file server engine \
                        (mfs.rs), where the deadlines, sentinels and complaints would not \
                        follow it; return the value and let the engine act on it",
        },
        Rule {
            name: "raw-cursor",
            patterns: &["from_le_bytes(", "to_le_bytes("],
            only_in: &[
                "crates/servers/src/inet.rs",
                "crates/servers/src/vfs.rs",
                "crates/servers/src/pm.rs",
                "crates/fleet/src/proto.rs",
                "crates/ckpt/src/snapshot.rs",
            ],
            exempt: &[],
            rationale: "externalised state and snapshot frames are read and written through \
                        the one bounds-checked cursor pair (phoenix_simcore::wire): a byte \
                        conversion by hand in a state codec is an index the cursor would have \
                        checked and a trailing byte `finish()` would have rejected; use \
                        Reader/Writer",
        },
    ]
}

/// One determinism-lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LintFinding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule name.
    pub rule: &'static str,
    /// The offending line, trimmed.
    pub excerpt: String,
}

impl fmt::Display for LintFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.excerpt
        )
    }
}

/// Whether `line` carries an `analyze:allow(rule)` pragma for `rule`.
fn has_pragma(line: &str, rule: &str) -> bool {
    let Some(idx) = line.find("analyze:allow(") else {
        return false;
    };
    let rest = &line[idx + "analyze:allow(".len()..];
    rest.strip_prefix(rule)
        .is_some_and(|after| after.starts_with(')'))
}

/// Strips `//` line comments and the interior of `/* */` block comments.
/// `in_block` carries block-comment state across lines. Naive about
/// comment markers inside string literals; the pragma syntax and the
/// rule patterns make that a non-issue in practice.
fn strip_comments(line: &str, in_block: &mut bool) -> String {
    let mut out = String::with_capacity(line.len());
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if *in_block {
            if bytes[i..].starts_with(b"*/") {
                *in_block = false;
                i += 2;
            } else {
                i += 1;
            }
        } else if bytes[i..].starts_with(b"//") {
            break;
        } else if bytes[i..].starts_with(b"/*") {
            *in_block = true;
            i += 2;
        } else {
            out.push(bytes[i] as char);
            i += 1;
        }
    }
    out
}

/// Net brace depth change of `code`, ignoring braces inside string and
/// char literals (a `write!(f, "{{")` must not unbalance the count).
fn brace_delta(code: &str) -> (i32, bool, bool) {
    let b = code.as_bytes();
    let mut delta = 0i32;
    let mut saw_open = false;
    let mut saw_semi_at_zero = false;
    let mut i = 0;
    let mut in_str = false;
    while i < b.len() {
        let c = b[i];
        if in_str {
            match c {
                b'\\' => i += 1,
                b'"' => in_str = false,
                _ => {}
            }
        } else {
            match c {
                b'"' => in_str = true,
                // Char literal / lifetime: skip a short quoted span so
                // '{' and '}' literals don't count.
                b'\'' => {
                    if b.get(i + 2) == Some(&b'\'') {
                        i += 2;
                    } else if b.get(i + 1) == Some(&b'\\') && b.get(i + 3) == Some(&b'\'') {
                        i += 3;
                    }
                }
                b'{' => {
                    delta += 1;
                    saw_open = true;
                }
                b'}' => delta -= 1,
                b';' if delta <= 0 => saw_semi_at_zero = true,
                _ => {}
            }
        }
        i += 1;
    }
    (delta, saw_open, saw_semi_at_zero)
}

/// Tracks skipping of one `#[cfg(test)]`-attributed item.
struct TestSkip {
    depth: i32,
    entered_block: bool,
}

fn path_applies(rule: &Rule, rel_path: &str) -> bool {
    if rule.exempt.iter().any(|p| rel_path.starts_with(p)) {
        return false;
    }
    rule.only_in.is_empty() || rule.only_in.iter().any(|p| rel_path.starts_with(p))
}

/// Lints one source file (given as text). `rel_path` is the
/// workspace-relative path used for rule scoping and reporting.
pub fn lint_source(rel_path: &str, source: &str, rules: &[Rule]) -> Vec<LintFinding> {
    let active: Vec<&Rule> = rules.iter().filter(|r| path_applies(r, rel_path)).collect();
    if active.is_empty() {
        return Vec::new();
    }
    let mut findings = Vec::new();
    let mut in_block = false;
    // Pragmas seen on comment-only lines since the last code line; they
    // attach to the next line that actually contains code.
    let mut carried: Vec<&'static str> = Vec::new();
    // While skipping a `#[cfg(test)]` item, tracks its brace depth.
    let mut test_skip: Option<TestSkip> = None;
    for (i, raw) in source.lines().enumerate() {
        let code = strip_comments(raw, &mut in_block);
        if let Some(skip) = &mut test_skip {
            // Consume lines until the attributed item's braces balance
            // (or, for a braceless item like a gated `use`, until its
            // terminating `;`).
            let (delta, saw_open, semi_at_zero) = brace_delta(&code);
            skip.entered_block |= saw_open;
            skip.depth += delta;
            if (skip.entered_block && skip.depth <= 0) || (!skip.entered_block && semi_at_zero) {
                test_skip = None;
            }
            continue;
        }
        if code.contains("#[cfg(test)]") {
            // Start skipping the attributed item; the remainder of this
            // line (e.g. an inline `mod tests {`) counts toward it.
            let after = code
                .split_once("#[cfg(test)]")
                .map(|(_, rest)| rest)
                .unwrap_or("");
            let (delta, saw_open, semi_at_zero) = brace_delta(after);
            let done = (saw_open && delta <= 0) || (!saw_open && semi_at_zero);
            if !done {
                test_skip = Some(TestSkip {
                    depth: delta,
                    entered_block: saw_open,
                });
            }
            carried.clear();
            continue;
        }
        if code.trim().is_empty() {
            for rule in &active {
                if has_pragma(raw, rule.name) {
                    carried.push(rule.name);
                }
            }
            continue;
        }
        for rule in &active {
            if !rule.patterns.iter().any(|p| code.contains(p)) {
                continue;
            }
            if has_pragma(raw, rule.name) || carried.contains(&rule.name) {
                continue;
            }
            findings.push(LintFinding {
                file: rel_path.to_string(),
                line: i + 1,
                rule: rule.name,
                excerpt: raw.trim().to_string(),
            });
        }
        carried.clear();
    }
    findings
}

/// Lints every workspace source file under `root`.
pub fn lint_workspace(root: &Path) -> Vec<LintFinding> {
    let rules = default_rules();
    let mut findings = Vec::new();
    for path in crate::workspace_sources(root) {
        let rel = crate::rel(root, &path);
        let Ok(source) = std::fs::read_to_string(&path) else {
            continue;
        };
        findings.extend(lint_source(&rel, &source, &rules));
    }
    findings
}
