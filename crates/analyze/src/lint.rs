//! Determinism lints: constructs that break the simulator's
//! same-seed-byte-identical invariant, or that put a layer's concern in
//! the wrong file.
//!
//! A rule's pattern is a short piece of Rust (`"SimRng::new("`,
//! `".metrics()"`, `"HashMap"`). It is tokenized by [`ast::tokenize`] like
//! the sources are, and a finding is that run of tokens occurring, token
//! for token, in a file's shipping tokens — the ones
//! [`FileAst::in_test`](crate::ast::FileAst::in_test) does not place under
//! `#[cfg(test)]`. So an identifier matches whole (`MyHashMapper` is not
//! `HashMap`), a string literal or a comment is never a finding, and a
//! path split over several lines is one, reported at its first token's
//! line. Aliased imports stay a blind spot: the gate stops someone
//! reaching for `std::time` or a `HashMap` out of habit.
//!
//! ## Suppression
//!
//! A finding is suppressed by a pragma on the same line, or in the
//! comment block directly above the offending line (the reason may wrap
//! over several comment lines) — [`ast::allowed_at`], as for every pass:
//!
//! ```text
//! // analyze:allow(rule-name): why this use is sound
//! ```

use std::collections::BTreeSet;
use std::fmt;

use crate::ast;
use crate::Source;

/// One lint rule: a name (used in pragmas), the token-run patterns that
/// trigger it, path scoping, and the rationale shown in reports.
pub struct Rule {
    /// Pragma name, e.g. `wall-clock`.
    pub name: &'static str,
    /// An occurrence of any of these, as tokens, in shipping code is a
    /// finding.
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
        Rule {
            name: "raw-param",
            patterns: &[".param(", ".with_param(", ".params["],
            only_in: &[],
            // The message type itself, and the macro that generates every
            // kind's typed view of it.
            exempt: &["crates/kernel/src/types.rs", "crates/kernel/src/layout.rs"],
            rationale: "a message slot is read and written through its kind's protocol! row \
                        (Layout { .. }.into_message(), Layout::from_message): the row names \
                        the field and from_message checks the kind; a slot index by hand is \
                        a layout no row states and a kind nobody checked",
        },
        Rule {
            name: "raw-mtype",
            // `x.mtype == K`, `x.mtype != K`, `match x.mtype {`, and a
            // tuple scrutinee or argument list `(x.mtype, ..)`.
            patterns: &[".mtype ==", ".mtype !=", ".mtype {", ".mtype ,"],
            only_in: &[],
            // The generated `decode` is the one match on a kind number.
            exempt: &["crates/kernel/src/layout.rs"],
            rationale: "a receiver dispatches on its table's decoded enum (match \
                        table::Msg::decode(&msg) { Some(table::Msg::KIND(fields)) => .. }): \
                        the compiler checks that an owning receiver lists every kind and the \
                        arm gets the fields without decoding again; a kind number compared by \
                        hand is a dispatch the compiler cannot check",
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

fn path_applies(rule: &Rule, rel_path: &str) -> bool {
    if rule.exempt.iter().any(|p| rel_path.starts_with(p)) {
        return false;
    }
    rule.only_in.is_empty() || rule.only_in.iter().any(|p| rel_path.starts_with(p))
}

/// Lints one source file (given as text). `rel_path` is the
/// workspace-relative path used for rule scoping and reporting.
pub fn lint_source(rel_path: &str, source: &str, rules: &[Rule]) -> Vec<LintFinding> {
    lint_file(&Source::new(rel_path, source), rules)
}

fn lint_file(file: &Source, rules: &[Rule]) -> Vec<LintFinding> {
    let ast = &file.ast;
    // `(line, rule index)`: one finding per rule and line, in line order.
    let mut hits: BTreeSet<(usize, usize)> = BTreeSet::new();
    for (r, rule) in rules.iter().enumerate() {
        if !path_applies(rule, &file.rel) {
            continue;
        }
        for pattern in rule.patterns {
            let run = ast::tokenize(pattern);
            for (at, window) in ast.tokens.windows(run.len()).enumerate() {
                let line = window[0].line;
                if window.iter().zip(&run).all(|(t, p)| t.kind == p.kind)
                    && !ast.in_test[at..at + run.len()].contains(&true)
                    && !ast::allowed_at(&file.text, line, rule.name)
                {
                    hits.insert((line, r));
                }
            }
        }
    }
    let lines: Vec<&str> = file.text.lines().collect();
    hits.into_iter()
        .map(|(line, r)| LintFinding {
            file: file.rel.clone(),
            line,
            rule: rules[r].name,
            excerpt: lines[line - 1].trim().to_string(),
        })
        .collect()
}

/// Lints every shipping source file of the loaded workspace.
pub fn lint_workspace(files: &[Source]) -> Vec<LintFinding> {
    let rules = default_rules();
    files
        .iter()
        .filter(|f| f.krate().is_some())
        .flat_map(|f| lint_file(f, &rules))
        .collect()
}
