//! Recovery-path reachability: a function-granular call graph rooted at
//! `// analyze:recovery-root` annotations, transitively flagging panic
//! sites (`.unwrap()`, `.expect(..)`, `panic!`, `unreachable!`, `todo!`,
//! `unimplemented!`) in *any* crate reachable from a root.
//!
//! This replaced the path-listed `unwrap-recovery` rule, whose hand-kept
//! file list could not see a panic two calls deep in a helper living
//! outside the listed files (e.g. in `simcore` or the kernel). Only the
//! rule's pragma spelling survives, as a second way to suppress a site.
//!
//! ## Call resolution (documented approximation)
//!
//! No type inference happens; edges are resolved by name with these
//! rules, each an over-approximation in the sound direction (more edges,
//! never fewer, except where noted):
//!
//! - `Type::method(..)` — if `Type` is a workspace type (an `impl`
//!   block exists), edge to every `method` in impls of that type;
//!   `Self::method(..)` resolves against the caller's own impl type.
//!   If `Type` is a type parameter in scope (`V::decode(..)` inside
//!   `impl<V: Volume>`), the implementor is unknown: edge to every
//!   workspace impl method of that name, as for `.method(..)`.
//!   Unknown qualifiers (std, external) contribute no edge.
//! - `module::func(..)` — if the qualifier names a workspace file stem
//!   or inline module, edge to free functions of that name there.
//! - `func(..)` — free call: edges to same-file free functions first,
//!   else every workspace free function of that name.
//! - `.method(..)` — receiver type unknown: edge to *every* workspace
//!   impl method of that name (this is what catches a panic behind a
//!   `dyn` dispatch or a helper method), restricted to crates the
//!   caller's crate can actually depend on (Cargo.toml closure).
//! - A turbofish between the name and its `(` is skipped in every form
//!   above: `register::<PrinterPort>(..)` is the call `register(..)`.
//!
//! `#[cfg(test)]` items never join the graph, the `bench` and `analyze`
//! crates are excluded entirely (host-side tooling, not sim code), and
//! a panic site is suppressed by `// analyze:allow(panic-reach): why`
//! on or above its line — `analyze:allow(unwrap-recovery)` is honored
//! too for `.unwrap()`/`.expect(` sites, the spelling the sources
//! already carry.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::path::Path;

use crate::ast::{self, TokenKind};
use crate::Source;

/// One panic site reachable from a recovery root.
#[derive(Clone, Debug)]
pub struct ReachFinding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the panic site.
    pub line: usize,
    /// What panics there: `unwrap`, `expect`, `panic!`, ...
    pub what: String,
    /// Function containing the site, as `File::fn` display.
    pub in_fn: String,
    /// Shortest root→site call path, ` -> `-joined fn displays.
    pub path: Vec<String>,
}

impl fmt::Display for ReachFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [panic-reach] {} reachable from recovery root via {}",
            self.file,
            self.line,
            self.what,
            self.path.join(" -> ")
        )
    }
}

/// A suppressed site, kept for the report.
#[derive(Clone, Debug)]
pub struct SuppressedSite {
    pub file: String,
    pub line: usize,
    pub what: String,
    pub in_fn: String,
}

/// Reachability pass outcome.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    pub findings: Vec<ReachFinding>,
    pub suppressed: Vec<SuppressedSite>,
    /// Root functions, as `file::fn` displays, sorted.
    pub roots: Vec<String>,
    /// Number of functions reachable from any root (incl. roots).
    pub reachable: usize,
    /// Total functions in the graph.
    pub functions: usize,
}

#[derive(Clone, Debug)]
enum Callee {
    /// `Type::name(` or `Self::name(`.
    Typed(String, String),
    /// `module::name(` where module is a path qualifier.
    Scoped(String, String),
    /// Bare `name(`.
    Free(String),
    /// `.name(`.
    Method(String),
}

#[derive(Clone, Debug)]
struct PanicSite {
    line: usize,
    what: String,
}

struct FnNode {
    /// Workspace-relative file.
    file: String,
    /// Crate directory name (`servers`, `simcore`, ...).
    krate: String,
    name: String,
    impl_type: Option<String>,
    type_params: Vec<String>,
    line: usize,
    root: bool,
    calls: Vec<Callee>,
    panics: Vec<PanicSite>,
}

impl FnNode {
    fn display(&self) -> String {
        let stem = self
            .file
            .rsplit('/')
            .next()
            .unwrap_or(&self.file)
            .trim_end_matches(".rs");
        match &self.impl_type {
            Some(t) => format!("{stem}::{t}::{}", self.name),
            None => format!("{stem}::{}", self.name),
        }
    }
}

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];
const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "match", "return", "loop", "in", "as", "move", "await", "unsafe",
    "let", "fn", "break", "continue",
];

/// Index of the token after an optional turbofish (`::<..>`) starting at
/// `at`, so that `name::<T>(..)` is seen as the call `name(..)`.
fn after_turbofish(tokens: &[ast::Token], at: usize) -> usize {
    let kind = |i: usize| tokens.get(i).map(|t| &t.kind);
    if !matches!(kind(at), Some(TokenKind::PathSep))
        || !matches!(kind(at + 1), Some(TokenKind::Punct('<')))
    {
        return at;
    }
    let mut depth = 0usize;
    for (i, token) in tokens.iter().enumerate().skip(at + 1) {
        match token.kind {
            TokenKind::Punct('<') => depth += 1,
            // The `>` of a `->` inside the type list closes nothing.
            TokenKind::Punct('>') if !matches!(kind(i - 1), Some(TokenKind::Punct('-'))) => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
    }
    at
}

/// Extracts call sites and panic sites from a function body.
fn scan_body(tokens: &[ast::Token], body: std::ops::Range<usize>) -> (Vec<Callee>, Vec<PanicSite>) {
    let mut calls = Vec::new();
    let mut panics = Vec::new();
    let mut i = body.start;
    while i < body.end {
        let TokenKind::Ident(name) = &tokens[i].kind else {
            i += 1;
            continue;
        };
        let next = tokens.get(after_turbofish(tokens, i + 1)).map(|t| &t.kind);
        // Macro invocation `name!(..)` / `name![..]` / `name!{..}`.
        if matches!(next, Some(TokenKind::Bang))
            && matches!(tokens.get(i + 2).map(|t| &t.kind), Some(TokenKind::Open(_)))
        {
            if PANIC_MACROS.contains(&name.as_str()) {
                panics.push(PanicSite {
                    line: tokens[i].line,
                    what: format!("{name}!"),
                });
            }
            i += 1;
            continue;
        }
        // Call `name(` with context from the previous token.
        if matches!(next, Some(TokenKind::Open('('))) {
            let prev = (i > body.start).then(|| &tokens[i - 1].kind);
            let is_method = matches!(prev, Some(TokenKind::Dot));
            if is_method {
                if PANIC_METHODS.contains(&name.as_str()) {
                    panics.push(PanicSite {
                        line: tokens[i].line,
                        what: format!(".{name}()"),
                    });
                } else {
                    calls.push(Callee::Method(name.clone()));
                }
            } else if matches!(prev, Some(TokenKind::PathSep)) {
                if let Some(TokenKind::Ident(q)) =
                    (i >= body.start + 2).then(|| &tokens[i - 2].kind)
                {
                    let starts_upper = q.chars().next().is_some_and(|c| c.is_ascii_uppercase());
                    let callee_lower = name.chars().next().is_some_and(|c| c.is_ascii_lowercase());
                    if callee_lower {
                        if starts_upper || q == "Self" {
                            calls.push(Callee::Typed(q.clone(), name.clone()));
                        } else {
                            calls.push(Callee::Scoped(q.clone(), name.clone()));
                        }
                    }
                    // `Enum::Variant(..)` and `Type::CONST` are not calls.
                }
            } else if name.chars().next().is_some_and(|c| c.is_ascii_lowercase())
                && !KEYWORDS.contains(&name.as_str())
            {
                calls.push(Callee::Free(name.clone()));
            }
        }
        i += 1;
    }
    (calls, panics)
}

/// Crate-name → dependency closure (crate directory names), parsed from
/// each crate's `Cargo.toml`. A caller may only have edges into crates
/// it (transitively) depends on, which keeps name-based method
/// resolution from inventing edges the compiler would reject. Test code
/// never joins the graph, so `[dev-dependencies]` grant no edges.
pub fn crate_dep_closure(root: &Path) -> BTreeMap<String, BTreeSet<String>> {
    // package name -> dir name, and dir name -> direct dep package names
    let mut pkg_to_dir: BTreeMap<String, String> = BTreeMap::new();
    let mut direct: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let Ok(entries) = std::fs::read_dir(root.join("crates")) else {
        return BTreeMap::new();
    };
    let mut dirs: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    for dir in &dirs {
        let Ok(toml) = std::fs::read_to_string(dir.join("Cargo.toml")) else {
            continue;
        };
        let dirname = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let mut in_deps = false;
        let mut deps = Vec::new();
        for line in toml.lines() {
            let t = line.trim();
            if t.starts_with('[') {
                in_deps = t == "[dependencies]";
                continue;
            }
            if let Some(name) = t.strip_prefix("name = ") {
                if !in_deps {
                    pkg_to_dir.insert(name.trim_matches('"').to_string(), dirname.clone());
                }
                continue;
            }
            if in_deps && t.starts_with("phoenix") {
                if let Some(dep) = t.split(['=', ' ']).next() {
                    deps.push(dep.trim().to_string());
                }
            }
        }
        direct.insert(dirname, deps);
    }
    // Transitive closure over directory names.
    let mut closure: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for dir in direct.keys() {
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut stack = vec![dir.clone()];
        while let Some(d) = stack.pop() {
            if !seen.insert(d.clone()) {
                continue;
            }
            for dep_pkg in direct.get(&d).into_iter().flatten() {
                if let Some(dep_dir) = pkg_to_dir.get(dep_pkg) {
                    stack.push(dep_dir.clone());
                }
            }
        }
        closure.insert(dir.clone(), seen);
    }
    closure
}

/// Crates that never join the call graph: host-side tooling whose code
/// neither runs inside the simulator nor is reachable from it.
const EXCLUDED_CRATES: &[&str] = &["analyze", "bench"];

/// Runs the reachability pass over the shipping files of the loaded
/// workspace. An empty `closure` entry for a crate means it sees only
/// itself.
pub fn analyze(files: &[Source], closure: &BTreeMap<String, BTreeSet<String>>) -> Outcome {
    // One node per shipping function of every graph-eligible file.
    let mut nodes: Vec<FnNode> = Vec::new();
    let mut sources: BTreeMap<&str, &str> = BTreeMap::new();
    let mut file_stem_of: BTreeMap<usize, String> = BTreeMap::new();
    for input in files {
        let Some(krate) = input.krate().filter(|k| !EXCLUDED_CRATES.contains(k)) else {
            continue;
        };
        let rel = &input.rel;
        for f in &input.ast.fns {
            if f.cfg_test {
                continue;
            }
            let (calls, panics) = scan_body(&input.ast.tokens, f.body.clone());
            let idx = nodes.len();
            nodes.push(FnNode {
                file: rel.clone(),
                krate: krate.to_string(),
                name: f.name.clone(),
                impl_type: f.impl_type.clone(),
                type_params: f.type_params.clone(),
                line: f.line,
                root: f.recovery_root,
                calls,
                panics,
            });
            let stem = rel
                .rsplit('/')
                .next()
                .unwrap_or("")
                .trim_end_matches(".rs")
                .to_string();
            file_stem_of.insert(idx, stem);
        }
        sources.insert(rel, &input.text);
    }

    // Indices for resolution.
    let mut by_type_method: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
    let mut by_method: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    let mut free_by_file_name: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
    let mut free_by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    let mut free_by_stem_name: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
    for (i, n) in nodes.iter().enumerate() {
        match &n.impl_type {
            Some(t) => {
                by_type_method
                    .entry((t.clone(), n.name.clone()))
                    .or_default()
                    .push(i);
                by_method.entry(n.name.clone()).or_default().push(i);
            }
            None => {
                free_by_file_name
                    .entry((n.file.clone(), n.name.clone()))
                    .or_default()
                    .push(i);
                free_by_name.entry(n.name.clone()).or_default().push(i);
                free_by_stem_name
                    .entry((file_stem_of[&i].clone(), n.name.clone()))
                    .or_default()
                    .push(i);
            }
        }
    }

    let visible = |caller: usize, callee: usize| -> bool {
        let ck = &nodes[caller].krate;
        let tk = &nodes[callee].krate;
        ck == tk || closure.get(ck).is_some_and(|deps| deps.contains(tk))
    };

    // Edges, resolved per the documented rules.
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for i in 0..nodes.len() {
        let mut out: BTreeSet<usize> = BTreeSet::new();
        for call in &nodes[i].calls {
            match call {
                Callee::Typed(ty, m) => {
                    let ty = if ty == "Self" {
                        nodes[i].impl_type.clone().unwrap_or_default()
                    } else {
                        ty.clone()
                    };
                    let callees = if nodes[i].type_params.contains(&ty) {
                        by_method.get(m)
                    } else {
                        by_type_method.get(&(ty, m.clone()))
                    };
                    if let Some(c) = callees {
                        out.extend(c.iter().copied().filter(|&j| visible(i, j)));
                    }
                }
                Callee::Scoped(q, f) => {
                    if let Some(c) = free_by_stem_name.get(&(q.clone(), f.clone())) {
                        out.extend(c.iter().copied().filter(|&j| visible(i, j)));
                    }
                }
                Callee::Free(f) => {
                    match free_by_file_name.get(&(nodes[i].file.clone(), f.clone())) {
                        Some(c) => out.extend(c.iter().copied()),
                        None => {
                            if let Some(c) = free_by_name.get(f) {
                                out.extend(c.iter().copied().filter(|&j| visible(i, j)));
                            }
                        }
                    }
                }
                Callee::Method(m) => {
                    if let Some(c) = by_method.get(m) {
                        out.extend(c.iter().copied().filter(|&j| visible(i, j)));
                    }
                }
            }
        }
        edges[i] = out.into_iter().collect();
    }

    // BFS from roots (in index order, so parent choice — and therefore
    // the reported shortest path — is deterministic).
    let roots: Vec<usize> = (0..nodes.len()).filter(|&i| nodes[i].root).collect();
    let mut parent: Vec<Option<usize>> = vec![None; nodes.len()];
    let mut seen: Vec<bool> = vec![false; nodes.len()];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for &r in &roots {
        if !seen[r] {
            seen[r] = true;
            queue.push_back(r);
        }
    }
    while let Some(u) = queue.pop_front() {
        for &v in &edges[u] {
            if !seen[v] {
                seen[v] = true;
                parent[v] = Some(u);
                queue.push_back(v);
            }
        }
    }

    let path_to = |mut i: usize| -> Vec<String> {
        let mut out = vec![nodes[i].display()];
        while let Some(p) = parent[i] {
            out.push(nodes[p].display());
            i = p;
        }
        out.reverse();
        out
    };

    let mut findings = Vec::new();
    let mut suppressed = Vec::new();
    for (i, n) in nodes.iter().enumerate() {
        if !seen[i] {
            continue;
        }
        for p in &n.panics {
            let src = sources.get(n.file.as_str()).copied().unwrap_or("");
            let allowed = ast::allowed_at(src, p.line, "panic-reach")
                || (p.what.starts_with('.') && ast::allowed_at(src, p.line, "unwrap-recovery"));
            if allowed {
                suppressed.push(SuppressedSite {
                    file: n.file.clone(),
                    line: p.line,
                    what: p.what.clone(),
                    in_fn: n.display(),
                });
            } else {
                findings.push(ReachFinding {
                    file: n.file.clone(),
                    line: p.line,
                    what: p.what.clone(),
                    in_fn: n.display(),
                    path: path_to(i),
                });
            }
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line, &a.what).cmp(&(&b.file, b.line, &b.what)));
    suppressed.sort_by(|a, b| (&a.file, a.line, &a.what).cmp(&(&b.file, b.line, &b.what)));

    Outcome {
        findings,
        suppressed,
        roots: roots
            .iter()
            .map(|&r| format!("{}:{}:{}", nodes[r].file, nodes[r].line, nodes[r].name))
            .collect(),
        reachable: seen.iter().filter(|&&s| s).count(),
        functions: nodes.len(),
    }
}
