//! `phoenix-analyze`: the repo's static-analysis and conformance gate.
//!
//! Two concerns, both run by the `phoenix-analyze` binary and gated in
//! `ci.sh`:
//!
//! 1. **Source passes** over one load of the workspace ([`load`]: every
//!    file read and parsed once by [`ast`], the front end all three
//!    share) — determinism lints ([`lint`]: wall-clock reads,
//!    hash-ordered collections, ad-hoc RNGs, host threads, layer
//!    purity), protocol conformance ([`conformance`]: the rows of
//!    the `protocol!` tables, send/handle coverage, and the dead edges —
//!    the kinds its usage table has no row for) and recovery-path
//!    reachability ([`reach`]: no panic site reachable from a recovery
//!    root).
//!
//! 2. **Least-authority audit** ([`audit`]) — runs the deterministic
//!    authority workload from `phoenix::audit` and diffs each
//!    component's declared [`phoenix_kernel::Privileges`] against the
//!    authority it actually exercised. Grants held but never used are
//!    POLA violations (§4 of the paper); wildcard IPC filters must carry
//!    an explicit justification.

pub mod ast;
pub mod audit;
pub mod conformance;
pub mod lint;
pub mod loc;
pub mod proto_model;
pub mod reach;
pub mod report;

use std::path::{Path, PathBuf};

/// Workspace root, resolved from this crate's manifest directory.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/analyze has a workspace root two levels up")
        .to_path_buf()
}

/// One source file of the workspace, read and parsed once; every pass
/// borrows it.
pub struct Source {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    pub text: String,
    pub ast: ast::FileAst,
}

impl Source {
    pub fn new(rel: impl Into<String>, text: impl Into<String>) -> Source {
        let text = text.into();
        Source {
            rel: rel.into(),
            ast: ast::parse_file(&text),
            text,
        }
    }

    /// The crate directory name of a shipping file (`crates/<name>/src/..`);
    /// `None` for integration tests and the umbrella crate, which only
    /// the reference-counting pass reads (a kind exercised only by a test
    /// is not dead; test code may panic and hash freely).
    pub fn krate(&self) -> Option<&str> {
        let (krate, rest) = self.rel.strip_prefix("crates/")?.split_once('/')?;
        rest.starts_with("src/").then_some(krate)
    }
}

/// Reads and parses every `.rs` file the gate looks at, in path order:
/// `crates/*/src` (except this crate's, whose sources quote the very
/// patterns it scans for), every crate's `tests`, and the umbrella
/// crate's `src` and `tests`. A file that cannot be read is an error
/// naming it: the gate must not pass over what it could not see.
pub fn load(root: &Path) -> std::io::Result<Vec<Source>> {
    let mut paths = Vec::new();
    collect_rs(&root.join("tests"), &mut paths);
    collect_rs(&root.join("src"), &mut paths);
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for dir in entries.filter_map(|e| e.ok().map(|e| e.path())) {
            if dir.file_name().is_some_and(|n| n != "analyze") {
                collect_rs(&dir.join("src"), &mut paths);
            }
            collect_rs(&dir.join("tests"), &mut paths);
        }
    }
    let read = read(root, paths)?.into_iter();
    Ok(read.map(|(rel, text)| Source::new(rel, text)).collect())
}

/// `(workspace-relative path, text)` of every file of `paths`, in path
/// order; a file that cannot be read is an error naming it.
fn read(root: &Path, mut paths: Vec<PathBuf>) -> std::io::Result<Vec<(String, String)>> {
    paths.sort();
    let read = |path: &PathBuf| {
        let rel = rel(root, path);
        match std::fs::read_to_string(path) {
            Ok(text) => Ok((rel, text)),
            Err(e) => Err(std::io::Error::new(e.kind(), format!("{rel}: {e}"))),
        }
    };
    paths.iter().map(read).collect()
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.filter_map(|e| e.ok()) {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Path relative to the workspace root, with `/` separators, for stable
/// report output.
fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}
