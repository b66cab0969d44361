//! The `phoenix-analyze` gate binary.
//!
//! ```text
//! cargo run -q -p phoenix-analyze            # the gate: every pass
//! cargo run -q -p phoenix-analyze -- --report results/analyze_report.json
//! ```
//!
//! Passes: determinism lints, protocol conformance (dead protocol edges
//! included) and recovery-path reachability over one load of the
//! workspace, then the line count ([`loc`]: shipping lines per crate,
//! the workspace and `servers/src/rs.rs`, one `<name> <n>` line each, and
//! the recovery markers), then the least-authority audit. Exit status 0 iff no
//! unsuppressed finding of any kind, 1 on findings, 2 if the gate could
//! not do its job (a bad flag, a source file it cannot read, a report it
//! cannot write); `ci.sh` treats a nonzero exit as a hard failure.
//! `--report PATH` additionally writes the deterministic JSON report
//! (sorted keys, no timestamps — safe to commit and diff).

use phoenix_analyze::{audit, conformance, lint, load, loc, reach, report, workspace_root};

fn main() {
    let mut report_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--report" => match args.next() {
                Some(p) if !p.starts_with("--") => report_path = Some(p),
                _ => {
                    eprintln!("--report requires a path argument");
                    std::process::exit(2);
                }
            },
            bad => {
                eprintln!("unknown flag {bad}; flags: --report PATH");
                std::process::exit(2);
            }
        }
    }

    let root = workspace_root();
    let loaded = load(&root).and_then(|files| Ok((files, loc::count(&root)?)));
    let (files, lines) = loaded.unwrap_or_else(|e| {
        eprintln!("cannot read source file {e}");
        std::process::exit(2);
    });

    let findings = lint::lint_workspace(&files);
    let conf = conformance::analyze(&files, conformance::PROTO_FILES);
    println!(
        "determinism lints: {} finding(s), {} dead protocol edge(s), {} glob warning(s)",
        findings.len(),
        conf.dead_edges.len(),
        conf.glob_warnings.len()
    );
    for f in &findings {
        println!("  {f}");
    }
    for e in &conf.dead_edges {
        println!("  {e}");
    }
    for g in &conf.glob_warnings {
        println!("  WARNING: {g}");
    }
    let mut failures = findings.len() + conf.dead_edges.len();

    println!(
        "protocol conformance: {} finding(s) across {} kind(s), {} field(s), {} suppressed",
        conf.findings.len(),
        conf.kinds.len(),
        conf.kinds.iter().map(|k| k.fields.len()).sum::<usize>(),
        conf.suppressed.len()
    );
    for f in &conf.findings {
        println!("  {f}");
    }
    failures += conf.findings.len();

    let reached = reach::analyze(&files, &reach::crate_dep_closure(&root));
    println!(
        "recovery-path reachability: {} finding(s), {}/{} function(s) reachable from \
         {} root(s), {} suppressed",
        reached.findings.len(),
        reached.reachable,
        reached.functions,
        reached.roots.len(),
        reached.suppressed.len()
    );
    for f in &reached.findings {
        println!("  {f}");
    }
    failures += reached.findings.len();

    println!("shipping lines (up to a column-0 #[cfg(test)]; no blanks, no comment lines):");
    for (krate, n) in lines.crates() {
        println!("{krate} {n}");
    }
    println!("workspace {}", lines.crates().values().sum::<usize>());
    // RS's own file, counted the same way: ROADMAP items state their exits in it.
    let rs = lines.shipping.get("crates/servers/src/rs.rs");
    println!("servers/src/rs.rs {}", rs.unwrap_or(&0));
    let (found, units) = (lines.findings.len(), lines.units.len());
    println!("recovery markers: {found} finding(s), {units} unit(s)");
    for f in &lines.findings {
        println!("  {f}");
    }
    failures += lines.findings.len();

    if let Some(path) = &report_path {
        let doc = report::build(&findings, &conf, &reached, &lines);
        let out = root.join(path);
        if let Some(dir) = out.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        match std::fs::write(&out, doc.pretty()) {
            Ok(()) => println!("report written to {path}"),
            Err(e) => {
                eprintln!("failed to write report {path}: {e}");
                std::process::exit(2);
            }
        }
    }

    let outcome = audit::run_audit(audit::AUDIT_SEED, Vec::new());
    println!(
        "least-authority audit: {} violation(s), {} justified wildcard(s) \
         across {} audited component(s)",
        outcome.violations.len(),
        outcome.justified.len(),
        outcome.snapshot.scope.len()
    );
    for v in &outcome.violations {
        println!("  VIOLATION: {v}");
    }
    failures += outcome.violations.len();

    if failures > 0 {
        eprintln!("phoenix-analyze: {failures} finding(s)");
        std::process::exit(1);
    }
    println!("phoenix-analyze: clean");
}
