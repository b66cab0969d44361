//! The line counter on fixtures: what a shipping line is, how far a
//! `// analyze:recovery` marker reaches, and which markers are findings;
//! then the real workspace, where every Fig. 9 file must be counted.

use phoenix_analyze::loc::{count, count_file, Counted, FIG9};
use phoenix_analyze::workspace_root;

/// Shipping lines, and `(marker line, unit's first line, lines)` of every
/// unit, of one fixture; panics on a finding.
fn counted(src: &str) -> (usize, Vec<(usize, String, usize)>) {
    let out = count_of(src);
    assert!(out.findings.is_empty(), "{:?}", out.findings);
    let units = out.units.iter().map(|u| (u.line, u.what.clone(), u.lines));
    (out.shipping["f.rs"], units.collect())
}

fn count_of(src: &str) -> Counted {
    let mut out = Counted::default();
    count_file("f.rs", src, &mut out);
    out
}

/// The marker lines of every finding of one fixture.
fn findings(src: &str) -> Vec<usize> {
    count_of(src).findings.iter().map(|f| f.line).collect()
}

fn recovery(src: &str) -> usize {
    counted(src).1.iter().map(|u| u.2).sum()
}

// ------------------------------------------------------- shipping lines

#[test]
fn blank_and_comment_lines_excluded() {
    let src = "\n// comment\n/// doc\n//! inner doc\nfn f() {\n    let x = 1;\n}\n";
    assert_eq!(counted(src), (3, vec![]));
}

#[test]
fn test_modules_excluded() {
    let src = "\
fn shipped() {
    work();
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        assert!(true);
    }
}
";
    assert_eq!(counted(src).0, 3, "only the shipped function counts");
}

#[test]
fn a_column_0_cfg_test_cuts_the_rest_of_the_file_whatever_follows() {
    let src = "fn a() {}\n#[cfg(test)]\nfn gated() {}\nmod after {\n    fn b() {}\n}\n";
    assert_eq!(counted(src).0, 1);
}

#[test]
fn an_indented_cfg_test_item_still_counts() {
    // As in a struct with a test-only field: the cut is a line rule.
    let src = "struct S {\n    a: u8,\n    #[cfg(test)]\n    log: Vec<u8>,\n}\n";
    assert_eq!(counted(src).0, 5);
}

#[test]
fn attribute_lines_and_block_comment_interiors_count() {
    let src = "#[derive(Debug)]\nstruct S;\n/* one\n   two */\n#![allow(x)]\n";
    assert_eq!(counted(src).0, 5, "only lines starting with // are dropped");
}

// ------------------------------------------------------ marker extents

#[test]
fn an_item_marker_covers_the_item_and_its_attributes() {
    let src = "\
fn before() {}
/// Docs may sit between.
// analyze:recovery
/// Docs may sit between.
#[inline]
pub(crate) fn recover(x: u8) -> u8 {
    x + 1
}
fn after() {}
";
    let (total, units) = counted(src);
    assert_eq!(total, 6);
    assert_eq!(
        units,
        [(3, "pub(crate) fn recover(x: u8) -> u8 {".into(), 4)]
    );
}

#[test]
fn a_marker_on_an_impl_struct_or_const_covers_that_item() {
    let src = "\
// analyze:recovery
struct S {
    a: u8,
}
// analyze:recovery
impl S {
    fn f(&self) {}
}
// analyze:recovery
const K: S = S { a: 1 };
struct T;
";
    let lines: Vec<usize> = counted(src).1.iter().map(|u| u.2).collect();
    assert_eq!(lines, [3, 3, 1]);
}

#[test]
fn an_arm_marker_covers_one_arm_with_or_without_braces() {
    let src = "\
fn f(x: u8) -> u8 {
    match x {
        0 => 1,
        // analyze:recovery
        1 => {
            let y = 2;
            y + 1
        }
        // analyze:recovery
        2 if x > 1 => g(
            x,
        ),
        // analyze:recovery
        Some(S { a }) => match a {
            _ => 4,
        }
        // analyze:recovery
        _ => 3
    }
}
";
    let lines: Vec<usize> = counted(src).1.iter().map(|u| u.2).collect();
    assert_eq!(lines, [4, 3, 3, 1]);
}

#[test]
fn a_statement_marker_covers_one_statement() {
    let src = "\
fn f() {
    let a = 1;
    // analyze:recovery
    let b = S {
        a,
    };
    // analyze:recovery
    if let S { a } = b {
        g(a);
    } else if a > 2 {
        h();
    } else {
    }
    // analyze:recovery
    for S { a } in list {
        g(a);
    }
    done();
    // analyze:recovery
    a + 1
}
";
    let lines: Vec<usize> = counted(src).1.iter().map(|u| u.2).collect();
    assert_eq!(lines, [3, 6, 3, 1]);
}

#[test]
fn marker_lines_counted_as_recovery() {
    let src = "fn f() {\n    // analyze:recovery\n    reply();\n    other();\n}\n";
    assert_eq!(counted(src).0, 4);
    assert_eq!(recovery(src), 1);
}

#[test]
fn a_module_doc_marker_covers_the_whole_file() {
    let src = "\
//! A module.
//!
//! analyze:recovery

use x::y;

fn f() {}

#[cfg(test)]
mod tests {}
";
    assert_eq!(
        counted(src),
        (2, vec![(3, "//! analyze:recovery".into(), 2)])
    );
}

// ------------------------------------------------- what marks nothing

#[test]
fn a_recovery_root_marker_is_not_a_recovery_marker() {
    let src = "// analyze:recovery-root\nfn entry() {}\n";
    assert_eq!(recovery(src), 0);
}

#[test]
fn prose_that_mentions_the_marker_marks_nothing() {
    let src = "\
//! Lines marked `// analyze:recovery` count as recovery code.
/// Write // analyze:recovery above a unit.
// analyze:recovery explanation only
fn f() {
    x();
}
";
    assert_eq!(counted(src), (3, vec![]));
}

#[test]
fn comment_only_recovery_marker_not_counted() {
    let src = "fn f() {\n    // analyze:recovery\n    // explanation only\n    x();\n}\n";
    assert_eq!(counted(src), (3, vec![(2, "x();".into(), 1)]));
}

#[test]
fn a_marker_that_covers_no_unit_is_a_finding() {
    // Above a closing brace, above a blank line, at the end of the file.
    let src = "fn f() {\n    x();\n    // analyze:recovery\n}\n// analyze:recovery\n\nfn g() {}\n// analyze:recovery\n";
    assert_eq!(findings(src), [3, 5, 8]);
}

#[test]
fn a_marker_inside_a_marked_unit_or_below_the_first_item_is_a_finding() {
    let nested = "// analyze:recovery\nfn f() {\n    // analyze:recovery\n    x();\n}\n";
    assert_eq!(findings(nested), [3]);
    let late = "fn f() {}\n//! analyze:recovery\n";
    assert_eq!(findings(late), [2]);
    let under_module = "//! analyze:recovery\n// analyze:recovery\nfn f() {}\n";
    assert_eq!(findings(under_module), [2]);
}

// -------------------------------------------------------- the workspace

#[test]
fn the_workspace_has_no_marker_findings_and_counts_every_fig9_file() {
    let root = workspace_root();
    let lines = count(&root).expect("the workspace's sources are readable");
    assert!(lines.findings.is_empty(), "{:?}", lines.findings);
    for path in FIG9.split_whitespace().filter(|w| w.ends_with(".rs")) {
        assert!(lines.shipping.contains_key(path), "{path} is not counted");
    }
    let rows = lines.fig9();
    let total: usize = rows.iter().map(|r| r.1).sum();
    let crates: usize = lines.crates().values().sum();
    assert!(0 < total && total < crates);
    // Every unit in a Fig. 9 file is listed in its row.
    let listed: usize = rows.iter().map(|r| r.3.len()).sum();
    let in_fig9 = lines
        .units
        .iter()
        .filter(|u| FIG9.contains(&u.file))
        .count();
    assert_eq!(listed, in_fig9);
}
