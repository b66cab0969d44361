//! Executable line-of-code counting, in the spirit of the paper's
//! `sclc.pl` (§7.3): "Blank lines, comments, and definitions in header
//! files do not add to the code complexity, so these were omitted in the
//! counting process."
//!
//! Recovery-specific code is identified with in-source markers:
//!
//! * a line whose code ends with `// [recovery]` counts as one recovery
//!   line;
//! * `// [recovery:begin]` ... `// [recovery:end]` bracket whole recovery
//!   regions (every executable line inside counts).

use std::fs;
use std::path::Path;

/// Per-file counting result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LocCount {
    /// Executable (non-blank, non-comment, non-test) lines.
    pub total: usize,
    /// Of those, lines marked recovery-specific.
    pub recovery: usize,
}

impl std::ops::AddAssign for LocCount {
    fn add_assign(&mut self, rhs: Self) {
        self.total += rhs.total;
        self.recovery += rhs.recovery;
    }
}

fn is_comment_only(trimmed: &str) -> bool {
    trimmed.starts_with("//") || trimmed.starts_with("/*") || trimmed.starts_with('*')
}

/// Attribute-only lines (`#[derive(..)]`, `#![allow(..)]`) are metadata,
/// not executable code — `sclc.pl` would not count a C preprocessor
/// directive either.
fn is_attribute_only(trimmed: &str) -> bool {
    (trimmed.starts_with("#[") || trimmed.starts_with("#![")) && trimmed.ends_with(']')
}

/// Counts executable and recovery lines in Rust source text.
///
/// Test modules (`#[cfg(test)] mod ...`) are excluded, mirroring the
/// paper's exclusion of non-shipping code.
pub fn count_source(src: &str) -> LocCount {
    let mut out = LocCount::default();
    let mut in_recovery_region = false;
    let mut test_depth: Option<usize> = None; // brace depth at test-mod start
    let mut depth: usize = 0;
    let mut pending_cfg_test = false;

    for raw in src.lines() {
        let trimmed = raw.trim();
        let opens = raw.matches('{').count();
        let closes = raw.matches('}').count();

        if trimmed.contains("[recovery:begin]") {
            in_recovery_region = true;
            depth = depth + opens - closes.min(depth + opens);
            continue;
        }
        if trimmed.contains("[recovery:end]") {
            in_recovery_region = false;
            depth = depth + opens - closes.min(depth + opens);
            continue;
        }

        // Track #[cfg(test)] mod blocks by brace depth.
        if test_depth.is_none() {
            if trimmed.starts_with("#[cfg(test)]") {
                pending_cfg_test = true;
            } else if pending_cfg_test && trimmed.starts_with("mod ") {
                test_depth = Some(depth);
                pending_cfg_test = false;
            } else if !trimmed.is_empty() && !is_comment_only(trimmed) {
                pending_cfg_test = false;
            }
        }

        let inside_test = test_depth.is_some();
        let executable = !trimmed.is_empty()
            && !is_comment_only(trimmed)
            && !is_attribute_only(trimmed)
            && !inside_test;
        if executable {
            out.total += 1;
            let marked = trimmed.contains("// [recovery]");
            if marked || in_recovery_region {
                out.recovery += 1;
            }
        }

        // Update depth and leave test mode when its block closes.
        let new_depth = (depth + opens).saturating_sub(closes);
        if let Some(td) = test_depth {
            if closes > 0 && new_depth <= td {
                test_depth = None;
            }
        }
        depth = new_depth;
    }
    out
}

/// A Fig. 9 table row: component, where its code lives.
#[derive(Debug, Clone)]
pub struct Component {
    /// Display name (matching the paper's table rows).
    pub name: &'static str,
    /// Source files relative to the workspace root.
    pub paths: Vec<&'static str>,
}

/// The Fig. 9 component inventory mapped onto this code base.
pub fn fig9_components() -> Vec<Component> {
    vec![
        Component {
            name: "Reinc. Server",
            paths: vec![
                "crates/servers/src/rs.rs",
                "crates/servers/src/rs/decide.rs",
                "crates/servers/src/policy.rs",
            ],
        },
        Component {
            name: "Data Store",
            paths: vec!["crates/servers/src/ds.rs"],
        },
        Component {
            name: "VFS Server",
            paths: vec!["crates/servers/src/vfs.rs"],
        },
        Component {
            name: "File Server",
            // One server, two on-disk formats (Fig. 5's MFS and FAT).
            paths: vec![
                "crates/servers/src/mfs.rs",
                "crates/servers/src/fsfmt.rs",
                "crates/servers/src/fsfat.rs",
            ],
        },
        Component {
            name: "SATA Driver",
            paths: vec!["crates/drivers/src/block.rs"],
        },
        Component {
            name: "RAM Disk",
            paths: vec![], // counted within block.rs; see note in the bin
        },
        Component {
            name: "Network Server",
            paths: vec![
                "crates/servers/src/inet.rs",
                "crates/servers/src/netproto.rs",
                "crates/servers/src/peer.rs",
            ],
        },
        Component {
            name: "RTL8139 Driver",
            paths: vec!["crates/drivers/src/net.rs"],
        },
        Component {
            name: "DP8390 Driver",
            paths: vec![], // shares net.rs with the RTL8139; see note
        },
        Component {
            name: "Driver Library",
            paths: vec![
                "crates/drivers/src/libdriver.rs",
                "crates/drivers/src/routines.rs",
                "crates/drivers/src/proto.rs",
            ],
        },
        Component {
            name: "Server Library",
            // The crash-only shell and the state gate under it, which is
            // the whole checkpoint client.
            paths: vec!["crates/servers/src/libserver.rs", "crates/ckpt/src/gate.rs"],
        },
        Component {
            name: "Process Manager",
            paths: vec!["crates/servers/src/pm.rs"],
        },
        Component {
            name: "Microkernel",
            paths: vec![
                "crates/kernel/src/system.rs",
                "crates/kernel/src/memory.rs",
                "crates/kernel/src/platform.rs",
                "crates/kernel/src/privileges.rs",
                "crates/kernel/src/process.rs",
                "crates/kernel/src/types.rs",
            ],
        },
    ]
}

/// Counts a component from the workspace root.
pub fn count_component(root: &Path, c: &Component) -> LocCount {
    let mut out = LocCount::default();
    for p in &c.paths {
        if let Ok(src) = fs::read_to_string(root.join(p)) {
            out += count_source(&src);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blank_and_comment_lines_excluded() {
        let src = "\n// comment\n/// doc\nfn f() {\n    let x = 1;\n}\n";
        let c = count_source(src);
        assert_eq!(c.total, 3);
        assert_eq!(c.recovery, 0);
    }

    #[test]
    fn marker_lines_counted_as_recovery() {
        let src = "fn f() {\n    reply(); // [recovery]\n    other();\n}\n";
        let c = count_source(src);
        assert_eq!(c.total, 4);
        assert_eq!(c.recovery, 1);
    }

    #[test]
    fn recovery_regions_counted() {
        let src = "\
fn f() {
    a();
    // [recovery:begin]
    b();
    c();
    // [recovery:end]
    d();
}
";
        let c = count_source(src);
        assert_eq!(c.total, 6);
        assert_eq!(c.recovery, 2);
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
        let c = count_source(src);
        assert_eq!(c.total, 3, "only the shipped function counts");
    }

    #[test]
    fn comment_only_recovery_marker_not_counted() {
        let src = "fn f() {\n    // [recovery] explanation only\n    x();\n}\n";
        let c = count_source(src);
        assert_eq!(c.recovery, 0, "pure comments never count as code");
        assert_eq!(c.total, 3);
    }
}
