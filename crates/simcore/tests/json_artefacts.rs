//! The committed JSON artefacts under `results/` against the one JSON
//! reader and writer: each parses, re-renders to its exact bytes, and every
//! strict prefix or trailing addition is an `Err`, never a panic.

use std::path::PathBuf;

use phoenix_simcore::json::Json;

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// `(file name, contents)` of every committed `results/*.json`. The
/// Chrome-trace exports (`*.trace.json`) are not committed; the export's
/// own tests pin their bytes.
fn artefacts() -> Vec<(String, String)> {
    let mut files: Vec<(String, String)> = std::fs::read_dir(results_dir())
        .expect("results/ is readable")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "json"))
        .filter_map(|path| {
            let name = path.file_name()?.to_str()?.to_string();
            let text = std::fs::read_to_string(&path).expect("artefact is UTF-8");
            (!name.ends_with(".trace.json")).then_some((name, text))
        })
        .collect();
    files.sort();
    files
}

#[test]
fn every_artefact_re_renders_to_its_exact_bytes() {
    let files = artefacts();
    let names: Vec<&str> = files.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        names,
        [
            "BENCH_slo.json",
            "BENCH_slo_quick.json",
            "BENCH_standby.json",
            "BENCH_standby_quick.json",
            "analyze_report.json",
        ]
    );
    for (name, text) in &files {
        let doc = Json::parse(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let rendered = if name.starts_with("BENCH_") {
            doc.compact() + "\n"
        } else {
            doc.pretty()
        };
        assert!(rendered == *text, "{name} does not re-render to its bytes");
    }
}

#[test]
fn every_strict_prefix_and_every_trailing_addition_is_an_error() {
    for (name, text) in artefacts() {
        // The trailing newline is whitespace, so the cut starts before it.
        let doc = text.trim_end();
        for cut in (0..doc.len()).filter(|&i| doc.is_char_boundary(i)) {
            assert!(
                Json::parse(&doc[..cut]).is_err(),
                "{name}: the first {cut} bytes parse"
            );
        }
        for tail in ["x", "0", "{}", "]", ",", "\"\"", "\n}"] {
            let err = Json::parse(&format!("{text}{tail}")).expect_err(tail);
            assert_eq!(
                err.what, "trailing bytes after the value",
                "{name} + {tail:?}"
            );
        }
    }
}
