//! Benchmark harness for the paper's evaluation: one `phoenix-bench`
//! binary over the [`SCENARIOS`] registry.
//!
//! ```text
//! phoenix-bench list                  # what exists
//! phoenix-bench <scenario> [--quick]  # run one; --quick is the CI size
//! ```
//!
//! A scenario is a function that drives `phoenix` / `phoenix-fleet` and
//! talks to one [`Report`]: what it prints is what lands in
//! `results/<scenario>[_quick].txt`, gate violations fold into the exit
//! code (0 clean, 1 gate failed, 2 usage), and nothing under `results/`
//! is touched by a run whose gates failed. `ci.sh` runs every scenario
//! `phoenix-bench list` names at `--quick` and ends on
//! `git diff --exit-code results/`, so the committed artefacts are always
//! what the code produces.

use std::fmt::Display;
use std::path::PathBuf;
use std::process::ExitCode;

use phoenix::Os;
pub use phoenix_analyze::workspace_root;
use phoenix_simcore::obs::RECOVERY_PHASES;
use phoenix_simcore::time::SimDuration;

mod scenarios;

pub use scenarios::SCENARIOS;

/// One registry entry.
pub struct Scenario {
    /// Name on the command line and stem of the `results/` artefacts.
    pub name: &'static str,
    /// What it tests and which subsystems are involved, in one line.
    pub blurb: &'static str,
    /// The scenario body.
    pub run: fn(&mut Report),
}

/// The sink every scenario reports into: echoes to stdout, accumulates
/// the artefact body and any extra files, and collects gate violations —
/// all of them, not just the first.
pub struct Report {
    scenario: &'static str,
    quick: bool,
    body: String,
    attachments: Vec<(String, String)>,
    failures: Vec<String>,
}

impl Report {
    /// An empty report for `scenario`.
    pub fn new(scenario: &'static str, quick: bool) -> Report {
        Report {
            scenario,
            quick,
            body: String::new(),
            attachments: Vec::new(),
            failures: Vec::new(),
        }
    }

    /// Whether this is the scaled-down (`--quick`) run.
    pub fn quick(&self) -> bool {
        self.quick
    }

    /// Prints `text` without recording it: banners and progress.
    pub fn note(&mut self, text: impl Display) {
        println!("{text}");
    }

    /// Prints `text` and records it as the next line of the artefact.
    pub fn line(&mut self, text: impl Display) {
        let text = text.to_string();
        println!("{text}");
        self.body.push_str(&text);
        self.body.push('\n');
    }

    /// Records a fixed-width table with a header rule.
    pub fn table(&mut self, headers: &[&str], rows: &[Vec<String>]) {
        for line in render_table(headers, rows) {
            self.line(line);
        }
    }

    /// Records headerless rows, cells separated by two spaces.
    pub fn rows(&mut self, rows: &[Vec<String>]) {
        for row in rows {
            self.line(row.join("  "));
        }
    }

    /// Queues `results/<stem>[_quick].<ext>` to be written next to the
    /// report (BENCH json, trace exports).
    pub fn attach(&mut self, stem: &str, ext: &str, data: String) {
        self.attachments.push((self.file_name(stem, ext), data));
    }

    /// Records `msg` as a gate violation unless `ok` holds.
    pub fn require(&mut self, ok: bool, msg: impl Into<String>) {
        if !ok {
            self.failures.push(msg.into());
        }
    }

    /// The determinism gate: two same-seed runs must fingerprint alike.
    pub fn require_same_digest(&mut self, run: &str, rerun: &str) {
        self.require(
            run == rerun,
            format!("same-seed digests differ: {run} vs {rerun}"),
        );
    }

    /// Reads back a committed `results/<stem>[_quick].<ext>`, if any: the
    /// baseline a regression gate compares against before [`finish`]
    /// replaces it.
    ///
    /// [`finish`]: Report::finish
    pub fn committed(&self, stem: &str, ext: &str) -> Option<String> {
        std::fs::read_to_string(results_dir().join(self.file_name(stem, ext))).ok()
    }

    fn file_name(&self, stem: &str, ext: &str) -> String {
        let suffix = if self.quick { "_quick" } else { "" };
        format!("{stem}{suffix}.{ext}")
    }

    /// Folds the gates into the exit code. A clean run writes the report
    /// and its attachments under `results/`; a failed one prints one
    /// `GATE FAILED:` line per violation and leaves `results/` alone.
    pub fn finish(mut self) -> ExitCode {
        if !self.failures.is_empty() {
            for f in &self.failures {
                eprintln!("GATE FAILED: {f}");
            }
            eprintln!("{}: results/ left untouched", self.scenario);
            return ExitCode::FAILURE;
        }
        let dir = results_dir();
        let report = (self.file_name(self.scenario, "txt"), self.body);
        self.attachments.insert(0, report);
        println!();
        for (name, data) in &self.attachments {
            let path = dir.join(name);
            if let Err(e) = std::fs::write(&path, data) {
                eprintln!("failed to write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!("wrote {}", path.display());
        }
        println!("{}: all gates passed", self.scenario);
        ExitCode::SUCCESS
    }
}

fn render_table(headers: &[&str], rows: &[Vec<String>]) -> Vec<String> {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &mut dyn Iterator<Item = &str>| {
        let mut s = String::new();
        for (c, w) in cells.zip(&widths) {
            s.push_str(&format!("{c:<w$}  "));
        }
        s.trim_end().to_string()
    };
    let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    let mut out = vec![
        line(&mut headers.iter().copied()),
        line(&mut rule.iter().map(String::as_str)),
    ];
    out.extend(rows.iter().map(|r| line(&mut r.iter().map(String::as_str))));
    out
}

/// Count / mean / p50 / p95 / max rows of the folded recovery-phase
/// histograms, one per phase that saw an episode.
fn phase_rows(os: &Os) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for (phase, name) in RECOVERY_PHASES {
        let Some(h) = os.metrics().log_histogram(name) else {
            continue;
        };
        let fmt = |d: Option<SimDuration>| d.map_or("-".to_string(), |d| d.to_string());
        rows.push(vec![
            phase.to_string(),
            h.count().to_string(),
            fmt(h.mean_duration()),
            fmt(h.quantile_duration(0.5)),
            fmt(h.quantile_duration(0.95)),
            fmt(h.quantile_duration(1.0)),
        ]);
    }
    rows
}

fn results_dir() -> PathBuf {
    workspace_root().join("results")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_pads_columns_to_the_widest_cell() {
        let rows = [
            vec!["1".to_string(), "2".to_string()],
            vec!["333".to_string(), "4".to_string()],
        ];
        assert_eq!(
            render_table(&["a", "bb"], &rows),
            ["a    bb", "---  --", "1    2", "333  4"]
        );
    }

    #[test]
    fn report_collects_only_violations() {
        let mut report = Report::new("t", true);
        report.require(true, "never recorded");
        assert!(report.failures.is_empty());
        report.require(false, "first");
        report.require(false, "second");
        assert_eq!(report.failures, ["first", "second"]);
    }

    #[test]
    fn scenario_names_are_unique() {
        for (i, s) in SCENARIOS.iter().enumerate() {
            assert!(
                SCENARIOS[..i].iter().all(|t| t.name != s.name),
                "{} is registered twice",
                s.name
            );
        }
    }

    #[test]
    fn every_scenario_has_a_committed_quick_artefact() {
        for s in SCENARIOS {
            let committed = Report::new(s.name, true).committed(s.name, "txt");
            assert!(
                committed.is_some(),
                "results/{}_quick.txt is not in the tree",
                s.name
            );
        }
    }
}
