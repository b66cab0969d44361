//! The paper's figures: Fig. 3 (recovery schemes), Fig. 7 / Fig. 8
//! (throughput under repeated driver kills), Fig. 9 (reengineering LoC).

use phoenix::experiments::{fig3_schemes, fig7_network_run, fig8_disk_run};
use phoenix_simcore::time::SimDuration;

use crate::{workspace_root, Report};

const SEED: u64 = 2007;

/// Kill intervals, in seconds: the paper's 1..15 s, thinned for `--quick`.
fn kill_intervals(quick: bool) -> Vec<u64> {
    if quick {
        vec![1, 2, 4, 8, 15]
    } else {
        (1..=15).collect()
    }
}

fn verdict(ok: bool) -> String {
    if ok { "ok" } else { "MISMATCH" }.to_string()
}

/// Fig. 3: the driver recovery scheme matrix — network and block drivers
/// recover transparently (in the network/file server); character drivers
/// push errors to the application, which may or may not recover.
pub fn fig3(r: &mut Report) {
    r.line("Fig. 3 — driver recovery schemes (one kill per driver class)\n");
    let rows: Vec<Vec<String>> = fig3_schemes(SEED)
        .into_iter()
        .map(|o| {
            let recovery = if o.transparent {
                "yes (transparent)"
            } else if o.app_recovered {
                "maybe (app recovered)"
            } else if o.user_informed {
                "no (user informed)"
            } else {
                "FAILED"
            };
            vec![
                o.class.to_string(),
                recovery.to_string(),
                o.recovered_by.to_string(),
            ]
        })
        .collect();
    r.table(&["driver class", "recovery", "where"], &rows);
    r.line("\npaper: network=yes (network server), block=yes (file server), character=maybe (application)");
}

/// Fig. 7: networking throughput while repeatedly killing the Ethernet
/// driver with various time intervals.
///
/// Paper baseline: a 512 MB `wget` at 10.8 MB/s uninterrupted; with kills
/// every 1..15 s, throughput degrades from -25% (1 s) to -1% (15 s), the
/// mean recovery time is 0.48 s, and the MD5 always matches.
pub fn fig7(r: &mut Report) {
    let size: u64 = if r.quick() {
        32_000_000
    } else {
        512 * 1_000_000
    };
    r.line("Fig. 7 — network throughput vs. driver kill interval");
    r.line(format!(
        "transfer: {} MB via RTL8139, direct-restart policy\n",
        size / 1_000_000
    ));

    let base = fig7_network_run(size, None, SEED);
    let mut rows = vec![vec![
        "uninterrupted".to_string(),
        format!("{:.2}", base.elapsed.as_secs_f64()),
        format!("{:.2}", base.throughput_mbs),
        "-".to_string(),
        "0".to_string(),
        "-".to_string(),
        verdict(base.md5_ok),
    ]];
    let mut gaps = Vec::new();
    for k in kill_intervals(r.quick()) {
        let run = fig7_network_run(size, Some(SimDuration::from_secs(k)), SEED);
        let loss = 100.0 * (1.0 - run.throughput_mbs / base.throughput_mbs);
        gaps.extend(run.mean_gap.map(|g| g.as_secs_f64()));
        rows.push(vec![
            format!("kill every {k}s"),
            format!("{:.2}", run.elapsed.as_secs_f64()),
            format!("{:.2}", run.throughput_mbs),
            format!("{loss:.1}%"),
            run.kills.to_string(),
            run.mean_gap
                .map_or("-".into(), |g| format!("{:.2}s", g.as_secs_f64())),
            verdict(run.md5_ok),
        ]);
    }
    r.table(
        &[
            "scenario", "time (s)", "MB/s", "loss", "kills", "mean gap", "md5",
        ],
        &rows,
    );
    if !gaps.is_empty() {
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        r.line(format!(
            "\nmean data-flow recovery gap across runs: {mean:.2}s (paper: 0.48s)"
        ));
    }
    r.line("paper shape: uninterrupted 10.8 MB/s; loss 25% at 1s -> 1% at 15s; md5 intact");
}

/// Fig. 8: disk read throughput while repeatedly killing the SATA driver.
///
/// Paper baseline: a 1 GB `dd | sha1sum` at 32.7 MB/s uninterrupted; with
/// kills every 1..15 s, overhead runs from 62% (1 s) to ~7% (15 s), and
/// the SHA-1 always matches.
pub fn fig8(r: &mut Report) {
    let size: u64 = if r.quick() {
        64_000_000
    } else {
        1_000 * 1_000_000
    };
    r.line("Fig. 8 — disk throughput vs. driver kill interval");
    r.line(format!(
        "transfer: {} MB via SATA + MFS + VFS, driver restarts from RAM\n",
        size / 1_000_000
    ));

    let base = fig8_disk_run(size, None, SEED);
    let mut rows = vec![vec![
        "uninterrupted".to_string(),
        format!("{:.2}", base.elapsed.as_secs_f64()),
        format!("{:.2}", base.throughput_mbs),
        "-".to_string(),
        "0".to_string(),
        verdict(base.sha1_ok),
    ]];
    for k in kill_intervals(r.quick()) {
        let run = fig8_disk_run(size, Some(SimDuration::from_secs(k)), SEED);
        let overhead = 100.0 * (run.elapsed.as_secs_f64() / base.elapsed.as_secs_f64() - 1.0);
        rows.push(vec![
            format!("kill every {k}s"),
            format!("{:.2}", run.elapsed.as_secs_f64()),
            format!("{:.2}", run.throughput_mbs),
            format!("{overhead:.0}%"),
            run.kills.to_string(),
            verdict(run.sha1_ok && run.app_errors == 0),
        ]);
    }
    r.table(
        &["scenario", "time (s)", "MB/s", "overhead", "kills", "sha1"],
        &rows,
    );
    r.line("\npaper shape: uninterrupted 32.7 MB/s; overhead 62% at 1s -> ~7% at 15s; sha1 intact");
}

/// Fig. 9: source code statistics — total executable LoC per component and
/// the recovery-specific reengineering effort, from the analyzer's line
/// counter (`phoenix_analyze::loc`: blank lines and comments omitted, each
/// file cut at its column-0 `#[cfg(test)]`, recovery units marked in the
/// source), run on the tree as it is now.
pub fn fig9(r: &mut Report) {
    r.line("Fig. 9 — reengineering effort (executable LoC)\n");
    let counted = phoenix_analyze::loc::count(&workspace_root());
    let counted = counted.unwrap_or_else(|e| panic!("cannot read source file {e}"));
    let found = counted.findings.len();
    r.require(found == 0, format!("{found} recovery marker finding(s)"));
    let cells = |name: &str, n: usize, rec: usize| {
        let pct = format!("{:.0}%", 100.0 * rec as f64 / n as f64);
        let cells = [n.to_string(), rec.to_string(), pct];
        let shared = ["(shared)", "-", "-"].map(String::from);
        let mut row = vec![name.to_string()];
        row.extend(if n == 0 { shared } else { cells });
        row
    };
    let fig9 = counted.fig9();
    let mut rows: Vec<_> = fig9
        .iter()
        .map(|&(c, n, rec, _)| cells(c, n, rec))
        .collect();
    let total = fig9.iter().map(|row| row.1).sum();
    rows.push(cells("Total", total, fig9.iter().map(|row| row.2).sum()));
    r.table(&["component", "total LoC", "recovery LoC", "%"], &rows);
    r.line("\nnotes: 'RAM Disk' and 'DP8390 Driver' share block.rs and net.rs with the");
    r.line("       SATA and RTL8139 drivers; 'File Server' is one engine (mfs.rs) and its");
    r.line("       two formats, the native one and FAT16 (Fig. 5's MFS and FAT); 'Server");
    r.line("       Library' is the crash-only shell plus the state gate it shares with the");
    r.line("       char drivers: the checkpoint client.");
    r.line("recovery: units a system without failure handling would not contain (§7.3).");
    r.line("paper: RS 30%, DS 15%, VFS 5%, FS <1%, drivers ~5 lines each, PM/kernel 0%.");
}
