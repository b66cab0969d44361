//! The orchestrator: spawns one worker process per workload and pass,
//! cross-checks their outputs, derives the metrics and prints them.
//!
//! Two ways in:
//!
//! * [`run_one`] — the benchmark contract's
//!   `--workload W --seed N --seconds S --trace 0|1`: one workload, and as
//!   the last line of standard output one JSON object with `correct`,
//!   `attempted`, `failed` and `metrics`.
//! * [`run_all`] — `run.sh [--seed S] [--reps N]`: every workload, both
//!   passes, every metric printed by name with unit, raw results written
//!   to `benchmark/out/results.json` for `compare`.
//!
//! A workload whose output checks fail prints no metrics and makes the
//! whole run exit non-zero.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::catalogue::{END_TO_END, PER_LAYER};
use crate::json::Json;
use crate::probes::{BATCH_CONTRACT, BATCH_FULL};
use crate::report::{end_to_end, metrics_json, per_layer, Measured, Raw};
use crate::span::{check_tree, spans_from_json, spans_to_json, Span};
use crate::stats::{median, quartiles};
use crate::worker::WorkerArgs;
use crate::workloads::WORKLOADS;

/// Timed reps a run never goes below.
pub const MIN_REPS: u64 = 3;
/// Fresh worker processes that each measure set-up once. Each costs a
/// whole rep, and about ninety runs have to fit in the acceptance runs'
/// hour, so it is the smallest number that is still "several".
const SETUP_PROCESSES: usize = 2;
/// Where result files go, relative to the repo root (`run.sh` changes
/// into it first).
const OUT_DIR: &str = "benchmark/out";

/// The two worker binaries, found next to the running executable.
struct Bins {
    untraced: PathBuf,
    traced: PathBuf,
}

fn bins() -> Result<Bins, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe.parent().ok_or("executable has no directory")?;
    let bins = Bins {
        untraced: dir.join("phoenix-perf"),
        traced: dir.join("phoenix-perf-traced"),
    };
    for b in [&bins.untraced, &bins.traced] {
        if !b.is_file() {
            return Err(format!("{} not built (use benchmark/run.sh)", b.display()));
        }
    }
    Ok(bins)
}

/// Runs one worker to completion and parses the last line it printed.
/// `output()` waits for the child, so no process outlives this call.
fn spawn_worker(bin: &Path, args: &WorkerArgs) -> Result<Raw, String> {
    let out = Command::new(bin)
        .arg("worker")
        .args(args.to_argv())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
    if !out.status.success() {
        return Err(format!(
            "{} worker failed its checks ({})",
            args.workload, out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    Json::parse(last)
        .ok()
        .as_ref()
        .and_then(Raw::from_json)
        .ok_or_else(|| format!("{} worker printed no result", args.workload))
}

fn worker_args(
    workload: &str,
    seed: u64,
    min_reps: u64,
    seconds: f64,
    probe_ms: u64,
) -> WorkerArgs {
    WorkerArgs {
        workload: workload.to_string(),
        seed,
        min_reps,
        seconds,
        probe_ms,
    }
}

/// Every pass over one seed must simulate exactly the same thing.
fn same_simulation(a: &Raw, b: &Raw, what: &str) -> Result<(), String> {
    if a.sim_results() == b.sim_results() {
        Ok(())
    } else {
        Err(format!(
            "{}: {what} disagree on the simulated results: {:?} vs {:?}",
            a.workload,
            a.sim_results(),
            b.sim_results()
        ))
    }
}

/// The untraced pass: set-up measured in [`SETUP_PROCESSES`] fresh
/// processes, the last of which goes on to run the timed reps.
fn untraced_pass(
    bins: &Bins,
    workload: &str,
    seed: u64,
    min_reps: u64,
    seconds: f64,
) -> Result<(Vec<f64>, Raw), String> {
    let mut setup_s = Vec::new();
    let mut first: Option<Raw> = None;
    for _ in 1..SETUP_PROCESSES {
        let raw = spawn_worker(&bins.untraced, &worker_args(workload, seed, 0, 0.0, 0))?;
        setup_s.push(raw.setup_ref_s());
        if let Some(first) = &first {
            same_simulation(first, &raw, "two set-up processes")?;
        }
        first = Some(raw);
    }
    let full = spawn_worker(
        &bins.untraced,
        &worker_args(workload, seed, min_reps, seconds, 0),
    )?;
    if let Some(first) = &first {
        same_simulation(first, &full, "set-up and timed processes")?;
    }
    setup_s.push(full.setup_ref_s());
    Ok((setup_s, full))
}

/// Span checks of the traced pass: something was recorded and it forms a
/// tree, every span a root or inside its parent. (Self times cannot go
/// negative: [`crate::span::self_times`] clips children to their parent.)
fn checked_spans(raw: &Raw) -> Result<Vec<Span>, String> {
    let spans =
        spans_from_json(&raw.spans).ok_or_else(|| format!("{}: malformed spans", raw.workload))?;
    if spans.is_empty() {
        return Err(format!("{}: traced pass recorded no span", raw.workload));
    }
    check_tree(&spans)?;
    Ok(spans)
}

fn write_out(file: &str, doc: &Json) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let path = Path::new(OUT_DIR).join(file);
    std::fs::write(&path, doc.encode() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn print_metric(m: &Measured, note: &str) {
    let detail = if m.samples.len() > 1 {
        let (q1, q3) = quartiles(&m.samples);
        format!(
            "median of {} (q1 {:.4}, q3 {:.4}, spread {:.1}%)",
            m.samples.len(),
            q1,
            q3,
            m.spread_pct()
        )
    } else {
        String::new()
    };
    println!(
        "  {:<34} {:>16.4} {:<8} {detail}{note}",
        m.name, m.value, m.unit
    );
}

/// The workload's identity and its per-rep totals: what the per-operation
/// metrics below multiply back to.
fn print_header(untraced: &Raw, traced: &Raw) {
    println!(
        "{} (seed {}): digest {}, ops_attempted {}, ops_failed {}\n  \
         one rep: wall_s {:.4} (median of {}), sim_elapsed_s {:.6}, allocs {}, alloc_mb {:.1}",
        untraced.workload,
        untraced.seed,
        untraced.digest,
        untraced.ops_attempted,
        untraced.ops_failed,
        median(&untraced.rep_wall_s()),
        untraced.reps.len(),
        untraced.sim_elapsed_us as f64 / 1e6,
        traced.warmup.allocs,
        traced.warmup.alloc_bytes as f64 / 1e6,
    );
}

/// The contract run: one workload, one pass selection, one JSON line.
pub fn run_one(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<(), String> {
    if !WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload `{workload}` (want one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let bins = bins()?;
    let (untraced, traced, metrics) = if trace {
        let untraced = spawn_worker(
            &bins.untraced,
            &worker_args(workload, seed, MIN_REPS, seconds, 0),
        )?;
        let traced = spawn_worker(
            &bins.traced,
            &worker_args(workload, seed, 1, 0.0, BATCH_CONTRACT),
        )?;
        same_simulation(&untraced, &traced, "untraced and traced pass")?;
        checked_spans(&traced)?;
        write_out("trace.json", &Json::Arr(traced.spans.clone()))?;
        let metrics = per_layer(&untraced, &traced, &traced.probes);
        (untraced, traced, metrics)
    } else {
        let (setup_s, untraced) = untraced_pass(&bins, workload, seed, MIN_REPS, seconds)?;
        // Exact counts only need one rep of the counting binary; its
        // warm-up rep is one.
        let traced = spawn_worker(&bins.traced, &worker_args(workload, seed, 0, 0.0, 0))?;
        same_simulation(&untraced, &traced, "untraced and traced pass")?;
        let metrics = end_to_end(&setup_s, &untraced, &traced);
        (untraced, traced, metrics)
    };
    print_header(&untraced, &traced);
    for m in &metrics {
        print_metric(m, "");
    }
    let line = Json::obj(vec![
        ("correct", Json::Bool(true)),
        ("attempted", Json::uint(untraced.ops_attempted)),
        ("failed", Json::uint(untraced.ops_failed)),
        ("metrics", metrics_json(&metrics, false)),
    ]);
    println!("{}", line.encode());
    Ok(())
}

/// Both passes of the full run over one workload, cross-checked.
fn both_passes(
    bins: &Bins,
    workload: &str,
    seed: u64,
    reps: u64,
    probe_ms: u64,
) -> Result<(Vec<f64>, Raw, Raw, Vec<Span>), String> {
    let (setup_s, untraced) = untraced_pass(bins, workload, seed, reps, 0.0)?;
    let traced = spawn_worker(&bins.traced, &worker_args(workload, seed, 1, 0.0, probe_ms))?;
    same_simulation(&untraced, &traced, "untraced and traced pass")?;
    let spans = checked_spans(&traced)?;
    Ok((setup_s, untraced, traced, spans))
}

/// The full run: every workload, both passes, every metric. Workloads
/// that fail a check are reported and skipped; the error names them.
pub fn run_all(seed: u64, reps: u64) -> Result<(), String> {
    let bins = bins()?;
    let reps = reps.max(MIN_REPS);
    let mut probes: Vec<(String, f64)> = Vec::new();
    let mut results = Vec::new();
    let mut all_spans = Vec::new();
    let mut failed = Vec::new();
    for workload in WORKLOADS {
        // Probes do not depend on the workload: run them once.
        let probe_ms = if probes.is_empty() { BATCH_FULL } else { 0 };
        let outcome = both_passes(&bins, workload, seed, reps, probe_ms);
        let (setup_s, untraced, traced, spans) = match outcome {
            Ok(o) => o,
            Err(e) => {
                eprintln!("{workload}: {e}");
                println!("{workload}: CHECKS FAILED, no metrics\n");
                failed.push(workload);
                continue;
            }
        };
        if probes.is_empty() {
            probes = traced.probes.clone();
        }
        let e2e = end_to_end(&setup_s, &untraced, &traced);
        let layers = per_layer(&untraced, &traced, &probes);
        print_header(&untraced, &traced);
        println!(" end to end:");
        for (m, spec) in e2e.iter().zip(&END_TO_END) {
            print_metric(m, if spec.exact { "exact" } else { "" });
        }
        println!(" per layer:");
        for (m, spec) in layers.iter().zip(&PER_LAYER) {
            print_metric(m, &format!("-> {}", spec.moves));
        }
        println!();

        // Parent indices are per workload; shift them into the merged list.
        let base = all_spans.len();
        all_spans.extend(spans_to_json(&spans, workload, base));
        results.push(Json::obj(vec![
            ("name", Json::str(workload)),
            ("digest", Json::str(&untraced.digest)),
            ("ops_attempted", Json::uint(untraced.ops_attempted)),
            ("ops_failed", Json::uint(untraced.ops_failed)),
            ("end_to_end", metrics_json(&e2e, true)),
            ("per_layer", metrics_json(&layers, true)),
        ]));
    }
    write_out("trace.json", &Json::Arr(all_spans))?;
    write_out(
        "results.json",
        &Json::obj(vec![
            ("schema", Json::str("phoenix-perf/v1")),
            ("seed", Json::uint(seed)),
            ("reps", Json::uint(reps)),
            ("workloads", Json::Arr(results)),
        ]),
    )?;
    println!("wrote {OUT_DIR}/results.json and {OUT_DIR}/trace.json");
    if failed.is_empty() {
        Ok(())
    } else {
        Err(format!("output checks failed on: {}", failed.join(", ")))
    }
}
