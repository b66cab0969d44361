//! The child process that runs one workload.
//!
//! One workload per process: peak RSS (`VmHWM`) and CPU time then belong
//! to that workload alone, set-up is measured from a cold process, and a
//! panic in one workload cannot take the others' results with it. The
//! parent talks to a worker through its arguments and the last line of
//! its standard output (one JSON object of raw integer measurements).
//!
//! Order of a run: input generation, one untimed warm-up rep (together:
//! set-up), the timed reps, then — traced binary only — the probes. Every
//! rep must reproduce the warm-up rep's simulated results exactly; a rep
//! that fails an output check makes the worker exit non-zero without
//! printing a result.

use std::time::Instant;

use crate::calib::burst_ns;
use crate::json::Json;
use crate::probes;
use crate::span::{elapsed_ns, spans_to_json, Tracer};
use crate::workloads::{self, PhaseSums, RepOutcome};

/// What the parent asks of one worker.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerArgs {
    /// Workload name.
    pub workload: String,
    /// Seed for input generation.
    pub seed: u64,
    /// Timed reps to run at least (0: set-up only).
    pub min_reps: u64,
    /// Keep running timed reps until this many seconds of them elapsed.
    pub seconds: f64,
    /// Run the per-layer probes after the reps, in batches of this many
    /// milliseconds (0: no probes).
    pub probe_ms: u64,
}

impl WorkerArgs {
    /// The argument vector that reproduces `self` (after `worker`).
    pub fn to_argv(&self) -> Vec<String> {
        vec![
            "--workload".to_string(),
            self.workload.clone(),
            "--seed".to_string(),
            self.seed.to_string(),
            "--min-reps".to_string(),
            self.min_reps.to_string(),
            "--seconds".to_string(),
            self.seconds.to_string(),
            "--probe-ms".to_string(),
            self.probe_ms.to_string(),
        ]
    }

    /// Parses what [`WorkerArgs::to_argv`] produced.
    pub fn parse(argv: &[String]) -> Result<WorkerArgs, String> {
        let mut args = WorkerArgs {
            workload: String::new(),
            seed: 0,
            min_reps: 0,
            seconds: 0.0,
            probe_ms: 0,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value `{value}` for {flag}");
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = value.parse().map_err(|_| bad())?,
                "--min-reps" => args.min_reps = value.parse().map_err(|_| bad())?,
                "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
                "--probe-ms" => args.probe_ms = value.parse().map_err(|_| bad())?,
                other => return Err(format!("unknown worker flag `{other}`")),
            }
        }
        Ok(args)
    }
}

/// `VmHWM` of this process in KiB, from `/proc/self/status`.
fn vm_hwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

/// User + system CPU time of this process in milliseconds, from
/// `/proc/self/stat` (fields 14 and 15, in USER_HZ = 100 ticks/s).
fn cpu_ms() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // The command name (field 2) may contain spaces; count from
            // the closing parenthesis.
            let rest = s.rsplit_once(')')?.1;
            let mut fields = rest.split_whitespace().skip(11);
            let utime: u64 = fields.next()?.parse().ok()?;
            let stime: u64 = fields.next()?.parse().ok()?;
            Some((utime + stime) * 10)
        })
        .unwrap_or(0)
}

fn phases_json(p: &PhaseSums) -> Json {
    Json::obj(vec![
        ("episodes", Json::uint(p.episodes)),
        ("detect_us", Json::uint(p.detect_us)),
        ("repair_us", Json::uint(p.repair_us)),
        ("reintegrate_us", Json::uint(p.reintegrate_us)),
        ("replay_us", Json::uint(p.replay_us)),
    ])
}

/// What every rep must reproduce exactly: the simulated results and (in
/// the traced binary, where they are counted) the allocations made.
fn exact_results(r: &RepOutcome) -> impl PartialEq + '_ {
    (
        (&r.digest, r.sim_elapsed_us, r.sim_advanced_us, r.phases),
        (r.ops_attempted, r.ops_failed, &r.counts),
        (r.allocs, r.alloc_bytes),
    )
}

/// Runs the worker; returns the raw result to print, or the violations.
pub fn run(args: &WorkerArgs, traced: bool) -> Result<Json, Vec<String>> {
    let mut tracer = Tracer::new(traced);

    // Reference bursts beside every measured stretch (before set-up,
    // after it, after each rep) let the parent report host time in
    // reference seconds (see `calib`). The first burst of a process runs
    // cold (page faults, heap growth) and is thrown away, or it would make
    // every set-up look fast.
    burst_ns();
    let mut bursts = vec![burst_ns()];

    // ---- set-up: input generation + one untimed warm-up rep ----
    let setup_started = Instant::now();
    let inputs = tracer
        .span("generate", |t| {
            workloads::generate(&args.workload, args.seed, t)
        })
        .map_err(|e| vec![e])?;
    let warmup = tracer.span("warmup", |t| workloads::run_rep(&inputs, t));
    let setup_ns = elapsed_ns(setup_started);
    bursts.push(burst_ns());
    if !warmup.failures.is_empty() {
        return Err(warmup.failures);
    }

    // ---- timed reps ----
    let mut reps = Vec::new();
    let mut timed_ns = 0u64;
    while args.min_reps > 0
        && ((reps.len() as u64) < args.min_reps || (timed_ns as f64) < args.seconds * 1e9)
    {
        let rep = workloads::run_rep(&inputs, &mut tracer);
        if !rep.failures.is_empty() {
            return Err(rep.failures);
        }
        if exact_results(&rep) != exact_results(&warmup) {
            return Err(vec![format!(
                "rep {} is not a repeat of the warm-up rep: digest {} vs {}, {} vs {} allocations",
                reps.len() + 1,
                rep.digest,
                warmup.digest,
                rep.allocs,
                warmup.allocs
            )]);
        }
        timed_ns += rep.wall_ns;
        bursts.push(burst_ns());
        reps.push(Json::obj(vec![
            ("wall_ns", Json::uint(rep.wall_ns)),
            ("allocs", Json::uint(rep.allocs)),
            ("alloc_bytes", Json::uint(rep.alloc_bytes)),
        ]));
    }
    // Sampled before the probes so both describe the workload alone.
    let (cpu_ms, vm_hwm_kb) = (cpu_ms(), vm_hwm_kb());

    let probe_results = if args.probe_ms > 0 {
        tracer.span("probes", |t| probes::run_all(t, args.probe_ms))
    } else {
        Vec::new()
    };

    Ok(Json::obj(vec![
        ("workload", Json::str(&args.workload)),
        ("seed", Json::uint(args.seed)),
        ("setup_ns", Json::uint(setup_ns)),
        (
            "bursts_ns",
            Json::Arr(bursts.iter().map(|b| Json::uint(*b)).collect()),
        ),
        (
            "warmup",
            Json::obj(vec![
                ("wall_ns", Json::uint(warmup.wall_ns)),
                ("allocs", Json::uint(warmup.allocs)),
                ("alloc_bytes", Json::uint(warmup.alloc_bytes)),
            ]),
        ),
        ("reps", Json::Arr(reps)),
        ("cpu_ms", Json::uint(cpu_ms)),
        ("vm_hwm_kb", Json::uint(vm_hwm_kb)),
        ("digest", Json::str(&warmup.digest)),
        ("sim_elapsed_us", Json::uint(warmup.sim_elapsed_us)),
        ("sim_advanced_us", Json::uint(warmup.sim_advanced_us)),
        ("phases", phases_json(&warmup.phases)),
        ("ops_attempted", Json::uint(warmup.ops_attempted)),
        ("ops_failed", Json::uint(warmup.ops_failed)),
        (
            "counts",
            Json::Obj(
                warmup
                    .counts
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::uint(*v)))
                    .collect(),
            ),
        ),
        (
            "probes",
            Json::Obj(
                probe_results
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::Num(*v)))
                    .collect(),
            ),
        ),
        (
            "spans",
            Json::Arr(spans_to_json(&tracer.spans(), &args.workload, 0)),
        ),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_args_round_trip_through_argv() {
        let args = WorkerArgs {
            workload: "bulk_io".to_string(),
            seed: 1907,
            min_reps: 3,
            seconds: 7.5,
            probe_ms: 30,
        };
        assert_eq!(WorkerArgs::parse(&args.to_argv()), Ok(args));
        assert!(WorkerArgs::parse(&["--seed".to_string()]).is_err());
        assert!(WorkerArgs::parse(&["--bogus".to_string(), "1".to_string()]).is_err());
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(vm_hwm_kb() > 0, "VmHWM readable on Linux");
        // CPU time may legitimately read 0 ms this early; it must parse.
        let _ = cpu_ms();
    }
}
