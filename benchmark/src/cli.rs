//! Command-line entry shared by both binaries.
//!
//! ```text
//! phoenix-perf --workload W --seed N --seconds S --trace 0|1   one workload (the benchmark contract)
//! phoenix-perf [--seed S] [--reps N]                           every workload, every metric
//! phoenix-perf compare A.json B.json                           two result files against the bounds
//! phoenix-perf worker ...                                      internal: one workload, this process
//! ```

use std::process::ExitCode;

use crate::compare;
use crate::runner::{self, MIN_REPS};
use crate::worker::{self, WorkerArgs};

/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 2007;
/// Timed reps per workload of the all-workloads run.
const DEFAULT_REPS: u64 = 5;

/// Options of the orchestrating modes.
#[derive(Debug, Clone, PartialEq)]
struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    reps: u64,
}

fn parse_run_args(argv: &[String]) -> Result<RunArgs, String> {
    let mut args = RunArgs {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace: false,
        reps: DEFAULT_REPS,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value.clone()),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(0.0..=600.0).contains(&args.seconds) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--reps" => args.reps = value.parse::<u64>().map_err(|_| bad())?.max(MIN_REPS),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(args)
}

fn finish(result: Result<(), String>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("phoenix-perf: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Dispatches on the first argument. `traced` says which binary this is.
pub fn main(traced: bool) -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("worker") => match WorkerArgs::parse(&argv[1..]) {
            Ok(args) => match worker::run(&args, traced) {
                Ok(result) => {
                    println!("{}", result.encode());
                    ExitCode::SUCCESS
                }
                Err(failures) => {
                    for f in failures {
                        eprintln!("CHECK FAILED [{}]: {f}", args.workload);
                    }
                    ExitCode::FAILURE
                }
            },
            Err(e) => finish(Err(e)),
        },
        Some("compare") => match &argv[1..] {
            [a, b] => match compare::run(a, b) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => finish(Err(e)),
            },
            _ => finish(Err("usage: phoenix-perf compare A.json B.json".to_string())),
        },
        _ => finish(parse_run_args(&argv).and_then(|args| match &args.workload {
            Some(w) => runner::run_one(w, args.seed, args.seconds, args.trace),
            None => runner::run_all(args.seed, args.reps),
        })),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn contract_invocation_parses() {
        let args = parse_run_args(&argv(&[
            "--workload",
            "bulk_io",
            "--seed",
            "1907",
            "--seconds",
            "8",
            "--trace",
            "1",
        ]))
        .expect("parses");
        assert_eq!(args.workload.as_deref(), Some("bulk_io"));
        assert_eq!((args.seed, args.seconds, args.trace), (1907, 8.0, true));
    }

    #[test]
    fn defaults_and_floors() {
        let args = parse_run_args(&[]).expect("parses");
        assert_eq!((args.workload, args.seed, args.reps), (None, 2007, 5));
        // --reps never goes below three.
        assert_eq!(
            parse_run_args(&argv(&["--reps", "1"]))
                .expect("parses")
                .reps,
            3
        );
        for bad in [
            &["--trace", "2"][..],
            &["--seed", "x"],
            &["--seconds", "-1"],
            &["--seconds"],
            &["--frobnicate", "1"],
        ] {
            assert!(parse_run_args(&argv(bad)).is_err(), "{bad:?}");
        }
    }
}
