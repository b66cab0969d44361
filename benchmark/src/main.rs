//! `phoenix-perf`: the untraced binary (orchestrator, untraced workers,
//! `compare`). All end-to-end host timings come from this one.

fn main() -> std::process::ExitCode {
    phoenix_perf::cli::main(false)
}
