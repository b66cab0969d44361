//! `phoenix-perf`: the repo's benchmark.
//!
//! Four campaign workloads, each run in its own child process; host-clock,
//! sim-clock and exact-count end-to-end metrics; per-layer probes and
//! spans from a separate traced pass. See `benchmark/README.md` for the
//! metric catalogue and `BENCHMARK.json` at the repo root for the bounds.

pub mod alloc;
pub mod calib;
pub mod catalogue;
pub mod cli;
pub mod compare;
pub mod json;
pub mod probes;
pub mod report;
pub mod runner;
pub mod span;
pub mod stats;
pub mod worker;
pub mod workloads;
