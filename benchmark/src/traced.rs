//! `phoenix-perf-traced`: the same program with the counting allocator
//! installed and spans recorded. Exact counts and every per-layer number
//! come from this binary; no end-to-end host timing does.

use phoenix_perf::alloc::CountingAllocator;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn main() -> std::process::ExitCode {
    phoenix_perf::cli::main(true)
}
