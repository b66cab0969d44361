#!/usr/bin/env bash
# The repo's benchmark: build, then run.
#
#   benchmark/run.sh [--seed S] [--reps N]
#       every workload, both passes, every metric by name with unit;
#       raw results in benchmark/out/results.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload; last stdout line is the result object BENCHMARK.json
#       describes (end-to-end metrics with --trace 0, per-layer with 1)
#   benchmark/run.sh compare A.json B.json
#       two results.json files judged against the bounds in BENCHMARK.json
set -euo pipefail

# `compare` names files relative to where the caller stands.
if [ "${1:-}" = compare ]; then
    args=(compare)
    for f in "${@:2}"; do args+=("$(realpath -- "$f")"); done
    set -- "${args[@]}"
fi

cd "$(dirname "${BASH_SOURCE[0]}")/.."
# Share the root build directory unless the caller chose one, so the
# workspace crates compile once.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/target}"

# Build output goes to stderr: stdout carries only results.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

exec "$CARGO_TARGET_DIR/release/phoenix-perf" "$@"
