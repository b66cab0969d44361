#!/bin/sh
# Local CI gate: formatting, lints, static analysis, every test in the
# workspace, then every scenario of the phoenix-bench registry at
# --quick size. Ends on a clean `git diff results/`: the committed
# artefacts must be exactly what the code produces.
# Usage: ./ci.sh
set -eu

cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings (function-length ceiling in clippy.toml)"
cargo clippy --workspace --all-targets -q -- -D warnings -D clippy::too_many_lines

echo "==> phoenix-analyze: lints, conformance, reachability, authority audit"
cargo run -q --release -p phoenix-analyze -- --report results/analyze_report.json

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> cargo test --workspace"
cargo test --workspace -q

echo "==> benchmark/: the frozen benchmark crate still builds against the crate APIs"
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "==> phoenix-bench: every scenario, --quick"
cargo build -q --release -p phoenix-bench
bench="${CARGO_TARGET_DIR:-target}/release/phoenix-bench"
for s in $("$bench" list | cut -d" " -f1); do
    echo "==> phoenix-bench $s --quick"
    "$bench" "$s" --quick
done

echo "==> results/ matches what the code produces"
git diff --exit-code -- results/
untracked=$(git status --porcelain -- results/)
test -z "$untracked" || { echo "uncommitted artefacts:"; echo "$untracked"; exit 1; }

echo "==> ci.sh: all green"
