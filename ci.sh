#!/bin/sh
# Local CI gate: formatting, lints, static analysis, every test in the
# workspace, then every scenario of the phoenix-bench registry at
# --quick size and the benchmark's exact counts for all four workloads at
# one seed. Ends on a clean `git diff results/`: the committed artefacts must
# be exactly what the code produces.
# Usage: ./ci.sh
set -eu

cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> no ignored tests: a pin-first #[ignore] does not outlive its change"
if grep -rn --include='*.rs' '#\[ignore' crates tests src examples; then
    echo "==> ignored tests found"
    exit 1
fi

echo "==> cargo clippy -D warnings (function-length ceiling in clippy.toml)"
cargo clippy --workspace --all-targets -q -- -D warnings -D clippy::too_many_lines

echo "==> phoenix-analyze: lints, conformance + dead edges, reachability, line count (shipping lines per crate, the workspace and servers/src/rs.rs; recovery markers), authority audit"
cargo run -q --release -p phoenix-analyze -- --report results/analyze_report.json

echo "==> tier-1: cargo build --release && cargo test -q (default-members: the whole workspace)"
cargo build --release
cargo test -q

echo "==> agent_due at full size: 500 schedules per node count (a debug build runs 100)"
cargo test -q --release -p phoenix-fleet --test agent_due

echo "==> decide_enumerated at full depth: states explored and wall seconds, printed, not gated (a debug build goes one step less)"
out=$(cargo test -q --release --test decide_enumerated -- --nocapture) || { echo "$out"; exit 1; }
echo "$out" | grep -o 'enumerated .*'

echo "==> byte_sum_fusion at full size: the fused byte-sum loop against the step loop on every single-word mutant of the four routines; runs and wall seconds, printed, not gated (a debug build takes every 97th program)"
out=$(cargo test -q --release -p phoenix-drivers --test byte_sum_fusion -- --nocapture) || { echo "$out"; exit 1; }
echo "$out" | grep -o 'differential .*'

echo "==> event_oracle at full size: the timing wheel against the single-heap reference model; walks, steps, deliveries and wall seconds, printed, not gated (a debug build takes a tenth of the steps)"
out=$(cargo test -q --release -p phoenix-simcore --test event_oracle -- --nocapture 2>&1) || { echo "$out"; exit 1; }
echo "$out" | grep -o 'oracle .*'

echo "==> fleet loop work: rounds and machine advances of an 8-node, 12-fault campaign; printed, and pinned as literals in the test"
out=$(cargo test -q --release -p phoenix-fleet --lib the_campaign_pins_its_rounds_and_machine_advances -- --nocapture) || { echo "$out"; exit 1; }
echo "$out" | grep -o 'fleet loop: .*'

echo "==> fleet heap: allocations per heartbeat round and per replicated image of a fault-free 8-node fleet; printed, and pinned as literals in the test"
out=$(cargo test -q --release -p phoenix-fleet --test alloc_budget -- --nocapture) || { echo "$out"; exit 1; }
echo "$out" | grep -o 'fleet heap: .*'

echo "==> boot heap: allocations and bytes of one fleet node boot, allocations of Os::builder(), allocations and bytes of an empty TraceRing::new(65_536); printed, and pinned as literals in the test"
out=$(cargo test -q --release -p phoenix-fleet --test boot_heap -- --nocapture) || { echo "$out"; exit 1; }
echo "$out" | grep -o 'boot heap: .*'

echo "==> frame heap: allocations per delivered data frame of an RTL8139 download and per fault-VM routine run; printed, and pinned as literals in the test"
out=$(cargo test -q --release -p phoenix --test frame_heap -- --nocapture) || { echo "$out"; exit 1; }
echo "$out" | grep -o 'frame heap: .*'

echo "==> read heap: allocations over 400 warmed-up 16 KB file reads through VFS and MFS; printed, and pinned as a literal in the test"
out=$(cargo test -q --release -p phoenix --test read_heap -- --nocapture) || { echo "$out"; exit 1; }
echo "$out" | grep -o 'read heap: .*'

echo "==> benchmark/: the frozen benchmark crate still builds against the crate APIs"
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "==> phoenix-bench: every scenario, --quick"
cargo build -q --release -p phoenix-bench
bench="${CARGO_TARGET_DIR:-target}/release/phoenix-bench"
for s in $("$bench" list | cut -d" " -f1); do
    # Host wall seconds ride on the `==>` line; they are printed, not gated.
    t0=$(date +%s.%N)
    out=$("$bench" "$s" --quick) || { echo "$out"; echo "==> phoenix-bench $s --quick failed"; exit 1; }
    t1=$(date +%s.%N)
    echo "==> phoenix-bench $s --quick: $(awk "BEGIN { printf \"%.2f\", $t1 - $t0 }") s"
    echo "$out"
done

for w in slo_chaos bulk_io mutation fleet_failover; do
    echo "==> benchmark/run.sh $w: the exact (host-independent) numbers of one seed"
    last=$(benchmark/run.sh --workload "$w" --seed 2007 --seconds 1 --trace 0 | tail -n 1)
    echo "$last" | grep -q '"correct":true'
    for k in attempted failed allocs_per_op alloc_kb_per_op sim_ms_per_op mttr_sim_ms; do
        # `"attempted":40566` at the top level, `"allocs_per_op":{"value":62.0,..` below it.
        echo "$k $(echo "$last" | grep -o "\"$k\":\({\"value\":\)\?[0-9.e+-]*" | sed 's/.*://')"
    done > "results/BENCH_exact_$w.txt"
    test "$(grep -c ' [0-9]' "results/BENCH_exact_$w.txt")" -eq 6
done

echo "==> results/ matches what the code produces"
git diff --exit-code -- results/
untracked=$(git status --porcelain -- results/)
test -z "$untracked" || { echo "uncommitted artefacts:"; echo "$untracked"; exit 1; }

echo "==> ci.sh: all green"
