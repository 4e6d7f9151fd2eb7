#!/usr/bin/env bash
# Performance gate: build, run the test suite, then benchmark the evaluation
# hot path. perfgate enforces the pay-for-use overhead ceilings (trace-off,
# fault-armed, obs-disabled), the batch_sim floor (the 64-lane batched engine
# must retire >=4x scalar fault-campaign throughput), and — on multi-core
# hosts only — the parallel-explore speedup floor. Fails if compiled
# interpreter throughput or functional-executor throughput regresses more
# than 20% against the committed BENCH_perfgate.json baseline (skips those
# gates with a warning when no baseline is committed). Regenerates
# BENCH_perfgate.json.
set -euo pipefail
cd "$(dirname "$0")/.."

# --workspace builds the perfgate binary too; the umbrella package alone
# would leave ./target/release/perfgate stale or missing.
cargo build --release --workspace
cargo test -q

if [ -f BENCH_perfgate.json ]; then
    baseline=$(mktemp)
    trap 'rm -f "$baseline"' EXIT
    cp BENCH_perfgate.json "$baseline"
    ./target/release/perfgate --check-against "$baseline"
else
    echo "warning: no committed BENCH_perfgate.json baseline; running without regression gate" >&2
    ./target/release/perfgate
fi
