#!/usr/bin/env bash
# Full CI gate for the MISCELA-V workspace. Every step must pass.
#
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n==> %s\n' "$*"; }

step "cargo fmt --check"
cargo fmt --all --check

step "cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

step "cargo build --release"
cargo build --release

step "cargo test (workspace: unit + integration + property + doc tests)"
cargo test --workspace -q

step "cargo test --release (miner oracles in the optimized build: no debug assertions, wrapping overflow)"
cargo test --release -q -p miscela-core

step "cargo test --release properties (never-panic and identity properties in the optimized build the service and the benchmark use)"
cargo test --release -q -p miscela-v --test properties

step "cargo doc --no-deps (deny rustdoc warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

step "bench smoke (tiny-scale, executes the bench binaries)"
MISCELA_BENCH_SMOKE=1 cargo bench -p miscela-bench --bench miner_vs_baseline
MISCELA_BENCH_SMOKE=1 cargo bench -p miscela-bench --bench search_scaling
MISCELA_BENCH_SMOKE=1 cargo bench -p miscela-bench --bench extraction_scaling
MISCELA_BENCH_SMOKE=1 cargo bench -p miscela-bench --bench streaming_append

step "sweep-bench smoke (bounded grid; asserts batch/loop byte-identity before timing)"
MISCELA_BENCH_SMOKE=1 MISCELA_SWEEP_SMOKE=1 cargo bench -p miscela-bench --bench sweep

step "bench_snapshot smoke (schema-8 JSON emitted)"
snapshot_out="$(mktemp)"
MISCELA_BENCH_SMOKE=1 cargo run --release -q -p miscela-bench --bin bench_snapshot -- --out "$snapshot_out" >/dev/null
grep -q '"schema": 8' "$snapshot_out" || { echo "bench_snapshot did not emit schema-8 JSON" >&2; rm -f "$snapshot_out"; exit 1; }
grep -q '"extraction_ns"' "$snapshot_out" || { echo "bench_snapshot is missing extraction_ns" >&2; rm -f "$snapshot_out"; exit 1; }
grep -q '"append_remine_ns"' "$snapshot_out" || { echo "bench_snapshot is missing append_remine_ns" >&2; rm -f "$snapshot_out"; exit 1; }
grep -q '"append_retained_ns"' "$snapshot_out" || { echo "bench_snapshot is missing append_retained_ns" >&2; rm -f "$snapshot_out"; exit 1; }
grep -q '"recovery_replay_ns"' "$snapshot_out" || { echo "bench_snapshot is missing recovery_replay_ns" >&2; rm -f "$snapshot_out"; exit 1; }
grep -q '"completed_p99_ns"' "$snapshot_out" || { echo "bench_snapshot is missing the overload summary" >&2; rm -f "$snapshot_out"; exit 1; }
grep -q '"shed_rate"' "$snapshot_out" || { echo "bench_snapshot is missing shed_rate" >&2; rm -f "$snapshot_out"; exit 1; }
grep -q '"duplicate_suppressions"' "$snapshot_out" || { echo "bench_snapshot is missing the chaos summary" >&2; rm -f "$snapshot_out"; exit 1; }
grep -q '"goodput"' "$snapshot_out" || { echo "bench_snapshot is missing chaos goodput" >&2; rm -f "$snapshot_out"; exit 1; }
grep -q '"sweep_batch_ns"' "$snapshot_out" || { echo "bench_snapshot is missing sweep_batch_ns" >&2; rm -f "$snapshot_out"; exit 1; }
grep -q '"sweep_loop_ns"' "$snapshot_out" || { echo "bench_snapshot is missing sweep_loop_ns" >&2; rm -f "$snapshot_out"; exit 1; }
grep -q '"contended_wall_ns"' "$snapshot_out" || { echo "bench_snapshot is missing the sharded comparison" >&2; rm -f "$snapshot_out"; exit 1; }
grep -q '"sharded_wall_ns"' "$snapshot_out" || { echo "bench_snapshot is missing sharded_wall_ns" >&2; rm -f "$snapshot_out"; exit 1; }
grep -q '"watch_wakeup_p99_ns"' "$snapshot_out" || { echo "bench_snapshot is missing watch_wakeup_p99_ns" >&2; rm -f "$snapshot_out"; exit 1; }
rm -f "$snapshot_out"

step "load-generator smoke (bounded overload storm, typed outcomes only)"
MISCELA_OVERLOAD_SMOKE=1 cargo run --release -q -p miscela-bench --bin load_generator >/dev/null
MISCELA_OVERLOAD_SMOKE=1 cargo run --release -q -p miscela-bench --bin load_generator -- --sweeps >/dev/null

step "subscriber-storm smoke (watch wakeups on single-shard vs sharded stores)"
MISCELA_OVERLOAD_SMOKE=1 cargo run --release -q -p miscela-bench --bin load_generator -- --subscribers >/dev/null

step "recovery matrix in release (every kill point of the crash-recovery matrix, optimized build)"
cargo test --release -q -p miscela-v --test recovery_matrix

step "overload matrix in release (full storms: shedding, cancellation, degraded mode)"
cargo test --release -q -p miscela-v --test overload_matrix

step "chaos matrix in release (every transport fault class, every seed, converges to the undisturbed twin)"
cargo test --release -q -p miscela-v --test chaos_transport_matrix

step "tenant-storm repeat (25 release runs; a watcher that misses its typed close fails the gate)"
for run in $(seq 1 25); do
    cargo test --release -q -p miscela-v --test tenant_storm || { echo "tenant_storm failed on run $run of 25" >&2; exit 1; }
done

step "end-to-end benchmark smoke (both workloads at smoke size, every output check on)"
cargo test --release --offline --manifest-path benchmark/Cargo.toml

printf '\nCI gate passed.\n'
