#!/usr/bin/env bash
# Tier-1 verification wrapper: release build, full test suite (at two
# thread counts, since every parallel helper promises thread-count
# independence), the snapshot-concurrency stress test, par_scaling,
# query_hotpath (asserting the zero-alloc steady-state contract at both
# thread counts plus the engine-median regression gate: <= 2x the
# measured 20k median), concurrent_reads, http_throughput (keep-alive
# fleet, shed at 2x overload, 50ms deadline probe), obs_overhead,
# memory_footprint (compact substrate ≥ 30% under the legacy layout)
# and store_recovery smoke runs, the cx-check correctness sweep at both
# thread counts (invariants + differential oracles incl. snapshot
# pinning, incremental-vs-scratch and scratch-reuse + API fuzz + the
# kill-replay durability oracle over a seeded graph/query matrix), and
# the standalone benchmark/ package
# (its own workspace with path deps on crates/*, so the workspace build
# above does not compile it): its tests plus a --quick run. Run from
# anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release --workspace =="
cargo build --release --workspace

echo "== cargo test -q --workspace (CX_THREADS=1) =="
CX_THREADS=1 cargo test -q --workspace

echo "== cargo test -q --workspace (CX_THREADS=8) =="
CX_THREADS=8 cargo test -q --workspace

echo "== snapshot stress (8 readers + 1 writer over HTTP, CX_THREADS=1) =="
CX_THREADS=1 cargo test -q -p cx-server --test concurrent_stress

echo "== snapshot stress (8 readers + 1 writer over HTTP, CX_THREADS=8) =="
CX_THREADS=8 cargo test -q -p cx-server --test concurrent_stress

echo "== par_scaling smoke (5k vertices, 2 samples) =="
cargo run -q --release -p cx-bench --bin par_scaling -- 5000 2

echo "== query_hotpath smoke (0 allocs/query, engine median <= 0.4ms, CX_THREADS=1) =="
CX_THREADS=1 cargo run -q --release -p cx-bench --bin query_hotpath -- 20000 2 --smoke --max-engine-ms 0.4

echo "== query_hotpath smoke (0 allocs/query, engine median <= 0.4ms, CX_THREADS=8) =="
CX_THREADS=8 cargo run -q --release -p cx-bench --bin query_hotpath -- 20000 2 --smoke --max-engine-ms 0.4

echo "== concurrent_reads smoke (reader p99 under writer ≤ 2x, CX_THREADS=1) =="
CX_THREADS=1 cargo run -q --release -p cx-bench --bin concurrent_reads -- 5000 20

echo "== concurrent_reads smoke (reader p99 under writer ≤ 2x, CX_THREADS=8) =="
CX_THREADS=8 cargo run -q --release -p cx-bench --bin concurrent_reads -- 5000 20

echo "== http_throughput smoke (keep-alive fleet, 2x-overload shed, 50ms deadline probe, CX_THREADS=1) =="
CX_THREADS=1 cargo run -q --release -p cx-bench --bin http_throughput -- 2000 64 5 100000

echo "== http_throughput smoke (keep-alive fleet, 2x-overload shed, 50ms deadline probe, CX_THREADS=8) =="
CX_THREADS=8 cargo run -q --release -p cx-bench --bin http_throughput -- 2000 64 5 100000

echo "== obs_overhead smoke (instrumented vs CX_OBS=off, 5% acceptance) =="
cargo run -q --release -p cx-bench --bin obs_overhead -- 4000 100

echo "== memory_footprint smoke (u32 CSR + interned profiles ≥ 30% under legacy, CX_THREADS=1) =="
CX_THREADS=1 cargo run -q --release -p cx-bench --bin memory_footprint -- 100000 --smoke

echo "== memory_footprint smoke (u32 CSR + interned profiles ≥ 30% under legacy, CX_THREADS=8) =="
CX_THREADS=8 cargo run -q --release -p cx-bench --bin memory_footprint -- 100000 --smoke

echo "== store_recovery smoke (WAL append + replay-on-boot at 5k, CX_THREADS=1) =="
CX_THREADS=1 cargo run -q --release -p cx-bench --bin store_recovery -- 5000 40 --smoke

echo "== store_recovery smoke (WAL append + replay-on-boot at 5k, CX_THREADS=8) =="
CX_THREADS=8 cargo run -q --release -p cx-bench --bin store_recovery -- 5000 40 --smoke

echo "== cx-check seed matrix (3 sizes x 2 seeds x 4 queries + fuzz + kill-replay, CX_THREADS=1) =="
CX_THREADS=1 cargo run -q --release -p cx-check --bin cx-check -- \
  --sizes 60,200,800 --seeds 7,21 --queries 4 --fuzz 600 --kill-replay 25

echo "== cx-check seed matrix (3 sizes x 2 seeds x 4 queries + fuzz + kill-replay, CX_THREADS=8) =="
CX_THREADS=8 cargo run -q --release -p cx-check --bin cx-check -- \
  --sizes 60,200,800 --seeds 7,21 --queries 4 --fuzz 600 --kill-replay 25

echo "== benchmark/ package tests =="
cargo test -q --manifest-path benchmark/Cargo.toml

echo "== benchmark/run.sh --quick (end-to-end smoke over /api/v1) =="
bash benchmark/run.sh --quick

echo "== ci.sh: all green =="
