#!/usr/bin/env bash
# Tier-1 verification wrapper. Ten steps, none of whose verdict depends
# on a wall-clock measurement:
#
#   1. release build of the workspace;
#   2. rustdoc of every crate with warnings as errors, so a doc link left
#      pointing at a deleted or private item fails the run;
#   3. clippy over every crate and target (tests included) with warnings
#      as errors, then `rustfmt --check` over the files formatted under
#      the root rustfmt.toml so far (crates/server/src/routes/, the
#      CXG1 codec in crates/graph/src/{codec,io}.rs and the checkpoint
#      path in crates/store/src/{crc,sealed,snapshot,store}.rs);
#   4. the tests of the standalone benchmark/ package (its own workspace
#      with path deps on crates/*, so step 1 does not compile it) — early,
#      so an engine API the benchmark uses that went missing fails fast;
#   5. the full test suite at CX_THREADS=1 and
#   6. again at CX_THREADS=8 (every parallel helper promises thread-count
#      independence; the suite holds the zero-allocation hot path, the
#      shed-not-reset overload contract and the 8-reader/1-writer
#      snapshot stress), both with --all-features, so a test gated
#      behind a cargo feature cannot sit uncompiled while this is green;
#   7. the cx-check correctness sweep at CX_THREADS=1 and
#   8. again at CX_THREADS=8 (invariants + differential oracles incl.
#      snapshot pinning, incremental-vs-scratch, scratch reuse and CD
#      search vs. detect + API fuzz + the kill-replay durability oracle
#      over a seeded matrix: 64 crash cases = 8 each of two WAL cuts, a
#      WAL bit flip, the index sidecar missing / cut short / bit-flipped
#      / foreign, and a torn checkpoint left by a crashed compaction);
#   9. `cx experiments`: the paper's twelve measured experiments at the
#      sizes EXPERIMENTS.md quotes, red if any clock-free shape check
#      fails (timings are printed, never judged);
#  10. `benchmark/run.sh --quick`: every cxb workload end to end over
#      /api/v1 at smoke scale, every answer digest-checked.
#
# Performance is cxb's job (`bash benchmark/run.sh`, compared against
# benchmark/baseline.json), not a gate here. The run must also leave the
# working tree as it found it. Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

tree_before=$(git status --porcelain)

echo "== cargo build --release --workspace =="
cargo build --release --workspace

echo "== cargo doc --workspace --no-deps (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== cargo clippy --workspace --all-targets (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustfmt --check (the files formatted under rustfmt.toml) =="
rustfmt --check --edition 2021 crates/server/src/routes/*.rs \
  crates/graph/src/{codec,io}.rs crates/store/src/{crc,sealed,snapshot,store}.rs

echo "== benchmark/ package tests =="
cargo test -q --manifest-path benchmark/Cargo.toml

echo "== cargo test -q --workspace --all-features (CX_THREADS=1) =="
CX_THREADS=1 cargo test -q --workspace --all-features

echo "== cargo test -q --workspace --all-features (CX_THREADS=8) =="
CX_THREADS=8 cargo test -q --workspace --all-features

echo "== cx-check seed matrix (3 sizes x 2 seeds x 4 queries + fuzz + kill-replay, CX_THREADS=1) =="
CX_THREADS=1 cargo run -q --release -p cx-check --bin cx-check -- \
  --sizes 60,200,800 --seeds 7,21 --queries 4 --fuzz 600 --kill-replay 64

echo "== cx-check seed matrix (3 sizes x 2 seeds x 4 queries + fuzz + kill-replay, CX_THREADS=8) =="
CX_THREADS=8 cargo run -q --release -p cx-check --bin cx-check -- \
  --sizes 60,200,800 --seeds 7,21 --queries 4 --fuzz 600 --kill-replay 64

echo "== cx experiments (the paper's shape checks at the quoted sizes) =="
cargo run -q --release --bin cx -- experiments

echo "== benchmark/run.sh --quick (end-to-end smoke over /api/v1) =="
bash benchmark/run.sh --quick

tree_after=$(git status --porcelain)
if [ "$tree_before" != "$tree_after" ]; then
  echo "== ci.sh: RED — the run changed the working tree =="
  diff <(echo "$tree_before") <(echo "$tree_after") || true
  exit 1
fi

echo "== ci.sh: all green =="
