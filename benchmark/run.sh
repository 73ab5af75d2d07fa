#!/usr/bin/env bash
# The one command of the benchmark.
#
#   benchmark/run.sh                      all four workloads, then their traced runs
#   benchmark/run.sh --quick              the same at smoke scale (well under a minute)
#   benchmark/run.sh --workload NAME      one workload (end-to-end run + traced run)
#   benchmark/run.sh --seed N --passes N  another seed; a fixed number of measured passes
#
# The driver's form runs exactly one process and ends with one JSON line:
#   benchmark/run.sh --workload NAME --seed N --seconds N --trace 0|1
#
# Prints every metric as `workload metric value unit`, writes
# benchmark/out/results.json, exits non-zero if any run saw an error.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$ROOT"

# Offline release build of this package only; the crates come in as path
# dependencies, so this fails (and the script with it) where they are absent.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
BIN="${CARGO_TARGET_DIR:-benchmark/target}/release"

export CXB_GIT_REV="$(GIT_CEILING_DIRECTORIES="$(dirname "$ROOT")" git -C "$ROOT" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export CXB_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"

trace="" workloads="" quick="" budget="" pass=()
while [ $# -gt 0 ]; do
  case "$1" in
    --trace) trace="$2"; shift 2 ;;
    --workload) workloads="$2"; shift 2 ;;
    --seed) pass+=("$1" "$2"); shift 2 ;;
    --seconds|--passes) budget=1; pass+=("$1" "$2"); shift 2 ;;
    --quick) quick=1; pass+=("$1"); shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
# A smoke run measures two passes, not ten seconds' worth.
if [ -n "$quick" ] && [ -z "$budget" ]; then pass+=(--passes 2); fi

if [ -n "$trace" ]; then
  [ -n "$workloads" ] || { echo "run.sh: --trace needs --workload" >&2; exit 2; }
  if [ "$trace" = 1 ]; then exe=cxb-trace; else exe=cxb; fi
  exec "$BIN/$exe" run --workload "$workloads" --trace "$trace" "${pass[@]}"
fi

[ -n "$workloads" ] || workloads="acq_miss_100k acq_miss_1m browse_hit_100k edit_churn_100k"
# Stale per-run files must not be merged into this run's results.
rm -f benchmark/out/*.json
# The contract line each run ends with is for the driver; drop it here.
for w in $workloads; do "$BIN/cxb" run --workload "$w" "${pass[@]}" | grep -v '^{'; done
for w in $workloads; do "$BIN/cxb-trace" run --workload "$w" "${pass[@]}" | grep -v '^{'; done
"$BIN/cxb" report
