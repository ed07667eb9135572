#!/usr/bin/env bash
# Build the benchmark from source and run it.
#
#   benchmark/run.sh                      every workload, end-to-end metrics
#   benchmark/run.sh --trace              every workload, per-layer metrics and budget tables
#   benchmark/run.sh --quick              ~10 s smoke; numbers not comparable
#   benchmark/run.sh --repeat-check       the suite twice; fails when a metric leaves its bound
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                         one workload; last stdout line is the result JSON
#
# Build output goes to $CARGO_TARGET_DIR when set, else to target/benchmark.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2

# Provenance the binary cannot find out by itself.
if [ "$(git rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
    rev="$(git rev-parse --short=12 HEAD)"
    git diff --quiet HEAD -- . 2>/dev/null || rev="$rev-dirty"
else
    rev="unknown"
fi
export QCS_BENCH_GIT_REV="$rev"
export QCS_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export QCS_BENCH_OUT="benchmark/out"

exec "$CARGO_TARGET_DIR/release/qcs-benchmark" "$@"
