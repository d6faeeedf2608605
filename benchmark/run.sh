#!/usr/bin/env bash
# The repo's benchmark, one command. Builds the benchmark package from
# source (its own workspace; nothing outside benchmark/ is built into the
# repo's target/), then hands every argument to the binary:
#
#   benchmark/run.sh [--seed N] [--workload NAME] [--traced] [--repeat K] [--smoke]
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# See benchmark/README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# Program defaults are what is measured (tcp_3x4_steady alone sets the abort
# fallback, through ClusterConfig).
unset MASSBFT_EXEC_WORKERS MASSBFT_EXEC_FALLBACK

target="${CARGO_TARGET_DIR:-$here/target}"
build_started=$(date +%s.%N)
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
build_s=$(echo "$(date +%s.%N) $build_started" | awk '{printf "%.2f", $1 - $2}')

if [ -e "$here/../.git" ]; then
    BENCH_GIT_COMMIT="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
else
    BENCH_GIT_COMMIT=unknown
fi
export BENCH_GIT_COMMIT

exec "$target/release/massbft-benchmark" \
    --out-dir "$here/out" --manifest "$here/../BENCHMARK.json" --build-s "$build_s" "$@"
