#!/usr/bin/env bash
# Sampled CPU profile of the unmodified benchmark binary on one workload
# (method and caveats: EXPERIMENTS.md, "Profiling the benchmark binary").
#
#   scripts/prof/run.sh WORKLOAD [PATTERN...]
#
# Builds the benchmark with debug info (no change to code generation) into
# a scratch target dir, runs WORKLOAD (seed 7, 20 s, untraced) under the
# SIGPROF sampler and prints report.py's output: top inclusive and self
# shares, or the inclusive share of each PATTERN. Needs gcc, addr2line and
# python3; everything it writes goes under ${TMPDIR:-/tmp}/massbft-prof.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
repo="$(cd "$here/../.." && pwd)"
workload="${1:?usage: scripts/prof/run.sh WORKLOAD [PATTERN...]}"
shift
scratch="${TMPDIR:-/tmp}/massbft-prof"
mkdir -p "$scratch"

gcc -O2 -shared -fPIC -o "$scratch/sampler.so" "$here/sampler.c"
CARGO_PROFILE_RELEASE_DEBUG=true cargo build --release --offline --quiet \
    --manifest-path "$repo/benchmark/Cargo.toml" --target-dir "$scratch/target" >&2
bin="$scratch/target/release/massbft-benchmark"

LD_PRELOAD="$scratch/sampler.so" SAMPLER_OUT="$scratch/prof.txt" "$bin" \
    --out-dir "$scratch/out" --manifest "$repo/BENCHMARK.json" --build-s 0 \
    --workload "$workload" --seed 7 --seconds 20 --trace 0 >&2
python3 "$here/report.py" "$bin" "$scratch/prof.txt" "$@"
