#!/usr/bin/env bash
# Alternating parent/change pairs of the benchmark: a git revision against
# the working tree, summarised by the rule a claimed gain must meet (the
# change better in at least nine of ten pairs run, ties and pairs missing a
# record counting for neither, its median better by more than the parent's
# interquartile range, and no more of its operations failed).
#
#   scripts/pairs.sh REV WORKLOAD [--pairs N] [--seed S] [--seconds T]
#   scripts/pairs.sh --selftest
#
# Builds `git archive REV` and the working tree's benchmark package, each
# into its own target dir under ${TMPDIR:-/tmp}/massbft-pairs (kept, so a
# second call with the same REV only runs), then runs N pairs (default 10)
# of WORKLOAD for T seconds each (default 20, untraced): pair k on seed
# S+k (default S = 7), the parent first in even pairs and the change first
# in odd ones. Every run's result record (RESULT_<workload>.json: metrics,
# correctness, ledger head) goes to a JSONL file there, whose path is
# printed. The summary gives, per side, the median and quartiles of each
# end-to-end metric of BENCHMARK.json, the pairs the change won on it and
# whether the gain rule holds, then the per-pair cpu_us_per_txn ratio and
# in how many pairs the two ledger heads are equal.
#
# --selftest checks the summariser on inline synthetic pairs: no build, no
# run. The building side restores benchmark/Cargo.lock afterwards.
set -euo pipefail
repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

read -r -d '' SUMMARY <<'EOF' || true
import json, statistics, sys

def quartiles(xs):
    """(q1, median, q3), interpolated between order statistics."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

def summarise(records, metrics, requested):
    """Complete pairs, one row per (name, unit, better) metric, and the
    per-pair cpu_us_per_txn ratio change / parent. A gain holds when the
    change wins 9 in 10 of the `requested` pairs (an incomplete one is not
    won), its median beats the parent's by more than the parent's IQR, and
    no more of its operations failed than of the parent's."""
    by_pair = {}
    for r in records:
        by_pair.setdefault(r["pair"], {})[r["side"]] = r
    pairs = [p for _, p in sorted(by_pair.items()) if len(p) == 2]
    failed = {side: sum(r["result"]["failed"] for r in records if r["side"] == side)
              for side in ("parent", "change")}
    value = lambda p, side, name: p[side]["result"]["metrics"][name]["value"]
    rows = []
    for name, unit, better in metrics:
        sign = -1 if better == "lower" else 1
        parent = [value(p, "parent", name) for p in pairs]
        change = [value(p, "change", name) for p in pairs]
        wins = sum(sign * (c - q) > 0 for q, c in zip(parent, change))
        (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(parent), quartiles(change)
        gap, iqr = sign * (cmed - pmed), pq3 - pq1
        holds = wins >= 0.9 * requested and gap > iqr and failed["change"] <= failed["parent"]
        rows.append(dict(name=name, unit=unit, parent=(pq1, pmed, pq3),
                         change=(cq1, cmed, cq3), wins=wins, gap=gap, iqr=iqr, holds=holds))
    ratios = [value(p, "change", "cpu_us_per_txn") / value(p, "parent", "cpu_us_per_txn")
              for p in pairs]
    return pairs, rows, ratios

def report(records, metrics, requested):
    pairs, rows, ratios = summarise(records, metrics, requested)
    n = len(pairs)
    seeds = sorted(p["parent"]["seed"] for p in pairs)
    print(f"{n} of {requested} pairs complete, seeds {seeds[0]}..{seeds[-1]}" if n
          else f"no complete pair of {requested}")
    for side in ("parent", "change"):
        res = [r["result"] for r in records if r["side"] == side]
        print(f"  {side}: {len(res)} runs, {sum(r['correct'] for r in res)} correct, "
              f"failed {sum(r['failed'] for r in res)} of {sum(r['attempted'] for r in res)}")
    print(f"  {'metric':<20} {'unit':<6} {'parent median [q1 .. q3]':>30} "
          f"{'change median [q1 .. q3]':>30}  wins  gain rule")
    fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g} .. {q[2]:.4g}]"
    for r in rows:
        verdict = "holds" if r["holds"] else "fails"
        print(f"  {r['name']:<20} {r['unit']:<6} {fmt(r['parent']):>30} {fmt(r['change']):>30}"
              f"  {r['wins']:>2}/{requested}  {verdict} (gap {r['gap']:.4g}, parent IQR {r['iqr']:.4g})")
    if ratios:
        print("  cpu_us_per_txn change/parent by pair: "
              + " ".join(f"{x:.3f}" for x in ratios)
              + f"; median {statistics.median(ratios):.3f}")
    heads = [(p["parent"]["result"].get("ledger_head"), p["change"]["result"].get("ledger_head"))
             for p in pairs]
    heads = [(a, b) for a, b in heads if a is not None and b is not None]
    print(f"  ledger_head equal in {sum(a == b for a, b in heads)} of the {len(heads)} pairs "
          "that record it")

def selftest():
    metrics = [("cpu_us_per_txn", "us", "lower"), ("committed_tps", "txn/s", "higher")]
    def pair(k, parent, change, change_failed=0):
        rec = lambda side, cpu, tps, failed=0: {"pair": k, "side": side, "seed": 7 + k,
            "result": {"correct": True, "attempted": 10, "failed": failed,
            "metrics": {"cpu_us_per_txn": {"value": cpu}, "committed_tps": {"value": tps}}}}
        return [rec("parent", *parent), rec("change", *change, change_failed)]
    # cpu: parent 100..109, change 90..99 but pair 3 loses; tps: a tie everywhere.
    records = []
    for k in range(10):
        records += pair(k, (100 + k, 50), (90 + k if k != 3 else 120, 50))
    records.append({"pair": 10, "side": "parent", "seed": 17, "result": records[0]["result"]})
    pairs, rows, ratios = summarise(records, metrics, 10)
    cpu, tps = rows
    assert len(pairs) == 10, "the unpaired run is left out"
    assert cpu["parent"] == (102.25, 104.5, 106.75), cpu["parent"]
    assert cpu["change"] == (92.5, 95.5, 97.75), cpu["change"]
    assert cpu["wins"] == 9 and cpu["holds"], cpu
    assert abs(cpu["gap"] - 9.0) < 1e-9 and abs(cpu["iqr"] - 4.5) < 1e-9, cpu
    assert tps["wins"] == 0 and not tps["holds"], "ties count for neither side"
    assert abs(ratios[3] - 120 / 103) < 1e-12 and abs(ratios[0] - 0.9) < 1e-12, ratios
    # Pair 10 was run but is incomplete: 9 wins of 11 pairs run fall short.
    cpu = summarise(records, metrics, 11)[1][0]
    assert cpu["wins"] == 9 and not cpu["holds"], "an incomplete pair is not won"
    # The same numbers with one more failed operation on the change's side.
    failing = []
    for k in range(10):
        failing += pair(k, (100 + k, 50), (90 + k if k != 3 else 120, 50), int(k == 5))
    cpu = summarise(failing, metrics, 10)[1][0]
    assert cpu["wins"] == 9 and not cpu["holds"], "more failed operations void the gain"
    # The same wins with a parent spread wider than the gap: the rule fails.
    wide = []
    for k in range(10):
        wide += pair(k, (100 + 3 * k, 50), (97 + 3 * k if k != 3 else 120, 50))
    cpu = summarise(wide, metrics, 10)[1][0]
    assert cpu["wins"] == 9 and not cpu["holds"] and cpu["gap"] < cpu["iqr"], cpu
    # Eight wins in ten fail however large the gap.
    eight = []
    for k in range(10):
        eight += pair(k, (100 + k, 50), (50 + k if k not in (3, 4) else 200, 50))
    cpu = summarise(eight, metrics, 10)[1][0]
    assert cpu["wins"] == 8 and not cpu["holds"], cpu
    print("pairs.sh selftest: ok")

if sys.argv[1] == "selftest":
    selftest()
else:
    log, manifest, requested = sys.argv[2], sys.argv[3], int(sys.argv[4])
    records = [json.loads(line) for line in open(log) if line.strip()]
    ends = json.load(open(manifest))["end_to_end"]
    report(records, [(m["name"], m["unit"], m["better"]) for m in ends], requested)
EOF

if [[ "${1:-}" == --selftest ]]; then
  exec python3 -c "$SUMMARY" selftest
fi

usage="usage: scripts/pairs.sh REV WORKLOAD [--pairs N] [--seed S] [--seconds T] | --selftest"
rev="${1:?$usage}"
workload="${2:?$usage}"
shift 2
pairs=10 seed=7 seconds=20
while [[ $# -gt 0 ]]; do
  case "$1" in
    --pairs) pairs="${2:?$usage}" ;;
    --seed) seed="${2:?$usage}" ;;
    --seconds) seconds="${2:?$usage}" ;;
    *) echo "$usage" >&2; exit 2 ;;
  esac
  shift 2
done

short="$(git -C "$repo" rev-parse --short "$rev")"
work="${TMPDIR:-/tmp}/massbft-pairs"
mkdir -p "$work/$short" "$work/tree"
if [[ ! -e "$work/$short/src/BENCHMARK.json" ]]; then
  mkdir -p "$work/$short/src"
  git -C "$repo" archive "$short" | tar -x -C "$work/$short/src"
fi
build() { # manifest target-dir
  cargo build --release --offline --quiet --manifest-path "$1" --target-dir "$2" >&2
}
echo "building $short and the working tree's benchmark under $work" >&2
build "$work/$short/src/benchmark/Cargo.toml" "$work/$short/target"
lock="$(mktemp)"
cp "$repo/benchmark/Cargo.lock" "$lock"
build "$repo/benchmark/Cargo.toml" "$work/tree/target" || { cp "$lock" "$repo/benchmark/Cargo.lock"; exit 1; }
cp "$lock" "$repo/benchmark/Cargo.lock"
rm -f "$lock"

# What benchmark/run.sh does besides building: program defaults, provenance.
unset MASSBFT_EXEC_WORKERS MASSBFT_EXEC_FALLBACK
log="$work/pairs-$short-$workload-$(date +%Y%m%d-%H%M%S).jsonl"
run() { # pair side
  local dir bin manifest commit line
  if [[ $2 == parent ]]; then
    dir="$work/$short" manifest="$work/$short/src/BENCHMARK.json" commit="$short"
  else
    dir="$work/tree" manifest="$repo/BENCHMARK.json"
    commit="$(git -C "$repo" rev-parse --short HEAD)+tree"
  fi
  bin="$dir/target/release/massbft-benchmark"
  rm -f "$dir/out/RESULT_$workload.json"
  BENCH_GIT_COMMIT="$commit" "$bin" --out-dir "$dir/out" --manifest "$manifest" --build-s 0 \
    --workload "$workload" --seed $((seed + $1)) --seconds "$seconds" --trace 0 >/dev/null || true
  if [[ ! -s "$dir/out/RESULT_$workload.json" ]]; then
    echo "pair $1 $2: no result record" >&2
    return
  fi
  line="$(cat "$dir/out/RESULT_$workload.json")"
  printf '{"pair": %d, "side": "%s", "seed": %d, "result": %s}\n' \
    "$1" "$2" $((seed + $1)) "$line" >>"$log"
  echo "pair $1 $2: $(python3 -c 'import json,sys; m=json.loads(sys.argv[1])["metrics"]; print("cpu_us_per_txn", m["cpu_us_per_txn"]["value"])' "$line")" >&2
}
for ((k = 0; k < pairs; k++)); do
  if ((k % 2 == 0)); then
    run "$k" parent
    run "$k" change
  else
    run "$k" change
    run "$k" parent
  fi
done
echo "results: $log"
python3 -c "$SUMMARY" summary "$log" "$repo/BENCHMARK.json" "$pairs"
