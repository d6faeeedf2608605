#!/usr/bin/env bash
# Repo gate: formatting, lints, and the tier-1 build+test suite.
# Usage: scripts/check.sh [--fast]   (--fast skips the release build)
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# A cgroup file walk per call (~17 us in a container): the core count is
# resolved once per process, in massbft_accel::host_cores().
echo "==> available_parallelism only inside host_cores()"
if grep -rn "available_parallelism" crates/*/src | grep -v "^crates/accel/src/lib.rs:"; then
  echo "error: ask massbft_accel::host_cores() for the core count" >&2
  exit 1
fi

# `unsafe` lives in one crate, next to its safety arguments: the SIMD
# kernels and the epoll binding of crates/accel. Everywhere else it is a
# gate, not a convention (comments and forbid(unsafe_code) may say the
# word).
echo "==> unsafe only under crates/accel/src"
if grep -rnE '\bunsafe[[:space:]]*(\{|fn\b|impl\b|extern\b|trait\b)|allow\(unsafe_code\)' \
    --include='*.rs' crates/*/src | grep -v "^crates/accel/src/"; then
  echo "error: unsafe code belongs in crates/accel/src, behind a safe function" >&2
  exit 1
fi

# Size ratchet: the protocol node was one 2 440-line file once; its parts
# (and everything else in core) stay small enough to read in one sitting.
# The bench programs share one runner and one flag reader (run.rs,
# report.rs); a tighter limit there keeps them from forking back into
# per-program copies. The TCP runtime's largest file is the frame codec
# (834); the reactor and the connection plane stay well under it. The
# unsafe crate's largest file is its SIMD kernels (225); the epoll binding
# stays under them.
oversized=0
for limit in crates/core/src:1000 crates/bench/src:600 crates/runtime/src:850 \
    crates/accel/src:225; do
  dir=${limit%:*} max=${limit#*:}
  echo "==> no file under $dir above $max non-test lines"
  while IFS= read -r -d '' file; do
    read -r lines _ < <(scripts/loc.sh "$file")
    if ((lines > max)); then
      echo "error: $file has $lines non-test lines (scripts/loc.sh)" >&2
      oversized=1
    fi
  done < <(find "$dir" -name '*.rs' -print0)
done
((oversized == 0)) || exit 1

# Executed content is archived only on the nodes ProtocolParams::
# repair_targets names, so a node asks for an entry on one path only:
# Node::on_repair_timer. A second request path would ask nodes that keep
# nothing. Patterns (`Msg::EntryRequest { .. } =>`) and unit tests do not
# count.
echo "==> Msg::EntryRequest built only in on_repair_timer"
if find crates/core/src -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1 { counting = 1; name = "" }
        /^#\[cfg\(test\)\]/ { counting = 0 }
        counting && /^[[:space:]]*(pub[^ ]* )?fn [a-z_0-9]+/ {
          name = $0; sub(/^.*fn /, "", name); sub(/[^a-z_0-9].*$/, "", name)
        }
        counting && /Msg::EntryRequest \{/ && !/=>/ && name != "on_repair_timer" {
          print FILENAME ":" FNR ": " $0; found = 1
        }
        END { exit !found }'; then
  echo "error: only Node::on_repair_timer asks for an entry (repair_targets)" >&2
  exit 1
fi

# The reactors wait on an interest set the kernel keeps (epoll); the
# per-turn scan of every descriptor it replaced does not come back.
echo "==> no ppoll under crates/"
if grep -rn "ppoll" crates/; then
  echo "error: the reactors wait in massbft_accel::Poller (epoll), not ppoll" >&2
  exit 1
fi

# A reactor waits for its node's lock; no second path works around a held
# one. Deadlock-freedom rests on readers holding one node at a time
# (runtime cluster.rs module docs), not on the reactor never waiting.
echo "==> no try_lock under crates/runtime/src"
if grep -rnE "try_lock|TryLockError" crates/runtime/src; then
  echo "error: the reactor takes a node's lock and waits for it" >&2
  exit 1
fi

# The alternating-pairs summariser (medians, quartiles, wins, the rule a
# claimed gain must meet) on inline synthetic data: no build, no run.
echo "==> scripts/pairs.sh --selftest"
scripts/pairs.sh --selftest

if [[ $fast -eq 0 ]]; then
  echo "==> cargo build --release (tier-1)"
  cargo build --release --workspace
fi

echo "==> cargo test -q (tier-1)"
cargo test -q --workspace

if [[ $fast -eq 0 ]]; then
  # Telemetry gate: capture a short simulator trace and validate the
  # emitted JSON, down to the flow arrows the stitcher draws between node
  # tracks and the ring loss the cluster track declares. The bin itself
  # exits non-zero if the Chrome trace is structurally invalid or the
  # trace-derived breakdown disagrees with the protocol layer's
  # accounting by more than 1%.
  echo "==> trace capture smoke test"
  tracedir=$(mktemp -d)
  cargo run --release -q -p massbft-bench --bin trace -- \
    --secs 1 --arrival-tps 4000 --out "${tracedir}/TRACE_geo"
  [[ -s "${tracedir}/TRACE_geo.json" && -s "${tracedir}/TRACE_geo.jsonl" ]]
  if command -v python3 >/dev/null 2>&1; then
    python3 - "${tracedir}/TRACE_geo.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
assert isinstance(events, list) and events, "empty trace"
assert all("ph" in e and "pid" in e for e in events), "malformed event"
phases = {e["name"] for e in events if e.get("cat") == "phase"}
spans = sum(1 for e in events if e["ph"] == "b")
assert spans and {"submitted", "certified", "executed"} <= phases, phases
starts = {e["id"] for e in events if e["ph"] == "s"}
flows = starts & {e["id"] for e in events if e["ph"] == "f"}
assert flows, "no flow pair: the stitcher paired no hop"
tracks = [e["args"]["name"] for e in events if e["ph"] == "M" and e["name"] == "process_name"]
assert any(t.startswith("cluster") and "ring_dropped=" in t for t in tracks), tracks
print(f"    trace JSON valid: {len(events)} records, {spans} spans, {len(flows)} flow arrows")
EOF
  fi
  rm -rf "${tracedir}"

  # Scale-sweep gate: the simulator sweep's smoke mode runs the 4x4
  # nationwide and 8x8 worldwide points twice each on one seed and exits
  # non-zero on a determinism divergence (ledger head, event count or
  # final virtual time) or a blown wall-clock budget. Reduced rate/length
  # vs the full sweep keeps the gate fast; the topology is the full bench
  # topology.
  echo "==> scale sweep smoke test"
  scaledir=$(mktemp -d)
  cargo run --release -q -p massbft-bench --bin sweep -- --driver sim \
    --smoke --secs 1 --arrival-tps 1000 --budget-secs 240 \
    --out "${scaledir}/BENCH_scale.json"
  [[ -s "${scaledir}/BENCH_scale.json" ]]
  rm -rf "${scaledir}"

  # Execution phase-regression gate: re-measures the reserve+commit
  # phase share (quick profile, best of 9) and exits non-zero when it
  # exceeds the gate_baseline recorded in BENCH_execution.json by >15%
  # (measured scheduler noise is ~±13%). Phase *shares* cancel host
  # speed but not core count, so the gate compares only on a host with
  # the core count that recorded the baseline and says so otherwise.
  echo "==> execution phase-regression gate"
  cargo run --release -q -p massbft-bench --bin execution -- --gate

  # Wall-clock runtime gates (real TCP over loopback, real threads):
  #
  # 1. Cross-driver equivalence: the simulator and the TCP runtime must
  #    build byte-identical ledgers on timing-independent workloads
  #    (already covered by `cargo test` above via tests/cross_driver.rs,
  #    but named here so a failure is attributable).
  # 2. TCP fault-matrix subset: crash + view-change takeover and
  #    partition/heal over real sockets.
  # 3. TCP sweep smoke: one nationwide point, short window; exits
  #    non-zero on inconsistency, zero progress, or a blown budget.
  echo "==> cross-driver equivalence (sim vs TCP runtime)"
  cargo test -q --release --test cross_driver

  echo "==> TCP fault-matrix subset"
  cargo test -q --release -p massbft-runtime --test tcp_faults

  echo "==> TCP sweep smoke test"
  walldir=$(mktemp -d)
  cargo run --release -q -p massbft-bench --bin sweep -- --driver tcp \
    --smoke --budget-secs 240 --out "${walldir}/BENCH_wallclock.json"
  [[ -s "${walldir}/BENCH_wallclock.json" ]]
  rm -rf "${walldir}"

  # The repo's benchmark (BENCHMARK.json) at one tenth length: all four
  # workloads, each in its own process, with every correctness check
  # and the output schema — no numbers are compared. It builds its own
  # package (benchmark/target/) and writes only under benchmark/out/.
  echo "==> benchmark smoke (benchmark/run.sh --smoke)"
  benchmark/run.sh --smoke

  # Ops-plane gate: an in-process cluster scraped through its real HTTP
  # endpoints — /metrics golden series, /status rows for every node,
  # /trace stitched into cross-node spans, and a forced flight-recorder
  # dump. (The same endpoints are asserted in tier-1 by
  # crates/runtime/tests/ops_plane.rs.)
  echo "==> observability selftest"
  obsdir=$(mktemp -d)
  cargo run --release -q -p massbft-bench --bin obs -- \
    --selftest --out "${obsdir}/BENCH_obs.json"
  [[ -s "${obsdir}/BENCH_obs.json" ]]
  rm -rf "${obsdir}"

  # Fault-matrix gate: run every adversary scenario on a short clock. The
  # bin exits non-zero if any scenario's tail runs below half its offered
  # load (what a fault left behind must be caught up with) or ends in
  # a cross-node consistency violation.
  echo "==> fault matrix smoke test"
  faultdir=$(mktemp -d)
  cargo run --release -q -p massbft-bench --bin faults -- \
    --secs 6 --out "${faultdir}/BENCH_faults.json"
  [[ -s "${faultdir}/BENCH_faults.json" ]]
  if command -v python3 >/dev/null 2>&1; then
    python3 - "${faultdir}/BENCH_faults.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
scenarios = doc["scenarios"]
assert len(scenarios) >= 9, f"only {len(scenarios)} scenarios"
for s in scenarios:
    assert s["recovered"], f"{s['name']} did not recover"
    assert s["consistent"], f"{s['name']} diverged"
    assert s["timeline"], f"{s['name']} has no timeline"
print(f"    fault matrix ok: {len(scenarios)} scenarios recovered")
EOF
  fi
  rm -rf "${faultdir}"
fi

echo "OK"
