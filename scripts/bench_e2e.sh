#!/usr/bin/env bash
# End-to-end deliveries/sec benchmark for the throughput-mode channels
# (DESIGN.md §11), distilled into BENCH_e2e.json in the build directory
# (copy it to the repo root by hand to refresh the recorded runs).
#
# Scenarios (virtual time on the discrete-event simulator, so runs are
# deterministic per seed and comparable across machines):
#   clean       LAN, seed configuration (batch=1, depth=1) vs batched+
#               pipelined (batch=16, depth=4) — gated: the batched run
#               must deliver >= 3x the seed's deliveries/sec.
#   chaos       same comparison under seeded cross-link reordering (the
#               in-simulator analog of the cluster runner's chaos proxy).
#   wan         the paper's Internet topology (Fig. 3 RTT matrix).
#   closed      closed-loop latency shape (p50/p99 per-request latency).
#   client_lan  real 4-process cluster serving a client_swarm over a
#               clean loopback LAN: external requests/sec plus client-
#               observed p50/p99 reply-quorum latency (DESIGN.md §12).
#
# Short mode (default, used by ctest) runs clean + chaos + wan + closed on
# the simulator plus a small client_lan cluster run.  Full mode (--full or
# SINTRA_BENCH_E2E_MODE=full) also drives a real 4-process cluster through
# the chaos proxy with --bench-load (wall-clock deliveries/sec via
# scripts/run_local_cluster.sh) and a 2000-client client_chaos run.
#
# Usage: scripts/bench_e2e.sh [--full] [build_dir]   (default: ./build)
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
mode="${SINTRA_BENCH_E2E_MODE:-short}"
build_dir=""
for arg in "$@"; do
  case "$arg" in
    --full) mode="full" ;;
    *) build_dir="$arg" ;;
  esac
done
build_dir="${build_dir:-$repo_root/build}"

if [[ ! -d "$build_dir" ]]; then
  cmake -S "$repo_root" -B "$build_dir" -DCMAKE_BUILD_TYPE=Release
fi
cmake --build "$build_dir" --target e2e_throughput sintra_node dealer_tool \
  udp_chaos_proxy client_swarm -j"$(nproc)"

bench="$build_dir/bench/e2e_throughput"
raw="$(mktemp)"
swarm_json="$(mktemp)"
cluster_log="$(mktemp)"
trap 'rm -f "$raw" "$swarm_json" "$cluster_log"' EXIT

# Real-cluster client-service datapoint: the swarm's JSON summary is
# relabeled and merged alongside the simulator runs, with the cluster's
# client.shed total next to the swarm's retransmits and latencies (the
# clients scenario overdrives admission on purpose, and the retransmits
# of shed requests set its p99).
run_clients() {  # run_clients <label> <clients> <chaos 0|1>
  local label="$1" clients="$2" chaos="$3"
  echo "# e2e: $label" >&2
  : > "$swarm_json"
  "$repo_root/scripts/run_local_cluster.sh" --scenario clients \
    --swarm-clients "$clients" --swarm-chaos "$chaos" \
    --swarm-json "$swarm_json" --build-dir "$build_dir" 2>&1 |
    tee "$cluster_log" >&2
  python3 -c '
import json, re, sys
r = json.load(open(sys.argv[1]))
r["label"] = sys.argv[2]
shed = re.search(r"== metrics path: .*client\.shed=(\d+)",
                 open(sys.argv[3]).read())
r["client_shed"] = int(shed.group(1)) if shed else None
print(json.dumps(r))' "$swarm_json" "$label" "$cluster_log" >>"$raw"
}

msgs="${SINTRA_BENCH_E2E_MSGS:-240}"

run() {  # run <label> <extra args...>
  local label="$1"; shift
  echo "# e2e: $label" >&2
  "$bench" --label "$label" --messages "$msgs" "$@" >>"$raw"
}

# The gated pair: identical workload, seed configuration vs throughput
# mode (batch >= 16, depth >= 4), clean LAN simulator.
run clean-seed    --batch-count 1  --pipeline-depth 1
run clean-batched --batch-count 16 --pipeline-depth 4
# Robustness scenarios.
run chaos-seed    --batch-count 1  --pipeline-depth 1 --chaos
run chaos-batched --batch-count 16 --pipeline-depth 4 --chaos
run wan-batched   --batch-count 16 --pipeline-depth 4 --topology wan
run closed-batched --batch-count 16 --pipeline-depth 4 --mode closed
run secure-batched --channel secure --batch-count 8 --pipeline-depth 2 \
  --messages 48
# External clients against a real cluster, clean LAN: small in short
# mode so ctest stays quick.
run_clients client_lan "${SINTRA_BENCH_E2E_CLIENTS:-400}" 0

if [[ "$mode" == "full" ]]; then
  run_clients client_chaos 2000 1
  run wan-seed --batch-count 1 --pipeline-depth 1 --topology wan
  run wan-deep --batch-count 32 --pipeline-depth 8 --topology wan
  # Real processes through the chaos proxy, sustained --bench-load; the
  # runner checks total order, we time deliveries at node 0.
  t0="$(date +%s.%N)"
  "$repo_root/scripts/run_local_cluster.sh" --scenario chaos \
    --batch-count 16 --pipeline-depth 4 --bench-load 400x128 >&2
  t1="$(date +%s.%N)"
  echo "{\"label\":\"cluster-chaos-batched\",\"wall_s\":$(awk "BEGIN{printf \"%.3f\", $t1-$t0}"),\"deliveries\":1600}" >>"$raw"
fi

python3 - "$raw" "$build_dir/BENCH_e2e.json" <<'PY'
import json
import sys

raw_path, out_path = sys.argv[1], sys.argv[2]
runs = {}
with open(raw_path) as f:
    for line in f:
        line = line.strip()
        if not line:
            continue
        r = json.loads(line)
        runs[r["label"]] = r

def dps(label):
    r = runs.get(label)
    return r.get("deliveries_per_sec") if r else None

def ratio(seed, fast):
    s, f = dps(seed), dps(fast)
    if not s or not f:
        return None
    return round(f / s, 2)

out = {
    "description": "End-to-end atomic-broadcast throughput (virtual time, "
                   "discrete-event simulator): deliveries/sec and p50/p99 "
                   "delivery latency at the measurement node P0. "
                   "*-seed runs use the seed configuration (batch=1, "
                   "depth=1); *-batched runs use proposer batching + "
                   "pipelined rounds (DESIGN.md §11). client_* runs drive "
                   "a real 4-process cluster with a client_swarm of "
                   "signed external requests (wall clock): requests/sec "
                   "and client-observed p50/p99 reply-quorum latency, "
                   "with the swarm's retransmits and the cluster's "
                   "client.shed total (DESIGN.md §12).",
    "runs": runs,
    "speedups_deliveries_per_sec": {
        "clean": ratio("clean-seed", "clean-batched"),
        "chaos": ratio("chaos-seed", "chaos-batched"),
    },
}

with open(out_path, "w") as f:
    json.dump(out, f, indent=2)
    f.write("\n")

sp = out["speedups_deliveries_per_sec"]
print(f"wrote {out_path}")
print(f"  clean throughput speedup (batch=16,depth=4 vs seed): {sp['clean']}x")
print(f"  chaos throughput speedup (batch=16,depth=4 vs seed): {sp['chaos']}x")
for label, r in runs.items():
    if "deliveries_per_sec" in r and not r.get("completed", True):
        sys.exit(f"FAIL: scenario {label} did not complete")
if sp["clean"] is None or sp["clean"] < 3.0:
    sys.exit(f"FAIL: clean throughput speedup {sp['clean']}x is below the "
             "3x acceptance bar")
PY
