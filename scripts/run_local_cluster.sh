#!/usr/bin/env bash
# End-to-end loopback cluster: dealer keygen, n sintra_node processes
# (default n=4/t=1; --n raises the group size, t = ⌊(n-1)/3⌋) over real
# UDP sockets, total-order assertion on the delivered sequences.  Exits
# nonzero on divergence, node failure, or timeout.
#
# Usage:
#   scripts/run_local_cluster.sh [--scenario clean|crash|chaos|recover|clients]
#                                [--build-dir DIR] [--channel atomic|...]
#                                [--n N] [--send N] [--batch-count N]
#                                [--pipeline-depth W] [--bench-load MxB]
#                                [--swarm-clients C] [--swarm-chaos 0|1]
#                                [--no-mmsg] [--metrics-dir DIR]
#
# --batch-count / --pipeline-depth enable throughput mode (DESIGN.md
# §11) on every node; --bench-load MxB replaces --send with a sustained
# M-message load of B-byte payloads (scripts/bench_e2e.sh --full uses
# this for a wall-clock cluster datapoint).  --no-mmsg disables the
# sendmmsg/recvmmsg batched-syscall transport path on every node, and
# --metrics-dir exports the per-node metrics snapshots plus a small
# cluster summary before the workdir is cleaned (scripts/bench_scale.sh
# uses both for the syscalls-per-delivery comparison in
# BENCH_scale.json).
#
# Scenarios:
#   clean    all four nodes up, close protocol terminates the channel
#   crash    the last node SIGKILLs itself at its first durable delivery
#            (--crash-after-records 1, own --state-dir); it must die by
#            SIGKILL before completing, and the rest must still agree
#   chaos    all traffic through udp_chaos_proxy (loss/dup/reorder); the
#            link layer must heal it, and retransmissions + adaptive-RTO
#            backoff must be visible in the link stats
#   recover  every node runs with a durable --state-dir; node 3 SIGKILLs
#            itself at its first durable delivery (--crash-after-records
#            1) and is restarted with the same state dir —
#            it must replay its fsync'd log, catch up via a
#            threshold-signed checkpoint certificate, and finish with
#            the identical delivery sequence as the nodes that never
#            crashed (asserted below via the recovery.* metrics)
#   clients  every node serves a signed-request client lane (DESIGN.md
#            §12); a client_swarm of --swarm-clients concurrent
#            ReplicatedServiceClients drives requests through the chaos
#            proxy's client lanes (with loss/dup/reorder unless
#            --swarm-chaos 0).  Every request must complete with a t+1
#            reply quorum while admission control sheds the initial
#            burst (client.shed > 0), injected replays answer from the
#            reply caches (client.dedup_hits > 0), and forged frames
#            are dropped without replies (client.rejected_auth > 0).
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
scenario=clean
build_dir="$repo_root/build"
channel=atomic
n=4
send_count=5
send_count_set=0
batch_count=""
pipeline_depth=""
bench_load=""
swarm_clients="${SINTRA_SWARM_CLIENTS:-2000}"
swarm_chaos=1
swarm_json=""
no_mmsg=0
metrics_dir=""

while [[ $# -gt 0 ]]; do
  case "$1" in
    --scenario)       scenario="$2"; shift 2 ;;
    --build-dir)      build_dir="$2"; shift 2 ;;
    --channel)        channel="$2"; shift 2 ;;
    --n)              n="$2"; shift 2 ;;
    --send)           send_count="$2"; send_count_set=1; shift 2 ;;
    --batch-count)    batch_count="$2"; shift 2 ;;
    --pipeline-depth) pipeline_depth="$2"; shift 2 ;;
    --bench-load)     bench_load="$2"; shift 2 ;;
    --swarm-clients)  swarm_clients="$2"; shift 2 ;;
    --swarm-chaos)    swarm_chaos="$2"; shift 2 ;;
    --swarm-json)     swarm_json="$2"; shift 2 ;;
    --no-mmsg)        no_mmsg=1; shift ;;
    --metrics-dir)    metrics_dir="$2"; shift 2 ;;
    *) echo "unknown option: $1" >&2; exit 2 ;;
  esac
done

if (( n < 4 )); then
  echo "need --n >= 4 (got $n)" >&2
  exit 2
fi
t=$(( (n - 1) / 3 ))
last=$(( n - 1 ))

# --bench-load MxB drives the same per-node send loop as --send M, so
# the ordering floor below keys off M.
if [[ -n "$bench_load" ]]; then
  send_count="${bench_load%%x*}"
  send_count_set=1
fi

# A recover run must SIGKILL the last node strictly *mid-run* (after its first
# durable delivery, before completion); more payloads widen that window.
if [[ "$scenario" == recover && $send_count_set -eq 0 ]]; then
  send_count=12
fi

# The client scenario only generates totally-ordered traffic via the
# swarm; the nodes themselves send nothing.
if [[ "$scenario" == clients ]]; then
  send_count=0
fi

dealer="$build_dir/examples/dealer_tool"
node_bin="$build_dir/examples/sintra_node"
proxy_bin="$build_dir/examples/udp_chaos_proxy"
swarm_bin="$build_dir/examples/client_swarm"
required_bins=("$dealer" "$node_bin" "$proxy_bin")
[[ "$scenario" == clients ]] && required_bins+=("$swarm_bin")
for bin in "${required_bins[@]}"; do
  [[ -x "$bin" ]] || { echo "missing binary: $bin (build first)" >&2; exit 2; }
done

workdir="$(mktemp -d)"
pids=()
proxy_pid=""
cleanup() {
  local p
  for p in "${pids[@]:-}" "$proxy_pid"; do
    [[ -n "$p" ]] && kill "$p" 2>/dev/null || true
  done
  sleep 0.2
  for p in "${pids[@]:-}" "$proxy_pid"; do
    [[ -n "$p" ]] && kill -9 "$p" 2>/dev/null || true
  done
  rm -rf "$workdir"
}
trap cleanup EXIT

port_base="${SINTRA_CLUSTER_PORT_BASE:-$(( 20000 + ($$ % 20000) ))}"
proxy_base=$(( port_base + 50 ))

# Small crypto parameters: this validates transport and agreement, not
# key-size performance (bench/ covers that).
conf="$workdir/group.conf"
{
  echo "n = $n"
  echo "t = $t"
  echo "rsa_bits = 512"
  echo "dl_p_bits = 256"
  echo "dl_q_bits = 96"
  echo "hash = sha256"
  echo "signatures = multi"
  echo "seed = 1"
  for i in $(seq 0 $((n - 1))); do
    echo "party.$i = 127.0.0.1:$(( port_base + i ))"
  done
} > "$conf"

echo "== dealing keys (workdir $workdir, ports from $port_base)"
"$dealer" "$conf" "$workdir/keys" > /dev/null

node_args=(--channel "$channel" --stats)
if [[ "$no_mmsg" == 1 ]]; then
  node_args+=(--no-mmsg)
fi
if [[ -n "$bench_load" ]]; then
  node_args+=(--bench-load "$bench_load")
else
  node_args+=(--send "$send_count")
fi
if [[ -n "$batch_count" ]]; then
  node_args+=(--batch-count "$batch_count")
fi
if [[ -n "$pipeline_depth" ]]; then
  node_args+=(--pipeline-depth "$pipeline_depth")
fi
# Observability: every node writes a metrics snapshot + an event trace;
# aggregate_metrics.py merges the snapshots into a per-layer breakdown
# and greppable totals (used below for the chaos assertions).
metrics_files=()
for i in $(seq 0 $((n - 1))); do
  metrics_files+=("$workdir/metrics.$i.json")
done
# Client scenario plumbing: nodes bind client lanes at client_base+i,
# the swarm reaches them through the proxy's client lanes at
# proxy_base+n+j (NAT by the advisory client id in the frame header).
client_base=$(( port_base + 100 ))
swarm_requests=1
expect_total=$(( swarm_clients * swarm_requests ))
if [[ "$scenario" == clients ]]; then
  echo "== dealing $swarm_clients client keys"
  "$swarm_bin" --keygen --keys "$workdir/clients.keys" \
    --clients "$swarm_clients" --key-seed 5 2> /dev/null
  # Global admission far below the swarm's arrival rate (the ramp
  # spreads C clients over 1.5s, so scale the budget with C), so the
  # initial burst provably sheds; shed clients back off and retry until
  # their request lands (at-most-once makes the retries idempotent).
  client_global_rate=$(( swarm_clients / 3 ))
  (( client_global_rate >= 10 )) || client_global_rate=10
  node_args+=(--client-keys "$workdir/clients.keys"
              --client-rate 1000 --client-global-rate "$client_global_rate"
              --client-pending 256)
  if [[ -z "$batch_count" ]]; then node_args+=(--batch-count 64); fi
  if [[ -z "$pipeline_depth" ]]; then node_args+=(--pipeline-depth 4); fi
fi

if [[ "$scenario" == clients ]]; then
  # No close protocol here: a node is done once every swarm request has
  # executed exactly once (forged frames never execute, replays dedup).
  node_args+=(--expect "$expect_total")
elif [[ "$channel" == optimistic ]]; then
  node_args+=(--expect $(( n * send_count )))
else
  node_args+=(--close)
fi

if [[ "$scenario" == chaos ]]; then
  "$proxy_bin" "$conf" "127.0.0.1:$proxy_base" \
    --loss 0.10 --dup 0.05 --reorder-ms 25 --seed 7 \
    2> "$workdir/proxy.stats" &
  proxy_pid=$!
  node_args+=(--via "127.0.0.1:$proxy_base")
elif [[ "$scenario" == clients ]]; then
  # Milder chaos than the replica-lane scenario: thousands of clients
  # with RTO retransmissions amplify loss, and this scenario's job is
  # the client layer, not the link layer.  --swarm-chaos 0 drops the
  # impairments entirely (bench_e2e's clean-LAN datapoint).
  proxy_chaos_args=(--loss 0.05 --dup 0.02 --reorder-ms 10)
  if [[ "$swarm_chaos" == 0 ]]; then
    proxy_chaos_args=(--loss 0 --dup 0 --reorder-ms 0)
  fi
  "$proxy_bin" "$conf" "127.0.0.1:$proxy_base" \
    "${proxy_chaos_args[@]}" --seed 7 --client-ports "$client_base" \
    2> "$workdir/proxy.stats" &
  proxy_pid=$!
  node_args+=(--via "127.0.0.1:$proxy_base")
fi
# --linger -1: a completed node keeps serving (link retransmissions AND
# protocol responses from its closed-but-live channel) until we signal
# it.  We signal only once every expected node has written its .done
# marker, so no node ever exits while a slower peer still needs it —
# the liveness gap a fixed linger cannot close under heavy loss.
node_args+=(--linger -1)

# Launching is a function so the recover scenario can restart node 3
# with the exact same argument list (same --state-dir, same outputs;
# stderr appends so both incarnations' stats survive).
launch_node() {
  local i="$1"
  local extra=()
  # Chaos doubles as the Byzantine-share scenario: the last node (within
  # the corruption budget t >= 1) emits garbage threshold-signature
  # shares, so every honest node's optimistic combine must fall back,
  # blacklist it, and finish with the honest quorum (asserted below via
  # crypto.fallbacks).
  if [[ "$scenario" == chaos && $i -eq $last ]]; then
    extra+=(--corrupt-shares)
  fi
  if [[ "$scenario" == recover ]]; then
    extra+=(--state-dir "$workdir/state.$i" --checkpoint-interval 4)
    if [[ $i -eq $last && -z "${restarted:-}" ]]; then
      extra+=(--crash-after-records 1)
    fi
  fi
  # --crash-after-records counts durable records, so the crashing node
  # alone gets a state dir; it dies before its first checkpoint.
  if [[ "$scenario" == crash && $i -eq $last ]]; then
    extra+=(--state-dir "$workdir/state.$i" --crash-after-records 1)
  fi
  if [[ "$scenario" == clients ]]; then
    extra+=(--client-port $(( client_base + i )))
  fi
  "$node_bin" "$conf" "$workdir/keys/party-$i.keys" "${node_args[@]}" \
    ${extra[@]+"${extra[@]}"} \
    --out "$workdir/out.$i" \
    --metrics-out "$workdir/metrics.$i.json" \
    --trace-out "$workdir/trace.$i.jsonl" 2>> "$workdir/stats.$i" &
  pids[$i]=$!
}

echo "== starting $n nodes (scenario: $scenario, channel: $channel)"
for i in $(seq 0 $((n - 1))); do
  : > "$workdir/stats.$i"
  launch_node "$i"
done

# Waits for the last node to SIGKILL itself at its --crash-after-records
# point; fails unless it died by SIGKILL (status 128 + 9) before writing
# its .done marker.  The node does it itself, so the crash point is exact
# however fast the group runs.
await_self_crash() {
  local crash_deadline=$(( $(date +%s) + ${SINTRA_CLUSTER_TIMEOUT:-420} ))
  while kill -0 "${pids[$last]}" 2>/dev/null; do
    if [[ -e "$workdir/out.$last.done" ]]; then
      echo "FAIL: node $last completed before the crash point" >&2
      exit 1
    fi
    if (( $(date +%s) > crash_deadline )); then
      echo "FAIL: node $last never reached its crash point" >&2
      cat "$workdir/stats.$last" >&2 || true
      exit 1
    fi
    sleep 0.05
  done
  local crash_status=0
  wait "${pids[$last]}" 2>/dev/null || crash_status=$?
  if (( crash_status != 128 + 9 )) || [[ -e "$workdir/out.$last.done" ]]; then
    echo "FAIL: node $last exited with status $crash_status, not by" \
         "SIGKILL at its first durable delivery" >&2
    cat "$workdir/stats.$last" >&2 || true
    exit 1
  fi
  echo "== node $last SIGKILLed itself (status $crash_status) before completing"
}

expected=($(seq 0 $last))
if [[ "$scenario" == crash ]]; then
  # The last node SIGKILLs itself at its first durable delivery, so the
  # rest of the run goes on without it.
  await_self_crash
  expected=($(seq 0 $(( last - 1 ))))
fi

if [[ "$scenario" == recover ]]; then
  # The last node SIGKILLs itself right after its first *durable*
  # delivery — its replica log is fsync'd per record, so that is the
  # earliest point where a kill leaves state worth recovering.  Killing
  # at the first record (of n * send_count total) guarantees the restart
  # replays a partial log and must use catch-up, not a persisted final
  # cert.
  await_self_crash
  echo "== restarting node $last from $workdir/state.$last"
  restarted=1
  launch_node $last
fi

if [[ "$scenario" == clients ]]; then
  # Give the nodes a moment to bind their client lanes, then drive the
  # swarm in the foreground: its exit code is the per-request verdict
  # (0 iff every request got a t+1 kOk quorum, no rejections/timeouts).
  sleep 1
  swarm_targets=""
  for j in $(seq 0 $((n - 1))); do
    swarm_targets+="${swarm_targets:+,}127.0.0.1:$(( proxy_base + n + j ))"
  done
  echo "== driving $swarm_clients clients through the proxy client lanes"
  if ! "$swarm_bin" --keys "$workdir/clients.keys" \
      --targets "$swarm_targets" \
      --clients "$swarm_clients" --requests "$swarm_requests" \
      --ramp-ms 1500 --rto-ms 400 --max-attempts 40 \
      --replay 25 --forge 25 \
      --timeout-s "${SINTRA_SWARM_TIMEOUT:-240}" \
      --label "clients" --json-out "$workdir/swarm.json" \
      2> "$workdir/swarm.err"; then
    echo "FAIL: client swarm did not complete every request" >&2
    cat "$workdir/swarm.err" >&2 || true
    cat "$workdir/swarm.json" >&2 || true
    # The EXIT trap deletes the workdir: say here which process stopped
    # serving and what it last printed.
    for i in "${!pids[@]}"; do
      state=exited
      kill -0 "${pids[$i]}" 2>/dev/null && state=running
      echo "-- node $i ($state), stderr tail:" >&2
      tail -n 20 "$workdir/stats.$i" >&2 || true
    done
    if [[ -n "$proxy_pid" ]]; then
      state=exited
      kill -0 "$proxy_pid" 2>/dev/null && state=running
      echo "-- proxy ($state), stderr tail:" >&2
      tail -n 20 "$workdir/proxy.stats" >&2 || true
    fi
    exit 1
  fi
  echo "== swarm summary: $(cat "$workdir/swarm.json")"
  # Export the load summary (scripts/bench_e2e.sh merges it into
  # BENCH_e2e.json) before the trap cleans the workdir.
  if [[ -n "$swarm_json" ]]; then
    cp "$workdir/swarm.json" "$swarm_json"
  fi
fi

# Everything is localhost; generous deadline for sanitizer builds.
deadline=$(( $(date +%s) + ${SINTRA_CLUSTER_TIMEOUT:-420} ))
for i in "${expected[@]}"; do
  while [[ ! -e "$workdir/out.$i.done" ]]; do
    if ! kill -0 "${pids[$i]}" 2>/dev/null; then
      echo "FAIL: node $i died before completing" >&2
      cat "$workdir/stats.$i" >&2 || true
      exit 1
    fi
    if (( $(date +%s) > deadline )); then
      echo "FAIL: timeout waiting for node $i" >&2
      # Autopsy: signal the nodes so they print their stats, then dump
      # per-node delivery counts and link counters.
      for j in "${expected[@]}"; do kill "${pids[$j]}" 2>/dev/null || true; done
      sleep 1
      for j in "${expected[@]}"; do
        echo "--- node $j: $(wc -l < "$workdir/out.$j" 2>/dev/null) deliveries" >&2
        cat "$workdir/stats.$j" >&2 || true
      done
      exit 1
    fi
    sleep 0.2
  done
done

# Everyone is done: release the group.  A completed node exits 0 on
# SIGTERM.
status=0
for i in "${expected[@]}"; do
  kill "${pids[$i]}" 2>/dev/null || true
done
for i in "${expected[@]}"; do
  wait "${pids[$i]}" || {
    echo "FAIL: node $i exited nonzero" >&2
    cat "$workdir/stats.$i" >&2 || true
    status=1
  }
done
[[ $status -eq 0 ]] || exit 1

# Total order: every pair of surviving nodes must have delivered the
# exact same sequence (the close round is agreed, so the sequences are
# identical, not merely prefix-related).
first="${expected[0]}"
lines=$(wc -l < "$workdir/out.$first")
floor=$send_count
if [[ "$scenario" == clients ]]; then
  # Exactly one execution per swarm request: duplicates from racing
  # proposers are skipped deterministically, forged frames never enter
  # the order, and the nodes send nothing of their own.
  floor=$expect_total
elif [[ "$scenario" != crash ]]; then
  # Conservative: the agreed close can clip the slowest senders' tail
  # payloads (and in recover, node 3's own sends die with it), so the
  # floor is well below the n * send_count ideal.
  floor=$(( 2 * send_count ))
fi
if (( lines < floor )); then
  echo "FAIL: only $lines deliveries at node $first (floor $floor)" >&2
  exit 1
fi
for i in "${expected[@]}"; do
  if ! cmp -s "$workdir/out.$first" "$workdir/out.$i"; then
    echo "FAIL: delivery sequences diverge between node $first and node $i" >&2
    diff "$workdir/out.$first" "$workdir/out.$i" | head -20 >&2 || true
    exit 1
  fi
done

sum_stat() {
  local key="$1" total=0 v
  for i in "${expected[@]}"; do
    while read -r v; do total=$(( total + v )); done \
      < <(grep -o "${key}=[0-9]*" "$workdir/stats.$i" | cut -d= -f2)
  done
  echo "$total"
}

retrans=$(sum_stat retrans)
backoffs=$(sum_stat backoffs)
samples=$(sum_stat rtt_samples)
echo "== link stats: retransmissions=$retrans backoffs=$backoffs rtt_samples=$samples"

# Merge the per-node metrics snapshots (crashed nodes leave no file).
aggregate=""
if command -v python3 > /dev/null 2>&1; then
  present=()
  for f in "${metrics_files[@]}"; do
    [[ -s "$f" ]] && present+=("$f")
  done
  if (( ${#present[@]} > 0 )); then
    echo "== per-layer metrics breakdown (${#present[@]} snapshots)"
    aggregate="$(python3 "$repo_root/scripts/aggregate_metrics.py" "${present[@]}")"
    echo "$aggregate"
  else
    echo "WARN: no metrics snapshots written" >&2
  fi
else
  echo "WARN: python3 not found; skipping metrics aggregation" >&2
fi

metric_total_in() {
  # Integer part of a "total <name> <value>" line from aggregate text $2.
  echo "$2" | awk -v name="$1" \
    '$1 == "total" && $2 == name { split($3, p, "."); print p[1]; found=1 }
     END { if (!found) print 0 }'
}
metric_total() { metric_total_in "$1" "$aggregate"; }

if [[ "$scenario" == chaos ]]; then
  if (( retrans == 0 || backoffs == 0 )); then
    echo "FAIL: chaos run showed no retransmissions/backoff (retrans=$retrans, backoffs=$backoffs)" >&2
    exit 1
  fi
  # The same facts must be visible through the public metrics path:
  # link.retransmissions (sampled gauges) and the link drop buckets
  # (the proxy's duplicates surface as link.drop_duplicate).
  if [[ -n "$aggregate" ]]; then
    m_retrans=$(metric_total link.retransmissions)
    m_drop_dup=$(metric_total link.drop_duplicate)
    echo "== metrics path: link.retransmissions=$m_retrans link.drop_duplicate=$m_drop_dup"
    if (( m_retrans == 0 || m_drop_dup == 0 )); then
      echo "FAIL: chaos counters not visible via metrics snapshots (retrans=$m_retrans, drop_duplicate=$m_drop_dup)" >&2
      exit 1
    fi
    # Node 3 corrupted its threshold-signature shares: the optimistic
    # combine-first paths must have fallen back to per-share verification
    # somewhere, and that must be visible through the metrics snapshots.
    m_fallbacks=$(metric_total crypto.fallbacks)
    m_hits=$(metric_total crypto.optimistic_hits)
    echo "== metrics path: crypto.optimistic_hits=$m_hits crypto.fallbacks=$m_fallbacks"
    if (( m_fallbacks == 0 )); then
      echo "FAIL: Byzantine shares from node 3 triggered no optimistic-combine fallback (crypto.fallbacks=0)" >&2
      exit 1
    fi
  fi
  if [[ -n "$proxy_pid" ]]; then
    kill "$proxy_pid" 2>/dev/null || true
    wait "$proxy_pid" 2>/dev/null || true
    grep STATS "$workdir/proxy.stats" || true
    proxy_pid=""
  fi
fi

if [[ "$scenario" == clients ]]; then
  if [[ -n "$aggregate" ]]; then
    m_admitted=$(metric_total client.admitted)
    m_shed=$(metric_total client.shed)
    m_dedup=$(metric_total client.dedup_hits)
    m_auth=$(metric_total client.rejected_auth)
    m_executed=$(metric_total client.executed)
    echo "== metrics path: client.admitted=$m_admitted client.shed=$m_shed client.dedup_hits=$m_dedup client.rejected_auth=$m_auth client.executed=$m_executed"
    if (( m_admitted == 0 )); then
      echo "FAIL: gateways admitted nothing" >&2
      exit 1
    fi
    if (( m_shed == 0 )); then
      # The swarm's arrival rate is far above --client-global-rate, so a
      # run with no shedding means admission control never engaged.
      echo "FAIL: overdriven gateways shed nothing (client.shed=0)" >&2
      exit 1
    fi
    if (( m_dedup == 0 )); then
      echo "FAIL: injected replays produced no dedup hits" >&2
      exit 1
    fi
    if (( m_auth == 0 )); then
      echo "FAIL: forged frames were not rejected (client.rejected_auth=0)" >&2
      exit 1
    fi
    # Every node executed the full request set exactly once.
    if (( m_executed != ${#expected[@]} * expect_total )); then
      echo "FAIL: client.executed=$m_executed, want $(( ${#expected[@]} * expect_total ))" >&2
      exit 1
    fi
  fi
  if [[ -n "$proxy_pid" ]]; then
    kill "$proxy_pid" 2>/dev/null || true
    wait "$proxy_pid" 2>/dev/null || true
    grep STATS "$workdir/proxy.stats" || true
    proxy_pid=""
  fi
fi

if [[ "$scenario" == recover && -n "$aggregate" ]]; then
  # Group-wide: the survivors must have assembled threshold-signed
  # checkpoint certificates, and somebody must have noticed node 3's
  # link-session epoch change (the three survivors adopt its new epoch;
  # node 3 itself counts stale-echo frames from the dead session).
  m_certs=$(metric_total recovery.checkpoint_certs)
  m_resets=$(metric_total recovery.epoch_resets)
  # Restarted-node-specific: its own snapshot (written by the restarted
  # incarnation on exit; the SIGKILLed one leaves no file) must show a
  # log replay and at least one catch-up request.
  if [[ ! -s "$workdir/metrics.$last.json" ]]; then
    echo "FAIL: restarted node $last wrote no metrics snapshot" >&2
    exit 1
  fi
  node3_aggregate="$(python3 "$repo_root/scripts/aggregate_metrics.py" \
                     "$workdir/metrics.$last.json")"
  m_requests=$(metric_total_in recovery.catchup_requests "$node3_aggregate")
  m_replayed=$(metric_total_in recovery.replayed_records "$node3_aggregate")
  echo "== metrics path: recovery.checkpoint_certs=$m_certs recovery.epoch_resets=$m_resets node$last:{catchup_requests=$m_requests replayed_records=$m_replayed}"
  if (( m_certs == 0 )); then
    echo "FAIL: recover run assembled no checkpoint certificates" >&2
    exit 1
  fi
  if (( m_resets == 0 )); then
    echo "FAIL: node 3's restart triggered no link epoch resets" >&2
    exit 1
  fi
  if (( m_requests == 0 )); then
    echo "FAIL: restarted node $last sent no catch-up requests" >&2
    exit 1
  fi
  if (( m_replayed == 0 )); then
    echo "FAIL: restarted node $last replayed nothing from its durable log" >&2
    exit 1
  fi
fi

if [[ -n "$metrics_dir" ]]; then
  mkdir -p "$metrics_dir"
  for f in "${metrics_files[@]}"; do
    [[ -s "$f" ]] && cp "$f" "$metrics_dir/"
  done
  printf '{"n":%d,"t":%d,"scenario":"%s","channel":"%s","deliveries":%d,"mmsg":%s}\n' \
    "$n" "$t" "$scenario" "$channel" "$lines" \
    "$([[ "$no_mmsg" == 1 ]] && echo false || echo true)" \
    > "$metrics_dir/cluster.json"
fi

echo "PASS: $scenario/$channel — ${#expected[@]} nodes, $lines totally-ordered deliveries each"
