#!/usr/bin/env bash
# Builds the test suite in a separate build tree with the sanitizer set
# chosen by $SINTRA_SANITIZE and runs the suites that benefit most:
#
#   SINTRA_SANITIZE=address,undefined (default)
#     ASan+UBSan over the bignum/crypto suites, the net subsystem, the
#     channel suites and the replica composition.  The fast-exponentiation layer (multi-exp
#     windows, comb tables, scratch-buffer reuse) does manual limb-buffer
#     arithmetic, and the net layer (epoll loop, raw UDP buffers, frame
#     parsing of attacker-controlled datagrams) and the atomic channel
#     (signed bundles from Byzantine peers) handle untrusted input.
#
#   SINTRA_SANITIZE=thread
#     TSan over the concurrency surface: the crypto worker pool (jthread
#     workers, MPSC completion queue, cross-thread notify hook) and the
#     net subsystem that drives it (event loop wakeups, the node binary's
#     off-loop verification), including the multi-process LocalCluster
#     tests whose node binaries are TSan-built too.
#
# Usage: scripts/sanitize_crypto.sh [build_dir]
#        (default: ./build-asan, or ./build-tsan in thread mode)
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
sanitize="${SINTRA_SANITIZE:-address,undefined}"

if [[ "$sanitize" == "thread" ]]; then
  build_dir="${1:-$repo_root/build-tsan}"
  # Suites with real multi-threading: the worker pool itself, the epoll
  # event loop (cross-thread call_soon), the UDP transport, the threaded
  # combine-first fallback (crypto/checked_combine.hpp fanning share
  # checks out through WorkPool::run_parallel), the per-party
  # verified-signature memo that those workers share, and the 4-process
  # loopback clusters that run node binaries with the pool on.
  filter='WorkPool|EventLoop|UdpSocket|NetEnvironment|SlidingWindow'
  filter+='|Optimistic|ScaleParams.ByzantineShareParallelFallback|VerifyMemo'
  filter+='|LocalCluster'
  export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}"
else
  build_dir="${1:-$repo_root/build-asan}"
  # Test names are gtest suite names, not source-file names: this regex
  # covers the bignum suites (BigInt/Montgomery/MultiExp/FixedBase/
  # Karatsuba/Prime), the crypto-layer suites built on them (including
  # batch DLEQ verification, the optimistic combine-first paths, the
  # worker pool, and SHA/HMAC with the keyed link-MAC state), the client
  # wire format and gateway (stack-built MAC statements, per-client keyed
  # MAC state), the simulated client service end to end (the full replica
  # composition with client lanes, designation and reply quorums), the
  # net subsystem (event loop, UDP transport, sliding-window link,
  # 4-process clusters), the atomic channel suites (bundle decoding
  # of Byzantine frames, pipelined rounds, the round-opening rule), and
  # the suites that run the receive side every channel shares with
  # ChannelBase (inbox, callbacks, log cap) and the replica composition
  # over all three ordering channels.
  filter='BigInt|BignumDiff|KnuthD|Montgomery|MultiExp|FixedBase|GroupCache'
  filter+='|Karatsuba|Prime'
  filter+='|Rsa|VerifyMemo|Shamir|Lagrange|DlogGroup|Dleq|BatchDleq|Group'
  filter+='|ThresholdSig|Coin|Tdh2|Optimistic|WorkPool'
  filter+='|Dealer|Hash|Sha|Hmac|Aes|ClientGateway|ClientWire|ClientServiceE2E'
  filter+='|EventLoop|UdpSocket|NetEnvironment|SlidingWindow|LocalCluster'
  filter+='|AtomicChannel|ThroughputMode|ByzantineAtomic'
  filter+='|Replica|ReliableChannel|ConsistentChannel|ChannelLifecycle'
  filter+='|EndToEnd|Robustness'
  export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1:strict_string_checks=1}"
  export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"
fi

cmake -S "$repo_root" -B "$build_dir" \
  -DCMAKE_BUILD_TYPE=Debug \
  -DSINTRA_SANITIZE="$sanitize"
cmake --build "$build_dir" --target sintra_tests -j"$(nproc)"
# The loopback-cluster tests exercise the node and proxy binaries under
# the sanitizers too.
cmake --build "$build_dir" \
  --target dealer_tool sintra_node udp_chaos_proxy client_swarm -j"$(nproc)"

# The clients scenario asserts every request in a 2000-client overdrive
# completes; under a 2-3x sanitizer slowdown that wall-clock capacity bar
# is unreachable on the same timeouts, so scale the swarm down — the
# memory-safety coverage (gateway, swarm, signing paths) is identical.
# On boxes with few cores the sanitizer slowdown compounds with the lack
# of parallelism (the 4 node processes, proxy and swarm share one core),
# so scale down further there.
if [[ "$(nproc)" -ge 4 ]]; then
  export SINTRA_SWARM_CLIENTS="${SINTRA_SWARM_CLIENTS:-400}"
else
  export SINTRA_SWARM_CLIENTS="${SINTRA_SWARM_CLIENTS:-100}"
fi

ctest --test-dir "$build_dir" -R "$filter" --output-on-failure
