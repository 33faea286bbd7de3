// Shared harness for the paper-reproduction benchmarks (§4).
//
// Workload shape follows the paper exactly: "The test program opens a
// channel to broadcast messages and has one or more servers send short
// payload messages (< 32 bytes) to the group at maximum capacity.  Then
// the elapsed time between successive delivery of two messages is
// measured on a recipient."  Senders' queues are pre-filled at t = 0
// (maximum capacity); the measurement node is P0 (Zurich), as in §4.
#pragma once

#include <cstdlib>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "core/channel/atomic_channel.hpp"
#include "core/channel/broadcast_channel.hpp"
#include "core/channel/secure_atomic_channel.hpp"
#include "sim/simulator.hpp"

namespace sintra::bench {

enum class ChannelKind { kAtomic, kSecure, kReliable, kConsistent };

inline const char* channel_name(ChannelKind k) {
  switch (k) {
    case ChannelKind::kAtomic: return "atomic";
    case ChannelKind::kSecure: return "secure";
    case ChannelKind::kReliable: return "reliable";
    case ChannelKind::kConsistent: return "consistent";
  }
  return "?";
}

/// One delivery observed at the measurement node.
struct DeliveryRecord {
  double time_ms = 0;
  int origin = -1;           // -1 when the channel does not expose it
  int mvba_iterations = 1;   // atomic channel only
};

struct WorkloadResult {
  std::vector<DeliveryRecord> deliveries;  // at the measurement node, in order
  double total_virtual_ms = 0;
  bool completed = false;

  /// Mean time between successive deliveries, in (virtual) seconds —
  /// the quantity of Table 1 and Figure 6.
  [[nodiscard]] double mean_interdelivery_s() const {
    if (deliveries.size() < 2) return 0;
    return (deliveries.back().time_ms - deliveries.front().time_ms) /
           (static_cast<double>(deliveries.size() - 1) * 1000.0);
  }
};

/// Paper-faithful dealer configuration: SHA-1, 1024/160-bit discrete-log
/// group; RSA modulus size and signature implementation vary per
/// experiment.
inline crypto::DealerConfig paper_dealer_config(
    int n, int t, int rsa_bits = 1024,
    crypto::SigImpl impl = crypto::SigImpl::kMultiSig) {
  crypto::DealerConfig cfg;
  cfg.n = n;
  cfg.t = t;
  cfg.rsa_bits = rsa_bits;
  cfg.dl_p_bits = 1024;
  cfg.dl_q_bits = 160;
  cfg.hash = crypto::HashKind::kSha1;
  cfg.sig_impl = impl;
  return cfg;
}

inline double default_overhead_ms() {
  if (const char* env = std::getenv("SINTRA_BENCH_OVERHEAD_MS")) {
    return std::atof(env);
  }
  return 12.0;
}

struct WorkloadOptions {
  ChannelKind kind = ChannelKind::kAtomic;
  std::vector<int> senders = {0};
  int total_messages = 500;
  int measure_node = 0;
  core::AtomicChannel::Config atomic_config = {};
  std::uint64_t seed = 1;
  double deadline_virtual_ms = 1e9;
  /// Fixed per-message protocol-stack overhead charged by the simulator —
  /// the non-crypto share of the paper's "protocol overhead".  Calibrated
  /// once against Table 1's LAN consistent-channel row (see
  /// EXPERIMENTS.md); overridable via SINTRA_BENCH_OVERHEAD_MS.
  double per_message_cpu_ms = default_overhead_ms();
};

/// Runs the paper's workload on a fresh simulator and returns the
/// measurement node's delivery log.
inline WorkloadResult run_workload(const sim::Topology& topology,
                                   const crypto::Deal& deal,
                                   const WorkloadOptions& opt) {
  sim::Simulator sim(topology, deal, opt.seed);
  sim.per_message_cpu_ms = opt.per_message_cpu_ms;
  const int n = sim.n();

  WorkloadResult result;

  // One channel instance per party, all kinds behind ChannelBase.
  std::vector<std::unique_ptr<core::ChannelBase>> channels;
  std::size_t delivered_at_measure = 0;
  for (int i = 0; i < n; ++i) {
    auto& env = sim.node(i);
    auto& disp = sim.node(i).dispatcher();
    core::AtomicChannel* atomic = nullptr;
    switch (opt.kind) {
      case ChannelKind::kAtomic: {
        auto ch = std::make_unique<core::AtomicChannel>(env, disp, "bench",
                                                        opt.atomic_config);
        atomic = ch.get();
        channels.push_back(std::move(ch));
        break;
      }
      case ChannelKind::kSecure:
        channels.push_back(std::make_unique<core::SecureAtomicChannel>(
            env, disp, "bench", opt.atomic_config));
        break;
      case ChannelKind::kReliable:
        channels.push_back(
            std::make_unique<core::ReliableChannel>(env, disp, "bench"));
        break;
      case ChannelKind::kConsistent:
        channels.push_back(
            std::make_unique<core::ConsistentChannel>(env, disp, "bench"));
        break;
    }
    if (i != opt.measure_node) continue;
    // The atomic channels stamp a delivery with the party's clock, the
    // broadcast channels with the simulator's (the historical Table 1 /
    // Figure 6 measurement points).
    const bool party_clock = opt.kind == ChannelKind::kAtomic ||
                             opt.kind == ChannelKind::kSecure;
    channels.back()->set_deliver_callback(
        [&, node = &env, atomic, party_clock](const Bytes&,
                                              core::PartyId origin) {
          const double time_ms = party_clock ? node->now_ms() : sim.now_ms();
          const int iterations =
              atomic != nullptr ? atomic->deliveries().back().mvba_iterations
                                : 1;
          result.deliveries.push_back(
              DeliveryRecord{time_ms, origin, iterations});
          ++delivered_at_measure;
        });
  }

  // Pre-fill sender queues at t = 0 ("maximum capacity"), round-robin so
  // each sender gets total/|senders| messages.  Payloads stay < 32 bytes.
  for (int m = 0; m < opt.total_messages; ++m) {
    const int sender =
        opt.senders[static_cast<std::size_t>(m) % opt.senders.size()];
    const std::string payload =
        "m" + std::to_string(m) + ".s" + std::to_string(sender);
    sim.at(0.0, sender, [&, sender, payload] {
      channels[static_cast<std::size_t>(sender)]->send_payload(
          to_bytes(payload));
    });
  }

  result.completed = sim.run_until(
      [&] {
        return delivered_at_measure >=
               static_cast<std::size_t>(opt.total_messages);
      },
      opt.deadline_virtual_ms);
  result.total_virtual_ms = sim.now_ms();
  return result;
}

}  // namespace sintra::bench
