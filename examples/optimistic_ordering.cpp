// Optimistic atomic broadcast demo (paper §6, future work — implemented
// here): a sequencer fast path orders messages with one verifiable
// broadcast each; when the sequencer is suspected, the group falls back
// to randomized Byzantine agreement, switches sequencers, and continues
// without losing or duplicating anything.
//
// This example runs on the deterministic simulator (virtual time) so the
// fast-path-vs-switch costs are visible in the printed timestamps.
//
//   $ ./optimistic_ordering
//
#include <cstdio>
#include <vector>

#include "core/channel/optimistic_channel.hpp"
#include "sim/simulator.hpp"

int main() {
  using namespace sintra;

  crypto::DealerConfig config;
  config.n = 4;
  config.t = 1;
  config.rsa_bits = 512;
  config.dl_p_bits = 256;
  config.dl_q_bits = 96;
  const crypto::Deal deal = crypto::run_dealer(config);

  sim::Simulator sim(sim::lan_setup(), deal);
  std::vector<std::unique_ptr<core::OptimisticChannel>> chan;
  for (int i = 0; i < 4; ++i) {
    chan.push_back(std::make_unique<core::OptimisticChannel>(
        sim.node(i), sim.node(i).dispatcher(), "optdemo"));
  }

  // Phase 1: fast path under the epoch-0 sequencer (party 0).
  for (int m = 0; m < 4; ++m) {
    sim.at(m * 5.0, 1, [&, m] {
      chan[1]->send(to_bytes("fast-" + std::to_string(m)));
    });
  }
  sim.run_until([&] { return chan[2]->deliveries().size() >= 4; }, 1e6);
  std::printf("epoch 0 (sequencer P0) — fast path:\n");
  for (const auto& d : chan[2]->deliveries()) {
    std::printf("  %7.1f ms  [%s]\n", d.time_ms, to_string(d.payload).c_str());
  }

  // Phase 2: the sequencer crashes; the application's timeout fires
  // suspect(); the group wedges, agrees on the epoch history and
  // switches to sequencer P1.
  sim.node(0).crash();
  std::printf("\nP0 (the sequencer) crashes; replicas raise suspicion...\n");
  for (int m = 0; m < 3; ++m) {
    sim.at(sim.now_ms() + m, 2, [&, m] {
      chan[2]->send(to_bytes("queued-" + std::to_string(m)));
    });
  }
  for (int i = 1; i < 4; ++i) {
    sim.at(sim.now_ms() + 200.0, i, [&, i] { chan[static_cast<std::size_t>(i)]->suspect(); });
  }
  if (!sim.run_until(
          [&] {
            for (int i = 1; i < 4; ++i) {
              if (chan[static_cast<std::size_t>(i)]->deliveries().size() < 7)
                return false;
            }
            return true;
          },
          1e7)) {
    std::printf("recovery failed!\n");
    return 1;
  }
  std::printf("switched to epoch %d (sequencer P%d); queued messages "
              "delivered:\n", chan[2]->epoch(), chan[2]->sequencer());
  for (std::size_t i = 4; i < chan[2]->deliveries().size(); ++i) {
    const auto& d = chan[2]->deliveries()[i];
    std::printf("  %7.1f ms  [%s] (epoch %d)\n", d.time_ms,
                to_string(d.payload).c_str(), d.epoch);
  }

  // All live replicas hold identical sequences.
  auto payloads = [&](int i) {
    std::vector<Bytes> out;
    for (const auto& d : chan[static_cast<std::size_t>(i)]->deliveries()) {
      out.push_back(d.payload);
    }
    return out;
  };
  for (int i = 2; i < 4; ++i) {
    if (payloads(i) != payloads(1)) {
      std::printf("sequence divergence!\n");
      return 1;
    }
  }
  std::printf("\nall live replicas delivered identical sequences across the "
              "switch\n");
  return 0;
}
