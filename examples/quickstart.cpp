// Quickstart: secure state-machine replication in ~70 lines.
//
// Four replicas tolerate one Byzantine fault (n = 4, t = 1).  The trusted
// dealer hands out all key material, an atomic broadcast channel totally
// orders client commands, and every replica observes the same sequence —
// the paper's core claim, end to end.
//
// The replicas run on the deterministic simulator (virtual time, the
// paper's LAN topology); examples/sintra_node.cpp runs the same protocol
// stack as real processes over UDP.
//
//   $ ./quickstart
//
#include <iostream>

#include "core/channel/atomic_channel.hpp"
#include "sim/simulator.hpp"

int main() {
  using namespace sintra;

  // 1. The trusted dealer (run once, §2): group of 4, one may be corrupt.
  crypto::DealerConfig config;
  config.n = 4;
  config.t = 1;
  config.rsa_bits = 512;   // demo-sized keys; the paper used 1024
  config.dl_p_bits = 256;
  config.dl_q_bits = 96;
  const crypto::Deal deal = crypto::run_dealer(config);

  // 2. Boot the replicas on a simulated LAN (authenticated links).
  sim::Simulator sim(sim::lan_setup(), deal);

  // 3. Open the atomic broadcast channel on every replica; each applies
  //    the commands it delivers, in delivery order.
  std::vector<std::unique_ptr<core::AtomicChannel>> channel;
  std::vector<std::vector<std::string>> applied(4);
  int closed = 0;
  for (int i = 0; i < sim.n(); ++i) {
    channel.push_back(std::make_unique<core::AtomicChannel>(
        sim.node(i), sim.node(i).dispatcher(), "quickstart"));
    channel.back()->set_deliver_callback(
        [&applied, i](const Bytes& cmd, core::PartyId) {
          applied[static_cast<std::size_t>(i)].push_back(to_string(cmd));
        });
    channel.back()->set_closed_callback([&closed] { ++closed; });
  }

  // 4. Two replicas broadcast commands concurrently.
  sim.at(0.0, 0, [&] {
    channel[0]->send(to_bytes("credit alice 100"));
    channel[0]->send(to_bytes("credit carol 7"));
  });
  sim.at(0.0, 1, [&] { channel[1]->send(to_bytes("debit bob 40")); });
  if (!sim.run_until(
          [&] {
            for (const auto& a : applied) {
              if (a.size() < 3) return false;
            }
            return true;
          },
          1e7)) {
    std::cerr << "timeout waiting for delivery\n";
    return 1;
  }

  // 5. Every replica applied the SAME totally-ordered command stream.
  for (int i = 0; i < sim.n(); ++i) {
    std::cout << "replica " << i << " applies:";
    for (const auto& cmd : applied[static_cast<std::size_t>(i)]) {
      std::cout << "  [" << cmd << "]";
    }
    std::cout << "\n";
    if (applied[static_cast<std::size_t>(i)] != applied[0]) {
      std::cerr << "replicas diverged!\n";
      return 1;
    }
  }

  // 6. Close the channel (t+1 = 2 honest closes terminate it, §2.5).
  sim.at(sim.now_ms(), 0, [&] { channel[0]->close(); });
  sim.at(sim.now_ms(), 1, [&] { channel[1]->close(); });
  if (!sim.run_until([&] { return closed == sim.n(); }, sim.now_ms() + 1e7)) {
    std::cerr << "channel did not close\n";
    return 1;
  }
  std::cout << "channel closed on all replicas at " << sim.now_ms() / 1000.0
            << " s (virtual)\n";
  return 0;
}
