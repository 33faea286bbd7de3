// Intrusion-tolerant replicated key-value store.
//
// State-machine replication (Schneider) over SINTRA's atomic broadcast:
// every replica applies the same totally-ordered stream of SET/DEL
// commands, so all honest replicas hold identical state even though one
// replica crashes mid-run.  This is the paper's motivating application
// ("Given an atomic broadcast primitive, a fault-tolerant replicated
// service can be implemented immediately", §2.5).
//
// The replicas run on the deterministic simulator (virtual time, the
// paper's LAN topology).
//
//   $ ./kv_store
//
#include <iostream>
#include <map>
#include <sstream>

#include "core/channel/atomic_channel.hpp"
#include "sim/simulator.hpp"

namespace {

using sintra::Bytes;

/// The deterministic state machine each replica runs.
class KvStateMachine {
 public:
  /// Commands: "SET key value" | "DEL key".
  void apply(const std::string& command) {
    std::istringstream in(command);
    std::string op, key;
    in >> op >> key;
    if (op == "SET") {
      std::string value;
      std::getline(in, value);
      if (!value.empty() && value.front() == ' ') value.erase(0, 1);
      state_[key] = value;
    } else if (op == "DEL") {
      state_.erase(key);
    }
    ++applied_;
  }

  [[nodiscard]] std::string fingerprint() const {
    std::ostringstream out;
    for (const auto& [k, v] : state_) out << k << "=" << v << ";";
    return out.str();
  }

  [[nodiscard]] int applied() const { return applied_; }

 private:
  std::map<std::string, std::string> state_;
  int applied_ = 0;
};

}  // namespace

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

  // Every replica applies what its channel delivers, in delivery order.
  std::vector<KvStateMachine> machines(4);
  std::vector<std::unique_ptr<core::AtomicChannel>> channel;
  for (int i = 0; i < sim.n(); ++i) {
    channel.push_back(std::make_unique<core::AtomicChannel>(
        sim.node(i), sim.node(i).dispatcher(), "kv"));
    channel.back()->set_deliver_callback(
        [&machines, i](const Bytes& cmd, core::PartyId) {
          machines[static_cast<std::size_t>(i)].apply(to_string(cmd));
        });
  }

  // Commands submitted concurrently at different replicas — including
  // conflicting writes to the same key, which total order resolves
  // identically everywhere.
  const std::vector<std::pair<int, std::string>> workload = {
      {0, "SET balance:alice 100"}, {1, "SET balance:bob 250"},
      {2, "SET balance:alice 90"},  {0, "DEL balance:bob"},
      {1, "SET audit last-writer-one"}, {2, "SET audit last-writer-two"},
  };
  for (const auto& [replica, cmd] : workload) {
    sim.at(0.0, replica, [&channel, replica = replica, cmd = cmd] {
      channel[static_cast<std::size_t>(replica)]->send(to_bytes(cmd));
    });
  }

  // Replica 3 crashes mid-run: with n=4, t=1 the service must not notice.
  sim.at(1.0, 3, [&sim] { sim.node(3).crash(); });
  const int live = 3;
  if (!sim.run_until(
          [&] {
            for (int i = 0; i < live; ++i) {
              if (machines[static_cast<std::size_t>(i)].applied() <
                  static_cast<int>(workload.size())) {
                return false;
              }
            }
            return true;
          },
          1e7)) {
    std::cerr << "timeout: the live replicas did not apply every command\n";
    return 1;
  }
  std::cout << "replica 3 crashed; continued with 3 of 4\n";

  const std::string expected = machines[0].fingerprint();
  std::cout << "replica 0 state: " << expected << "\n";
  for (int i = 1; i < live; ++i) {
    std::cout << "replica " << i << " state: "
              << machines[static_cast<std::size_t>(i)].fingerprint() << "\n";
    if (machines[static_cast<std::size_t>(i)].fingerprint() != expected) {
      std::cerr << "STATE DIVERGENCE — replication broken!\n";
      return 1;
    }
  }
  std::cout << "all live replicas converged on identical state ("
            << machines[0].applied() << " commands applied)\n";
  return 0;
}
