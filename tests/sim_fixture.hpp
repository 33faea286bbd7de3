// Shared test scaffolding: a dealt group of parties on a simulated
// network, with helpers to instantiate one protocol object per node.
#pragma once

#include <memory>
#include <vector>

#include "crypto/dealer.hpp"
#include "sim/adversary.hpp"
#include "sim/simulator.hpp"

namespace sintra::testing {

inline crypto::Deal cached_deal(int n, int t,
                                crypto::SigImpl impl = crypto::SigImpl::kMultiSig) {
  // Deals are deterministic; the dealer memoizes the expensive parameters,
  // but we also memoize whole deals per (n, t, impl) to keep test setup fast.
  // Only the dealt key material is shared: every call materializes fresh
  // PartyKeys, so per-handle state (signer blacklists, prover RNGs, the
  // verification memo) never leaks from one test's cluster into the next.
  static std::map<std::tuple<int, int, int>, crypto::Deal> cache;
  const auto key = std::tuple{n, t, static_cast<int>(impl)};
  auto it = cache.find(key);
  if (it == cache.end()) {
    crypto::DealerConfig cfg;
    cfg.n = n;
    cfg.t = t;
    cfg.rsa_bits = 512;
    cfg.dl_p_bits = 256;
    cfg.dl_q_bits = 96;
    cfg.sig_impl = impl;
    it = cache.emplace(key, crypto::run_dealer(cfg)).first;
  }
  crypto::Deal deal = it->second;
  deal.parties.clear();
  for (const auto& raw : deal.raw) {
    deal.parties.push_back(crypto::materialize(raw));
  }
  return deal;
}

/// n parties on a uniform low-latency network; the workhorse for protocol
/// tests.  Byzantine tests layer an Adversary on top.
struct Cluster {
  crypto::Deal deal;
  sim::Simulator sim;

  explicit Cluster(int n = 4, int t = 1, std::uint64_t seed = 1,
                   double latency_ms = 2.0, double jitter = 0.25,
                   crypto::SigImpl impl = crypto::SigImpl::kMultiSig)
      : deal(cached_deal(n, t, impl)),
        sim(sim::uniform_setup(n, 30.0, latency_ms, jitter), deal, seed) {
    // Tests don't model per-message protocol overhead.
    sim.per_message_cpu_ms = 0.01;
  }

  /// Creates one protocol instance per party.  Factory signature:
  /// unique_ptr<P> f(core::Environment& env, core::Dispatcher& disp, int i).
  template <typename P, typename Factory>
  std::vector<std::unique_ptr<P>> make_protocols(Factory&& factory) {
    std::vector<std::unique_ptr<P>> out;
    for (int i = 0; i < sim.n(); ++i) {
      out.push_back(factory(sim.node(i), sim.node(i).dispatcher(), i));
    }
    return out;
  }
};

}  // namespace sintra::testing
