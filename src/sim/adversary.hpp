// Adversary harness for tests and fault-injection benchmarks.
//
// The Byzantine model gives the adversary the full state of corrupted
// parties — including their link keys and threshold-share material (held
// in the Deal).  This helper crash-stops a party's honest logic and lets
// the test forge arbitrary protocol messages under its identity, which is
// exactly what a corrupted party can do.
#pragma once

#include <set>
#include <string_view>

#include "crypto/dealer.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace sintra::sim {

class Adversary {
 public:
  Adversary(Simulator& sim, crypto::Deal deal)
      : sim_(sim), deal_(std::move(deal)) {}

  /// Takes over party i (its honest protocol stack stops executing).
  void corrupt(int i) {
    sim_.node(i).crash();
    corrupted_.insert(i);
  }

  [[nodiscard]] bool is_corrupted(int i) const {
    return corrupted_.contains(i);
  }

  /// Crash fault only (no forged traffic afterwards).
  void crash(int i) { sim_.node(i).crash(); }

  /// Access to a corrupted party's key material (e.g. to craft valid
  /// signature shares on equivocating payloads).
  [[nodiscard]] const crypto::PartyKeys& keys_of(int i) const {
    return deal_.parties.at(static_cast<std::size_t>(i));
  }

  /// Sends an arbitrary payload under protocol id `pid` as corrupted
  /// party `from`, correctly link-authenticated.
  void send_as(int from, int to, std::string_view pid, BytesView payload,
               double at_ms) {
    const Bytes frame = core::frame_message(pid, payload);
    const Bytes wire = authenticate_frame(
        crypto::HmacSha1(
            keys_of(from).link_keys.at(static_cast<std::size_t>(to))),
        from, to, frame);
    sim_.inject(from, to, wire, at_ms);
  }

  /// Broadcast version of send_as (distinct payload copies per receiver
  /// are possible by calling send_as directly — equivocation!).
  void send_as_all(int from, std::string_view pid, BytesView payload,
                   double at_ms) {
    for (int j = 0; j < sim_.n(); ++j) send_as(from, j, pid, payload, at_ms);
  }

 private:
  Simulator& sim_;
  crypto::Deal deal_;
  std::set<int> corrupted_;
};

}  // namespace sintra::sim
