// Discrete-event network simulator.
//
// This is the reproduction's substitute for the paper's physical test-beds
// (see DESIGN.md): virtual time advances through an event queue; each
// host's CPU is a serial resource whose speed is calibrated by the
// paper's measured 1024-bit-modexp time; links deliver FIFO with the
// Figure 3 latencies plus seeded jitter.  Protocol handlers run *real*
// cryptography — the work they perform is measured (bignum work counter)
// and converted into virtual CPU time, so computational effects (CRT
// speedups, key-size scaling, slow hosts falling behind) emerge from the
// actual arithmetic rather than from hand-tuned constants.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <vector>

#include "core/dispatcher.hpp"
#include "core/env.hpp"
#include "crypto/hmac.hpp"
#include "sim/datagram.hpp"
#include "sim/trace.hpp"
#include "sim/topologies.hpp"

namespace sintra::sim {

class Simulator;

/// One simulated party: implements core::Environment on top of the
/// simulator and owns the party's dispatcher and key material.
class Node final : public core::Environment {
 public:
  /// `boot` salts the party's deterministic rng so a restarted incarnation
  /// (Simulator::restart_node) draws a fresh-but-reproducible stream;
  /// boot 1 reproduces the historical seeds exactly.
  Node(Simulator& sim, int id, crypto::PartyKeys keys,
       std::uint64_t boot = 1);

  [[nodiscard]] core::PartyId self() const override { return id_; }
  [[nodiscard]] int n() const override;
  [[nodiscard]] int t() const override { return keys_.t; }
  void send(core::PartyId to, Bytes wire) override;
  void send_all(Bytes wire) override;
  [[nodiscard]] double now_ms() const override;
  [[nodiscard]] Rng& rng() override { return rng_; }
  [[nodiscard]] const crypto::PartyKeys& keys() const override {
    return keys_;
  }

  [[nodiscard]] core::Dispatcher& dispatcher() { return dispatcher_; }

  /// Crash-stop: the node neither processes nor sends anything afterwards.
  void crash() { crashed_ = true; }
  [[nodiscard]] bool crashed() const { return crashed_; }

 private:
  friend class Simulator;

  Simulator& sim_;
  int id_;
  crypto::PartyKeys keys_;
  /// link_macs_[j]: HMAC keyed with keys_.link_keys[j], built once.
  std::vector<crypto::HmacSha1> link_macs_;
  core::Dispatcher dispatcher_;
  Rng rng_;
  double cpu_free_at_ms_ = 0.0;
  bool crashed_ = false;
  bool in_handler_ = false;
  double handler_start_ms_ = 0.0;
  std::vector<std::pair<int, Bytes>> outbox_;
};

class Simulator {
 public:
  static constexpr double kForever = std::numeric_limits<double>::infinity();

  /// The deal must have been produced for exactly topology.n() parties.
  Simulator(Topology topology, const crypto::Deal& deal,
            std::uint64_t seed = 1);

  [[nodiscard]] int n() const { return topology_.n(); }
  [[nodiscard]] Node& node(int i) { return *nodes_.at(static_cast<std::size_t>(i)); }
  [[nodiscard]] double now_ms() const { return now_ms_; }

  /// Schedules `fn` to run in party `party`'s context (CPU-accounted, with
  /// outgoing messages departing when the handler finishes) at absolute
  /// virtual time `time_ms`.  This is how tests and benchmarks stimulate
  /// protocol inputs.
  void at(double time_ms, int party, std::function<void()> fn);

  /// Schedules `fn` at absolute virtual time `time_ms` outside any
  /// party's CPU context — for actors that are not group members, like
  /// the simulated service clients (client/sim_net.hpp) whose timers
  /// and datagrams must not consume replica CPU.
  void post(double time_ms, std::function<void()> fn);

  /// Runs events until the queue empties or virtual time would exceed
  /// `until_ms`.  Returns the number of events processed.
  std::size_t run(double until_ms = kForever);

  /// Runs until pred() is true.  Returns false if the queue drained or the
  /// deadline passed first.
  bool run_until(const std::function<bool()>& pred, double deadline_ms);

  /// Crash recovery (DESIGN.md §10): replaces party `i` with a fresh
  /// incarnation holding the same dealer keys but reset protocol state
  /// and a boot-salted rng — the deterministic analogue of SIGKILL plus
  /// process restart.  The caller must have dropped every protocol bound
  /// to the old incarnation first (they hold references into it); events
  /// already queued for party `i` run against the new node, exactly like
  /// datagrams arriving at a rebooted host.  Works whether or not the old
  /// node was crash()ed.
  Node& restart_node(int i);

  /// How many incarnations party `i` has had (1 = never restarted).
  [[nodiscard]] std::uint64_t boots(int i) const {
    return boots_.at(static_cast<std::size_t>(i));
  }

  /// Adversarial injection: raw wire bytes appear to come from `from`
  /// (the adversary holds corrupted parties' link keys; see
  /// sim/adversary.hpp).
  void inject(int from, int to, Bytes wire, double at_time_ms);

  /// Unreliable-datagram endpoint for node i (see sim/datagram.hpp); the
  /// substrate for the sliding-window link layer.
  [[nodiscard]] DatagramService& datagrams(int i);

  /// Fault model applied to datagrams only.
  DatagramFaults datagram_faults;

  /// Optional message trace: when set, every transmitted frame is
  /// recorded with its protocol id (see sim/trace.hpp).
  MessageTrace* trace = nullptr;

  /// Optional adversarial scheduler: extra one-way delay for a message
  /// from->to departing at the given time.  Must be >= 0.
  std::function<double(int from, int to, double depart_ms)> delay_hook;

  /// Fixed per-message processing overhead (protocol stack, serialization
  /// — the non-crypto part of the paper's "protocol overhead").
  double per_message_cpu_ms = 0.5;

  /// Authenticate links with HMAC-SHA1 as in the paper.  Costs little and
  /// is on by default; tests of raw injection can disable it.
  bool authenticate_links = true;

  [[nodiscard]] std::uint64_t messages_delivered() const {
    return messages_delivered_;
  }
  [[nodiscard]] std::uint64_t messages_sent() const { return messages_sent_; }
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }

 private:
  friend class Node;
  friend class DatagramService;

  void transmit_datagram(int from, int to, Bytes datagram);

  struct Event {
    double time_ms;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct EventOrder {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time_ms != b.time_ms) return a.time_ms > b.time_ms;
      return a.seq > b.seq;
    }
  };

  void schedule(double time_ms, std::function<void()> fn);
  /// Runs `fn` inside `node`'s CPU context starting no earlier than
  /// `ready_ms`; flushes the node's outbox when it completes.
  void run_in_node(Node& node, double ready_ms,
                   const std::function<void()>& fn);
  void transmit(int from, int to, Bytes wire, double depart_ms);
  void deliver(int from, int to, Bytes wire, double arrival_ms);

  Topology topology_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::uint64_t> boots_;
  std::vector<std::unique_ptr<DatagramService>> datagram_services_;
  std::priority_queue<Event, std::vector<Event>, EventOrder> queue_;
  double now_ms_ = 0.0;
  std::uint64_t seq_ = 0;
  Rng net_rng_;
  std::vector<std::vector<double>> last_arrival_ms_;  // FIFO clamp per link
  std::uint64_t messages_delivered_ = 0;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
};

}  // namespace sintra::sim
