// One SINTRA replica as a library object: the composition of channel,
// client gateway and crash recovery that every deployment shape runs
// (paper §2–3, Fig. 1–2: a channel over broadcast and agreement, plus the
// service layers of DESIGN.md §10 and §12).
//
// A Replica runs over any core::Environment — the simulator's sim::Node
// or the UDP deployment's net::NetEnvironment — and owns no transport,
// files or clocks of its own.  examples/sintra_node.cpp wraps one in a
// process (sockets, output files, signals); the simulator tests build
// the same class on sim::Simulator.
//
// What it composes:
//   - the ordering channel: atomic, secure-atomic or optimistic, behind
//     one core::ChannelBase (the optimistic channel has no close
//     protocol, so it completes on `expect`);
//   - the client gateway, in front of every channel: local submissions
//     (Options::send_count) and client requests share one
//     wrap/propose/dedup path;
//   - the recovery manager (with Options::state_dir): every live
//     delivery is logged before it executes; a restart from the same
//     directory replays the log and catches up instead of joining the
//     rounds;
//   - the execute funnel: each executed payload reaches the execute
//     callback once, in total order;
//   - completion: the channel closed (close-after-send waits for the
//     local submission queue to drain), `expect` executions reached, or,
//     on the restart path, the close-time `final` checkpoint adopted.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "client/gateway.hpp"
#include "core/channel/channel_base.hpp"
#include "core/dispatcher.hpp"
#include "recovery/recovery_manager.hpp"
#include "recovery/state_store.hpp"

namespace sintra::replica {

class Replica {
 public:
  /// The replica-side settings of sintra_node's command line (the
  /// process-side ones — files, sockets, linger — stay in the program).
  struct Options {
    std::string channel = "atomic";  // atomic | secure-atomic | optimistic
    int send_count = 4;              // local payloads submitted by start()
    int bench_payload_bytes = 0;     // pad local payloads to this size
    std::uint64_t expect = 0;        // complete after N executions; 0 = off
    bool close_after_send = false;   // close once local payloads are queued
    std::string state_dir;           // durable log + checkpoints; "" = off
    std::uint64_t checkpoint_interval = 8;
    // Throughput mode (DESIGN.md §11): 0 = keep the channel defaults.
    int batch_count = 0;
    int pipeline_depth = 0;
    // Client service layer (DESIGN.md §12).
    std::string client_keys;          // key-table file; "" = no clients
    std::size_t max_clients = 0;      // 0 = unlimited
    double client_rate = 100.0;       // per-client admission rate (req/s)
    double client_global_rate = 0.0;  // 0 = off
    std::size_t client_pending = 1024;
  };

  /// Builds the replica's protocol objects on `env`.  With a state_dir
  /// that already hosted a run (boot counter > 1) it builds the restart
  /// path instead: no channel, only the gateway and the recovery manager.
  /// Throws std::runtime_error on an unusable configuration.
  Replica(core::Environment& env, core::Dispatcher& dispatcher,
          Options options);
  ~Replica();

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  /// Receives every executed payload, once, in total order.
  void set_execute_callback(std::function<void(const Bytes&)> cb) {
    execute_cb_ = std::move(cb);
  }
  /// Fires once, when the replica completes (see the header comment).
  void set_complete_callback(std::function<void()> cb) {
    complete_cb_ = std::move(cb);
  }

  /// Normal path: submits the send_count local payloads (and closes if
  /// asked).  Restart path: replays the durable log, then starts
  /// catch-up.  Call once, in the replica's execution context, after
  /// the callbacks are set.
  void start();

  /// Closes the ordering channel once the local submission queue has
  /// drained (close_after_send does this right after start()).  The
  /// optimistic channel has no close protocol: a no-op there.
  void close();

  /// The client gateway (never null).  Transports attach their client
  /// lane here.
  [[nodiscard]] client::ClientGateway* gateway() { return gateway_.get(); }
  /// The recovery manager (null without a state_dir).
  [[nodiscard]] const recovery::RecoveryManager* recovery() const {
    return rec_.get();
  }

  [[nodiscard]] bool recovering() const { return recovering_; }
  /// Records replayed from the durable log by start() (restart path).
  [[nodiscard]] std::size_t replayed() const { return replayed_; }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }
  [[nodiscard]] bool completed() const { return completed_; }
  /// The channel's protocol id ("cluster." + channel), shared by the
  /// whole group.
  [[nodiscard]] const std::string& pid() const { return pid_; }

 private:
  [[nodiscard]] Bytes payload_of(int k) const;
  void on_channel_delivery(const Bytes& payload, core::PartyId origin);
  void maybe_close();
  void execute(const Bytes& payload);
  void on_closed();
  void finish();

  core::Environment& env_;
  Options opts_;
  std::string pid_;
  std::unique_ptr<recovery::StateStore> store_;
  std::unique_ptr<recovery::RecoveryManager> rec_;
  bool recovering_ = false;
  std::unique_ptr<core::ChannelBase> channel_;  // null on the restart path
  std::unique_ptr<client::ClientGateway> gateway_;
  std::function<void(const Bytes&)> execute_cb_;
  std::function<void()> complete_cb_;
  bool close_wanted_ = false;
  bool close_issued_ = false;
  std::size_t replayed_ = 0;
  std::uint64_t executed_ = 0;
  bool completed_ = false;
};

}  // namespace sintra::replica
