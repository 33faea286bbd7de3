// ReplicatedServiceClient — the client-side half of the client service
// layer (DESIGN.md §12).
//
// A client multicasts each request to all n replicas and accepts an
// outcome only when t+1 *distinct* replicas return byte-identical
// (status, global_seq, result) tuples: with at most t corrupted
// replicas, at least one vote in any t+1 matching set came from a
// correct replica, so the agreed tuple is the one the correct group
// executed.  Corrupted or mangled replies fail their MAC (dropped) or
// simply never gather t+1 votes.
//
// Retransmission uses exponential backoff from rto_ms and re-multicasts
// the identical datagram; the gateways' dedup makes that idempotent.
// kRetryLater replies carry a server hint that overrides the backoff —
// backpressure is distinct from loss.  Transport is injected via Hooks
// so the same state machine runs over real UDP sockets (client_swarm)
// and the deterministic simulator (tests).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <tuple>

#include "client/wire.hpp"
#include "obs/metrics.hpp"
#include "util/bytes.hpp"

namespace sintra::client {

class ReplicatedServiceClient {
 public:
  struct Options {
    std::uint32_t client_id = 0;
    Bytes key;
    int n = 4;
    int t = 1;
    double rto_ms = 250.0;       // initial retransmit timeout
    double rto_backoff = 2.0;    // multiplier per timeout
    double rto_max_ms = 2000.0;
    int max_attempts = 10;       // sends per request before giving up
  };

  struct Outcome {
    bool ok = false;             // t+1 matching kOk replies
    Status status = Status::kOk; // quorum status (kOk / kOverloaded / ...)
    std::uint64_t seq = 0;
    std::uint64_t global_seq = 0;
    Bytes result;
    bool timed_out = false;      // max_attempts exhausted without a quorum
    double latency_ms = 0;       // submit-to-quorum, client clock
  };
  using DoneFn = std::function<void(Outcome)>;

  struct Hooks {
    /// Sends a datagram to replica i.
    std::function<void(int replica, const Bytes&)> send;
    /// One-shot timer; the returned generation check is internal — fns
    /// must simply run once after roughly delay_ms.
    std::function<void(double delay_ms, std::function<void()>)> call_later;
    std::function<double()> now_ms;
  };

  ReplicatedServiceClient(Options opts, Hooks hooks);

  /// Queues a request.  Requests are issued strictly one-at-a-time (the
  /// gateway admits one outstanding request per client); `done` fires
  /// when a quorum forms, a rejection quorum forms, or attempts run out.
  void submit(Bytes payload, DoneFn done);

  /// Feeds a datagram received from any replica.
  void on_datagram(BytesView datagram);

  [[nodiscard]] std::uint32_t client_id() const { return opts_.client_id; }
  [[nodiscard]] bool idle() const { return !active_ && queue_.empty(); }
  [[nodiscard]] std::uint64_t retransmits() const { return retransmits_; }

 private:
  struct Pending {
    std::uint64_t seq = 0;
    Bytes datagram;        // the exact multicast frame, reused on retransmit
    DoneFn done;
    double started_ms = 0;
    double rto_ms = 0;
    int attempts = 0;
    // Vote key (status, global_seq, result) -> replicas that sent it.
    std::map<std::tuple<std::uint8_t, std::uint64_t, Bytes>,
             std::set<std::uint32_t>> votes;
  };

  void start_next();
  void arm_timer(double delay_ms);
  void on_timeout(std::uint64_t gen);
  void finish(Outcome outcome);

  Options opts_;
  ClientMac mac_;  // opts_.key's keyed state, for every frame
  Hooks hooks_;
  std::uint64_t next_seq_ = 1;
  std::deque<std::pair<Bytes, DoneFn>> queue_;
  bool active_ = false;
  Pending pending_;
  // Client-wide, not per request: a timer armed for an answered request
  // must stay stale after the next request starts.
  std::uint64_t timer_gen_ = 0;
  std::uint64_t retransmits_ = 0;

  // Shared across all client instances in a process (the swarm runs
  // thousands), labeled party="client".
  obs::Counter& requests_;
  obs::Counter& completed_;
  obs::Counter& rejected_;
  obs::Counter& timeouts_;
  obs::Counter& retransmits_metric_;
  obs::Histogram& quorum_ms_;
};

}  // namespace sintra::client
