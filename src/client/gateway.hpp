// ClientGateway — the replica-side half of the client service layer
// (DESIGN.md §12).
//
// One gateway sits in front of each replica's ordering channel (atomic,
// secure-atomic or optimistic).  It is transport-agnostic: datagrams
// arrive via on_request_datagram() (fed by net::UdpClientFront in real
// deployments or client::SimClientNet in simulation), admitted requests
// leave through a submit hook (the channel's proposer), and executions
// re-enter through on_delivered() when the total order hands payloads
// back.
//
// The pipeline per request:
//
//   MAC verify  ->  dedup (per-client seq)  ->  admission control
//   (per-client + global token buckets, bounded pending window)  ->
//   designation: propose, or hold  ->  wrap + propose  ->  ... atomic
//   broadcast ...  ->  on_delivered: delivery-time MAC re-check +
//   at-most-once execute  ->  signed reply.
//
// A client multicasts each request to all n replicas, but only the
// request's designated replica (designated_replica in wire.hpp) proposes
// the first transmission, so each request is ordered once.  Every other
// replica runs the same checks and admission, then holds the seq and
// sends nothing.  When the client's RTO re-multicasts the request, each
// replica holding it proposes it: a silent designated replica costs one
// client RTO, and the retransmit takes the every-replica-proposes path.
//
// Determinism: everything downstream of the broadcast — unwrap, the
// delivery-time MAC re-check, dedup, execution order — is a pure
// function of the delivered payload stream plus the shared key table,
// so every correct replica executes the identical request subsequence
// and replies with identical (status, global_seq, result) tuples.
// That is what makes the client's t+1 matching-reply quorum sound.
// Admission decisions (token buckets, pending depth) are deliberately
// *upstream* of the broadcast and may differ per replica; they, like the
// designation, only decide who proposes, never what executes.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>

#include "client/keys.hpp"
#include "client/wire.hpp"
#include "obs/metrics.hpp"
#include "util/bytes.hpp"

namespace sintra::client {

class ClientGateway {
 public:
  struct Options {
    std::uint32_t replica = 0;  // this replica's party id
    int n = 4;
    int t = 1;
    // Per-client token bucket (requests/sec, burst capacity).
    double rate_per_sec = 100.0;
    double burst = 20.0;
    // Global shed threshold across all clients; 0 disables.
    double global_rate_per_sec = 0.0;
    double global_burst = 0.0;
    // Cap on distinct clients tracked; new clients beyond it are shed.
    // 0 = unlimited.
    std::size_t max_clients = 0;
    // Backpressure: max requests proposed but not yet executed here.
    std::size_t max_pending = 1024;
    // Cached wire-ready replies retained per client for retransmits.
    std::size_t reply_cache = 4;
    // Hint sent with kRetryLater.
    std::uint32_t retry_hint_ms = 50;
  };

  /// Opaque transport address of a client (raw sockaddr bytes for UDP,
  /// a label in simulation).  The gateway never interprets it.
  using Address = std::string;

  /// Hands an admitted, wrapped request to the proposer.  Must return
  /// false when the channel cannot accept more work (closed); the
  /// request is then shed.
  using SubmitFn = std::function<bool(Bytes wrapped)>;
  /// Sends a wire-ready reply datagram back to a client address.
  using ReplyFn = std::function<void(const Address&, Bytes datagram)>;
  /// Monotonic milliseconds used by the token buckets.  In simulation
  /// this is virtual time, keeping admission decisions replayable.
  using ClockFn = std::function<double()>;

  ClientGateway(Options opts, ClockFn clock);

  void set_key_table(KeyTable table) {
    keys_ = std::move(table);
    macs_.clear();
  }
  void set_submit(SubmitFn fn) { submit_ = std::move(fn); }
  void set_reply(ReplyFn fn) { reply_ = std::move(fn); }

  /// Test hook: mangles outgoing reply datagrams (Byzantine replica).
  void set_reply_mangler(std::function<Bytes(Bytes)> fn) {
    mangle_ = std::move(fn);
  }

  /// Ingest path: one client datagram from the transport.
  void on_request_datagram(BytesView datagram, const Address& from);

  /// Replica-originated payload (sintra_node --send).  Routed through
  /// the same wrap/propose/dedup machinery under this replica's pseudo
  /// client id, so there is exactly one at-most-once policy.  Local
  /// submissions bypass MAC + rate limiting (they are trusted) but
  /// still respect the pending window: when it is full they queue
  /// internally and drain as executions complete.
  void submit_local(Bytes payload);

  /// A payload executed by this replica in total order.
  struct Executed {
    bool local = false;          // originated from submit_local on some replica
    std::uint32_t client_id = 0;
    std::uint64_t seq = 0;
    std::uint64_t global_seq = 0;  // execution index in the total order
    Bytes payload;
  };

  /// Delivery path: every payload the ordering channel delivers, in
  /// order.  Returns the execution record on first execution, nullopt
  /// for duplicates / forged entries / non-envelopes (counted).  Sends the reply (or a
  /// cached one) as a side effect when the client's address is known.
  std::optional<Executed> on_delivered(BytesView channel_payload);

  /// Unwraps without executing — used by recovery replay rendering and
  /// diagnostics.  Static: depends only on the payload bytes.
  static std::optional<WrappedRequest> peek(BytesView channel_payload) {
    return unwrap_request(channel_payload);
  }

  [[nodiscard]] std::size_t pending_depth() const { return pending_total_; }
  /// True when no submit_local payloads are waiting for window space —
  /// the safe moment to close the channel under local load.
  [[nodiscard]] bool local_queue_empty() const { return local_queue_.empty(); }
  [[nodiscard]] std::uint64_t executed_count() const { return next_global_; }
  [[nodiscard]] const Options& options() const { return opts_; }
  [[nodiscard]] std::uint32_t local_client_id() const {
    return kLocalClientBase + opts_.replica;
  }

 private:
  struct TokenBucket {
    double tokens = 0;
    double last_ms = 0;
    bool take(double now_ms, double rate_per_sec, double burst);
  };

  struct ClientState {
    Address addr;            // last authenticated source address
    bool addr_known = false;
    TokenBucket bucket;
    // At-most-once execution record: everything <= floor executed,
    // plus the sparse set above it (out-of-order delivery happens when
    // different replicas propose different seqs of the same client).
    std::uint64_t floor = 0;  // seqs start at 1; 0 = none executed
    std::set<std::uint64_t> executed_above;
    // Seqs this replica proposed that have not executed yet.  Released
    // by seq, so a late duplicate of an older request cannot free the
    // slot of the one in flight.
    std::set<std::uint64_t> pending;
    // The newest seq admitted here but left to its designated replica
    // (0 = none); a retransmit of it is proposed here too.
    std::uint64_t held = 0;
    // Recent wire-ready replies, newest last, for retransmit hits.
    std::deque<std::pair<std::uint64_t, Bytes>> replies;
  };

  ClientState& state(std::uint32_t client_id);
  bool already_executed(const ClientState& cs, std::uint64_t seq) const;
  void mark_executed(ClientState& cs, std::uint64_t seq);
  void send_reply(std::uint32_t client_id, ClientState& cs,
                  const ReplyFrame& frame);
  void reject(std::uint32_t client_id, ClientState& cs, std::uint64_t seq,
              Status status);
  void admit(ClientState& cs, std::uint64_t seq);
  void release(ClientState& cs, std::uint64_t seq);
  void drain_local_queue();
  void set_pending_gauge();
  /// Runs `check` under the keyed MAC state of known client `id`.  The
  /// state is kept for later frames only once a MAC has verified under
  /// it, so datagrams forged for every registered id cannot grow macs_.
  template <typename Check>
  bool authenticate(std::uint32_t id, Check&& check);
  /// The keyed MAC state of a client that has authenticated (replies go
  /// only to such clients).
  const ClientMac& client_mac(std::uint32_t id);

  Options opts_;
  ClockFn clock_;
  KeyTable keys_;
  // One keyed HMAC state per authenticated client, so no frame re-derives
  // the client key or re-absorbs its pads.  Cleared with the key table.
  std::unordered_map<std::uint32_t, ClientMac> macs_;
  SubmitFn submit_;
  ReplyFn reply_;
  std::function<Bytes(Bytes)> mangle_;

  std::unordered_map<std::uint32_t, ClientState> clients_;
  TokenBucket global_bucket_;
  std::size_t pending_total_ = 0;
  std::uint64_t next_global_ = 0;  // executions so far == next global_seq
  std::uint64_t local_seq_ = 0;    // submit_local sequence numbers
  std::deque<Bytes> local_queue_;  // local payloads awaiting window space

  // Metrics (docs/OBSERVABILITY.md "Client gateway"); handles resolved
  // once at construction, updated lock-free.
  obs::Counter& admitted_;
  obs::Counter& shed_;
  obs::Counter& retry_later_;
  obs::Counter& dedup_hits_;
  obs::Counter& rejected_auth_;
  obs::Counter& executed_;
  obs::Counter& replies_sent_;
  obs::Counter& held_;
  obs::Counter& dup_deliveries_;
  obs::Gauge& pending_depth_;
};

}  // namespace sintra::client
