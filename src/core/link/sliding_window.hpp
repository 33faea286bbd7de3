// Sliding-window reliable link with authenticated acknowledgments.
//
// The paper's §3 points out that its TCP links are "subject to a
// denial-of-service attack by sending forged TCP acknowledgements" and
// that "it is planned to replace TCP by SINTRA's own sliding-window
// implementation, which will provide authenticated acknowledgments."
// This module is that replacement: a reliable FIFO exactly-once byte-
// message link over an unreliable datagram service, with every frame —
// data AND acknowledgment — authenticated by HMAC under the pairwise
// dealer key, so acknowledgments cannot be forged.
//
// Mechanics (TCP-like selective repeat):
//   - data frames carry a 64-bit sequence number; the sender keeps up to
//     `window` unacknowledged frames in flight and retransmits on a
//     per-link timeout;
//   - the receiver buffers out-of-order frames inside the window,
//     delivers in order exactly once, and returns cumulative ACKs
//     (next-expected sequence) on every data frame;
//   - duplicated, reordered and forged datagrams are all tolerated.
//
// Retransmission timing (used over real sockets, see src/net/): when the
// channel provides a monotonic clock, the retransmit timeout adapts to
// the measured round-trip time (Jacobson/Karels smoothing, Karn's rule:
// retransmitted frames are never sampled), backs off exponentially on
// every expiry, and is jittered to avoid synchronized retransmit storms.
// The one timer restarts whenever an ACK acknowledges new data (RFC 6298
// §5.3), so it expires only after a full RTO without progress.
// Timing never enters protocol logic above the link — it only decides
// *when to resend*, never *what to deliver*.
//
// Session epochs (crash recovery, DESIGN.md §10): each endpoint draws a
// random per-boot epoch; every frame carries the sender's epoch plus an
// echo of the last peer epoch it authenticated, both under the MAC.
// A changed peer epoch on an authenticated frame means the peer
// restarted: the local window state is discarded (receive position and
// outgoing numbering restart at zero) instead of treating the fresh
// process as a replay attacker.  Retired epochs are remembered so
// replayed frames from a dead session are dropped, and data/ACK frames
// are only *applied* when their echo matches our current epoch — a
// sender still numbering against a previous incarnation of us cannot
// corrupt the fresh window.  Exactly-once FIFO delivery therefore holds
// per (epoch pair) session; deduplication across restarts belongs to the
// protocol layers above (delivery keys / the recovery log), as does
// re-sending payloads the dead process had accepted but not yet flushed.
#pragma once

#include <array>
#include <deque>
#include <functional>
#include <map>
#include <memory>

#include "crypto/hmac.hpp"
#include "util/bytes.hpp"

namespace sintra::core {

/// Abstract datagram endpoint for one peer pair (implemented by
/// sim::DatagramService in the simulator; a UDP socket in a deployment).
class DatagramChannel {
 public:
  virtual ~DatagramChannel() = default;
  virtual void send_datagram(Bytes datagram) = 0;
  virtual void call_later(double delay_ms, std::function<void()> fn) = 0;

  /// Monotonic clock in milliseconds, used only for RTT measurement.
  /// A channel without a usable clock returns a negative value; the link
  /// then keeps its configured fixed timeout (still with backoff).
  [[nodiscard]] virtual double now_ms() const { return -1.0; }
};

class SlidingWindowLink {
 public:
  struct Options {
    std::size_t window = 32;
    /// Initial retransmission timeout (also the fixed timeout when the
    /// channel has no clock).
    double retransmit_ms = 50.0;
    /// Adaptive-timeout clamp: rto = clamp(srtt + 4·rttvar, min, max).
    double min_rto_ms = 10.0;
    double max_rto_ms = 4000.0;
    /// Multiplier applied to the timeout on every expiry (exponential
    /// backoff; reset by the next successful RTT sample).
    double backoff = 2.0;
    /// Fraction of the timeout randomized away on each arm (±jitter).
    double jitter = 0.1;
    /// Hard cap on buffered out-of-order frames (flooding guard).
    std::size_t max_receive_buffer = 1024;
    /// Per-boot session epoch carried (authenticated) in every frame.
    /// 0 derives a deterministic nonzero value from (self, peer) — fine
    /// for tests and single-boot runs; a deployment that wants restart
    /// detection must pass a fresh random epoch each boot
    /// (NetEnvironment draws one from std::random_device).
    std::uint64_t epoch = 0;
    /// Retired peer epochs remembered for replay rejection.
    std::size_t max_retired_epochs = 16;
  };

  /// Counters and timing state exposed for tests, stats dumps and the
  /// cluster runner.  Every dropped datagram is accounted to exactly one
  /// drop_* bucket.
  struct Stats {
    std::uint64_t data_received = 0;   // authenticated data frames
    std::uint64_t acks_received = 0;   // authenticated ACK frames
    std::uint64_t delivered = 0;       // messages handed to the callback
    std::uint64_t retransmissions = 0;
    std::uint64_t backoffs = 0;        // timeout expiries that backed off
    std::uint64_t rtt_samples = 0;
    double srtt_ms = -1.0;             // smoothed RTT (-1 until sampled)
    double rttvar_ms = 0.0;
    double rto_ms = 0.0;               // current retransmission timeout
    std::uint64_t drop_auth = 0;       // HMAC verification failed
    std::uint64_t drop_malformed = 0;  // truncated / unparsable / bad type
    std::uint64_t drop_overflow = 0;   // beyond the receive-buffer window
    std::uint64_t drop_duplicate = 0;  // already delivered or buffered
    /// Authenticated frames not applied for epoch reasons: retired peer
    /// epoch (dead-session replay) or an echo that is not our current
    /// epoch (the peer is still numbering against a previous session).
    std::uint64_t drop_epoch = 0;
    /// Session resets detected: the peer's epoch changed (it restarted,
    /// our window state was discarded), or an authenticated frame echoed
    /// a stale epoch of ours (a previous incarnation of us died) —
    /// counted once per stale-echo episode, not per frame.
    std::uint64_t epoch_resets = 0;
  };

  /// `link_key` is the dealer's pairwise HMAC key; `self`/`peer` index
  /// the endpoints and are bound into every MAC so frames cannot be
  /// reflected or cross-wired.
  SlidingWindowLink(DatagramChannel& channel, int self, int peer,
                    BytesView link_key, Options options);
  SlidingWindowLink(DatagramChannel& channel, int self, int peer,
                    BytesView link_key)
      : SlidingWindowLink(channel, self, peer, link_key, Options{}) {}

  /// Queues a message for reliable in-order delivery to the peer.
  void send(Bytes message);

  /// Shared-buffer variant for broadcast fan-out: the caller frames a
  /// message once and every per-peer link holds the same immutable buffer
  /// instead of its own copy (NetEnvironment::send_all).
  void send(std::shared_ptr<const Bytes> message);

  /// Feeds an incoming datagram (possibly corrupt/forged/duplicated).
  void on_datagram(BytesView datagram);

  /// Sends one (authenticated) ACK frame carrying our current epoch —
  /// an epoch announcement.  Called at link bring-up so peers learn a
  /// fresh epoch (and detect a restart) without waiting for data
  /// traffic; also sent automatically in response to stale-echo frames.
  void announce() { send_ack(); }

  /// In-order exactly-once delivery upcall.
  void set_deliver_callback(std::function<void(Bytes)> cb) {
    deliver_cb_ = std::move(cb);
  }

  // Introspection for tests and stats.
  [[nodiscard]] std::uint64_t sent_seq() const { return next_seq_; }
  [[nodiscard]] std::uint64_t acked_seq() const { return base_; }
  [[nodiscard]] std::uint64_t delivered_seq() const { return expected_; }
  [[nodiscard]] std::uint64_t retransmissions() const {
    return stats_.retransmissions;
  }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  /// Queued + in-flight messages not yet acknowledged by the peer.
  [[nodiscard]] std::size_t backlog() const {
    return queue_.size() + in_flight_.size();
  }
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  /// Last authenticated peer epoch (0 until the first frame arrives).
  [[nodiscard]] std::uint64_t peer_epoch() const { return peer_epoch_; }

 private:
  enum class FrameType : std::uint8_t { kData = 1, kAck = 2 };

  struct InFlight {
    std::shared_ptr<const Bytes> message;
    double sent_ms = -1.0;      // first transmission time (clock units)
    bool retransmitted = false;  // Karn's rule: never RTT-sample these
  };

  /// MAC input before the body: type, data sender, data receiver, sender
  /// epoch, echo, seq and body length, encoded as Writer would.
  static constexpr std::size_t kMacHeaderSize = 1 + 4 + 4 + 8 + 8 + 8 + 4;
  using MacHeader = std::array<std::uint8_t, kMacHeaderSize>;
  [[nodiscard]] static MacHeader mac_header(FrameType type, int from, int to,
                                            std::uint64_t sender_epoch,
                                            std::uint64_t echo,
                                            std::uint64_t seq,
                                            std::size_t body_size);
  [[nodiscard]] Bytes frame(FrameType type, std::uint64_t seq,
                            BytesView body) const;
  void pump();
  void transmit(std::uint64_t seq);
  void send_ack();
  void arm_timer();
  void on_timeout();
  void sample_rtt(double rtt_ms);
  [[nodiscard]] double jittered_rto();
  /// Epoch bookkeeping for one authenticated frame; returns false when
  /// the frame must not be applied (retired epoch / stale echo).
  bool accept_epochs(std::uint64_t sender_epoch, std::uint64_t echo);
  void reset_session();
  void retransmit_in_flight();

  DatagramChannel& channel_;
  int self_;
  int peer_;
  crypto::HmacSha1 link_mac_;  // keyed once with the pairwise link key
  Options options_;

  // Session epochs.
  std::uint64_t epoch_;
  std::uint64_t peer_epoch_ = 0;        // 0 = not yet learned
  std::vector<std::uint64_t> retired_;  // dead peer epochs (replay guard)
  bool peer_stale_ = false;  // inside a stale-echo episode (counted once)

  // Sender state.
  std::deque<std::shared_ptr<const Bytes>> queue_;  // not yet assigned a seq
  std::map<std::uint64_t, InFlight> in_flight_;  // seq -> frame state
  std::uint64_t next_seq_ = 0;
  std::uint64_t base_ = 0;  // lowest unacked
  bool timer_armed_ = false;
  // Bumped on every arm; a callback from an earlier arm does nothing.
  std::uint64_t timer_generation_ = 0;

  // Adaptive retransmission timeout.
  std::uint64_t jitter_state_;  // per-link deterministic LCG

  // Receiver state.
  std::uint64_t expected_ = 0;
  std::map<std::uint64_t, Bytes> out_of_order_;

  Stats stats_;
  std::function<void(Bytes)> deliver_cb_;
};

}  // namespace sintra::core
