// Secure causal atomic broadcast channel (paper §2.6, §3.4).
//
// Wraps an atomic channel with the TDH2 threshold cryptosystem: payloads
// are encrypted under the channel's global public key before being
// atomically broadcast, so their content stays hidden until their position
// in the delivery sequence is fixed — which is exactly what preserves
// causal order against a Byzantine adversary (Reiter–Birman).  Once the
// atomic channel delivers a ciphertext, every party releases a decryption
// share; k = t+1 verified shares recover the cleartext, which is delivered
// in ciphertext order.
//
// Non-members can submit messages: encrypt() needs only the public key;
// the resulting ciphertext is handed to group members who call
// send_ciphertext() without ever seeing the cleartext (paper §3.4).
#pragma once

#include <map>
#include <memory>
#include <optional>

#include "core/channel/atomic_channel.hpp"
#include "core/share_collector.hpp"

namespace sintra::core {

class SecureAtomicChannel : public Protocol, public ChannelBase {
 public:
  SecureAtomicChannel(Environment& env, Dispatcher& dispatcher,
                      const std::string& pid, AtomicChannel::Config config);
  SecureAtomicChannel(Environment& env, Dispatcher& dispatcher,
                      const std::string& pid)
      : SecureAtomicChannel(env, dispatcher, pid, AtomicChannel::Config{}) {}
  ~SecureAtomicChannel() override;

  /// Encrypts for this channel; callable by anyone with the public key.
  static Bytes encrypt(const crypto::Tdh2Public& channel_key,
                       const std::string& pid, BytesView payload, Rng& rng);

  /// Encrypts `payload` under the group key and sends it (member-side
  /// convenience for the common case).
  void send(BytesView payload) override;

  /// Relays an externally produced ciphertext (paper §3.4).
  void send_ciphertext(BytesView ciphertext);

  [[nodiscard]] bool can_send() const override { return atomic_->can_send(); }

  // receive() and the deliver callback (ChannelBase) yield cleartexts in
  // ciphertext order.  A cleartext carries no origin (the sender is
  // hidden inside the ciphertext), so the callback always sees -1.

  /// The next *ciphertext* whose position is already fixed but whose
  /// cleartext has not been consumed via receive() yet (paper §3.4's
  /// receiveCiphertext); nullopt if none.
  std::optional<Bytes> receive_ciphertext();
  [[nodiscard]] bool can_receive_ciphertext() const {
    return ciphertext_cursor_ < slots_.size();
  }

  void close() override { atomic_->close(); }
  /// True once the ordering channel has closed and every ciphertext it
  /// ordered before the close has been delivered (or skipped as invalid).
  /// The closed callback fires when this becomes true: the ordered tail
  /// is decrypted one share round after the close, and whoever completes
  /// on that signal must hold the whole sequence.
  [[nodiscard]] bool is_closed() const override {
    return atomic_->is_closed() && next_delivery_ == slots_.size();
  }

  /// Timing log for the benchmarks (delivery time of the *cleartext*).
  struct Delivery {
    Bytes payload;
    double time_ms;
  };
  [[nodiscard]] const std::vector<Delivery>& deliveries() const {
    return deliveries_;
  }

  /// Caps the in-memory delivery logs (this channel's and the wrapped
  /// atomic channel's).
  void set_delivery_log_limit(std::size_t limit) override {
    ChannelBase::set_delivery_log_limit(limit);
    atomic_->set_delivery_log_limit(limit);
  }

  /// The atomic channel that orders this channel's ciphertexts.  It runs
  /// push-only (this channel is its deliver callback), so it never
  /// buffers a ciphertext for receive().
  [[nodiscard]] const AtomicChannel& ordering() const { return *atomic_; }

  void abort() override;

 protected:
  void on_message(PartyId from, BytesView payload) override;

 private:
  void on_ciphertext_delivered(const Bytes& ciphertext);
  void process_share(PartyId from, std::size_t index, const Bytes& share);
  void flush_ready();
  /// Fires the closed callback once is_closed() holds.
  void report_closed_if_done();

  std::unique_ptr<AtomicChannel> atomic_;

  struct Slot {
    Bytes ciphertext;
    bool invalid = false;  // failed TDH2 validity: skipped uniformly
    /// Collects decryption shares unverified; k of them trigger an
    /// optimistic combine_checked (crypto/tdh2.hpp) on the crypto pool.
    std::unique_ptr<ShareCollector<Bytes>> shares;
    std::optional<Bytes> plaintext;
    double delivered_ms = 0.0;  // when the ciphertext's position was fixed
  };
  std::vector<Slot> slots_;
  std::size_t next_delivery_ = 0;     // next slot to release in order
  std::size_t ciphertext_cursor_ = 0; // receive_ciphertext position
  // Shares that arrived before their ciphertext's slot existed.
  std::map<std::size_t, std::map<PartyId, Bytes>> early_shares_;

  std::vector<Delivery> deliveries_;

  // Instrumentation handles (obs/metrics.hpp); measurement only.
  obs::Counter* m_deliveries_ = nullptr;
  obs::Counter* m_decrypt_shares_ = nullptr;
  obs::Counter* m_invalid_ciphertexts_ = nullptr;
  obs::Histogram* m_decrypt_wait_ms_ = nullptr;
};

}  // namespace sintra::core
