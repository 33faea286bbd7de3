// Aggregated broadcast channels (paper §2.7): reliable channel and
// consistent channel.
//
// Virtual protocols — they exchange no messages of their own.  A channel
// runs n broadcast instances in parallel, one per party; a terminated
// instance for sender j is replaced by a fresh one with j's sequence
// number incremented.  send() is handled by the caller's current
// instance; delivered payloads from any instance are multiplexed onto the
// channel.  A reliable channel guarantees agreement but no ordering; a
// consistent channel guarantees only consistency per (sender, seq).
//
// Termination: close() sends a termination-request marker as the caller's
// last message; a party that has received such markers from t+1 distinct
// senders aborts the still-active broadcasts and terminates.
#pragma once

#include <deque>
#include <set>
#include <vector>

#include "core/broadcast/consistent_broadcast.hpp"
#include "core/broadcast/reliable_broadcast.hpp"
#include "core/channel/channel_base.hpp"
#include "core/env.hpp"

namespace sintra::core {

/// B is ReliableBroadcast or ConsistentBroadcast (same construction and
/// delivery API).
template <typename B>
class BroadcastChannel : public ChannelBase {
 public:
  /// One multiplexed delivery: which party sent it and its per-sender
  /// sequence number.
  struct Delivery {
    Bytes payload;
    PartyId sender;
    std::uint64_t seq;
    double time_ms;
  };

  BroadcastChannel(Environment& env, Dispatcher& dispatcher, std::string pid)
      : env_(env), dispatcher_(dispatcher), pid_(std::move(pid)) {
    instances_.resize(static_cast<std::size_t>(env.n()));
    seqs_.assign(static_cast<std::size_t>(env.n()), 0);
    for (PartyId j = 0; j < env.n(); ++j) open_instance(j);
  }

  /// Queues a payload on this party's current broadcast instance.
  void send(BytesView payload) override {
    if (closed_) throw std::logic_error("BroadcastChannel::send: closed");
    Writer w;
    w.u8(0);  // data marker
    w.raw(payload);
    outgoing_.push_back(std::move(w).take());
    pump_send();
  }

  [[nodiscard]] bool can_send() const override { return !closed_; }

  /// Sends the termination request as this party's last channel message.
  void close() override {
    if (closed_ || close_sent_) return;
    close_sent_ = true;
    Writer w;
    w.u8(1);  // close marker
    outgoing_.push_back(std::move(w).take());
    pump_send();
  }

  [[nodiscard]] bool is_closed() const override { return closed_; }

  [[nodiscard]] const std::vector<Delivery>& deliveries() const {
    return deliveries_;
  }

 private:
  [[nodiscard]] std::string instance_basepid(PartyId j) const {
    return pid_ + ".q" + std::to_string(seqs_[static_cast<std::size_t>(j)]);
  }

  void open_instance(PartyId j) {
    auto inst = std::make_unique<B>(env_, dispatcher_, instance_basepid(j), j);
    inst->set_deliver_callback([this, j](const Bytes& payload) {
      on_instance_delivered(j, payload);
    });
    instances_[static_cast<std::size_t>(j)] = std::move(inst);
    if (j == env_.self()) {
      own_instance_busy_ = false;
      pump_send();
    }
  }

  void pump_send() {
    if (own_instance_busy_ || outgoing_.empty() || closed_) return;
    own_instance_busy_ = true;
    Bytes payload = std::move(outgoing_.front());
    outgoing_.pop_front();
    instances_[static_cast<std::size_t>(env_.self())]->send(payload);
  }

  void on_instance_delivered(PartyId j, const Bytes& raw) {
    if (closed_) return;
    // Replace the finished instance (deferred destruction: the old object
    // is on the call stack right now).
    retired_.push_back(std::move(instances_[static_cast<std::size_t>(j)]));
    ++seqs_[static_cast<std::size_t>(j)];
    const std::uint64_t seq = seqs_[static_cast<std::size_t>(j)] - 1;
    open_instance(j);

    try {
      Reader r(raw);
      const std::uint8_t marker = r.u8();
      Bytes payload = r.raw(r.remaining());
      if (marker == 1) {
        close_senders_.insert(j);
        if (static_cast<int>(close_senders_.size()) >= env_.t() + 1) {
          do_close();
        }
        return;
      }
      if (marker != 0) return;
      deliver_to_app(deliveries_, Delivery{payload, j, seq, env_.now_ms()},
                     std::move(payload), j);
    } catch (const SerdeError&) {
      // A Byzantine sender broadcast an unparsable channel frame: ignore.
    }
  }

  void do_close() {
    closed_ = true;
    for (auto& inst : instances_) {
      if (inst) inst->abort();
    }
    report_closed();
  }

  Environment& env_;
  Dispatcher& dispatcher_;
  std::string pid_;

  std::vector<std::unique_ptr<B>> instances_;
  std::vector<std::unique_ptr<B>> retired_;
  std::vector<std::uint64_t> seqs_;
  std::deque<Bytes> outgoing_;
  bool own_instance_busy_ = false;
  bool close_sent_ = false;
  bool closed_ = false;
  std::set<PartyId> close_senders_;
  std::vector<Delivery> deliveries_;
};

/// The paper's ReliableChannel: agreement per message, no ordering.
using ReliableChannel = BroadcastChannel<ReliableBroadcast>;

/// The paper's ConsistentChannel: consistency only.
using ConsistentChannel = BroadcastChannel<ConsistentBroadcast>;

}  // namespace sintra::core
