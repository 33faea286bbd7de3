// The abstract Channel interface of the paper's class hierarchy
// (Figure 2 / §3.4): send, receive, canSend, canReceive, close,
// isClosed.  Every channel protocol implements it — atomic,
// secure-atomic, reliable, consistent and optimistic — so applications
// can be written against the channel abstraction and switch guarantees
// (total order / causal-secure / agreement-only / consistency-only) by
// swapping the concrete class — exactly the substitution §2.7 suggests
// ("they offer a cheap alternative to atomic broadcast").
//
// The receive side is the same for every channel, so it lives here: a
// channel decides what it delivers and hands each delivery to
// deliver_to_app(), which appends it to the channel's typed delivery log
// (capped by set_delivery_log_limit) and then either pushes it to the
// deliver callback or queues it for receive().  A channel with a
// callback is push-only — it no longer queues deliveries for receive(),
// so a callback consumer never has to drain an inbox.
#pragma once

#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "core/env.hpp"

namespace sintra::core {

class ChannelBase {
 public:
  ChannelBase() = default;
  // Channels hand `this` to the callbacks of the protocols under them.
  ChannelBase(const ChannelBase&) = delete;
  ChannelBase& operator=(const ChannelBase&) = delete;
  virtual ~ChannelBase() = default;

  /// Queues a payload on the channel (throws std::logic_error if closed).
  virtual void send(BytesView payload) = 0;
  [[nodiscard]] virtual bool can_send() const = 0;

  /// Requests termination (t+1 honest closes terminate the channel).
  virtual void close() = 0;
  [[nodiscard]] virtual bool is_closed() const = 0;

  /// send() under the name applications written against ChannelBase use.
  void send_payload(BytesView payload) { send(payload); }

  /// Pops the next delivered payload, if any (always nullopt once a
  /// deliver callback is set).
  std::optional<Bytes> receive() {
    if (inbox_.empty()) return std::nullopt;
    Bytes out = std::move(inbox_.front());
    inbox_.pop_front();
    return out;
  }
  [[nodiscard]] bool can_receive() const { return !inbox_.empty(); }

  /// Pushes every delivery, in delivery order, with the payload's origin
  /// (-1 where the channel does not reveal it).  Setting a callback
  /// turns the receive() inbox off.
  void set_deliver_callback(
      std::function<void(const Bytes&, PartyId origin)> cb) {
    deliver_cb_ = std::move(cb);
  }
  /// Fires once, when the channel terminates.
  void set_closed_callback(std::function<void()> cb) {
    closed_cb_ = std::move(cb);
  }

  /// Caps the in-memory delivery log at roughly `limit` entries (the
  /// oldest half is dropped once 2×limit accumulate, so trimming is
  /// amortized O(1)).  0 = unlimited retention (the default; benchmarks
  /// rely on the full log).  Long-running processes should set a cap.
  virtual void set_delivery_log_limit(std::size_t limit) {
    delivery_log_limit_ = limit;
  }

 protected:
  /// Hands one delivery to the application: appends `record` to the
  /// channel's delivery log `log`, trims the log under the cap, then
  /// pushes `payload` to the callback or queues it for receive().
  template <class Record>
  void deliver_to_app(std::vector<Record>& log, Record record,
                      Bytes&& payload, PartyId origin) {
    log.push_back(std::move(record));
    if (delivery_log_limit_ != 0 && log.size() >= 2 * delivery_log_limit_) {
      log.erase(log.begin(),
                log.end() - static_cast<std::ptrdiff_t>(delivery_log_limit_));
    }
    if (deliver_cb_) {
      deliver_cb_(payload, origin);
    } else {
      inbox_.push_back(std::move(payload));
    }
  }

  /// Fires the closed callback; later calls do nothing.
  void report_closed() {
    if (closed_reported_) return;
    closed_reported_ = true;
    if (closed_cb_) closed_cb_();
  }

 private:
  std::deque<Bytes> inbox_;  // pull mode only (no deliver callback)
  std::size_t delivery_log_limit_ = 0;  // 0 = unlimited
  std::function<void(const Bytes&, PartyId)> deliver_cb_;
  std::function<void()> closed_cb_;
  bool closed_reported_ = false;
};

}  // namespace sintra::core
