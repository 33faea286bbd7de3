// The abstract Channel interface of the paper's class hierarchy
// (Figure 2 / §3.4): send, receive, canSend, canReceive, close,
// isClosed.  All four channel protocols implement it, so applications
// can be written against the channel abstraction and switch guarantees
// (total order / causal-secure / agreement-only / consistency-only) by
// swapping the concrete class — exactly the substitution §2.7 suggests
// ("they offer a cheap alternative to atomic broadcast").
//
// Deliveries reach the application in one of two ways: pulled through
// receive_payload(), or pushed to a deliver callback.  A channel with a
// callback is push-only — it no longer queues deliveries for
// receive_payload(), so a callback consumer never has to drain an inbox.
#pragma once

#include <functional>
#include <optional>

#include "core/env.hpp"

namespace sintra::core {

class ChannelBase {
 public:
  virtual ~ChannelBase() = default;

  /// Queues a payload on the channel (throws std::logic_error if closed).
  virtual void send_payload(BytesView payload) = 0;

  /// Pops the next delivered payload, if any (always nullopt once a
  /// deliver callback is set).
  virtual std::optional<Bytes> receive_payload() = 0;

  [[nodiscard]] virtual bool can_send_payload() const = 0;
  [[nodiscard]] virtual bool can_receive_payload() const = 0;

  /// Requests termination (t+1 honest closes terminate the channel).
  virtual void close_channel() = 0;
  [[nodiscard]] virtual bool channel_closed() const = 0;

  /// Pushes every delivery, in delivery order, with the payload's origin
  /// (-1 where the channel does not reveal it).  Setting a callback
  /// turns the receive_payload() inbox off.
  virtual void set_deliver_callback(
      std::function<void(const Bytes&, PartyId origin)> cb) = 0;
  /// Fires once when the channel terminates.
  virtual void set_closed_callback(std::function<void()> cb) = 0;
};

}  // namespace sintra::core
