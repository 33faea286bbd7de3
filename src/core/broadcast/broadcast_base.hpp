// The abstract Broadcast interface of the paper's class hierarchy
// (Figure 2 / §3.2): getSender, send, receive (here: delivered),
// canReceive, abort.  Both broadcast primitives implement it, so code
// can choose the agreement/cost trade-off of §2.2 (reliable: O(n^2)
// messages, no public-key crypto; consistent: O(n) messages, threshold
// signatures) behind one type.
#pragma once

#include <optional>

#include "util/bytes.hpp"

namespace sintra::core {

class BroadcastBase {
 public:
  virtual ~BroadcastBase() = default;

  /// The distinguished sender's index (§2.2: "the identity of the sender
  /// is an input parameter to the protocol").
  [[nodiscard]] virtual int broadcast_sender() const = 0;

  /// Starts the broadcast; sender only, exactly once.
  virtual void send_broadcast(BytesView payload) = 0;

  /// The delivered payload, once accepted (the Java API's blocking
  /// receive() becomes a deliver callback in this event-driven API).
  [[nodiscard]] virtual const std::optional<Bytes>& broadcast_delivered()
      const = 0;

  [[nodiscard]] bool can_receive_broadcast() const {
    return broadcast_delivered().has_value();
  }

  /// Terminates the local instance immediately (§3.2 abort()).
  virtual void abort_broadcast() = 0;
};

}  // namespace sintra::core
