// The execution environment a SINTRA party runs in.
//
// Protocol code is written against this interface only; the discrete-event
// simulator (sim/) and the UDP deployment (net/) both implement it.  The model matches the paper's: reliable authenticated
// asynchronous point-to-point links, no common clock, no timing
// assumptions anywhere in protocol logic (now_ms exists for measurement
// only and must never influence control flow).
#pragma once

#include "crypto/dealer.hpp"
#include "crypto/work_pool.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace sintra::core {

using PartyId = int;

class Environment {
 public:
  virtual ~Environment() = default;

  [[nodiscard]] virtual PartyId self() const = 0;
  [[nodiscard]] virtual int n() const = 0;
  [[nodiscard]] virtual int t() const = 0;

  /// Asynchronously sends framed bytes to one party.  Reliable and
  /// authenticated; delivery order per link is FIFO; delay is unbounded.
  virtual void send(PartyId to, Bytes wire) = 0;

  /// Sends to every party including self (self-delivery goes through the
  /// same asynchronous path — no reentrancy).
  virtual void send_all(Bytes wire) = 0;

  /// Virtual (simulator) or wall-clock (net) time, for measurement only.
  [[nodiscard]] virtual double now_ms() const = 0;

  /// Per-party deterministic randomness.
  [[nodiscard]] virtual Rng& rng() = 0;

  /// This party's key material from the trusted dealer.
  [[nodiscard]] virtual const crypto::PartyKeys& keys() const = 0;

  /// The worker pool protocols offload combine/verify work to (see
  /// crypto/work_pool.hpp).  The default is a process-wide *inline* pool:
  /// submit() runs the work synchronously on the calling thread, which
  /// keeps the simulator single-threaded and its virtual-time traces
  /// deterministic.  NetEnvironment overrides this with a real pool when
  /// configured with crypto_threads > 0.
  [[nodiscard]] virtual crypto::WorkPool& crypto_pool() {
    static crypto::WorkPool inline_pool{0};
    return inline_pool;
  }
};

}  // namespace sintra::core
