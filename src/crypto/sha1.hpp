// SHA-1 (FIPS 180-1).
//
// The paper's prototype uses SHA-1 both for HMAC link authentication and
// as the hash inside the signature / coin-tossing schemes; we implement it
// from scratch.  (SHA-1 is cryptographically broken today — this module
// exists for protocol fidelity; the schemes also run with SHA-256.)
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "util/bytes.hpp"

namespace sintra::crypto {

class Sha1 {
 public:
  static constexpr std::size_t kDigestSize = 20;
  static constexpr std::size_t kBlockSize = 64;

  Sha1();

  Sha1& update(BytesView data);
  /// Finalizes and returns the 20-byte digest; the object must not be
  /// updated afterwards.
  [[nodiscard]] Bytes digest();
  /// Same, written into a caller's buffer (no allocation).
  void digest_to(std::span<std::uint8_t, kDigestSize> out);

  /// One-shot convenience.
  static Bytes hash(BytesView data);

 private:
  void process_block(const std::uint8_t* block);

  std::array<std::uint32_t, 5> h_;
  std::array<std::uint8_t, kBlockSize> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
  bool finalized_ = false;
};

}  // namespace sintra::crypto
