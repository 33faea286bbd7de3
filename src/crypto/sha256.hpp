// SHA-256 (FIPS 180-2), used as the default hash in this reproduction's
// signature, coin and encryption schemes (the paper used SHA-1; both are
// supported — see HashKind in the scheme constructors).
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "util/bytes.hpp"

namespace sintra::crypto {

class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  static constexpr std::size_t kBlockSize = 64;

  Sha256();

  Sha256& update(BytesView data);
  [[nodiscard]] Bytes digest();
  void digest_to(std::span<std::uint8_t, kDigestSize> out);

  static Bytes hash(BytesView data);

 private:
  void process_block(const std::uint8_t* block);

  std::array<std::uint32_t, 8> h_;
  std::array<std::uint8_t, kBlockSize> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
  bool finalized_ = false;
};

/// Which hash a scheme uses internally (paper: SHA-1; default here: SHA-256).
enum class HashKind { kSha1, kSha256 };

/// Dispatches to Sha1 or Sha256.
Bytes hash_bytes(HashKind kind, BytesView data);
std::size_t hash_digest_size(HashKind kind);

}  // namespace sintra::crypto
