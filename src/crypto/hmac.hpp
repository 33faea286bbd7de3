// HMAC (RFC 2104) over SHA-1 or SHA-256.
//
// SINTRA authenticates every point-to-point link with HMAC-SHA1 under a
// 128-bit pairwise key generated by the dealer (paper §3).
#pragma once

#include <array>
#include <initializer_list>

#include "crypto/sha1.hpp"
#include "crypto/sha256.hpp"
#include "util/bytes.hpp"

namespace sintra::crypto {

/// HMAC under one fixed key.  The constructor absorbs key ^ ipad and
/// key ^ opad once, into an inner and an outer midstate; every mac() then
/// copies the two states and streams its parts, so a MAC costs the
/// compressions of its message plus one outer block, never the two pad
/// blocks again.  A link that MACs every frame under one key keeps one
/// of these for the link's life.
template <typename Hash>
class KeyedHmac {
 public:
  static constexpr std::size_t kTagSize = Hash::kDigestSize;
  using Tag = std::array<std::uint8_t, kTagSize>;

  explicit KeyedHmac(BytesView key);

  /// HMAC(key, parts[0] || parts[1] || ...); the parts are hashed in
  /// place, never concatenated.
  [[nodiscard]] Tag mac(std::initializer_list<BytesView> parts) const;

  /// Constant-time comparison of `tag` with mac(parts).
  [[nodiscard]] bool verify(std::initializer_list<BytesView> parts,
                            BytesView tag) const;

 private:
  Hash inner_;  // after key ^ ipad
  Hash outer_;  // after key ^ opad
};

extern template class KeyedHmac<Sha1>;
extern template class KeyedHmac<Sha256>;

/// The paper's link MAC.
using HmacSha1 = KeyedHmac<Sha1>;

/// Computes HMAC(key, data) with the chosen hash.
Bytes hmac(HashKind kind, BytesView key, BytesView data);

/// Convenience: paper-faithful HMAC-SHA1.
Bytes hmac_sha1(BytesView key, BytesView data);

/// Authenticated-message helper: tag = HMAC(key, data); verify is
/// constant-time.
bool hmac_verify(HashKind kind, BytesView key, BytesView data, BytesView tag);

}  // namespace sintra::crypto
