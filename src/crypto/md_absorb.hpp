// The Merkle–Damgård absorb step shared by Sha1 and Sha256 (internal to
// their two source files).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>

#include "util/bytes.hpp"

namespace sintra::crypto {

/// Tops up a partial block, compresses every full block straight from
/// `data`, and keeps only the tail in `buffer`.
template <typename Compress>
void absorb_blocks(std::array<std::uint8_t, 64>& buffer,
                   std::size_t& buffer_len, BytesView data,
                   Compress compress) {
  const std::uint8_t* p = data.data();
  std::size_t len = data.size();
  if (len == 0) return;
  if (buffer_len > 0) {
    const std::size_t take = std::min(len, buffer.size() - buffer_len);
    std::memcpy(buffer.data() + buffer_len, p, take);
    buffer_len += take;
    p += take;
    len -= take;
    if (buffer_len < buffer.size()) return;
    compress(buffer.data());
    buffer_len = 0;
  }
  for (; len >= buffer.size(); p += buffer.size(), len -= buffer.size()) {
    compress(p);
  }
  if (len > 0) std::memcpy(buffer.data(), p, len);
  buffer_len = len;
}

}  // namespace sintra::crypto
