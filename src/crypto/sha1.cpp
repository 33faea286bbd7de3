#include "crypto/sha1.hpp"

#include <stdexcept>
#include <utility>

#include "crypto/md_absorb.hpp"

namespace sintra::crypto {

namespace {
std::uint32_t rotl(std::uint32_t x, int k) { return (x << k) | (x >> (32 - k)); }
}  // namespace

Sha1::Sha1() : h_{0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u} {}

Sha1& Sha1::update(BytesView data) {
  if (finalized_) throw std::logic_error("Sha1: update after digest");
  total_len_ += data.size();
  absorb_blocks(buffer_, buffer_len_, data, [this](const std::uint8_t* block) {
    process_block(block);
  });
  return *this;
}

Bytes Sha1::digest() {
  Bytes out(kDigestSize);
  digest_to(std::span<std::uint8_t, kDigestSize>(out.data(), kDigestSize));
  return out;
}

void Sha1::digest_to(std::span<std::uint8_t, kDigestSize> out) {
  if (finalized_) throw std::logic_error("Sha1: digest called twice");
  finalized_ = true;
  const std::uint64_t bit_len = total_len_ * 8;
  // Padding: 0x80, zeros, 64-bit big-endian length.
  std::uint8_t pad = 0x80;
  buffer_[buffer_len_++] = pad;
  if (buffer_len_ > kBlockSize - 8) {
    while (buffer_len_ < kBlockSize) buffer_[buffer_len_++] = 0;
    process_block(buffer_.data());
    buffer_len_ = 0;
  }
  while (buffer_len_ < kBlockSize - 8) buffer_[buffer_len_++] = 0;
  for (int i = 7; i >= 0; --i) {
    buffer_[buffer_len_++] = static_cast<std::uint8_t>(bit_len >> (8 * i));
  }
  process_block(buffer_.data());

  for (int i = 0; i < 5; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(h_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(h_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(h_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(h_[i]);
  }
}

namespace {

constexpr std::uint32_t kRoundConstant[4] = {0x5A827999u, 0x6ED9EBA1u,
                                             0x8F1BBCDCu, 0xCA62C1D6u};

// Round I of the compression.  The caller renames the five working
// variables from round to round instead of shifting them, so a round only
// updates e and b.  Rounds 16..79 extend the message schedule in a
// 16-word ring: w[I & 15] still holds word I-16 when word I replaces it.
template <int I>
inline void round(std::uint32_t* w, std::uint32_t a, std::uint32_t& b,
                  std::uint32_t c, std::uint32_t d, std::uint32_t& e) {
  std::uint32_t wi;
  if constexpr (I < 16) {
    wi = w[I];
  } else {
    wi = rotl(w[(I + 13) & 15] ^ w[(I + 8) & 15] ^ w[(I + 2) & 15] ^
                  w[I & 15],
              1);
    w[I & 15] = wi;
  }
  std::uint32_t f;
  if constexpr (I < 20) {
    f = d ^ (b & (c ^ d));  // = (b & c) | (~b & d)
  } else if constexpr (I < 40 || I >= 60) {
    f = b ^ c ^ d;
  } else {
    f = (b & c) | (d & (b | c));  // = (b & c) | (b & d) | (c & d)
  }
  e += rotl(a, 5) + f + kRoundConstant[I / 20] + wi;
  b = rotl(b, 30);
}

// Five rounds bring the names back to where they started.
template <int I>
inline void five_rounds(std::uint32_t* w, std::uint32_t& a, std::uint32_t& b,
                        std::uint32_t& c, std::uint32_t& d, std::uint32_t& e) {
  round<I>(w, a, b, c, d, e);
  round<I + 1>(w, e, a, b, c, d);
  round<I + 2>(w, d, e, a, b, c);
  round<I + 3>(w, c, d, e, a, b);
  round<I + 4>(w, b, c, d, e, a);
}

}  // namespace

void Sha1::process_block(const std::uint8_t* block) {
  std::uint32_t w[16];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
           (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  }
  std::uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3], e = h_[4];
  // All 80 rounds, unrolled by the template expansion.
  [&]<int... G>(std::integer_sequence<int, G...>) {
    (five_rounds<5 * G>(w, a, b, c, d, e), ...);
  }(std::make_integer_sequence<int, 16>{});
  h_[0] += a;
  h_[1] += b;
  h_[2] += c;
  h_[3] += d;
  h_[4] += e;
}

Bytes Sha1::hash(BytesView data) { return Sha1().update(data).digest(); }

}  // namespace sintra::crypto
