#include "crypto/sha1.hpp"

#include <stdexcept>

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

void Sha1::process_block(const std::uint8_t* block) {
  std::uint32_t w[80];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
           (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 80; ++i) {
    w[i] = rotl(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
  }
  std::uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3], e = h_[4];
  // Four branch-free 20-round stages, one per round function.
  const auto step = [&](std::uint32_t f, std::uint32_t k, std::uint32_t wi) {
    const std::uint32_t temp = rotl(a, 5) + f + e + k + wi;
    e = d;
    d = c;
    c = rotl(b, 30);
    b = a;
    a = temp;
  };
  for (int i = 0; i < 20; ++i) step((b & c) | (~b & d), 0x5A827999u, w[i]);
  for (int i = 20; i < 40; ++i) step(b ^ c ^ d, 0x6ED9EBA1u, w[i]);
  for (int i = 40; i < 60; ++i) {
    step((b & c) | (b & d) | (c & d), 0x8F1BBCDCu, w[i]);
  }
  for (int i = 60; i < 80; ++i) step(b ^ c ^ d, 0xCA62C1D6u, w[i]);
  h_[0] += a;
  h_[1] += b;
  h_[2] += c;
  h_[3] += d;
  h_[4] += e;
}

Bytes Sha1::hash(BytesView data) { return Sha1().update(data).digest(); }

}  // namespace sintra::crypto
