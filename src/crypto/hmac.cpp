#include "crypto/hmac.hpp"

#include <algorithm>

namespace sintra::crypto {

template <typename Hash>
KeyedHmac<Hash>::KeyedHmac(BytesView key) {
  constexpr std::size_t kBlock = Hash::kBlockSize;
  std::array<std::uint8_t, kBlock> k{};
  if (key.size() > kBlock) {
    Hash().update(key).digest_to(
        std::span<std::uint8_t, Hash::kDigestSize>(k.data(), Hash::kDigestSize));
  } else {
    std::copy(key.begin(), key.end(), k.begin());
  }
  std::array<std::uint8_t, kBlock> pad{};
  for (std::size_t i = 0; i < kBlock; ++i) pad[i] = k[i] ^ 0x36;
  inner_.update(pad);
  for (std::size_t i = 0; i < kBlock; ++i) pad[i] = k[i] ^ 0x5c;
  outer_.update(pad);
}

template <typename Hash>
typename KeyedHmac<Hash>::Tag KeyedHmac<Hash>::mac(
    std::initializer_list<BytesView> parts) const {
  Hash inner = inner_;
  for (const BytesView part : parts) inner.update(part);
  Tag tag{};
  inner.digest_to(tag);
  Hash outer = outer_;
  outer.update(tag).digest_to(tag);
  return tag;
}

template <typename Hash>
bool KeyedHmac<Hash>::verify(std::initializer_list<BytesView> parts,
                             BytesView tag) const {
  return ct_equal(mac(parts), tag);
}

template class KeyedHmac<Sha1>;
template class KeyedHmac<Sha256>;

Bytes hmac(HashKind kind, BytesView key, BytesView data) {
  if (kind == HashKind::kSha1) return hmac_sha1(key, data);
  const auto tag = KeyedHmac<Sha256>(key).mac({data});
  return Bytes(tag.begin(), tag.end());
}

Bytes hmac_sha1(BytesView key, BytesView data) {
  const auto tag = HmacSha1(key).mac({data});
  return Bytes(tag.begin(), tag.end());
}

bool hmac_verify(HashKind kind, BytesView key, BytesView data, BytesView tag) {
  return kind == HashKind::kSha1 ? HmacSha1(key).verify({data}, tag)
                                 : KeyedHmac<Sha256>(key).verify({data}, tag);
}

}  // namespace sintra::crypto
