#include "crypto/rsa.hpp"

#include <array>
#include <stdexcept>

#include "crypto/sha1.hpp"

namespace sintra::crypto {

void RsaPublicKey::write(Writer& w) const {
  n.write(w);
  e.write(w);
}

RsaPublicKey RsaPublicKey::read(Reader& r) {
  RsaPublicKey out;
  out.n = BigInt::read(r);
  out.e = BigInt::read(r);
  return out;
}

RsaKeyPair rsa_generate(Rng& rng, int bits, bool safe_primes,
                        const BigInt& e) {
  if (bits < 32) throw std::domain_error("rsa_generate: modulus too small");
  const int half = bits / 2;
  for (;;) {
    const BigInt p = safe_primes ? bignum::random_safe_prime(rng, half)
                                 : bignum::random_prime(rng, half);
    const BigInt q = safe_primes ? bignum::random_safe_prime(rng, bits - half)
                                 : bignum::random_prime(rng, bits - half);
    if (p == q) continue;
    const BigInt n = p * q;
    if (n.bit_length() != bits) continue;
    const BigInt phi = (p - BigInt{1}) * (q - BigInt{1});
    if (BigInt::gcd(e, phi) != BigInt{1}) continue;
    RsaKeyPair key;
    key.pub = {n, e};
    key.d = e.mod_inverse(phi);
    key.p = p;
    key.q = q;
    key.dp = key.d.mod(p - BigInt{1});
    key.dq = key.d.mod(q - BigInt{1});
    key.qinv = q.mod_inverse(p);
    return key;
  }
}

namespace {

// One output block of rsa_fdh per counter value: the counter, then the
// message, streamed into the hash without a concatenated copy.
template <typename Hash>
Bytes fdh_material(BytesView msg, std::size_t want) {
  Bytes material;
  material.reserve(want + Hash::kDigestSize);
  std::uint8_t counter[4];
  std::array<std::uint8_t, Hash::kDigestSize> block;
  for (std::uint32_t i = 0; material.size() < want; ++i) {
    put_u32(counter, i);
    Hash h;
    h.update(BytesView(counter, sizeof counter));
    h.update(msg);
    h.digest_to(block);
    material.insert(material.end(), block.begin(), block.end());
  }
  return material;
}

}  // namespace

BigInt rsa_fdh(BytesView msg, const BigInt& n, HashKind hash) {
  const std::size_t nbytes = static_cast<std::size_t>(n.bit_length() + 7) / 8;
  const Bytes material = hash == HashKind::kSha1
                             ? fdh_material<Sha1>(msg, nbytes + 8)
                             : fdh_material<Sha256>(msg, nbytes + 8);
  return BigInt::from_bytes(material).mod(n);
}

RsaSigner::RsaSigner(RsaKeyPair key)
    : key_(std::move(key)), mont_p_(key_.p), mont_q_(key_.q) {}

Bytes RsaSigner::sign(BytesView msg, HashKind hash) const {
  const BigInt x = rsa_fdh(msg, key_.pub.n, hash);
  // CRT: two half-size exponentiations.
  const BigInt m1 = mont_p_.pow(x.mod(key_.p), key_.dp);
  const BigInt m2 = mont_q_.pow(x.mod(key_.q), key_.dq);
  const BigInt h = (key_.qinv * (m1 - m2)).mod(key_.p);
  const BigInt s = m2 + key_.q * h;
  return s.to_bytes_padded(key_.pub.modulus_bytes());
}

RsaVerifier::RsaVerifier(RsaPublicKey key)
    : key_(std::move(key)), mont_n_(key_.n) {}

bool RsaVerifier::verify(BytesView msg, BytesView sig, HashKind hash) const {
  if (sig.size() != key_.modulus_bytes()) return false;
  const BigInt s = BigInt::from_bytes(sig);
  if (s >= key_.n) return false;
  return mont_n_.pow(s, key_.e) == rsa_fdh(msg, key_.n, hash);
}

Bytes rsa_sign(const RsaKeyPair& key, BytesView msg, HashKind hash) {
  return RsaSigner(key).sign(msg, hash);
}

bool rsa_verify(const RsaPublicKey& key, BytesView msg, BytesView sig,
                HashKind hash) {
  return RsaVerifier(key).verify(msg, sig, hash);
}

}  // namespace sintra::crypto
