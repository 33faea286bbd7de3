// Standard RSA signatures (full-domain-hash style), used for:
//  - each party's per-message signature in the atomic broadcast protocol
//    (paper §2.5: "every party first signs the next message to send
//    together with the current round number");
//  - the multi-signature implementation of threshold signatures
//    (paper §2.1);
//  - and as the base arithmetic of Shoup's threshold RSA scheme.
//
// Signing uses CRT (two half-size exponentiations), which is what makes
// multi-signatures cheap in Figure 6 of the paper.
#pragma once

#include "bignum/bigint.hpp"
#include "bignum/montgomery.hpp"
#include "bignum/prime.hpp"
#include "crypto/sha256.hpp"
#include "util/rng.hpp"
#include "util/serde.hpp"

namespace sintra::crypto {

using bignum::BigInt;

struct RsaPublicKey {
  BigInt n;
  BigInt e;

  [[nodiscard]] std::size_t modulus_bytes() const {
    return static_cast<std::size_t>(n.bit_length() + 7) / 8;
  }

  void write(Writer& w) const;
  static RsaPublicKey read(Reader& r);

  friend bool operator==(const RsaPublicKey&, const RsaPublicKey&) = default;
};

struct RsaKeyPair {
  RsaPublicKey pub;
  BigInt d;
  // CRT components.
  BigInt p, q, dp, dq, qinv;
};

/// Generates an RSA key with modulus of exactly `bits` bits.
/// If `safe_primes`, p and q are safe primes (needed by Shoup threshold
/// signatures; slower to generate).
RsaKeyPair rsa_generate(Rng& rng, int bits, bool safe_primes = false,
                        const BigInt& e = BigInt{65537});

/// Deterministic full-domain-style encoding of a message into Z_n:
/// H(0 || msg) || H(1 || msg) || ... (4-byte big-endian counters) until
/// 8 bytes more than n's width, reduced mod n.
BigInt rsa_fdh(BytesView msg, const BigInt& n, HashKind hash);

/// A key pair with its two CRT Montgomery contexts built once, so a
/// party that signs many messages builds them when its keys are
/// materialized, not per signature.  Building a context charges no work
/// units; sign() charges exactly what rsa_sign does.
class RsaSigner {
 public:
  explicit RsaSigner(RsaKeyPair key);

  [[nodiscard]] const RsaKeyPair& key() const { return key_; }

  /// FDH signature: rsa_fdh(msg)^d mod n via CRT; returned big-endian,
  /// padded to the modulus size.
  [[nodiscard]] Bytes sign(BytesView msg, HashKind hash) const;

 private:
  RsaKeyPair key_;
  bignum::Montgomery mont_p_;
  bignum::Montgomery mont_q_;
};

/// A public key with its Montgomery context built once (see RsaSigner).
class RsaVerifier {
 public:
  explicit RsaVerifier(RsaPublicKey key);

  [[nodiscard]] const RsaPublicKey& key() const { return key_; }

  /// Verifies sig^e == rsa_fdh(msg) mod n.  False on malformed input.
  [[nodiscard]] bool verify(BytesView msg, BytesView sig,
                            HashKind hash) const;

 private:
  RsaPublicKey key_;
  bignum::Montgomery mont_n_;
};

/// RsaSigner(key).sign(msg, hash), for one-off signatures.
Bytes rsa_sign(const RsaKeyPair& key, BytesView msg,
               HashKind hash = HashKind::kSha256);

/// RsaVerifier(key).verify(msg, sig, hash), for one-off checks.
bool rsa_verify(const RsaPublicKey& key, BytesView msg, BytesView sig,
                HashKind hash = HashKind::kSha256);

}  // namespace sintra::crypto
