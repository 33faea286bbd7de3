#include <gtest/gtest.h>

#include <string>

#include "bignum/montgomery.hpp"
#include "bignum/prime.hpp"
#include "crypto/rsa.hpp"
#include "util/hex.hpp"

namespace sintra::crypto {
namespace {

RsaKeyPair test_key() {
  static const RsaKeyPair key = [] {
    Rng rng(0xabc);
    return rsa_generate(rng, 512);
  }();
  return key;
}

TEST(Rsa, KeyStructure) {
  const RsaKeyPair key = test_key();
  EXPECT_EQ(key.pub.n.bit_length(), 512);
  EXPECT_EQ(key.pub.n, key.p * key.q);
  Rng rng(1);
  EXPECT_TRUE(bignum::is_probable_prime(key.p, rng));
  EXPECT_TRUE(bignum::is_probable_prime(key.q, rng));
  // e*d == 1 mod phi
  const BigInt phi = (key.p - BigInt{1}) * (key.q - BigInt{1});
  EXPECT_EQ((key.pub.e * key.d).mod(phi), BigInt{1});
}

TEST(Rsa, SignVerifyRoundTrip) {
  const RsaKeyPair key = test_key();
  const Bytes msg = to_bytes("pid.atomic.0|round 7|payload");
  const Bytes sig = rsa_sign(key, msg);
  EXPECT_EQ(sig.size(), key.pub.modulus_bytes());
  EXPECT_TRUE(rsa_verify(key.pub, msg, sig));
}

TEST(Rsa, VerifyRejectsWrongMessage) {
  const RsaKeyPair key = test_key();
  const Bytes sig = rsa_sign(key, to_bytes("message A"));
  EXPECT_FALSE(rsa_verify(key.pub, to_bytes("message B"), sig));
}

TEST(Rsa, VerifyRejectsTamperedSignature) {
  const RsaKeyPair key = test_key();
  const Bytes msg = to_bytes("message");
  Bytes sig = rsa_sign(key, msg);
  sig[sig.size() / 2] ^= 0x01;
  EXPECT_FALSE(rsa_verify(key.pub, msg, sig));
}

TEST(Rsa, VerifyRejectsWrongKey) {
  const RsaKeyPair key = test_key();
  Rng rng(0xdef);
  const RsaKeyPair other = rsa_generate(rng, 512);
  const Bytes msg = to_bytes("message");
  EXPECT_FALSE(rsa_verify(other.pub, msg, rsa_sign(key, msg)));
}

TEST(Rsa, VerifyRejectsMalformedSignature) {
  const RsaKeyPair key = test_key();
  const Bytes msg = to_bytes("message");
  EXPECT_FALSE(rsa_verify(key.pub, msg, Bytes{}));
  EXPECT_FALSE(rsa_verify(key.pub, msg, Bytes(3, 0xab)));
  // Right length but >= n.
  Bytes huge(key.pub.modulus_bytes(), 0xff);
  EXPECT_FALSE(rsa_verify(key.pub, msg, huge));
}

TEST(Rsa, SignatureIsDeterministic) {
  const RsaKeyPair key = test_key();
  const Bytes msg = to_bytes("same input");
  EXPECT_EQ(rsa_sign(key, msg), rsa_sign(key, msg));
}

TEST(Rsa, Sha1AndSha256Differ) {
  const RsaKeyPair key = test_key();
  const Bytes msg = to_bytes("m");
  const Bytes s1 = rsa_sign(key, msg, HashKind::kSha1);
  const Bytes s256 = rsa_sign(key, msg, HashKind::kSha256);
  EXPECT_NE(s1, s256);
  EXPECT_TRUE(rsa_verify(key.pub, msg, s1, HashKind::kSha1));
  EXPECT_FALSE(rsa_verify(key.pub, msg, s1, HashKind::kSha256));
}

TEST(Rsa, FdhCoversModulusRange) {
  // The FDH output should not be systematically short.
  const RsaKeyPair key = test_key();
  int high_bit_set = 0;
  for (int i = 0; i < 64; ++i) {
    Writer w;
    w.u32(static_cast<std::uint32_t>(i));
    const BigInt x = rsa_fdh(w.data(), key.pub.n, HashKind::kSha256);
    EXPECT_LT(x, key.pub.n);
    if (x.bit_length() >= key.pub.n.bit_length() - 1) ++high_bit_set;
  }
  EXPECT_GT(high_bit_set, 16);  // ~50% expected
}

// A fixed `bits`-bit modulus (top bit set, the rest from SHA-256 of a
// tag); rsa_fdh needs no factorization, only n.
BigInt fdh_modulus(int bits) {
  const std::string tag = "fdh-pin-" + std::to_string(bits);
  Bytes low;
  while (low.size() * 8 < static_cast<std::size_t>(bits - 8)) {
    const Bytes d = Sha256::hash(to_bytes(tag + std::to_string(low.size())));
    low.insert(low.end(), d.begin(), d.end());
  }
  low.resize(static_cast<std::size_t>(bits / 8 - 1));
  return (BigInt{1} << (bits - 1)) + BigInt::from_bytes(low);
}

// SHA-256 over rsa_fdh of seeded messages of several lengths, per hash
// kind and modulus width.  The pins were generated by the rsa_fdh that
// copied counter || message into a Writer per output block; the
// streaming one must hash the same bytes.
TEST(Rsa, FdhPinnedOutputs) {
  struct Pin {
    int bits;
    HashKind hash;
    const char* digest;
  };
  const Pin pins[] = {
      {512, HashKind::kSha1,
       "4f9bfc0641d5de01fdfd70578765c67e3437961ac5fb9e2ed8e7cb87f6975601"},
      {512, HashKind::kSha256,
       "405e29cd66d385ec70a50e80fb6da3cd65c42cd41f40e132face467ac9b4c569"},
      {1024, HashKind::kSha1,
       "0b358ac86e6783178845a922c6fefacd2a7f6161686fbe6c9d99664fa5135256"},
      {1024, HashKind::kSha256,
       "58853c9211adfbc9d8f3c3efe98954fe92b1c05dace2335ebb85170e50acbeba"},
  };
  for (const Pin& pin : pins) {
    const BigInt n = fdh_modulus(pin.bits);
    Rng rng(static_cast<std::uint64_t>(pin.bits));
    Sha256 acc;
    for (std::size_t len : {0, 3, 55, 64, 1000}) {
      const Bytes msg = rng.bytes(len);
      acc.update(rsa_fdh(msg, n, pin.hash)
                     .to_bytes_padded(static_cast<std::size_t>(pin.bits / 8)));
    }
    EXPECT_EQ(hex_encode(acc.digest()), pin.digest)
        << pin.bits << " bits, hash " << static_cast<int>(pin.hash);
  }
}

// The per-key contexts sign and verify exactly like the one-off
// functions, and charge the same work units.
TEST(Rsa, SignerAndVerifierMatchOneShotFunctions) {
  const RsaKeyPair key = test_key();
  const RsaSigner signer(key);
  const RsaVerifier verifier(key.pub);
  for (HashKind hash : {HashKind::kSha1, HashKind::kSha256}) {
    const Bytes msg = to_bytes("context reuse");
    std::uint64_t before = bignum::work_counter();
    const Bytes one_shot = rsa_sign(key, msg, hash);
    const std::uint64_t sign_work = bignum::work_counter() - before;
    before = bignum::work_counter();
    EXPECT_EQ(signer.sign(msg, hash), one_shot);
    EXPECT_EQ(bignum::work_counter() - before, sign_work);

    before = bignum::work_counter();
    EXPECT_TRUE(rsa_verify(key.pub, msg, one_shot, hash));
    const std::uint64_t verify_work = bignum::work_counter() - before;
    before = bignum::work_counter();
    EXPECT_TRUE(verifier.verify(msg, one_shot, hash));
    EXPECT_EQ(bignum::work_counter() - before, verify_work);
    EXPECT_FALSE(verifier.verify(to_bytes("other"), one_shot, hash));
  }
}

TEST(Rsa, CrtMatchesPlainExponentiation) {
  const RsaKeyPair key = test_key();
  const Bytes msg = to_bytes("crt check");
  const BigInt x = rsa_fdh(msg, key.pub.n, HashKind::kSha256);
  const BigInt plain = x.mod_pow(key.d, key.pub.n);
  EXPECT_EQ(rsa_sign(key, msg), plain.to_bytes_padded(key.pub.modulus_bytes()));
}

TEST(Rsa, SafePrimeGeneration) {
  Rng rng(0x5afe);
  const RsaKeyPair key = rsa_generate(rng, 256, /*safe_primes=*/true);
  const BigInt pp = (key.p - BigInt{1}) >> 1;
  const BigInt qp = (key.q - BigInt{1}) >> 1;
  EXPECT_TRUE(bignum::is_probable_prime(pp, rng));
  EXPECT_TRUE(bignum::is_probable_prime(qp, rng));
}

TEST(Rsa, SmallModuliWork) {
  // Figure 6 sweeps key sizes down to 128 bits.
  for (int bits : {128, 256}) {
    Rng rng(static_cast<std::uint64_t>(bits));
    const RsaKeyPair key = rsa_generate(rng, bits);
    const Bytes msg = to_bytes("tiny key test");
    EXPECT_TRUE(rsa_verify(key.pub, msg, rsa_sign(key, msg))) << bits;
  }
}

TEST(Rsa, PublicKeySerdeRoundTrip) {
  const RsaKeyPair key = test_key();
  Writer w;
  key.pub.write(w);
  Reader r(w.data());
  EXPECT_EQ(RsaPublicKey::read(r), key.pub);
}

}  // namespace
}  // namespace sintra::crypto
