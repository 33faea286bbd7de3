#include <gtest/gtest.h>

#include <algorithm>
#include <type_traits>

#include "crypto/hmac.hpp"
#include "crypto/sha1.hpp"
#include "crypto/sha256.hpp"
#include "util/hex.hpp"
#include "util/rng.hpp"

namespace sintra::crypto {
namespace {

// Feeding a message in two pieces, split anywhere, must give the one-shot
// digest: covers the partial-block top-up, full blocks hashed straight
// from the input, and the buffered tail.
template <typename Hash>
void expect_split_feeds_match_one_shot() {
  Bytes msg(300);
  for (std::size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  for (std::size_t len = 0; len <= msg.size(); ++len) {
    const BytesView whole(msg.data(), len);
    const Bytes expect = Hash::hash(whole);
    for (std::size_t cut = 0; cut <= len; ++cut) {
      Hash h;
      h.update(whole.subspan(0, cut)).update(whole.subspan(cut));
      ASSERT_EQ(h.digest(), expect) << "len " << len << " cut " << cut;
    }
  }
}

// --- SHA-1: FIPS 180-1 test vectors ---

TEST(Sha1, EmptyString) {
  EXPECT_EQ(hex_encode(Sha1::hash(to_bytes(""))),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, Abc) {
  EXPECT_EQ(hex_encode(Sha1::hash(to_bytes("abc"))),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, TwoBlockMessage) {
  EXPECT_EQ(hex_encode(Sha1::hash(to_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionAs) {
  Sha1 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(hex_encode(h.digest()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, IncrementalMatchesOneShot) {
  const Bytes msg = to_bytes("the quick brown fox jumps over the lazy dog");
  Sha1 h;
  for (std::size_t i = 0; i < msg.size(); ++i) {
    h.update(BytesView(msg).subspan(i, 1));
  }
  EXPECT_EQ(h.digest(), Sha1::hash(msg));
}

TEST(Sha1, UpdateAfterDigestThrows) {
  Sha1 h;
  h.update(to_bytes("x"));
  (void)h.digest();
  EXPECT_THROW(h.update(to_bytes("y")), std::logic_error);
  Sha1 h2;
  (void)h2.digest();
  EXPECT_THROW((void)h2.digest(), std::logic_error);
}

// Padding boundary cases: lengths 55, 56, 63, 64 straddle the block edge.
TEST(Sha1, PaddingBoundaries) {
  for (std::size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const Bytes msg(len, 'z');
    Sha1 a;
    a.update(msg);
    // Split at an awkward point.
    Sha1 b;
    b.update(BytesView(msg).subspan(0, len / 3));
    b.update(BytesView(msg).subspan(len / 3));
    EXPECT_EQ(a.digest(), b.digest()) << "len=" << len;
  }
}

// --- SHA-256: FIPS 180-2 test vectors ---

TEST(Sha256, EmptyString) {
  EXPECT_EQ(hex_encode(Sha256::hash(to_bytes(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hex_encode(Sha256::hash(to_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hex_encode(Sha256::hash(to_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const Bytes chunk(10000, 'a');
  for (int i = 0; i < 100; ++i) h.update(chunk);
  EXPECT_EQ(hex_encode(h.digest()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha1, SplitFeedMatchesOneShot) {
  expect_split_feeds_match_one_shot<Sha1>();
}

// One SHA-256 over the SHA-1 digests of seeded random messages of every
// length 0..300, each fed in growing pieces (1, 4, 13, 40, ... bytes).
// The pin was generated by the rolled compression loop that preceded the
// unrolled one, so any lane, round or schedule slip shows here.
TEST(Sha1, PinnedDigestsAcrossLengths) {
  Rng rng(2002);
  Sha256 outer;
  for (std::size_t len = 0; len <= 300; ++len) {
    const Bytes msg = rng.bytes(len);
    Sha1 h;
    std::size_t step = 1;
    for (std::size_t off = 0; off < len; off += step, step = 3 * step + 1) {
      h.update(BytesView(msg).subspan(off, std::min(step, len - off)));
    }
    outer.update(h.digest());
  }
  EXPECT_EQ(hex_encode(outer.digest()),
            "417728578d79e76a3dda56726f7031919cfd5b5f43662cc9a88545dbe8662fdb");
}

TEST(Sha256, SplitFeedMatchesOneShot) {
  expect_split_feeds_match_one_shot<Sha256>();
}

TEST(Sha256, DispatchHelpers) {
  EXPECT_EQ(hash_bytes(HashKind::kSha1, to_bytes("abc")),
            Sha1::hash(to_bytes("abc")));
  EXPECT_EQ(hash_bytes(HashKind::kSha256, to_bytes("abc")),
            Sha256::hash(to_bytes("abc")));
  EXPECT_EQ(hash_digest_size(HashKind::kSha1), 20u);
  EXPECT_EQ(hash_digest_size(HashKind::kSha256), 32u);
}

// --- HMAC: RFC 2202 (SHA-1) and RFC 4231 (SHA-256) vectors, each through
// the one-shot hmac() and through a KeyedHmac fed the message in two parts.

template <typename Hash>
std::string hmac_hex(BytesView key, BytesView data) {
  const std::string one_shot = hex_encode(
      hmac(std::is_same_v<Hash, Sha1> ? HashKind::kSha1 : HashKind::kSha256,
           key, data));
  const auto tag = KeyedHmac<Hash>(key).mac(
      {data.subspan(0, data.size() / 2), data.subspan(data.size() / 2)});
  EXPECT_EQ(hex_encode(tag), one_shot);
  return one_shot;
}

TEST(Hmac, Rfc2202Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(hmac_hex<Sha1>(key, to_bytes("Hi There")),
            "b617318655057264e28bc0b6fb378c8ef146be00");
  EXPECT_EQ(hex_encode(hmac_sha1(key, to_bytes("Hi There"))),
            "b617318655057264e28bc0b6fb378c8ef146be00");
}

TEST(Hmac, Rfc2202Case2) {
  EXPECT_EQ(hmac_hex<Sha1>(to_bytes("Jefe"),
                           to_bytes("what do ya want for nothing?")),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
}

TEST(Hmac, Rfc2202LongKey) {
  const Bytes key(80, 0xaa);
  EXPECT_EQ(hmac_hex<Sha1>(key, to_bytes("Test Using Larger Than Block-Size "
                                         "Key - Hash Key First")),
            "aa4ae5e15272d00e95705637ce8a3b55ed402112");
}

TEST(Hmac, Rfc4231Case1Sha256) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(hmac_hex<Sha256>(key, to_bytes("Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2Sha256) {
  EXPECT_EQ(hmac_hex<Sha256>(to_bytes("Jefe"),
                             to_bytes("what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

// Case 6: a 131-byte key, longer than the block, is hashed first.
TEST(Hmac, Rfc4231Case6Sha256LongKey) {
  const Bytes key(131, 0xaa);
  EXPECT_EQ(hmac_hex<Sha256>(key, to_bytes("Test Using Larger Than Block-Size "
                                           "Key - Hash Key First")),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// The keyed state is reusable: every two-part split of every message up
// to 300 bytes, MACed through one KeyedHmac, equals the one-shot hmac().
template <typename Hash>
void expect_keyed_splits_match_one_shot(HashKind kind) {
  Rng rng(0x4a4c);
  const Bytes key = rng.bytes(16);
  const KeyedHmac<Hash> keyed(key);
  const Bytes msg = rng.bytes(300);
  for (std::size_t len = 0; len <= msg.size(); ++len) {
    const BytesView whole(msg.data(), len);
    const Bytes expect = hmac(kind, key, whole);
    for (std::size_t cut = 0; cut <= len; ++cut) {
      const auto tag = keyed.mac({whole.subspan(0, cut), whole.subspan(cut)});
      ASSERT_EQ(Bytes(tag.begin(), tag.end()), expect)
          << "len " << len << " cut " << cut;
      ASSERT_TRUE(keyed.verify({whole.subspan(0, cut), whole.subspan(cut)},
                               expect));
    }
  }
}

TEST(Hmac, KeyedSplitsMatchOneShotSha1) {
  expect_keyed_splits_match_one_shot<Sha1>(HashKind::kSha1);
}

TEST(Hmac, KeyedSplitsMatchOneShotSha256) {
  expect_keyed_splits_match_one_shot<Sha256>(HashKind::kSha256);
}

TEST(Hmac, VerifyAcceptsAndRejects) {
  const Bytes key = to_bytes("0123456789abcdef");
  const Bytes msg = to_bytes("link message 42");
  Bytes tag = hmac(HashKind::kSha1, key, msg);
  EXPECT_TRUE(hmac_verify(HashKind::kSha1, key, msg, tag));
  tag[0] ^= 1;
  EXPECT_FALSE(hmac_verify(HashKind::kSha1, key, msg, tag));
  EXPECT_FALSE(hmac_verify(HashKind::kSha1, key, to_bytes("other"), tag));
  EXPECT_FALSE(hmac_verify(HashKind::kSha1, to_bytes("wrong key 1234567"),
                           msg, tag));
}

TEST(Hmac, DifferentKeysDisagree) {
  const Bytes msg = to_bytes("same message");
  EXPECT_NE(hmac_sha1(to_bytes("key-a"), msg), hmac_sha1(to_bytes("key-b"), msg));
}

}  // namespace
}  // namespace sintra::crypto
