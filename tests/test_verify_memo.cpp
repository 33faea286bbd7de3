// crypto::VerifyMemo: a remembered RSA-FDH check answers like rsa_verify,
// charges the same work, never stores a failure, and stays per party.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "bignum/montgomery.hpp"
#include "crypto/verify_memo.hpp"
#include "sim_fixture.hpp"

namespace sintra::crypto {
namespace {

const RsaKeyPair& key_a() {
  static const RsaKeyPair key = [] {
    Rng rng(0x3e30);
    return rsa_generate(rng, 512);
  }();
  return key;
}

const RsaKeyPair& key_b() {
  static const RsaKeyPair key = [] {
    Rng rng(0x3e31);
    return rsa_generate(rng, 512);
  }();
  return key;
}

std::uint64_t memo_count(const char* result) {
  return obs::registry()
      .counter("crypto.verify_memo", {{"result", result}})
      .value();
}

struct Check {
  bool ok;
  std::uint64_t work;
  bool hit;
};

Check check(VerifyMemo& memo, int signer, const RsaPublicKey& key,
            BytesView msg, BytesView sig,
            HashKind hash = HashKind::kSha256) {
  const std::uint64_t hits = memo_count("hit");
  const std::uint64_t before = bignum::work_counter();
  const bool ok = memo.verify(signer, RsaVerifier(key), msg, sig, hash);
  return {ok, bignum::work_counter() - before, memo_count("hit") > hits};
}

TEST(VerifyMemo, RepeatedCheckHitsWithTheSameWork) {
  VerifyMemo memo;
  const Bytes msg = to_bytes("round 3 bundle");
  const Bytes sig = rsa_sign(key_a(), msg);
  const Check first = check(memo, 0, key_a().pub, msg, sig);
  const Check again = check(memo, 0, key_a().pub, msg, sig);
  EXPECT_TRUE(first.ok);
  EXPECT_FALSE(first.hit);
  EXPECT_TRUE(again.ok);
  EXPECT_TRUE(again.hit);
  EXPECT_GT(first.work, 0u);
  EXPECT_EQ(again.work, first.work);

  // The charge is what the plain check costs.
  const std::uint64_t before = bignum::work_counter();
  EXPECT_TRUE(rsa_verify(key_a().pub, msg, sig));
  EXPECT_EQ(bignum::work_counter() - before, first.work);
}

TEST(VerifyMemo, AnyChangedInputMisses) {
  VerifyMemo memo;
  const Bytes msg = to_bytes("vcbc closing");
  const Bytes sig = rsa_sign(key_a(), msg);
  ASSERT_TRUE(check(memo, 1, key_a().pub, msg, sig).ok);

  const Bytes other_msg = to_bytes("vcbc closinG");
  const Check msg_changed = check(memo, 1, key_a().pub, other_msg, sig);
  EXPECT_FALSE(msg_changed.ok);
  EXPECT_FALSE(msg_changed.hit);

  Bytes other_sig = sig;
  other_sig.back() ^= 0x01;
  const Check sig_changed = check(memo, 1, key_a().pub, msg, other_sig);
  EXPECT_FALSE(sig_changed.ok);
  EXPECT_FALSE(sig_changed.hit);

  // Same key and bytes under another signer id: checked afresh.
  const Check signer_changed = check(memo, 2, key_a().pub, msg, sig);
  EXPECT_TRUE(signer_changed.ok);
  EXPECT_FALSE(signer_changed.hit);

  const Check key_changed = check(memo, 1, key_b().pub, msg, sig);
  EXPECT_FALSE(key_changed.ok);
  EXPECT_FALSE(key_changed.hit);

  const Check hash_changed =
      check(memo, 1, key_a().pub, msg, sig, HashKind::kSha1);
  EXPECT_FALSE(hash_changed.ok);
  EXPECT_FALSE(hash_changed.hit);

  const Bytes prefix(msg.begin(), msg.end() - 1);
  const Check msg_prefix = check(memo, 1, key_a().pub, prefix, sig);
  EXPECT_FALSE(msg_prefix.ok);
  EXPECT_FALSE(msg_prefix.hit);

  Bytes extended = msg;
  extended.push_back(0x00);
  const Check msg_extended = check(memo, 1, key_a().pub, extended, sig);
  EXPECT_FALSE(msg_extended.ok);
  EXPECT_FALSE(msg_extended.hit);

  // Same low 8 bytes, so the same slot as the stored signature.
  Bytes same_slot = sig;
  same_slot[sig.size() / 2] ^= 0x01;
  const Check slot_shared = check(memo, 1, key_a().pub, msg, same_slot);
  EXPECT_FALSE(slot_shared.ok);
  EXPECT_FALSE(slot_shared.hit);

  EXPECT_TRUE(check(memo, 1, key_a().pub, msg, sig).hit);
}

// Bundle statements carry up to 64 KiB.  However many are checked, the
// entries never hold more than the budget, and one that did not fit is
// verified again (and answered correctly), never taken from the memo.
TEST(VerifyMemo, ByteBudgetBounded) {
  VerifyMemo memo;
  constexpr std::size_t kStatement = 64 * 1024;
  constexpr int kStatements = 40;  // 2.5 MiB of messages
  std::vector<Bytes> msgs, sigs;
  for (int i = 0; i < kStatements; ++i) {
    msgs.emplace_back(kStatement, static_cast<std::uint8_t>(i));
    sigs.push_back(rsa_sign(key_a(), msgs.back()));
    ASSERT_TRUE(check(memo, 0, key_a().pub, msgs.back(), sigs.back()).ok);
    EXPECT_LE(memo.bytes_held(), VerifyMemo::kByteBudget);
  }
  EXPECT_GT(memo.bytes_held(), VerifyMemo::kByteBudget / 2);

  int hits = 0;
  int rechecked = 0;
  for (int i = 0; i < kStatements; ++i) {
    const auto k = static_cast<std::size_t>(i);
    const Check again = check(memo, 0, key_a().pub, msgs[k], sigs[k]);
    EXPECT_TRUE(again.ok);
    EXPECT_GT(again.work, 0u);
    (again.hit ? hits : rechecked) += 1;
    EXPECT_LE(memo.bytes_held(), VerifyMemo::kByteBudget);

    // A forgery over the same statement is rejected either way.
    Bytes forged = sigs[k];
    forged[forged.size() / 2] ^= 0x20;
    const Check bad = check(memo, 0, key_a().pub, msgs[k], forged);
    EXPECT_FALSE(bad.ok);
    EXPECT_FALSE(bad.hit);
  }
  EXPECT_GT(hits, 0);
  EXPECT_GT(rechecked, 0);  // the budget held some statements out

  // A statement bigger than the whole budget is never remembered.
  const Bytes huge(VerifyMemo::kByteBudget + 1, 0x5a);
  const Bytes huge_sig = rsa_sign(key_a(), huge);
  const Check first = check(memo, 0, key_a().pub, huge, huge_sig);
  const Check again = check(memo, 0, key_a().pub, huge, huge_sig);
  EXPECT_TRUE(first.ok);
  EXPECT_TRUE(again.ok);
  EXPECT_FALSE(again.hit);
  EXPECT_EQ(again.work, first.work);
  EXPECT_LE(memo.bytes_held(), VerifyMemo::kByteBudget);
}

TEST(VerifyMemo, InvalidSignaturesAreNeverStored) {
  VerifyMemo memo;
  const Bytes msg = to_bytes("forged vote");
  Bytes bad = rsa_sign(key_a(), msg);
  bad[5] ^= 0x40;
  const std::uint64_t misses = memo_count("miss");
  const Check first = check(memo, 0, key_a().pub, msg, bad);
  const Check again = check(memo, 0, key_a().pub, msg, bad);
  EXPECT_FALSE(first.ok);
  EXPECT_FALSE(again.ok);
  EXPECT_FALSE(again.hit);
  EXPECT_EQ(again.work, first.work);
  EXPECT_EQ(memo_count("miss"), misses + 2);
}

TEST(VerifyMemo, OnePartysMemoDoesNotServeAnother) {
  const Deal deal = testing::cached_deal(4, 1);
  const PartyKeys& p0 = deal.parties[0];
  const PartyKeys& p1 = deal.parties[1];
  ASSERT_NE(p0.verify_memo, p1.verify_memo);
  const Bytes msg = to_bytes("bundle from party 2");
  const Bytes sig = deal.parties[2].sign(msg);

  std::uint64_t hits = memo_count("hit");
  EXPECT_TRUE(p0.verify_party_sig(2, msg, sig));
  EXPECT_EQ(memo_count("hit"), hits);
  EXPECT_TRUE(p1.verify_party_sig(2, msg, sig));
  EXPECT_EQ(memo_count("hit"), hits);  // party 1 checks for itself

  // Within party 0, both multi-signature handles share the one memo.
  EXPECT_TRUE(p0.sig_broadcast->verify_share(msg, 2, sig));
  EXPECT_TRUE(p0.sig_agreement->verify_share(msg, 2, sig));
  EXPECT_EQ(memo_count("hit"), hits + 2);
  hits = memo_count("hit");
  EXPECT_FALSE(p0.sig_agreement->verify_share(msg, 3, sig));
  EXPECT_EQ(memo_count("hit"), hits);
}

TEST(VerifyMemo, ThresholdRsaVerifyUsesThePartysMemo) {
  const Deal deal = testing::cached_deal(4, 1, SigImpl::kThresholdRsa);
  const Bytes msg = to_bytes("agreement justification");
  std::vector<std::pair<int, Bytes>> shares;
  for (int i = 0; i < deal.parties[0].sig_agreement->k(); ++i) {
    shares.emplace_back(i, deal.parties[static_cast<std::size_t>(i)]
                               .sig_agreement->sign_share(msg));
  }
  const Bytes sig = deal.parties[0].sig_agreement->combine(msg, shares);
  const ThresholdSigScheme& broadcast = *deal.parties[1].sig_broadcast;
  const std::uint64_t before = bignum::work_counter();
  EXPECT_TRUE(deal.parties[1].sig_agreement->verify(msg, sig));
  const std::uint64_t miss_work = bignum::work_counter() - before;
  const std::uint64_t hits = memo_count("hit");
  const std::uint64_t again = bignum::work_counter();
  // Both Shoup handles of a party share its memo (one group modulus).
  EXPECT_TRUE(broadcast.verify(msg, sig));
  EXPECT_EQ(memo_count("hit"), hits + 1);
  EXPECT_EQ(bignum::work_counter() - again, miss_work);
}

TEST(VerifyMemo, ConcurrentChecksAgreeWithRsaVerify) {
  VerifyMemo memo;
  constexpr int kMessages = 6;
  std::vector<Bytes> msgs, sigs;
  for (int i = 0; i < kMessages; ++i) {
    msgs.push_back(to_bytes("msg " + std::to_string(i)));
    sigs.push_back(rsa_sign(key_a(), msgs.back()));
    if (i % 3 == 2) sigs.back()[3] ^= 0x10;  // every third one is forged
  }
  const std::uint64_t hits = memo_count("hit");
  std::atomic<int> wrong{0};
  const RsaVerifier verifier(key_a().pub);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 25; ++round) {
        const int i = (round + t) % kMessages;
        const auto k = static_cast<std::size_t>(i);
        const bool ok =
            memo.verify(0, verifier, msgs[k], sigs[k], HashKind::kSha256);
        if (ok != (i % 3 != 2)) ++wrong;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(memo_count("hit"), hits);
}

}  // namespace
}  // namespace sintra::crypto
