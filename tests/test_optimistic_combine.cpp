// Adversarial tests for the combine-first fast paths (crypto/
// threshold_sig.hpp, coin.hpp, tdh2.hpp): a Byzantine share must trigger
// the per-share fallback and local blacklisting, the combine must still
// succeed from k honest shares, blacklisted signers' later shares are
// ignored, and the simulator (inline pool) stays deterministic.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/agreement/binary_agreement.hpp"
#include "crypto/coin.hpp"
#include "crypto/cost.hpp"
#include "crypto/dealer.hpp"
#include "crypto/multi_sig.hpp"
#include "crypto/tdh2.hpp"
#include "crypto/threshold_sig.hpp"
#include "crypto/work_pool.hpp"
#include "obs/metrics.hpp"
#include "sim_fixture.hpp"
#include "util/hex.hpp"

namespace sintra::crypto {
namespace {

std::uint64_t op_counter(const char* name, const char* op) {
  return obs::registry().counter(name, {{"op", op}}).value();
}

// --- threshold signatures (both implementations) ---

struct SigFixture {
  std::vector<std::shared_ptr<ThresholdSigScheme>> parties;
  int n = 0;
  int k = 0;
};

SigFixture make_shoup(int n, int k) {
  static std::map<std::pair<int, int>, RsaThresholdDeal> cache;
  auto it = cache.find({n, k});
  if (it == cache.end()) {
    Rng rng(0x0c515);
    it = cache.emplace(std::pair{n, k}, deal_rsa_threshold(rng, n, k, 512))
             .first;
  }
  SigFixture fx;
  fx.n = n;
  fx.k = k;
  for (int i = 0; i < n; ++i) fx.parties.push_back(it->second.make_party(i));
  return fx;
}

SigFixture make_multi(int n, int k) {
  static std::map<int, std::vector<RsaKeyPair>> keycache;
  auto it = keycache.find(n);
  if (it == keycache.end()) {
    std::vector<RsaKeyPair> keys;
    for (int i = 0; i < n; ++i) {
      Rng rng(0x0c600d + static_cast<std::uint64_t>(i));
      keys.push_back(rsa_generate(rng, 512));
    }
    it = keycache.emplace(n, std::move(keys)).first;
  }
  std::vector<RsaPublicKey> pubs;
  for (const auto& kp : it->second) pubs.push_back(kp.pub);
  auto pub = std::make_shared<const MultiSigPublic>(
      MultiSigPublic{n, k, pubs, HashKind::kSha256});
  SigFixture fx;
  fx.n = n;
  fx.k = k;
  for (int i = 0; i < n; ++i) {
    fx.parties.push_back(std::make_shared<MultiSigScheme>(
        pub, i,
        std::make_shared<const RsaKeyPair>(
            it->second[static_cast<std::size_t>(i)])));
  }
  return fx;
}

class OptimisticSig : public ::testing::TestWithParam<const char*> {
 protected:
  SigFixture make(int n, int k) {
    return std::string(GetParam()) == "shoup" ? make_shoup(n, k)
                                              : make_multi(n, k);
  }
};

INSTANTIATE_TEST_SUITE_P(Impls, OptimisticSig,
                         ::testing::Values("shoup", "multi"));

TEST_P(OptimisticSig, HonestSharesAreAnOptimisticHit) {
  SigFixture fx = make(4, 3);
  const Bytes msg = to_bytes("stmt.honest");
  std::vector<std::pair<int, Bytes>> shares;
  for (int i = 0; i < fx.k; ++i) {
    shares.emplace_back(i, fx.parties[static_cast<std::size_t>(i)]
                               ->sign_share(msg));
  }
  const auto hits0 = op_counter("crypto.optimistic_hits", "threshold_sig");
  const auto falls0 = op_counter("crypto.fallbacks", "threshold_sig");
  const auto out = fx.parties[3]->combine_checked(msg, shares);
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(fx.parties[3]->verify(msg, out->sig));
  EXPECT_EQ(out->used, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(op_counter("crypto.optimistic_hits", "threshold_sig"), hits0 + 1);
  EXPECT_EQ(op_counter("crypto.fallbacks", "threshold_sig"), falls0);
}

TEST_P(OptimisticSig, ByzantineShareFallsBackBlacklistsAndRecovers) {
  SigFixture fx = make(4, 3);
  const Bytes msg = to_bytes("stmt.byz");
  // Party 0 submits a well-formed share for a *different* message:
  // parses fine, poisons the combine.
  std::vector<std::pair<int, Bytes>> shares;
  shares.emplace_back(0, fx.parties[0]->sign_share(to_bytes("stmt.other")));
  for (int i = 1; i < fx.n; ++i) {
    shares.emplace_back(i, fx.parties[static_cast<std::size_t>(i)]
                               ->sign_share(msg));
  }
  const auto falls0 = op_counter("crypto.fallbacks", "threshold_sig");
  const auto& combiner = fx.parties[3];
  const auto out = combiner->combine_checked(msg, shares);
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(combiner->verify(msg, out->sig));
  EXPECT_EQ(out->used, (std::vector<int>{1, 2, 3}));
  EXPECT_GE(op_counter("crypto.fallbacks", "threshold_sig"), falls0 + 1);
  EXPECT_TRUE(combiner->is_blacklisted(0));
  EXPECT_FALSE(combiner->is_blacklisted(1));

  // Blacklisted: even a now-valid share from party 0 is ignored, so with
  // only k-1 other shares the combine must report "not enough".
  std::vector<std::pair<int, Bytes>> retry;
  retry.emplace_back(0, fx.parties[0]->sign_share(msg));  // valid this time
  retry.emplace_back(1, shares[1].second);
  retry.emplace_back(2, shares[2].second);
  EXPECT_FALSE(combiner->combine_checked(msg, retry).has_value());

  // A fresh handle has no blacklist: the same shares combine fine.
  EXPECT_TRUE(fx.parties[2]->combine_checked(msg, retry).has_value());
}

TEST_P(OptimisticSig, FewerThanKSharesIsNotAnError) {
  SigFixture fx = make(4, 3);
  const Bytes msg = to_bytes("stmt.short");
  std::vector<std::pair<int, Bytes>> shares;
  shares.emplace_back(1, fx.parties[1]->sign_share(msg));
  // Duplicates don't help reach the threshold.
  shares.emplace_back(1, fx.parties[1]->sign_share(msg));
  EXPECT_FALSE(fx.parties[0]->combine_checked(msg, shares).has_value());
}

// --- threshold coin ---

struct CoinFixture {
  CoinDeal deal;
  std::vector<std::unique_ptr<ThresholdCoin>> parties;
};

CoinFixture make_coin(int n, int k) {
  Rng rng(0x0c0117);
  static const DlogGroup grp = [] {
    Rng g(0x0c7357);
    return DlogGroup::generate(g, 256, 96);
  }();
  CoinFixture fx;
  fx.deal = deal_coin(rng, n, k, grp);
  for (int i = 0; i < n; ++i) fx.parties.push_back(fx.deal.make_party(i));
  return fx;
}

TEST(OptimisticCoin, HonestSharesAssembleWithoutFallback) {
  CoinFixture fx = make_coin(4, 2);
  const Bytes name = to_bytes("coin.honest");
  std::vector<std::pair<int, Bytes>> shares;
  for (int i = 0; i < 2; ++i) {
    shares.emplace_back(i, fx.parties[static_cast<std::size_t>(i)]
                               ->release(name));
  }
  const auto hits0 = op_counter("crypto.optimistic_hits", "coin");
  const auto falls0 = op_counter("crypto.fallbacks", "coin");
  const auto out = fx.parties[3]->assemble_checked(name, shares, 8);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->value, fx.parties[3]->assemble(name, shares, 8));
  EXPECT_EQ(out->used.size(), 2u);
  EXPECT_EQ(op_counter("crypto.optimistic_hits", "coin"), hits0 + 1);
  EXPECT_EQ(op_counter("crypto.fallbacks", "coin"), falls0);
}

TEST(OptimisticCoin, ByzantineShareFallsBackAndValueIsUnchanged) {
  CoinFixture fx = make_coin(4, 2);
  const Bytes name = to_bytes("coin.byz");
  // Party 0's share is for a different coin: well-formed, wrong proof.
  std::vector<std::pair<int, Bytes>> shares;
  shares.emplace_back(0, fx.parties[0]->release(to_bytes("coin.other")));
  for (int i = 1; i < 4; ++i) {
    shares.emplace_back(i, fx.parties[static_cast<std::size_t>(i)]
                               ->release(name));
  }
  std::vector<std::pair<int, Bytes>> honest(shares.begin() + 1, shares.end());

  const auto falls0 = op_counter("crypto.fallbacks", "coin");
  const auto& assembler = fx.parties[1];
  const auto out = assembler->assemble_bit_checked(name, shares);
  ASSERT_TRUE(out.has_value());
  const Bytes reference = assembler->assemble(name, honest, 1);
  EXPECT_EQ(out->first, (reference[0] & 1) != 0);
  EXPECT_GE(op_counter("crypto.fallbacks", "coin"), falls0 + 1);
  EXPECT_TRUE(assembler->is_blacklisted(0));
  for (const auto& [idx, share] : out->second) EXPECT_NE(idx, 0);

  // Blacklisted: a later valid share from party 0 no longer counts
  // toward the threshold on this handle.
  std::vector<std::pair<int, Bytes>> late;
  late.emplace_back(0, fx.parties[0]->release(name));
  late.emplace_back(2, shares[2].second);
  EXPECT_FALSE(assembler->assemble_bit_checked(name, late).has_value());
}

TEST(OptimisticCoin, VerifySharesBatchAgreesWithScalarVerifier) {
  CoinFixture fx = make_coin(4, 2);
  const Bytes name = to_bytes("coin.batchverify");
  std::vector<std::pair<int, Bytes>> shares;
  shares.emplace_back(0, fx.parties[0]->release(name));
  shares.emplace_back(1, fx.parties[1]->release(to_bytes("coin.wrong")));
  shares.emplace_back(2, fx.parties[2]->release(name));
  shares.emplace_back(3, to_bytes("garbage"));  // unparseable

  const std::vector<bool> flags =
      fx.parties[0]->verify_shares_batch(name, shares);
  ASSERT_EQ(flags.size(), 4u);
  for (std::size_t i = 0; i < shares.size(); ++i) {
    EXPECT_EQ(flags[i], fx.parties[0]->verify_share(name, shares[i].first,
                                                    shares[i].second))
        << i;
  }
  EXPECT_TRUE(flags[0]);
  EXPECT_FALSE(flags[1]);
  EXPECT_TRUE(flags[2]);
  EXPECT_FALSE(flags[3]);
  // verify_shares_batch judges forwarded shares: it must NOT blacklist
  // (a bad share in a justification indicts the forwarder, not the
  // signer it names).
  EXPECT_FALSE(fx.parties[0]->is_blacklisted(1));
  EXPECT_FALSE(fx.parties[0]->is_blacklisted(3));
}

// --- TDH2 ---

struct Tdh2Fixture {
  Tdh2Deal deal;
  std::vector<std::unique_ptr<Tdh2Party>> parties;
};

Tdh2Fixture make_tdh2(int n, int k) {
  Rng rng(0x0c7d42);
  static const DlogGroup grp = [] {
    Rng g(0x0c7d426);
    return DlogGroup::generate(g, 256, 96);
  }();
  Tdh2Fixture fx;
  fx.deal = deal_tdh2(rng, n, k, grp);
  for (int i = 0; i < n; ++i) fx.parties.push_back(fx.deal.make_party(i));
  return fx;
}

TEST(OptimisticTdh2, HonestSharesDecryptWithoutFallback) {
  Tdh2Fixture fx = make_tdh2(4, 2);
  Rng rng(9);
  const Bytes msg = to_bytes("causal payload");
  const Bytes ct = fx.parties[0]->pub().encrypt(msg, to_bytes("label"), rng);
  std::vector<std::pair<int, Bytes>> shares;
  for (int i = 0; i < 2; ++i) {
    auto s = fx.parties[static_cast<std::size_t>(i)]->decrypt_share(ct);
    ASSERT_TRUE(s.has_value());
    shares.emplace_back(i, std::move(*s));
  }
  const auto hits0 = op_counter("crypto.optimistic_hits", "tdh2");
  const auto falls0 = op_counter("crypto.fallbacks", "tdh2");
  const auto out = fx.parties[3]->combine_checked(ct, shares);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, msg);
  EXPECT_EQ(op_counter("crypto.optimistic_hits", "tdh2"), hits0 + 1);
  EXPECT_EQ(op_counter("crypto.fallbacks", "tdh2"), falls0);
}

TEST(OptimisticTdh2, ByzantineShareFallsBackAndPlaintextIsCorrect) {
  Tdh2Fixture fx = make_tdh2(4, 2);
  Rng rng(10);
  const Bytes msg = to_bytes("still recoverable");
  const Bytes ct = fx.parties[0]->pub().encrypt(msg, to_bytes("label"), rng);
  const Bytes decoy =
      fx.parties[0]->pub().encrypt(to_bytes("noise"), to_bytes("label"), rng);

  std::vector<std::pair<int, Bytes>> shares;
  // Party 0's share is for a different ciphertext: parses, fails DLEQ.
  auto bad = fx.parties[0]->decrypt_share(decoy);
  ASSERT_TRUE(bad.has_value());
  shares.emplace_back(0, std::move(*bad));
  for (int i = 1; i < 4; ++i) {
    auto s = fx.parties[static_cast<std::size_t>(i)]->decrypt_share(ct);
    ASSERT_TRUE(s.has_value());
    shares.emplace_back(i, std::move(*s));
  }

  const auto falls0 = op_counter("crypto.fallbacks", "tdh2");
  const auto& combiner = fx.parties[2];
  const auto out = combiner->combine_checked(ct, shares);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, msg);  // fallback recovered the true plaintext
  EXPECT_GE(op_counter("crypto.fallbacks", "tdh2"), falls0 + 1);
  EXPECT_TRUE(combiner->is_blacklisted(0));

  // Only the blacklisted signer plus one honest share: below threshold.
  std::vector<std::pair<int, Bytes>> late;
  auto good0 = fx.parties[0]->decrypt_share(ct);
  ASSERT_TRUE(good0.has_value());
  late.emplace_back(0, std::move(*good0));
  late.emplace_back(1, shares[1].second);
  EXPECT_FALSE(combiner->combine_checked(ct, late).has_value());
}

TEST(OptimisticTdh2, MalformedCiphertextYieldsNulloptNotThrow) {
  Tdh2Fixture fx = make_tdh2(4, 2);
  EXPECT_FALSE(
      fx.parties[0]->combine_checked(to_bytes("not a ciphertext"), {})
          .has_value());
}

// --- pinned outcomes across every scheme ---
//
// One table of exact outcomes for the three combine-first paths, recorded
// from the per-scheme implementations they replaced: the signers used, the
// blacklist, a digest of the output and the counter deltas, for honest
// shares, one bad share, and t bad shares at n=16 (signer 8's share is
// unparseable bytes) that force several retries.  Each case runs on an
// inline pool and on a 2-thread pool; both must reach the same outcome.
// The inline run also pins the work units, which drive simulated time.

enum class Scheme { kShoup, kMulti, kCoin, kTdh2 };
enum class Case { kHonest, kOneBad, kTBad };

struct Outcome {
  std::vector<int> used;  // not observable for TDH2, left empty there
  std::vector<int> blacklisted;
  std::string digest;     // first 8 bytes of SHA-256(output), hex
  std::uint64_t hits = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t parallel_shares = 0;
  std::uint64_t work = 0;  // inline pool only
};

struct CaseShape {
  int n, k;
  std::set<int> bad;
};

CaseShape shape(Case c) {
  switch (c) {
    case Case::kHonest: return {4, 3, {}};
    case Case::kOneBad: return {4, 3, {0}};
    case Case::kTBad: return {16, 6, {0, 3, 6, 7, 8}};
  }
  return {};
}

constexpr int kGarbageSigner = 8;

std::string digest8(const Bytes& out) {
  const Bytes d = hash_bytes(HashKind::kSha256, out);
  return hex_encode(BytesView(d.data(), 8));
}

// Measures one checked combine: counter deltas for `op` and, on the
// calling thread, the work it performed from a fresh cache epoch.
template <typename Fn>
void measure(const char* op, Outcome& o, Fn&& fn) {
  const auto hits0 = op_counter("crypto.optimistic_hits", op);
  const auto falls0 = op_counter("crypto.fallbacks", op);
  const auto par0 = op_counter("crypto.parallel_verify_shares", op);
  bump_cache_epoch();
  const WorkMeter meter;
  fn();
  o.work = meter.elapsed();
  o.hits = op_counter("crypto.optimistic_hits", op) - hits0;
  o.fallbacks = op_counter("crypto.fallbacks", op) - falls0;
  o.parallel_shares =
      op_counter("crypto.parallel_verify_shares", op) - par0;
}

template <typename Handle>
std::vector<int> blacklist_of(const Handle& h, int n) {
  std::vector<int> out;
  for (int i = 0; i < n; ++i) {
    if (h.is_blacklisted(i)) out.push_back(i);
  }
  return out;
}

Outcome run_sig(Scheme scheme, Case c, WorkPool* pool) {
  const CaseShape cs = shape(c);
  SigFixture fx = scheme == Scheme::kShoup ? make_shoup(cs.n, cs.k)
                                           : make_multi(cs.n, cs.k);
  const Bytes msg = to_bytes("pin.sig");
  std::vector<std::pair<int, Bytes>> shares;
  for (int i = 0; i < cs.n; ++i) {
    auto& p = *fx.parties[static_cast<std::size_t>(i)];
    if (cs.bad.count(i) == 0) {
      shares.emplace_back(i, p.sign_share(msg));
    } else if (i == kGarbageSigner) {
      shares.emplace_back(i, to_bytes("garbage"));
    } else {
      shares.emplace_back(i, p.sign_share(to_bytes("pin.other")));
    }
  }
  const auto& combiner = *fx.parties[static_cast<std::size_t>(cs.n - 1)];
  Outcome o;
  std::optional<ThresholdSigScheme::CheckedSignature> out;
  measure("threshold_sig", o,
          [&] { out = combiner.combine_checked(msg, shares, pool); });
  EXPECT_TRUE(out.has_value());
  if (out) {
    EXPECT_TRUE(combiner.verify(msg, out->sig));
    o.used = out->used;
    o.digest = digest8(out->sig);
  }
  o.blacklisted = blacklist_of(combiner, cs.n);
  return o;
}

Outcome run_coin(Case c, WorkPool* pool) {
  const CaseShape cs = shape(c);
  CoinFixture fx = make_coin(cs.n, cs.k);
  const Bytes name = to_bytes("pin.coin");
  std::vector<std::pair<int, Bytes>> shares;
  for (int i = 0; i < cs.n; ++i) {
    auto& p = *fx.parties[static_cast<std::size_t>(i)];
    if (cs.bad.count(i) == 0) {
      shares.emplace_back(i, p.release(name));
    } else if (i == kGarbageSigner) {
      shares.emplace_back(i, to_bytes("garbage"));
    } else {
      shares.emplace_back(i, p.release(to_bytes("pin.other")));
    }
  }
  const auto& assembler = *fx.parties[static_cast<std::size_t>(cs.n - 1)];
  Outcome o;
  std::optional<ThresholdCoin::AssembledCoin> out;
  measure("coin", o,
          [&] { out = assembler.assemble_checked(name, shares, 16, pool); });
  EXPECT_TRUE(out.has_value());
  if (out) {
    for (const auto& [idx, raw] : out->used) o.used.push_back(idx);
    o.digest = digest8(out->value);
  }
  o.blacklisted = blacklist_of(assembler, cs.n);
  return o;
}

Outcome run_tdh2(Case c, WorkPool* pool) {
  const CaseShape cs = shape(c);
  Tdh2Fixture fx = make_tdh2(cs.n, cs.k);
  Rng rng(0x0c9142);
  const Bytes msg = to_bytes("pinned plaintext");
  const Bytes ct = fx.parties[0]->pub().encrypt(msg, to_bytes("label"), rng);
  const Bytes decoy =
      fx.parties[0]->pub().encrypt(to_bytes("noise"), to_bytes("label"), rng);
  std::vector<std::pair<int, Bytes>> shares;
  for (int i = 0; i < cs.n; ++i) {
    auto& p = *fx.parties[static_cast<std::size_t>(i)];
    if (i == kGarbageSigner && cs.bad.count(i) != 0) {
      shares.emplace_back(i, to_bytes("garbage"));
      continue;
    }
    auto s = p.decrypt_share(cs.bad.count(i) == 0 ? ct : decoy);
    EXPECT_TRUE(s.has_value());
    shares.emplace_back(i, s.value_or(Bytes{}));
  }
  const auto& combiner = *fx.parties[static_cast<std::size_t>(cs.n - 1)];
  Outcome o;
  std::optional<Bytes> out;
  measure("tdh2", o,
          [&] { out = combiner.combine_checked(ct, shares, pool); });
  EXPECT_TRUE(out.has_value());
  if (out) {
    EXPECT_EQ(*out, msg);
    o.digest = digest8(*out);
  }
  o.blacklisted = blacklist_of(combiner, cs.n);
  return o;
}

struct Pin {
  std::vector<int> used;
  std::vector<int> blacklisted;
  const char* digest;
  std::uint64_t hits, fallbacks, work;
};

const Pin& pin(Scheme s, Case c) {
  // Robust schemes: a Shoup signature, a coin value and a plaintext do not
  // depend on which k shares went in, so only the multi-signature's digest
  // changes with the signer set.
  const char* const shoup = "b38a309001d1492d";
  const char* const coin = "4aeb980ce88ceb17";
  const char* const plain = "9a8e75d7ffab940d";
  const std::vector<int> n4{0, 1, 2};
  const std::vector<int> n4_bad{1, 2, 3};
  const std::vector<int> n16_bad{1, 2, 4, 5, 9, 10};
  const std::vector<int> t_bad{0, 3, 6, 7, 8};
  using S = Scheme;
  static const std::map<std::pair<Scheme, Case>, Pin> pins{
      {{S::kShoup, Case::kHonest}, {n4, {}, shoup, 1, 0, 25088}},
      {{S::kShoup, Case::kOneBad}, {n4_bad, {0}, shoup, 0, 1, 3409920}},
      {{S::kShoup, Case::kTBad}, {n16_bad, t_bad, shoup, 0, 3, 11598336}},
      {{S::kMulti, Case::kHonest}, {n4, {}, "64ebf9bc3b78eb04", 1, 0, 15360}},
      {{S::kMulti, Case::kOneBad},
       {n4_bad, {0}, "a14f9aff1df1398c", 0, 1, 35840}},
      {{S::kMulti, Case::kTBad},
       {n16_bad, t_bad, "6c825db745fe0548", 0, 3, 168960}},
      {{S::kCoin, Case::kHonest}, {n4, {}, coin, 1, 0, 100352}},
      {{S::kCoin, Case::kOneBad}, {n4_bad, {0}, coin, 0, 1, 276288}},
      {{S::kCoin, Case::kTBad}, {n16_bad, t_bad, coin, 0, 2, 1005312}},
      {{S::kTdh2, Case::kHonest}, {{}, {}, plain, 1, 0, 189824}},
      {{S::kTdh2, Case::kOneBad}, {{}, {0}, plain, 0, 1, 348992}},
      {{S::kTdh2, Case::kTBad}, {{}, t_bad, plain, 0, 2, 1153344}},
  };
  return pins.at({s, c});
}

using PinParam = std::tuple<Scheme, Case, bool>;  // bool: 2-thread pool

class OptimisticPinned : public ::testing::TestWithParam<PinParam> {};

TEST_P(OptimisticPinned, MatchesRecordedOutcome) {
  const auto [scheme, c, threaded] = GetParam();
  WorkPool pool(threaded ? 2 : 0);
  Outcome o;
  switch (scheme) {
    case Scheme::kShoup:
    case Scheme::kMulti: o = run_sig(scheme, c, &pool); break;
    case Scheme::kCoin: o = run_coin(c, &pool); break;
    case Scheme::kTdh2: o = run_tdh2(c, &pool); break;
  }
  const Pin& p = pin(scheme, c);
  EXPECT_EQ(o.used, p.used);
  EXPECT_EQ(o.blacklisted, p.blacklisted);
  EXPECT_EQ(o.digest, p.digest);
  EXPECT_EQ(o.hits, p.hits);
  EXPECT_EQ(o.fallbacks, p.fallbacks);
  // A threaded fallback fans the k chosen shares of every failed attempt
  // out across the pool; an inline one never does.
  const auto k = static_cast<std::uint64_t>(shape(c).k);
  EXPECT_EQ(o.parallel_shares, threaded ? p.fallbacks * k : 0);
  if (!threaded) {
    EXPECT_EQ(o.work, p.work);
  }
}

std::string pin_name(const ::testing::TestParamInfo<PinParam>& info) {
  static const char* const kSchemes[] = {"Shoup", "Multi", "Coin", "Tdh2"};
  static const char* const kCases[] = {"Honest", "OneBad", "TBadN16"};
  const auto [s, c, threaded] = info.param;
  return std::string(kSchemes[static_cast<int>(s)]) +
         kCases[static_cast<int>(c)] + (threaded ? "Threaded" : "Inline");
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, OptimisticPinned,
    ::testing::Combine(::testing::Values(Scheme::kShoup, Scheme::kMulti,
                                         Scheme::kCoin, Scheme::kTdh2),
                       ::testing::Values(Case::kHonest, Case::kOneBad,
                                         Case::kTBad),
                       ::testing::Bool()),
    pin_name);

}  // namespace
}  // namespace sintra::crypto

// --- simulator determinism (inline pool) ---

namespace sintra::core {
namespace {

std::uint64_t total_counter(const std::string& name) {
  std::uint64_t total = 0;
  for (const auto& c : obs::registry().snapshot().counters) {
    if (c.name == name) total += c.value;
  }
  return total;
}

TEST(OptimisticCombine, SimulatorStaysDeterministicWithInlinePool) {
  // The simulator keeps the default inline pool, so the optimistic paths
  // run synchronously: two runs with the same seed must produce the same
  // decisions, the same rounds, and the same simulated end time.  The
  // simulated end time depends on counted modexp work, which depends on
  // the per-handle batch-verification randomness — so each run must get
  // freshly materialized scheme handles, exactly as a freshly started
  // process would (the cached deal's shared handles would otherwise leak
  // rng state from run 1 into run 2).
  auto run = [](std::uint64_t seed) {
    crypto::Deal deal = testing::cached_deal(4, 1);
    for (std::size_t i = 0; i < deal.raw.size(); ++i) {
      deal.parties[i] = crypto::materialize(deal.raw[i]);
    }
    sim::Simulator sim(sim::uniform_setup(4, 30.0, 2.0, 0.25), deal, seed);
    sim.per_message_cpu_ms = 0.01;
    std::vector<std::unique_ptr<BinaryAgreement>> ps;
    for (int i = 0; i < 4; ++i) {
      ps.push_back(std::make_unique<BinaryAgreement>(
          sim.node(i), sim.node(i).dispatcher(),
          "ba.det" + std::to_string(seed)));
    }
    for (int i = 0; i < 4; ++i) {
      sim.at(static_cast<double>(i), i,
             [&, i] { ps[static_cast<std::size_t>(i)]->propose(i < 2); });
    }
    EXPECT_TRUE(sim.run_until(
        [&] {
          for (const auto& p : ps) {
            if (!p->decided().has_value()) return false;
          }
          return true;
        },
        120000));
    std::vector<std::pair<bool, int>> outcome;
    for (const auto& p : ps) {
      outcome.emplace_back(*p->decided(), p->decision_round());
    }
    return std::make_tuple(outcome, sim.now_ms());
  };

  const auto coins0 = total_counter("ba.coins_assembled");
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    EXPECT_EQ(run(seed), run(seed)) << "seed " << seed;
  }
  // The mixed 2-vs-2 proposals force abstain rounds under some of these
  // schedules, so the optimistic coin-assembly path was actually on the
  // trace being compared.
  EXPECT_GT(total_counter("ba.coins_assembled"), coins0);
}

}  // namespace
}  // namespace sintra::core
