// Crypto-substrate microbenchmarks (google-benchmark).
//
// Not a paper table — this validates the cost *model*: the relative costs
// measured here (CRT signing ~4x cheaper than full modexp, share
// generation dominated by one or two exponentiations, verification with
// e=65537 nearly free) are what drive the shapes of Table 1 and Figure 6
// through the simulator's work accounting.
// The *Seed benchmarks replicate the pre-fast-path operation sequences
// (plain square-and-multiply per base, explicit modular inverses,
// unmemoized hash-to-group arithmetic) so one binary reports both sides
// of the before/after comparison in BENCH_crypto.json; the *Fast
// benchmarks exercise the shipped simultaneous-multi-exp / comb-table
// paths.  Every benchmark also reports the Montgomery work counter per
// operation — the unit the simulator's virtual clock is driven by.
#include <benchmark/benchmark.h>

#include "bignum/montgomery.hpp"
#include "bignum/ref32.hpp"
#include "crypto/coin.hpp"
#include "crypto/dealer.hpp"
#include "crypto/group.hpp"
#include "crypto/hmac.hpp"
#include "crypto/tdh2.hpp"

namespace {

using namespace sintra;
using crypto::BigInt;

// Reports bignum work units per operation alongside wall-clock time.
class WorkTracker {
 public:
  explicit WorkTracker(benchmark::State& state)
      : state_(state), start_(bignum::work_counter()) {}
  ~WorkTracker() {
    const std::uint64_t total = bignum::work_counter() - start_;
    state_.counters["work_per_op"] = benchmark::Counter(
        static_cast<double>(total) /
        static_cast<double>(std::max<std::int64_t>(1, state_.iterations())));
  }
  WorkTracker(const WorkTracker&) = delete;
  WorkTracker& operator=(const WorkTracker&) = delete;

 private:
  benchmark::State& state_;
  std::uint64_t start_;
};

struct Fixture {
  crypto::Deal deal;
  Bytes msg = to_bytes("benchmark message under 32B");

  explicit Fixture(int rsa_bits,
                   crypto::SigImpl impl = crypto::SigImpl::kMultiSig) {
    crypto::DealerConfig cfg;
    cfg.n = 4;
    cfg.t = 1;
    cfg.rsa_bits = rsa_bits;
    cfg.dl_p_bits = 1024;
    cfg.dl_q_bits = 160;
    cfg.hash = crypto::HashKind::kSha1;
    cfg.sig_impl = impl;
    deal = crypto::run_dealer(cfg);
  }
};

Fixture& fixture(int rsa_bits, crypto::SigImpl impl) {
  static std::map<std::pair<int, int>, std::unique_ptr<Fixture>> cache;
  auto key = std::pair{rsa_bits, static_cast<int>(impl)};
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache.emplace(key, std::make_unique<Fixture>(rsa_bits, impl)).first;
  }
  return *it->second;
}

void BM_Modexp(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  Rng rng(1);
  const BigInt m =
      (BigInt{1} << bits) - BigInt{static_cast<std::int64_t>(129)};
  const bignum::Montgomery mont(m);
  const BigInt base = BigInt::random_below(rng, m);
  const BigInt e = BigInt::random_bits(rng, bits);
  WorkTracker wt(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mont.pow(base, e));
  }
}
BENCHMARK(BM_Modexp)->Arg(128)->Arg(256)->Arg(512)->Arg(1024);

// The Montgomery kernels at 4, 8 and 16 limbs (fixed-width instances)
// and 6 limbs (the runtime-width one).  Only whole exponentiations are
// public, so each iteration is one that is nearly all one kernel:
// base^(2^1024) is 1024 squarings plus 3 multiplications, and a comb
// evaluation of a 1024-bit all-ones exponent is 256 multiplications plus
// 1.  items_per_second counts kernel calls (scripts/bench_crypto.sh
// turns it into ns per call).
constexpr int kSquaringsPerOp = 1024;
constexpr int kProductsPerOp = 256;

BigInt kernel_modulus(int limbs) {
  return (BigInt{1} << (64 * limbs)) - BigInt{189};
}

void BM_MontSqr(benchmark::State& state) {
  const BigInt m = kernel_modulus(static_cast<int>(state.range(0)));
  const bignum::Montgomery mont(m);
  Rng rng(7);
  const BigInt base = BigInt::random_below(rng, m);
  const BigInt e = BigInt{1} << kSquaringsPerOp;
  WorkTracker wt(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mont.pow(base, e));
  }
  state.SetItemsProcessed(state.iterations() * kSquaringsPerOp);
}
BENCHMARK(BM_MontSqr)->Arg(4)->Arg(8)->Arg(16)->Arg(6);

void BM_MontMul(benchmark::State& state) {
  const BigInt m = kernel_modulus(static_cast<int>(state.range(0)));
  const bignum::Montgomery mont(m);
  Rng rng(8);
  const auto table = mont.precompute(BigInt::random_below(rng, m),
                                     4 * kProductsPerOp);
  const BigInt e = (BigInt{1} << (4 * kProductsPerOp)) - BigInt{1};
  WorkTracker wt(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mont.pow(table, e));
  }
  state.SetItemsProcessed(state.iterations() * kProductsPerOp);
}
BENCHMARK(BM_MontMul)->Arg(4)->Arg(8)->Arg(16)->Arg(6);

// One compression function call per iteration: a whole block fed to an
// empty buffer is compressed straight from the input.
template <typename Hash>
void hash_block(benchmark::State& state) {
  const Bytes block(Hash::kBlockSize, 0x61);
  Hash h;
  for (auto _ : state) {
    h.update(block);
  }
  benchmark::DoNotOptimize(h.digest());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(Hash::kBlockSize));
}

void BM_Sha1Block(benchmark::State& state) { hash_block<crypto::Sha1>(state); }
BENCHMARK(BM_Sha1Block);

void BM_Sha256Block(benchmark::State& state) {
  hash_block<crypto::Sha256>(state);
}
BENCHMARK(BM_Sha256Block);

// The frozen PR 1..7 32-bit limb layer (src/bignum/ref32.hpp), same inputs
// as BM_Modexp.  Having both paths in one binary gives scripts/
// bench_crypto.sh an honest same-machine wall-clock baseline for the
// >=2x 64-bit-rework gate; ref32 does not touch the work counter, so no
// work_per_op is reported.
void BM_ModexpRef32(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  Rng rng(1);
  const BigInt m =
      (BigInt{1} << bits) - BigInt{static_cast<std::int64_t>(129)};
  const bignum::Montgomery mont(m);
  const BigInt base = BigInt::random_below(rng, m);
  const BigInt e = BigInt::random_bits(rng, bits);
  namespace r32 = bignum::ref32;
  const auto rm = r32::Ref32Int::from_bytes(m.to_bytes());
  const auto rbase = r32::Ref32Int::from_bytes(base.to_bytes());
  const auto re = r32::Ref32Int::from_bytes(e.to_bytes());
  // Cross-check once so the baseline provably computes the same function.
  if (r32::Ref32Int::from_bytes(mont.pow(base, e).to_bytes()) !=
      rbase.mod_pow(re, rm)) {
    state.SkipWithError("ref32 disagrees with live modexp");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(rbase.mod_pow(re, rm));
  }
}
BENCHMARK(BM_ModexpRef32)->Arg(1024);

void BM_RsaSignCrt(benchmark::State& state) {
  Fixture& fx =
      fixture(static_cast<int>(state.range(0)), crypto::SigImpl::kMultiSig);
  WorkTracker wt(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.deal.parties[0].sign(fx.msg));
  }
}
BENCHMARK(BM_RsaSignCrt)->Arg(512)->Arg(1024);

void BM_RsaVerify(benchmark::State& state) {
  Fixture& fx =
      fixture(static_cast<int>(state.range(0)), crypto::SigImpl::kMultiSig);
  const Bytes sig = fx.deal.parties[0].sign(fx.msg);
  // The plain check: PartyKeys::verify_party_sig would answer every
  // repeat from the party's verification memo.
  const crypto::RsaVerifier verifier(fx.deal.parties[0].own_rsa->pub);
  WorkTracker wt(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        verifier.verify(fx.msg, sig, fx.deal.parties[0].hash));
  }
}
BENCHMARK(BM_RsaVerify)->Arg(512)->Arg(1024);

void BM_ThresholdSigShare(benchmark::State& state) {
  Fixture& fx = fixture(static_cast<int>(state.range(0)),
                        crypto::SigImpl::kThresholdRsa);
  WorkTracker wt(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fx.deal.parties[0].sig_broadcast->sign_share(fx.msg));
  }
}
BENCHMARK(BM_ThresholdSigShare)->Arg(512)->Arg(1024);

void BM_ThresholdSigVerifyShare(benchmark::State& state) {
  Fixture& fx = fixture(static_cast<int>(state.range(0)),
                        crypto::SigImpl::kThresholdRsa);
  const Bytes share = fx.deal.parties[0].sig_broadcast->sign_share(fx.msg);
  WorkTracker wt(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fx.deal.parties[1].sig_broadcast->verify_share(fx.msg, 0, share));
  }
}
BENCHMARK(BM_ThresholdSigVerifyShare)->Arg(512)->Arg(1024);

void BM_ThresholdSigCombine(benchmark::State& state) {
  Fixture& fx = fixture(static_cast<int>(state.range(0)),
                        crypto::SigImpl::kThresholdRsa);
  std::vector<std::pair<int, Bytes>> shares;
  for (int i = 0; i < fx.deal.parties[0].sig_broadcast->k(); ++i) {
    shares.emplace_back(
        i, fx.deal.parties[static_cast<std::size_t>(i)].sig_broadcast
               ->sign_share(fx.msg));
  }
  WorkTracker wt(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fx.deal.parties[0].sig_broadcast->combine(fx.msg, shares));
  }
}
BENCHMARK(BM_ThresholdSigCombine)->Arg(512)->Arg(1024);

void BM_CoinRelease(benchmark::State& state) {
  Fixture& fx = fixture(1024, crypto::SigImpl::kMultiSig);
  std::uint64_t i = 0;
  WorkTracker wt(state);
  for (auto _ : state) {
    Writer w;
    w.u64(i++);
    benchmark::DoNotOptimize(fx.deal.parties[0].coin->release(w.data()));
  }
}
BENCHMARK(BM_CoinRelease);

void BM_CoinVerifyAndAssemble(benchmark::State& state) {
  Fixture& fx = fixture(1024, crypto::SigImpl::kMultiSig);
  const Bytes name = to_bytes("bench coin");
  std::vector<std::pair<int, Bytes>> shares;
  for (int i = 0; i < 2; ++i) {
    shares.emplace_back(
        i, fx.deal.parties[static_cast<std::size_t>(i)].coin->release(name));
  }
  WorkTracker wt(state);
  for (auto _ : state) {
    bool ok = fx.deal.parties[2].coin->verify_share(name, 0, shares[0].second);
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(
        fx.deal.parties[2].coin->assemble_bit(name, shares));
  }
}
BENCHMARK(BM_CoinVerifyAndAssemble);

void BM_Tdh2Encrypt(benchmark::State& state) {
  Fixture& fx = fixture(1024, crypto::SigImpl::kMultiSig);
  Rng rng(7);
  WorkTracker wt(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fx.deal.encryption_key->encrypt(fx.msg, to_bytes("L"), rng));
  }
}
BENCHMARK(BM_Tdh2Encrypt);

void BM_Tdh2DecryptShare(benchmark::State& state) {
  Fixture& fx = fixture(1024, crypto::SigImpl::kMultiSig);
  Rng rng(8);
  const Bytes ct = fx.deal.encryption_key->encrypt(fx.msg, to_bytes("L"), rng);
  WorkTracker wt(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.deal.parties[0].cipher->decrypt_share(ct));
  }
}
BENCHMARK(BM_Tdh2DecryptShare);

void BM_Tdh2Combine(benchmark::State& state) {
  Fixture& fx = fixture(1024, crypto::SigImpl::kMultiSig);
  Rng rng(9);
  const Bytes ct = fx.deal.encryption_key->encrypt(fx.msg, to_bytes("L"), rng);
  std::vector<std::pair<int, Bytes>> shares;
  for (int i = 0; i < 2; ++i) {
    shares.emplace_back(
        i,
        *fx.deal.parties[static_cast<std::size_t>(i)].cipher->decrypt_share(ct));
  }
  WorkTracker wt(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.deal.parties[3].cipher->combine(ct, shares));
  }
}
BENCHMARK(BM_Tdh2Combine);

// --- Before/after comparison: seed op sequences vs fast paths ------------

struct DleqBench {
  crypto::DlogGroup grp;  // private copy: its precomputation cache is ours
  BigInt vk;              // h1 = g^x, a long-lived verification key
  BigInt base;            // g2 = H2G(name), fresh per coin
  BigInt gi;              // h2 = base^x, fresh per share
  crypto::DleqProof proof;
  BigInt c;               // the proof's recomputed Fiat–Shamir challenge
  BigInt cofactor;        // (p-1)/q, the hash-to-group projection exponent

  DleqBench()
      : grp(fixture(1024, crypto::SigImpl::kMultiSig)
                .deal.encryption_key->group) {
    Rng rng(0xd1e9);
    const BigInt x = grp.random_exponent(rng);
    vk = grp.exp(grp.g(), x);
    base = grp.hash_to_group(to_bytes("bench dleq base"));
    gi = grp.exp(base, x);
    proof = crypto::dleq_prove(grp, grp.g(), vk, base, gi, x, rng);
    Writer w;
    grp.g().write(w);
    vk.write(w);
    base.write(w);
    gi.write(w);
    proof.a1.write(w);
    proof.a2.write(w);
    c = grp.hash_to_exponent(w.data());
    cofactor = (grp.p() - BigInt{1}) / grp.q();
  }
};

DleqBench& dleq_bench() {
  static DleqBench b;
  return b;
}

// Seed-identical DLEQ verification: one plain exponentiation per base,
// explicit modular inverses, unmemoized membership checks.
bool seed_dleq_verify(const crypto::DlogGroup& grp, const BigInt& g1,
                      const BigInt& h1, const BigInt& g2, const BigInt& h2,
                      const crypto::DleqProof& pf) {
  if (pf.z.is_negative() || pf.z >= grp.q()) return false;
  if (!grp.is_member(h1) || !grp.is_member(h2)) return false;
  Writer w;
  g1.write(w);
  h1.write(w);
  g2.write(w);
  h2.write(w);
  pf.a1.write(w);
  pf.a2.write(w);
  const BigInt c = grp.hash_to_exponent(w.data());
  const BigInt v1 = grp.mul(grp.exp(g1, pf.z), grp.inv(grp.exp(h1, c)));
  const BigInt v2 = grp.mul(grp.exp(g2, pf.z), grp.inv(grp.exp(h2, c)));
  return v1 == pf.a1 && v2 == pf.a2;
}

void BM_SingleExp(benchmark::State& state) {
  DleqBench& b = dleq_bench();
  Rng rng(11);
  const BigInt e = b.grp.random_exponent(rng);
  WorkTracker wt(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(b.grp.exp(b.grp.g(), e));
  }
}
BENCHMARK(BM_SingleExp);

void BM_SingleExpFixedBase(benchmark::State& state) {
  DleqBench& b = dleq_bench();
  Rng rng(12);
  const BigInt e = b.grp.random_exponent(rng);
  benchmark::DoNotOptimize(b.grp.exp_cached(b.grp.g(), e));  // warm the comb
  WorkTracker wt(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(b.grp.exp_cached(b.grp.g(), e));
  }
}
BENCHMARK(BM_SingleExpFixedBase);

void BM_DualExpSeed(benchmark::State& state) {
  DleqBench& b = dleq_bench();
  WorkTracker wt(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        b.grp.mul(b.grp.exp(b.grp.g(), b.proof.z),
                  b.grp.inv(b.grp.exp(b.vk, b.c))));
  }
}
BENCHMARK(BM_DualExpSeed);

void BM_DualExpFast(benchmark::State& state) {
  DleqBench& b = dleq_bench();
  benchmark::DoNotOptimize(
      b.grp.dual_exp_neg(b.grp.g(), b.proof.z, true, b.vk, b.c, true));
  WorkTracker wt(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        b.grp.dual_exp_neg(b.grp.g(), b.proof.z, true, b.vk, b.c, true));
  }
}
BENCHMARK(BM_DualExpFast);

void BM_DleqVerifySeed(benchmark::State& state) {
  DleqBench& b = dleq_bench();
  WorkTracker wt(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        seed_dleq_verify(b.grp, b.grp.g(), b.vk, b.base, b.gi, b.proof));
  }
}
BENCHMARK(BM_DleqVerifySeed);

void BM_DleqVerifyFast(benchmark::State& state) {
  DleqBench& b = dleq_bench();
  const crypto::DleqHints hints{.g1_long_lived = true,
                                .h1_long_lived = true,
                                .g2_long_lived = false,
                                .h2_long_lived = false};
  benchmark::DoNotOptimize(
      crypto::dleq_verify(b.grp, b.grp.g(), b.vk, b.base, b.gi, b.proof,
                          hints));  // warm the combs
  WorkTracker wt(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::dleq_verify(b.grp, b.grp.g(), b.vk, b.base, b.gi, b.proof,
                            hints));
  }
}
BENCHMARK(BM_DleqVerifyFast);

void BM_CoinShareVerifySeed(benchmark::State& state) {
  // Seed coin-share verification = recompute H2G(name) from scratch (its
  // arithmetic core is the cofactor exponentiation) + a plain DLEQ verify.
  DleqBench& b = dleq_bench();
  const bignum::Montgomery mont(b.grp.p());
  WorkTracker wt(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mont.pow(b.base, b.cofactor));
    benchmark::DoNotOptimize(
        seed_dleq_verify(b.grp, b.grp.g(), b.vk, b.base, b.gi, b.proof));
  }
}
BENCHMARK(BM_CoinShareVerifySeed);

// --- Optimistic verification: eager per-share checks vs combine-first ----

void BM_ThresholdCombine_Eager(benchmark::State& state) {
  // Pre-optimistic operation sequence: every share in the chosen set is
  // verified individually before the combine (what the protocols did when
  // each arriving echo-share was checked on receipt).
  Fixture& fx = fixture(static_cast<int>(state.range(0)),
                        crypto::SigImpl::kThresholdRsa);
  const auto& sig = *fx.deal.parties[0].sig_broadcast;
  std::vector<std::pair<int, Bytes>> shares;
  for (int i = 0; i < sig.k(); ++i) {
    shares.emplace_back(
        i, fx.deal.parties[static_cast<std::size_t>(i)].sig_broadcast
               ->sign_share(fx.msg));
  }
  WorkTracker wt(state);
  for (auto _ : state) {
    for (const auto& [i, share] : shares) {
      benchmark::DoNotOptimize(sig.verify_share(fx.msg, i, share));
    }
    benchmark::DoNotOptimize(sig.combine(fx.msg, shares));
  }
}
BENCHMARK(BM_ThresholdCombine_Eager)->Arg(512)->Arg(1024);

void BM_ThresholdCombine_Optimistic(benchmark::State& state) {
  // Combine-first fast path on the fault-free trace: one unverified
  // combine plus one public-exponent verification of the result — the
  // k per-share proof checks disappear.
  Fixture& fx = fixture(static_cast<int>(state.range(0)),
                        crypto::SigImpl::kThresholdRsa);
  const auto& sig = *fx.deal.parties[0].sig_broadcast;
  std::vector<std::pair<int, Bytes>> shares;
  for (int i = 0; i < sig.k(); ++i) {
    shares.emplace_back(
        i, fx.deal.parties[static_cast<std::size_t>(i)].sig_broadcast
               ->sign_share(fx.msg));
  }
  WorkTracker wt(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sig.combine_checked(fx.msg, shares));
  }
}
BENCHMARK(BM_ThresholdCombine_Optimistic)->Arg(512)->Arg(1024);

void BM_CoinAssemble_Eager(benchmark::State& state) {
  // Pre-optimistic coin round at a node: all n released shares arrive and
  // each is verified on receipt (the node cannot know which k will land
  // first), then the first k assemble the bit.
  Fixture& fx = fixture(1024, crypto::SigImpl::kMultiSig);
  const Bytes name = to_bytes("bench coin assemble");
  const auto& coin = *fx.deal.parties[0].coin;
  std::vector<std::pair<int, Bytes>> shares;
  for (int i = 0; i < 4; ++i) {
    shares.emplace_back(
        i, fx.deal.parties[static_cast<std::size_t>(i)].coin->release(name));
  }
  const std::vector<std::pair<int, Bytes>> first_k(
      shares.begin(), shares.begin() + coin.k());
  benchmark::DoNotOptimize(coin.verify_share(name, 0, shares[0].second));
  WorkTracker wt(state);
  for (auto _ : state) {
    for (const auto& [i, share] : shares) {
      benchmark::DoNotOptimize(coin.verify_share(name, i, share));
    }
    benchmark::DoNotOptimize(coin.assemble_bit(name, first_k));
  }
}
BENCHMARK(BM_CoinAssemble_Eager);

void BM_CoinAssemble_Optimistic(benchmark::State& state) {
  // Batch-first fast path: one RLC DLEQ check over the k chosen shares
  // plus one batched membership exponentiation, then the assemble; the
  // n-k surplus shares are never verified at all.
  Fixture& fx = fixture(1024, crypto::SigImpl::kMultiSig);
  const Bytes name = to_bytes("bench coin assemble");
  const auto& coin = *fx.deal.parties[0].coin;
  std::vector<std::pair<int, Bytes>> shares;
  for (int i = 0; i < 4; ++i) {
    shares.emplace_back(
        i, fx.deal.parties[static_cast<std::size_t>(i)].coin->release(name));
  }
  benchmark::DoNotOptimize(coin.assemble_bit_checked(name, shares));
  WorkTracker wt(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(coin.assemble_bit_checked(name, shares));
  }
}
BENCHMARK(BM_CoinAssemble_Optimistic);

void BM_BatchDleqVerify(benchmark::State& state) {
  // RLC batch verification of m proofs sharing both bases (the coin /
  // TDH2 shape), batched membership — the amortized cost per proof is
  // what falls as m grows.
  DleqBench& b = dleq_bench();
  const auto m = static_cast<std::size_t>(state.range(0));
  Rng rng(0xba7c);
  std::vector<crypto::DleqStatement> stmts;
  stmts.reserve(m);
  for (std::size_t j = 0; j < m; ++j) {
    const BigInt x = b.grp.random_exponent(rng);
    crypto::DleqStatement s;
    s.g1 = b.grp.g();
    s.h1 = b.grp.exp(b.grp.g(), x);
    s.g2 = b.base;
    s.h2 = b.grp.exp(b.base, x);
    s.proof = crypto::dleq_prove(b.grp, s.g1, s.h1, s.g2, s.h2, x, rng);
    stmts.push_back(std::move(s));
  }
  benchmark::DoNotOptimize(crypto::dleq_batch_verify(
      b.grp, stmts, rng, {}, crypto::BatchMembership::kBatched));
  WorkTracker wt(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::dleq_batch_verify(
        b.grp, stmts, rng, {}, crypto::BatchMembership::kBatched));
  }
}
BENCHMARK(BM_BatchDleqVerify)->Arg(4)->Arg(16)->Arg(64);

void BM_CoinShareVerifyFast(benchmark::State& state) {
  Fixture& fx = fixture(1024, crypto::SigImpl::kMultiSig);
  const Bytes name = to_bytes("bench coin fastpath");
  const Bytes share = fx.deal.parties[0].coin->release(name);
  benchmark::DoNotOptimize(
      fx.deal.parties[2].coin->verify_share(name, 0, share));  // warm caches
  WorkTracker wt(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fx.deal.parties[2].coin->verify_share(name, 0, share));
  }
}
BENCHMARK(BM_CoinShareVerifyFast);

// One link-frame MAC: a 37-byte header (type, ids, epochs, seq, body
// length) plus the body, as SlidingWindowLink authenticates every data
// and ack frame.  keyed:1 uses the link's precomputed HMAC state, keyed:0
// the one-shot hmac() over the concatenated input, which absorbs the two
// key pads again on every call.
void BM_HmacSha1Frame(benchmark::State& state) {
  const bool keyed = state.range(0) != 0;
  const Bytes key = to_bytes("0123456789abcdef");
  const Bytes header(37, 0x42);
  const Bytes body(static_cast<std::size_t>(state.range(1)), 0x17);
  const crypto::HmacSha1 link_mac(key);
  for (auto _ : state) {
    if (keyed) {
      benchmark::DoNotOptimize(link_mac.mac({header, body}));
    } else {
      benchmark::DoNotOptimize(
          crypto::hmac_sha1(key, concat({header, body})));
    }
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(header.size() + body.size()));
}
BENCHMARK(BM_HmacSha1Frame)
    ->ArgNames({"keyed", "body"})
    ->ArgsProduct({{0, 1}, {0, 64, 1024}});

// A repeated RSA-FDH check answered by the party's memo: an exact-match
// lookup over a message of the given size.  work_per_op is the units the
// hit charges, the same as the first (computed) check.
void BM_VerifyMemoHit(benchmark::State& state) {
  Fixture& fx = fixture(1024, crypto::SigImpl::kMultiSig);
  const Bytes msg(static_cast<std::size_t>(state.range(0)), 0x33);
  const Bytes sig = fx.deal.parties[0].sign(msg);
  const crypto::RsaVerifier pub(fx.deal.parties[0].own_rsa->pub);
  crypto::VerifyMemo memo;
  benchmark::DoNotOptimize(
      memo.verify(0, pub, msg, sig, fx.deal.parties[0].hash));  // the miss
  WorkTracker wt(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        memo.verify(0, pub, msg, sig, fx.deal.parties[0].hash));
  }
}
BENCHMARK(BM_VerifyMemoHit)->Arg(32)->Arg(4096);

}  // namespace

BENCHMARK_MAIN();
