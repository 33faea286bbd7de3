// Threshold coin-tossing (Cachin–Kursawe–Shoup, PODC 2000).
//
// The randomization source of SINTRA's binary Byzantine agreement: an
// (n, k, t) dual-threshold pseudo-random function based on the
// Diffie–Hellman problem.  The dealer shares a secret exponent x0 over
// Z_q; the coin named by an arbitrary byte string C evaluates to
// F(C) = H(C, H2G(C)^{x0}), which no coalition of < k share-holders can
// predict, yet any k shares reconstruct — without interaction beyond
// exchanging the shares themselves.
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "crypto/checked_combine.hpp"
#include "crypto/group.hpp"
#include "crypto/shamir.hpp"
#include "util/bytes.hpp"

namespace sintra::crypto {

struct CoinPublic {
  int n = 0;
  int k = 0;
  DlogGroup group;
  std::vector<BigInt> verification;  // g^{x_i} per party
};

class ThresholdCoin {
 public:
  /// index = -1, share = 0 for a verify/assemble-only handle.
  ThresholdCoin(std::shared_ptr<const CoinPublic> pub, int index, BigInt share,
                std::uint64_t prover_seed);

  [[nodiscard]] int n() const { return pub_->n; }
  [[nodiscard]] int k() const { return pub_->k; }
  [[nodiscard]] int index() const { return index_; }

  /// This party's share of the coin named `name`: H2G(name)^{x_i} plus a
  /// DLEQ proof of correctness.
  [[nodiscard]] Bytes release(BytesView name);

  /// Verifies a share claimed by party `signer` for coin `name`.
  [[nodiscard]] bool verify_share(BytesView name, int signer,
                                  BytesView share) const;

  /// Assembles k shares into `out_len` pseudo-random bytes.  Throws
  /// std::invalid_argument on < k shares / duplicate signers.  Shares are
  /// interpolated as given: callers either verify them eagerly
  /// (verify_share) or use assemble_checked(), which verifies the chosen
  /// set with one batched DLEQ check.
  [[nodiscard]] Bytes assemble(BytesView name,
                               const std::vector<std::pair<int, Bytes>>& shares,
                               std::size_t out_len) const;

  /// Single pseudo-random bit (the common use in binary agreement).
  [[nodiscard]] bool assemble_bit(
      BytesView name, const std::vector<std::pair<int, Bytes>>& shares) const;

  /// A checked assembly: the coin output plus the k shares it came from.
  /// Every share of `used` passed DLEQ verification (batched), so the set
  /// is what callers must forward when justifying the coin value to other
  /// parties (binary agreement's pre-vote justifications).
  struct AssembledCoin {
    Bytes value;
    std::vector<std::pair<int, Bytes>> used;
  };

  /// Combine-first fast path (crypto/checked_combine.hpp): checks the
  /// first k plausible shares with ONE random-linear-combination DLEQ
  /// check plus one batched membership check (dleq_batch_verify,
  /// BatchMembership::kBatched) and assembles them.  On failure, DLEQ
  /// bisection (dleq_find_invalid) names the offenders.  A batched-
  /// membership false accept (probability <= 1/3 per attempt, see
  /// DlogGroup::is_member_batch) can only poison the coin *value* — a
  /// liveness event (one disagreeing coin costs an extra agreement round),
  /// never a safety one.  Thread-safe.
  [[nodiscard]] std::optional<AssembledCoin> assemble_checked(
      BytesView name, const std::vector<std::pair<int, Bytes>>& shares,
      std::size_t out_len, WorkPool* pool = nullptr) const;

  /// assemble_checked for the single-bit case.
  [[nodiscard]] std::optional<std::pair<bool, std::vector<std::pair<int, Bytes>>>>
  assemble_bit_checked(BytesView name,
                       const std::vector<std::pair<int, Bytes>>& shares,
                       WorkPool* pool = nullptr) const;

  /// Verifies many shares of one coin together: one random-linear-
  /// combination DLEQ check for the whole set (individual membership
  /// checks — this path judges *forwarded* justification sets, where a
  /// spurious accept must stay negligible).  Returns one flag per input
  /// share; on a batch mismatch the offenders are isolated by bisection,
  /// so flags agree with verify_share on every share.  Does not touch the
  /// blacklist: a bad forwarded share indicts the forwarder, not the
  /// signer whose index it claims.
  [[nodiscard]] std::vector<bool> verify_shares_batch(
      BytesView name, const std::vector<std::pair<int, Bytes>>& shares) const;

  /// True if `signer` was caught (by an assemble_checked fallback on this
  /// handle) submitting a bad share.
  [[nodiscard]] bool is_blacklisted(int signer) const {
    return checked_.is_blacklisted(signer);
  }

 private:
  std::shared_ptr<const CoinPublic> pub_;
  int index_;
  BigInt share_;
  Rng prover_rng_;
  // Coin names repeat the same few index sets at assemble time.
  mutable LagrangeCache lagrange_;
  // Batch-verification randomness: deterministic per handle (seeded like
  // prover_rng_) so simulator runs stay reproducible, mutex-guarded so
  // checked assemblies may run on a crypto worker pool.
  mutable std::mutex verify_mu_;
  mutable Rng verify_rng_;
  mutable CheckedCombiner checked_{"coin"};
};

struct CoinDeal {
  std::shared_ptr<const CoinPublic> pub;
  std::vector<BigInt> shares;

  [[nodiscard]] std::unique_ptr<ThresholdCoin> make_party(int i) const;
};

/// Deals a fresh (n, k) coin over the given group.
CoinDeal deal_coin(Rng& rng, int n, int k, const DlogGroup& group);

}  // namespace sintra::crypto
