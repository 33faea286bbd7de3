// Threshold signatures.
//
// SINTRA's consistent broadcast and agreement protocols justify votes with
// (n, k, t) dual-threshold signatures (paper §2.1): among n parties, up to
// t corrupted, k > t shares are needed to assemble a signature.  Two
// interchangeable implementations exist behind one interface:
//
//  - RsaThresholdScheme — Shoup's "Practical Threshold Signatures"
//    (EUROCRYPT 2000): shares of the RSA private exponent d over Z_{p'q'},
//    share correctness proven with Fiat–Shamir discrete-log-equality
//    proofs, recombination via integer Lagrange coefficients scaled by
//    Δ = n!.  Produces a single standard RSA-FDH signature.
//
//  - MultiSigScheme (multi_sig.hpp) — a vector of k ordinary RSA
//    signatures, "particularly suited when computation is more expensive
//    than communication" (paper §2.1); this is what the experiments ran.
#pragma once

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "crypto/checked_combine.hpp"
#include "crypto/rsa.hpp"
#include "crypto/shamir.hpp"
#include "crypto/verify_memo.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace sintra::crypto {

/// Per-party handle to a threshold signature scheme.  Thread-compatible;
/// each simulated party owns its own instance.
class ThresholdSigScheme {
 public:
  virtual ~ThresholdSigScheme() = default;

  [[nodiscard]] virtual int n() const = 0;
  [[nodiscard]] virtual int k() const = 0;

  /// This party's 0-based index.
  [[nodiscard]] virtual int index() const = 0;

  /// Produces this party's signature share on `msg`.
  [[nodiscard]] virtual Bytes sign_share(BytesView msg) = 0;

  /// Verifies a share claimed to come from party `signer`.
  [[nodiscard]] virtual bool verify_share(BytesView msg, int signer,
                                          BytesView share) const = 0;

  /// Combines k shares into a full signature.  Throws
  /// std::invalid_argument on fewer than k shares or duplicate signers;
  /// behaviour on *unverified* bad shares is a combine that fails verify()
  /// — the robustness property combine_checked() exploits.  Shares need
  /// NOT be individually verified first: callers either verify them
  /// eagerly and call combine(), or hand unverified shares to
  /// combine_checked() and let it check the one assembled signature.
  [[nodiscard]] virtual Bytes combine(
      BytesView msg, const std::vector<std::pair<int, Bytes>>& shares)
      const = 0;

  /// Verifies an assembled threshold signature.
  [[nodiscard]] virtual bool verify(BytesView msg, BytesView sig) const = 0;

  /// A checked combine's output: the signature plus the signer set it was
  /// assembled from — every share of `used` verified either implicitly
  /// (the assembled signature passed verify()) or explicitly (fallback),
  /// so the set is safe to forward as a justification.
  struct CheckedSignature {
    Bytes sig;
    std::vector<int> used;
  };

  /// Combine-first fast path (crypto/checked_combine.hpp): combines the
  /// first k plausible shares *unverified* and checks the one assembled
  /// signature with verify() — k share verifications collapse into one
  /// public-exponent check while every submitter is honest.  On failure,
  /// verify_share() names the offenders.  Returns nullopt while fewer than
  /// k usable shares are available.  Thread-safe.
  [[nodiscard]] std::optional<CheckedSignature> combine_checked(
      BytesView msg, const std::vector<std::pair<int, Bytes>>& shares,
      WorkPool* pool = nullptr) const;

  /// True if `signer` was caught submitting a bad share to this handle
  /// (local knowledge only — see crypto/checked_combine.hpp).
  [[nodiscard]] bool is_blacklisted(int signer) const {
    return checked_.is_blacklisted(signer);
  }

 private:
  mutable CheckedCombiner checked_{"threshold_sig"};
};

/// Public (dealer-published) data of the Shoup scheme.
struct RsaThresholdPublic {
  int n = 0;
  int k = 0;
  BigInt modulus;             // N = pq, p and q safe primes
  BigInt e;                   // prime public exponent > n
  BigInt v;                   // verification base, a square mod N
  std::vector<BigInt> vi;     // v^{s_i} for each party
  BigInt delta;               // n!
  HashKind hash = HashKind::kSha256;
};

class RsaThresholdScheme final : public ThresholdSigScheme {
 public:
  /// `share` is s_i; pass index = -1 and share = 0 for a verify/combine-only
  /// handle (e.g. an external client).  `memo` is the party's verification
  /// memo for verify() (crypto/verify_memo.hpp); a handle built without one
  /// gets its own.
  RsaThresholdScheme(std::shared_ptr<const RsaThresholdPublic> pub, int index,
                     BigInt share, std::uint64_t prover_seed,
                     std::shared_ptr<VerifyMemo> memo = nullptr);
  ~RsaThresholdScheme() override;

  [[nodiscard]] int n() const override { return pub_->n; }
  [[nodiscard]] int k() const override { return pub_->k; }
  [[nodiscard]] int index() const override { return index_; }

  [[nodiscard]] Bytes sign_share(BytesView msg) override;
  [[nodiscard]] bool verify_share(BytesView msg, int signer,
                                  BytesView share) const override;
  [[nodiscard]] Bytes combine(
      BytesView msg,
      const std::vector<std::pair<int, Bytes>>& shares) const override;
  [[nodiscard]] bool verify(BytesView msg, BytesView sig) const override;

 private:
  struct FastPath;

  std::shared_ptr<const RsaThresholdPublic> pub_;
  int index_;
  BigInt share_;
  Rng prover_rng_;
  std::shared_ptr<VerifyMemo> memo_;
  RsaVerifier group_key_;  // (modulus, e), for verify()
  // Epoch-stamped precomputation: persistent Montgomery context plus comb
  // tables for v and the per-signer inverse verification keys.  Builds
  // are charged to the work counter when they happen (see crypto/cost.hpp).
  mutable std::unique_ptr<FastPath> fast_;
  // Combine sees the same few signer sets over and over.
  mutable LagrangeCache lagrange_;
};

/// Dealer output: the public data plus each party's secret share.
struct RsaThresholdDeal {
  std::shared_ptr<const RsaThresholdPublic> pub;
  std::vector<BigInt> shares;  // s_i, one per party

  /// Convenience: builds party i's scheme handle.
  [[nodiscard]] std::unique_ptr<RsaThresholdScheme> make_party(int i) const;
};

/// Deals a fresh (n, k) Shoup threshold RSA key with the given modulus
/// size.  Safe-prime generation dominates the cost; standard sizes are
/// pre-generated in crypto/dealer.cpp's parameter cache.
RsaThresholdDeal deal_rsa_threshold(Rng& rng, int n, int k, int modulus_bits,
                                    HashKind hash = HashKind::kSha256);

/// Same, but reuses an existing safe-prime RSA key (p, q safe) so that
/// expensive prime generation can be cached across deals.
RsaThresholdDeal deal_rsa_threshold_with_key(Rng& rng, int n, int k,
                                             const RsaKeyPair& key,
                                             HashKind hash = HashKind::kSha256);

}  // namespace sintra::crypto
