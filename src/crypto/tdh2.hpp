// TDH2 threshold public-key encryption (Shoup–Gennaro, EUROCRYPT '98).
//
// Secure causal atomic broadcast (paper §2.6) encrypts every payload under
// the channel's global public key; replicas exchange decryption shares
// only after the ciphertext's position in the delivery sequence is fixed.
// TDH2 is chosen-ciphertext secure — the ciphertext-validity check (a
// Schnorr-style proof embedded in the ciphertext) stops a Byzantine party
// from mauling a ciphertext into a related one, which is exactly the
// property that preserves causal order.
//
// Hybrid encryption: the DH value h^r keys an AES-128-CTR bulk encryption
// of the payload (the paper used MARS; see DESIGN.md for the
// substitution).
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

struct Tdh2Public {
  int n = 0;
  int k = 0;
  DlogGroup group;
  BigInt h;                          // g^x, the encryption key
  BigInt g_bar;                      // independent second generator
  std::vector<BigInt> verification;  // g^{x_i} per party

  /// Encrypts `plaintext` with label `label` (the label binds context —
  /// SINTRA uses the channel pid).  Anyone holding the public key may
  /// encrypt, including non-members (paper §3.4).
  [[nodiscard]] Bytes encrypt(BytesView plaintext, BytesView label,
                              Rng& rng) const;

  /// Public ciphertext validity check (anyone can run it).
  [[nodiscard]] bool ciphertext_valid(BytesView ciphertext) const;
};

/// Extracts the (authenticated) label of a ciphertext without verifying
/// it; nullopt on malformed input.  Applications must compare it with the
/// expected context — the label is what stops a ciphertext produced for
/// one channel from being replayed onto another (Shoup–Gennaro's labeled
/// CCA security).
std::optional<Bytes> tdh2_ciphertext_label(BytesView ciphertext);

class Tdh2Party {
 public:
  Tdh2Party(std::shared_ptr<const Tdh2Public> pub, int index, BigInt share,
            std::uint64_t prover_seed);

  [[nodiscard]] int n() const { return pub_->n; }
  [[nodiscard]] int k() const { return pub_->k; }
  [[nodiscard]] int index() const { return index_; }
  [[nodiscard]] const Tdh2Public& pub() const { return *pub_; }

  /// Produces this party's decryption share, or nullopt if the ciphertext
  /// is invalid (an honest party never helps decrypt a mauled ciphertext).
  [[nodiscard]] std::optional<Bytes> decrypt_share(BytesView ciphertext);

  /// Verifies a share from `signer` against the ciphertext.
  [[nodiscard]] bool verify_share(BytesView ciphertext, int signer,
                                  BytesView share) const;

  /// Combines k shares into the plaintext.  Throws std::invalid_argument
  /// on bad share sets or an invalid ciphertext.  Shares are interpolated
  /// as given: callers either verify them eagerly (verify_share) or use
  /// combine_checked(), which verifies the chosen set in one batch.
  [[nodiscard]] Bytes combine(
      BytesView ciphertext,
      const std::vector<std::pair<int, Bytes>>& shares) const;

  /// Combine-first fast path (crypto/checked_combine.hpp): checks the
  /// DLEQ proofs of the first k plausible shares with ONE random-linear-
  /// combination check — paying the ciphertext-validity check once instead
  /// of once per share — then interpolates the plaintext.  On failure,
  /// DLEQ bisection (dleq_find_invalid) names the offenders.  Returns
  /// nullopt on an invalid ciphertext.  Membership checks stay
  /// *individual* (BatchMembership::kIndividual): a decryption accepting a
  /// poisoned share would deliver a wrong plaintext — a safety violation,
  /// unlike a disagreeing coin.  Thread-safe.
  [[nodiscard]] std::optional<Bytes> combine_checked(
      BytesView ciphertext, const std::vector<std::pair<int, Bytes>>& shares,
      WorkPool* pool = nullptr) const;

  /// True if `signer` was caught (by a combine_checked fallback on this
  /// handle) submitting a bad decryption share.
  [[nodiscard]] bool is_blacklisted(int signer) const {
    return checked_.is_blacklisted(signer);
  }

 private:
  std::shared_ptr<const Tdh2Public> pub_;
  int index_;
  BigInt share_;
  Rng prover_rng_;
  // Combiners see the same few signer sets across ciphertexts.
  mutable LagrangeCache lagrange_;
  // Batch-verification randomness: deterministic per handle, mutex-guarded
  // so checked combines may run on a crypto worker pool.
  mutable std::mutex verify_mu_;
  mutable Rng verify_rng_;
  mutable CheckedCombiner checked_{"tdh2"};
};

struct Tdh2Deal {
  std::shared_ptr<const Tdh2Public> pub;
  std::vector<BigInt> shares;

  [[nodiscard]] std::unique_ptr<Tdh2Party> make_party(int i) const;
};

Tdh2Deal deal_tdh2(Rng& rng, int n, int k, const DlogGroup& group);

}  // namespace sintra::crypto
