// Multi-signatures: the vector-of-ordinary-signatures implementation of
// the ThresholdSigScheme interface (paper §2.1).
//
// A "share" is party i's standard RSA-FDH signature; the assembled
// "threshold signature" is a list of k (signer, signature) pairs.  No
// change is needed in the protocols that use threshold signatures — this
// is exactly the drop-in property the paper exploits, and the
// configuration the experiments ran ("threshold signatures are
// implemented as multi-signatures if nothing else is mentioned", §4).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "crypto/threshold_sig.hpp"
#include "crypto/verify_memo.hpp"

namespace sintra::crypto {

/// Public data: every party's standard signature verification key.
struct MultiSigPublic {
  MultiSigPublic(int n, int k, const std::vector<RsaPublicKey>& keys,
                 HashKind hash);

  int n = 0;
  int k = 0;
  /// keys[i] is party i's key with its Montgomery context, built once by
  /// the constructor.
  std::vector<RsaVerifier> keys;
  HashKind hash = HashKind::kSha256;
};

class MultiSigScheme final : public ThresholdSigScheme {
 public:
  /// `own_key` is this party's standard RSA key pair (null for a
  /// verify-only handle).  `memo` is the party's verification memo
  /// (crypto/verify_memo.hpp); a handle built without one gets its own.
  MultiSigScheme(std::shared_ptr<const MultiSigPublic> pub, int index,
                 std::shared_ptr<const RsaKeyPair> own_key,
                 std::shared_ptr<VerifyMemo> memo = nullptr);

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
  std::shared_ptr<const MultiSigPublic> pub_;
  int index_;
  std::optional<RsaSigner> signer_;  // built once from own_key
  std::shared_ptr<VerifyMemo> memo_;
};

}  // namespace sintra::crypto
