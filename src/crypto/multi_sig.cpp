#include "crypto/multi_sig.hpp"

#include <set>
#include <stdexcept>

#include "crypto/cost.hpp"
#include "util/serde.hpp"

namespace sintra::crypto {

MultiSigPublic::MultiSigPublic(int n, int k,
                               const std::vector<RsaPublicKey>& keys,
                               HashKind hash)
    : n(n), k(k), keys(keys.begin(), keys.end()), hash(hash) {}

MultiSigScheme::MultiSigScheme(std::shared_ptr<const MultiSigPublic> pub,
                               int index,
                               std::shared_ptr<const RsaKeyPair> own_key,
                               std::shared_ptr<VerifyMemo> memo)
    : pub_(std::move(pub)),
      index_(index),
      memo_(memo ? std::move(memo) : std::make_shared<VerifyMemo>()) {
  if (own_key != nullptr) signer_.emplace(*own_key);
}

Bytes MultiSigScheme::sign_share(BytesView msg) {
  if (!signer_) throw std::logic_error("MultiSigScheme: verify-only handle");
  const OpScope ops("multi_sig.sign_share");
  return signer_->sign(msg, pub_->hash);
}

bool MultiSigScheme::verify_share(BytesView msg, int signer,
                                  BytesView share) const {
  if (signer < 0 || signer >= pub_->n) return false;
  const OpScope ops("multi_sig.verify_share");
  return memo_->verify(signer, pub_->keys[static_cast<std::size_t>(signer)],
                       msg, share, pub_->hash);
}

Bytes MultiSigScheme::combine(
    BytesView msg, const std::vector<std::pair<int, Bytes>>& shares) const {
  (void)msg;  // shares are self-contained signatures
  if (static_cast<int>(shares.size()) < pub_->k)
    throw std::invalid_argument("MultiSigScheme::combine: need k shares");
  Writer w;
  w.u32(static_cast<std::uint32_t>(pub_->k));
  std::set<int> seen;
  int written = 0;
  for (const auto& [idx, sig] : shares) {
    if (written == pub_->k) break;
    if (idx < 0 || idx >= pub_->n || !seen.insert(idx).second)
      throw std::invalid_argument(
          "MultiSigScheme::combine: bad or duplicate signer index");
    w.u32(static_cast<std::uint32_t>(idx));
    w.bytes(sig);
    ++written;
  }
  return std::move(w).take();
}

bool MultiSigScheme::verify(BytesView msg, BytesView sig) const {
  try {
    Reader r(sig);
    const std::uint32_t count = r.u32();
    if (count != static_cast<std::uint32_t>(pub_->k)) return false;
    std::set<int> seen;
    for (std::uint32_t i = 0; i < count; ++i) {
      const int idx = static_cast<int>(r.u32());
      const Bytes s = r.bytes();
      if (idx < 0 || idx >= pub_->n || !seen.insert(idx).second) return false;
      if (!memo_->verify(idx, pub_->keys[static_cast<std::size_t>(idx)], msg,
                         s, pub_->hash)) {
        return false;
      }
    }
    r.expect_end();
    return true;
  } catch (const SerdeError&) {
    return false;
  }
}

}  // namespace sintra::crypto
