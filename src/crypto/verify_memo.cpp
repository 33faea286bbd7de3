#include "crypto/verify_memo.hpp"

#include <algorithm>
#include <cstring>

#include "bignum/montgomery.hpp"
#include "crypto/cost.hpp"
#include "obs/metrics.hpp"

namespace sintra::crypto {

namespace {

obs::Counter& memo_counter(bool hit) {
  static obs::Counter& hits =
      obs::registry().counter("crypto.verify_memo", {{"result", "hit"}});
  static obs::Counter& misses =
      obs::registry().counter("crypto.verify_memo", {{"result", "miss"}});
  return hit ? hits : misses;
}

std::size_t slot_index(int signer, BytesView sig) {
  std::uint64_t low = 0;
  const std::size_t take = std::min<std::size_t>(sig.size(), sizeof low);
  if (take != 0) std::memcpy(&low, sig.data() + sig.size() - take, take);
  low ^= static_cast<std::uint64_t>(signer) * 0x9e3779b97f4a7c15ULL;
  return static_cast<std::size_t>(low % VerifyMemo::kSlots);
}

}  // namespace

bool VerifyMemo::verify(int signer, const RsaVerifier& verifier,
                        BytesView msg, BytesView sig, HashKind hash) {
  const RsaPublicKey& key = verifier.key();
  const std::size_t index = slot_index(signer, sig);
  std::uint64_t remembered = 0;
  {
    const std::lock_guard lk(mu_);
    const Entry* e = slots_[index].get();
    if (e != nullptr && e->signer == signer && e->hash == hash &&
        std::ranges::equal(e->sig, sig) && std::ranges::equal(e->msg, msg) &&
        e->key == key) {
      remembered = e->work;
    }
  }
  if (remembered != 0) {
    bignum::charge_work(remembered);
    memo_counter(true).inc();
    return true;
  }

  memo_counter(false).inc();
  const WorkMeter meter;
  if (!verifier.verify(msg, sig, hash)) return false;
  const std::uint64_t work = meter.elapsed();
  const std::size_t bytes =
      sizeof(Entry) + msg.size() + sig.size() +
      sizeof(BigInt::Limb) * (key.n.limbs().size() + key.e.limbs().size());
  if (work == 0 || bytes > kByteBudget) return true;

  auto entry = std::make_unique<Entry>(
      Entry{signer, hash, key, Bytes(msg.begin(), msg.end()),
            Bytes(sig.begin(), sig.end()), work, bytes});
  const std::lock_guard lk(mu_);
  std::unique_ptr<Entry>& slot = slots_[index];
  const std::size_t freed = slot ? slot->bytes : 0;
  if (held_ - freed + bytes <= kByteBudget) {
    held_ = held_ - freed + bytes;
    slot.swap(entry);  // the replaced entry is freed with `entry`
  }
  return true;
}

std::size_t VerifyMemo::bytes_held() const {
  const std::lock_guard lk(mu_);
  return held_;
}

}  // namespace sintra::crypto
