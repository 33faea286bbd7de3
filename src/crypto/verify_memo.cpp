#include "crypto/verify_memo.hpp"

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

}  // namespace

bool VerifyMemo::verify(int signer, const RsaPublicKey& key, BytesView msg,
                        BytesView sig, HashKind hash) {
  // The tag is always SHA-256, whatever hash the scheme signs with.  The
  // message length is framed so (msg, sig) pairs cannot shift bytes.
  Writer header;
  header.u32(static_cast<std::uint32_t>(signer));
  key.write(header);
  header.u8(static_cast<std::uint8_t>(hash));
  header.u64(msg.size());
  const Bytes prefix = std::move(header).take();
  const Bytes digest = Sha256().update(prefix).update(msg).update(sig).digest();
  Tag tag{};
  std::memcpy(tag.data(), digest.data(), tag.size());
  std::uint64_t index = 0;
  std::memcpy(&index, tag.data(), sizeof index);
  Slot& slot = slots_[index % kSlots];

  std::uint64_t remembered = 0;
  {
    const std::lock_guard lk(mu_);
    if (slot.tag == tag) remembered = slot.work;
  }
  if (remembered != 0) {
    bignum::charge_work(remembered);
    memo_counter(true).inc();
    return true;
  }

  memo_counter(false).inc();
  const WorkMeter meter;
  if (!rsa_verify(key, msg, sig, hash)) return false;
  const std::uint64_t work = meter.elapsed();
  if (work != 0) {
    const std::lock_guard lk(mu_);
    slot = Slot{tag, work};
  }
  return true;
}

}  // namespace sintra::crypto
