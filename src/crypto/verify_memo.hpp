// Per-party memo of successful RSA-FDH signature verifications.
//
// One party checks the same standard signature many times: a signed
// bundle is re-validated every time the atomic channel reconsiders its
// round, and a consistent-broadcast closing or a binary-agreement
// justification is re-verified for every vote that carries it.  Every
// RSA-FDH check of a party — PartyKeys::verify_party_sig, both
// multi-signature scheme handles and the Shoup scheme's assembled-
// signature check — goes through that party's one VerifyMemo, so each
// distinct signature costs one modular exponentiation per party.
//
// Soundness: a hit requires a SHA-256 tag match over (signer, public key,
// hash kind, message, signature), and only verifications that succeeded
// are stored, so a hit answers exactly what rsa_verify would (up to a
// SHA-256 collision).  A failed check is never remembered: an invalid
// signature is re-checked, and rejected, every time.
//
// Cost accounting: a hit charges the bignum work counter the units the
// first verification measured (bignum::charge_work), so the simulator's
// virtual time, the crypto.work counters and every work-unit pin are the
// same whether or not the memo remembers; only host CPU drops.
//
// Memory is fixed: a direct-mapped table of kSlots tags (40 KB); a new
// entry overwrites whatever shared its slot.  Thread-safe — the mutex
// guards the slot lookup and the insert, never the exponentiation, so
// crypto-pool workers verify concurrently.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>

#include "crypto/rsa.hpp"

namespace sintra::crypto {

class VerifyMemo {
 public:
  static constexpr std::size_t kSlots = 1024;

  /// Signer id used for a group key (the Shoup scheme's one public key).
  static constexpr int kGroupKey = -1;

  /// Same answer as rsa_verify(key, msg, sig, hash); `signer` names whose
  /// key `key` is, so one party's signature is never taken for another's.
  [[nodiscard]] bool verify(int signer, const RsaPublicKey& key,
                            BytesView msg, BytesView sig, HashKind hash);

 private:
  using Tag = std::array<std::uint8_t, Sha256::kDigestSize>;
  struct Slot {
    Tag tag{};
    std::uint64_t work = 0;  // units the verification charged; 0 = empty
  };

  std::mutex mu_;
  std::array<Slot, kSlots> slots_{};
};

}  // namespace sintra::crypto
