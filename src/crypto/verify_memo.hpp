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
// Soundness: an entry keeps every input of the check — signer, hash
// kind, public key, message and signature bytes — and a hit requires all
// of them to be equal, byte for byte.  Only verifications that succeeded
// are stored, so a hit answers exactly what rsa_verify would on the same
// inputs.  A failed check is never remembered: an invalid signature is
// re-checked, and rejected, every time.
//
// Cost accounting: a hit charges the bignum work counter the units the
// first verification measured (bignum::charge_work), so the simulator's
// virtual time, the crypto.work counters and every work-unit pin are the
// same whether or not the memo remembers; only host CPU drops.
//
// Memory: a direct-mapped table of kSlots entry pointers (8 KB), indexed
// by the signer and the signature's low 8 bytes (honest RSA signatures
// are uniform there, so no hashing is needed).  The entries together hold
// at most kByteBudget bytes (1 MiB), each counted as its message,
// signature and key bytes plus its fixed size.  A new entry replaces
// whatever shared its slot; one that does not fit the budget even then
// is simply not remembered and is re-verified every time.  Bundle
// statements can carry up to 64 KiB, so the budget bites only on large
// ones.  Thread-safe — the mutex guards the lookup and the insert, never
// the exponentiation, so crypto-pool workers verify concurrently.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>

#include "crypto/rsa.hpp"

namespace sintra::crypto {

class VerifyMemo {
 public:
  static constexpr std::size_t kSlots = 1024;
  static constexpr std::size_t kByteBudget = std::size_t{1} << 20;

  /// Signer id used for a group key (the Shoup scheme's one public key).
  static constexpr int kGroupKey = -1;

  /// Same answer as key.verify(msg, sig, hash); `signer` names whose
  /// key `key` is, so one party's signature is never taken for another's.
  [[nodiscard]] bool verify(int signer, const RsaVerifier& key,
                            BytesView msg, BytesView sig, HashKind hash);

  /// Bytes the stored entries count against kByteBudget.
  [[nodiscard]] std::size_t bytes_held() const;

 private:
  struct Entry {
    int signer;
    HashKind hash;
    RsaPublicKey key;
    Bytes msg;
    Bytes sig;
    std::uint64_t work;  // units the verification charged
    std::size_t bytes;   // what this entry counts against the budget
  };

  mutable std::mutex mu_;
  std::array<std::unique_ptr<Entry>, kSlots> slots_{};
  std::size_t held_ = 0;
};

}  // namespace sintra::crypto
