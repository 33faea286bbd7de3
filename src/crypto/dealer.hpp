// The trusted dealer (paper §2: "SINTRA currently needs a trusted dealer
// to generate the secret keys of all threshold schemes ... required only
// once, when the system is initialized").
//
// For a group of n servers tolerating t < n/3 faults, the dealer produces
// per-party key material for:
//   - pairwise HMAC link keys (128-bit, paper §3);
//   - a standard RSA signature key pair per party (atomic broadcast
//     message signing; also the shares of multi-signatures);
//   - two threshold signature deals: the broadcast quorum
//     k = ceil((n+t+1)/2) used by consistent broadcast, and the agreement
//     quorum k = n - t used to justify votes in Byzantine agreement;
//   - the threshold coin with k = t + 1;
//   - the TDH2 threshold cryptosystem with k = t + 1.
//
// Expensive parameters (safe-prime RSA moduli, Schnorr groups) are
// memoized per (bits, seed) within the process so tests and benchmarks can
// deal many configurations cheaply.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "crypto/coin.hpp"
#include "crypto/multi_sig.hpp"
#include "crypto/tdh2.hpp"
#include "crypto/threshold_sig.hpp"
#include "crypto/verify_memo.hpp"

namespace sintra::crypto {

/// Which implementation backs the ThresholdSigScheme interface
/// (paper §2.1's drop-in choice; experiments default to multi-signatures).
enum class SigImpl { kThresholdRsa, kMultiSig };

struct DealerConfig {
  int n = 4;
  int t = 1;
  int rsa_bits = 512;      // standard-signature and threshold-RSA modulus
  int dl_p_bits = 512;     // Schnorr group modulus (paper: 1024)
  int dl_q_bits = 160;     // subgroup order (paper: 160)
  HashKind hash = HashKind::kSha256;
  SigImpl sig_impl = SigImpl::kMultiSig;
  std::uint64_t seed = 1;
};

/// Everything party i must hold before the protocols start.
struct PartyKeys {
  int index = -1;
  int n = 0;
  int t = 0;
  HashKind hash = HashKind::kSha256;

  /// link_keys[j]: symmetric HMAC key shared with party j.
  std::vector<Bytes> link_keys;

  std::shared_ptr<const RsaKeyPair> own_rsa;
  std::shared_ptr<const RsaSigner> own_signer;  // own_rsa, contexts built
  std::shared_ptr<const MultiSigPublic> rsa_publics;  // all standard keys

  /// This party's one memo of successful RSA-FDH checks, shared by
  /// verify_party_sig and both signature schemes (crypto/verify_memo.hpp).
  std::shared_ptr<VerifyMemo> verify_memo = std::make_shared<VerifyMemo>();

  std::shared_ptr<ThresholdSigScheme> sig_broadcast;  // k = ceil((n+t+1)/2)
  std::shared_ptr<ThresholdSigScheme> sig_agreement;  // k = n - t
  std::shared_ptr<ThresholdCoin> coin;                // k = t + 1
  std::shared_ptr<Tdh2Party> cipher;                  // k = t + 1

  /// Verifies a standard signature from party j (atomic broadcast).
  [[nodiscard]] bool verify_party_sig(int j, BytesView msg,
                                      BytesView sig) const;
  /// Signs with this party's standard key.
  [[nodiscard]] Bytes sign(BytesView msg) const;
};

/// Raw (serializable) Shoup threshold-signature key material for one
/// party: the scheme's public data plus this party's secret share.
struct RawRsaThreshold {
  RsaThresholdPublic pub;
  BigInt share;
};

/// The flat, serializable form of everything one party receives from the
/// dealer (paper §3: the server's "initialization data").  materialize()
/// builds the live PartyKeys from it; crypto/keyfile.hpp serializes it.
struct RawPartyKeys {
  int index = -1;
  int n = 0;
  int t = 0;
  HashKind hash = HashKind::kSha256;
  SigImpl sig_impl = SigImpl::kMultiSig;
  int k_broadcast = 0;
  int k_agreement = 0;

  std::vector<Bytes> link_keys;
  RsaKeyPair own_rsa;
  std::vector<RsaPublicKey> all_rsa_publics;

  // Present only for SigImpl::kThresholdRsa.
  std::optional<RawRsaThreshold> threshold_broadcast;
  std::optional<RawRsaThreshold> threshold_agreement;

  // Threshold coin: group parameters, verification keys, own share.
  BigInt coin_p, coin_q, coin_g;
  std::vector<BigInt> coin_verification;
  BigInt coin_share;
  int coin_k = 0;

  // TDH2 threshold cryptosystem.
  BigInt tdh2_h, tdh2_gbar;
  std::vector<BigInt> tdh2_verification;
  BigInt tdh2_share;
  int tdh2_k = 0;
};

/// Builds the live scheme objects from raw key material (server-side
/// startup after loading a key file).
PartyKeys materialize(const RawPartyKeys& raw);

struct Deal {
  DealerConfig config;
  std::vector<PartyKeys> parties;
  /// Serializable per-party key material (same order as `parties`).
  std::vector<RawPartyKeys> raw;
  /// The channel's global encryption key, usable by non-members
  /// (paper §3.4: external senders encrypt to the group).
  std::shared_ptr<const Tdh2Public> encryption_key;
};

/// Runs the trusted dealer.  Deterministic for a given config (including
/// seed).  Throws std::invalid_argument unless n > 3t and n >= 1.
Deal run_dealer(const DealerConfig& config);

}  // namespace sintra::crypto
