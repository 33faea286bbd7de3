#include "crypto/tdh2.hpp"

#include <set>
#include <stdexcept>

#include "crypto/aes128.hpp"
#include "crypto/cost.hpp"
#include "crypto/shamir.hpp"
#include "util/serde.hpp"

namespace sintra::crypto {

namespace {

struct Ciphertext {
  Bytes c;      // AES-CTR bulk ciphertext
  Bytes label;
  BigInt u;     // g^r
  BigInt u_bar; // g_bar^r
  BigInt e;     // Fiat–Shamir challenge
  BigInt f;     // response s + r*e
};

Ciphertext parse_ct(BytesView raw) {
  Reader r(raw);
  Ciphertext out;
  out.c = r.bytes();
  out.label = r.bytes();
  out.u = BigInt::read(r);
  out.u_bar = BigInt::read(r);
  out.e = BigInt::read(r);
  out.f = BigInt::read(r);
  r.expect_end();
  return out;
}

Bytes serialize_ct(const Ciphertext& ct) {
  Writer w;
  w.bytes(ct.c);
  w.bytes(ct.label);
  ct.u.write(w);
  ct.u_bar.write(w);
  ct.e.write(w);
  ct.f.write(w);
  return std::move(w).take();
}

// Challenge e = H2(c, L, u, w, u_bar, w_bar) as an exponent.
BigInt ct_challenge(const DlogGroup& grp, const Ciphertext& ct, const BigInt& w,
                    const BigInt& w_bar) {
  Writer wr;
  wr.bytes(ct.c);
  wr.bytes(ct.label);
  ct.u.write(wr);
  w.write(wr);
  ct.u_bar.write(wr);
  w_bar.write(wr);
  return grp.hash_to_exponent(wr.data());
}

// Derives the AES key and CTR nonce from the DH value h^r.
std::pair<Bytes, Bytes> derive_keys(const DlogGroup& grp, const BigInt& hr) {
  Writer w1;
  w1.u8(0x01);
  hr.write(w1);
  Bytes key = hash_bytes(grp.hash_kind(), w1.data());
  key.resize(Aes128::kKeySize);
  Writer w2;
  w2.u8(0x02);
  hr.write(w2);
  Bytes nonce = hash_bytes(grp.hash_kind(), w2.data());
  nonce.resize(Aes128::kBlockSize);
  return {std::move(key), std::move(nonce)};
}

struct ParsedShare {
  BigInt ui;  // u^{x_i}
  DleqProof proof;
};

ParsedShare parse_share(BytesView raw) {
  Reader r(raw);
  ParsedShare out;
  out.ui = BigInt::read(r);
  out.proof = DleqProof::read(r);
  r.expect_end();
  return out;
}

// g, g_bar, h and the verification keys live for the whole deal and go
// through the group's precomputation cache; u, u_bar, u_i are fresh per
// ciphertext, so a table build would never pay off for them.
constexpr DleqHints kShareHints{.g1_long_lived = true,
                                .h1_long_lived = true,
                                .g2_long_lived = false,
                                .h2_long_lived = false};

bool ct_valid_impl(const Tdh2Public& pub, const Ciphertext& ct) {
  const DlogGroup& grp = pub.group;
  if (!grp.is_member(ct.u) || !grp.is_member(ct.u_bar)) return false;
  if (ct.e.is_negative() || ct.f.is_negative() || ct.e >= grp.q() ||
      ct.f >= grp.q()) {
    return false;
  }
  // w = g^f * u^{-e}, w_bar = g_bar^f * u_bar^{-e} — each one simultaneous
  // exponentiation with the negation folded into the group order.
  const BigInt w = grp.dual_exp_neg(grp.g(), ct.f, true, ct.u, ct.e, false);
  const BigInt w_bar =
      grp.dual_exp_neg(pub.g_bar, ct.f, true, ct.u_bar, ct.e, false);
  return ct_challenge(grp, ct, w, w_bar) == ct.e;
}

// Lagrange in the exponent gives h^r = u^x from the k shares u^{x_i}, as
// one simultaneous multi-exponentiation with memoized coefficients; h^r
// keys the AES-CTR bulk decryption.
Bytes open_with_shares(const DlogGroup& grp, LagrangeCache& lagrange,
                       const Ciphertext& ct, const std::vector<int>& indices,
                       const std::vector<BigInt>& values) {
  const std::vector<BigInt> lambdas = lagrange.coeffs_zero(indices, grp.q());
  std::vector<std::pair<BigInt, BigInt>> terms;
  terms.reserve(indices.size());
  for (std::size_t j = 0; j < indices.size(); ++j) {
    terms.emplace_back(values[j], lambdas[j]);
  }
  const BigInt hr = grp.multi_exp(terms);
  const auto [key, nonce] = derive_keys(grp, hr);
  return Aes128(key).ctr_crypt(nonce, ct.c);
}

}  // namespace

Bytes Tdh2Public::encrypt(BytesView plaintext, BytesView label,
                          Rng& rng) const {
  const OpScope ops("tdh2.encrypt");
  const BigInt r = group.random_exponent(rng);
  const BigInt s = group.random_exponent(rng);

  Ciphertext ct;
  ct.label.assign(label.begin(), label.end());
  ct.u = group.exp_cached(group.g(), r);
  ct.u_bar = group.exp_cached(g_bar, r);
  const BigInt hr = group.exp_cached(h, r);
  const auto [key, nonce] = derive_keys(group, hr);
  ct.c = Aes128(key).ctr_crypt(nonce, plaintext);

  const BigInt w = group.exp_cached(group.g(), s);
  const BigInt w_bar = group.exp_cached(g_bar, s);
  ct.e = ct_challenge(group, ct, w, w_bar);
  ct.f = (s + r * ct.e).mod(group.q());
  return serialize_ct(ct);
}

bool Tdh2Public::ciphertext_valid(BytesView ciphertext) const {
  try {
    return ct_valid_impl(*this, parse_ct(ciphertext));
  } catch (const SerdeError&) {
    return false;
  }
}

std::optional<Bytes> tdh2_ciphertext_label(BytesView ciphertext) {
  try {
    return parse_ct(ciphertext).label;
  } catch (const SerdeError&) {
    return std::nullopt;
  }
}

Tdh2Party::Tdh2Party(std::shared_ptr<const Tdh2Public> pub, int index,
                     BigInt share, std::uint64_t prover_seed)
    : pub_(std::move(pub)),
      index_(index),
      share_(std::move(share)),
      prover_rng_(prover_seed),
      verify_rng_(prover_seed ^ 0x7dec2b47c4f5eeULL) {
  pub_->group.hint_group_size(pub_->n);
}

std::optional<Bytes> Tdh2Party::decrypt_share(BytesView ciphertext) {
  if (index_ < 0) throw std::logic_error("Tdh2Party: verify-only handle");
  const OpScope ops("tdh2.decrypt_share");
  Ciphertext ct;
  try {
    ct = parse_ct(ciphertext);
  } catch (const SerdeError&) {
    return std::nullopt;
  }
  if (!ct_valid_impl(*pub_, ct)) return std::nullopt;

  const DlogGroup& grp = pub_->group;
  const BigInt ui = grp.exp_reduced(ct.u, share_);
  const DleqProof proof = dleq_prove(
      grp, grp.g(), pub_->verification[static_cast<std::size_t>(index_)],
      ct.u, ui, share_, prover_rng_, kShareHints);
  Writer w;
  ui.write(w);
  proof.write(w);
  return std::move(w).take();
}

bool Tdh2Party::verify_share(BytesView ciphertext, int signer,
                             BytesView share) const {
  if (signer < 0 || signer >= pub_->n) return false;
  const OpScope ops("tdh2.verify_share");
  Ciphertext ct;
  ParsedShare s;
  try {
    ct = parse_ct(ciphertext);
    s = parse_share(share);
  } catch (const SerdeError&) {
    return false;
  }
  if (!ct_valid_impl(*pub_, ct)) return false;
  const DlogGroup& grp = pub_->group;
  return dleq_verify(grp, grp.g(),
                     pub_->verification[static_cast<std::size_t>(signer)],
                     ct.u, s.ui, s.proof, kShareHints);
}

Bytes Tdh2Party::combine(
    BytesView ciphertext,
    const std::vector<std::pair<int, Bytes>>& shares) const {
  const OpScope ops("tdh2.combine");
  const Ciphertext ct = parse_ct(ciphertext);
  if (!ct_valid_impl(*pub_, ct))
    throw std::invalid_argument("Tdh2Party::combine: invalid ciphertext");
  if (static_cast<int>(shares.size()) < pub_->k)
    throw std::invalid_argument("Tdh2Party::combine: need k shares");

  std::vector<int> indices;
  std::vector<BigInt> values;
  std::set<int> seen;
  for (const auto& [idx, raw] : shares) {
    if (static_cast<int>(indices.size()) == pub_->k) break;
    if (idx < 0 || idx >= pub_->n || !seen.insert(idx).second)
      throw std::invalid_argument(
          "Tdh2Party::combine: bad or duplicate signer index");
    indices.push_back(idx);
    values.push_back(parse_share(raw).ui);
  }
  return open_with_shares(pub_->group, lagrange_, ct, indices, values);
}

std::optional<Bytes> Tdh2Party::combine_checked(
    BytesView ciphertext, const std::vector<std::pair<int, Bytes>>& shares,
    WorkPool* pool) const {
  Ciphertext ct;
  try {
    ct = parse_ct(ciphertext);
  } catch (const SerdeError&) {
    return std::nullopt;
  }
  if (!ct_valid_impl(*pub_, ct)) return std::nullopt;
  const DlogGroup& grp = pub_->group;
  using Chosen = CheckedCombiner::Candidates<DleqStatement>;
  return checked_.run(
      pub_->n, pub_->k, shares, pool,
      [&](const std::pair<int, Bytes>& share) {
        ParsedShare p = parse_share(share.second);
        return DleqStatement{
            grp.g(), pub_->verification[static_cast<std::size_t>(share.first)],
            ct.u, std::move(p.ui), std::move(p.proof)};
      },
      [&](const Chosen& c) -> std::optional<Bytes> {
        {
          const std::lock_guard lk(verify_mu_);
          if (!dleq_batch_verify(grp, c.parsed, verify_rng_, kShareHints,
                                 BatchMembership::kIndividual)) {
            return std::nullopt;
          }
        }
        const OpScope ops("tdh2.combine");
        std::vector<BigInt> values;
        for (const DleqStatement& s : c.parsed) values.push_back(s.h2);
        return open_with_shares(grp, lagrange_, ct, c.signers(), values);
      },
      [&](const Chosen& c) {
        const std::lock_guard lk(verify_mu_);
        return dleq_find_invalid(grp, c.parsed, verify_rng_, kShareHints);
      },
      [&](const Chosen& c, std::size_t j) {
        const DleqStatement& s = c.parsed[j];
        return dleq_verify(grp, s.g1, s.h1, s.g2, s.h2, s.proof, kShareHints);
      });
}

std::unique_ptr<Tdh2Party> Tdh2Deal::make_party(int i) const {
  if (i < 0) {
    return std::make_unique<Tdh2Party>(pub, -1, BigInt{0}, 0);
  }
  return std::make_unique<Tdh2Party>(pub, i,
                                     shares[static_cast<std::size_t>(i)],
                                     0x7d42 + static_cast<std::uint64_t>(i));
}

Tdh2Deal deal_tdh2(Rng& rng, int n, int k, const DlogGroup& group) {
  if (n < 1 || k < 1 || k > n)
    throw std::invalid_argument("deal_tdh2: need 1 <= k <= n");
  const BigInt x = group.random_exponent(rng);
  const SecretPolynomial poly(rng, x, group.q(), k);

  auto pub = std::make_shared<Tdh2Public>(
      Tdh2Public{n, k, group, BigInt{}, BigInt{}, {}});
  pub->h = group.exp(group.g(), x);
  // Independent second generator derived by hashing — no one knows its
  // discrete log relative to g.
  Writer w;
  group.p().write(w);
  group.g().write(w);
  pub->g_bar = group.hash_to_group(concat({to_bytes("tdh2.gbar"), w.data()}));

  Tdh2Deal deal;
  deal.shares = poly.shares(n);
  pub->verification.reserve(static_cast<std::size_t>(n));
  for (const BigInt& xi : deal.shares) {
    pub->verification.push_back(group.exp(group.g(), xi));
  }
  deal.pub = std::move(pub);
  return deal;
}

}  // namespace sintra::crypto
