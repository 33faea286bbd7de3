#include "crypto/coin.hpp"

#include <set>
#include <stdexcept>

#include "crypto/cost.hpp"
#include "crypto/shamir.hpp"
#include "util/serde.hpp"

namespace sintra::crypto {

namespace {

struct ParsedCoinShare {
  BigInt gi;  // H2G(name)^{x_i}
  DleqProof proof;
};

ParsedCoinShare parse_coin_share(BytesView raw) {
  Reader r(raw);
  ParsedCoinShare out;
  out.gi = BigInt::read(r);
  out.proof = DleqProof::read(r);
  r.expect_end();
  return out;
}

}  // namespace

ThresholdCoin::ThresholdCoin(std::shared_ptr<const CoinPublic> pub, int index,
                             BigInt share, std::uint64_t prover_seed)
    : pub_(std::move(pub)),
      index_(index),
      share_(std::move(share)),
      prover_rng_(prover_seed),
      verify_rng_(prover_seed ^ 0xb47c4f5eedc011ULL) {
  pub_->group.hint_group_size(pub_->n);
}

// The generator and the per-party verification keys live for the whole
// deal, so they go through the group's precomputation cache; the coin
// base H2G(name) and the share g_i are fresh per coin and are not worth a
// table build (a comb table only pays for itself after several uses).
namespace {
constexpr DleqHints kCoinHints{.g1_long_lived = true,
                               .h1_long_lived = true,
                               .g2_long_lived = false,
                               .h2_long_lived = false};
}  // namespace

Bytes ThresholdCoin::release(BytesView name) {
  if (index_ < 0) throw std::logic_error("ThresholdCoin: verify-only handle");
  const OpScope ops("coin.release");
  const DlogGroup& grp = pub_->group;
  const BigInt base = grp.hash_to_group(name);
  const BigInt gi = grp.exp_reduced(base, share_);
  const DleqProof proof = dleq_prove(
      grp, grp.g(), pub_->verification[static_cast<std::size_t>(index_)],
      base, gi, share_, prover_rng_, kCoinHints);
  Writer w;
  gi.write(w);
  proof.write(w);
  return std::move(w).take();
}

bool ThresholdCoin::verify_share(BytesView name, int signer,
                                 BytesView share) const {
  if (signer < 0 || signer >= pub_->n) return false;
  const OpScope ops("coin.verify_share");
  ParsedCoinShare s;
  try {
    s = parse_coin_share(share);
  } catch (const SerdeError&) {
    return false;
  }
  const DlogGroup& grp = pub_->group;
  const BigInt base = grp.hash_to_group(name);
  return dleq_verify(grp, grp.g(),
                     pub_->verification[static_cast<std::size_t>(signer)],
                     base, s.gi, s.proof, kCoinHints);
}

Bytes ThresholdCoin::assemble(BytesView name,
                              const std::vector<std::pair<int, Bytes>>& shares,
                              std::size_t out_len) const {
  if (static_cast<int>(shares.size()) < pub_->k)
    throw std::invalid_argument("ThresholdCoin::assemble: need k shares");
  const OpScope ops("coin.assemble");
  const DlogGroup& grp = pub_->group;

  std::vector<int> indices;
  std::vector<BigInt> values;
  std::set<int> seen;
  for (const auto& [idx, raw] : shares) {
    if (static_cast<int>(indices.size()) == pub_->k) break;
    if (idx < 0 || idx >= pub_->n || !seen.insert(idx).second)
      throw std::invalid_argument(
          "ThresholdCoin::assemble: bad or duplicate signer index");
    indices.push_back(idx);
    values.push_back(parse_coin_share(raw).gi);
  }

  // Interpolate in the exponent: g0 = prod share_j ^ lambda_j, evaluated
  // as one simultaneous multi-exponentiation with memoized coefficients.
  const std::vector<BigInt> lambdas = lagrange_.coeffs_zero(indices, grp.q());
  std::vector<std::pair<BigInt, BigInt>> terms;
  terms.reserve(indices.size());
  for (std::size_t j = 0; j < indices.size(); ++j) {
    terms.emplace_back(values[j], lambdas[j]);
  }
  const BigInt g0 = grp.multi_exp(terms);

  // Expand H(block, name, g0) into out_len pseudo-random bytes.
  Bytes out;
  std::uint32_t block = 0;
  while (out.size() < out_len) {
    Writer w;
    w.u32(block++);
    w.bytes(name);
    g0.write(w);
    const Bytes d = hash_bytes(grp.hash_kind(), w.data());
    out.insert(out.end(), d.begin(), d.end());
  }
  out.resize(out_len);
  return out;
}

bool ThresholdCoin::assemble_bit(
    BytesView name, const std::vector<std::pair<int, Bytes>>& shares) const {
  return (assemble(name, shares, 1)[0] & 1) != 0;
}

std::optional<ThresholdCoin::AssembledCoin> ThresholdCoin::assemble_checked(
    BytesView name, const std::vector<std::pair<int, Bytes>>& shares,
    std::size_t out_len, WorkPool* pool) const {
  const DlogGroup& grp = pub_->group;
  const BigInt base = grp.hash_to_group(name);
  using Chosen = CheckedCombiner::Candidates<DleqStatement>;
  return checked_.run(
      pub_->n, pub_->k, shares, pool,
      [&](const std::pair<int, Bytes>& share) {
        ParsedCoinShare p = parse_coin_share(share.second);
        return DleqStatement{
            grp.g(), pub_->verification[static_cast<std::size_t>(share.first)],
            base, std::move(p.gi), std::move(p.proof)};
      },
      [&](const Chosen& c) -> std::optional<AssembledCoin> {
        {
          const std::lock_guard lk(verify_mu_);
          if (!dleq_batch_verify(grp, c.parsed, verify_rng_, kCoinHints,
                                 BatchMembership::kBatched)) {
            return std::nullopt;
          }
        }
        AssembledCoin out;
        for (const auto* input : c.inputs) out.used.push_back(*input);
        out.value = assemble(name, out.used, out_len);
        return out;
      },
      [&](const Chosen& c) {
        const std::lock_guard lk(verify_mu_);
        return dleq_find_invalid(grp, c.parsed, verify_rng_, kCoinHints);
      },
      [&](const Chosen& c, std::size_t j) {
        const DleqStatement& s = c.parsed[j];
        return dleq_verify(grp, s.g1, s.h1, s.g2, s.h2, s.proof, kCoinHints);
      });
}

std::optional<std::pair<bool, std::vector<std::pair<int, Bytes>>>>
ThresholdCoin::assemble_bit_checked(
    BytesView name, const std::vector<std::pair<int, Bytes>>& shares,
    WorkPool* pool) const {
  std::optional<AssembledCoin> coin = assemble_checked(name, shares, 1, pool);
  if (!coin) return std::nullopt;
  return std::make_pair((coin->value[0] & 1) != 0, std::move(coin->used));
}

std::vector<bool> ThresholdCoin::verify_shares_batch(
    BytesView name, const std::vector<std::pair<int, Bytes>>& shares) const {
  std::vector<bool> ok(shares.size(), false);
  const DlogGroup& grp = pub_->group;
  const BigInt base = grp.hash_to_group(name);

  std::vector<DleqStatement> stmts;
  std::vector<std::size_t> positions;  // statement -> input index
  stmts.reserve(shares.size());
  positions.reserve(shares.size());
  for (std::size_t i = 0; i < shares.size(); ++i) {
    const auto& [idx, raw] = shares[i];
    if (idx < 0 || idx >= pub_->n) continue;
    try {
      ParsedCoinShare p = parse_coin_share(raw);
      stmts.push_back({grp.g(),
                       pub_->verification[static_cast<std::size_t>(idx)], base,
                       std::move(p.gi), std::move(p.proof)});
      positions.push_back(i);
    } catch (const SerdeError&) {
      // stays flagged invalid
    }
  }

  const std::lock_guard lk(verify_mu_);
  if (dleq_batch_verify(grp, stmts, verify_rng_, kCoinHints,
                        BatchMembership::kIndividual)) {
    for (const std::size_t pos : positions) ok[pos] = true;
  } else {
    const std::vector<std::size_t> bad =
        dleq_find_invalid(grp, stmts, verify_rng_, kCoinHints);
    const std::set<std::size_t> bad_set(bad.begin(), bad.end());
    for (std::size_t j = 0; j < stmts.size(); ++j) {
      ok[positions[j]] = bad_set.count(j) == 0;
    }
  }
  return ok;
}

std::unique_ptr<ThresholdCoin> CoinDeal::make_party(int i) const {
  if (i < 0) {
    return std::make_unique<ThresholdCoin>(pub, -1, BigInt{0}, 0);
  }
  return std::make_unique<ThresholdCoin>(
      pub, i, shares[static_cast<std::size_t>(i)],
      0xc011 + static_cast<std::uint64_t>(i));
}

CoinDeal deal_coin(Rng& rng, int n, int k, const DlogGroup& group) {
  if (n < 1 || k < 1 || k > n)
    throw std::invalid_argument("deal_coin: need 1 <= k <= n");
  const BigInt x0 = group.random_exponent(rng);
  const SecretPolynomial poly(rng, x0, group.q(), k);

  auto pub = std::make_shared<CoinPublic>(CoinPublic{n, k, group, {}});
  CoinDeal deal;
  deal.shares = poly.shares(n);
  pub->verification.reserve(static_cast<std::size_t>(n));
  for (const BigInt& xi : deal.shares) {
    pub->verification.push_back(group.exp(group.g(), xi));
  }
  deal.pub = std::move(pub);
  return deal;
}

}  // namespace sintra::crypto
