// Combine-first verification, written once for every threshold scheme.
//
// Shoup signatures (and multi-signatures), the CKS coin and TDH2 are all
// robust: any k valid shares combine to the one correct result, and a bad
// share makes the combined result fail its single public check.  So a
// combiner may take k shares *unverified*, combine them and check only
// the result — one check instead of k share verifications while every
// submitter is honest (DESIGN.md §9).  CheckedCombiner is that policy for
// all three schemes; each scheme supplies only how to parse a share, the
// combined check, the scalar check of one share and a serial offender
// finder.
//
//  1. Candidate pool: the input shares in first-come order, one per
//     signer.  Signers on this handle's blacklist are skipped; a share
//     that does not parse puts its signer on it (shares arrive over
//     authenticated links, so garbage is the signer's doing).
//  2. Attempt: the first k candidates go through the combined check.  A
//     pass on the first attempt counts one crypto.optimistic_hits{op};
//     every failed attempt counts one crypto.fallbacks{op}.
//  3. Offenders: the scheme's serial finder (a verify_share loop, or DLEQ
//     bisection) names the failing shares among the k.  Given a threaded
//     WorkPool, the k scalar checks instead run across cores through
//     WorkPool::run_parallel (crypto.parallel_verify_shares{op} += k).
//     Both name exactly the shares that fail scalar verification, so the
//     blacklist, the retries and the result are the same either way; an
//     inline pool is never a semantic change, only a slower fallback.
//  4. Retry: the offenders are blacklisted and dropped, and the next k
//     candidates are tried.  The combiner gives up (nullopt) when fewer
//     than k candidates remain — with n - t >= k honest parties callers
//     just wait for more shares — or when a failed check names no
//     offender: that is not attributable to a signer (e.g. inconsistent
//     dealer data), and retrying the same set would loop forever.
//
// The blacklist is local to one scheme handle.  It is an optimization
// (skip shares that can only force another fallback), never a
// protocol-visible accusation, so a false positive is impossible by
// construction: only a failed scalar share check or an unparseable share
// puts a signer on it.  Thread-safe: checked combines may run on a crypto
// worker pool.
#pragma once

#include <cstddef>
#include <functional>
#include <mutex>
#include <set>
#include <type_traits>
#include <utility>
#include <vector>

#include "crypto/cost.hpp"
#include "crypto/work_pool.hpp"
#include "util/bytes.hpp"
#include "util/serde.hpp"

namespace sintra::crypto {

class CheckedCombiner {
 public:
  /// `op` labels this handle's counters: "threshold_sig", "coin", "tdh2".
  explicit CheckedCombiner(const char* op) : op_(op) {}

  /// Candidates in pool order: the input entries and their parsed shares.
  template <typename Parsed>
  struct Candidates {
    std::vector<const std::pair<int, Bytes>*> inputs;  // (signer, raw)
    std::vector<Parsed> parsed;

    [[nodiscard]] std::size_t size() const { return inputs.size(); }
    [[nodiscard]] std::vector<int> signers() const {
      std::vector<int> out;
      for (const auto* input : inputs) out.push_back(input->first);
      return out;
    }
  };

  [[nodiscard]] bool is_blacklisted(int signer) const {
    const std::lock_guard lk(mu_);
    return blacklist_.count(signer) != 0;
  }

  /// Runs the policy above over `shares` of an (n, k) scheme.  With
  /// `Chosen` the Candidates holding one attempt's k shares:
  ///  - parse(const std::pair<int, Bytes>&) -> Parsed, throwing SerdeError
  ///    on garbage;
  ///  - attempt(const Chosen&) -> std::optional<R>: the combined check
  ///    and, if it passes, the result;
  ///  - find_invalid(const Chosen&) -> ascending positions of the shares
  ///    that fail scalar verification;
  ///  - share_ok(const Chosen&, j) -> the scalar check of share j; it must
  ///    be safe to call concurrently.
  /// Returns attempt's result, or an empty optional as described above.
  template <typename Parse, typename Attempt, typename FindInvalid,
            typename ShareOk>
  auto run(int n, int k, const std::vector<std::pair<int, Bytes>>& shares,
           WorkPool* pool, const Parse& parse, const Attempt& attempt,
           const FindInvalid& find_invalid, const ShareOk& share_ok) {
    using Parsed = std::invoke_result_t<const Parse&,
                                        const std::pair<int, Bytes>&>;
    using Result = std::invoke_result_t<const Attempt&,
                                        const Candidates<Parsed>&>;

    Candidates<Parsed> cands;
    std::set<int> seen;
    for (const auto& share : shares) {
      const int signer = share.first;
      if (signer < 0 || signer >= n || is_blacklisted(signer) ||
          seen.count(signer) != 0) {
        continue;
      }
      try {
        cands.parsed.push_back(parse(share));
      } catch (const SerdeError&) {
        add(signer);
        continue;
      }
      cands.inputs.push_back(&share);
      seen.insert(signer);
    }

    const auto kk = static_cast<std::size_t>(k);
    for (bool first = true; cands.size() >= kk; first = false) {
      Candidates<Parsed> chosen;
      chosen.inputs.assign(cands.inputs.begin(), cands.inputs.begin() + k);
      chosen.parsed.assign(cands.parsed.begin(), cands.parsed.begin() + k);
      if (Result out = attempt(chosen)) {
        if (first) count_optimistic_hit(op_);
        return out;
      }
      count_fallback(op_);
      const std::vector<std::size_t> bad =
          pool != nullptr && !pool->inline_mode() && kk > 1
              ? failing_in_parallel(*pool, chosen, share_ok)
              : find_invalid(chosen);
      if (bad.empty()) break;
      for (auto it = bad.rbegin(); it != bad.rend(); ++it) {
        add(chosen.inputs[*it]->first);
        const auto at = static_cast<std::ptrdiff_t>(*it);
        cands.inputs.erase(cands.inputs.begin() + at);
        cands.parsed.erase(cands.parsed.begin() + at);
      }
    }
    return Result{};
  }

 private:
  void add(int signer) {
    const std::lock_guard lk(mu_);
    blacklist_.insert(signer);
  }

  // One scalar check per chosen share, fanned out across the pool.  The
  // verdicts land in per-share slots, so the positions come out ascending
  // exactly as a serial scan would report them.
  template <typename Parsed, typename ShareOk>
  std::vector<std::size_t> failing_in_parallel(
      WorkPool& pool, const Candidates<Parsed>& chosen,
      const ShareOk& share_ok) const {
    std::vector<char> good(chosen.size(), 0);
    std::vector<std::function<void()>> jobs;
    jobs.reserve(chosen.size());
    for (std::size_t j = 0; j < chosen.size(); ++j) {
      jobs.push_back([&, j] { good[j] = share_ok(chosen, j) ? 1 : 0; });
    }
    pool.run_parallel(jobs);
    count_parallel_verify(op_, chosen.size());
    std::vector<std::size_t> bad;
    for (std::size_t j = 0; j < good.size(); ++j) {
      if (good[j] == 0) bad.push_back(j);
    }
    return bad;
  }

  const char* op_;
  mutable std::mutex mu_;
  std::set<int> blacklist_;
};

}  // namespace sintra::crypto
