// Montgomery modular arithmetic for odd moduli.
//
// All hot-path exponentiations in SINTRA (RSA, threshold-signature share
// generation, Diffie–Hellman coin shares, TDH2) go through this context.
// The implementation is fused CIOS (coarsely integrated operand scanning)
// over 64-bit limbs: each outer iteration interleaves the multiply row and
// the reduction row in ONE inner loop with two running carries and no
// intermediate normalization, using `unsigned __int128` products
// (docs/CRYPTO.md walks through the algorithm and its bounds; the 32-bit
// predecessor is frozen in ref32.hpp for differential tests).  The
// multiply and square kernels are one template on the limb count, with
// fixed-width instances for 4-, 8- and 16-limb moduli and a runtime-width
// instance for every other width.
//
// Beyond plain `pow`, the context offers the fast-path entry points that
// the threshold-crypto stack is built on:
//
//  - mul_pow / multi_pow: simultaneous multi-exponentiation (Shamir's
//    trick) — one shared squaring chain for several bases, so a product
//    like g^z * h^c costs barely more than a single exponentiation;
//  - FixedBaseTable: a comb table for a long-lived base (generator,
//    verification key, hash-to-group output).  Evaluation needs no
//    squarings at all — one multiplication per nonzero 4-bit digit of the
//    exponent — at the price of a one-off table build that is charged to
//    the work counter when it happens, so amortization is visible to the
//    simulator's virtual-time model rather than hidden from it.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "bignum/bigint.hpp"

namespace sintra::bignum {

/// Work accounting: every Montgomery multiplication adds
/// kLimbWorkScale * (64-bit limbs of the modulus)^2 to a thread-local
/// counter.  The *unit* is still the PR 1 definition — one 32-bit limb
/// product — so one 64-bit limb product, which does the work of four
/// 32-bit ones, charges kLimbWorkScale = 4 units.  For moduli whose width
/// is a multiple of 64 bits (every RSA/Schnorr modulus the dealer emits)
/// the counter value is bit-identical to the old 32-bit layer's, which is
/// what keeps simulator determinism and the PR 4 bench gates stable across
/// the limb rework (DESIGN.md §13).  The discrete-event simulator converts
/// accumulated work into virtual CPU time using each host's measured
/// 1024-bit-modexp cost (the paper's `exp` column) via a runtime-calibrated
/// ratio (crypto::work_per_exp1024), so public-key operations slow down
/// simulated hosts exactly in proportion to the real arithmetic they
/// perform.
inline constexpr std::uint64_t kLimbWorkScale = 4;

std::uint64_t work_counter() noexcept;
void reset_work_counter() noexcept;
/// Adds `units` to this thread's counter without doing the arithmetic:
/// a memoized result (crypto/verify_memo.hpp) charges what computing it
/// measured, so virtual time does not depend on what a cache remembers.
void charge_work(std::uint64_t units) noexcept;

/// Hard cap on modulus width: fixed-capacity scratch in the Montgomery
/// context is sized for 4096-bit moduli (64 limbs), so the hot path never
/// heap-allocates.  The constructor rejects wider moduli.
inline constexpr int kMaxModulusBits = 4096;

class Montgomery;

/// Precomputed fixed-base comb table (Brickell–Gordon–McCurley–Wilson
/// style): entry (j, d) holds base^(d * (2^w)^j) in Montgomery form, for a
/// window width of w bits (default 4).  Built by Montgomery::precompute
/// for one long-lived base and reused across many exponentiations; the
/// build performs real Montgomery multiplications and is therefore charged
/// to the work counter like any other arithmetic.
///
/// The window width is the comb's memory/speed dial: evaluation costs
/// ~ceil(E/w)·(1−2^−w) multiplications for an E-bit exponent while the
/// table holds ceil(E/w)·2^w entries, so wider windows buy fewer
/// multiplications per exponentiation at exponentially growing table and
/// build cost.  pick_comb_window_bits() below chooses w from the group's
/// expected number of concurrent long-lived bases.
class FixedBaseTable {
 public:
  FixedBaseTable() = default;

  [[nodiscard]] bool valid() const { return windows_ > 0; }
  /// Widest exponent the comb covers; wider exponents fall back to pow().
  [[nodiscard]] int max_exp_bits() const { return windows_ * window_bits_; }
  [[nodiscard]] int window_bits() const { return window_bits_; }
  [[nodiscard]] const BigInt& base() const { return base_; }
  /// Heap footprint of the table entries, for memory-bound assertions.
  [[nodiscard]] std::size_t memory_bytes() const {
    return entries_.size() * sizeof(std::uint64_t);
  }

 private:
  friend class Montgomery;

  BigInt base_;
  BigInt modulus_;  // guards against use with a different context
  int windows_ = 0;
  int window_bits_ = 4;
  std::size_t n_ = 0;                   // limbs of the modulus
  std::vector<std::uint64_t> entries_;  // windows x 2^window_bits x n_
};

/// Soft budget for the *sum* of all live comb tables a group is expected
/// to keep (verification keys, generators, per-name bases).  At the
/// paper's n=4 the default 4-bit windows fit with a wide margin, so the
/// historical (and work-counter-identical) sizing is preserved; at n=31 a
/// group holds ~2n+8 long-lived bases and the picker narrows windows
/// until the projected total fits.
inline constexpr std::size_t kCombMemoryBudgetBytes = 4u << 20;

/// Entry memory of one comb table: ceil(E/w) windows x 2^w digits x one
/// modulus-sized element each.
[[nodiscard]] std::size_t comb_table_bytes(int max_exp_bits, int modulus_bits,
                                           int window_bits);

/// Window width (bits, in [2, 4]) for a comb table over max_exp_bits-wide
/// exponents against a modulus_bits modulus, when ~concurrent_tables
/// tables are expected to be live at once.  Returns the widest width whose
/// projected total memory stays inside kCombMemoryBudgetBytes; 4 (the
/// historical constant) whenever the budget allows, so small groups are
/// bit-identical to the fixed-width era.
[[nodiscard]] int pick_comb_window_bits(int max_exp_bits, int modulus_bits,
                                        std::size_t concurrent_tables);

class Montgomery {
 public:
  /// modulus must be odd, > 1, and at most kMaxModulusBits wide.
  explicit Montgomery(const BigInt& modulus);

  [[nodiscard]] const BigInt& modulus() const { return modulus_; }

  /// base^exp mod modulus (exp >= 0; the sign of a negative exp is
  /// ignored, as only magnitudes reach the window scan).
  [[nodiscard]] BigInt pow(const BigInt& base, const BigInt& exp) const;

  /// a*b mod modulus without entering/leaving Montgomery form per call
  /// (converts at the edges); for one-off products plain BigInt is fine,
  /// this exists for callers doing many products against one modulus.
  [[nodiscard]] BigInt mul(const BigInt& a, const BigInt& b) const;

  /// a^ea * b^eb mod modulus in one interleaved pass: the squaring chain
  /// is shared between both bases (Shamir's trick), so the cost is one
  /// exponentiation's squarings plus each base's digit multiplications.
  /// Exponents must be >= 0 — callers with a negative exponent either fold
  /// it into the group order (DlogGroup::dual_exp_neg) or invert the base
  /// once; throws std::domain_error otherwise.
  [[nodiscard]] BigInt mul_pow(const BigInt& a, const BigInt& ea,
                               const BigInt& b, const BigInt& eb) const;

  /// prod terms[i].first ^ terms[i].second — the k-way generalization of
  /// mul_pow (used for Lagrange interpolation in the exponent).  All
  /// exponents must be >= 0.
  [[nodiscard]] BigInt multi_pow(
      const std::vector<std::pair<BigInt, BigInt>>& terms) const;

  /// Builds a comb table covering exponents up to max_exp_bits wide.
  /// window_bits in [2, 6] trades table memory for evaluation speed; the
  /// default 4 matches the historical layout (see pick_comb_window_bits).
  [[nodiscard]] FixedBaseTable precompute(const BigInt& base,
                                          int max_exp_bits,
                                          int window_bits = 4) const;

  /// base^e via the comb — no squarings, one multiplication per nonzero
  /// 4-bit digit of e.  Falls back to plain pow() when e is wider than the
  /// table or the table belongs to a different modulus.
  [[nodiscard]] BigInt pow(const FixedBaseTable& table, const BigInt& e) const;

  /// Dual fixed-base: ta.base^ea * tb.base^eb with no squarings at all.
  [[nodiscard]] BigInt mul_pow(const FixedBaseTable& ta, const BigInt& ea,
                               const FixedBaseTable& tb,
                               const BigInt& eb) const;

  /// Mixed: one cached base (comb, no squarings) times one fresh base
  /// (windowed, with squarings).
  [[nodiscard]] BigInt mul_pow(const FixedBaseTable& ta, const BigInt& ea,
                               const BigInt& b, const BigInt& eb) const;

  /// The same context with every multiplication and squaring on the
  /// runtime-width kernel instance, even where a fixed-width one exists.
  /// Results and work units are the same by construction; the
  /// differential tests check that they are.
  [[nodiscard]] Montgomery with_runtime_width() const;

 private:
  using Limb = std::uint64_t;
  using Limbs = std::vector<Limb>;

  [[nodiscard]] Limbs to_mont(const BigInt& a) const;
  [[nodiscard]] BigInt from_mont(const Limbs& a) const;
  /// out = a*b*R^-1 mod m (fused CIOS) over raw n-limb arrays.  out may
  /// alias a and/or b.
  void mmul(Limb* out, const Limb* a, const Limb* b) const;
  /// out = a*a*R^-1 mod m.  Exploits product symmetry (cross terms computed
  /// once and doubled), ~25% fewer limb products than mmul; used for the
  /// squaring chains that dominate every exponentiation ladder.  Charges
  /// the same kLimbWorkScale*n^2 work as mmul — the counter is a cost
  /// *model* shared with the 32-bit era, and keeping squarings and
  /// multiplications indistinguishable there preserves counter values
  /// bit-for-bit across PRs (docs/CRYPTO.md).  out may alias a.
  void msqr(Limb* out, const Limb* a) const;
  [[nodiscard]] Limbs mont_mul(const Limbs& a, const Limbs& b) const;
  /// Writes the Montgomery form of a into out (n limbs).
  void to_mont_into(Limb* out, const BigInt& a) const;
  [[nodiscard]] BigInt from_mont_raw(const Limb* a) const;
  /// Fills table entries d = 2..max_digit with basemont^d (entry 1 must
  /// already hold basemont; entry 0 is never read).
  void build_window_table(Limb* table, const Limb* basemont,
                          int max_digit) const;
  /// acc *= table-eval of e (both in Montgomery form); the comb needs no
  /// squarings.
  void comb_mul_into(Limb* acc, const FixedBaseTable& table,
                     const BigInt& e) const;
  [[nodiscard]] bool accepts(const FixedBaseTable& table,
                             const BigInt& e) const;
  /// Hard cap on terms per shared squaring chain (sizes the fixed stack
  /// arrays in simul_pow).  64 covers a whole batched DLEQ verification at
  /// n=31 (k=21 statements fold to ~2k+2 terms) in ONE pass — a second
  /// pass costs a second full squaring chain, the single largest line item
  /// for 160-bit exponents.
  static constexpr std::size_t kSimulPowMax = 64;
  /// Terms per pass actually used by multi_pow: kSimulPowMax narrowed so
  /// the per-pass window-table working set (terms x 16 entries x modulus
  /// limbs) stays under ~256 KiB — k-aware for the small moduli the
  /// protocols use, narrower only for multi-kilobit ones.
  [[nodiscard]] std::size_t simul_terms_per_pass() const;
  /// Core shared-squaring simultaneous exponentiation over <=
  /// kSimulPowMax terms.
  [[nodiscard]] BigInt simul_pow(const std::pair<BigInt, BigInt>* terms,
                                 std::size_t count) const;

  BigInt modulus_;
  Limbs m_;               // modulus limbs, size n
  Limb m0inv_;            // -m^{-1} mod 2^64
  Limbs r2_;              // R^2 mod m, for conversion into Montgomery form
  Limbs one_;             // R mod m (Montgomery representation of 1)
  // Limb count that selects the mmul/msqr kernel instance: m_.size(), or
  // 0 for the runtime-width instance (with_runtime_width).
  std::size_t kernel_width_ = 0;
};

}  // namespace sintra::bignum
