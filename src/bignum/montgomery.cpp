#include "bignum/montgomery.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <type_traits>

namespace sintra::bignum {

namespace {
thread_local std::uint64_t g_work = 0;
}  // namespace

std::uint64_t work_counter() noexcept { return g_work; }
void reset_work_counter() noexcept { g_work = 0; }
void charge_work(std::uint64_t units) noexcept { g_work += units; }

namespace {
using Limb = std::uint64_t;

// Inverse of odd x mod 2^64 by Newton iteration: y = x is correct mod 2^3
// and each step doubles the number of correct low bits (3 -> 6 -> 12 -> 24
// -> 48 -> 96), so five steps cover 64 bits.
Limb inv64(Limb x) {
  Limb y = x;
  for (int i = 0; i < 5; ++i) y *= 2 - x * y;
  return y;
}

// Capacity of the fixed-size limb arrays (kernel scratch, single-product
// helpers), sized for kMaxModulusBits.  They live on the stack, so the
// hot path performs zero heap allocations per multiply.
constexpr std::size_t kMaxLimbs = kMaxModulusBits / 64;  // 64

// Exponentiation working set (window table + accumulator).  Sized so a
// full 16-entry window table for a 4096-bit modulus fits on the stack
// (16n + n = 1088 limbs at n = 64); only the multi-base simul_pow
// working sets (up to kSimulPowMax tables) can exceed it, and those
// reuse one thread-local buffer, so no path pays a per-call heap
// allocation after warm-up.
constexpr std::size_t kStackLimbs = 1280;  // 10 KiB

thread_local std::vector<Limb> g_scratch;

struct Workspace {
  Limb stack[kStackLimbs];
  Limb* p;

  explicit Workspace(std::size_t limbs) {
    if (limbs <= kStackLimbs) {
      p = stack;
    } else {
      if (g_scratch.size() < limbs) g_scratch.resize(limbs);
      p = g_scratch.data();
    }
  }
};

// Largest 4-bit window digit occurring in e: short or structured exponents
// (membership checks, 2*lambda, 4*delta) need only a partial table.
int max_window_digit(const BigInt& e) {
  const int windows = (e.bit_length() + 3) / 4;
  int maxd = 0;
  for (int w = 0; w < windows && maxd < 15; ++w) {
    maxd = std::max<int>(maxd, static_cast<int>(e.bits_window(4 * w, 4)));
  }
  return maxd;
}

void check_nonneg(const BigInt& e) {
  if (e.is_negative()) {
    throw std::domain_error(
        "Montgomery::mul_pow: negative exponent (reduce mod the group order "
        "or invert the base instead)");
  }
}
}  // namespace

Montgomery::Montgomery(const BigInt& modulus) : modulus_(modulus) {
  if (!modulus.is_odd() || modulus <= BigInt{1})
    throw std::domain_error("Montgomery: modulus must be odd and > 1");
  if (modulus.bit_length() > kMaxModulusBits)
    throw std::domain_error(
        "Montgomery: modulus wider than 4096 bits (kMaxModulusBits bounds "
        "the fixed-capacity scratch buffers)");
  m_ = modulus.limbs();
  kernel_width_ = m_.size();
  m0inv_ = static_cast<Limb>(0) - inv64(m_[0]);
  const int n = static_cast<int>(m_.size());
  // R^2 mod m with R = 2^(64n).
  BigInt r2 = (BigInt{1} << (128 * n)).mod(modulus_);
  r2_ = r2.limbs();
  r2_.resize(m_.size(), 0);
  BigInt r1 = (BigInt{1} << (64 * n)).mod(modulus_);
  one_ = r1.limbs();
  one_.resize(m_.size(), 0);
}

namespace {

// The kernels below are written once, as templates on the limb count N.
// N = kRuntimeWidth is the instance that reads the width from its
// argument instead; every other N is a fixed-width instance whose loops
// the compiler unrolls, so its carries and scratch limbs stay in
// registers.  Both kinds run the same statements in the same order, so
// they return the same limbs.
constexpr std::size_t kRuntimeWidth = 0;

template <std::size_t N>
constexpr std::size_t kCap = N != kRuntimeWidth ? N : kMaxLimbs;

// Calls f with the kernel instance for a modulus of `limbs` limbs: a
// fixed-width one for 256-, 512- and 1024-bit moduli (4, 8, 16 limbs;
// the CRT halves of 512- and 1024-bit RSA keys, 512-bit RSA moduli,
// 1024-bit RSA moduli and DL groups), the runtime-width one otherwise.
template <typename F>
void with_kernel_width(std::size_t limbs, F&& f) {
  switch (limbs) {
    case 4: return f(std::integral_constant<std::size_t, 4>{});
    case 8: return f(std::integral_constant<std::size_t, 8>{});
    case 16: return f(std::integral_constant<std::size_t, 16>{});
    default: return f(std::integral_constant<std::size_t, kRuntimeWidth>{});
  }
}

// out = t - m if top:t >= m, else t, for a value below 2m.  The select
// is a mask, not a branch.  out may alias anything but t.  Always
// inlined: a call would need t's address, keeping the kernel's state
// array in memory.
template <std::size_t N>
[[gnu::always_inline]] inline void subtract_if_ge(Limb* out, const Limb* t,
                                                  Limb top, const Limb* m,
                                                  std::size_t n) {
  Limb d[kCap<N>];
  Limb borrow = 0;
#pragma GCC unroll 16
  for (std::size_t i = 0; i < n; ++i) {
    const Wide diff = static_cast<Wide>(t[i]) - m[i] - borrow;
    d[i] = static_cast<Limb>(diff);
    borrow = static_cast<Limb>(diff >> 64) & 1;
  }
  // t < m exactly when the subtraction borrows out of limb n-1 and the
  // top limb (0 or 1) cannot absorb it.
  const Limb keep_t = static_cast<Limb>(0) - (borrow & (top ^ 1));
#pragma GCC unroll 16
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = (t[i] & keep_t) | (d[i] & ~keep_t);
  }
}

// out = a*b*R^-1 mod m, fused CIOS.  One outer pass per limb of a; the
// multiply row (t += a[i]*b) and the reduction row (t += mi*m, t >>= 64)
// share one inner loop with two running carries.  Invariant: the t value
// entering and leaving each outer iteration is < 2m, so t occupies n
// limbs plus a top limb t[n] in {0, 1} and needs no intermediate
// normalization (bounds walked through in docs/CRYPTO.md).  out may alias
// a and/or b.
template <std::size_t N>
void cios_mul(Limb* out, const Limb* a, const Limb* b, const Limb* m,
              Limb m0inv, std::size_t width) {
  const std::size_t n = N != kRuntimeWidth ? N : width;
  Limb t[kCap<N> + 1];
  std::fill(t, t + n + 1, Limb{0});
#pragma GCC unroll 8
  for (std::size_t i = 0; i < n; ++i) {
    const Limb ai = a[i];
    // Column 0 decides the reduction multiplier mi, and its reduced limb
    // is exactly zero by construction of m0inv, so it is never stored.
    const Wide p0 = static_cast<Wide>(ai) * b[0] + t[0];
    const Limb mi = static_cast<Limb>(p0) * m0inv;
    const Wide r0 = static_cast<Wide>(mi) * m[0] + static_cast<Limb>(p0);
    Limb carry_mul = static_cast<Limb>(p0 >> 64);
    Limb carry_red = static_cast<Limb>(r0 >> 64);
#pragma GCC unroll 16
    for (std::size_t j = 1; j < n; ++j) {
      const Wide p = static_cast<Wide>(ai) * b[j] + t[j] + carry_mul;
      carry_mul = static_cast<Limb>(p >> 64);
      const Wide r =
          static_cast<Wide>(mi) * m[j] + static_cast<Limb>(p) + carry_red;
      t[j - 1] = static_cast<Limb>(r);
      carry_red = static_cast<Limb>(r >> 64);
    }
    const Wide s = static_cast<Wide>(t[n]) + carry_mul + carry_red;
    t[n - 1] = static_cast<Limb>(s);
    t[n] = static_cast<Limb>(s >> 64);  // in {0, 1}
  }
  subtract_if_ge<N>(out, t, t[n], m, n);
}

// out = a*a*R^-1 mod m, SOS: the full double-width square first (cross
// products computed once, then doubled, plus the diagonal squares), then
// n Montgomery reduction rows.  1.5n^2 + O(n) limb products against the
// 2n^2 of cios_mul.  out may alias a.
template <std::size_t N>
void sos_sqr(Limb* out, const Limb* a, const Limb* m, Limb m0inv,
             std::size_t width) {
  const std::size_t n = N != kRuntimeWidth ? N : width;
  Limb r[2 * kCap<N>];
  std::fill(r, r + 2 * n, Limb{0});
#pragma GCC unroll 8
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const Limb ai = a[i];
    Limb carry = 0;
#pragma GCC unroll 16
    for (std::size_t j = i + 1; j < n; ++j) {
      const Wide cur = static_cast<Wide>(ai) * a[j] + r[i + j] + carry;
      r[i + j] = static_cast<Limb>(cur);
      carry = static_cast<Limb>(cur >> 64);
    }
    r[i + n] = carry;
  }
  // Double the cross terms and add the diagonal a[i]^2 at bit 128*i, one
  // limb pair per step.  2*cross < a^2 < 2^(128n), so no bit leaves
  // limb 2n-1.
  Limb topbit = 0;
  Limb carry = 0;
#pragma GCC unroll 16
  for (std::size_t i = 0; i < n; ++i) {
    const Limb lo = r[2 * i];
    const Limb hi = r[2 * i + 1];
    const Wide sq = static_cast<Wide>(a[i]) * a[i];
    const Wide s0 = static_cast<Wide>((lo << 1) | topbit) +
                    static_cast<Limb>(sq) + carry;
    const Wide s1 = static_cast<Wide>((hi << 1) | (lo >> 63)) +
                    static_cast<Limb>(sq >> 64) + static_cast<Limb>(s0 >> 64);
    topbit = hi >> 63;
    r[2 * i] = static_cast<Limb>(s0);
    r[2 * i + 1] = static_cast<Limb>(s1);
    carry = static_cast<Limb>(s1 >> 64);
  }
  // Reduction: zero the low n limbs one row at a time, exactly as in
  // CIOS.  A row's carry out of limb i+n is held in `top` and added at
  // limb i+n+1 by the next row, which no earlier row has written yet;
  // after the last row it is limb 2n of the result (a^2 + m*sum < 2^(128n+1),
  // so one bit).
  Limb top = 0;
#pragma GCC unroll 8
  for (std::size_t i = 0; i < n; ++i) {
    const Limb mi = r[i] * m0inv;
    Limb c = 0;
#pragma GCC unroll 16
    for (std::size_t j = 0; j < n; ++j) {
      const Wide cur = static_cast<Wide>(mi) * m[j] + r[i + j] + c;
      r[i + j] = static_cast<Limb>(cur);
      c = static_cast<Limb>(cur >> 64);
    }
    const Wide s = static_cast<Wide>(r[i + n]) + c + top;
    r[i + n] = static_cast<Limb>(s);
    top = static_cast<Limb>(s >> 64);
  }
  // The result top:r[n..2n) is < 2m; same final step as cios_mul.
  subtract_if_ge<N>(out, r + n, top, m, n);
}

}  // namespace

void Montgomery::mmul(Limb* out, const Limb* a, const Limb* b) const {
  const std::size_t n = m_.size();
  g_work += kLimbWorkScale * static_cast<std::uint64_t>(n) * n;
  with_kernel_width(kernel_width_, [&](auto w) {
    cios_mul<decltype(w)::value>(out, a, b, m_.data(), m0inv_, n);
  });
}

void Montgomery::msqr(Limb* out, const Limb* a) const {
  const std::size_t n = m_.size();
  g_work += kLimbWorkScale * static_cast<std::uint64_t>(n) * n;
  with_kernel_width(kernel_width_, [&](auto w) {
    sos_sqr<decltype(w)::value>(out, a, m_.data(), m0inv_, n);
  });
}

Montgomery Montgomery::with_runtime_width() const {
  Montgomery copy = *this;
  copy.kernel_width_ = kRuntimeWidth;
  return copy;
}

Montgomery::Limbs Montgomery::mont_mul(const Limbs& a, const Limbs& b) const {
  const std::size_t n = m_.size();
  Limbs out(n);
  mmul(out.data(), a.data(), b.data());
  return out;
}

Montgomery::Limbs Montgomery::to_mont(const BigInt& a) const {
  Limbs al = a.mod(modulus_).limbs();
  al.resize(m_.size(), 0);
  return mont_mul(al, r2_);
}

void Montgomery::to_mont_into(Limb* out, const BigInt& a) const {
  Limbs al = a.mod(modulus_).limbs();
  al.resize(m_.size(), 0);
  mmul(out, al.data(), r2_.data());
}

BigInt Montgomery::from_mont(const Limbs& a) const {
  Limbs one(m_.size(), 0);
  one[0] = 1;
  return BigInt::from_limbs(mont_mul(a, one));
}

BigInt Montgomery::from_mont_raw(const Limb* a) const {
  const std::size_t n = m_.size();
  Limb unit[kMaxLimbs] = {};
  unit[0] = 1;
  Limb out[kMaxLimbs];
  mmul(out, a, unit);
  return BigInt::from_limbs(Limbs(out, out + n));
}

BigInt Montgomery::mul(const BigInt& a, const BigInt& b) const {
  return from_mont(mont_mul(to_mont(a), to_mont(b)));
}

void Montgomery::build_window_table(Limb* table, const Limb* basemont,
                                    int max_digit) const {
  const std::size_t n = m_.size();
  for (int d = 2; d <= max_digit; ++d) {
    mmul(table + static_cast<std::size_t>(d) * n,
         table + static_cast<std::size_t>(d - 1) * n, basemont);
  }
}

BigInt Montgomery::pow(const BigInt& base, const BigInt& exp) const {
  if (exp.is_zero()) return BigInt{1}.mod(modulus_);
  const std::size_t n = m_.size();
  // Partial 4-bit window table: entries above the largest digit actually
  // present in the exponent are never read, so they are never built —
  // short exponents (order checks, Lagrange-scaled integers) pay only for
  // the table they use.
  const int maxd = max_window_digit(exp);
  const std::size_t table_limbs = static_cast<std::size_t>(maxd + 1) * n;
  Workspace ws(table_limbs + n);
  Limb* table = ws.p;
  Limb* acc = table + table_limbs;
  // table[1] = base in Montgomery form; table[2..maxd] by one mult each.
  to_mont_into(table + n, base);
  build_window_table(table, table + n, maxd);

  const int bits = exp.bit_length();
  const int windows = (bits + 3) / 4;
  std::copy(one_.begin(), one_.end(), acc);
  bool started = false;
  for (int w = windows - 1; w >= 0; --w) {
    if (started) {
      msqr(acc, acc);
      msqr(acc, acc);
      msqr(acc, acc);
      msqr(acc, acc);
    }
    const auto digit = exp.bits_window(4 * w, 4);
    if (digit != 0) {
      mmul(acc, acc, table + static_cast<std::size_t>(digit) * n);
      started = true;
    }
  }
  if (!started) return BigInt{1}.mod(modulus_);
  return from_mont_raw(acc);
}

BigInt Montgomery::simul_pow(const std::pair<BigInt, BigInt>* terms,
                             std::size_t count) const {
  assert(count >= 1 && count <= kSimulPowMax);
  const std::size_t n = m_.size();
  int bits = 0;
  int maxd[kSimulPowMax];
  std::size_t offset[kSimulPowMax];
  std::size_t table_limbs = 0;
  for (std::size_t i = 0; i < count; ++i) {
    check_nonneg(terms[i].second);
    bits = std::max(bits, terms[i].second.bit_length());
    maxd[i] = max_window_digit(terms[i].second);
    offset[i] = table_limbs;
    table_limbs += static_cast<std::size_t>(maxd[i] + 1) * n;
  }
  if (bits == 0) return BigInt{1}.mod(modulus_);

  Workspace ws(table_limbs + n);
  Limb* tables = ws.p;
  Limb* acc = tables + table_limbs;
  for (std::size_t i = 0; i < count; ++i) {
    if (maxd[i] == 0) continue;  // zero exponent contributes nothing
    Limb* table = tables + offset[i];
    to_mont_into(table + n, terms[i].first);
    build_window_table(table, table + n, maxd[i]);
  }

  const int windows = (bits + 3) / 4;
  std::copy(one_.begin(), one_.end(), acc);
  bool started = false;
  for (int w = windows - 1; w >= 0; --w) {
    if (started) {
      msqr(acc, acc);
      msqr(acc, acc);
      msqr(acc, acc);
      msqr(acc, acc);
    }
    for (std::size_t i = 0; i < count; ++i) {
      const auto digit = terms[i].second.bits_window(4 * w, 4);
      if (digit != 0) {
        mmul(acc, acc,
             tables + offset[i] + static_cast<std::size_t>(digit) * n);
        started = true;
      }
    }
  }
  if (!started) return BigInt{1}.mod(modulus_);
  return from_mont_raw(acc);
}

BigInt Montgomery::mul_pow(const BigInt& a, const BigInt& ea, const BigInt& b,
                           const BigInt& eb) const {
  check_nonneg(ea);
  check_nonneg(eb);
  const std::pair<BigInt, BigInt> terms[2] = {{a, ea}, {b, eb}};
  return simul_pow(terms, 2);
}

BigInt Montgomery::multi_pow(
    const std::vector<std::pair<BigInt, BigInt>>& terms) const {
  if (terms.empty()) return BigInt{1}.mod(modulus_);
  // The shared squaring chain serves up to kSimulPowMax bases per pass;
  // longer products fold the per-chunk results together.  The cap is a
  // window-table memory bound, and it is sized so that a whole batched
  // DLEQ verification (4 terms per statement) fits in ONE pass for the
  // batch sizes the protocols produce: a second pass costs a second full
  // squaring chain, which for 160-bit exponents is the single largest
  // line item in the profile.
  BigInt acc;
  bool have = false;
  const std::size_t per_pass = simul_terms_per_pass();
  for (std::size_t i = 0; i < terms.size(); i += per_pass) {
    const std::size_t count =
        std::min<std::size_t>(per_pass, terms.size() - i);
    BigInt part = simul_pow(terms.data() + i, count);
    acc = have ? mul(acc, part) : std::move(part);
    have = true;
  }
  return acc;
}

std::size_t comb_table_bytes(int max_exp_bits, int modulus_bits,
                             int window_bits) {
  const auto limbs =
      static_cast<std::size_t>((std::max(modulus_bits, 64) + 63) / 64);
  const auto exp_bits = static_cast<std::size_t>(std::max(max_exp_bits, 1));
  const auto uw = static_cast<std::size_t>(window_bits);
  const std::size_t windows = (exp_bits + uw - 1) / uw;
  return windows * (std::size_t{1} << uw) * limbs * sizeof(std::uint64_t);
}

int pick_comb_window_bits(int max_exp_bits, int modulus_bits,
                          std::size_t concurrent_tables) {
  const std::size_t tables = std::max<std::size_t>(concurrent_tables, 1);
  for (int w = 4; w > 2; --w) {
    const std::size_t bytes =
        comb_table_bytes(max_exp_bits, modulus_bits, w) * tables;
    if (bytes <= kCombMemoryBudgetBytes) return w;
  }
  return 2;
}

std::size_t Montgomery::simul_terms_per_pass() const {
  // terms x 16-entry window tables x n limbs x 8 bytes <= ~256 KiB.
  const std::size_t budget_limbs = (256u << 10) / sizeof(Limb);
  const std::size_t per_term = 16 * m_.size();
  const std::size_t fit = budget_limbs / per_term;
  return std::clamp<std::size_t>(fit, 8, kSimulPowMax);
}

FixedBaseTable Montgomery::precompute(const BigInt& base, int max_exp_bits,
                                      int window_bits) const {
  if (window_bits < 2 || window_bits > 6)
    throw std::domain_error("precompute: window_bits out of [2, 6]");
  const std::size_t n = m_.size();
  const int digits = 1 << window_bits;
  FixedBaseTable out;
  out.base_ = base;
  out.modulus_ = modulus_;
  out.n_ = n;
  out.window_bits_ = window_bits;
  out.windows_ =
      (std::max(max_exp_bits, window_bits) + window_bits - 1) / window_bits;
  out.entries_.assign(static_cast<std::size_t>(out.windows_) *
                          static_cast<std::size_t>(digits) * n,
                      0);
  auto entry = [&](int j, int d) -> Limb* {
    return out.entries_.data() +
           (static_cast<std::size_t>(j) * static_cast<std::size_t>(digits) +
            static_cast<std::size_t>(d)) *
               n;
  };
  to_mont_into(entry(0, 1), base);
  for (int j = 0; j < out.windows_; ++j) {
    if (j > 0) {
      // base^(D^j) = (base^(D^(j-1)))^D: window_bits squarings.
      std::copy(entry(j - 1, 1), entry(j - 1, 1) + n, entry(j, 1));
      for (int s = 0; s < window_bits; ++s) msqr(entry(j, 1), entry(j, 1));
    }
    for (int d = 2; d < digits; ++d) {
      mmul(entry(j, d), entry(j, d - 1), entry(j, 1));
    }
  }
  return out;
}

bool Montgomery::accepts(const FixedBaseTable& table, const BigInt& e) const {
  return table.valid() && table.n_ == m_.size() && table.modulus_ == modulus_ &&
         !e.is_negative() && e.bit_length() <= table.max_exp_bits();
}

void Montgomery::comb_mul_into(Limb* acc, const FixedBaseTable& table,
                               const BigInt& e) const {
  const std::size_t n = m_.size();
  const int w = table.window_bits_;
  const auto digits = static_cast<std::size_t>(1) << w;
  const int windows = (e.bit_length() + w - 1) / w;
  for (int j = 0; j < windows; ++j) {
    const auto digit = e.bits_window(w * j, w);
    if (digit != 0) {
      mmul(acc,
           acc,
           table.entries_.data() +
               (static_cast<std::size_t>(j) * digits + digit) * n);
    }
  }
}

BigInt Montgomery::pow(const FixedBaseTable& table, const BigInt& e) const {
  if (e.is_zero()) return BigInt{1}.mod(modulus_);
  if (!accepts(table, e)) return pow(table.base_, e);
  Limb acc[kMaxLimbs];
  std::copy(one_.begin(), one_.end(), acc);
  comb_mul_into(acc, table, e);
  return from_mont_raw(acc);
}

BigInt Montgomery::mul_pow(const FixedBaseTable& ta, const BigInt& ea,
                           const FixedBaseTable& tb, const BigInt& eb) const {
  check_nonneg(ea);
  check_nonneg(eb);
  if (!accepts(ta, ea) || !accepts(tb, eb)) {
    return mul(pow(ta, ea), pow(tb, eb));
  }
  if (ea.is_zero()) return pow(tb, eb);
  if (eb.is_zero()) return pow(ta, ea);
  Limb acc[kMaxLimbs];
  std::copy(one_.begin(), one_.end(), acc);
  comb_mul_into(acc, ta, ea);
  comb_mul_into(acc, tb, eb);
  return from_mont_raw(acc);
}

BigInt Montgomery::mul_pow(const FixedBaseTable& ta, const BigInt& ea,
                           const BigInt& b, const BigInt& eb) const {
  check_nonneg(ea);
  check_nonneg(eb);
  if (!accepts(ta, ea)) return mul_pow(ta.base_, ea, b, eb);
  if (ea.is_zero()) return pow(b, eb);
  if (eb.is_zero()) return pow(ta, ea);
  // The fresh base pays the squaring chain; the cached base folds in with
  // squaring-free comb multiplications.
  const std::size_t n = m_.size();
  const int maxd = max_window_digit(eb);
  const std::size_t table_limbs = static_cast<std::size_t>(maxd + 1) * n;
  Workspace ws(table_limbs + n);
  Limb* table = ws.p;
  Limb* acc = table + table_limbs;
  to_mont_into(table + n, b);
  build_window_table(table, table + n, maxd);

  const int windows = (eb.bit_length() + 3) / 4;
  std::copy(one_.begin(), one_.end(), acc);
  bool started = false;
  for (int w = windows - 1; w >= 0; --w) {
    if (started) {
      msqr(acc, acc);
      msqr(acc, acc);
      msqr(acc, acc);
      msqr(acc, acc);
    }
    const auto digit = eb.bits_window(4 * w, 4);
    if (digit != 0) {
      mmul(acc, acc, table + static_cast<std::size_t>(digit) * n);
      started = true;
    }
  }
  if (!started) std::copy(one_.begin(), one_.end(), acc);
  comb_mul_into(acc, ta, ea);
  return from_mont_raw(acc);
}

}  // namespace sintra::bignum
