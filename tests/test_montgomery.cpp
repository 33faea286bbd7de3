#include "bignum/montgomery.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "bignum/ref32.hpp"
#include "util/rng.hpp"

namespace sintra::bignum {
namespace {

BigInt bi(std::string_view s) { return BigInt::from_string(s); }

// Reference square-and-multiply that does not use Montgomery.
BigInt naive_pow(const BigInt& base, const BigInt& exp, const BigInt& m) {
  BigInt result{1};
  BigInt b = base.mod(m);
  for (int i = exp.bit_length() - 1; i >= 0; --i) {
    result = (result * result).mod(m);
    if (exp.bit(i)) result = (result * b).mod(m);
  }
  return result;
}

TEST(Montgomery, RejectsEvenModulus) {
  EXPECT_THROW(Montgomery(BigInt{10}), std::domain_error);
  EXPECT_THROW(Montgomery(BigInt{1}), std::domain_error);
}

TEST(Montgomery, MulMatchesPlainArithmetic) {
  const BigInt m = bi("1000000007");
  Montgomery mont(m);
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    const BigInt a = BigInt::random_below(rng, m);
    const BigInt b = BigInt::random_below(rng, m);
    EXPECT_EQ(mont.mul(a, b), (a * b).mod(m));
  }
}

TEST(Montgomery, PowMatchesNaiveSmall) {
  const BigInt m = bi("1000003");
  Montgomery mont(m);
  Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    const BigInt a = BigInt::random_below(rng, m);
    const BigInt e = BigInt::random_below(rng, bi("100000"));
    EXPECT_EQ(mont.pow(a, e), naive_pow(a, e, m));
  }
}

TEST(Montgomery, PowMatchesNaiveMultiLimb) {
  // 521-bit Mersenne prime 2^521 - 1 — odd, many limbs.
  const BigInt m = (BigInt{1} << 521) - BigInt{1};
  Montgomery mont(m);
  Rng rng(3);
  for (int i = 0; i < 10; ++i) {
    const BigInt a = BigInt::random_below(rng, m);
    const BigInt e = BigInt::random_bits(rng, 64);
    EXPECT_EQ(mont.pow(a, e), naive_pow(a, e, m));
  }
}

TEST(Montgomery, PowEdgeCases) {
  const BigInt m = bi("1000000007");
  Montgomery mont(m);
  EXPECT_EQ(mont.pow(BigInt{5}, BigInt{0}), BigInt{1});
  EXPECT_EQ(mont.pow(BigInt{0}, BigInt{5}), BigInt{0});
  EXPECT_EQ(mont.pow(BigInt{1}, bi("123456789123456789")), BigInt{1});
  EXPECT_EQ(mont.pow(m - BigInt{1}, BigInt{2}), BigInt{1});  // (-1)^2
}

TEST(Montgomery, FermatLargePrime) {
  // 2^607-1 is a Mersenne prime.
  const BigInt p = (BigInt{1} << 607) - BigInt{1};
  Montgomery mont(p);
  Rng rng(4);
  const BigInt a = BigInt{2} + BigInt::random_below(rng, p - BigInt{3});
  EXPECT_EQ(mont.pow(a, p - BigInt{1}), BigInt{1});
}

TEST(Montgomery, ExponentWithZeroWindows) {
  // Exponent with long runs of zero bits exercises the windowed loop.
  const BigInt m = bi("0xffffffffffffffffffffffffffffff61");
  Montgomery mont(m);
  const BigInt e = (BigInt{1} << 120) + BigInt{1};
  EXPECT_EQ(mont.pow(BigInt{3}, e), naive_pow(BigInt{3}, e, m));
}

TEST(Montgomery, MulPowConsistency) {
  const BigInt m = (BigInt{1} << 127) - BigInt{1};
  Montgomery mont(m);
  Rng rng(5);
  const BigInt a = BigInt::random_below(rng, m);
  // a^2 via pow == a*a via mul
  EXPECT_EQ(mont.pow(a, BigInt{2}), mont.mul(a, a));
  // a^(e1+e2) == a^e1 * a^e2
  const BigInt e1 = BigInt::random_bits(rng, 50);
  const BigInt e2 = BigInt::random_bits(rng, 50);
  EXPECT_EQ(mont.pow(a, e1 + e2), mont.mul(mont.pow(a, e1), mont.pow(a, e2)));
}

// The fixed-width kernel instances (4, 8, 16 limbs) and the runtime-width
// one run the same algorithm, so every result and every charged work unit
// must agree; both must also agree with the frozen 32-bit layer.
ref32::Ref32Int to_ref(const BigInt& x) {
  return ref32::Ref32Int::from_bytes(x.to_bytes());
}

std::uint64_t work_of(const auto& op) {
  const std::uint64_t before = work_counter();
  op();
  return work_counter() - before;
}

void expect_instances_agree(const BigInt& m, const std::vector<BigInt>& xs,
                            Rng& rng) {
  const Montgomery fixed(m);
  const Montgomery runtime = fixed.with_runtime_width();
  const ref32::Ref32Int rm = to_ref(m);
  const int limbs = (m.bit_length() + 63) / 64;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const BigInt& a = xs[i];
    const BigInt& b = xs[(i + 1) % xs.size()];
    const BigInt e = BigInt::random_bits(rng, 192);
    SCOPED_TRACE(testing::Message() << limbs << " limbs, operand " << i);

    const BigInt prod = fixed.mul(a, b);
    EXPECT_EQ(prod, runtime.mul(a, b));
    EXPECT_EQ(prod.to_bytes(), (to_ref(a) * to_ref(b)).mod(rm).to_bytes());

    BigInt pf, pr;
    const std::uint64_t wf = work_of([&] { pf = fixed.pow(a, e); });
    const std::uint64_t wr = work_of([&] { pr = runtime.pow(a, e); });
    EXPECT_EQ(pf, pr);
    EXPECT_EQ(wf, wr);
    EXPECT_EQ(pf.to_bytes(), to_ref(a).mod_pow(to_ref(e), rm).to_bytes());

    const std::vector<std::pair<BigInt, BigInt>> terms = {
        {a, e}, {b, BigInt::random_bits(rng, 160)}, {a + b, BigInt{65537}}};
    BigInt mf, mr;
    const std::uint64_t mwf = work_of([&] { mf = fixed.multi_pow(terms); });
    const std::uint64_t mwr = work_of([&] { mr = runtime.multi_pow(terms); });
    EXPECT_EQ(mf, mr);
    EXPECT_EQ(mwf, mwr);
    ref32::Ref32Int expect{1};
    for (const auto& [base, exp] : terms) {
      expect = (expect * to_ref(base).mod_pow(to_ref(exp), rm)).mod(rm);
    }
    EXPECT_EQ(mf.to_bytes(), expect.to_bytes());
  }
}

TEST(Montgomery, FixedWidthMatchesRuntimeWidth) {
  Rng rng(0xf1ed);
  std::vector<int> widths;
  for (int limbs = 1; limbs <= 17; ++limbs) widths.push_back(limbs);
  widths.push_back(32);
  for (const int limbs : widths) {
    const int bits = 64 * limbs;
    // A random odd modulus with its top bit set, one whose top limb is
    // all ones, and 2^bits - 1.
    const BigInt all_ones = (BigInt{1} << bits) - BigInt{1};
    const BigInt low = BigInt::random_bits(rng, bits - 2);
    const BigInt random_m =
        (BigInt{1} << (bits - 1)) + BigInt{2} * low + BigInt{1};
    const BigInt ones_top =
        all_ones - BigInt{2} * (low >> std::min(64, bits - 2));
    for (const BigInt& m : {random_m, ones_top, all_ones}) {
      std::vector<BigInt> xs = {BigInt{0}, BigInt{1}, m - BigInt{1}};
      for (int i = 0; i < 3; ++i) xs.push_back(BigInt::random_below(rng, m));
      expect_instances_agree(m, xs, rng);
    }
  }
}

}  // namespace
}  // namespace sintra::bignum
