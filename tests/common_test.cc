#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "common/count.h"
#include "common/macros.h"
#include "common/rng.h"
#include "common/status.h"

namespace lsens {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad query");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad query");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad query");
}

TEST(StatusTest, AllCodesRender) {
  EXPECT_EQ(Status::NotFound("x").ToString(), "NotFound: x");
  EXPECT_EQ(Status::Unsupported("y").ToString(), "Unsupported: y");
  EXPECT_EQ(Status::Internal("z").ToString(), "Internal: z");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_TRUE(v.status().ok());
}

TEST(StatusOrTest, HoldsStatus) {
  StatusOr<int> v(Status::NotFound("nope"));
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), Status::Code::kNotFound);
}

TEST(CountTest, BasicArithmetic) {
  Count a(3);
  Count b(4);
  EXPECT_EQ((a + b), Count(7));
  EXPECT_EQ((a * b), Count(12));
  EXPECT_EQ(Count::Zero() * b, Count::Zero());
  EXPECT_EQ(Count::One() * b, b);
}

TEST(CountTest, Comparisons) {
  EXPECT_LT(Count(3), Count(4));
  EXPECT_LE(Count(4), Count(4));
  EXPECT_GT(Count(5), Count(4));
  EXPECT_NE(Count(5), Count(4));
  EXPECT_EQ(Count(5), Count(5));
}

TEST(CountTest, SaturatingMultiplication) {
  Count big(std::numeric_limits<uint64_t>::max());
  Count c = big * big;  // ~2^128, wraps 128 bits -> must saturate
  EXPECT_FALSE(c.IsSaturated());  // 2^128 - 2^65 + 1 fits in 128 bits
  Count d = c * big;
  EXPECT_TRUE(d.IsSaturated());
  EXPECT_EQ(d, Count::Max());
  // Saturation is sticky.
  EXPECT_TRUE((d * Count(2)).IsSaturated());
  EXPECT_TRUE((d + Count::One()).IsSaturated());
}

// The wide value `x` built by addition alone (doubling the high half 64
// times), so the multiplication under test never builds its own operands.
Count CountFromWide(unsigned __int128 x) {
  Count c(static_cast<uint64_t>(x >> 64));
  for (int i = 0; i < 64; ++i) c += c;
  return c + Count(static_cast<uint64_t>(x));
}

std::string WideToDecimal(unsigned __int128 x) {
  std::string digits;
  do {
    digits.insert(digits.begin(), static_cast<char>('0' + x % 10));
    x /= 10;
  } while (x != 0);
  return digits;
}

// Count's saturating product against __builtin_mul_overflow on the
// unsigned 128-bit operands: exact when the product fits, Max() otherwise.
// Covers products of 64-bit operands (no division check) and of wider
// ones (the division check), at the boundaries and on seeded pairs.
TEST(CountTest, MultiplicationMatchesWideReference) {
  using Wide = unsigned __int128;
  auto expect_product = [](Wide a, Wide b) {
    Wide product = 0;
    const bool overflow = __builtin_mul_overflow(a, b, &product);
    const Count want = overflow ? Count::Max() : CountFromWide(product);
    ASSERT_EQ(CountFromWide(a) * CountFromWide(b), want)
        << WideToDecimal(a) << " * " << WideToDecimal(b);
  };

  const Wide u64_max = std::numeric_limits<uint64_t>::max();
  const Wide boundaries[] = {0,
                             1,
                             Wide{1} << 32,
                             u64_max,
                             Wide{1} << 64,
                             Wide{1} << 127,
                             ~Wide{0}};
  // The operand builder itself is exact (Max() prints with a SAT suffix).
  for (Wide b : boundaries) {
    if (b != ~Wide{0}) {
      EXPECT_EQ(CountFromWide(b).ToString(), WideToDecimal(b));
    }
  }
  EXPECT_EQ(CountFromWide(~Wide{0}), Count::Max());
  for (Wide a : boundaries) {
    for (Wide b : boundaries) expect_product(a, b);
  }

  Rng rng(4242);
  for (int i = 0; i < 100000; ++i) {
    Wide a = rng.NextUint64();
    Wide b = rng.NextUint64();
    if (i % 2 == 1) {
      // Operands of random width up to 128 bits, so that some wide
      // products fit and others saturate.
      a = (a << 64 | rng.NextUint64()) >> rng.NextBounded(128);
      b = (b << 64 | rng.NextUint64()) >> rng.NextBounded(128);
    }
    expect_product(a, b);
  }

  // (2^64 - 1)^2 = 2^128 - 2^65 + 1 fits: exact, not saturated.
  const Count square = Count(~uint64_t{0}) * Count(~uint64_t{0});
  EXPECT_FALSE(square.IsSaturated());
  EXPECT_EQ(square.ToString(), "340282366920938463426481119284349108225");
}

TEST(CountTest, SaturatingAddition) {
  Count max = Count::Max();
  EXPECT_TRUE((max + Count::One()).IsSaturated());
}

TEST(CountTest, SaturatingSub) {
  EXPECT_EQ(Count(10).SaturatingSub(Count(4)), Count(6));
  EXPECT_EQ(Count(4).SaturatingSub(Count(10)), Count::Zero());
  EXPECT_EQ(Count(4).SaturatingSub(Count(4)), Count::Zero());
}

TEST(CountTest, ToStringExactDecimal) {
  EXPECT_EQ(Count(0).ToString(), "0");
  EXPECT_EQ(Count(1234567890123456789ULL).ToString(), "1234567890123456789");
  // 2^64 = 18446744073709551616 exceeds uint64 but prints exactly.
  Count two64 = Count(1ULL << 32) * Count(1ULL << 32);
  EXPECT_EQ(two64.ToString(), "18446744073709551616");
  EXPECT_EQ(Count::Max().ToString(), "SAT");
}

TEST(CountTest, Conversions) {
  EXPECT_DOUBLE_EQ(Count(1000).ToDouble(), 1000.0);
  EXPECT_EQ(Count(7).ToUint64Saturated(), 7u);
  Count two64 = Count(1ULL << 32) * Count(1ULL << 32);
  EXPECT_EQ(two64.ToUint64Saturated(),
            std::numeric_limits<uint64_t>::max());
}

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.NextUint64() == b.NextUint64());
  EXPECT_LT(equal, 3);
}

TEST(RngTest, BoundedStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.NextBounded(13), 13u);
}

TEST(RngTest, RangeInclusive) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.NextInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.NextDoubleOpen(), 0.0);
}

TEST(RngTest, BoundedIsRoughlyUniform) {
  Rng rng(11);
  int buckets[10] = {0};
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++buckets[rng.NextBounded(10)];
  for (int b : buckets) {
    EXPECT_NEAR(b, n / 10, n / 100);  // 10% tolerance
  }
}

TEST(RngTest, ZipfSkewsLow) {
  Rng rng(13);
  int low = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    uint64_t v = rng.NextZipf(100, 1.1);
    ASSERT_GE(v, 1u);
    ASSERT_LE(v, 100u);
    low += (v <= 10);
  }
  // With s=1.1 the first decile carries well over half the mass.
  EXPECT_GT(low, n / 2);
}

TEST(RngTest, ZipfZeroExponentIsUniform) {
  Rng rng(17);
  int low = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) low += (rng.NextZipf(100, 0.0) <= 10);
  EXPECT_NEAR(low, n / 10, n / 40);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng a(21);
  Rng b = a.Split();
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.NextUint64() == b.NextUint64());
  EXPECT_LT(equal, 3);
}

// LSENS_CHECK contract pins. The macro promises (a) the condition is
// evaluated exactly once — so hoisting a check out of a loop is always a
// pure reordering, never a behavior change — and (b) it stays armed in
// every build mode, release included (results feed privacy budgets; see
// common/macros.h). These run in all four CI presets, so a configuration
// that compiled the check out or double-evaluated the condition fails
// here rather than silently weakening the invariants lsens-lint and the
// hoisted call sites rely on.
TEST(CheckMacroTest, ConditionEvaluatedExactlyOnce) {
  int evals = 0;
  LSENS_CHECK(++evals > 0);
  EXPECT_EQ(evals, 1);
  evals = 0;
  LSENS_CHECK_MSG(++evals > 0, "single evaluation");
  EXPECT_EQ(evals, 1);
}

TEST(CheckMacroTest, PassingCheckHasNoSideEffects) {
  // A true condition must be the whole story: no stringification side
  // channel, no stream evaluation, nothing observable.
  bool flag = true;
  LSENS_CHECK(flag);
  LSENS_CHECK_MSG(flag, "still just a branch");
  EXPECT_TRUE(flag);
}

TEST(CheckMacroDeathTest, ArmedInEveryBuildMode) {
  // NDEBUG must not compile the check out — assert() semantics are
  // explicitly NOT what this macro provides.
  EXPECT_DEATH(LSENS_CHECK(1 + 1 == 3), "LSENS_CHECK failed");
  EXPECT_DEATH(LSENS_CHECK_MSG(false, "reason text"), "reason text");
}

}  // namespace
}  // namespace lsens
