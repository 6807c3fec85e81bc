#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "arith/bigint.h"
#include "arith/fourier_motzkin.h"
#include "arith/rational.h"

namespace has {
namespace {

TEST(BigIntTest, Arithmetic) {
  BigInt a(1000000007);
  BigInt b(998244353);
  EXPECT_EQ((a + b).ToString(), "1998244360");
  EXPECT_EQ((a - b).ToString(), "1755654");
  EXPECT_EQ((b - a).ToString(), "-1755654");
  EXPECT_EQ((a * b).ToString(), "998244359987710471");
  EXPECT_EQ((a * b / b).ToString(), a.ToString());
  EXPECT_EQ((a % b), a - b * (a / b));
}

TEST(BigIntTest, LargeMultiplication) {
  BigInt a = BigInt::FromString("123456789012345678901234567890");
  BigInt b = BigInt::FromString("987654321098765432109876543210");
  EXPECT_EQ((a * b).ToString(),
            "121932631137021795226185032733622923332237463801111263526900");
  EXPECT_EQ(a * b / a, b);
}

TEST(BigIntTest, Comparisons) {
  EXPECT_LT(BigInt(-5), BigInt(3));
  EXPECT_LT(BigInt(-5), BigInt(-3));
  EXPECT_GT(BigInt(100), BigInt(99));
  EXPECT_EQ(BigInt(0), BigInt(0) * BigInt(-7));
}

TEST(BigIntTest, Gcd) {
  EXPECT_EQ(BigInt::Gcd(BigInt(48), BigInt(-18)), BigInt(6));
  EXPECT_EQ(BigInt::Gcd(BigInt(0), BigInt(5)), BigInt(5));
}

TEST(BigIntTest, FitsInt64) {
  int64_t out = 0;
  EXPECT_TRUE(BigInt(-42).FitsInt64(&out));
  EXPECT_EQ(out, -42);
  BigInt huge = BigInt::FromString("99999999999999999999999999");
  EXPECT_FALSE(huge.FitsInt64(&out));
}

// ---------------------------------------------------------------------------
// Two-form BigInt: boundary and differential checks. Values with
// |v| < 2^63 are stored inline and everything else in limbs, so every
// operator is checked on both sides of that boundary against an
// __int128 reference.

using Wide = __int128;

std::string WideToString(Wide v) {
  if (v == 0) return "0";
  using UWide = unsigned __int128;
  UWide mag = v < 0 ? -static_cast<UWide>(v) : static_cast<UWide>(v);
  std::string digits;
  while (mag != 0) {
    digits.push_back(static_cast<char>('0' + static_cast<int>(mag % 10)));
    mag /= 10;
  }
  if (v < 0) digits.push_back('-');
  return std::string(digits.rbegin(), digits.rend());
}

BigInt FromWide(Wide v) { return BigInt::FromString(WideToString(v)); }

bool InInt64(Wide v) { return v >= INT64_MIN && v <= INT64_MAX; }

// Checks `got` against the exact reference value `want`.
void ExpectValue(const BigInt& got, Wide want, const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(got.ToString(), WideToString(want));
  EXPECT_EQ(got.sign(), (want > 0) - (want < 0));
  int64_t out = 0;
  EXPECT_EQ(got.FitsInt64(&out), InInt64(want));
  if (InInt64(want)) {
    EXPECT_EQ(out, static_cast<int64_t>(want));
    BigInt direct(static_cast<int64_t>(want));
    EXPECT_EQ(got, direct);
    EXPECT_EQ(got.Hash(), direct.Hash());
    EXPECT_EQ(got.ToDouble(), static_cast<double>(static_cast<int64_t>(want)));
  }
  BigInt round = BigInt::FromString(got.ToString());
  EXPECT_EQ(round, got);
  EXPECT_EQ(round.Hash(), got.Hash());
}

Wide WideGcd(Wide a, Wide b) {
  if (a < 0) a = -a;
  if (b < 0) b = -b;
  while (b != 0) {
    Wide r = a % b;
    a = b;
    b = r;
  }
  return a;
}

// Every operator on (a, b) against the __int128 reference.
void ExpectPairMatches(Wide a, Wide b) {
  const std::string pair = WideToString(a) + " ? " + WideToString(b);
  BigInt x = FromWide(a);
  BigInt y = FromWide(b);
  ExpectValue(x + y, a + b, pair + " +");
  ExpectValue(x - y, a - b, pair + " -");
  Wide product;
  if (!__builtin_mul_overflow(a, b, &product)) {
    ExpectValue(x * y, product, pair + " *");
  } else {
    BigInt p = x * y;
    EXPECT_EQ(BigInt::FromString(p.ToString()), p) << pair << " *";
    EXPECT_EQ(p / y, x) << pair << " *";
  }
  if (b != 0) {
    ExpectValue(x / y, a / b, pair + " /");
    ExpectValue(x % y, a % b, pair + " %");
  }
  EXPECT_EQ(x < y, a < b) << pair;
  EXPECT_EQ(x == y, a == b) << pair;
  ExpectValue(BigInt::Gcd(x, y), WideGcd(a, b), pair + " gcd");
  ExpectValue(x.Abs(), a < 0 ? -a : a, pair + " abs");
  ExpectValue(-x, -a, pair + " neg");
}

TEST(BigIntTwoFormTest, BoundaryOperands) {
  const Wide p31 = Wide(1) << 31;
  const Wide p62 = Wide(1) << 62;
  const Wide p63 = Wide(1) << 63;
  const Wide p64 = Wide(1) << 64;
  const std::vector<Wide> operands = {
      0,    1,    -1,   p31,       -p31,      p62,  -p62,
      p63 - 1,   -p63 + 1, -p63, p63, p64, -p64, p63 + 1};
  for (Wide a : operands) {
    for (Wide b : operands) ExpectPairMatches(a, b);
  }
}

TEST(BigIntTwoFormTest, RandomInt64Pairs) {
  std::mt19937_64 rng(20161);
  // Random bit widths so sums and products land on both sides of the
  // int64 boundary.
  auto draw = [&rng]() -> Wide {
    int width = static_cast<int>(rng() % 64);
    uint64_t mag = width == 0 ? 0 : rng() >> (64 - width);
    if (rng() % 64 == 0) return INT64_MIN;
    return rng() % 2 ? -Wide(mag) : Wide(mag);
  };
  for (int i = 0; i < 10000; ++i) {
    Wide a = draw();
    Wide b = draw();
    BigInt x(static_cast<int64_t>(a));
    BigInt y(static_cast<int64_t>(b));
    SCOPED_TRACE(WideToString(a) + " ? " + WideToString(b));
    ASSERT_EQ(x + y, FromWide(a + b));
    ASSERT_EQ(x - y, FromWide(a - b));
    ASSERT_EQ(x * y, FromWide(a * b));
    if (b != 0) {
      ASSERT_EQ(x / y, FromWide(a / b));
      ASSERT_EQ(x % y, FromWide(a % b));
    }
    ASSERT_EQ(x < y, a < b);
    ASSERT_EQ(x == y, a == b);
    ASSERT_EQ(BigInt::Gcd(x, y), FromWide(WideGcd(a, b)));
    ASSERT_EQ((x * y).ToString(), WideToString(a * b));
    ASSERT_EQ((x * y).Hash(), FromWide(a * b).Hash());
  }
}

TEST(BigIntTwoFormTest, LimbResultsReturnToInlineForm) {
  const BigInt p64 = BigInt::FromString("18446744073709551616");
  const BigInt p63 = BigInt::FromString("9223372036854775808");
  const std::vector<std::pair<BigInt, int64_t>> cases = {
      {(p64 + BigInt(5)) - p64, 5},
      {(p64 * BigInt(-3)) / p64, -3},
      {p64 % (p64 - BigInt(7)), 7},
      {p63 - BigInt(1), INT64_MAX},
      {-p63 + BigInt(1), -INT64_MAX},
      {BigInt::Gcd(p64 * BigInt(6), p64 * BigInt(4)) / p64, 2},
      {BigInt::Gcd(p64 * BigInt(6), BigInt(9)), 3},
      {(-p63).Abs() - p63, 0},
  };
  for (const auto& [got, want] : cases) {
    BigInt direct(want);
    EXPECT_EQ(got, direct) << got.ToString();
    EXPECT_EQ(got.Hash(), direct.Hash()) << got.ToString();
    EXPECT_FALSE(got < direct || direct < got) << got.ToString();
  }
  // INT64_MIN is the one int64 value kept in limbs; it still fits.
  int64_t out = 0;
  EXPECT_TRUE((-p63).FitsInt64(&out));
  EXPECT_EQ(out, INT64_MIN);
  EXPECT_EQ(-p63, BigInt(INT64_MIN));
  EXPECT_EQ(BigInt(INT64_MIN) / BigInt(-1), p63);
  EXPECT_EQ(BigInt(INT64_MIN) % BigInt(-1), BigInt(0));
  EXPECT_FALSE(p63.FitsInt64(&out));
}

TEST(BigIntTwoFormTest, HashMatchesGoldenValues) {
  if (sizeof(size_t) != 8) GTEST_SKIP() << "golden values are 64-bit";
  // Recorded from the single-form (limbs-only) implementation: interned
  // ids and hash-container order must not depend on the representation.
  const std::vector<std::pair<const char*, uint64_t>> golden = {
      {"0", UINT64_C(0)},
      {"1", UINT64_C(11400714819323198486)},
      {"-1", UINT64_C(11400714819323198551)},
      {"2147483648", UINT64_C(11400714821470682133)},
      {"-2147483648", UINT64_C(11400714821470682196)},
      {"4294967295", UINT64_C(11400714823618165780)},
      {"4294967296", UINT64_C(14813675350809533518)},
      {"-4294967296", UINT64_C(14813675350809529471)},
      {"4611686018427387904", UINT64_C(14813675349735791695)},
      {"-4611686018427387904", UINT64_C(14813675349735787646)},
      {"9223372036854775807", UINT64_C(14813675570926607373)},
      {"-9223372036854775807", UINT64_C(14813675570926603324)},
      {"-9223372036854775808", UINT64_C(14813675292827470974)},
      {"9223372036854775808", UINT64_C(14813675292827475023)},
      {"18446744073709551616", UINT64_C(18111443614409783974)},
      {"-18446744073709551616", UINT64_C(18111443614410040011)},
      {"123456789012345678901234567890", UINT64_C(5195440555879884090)},
      {"-42", UINT64_C(11400714819323198590)},
  };
  for (const auto& [text, hash] : golden) {
    EXPECT_EQ(BigInt::FromString(text).Hash(), hash) << text;
  }
  EXPECT_EQ(BigInt(-42).Hash(), UINT64_C(11400714819323198590));
  EXPECT_EQ(Rational(BigInt(3), BigInt(4)).Hash(),
            UINT64_C(8064884771342049580));
}

TEST(RationalTest, NormalizedArithmetic) {
  Rational half(BigInt(1), BigInt(2));
  Rational third(BigInt(1), BigInt(3));
  EXPECT_EQ((half + third).ToString(), "5/6");
  EXPECT_EQ((half * third).ToString(), "1/6");
  EXPECT_EQ((half - half).ToString(), "0");
  EXPECT_EQ((half / third).ToString(), "3/2");
  EXPECT_LT(third, half);
  EXPECT_EQ(Rational(BigInt(2), BigInt(-4)).ToString(), "-1/2");
}

TEST(RationalTest, FromDoubleExact) {
  Rational r = Rational::FromDouble(0.5);
  EXPECT_EQ(r, Rational(BigInt(1), BigInt(2)));
  EXPECT_EQ(Rational::FromDouble(3.0), Rational(3));
}

TEST(RationalTest, CrossProductsOverflowButNormaliseBackIntoRange) {
  const int64_t p40 = INT64_C(1) << 40;
  const int64_t p61 = INT64_C(1) << 61;
  const int64_t p62 = INT64_C(1) << 62;
  // Denominator product 2^80, reduced to 2^39.
  EXPECT_EQ(Rational(BigInt(1), BigInt(p40)) + Rational(BigInt(1), BigInt(p40)),
            Rational(BigInt(1), BigInt(p40 / 2)));
  // Numerator cross-products 4 * INT64_MAX, reduced to INT64_MAX.
  Rational half_max(BigInt(INT64_MAX), BigInt(2));
  EXPECT_EQ(half_max + half_max, Rational(INT64_MAX));
  EXPECT_EQ((half_max + half_max).Hash(), Rational(INT64_MAX).Hash());
  EXPECT_EQ(half_max - Rational(BigInt(-INT64_MAX), BigInt(2)),
            Rational(INT64_MAX));
  // Product numerator 5 * 2^62 (> 2^64), reduced to 2.
  EXPECT_EQ(
      Rational(BigInt(p62), BigInt(5)) * Rational(BigInt(5), BigInt(p61)),
      Rational(2));
  EXPECT_EQ(
      Rational(BigInt(p62), BigInt(7)) / Rational(BigInt(p62), BigInt(21)),
      Rational(3));
  // Integers leave the inline range and come back.
  Rational big = Rational(INT64_MAX) + Rational(1);
  EXPECT_EQ(big.ToString(), "9223372036854775808");
  EXPECT_EQ(big - Rational(1), Rational(INT64_MAX));
  EXPECT_EQ((big - Rational(1)).Hash(), Rational(INT64_MAX).Hash());
  EXPECT_EQ((big * big / big).ToString(), "9223372036854775808");
  // Cross-multiplied comparison near the top of the range.
  EXPECT_LT(Rational(BigInt(INT64_MAX), BigInt(INT64_MAX - 1)),
            Rational(BigInt(INT64_MAX - 1), BigInt(INT64_MAX - 2)));
  EXPECT_EQ(Rational(BigInt(INT64_MIN), BigInt(-2)).ToString(),
            "4611686018427387904");
}

TEST(RationalTest, RandomOperationsAgreeWithBigIntCrossProducts) {
  std::mt19937_64 rng(4);
  auto draw = [&rng](bool nonzero) {
    int width = 1 + static_cast<int>(rng() % 62);
    int64_t mag = static_cast<int64_t>(rng() >> (64 - width));
    if (nonzero && mag == 0) mag = 1;
    return rng() % 2 ? -mag : mag;
  };
  // Checks r == num/den exactly and that r is in lowest terms.
  auto expect = [](const Rational& r, const BigInt& num, const BigInt& den) {
    ASSERT_EQ(r.num() * den, num * r.den());
    ASSERT_GT(r.den(), BigInt(0));
    ASSERT_EQ(BigInt::Gcd(r.num(), r.den()), BigInt(1));
  };
  for (int i = 0; i < 5000; ++i) {
    BigInt a(draw(false)), b(draw(true)), c(draw(false)), d(draw(true));
    if (i % 4 == 0) b = BigInt(1);
    if (i % 4 <= 1) d = BigInt(1);
    Rational x(a, b), y(c, d);
    expect(x + y, a * d + c * b, b * d);
    expect(x - y, a * d - c * b, b * d);
    expect(x * y, a * c, b * d);
    if (!c.is_zero()) expect(x / y, a * d, b * c);
    bool less = b.sign() * d.sign() > 0 ? a * d < c * b : c * b < a * d;
    ASSERT_EQ(x < y, less);
  }
}

LinearExpr Expr(std::vector<std::pair<int, int>> terms, int constant) {
  LinearExpr e;
  for (auto [v, c] : terms) e.AddTerm(v, Rational(c));
  e.AddConstant(Rational(constant));
  return e;
}

TEST(FourierMotzkinTest, SatisfiableBox) {
  LinearSystem s;
  s.Add(Expr({{0, -1}}, 0), Relop::kLe);      // -x <= 0
  s.Add(Expr({{0, 1}}, -10), Relop::kLe);     // x <= 10
  s.Add(Expr({{1, 1}, {0, -1}}, 0), Relop::kEq);  // y = x
  EXPECT_TRUE(FourierMotzkin::IsSatisfiable(s));
}

TEST(FourierMotzkinTest, UnsatisfiableStrict) {
  LinearSystem s;
  s.Add(Expr({{0, 1}}, 0), Relop::kLt);   // x < 0
  s.Add(Expr({{0, -1}}, 0), Relop::kLt);  // x > 0
  EXPECT_FALSE(FourierMotzkin::IsSatisfiable(s));
}

TEST(FourierMotzkinTest, EqualityChainContradiction) {
  LinearSystem s;
  s.Add(Expr({{0, 1}, {1, -1}}, 0), Relop::kEq);  // x = y
  s.Add(Expr({{1, 1}, {2, -1}}, 0), Relop::kEq);  // y = z
  s.Add(Expr({{0, 1}, {2, -1}}, -1), Relop::kEq); // x = z + 1
  EXPECT_FALSE(FourierMotzkin::IsSatisfiable(s));
}

TEST(FourierMotzkinTest, ProjectionKeepsImpliedBound) {
  // x <= y, y <= z  projected onto {x, z} must imply x <= z.
  LinearSystem s;
  s.Add(Expr({{0, 1}, {1, -1}}, 0), Relop::kLe);
  s.Add(Expr({{1, 1}, {2, -1}}, 0), Relop::kLe);
  LinearSystem p = FourierMotzkin::Project(s, {0, 2});
  EXPECT_TRUE(FourierMotzkin::Entails(
      p, LinearConstraint{Expr({{0, 1}, {2, -1}}, 0), Relop::kLe}));
  // But nothing stronger.
  EXPECT_FALSE(FourierMotzkin::Entails(
      p, LinearConstraint{Expr({{0, 1}, {2, -1}}, 0), Relop::kLt}));
}

TEST(FourierMotzkinTest, EntailsEquality) {
  LinearSystem s;
  s.Add(Expr({{0, 1}}, -3), Relop::kLe);   // x <= 3
  s.Add(Expr({{0, -1}}, 3), Relop::kLe);   // x >= 3
  EXPECT_TRUE(FourierMotzkin::Entails(
      s, LinearConstraint{Expr({{0, 1}}, -3), Relop::kEq}));
}

TEST(FourierMotzkinTest, Disequalities) {
  // 0 <= x <= 1 with x != 0 and x != 1 is satisfiable over Q...
  LinearSystem s;
  s.Add(Expr({{0, -1}}, 0), Relop::kLe);
  s.Add(Expr({{0, 1}}, -1), Relop::kLe);
  EXPECT_TRUE(FourierMotzkin::IsSatisfiableWithDisequalities(
      s, {Expr({{0, 1}}, 0), Expr({{0, 1}}, -1)}));
  // ... but x = 0 forced plus x != 0 is not.
  LinearSystem t;
  t.Add(Expr({{0, 1}}, 0), Relop::kEq);
  EXPECT_FALSE(FourierMotzkin::IsSatisfiableWithDisequalities(
      t, {Expr({{0, 1}}, 0)}));
}

class FmRandomSweep : public ::testing::TestWithParam<int> {};

TEST_P(FmRandomSweep, ProjectionSoundOnRandomSystems) {
  // Property: if the original system is satisfiable, the projection is
  // satisfiable; if the projection is unsat, so is the original.
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<int> coef(-3, 3);
  for (int round = 0; round < 20; ++round) {
    LinearSystem s;
    for (int c = 0; c < 5; ++c) {
      LinearExpr e;
      for (int v = 0; v < 4; ++v) e.AddTerm(v, Rational(coef(rng)));
      e.AddConstant(Rational(coef(rng)));
      s.Add(std::move(e), round % 2 == 0 ? Relop::kLe : Relop::kLt);
    }
    bool sat = FourierMotzkin::IsSatisfiable(s);
    LinearSystem p = FourierMotzkin::Project(s, {0, 1});
    bool proj_sat = FourierMotzkin::IsSatisfiable(p);
    EXPECT_EQ(sat, proj_sat);  // ∃-projection preserves satisfiability
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FmRandomSweep, ::testing::Range(1, 6));

/// Satisfiability by the sparse elimination rounds of Project, which
/// picks the variable with the fewest occurrences first: every variable
/// is projected away and the ground constraints left must hold.
bool SparseSatisfiable(const LinearSystem& s) {
  const LinearSystem ground = FourierMotzkin::Project(s, {});
  for (const LinearConstraint& c : ground.constraints()) {
    EXPECT_TRUE(c.expr.IsConstant());
    const int sign = c.expr.constant().sign();
    const bool holds = c.op == Relop::kLt   ? sign < 0
                       : c.op == Relop::kLe ? sign <= 0
                                            : sign == 0;
    if (!holds) return false;
  }
  return true;
}

TEST(FourierMotzkinTest, DenseDecisionMatchesSparseElimination) {
  // Random systems over scattered variable ids, every relation, and
  // coefficients that leave int64 (the BigInt form): IsSatisfiable and
  // IsSatisfiableWithDisequalities must agree with the sparse rounds.
  std::mt19937 rng(11);
  std::uniform_int_distribution<int> small(-3, 3);
  std::uniform_int_distribution<int> pick(0, 9);
  const ArithVar vars[] = {0, 2, 3, 7};
  const Rational huge(BigInt(int64_t{1} << 62) * BigInt(8), BigInt(1));
  auto random_expr = [&]() {
    LinearExpr e;
    for (ArithVar v : vars) {
      if (pick(rng) < 5) continue;
      Rational a(small(rng));
      if (pick(rng) == 0) a = a * huge;
      e.AddTerm(v, a);
    }
    e.AddConstant(Rational(small(rng)));
    return e;
  };
  int sat = 0, unsat = 0, diseq_unsat = 0;
  for (int round = 0; round < 600; ++round) {
    LinearSystem s;
    const int n = 1 + pick(rng) % 6;
    for (int c = 0; c < n; ++c) {
      s.Add(random_expr(), static_cast<Relop>(pick(rng) % 3));
    }
    const bool want = SparseSatisfiable(s);
    (want ? sat : unsat)++;
    ASSERT_EQ(FourierMotzkin::IsSatisfiable(s), want) << s.ToString();

    std::vector<LinearExpr> diseqs;
    for (int d = pick(rng) % 3; d > 0; --d) diseqs.push_back(random_expr());
    bool want_diseq = want;
    for (const LinearExpr& e : diseqs) {
      if (!want_diseq) break;
      LinearSystem lt = s;
      lt.Add(e, Relop::kLt);
      LinearSystem gt = s;
      gt.Add(-e, Relop::kLt);
      want_diseq = SparseSatisfiable(lt) || SparseSatisfiable(gt);
    }
    if (want && !want_diseq) ++diseq_unsat;
    ASSERT_EQ(FourierMotzkin::IsSatisfiableWithDisequalities(s, diseqs),
              want_diseq)
        << s.ToString();
  }
  EXPECT_GT(sat, 100);
  EXPECT_GT(unsat, 100);
  EXPECT_GT(diseq_unsat, 5);
}

}  // namespace
}  // namespace has
