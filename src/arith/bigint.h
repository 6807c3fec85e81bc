// Arbitrary-precision signed integers. Fourier–Motzkin elimination
// multiplies constraint coefficients pairwise, so coefficient growth is
// exponential in the number of eliminated variables; exact big integers
// keep the quantifier elimination of Section 5 sound.
//
// Two forms, one canonical choice per value: every value with
// |v| < 2^63 is stored inline in `small_` (limbs_ empty); every other
// value (INT64_MIN included) is stored as sign-magnitude base-2^32
// limbs, with `small_` = +1/-1 carrying the sign. Because the small
// range is symmetric, negation, Abs, / and % of small values never
// overflow. Results that fit are always brought back to the small form,
// so equality is a field-wise compare.
#ifndef HAS_ARITH_BIGINT_H_
#define HAS_ARITH_BIGINT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace has {

class Rational;

class BigInt {
 public:
  BigInt() : small_(0) {}
  BigInt(int64_t value) : small_(value) {  // NOLINT: implicit by design
    if (value == INT64_MIN) SetInt64Min();
  }

  static BigInt FromString(const std::string& text);

  bool is_zero() const { return small_ == 0; }
  bool is_negative() const { return small_ < 0; }
  int sign() const { return (small_ > 0) - (small_ < 0); }

  BigInt operator-() const {
    BigInt out = *this;
    out.small_ = -small_;  // big form: flips the sign marker
    return out;
  }
  BigInt operator+(const BigInt& o) const {
    int64_t r;
    if (is_small() && o.is_small() &&
        !__builtin_add_overflow(small_, o.small_, &r)) {
      return BigInt(r);
    }
    return AddSlow(o, false);
  }
  BigInt operator-(const BigInt& o) const {
    int64_t r;
    if (is_small() && o.is_small() &&
        !__builtin_sub_overflow(small_, o.small_, &r)) {
      return BigInt(r);
    }
    return AddSlow(o, true);
  }
  BigInt operator*(const BigInt& o) const {
    int64_t r;
    if (is_small() && o.is_small() &&
        !__builtin_mul_overflow(small_, o.small_, &r)) {
      return BigInt(r);
    }
    return MulSlow(o);
  }
  /// Truncated division (C semantics: quotient rounds toward zero).
  BigInt operator/(const BigInt& o) const;
  BigInt operator%(const BigInt& o) const;

  BigInt& operator+=(const BigInt& o) { return *this = *this + o; }
  BigInt& operator-=(const BigInt& o) { return *this = *this - o; }
  BigInt& operator*=(const BigInt& o) { return *this = *this * o; }

  bool operator==(const BigInt& o) const {
    return small_ == o.small_ && limbs_ == o.limbs_;
  }
  bool operator!=(const BigInt& o) const { return !(*this == o); }
  bool operator<(const BigInt& o) const {
    if (is_small() && o.is_small()) return small_ < o.small_;
    return LessSlow(o);
  }
  bool operator<=(const BigInt& o) const { return !(o < *this); }
  bool operator>(const BigInt& o) const { return o < *this; }
  bool operator>=(const BigInt& o) const { return !(*this < o); }

  static BigInt Gcd(BigInt a, BigInt b);
  BigInt Abs() const { return is_negative() ? -*this : *this; }

  /// Approximate double value (may overflow to +/-inf).
  double ToDouble() const;
  /// Exact value if it fits in int64, otherwise nullopt behaviour via
  /// ok=false.
  bool FitsInt64(int64_t* out) const;

  std::string ToString() const;
  size_t Hash() const;

 private:
  friend class Rational;

  using Limbs = std::vector<uint32_t>;

  bool is_small() const { return limbs_.empty(); }
  void SetInt64Min();
  /// The limbs of |*this|; for the small form they are built in
  /// `scratch`.
  const Limbs& Magnitude(Limbs* scratch) const;
  /// The canonical BigInt with the given sign and magnitude.
  static BigInt FromMagnitude(bool negative, Limbs mag);

  BigInt AddSlow(const BigInt& o, bool subtract) const;
  BigInt MulSlow(const BigInt& o) const;
  bool LessSlow(const BigInt& o) const;

  static int CompareMagnitude(const Limbs& a, const Limbs& b);
  static Limbs AddMagnitude(const Limbs& a, const Limbs& b);
  /// Requires |a| >= |b|.
  static Limbs SubMagnitude(const Limbs& a, const Limbs& b);
  static Limbs MulMagnitude(const Limbs& a, const Limbs& b);
  /// Schoolbook division of magnitudes: returns quotient, sets *rem.
  static Limbs DivMagnitude(const Limbs& a, const Limbs& b, Limbs* rem);
  static void Trim(Limbs* limbs);

  int64_t small_;  // the value (small form) or its sign (big form)
  Limbs limbs_;    // big form only: little-endian |v|, no leading 0
};

static_assert(sizeof(BigInt) <= 32,
              "BigInt must not grow: linear expressions and constant "
              "tables store Rationals inline");

}  // namespace has

#endif  // HAS_ARITH_BIGINT_H_
