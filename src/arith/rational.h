// Exact rational numbers (normalized BigInt fractions). The arithmetic
// variant of the verifier works over Q (linear constraints with integer
// coefficients), as sanctioned by Section 5 of the paper.
//
// When all parts are small BigInts, the operators compute cross-products
// in 128 bits and reduce with a 64-bit gcd; they fall back to BigInt
// arithmetic only when a reduced result leaves the small range.
#ifndef HAS_ARITH_RATIONAL_H_
#define HAS_ARITH_RATIONAL_H_

#include <iosfwd>
#include <string>

#include "arith/bigint.h"

namespace has {

class Rational {
 public:
  Rational() : num_(0), den_(1) {}
  Rational(int64_t value) : num_(value), den_(1) {}  // NOLINT: implicit
  Rational(BigInt num, BigInt den);

  static Rational FromDouble(double x);

  const BigInt& num() const { return num_; }
  const BigInt& den() const { return den_; }

  bool is_zero() const { return num_.is_zero(); }
  int sign() const { return num_.sign(); }

  Rational operator-() const;
  Rational operator+(const Rational& o) const;
  Rational operator-(const Rational& o) const;
  Rational operator*(const Rational& o) const;
  Rational operator/(const Rational& o) const;

  Rational& operator+=(const Rational& o) { return *this = *this + o; }
  Rational& operator-=(const Rational& o) { return *this = *this - o; }
  Rational& operator*=(const Rational& o) { return *this = *this * o; }

  bool operator==(const Rational& o) const {
    return num_ == o.num_ && den_ == o.den_;
  }
  bool operator!=(const Rational& o) const { return !(*this == o); }
  bool operator<(const Rational& o) const;
  bool operator<=(const Rational& o) const { return !(o < *this); }
  bool operator>(const Rational& o) const { return o < *this; }
  bool operator>=(const Rational& o) const { return !(*this < o); }

  double ToDouble() const { return num_.ToDouble() / den_.ToDouble(); }
  std::string ToString() const;
  size_t Hash() const;

 private:
  using Wide = __int128;

  /// True when both operands' parts are in the small BigInt form, so
  /// their cross-products fit in a Wide.
  bool BothSmall(const Rational& o) const {
    return num_.is_small() && den_.is_small() && o.num_.is_small() &&
           o.den_.is_small();
  }
  /// Sets *this to num/den (den > 0) in lowest terms if both reduced
  /// parts are small; otherwise returns false and leaves *this alone.
  bool AssignReducedSmall(Wide num, Wide den);
  void Normalize();

  BigInt num_;
  BigInt den_;  // always > 0
};

/// Writes ToString() (so StrCat takes a Rational).
std::ostream& operator<<(std::ostream& os, const Rational& r);

}  // namespace has

#endif  // HAS_ARITH_RATIONAL_H_
