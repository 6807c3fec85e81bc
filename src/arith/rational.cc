#include "arith/rational.h"

#include <cmath>
#include <numeric>
#include <ostream>

#include "common/hashing.h"
#include "common/status.h"
#include "common/strings.h"

namespace has {

Rational::Rational(BigInt num, BigInt den)
    : num_(std::move(num)), den_(std::move(den)) {
  HAS_CHECK_MSG(!den_.is_zero(), "Rational with zero denominator");
  Normalize();
}

bool Rational::AssignReducedSmall(Wide num, Wide den) {
  using UWide = unsigned __int128;
  UWide mag = num < 0 ? -static_cast<UWide>(num) : static_cast<UWide>(num);
  if (mag > UINT64_MAX || static_cast<UWide>(den) > UINT64_MAX) return false;
  uint64_t n = static_cast<uint64_t>(mag);
  uint64_t d = static_cast<uint64_t>(den);
  if (n == 0) {
    d = 1;
  } else if (d != 1) {
    uint64_t g = std::gcd(n, d);
    n /= g;
    d /= g;
  }
  if (n > INT64_MAX || d > INT64_MAX) return false;
  int64_t signed_n = static_cast<int64_t>(n);
  num_ = BigInt(num < 0 ? -signed_n : signed_n);
  den_ = BigInt(static_cast<int64_t>(d));
  return true;
}

void Rational::Normalize() {
  if (num_.is_small() && den_.is_small()) {
    Wide num = num_.small_;
    Wide den = den_.small_;
    if (den < 0) {
      num = -num;
      den = -den;
    }
    if (AssignReducedSmall(num, den)) return;
  }
  if (den_.is_negative()) {
    num_ = -num_;
    den_ = -den_;
  }
  if (num_.is_zero()) {
    den_ = BigInt(1);
    return;
  }
  BigInt g = BigInt::Gcd(num_, den_);
  if (g != BigInt(1)) {
    num_ = num_ / g;
    den_ = den_ / g;
  }
}

Rational Rational::FromDouble(double x) {
  HAS_CHECK_MSG(std::isfinite(x), "Rational from non-finite double");
  // Exact binary expansion: x = m * 2^e with integer m.
  int exp = 0;
  double mantissa = std::frexp(x, &exp);
  // Scale mantissa to an integer (53 bits of precision).
  int64_t m = static_cast<int64_t>(std::ldexp(mantissa, 53));
  exp -= 53;
  BigInt num(m);
  BigInt den(1);
  BigInt two(2);
  for (; exp > 0; --exp) num = num * two;
  for (; exp < 0; ++exp) den = den * two;
  return Rational(std::move(num), std::move(den));
}

Rational Rational::operator-() const {
  Rational out = *this;
  out.num_ = -out.num_;
  return out;
}

Rational Rational::operator+(const Rational& o) const {
  Rational out;
  if (BothSmall(o) &&
      out.AssignReducedSmall(
          Wide(num_.small_) * o.den_.small_ + Wide(o.num_.small_) * den_.small_,
          Wide(den_.small_) * o.den_.small_)) {
    return out;
  }
  return Rational(num_ * o.den_ + o.num_ * den_, den_ * o.den_);
}

Rational Rational::operator-(const Rational& o) const { return *this + (-o); }

Rational Rational::operator*(const Rational& o) const {
  Rational out;
  if (BothSmall(o) &&
      out.AssignReducedSmall(Wide(num_.small_) * o.num_.small_,
                             Wide(den_.small_) * o.den_.small_)) {
    return out;
  }
  return Rational(num_ * o.num_, den_ * o.den_);
}

Rational Rational::operator/(const Rational& o) const {
  HAS_CHECK_MSG(!o.is_zero(), "Rational division by zero");
  if (BothSmall(o)) {
    Wide num = Wide(num_.small_) * o.den_.small_;
    Wide den = Wide(den_.small_) * o.num_.small_;
    if (den < 0) {
      num = -num;
      den = -den;
    }
    Rational out;
    if (out.AssignReducedSmall(num, den)) return out;
  }
  return Rational(num_ * o.den_, den_ * o.num_);
}

bool Rational::operator<(const Rational& o) const {
  if (BothSmall(o)) {
    return Wide(num_.small_) * o.den_.small_ <
           Wide(o.num_.small_) * den_.small_;
  }
  return num_ * o.den_ < o.num_ * den_;
}

std::string Rational::ToString() const {
  if (den_ == BigInt(1)) return num_.ToString();
  return StrCat(num_.ToString(), "/", den_.ToString());
}

size_t Rational::Hash() const {
  size_t seed = num_.Hash();
  HashMix(&seed, den_.Hash());
  return seed;
}

std::ostream& operator<<(std::ostream& os, const Rational& r) {
  return os << r.ToString();
}

}  // namespace has
