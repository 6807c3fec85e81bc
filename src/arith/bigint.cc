#include "arith/bigint.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/hashing.h"
#include "common/status.h"

namespace has {

namespace {

uint64_t MagnitudeOfSmall(int64_t v) {
  return v < 0 ? ~static_cast<uint64_t>(v) + 1 : static_cast<uint64_t>(v);
}

}  // namespace

void BigInt::SetInt64Min() {
  small_ = -1;
  limbs_ = {0u, 0x80000000u};
}

const BigInt::Limbs& BigInt::Magnitude(Limbs* scratch) const {
  if (!is_small()) return limbs_;
  scratch->clear();
  for (uint64_t mag = MagnitudeOfSmall(small_); mag != 0; mag >>= 32) {
    scratch->push_back(static_cast<uint32_t>(mag & 0xffffffffu));
  }
  return *scratch;
}

BigInt BigInt::FromMagnitude(bool negative, Limbs mag) {
  Trim(&mag);
  BigInt out;
  if (mag.size() <= 2) {
    uint64_t m = mag.empty() ? 0 : mag[0];
    if (mag.size() == 2) m |= static_cast<uint64_t>(mag[1]) << 32;
    if (m < (UINT64_C(1) << 63)) {
      int64_t value = static_cast<int64_t>(m);
      out.small_ = negative ? -value : value;
      return out;
    }
  }
  out.small_ = negative ? -1 : 1;
  out.limbs_ = std::move(mag);
  return out;
}

BigInt BigInt::FromString(const std::string& text) {
  BigInt out;
  size_t i = 0;
  bool neg = false;
  if (i < text.size() && (text[i] == '-' || text[i] == '+')) {
    neg = text[i] == '-';
    ++i;
  }
  BigInt ten(10);
  for (; i < text.size(); ++i) {
    HAS_CHECK_MSG(text[i] >= '0' && text[i] <= '9', "bad digit in BigInt");
    out = out * ten + BigInt(text[i] - '0');
  }
  return neg ? -out : out;
}

void BigInt::Trim(Limbs* limbs) {
  while (!limbs->empty() && limbs->back() == 0) limbs->pop_back();
}

int BigInt::CompareMagnitude(const Limbs& a, const Limbs& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

BigInt::Limbs BigInt::AddMagnitude(const Limbs& a, const Limbs& b) {
  Limbs out;
  out.reserve(std::max(a.size(), b.size()) + 1);
  uint64_t carry = 0;
  for (size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
    uint64_t sum = carry;
    if (i < a.size()) sum += a[i];
    if (i < b.size()) sum += b[i];
    out.push_back(static_cast<uint32_t>(sum & 0xffffffffu));
    carry = sum >> 32;
  }
  if (carry != 0) out.push_back(static_cast<uint32_t>(carry));
  return out;
}

BigInt::Limbs BigInt::SubMagnitude(const Limbs& a, const Limbs& b) {
  Limbs out;
  out.reserve(a.size());
  int64_t borrow = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    int64_t diff = static_cast<int64_t>(a[i]) - borrow -
                   (i < b.size() ? static_cast<int64_t>(b[i]) : 0);
    if (diff < 0) {
      diff += (INT64_C(1) << 32);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.push_back(static_cast<uint32_t>(diff));
  }
  Trim(&out);
  return out;
}

BigInt::Limbs BigInt::MulMagnitude(const Limbs& a, const Limbs& b) {
  if (a.empty() || b.empty()) return {};
  Limbs out(a.size() + b.size(), 0);
  for (size_t i = 0; i < a.size(); ++i) {
    uint64_t carry = 0;
    for (size_t j = 0; j < b.size(); ++j) {
      uint64_t cur = static_cast<uint64_t>(a[i]) * b[j] + out[i + j] + carry;
      out[i + j] = static_cast<uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
    }
    size_t k = i + b.size();
    while (carry != 0) {
      uint64_t cur = out[k] + carry;
      out[k] = static_cast<uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
      ++k;
    }
  }
  Trim(&out);
  return out;
}

BigInt::Limbs BigInt::DivMagnitude(const Limbs& a, const Limbs& b,
                                   Limbs* rem) {
  HAS_CHECK_MSG(!b.empty(), "BigInt division by zero");
  if (CompareMagnitude(a, b) < 0) {
    *rem = a;
    Trim(rem);
    return {};
  }
  // Bit-by-bit long division: simple and obviously correct. Only values
  // outside int64 take the limb path, so its O(bits * limbs) cost is
  // paid only once a coefficient outgrows a machine word.
  Limbs quotient(a.size(), 0);
  Limbs remainder;
  for (size_t bit_index = a.size() * 32; bit_index-- > 0;) {
    // remainder <<= 1 | bit
    uint32_t bit = (a[bit_index / 32] >> (bit_index % 32)) & 1u;
    uint32_t carry = bit;
    for (size_t i = 0; i < remainder.size(); ++i) {
      uint32_t next_carry = remainder[i] >> 31;
      remainder[i] = (remainder[i] << 1) | carry;
      carry = next_carry;
    }
    if (carry != 0) remainder.push_back(carry);
    Trim(&remainder);
    if (CompareMagnitude(remainder, b) >= 0) {
      remainder = SubMagnitude(remainder, b);
      quotient[bit_index / 32] |= (1u << (bit_index % 32));
    }
  }
  Trim(&quotient);
  *rem = std::move(remainder);
  return quotient;
}

BigInt BigInt::AddSlow(const BigInt& o, bool subtract) const {
  Limbs sa, sb;
  const Limbs& a = Magnitude(&sa);
  const Limbs& b = o.Magnitude(&sb);
  bool na = is_negative();
  bool nb = o.is_negative() != subtract;
  if (na == nb) return FromMagnitude(na, AddMagnitude(a, b));
  int cmp = CompareMagnitude(a, b);
  if (cmp == 0) return BigInt();
  return cmp > 0 ? FromMagnitude(na, SubMagnitude(a, b))
                 : FromMagnitude(nb, SubMagnitude(b, a));
}

BigInt BigInt::MulSlow(const BigInt& o) const {
  Limbs sa, sb;
  return FromMagnitude(is_negative() != o.is_negative(),
                       MulMagnitude(Magnitude(&sa), o.Magnitude(&sb)));
}

BigInt BigInt::operator/(const BigInt& o) const {
  HAS_CHECK_MSG(!o.is_zero(), "BigInt division by zero");
  if (is_small() && o.is_small()) return BigInt(small_ / o.small_);
  Limbs sa, sb, rem;
  return FromMagnitude(is_negative() != o.is_negative(),
                       DivMagnitude(Magnitude(&sa), o.Magnitude(&sb), &rem));
}

BigInt BigInt::operator%(const BigInt& o) const {
  HAS_CHECK_MSG(!o.is_zero(), "BigInt division by zero");
  if (is_small() && o.is_small()) return BigInt(small_ % o.small_);
  Limbs sa, sb, rem;
  DivMagnitude(Magnitude(&sa), o.Magnitude(&sb), &rem);
  return FromMagnitude(is_negative(), std::move(rem));
}

bool BigInt::LessSlow(const BigInt& o) const {
  if (is_negative() != o.is_negative()) return is_negative();
  Limbs sa, sb;
  int cmp = CompareMagnitude(Magnitude(&sa), o.Magnitude(&sb));
  return is_negative() ? cmp > 0 : cmp < 0;
}

BigInt BigInt::Gcd(BigInt a, BigInt b) {
  a = a.Abs();
  b = b.Abs();
  while (!b.is_zero()) {
    if (a.is_small() && b.is_small()) {
      return BigInt(static_cast<int64_t>(std::gcd(
          static_cast<uint64_t>(a.small_), static_cast<uint64_t>(b.small_))));
    }
    BigInt r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

double BigInt::ToDouble() const {
  if (is_small()) return static_cast<double>(small_);
  double out = 0;
  for (size_t i = limbs_.size(); i-- > 0;) {
    out = out * 4294967296.0 + static_cast<double>(limbs_[i]);
  }
  return is_negative() ? -out : out;
}

bool BigInt::FitsInt64(int64_t* out) const {
  if (is_small()) {
    *out = small_;
    return true;
  }
  // INT64_MIN is the only big-form value that fits.
  if (is_negative() && limbs_ == Limbs{0u, 0x80000000u}) {
    *out = INT64_MIN;
    return true;
  }
  return false;
}

std::string BigInt::ToString() const {
  if (is_small()) return std::to_string(small_);
  std::string digits;
  Limbs mag = limbs_;
  const Limbs ten = {10};
  while (!mag.empty()) {
    Limbs rem;
    mag = DivMagnitude(mag, ten, &rem);
    digits.push_back(static_cast<char>('0' + (rem.empty() ? 0 : rem[0])));
  }
  if (is_negative()) digits.push_back('-');
  std::reverse(digits.begin(), digits.end());
  return digits;
}

size_t BigInt::Hash() const {
  // Mixes the 32-bit limbs of |v| (low first) into a sign seed, for both
  // forms alike, so hashes do not depend on the representation.
  size_t seed = is_negative() ? 1 : 0;
  if (is_small()) {
    for (uint64_t mag = MagnitudeOfSmall(small_); mag != 0; mag >>= 32) {
      HashMix(&seed, static_cast<uint32_t>(mag & 0xffffffffu));
    }
    return seed;
  }
  for (uint32_t limb : limbs_) HashMix(&seed, limb);
  return seed;
}

}  // namespace has
