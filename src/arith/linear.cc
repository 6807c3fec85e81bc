#include "arith/linear.h"

#include <algorithm>
#include <cassert>
#include <set>

#include "common/hashing.h"
#include "common/strings.h"

namespace has {

namespace {

bool VarLess(const std::pair<ArithVar, Rational>& t, ArithVar v) {
  return t.first < v;
}

/// Merges two sorted term lists into *out as a + sign·b, dropping the
/// coefficients that cancel.
void MergeTerms(const LinearExpr::Terms& a, const LinearExpr::Terms& b,
                int sign, LinearExpr::Terms* out) {
  out->reserve(a.size() + b.size());
  auto i = a.begin();
  auto j = b.begin();
  while (i != a.end() || j != b.end()) {
    if (j == b.end() || (i != a.end() && i->first < j->first)) {
      out->push_back(*i++);
    } else if (i == a.end() || j->first < i->first) {
      out->emplace_back(j->first, sign < 0 ? -j->second : j->second);
      ++j;
    } else {
      Rational c = sign < 0 ? i->second - j->second : i->second + j->second;
      if (!c.is_zero()) out->emplace_back(i->first, std::move(c));
      ++i;
      ++j;
    }
  }
}

}  // namespace

void LinearExpr::CheckTerms() const {
#ifndef NDEBUG
  for (size_t i = 0; i < coefs_.size(); ++i) {
    assert(!coefs_[i].second.is_zero());
    assert(i == 0 || coefs_[i - 1].first < coefs_[i].first);
  }
#endif
}

Rational LinearExpr::Coef(ArithVar v) const {
  auto it = std::lower_bound(coefs_.begin(), coefs_.end(), v, VarLess);
  return it == coefs_.end() || it->first != v ? Rational(0) : it->second;
}

void LinearExpr::AddTerm(ArithVar v, const Rational& coef) {
  auto it = std::lower_bound(coefs_.begin(), coefs_.end(), v, VarLess);
  if (it != coefs_.end() && it->first == v) {
    it->second += coef;
    if (it->second.is_zero()) coefs_.erase(it);
  } else if (!coef.is_zero()) {
    coefs_.emplace(it, v, coef);
  }
  CheckTerms();
}

LinearExpr LinearExpr::operator+(const LinearExpr& o) const {
  LinearExpr out(constant_ + o.constant_);
  MergeTerms(coefs_, o.coefs_, 1, &out.coefs_);
  out.CheckTerms();
  return out;
}

LinearExpr LinearExpr::operator-(const LinearExpr& o) const {
  LinearExpr out(constant_ - o.constant_);
  MergeTerms(coefs_, o.coefs_, -1, &out.coefs_);
  out.CheckTerms();
  return out;
}

LinearExpr LinearExpr::operator*(const Rational& scalar) const {
  LinearExpr out;
  if (scalar.is_zero()) return out;
  out.constant_ = constant_ * scalar;
  out.coefs_.reserve(coefs_.size());
  for (const auto& [v, c] : coefs_) out.coefs_.emplace_back(v, c * scalar);
  out.CheckTerms();
  return out;
}

LinearExpr LinearExpr::Substitute(ArithVar v,
                                  const LinearExpr& replacement) const {
  auto it = std::lower_bound(coefs_.begin(), coefs_.end(), v, VarLess);
  if (it == coefs_.end() || it->first != v) return *this;
  LinearExpr out = *this;
  const Rational coef = it->second;
  out.coefs_.erase(out.coefs_.begin() + (it - coefs_.begin()));
  return out + replacement * coef;
}

LinearExpr LinearExpr::Rename(const std::map<ArithVar, ArithVar>& map) const {
  LinearExpr out(constant_);
  out.coefs_.reserve(coefs_.size());
  for (const auto& [v, c] : coefs_) {
    auto it = map.find(v);
    out.coefs_.emplace_back(it == map.end() ? v : it->second, c);
  }
  // Renamed variables may collide: sort, then sum equal neighbours.
  std::sort(
      out.coefs_.begin(), out.coefs_.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  size_t kept = 0;
  for (size_t i = 0; i < out.coefs_.size();) {
    std::pair<ArithVar, Rational> t = std::move(out.coefs_[i]);
    for (++i; i < out.coefs_.size() && out.coefs_[i].first == t.first; ++i) {
      t.second += out.coefs_[i].second;
    }
    if (!t.second.is_zero()) out.coefs_[kept++] = std::move(t);
  }
  out.coefs_.resize(kept);
  out.CheckTerms();
  return out;
}

Rational LinearExpr::Eval(
    const std::function<Rational(ArithVar)>& assignment) const {
  Rational out = constant_;
  for (const auto& [v, c] : coefs_) out += c * assignment(v);
  return out;
}

std::vector<ArithVar> LinearExpr::Vars() const {
  std::vector<ArithVar> out;
  out.reserve(coefs_.size());
  for (const auto& [v, c] : coefs_) out.push_back(v);
  return out;
}

std::string LinearExpr::ToString() const {
  std::vector<std::string> parts;
  for (const auto& [v, c] : coefs_) {
    parts.push_back(StrCat(c.ToString(), "*x", v));
  }
  if (!constant_.is_zero() || parts.empty()) {
    parts.push_back(constant_.ToString());
  }
  return StrJoin(parts, " + ");
}

size_t LinearExpr::Hash() const {
  size_t seed = constant_.Hash();
  for (const auto& [v, c] : coefs_) {
    HashMix(&seed, v);
    HashMix(&seed, c.Hash());
  }
  return seed;
}

const char* RelopName(Relop op) {
  switch (op) {
    case Relop::kLt:
      return "<";
    case Relop::kLe:
      return "<=";
    case Relop::kEq:
      return "=";
  }
  return "?";
}

std::string LinearConstraint::ToString() const {
  return StrCat(expr.ToString(), " ", RelopName(op), " 0");
}

void LinearSystem::Append(const LinearSystem& o) {
  constraints_.insert(constraints_.end(), o.constraints_.begin(),
                      o.constraints_.end());
}

size_t LinearSystem::Hash() const {
  size_t seed = constraints_.size();
  for (const LinearConstraint& c : constraints_) {
    HashMix(&seed, c.expr.Hash());
    HashMix(&seed, static_cast<int>(c.op));
  }
  return seed;
}

LinearSystem LinearSystem::Rename(
    const std::map<ArithVar, ArithVar>& map) const {
  LinearSystem out;
  for (const LinearConstraint& c : constraints_) {
    out.Add(LinearConstraint{c.expr.Rename(map), c.op});
  }
  return out;
}

std::vector<ArithVar> LinearSystem::Vars() const {
  std::set<ArithVar> vars;
  for (const LinearConstraint& c : constraints_) {
    for (ArithVar v : c.expr.Vars()) vars.insert(v);
  }
  return std::vector<ArithVar>(vars.begin(), vars.end());
}

std::string LinearSystem::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(constraints_.size());
  for (const LinearConstraint& c : constraints_) parts.push_back(c.ToString());
  return StrJoin(parts, " && ");
}

}  // namespace has
