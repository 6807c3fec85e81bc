#include "arith/linear.h"

#include <set>

#include "common/hashing.h"
#include "common/strings.h"

namespace has {

Rational LinearExpr::Coef(ArithVar v) const {
  auto it = coefs_.find(v);
  return it == coefs_.end() ? Rational(0) : it->second;
}

void LinearExpr::AddTerm(ArithVar v, const Rational& coef) {
  auto [it, inserted] = coefs_.try_emplace(v, coef);
  if (!inserted) {
    it->second += coef;
    if (it->second.is_zero()) coefs_.erase(it);
  } else if (it->second.is_zero()) {
    coefs_.erase(it);
  }
}

LinearExpr LinearExpr::operator+(const LinearExpr& o) const {
  LinearExpr out = *this;
  out.constant_ += o.constant_;
  for (const auto& [v, c] : o.coefs_) out.AddTerm(v, c);
  return out;
}

LinearExpr LinearExpr::operator-(const LinearExpr& o) const {
  return *this + (o * Rational(-1));
}

LinearExpr LinearExpr::operator*(const Rational& scalar) const {
  LinearExpr out;
  if (scalar.is_zero()) return out;
  out.constant_ = constant_ * scalar;
  for (const auto& [v, c] : coefs_) out.coefs_[v] = c * scalar;
  return out;
}

LinearExpr LinearExpr::Substitute(ArithVar v,
                                  const LinearExpr& replacement) const {
  auto it = coefs_.find(v);
  if (it == coefs_.end()) return *this;
  Rational coef = it->second;
  LinearExpr out = *this;
  out.coefs_.erase(v);
  return out + replacement * coef;
}

LinearExpr LinearExpr::Rename(const std::map<ArithVar, ArithVar>& map) const {
  LinearExpr out;
  out.constant_ = constant_;
  for (const auto& [v, c] : coefs_) {
    auto it = map.find(v);
    out.AddTerm(it == map.end() ? v : it->second, c);
  }
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
