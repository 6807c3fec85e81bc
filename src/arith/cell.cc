#include "arith/cell.h"

#include <set>

#include "common/hashing.h"
#include "common/status.h"
#include "common/strings.h"

namespace has {

namespace {
/// Canonical form: scale so the leading (lowest-index) coefficient is 1.
/// Returns whether the scaling factor was negative (sign conditions must
/// then flip).
LinearExpr Canonicalize(const LinearExpr& poly, bool* negated) {
  HAS_CHECK_MSG(!poly.IsConstant(), "constant polynomial in basis");
  Rational lead = poly.coefs().begin()->second;
  *negated = lead.sign() < 0;
  return poly * (Rational(1) / lead);
}
}  // namespace

int PolyBasis::Add(const LinearExpr& poly) {
  bool negated = false;
  LinearExpr canon = Canonicalize(poly, &negated);
  for (size_t i = 0; i < polys_.size(); ++i) {
    if (polys_[i] == canon) return static_cast<int>(i);
  }
  polys_.push_back(std::move(canon));
  return static_cast<int>(polys_.size() - 1);
}

int PolyBasis::Find(const LinearExpr& poly, bool* negated) const {
  if (poly.IsConstant()) return -1;
  LinearExpr canon = Canonicalize(poly, negated);
  for (size_t i = 0; i < polys_.size(); ++i) {
    if (polys_[i] == canon) return static_cast<int>(i);
  }
  return -1;
}

std::vector<int> PolyBasis::PolysOverVars(
    const std::vector<ArithVar>& vars) const {
  std::set<ArithVar> var_set(vars.begin(), vars.end());
  std::vector<int> out;
  for (size_t i = 0; i < polys_.size(); ++i) {
    bool inside = true;
    for (ArithVar v : polys_[i].Vars()) {
      if (!var_set.count(v)) {
        inside = false;
        break;
      }
    }
    if (inside) out.push_back(static_cast<int>(i));
  }
  return out;
}

LinearSystem Cell::ToSystem(const PolyBasis& basis) const {
  LinearSystem out;
  out.Reserve(size());
  AddConstraintsTo(basis, &out);
  return out;
}

void Cell::AddConstraintsTo(const PolyBasis& basis, LinearSystem* out) const {
  for (int i = 0; i < size(); ++i) {
    switch (signs_[i]) {
      case kSignNeg:
        out->Add(basis.poly(i), Relop::kLt);
        break;
      case kSignZero:
        out->Add(basis.poly(i), Relop::kEq);
        break;
      case kSignPos:
        out->Add(-basis.poly(i), Relop::kLt);
        break;
      default:
        break;  // unconstrained
    }
  }
}

bool Cell::IsNonEmpty(const PolyBasis& basis) const {
  return FourierMotzkin::IsSatisfiable(ToSystem(basis));
}

bool Cell::IsNonEmptyWith(const PolyBasis& basis,
                          const LinearSystem& extra) const {
  LinearSystem s;
  s.Reserve(size() + extra.size());
  AddConstraintsTo(basis, &s);
  s.Append(extra);
  return FourierMotzkin::IsSatisfiable(s);
}

bool Cell::RefinesOn(const Cell& o, const std::vector<int>& polys) const {
  for (int p : polys) {
    if (o.signs_[p] != kSignAny && signs_[p] != o.signs_[p]) return false;
  }
  return true;
}

Cell Cell::RestrictTo(const std::vector<int>& polys) const {
  Cell out(size());
  for (int p : polys) out.set_sign(p, signs_[p]);
  return out;
}

std::string Cell::ToString(const PolyBasis& basis) const {
  std::vector<std::string> parts;
  for (int i = 0; i < size(); ++i) {
    if (signs_[i] == kSignAny) continue;
    const char* rel = signs_[i] == kSignNeg   ? " < 0"
                      : signs_[i] == kSignZero ? " = 0"
                                               : " > 0";
    parts.push_back(StrCat(basis.poly(i).ToString(), rel));
  }
  if (parts.empty()) return "(top)";
  return StrJoin(parts, " && ");
}

size_t Cell::Hash() const {
  size_t seed = signs_.size();
  for (Sign s : signs_) HashMix(&seed, static_cast<int>(s));
  return seed;
}

void EnumerateCells(const PolyBasis& basis, const Cell& partial,
                    const std::vector<int>& todo, const LinearSystem& extra,
                    const std::function<bool(const Cell&)>& callback) {
  Cell cur = partial;
  std::function<bool(size_t)> rec = [&](size_t index) -> bool {
    if (index == todo.size()) return callback(cur);
    int poly = todo[index];
    if (cur.sign(poly) != kSignAny) return rec(index + 1);
    for (Sign s : {kSignNeg, kSignZero, kSignPos}) {
      cur.set_sign(poly, s);
      if (cur.IsNonEmptyWith(basis, extra)) {
        if (!rec(index + 1)) {
          cur.set_sign(poly, kSignAny);
          return false;
        }
      }
    }
    cur.set_sign(poly, kSignAny);
    return true;
  };
  rec(0);
}

int64_t CountNonEmptyCells(const PolyBasis& basis) {
  std::vector<int> all(basis.size());
  for (int i = 0; i < basis.size(); ++i) all[i] = i;
  int64_t count = 0;
  EnumerateCells(basis, Cell(basis.size()), all, LinearSystem(),
                 [&](const Cell&) {
                   ++count;
                   return true;
                 });
  return count;
}

}  // namespace has
