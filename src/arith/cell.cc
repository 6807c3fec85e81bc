#include "arith/cell.h"

#include <algorithm>
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
  const int added = static_cast<int>(polys_.size() - 1);
  bool widens = false;
  for (const auto& [v, c] : polys_.back().coefs()) {
    widens |= !std::binary_search(columns_.begin(), columns_.end(), v);
  }
  if (!widens) {
    CompileRow(added);
    return added;
  }
  // A new variable adds a column: recompile every row.
  for (const auto& [v, c] : polys_.back().coefs()) columns_.push_back(v);
  std::sort(columns_.begin(), columns_.end());
  columns_.erase(std::unique(columns_.begin(), columns_.end()), columns_.end());
  rows_.clear();
  for (int i = 0; i <= added; ++i) CompileRow(i);
  return added;
}

void PolyBasis::CompileRow(int i) {
  const size_t at = rows_.size();
  rows_.resize(at + columns_.size() + 1);
  Rational* r = rows_.data() + at;
  auto col = columns_.begin();
  for (const auto& [v, c] : polys_[static_cast<size_t>(i)].coefs()) {
    col = std::lower_bound(col, columns_.end(), v);
    r[col - columns_.begin()] = c;
  }
  r[columns_.size()] = polys_[static_cast<size_t>(i)].constant();
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
  for (int i = 0; i < size(); ++i) {
    switch (signs_[i]) {
      case kSignNeg:
        out.Add(basis.poly(i), Relop::kLt);
        break;
      case kSignZero:
        out.Add(basis.poly(i), Relop::kEq);
        break;
      case kSignPos:
        out.Add(-basis.poly(i), Relop::kLt);
        break;
      default:
        break;  // unconstrained
    }
  }
  return out;
}

namespace {

/// One dense system for sign conditions over `basis` plus the `extra`
/// constraints. Its columns are the basis's, widened by any variable
/// only `extra` mentions; a sign condition copies the polynomial's
/// compiled row (negated for kSignPos, which reads -p < 0).
class CellSystem {
 public:
  CellSystem(const PolyBasis& basis, const LinearSystem& extra)
      : basis_(basis) {
    const std::vector<ArithVar>& own = basis.columns();
    for (const LinearConstraint& c : extra.constraints()) {
      for (const auto& [v, a] : c.expr.coefs()) {
        if (!std::binary_search(own.begin(), own.end(), v)) {
          widened_.push_back(v);
        }
      }
    }
    if (!widened_.empty()) {
      widened_.insert(widened_.end(), own.begin(), own.end());
      std::sort(widened_.begin(), widened_.end());
      widened_.erase(std::unique(widened_.begin(), widened_.end()),
                     widened_.end());
      at_.reserve(own.size());
      for (ArithVar v : own) {
        at_.push_back(static_cast<size_t>(
            std::lower_bound(widened_.begin(), widened_.end(), v) -
            widened_.begin()));
      }
    }
    const std::vector<ArithVar>& columns = widened_.empty() ? own : widened_;
    dense_.Reset(static_cast<int>(columns.size()));
    for (const LinearConstraint& c : extra.constraints()) {
      dense_.AddExpr(columns, c.expr, c.op, false);
    }
  }

  FourierMotzkin::DenseSystem& dense() { return dense_; }

  /// Whether `poly` has a variable no row mentions. On satisfiable rows
  /// such a polynomial takes every sign.
  bool HasFreeVariable(int poly) const {
    const Rational* p = basis_.row(poly);
    for (size_t j = 0; j < basis_.columns().size(); ++j) {
      if (p[j].is_zero()) continue;
      const size_t col = at_.empty() ? j : at_[j];
      bool used = false;
      for (size_t r = 0; r < dense_.rows() && !used; ++r) {
        used = !dense_.row(r)[col].is_zero();
      }
      if (!used) return true;
    }
    return false;
  }

  /// Appends the row of `poly (sign) 0`; kSignAny adds nothing.
  void AddSign(int poly, Sign sign) {
    if (sign == kSignAny) return;
    const bool negate = sign == kSignPos;
    Rational* r = dense_.AddRow(sign == kSignZero ? Relop::kEq : Relop::kLt);
    const Rational* p = basis_.row(poly);
    const size_t n = basis_.columns().size();
    for (size_t j = 0; j < n; ++j) {
      if (p[j].is_zero()) continue;
      r[at_.empty() ? j : at_[j]] = negate ? -p[j] : p[j];
    }
    r[dense_.columns()] = negate ? -p[n] : p[n];
  }

 private:
  const PolyBasis& basis_;
  std::vector<ArithVar> widened_;  // empty when the basis's columns do
  std::vector<size_t> at_;         // basis column -> widened column
  FourierMotzkin::DenseSystem dense_;
};

}  // namespace

bool Cell::IsNonEmpty(const PolyBasis& basis) const {
  return IsNonEmptyWith(basis, LinearSystem());
}

bool Cell::IsNonEmptyWith(const PolyBasis& basis,
                          const LinearSystem& extra) const {
  CellSystem sys(basis, extra);
  for (int i = 0; i < size(); ++i) sys.AddSign(i, signs_[i]);
  return sys.dense().IsSatisfiable();
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
  // The fixed signs and the extra constraints stay in the system; each
  // level of the search adds its candidate's row and drops it again.
  CellSystem sys(basis, extra);
  for (int p = 0; p < partial.size(); ++p) sys.AddSign(p, partial.sign(p));
  FourierMotzkin::DenseSystem& dense = sys.dense();
  // Every level runs on satisfiable rows: the fixed signs and `extra`
  // are checked once up front (if they fail, no candidate can pass), and
  // a level recurses only into a satisfiable candidate. A level can
  // then skip the checks whose answer follows: a polynomial with a
  // variable no row mentions takes every sign, and, the solutions being
  // convex, p < 0 and p > 0 together force p = 0 somewhere, so once
  // p = 0 fails, p > 0 holds exactly where p < 0 failed.
  bool open = false;
  for (int p : todo) open |= partial.sign(p) == kSignAny;
  if (open && !dense.IsSatisfiable()) return;
  Cell cur = partial;
  std::function<bool(size_t)> rec = [&](size_t index) -> bool {
    if (index == todo.size()) return callback(cur);
    int poly = todo[index];
    if (cur.sign(poly) != kSignAny) return rec(index + 1);
    const bool free = sys.HasFreeVariable(poly);
    bool neg = false;
    bool zero = false;
    for (Sign s : {kSignNeg, kSignZero, kSignPos}) {
      cur.set_sign(poly, s);
      const size_t rows = dense.rows();
      sys.AddSign(poly, s);
      const bool sat =
          free || (s == kSignPos && !zero ? !neg : dense.IsSatisfiable());
      if (s == kSignNeg) neg = sat;
      if (s == kSignZero) zero = sat;
      const bool go_on = !sat || rec(index + 1);
      dense.Truncate(rows);
      if (!go_on) {
        cur.set_sign(poly, kSignAny);
        return false;
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
