#include "arith/fourier_motzkin.h"

#include <algorithm>
#include <cstddef>
#include <set>
#include <utility>

#include "common/status.h"

namespace has {

namespace {

/// Evaluates a variable-free constraint `constant (op) 0`.
bool GroundHolds(const Rational& constant, Relop op) {
  int s = constant.sign();
  switch (op) {
    case Relop::kLt:
      return s < 0;
    case Relop::kLe:
      return s <= 0;
    case Relop::kEq:
      return s == 0;
  }
  return false;
}

/// The variables of `system` and of `extra`, ascending.
std::vector<ArithVar> Columns(const LinearSystem& system,
                              const std::vector<LinearExpr>& extra) {
  std::vector<ArithVar> columns;
  for (const LinearConstraint& c : system.constraints()) {
    for (const auto& [v, a] : c.expr.coefs()) columns.push_back(v);
  }
  for (const LinearExpr& e : extra) {
    for (const auto& [v, a] : e.coefs()) columns.push_back(v);
  }
  std::sort(columns.begin(), columns.end());
  columns.erase(std::unique(columns.begin(), columns.end()), columns.end());
  return columns;
}

}  // namespace

void FourierMotzkin::DenseSystem::Reset(int columns) {
  rows_.width = columns + 1;
  rows_.cells.clear();
  rows_.ops.clear();
}

Rational* FourierMotzkin::DenseSystem::AddRow(Relop op) {
  const size_t at = rows_.cells.size();
  rows_.cells.resize(at + static_cast<size_t>(rows_.width));
  rows_.ops.push_back(op);
  return rows_.cells.data() + at;
}

void FourierMotzkin::DenseSystem::AddExpr(const std::vector<ArithVar>& columns,
                                          const LinearExpr& e, Relop op,
                                          bool negate) {
  Rational* r = AddRow(op);
  auto col = columns.begin();
  for (const auto& [v, a] : e.coefs()) {  // ascending, like the columns
    col = std::lower_bound(col, columns.end(), v);
    r[col - columns.begin()] = negate ? -a : a;
  }
  r[rows_.width - 1] = negate ? -e.constant() : e.constant();
}

void FourierMotzkin::DenseSystem::Truncate(size_t rows) {
  rows_.cells.resize(rows * static_cast<size_t>(rows_.width));
  rows_.ops.resize(rows);
}

bool FourierMotzkin::DenseSystem::IsSatisfiable() {
  work_.width = rows_.width;
  work_.cells.assign(rows_.cells.begin(), rows_.cells.end());
  work_.ops.assign(rows_.ops.begin(), rows_.ops.end());
  return Decide(&work_, &next_);
}

bool FourierMotzkin::DenseSystem::DropGround(Rows* sys) {
  const int n = sys->width - 1;
  size_t kept = 0;
  for (size_t i = 0; i < sys->ops.size(); ++i) {
    const Rational* r = sys->row(i);
    bool ground = true;
    for (int j = 0; j < n && ground; ++j) ground = r[j].is_zero();
    if (ground) {
      if (!GroundHolds(r[n], sys->ops[i])) return false;
      continue;
    }
    if (kept != i) {
      std::copy(r, r + sys->width, sys->row(kept));
      sys->ops[kept] = sys->ops[i];
    }
    ++kept;
  }
  sys->cells.resize(kept * static_cast<size_t>(sys->width));
  sys->ops.resize(kept);
  return true;
}

bool FourierMotzkin::DenseSystem::Decide(Rows* sys, Rows* next) {
  const int width = sys->width;
  next->width = width;
  if (!DropGround(sys)) return false;
  for (int col = 0; col + 1 < width && !sys->ops.empty(); ++col) {
    const size_t rows = sys->ops.size();
    size_t eq = rows;
    bool lower = false;
    bool upper = false;
    for (size_t i = 0; i < rows; ++i) {
      const int s = sys->row(i)[col].sign();
      if (s == 0) continue;
      if (sys->ops[i] == Relop::kEq) {
        eq = i;
        break;
      }
      (s < 0 ? lower : upper) = true;
    }
    if (eq != rows) {
      // row_i -= (row_i[col] / row_eq[col]) · row_eq for every other
      // row, in place; then the equality goes.
      const Rational* e = sys->row(eq);
      const Rational inv = Rational(1) / e[col];
      for (size_t i = 0; i < rows; ++i) {
        Rational* r = sys->row(i);
        if (i == eq || r[col].is_zero()) continue;
        const Rational f = r[col] * inv;
        for (int j = col + 1; j < width; ++j) {
          if (!e[j].is_zero()) r[j] -= f * e[j];
        }
        r[col] = Rational(0);
      }
      sys->cells.erase(
          sys->cells.begin() + static_cast<std::ptrdiff_t>(eq * width),
          sys->cells.begin() + static_cast<std::ptrdiff_t>((eq + 1) * width));
      sys->ops.erase(sys->ops.begin() + static_cast<std::ptrdiff_t>(eq));
    } else if (!lower && !upper) {
      continue;  // no row mentions the column
    } else if (!lower || !upper) {
      // Bounded on one side only: the rows with the column pair with
      // nothing, so only the rows without it remain.
      size_t kept = 0;
      for (size_t i = 0; i < rows; ++i) {
        Rational* r = sys->row(i);
        if (!r[col].is_zero()) continue;
        if (kept != i) {
          std::copy(r, r + width, sys->row(kept));
          sys->ops[kept] = sys->ops[i];
        }
        ++kept;
      }
      sys->cells.resize(kept * static_cast<size_t>(width));
      sys->ops.resize(kept);
    } else {
      next->cells.clear();
      next->ops.clear();
      // a·x + l (op) 0 with a < 0 bounds x from below by -l/a, with
      // b > 0 from above by -u/b; each pair leaves -l/a + u/b (op) 0,
      // strict if either is.
      for (size_t i = 0; i < rows; ++i) {
        if (!sys->row(i)[col].is_zero()) continue;
        next->cells.insert(next->cells.end(), sys->row(i),
                           sys->row(i) + width);
        next->ops.push_back(sys->ops[i]);
      }
      for (size_t lo = 0; lo < rows; ++lo) {
        const Rational* l = sys->row(lo);
        if (l[col].sign() >= 0) continue;
        const Rational l_inv = Rational(1) / l[col];
        for (size_t up = 0; up < rows; ++up) {
          const Rational* u = sys->row(up);
          if (u[col].sign() <= 0) continue;
          const Rational u_inv = Rational(1) / u[col];
          const size_t at = next->cells.size();
          next->cells.resize(at + static_cast<size_t>(width));
          Rational* r = next->cells.data() + at;
          for (int j = col + 1; j < width; ++j) {
            if (!u[j].is_zero()) r[j] = u[j] * u_inv;
            if (!l[j].is_zero()) r[j] -= l[j] * l_inv;
          }
          next->ops.push_back(
              sys->ops[lo] == Relop::kLt || sys->ops[up] == Relop::kLt
                  ? Relop::kLt
                  : Relop::kLe);
        }
      }
      std::swap(*sys, *next);
    }
    if (!DropGround(sys)) return false;
  }
  return true;
}

LinearSystem FourierMotzkin::SimplifyGround(LinearSystem system,
                                            bool* feasible) {
  *feasible = true;
  std::vector<LinearConstraint>& cs = *system.mutable_constraints();
  for (const LinearConstraint& c : cs) {
    if (c.expr.IsConstant() && !GroundHolds(c.expr.constant(), c.op)) {
      *feasible = false;
      return LinearSystem();
    }
  }
  cs.erase(std::remove_if(cs.begin(), cs.end(),
                          [](const LinearConstraint& c) {
                            return c.expr.IsConstant();
                          }),
           cs.end());
  return system;
}

LinearSystem FourierMotzkin::EliminateImpl(const LinearSystem& system,
                                           ArithVar var, bool* feasible) {
  *feasible = true;

  // Prefer substitution through an equality containing var: exact and
  // avoids the quadratic blowup of the inequality combination step.
  for (const LinearConstraint& c : system.constraints()) {
    if (c.op != Relop::kEq) continue;
    Rational a = c.expr.Coef(var);
    if (a.is_zero()) continue;
    // c.expr = a*var + rest = 0  =>  var = -rest / a.
    LinearExpr rest = c.expr;
    rest.AddTerm(var, -a);
    LinearExpr replacement = (-rest) * (Rational(1) / a);
    LinearSystem substituted;
    substituted.Reserve(system.size() - 1);
    for (const LinearConstraint& other : system.constraints()) {
      if (&other == &c) continue;
      substituted.Add(
          LinearConstraint{other.expr.Substitute(var, replacement), other.op});
    }
    return SimplifyGround(std::move(substituted), feasible);
  }

  // Partition into lower bounds (a<0: expr<=>0 gives var >= bound),
  // upper bounds (a>0), and var-free constraints.
  struct Bound {
    LinearExpr expr;  // the bound on var: var (op) expr
    bool strict;
  };
  std::vector<Bound> lowers, uppers;
  std::vector<const LinearConstraint*> var_free;
  for (const LinearConstraint& c : system.constraints()) {
    Rational a = c.expr.Coef(var);
    if (a.is_zero()) {
      var_free.push_back(&c);
      continue;
    }
    // a*var + r (op) 0  =>  var (op') -r/a, flipping for a<0.
    LinearExpr r = c.expr;
    r.AddTerm(var, -a);
    LinearExpr bound = (-r) * (Rational(1) / a);
    bool strict = c.op == Relop::kLt;
    if (a.sign() > 0) {
      uppers.push_back(Bound{std::move(bound), strict});
    } else {
      lowers.push_back(Bound{std::move(bound), strict});
    }
  }
  LinearSystem rest;
  rest.Reserve(var_free.size() + lowers.size() * uppers.size());
  for (const LinearConstraint* c : var_free) rest.Add(*c);
  // Combine all lower/upper pairs: L <= var <= U  =>  L <= U.
  for (const Bound& lo : lowers) {
    for (const Bound& up : uppers) {
      LinearExpr diff = lo.expr - up.expr;  // require diff (op) 0
      Relop op = (lo.strict || up.strict) ? Relop::kLt : Relop::kLe;
      rest.Add(LinearConstraint{std::move(diff), op});
    }
  }
  return SimplifyGround(std::move(rest), feasible);
}

LinearSystem FourierMotzkin::Eliminate(const LinearSystem& system,
                                       ArithVar var) {
  bool feasible = true;
  LinearSystem out = EliminateImpl(system, var, &feasible);
  if (!feasible) {
    // Represent "false" as the ground contradiction 1 <= 0.
    LinearSystem falsum;
    falsum.Add(LinearExpr::Constant(Rational(1)), Relop::kLe);
    return falsum;
  }
  return out;
}

LinearSystem FourierMotzkin::Project(const LinearSystem& system,
                                     const std::vector<ArithVar>& keep) {
  std::set<ArithVar> keep_set(keep.begin(), keep.end());
  LinearSystem cur = system;
  // Eliminate variables one at a time; order by (heuristic) fewest
  // occurrences first to curb intermediate blowup.
  while (true) {
    std::vector<ArithVar> vars = cur.Vars();
    ArithVar victim = -1;
    size_t best_count = SIZE_MAX;
    for (ArithVar v : vars) {
      if (keep_set.count(v)) continue;
      size_t count = 0;
      for (const LinearConstraint& c : cur.constraints()) {
        if (!c.expr.Coef(v).is_zero()) ++count;
      }
      if (count < best_count) {
        best_count = count;
        victim = v;
      }
    }
    if (victim == -1) break;
    cur = Eliminate(cur, victim);
  }
  return cur;
}

bool FourierMotzkin::IsSatisfiable(const LinearSystem& system) {
  return IsSatisfiableWithDisequalities(system, {});
}

bool FourierMotzkin::Entails(const LinearSystem& system,
                             const LinearConstraint& constraint) {
  // system |= c  iff  system ∧ ¬c is unsatisfiable.
  switch (constraint.op) {
    case Relop::kLt: {
      LinearSystem s = system;  // ¬(e<0) is e>=0, i.e. -e<=0
      s.Add(-constraint.expr, Relop::kLe);
      return !IsSatisfiable(s);
    }
    case Relop::kLe: {
      LinearSystem s = system;  // ¬(e<=0) is e>0, i.e. -e<0
      s.Add(-constraint.expr, Relop::kLt);
      return !IsSatisfiable(s);
    }
    case Relop::kEq: {
      // ¬(e=0) is e<0 ∨ e>0; by convexity system |= e=0 iff both
      // branches are unsatisfiable.
      LinearSystem lt = system;
      lt.Add(constraint.expr, Relop::kLt);
      LinearSystem gt = system;
      gt.Add(-constraint.expr, Relop::kLt);
      return !IsSatisfiable(lt) && !IsSatisfiable(gt);
    }
  }
  return false;
}

bool FourierMotzkin::IsSatisfiableWithDisequalities(
    const LinearSystem& system, const std::vector<LinearExpr>& disequalities) {
  const std::vector<ArithVar> columns = Columns(system, disequalities);
  DenseSystem sys;
  sys.Reset(static_cast<int>(columns.size()));
  for (const LinearConstraint& c : system.constraints()) {
    sys.AddExpr(columns, c.expr, c.op, false);
  }
  if (!sys.IsSatisfiable()) return false;
  // A convex set contained in a finite union of hyperplanes is contained
  // in one of them, so it suffices to check each disequality separately:
  // the system meets e < 0 or -e < 0.
  const size_t base = sys.rows();
  for (const LinearExpr& e : disequalities) {
    bool met = false;
    for (bool negate : {false, true}) {
      sys.AddExpr(columns, e, Relop::kLt, negate);
      met = sys.IsSatisfiable();
      sys.Truncate(base);
      if (met) break;
    }
    if (!met) return false;  // system ⊆ {e = 0}
  }
  return true;
}

}  // namespace has
