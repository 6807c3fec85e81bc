#include "arith/fourier_motzkin.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/status.h"

namespace has {

namespace {

/// Evaluates a variable-free constraint.
bool GroundHolds(const LinearConstraint& c) {
  int s = c.expr.constant().sign();
  switch (c.op) {
    case Relop::kLt:
      return s < 0;
    case Relop::kLe:
      return s <= 0;
    case Relop::kEq:
      return s == 0;
  }
  return false;
}

}  // namespace

LinearSystem FourierMotzkin::SimplifyGround(LinearSystem system,
                                            bool* feasible) {
  *feasible = true;
  std::vector<LinearConstraint>& cs = *system.mutable_constraints();
  for (const LinearConstraint& c : cs) {
    if (c.expr.IsConstant() && !GroundHolds(c)) {
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
  bool feasible = true;
  LinearSystem cur = SimplifyGround(system, &feasible);
  if (!feasible) return false;
  while (!cur.empty()) {
    std::vector<ArithVar> vars = cur.Vars();
    if (vars.empty()) {
      // Only ground constraints remained; SimplifyGround already
      // validated them.
      return true;
    }
    cur = EliminateImpl(cur, vars.front(), &feasible);
    if (!feasible) return false;
  }
  return true;
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
  if (!IsSatisfiable(system)) return false;
  // A convex set contained in a finite union of hyperplanes is contained
  // in one of them, so it suffices to check each disequality separately.
  for (const LinearExpr& e : disequalities) {
    LinearSystem lt = system;
    lt.Add(e, Relop::kLt);
    if (IsSatisfiable(lt)) continue;
    LinearSystem gt = system;
    gt.Add(-e, Relop::kLt);
    if (IsSatisfiable(gt)) continue;
    return false;  // system ⊆ {e = 0}
  }
  return true;
}

}  // namespace has
