#include "analysis/sat.h"

#include <cstdint>
#include <utility>

#include "arith/fourier_motzkin.h"
#include "common/union_find.h"

namespace has {
namespace {

int AtomIndex(const Condition& a, const std::vector<const Condition*>& atoms) {
  for (size_t i = 0; i < atoms.size(); ++i) {
    if (atoms[i]->Equals(a)) return static_cast<int>(i);
  }
  return -1;
}

/// Truth value of `c` under the atom assignment `mask` (bit i = truth of
/// atoms[i]).
bool EvalUnder(const Condition& c, const std::vector<const Condition*>& atoms,
               uint32_t mask) {
  switch (c.kind()) {
    case CondKind::kTrue:
      return true;
    case CondKind::kFalse:
      return false;
    case CondKind::kNot:
      return !EvalUnder(*c.child(0), atoms, mask);
    case CondKind::kAnd:
      for (int i = 0; i < c.num_children(); ++i) {
        if (!EvalUnder(*c.child(i), atoms, mask)) return false;
      }
      return true;
    case CondKind::kOr:
      for (int i = 0; i < c.num_children(); ++i) {
        if (EvalUnder(*c.child(i), atoms, mask)) return true;
      }
      return false;
    default:
      return (mask >> AtomIndex(c, atoms)) & 1u;
  }
}

bool IsNumericTerm(const Term& t, const std::vector<VarSort>& sorts) {
  switch (t.kind) {
    case Term::Kind::kConst:
      return true;
    case Term::Kind::kVar:
      return sorts[t.var] == VarSort::kNumeric;
    case Term::Kind::kNull:
      return false;
  }
  return false;
}

LinearExpr TermExpr(const Term& t) {
  return t.kind == Term::Kind::kConst ? LinearExpr::Constant(t.value)
                                      : LinearExpr::Var(t.var);
}

/// Theory consistency of one full truth assignment to the atoms.
/// Elements of the union-find: variables [0, nvars), null at nvars,
/// interned constants after that.
bool TheoryConsistent(const std::vector<const Condition*>& atoms,
                      uint32_t mask, const std::vector<VarSort>& sorts) {
  const int nvars = static_cast<int>(sorts.size());
  const int null_elem = nvars;
  UnionFind uf(static_cast<size_t>(nvars) + 1);
  std::vector<Rational> consts;
  auto intern_const = [&](const Rational& r) {
    for (size_t i = 0; i < consts.size(); ++i) {
      if (consts[i] == r) return null_elem + 1 + static_cast<int>(i);
    }
    consts.push_back(r);
    return uf.AddElement();
  };
  auto term_elem = [&](const Term& t) {
    switch (t.kind) {
      case Term::Kind::kVar:
        return t.var;
      case Term::Kind::kNull:
        return null_elem;
      case Term::Kind::kConst:
        return intern_const(t.value);
    }
    return null_elem;
  };

  std::vector<std::pair<int, int>> disequal;
  std::vector<const Condition*> pos_rels;
  LinearSystem system;
  std::vector<LinearExpr> arith_diseqs;

  for (size_t i = 0; i < atoms.size(); ++i) {
    const Condition& a = *atoms[i];
    const bool value = (mask >> i) & 1u;
    switch (a.kind()) {
      case CondKind::kEq: {
        if (value) {
          uf.Union(term_elem(a.lhs()), term_elem(a.rhs()));
        } else {
          disequal.emplace_back(term_elem(a.lhs()), term_elem(a.rhs()));
          if (IsNumericTerm(a.lhs(), sorts) && IsNumericTerm(a.rhs(), sorts)) {
            arith_diseqs.push_back(TermExpr(a.lhs()) - TermExpr(a.rhs()));
          }
        }
        break;
      }
      case CondKind::kRel: {
        // A positive atom forces all arguments non-null; a negative atom
        // constrains nothing we can use (the instance may simply lack the
        // tuple), so it is ignored — conservative toward SAT.
        if (value) {
          pos_rels.push_back(&a);
          for (int v : a.args()) {
            if (sorts[v] == VarSort::kId) disequal.emplace_back(v, null_elem);
          }
        }
        break;
      }
      case CondKind::kArith: {
        const LinearConstraint& lc = a.constraint();
        if (value) {
          system.Add(lc);
        } else {
          switch (lc.op) {
            case Relop::kLe:  // ¬(e ≤ 0) ⇔ -e < 0
              system.Add(-lc.expr, Relop::kLt);
              break;
            case Relop::kLt:  // ¬(e < 0) ⇔ -e ≤ 0
              system.Add(-lc.expr, Relop::kLe);
              break;
            case Relop::kEq:  // ¬(e = 0) ⇔ e ≠ 0
              arith_diseqs.push_back(lc.expr);
              break;
          }
        }
        break;
      }
      default:
        break;
    }
  }

  // Key-dependency closure: attribute 0 is the relation's key, so two
  // tuples of the same relation with equal keys are the same tuple —
  // merge the remaining argument columns. Fixpoint because merges can
  // enable further key equalities.
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < pos_rels.size(); ++i) {
      for (size_t j = i + 1; j < pos_rels.size(); ++j) {
        const Condition& p = *pos_rels[i];
        const Condition& q = *pos_rels[j];
        if (p.relation() != q.relation()) continue;
        if (!uf.Same(p.args()[0], q.args()[0])) continue;
        for (size_t k = 1; k < p.args().size(); ++k) {
          if (!uf.Same(p.args()[k], q.args()[k])) {
            uf.Union(p.args()[k], q.args()[k]);
            changed = true;
          }
        }
      }
    }
  }

  for (const auto& [a, b] : disequal) {
    if (uf.Same(a, b)) return false;
  }

  // Per-class sanity plus equality constraints feeding the arithmetic
  // check: a class may hold at most one constant, never null together
  // with a constant or a numeric variable (numeric variables are never
  // null), and all numeric members of a class must be arithmetically
  // equal.
  const int num_elems = static_cast<int>(uf.size());
  for (int root = 0; root < num_elems; ++root) {
    if (uf.Find(root) != root) continue;
    bool has_null = false;
    bool has_numeric = false;
    const Rational* the_const = nullptr;
    for (int e = 0; e < num_elems; ++e) {
      if (uf.Find(e) != root) continue;
      if (e == null_elem) {
        has_null = true;
      } else if (e > null_elem) {
        const Rational& r = consts[e - null_elem - 1];
        if (the_const != nullptr && !(*the_const == r)) return false;
        the_const = &r;
      } else if (sorts[e] == VarSort::kNumeric) {
        has_numeric = true;
      }
    }
    if (has_null && (the_const != nullptr || has_numeric)) return false;
    // Members in ascending order: against the constant, or against the
    // first numeric member.
    int first_numeric = -1;
    for (int e = 0; e < null_elem; ++e) {
      if (uf.Find(e) != root || sorts[e] != VarSort::kNumeric) continue;
      if (the_const != nullptr) {
        system.Add(LinearExpr::Var(e) - LinearExpr::Constant(*the_const),
                   Relop::kEq);
      } else if (first_numeric == -1) {
        first_numeric = e;
      } else {
        system.Add(LinearExpr::Var(e) - LinearExpr::Var(first_numeric),
                   Relop::kEq);
      }
    }
  }

  return FourierMotzkin::IsSatisfiableWithDisequalities(system, arith_diseqs);
}

}  // namespace

bool MaybeSatisfiable(const std::vector<CondPtr>& conjuncts,
                      const std::vector<VarSort>& sorts, int max_atoms) {
  std::vector<const Condition*> atoms;
  for (const CondPtr& c : conjuncts) {
    if (c == nullptr) continue;
    std::vector<const Condition*> local;
    c->CollectAtoms(&local);
    for (const Condition* a : local) {
      if (AtomIndex(*a, atoms) < 0) atoms.push_back(a);
    }
  }
  if (static_cast<int>(atoms.size()) > max_atoms) return true;  // unknown

  const uint32_t limit = 1u << atoms.size();
  for (uint32_t mask = 0; mask < limit; ++mask) {
    bool holds = true;
    for (const CondPtr& c : conjuncts) {
      if (c != nullptr && !EvalUnder(*c, atoms, mask)) {
        holds = false;
        break;
      }
    }
    if (!holds) continue;
    if (TheoryConsistent(atoms, mask, sorts)) return true;
  }
  return false;
}

}  // namespace has
