// Fourier–Motzkin elimination: exact satisfiability over Q and
// projection (quantifier elimination) for conjunctions of linear
// constraints. This instantiates, for the linear fragment, the
// Tarski–Seidenberg projection step the paper uses to build the
// Hierarchical Cell Decomposition (Section 5, Appendix D).
#ifndef HAS_ARITH_FOURIER_MOTZKIN_H_
#define HAS_ARITH_FOURIER_MOTZKIN_H_

#include <vector>

#include "arith/linear.h"
#include "common/status.h"

namespace has {

class FourierMotzkin {
 public:
  /// True iff the conjunction has a solution over Q.
  static bool IsSatisfiable(const LinearSystem& system);

  /// Existentially quantifies `var` out of `system`. The result holds of
  /// exactly the assignments of the remaining variables that extend to a
  /// solution of `system`.
  static LinearSystem Eliminate(const LinearSystem& system, ArithVar var);

  /// Eliminates every variable not in `keep` (∃-projection onto keep).
  static LinearSystem Project(const LinearSystem& system,
                              const std::vector<ArithVar>& keep);

  /// True iff `system` entails `constraint` (every solution of the
  /// system satisfies it). Decided as UNSAT(system ∧ ¬constraint);
  /// the negation of an equality is handled by convexity (two strict
  /// branches).
  static bool Entails(const LinearSystem& system,
                      const LinearConstraint& constraint);

  /// Satisfiability of a convex system together with disequalities
  /// (expr != 0 for each element of `disequalities`). Uses the fact
  /// that a convex set is contained in a finite union of hyperplanes
  /// iff it is contained in one of them.
  static bool IsSatisfiableWithDisequalities(
      const LinearSystem& system,
      const std::vector<LinearExpr>& disequalities);

 private:
  /// One elimination round; detects trivially-false constraints.
  /// Returns false in *feasible if a variable-free contradiction
  /// appeared.
  static LinearSystem EliminateImpl(const LinearSystem& system, ArithVar var,
                                    bool* feasible);

  /// Drops variable-free constraints, reporting contradictions.
  static LinearSystem SimplifyGround(LinearSystem system, bool* feasible);
};

}  // namespace has

#endif  // HAS_ARITH_FOURIER_MOTZKIN_H_
