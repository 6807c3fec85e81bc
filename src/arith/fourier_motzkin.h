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
  /// A conjunction of linear constraints as dense rows over fixed
  /// columns (the caller's variables, ascending): a row holds one
  /// coefficient per column, then its constant, and reads
  /// `row (op) 0`. IsSatisfiable decides the rows on scratch the system
  /// keeps, and leaves them in place, so a caller can add rows, check
  /// and truncate back without rebuilding the rest.
  class DenseSystem {
   public:
    /// Drops every row and sets the number of columns.
    void Reset(int columns);
    int columns() const { return rows_.width - 1; }
    size_t rows() const { return rows_.ops.size(); }

    /// Appends the all-zero row `0 (op) 0` and returns it for filling;
    /// the pointer is valid until the next change to the system.
    Rational* AddRow(Relop op);
    /// Appends `e (op) 0`, or `-e (op) 0` if `negate`; every variable
    /// of e must be one of `columns`, the system's columns.
    void AddExpr(const std::vector<ArithVar>& columns, const LinearExpr& e,
                 Relop op, bool negate);
    /// Drops every row past the first `rows`.
    void Truncate(size_t rows);
    /// Row r: columns() coefficients, then the constant.
    const Rational* row(size_t r) const { return rows_.row(r); }

    /// True iff the rows have a common solution over Q. Eliminates the
    /// columns in ascending order (an equality with the column
    /// substitutes it away; otherwise every lower bound meets every
    /// upper bound) on a copy of the rows.
    bool IsSatisfiable();

   private:
    struct Rows {
      int width = 1;  // columns + 1 (the constant)
      std::vector<Rational> cells;
      std::vector<Relop> ops;

      Rational* row(size_t r) { return cells.data() + r * width; }
      const Rational* row(size_t r) const { return cells.data() + r * width; }
    };

    /// Checks and drops the rows whose coefficients are all zero; false
    /// if one of them fails.
    static bool DropGround(Rows* sys);
    /// Decides *sys, consuming it; *next is scratch.
    static bool Decide(Rows* sys, Rows* next);

    Rows rows_;
    Rows work_;
    Rows next_;
  };

  /// True iff the conjunction has a solution over Q. Decided on dense
  /// rows over the system's variables (DenseSystem).
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
