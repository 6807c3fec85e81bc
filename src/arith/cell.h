// Cells: sign conditions over a finite basis of linear polynomials
// (Appendix D.2/D.3). A cell assigns each basis polynomial a sign in
// {-1, 0, +1}, or leaves it unconstrained (kSignAny) when the
// polynomial's variables are out of scope. Non-empty cells are the
// symbolic arithmetic component of extended isomorphism types (§5).
#ifndef HAS_ARITH_CELL_H_
#define HAS_ARITH_CELL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "arith/fourier_motzkin.h"
#include "arith/linear.h"

namespace has {

using Sign = int8_t;
inline constexpr Sign kSignNeg = -1;
inline constexpr Sign kSignZero = 0;
inline constexpr Sign kSignPos = 1;
/// "Unconstrained": the polynomial is out of scope for this cell.
inline constexpr Sign kSignAny = 2;

/// A deduplicated list of linear polynomials over which cells are
/// formed. Polynomials are canonicalized up to positive scaling, and
/// each is also kept compiled as a dense row over the basis's columns
/// (FourierMotzkin::DenseSystem's layout), which the cell checks copy.
class PolyBasis {
 public:
  /// Adds (deduplicating) and returns the index of the polynomial.
  /// Constant polynomials are rejected (they induce no cell boundary).
  int Add(const LinearExpr& poly);

  int size() const { return static_cast<int>(polys_.size()); }
  const LinearExpr& poly(int i) const { return polys_[i]; }
  const std::vector<LinearExpr>& polys() const { return polys_; }

  /// Index of the polynomial equal to `poly` up to positive scaling,
  /// or -1. A negative scaling factor is reported via *negated so the
  /// caller can flip the sign it wants to assert.
  int Find(const LinearExpr& poly, bool* negated) const;

  /// Indices of polynomials all of whose variables lie in `vars`.
  std::vector<int> PolysOverVars(const std::vector<ArithVar>& vars) const;

  /// Every variable of the basis, ascending.
  const std::vector<ArithVar>& columns() const { return columns_; }
  /// Polynomial i as a dense row: its coefficient per column, then its
  /// constant (columns().size() + 1 entries).
  const Rational* row(int i) const {
    return rows_.data() + static_cast<size_t>(i) * (columns_.size() + 1);
  }

 private:
  /// Appends polynomial i's dense row over the current columns.
  void CompileRow(int i);

  std::vector<LinearExpr> polys_;  // canonical: leading coefficient +1
  std::vector<ArithVar> columns_;
  std::vector<Rational> rows_;
};

/// A (partial) sign vector over a PolyBasis.
class Cell {
 public:
  Cell() = default;
  explicit Cell(int basis_size) : signs_(basis_size, kSignAny) {}

  int size() const { return static_cast<int>(signs_.size()); }
  Sign sign(int poly) const { return signs_[poly]; }
  void set_sign(int poly, Sign s) { signs_[poly] = s; }

  bool operator==(const Cell& o) const { return signs_ == o.signs_; }

  /// The conjunction of constraints this cell denotes.
  LinearSystem ToSystem(const PolyBasis& basis) const;

  /// True iff some rational point satisfies the cell (and the extra
  /// system, if given).
  bool IsNonEmpty(const PolyBasis& basis) const;
  bool IsNonEmptyWith(const PolyBasis& basis,
                      const LinearSystem& extra) const;

  /// `this` refines `o` on the polynomial subset `polys`: wherever o is
  /// constrained, this carries the same sign.
  bool RefinesOn(const Cell& o, const std::vector<int>& polys) const;

  /// Copy with every polynomial outside `polys` reset to kSignAny.
  Cell RestrictTo(const std::vector<int>& polys) const;

  std::string ToString(const PolyBasis& basis) const;
  size_t Hash() const;

 private:
  std::vector<Sign> signs_;
};

struct CellHash {
  size_t operator()(const Cell& c) const { return c.Hash(); }
};

/// Enumerates every satisfiable completion of `partial` over the
/// polynomials `todo` (each receives a concrete sign in {-1,0,+1}),
/// subject to the extra linear system. Prunes with incremental
/// Fourier–Motzkin satisfiability checks on one dense system (the
/// basis's compiled rows for the fixed signs, plus the extra rows, over
/// the basis's columns and any extra variable); stops early if
/// `callback` returns false.
void EnumerateCells(const PolyBasis& basis, const Cell& partial,
                    const std::vector<int>& todo, const LinearSystem& extra,
                    const std::function<bool(const Cell&)>& callback);

/// Counts the satisfiable sign conditions over the whole basis; the
/// paper bounds this by (s·d)^O(k) (Theorem 62). Used by bench_cells.
int64_t CountNonEmptyCells(const PolyBasis& basis);

}  // namespace has

#endif  // HAS_ARITH_CELL_H_
