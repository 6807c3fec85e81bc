#include <algorithm>
#include <cstdint>
#include <functional>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "arith/cell.h"
#include "arith/fourier_motzkin.h"
#include "arith/hcd.h"

namespace has {
namespace {

LinearExpr Expr(std::vector<std::pair<int, int>> terms, int constant) {
  LinearExpr e;
  for (auto [v, c] : terms) e.AddTerm(v, Rational(c));
  e.AddConstant(Rational(constant));
  return e;
}

TEST(PolyBasisTest, DeduplicatesUpToScaling) {
  PolyBasis basis;
  int a = basis.Add(Expr({{0, 1}, {1, -1}}, 0));      // x - y
  int b = basis.Add(Expr({{0, 2}, {1, -2}}, 0));      // 2x - 2y
  int c = basis.Add(Expr({{0, -1}, {1, 1}}, 0));      // y - x
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);  // same hyperplane direction after canonicalization
  EXPECT_EQ(basis.size(), 1);
  bool negated = false;
  EXPECT_EQ(basis.Find(Expr({{0, -3}, {1, 3}}, 0), &negated), a);
  EXPECT_TRUE(negated);
}

TEST(CellTest, OneLineThreeCells) {
  PolyBasis basis;
  basis.Add(Expr({{0, 1}}, 0));  // x
  EXPECT_EQ(CountNonEmptyCells(basis), 3);  // x<0, x=0, x>0
}

TEST(CellTest, TwoParallelLinesFiveCells) {
  PolyBasis basis;
  basis.Add(Expr({{0, 1}}, 0));    // x
  basis.Add(Expr({{0, 1}}, -1));   // x - 1
  // cells: x<0 | x=0 | 0<x<1 | x=1 | x>1  (combinations like x<0 ∧ x=1
  // are pruned as empty)
  EXPECT_EQ(CountNonEmptyCells(basis), 5);
}

TEST(CellTest, TwoCrossingLinesNineCells) {
  PolyBasis basis;
  basis.Add(Expr({{0, 1}}, 0));  // x
  basis.Add(Expr({{1, 1}}, 0));  // y
  EXPECT_EQ(CountNonEmptyCells(basis), 9);
}

TEST(CellTest, RefinementAndRestriction) {
  PolyBasis basis;
  int p = basis.Add(Expr({{0, 1}}, 0));
  int q = basis.Add(Expr({{1, 1}}, 0));
  Cell full(2);
  full.set_sign(p, kSignPos);
  full.set_sign(q, kSignNeg);
  Cell partial(2);
  partial.set_sign(p, kSignPos);
  EXPECT_TRUE(full.RefinesOn(partial, {p, q}));
  EXPECT_FALSE(partial.RefinesOn(full, {p, q}));
  Cell restricted = full.RestrictTo({p});
  EXPECT_EQ(restricted.sign(q), kSignAny);
  EXPECT_EQ(restricted.sign(p), kSignPos);
}

TEST(CellTest, NonEmptinessWithExtraSystem) {
  PolyBasis basis;
  int p = basis.Add(Expr({{0, 1}}, 0));  // x
  Cell cell(1);
  cell.set_sign(p, kSignPos);  // x > 0
  LinearSystem extra;
  extra.Add(Expr({{0, 1}}, 1), Relop::kLe);  // x <= -1
  EXPECT_TRUE(cell.IsNonEmpty(basis));
  EXPECT_FALSE(cell.IsNonEmptyWith(basis, extra));
}

/// EnumerateCells as it was before the dense system: every candidate
/// checked with FourierMotzkin::IsSatisfiable(ToSystem + extra).
void EnumerateBySystemChecks(const PolyBasis& basis, const Cell& partial,
                             const std::vector<int>& todo,
                             const LinearSystem& extra,
                             const std::function<bool(const Cell&)>& callback) {
  Cell cur = partial;
  std::function<bool(size_t)> rec = [&](size_t index) -> bool {
    if (index == todo.size()) return callback(cur);
    const int poly = todo[index];
    if (cur.sign(poly) != kSignAny) return rec(index + 1);
    for (Sign s : {kSignNeg, kSignZero, kSignPos}) {
      cur.set_sign(poly, s);
      LinearSystem check = cur.ToSystem(basis);
      check.Append(extra);
      if (FourierMotzkin::IsSatisfiable(check) && !rec(index + 1)) {
        cur.set_sign(poly, kSignAny);
        return false;
      }
    }
    cur.set_sign(poly, kSignAny);
    return true;
  };
  rec(0);
}

TEST(CellTest, DenseEnumerationMatchesSystemChecks) {
  // Random bases (2-4 variables, up to 5 polynomials, coefficients
  // beyond int64), partial cells, todo lists and extra equalities, some
  // over a variable outside the basis: the dense EnumerateCells and
  // IsNonEmptyWith must return what the LinearSystem checks return, in
  // the same order, also when the callback stops early.
  std::mt19937 rng(34);
  std::uniform_int_distribution<int> small(-2, 2);
  std::uniform_int_distribution<int> pick(0, 9);
  const Rational huge(BigInt(int64_t{1} << 62) * BigInt(3), BigInt(1));
  size_t cells_seen = 0, widened = 0, emptied = 0;
  for (int round = 0; round < 600; ++round) {
    const int vars = 2 + pick(rng) % 3;
    auto random_expr = [&](int num_vars) {
      LinearExpr e;
      for (int v = 0; v < num_vars; ++v) {
        if (pick(rng) < 4) continue;
        Rational a(small(rng));
        if (pick(rng) == 0) a = a * huge;
        e.AddTerm(2 * v, a);  // scattered ids
      }
      e.AddConstant(Rational(small(rng)));
      return e;
    };
    PolyBasis basis;
    for (int p = 1 + pick(rng) % 5; p > 0; --p) {
      LinearExpr e = random_expr(vars);
      if (!e.IsConstant()) basis.Add(e);
    }
    if (basis.size() == 0) continue;
    Cell partial(basis.size());
    std::vector<int> todo;
    for (int p = 0; p < basis.size(); ++p) {
      if (pick(rng) < 3) {
        partial.set_sign(p, static_cast<Sign>(pick(rng) % 3 - 1));
      }
      if (pick(rng) < 8) todo.push_back(p);
    }
    LinearSystem extra;
    for (int k = pick(rng) % 3; k > 0; --k) {
      LinearExpr e = random_expr(vars + 1);  // may add a column
      if (pick(rng) < 3) e.AddTerm(2 * vars + 1, Rational(1));
      if (!e.IsConstant()) extra.Add(std::move(e), Relop::kEq);
    }
    for (const ArithVar v : extra.Vars()) {
      widened += !std::binary_search(basis.columns().begin(),
                                     basis.columns().end(), v);
    }
    const size_t stop = pick(rng) < 3 ? 1 + pick(rng) % 4 : SIZE_MAX;
    std::vector<Cell> want, got;
    EnumerateBySystemChecks(basis, partial, todo, extra, [&](const Cell& c) {
      want.push_back(c);
      return want.size() < stop;
    });
    EnumerateCells(basis, partial, todo, extra, [&](const Cell& c) {
      got.push_back(c);
      return got.size() < stop;
    });
    ASSERT_EQ(got.size(), want.size()) << partial.ToString(basis);
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_TRUE(got[i] == want[i])
          << got[i].ToString(basis) << " vs " << want[i].ToString(basis);
    }
    // A cell that took no check (no todo position was open) may be
    // empty; IsNonEmptyWith must agree with the system check either way.
    want.push_back(partial);
    for (const Cell& c : want) {
      LinearSystem check = c.ToSystem(basis);
      check.Append(extra);
      ASSERT_EQ(c.IsNonEmptyWith(basis, extra),
                FourierMotzkin::IsSatisfiable(check))
          << c.ToString(basis);
    }
    want.pop_back();
    cells_seen += want.size();
    emptied += want.empty();
  }
  EXPECT_GT(cells_seen, 1000u);
  EXPECT_GT(widened, 20u);
  EXPECT_GT(emptied, 10u);
}

TEST(HcdTest, ArrangementProjectionCoversCombination) {
  // Child polys: x - z and z - y (z local). Projection must contain the
  // combination x - y.
  std::vector<LinearExpr> polys = {Expr({{0, 1}, {2, -1}}, 0),
                                   Expr({{2, 1}, {1, -1}}, 0)};
  std::vector<LinearExpr> projected = ProjectArrangement(polys, 2);
  ASSERT_EQ(projected.size(), 1u);
  PolyBasis check;
  check.Add(projected[0]);
  bool negated = false;
  EXPECT_NE(check.Find(Expr({{0, 1}, {1, -1}}, 0), &negated), -1);
}

TEST(HcdTest, BuildPropagatesChildPolys) {
  // Node 1 (child) constrains its local variable 0 against shared
  // variable 1; shared maps to parent variable 0.
  std::vector<HcdNode> nodes(2);
  nodes[0].children = {1};
  nodes[0].child_var_to_parent = {{{1, 0}}};
  nodes[1].own_polys = {Expr({{0, 1}, {1, -1}}, 0),   // local - shared
                        Expr({{0, 1}}, -5)};          // local - 5
  Hcd hcd = Hcd::Build(nodes, 0);
  // Eliminating the child-local variable combines the two into
  // shared - 5, renamed to parent var 0.
  bool negated = false;
  EXPECT_NE(hcd.basis(0).Find(Expr({{0, 1}}, -5), &negated), -1);
  EXPECT_GE(hcd.TotalPolys(), 3);
}

class CellCountSweep : public ::testing::TestWithParam<int> {};

TEST_P(CellCountSweep, MatchesArrangementFormulaInOneDim) {
  // n distinct points on a line make 2n + 1 cells.
  const int n = GetParam();
  PolyBasis basis;
  for (int i = 0; i < n; ++i) basis.Add(Expr({{0, 1}}, -i));
  EXPECT_EQ(CountNonEmptyCells(basis), 2 * n + 1);
}

INSTANTIATE_TEST_SUITE_P(Lines, CellCountSweep, ::testing::Range(1, 6));

}  // namespace
}  // namespace has
