// Linear expressions and constraints over integer-indexed rational
// variables. This is the arithmetic fragment of Section 5 in its
// explicitly sanctioned linear variant: constraints are linear
// inequalities with integer (here: rational) coefficients over Q.
#ifndef HAS_ARITH_LINEAR_H_
#define HAS_ARITH_LINEAR_H_

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "arith/rational.h"

namespace has {

/// Index of an arithmetic variable. The owner of a LinearSystem decides
/// what the indices mean (the verifier maps task numeric variables and
/// numeric navigation expressions onto them).
using ArithVar = int;

/// A linear expression sum_i coef_i * x_i + constant. The terms are one
/// flat vector of (var, coef) pairs, sorted by ascending var, with no
/// zero coefficient (debug builds assert both after every change).
class LinearExpr {
 public:
  using Terms = std::vector<std::pair<ArithVar, Rational>>;

  LinearExpr() = default;
  explicit LinearExpr(Rational constant) : constant_(std::move(constant)) {}

  static LinearExpr Var(ArithVar v) {
    LinearExpr e;
    e.coefs_.emplace_back(v, Rational(1));
    return e;
  }
  static LinearExpr Constant(Rational c) { return LinearExpr(std::move(c)); }

  const Terms& coefs() const { return coefs_; }
  const Rational& constant() const { return constant_; }

  Rational Coef(ArithVar v) const;
  bool IsConstant() const { return coefs_.empty(); }

  void AddTerm(ArithVar v, const Rational& coef);
  void AddConstant(const Rational& c) { constant_ += c; }

  LinearExpr operator+(const LinearExpr& o) const;
  LinearExpr operator-(const LinearExpr& o) const;
  LinearExpr operator*(const Rational& scalar) const;
  LinearExpr operator-() const { return *this * Rational(-1); }

  bool operator==(const LinearExpr& o) const {
    return coefs_ == o.coefs_ && constant_ == o.constant_;
  }

  /// Replaces variable v by the expression `replacement`.
  LinearExpr Substitute(ArithVar v, const LinearExpr& replacement) const;

  /// Renames variables via `map` (variables absent from the map keep
  /// their index).
  LinearExpr Rename(const std::map<ArithVar, ArithVar>& map) const;

  /// Evaluates given a variable assignment.
  Rational Eval(const std::function<Rational(ArithVar)>& assignment) const;

  /// All variables with non-zero coefficient.
  std::vector<ArithVar> Vars() const;

  std::string ToString() const;
  size_t Hash() const;

 private:
  /// Asserts the sorted, zero-free form (no-op under NDEBUG).
  void CheckTerms() const;

  Terms coefs_;
  Rational constant_;
};

/// Comparison operators for constraints `expr op 0`.
enum class Relop { kLt, kLe, kEq };

const char* RelopName(Relop op);

struct LinearConstraint {
  LinearExpr expr;
  Relop op = Relop::kLe;

  bool operator==(const LinearConstraint& o) const {
    return op == o.op && expr == o.expr;
  }
  std::string ToString() const;
};

/// A conjunction of linear constraints (a convex set, possibly not
/// closed). Sign conditions of the paper's cells are exactly such
/// systems in the linear fragment.
class LinearSystem {
 public:
  LinearSystem() = default;

  void Add(LinearConstraint c) { constraints_.push_back(std::move(c)); }
  void Add(LinearExpr expr, Relop op) {
    constraints_.push_back(LinearConstraint{std::move(expr), op});
  }
  void Append(const LinearSystem& o);
  void Reserve(size_t n) { constraints_.reserve(n); }

  const std::vector<LinearConstraint>& constraints() const {
    return constraints_;
  }
  std::vector<LinearConstraint>* mutable_constraints() {
    return &constraints_;
  }
  bool empty() const { return constraints_.empty(); }
  size_t size() const { return constraints_.size(); }

  /// Same constraints in the same order.
  bool operator==(const LinearSystem& o) const {
    return constraints_ == o.constraints_;
  }
  size_t Hash() const;

  LinearSystem Rename(const std::map<ArithVar, ArithVar>& map) const;

  /// All variables mentioned.
  std::vector<ArithVar> Vars() const;

  std::string ToString() const;

 private:
  std::vector<LinearConstraint> constraints_;
};

}  // namespace has

#endif  // HAS_ARITH_LINEAR_H_
