// Quantifier-free FO conditions over DB ∪ C ∪ {=} (Section 2). Atoms:
//   - equalities between artifact variables, null, and numeric constants;
//   - relation atoms R(x, a1, ..., ak) whose arguments follow the
//     relation's attribute order (ID variable first);
//   - arithmetic atoms: linear constraints over numeric variables.
// Conditions are immutable trees shared by shared_ptr; services and
// properties hold them by CondPtr.
#ifndef HAS_EXPR_CONDITION_H_
#define HAS_EXPR_CONDITION_H_

#include <memory>
#include <string>
#include <vector>

#include "arith/linear.h"
#include "common/status.h"
#include "schema/schema.h"

namespace has {

enum class VarSort : uint8_t { kId, kNumeric };

struct VarInfo {
  std::string name;
  VarSort sort = VarSort::kId;
};

/// A task's artifact-variable declarations; conditions refer to
/// variables by index into a VarScope.
class VarScope {
 public:
  int AddVar(std::string name, VarSort sort);
  int size() const { return static_cast<int>(vars_.size()); }
  const VarInfo& var(int v) const { return vars_[v]; }
  /// Index by name, or -1.
  int Find(const std::string& name) const;
  std::vector<int> IdVars() const;
  std::vector<int> NumericVars() const;

 private:
  std::vector<VarInfo> vars_;
};

/// A term of an equality atom.
struct Term {
  enum class Kind : uint8_t { kVar, kNull, kConst };
  Kind kind = Kind::kNull;
  int var = -1;        // for kVar
  Rational value;      // for kConst

  static Term Var(int v) { return Term{Kind::kVar, v, Rational(0)}; }
  static Term Null() { return Term{Kind::kNull, -1, Rational(0)}; }
  static Term Const(Rational r) { return Term{Kind::kConst, -1, std::move(r)}; }

  bool operator==(const Term& o) const {
    return kind == o.kind && var == o.var && value == o.value;
  }
};

enum class CondKind : uint8_t {
  kTrue,
  kFalse,
  kEq,     ///< term = term
  kRel,    ///< R(args...) with args indexing variables per attribute
  kArith,  ///< linear constraint over numeric variables
  kNot,
  kAnd,
  kOr,
};

class Condition;
using CondPtr = std::shared_ptr<const Condition>;

class Condition {
 public:
  static CondPtr True();
  static CondPtr False();
  static CondPtr Eq(Term lhs, Term rhs);
  /// Convenience: var == var.
  static CondPtr VarEq(int a, int b) { return Eq(Term::Var(a), Term::Var(b)); }
  /// Convenience: var == null.
  static CondPtr IsNull(int v) { return Eq(Term::Var(v), Term::Null()); }
  static CondPtr Rel(RelationId relation, std::vector<int> args);
  static CondPtr Arith(LinearConstraint constraint);
  static CondPtr Not(CondPtr c);
  static CondPtr And(CondPtr a, CondPtr b);
  static CondPtr Or(CondPtr a, CondPtr b);
  static CondPtr AndAll(const std::vector<CondPtr>& cs);

  CondKind kind() const { return kind_; }

  // Accessors (valid for the matching kind only).
  const Term& lhs() const { return lhs_; }
  const Term& rhs() const { return rhs_; }
  RelationId relation() const { return relation_; }
  const std::vector<int>& args() const { return args_; }
  const LinearConstraint& constraint() const { return constraint_; }
  const CondPtr& child(int i) const { return children_[i]; }
  int num_children() const { return static_cast<int>(children_.size()); }

  bool IsAtom() const {
    return kind_ == CondKind::kEq || kind_ == CondKind::kRel ||
           kind_ == CondKind::kArith;
  }

  /// Structural equality (used to deduplicate decided atoms).
  bool Equals(const Condition& o) const;
  /// Structural hash, computed once at construction (children first).
  size_t Hash() const { return hash_; }

  /// All distinct atoms of the condition, in first-occurrence order.
  void CollectAtoms(std::vector<const Condition*>* out) const;

  /// All variables mentioned.
  void CollectVars(std::vector<int>* out) const;

  /// Rebuilds the condition with variables renamed by `map` (identity
  /// where the function returns the same index).
  CondPtr MapVars(const std::vector<int>& map) const;

  /// Checks sorts and arities against scope/schema.
  Status CheckWellFormed(const VarScope& scope,
                         const DatabaseSchema& schema) const;

  /// True iff the condition contains an arithmetic atom that is more
  /// than a constant-equality (drives the with/without-arithmetic
  /// verifier mode).
  bool UsesArithmetic() const;

  std::string ToString(const VarScope& scope,
                       const DatabaseSchema* schema) const;

 private:
  Condition() = default;
  static std::shared_ptr<Condition> New();
  /// Computes hash_ from the finished node; every factory ends with it.
  void Seal();

  CondKind kind_ = CondKind::kTrue;
  Term lhs_, rhs_;
  RelationId relation_ = kNoRelation;
  std::vector<int> args_;
  LinearConstraint constraint_;
  std::vector<CondPtr> children_;
  size_t hash_ = 0;
};

}  // namespace has

#endif  // HAS_EXPR_CONDITION_H_
