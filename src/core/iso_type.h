// Partial T-isomorphism types — the symbolic representation of Section
// 4.1 in the constraint-based (partial) form pioneered by the authors'
// VERIFAS prototype. A type tracks, over a dynamically created universe
// of elements (variables, navigation expressions x_R.w, the constants
// null and numeric literals):
//   - an equivalence relation (union-find) with downward congruence
//     closure: e ~ f implies e.A ~ f.A (the key dependency of Def. 15);
//   - explicit disequalities;
//   - per-class tags: null, relation anchor (the class holds IDs of a
//     specific relation), numeric constant;
//   - recorded NEGATIVE relation atoms (¬R(x, ȳ)), checked against the
//     positive facts on every refinement.
// Atoms of the task's services and of the property are decided eagerly
// by the successor relation (core/successor.cc); canonicalization keys
// types for interning, counters and memoization.
#ifndef HAS_CORE_ISO_TYPE_H_
#define HAS_CORE_ISO_TYPE_H_

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "expr/condition.h"
#include "schema/schema.h"

namespace has {

/// Three-valued truth for symbolic condition evaluation.
enum class Truth : uint8_t { kFalse, kTrue, kUnknown };

Truth TruthAnd(Truth a, Truth b);
Truth TruthOr(Truth a, Truth b);
Truth TruthNot(Truth a);

/// An element of the type's universe.
struct IsoElement {
  enum class Kind : uint8_t { kNull, kConst, kVar, kNav };

  Kind kind = Kind::kNull;
  int var = -1;               ///< base variable (kVar/kNav)
  RelationId relation = kNoRelation;  ///< anchor relation of kNav roots
  std::vector<AttrId> path;   ///< navigation path (kNav, non-empty)
  Rational value;             ///< kConst

  bool operator==(const IsoElement& o) const {
    return kind == o.kind && var == o.var && relation == o.relation &&
           path == o.path && value == o.value;
  }
  bool operator<(const IsoElement& o) const;
  std::string ToString(const VarScope* scope) const;
};

/// Sort of an element or class.
struct IsoSort {
  enum class Kind : uint8_t { kUnknownId, kId, kNumeric, kNull };
  Kind kind = Kind::kUnknownId;
  RelationId relation = kNoRelation;  ///< for kId
};

/// Hash of a canonical encoding (the CanonicalEncode output pair);
/// shared by PartialIsoType::CanonicalHash and the TypePool so the two
/// can never drift apart.
size_t HashCanonicalEncoding(const std::vector<int64_t>& tokens,
                             const std::vector<Rational>& consts);

class PartialIsoType {
 public:
  /// Empty shell (no scope); only useful as a placeholder to assign
  /// into.
  PartialIsoType() = default;

  /// An empty type over a task scope. The schema pointer is retained
  /// for navigation sorts.
  PartialIsoType(const DatabaseSchema* schema, const VarScope* scope,
                 int max_depth);

  // --- element management ---------------------------------------------
  /// Interns an element; returns its index.
  int AddElement(const IsoElement& e);
  int NullElement();
  int ConstElement(const Rational& value);
  int VarElement(int var);
  /// Navigation child of element `parent` by attribute `attr`; requires
  /// the parent class to be anchored. Returns -1 if the resulting path
  /// would exceed the depth bound.
  int NavChild(int parent, AttrId attr);

  int num_elements() const { return static_cast<int>(elements_.size()); }
  const IsoElement& element(int e) const { return elements_[e]; }

  // --- assertions (refinements); false = contradiction -----------------
  bool AssertEq(int a, int b);
  bool AssertNeq(int a, int b);
  /// Anchors the class of element e at relation r (the class holds IDs
  /// of r).
  bool AssertAnchor(int e, RelationId r);

  /// Decides an atomic condition (kEq / kRel / kArith-constant) to the
  /// given truth value. Non-constant arithmetic atoms are the cell
  /// component's business and are rejected here.
  bool DecideAtom(const Condition& atom, bool value);

  // --- queries ----------------------------------------------------------
  bool Same(int a, int b) const;
  Truth EvalAtom(const Condition& atom) const;
  /// Three-valued evaluation of an arbitrary condition, using only the
  /// equality component (arith atoms beyond constant tags evaluate to
  /// kUnknown and must be handled by the cell component).
  Truth Eval(const Condition& cond) const;

  /// The class sort of element e.
  IsoSort SortOf(int e) const;
  bool IsNullTagged(int e) const;
  std::optional<RelationId> AnchorOf(int e) const;
  std::optional<Rational> ConstOf(int e) const;

  /// True iff the class of `e` contains an element whose base variable
  /// is in `vars` (used for the input-bound test of Section 4.1).
  bool ClassTouchesVars(int e, const std::set<int>& vars) const;

  /// Const lookup of the variable's element; -1 if never constrained.
  int LookupVar(int var) const;
  /// True iff the variable is constrained to be null (false when the
  /// variable has no element yet).
  bool VarIsNull(int var) const;

  // --- structural operations -------------------------------------------
  /// Drops unconstrained navigation elements so that semantically equal
  /// types canonicalize identically.
  void Normalize();

  /// Flattens the union-find so every element points directly at its
  /// class representative. The TypePool flattens canonical instances
  /// before pooling them: on a flattened type, Find()'s path
  /// compression never writes, so const queries on a pooled instance
  /// leave it untouched.
  void CompressPaths();

  /// Canonical signature (after Normalize); equal signatures iff equal
  /// constraint sets. Retained for printing and debug assertions — the
  /// hot paths key on TypePool ids built from CanonicalEncode below.
  std::string Signature() const;

  /// Canonical integer encoding (same canonical element order and class
  /// labelling as Signature, without materializing a string): equal
  /// (tokens, consts) pairs iff equal Signature()s. Exact rational
  /// values are appended to `consts` in canonical order because they do
  /// not embed into int64.
  void CanonicalEncode(std::vector<int64_t>* tokens,
                       std::vector<Rational>* consts) const;
  /// Hash of the canonical encoding (HashCanonicalEncoding of the
  /// CanonicalEncode output); collisions are resolved by
  /// CanonicalEquals.
  size_t CanonicalHash() const;
  /// Structural equality of canonical encodings; coincides with
  /// Signature() equality.
  bool CanonicalEquals(const PartialIsoType& other) const;

  /// Projection onto `vars` (keeping navigation up to `depth`):
  /// existentially forgets everything else.
  PartialIsoType Project(const std::set<int>& vars, int depth) const;

  /// Rebuilds with base variables renamed through `map` (elements whose
  /// base variable is not in the map are dropped); the result lives in
  /// scope `new_scope`.
  PartialIsoType Rename(const std::map<int, int>& map,
                        const VarScope* new_scope) const;

  /// Conjoins all constraints of `other` (same scope) into this type;
  /// false on contradiction.
  bool MergeFrom(const PartialIsoType& other);

  /// Forgets everything about variable v (used when a service
  /// overwrites a non-input variable): v's elements and their
  /// navigation children are dropped.
  void ForgetVar(int v);

  std::string ToString() const;

  const VarScope* scope() const { return scope_; }
  int max_depth() const { return max_depth_; }

 private:
  friend class IsoTypeTestPeer;

  struct NegAtom {
    RelationId relation = kNoRelation;
    std::vector<int> args;  ///< element indices, relation attr order
  };

  int Find(int e) const;
  bool Union(int a, int b);
  /// Copies the sub-structure selected by `keep` into a fresh type.
  PartialIsoType Rebuild(const std::vector<bool>& keep) const;
  /// Congruence + tag closure; false on contradiction.
  bool Close();
  /// Checks recorded disequalities and negative atoms; false if any is
  /// violated.
  bool CheckConstraints() const;
  /// True iff a recorded negative atom is violated by the positives.
  bool NegAtomViolated(const NegAtom& n) const;
  std::vector<int> ClassMembers(int rep) const;
  /// Truth of R(args) from the positive facts only.
  Truth EvalRelAtom(RelationId r, const std::vector<int>& arg_elems) const;

  const DatabaseSchema* schema_ = nullptr;
  const VarScope* scope_ = nullptr;
  int max_depth_ = 0;
  std::vector<IsoElement> elements_;
  mutable std::vector<int> parent_;  // union-find (path compression)
  // Per-representative tags (moved on union).
  std::map<int, RelationId> anchor_;
  std::set<int> null_tag_;
  std::map<int, Rational> const_tag_;
  std::vector<std::pair<int, int>> disequalities_;  // element pairs
  std::vector<NegAtom> neg_atoms_;
};

}  // namespace has

#endif  // HAS_CORE_ISO_TYPE_H_
