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
//
// The layout is flat: one table holds each element together with its
// union-find parent and, on class representatives, the class tags;
// disequalities and negative atoms are records in one int array, and
// constants live in a table of distinct values that copies share.
// Copying a type copies at most two contiguous arrays, and queries,
// encodings and rebuilds allocate nothing beyond the type they return.
#ifndef HAS_CORE_ISO_TYPE_H_
#define HAS_CORE_ISO_TYPE_H_

#include <map>
#include <memory>
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

/// An element of the type's universe: a fixed-size record for any
/// navigation depth. A navigation element x_R.w.A names its path by the
/// element it extends (`prefix`: the element of x_R.w, or the variable
/// element of x when w is empty) and its last attribute A; prefixes
/// always precede their extensions in the type's element order.
struct IsoElement {
  enum class Kind : uint8_t { kNull, kConst, kVar, kNav };

  Kind kind = Kind::kNull;
  /// kNav: some attribute on the path is numeric (the element holds a
  /// number, not an ID).
  bool numeric = false;
  int depth = 0;                      ///< path length (kNav, >= 1)
  int var = -1;                       ///< base variable (kVar/kNav)
  RelationId relation = kNoRelation;  ///< anchor relation of kNav roots
  int prefix = -1;                    ///< kNav: the element extended
  AttrId attr = -1;                   ///< kNav: the path's last attribute
  /// kNav: the relation the path's foreign keys lead to.
  RelationId target = kNoRelation;
  int value = -1;  ///< kConst: index into the type's constant table
};

/// Sort of an element or class.
struct IsoSort {
  enum class Kind : uint8_t { kUnknownId, kId, kNumeric, kNull };
  Kind kind = Kind::kUnknownId;
  RelationId relation = kNoRelation;  ///< for kId
};

/// A canonical encoding (PartialIsoType::CanonicalEncode) plus the
/// encoder's working buffers. Exact rational values are kept beside the
/// int64 tokens because they do not embed into them. An encoding that
/// is reused allocates nothing once its buffers have grown.
struct CanonicalEncoding {
  std::vector<int64_t> tokens;
  std::vector<Rational> consts;

  // --- encoder scratch ---------------------------------------------------
  std::vector<int> order;  ///< element ids in canonical order
  std::vector<int> label;  ///< canonical class label, by representative
  std::vector<std::pair<int, int>> dis;
  /// Negative atoms as (relation, labels...) records, and their
  /// [begin, end) ranges in `neg_tokens`.
  std::vector<int64_t> neg_tokens;
  std::vector<std::pair<uint32_t, uint32_t>> negs;
};

/// Hash of a canonical encoding; shared by PartialIsoType::CanonicalHash
/// and the TypePool so the two can never drift apart.
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
  int NullElement();
  int ConstElement(const Rational& value);
  int VarElement(int var);
  /// Navigation child of element `parent` by attribute `attr`; requires
  /// the parent class to be anchored. Returns -1 if the resulting path
  /// would exceed the depth bound.
  int NavChild(int parent, AttrId attr);

  int num_elements() const { return static_cast<int>(nodes_.size()); }
  const IsoElement& element(int e) const { return nodes_[e].el; }

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
  /// types canonicalize identically. An element is unconstrained when
  /// it is not a variable, sits alone in its class, appears in no
  /// disequality or negative atom, and has no navigation children left;
  /// dropping one never constrains another, so the drop set is decided
  /// in one pass (leaves first) and the type is rebuilt once.
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
  /// labelling as Signature, without materializing a string) into
  /// `out->tokens` and `out->consts`, which are cleared first: equal
  /// encodings iff equal Signature()s. Exact rational values go to
  /// `consts` in canonical order.
  void CanonicalEncode(CanonicalEncoding* out) const;
  /// Hash of the canonical encoding (HashCanonicalEncoding of the
  /// CanonicalEncode output); collisions are resolved by
  /// CanonicalEquals.
  size_t CanonicalHash() const;
  /// Structural equality of canonical encodings; coincides with
  /// Signature() equality.
  bool CanonicalEquals(const PartialIsoType& other) const;

  /// Projection onto `vars` (keeping navigation up to `depth`):
  /// existentially forgets everything else. The result is normalized.
  PartialIsoType Project(const std::set<int>& vars, int depth) const;

  /// Rebuilds with base variables renamed through `map`, which must be
  /// injective (elements whose base variable is not in the map are
  /// dropped); the result lives in scope `new_scope` and is normalized.
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

  /// One element plus its class data.
  struct Node {
    IsoElement el;
    mutable int parent = 0;  // union-find (path compression)
    // Class tags; meaningful on representatives only (moved on union).
    RelationId anchor = kNoRelation;
    int const_tag = -1;  ///< index into consts_
    bool null_tag = false;
  };

  /// Interns an element; returns its index.
  int AddElement(const IsoElement& e);
  /// Index of `value` in consts_, appending it on first sight.
  int ConstIndex(const Rational& value);
  const Rational& Const(int index) const { return (*consts_)[index]; }
  /// The null / constant element, or -1 if the type has none.
  int FindNull() const;
  int FindConst(const Rational& value) const;
  /// Canonical element order (IsoElement fields, then the path
  /// lexicographically, then the constant's value).
  bool ElementLess(int a, int b) const;
  /// Lexicographic comparison of two navigation paths (<0, 0, >0).
  int ComparePaths(int a, int b) const;
  int CompareEqualDepth(int a, int b) const;
  /// Writes element e's path, root first, to out[0, depth).
  void WritePath(int e, int64_t* out) const;
  std::string ElementString(int e) const;
  const Rational* ConstTag(int e) const;

  int Find(int e) const;
  bool Union(int a, int b);
  /// Clears, among the elements `keep` selects, those Normalize would
  /// drop from the type restricted to the selection.
  void DropUnconstrained(uint8_t* keep) const;
  /// Copies the elements `keep` selects, and every constraint among
  /// them, into a fresh type over `scope`, renaming base variables
  /// through `rename` (nullable; injective). A kept navigation element's
  /// prefix must be kept too.
  PartialIsoType Rebuild(const uint8_t* keep, const std::map<int, int>* rename,
                         const VarScope* scope) const;
  /// Congruence + tag closure; false on contradiction.
  bool Close();
  /// Checks recorded disequalities and negative atoms; false if any is
  /// violated.
  bool CheckConstraints() const;
  /// Truth of R(args) from the positive facts only.
  Truth EvalRelAtom(RelationId r, const int* args, int num_args) const;
  /// Calls fn(tag, args, arity) for every constraint record, in order;
  /// stops early when fn returns true, and returns whether it did.
  template <typename Fn>
  bool AnyConstraint(const Fn& fn) const;
  /// The same over disequalities, as fn(a, b), and over negative atoms,
  /// as fn(relation, args, arity).
  template <typename Fn>
  bool AnyDisequality(const Fn& fn) const;
  template <typename Fn>
  bool AnyNegAtom(const Fn& fn) const;
  void AddConstraint(int tag, const int* args, int arity);

  const DatabaseSchema* schema_ = nullptr;
  const VarScope* scope_ = nullptr;
  int max_depth_ = 0;
  std::vector<Node> nodes_;
  /// The distinct constant values, shared by a type and its copies and
  /// never modified (ConstIndex extends a copy); null while there are
  /// none.
  std::shared_ptr<const std::vector<Rational>> consts_;
  /// Disequalities and negative atoms, as flat records (tag, arity,
  /// argument elements): a ≠ b is (kDisequality, 2, a, b), and ¬R(args)
  /// is (R, arity, args in R's attribute order).
  static constexpr int kDisequality = -2;  // relation ids are >= 0
  std::vector<int> constraints_;
};

}  // namespace has

#endif  // HAS_CORE_ISO_TYPE_H_
