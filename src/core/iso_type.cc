#include "core/iso_type.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "common/hashing.h"
#include "common/status.h"
#include "common/strings.h"

namespace has {

Truth TruthAnd(Truth a, Truth b) {
  if (a == Truth::kFalse || b == Truth::kFalse) return Truth::kFalse;
  if (a == Truth::kTrue && b == Truth::kTrue) return Truth::kTrue;
  return Truth::kUnknown;
}

Truth TruthOr(Truth a, Truth b) {
  if (a == Truth::kTrue || b == Truth::kTrue) return Truth::kTrue;
  if (a == Truth::kFalse && b == Truth::kFalse) return Truth::kFalse;
  return Truth::kUnknown;
}

Truth TruthNot(Truth a) {
  if (a == Truth::kTrue) return Truth::kFalse;
  if (a == Truth::kFalse) return Truth::kTrue;
  return Truth::kUnknown;
}


namespace {

/// A scratch array of n values: on the stack up to kInline entries, on
/// the heap beyond (types that large are rare).
template <typename T, size_t kInline = 64>
class Scratch {
 public:
  Scratch(size_t n, T init) {
    if (n > kInline) {
      heap_.assign(n, init);
      data_ = heap_.data();
    } else {
      std::fill(inline_, inline_ + n, init);
      data_ = inline_;
    }
  }
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;

  T& operator[](size_t i) { return data_[i]; }
  T* data() { return data_; }

 private:
  T inline_[kInline];
  std::vector<T> heap_;
  T* data_;
};

bool SameElement(const IsoElement& a, const IsoElement& b) {
  return a.kind == b.kind && a.var == b.var && a.relation == b.relation &&
         a.prefix == b.prefix && a.attr == b.attr && a.value == b.value;
}

bool IsBased(const IsoElement& el) {
  return el.kind == IsoElement::Kind::kVar || el.kind == IsoElement::Kind::kNav;
}

}  // namespace

PartialIsoType::PartialIsoType(const DatabaseSchema* schema,
                               const VarScope* scope, int max_depth)
    : schema_(schema), scope_(scope), max_depth_(max_depth) {}

int PartialIsoType::Find(int e) const {
  int root = e;
  while (nodes_[root].parent != root) root = nodes_[root].parent;
  while (nodes_[e].parent != root) {
    int next = nodes_[e].parent;
    nodes_[e].parent = root;
    e = next;
  }
  return root;
}

int PartialIsoType::AddElement(const IsoElement& e) {
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (SameElement(nodes_[i].el, e)) return static_cast<int>(i);
  }
  const int idx = num_elements();
  Node& node = nodes_.emplace_back();
  node.el = e;
  node.parent = idx;
  return idx;
}

int PartialIsoType::ConstIndex(const Rational& value) {
  const size_t n = consts_ == nullptr ? 0 : consts_->size();
  for (size_t i = 0; i < n; ++i) {
    if ((*consts_)[i] == value) return static_cast<int>(i);
  }
  // Copies of this type share the table: extend a copy of it.
  auto grown = std::make_shared<std::vector<Rational>>();
  grown->reserve(n + 1);
  if (consts_ != nullptr) grown->assign(consts_->begin(), consts_->end());
  grown->push_back(value);
  consts_ = std::move(grown);
  return static_cast<int>(n);
}

int PartialIsoType::FindNull() const {
  for (int i = 0; i < num_elements(); ++i) {
    if (nodes_[i].el.kind == IsoElement::Kind::kNull) return i;
  }
  return -1;
}

int PartialIsoType::FindConst(const Rational& value) const {
  for (int i = 0; i < num_elements(); ++i) {
    const IsoElement& el = nodes_[i].el;
    if (el.kind == IsoElement::Kind::kConst && Const(el.value) == value) {
      return i;
    }
  }
  return -1;
}

int PartialIsoType::NullElement() {
  IsoElement e;
  e.kind = IsoElement::Kind::kNull;
  int idx = AddElement(e);
  nodes_[Find(idx)].null_tag = true;
  return idx;
}

int PartialIsoType::ConstElement(const Rational& value) {
  IsoElement e;
  e.kind = IsoElement::Kind::kConst;
  e.value = ConstIndex(value);
  int idx = AddElement(e);
  Node& rep = nodes_[Find(idx)];
  if (rep.const_tag == -1) rep.const_tag = e.value;
  return idx;
}

int PartialIsoType::VarElement(int var) {
  IsoElement e;
  e.kind = IsoElement::Kind::kVar;
  e.var = var;
  return AddElement(e);
}

int PartialIsoType::NavChild(int parent, AttrId attr) {
  const IsoElement& p = nodes_[parent].el;
  IsoElement child;
  child.kind = IsoElement::Kind::kNav;
  child.var = p.var;
  child.prefix = parent;
  child.attr = attr;
  RelationId from = kNoRelation;  // the relation `attr` belongs to
  if (p.kind == IsoElement::Kind::kVar) {
    std::optional<RelationId> anchor = AnchorOf(parent);
    HAS_CHECK_MSG(anchor.has_value(), "NavChild of unanchored variable");
    child.relation = *anchor;
    child.depth = 1;
    from = *anchor;
  } else {
    HAS_CHECK_MSG(p.kind == IsoElement::Kind::kNav, "NavChild of non-nav");
    child.relation = p.relation;
    child.depth = p.depth + 1;
    child.numeric = p.numeric;
    from = p.target;
  }
  if (child.depth > max_depth_) return -1;
  const Attribute& a = schema_->relation(from).attr(attr);
  if (a.kind == AttrKind::kForeign) {
    child.target = a.references;
  } else {
    child.numeric = true;
    child.target = from;
  }
  int idx = AddElement(child);
  // New navigation element: congruence may immediately relate it to the
  // same attribute child of other members of the parent's class.
  Close();
  return idx;
}

IsoSort PartialIsoType::SortOf(int e) const {
  // Combine intrinsic sorts over the class plus the anchor tag.
  IsoSort sort;
  sort.kind = IsoSort::Kind::kUnknownId;
  bool have = false;
  auto combine = [&](IsoSort::Kind k, RelationId r) {
    if (!have) {
      sort.kind = k;
      sort.relation = r;
      have = true;
      return;
    }
    if (sort.kind == IsoSort::Kind::kUnknownId &&
        (k == IsoSort::Kind::kId || k == IsoSort::Kind::kNull)) {
      sort.kind = k;
      sort.relation = r;
    }
    // Remaining combinations either agree or were rejected by Union.
  };
  int rep = Find(e);
  for (int m = 0; m < num_elements(); ++m) {
    if (Find(m) != rep) continue;
    const IsoElement& el = nodes_[m].el;
    switch (el.kind) {
      case IsoElement::Kind::kNull:
        combine(IsoSort::Kind::kNull, kNoRelation);
        break;
      case IsoElement::Kind::kConst:
        combine(IsoSort::Kind::kNumeric, kNoRelation);
        break;
      case IsoElement::Kind::kVar:
        if (scope_->var(el.var).sort == VarSort::kNumeric) {
          combine(IsoSort::Kind::kNumeric, kNoRelation);
        } else {
          combine(IsoSort::Kind::kUnknownId, kNoRelation);
        }
        break;
      case IsoElement::Kind::kNav:
        // Terminal sort along the navigation path.
        if (el.numeric) {
          combine(IsoSort::Kind::kNumeric, kNoRelation);
        } else {
          combine(IsoSort::Kind::kId, el.target);
        }
        break;
    }
  }
  const Node& r = nodes_[rep];
  if (r.anchor != kNoRelation) combine(IsoSort::Kind::kId, r.anchor);
  if (r.null_tag) sort.kind = IsoSort::Kind::kNull;
  return sort;
}

bool PartialIsoType::IsNullTagged(int e) const {
  return nodes_[Find(e)].null_tag;
}

std::optional<RelationId> PartialIsoType::AnchorOf(int e) const {
  int rep = Find(e);
  if (nodes_[rep].anchor != kNoRelation) return nodes_[rep].anchor;
  // Intrinsic anchors from navigation members.
  for (int m = 0; m < num_elements(); ++m) {
    const IsoElement& el = nodes_[m].el;
    if (el.kind == IsoElement::Kind::kNav && !el.numeric && Find(m) == rep) {
      return el.target;
    }
  }
  return std::nullopt;
}

const Rational* PartialIsoType::ConstTag(int e) const {
  const int tag = nodes_[Find(e)].const_tag;
  return tag == -1 ? nullptr : &Const(tag);
}

std::optional<Rational> PartialIsoType::ConstOf(int e) const {
  const Rational* tag = ConstTag(e);
  if (tag == nullptr) return std::nullopt;
  return *tag;
}

bool PartialIsoType::ClassTouchesVars(int e, const std::set<int>& vars) const {
  const int rep = Find(e);
  for (int m = 0; m < num_elements(); ++m) {
    const IsoElement& el = nodes_[m].el;
    if (IsBased(el) && Find(m) == rep && vars.count(el.var) > 0) return true;
  }
  return false;
}

int PartialIsoType::LookupVar(int var) const {
  for (int i = 0; i < num_elements(); ++i) {
    const IsoElement& el = nodes_[i].el;
    if (el.kind == IsoElement::Kind::kVar && el.var == var) return i;
  }
  return -1;
}

bool PartialIsoType::VarIsNull(int var) const {
  int e = LookupVar(var);
  return e != -1 && IsNullTagged(e);
}

bool PartialIsoType::Union(int a, int b) {
  int ra = Find(a), rb = Find(b);
  if (ra == rb) return true;

  // Sort compatibility.
  IsoSort sa = SortOf(ra), sb = SortOf(rb);
  auto numeric = [](const IsoSort& s) {
    return s.kind == IsoSort::Kind::kNumeric;
  };
  auto idlike = [](const IsoSort& s) {
    return s.kind == IsoSort::Kind::kId || s.kind == IsoSort::Kind::kUnknownId;
  };
  bool compatible =
      (numeric(sa) && numeric(sb)) ||
      (idlike(sa) && idlike(sb) &&
       (sa.kind != IsoSort::Kind::kId || sb.kind != IsoSort::Kind::kId ||
        sa.relation == sb.relation)) ||
      (sa.kind == IsoSort::Kind::kNull && sb.kind == IsoSort::Kind::kNull) ||
      // null merges with un-anchored id classes (the variable IS null).
      (sa.kind == IsoSort::Kind::kNull && sb.kind == IsoSort::Kind::kUnknownId) ||
      (sb.kind == IsoSort::Kind::kNull && sa.kind == IsoSort::Kind::kUnknownId);
  if (!compatible) return false;
  // A null class must not contain navigation elements or consts (their
  // values are never null).
  if (sa.kind == IsoSort::Kind::kNull || sb.kind == IsoSort::Kind::kNull) {
    int other = sa.kind == IsoSort::Kind::kNull ? rb : ra;
    for (int m = 0; m < num_elements(); ++m) {
      if ((nodes_[m].el.kind == IsoElement::Kind::kNav ||
           nodes_[m].el.kind == IsoElement::Kind::kConst) &&
          Find(m) == other) {
        return false;
      }
    }
    if (nodes_[other].anchor != kNoRelation) return false;
  }

  Node& na = nodes_[ra];
  Node& nb = nodes_[rb];
  // Const tags (constants are interned, so equal values have equal
  // indices).
  if (na.const_tag != -1 && nb.const_tag != -1 &&
      na.const_tag != nb.const_tag) {
    return false;
  }
  // Anchor tags.
  if (na.anchor != kNoRelation && nb.anchor != kNoRelation &&
      na.anchor != nb.anchor) {
    return false;
  }

  // Merge rb into ra.
  if (nb.const_tag != -1) na.const_tag = nb.const_tag;
  if (nb.anchor != kNoRelation) na.anchor = nb.anchor;
  na.null_tag = na.null_tag || nb.null_tag;
  nb.const_tag = -1;
  nb.anchor = kNoRelation;
  nb.null_tag = false;
  nb.parent = ra;
  // Null excludes anchors and consts.
  return !(na.null_tag && (na.anchor != kNoRelation || na.const_tag != -1));
}

bool PartialIsoType::Close() {
  const int n = num_elements();
  bool changed = true;
  while (changed) {
    changed = false;
    // Downward congruence: same class + same attribute => same child.
    for (int e1 = 0; e1 < n; ++e1) {
      const IsoElement& a = nodes_[e1].el;
      if (!IsBased(a)) continue;
      for (int e2 = e1 + 1; e2 < n; ++e2) {
        if (Find(e1) != Find(e2)) continue;
        const IsoElement& b = nodes_[e2].el;
        if (!IsBased(b)) continue;
        // Children of e1/e2 are the elements extending their paths by a
        // single attribute; a variable's must hang off its class anchor.
        for (int c1 = 0; c1 < n; ++c1) {
          const IsoElement& ch1 = nodes_[c1].el;
          if (ch1.kind != IsoElement::Kind::kNav || ch1.prefix != e1) continue;
          if (a.kind == IsoElement::Kind::kVar) {
            std::optional<RelationId> anchor = AnchorOf(e1);
            if (!anchor.has_value() || ch1.relation != *anchor) continue;
          }
          for (int c2 = 0; c2 < n; ++c2) {
            if (c2 == c1) continue;
            const IsoElement& ch2 = nodes_[c2].el;
            if (ch2.kind != IsoElement::Kind::kNav || ch2.prefix != e2 ||
                ch2.attr != ch1.attr) {
              continue;
            }
            if (b.kind == IsoElement::Kind::kVar) {
              std::optional<RelationId> anchor = AnchorOf(e2);
              if (!anchor.has_value() || ch2.relation != *anchor) continue;
            }
            if (Find(c1) != Find(c2)) {
              if (!Union(c1, c2)) return false;
              changed = true;
            }
          }
        }
      }
    }
  }
  return true;
}

template <typename Fn>
bool PartialIsoType::AnyConstraint(const Fn& fn) const {
  for (size_t i = 0; i < constraints_.size();) {
    const int arity = constraints_[i + 1];
    if (fn(constraints_[i], constraints_.data() + i + 2, arity)) return true;
    i += 2 + static_cast<size_t>(arity);
  }
  return false;
}

template <typename Fn>
bool PartialIsoType::AnyDisequality(const Fn& fn) const {
  return AnyConstraint([&](int tag, const int* args, int) {
    return tag == kDisequality && fn(args[0], args[1]);
  });
}

template <typename Fn>
bool PartialIsoType::AnyNegAtom(const Fn& fn) const {
  return AnyConstraint([&](int tag, const int* args, int arity) {
    return tag != kDisequality && fn(tag, args, arity);
  });
}

void PartialIsoType::AddConstraint(int tag, const int* args, int arity) {
  constraints_.reserve(constraints_.size() + 2 + static_cast<size_t>(arity));
  constraints_.push_back(tag);
  constraints_.push_back(arity);
  constraints_.insert(constraints_.end(), args, args + arity);
}

bool PartialIsoType::CheckConstraints() const {
  return !AnyConstraint([&](int tag, const int* args, int arity) {
    if (tag != kDisequality) {
      return EvalRelAtom(tag, args, arity) == Truth::kTrue;
    }
    const Node& ra = nodes_[Find(args[0])];
    const Node& rb = nodes_[Find(args[1])];
    return &ra == &rb ||
           (ra.const_tag != -1 && ra.const_tag == rb.const_tag) ||
           (ra.null_tag && rb.null_tag);
  });
}

Truth PartialIsoType::EvalRelAtom(RelationId r, const int* args,
                                  int num_args) const {
  // Any null argument makes the atom false.
  for (int i = 0; i < num_args; ++i) {
    if (IsNullTagged(args[i])) return Truth::kFalse;
  }
  std::optional<RelationId> anchor = AnchorOf(args[0]);
  if (anchor.has_value() && *anchor != r) return Truth::kFalse;
  const Relation& rel = schema_->relation(r);
  Truth result = anchor.has_value() ? Truth::kTrue : Truth::kUnknown;
  const int rep0 = Find(args[0]);
  // For each attribute, look for an existing child element of the
  // class of arg 0.
  for (int i = 1; i < rel.arity(); ++i) {
    int child = -1;
    for (int m = 0; m < num_elements() && child == -1; ++m) {
      const IsoElement& el = nodes_[m].el;
      if (!IsBased(el) || Find(m) != rep0) continue;
      // Candidate child: extends member m by attribute i.
      for (int c = 0; c < num_elements(); ++c) {
        const IsoElement& ch = nodes_[c].el;
        if (ch.kind != IsoElement::Kind::kNav || ch.prefix != m ||
            ch.attr != i) {
          continue;
        }
        if (el.kind == IsoElement::Kind::kVar && ch.relation != r) continue;
        child = c;
        break;
      }
    }
    if (child == -1) {
      result = TruthAnd(result, Truth::kUnknown);
      continue;
    }
    // Compare child with arg i.
    const int rc = Find(child), ri = Find(args[i]);
    if (rc == ri) {
      result = TruthAnd(result, Truth::kTrue);
      continue;
    }
    // Definitely different?
    bool definitely_neq = AnyDisequality([&](int x, int y) {
      return (Find(x) == rc && Find(y) == ri) ||
             (Find(y) == rc && Find(x) == ri);
    });
    if (nodes_[rc].const_tag != -1 && nodes_[ri].const_tag != -1 &&
        nodes_[rc].const_tag != nodes_[ri].const_tag) {
      definitely_neq = true;
    }
    std::optional<RelationId> ac = AnchorOf(child), ai = AnchorOf(args[i]);
    if (ac.has_value() && ai.has_value() && *ac != *ai) definitely_neq = true;
    if (definitely_neq) return Truth::kFalse;
    result = TruthAnd(result, Truth::kUnknown);
  }
  return result;
}

bool PartialIsoType::AssertEq(int a, int b) {
  if (!Union(a, b)) return false;
  if (!Close()) return false;
  return CheckConstraints();
}

bool PartialIsoType::AssertNeq(int a, int b) {
  if (Find(a) == Find(b)) return false;
  const int pair[] = {a, b};
  AddConstraint(kDisequality, pair, 2);
  return CheckConstraints();
}

bool PartialIsoType::AssertAnchor(int e, RelationId r) {
  int rep = Find(e);
  if (nodes_[rep].null_tag) return false;
  IsoSort sort = SortOf(rep);
  if (sort.kind == IsoSort::Kind::kNumeric) return false;
  if (sort.kind == IsoSort::Kind::kId && sort.relation != r) return false;
  if (nodes_[rep].anchor != kNoRelation) return nodes_[rep].anchor == r;
  nodes_[rep].anchor = r;
  if (!Close()) return false;
  return CheckConstraints();
}

bool PartialIsoType::Same(int a, int b) const { return Find(a) == Find(b); }

bool PartialIsoType::DecideAtom(const Condition& atom, bool value) {
  switch (atom.kind()) {
    case CondKind::kEq: {
      auto element_of = [&](const Term& t) -> int {
        switch (t.kind) {
          case Term::Kind::kVar:
            return VarElement(t.var);
          case Term::Kind::kNull:
            return NullElement();
          case Term::Kind::kConst:
            return ConstElement(t.value);
        }
        return -1;
      };
      int a = element_of(atom.lhs());
      int b = element_of(atom.rhs());
      return value ? AssertEq(a, b) : AssertNeq(a, b);
    }
    case CondKind::kRel: {
      const Relation& rel = schema_->relation(atom.relation());
      const std::vector<int>& vars = atom.args();
      if (!value) {
        Scratch<int, 16> args(vars.size(), -1);
        for (size_t i = 0; i < vars.size(); ++i) args[i] = VarElement(vars[i]);
        AddConstraint(atom.relation(), args.data(),
                      static_cast<int>(vars.size()));
        return CheckConstraints();
      }
      // The argument elements first, in argument order, then the
      // navigation children.
      for (int v : vars) VarElement(v);
      const int key = VarElement(vars[0]);
      if (!AssertAnchor(key, atom.relation())) return false;
      for (int i = 1; i < rel.arity(); ++i) {
        int child = NavChild(key, i);
        if (child == -1) continue;  // beyond depth bound: unconstrained
        if (!AssertEq(child, VarElement(vars[i]))) return false;
      }
      return true;
    }
    case CondKind::kArith: {
      // Constant-tag equalities only: x + k = 0.
      const LinearConstraint& c = atom.constraint();
      HAS_CHECK_MSG(c.op == Relop::kEq && c.expr.coefs().size() == 1 &&
                        c.expr.coefs().begin()->second == Rational(1),
                    "non-constant arithmetic atom reached the equality "
                    "component");
      int var = c.expr.coefs().begin()->first;
      Rational k = -c.expr.constant();
      int a = VarElement(var);
      int b = ConstElement(k);
      return value ? AssertEq(a, b) : AssertNeq(a, b);
    }
    default:
      HAS_CHECK_MSG(false, "DecideAtom on non-atom");
  }
  return false;
}

Truth PartialIsoType::EvalAtom(const Condition& atom) const {
  auto lookup_term = [&](const Term& t) -> int {
    switch (t.kind) {
      case Term::Kind::kVar:
        return LookupVar(t.var);
      case Term::Kind::kNull:
        return FindNull();
      case Term::Kind::kConst:
        return FindConst(t.value);
    }
    return -1;
  };
  auto disequal = [&](int a, int b) {
    const int ra = Find(a), rb = Find(b);
    return AnyDisequality([&](int x, int y) {
      return (Find(x) == ra && Find(y) == rb) ||
             (Find(y) == ra && Find(x) == rb);
    });
  };
  switch (atom.kind()) {
    case CondKind::kEq: {
      // A ground atom (null or constants only) decides by its terms
      // alone, whether or not the type holds elements for them.
      if (atom.lhs().kind != Term::Kind::kVar &&
          atom.rhs().kind != Term::Kind::kVar) {
        return atom.lhs() == atom.rhs() ? Truth::kTrue : Truth::kFalse;
      }
      int a = lookup_term(atom.lhs());
      int b = lookup_term(atom.rhs());
      // Null/const terms carry their own semantics even when the
      // element is absent: use tags of the present side.
      if (a == -1 || b == -1) {
        // One side missing: check tag-level knowledge.
        const Term& missing = a == -1 ? atom.lhs() : atom.rhs();
        int present = a == -1 ? b : a;
        if (present == -1) return Truth::kUnknown;
        if (missing.kind == Term::Kind::kNull) {
          if (IsNullTagged(present)) return Truth::kTrue;
          IsoSort s = SortOf(present);
          if (s.kind == IsoSort::Kind::kId ||
              s.kind == IsoSort::Kind::kNumeric) {
            return Truth::kFalse;
          }
          return Truth::kUnknown;
        }
        if (missing.kind == Term::Kind::kConst) {
          const Rational* c = ConstTag(present);
          if (c != nullptr) {
            return *c == missing.value ? Truth::kTrue : Truth::kFalse;
          }
          return Truth::kUnknown;
        }
        return Truth::kUnknown;
      }
      if (Find(a) == Find(b)) return Truth::kTrue;
      if (disequal(a, b)) return Truth::kFalse;
      const Rational* ca = ConstTag(a);
      const Rational* cb = ConstTag(b);
      if (ca != nullptr && cb != nullptr) {
        return *ca == *cb ? Truth::kTrue : Truth::kFalse;
      }
      std::optional<RelationId> ra = AnchorOf(a), rb = AnchorOf(b);
      if (ra.has_value() && rb.has_value() && *ra != *rb) return Truth::kFalse;
      if ((IsNullTagged(a) &&
           (rb.has_value() || SortOf(b).kind == IsoSort::Kind::kNumeric)) ||
          (IsNullTagged(b) &&
           (ra.has_value() || SortOf(a).kind == IsoSort::Kind::kNumeric))) {
        return Truth::kFalse;
      }
      return Truth::kUnknown;
    }
    case CondKind::kRel: {
      const std::vector<int>& vars = atom.args();
      Scratch<int, 16> args(vars.size(), -1);
      for (size_t i = 0; i < vars.size(); ++i) {
        args[i] = LookupVar(vars[i]);
        if (args[i] == -1) return Truth::kUnknown;
      }
      const int num_args = static_cast<int>(vars.size());
      Truth t = EvalRelAtom(atom.relation(), args.data(), num_args);
      if (t != Truth::kUnknown) return t;
      // A recorded matching negative atom decides false.
      const bool negated = AnyNegAtom([&](RelationId r, const int* neg_args,
                                          int arity) {
        if (r != atom.relation() || arity != num_args) return false;
        for (int i = 0; i < arity; ++i) {
          if (Find(neg_args[i]) != Find(args[i])) return false;
        }
        return true;
      });
      return negated ? Truth::kFalse : Truth::kUnknown;
    }
    case CondKind::kArith: {
      const LinearConstraint& c = atom.constraint();
      if (c.op == Relop::kEq && c.expr.coefs().size() == 1 &&
          c.expr.coefs().begin()->second == Rational(1)) {
        int var = c.expr.coefs().begin()->first;
        Rational k = -c.expr.constant();
        int a = LookupVar(var);
        if (a == -1) return Truth::kUnknown;
        const Rational* tag = ConstTag(a);
        if (tag != nullptr) {
          return *tag == k ? Truth::kTrue : Truth::kFalse;
        }
        // Disequality against the constant element?
        int b = FindConst(k);
        if (b != -1 && disequal(a, b)) return Truth::kFalse;
        return Truth::kUnknown;
      }
      return Truth::kUnknown;  // cell component's business
    }
    default:
      HAS_CHECK_MSG(false, "EvalAtom on non-atom");
  }
  return Truth::kUnknown;
}

Truth PartialIsoType::Eval(const Condition& cond) const {
  switch (cond.kind()) {
    case CondKind::kTrue:
      return Truth::kTrue;
    case CondKind::kFalse:
      return Truth::kFalse;
    case CondKind::kEq:
    case CondKind::kRel:
    case CondKind::kArith:
      return EvalAtom(cond);
    case CondKind::kNot:
      return TruthNot(Eval(*cond.child(0)));
    case CondKind::kAnd:
      return TruthAnd(Eval(*cond.child(0)), Eval(*cond.child(1)));
    case CondKind::kOr:
      return TruthOr(Eval(*cond.child(0)), Eval(*cond.child(1)));
  }
  return Truth::kUnknown;
}

void PartialIsoType::CompressPaths() {
  for (int e = 0; e < num_elements(); ++e) Find(e);
}

void PartialIsoType::DropUnconstrained(uint8_t* keep) const {
  const int n = num_elements();
  // What pins a kept element, within the restriction: a kept class
  // mate, a kept navigation child, or a disequality / negative atom
  // whose elements are all kept.
  Scratch<int> class_size(static_cast<size_t>(n), 0);
  Scratch<int> children(static_cast<size_t>(n), 0);
  Scratch<uint8_t> referenced(static_cast<size_t>(n), 0);
  for (int e = 0; e < n; ++e) {
    if (!keep[e]) continue;
    ++class_size[static_cast<size_t>(Find(e))];
    const IsoElement& el = nodes_[e].el;
    if (el.kind == IsoElement::Kind::kNav) ++children[el.prefix];
  }
  AnyConstraint([&](int, const int* args, int arity) {
    for (int i = 0; i < arity; ++i) {
      if (!keep[args[i]]) return false;
    }
    for (int i = 0; i < arity; ++i) referenced[args[i]] = 1;
    return false;
  });
  // Extensions follow their prefixes, so a descending sweep sees every
  // child's fate before its parent's.
  for (int e = n - 1; e >= 0; --e) {
    const IsoElement& el = nodes_[e].el;
    if (!keep[e] || el.kind == IsoElement::Kind::kVar || referenced[e] ||
        children[e] > 0 || class_size[static_cast<size_t>(Find(e))] != 1) {
      continue;
    }
    keep[e] = 0;
    if (el.kind == IsoElement::Kind::kNav) --children[el.prefix];
  }
}

void PartialIsoType::Normalize() {
  const int n = num_elements();
  Scratch<uint8_t> keep(static_cast<size_t>(n), 1);
  DropUnconstrained(keep.data());
  for (int e = 0; e < n; ++e) {
    if (!keep[e]) {
      *this = Rebuild(keep.data(), nullptr, scope_);
      return;
    }
  }
}

PartialIsoType PartialIsoType::Rebuild(const uint8_t* keep,
                                       const std::map<int, int>* rename,
                                       const VarScope* scope) const {
  const int n = num_elements();
  PartialIsoType out(schema_, scope, max_depth_);
  out.consts_ = consts_;
  int kept = 0;
  for (int e = 0; e < n; ++e) kept += keep[e] ? 1 : 0;
  out.nodes_.reserve(static_cast<size_t>(kept));
  // Old index -> new index, and old representative -> the new index of
  // its class's first kept member (the new representative).
  Scratch<int> remap(static_cast<size_t>(n), -1);
  Scratch<int> new_rep(static_cast<size_t>(n), -1);
  for (int e = 0; e < n; ++e) {
    if (!keep[e]) continue;
    const int idx = out.num_elements();
    remap[e] = idx;
    Node& node = out.nodes_.emplace_back();
    node.el = nodes_[e].el;
    if (rename != nullptr && IsBased(node.el)) {
      node.el.var = rename->at(node.el.var);
    }
    if (node.el.kind == IsoElement::Kind::kNav) {
      node.el.prefix = remap[node.el.prefix];
      assert(node.el.prefix != -1);  // a kept path keeps its prefixes
    }
    const int rep = Find(e);
    if (new_rep[rep] == -1) {
      new_rep[rep] = idx;
      // Tags (attach to the class's new representative).
      node.anchor = nodes_[rep].anchor;
      node.const_tag = nodes_[rep].const_tag;
      node.null_tag = nodes_[rep].null_tag;
    }
    node.parent = new_rep[rep];
  }
  // The constraints among kept elements.
  const auto all_kept = [&](const int* args, int arity) {
    for (int i = 0; i < arity; ++i) {
      if (!keep[args[i]]) return false;
    }
    return true;
  };
  size_t size = 0;
  AnyConstraint([&](int, const int* args, int arity) {
    if (all_kept(args, arity)) size += 2 + static_cast<size_t>(arity);
    return false;
  });
  out.constraints_.reserve(size);
  AnyConstraint([&](int tag, const int* args, int arity) {
    if (!all_kept(args, arity)) return false;
    out.constraints_.push_back(tag);
    out.constraints_.push_back(arity);
    for (int i = 0; i < arity; ++i) out.constraints_.push_back(remap[args[i]]);
    return false;
  });
  out.Close();
  return out;
}

PartialIsoType PartialIsoType::Project(const std::set<int>& vars,
                                       int depth) const {
  const int n = num_elements();
  Scratch<uint8_t> keep(static_cast<size_t>(n), 0);
  for (int e = 0; e < n; ++e) {
    const IsoElement& el = nodes_[e].el;
    switch (el.kind) {
      case IsoElement::Kind::kNull:
      case IsoElement::Kind::kConst:
        keep[e] = 1;
        break;
      case IsoElement::Kind::kVar:
        keep[e] = vars.count(el.var) > 0;
        break;
      case IsoElement::Kind::kNav:
        keep[e] = vars.count(el.var) > 0 && el.depth <= depth;
        break;
    }
  }
  DropUnconstrained(keep.data());
  return Rebuild(keep.data(), nullptr, scope_);
}

PartialIsoType PartialIsoType::Rename(const std::map<int, int>& map,
                                      const VarScope* new_scope) const {
  const int n = num_elements();
  Scratch<uint8_t> keep(static_cast<size_t>(n), 0);
  for (int e = 0; e < n; ++e) {
    const IsoElement& el = nodes_[e].el;
    keep[e] = !IsBased(el) || map.count(el.var) > 0;
  }
  DropUnconstrained(keep.data());
  return Rebuild(keep.data(), &map, new_scope);
}

bool PartialIsoType::MergeFrom(const PartialIsoType& other) {
  const int n = other.num_elements();
  Scratch<int> remap(static_cast<size_t>(n), -1);
  // The first member of each of other's classes, by its representative.
  Scratch<int> first(static_cast<size_t>(n), -1);
  for (int e = 0; e < n; ++e) {
    IsoElement el = other.nodes_[e].el;
    if (el.kind == IsoElement::Kind::kNav) el.prefix = remap[el.prefix];
    if (el.kind == IsoElement::Kind::kConst) {
      el.value = ConstIndex(other.Const(el.value));
    }
    remap[e] = AddElement(el);
    int& f = first[static_cast<size_t>(other.Find(e))];
    if (f == -1) f = e;
  }
  // Equalities: each class's first member with every later member.
  for (int e = 0; e < n; ++e) {
    const int rep = other.Find(e);
    if (first[rep] != e) continue;
    for (int f = e + 1; f < n; ++f) {
      if (other.Find(f) == rep) {
        if (!AssertEq(remap[e], remap[f])) return false;
      }
    }
  }
  // Tags, per class, at its first member.
  for (int e = 0; e < n; ++e) {
    const int rep = other.Find(e);
    if (first[rep] != e) continue;
    const Node& tags = other.nodes_[rep];
    if (tags.anchor != kNoRelation) {
      if (!AssertAnchor(remap[e], tags.anchor)) return false;
    }
    if (tags.null_tag) {
      if (!AssertEq(remap[e], NullElement())) return false;
    }
    if (tags.const_tag != -1) {
      if (!AssertEq(remap[e], ConstElement(other.Const(tags.const_tag)))) {
        return false;
      }
    }
  }
  if (other.AnyDisequality([&](int a, int b) {
        return !AssertNeq(remap[a], remap[b]);
      })) {
    return false;
  }
  return !other.AnyNegAtom([&](RelationId r, const int* args, int arity) {
    Scratch<int, 16> mapped(static_cast<size_t>(arity), -1);
    for (int i = 0; i < arity; ++i) mapped[i] = remap[args[i]];
    AddConstraint(r, mapped.data(), arity);
    return !CheckConstraints();
  });
}

void PartialIsoType::ForgetVar(int v) {
  const int n = num_elements();
  Scratch<uint8_t> keep(static_cast<size_t>(n), 1);
  for (int e = 0; e < n; ++e) {
    const IsoElement& el = nodes_[e].el;
    if (IsBased(el) && el.var == v) keep[e] = 0;
  }
  *this = Rebuild(keep.data(), nullptr, scope_);
}

int PartialIsoType::CompareEqualDepth(int a, int b) const {
  if (a == b || nodes_[a].el.depth == 0) return 0;
  int c = CompareEqualDepth(nodes_[a].el.prefix, nodes_[b].el.prefix);
  if (c != 0) return c;
  const AttrId x = nodes_[a].el.attr, y = nodes_[b].el.attr;
  return (x > y) - (x < y);
}

int PartialIsoType::ComparePaths(int a, int b) const {
  const int da = nodes_[a].el.depth, db = nodes_[b].el.depth;
  int pa = a, pb = b;
  while (nodes_[pa].el.depth > db) pa = nodes_[pa].el.prefix;
  while (nodes_[pb].el.depth > da) pb = nodes_[pb].el.prefix;
  int c = CompareEqualDepth(pa, pb);
  if (c != 0) return c;
  return (da > db) - (da < db);
}

bool PartialIsoType::ElementLess(int a, int b) const {
  const IsoElement& x = nodes_[a].el;
  const IsoElement& y = nodes_[b].el;
  if (x.kind != y.kind) return x.kind < y.kind;
  if (x.var != y.var) return x.var < y.var;
  if (x.relation != y.relation) return x.relation < y.relation;
  const int c = ComparePaths(a, b);
  if (c != 0) return c < 0;
  if (x.kind == IsoElement::Kind::kConst) {
    return Const(x.value) < Const(y.value);
  }
  return false;
}

void PartialIsoType::WritePath(int e, int64_t* out) const {
  for (int cur = e; nodes_[cur].el.kind == IsoElement::Kind::kNav;
       cur = nodes_[cur].el.prefix) {
    out[nodes_[cur].el.depth - 1] = nodes_[cur].el.attr;
  }
}

std::string PartialIsoType::ElementString(int e) const {
  const IsoElement& el = nodes_[e].el;
  switch (el.kind) {
    case IsoElement::Kind::kNull:
      return "null";
    case IsoElement::Kind::kConst:
      return Const(el.value).ToString();
    case IsoElement::Kind::kVar:
    case IsoElement::Kind::kNav: {
      std::string out = scope_ != nullptr && el.var >= 0 &&
                                el.var < scope_->size()
                            ? scope_->var(el.var).name
                            : StrCat("v", el.var);
      if (el.kind == IsoElement::Kind::kVar) return out;
      std::vector<int64_t> path(static_cast<size_t>(el.depth));
      WritePath(e, path.data());
      out += StrCat("@R", el.relation);
      for (int64_t a : path) out += StrCat(".", a);
      return out;
    }
  }
  return "?";
}

std::string PartialIsoType::Signature() const {
  // Order elements canonically, then emit class structure and tags.
  std::vector<int> order(static_cast<size_t>(num_elements()));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return ElementLess(a, b); });
  std::map<int, int> label;  // rep -> canonical class label
  std::string out;
  for (int e : order) {
    int rep = Find(e);
    auto [it, inserted] = label.emplace(rep, static_cast<int>(label.size()));
    const IsoElement& el = nodes_[e].el;
    out += StrCat(static_cast<int>(el.kind), ":", el.var, ":", el.relation,
                  ":");
    std::vector<int64_t> path(static_cast<size_t>(el.depth));
    WritePath(e, path.data());
    for (int64_t a : path) out += StrCat(a, ".");
    if (el.kind == IsoElement::Kind::kConst) {
      out += Const(el.value).ToString();
    }
    out += StrCat("=c", it->second);
    // Tags (emitted per element so they key on canonical labels).
    if (inserted) {
      const Node& tags = nodes_[rep];
      if (tags.anchor != kNoRelation) out += StrCat("@", tags.anchor);
      if (tags.null_tag) out += "@null";
      if (tags.const_tag != -1) {
        out += StrCat("@k", Const(tags.const_tag).ToString());
      }
    }
    out += ";";
  }
  // Disequalities on canonical labels, sorted.
  std::vector<std::pair<int, int>> dis;
  AnyDisequality([&](int a, int b) {
    int la = label.count(Find(a)) ? label[Find(a)] : -1;
    int lb = label.count(Find(b)) ? label[Find(b)] : -1;
    dis.emplace_back(std::min(la, lb), std::max(la, lb));
    return false;
  });
  std::sort(dis.begin(), dis.end());
  dis.erase(std::unique(dis.begin(), dis.end()), dis.end());
  for (const auto& [a, b] : dis) out += StrCat("!", a, ",", b, ";");
  // Negative atoms on canonical labels, sorted.
  std::vector<std::string> negs;
  AnyNegAtom([&](RelationId r, const int* args, int arity) {
    std::string s = StrCat("~R", r, "(");
    for (int i = 0; i < arity; ++i) s += StrCat(label[Find(args[i])], ",");
    s += ")";
    negs.push_back(std::move(s));
    return false;
  });
  std::sort(negs.begin(), negs.end());
  negs.erase(std::unique(negs.begin(), negs.end()), negs.end());
  for (const std::string& s : negs) out += s;
  return out;
}

void PartialIsoType::CanonicalEncode(CanonicalEncoding* out) const {
  // Mirrors Signature(): canonical element order, dense class labels in
  // first-seen order, then tags, sorted disequalities and negative
  // atoms — emitted as int64 tokens instead of string fragments.
  constexpr int64_t kSection = INT64_MIN;  // never a valid field value
  std::vector<int64_t>& tokens = out->tokens;
  std::vector<Rational>& consts = out->consts;
  tokens.clear();
  consts.clear();
  const int n = num_elements();
  std::vector<int>& order = out->order;
  order.resize(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return ElementLess(a, b); });
  std::vector<int>& label = out->label;  // rep -> canonical class label
  label.assign(static_cast<size_t>(n), -1);
  int num_labels = 0;
  for (int e : order) {
    const int rep = Find(e);
    const bool inserted = label[rep] == -1;
    if (inserted) label[rep] = num_labels++;
    const IsoElement& el = nodes_[e].el;
    tokens.push_back(static_cast<int64_t>(el.kind));
    tokens.push_back(el.var);
    tokens.push_back(el.relation);
    tokens.push_back(el.depth);
    const size_t path_at = tokens.size();
    tokens.resize(path_at + static_cast<size_t>(el.depth));
    WritePath(e, tokens.data() + path_at);
    if (el.kind == IsoElement::Kind::kConst) consts.push_back(Const(el.value));
    tokens.push_back(label[rep]);
    if (inserted) {
      const Node& tags = nodes_[rep];
      tokens.push_back(tags.anchor != kNoRelation ? tags.anchor
                                                  : kNoRelation - 1);
      tokens.push_back(tags.null_tag ? 1 : 0);
      tokens.push_back(tags.const_tag != -1 ? 1 : 0);
      if (tags.const_tag != -1) consts.push_back(Const(tags.const_tag));
    }
  }
  tokens.push_back(kSection);
  // Disequalities on canonical labels, sorted and deduplicated.
  std::vector<std::pair<int, int>>& dis = out->dis;
  dis.clear();
  AnyDisequality([&](int a, int b) {
    const int la = label[Find(a)], lb = label[Find(b)];
    dis.emplace_back(std::min(la, lb), std::max(la, lb));
    return false;
  });
  std::sort(dis.begin(), dis.end());
  dis.erase(std::unique(dis.begin(), dis.end()), dis.end());
  for (const auto& [a, b] : dis) {
    tokens.push_back(a);
    tokens.push_back(b);
  }
  tokens.push_back(kSection);
  // Negative atoms on canonical labels, sorted lexicographically and
  // deduplicated. The sort key differs from Signature()'s (token
  // sequences, not strings), but both canonicalize the same *set*, so
  // equality coincides.
  std::vector<int64_t>& neg_tokens = out->neg_tokens;
  std::vector<std::pair<uint32_t, uint32_t>>& negs = out->negs;
  neg_tokens.clear();
  negs.clear();
  AnyNegAtom([&](RelationId r, const int* args, int arity) {
    const auto begin = static_cast<uint32_t>(neg_tokens.size());
    neg_tokens.push_back(r);
    for (int i = 0; i < arity; ++i) neg_tokens.push_back(label[Find(args[i])]);
    negs.emplace_back(begin, static_cast<uint32_t>(neg_tokens.size()));
    return false;
  });
  const int64_t* base = neg_tokens.data();
  const auto less = [base](const std::pair<uint32_t, uint32_t>& a,
                           const std::pair<uint32_t, uint32_t>& b) {
    return std::lexicographical_compare(base + a.first, base + a.second,
                                        base + b.first, base + b.second);
  };
  const auto same = [base](const std::pair<uint32_t, uint32_t>& a,
                           const std::pair<uint32_t, uint32_t>& b) {
    return std::equal(base + a.first, base + a.second, base + b.first,
                      base + b.second);
  };
  std::sort(negs.begin(), negs.end(), less);
  negs.erase(std::unique(negs.begin(), negs.end(), same), negs.end());
  for (const auto& [begin, end] : negs) {
    tokens.push_back(static_cast<int64_t>(end - begin));
    tokens.insert(tokens.end(), base + begin, base + end);
  }
}

size_t HashCanonicalEncoding(const std::vector<int64_t>& tokens,
                             const std::vector<Rational>& consts) {
  size_t seed = tokens.size();
  for (int64_t t : tokens) HashMix(&seed, t);
  for (const Rational& r : consts) HashCombine(&seed, r.Hash());
  return seed;
}

size_t PartialIsoType::CanonicalHash() const {
  CanonicalEncoding enc;
  CanonicalEncode(&enc);
  return HashCanonicalEncoding(enc.tokens, enc.consts);
}

bool PartialIsoType::CanonicalEquals(const PartialIsoType& other) const {
  CanonicalEncoding a, b;
  CanonicalEncode(&a);
  other.CanonicalEncode(&b);
  return a.tokens == b.tokens && a.consts == b.consts;
}

std::string PartialIsoType::ToString() const {
  std::string out;
  std::map<int, std::vector<int>> classes;
  for (int e = 0; e < num_elements(); ++e) classes[Find(e)].push_back(e);
  for (const auto& [rep, members] : classes) {
    std::vector<std::string> names;
    for (int m : members) names.push_back(ElementString(m));
    out += StrCat("{", StrJoin(names, " = "), "}");
    const Node& tags = nodes_[rep];
    if (tags.anchor != kNoRelation) {
      out += StrCat("@", schema_->relation(tags.anchor).name());
    }
    if (tags.null_tag) out += "@null";
    if (tags.const_tag != -1) {
      out += StrCat("=", Const(tags.const_tag).ToString());
    }
    out += " ";
  }
  int num_dis = 0;
  int num_neg = 0;
  AnyConstraint([&](int tag, const int*, int) {
    ++(tag == kDisequality ? num_dis : num_neg);
    return false;
  });
  if (num_dis > 0) out += StrCat("(", num_dis, " diseq)");
  if (num_neg > 0) out += StrCat("(", num_neg, " negatom)");
  return out;
}

}  // namespace has
