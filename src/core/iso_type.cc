#include "core/iso_type.h"

#include <algorithm>
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

bool IsoElement::operator<(const IsoElement& o) const {
  if (kind != o.kind) return kind < o.kind;
  if (var != o.var) return var < o.var;
  if (relation != o.relation) return relation < o.relation;
  if (path != o.path) return path < o.path;
  if (value != o.value) return value < o.value;
  return false;
}

std::string IsoElement::ToString(const VarScope* scope) const {
  switch (kind) {
    case Kind::kNull:
      return "null";
    case Kind::kConst:
      return value.ToString();
    case Kind::kVar:
      return scope != nullptr && var >= 0 && var < scope->size()
                 ? scope->var(var).name
                 : StrCat("v", var);
    case Kind::kNav: {
      std::string base = scope != nullptr && var >= 0 && var < scope->size()
                             ? scope->var(var).name
                             : StrCat("v", var);
      std::string out = StrCat(base, "@R", relation);
      for (AttrId a : path) out += StrCat(".", a);
      return out;
    }
  }
  return "?";
}

PartialIsoType::PartialIsoType(const DatabaseSchema* schema,
                               const VarScope* scope, int max_depth)
    : schema_(schema), scope_(scope), max_depth_(max_depth) {}

int PartialIsoType::Find(int e) const {
  int root = e;
  while (parent_[root] != root) root = parent_[root];
  while (parent_[e] != root) {
    int next = parent_[e];
    parent_[e] = root;
    e = next;
  }
  return root;
}

int PartialIsoType::AddElement(const IsoElement& e) {
  for (size_t i = 0; i < elements_.size(); ++i) {
    if (elements_[i] == e) return static_cast<int>(i);
  }
  elements_.push_back(e);
  parent_.push_back(static_cast<int>(elements_.size() - 1));
  return static_cast<int>(elements_.size() - 1);
}

int PartialIsoType::NullElement() {
  IsoElement e;
  e.kind = IsoElement::Kind::kNull;
  int idx = AddElement(e);
  null_tag_.insert(Find(idx));
  return idx;
}

int PartialIsoType::ConstElement(const Rational& value) {
  IsoElement e;
  e.kind = IsoElement::Kind::kConst;
  e.value = value;
  int idx = AddElement(e);
  const_tag_.emplace(Find(idx), value);
  return idx;
}

int PartialIsoType::VarElement(int var) {
  IsoElement e;
  e.kind = IsoElement::Kind::kVar;
  e.var = var;
  return AddElement(e);
}

int PartialIsoType::NavChild(int parent, AttrId attr) {
  const IsoElement& p = elements_[parent];
  IsoElement child;
  child.kind = IsoElement::Kind::kNav;
  if (p.kind == IsoElement::Kind::kVar) {
    std::optional<RelationId> anchor = AnchorOf(parent);
    HAS_CHECK_MSG(anchor.has_value(), "NavChild of unanchored variable");
    child.var = p.var;
    child.relation = *anchor;
    child.path = {attr};
  } else {
    HAS_CHECK_MSG(p.kind == IsoElement::Kind::kNav, "NavChild of non-nav");
    child.var = p.var;
    child.relation = p.relation;
    child.path = p.path;
    child.path.push_back(attr);
  }
  if (static_cast<int>(child.path.size()) > max_depth_) return -1;
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
  for (int m : ClassMembers(rep)) {
    const IsoElement& el = elements_[m];
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
      case IsoElement::Kind::kNav: {
        // Terminal sort along the navigation path.
        RelationId r = el.relation;
        bool numeric = false;
        for (size_t i = 0; i < el.path.size(); ++i) {
          const Attribute& a = schema_->relation(r).attr(el.path[i]);
          if (a.kind == AttrKind::kForeign) {
            r = a.references;
          } else {
            numeric = true;
          }
        }
        if (numeric) {
          combine(IsoSort::Kind::kNumeric, kNoRelation);
        } else {
          combine(IsoSort::Kind::kId, r);
        }
        break;
      }
    }
  }
  auto it = anchor_.find(rep);
  if (it != anchor_.end()) combine(IsoSort::Kind::kId, it->second);
  if (null_tag_.count(rep) > 0) sort.kind = IsoSort::Kind::kNull;
  return sort;
}

bool PartialIsoType::IsNullTagged(int e) const {
  return null_tag_.count(Find(e)) > 0;
}

std::optional<RelationId> PartialIsoType::AnchorOf(int e) const {
  int rep = Find(e);
  auto it = anchor_.find(rep);
  if (it != anchor_.end()) return it->second;
  // Intrinsic anchors from navigation members.
  for (int m : ClassMembers(rep)) {
    const IsoElement& el = elements_[m];
    if (el.kind != IsoElement::Kind::kNav) continue;
    RelationId r = el.relation;
    bool numeric = false;
    for (AttrId a : el.path) {
      const Attribute& attr = schema_->relation(r).attr(a);
      if (attr.kind == AttrKind::kForeign) {
        r = attr.references;
      } else {
        numeric = true;
      }
    }
    if (!numeric) return r;
  }
  return std::nullopt;
}

std::optional<Rational> PartialIsoType::ConstOf(int e) const {
  auto it = const_tag_.find(Find(e));
  if (it == const_tag_.end()) return std::nullopt;
  return it->second;
}

bool PartialIsoType::ClassTouchesVars(int e, const std::set<int>& vars) const {
  for (int m : ClassMembers(Find(e))) {
    const IsoElement& el = elements_[m];
    if ((el.kind == IsoElement::Kind::kVar ||
         el.kind == IsoElement::Kind::kNav) &&
        vars.count(el.var) > 0) {
      return true;
    }
  }
  return false;
}

int PartialIsoType::LookupVar(int var) const {
  for (int i = 0; i < num_elements(); ++i) {
    if (elements_[i].kind == IsoElement::Kind::kVar &&
        elements_[i].var == var) {
      return i;
    }
  }
  return -1;
}

bool PartialIsoType::VarIsNull(int var) const {
  int e = LookupVar(var);
  return e != -1 && IsNullTagged(e);
}

std::vector<int> PartialIsoType::ClassMembers(int rep) const {
  std::vector<int> out;
  rep = Find(rep);
  for (int i = 0; i < num_elements(); ++i) {
    if (Find(i) == rep) out.push_back(i);
  }
  return out;
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
    for (int m : ClassMembers(other)) {
      if (elements_[m].kind == IsoElement::Kind::kNav ||
          elements_[m].kind == IsoElement::Kind::kConst) {
        return false;
      }
    }
    if (anchor_.count(Find(other)) > 0) return false;
  }

  // Const tags.
  auto ca = const_tag_.find(ra), cb = const_tag_.find(rb);
  if (ca != const_tag_.end() && cb != const_tag_.end() &&
      !(ca->second == cb->second)) {
    return false;
  }
  // Anchor tags.
  auto aa = anchor_.find(ra), ab = anchor_.find(rb);
  if (aa != anchor_.end() && ab != anchor_.end() &&
      aa->second != ab->second) {
    return false;
  }

  // Merge rb into ra.
  std::optional<Rational> merged_const;
  if (ca != const_tag_.end()) merged_const = ca->second;
  if (cb != const_tag_.end()) merged_const = cb->second;
  std::optional<RelationId> merged_anchor;
  if (aa != anchor_.end()) merged_anchor = aa->second;
  if (ab != anchor_.end()) merged_anchor = ab->second;
  bool merged_null = null_tag_.count(ra) + null_tag_.count(rb) > 0;

  const_tag_.erase(ra);
  const_tag_.erase(rb);
  anchor_.erase(ra);
  anchor_.erase(rb);
  null_tag_.erase(ra);
  null_tag_.erase(rb);
  parent_[rb] = ra;
  if (merged_const.has_value()) const_tag_.emplace(ra, *merged_const);
  if (merged_anchor.has_value()) anchor_.emplace(ra, *merged_anchor);
  if (merged_null) null_tag_.insert(ra);
  // Null excludes anchors and consts.
  if (merged_null && (merged_anchor.has_value() || merged_const.has_value())) {
    return false;
  }
  return true;
}

bool PartialIsoType::Close() {
  bool changed = true;
  while (changed) {
    changed = false;
    // Downward congruence: same class + same attribute => same child.
    for (int e1 = 0; e1 < num_elements(); ++e1) {
      const IsoElement& a = elements_[e1];
      if (a.kind != IsoElement::Kind::kNav &&
          a.kind != IsoElement::Kind::kVar) {
        continue;
      }
      for (int e2 = e1 + 1; e2 < num_elements(); ++e2) {
        if (Find(e1) != Find(e2)) continue;
        const IsoElement& b = elements_[e2];
        if (b.kind != IsoElement::Kind::kNav &&
            b.kind != IsoElement::Kind::kVar) {
          continue;
        }
        // Children of e1/e2 are the existing elements extending their
        // paths by a single attribute.
        for (int c1 = 0; c1 < num_elements(); ++c1) {
          const IsoElement& ch1 = elements_[c1];
          if (ch1.kind != IsoElement::Kind::kNav || ch1.var != a.var) {
            continue;
          }
          // ch1 extends e1 by one attribute?
          size_t alen = a.kind == IsoElement::Kind::kVar ? 0 : a.path.size();
          if (ch1.path.size() != alen + 1) continue;
          if (a.kind == IsoElement::Kind::kNav &&
              (ch1.relation != a.relation ||
               !std::equal(a.path.begin(), a.path.end(), ch1.path.begin()))) {
            continue;
          }
          if (a.kind == IsoElement::Kind::kVar) {
            // Root child: anchor relations must match the class anchor.
            std::optional<RelationId> anchor = AnchorOf(e1);
            if (!anchor.has_value() || ch1.relation != *anchor) continue;
          }
          AttrId attr = ch1.path.back();
          for (int c2 = 0; c2 < num_elements(); ++c2) {
            if (c2 == c1) continue;
            const IsoElement& ch2 = elements_[c2];
            if (ch2.kind != IsoElement::Kind::kNav || ch2.var != b.var) {
              continue;
            }
            size_t blen = b.kind == IsoElement::Kind::kVar ? 0 : b.path.size();
            if (ch2.path.size() != blen + 1 || ch2.path.back() != attr) {
              continue;
            }
            if (b.kind == IsoElement::Kind::kNav &&
                (ch2.relation != b.relation ||
                 !std::equal(b.path.begin(), b.path.end(),
                             ch2.path.begin()))) {
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

bool PartialIsoType::CheckConstraints() const {
  for (const auto& [a, b] : disequalities_) {
    if (Find(a) == Find(b)) return false;
    std::optional<Rational> ca = ConstOf(a), cb = ConstOf(b);
    if (ca.has_value() && cb.has_value() && *ca == *cb) return false;
    if (IsNullTagged(a) && IsNullTagged(b)) return false;
  }
  for (const NegAtom& n : neg_atoms_) {
    if (NegAtomViolated(n)) return false;
  }
  return true;
}

Truth PartialIsoType::EvalRelAtom(RelationId r,
                                  const std::vector<int>& arg_elems) const {
  // Any null argument makes the atom false.
  for (int a : arg_elems) {
    if (IsNullTagged(a)) return Truth::kFalse;
  }
  std::optional<RelationId> anchor = AnchorOf(arg_elems[0]);
  if (anchor.has_value() && *anchor != r) return Truth::kFalse;
  const Relation& rel = schema_->relation(r);
  Truth result = anchor.has_value() ? Truth::kTrue : Truth::kUnknown;
  // For each attribute, look for an existing child element of the
  // class of arg 0.
  for (int i = 1; i < rel.arity(); ++i) {
    int child = -1;
    for (int m : ClassMembers(Find(arg_elems[0]))) {
      const IsoElement& el = elements_[m];
      // Candidate child: extends member m by attribute i.
      for (int c = 0; c < num_elements(); ++c) {
        const IsoElement& ch = elements_[c];
        if (ch.kind != IsoElement::Kind::kNav || ch.var != el.var) continue;
        size_t mlen = el.kind == IsoElement::Kind::kVar
                          ? 0
                          : (el.kind == IsoElement::Kind::kNav
                                 ? el.path.size()
                                 : SIZE_MAX);
        if (mlen == SIZE_MAX) continue;
        if (ch.path.size() != mlen + 1 || ch.path.back() != i) continue;
        if (el.kind == IsoElement::Kind::kNav &&
            (ch.relation != el.relation ||
             !std::equal(el.path.begin(), el.path.end(), ch.path.begin()))) {
          continue;
        }
        if (el.kind == IsoElement::Kind::kVar && ch.relation != r) continue;
        child = c;
        break;
      }
      if (child != -1) break;
    }
    if (child == -1) {
      result = TruthAnd(result, Truth::kUnknown);
      continue;
    }
    // Compare child with arg i.
    if (Find(child) == Find(arg_elems[i])) {
      result = TruthAnd(result, Truth::kTrue);
    } else {
      // Definitely different?
      bool definitely_neq = false;
      for (const auto& [x, y] : disequalities_) {
        if ((Find(x) == Find(child) && Find(y) == Find(arg_elems[i])) ||
            (Find(y) == Find(child) && Find(x) == Find(arg_elems[i]))) {
          definitely_neq = true;
        }
      }
      std::optional<Rational> cc = ConstOf(child), ca = ConstOf(arg_elems[i]);
      if (cc.has_value() && ca.has_value() && !(*cc == *ca)) {
        definitely_neq = true;
      }
      std::optional<RelationId> rc = AnchorOf(child),
                                ra = AnchorOf(arg_elems[i]);
      if (rc.has_value() && ra.has_value() && *rc != *ra) {
        definitely_neq = true;
      }
      if (definitely_neq) return Truth::kFalse;
      result = TruthAnd(result, Truth::kUnknown);
    }
  }
  return result;
}

bool PartialIsoType::NegAtomViolated(const NegAtom& n) const {
  return EvalRelAtom(n.relation, n.args) == Truth::kTrue;
}

bool PartialIsoType::AssertEq(int a, int b) {
  if (!Union(a, b)) return false;
  if (!Close()) return false;
  return CheckConstraints();
}

bool PartialIsoType::AssertNeq(int a, int b) {
  if (Find(a) == Find(b)) return false;
  disequalities_.emplace_back(a, b);
  return CheckConstraints();
}

bool PartialIsoType::AssertAnchor(int e, RelationId r) {
  int rep = Find(e);
  if (null_tag_.count(rep) > 0) return false;
  IsoSort sort = SortOf(rep);
  if (sort.kind == IsoSort::Kind::kNumeric) return false;
  if (sort.kind == IsoSort::Kind::kId && sort.relation != r) return false;
  auto it = anchor_.find(rep);
  if (it != anchor_.end()) return it->second == r;
  anchor_.emplace(rep, r);
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
      std::vector<int> args;
      args.reserve(atom.args().size());
      for (int v : atom.args()) args.push_back(VarElement(v));
      if (!value) {
        neg_atoms_.push_back(NegAtom{atom.relation(), std::move(args)});
        return CheckConstraints();
      }
      if (!AssertAnchor(args[0], atom.relation())) return false;
      for (int i = 1; i < rel.arity(); ++i) {
        int child = NavChild(args[0], i);
        if (child == -1) continue;  // beyond depth bound: unconstrained
        if (!AssertEq(child, args[i])) return false;
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
  auto lookup = [&](const IsoElement& key) -> int {
    for (int i = 0; i < num_elements(); ++i) {
      if (elements_[i] == key) return i;
    }
    return -1;
  };
  auto lookup_term = [&](const Term& t) -> int {
    IsoElement key;
    switch (t.kind) {
      case Term::Kind::kVar:
        key.kind = IsoElement::Kind::kVar;
        key.var = t.var;
        break;
      case Term::Kind::kNull:
        key.kind = IsoElement::Kind::kNull;
        break;
      case Term::Kind::kConst:
        key.kind = IsoElement::Kind::kConst;
        key.value = t.value;
        break;
    }
    return lookup(key);
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
          std::optional<Rational> c = ConstOf(present);
          if (c.has_value()) {
            return *c == missing.value ? Truth::kTrue : Truth::kFalse;
          }
          return Truth::kUnknown;
        }
        return Truth::kUnknown;
      }
      if (Find(a) == Find(b)) return Truth::kTrue;
      for (const auto& [x, y] : disequalities_) {
        if ((Find(x) == Find(a) && Find(y) == Find(b)) ||
            (Find(y) == Find(a) && Find(x) == Find(b))) {
          return Truth::kFalse;
        }
      }
      std::optional<Rational> ca = ConstOf(a), cb = ConstOf(b);
      if (ca.has_value() && cb.has_value()) {
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
      std::vector<int> args;
      for (int v : atom.args()) {
        IsoElement key;
        key.kind = IsoElement::Kind::kVar;
        key.var = v;
        int e = lookup(key);
        if (e == -1) return Truth::kUnknown;
        args.push_back(e);
      }
      Truth t = EvalRelAtom(atom.relation(), args);
      if (t != Truth::kUnknown) return t;
      // A recorded matching negative atom decides false.
      for (const NegAtom& n : neg_atoms_) {
        if (n.relation != atom.relation()) continue;
        if (n.args.size() != args.size()) continue;
        bool all_same = true;
        for (size_t i = 0; i < args.size(); ++i) {
          if (Find(n.args[i]) != Find(args[i])) {
            all_same = false;
            break;
          }
        }
        if (all_same) return Truth::kFalse;
      }
      return Truth::kUnknown;
    }
    case CondKind::kArith: {
      const LinearConstraint& c = atom.constraint();
      if (c.op == Relop::kEq && c.expr.coefs().size() == 1 &&
          c.expr.coefs().begin()->second == Rational(1)) {
        int var = c.expr.coefs().begin()->first;
        Rational k = -c.expr.constant();
        IsoElement key;
        key.kind = IsoElement::Kind::kVar;
        key.var = var;
        int a = lookup(key);
        if (a == -1) return Truth::kUnknown;
        std::optional<Rational> tag = ConstOf(a);
        if (tag.has_value()) {
          return *tag == k ? Truth::kTrue : Truth::kFalse;
        }
        // Disequality against the constant element?
        IsoElement ckey;
        ckey.kind = IsoElement::Kind::kConst;
        ckey.value = k;
        int b = lookup(ckey);
        if (b != -1) {
          for (const auto& [x, y] : disequalities_) {
            if ((Find(x) == Find(a) && Find(y) == Find(b)) ||
                (Find(y) == Find(a) && Find(x) == Find(b))) {
              return Truth::kFalse;
            }
          }
        }
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

void PartialIsoType::Normalize() {
  bool changed = true;
  while (changed) {
    changed = false;
    for (int e = 0; e < num_elements(); ++e) {
      const IsoElement& el = elements_[e];
      if (el.kind == IsoElement::Kind::kVar) continue;
      // Referenced by disequalities or negative atoms?
      bool referenced = false;
      for (const auto& [a, b] : disequalities_) {
        if (a == e || b == e) referenced = true;
      }
      for (const NegAtom& n : neg_atoms_) {
        for (int a : n.args) {
          if (a == e) referenced = true;
        }
      }
      if (referenced) continue;
      // Has navigation children?
      bool has_children = false;
      if (el.kind == IsoElement::Kind::kNav) {
        for (int c = 0; c < num_elements(); ++c) {
          const IsoElement& ch = elements_[c];
          if (ch.kind == IsoElement::Kind::kNav && ch.var == el.var &&
              ch.relation == el.relation &&
              ch.path.size() == el.path.size() + 1 &&
              std::equal(el.path.begin(), el.path.end(), ch.path.begin())) {
            has_children = true;
            break;
          }
        }
      }
      if (has_children) continue;
      // Singleton class?
      if (ClassMembers(Find(e)).size() != 1) continue;
      // Unconstrained: remove by rebuilding without e.
      std::vector<bool> keep(num_elements(), true);
      keep[e] = false;
      *this = Rebuild(keep);
      changed = true;
      break;
    }
  }
}

PartialIsoType PartialIsoType::Rebuild(const std::vector<bool>& keep) const {
  PartialIsoType out(schema_, scope_, max_depth_);
  std::vector<int> remap(num_elements(), -1);
  for (int e = 0; e < num_elements(); ++e) {
    if (keep[e]) remap[e] = out.AddElement(elements_[e]);
  }
  // Equalities: within each old class, chain the kept members.
  for (int e = 0; e < num_elements(); ++e) {
    if (!keep[e]) continue;
    int rep = Find(e);
    for (int f = e + 1; f < num_elements(); ++f) {
      if (keep[f] && Find(f) == rep) {
        out.Union(remap[e], remap[f]);
      }
    }
  }
  // Tags (attach to any kept member of the class).
  for (int e = 0; e < num_elements(); ++e) {
    if (!keep[e]) continue;
    int rep = Find(e);
    auto a = anchor_.find(rep);
    if (a != anchor_.end()) out.anchor_.emplace(out.Find(remap[e]), a->second);
    if (null_tag_.count(rep) > 0) out.null_tag_.insert(out.Find(remap[e]));
    auto c = const_tag_.find(rep);
    if (c != const_tag_.end()) {
      out.const_tag_.emplace(out.Find(remap[e]), c->second);
    }
  }
  for (const auto& [a, b] : disequalities_) {
    if (keep[a] && keep[b]) out.disequalities_.emplace_back(remap[a], remap[b]);
  }
  for (const NegAtom& n : neg_atoms_) {
    bool all = true;
    for (int a : n.args) {
      if (!keep[a]) all = false;
    }
    if (all) {
      NegAtom copy;
      copy.relation = n.relation;
      for (int a : n.args) copy.args.push_back(remap[a]);
      out.neg_atoms_.push_back(std::move(copy));
    }
  }
  out.Close();
  return out;
}

PartialIsoType PartialIsoType::Project(const std::set<int>& vars,
                                       int depth) const {
  std::vector<bool> keep(num_elements(), false);
  for (int e = 0; e < num_elements(); ++e) {
    const IsoElement& el = elements_[e];
    switch (el.kind) {
      case IsoElement::Kind::kNull:
      case IsoElement::Kind::kConst:
        keep[e] = true;
        break;
      case IsoElement::Kind::kVar:
        keep[e] = vars.count(el.var) > 0;
        break;
      case IsoElement::Kind::kNav:
        keep[e] = vars.count(el.var) > 0 &&
                  static_cast<int>(el.path.size()) <= depth;
        break;
    }
  }
  PartialIsoType out = Rebuild(keep);
  out.Normalize();
  return out;
}

PartialIsoType PartialIsoType::Rename(const std::map<int, int>& map,
                                      const VarScope* new_scope) const {
  std::vector<bool> keep(num_elements(), false);
  for (int e = 0; e < num_elements(); ++e) {
    const IsoElement& el = elements_[e];
    if (el.kind == IsoElement::Kind::kNull ||
        el.kind == IsoElement::Kind::kConst) {
      keep[e] = true;
    } else {
      keep[e] = map.count(el.var) > 0;
    }
  }
  PartialIsoType projected = Rebuild(keep);
  // Rename in place.
  PartialIsoType out(schema_, new_scope, max_depth_);
  std::vector<int> remap(projected.num_elements(), -1);
  for (int e = 0; e < projected.num_elements(); ++e) {
    IsoElement el = projected.elements_[e];
    if (el.kind == IsoElement::Kind::kVar ||
        el.kind == IsoElement::Kind::kNav) {
      el.var = map.at(el.var);
    }
    remap[e] = out.AddElement(el);
  }
  for (int e = 0; e < projected.num_elements(); ++e) {
    int rep = projected.Find(e);
    for (int f = e + 1; f < projected.num_elements(); ++f) {
      if (projected.Find(f) == rep) out.Union(remap[e], remap[f]);
    }
  }
  for (int e = 0; e < projected.num_elements(); ++e) {
    int rep = projected.Find(e);
    auto a = projected.anchor_.find(rep);
    if (a != projected.anchor_.end()) {
      out.anchor_.emplace(out.Find(remap[e]), a->second);
    }
    if (projected.null_tag_.count(rep) > 0) {
      out.null_tag_.insert(out.Find(remap[e]));
    }
    auto c = projected.const_tag_.find(rep);
    if (c != projected.const_tag_.end()) {
      out.const_tag_.emplace(out.Find(remap[e]), c->second);
    }
  }
  for (const auto& [a, b] : projected.disequalities_) {
    out.disequalities_.emplace_back(remap[a], remap[b]);
  }
  for (const NegAtom& n : projected.neg_atoms_) {
    NegAtom copy;
    copy.relation = n.relation;
    for (int a : n.args) copy.args.push_back(remap[a]);
    out.neg_atoms_.push_back(std::move(copy));
  }
  out.Close();
  out.Normalize();
  return out;
}

bool PartialIsoType::MergeFrom(const PartialIsoType& other) {
  std::vector<int> remap(other.num_elements(), -1);
  for (int e = 0; e < other.num_elements(); ++e) {
    remap[e] = AddElement(other.elements_[e]);
  }
  for (int e = 0; e < other.num_elements(); ++e) {
    int rep = other.Find(e);
    for (int f = e + 1; f < other.num_elements(); ++f) {
      if (other.Find(f) == rep) {
        if (!AssertEq(remap[e], remap[f])) return false;
      }
    }
  }
  for (int e = 0; e < other.num_elements(); ++e) {
    int rep = other.Find(e);
    auto a = other.anchor_.find(rep);
    if (a != other.anchor_.end()) {
      if (!AssertAnchor(remap[e], a->second)) return false;
    }
    if (other.null_tag_.count(rep) > 0) {
      if (!AssertEq(remap[e], NullElement())) return false;
    }
    auto c = other.const_tag_.find(rep);
    if (c != other.const_tag_.end()) {
      if (!AssertEq(remap[e], ConstElement(c->second))) return false;
    }
  }
  for (const auto& [a, b] : other.disequalities_) {
    if (!AssertNeq(remap[a], remap[b])) return false;
  }
  for (const NegAtom& n : other.neg_atoms_) {
    NegAtom copy;
    copy.relation = n.relation;
    for (int a : n.args) copy.args.push_back(remap[a]);
    neg_atoms_.push_back(std::move(copy));
    if (!CheckConstraints()) return false;
  }
  return true;
}

void PartialIsoType::ForgetVar(int v) {
  std::vector<bool> keep(num_elements(), true);
  for (int e = 0; e < num_elements(); ++e) {
    const IsoElement& el = elements_[e];
    if ((el.kind == IsoElement::Kind::kVar ||
         el.kind == IsoElement::Kind::kNav) &&
        el.var == v) {
      keep[e] = false;
    }
  }
  *this = Rebuild(keep);
}

std::string PartialIsoType::Signature() const {
  // Order elements canonically, then emit class structure and tags.
  std::vector<int> order(num_elements());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return elements_[a] < elements_[b];
  });
  std::map<int, int> label;  // rep -> canonical class label
  std::string out;
  for (int e : order) {
    int rep = Find(e);
    auto [it, inserted] = label.emplace(rep, static_cast<int>(label.size()));
    const IsoElement& el = elements_[e];
    out += StrCat(static_cast<int>(el.kind), ":", el.var, ":", el.relation,
                  ":");
    for (AttrId a : el.path) out += StrCat(a, ".");
    if (el.kind == IsoElement::Kind::kConst) out += el.value.ToString();
    out += StrCat("=c", it->second);
    // Tags (emitted per element so they key on canonical labels).
    if (inserted) {
      auto anchor = anchor_.find(rep);
      if (anchor != anchor_.end()) out += StrCat("@", anchor->second);
      if (null_tag_.count(rep) > 0) out += "@null";
      auto c = const_tag_.find(rep);
      if (c != const_tag_.end()) out += StrCat("@k", c->second.ToString());
    }
    out += ";";
  }
  // Disequalities on canonical labels, sorted.
  std::vector<std::pair<int, int>> dis;
  for (const auto& [a, b] : disequalities_) {
    int la = label.count(Find(a)) ? label[Find(a)] : -1;
    int lb = label.count(Find(b)) ? label[Find(b)] : -1;
    dis.emplace_back(std::min(la, lb), std::max(la, lb));
  }
  std::sort(dis.begin(), dis.end());
  dis.erase(std::unique(dis.begin(), dis.end()), dis.end());
  for (const auto& [a, b] : dis) out += StrCat("!", a, ",", b, ";");
  // Negative atoms on canonical labels, sorted.
  std::vector<std::string> negs;
  for (const NegAtom& n : neg_atoms_) {
    std::string s = StrCat("~R", n.relation, "(");
    for (int a : n.args) s += StrCat(label[Find(a)], ",");
    s += ")";
    negs.push_back(std::move(s));
  }
  std::sort(negs.begin(), negs.end());
  negs.erase(std::unique(negs.begin(), negs.end()), negs.end());
  for (const std::string& s : negs) out += s;
  return out;
}

void PartialIsoType::CanonicalEncode(std::vector<int64_t>* tokens,
                                     std::vector<Rational>* consts) const {
  // Mirrors Signature(): canonical element order, dense class labels in
  // first-seen order, then tags, sorted disequalities and negative
  // atoms — emitted as int64 tokens instead of string fragments.
  constexpr int64_t kSection = INT64_MIN;  // never a valid field value
  std::vector<int> order(num_elements());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return elements_[a] < elements_[b];
  });
  std::map<int, int> label;  // rep -> canonical class label
  for (int e : order) {
    int rep = Find(e);
    auto [it, inserted] = label.emplace(rep, static_cast<int>(label.size()));
    const IsoElement& el = elements_[e];
    tokens->push_back(static_cast<int64_t>(el.kind));
    tokens->push_back(el.var);
    tokens->push_back(el.relation);
    tokens->push_back(static_cast<int64_t>(el.path.size()));
    for (AttrId a : el.path) tokens->push_back(a);
    if (el.kind == IsoElement::Kind::kConst) consts->push_back(el.value);
    tokens->push_back(it->second);
    if (inserted) {
      auto anchor = anchor_.find(rep);
      tokens->push_back(anchor != anchor_.end() ? anchor->second
                                                : kNoRelation - 1);
      tokens->push_back(null_tag_.count(rep) > 0 ? 1 : 0);
      auto c = const_tag_.find(rep);
      tokens->push_back(c != const_tag_.end() ? 1 : 0);
      if (c != const_tag_.end()) consts->push_back(c->second);
    }
  }
  tokens->push_back(kSection);
  // Disequalities on canonical labels, sorted and deduplicated.
  std::vector<std::pair<int, int>> dis;
  for (const auto& [a, b] : disequalities_) {
    auto la = label.find(Find(a));
    auto lb = label.find(Find(b));
    int va = la == label.end() ? -1 : la->second;
    int vb = lb == label.end() ? -1 : lb->second;
    dis.emplace_back(std::min(va, vb), std::max(va, vb));
  }
  std::sort(dis.begin(), dis.end());
  dis.erase(std::unique(dis.begin(), dis.end()), dis.end());
  for (const auto& [a, b] : dis) {
    tokens->push_back(a);
    tokens->push_back(b);
  }
  tokens->push_back(kSection);
  // Negative atoms on canonical labels, sorted and deduplicated. The
  // sort key differs from Signature()'s (vectors, not strings), but
  // both canonicalize the same *set*, so equality coincides.
  std::vector<std::vector<int64_t>> negs;
  for (const NegAtom& n : neg_atoms_) {
    std::vector<int64_t> enc{n.relation};
    for (int a : n.args) enc.push_back(label[Find(a)]);
    negs.push_back(std::move(enc));
  }
  std::sort(negs.begin(), negs.end());
  negs.erase(std::unique(negs.begin(), negs.end()), negs.end());
  for (const std::vector<int64_t>& n : negs) {
    tokens->push_back(static_cast<int64_t>(n.size()));
    tokens->insert(tokens->end(), n.begin(), n.end());
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
  std::vector<int64_t> tokens;
  std::vector<Rational> consts;
  CanonicalEncode(&tokens, &consts);
  return HashCanonicalEncoding(tokens, consts);
}

bool PartialIsoType::CanonicalEquals(const PartialIsoType& other) const {
  std::vector<int64_t> a_tokens, b_tokens;
  std::vector<Rational> a_consts, b_consts;
  CanonicalEncode(&a_tokens, &a_consts);
  other.CanonicalEncode(&b_tokens, &b_consts);
  return a_tokens == b_tokens && a_consts == b_consts;
}

std::string PartialIsoType::ToString() const {
  std::string out;
  std::map<int, std::vector<int>> classes;
  for (int e = 0; e < num_elements(); ++e) classes[Find(e)].push_back(e);
  for (const auto& [rep, members] : classes) {
    std::vector<std::string> names;
    for (int m : members) names.push_back(elements_[m].ToString(scope_));
    out += StrCat("{", StrJoin(names, " = "), "}");
    auto a = anchor_.find(rep);
    if (a != anchor_.end()) out += StrCat("@", schema_->relation(a->second).name());
    if (null_tag_.count(rep) > 0) out += "@null";
    auto c = const_tag_.find(rep);
    if (c != const_tag_.end()) out += StrCat("=", c->second.ToString());
    out += " ";
  }
  if (!disequalities_.empty()) {
    out += StrCat("(", disequalities_.size(), " diseq)");
  }
  if (!neg_atoms_.empty()) out += StrCat("(", neg_atoms_.size(), " negatom)");
  return out;
}

}  // namespace has
