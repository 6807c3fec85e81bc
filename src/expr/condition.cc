#include "expr/condition.h"

#include <set>

#include "common/hashing.h"
#include "common/strings.h"

namespace has {

int VarScope::AddVar(std::string name, VarSort sort) {
  vars_.push_back(VarInfo{std::move(name), sort});
  return static_cast<int>(vars_.size() - 1);
}

int VarScope::Find(const std::string& name) const {
  for (size_t i = 0; i < vars_.size(); ++i) {
    if (vars_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

std::vector<int> VarScope::IdVars() const {
  std::vector<int> out;
  for (int i = 0; i < size(); ++i) {
    if (vars_[i].sort == VarSort::kId) out.push_back(i);
  }
  return out;
}

std::vector<int> VarScope::NumericVars() const {
  std::vector<int> out;
  for (int i = 0; i < size(); ++i) {
    if (vars_[i].sort == VarSort::kNumeric) out.push_back(i);
  }
  return out;
}

std::shared_ptr<Condition> Condition::New() {
  // One allocation for the node and its control block; the local class
  // reaches the private constructor from inside Condition's scope.
  struct Node : Condition {};
  return std::make_shared<Node>();
}

CondPtr Condition::True() {
  auto c = New();
  c->kind_ = CondKind::kTrue;
  c->Seal();
  return c;
}

CondPtr Condition::False() {
  auto c = New();
  c->kind_ = CondKind::kFalse;
  c->Seal();
  return c;
}

CondPtr Condition::Eq(Term lhs, Term rhs) {
  auto c = New();
  c->kind_ = CondKind::kEq;
  c->lhs_ = std::move(lhs);
  c->rhs_ = std::move(rhs);
  c->Seal();
  return c;
}

CondPtr Condition::Rel(RelationId relation, std::vector<int> args) {
  auto c = New();
  c->kind_ = CondKind::kRel;
  c->relation_ = relation;
  c->args_ = std::move(args);
  c->Seal();
  return c;
}

CondPtr Condition::Arith(LinearConstraint constraint) {
  auto c = New();
  c->kind_ = CondKind::kArith;
  c->constraint_ = std::move(constraint);
  c->Seal();
  return c;
}

CondPtr Condition::Not(CondPtr inner) {
  auto c = New();
  c->kind_ = CondKind::kNot;
  c->children_.push_back(std::move(inner));
  c->Seal();
  return c;
}

CondPtr Condition::And(CondPtr a, CondPtr b) {
  auto c = New();
  c->kind_ = CondKind::kAnd;
  c->children_.push_back(std::move(a));
  c->children_.push_back(std::move(b));
  c->Seal();
  return c;
}

CondPtr Condition::Or(CondPtr a, CondPtr b) {
  auto c = New();
  c->kind_ = CondKind::kOr;
  c->children_.push_back(std::move(a));
  c->children_.push_back(std::move(b));
  c->Seal();
  return c;
}

CondPtr Condition::AndAll(const std::vector<CondPtr>& cs) {
  if (cs.empty()) return True();
  CondPtr out = cs[0];
  for (size_t i = 1; i < cs.size(); ++i) out = And(out, cs[i]);
  return out;
}

bool Condition::Equals(const Condition& o) const {
  if (hash_ != o.hash_ || kind_ != o.kind_) return false;
  switch (kind_) {
    case CondKind::kTrue:
    case CondKind::kFalse:
      return true;
    case CondKind::kEq:
      return lhs_ == o.lhs_ && rhs_ == o.rhs_;
    case CondKind::kRel:
      return relation_ == o.relation_ && args_ == o.args_;
    case CondKind::kArith:
      return constraint_ == o.constraint_;
    case CondKind::kNot:
    case CondKind::kAnd:
    case CondKind::kOr: {
      if (children_.size() != o.children_.size()) return false;
      for (size_t i = 0; i < children_.size(); ++i) {
        if (!children_[i]->Equals(*o.children_[i])) return false;
      }
      return true;
    }
  }
  return false;
}

void Condition::Seal() {
  size_t seed = static_cast<size_t>(kind_);
  switch (kind_) {
    case CondKind::kTrue:
    case CondKind::kFalse:
      break;
    case CondKind::kEq:
      HashMix(&seed, static_cast<int>(lhs_.kind));
      HashMix(&seed, lhs_.var);
      HashMix(&seed, lhs_.value.Hash());
      HashMix(&seed, static_cast<int>(rhs_.kind));
      HashMix(&seed, rhs_.var);
      HashMix(&seed, rhs_.value.Hash());
      break;
    case CondKind::kRel:
      HashMix(&seed, relation_);
      for (int a : args_) HashMix(&seed, a);
      break;
    case CondKind::kArith:
      HashMix(&seed, static_cast<int>(constraint_.op));
      HashMix(&seed, constraint_.expr.Hash());
      break;
    case CondKind::kNot:
    case CondKind::kAnd:
    case CondKind::kOr:
      for (const CondPtr& c : children_) {
        HashMix(&seed, c == nullptr ? size_t{0} : c->hash_);
      }
      break;
  }
  hash_ = seed;
}

void Condition::CollectAtoms(std::vector<const Condition*>* out) const {
  if (IsAtom()) {
    for (const Condition* seen : *out) {
      if (seen->Equals(*this)) return;
    }
    out->push_back(this);
    return;
  }
  for (const CondPtr& c : children_) c->CollectAtoms(out);
}

void Condition::CollectVars(std::vector<int>* out) const {
  auto add = [out](int v) {
    for (int seen : *out) {
      if (seen == v) return;
    }
    out->push_back(v);
  };
  switch (kind_) {
    case CondKind::kEq:
      if (lhs_.kind == Term::Kind::kVar) add(lhs_.var);
      if (rhs_.kind == Term::Kind::kVar) add(rhs_.var);
      break;
    case CondKind::kRel:
      for (int a : args_) add(a);
      break;
    case CondKind::kArith:
      for (ArithVar v : constraint_.expr.Vars()) add(v);
      break;
    default:
      for (const CondPtr& c : children_) c->CollectVars(out);
      break;
  }
}

CondPtr Condition::MapVars(const std::vector<int>& map) const {
  auto remap = [&map](int v) { return v >= 0 && v < static_cast<int>(map.size()) ? map[v] : v; };
  switch (kind_) {
    case CondKind::kTrue:
      return True();
    case CondKind::kFalse:
      return False();
    case CondKind::kEq: {
      Term l = lhs_, r = rhs_;
      if (l.kind == Term::Kind::kVar) l.var = remap(l.var);
      if (r.kind == Term::Kind::kVar) r.var = remap(r.var);
      return Eq(std::move(l), std::move(r));
    }
    case CondKind::kRel: {
      std::vector<int> args = args_;
      for (int& a : args) a = remap(a);
      return Rel(relation_, std::move(args));
    }
    case CondKind::kArith: {
      std::map<ArithVar, ArithVar> arith_map;
      for (ArithVar v : constraint_.expr.Vars()) arith_map[v] = remap(v);
      return Arith(LinearConstraint{constraint_.expr.Rename(arith_map),
                                    constraint_.op});
    }
    case CondKind::kNot:
      return Not(children_[0]->MapVars(map));
    case CondKind::kAnd:
      return And(children_[0]->MapVars(map), children_[1]->MapVars(map));
    case CondKind::kOr:
      return Or(children_[0]->MapVars(map), children_[1]->MapVars(map));
  }
  return True();
}

Status Condition::CheckWellFormed(const VarScope& scope,
                                  const DatabaseSchema& schema) const {
  auto check_var = [&scope](int v, VarSort want) -> Status {
    if (v < 0 || v >= scope.size()) {
      return Status::InvalidArgument(StrCat("variable index ", v,
                                            " out of scope (size ",
                                            scope.size(), ")"));
    }
    if (scope.var(v).sort != want) {
      return Status::InvalidArgument(
          StrCat("variable ", scope.var(v).name, " has wrong sort"));
    }
    return Status::Ok();
  };
  switch (kind_) {
    case CondKind::kTrue:
    case CondKind::kFalse:
      return Status::Ok();
    case CondKind::kEq: {
      // Sorts must agree: id-with-id/null, numeric-with-numeric/const.
      auto term_sort = [&](const Term& t) -> int {
        switch (t.kind) {
          case Term::Kind::kNull:
            return 0;  // id-compatible
          case Term::Kind::kConst:
            return 1;  // numeric-compatible
          case Term::Kind::kVar:
            if (t.var < 0 || t.var >= scope.size()) return -1;
            return scope.var(t.var).sort == VarSort::kId ? 0 : 1;
        }
        return -1;
      };
      int ls = term_sort(lhs_), rs = term_sort(rhs_);
      if (ls < 0 || rs < 0) {
        return Status::InvalidArgument("equality with out-of-scope variable");
      }
      if (ls != rs) {
        return Status::InvalidArgument(
            "equality between ID and numeric terms");
      }
      return Status::Ok();
    }
    case CondKind::kRel: {
      if (relation_ < 0 || relation_ >= schema.num_relations()) {
        return Status::InvalidArgument(
            StrCat("unknown relation id ", relation_));
      }
      const Relation& rel = schema.relation(relation_);
      if (static_cast<int>(args_.size()) != rel.arity()) {
        return Status::InvalidArgument(
            StrCat("relation atom ", rel.name(), " expects ", rel.arity(),
                   " arguments, got ", args_.size()));
      }
      for (int i = 0; i < rel.arity(); ++i) {
        VarSort want = rel.attr(i).kind == AttrKind::kNumeric
                           ? VarSort::kNumeric
                           : VarSort::kId;
        HAS_RETURN_IF_ERROR(check_var(args_[i], want));
      }
      return Status::Ok();
    }
    case CondKind::kArith: {
      for (ArithVar v : constraint_.expr.Vars()) {
        HAS_RETURN_IF_ERROR(check_var(v, VarSort::kNumeric));
      }
      return Status::Ok();
    }
    case CondKind::kNot:
    case CondKind::kAnd:
    case CondKind::kOr:
      for (const CondPtr& c : children_) {
        HAS_RETURN_IF_ERROR(c->CheckWellFormed(scope, schema));
      }
      return Status::Ok();
  }
  return Status::Ok();
}

bool Condition::UsesArithmetic() const {
  switch (kind_) {
    case CondKind::kArith: {
      // x - c = 0 (a constant tag) does not require the cell machinery;
      // anything else does.
      if (constraint_.op == Relop::kEq &&
          constraint_.expr.coefs().size() == 1 &&
          constraint_.expr.coefs().begin()->second == Rational(1)) {
        return false;
      }
      return true;
    }
    case CondKind::kNot:
    case CondKind::kAnd:
    case CondKind::kOr:
      for (const CondPtr& c : children_) {
        if (c->UsesArithmetic()) return true;
      }
      return false;
    default:
      return false;
  }
}

std::string Condition::ToString(const VarScope& scope,
                                const DatabaseSchema* schema) const {
  auto var_name = [&scope](int v) {
    if (v >= 0 && v < scope.size()) return scope.var(v).name;
    return StrCat("?v", v);
  };
  auto term_str = [&](const Term& t) {
    switch (t.kind) {
      case Term::Kind::kVar:
        return var_name(t.var);
      case Term::Kind::kNull:
        return std::string("null");
      case Term::Kind::kConst:
        return t.value.ToString();
    }
    return std::string("?");
  };
  switch (kind_) {
    case CondKind::kTrue:
      return "true";
    case CondKind::kFalse:
      return "false";
    case CondKind::kEq:
      return StrCat(term_str(lhs_), " == ", term_str(rhs_));
    case CondKind::kRel: {
      std::vector<std::string> parts;
      for (int a : args_) parts.push_back(var_name(a));
      std::string rel_name = schema != nullptr && relation_ >= 0 &&
                                     relation_ < schema->num_relations()
                                 ? schema->relation(relation_).name()
                                 : StrCat("R", relation_);
      return StrCat(rel_name, "(", StrJoin(parts, ", "), ")");
    }
    case CondKind::kArith: {
      // Render with variable names where possible.
      std::vector<std::string> parts;
      for (const auto& [v, c] : constraint_.expr.coefs()) {
        if (c == Rational(1)) {
          parts.push_back(var_name(v));
        } else {
          parts.push_back(StrCat(c.ToString(), "*", var_name(v)));
        }
      }
      if (!constraint_.expr.constant().is_zero() || parts.empty()) {
        parts.push_back(constraint_.expr.constant().ToString());
      }
      return StrCat(StrJoin(parts, " + "), " ", RelopName(constraint_.op),
                    " 0");
    }
    case CondKind::kNot:
      return StrCat("!(", children_[0]->ToString(scope, schema), ")");
    case CondKind::kAnd:
      return StrCat("(", children_[0]->ToString(scope, schema), " && ",
                    children_[1]->ToString(scope, schema), ")");
    case CondKind::kOr:
      return StrCat("(", children_[0]->ToString(scope, schema), " || ",
                    children_[1]->ToString(scope, schema), ")");
  }
  return "?";
}

}  // namespace has
