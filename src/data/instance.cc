#include "data/instance.h"

#include <set>

#include "common/strings.h"

namespace has {

DatabaseInstance::DatabaseInstance(const DatabaseSchema* schema)
    : schema_(schema),
      tuples_(schema->num_relations()),
      index_(schema->num_relations()),
      next_id_(schema->num_relations(), 1) {}

Status DatabaseInstance::Insert(RelationId r, Tuple tuple) {
  const Relation& rel = schema_->relation(r);
  if (static_cast<int>(tuple.size()) != rel.arity()) {
    return Status::InvalidArgument(
        StrCat("arity mismatch inserting into ", rel.name(), ": got ",
               tuple.size(), ", want ", rel.arity()));
  }
  for (int a = 0; a < rel.arity(); ++a) {
    const Attribute& attr = rel.attr(a);
    const Value& v = tuple[a];
    switch (attr.kind) {
      case AttrKind::kId:
        if (!v.is_id() || v.relation() != r) {
          return Status::InvalidArgument(
              StrCat("bad ID value for ", rel.name(), ": ", v.ToString()));
        }
        break;
      case AttrKind::kNumeric:
        if (!v.is_real()) {
          return Status::InvalidArgument(
              StrCat("attribute ", attr.name, " of ", rel.name(),
                     " must be numeric, got ", v.ToString()));
        }
        break;
      case AttrKind::kForeign:
        if (!v.is_id() || v.relation() != attr.references) {
          return Status::InvalidArgument(
              StrCat("foreign key ", attr.name, " of ", rel.name(),
                     " must reference relation ", attr.references, ", got ",
                     v.ToString()));
        }
        break;
    }
  }
  uint64_t id_bits = tuple[0].id();
  if (index_[r].count(id_bits) > 0) {
    return Status::InvalidArgument(
        StrCat("duplicate ID ", tuple[0].ToString(), " in ", rel.name()));
  }
  index_[r][id_bits] = tuples_[r].size();
  next_id_[r] = std::max(next_id_[r], id_bits + 1);
  tuples_[r].push_back(std::move(tuple));
  return Status::Ok();
}

StatusOr<Value> DatabaseInstance::InsertWithFreshId(RelationId r,
                                                    std::vector<Value> attrs) {
  Value id = Value::Id(r, next_id_[r]);
  Tuple tuple;
  tuple.reserve(attrs.size() + 1);
  tuple.push_back(id);
  for (Value& v : attrs) tuple.push_back(std::move(v));
  HAS_RETURN_IF_ERROR(Insert(r, std::move(tuple)));
  return id;
}

size_t DatabaseInstance::TotalTuples() const {
  size_t n = 0;
  for (const auto& ts : tuples_) n += ts.size();
  return n;
}

const Tuple* DatabaseInstance::Find(RelationId r, const Value& id) const {
  if (!id.is_id() || id.relation() != r) return nullptr;
  auto it = index_[r].find(id.id());
  if (it == index_[r].end()) return nullptr;
  return &tuples_[r][it->second];
}

std::optional<Value> DatabaseInstance::Attr(const Value& id, AttrId a) const {
  if (!id.is_id()) return std::nullopt;
  const Tuple* t = Find(id.relation(), id);
  if (t == nullptr || a < 0 || a >= static_cast<int>(t->size())) {
    return std::nullopt;
  }
  return (*t)[a];
}

std::optional<Value> DatabaseInstance::Navigate(
    const Value& id, const std::vector<AttrId>& path) const {
  Value cur = id;
  for (AttrId a : path) {
    std::optional<Value> next = Attr(cur, a);
    if (!next.has_value()) return std::nullopt;
    cur = *next;
  }
  return cur;
}

Status DatabaseInstance::CheckDependencies() const {
  for (RelationId r = 0; r < schema_->num_relations(); ++r) {
    const Relation& rel = schema_->relation(r);
    std::set<uint64_t> ids;
    for (const Tuple& t : tuples_[r]) {
      if (!ids.insert(t[0].id()).second) {
        return Status::FailedPrecondition(
            StrCat("key violation in ", rel.name(), " on id ",
                   t[0].ToString()));
      }
      for (AttrId a : rel.ForeignKeyAttrs()) {
        const Value& fk = t[a];
        if (Find(rel.attr(a).references, fk) == nullptr) {
          return Status::FailedPrecondition(
              StrCat("inclusion violation: ", rel.name(), ".",
                     rel.attr(a).name, " = ", fk.ToString(),
                     " has no referenced tuple"));
        }
      }
    }
  }
  return Status::Ok();
}

std::string DatabaseInstance::ToString() const {
  std::string out;
  for (RelationId r = 0; r < schema_->num_relations(); ++r) {
    out += schema_->relation(r).name();
    out += ": {";
    std::vector<std::string> rows;
    for (const Tuple& t : tuples_[r]) {
      std::vector<std::string> cells;
      for (const Value& v : t) cells.push_back(v.ToString());
      rows.push_back(StrCat("(", StrJoin(cells, ", "), ")"));
    }
    out += StrJoin(rows, ", ");
    out += "}\n";
  }
  return out;
}

}  // namespace has
