// Finite database instances over a DatabaseSchema (Definition 1): each
// relation holds a finite set of tuples; key and inclusion dependencies
// are checkable; navigation by foreign keys is the primitive the
// symbolic representation abstracts.
#ifndef HAS_DATA_INSTANCE_H_
#define HAS_DATA_INSTANCE_H_

#include <optional>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "data/value.h"
#include "schema/schema.h"

namespace has {

/// A tuple of a relation: values[0] is the ID, the rest follow the
/// relation's attribute order.
using Tuple = std::vector<Value>;

class DatabaseInstance {
 public:
  explicit DatabaseInstance(const DatabaseSchema* schema);

  const DatabaseSchema& schema() const { return *schema_; }

  /// Inserts a tuple (values must match the relation's attribute kinds).
  /// Rejects duplicate IDs.
  Status Insert(RelationId r, Tuple tuple);

  /// Convenience: allocates the next unused id for r, fills attributes
  /// from `attrs` (excluding the ID), returns the new ID value.
  StatusOr<Value> InsertWithFreshId(RelationId r, std::vector<Value> attrs);

  const std::vector<Tuple>& tuples(RelationId r) const { return tuples_[r]; }
  size_t TotalTuples() const;

  /// Looks up the tuple of r with the given id value.
  const Tuple* Find(RelationId r, const Value& id) const;

  /// Value of attribute a of the tuple with the given id; nullopt if the
  /// tuple is absent.
  std::optional<Value> Attr(const Value& id, AttrId a) const;

  /// Follows a navigation path starting from an ID value: each element
  /// of `path` is an attribute of the current tuple's relation; all but
  /// possibly the last must be foreign keys. Returns nullopt if any hop
  /// dangles.
  std::optional<Value> Navigate(const Value& id,
                                const std::vector<AttrId>& path) const;

  /// Verifies the key dependency (unique IDs — enforced on insert, but
  /// re-checked) and all inclusion dependencies R[Fi] ⊆ R_Fi[ID].
  Status CheckDependencies() const;

  std::string ToString() const;

 private:
  const DatabaseSchema* schema_;
  std::vector<std::vector<Tuple>> tuples_;
  // Per relation: id bits -> index into tuples_[r].
  std::vector<std::unordered_map<uint64_t, size_t>> index_;
  std::vector<uint64_t> next_id_;
};

}  // namespace has

#endif  // HAS_DATA_INSTANCE_H_
