// Union-find (disjoint set) with path compression and union by rank.
// The symbolic core uses this as the backbone of partial isomorphism
// types (equality types over navigation expressions, Definition 15).
#ifndef HAS_COMMON_UNION_FIND_H_
#define HAS_COMMON_UNION_FIND_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace has {

class UnionFind {
 public:
  UnionFind() = default;
  explicit UnionFind(size_t n);

  /// Adds a fresh singleton element; returns its index.
  int AddElement();

  /// Back to `n` singletons, keeping the allocated capacity.
  void Reset(size_t n);

  /// Representative of x's class (with path compression).
  int Find(int x) const;

  /// Merges the classes of a and b; returns the surviving representative.
  int Union(int a, int b);

  bool Same(int a, int b) const { return Find(a) == Find(b); }

  size_t size() const { return parent_.size(); }

  /// Number of distinct classes.
  int NumClasses() const;

  /// Canonical class labels: result[i] in [0, NumClasses) with classes
  /// numbered in order of first appearance. Stable across equal
  /// partitions, used to build canonical signatures of iso types.
  std::vector<int> CanonicalLabels() const;

 private:
  // parent_/rank_ are mutable so Find can compress paths from const
  // contexts (logical constness: the partition itself never changes).
  mutable std::vector<int> parent_;
  std::vector<int> rank_;
};

}  // namespace has

#endif  // HAS_COMMON_UNION_FIND_H_
