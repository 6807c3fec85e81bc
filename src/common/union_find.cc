#include "common/union_find.h"

#include <numeric>

namespace has {

UnionFind::UnionFind(size_t n) : parent_(n), rank_(n, 0) {
  std::iota(parent_.begin(), parent_.end(), 0);
}

int UnionFind::AddElement() {
  int id = static_cast<int>(parent_.size());
  parent_.push_back(id);
  rank_.push_back(0);
  return id;
}

void UnionFind::Reset(size_t n) {
  parent_.resize(n);
  std::iota(parent_.begin(), parent_.end(), 0);
  rank_.assign(n, 0);
}

int UnionFind::Find(int x) const {
  int root = x;
  while (parent_[root] != root) root = parent_[root];
  while (parent_[x] != root) {
    int next = parent_[x];
    parent_[x] = root;
    x = next;
  }
  return root;
}

int UnionFind::Union(int a, int b) {
  int ra = Find(a);
  int rb = Find(b);
  if (ra == rb) return ra;
  if (rank_[ra] < rank_[rb]) std::swap(ra, rb);
  parent_[rb] = ra;
  if (rank_[ra] == rank_[rb]) ++rank_[ra];
  return ra;
}

int UnionFind::NumClasses() const {
  int count = 0;
  for (size_t i = 0; i < parent_.size(); ++i) {
    if (Find(static_cast<int>(i)) == static_cast<int>(i)) ++count;
  }
  return count;
}

std::vector<int> UnionFind::CanonicalLabels() const {
  std::vector<int> label(parent_.size(), -1);
  int next = 0;
  for (size_t i = 0; i < parent_.size(); ++i) {
    int root = Find(static_cast<int>(i));
    if (label[root] == -1) label[root] = next++;
    label[i] = label[root];
  }
  return label;
}

}  // namespace has
