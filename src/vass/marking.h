// Packed marking representation for the coverability engine.
//
// A marking is a vector of non-negative int64 counters with the
// sentinel kOmega (= INT64_MAX) as the accelerated "arbitrarily large"
// top element of Karp–Miller trees. The CANONICAL form strips trailing
// zeros, so a marking's stored width is exactly one past its last
// nonzero dimension and two equal markings are structurally identical.
// Canonical form is what makes the packed kernels below branch-free on
// length:
//   - DominanceLeq(a, b) — the antichain inner loop — reduces to
//     a.size() <= b.size() plus a component-wise signed a[i] <= b[i]
//     over a's width. ω needs no special lanes: with ω = INT64_MAX,
//     "b is ω" accepts any a and "a is ω against finite b" fails the
//     numeric compare, exactly the classical ω-aware order.
//   - Equal is size-equality plus memcmp.
//
// Storage is struct-of-arrays: node metadata lives in the explorer's
// node array while the marking payloads are packed back to back in a
// MarkingArena (stable chunked storage, appended in node-creation
// order), and each node holds a MarkingView — a non-owning
// (pointer, width) span. Antichain probes therefore walk contiguous
// memory instead of chasing per-node std::vector headers.
//
// DominanceLeq is one portable kernel: a 4-lane-unrolled loop that
// early-exits on the first failing lane group.
#ifndef HAS_VASS_MARKING_H_
#define HAS_VASS_MARKING_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace has {

inline constexpr int64_t kOmega = INT64_MAX;

/// A sparse delta: list of (dimension, change) pairs, applied in order.
using Delta = std::vector<std::pair<int, int64_t>>;

/// Non-owning view of a packed, canonical (trailing-zero-stripped)
/// marking: data() points at size() packed counter values. Dimensions
/// at or beyond size() read as 0 by convention; the hot kernels never
/// take that branch — canonicality turns the padded comparison
/// semantics into plain bounded loops.
class MarkingView {
 public:
  MarkingView() = default;
  /// View over `size` packed values.
  MarkingView(const int64_t* data, size_t size) : data_(data), size_(size) {}
  /// View of a canonical vector (no trailing zeros). The vector must
  /// outlive the view.
  explicit MarkingView(const std::vector<int64_t>& m)
      : MarkingView(m.data(), m.size()) {}

  /// Width: one past the last nonzero dimension.
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const int64_t* data() const { return data_; }
  /// Value of dimension d (requires d < size()).
  int64_t operator[](size_t d) const { return data_[d]; }
  const int64_t* begin() const { return data_; }
  const int64_t* end() const { return data_ + size_; }

  /// Structural equality — equivalent to the 0-padded marking equality
  /// for canonical views (a canonical marking has exactly one image).
  bool operator==(const MarkingView& o) const {
    return size_ == o.size_ &&
           (size_ == 0 ||
            std::memcmp(data_, o.data_, size_ * sizeof(int64_t)) == 0);
  }
  bool operator!=(const MarkingView& o) const { return !(*this == o); }

 private:
  const int64_t* data_ = nullptr;
  size_t size_ = 0;
};

/// Append-only arena for marking payloads. Markings are packed back to
/// back inside fixed chunks in insertion order (the explorer inserts in
/// node-creation order, so a node's marking sits next to its antichain
/// neighbours of the same exploration phase); chunk storage is stable,
/// so handed-out views never dangle. Chunks are left uninitialized:
/// only the values Add copies in are ever written.
class MarkingArena {
 public:
  /// Copies `size` values in; returns a stable view. Debug builds
  /// assert the canonical-form invariant every kernel relies on.
  MarkingView Add(const int64_t* data, size_t size) {
    assert(size == 0 || data[size - 1] != 0);
    if (size == 0) return MarkingView();
    int64_t* dst = Allocate(size);
    std::memcpy(dst, data, size * sizeof(int64_t));
    return MarkingView(dst, size);
  }
  MarkingView Add(const std::vector<int64_t>& m) {
    return Add(m.data(), m.size());
  }

 private:
  static constexpr size_t kChunkValues = size_t{1} << 13;  // 64 KiB

  int64_t* Allocate(size_t size) {
    if (size > kChunkValues) {
      // Oversized marking: dedicated chunk, spliced below the current
      // one so the running chunk keeps filling.
      chunks_.emplace_back(new int64_t[size]);
      int64_t* p = chunks_.back().get();
      if (chunks_.size() >= 2) {
        std::swap(chunks_[chunks_.size() - 2], chunks_.back());
      } else {
        used_ = kChunkValues;  // no running chunk yet
      }
      return p;
    }
    if (used_ + size > kChunkValues || chunks_.empty()) {
      chunks_.emplace_back(new int64_t[kChunkValues]);
      used_ = 0;
    }
    int64_t* p = chunks_.back().get() + used_;
    used_ += size;
    return p;
  }

  std::vector<std::unique_ptr<int64_t[]>> chunks_;
  size_t used_ = 0;
};

/// Component-wise a ≤ b with ω as top, over the 0-padded semantics —
/// THE antichain inner loop. Requires canonical views (see file
/// comment): the length test plus a plain signed lane-compare is then
/// exactly the ω-aware order, with no per-lane ω branches.
inline bool DominanceLeq(const MarkingView& a, const MarkingView& b) {
  // a wider than b: a's last dimension is nonzero (canonical) against
  // b's implicit 0 there — never ≤.
  if (a.size() > b.size()) return false;
  const int64_t* pa = a.data();
  const int64_t* pb = b.data();
  const size_t n = a.size();
  size_t i = 0;
  // 4-lane unrolled with a single branch per group.
  for (; i + 4 <= n; i += 4) {
    bool fail = (pa[i] > pb[i]) | (pa[i + 1] > pb[i + 1]) |
                (pa[i + 2] > pb[i + 2]) | (pa[i + 3] > pb[i + 3]);
    if (fail) return false;
  }
  for (; i < n; ++i) {
    if (pa[i] > pb[i]) return false;
  }
  return true;
}

/// Markings with ω: 0-padded comparison and addition helpers. The
/// std::vector overloads are the SCALAR REFERENCE semantics (and the
/// mutation API for owned markings); the MarkingView overloads are the
/// packed kernels, differentially tested against the reference in
/// tests/marking_kernel_test.cc.
namespace marking {

/// m[d], treating out-of-range as 0.
int64_t Get(const std::vector<int64_t>& m, int d);
inline int64_t Get(const MarkingView& m, int d) {
  return static_cast<size_t>(d) < m.size() ? m[static_cast<size_t>(d)] : 0;
}
void Set(std::vector<int64_t>* m, int d, int64_t v);

/// m + delta; returns false if any non-ω coordinate would go negative
/// at any point of the in-order application. Scalar reference.
bool Apply(const std::vector<int64_t>& m, const Delta& delta,
           std::vector<int64_t>* out);
/// Packed equivalent of Apply for a canonical view: checks enabledness
/// by touching ONLY the delta'd dimensions first (a disabled
/// transition is rejected without materializing the next vector), then
/// copies once at the final width and patches the touched dimensions.
/// `*out` is assigned in canonical form; reusing one scratch vector
/// across calls amortizes its allocation.
bool ApplyView(const MarkingView& m, const Delta& delta,
               std::vector<int64_t>* out);

/// Component-wise a ≤ b (ω is the top element). Scalar reference.
bool LessEq(const std::vector<int64_t>& a, const std::vector<int64_t>& b);
inline bool LessEq(const MarkingView& a, const MarkingView& b) {
  return DominanceLeq(a, b);
}
bool Equal(const std::vector<int64_t>& a, const std::vector<int64_t>& b);
inline bool Equal(const MarkingView& a, const MarkingView& b) {
  return a == b;
}
std::string ToString(const std::vector<int64_t>& m);
std::string ToString(const MarkingView& m);

}  // namespace marking

}  // namespace has

#endif  // HAS_VASS_MARKING_H_
