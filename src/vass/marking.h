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
// Wide mostly-zero markings (multi-relation products at k >= 2 are
// ~75% zeros) can instead be stored as ascending (dimension, value)
// pairs — see MarkingView's class comment and MarkingArena::AddAuto
// for the per-marking selection rule. The representation is
// transparent behind the logical accessors and the DominanceLeq entry
// point (sparse operands dispatch to a pair-merge kernel).
//
// The dominance kernel is selected at compile time behind the single
// DominanceLeq entry point: an AVX2 (4-lane) or SSE4.2 (2-lane) path
// when the target ISA provides 64-bit vector compares, otherwise a
// portable 4-lane-unrolled scalar loop; both early-exit on the first
// failing lane group. Defining HAS_FORCE_SCALAR_DOMINANCE (CMake
// option of the same name) forces the portable path so CI can keep
// both code paths green.
#ifndef HAS_VASS_MARKING_H_
#define HAS_VASS_MARKING_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#if !defined(HAS_FORCE_SCALAR_DOMINANCE) && \
    (defined(__AVX2__) || defined(__SSE4_2__))
#include <immintrin.h>
#endif

namespace has {

inline constexpr int64_t kOmega = INT64_MAX;

/// A sparse delta: list of (dimension, change) pairs, applied in order.
using Delta = std::vector<std::pair<int, int64_t>>;

class MarkingView;

/// Structural equality across a dense/sparse representation pair
/// (marking.cc). Both views must be canonical.
bool MarkingViewEqualMixed(const MarkingView& a, const MarkingView& b);
/// Dominance compare with at least one sparse operand (marking.cc).
bool DominanceLeqSparse(const MarkingView& a, const MarkingView& b);

/// Non-owning view of a packed, canonical (trailing-zero-stripped)
/// marking. Dimensions at or beyond size() read as 0 by convention;
/// the hot kernels never take that branch — canonicality turns the
/// padded comparison semantics into plain bounded loops.
///
/// Two payload representations live behind the same view type, tagged
/// in the top bit of the 32-bit size word:
///   - DENSE: data() points at size() packed counter values (the PR 6
///     layout, and the only layout the SIMD kernel ever touches).
///   - SPARSE: data() points at num_pairs() ascending
///     (dimension, value) int64 pairs holding exactly the nonzero
///     dimensions. Canonical form makes the logical width derivable in
///     O(1): the last pair IS the last nonzero dimension, so
///     size() = last pair's dimension + 1.
/// The representation is chosen per marking at arena-append time
/// (MarkingArena::AddAuto) and is invisible through the logical
/// accessors (size / operator[] / iteration / == / DominanceLeq).
class MarkingView {
 public:
  MarkingView() = default;
  /// Dense view over `size` packed values.
  MarkingView(const int64_t* data, size_t size)
      : data_(data), tag_(static_cast<uint32_t>(size)) {}
  /// Dense view of a canonical vector (no trailing zeros). The vector
  /// must outlive the view.
  explicit MarkingView(const std::vector<int64_t>& m)
      : MarkingView(m.data(), m.size()) {}
  /// Sparse view over `num_pairs` ascending (dimension, value) pairs;
  /// every stored value must be nonzero and num_pairs must be > 0
  /// (the empty marking is always dense).
  static MarkingView Sparse(const int64_t* pairs, size_t num_pairs) {
    MarkingView v;
    v.data_ = pairs;
    v.tag_ = static_cast<uint32_t>(num_pairs) | kSparseBit;
    return v;
  }

  bool sparse() const { return (tag_ & kSparseBit) != 0; }
  /// Number of stored (dimension, value) pairs; meaningful only for
  /// sparse views.
  size_t num_pairs() const { return tag_ & ~kSparseBit; }
  /// Logical width (one past the last nonzero dimension).
  size_t size() const {
    if (!sparse()) return tag_;
    return static_cast<size_t>(data_[2 * (num_pairs() - 1)]) + 1;
  }
  bool empty() const { return tag_ == 0; }
  /// Raw payload pointer: packed values (dense) or packed pairs
  /// (sparse). Kernels that touch it must branch on sparse().
  const int64_t* data() const { return data_; }
  /// Logical value of dimension d (requires d < size()); sparse views
  /// binary-search their pair list, off-support dimensions read 0.
  int64_t operator[](size_t d) const {
    if (!sparse()) return data_[d];
    size_t lo = 0, hi = num_pairs();
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      const int64_t dim = data_[2 * mid];
      if (dim < static_cast<int64_t>(d)) {
        lo = mid + 1;
      } else if (dim > static_cast<int64_t>(d)) {
        hi = mid;
      } else {
        return data_[2 * mid + 1];
      }
    }
    return 0;
  }

  /// Logical-dimension iterator: yields size() values in dimension
  /// order for either representation (sparse iteration advances a pair
  /// cursor instead of binary-searching per dimension).
  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = int64_t;
    using difference_type = std::ptrdiff_t;
    using pointer = const int64_t*;
    using reference = int64_t;

    const_iterator(const MarkingView* v, size_t dim) : v_(v), dim_(dim) {}
    int64_t operator*() const {
      if (!v_->sparse()) return v_->data_[dim_];
      const size_t n = v_->num_pairs();
      while (pair_ < n &&
             v_->data_[2 * pair_] < static_cast<int64_t>(dim_)) {
        ++pair_;
      }
      return pair_ < n && v_->data_[2 * pair_] == static_cast<int64_t>(dim_)
                 ? v_->data_[2 * pair_ + 1]
                 : 0;
    }
    const_iterator& operator++() {
      ++dim_;
      return *this;
    }
    bool operator==(const const_iterator& o) const { return dim_ == o.dim_; }
    bool operator!=(const const_iterator& o) const { return dim_ != o.dim_; }

   private:
    const MarkingView* v_;
    size_t dim_;
    mutable size_t pair_ = 0;
  };
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, empty() ? 0 : size()}; }

  /// Structural equality — equivalent to the 0-padded marking equality
  /// for canonical views, across representations.
  bool operator==(const MarkingView& o) const {
    if (tag_ == o.tag_) {
      // Same representation and same payload length: bytewise compare
      // (a canonical marking has exactly one image per representation).
      const size_t values = sparse() ? 2 * num_pairs() : size();
      return values == 0 ||
             std::memcmp(data_, o.data_, values * sizeof(int64_t)) == 0;
    }
    // Same representation but different width/pair count: canonical
    // forms differ. Mixed representations need the logical walk.
    if (sparse() == o.sparse()) return false;
    return MarkingViewEqualMixed(*this, o);
  }
  bool operator!=(const MarkingView& o) const { return !(*this == o); }

 private:
  static constexpr uint32_t kSparseBit = uint32_t{1} << 31;

  const int64_t* data_ = nullptr;
  uint32_t tag_ = 0;
};

/// Append-only arena for marking payloads. Markings are packed back to
/// back inside fixed chunks in insertion order (the explorer inserts in
/// node-creation order, so a node's marking sits next to its antichain
/// neighbours of the same exploration phase); chunk storage is stable,
/// so handed-out views never dangle.
class MarkingArena {
 public:
  /// Copies `size` values in; returns a stable view. Debug builds
  /// assert the canonical-form invariant every kernel relies on.
  MarkingView Add(const int64_t* data, size_t size) {
    assert(size == 0 || data[size - 1] != 0);
    if (size == 0) return MarkingView();
    int64_t* dst = Allocate(size);
    std::memcpy(dst, data, size * sizeof(int64_t));
    total_values_ += size;
    return MarkingView(dst, size);
  }
  MarkingView Add(const std::vector<int64_t>& m) {
    return Add(m.data(), m.size());
  }

  /// Copies `m` in under whichever representation is smaller, per the
  /// selection rule: a marking of width >= kSparseMinWidth whose
  /// (dimension, value) pair payload is strictly smaller than its
  /// dense payload (2 * nnz < width, i.e. density below 50%) is stored
  /// sparse; everything else stays dense. The rule is entry-local and
  /// a pure function of the marking, so the stored representation is
  /// deterministic.
  MarkingView AddAuto(const int64_t* data, size_t size) {
    assert(size == 0 || data[size - 1] != 0);
    size_t nnz = 0;
    for (size_t i = 0; i < size; ++i) nnz += data[i] != 0;
    if (size < kSparseMinWidth || 2 * nnz >= size) return Add(data, size);
    int64_t* dst = Allocate(2 * nnz);
    size_t j = 0;
    for (size_t d = 0; d < size; ++d) {
      if (data[d] == 0) continue;
      dst[2 * j] = static_cast<int64_t>(d);
      dst[2 * j + 1] = data[d];
      ++j;
    }
    total_values_ += 2 * nnz;
    ++sparse_markings_;
    return MarkingView::Sparse(dst, nnz);
  }
  MarkingView AddAuto(const std::vector<int64_t>& m) {
    return AddAuto(m.data(), m.size());
  }

  /// Total packed counter values stored (bench/introspection).
  size_t total_values() const { return total_values_; }
  /// Markings stored under the sparse pair representation.
  size_t sparse_markings() const { return sparse_markings_; }

  /// Minimum logical width for AddAuto to consider the sparse
  /// representation — below it the pair payload can't meaningfully
  /// undercut the dense one and the SIMD kernel is at its best.
  static constexpr size_t kSparseMinWidth = 8;

 private:
  static constexpr size_t kChunkValues = size_t{1} << 13;  // 64 KiB

  int64_t* Allocate(size_t size) {
    if (size > kChunkValues) {
      // Oversized marking: dedicated chunk, spliced below the current
      // one so the running chunk keeps filling.
      chunks_.push_back(std::make_unique<int64_t[]>(size));
      int64_t* p = chunks_.back().get();
      if (chunks_.size() >= 2) {
        std::swap(chunks_[chunks_.size() - 2], chunks_.back());
      } else {
        used_ = kChunkValues;  // no running chunk yet
      }
      return p;
    }
    if (used_ + size > kChunkValues || chunks_.empty()) {
      chunks_.push_back(std::make_unique<int64_t[]>(kChunkValues));
      used_ = 0;
    }
    int64_t* p = chunks_.back().get() + used_;
    used_ += size;
    return p;
  }

  std::vector<std::unique_ptr<int64_t[]>> chunks_;
  size_t used_ = 0;
  size_t total_values_ = 0;
  size_t sparse_markings_ = 0;
};

/// Component-wise a ≤ b with ω as top, over the 0-padded semantics —
/// THE antichain inner loop. Requires canonical views (see file
/// comment): the length test plus a plain signed lane-compare is then
/// exactly the ω-aware order, with no per-lane ω branches.
inline bool DominanceLeq(const MarkingView& a, const MarkingView& b) {
  // Sparse operands take the pair-merge kernel in marking.cc; the SIMD
  // body below only ever sees two dense payloads.
  if (a.sparse() || b.sparse()) return DominanceLeqSparse(a, b);
  // a wider than b: a's last dimension is nonzero (canonical) against
  // b's implicit 0 there — never ≤.
  if (a.size() > b.size()) return false;
  const int64_t* pa = a.data();
  const int64_t* pb = b.data();
  const size_t n = a.size();
  size_t i = 0;
#if !defined(HAS_FORCE_SCALAR_DOMINANCE) && defined(__AVX2__)
  for (; i + 4 <= n; i += 4) {
    __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pa + i));
    __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pb + i));
    __m256i gt = _mm256_cmpgt_epi64(va, vb);
    if (!_mm256_testz_si256(gt, gt)) return false;
  }
#elif !defined(HAS_FORCE_SCALAR_DOMINANCE) && defined(__SSE4_2__)
  for (; i + 2 <= n; i += 2) {
    __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(pa + i));
    __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(pb + i));
    if (_mm_movemask_epi8(_mm_cmpgt_epi64(va, vb)) != 0) return false;
  }
#else
  // Portable path: 4-lane unrolled with a single branch per group.
  for (; i + 4 <= n; i += 4) {
    bool fail = (pa[i] > pb[i]) | (pa[i + 1] > pb[i + 1]) |
                (pa[i + 2] > pb[i + 2]) | (pa[i + 3] > pb[i + 3]);
    if (fail) return false;
  }
#endif
  for (; i < n; ++i) {
    if (pa[i] > pb[i]) return false;
  }
  return true;
}

/// 64-bit per-dimension-group support summary: bit (d & 31) of the low
/// word is set when dimension d is nonzero, bit (d & 31) of the high
/// word when it is ω. Counter dimensions are grouped
/// (relation, TS-type) upstream and allocated in discovery order, so
/// for the typical narrow products (≤ 32 dims) the low word is the
/// exact nonzero support.
///
/// Filter soundness (summary miss ⇒ dominance impossible): a ≤ b needs
/// b[d] > 0 wherever a[d] > 0 and b[d] = ω wherever a[d] = ω. If
/// `SupportSummary(a) & ~SupportSummary(b)` has a low-word bit, some
/// group holds a nonzero a-dimension while ALL of b's dimensions in
/// that group are 0 — so some a[d] > 0 = b[d]; a high-word bit means
/// some group holds an ω of a but no ω of b — so some a[d] = ω > b[d].
/// Either way a ≤ b is impossible; skipping the entry never changes
/// the dominance decision, only avoids the vector compare.
inline uint64_t SupportSummary(const MarkingView& m) {
  uint64_t summary = 0;
  if (m.sparse()) {
    const int64_t* p = m.data();
    for (size_t i = 0, n = m.num_pairs(); i < n; ++i) {
      const size_t d = static_cast<size_t>(p[2 * i]);
      summary |= uint64_t{1} << (d & 31);
      if (p[2 * i + 1] == kOmega) summary |= uint64_t{1} << (32 + (d & 31));
    }
    return summary;
  }
  for (size_t d = 0; d < m.size(); ++d) {
    const int64_t v = m[d];
    if (v == 0) continue;
    summary |= uint64_t{1} << (d & 31);
    if (v == kOmega) summary |= uint64_t{1} << (32 + (d & 31));
  }
  return summary;
}

/// Whether a summary-`a` marking can possibly be ≤ some summary-`b`
/// marking (necessary condition; see SupportSummary).
inline bool SummaryMayDominate(uint64_t a, uint64_t b) {
  return (a & ~b) == 0;
}

/// Extended two-word summary used by the bucketed dominance index
/// (vass/dominance_index.h). `support` is SupportSummary above;
/// `magnitude` adds per-group value-threshold bits: bit (d & 31) of
/// the low word when some dimension of the group holds a value >= 2,
/// of the high word when >= 4 (ω = INT64_MAX sets both).
///
/// Soundness mirrors the support argument per threshold t ∈ {2, 4}:
/// a ≤ b and a[d] >= t imply b[d] >= t, and that survives the group-OR
/// collapse — so (a.magnitude & ~b.magnitude) != 0 exhibits a group
/// where a holds a >=t value but b tops out below t, refuting a ≤ b.
struct MarkingSummary {
  uint64_t support = 0;
  uint64_t magnitude = 0;

  bool operator==(const MarkingSummary& o) const {
    return support == o.support && magnitude == o.magnitude;
  }
  bool operator!=(const MarkingSummary& o) const { return !(*this == o); }
};

inline MarkingSummary ExtendedSummary(const MarkingView& m) {
  MarkingSummary s;
  auto add = [&s](size_t d, int64_t v) {
    const uint64_t group = uint64_t{1} << (d & 31);
    s.support |= group;
    if (v >= 2) s.magnitude |= group;
    if (v >= 4) s.magnitude |= group << 32;
    if (v == kOmega) s.support |= group << 32;
  };
  if (m.sparse()) {
    const int64_t* p = m.data();
    for (size_t i = 0, n = m.num_pairs(); i < n; ++i) {
      add(static_cast<size_t>(p[2 * i]), p[2 * i + 1]);
    }
  } else {
    for (size_t d = 0; d < m.size(); ++d) {
      if (m[d] != 0) add(d, m[d]);
    }
  }
  return s;
}

/// Necessary condition for "some marking with summary `a` is ≤ some
/// marking with summary `b`" — the support filter strengthened by the
/// magnitude thresholds.
inline bool SummaryMayDominate(const MarkingSummary& a,
                               const MarkingSummary& b) {
  return (a.support & ~b.support) == 0 &&
         (a.magnitude & ~b.magnitude) == 0;
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
