// Hash-consed interning of canonical symbolic state: a TypePool owns
// the canonical PartialIsoType (and Cell) instances in arena storage
// and hands out dense integer handles. Interning normalizes first, so
// two semantically equal types of one task scope always map to the SAME
// TypeId — equality on the hot paths (RT memoization, product-state
// interning, counter dimensions, coverability keys) degenerates to an
// integer compare, and the per-type canonical hash is computed exactly
// once.
//
// The pool is shared across all per-task products of one RtEngine.
// The arenas are chunked, so a pooled instance never moves and its
// address is as stable as its id. Canonical instances are
// path-compressed before they are pooled, so const queries on a pooled
// type never write.
#ifndef HAS_CORE_TYPE_POOL_H_
#define HAS_CORE_TYPE_POOL_H_

#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "arith/cell.h"
#include "common/id_index.h"
#include "core/iso_type.h"

namespace has {

/// Dense handle of an interned PartialIsoType. Ids are only comparable
/// within the pool that issued them.
using TypeId = int32_t;
/// Dense handle of an interned Cell.
using CellId = int32_t;

inline constexpr TypeId kNoTypeId = -1;
inline constexpr CellId kNoCellId = -1;

/// Append-only chunked arena: elements live in fixed-size chunks, so
/// appending never moves an element and references stay valid for the
/// arena's lifetime. Chunks are raw storage: an element is constructed
/// when it is appended and destroyed with the arena, and no slot past
/// size() is ever constructed.
template <typename T>
class ChunkedArena {
 public:
  static constexpr size_t kChunkShift = 10;  // 1024 elements per chunk
  static constexpr size_t kChunkSize = size_t{1} << kChunkShift;

  ChunkedArena() = default;
  ChunkedArena(const ChunkedArena&) = delete;
  ChunkedArena& operator=(const ChunkedArena&) = delete;
  ~ChunkedArena() {
    for (size_t i = 0; i < size_; ++i) Slot(i)->~T();
    std::allocator<T> alloc;
    for (T* chunk : chunks_) alloc.deallocate(chunk, kChunkSize);
  }

  size_t Append(T value) {
    const size_t index = size_;
    if ((index >> kChunkShift) == chunks_.size()) {
      chunks_.push_back(std::allocator<T>().allocate(kChunkSize));
    }
    ::new (static_cast<void*>(Slot(index))) T(std::move(value));
    ++size_;
    return index;
  }

  const T& operator[](size_t index) const { return *Slot(index); }

  size_t size() const { return size_; }

 private:
  T* Slot(size_t index) const {
    return chunks_[index >> kChunkShift] + (index & (kChunkSize - 1));
  }

  std::vector<T*> chunks_;
  size_t size_ = 0;
};

class TypePool {
 public:
  TypePool() = default;
  TypePool(const TypePool&) = delete;
  TypePool& operator=(const TypePool&) = delete;

  /// Normalizes `iso` and interns the canonical form. Types receive
  /// equal ids iff they have the same scope and navigation depth and
  /// equal constraint sets (equal Signature()s): a type is a type of one
  /// task (Section 4.1), so type(id) is always over its caller's scope.
  TypeId Intern(PartialIsoType iso);

  /// Interns a type the caller guarantees is already normalized (the
  /// common case on the successor hot path, where Normalize() already
  /// ran during enumeration). Copies into the arena only on a miss —
  /// a hit costs one canonical encoding and a hash probe. Debug builds
  /// assert that a hit really has an identical Signature(), i.e. id
  /// equality coincides with (scope, depth, signature) equality.
  TypeId InternNormalized(const PartialIsoType& iso);
  /// Rvalue variant: a miss moves the type into the arena instead of
  /// copying it.
  TypeId InternNormalized(PartialIsoType&& iso);

  /// The id `Intern(iso)` would return if the canonical form is pooled,
  /// else kNoTypeId. Pools nothing and counts no hit.
  TypeId Find(PartialIsoType iso);
  /// The id of a pooled cell equal to `cell`, else kNoCellId; counts no
  /// hit.
  CellId FindCell(const Cell& cell) const;

  /// Pooled types never move: the reference lives as long as the pool.
  const PartialIsoType& type(TypeId id) const {
    return types_[static_cast<size_t>(id)];
  }
  size_t num_types() const { return types_.size(); }

  CellId InternCell(Cell cell);
  const Cell& cell(CellId id) const { return cells_[static_cast<size_t>(id)]; }
  size_t num_cells() const { return cells_.size(); }

  struct Stats {
    size_t iso_queries = 0;
    size_t iso_hits = 0;
    size_t cell_queries = 0;
    size_t cell_hits = 0;
  };
  /// Queries are derived: every intern is either a hit or populates
  /// the arena.
  Stats stats() const {
    Stats s;
    s.iso_hits = iso_hits_;
    s.iso_queries = iso_hits_ + types_.size();
    s.cell_hits = cell_hits_;
    s.cell_queries = cell_hits_ + cells_.size();
    return s;
  }

 private:
  /// What a probe compares against, by id: the scope, depth and
  /// canonical encoding of the pooled type (kept beside the id so
  /// collisions resolve without reading the pooled instance). The
  /// encoding is a range of the pool-wide token / constant stores.
  struct TypeEntry {
    const VarScope* scope = nullptr;
    int max_depth = 0;
    uint32_t tokens_begin = 0;
    uint32_t tokens_end = 0;
    uint32_t consts_begin = 0;
    uint32_t consts_end = 0;
  };

  /// Shared lookup/insert; `owned` (nullable) is moved into the arena
  /// on a miss, otherwise `iso` is copied.
  TypeId InternImpl(const PartialIsoType& iso, PartialIsoType* owned);
  /// The pooled type whose encoding is in `scratch_` (hashed to
  /// `hash`), or kNoTypeId.
  TypeId FindEncoded(const PartialIsoType& iso, size_t hash) const;

  ChunkedArena<PartialIsoType> types_;
  ChunkedArena<Cell> cells_;
  std::vector<TypeEntry> type_entries_;  ///< indexed by TypeId
  std::vector<int64_t> token_store_;
  std::vector<Rational> const_store_;
  /// Canonical hash -> the types / cells interned under it.
  IdIndex type_index_;
  IdIndex cell_index_;
  /// The probe's encoding; only a miss copies it into the stores.
  CanonicalEncoding scratch_;

  size_t iso_hits_ = 0;
  size_t cell_hits_ = 0;
};

}  // namespace has

#endif  // HAS_CORE_TYPE_POOL_H_
