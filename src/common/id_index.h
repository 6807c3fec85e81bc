// An open-addressing hash index of dense ids. The records live
// elsewhere (typically a vector indexed by id); the index only maps a
// hash to the ids inserted under it and lets the caller compare records.
// Linear probing over a power-of-two table kept at most half full; each
// slot keeps its id's hash, so growing never touches a record. Inserting
// allocates only when the table doubles. Slots are chosen by a finalized
// hash, so weakly mixed (boost-style combined) hashes probe well.
#ifndef HAS_COMMON_ID_INDEX_H_
#define HAS_COMMON_ID_INDEX_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace has {

class IdIndex {
 public:
  /// The id inserted under `hash` whose record `same(id)` accepts, or -1.
  template <typename Same>
  int Find(size_t hash, const Same& same) const {
    if (slots_.empty()) return -1;
    const size_t mask = slots_.size() - 1;
    for (size_t i = Spread(hash) & mask;; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.id == -1) return -1;
      if (slot.hash == hash && same(slot.id)) return slot.id;
    }
  }

  /// Adds `id` (>= 0) under `hash`; the caller has checked that no equal
  /// record is indexed.
  void Insert(size_t hash, int id) {
    if (2 * (size_ + 1) > slots_.size()) Grow();
    Place(hash, id);
    ++size_;
  }

  size_t size() const { return size_; }
  /// Drops every id and keeps the table's capacity.
  void Clear() {
    if (size_ == 0) return;
    std::fill(slots_.begin(), slots_.end(), Slot{});
    size_ = 0;
  }

  /// Sizes the table for `n` ids, so the first n inserts do not grow it.
  void Reserve(size_t n) {
    size_t slots = slots_.empty() ? 16 : slots_.size();
    while (2 * n > slots) slots *= 2;
    if (slots == slots_.size()) return;
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(slots, Slot{});
    for (const Slot& slot : old) {
      if (slot.id != -1) Place(slot.hash, slot.id);
    }
  }

 private:
  struct Slot {
    size_t hash = 0;
    int id = -1;
  };

  /// The first round of MurmurHash3's 64-bit finalizer.
  static size_t Spread(size_t hash) {
    uint64_t h = hash;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return static_cast<size_t>(h);
  }

  void Place(size_t hash, int id) {
    const size_t mask = slots_.size() - 1;
    size_t i = Spread(hash) & mask;
    while (slots_[i].id != -1) i = (i + 1) & mask;
    slots_[i] = Slot{hash, id};
  }

  void Grow() { Reserve(slots_.empty() ? 8 : slots_.size()); }

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

}  // namespace has

#endif  // HAS_COMMON_ID_INDEX_H_
