#include "core/type_pool.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace has {

TypeId TypePool::Intern(PartialIsoType iso) {
  iso.Normalize();
  return InternImpl(iso, &iso);
}

TypeId TypePool::InternNormalized(const PartialIsoType& iso) {
  return InternImpl(iso, nullptr);
}

TypeId TypePool::InternNormalized(PartialIsoType&& iso) {
  return InternImpl(iso, &iso);
}

TypeId TypePool::Find(PartialIsoType iso) {
  iso.Normalize();
  iso.CanonicalEncode(&scratch_);
  return FindEncoded(iso,
                     HashCanonicalEncoding(scratch_.tokens, scratch_.consts));
}

CellId TypePool::FindCell(const Cell& cell) const {
  return cell_index_.Find(cell.Hash(), [&](CellId id) {
    return cells_[static_cast<size_t>(id)] == cell;
  });
}

TypeId TypePool::FindEncoded(const PartialIsoType& iso, size_t hash) const {
  const std::vector<int64_t>& tokens = scratch_.tokens;
  const std::vector<Rational>& consts = scratch_.consts;
  return type_index_.Find(hash, [&](TypeId id) {
    const TypeEntry& entry = type_entries_[static_cast<size_t>(id)];
    return entry.scope == iso.scope() && entry.max_depth == iso.max_depth() &&
           std::equal(tokens.begin(), tokens.end(),
                      token_store_.begin() + entry.tokens_begin,
                      token_store_.begin() + entry.tokens_end) &&
           std::equal(consts.begin(), consts.end(),
                      const_store_.begin() + entry.consts_begin,
                      const_store_.begin() + entry.consts_end);
  });
}

TypeId TypePool::InternImpl(const PartialIsoType& iso,
                            PartialIsoType* owned) {
  iso.CanonicalEncode(&scratch_);
  const std::vector<int64_t>& tokens = scratch_.tokens;
  const std::vector<Rational>& consts = scratch_.consts;
  const size_t hash = HashCanonicalEncoding(tokens, consts);

  const TypeId found = FindEncoded(iso, hash);
  if (found != kNoTypeId) {
    ++iso_hits_;
    // Id equality must coincide with signature equality (the canonical
    // encoding is a faithful re-coding of Signature()).
    assert(types_[static_cast<size_t>(found)].Signature() == iso.Signature());
    return found;
  }
  TypeEntry entry;
  entry.scope = iso.scope();
  entry.max_depth = iso.max_depth();
  entry.tokens_begin = static_cast<uint32_t>(token_store_.size());
  token_store_.insert(token_store_.end(), tokens.begin(), tokens.end());
  entry.tokens_end = static_cast<uint32_t>(token_store_.size());
  entry.consts_begin = static_cast<uint32_t>(const_store_.size());
  const_store_.insert(const_store_.end(), consts.begin(), consts.end());
  entry.consts_end = static_cast<uint32_t>(const_store_.size());
  type_entries_.push_back(entry);
  TypeId id = kNoTypeId;
  if (owned != nullptr) {
    owned->CompressPaths();
    id = static_cast<TypeId>(types_.Append(std::move(*owned)));
  } else {
    PartialIsoType copy = iso;
    copy.CompressPaths();
    id = static_cast<TypeId>(types_.Append(std::move(copy)));
  }
  type_index_.Insert(hash, id);
  return id;
}

CellId TypePool::InternCell(Cell cell) {
  const size_t hash = cell.Hash();
  const CellId found = cell_index_.Find(
      hash, [&](CellId id) { return cells_[static_cast<size_t>(id)] == cell; });
  if (found != kNoCellId) {
    ++cell_hits_;
    return found;
  }
  const CellId id = static_cast<CellId>(cells_.Append(std::move(cell)));
  cell_index_.Insert(hash, id);
  return id;
}

}  // namespace has
