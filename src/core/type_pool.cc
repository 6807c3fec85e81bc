#include "core/type_pool.h"

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

TypeId TypePool::InternImpl(const PartialIsoType& iso,
                            PartialIsoType* owned) {
  std::vector<int64_t> tokens;
  std::vector<Rational> consts;
  iso.CanonicalEncode(&tokens, &consts);
  size_t hash = HashCanonicalEncoding(tokens, consts);

  std::vector<TypeEntry>& bucket = type_buckets_[hash];
  for (const TypeEntry& entry : bucket) {
    if (entry.scope == iso.scope() && entry.max_depth == iso.max_depth() &&
        entry.tokens == tokens && entry.consts == consts) {
      ++iso_hits_;
      // Id equality must coincide with signature equality (the
      // canonical encoding is a faithful re-coding of Signature()).
      assert(types_[static_cast<size_t>(entry.id)].Signature() ==
             iso.Signature());
      return entry.id;
    }
  }
  TypeEntry entry{kNoTypeId, iso.scope(), iso.max_depth(), std::move(tokens),
                  std::move(consts)};
  if (owned != nullptr) {
    owned->CompressPaths();
    entry.id = static_cast<TypeId>(types_.Append(std::move(*owned)));
  } else {
    PartialIsoType copy = iso;
    copy.CompressPaths();
    entry.id = static_cast<TypeId>(types_.Append(std::move(copy)));
  }
  bucket.push_back(std::move(entry));
  return bucket.back().id;
}

CellId TypePool::InternCell(Cell cell) {
  size_t hash = cell.Hash();
  std::vector<CellId>& bucket = cell_buckets_[hash];
  for (CellId id : bucket) {
    if (cells_[static_cast<size_t>(id)] == cell) {
      ++cell_hits_;
      return id;
    }
  }
  CellId id = static_cast<CellId>(cells_.Append(std::move(cell)));
  bucket.push_back(id);
  return id;
}

}  // namespace has
