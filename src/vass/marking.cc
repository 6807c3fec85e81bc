#include "vass/marking.h"

#include <algorithm>

#include "common/strings.h"

namespace has {

namespace marking {

int64_t Get(const std::vector<int64_t>& m, int d) {
  return d < static_cast<int>(m.size()) ? m[d] : 0;
}

void Set(std::vector<int64_t>* m, int d, int64_t v) {
  if (d >= static_cast<int>(m->size())) m->resize(d + 1, 0);
  (*m)[d] = v;
}

bool Apply(const std::vector<int64_t>& m, const Delta& delta,
           std::vector<int64_t>* out) {
  *out = m;
  for (const auto& [d, change] : delta) {
    int64_t cur = Get(*out, d);
    if (cur == kOmega) continue;
    int64_t next = cur + change;
    if (next < 0) return false;
    Set(out, d, next);
  }
  // Trim trailing zeros so equal markings compare equal structurally.
  while (!out->empty() && out->back() == 0) out->pop_back();
  return true;
}

bool ApplyView(const MarkingView& m, const Delta& delta,
               std::vector<int64_t>* out) {
  // Enabledness first, touching only the delta'd dimensions: the
  // running value of a dimension under the in-order application is its
  // base plus the changes of earlier delta entries on the same
  // dimension (deltas are tiny — a couple of entries — so the nested
  // scan is cheaper than any indexing structure). ω absorbs changes.
  const size_t k = delta.size();
  for (size_t i = 0; i < k; ++i) {
    const auto& [d, change] = delta[i];
    int64_t v = Get(m, d);
    if (v == kOmega) continue;
    for (size_t j = 0; j < i; ++j) {
      if (delta[j].first == d) v += delta[j].second;
    }
    if (v + change < 0) return false;
  }
  // One sizing decision, one copy, delta patches, one canonical trim.
  size_t width = m.size();
  for (const auto& [d, change] : delta) {
    (void)change;
    width = std::max(width, static_cast<size_t>(d) + 1);
  }
  out->assign(width, 0);
  std::copy(m.begin(), m.end(), out->begin());
  for (const auto& [d, change] : delta) {
    int64_t& v = (*out)[static_cast<size_t>(d)];
    if (v != kOmega) v += change;
  }
  while (!out->empty() && out->back() == 0) out->pop_back();
  return true;
}

bool LessEq(const std::vector<int64_t>& a, const std::vector<int64_t>& b) {
  size_t n = std::max(a.size(), b.size());
  for (size_t d = 0; d < n; ++d) {
    int64_t av = Get(a, static_cast<int>(d));
    int64_t bv = Get(b, static_cast<int>(d));
    if (bv == kOmega) continue;
    if (av == kOmega) return false;
    if (av > bv) return false;
  }
  return true;
}

bool Equal(const std::vector<int64_t>& a, const std::vector<int64_t>& b) {
  size_t n = std::max(a.size(), b.size());
  for (size_t d = 0; d < n; ++d) {
    if (Get(a, static_cast<int>(d)) != Get(b, static_cast<int>(d))) {
      return false;
    }
  }
  return true;
}

std::string ToString(const std::vector<int64_t>& m) {
  return ToString(MarkingView(m));
}

std::string ToString(const MarkingView& m) {
  std::vector<std::string> parts;
  for (int64_t v : m) parts.push_back(v == kOmega ? "w" : StrCat(v));
  return StrCat("(", StrJoin(parts, ","), ")");
}

}  // namespace marking
}  // namespace has
