// Hash combination helpers (boost-style) for composite keys used by the
// interning pools of the symbolic core.
#ifndef HAS_COMMON_HASHING_H_
#define HAS_COMMON_HASHING_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace has {

static_assert(sizeof(size_t) == 4 || sizeof(size_t) == 8,
              "HashCombine supports 32- and 64-bit size_t only");

/// Width-correct golden-ratio constant (floor(2^w / phi)) so the mixing
/// step keeps its avalanche properties on 32-bit targets instead of
/// silently truncating the 64-bit constant.
inline constexpr size_t kHashCombineMagic =
    sizeof(size_t) == 8 ? static_cast<size_t>(0x9e3779b97f4a7c15ULL)
                        : static_cast<size_t>(0x9e3779b9UL);

inline void HashCombine(size_t* seed, size_t value) {
  *seed ^= value + kHashCombineMagic + (*seed << 6) + (*seed >> 2);
}

template <typename T>
void HashMix(size_t* seed, const T& value) {
  HashCombine(seed, std::hash<T>{}(value));
}

/// Hash of a vector of hashable elements.
template <typename T>
struct VectorHash {
  size_t operator()(const std::vector<T>& v) const {
    size_t seed = v.size();
    for (const T& x : v) HashMix(&seed, x);
    return seed;
  }
};

/// Hash of a pair.
template <typename A, typename B>
struct PairHash {
  size_t operator()(const std::pair<A, B>& p) const {
    size_t seed = 0;
    HashMix(&seed, p.first);
    HashMix(&seed, p.second);
    return seed;
  }
};

/// Hash of (dense id, int64 vector) keys — the shape of coverability
/// node identities (state, marking) and closed-walk search states
/// (node, ω-effect).
struct IdVectorHash {
  size_t operator()(const std::pair<int, std::vector<int64_t>>& k) const {
    size_t seed = static_cast<size_t>(k.first);
    for (int64_t v : k.second) HashMix(&seed, v);
    return seed;
  }
};

}  // namespace has

#endif  // HAS_COMMON_HASHING_H_
