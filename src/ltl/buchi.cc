#include "ltl/buchi.h"

#include <algorithm>
#include <set>

#include "common/status.h"
#include "common/strings.h"

namespace has {

namespace {

/// The closure: all subformula nodes in post-order (children before
/// parents), deduplicated structurally by (kind, prop, child indices).
struct Closure {
  struct Entry {
    LtlKind kind;
    int prop;
    int left;   // closure index or -1
    int right;  // closure index or -1
  };
  std::vector<Entry> entries;
  int root = -1;
  std::vector<int> untils;  // closure indices of U-nodes
  std::vector<int> nexts;   // closure indices of X-nodes

  int size() const { return static_cast<int>(entries.size()); }
  const Entry& operator[](int i) const { return entries[i]; }

  int Add(const LtlFormula* f) {
    const int l = f->left() ? Add(f->left().get()) : -1;
    const int r = f->right() ? Add(f->right().get()) : -1;
    for (int i = 0; i < size(); ++i) {
      const Entry& e = entries[i];
      if (e.kind == f->kind() && e.prop == f->prop() && e.left == l &&
          e.right == r) {
        return i;
      }
    }
    entries.push_back(Entry{f->kind(), f->prop(), l, r});
    const int idx = size() - 1;
    if (f->kind() == LtlKind::kUntil) untils.push_back(idx);
    if (f->kind() == LtlKind::kNext) nexts.push_back(idx);
    return idx;
  }
};

/// Tableau atoms as fixed-width bit rows: bit i of an atom's row is its
/// membership of closure entry i. Memberships of boolean combinations
/// are forced by the children; props, X and (partially) U memberships
/// are free.
class AtomRows {
 public:
  explicit AtomRows(size_t closure_size)
      : words_(static_cast<int>((closure_size + 63) / 64)) {}

  int words() const { return words_; }
  int size() const {
    return words_ == 0 ? 0 : static_cast<int>(bits_.size() / words_);
  }
  const uint64_t* row(int a) const {
    return bits_.data() + static_cast<size_t>(a) * words_;
  }
  void Append(const std::vector<uint64_t>& row) {
    bits_.insert(bits_.end(), row.begin(), row.end());
  }

 private:
  int words_;
  std::vector<uint64_t> bits_;
};

bool Bit(const uint64_t* row, int i) { return (row[i >> 6] >> (i & 63)) & 1u; }

void SetBit(uint64_t* row, int i, bool value) {
  const uint64_t m = uint64_t{1} << (i & 63);
  row[i >> 6] = value ? (row[i >> 6] | m) : (row[i >> 6] & ~m);
}

/// Every atom, in the order of a depth-first enumeration that decides
/// closure entries in index order and tries a free entry false before
/// true. A stack holds the free entries still set false; backtracking
/// flips the deepest one and redecides everything after it.
void EnumerateAtoms(const Closure& cl, AtomRows* out) {
  const int m = cl.size();
  std::vector<uint64_t> cur(static_cast<size_t>(out->words()), 0);
  std::vector<int> open;
  int i = 0;
  for (;;) {
    for (; i < m; ++i) {
      bool value = false;
      bool free = false;
      switch (cl[i].kind) {
        case LtlKind::kTrue:
          value = true;
          break;
        case LtlKind::kFalse:
          break;
        case LtlKind::kNot:
          value = !Bit(cur.data(), cl[i].left);
          break;
        case LtlKind::kAnd:
          value = Bit(cur.data(), cl[i].left) && Bit(cur.data(), cl[i].right);
          break;
        case LtlKind::kOr:
          value = Bit(cur.data(), cl[i].left) || Bit(cur.data(), cl[i].right);
          break;
        case LtlKind::kProp:
        case LtlKind::kNext:
          free = true;
          break;
        case LtlKind::kUntil:
          // ψ2 now: the until holds. ψ1 alone: it depends on the future,
          // so both memberships are consistent. Neither: it fails.
          if (Bit(cur.data(), cl[i].right)) {
            value = true;
          } else {
            free = Bit(cur.data(), cl[i].left);
          }
          break;
      }
      SetBit(cur.data(), i, value);
      if (free) open.push_back(i);
    }
    out->Append(cur);
    if (open.empty()) return;
    i = open.back();
    open.pop_back();
    SetBit(cur.data(), i, true);
    ++i;
  }
}

/// One-step consistency (X-obligations and U-expansions) of an atom s
/// with its successor t, as a mask test on t: t follows s iff `ok` (no
/// two obligations on one entry conflict) and t's bits under `mask`
/// equal `value`.
struct FollowTest {
  bool ok = true;
  std::vector<uint64_t> mask, value;
};

void MakeFollowTest(const Closure& cl, const uint64_t* s, int words,
                    FollowTest* test_out) {
  FollowTest& test = *test_out;
  test.ok = true;
  test.mask.assign(static_cast<size_t>(words), 0);
  test.value.assign(static_cast<size_t>(words), 0);
  auto require = [&](int i, bool v) {
    if (Bit(test.mask.data(), i) && Bit(test.value.data(), i) != v) {
      test.ok = false;
    }
    SetBit(test.mask.data(), i, true);
    SetBit(test.value.data(), i, v);
  };
  for (int x : cl.nexts) require(cl[x].left, Bit(s, x));
  // s[u] must equal s[right] || (s[left] && t[u]). EnumerateAtoms
  // already made s[u] = s[right] where the right side or neither side
  // holds at s, so only a pending until constrains t.
  for (int u : cl.untils) {
    if (!Bit(s, cl[u].right) && Bit(s, cl[u].left)) require(u, Bit(s, u));
  }
}

bool Follows(const FollowTest& test, const uint64_t* t) {
  if (!test.ok) return false;
  for (size_t w = 0; w < test.mask.size(); ++w) {
    if ((t[w] & test.mask[w]) != test.value[w]) return false;
  }
  return true;
}

/// Whether an atom may label the LAST position of a finite word:
/// strong-next formulas must be false and every pending until must be
/// discharged now.
bool CanEndWord(const Closure& cl, const uint64_t* s,
                const std::vector<uint64_t>& next_mask) {
  for (size_t w = 0; w < next_mask.size(); ++w) {
    if ((s[w] & next_mask[w]) != 0) return false;
  }
  for (int u : cl.untils) {
    if (Bit(s, u) && !Bit(s, cl[u].right)) return false;
  }
  return true;
}

}  // namespace

bool BuchiAutomaton::CompatibleWith(int q,
                                    const std::vector<bool>& letter) const {
  HAS_CHECK(static_cast<int>(letter.size()) >= num_props_);
  const uint64_t* row =
      prop_rows_.data() + static_cast<size_t>(q / counters_) * prop_words_;
  for (int p : constrained_) {
    if (Bit(row, p) != letter[p]) return false;
  }
  return true;
}

bool BuchiAutomaton::AcceptsFinite(
    const std::vector<std::vector<bool>>& word) const {
  if (word.empty()) return false;
  std::set<int> frontier;
  for (int q : initial_) {
    if (CompatibleWith(q, word[0])) frontier.insert(q);
  }
  for (size_t i = 1; i < word.size(); ++i) {
    std::set<int> next;
    for (int q : frontier) {
      for (int q2 : successors(q)) {
        if (CompatibleWith(q2, word[i])) next.insert(q2);
      }
    }
    frontier = std::move(next);
    if (frontier.empty()) return false;
  }
  for (int q : frontier) {
    if (finite_accepting(q)) return true;
  }
  return false;
}

bool BuchiAutomaton::AcceptsLasso(
    const std::vector<std::vector<bool>>& prefix,
    const std::vector<std::vector<bool>>& loop) const {
  HAS_CHECK(!loop.empty());
  // Product positions: prefix offsets then loop offsets; find a
  // reachable cycle through an accepting product node within the loop
  // region (the counter-free structure of the position graph makes
  // plain SCC-free cycle detection on (state, loop offset) sound).
  const size_t plen = prefix.size();
  const size_t llen = loop.size();
  auto letter = [&](size_t pos) -> const std::vector<bool>& {
    return pos < plen ? prefix[pos] : loop[(pos - plen) % llen];
  };
  // Reachable (state, canonical position) pairs; canonical positions in
  // [0, plen + llen).
  const size_t positions = plen + llen;
  std::vector<std::vector<bool>> reach(num_states(),
                                       std::vector<bool>(positions, false));
  std::vector<std::pair<int, size_t>> stack;
  for (int q : initial_) {
    if (CompatibleWith(q, letter(0))) {
      size_t c0 = positions == 0 ? 0 : (0 < plen ? 0 : plen);
      if (!reach[q][c0]) {
        reach[q][c0] = true;
        stack.emplace_back(q, c0);
      }
    }
  }
  auto canon = [&](size_t pos) -> size_t {
    return pos < positions ? pos : plen + ((pos - plen) % llen);
  };
  while (!stack.empty()) {
    auto [q, pos] = stack.back();
    stack.pop_back();
    size_t next_pos = canon(pos + 1);
    for (int q2 : successors(q)) {
      if (!CompatibleWith(q2, letter(next_pos))) continue;
      if (!reach[q2][next_pos]) {
        reach[q2][next_pos] = true;
        stack.emplace_back(q2, next_pos);
      }
    }
  }
  // A lasso exists iff some accepting (q, pos) with pos in the loop
  // region lies on a cycle of the product restricted to loop positions.
  // Since the loop region of the position graph is a simple cycle of
  // length llen, a product node lies on a cycle iff it can reach itself
  // in k*llen steps; we detect this with a DFS bounded by
  // num_states()*llen steps via reachability in the product.
  for (int q = 0; q < num_states(); ++q) {
    for (size_t pos = plen; pos < positions; ++pos) {
      if (!reach[q][pos] || !accepting(q)) continue;
      // BFS from (q,pos) looking for a return to (q,pos).
      std::vector<std::vector<bool>> seen(num_states(),
                                          std::vector<bool>(positions, false));
      std::vector<std::pair<int, size_t>> bfs = {{q, pos}};
      bool found = false;
      while (!bfs.empty() && !found) {
        auto [u, up] = bfs.back();
        bfs.pop_back();
        size_t next_pos = canon(up + 1);
        for (int v : successors(u)) {
          if (!CompatibleWith(v, letter(next_pos))) continue;
          if (v == q && next_pos == pos) {
            found = true;
            break;
          }
          if (!seen[v][next_pos]) {
            seen[v][next_pos] = true;
            bfs.emplace_back(v, next_pos);
          }
        }
      }
      if (found) return true;
    }
  }
  return false;
}

std::string BuchiAutomaton::Stats() const {
  int acc = 0, fin = 0;
  for (int q = 0; q < num_states(); ++q) {
    if (accepting(q)) ++acc;
    if (finite_accepting(q)) ++fin;
  }
  return StrCat(num_states(), " states, ", succ_.size(), " edges, ", acc,
                " accepting, ", fin, " finite-accepting, ", initial_.size(),
                " initial");
}

BuchiAutomaton BuildBuchi(const LtlPtr& formula, int num_props) {
  Closure cl;
  cl.root = cl.Add(formula.get());

  AtomRows atoms(static_cast<size_t>(cl.size()));
  EnumerateAtoms(cl, &atoms);
  const int n = atoms.size();
  const int words = atoms.words();

  const int k = static_cast<int>(cl.untils.size());
  // Degeneralized states (atom, counter), counter ∈ [0, k]: value c < k
  // means "waiting to discharge until #c"; value k is the flush marker
  // visited exactly when all k untils discharged in rotation, and is the
  // (only) accepting value. With k == 0 the single counter value 0 is
  // accepting.
  const int counters = k + 1;

  BuchiAutomaton b;
  b.num_props_ = num_props;
  b.num_atoms_ = n;
  b.counters_ = counters;

  // Per-atom proposition rows.
  b.prop_words_ = (num_props + 63) / 64;
  b.prop_rows_.assign(static_cast<size_t>(n) * b.prop_words_, 0);
  std::vector<std::pair<int, int>> prop_entries;  // (closure entry, prop)
  for (int i = 0; i < cl.size(); ++i) {
    if (cl[i].kind == LtlKind::kProp && cl[i].prop >= 0 &&
        cl[i].prop < num_props) {
      prop_entries.emplace_back(i, cl[i].prop);
      b.constrained_.push_back(cl[i].prop);
    }
  }
  std::sort(b.constrained_.begin(), b.constrained_.end());
  b.constrained_.erase(
      std::unique(b.constrained_.begin(), b.constrained_.end()),
      b.constrained_.end());
  for (int a = 0; a < n; ++a) {
    uint64_t* row = b.prop_rows_.data() + static_cast<size_t>(a) * b.prop_words_;
    for (const auto& [entry, p] : prop_entries) {
      SetBit(row, p, Bit(atoms.row(a), entry));
    }
  }

  // Until #i is discharged at an atom when the until is not pending
  // there or its right-hand side holds there.
  auto discharged = [&](int atom, int u_index) {
    const int u = cl.untils[u_index];
    return !Bit(atoms.row(atom), u) || Bit(atoms.row(atom), cl[u].right);
  };
  // Target counter when leaving `atom` with counter `c`.
  auto next_counter = [&](int atom, int c) {
    if (k == 0) return 0;
    int eff = (c == k) ? 0 : c;  // the flush marker behaves like 0
    while (eff < k && discharged(atom, eff)) ++eff;
    return eff;  // == k when everything discharged in rotation: flush
  };

  // Successors of (a, c): (a2, next_counter(a, c)) for every a2 that can
  // follow a, ascending.
  std::vector<int> follows;
  FollowTest test;
  b.succ_begin_.reserve(static_cast<size_t>(n) * counters + 1);
  b.succ_begin_.push_back(0);
  for (int a = 0; a < n; ++a) {
    MakeFollowTest(cl, atoms.row(a), words, &test);
    follows.clear();
    for (int a2 = 0; a2 < n; ++a2) {
      if (Follows(test, atoms.row(a2))) follows.push_back(a2);
    }
    for (int c = 0; c < counters; ++c) {
      const int c2 = next_counter(a, c);
      for (int a2 : follows) b.succ_.push_back(a2 * counters + c2);
      b.succ_begin_.push_back(static_cast<uint32_t>(b.succ_.size()));
    }
  }

  std::vector<uint64_t> next_mask(static_cast<size_t>(words), 0);
  for (int x : cl.nexts) SetBit(next_mask.data(), x, true);
  b.can_end_.resize(static_cast<size_t>(n));
  for (int a = 0; a < n; ++a) {
    b.can_end_[a] = CanEndWord(cl, atoms.row(a), next_mask) ? 1 : 0;
    if (Bit(atoms.row(a), cl.root)) b.initial_.push_back(a * counters);
  }
  return b;
}

}  // namespace has
