#include "vass/karp_miller.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <new>

namespace has {

KarpMiller::KarpMiller(VassSystem* system, KarpMillerOptions options)
    : system_(system), options_(options) {}

int KarpMiller::AddNode(int state, const std::vector<int64_t>& marking,
                        int parent, int64_t parent_label) {
  Node node;
  node.state = state;
  node.marking = marking_arena_.Add(marking);
  node.parent = parent;
  node.parent_label = parent_label;
  nodes_.push_back(std::move(node));
  return static_cast<int>(nodes_.size()) - 1;
}

int KarpMiller::InternNode(int state, const std::vector<int64_t>& marking,
                           int parent, int64_t parent_label, bool* created) {
  auto key = std::make_pair(state, marking);
  auto it = index_.find(key);
  if (it != index_.end()) {
    *created = false;
    return it->second;
  }
  int id = AddNode(state, marking, parent, parent_label);
  index_[std::move(key)] = id;
  *created = true;
  return id;
}

bool KarpMiller::SuccessorMarking(int parent_node, int target,
                                  const Delta& delta,
                                  std::vector<int64_t>* out) const {
  // Delta-only enabledness check: the delta'd dimensions alone decide
  // it (a disabled transition never materializes a next-vector), then
  // one copy at the final width. `*out` leaves in canonical form.
  if (!marking::ApplyView(nodes_[parent_node].marking, delta, out)) {
    return false;
  }
  // ω-acceleration along the spanning-tree ancestry: if an ancestor
  // with the same VASS state is strictly covered by `next`, the
  // strictly increased coordinates can be pumped arbitrarily.
  std::vector<int64_t>& next = *out;
  bool accelerated = true;
  while (accelerated) {
    accelerated = false;
    for (int a = parent_node; a != -1; a = nodes_[a].parent) {
      if (nodes_[a].state != target) continue;
      const MarkingView am = nodes_[a].marking;
      const MarkingView nv(next.data(), next.size());
      if (!DominanceLeq(am, nv) || am == nv) continue;
      // Writing ω hits dimensions where am < next, hence next > 0 —
      // always within next's canonical width, never a trailing zero:
      // `next` stays canonical through the acceleration.
      for (size_t d = 0; d < next.size(); ++d) {
        const int64_t av = d < am.size() ? am[d] : 0;
        if (av < next[d] && next[d] != kOmega) {
          next[d] = kOmega;
          accelerated = true;
        }
      }
    }
  }
  assert(next.empty() || next.back() != 0);
  return true;
}

int KarpMiller::DominatorOf(int state, const MarkingView& marking) {
  if (static_cast<size_t>(state) >= states_.size()) return -1;
  const StateEntry& entry = states_[static_cast<size_t>(state)];
  const AntichainEntry* entries = chain_store_.data() + entry.chain_begin;
  // Ascending node id: the first dominator is the minimum-id one.
  for (uint32_t i = 0; i < entry.chain_size; ++i) {
    ++antichain_probes_;
    if (DominanceLeq(marking, entries[i].marking)) return entries[i].node;
  }
  return -1;
}

void KarpMiller::AntichainAbsorb(int node) {
  StateEntry& entry = state_entry(nodes_[node].state);
  const MarkingView m = nodes_[node].marking;
  // Entries ≤ m are strictly covered (an entry equal to m would have
  // dominated the candidate before it was created). One stable pass
  // drops them, so the survivors keep ascending node id.
  AntichainEntry* entries = chain_store_.data() + entry.chain_begin;
  uint32_t kept = 0;
  for (uint32_t i = 0; i < entry.chain_size; ++i) {
    const AntichainEntry e = entries[i];
    ++antichain_probes_;
    if (!DominanceLeq(e.marking, m)) {
      entries[kept++] = e;
      continue;
    }
    const auto victim = static_cast<size_t>(e.node);
    if (victim >= round_first_new_id_) {
      // A same-round newcomer: unexpanded, so deactivation cuts its
      // entire would-be subtree. Older covered entries are either
      // already expanded or sit in the round's frontier (their
      // expansion proceeds — deactivation is round-granular); they
      // only leave the antichain.
      nodes_[victim].deactivated = true;
      ++deactivated_count_;
      // The retired node never expands, so walks entering it would
      // dead-end; a label-less cover-edge to the (strictly larger)
      // coverer keeps the closed-walk structure: anything the victim
      // could do, the coverer's subtree over-approximates.
      Edge* edge = retire_edges_.Reserve(1);
      ::new (static_cast<void*>(edge))
          Edge{node, /*cover=*/true, /*source=*/nullptr};
      retire_edges_.Commit(1);
      nodes_[victim].edges = edge;
      nodes_[victim].num_edges = 1;
      ++total_edges_;
      ++cover_edges_;
    }
  }
  entry.chain_size = kept;
  if (entry.chain_size == entry.chain_capacity) {
    // Full: twice the room, in place if the range is the store's last,
    // else at the store's end (the old slots stay unused).
    const uint32_t capacity = std::max<uint32_t>(4, 2 * entry.chain_capacity);
    if (entry.chain_begin + entry.chain_capacity == chain_store_.size()) {
      chain_store_.resize(entry.chain_begin + capacity);
    } else {
      const auto begin = static_cast<uint32_t>(chain_store_.size());
      chain_store_.resize(begin + capacity);
      std::copy_n(chain_store_.begin() + entry.chain_begin, entry.chain_size,
                  chain_store_.begin() + begin);
      entry.chain_begin = begin;
    }
    entry.chain_capacity = capacity;
  }
  chain_store_[entry.chain_begin + entry.chain_size++] = AntichainEntry{node, m};
  antichain_peak_ = std::max<size_t>(antichain_peak_, entry.chain_size);
}

ConstRange<VassEdge> KarpMiller::Successors(int state) {
  StateEntry& entry = state_entry(state);
  if (entry.expanded) {
    ++cache_hits_;
  } else {
    ++cache_misses_;
    successor_scratch_.clear();
    system_->Successors(state, &successor_scratch_);
    const size_t size = successor_scratch_.size();
    VassEdge* block = successor_store_.Reserve(size);
    std::uninitialized_move(successor_scratch_.begin(),
                            successor_scratch_.end(), block);
    successor_store_.Commit(size);
    entry.successors = block;
    entry.num_successors = static_cast<uint32_t>(size);
    entry.expanded = true;
  }
  return ConstRange<VassEdge>(entry.successors, entry.num_successors);
}

void KarpMiller::Build(const std::vector<int>& initial_states) {
  const bool prune = options_.prune_coverability;
  // The pruned path creates nodes directly: an exact duplicate is
  // always dominated and dropped before a node is made, so the
  // exact-match index_ could never hit — maintaining it would be a
  // dead marking-vector copy per node.
  auto make_node = [&](int state, const std::vector<int64_t>& marking,
                       int parent, int64_t parent_label) {
    int id = AddNode(state, marking, parent, parent_label);
    AntichainAbsorb(id);
    return id;
  };
  for (int s : initial_states) {
    if (prune) {
      if (DominatorOf(s, MarkingView()) >= 0) continue;  // duplicate root
      make_node(s, {}, -1, -1);
    } else {
      bool created = false;
      InternNode(s, {}, -1, -1, &created);
    }
  }
  // Successor-marking scratch, reused across all candidates: the
  // surviving value is copied into the arena, so nothing here needs an
  // owning vector per candidate.
  std::vector<int64_t> next;
  // BFS: every node is queued once, when it is created, so the FIFO
  // worklist is the node array itself, read by a cursor. A round (one
  // BFS layer) ends at `round_end`: the nodes created while a round
  // expands form the next one (pruning only: newcomers of the round
  // being processed may still be deactivated; everything older
  // expands).
  size_t round_end = 0;
  for (size_t cursor = 0; cursor < nodes_.size(); ++cursor) {
    if (nodes_.size() > options_.max_nodes) {
      truncated_ = true;
      return;
    }
    const int n = static_cast<int>(cursor);
    if (prune) {
      if (cursor == round_end) {
        // First node of a new round: everything interned from here on
        // is a next-round newcomer, eligible for deactivation.
        round_end = nodes_.size();
        round_first_new_id_ = nodes_.size();
      }
      if (nodes_[cursor].deactivated) continue;
    }
    const int state = nodes_[cursor].state;
    const ConstRange<VassEdge> out = Successors(state);
    // Ample-prefix partial-order reduction (options_.por): expand only
    // the leading `ample` edges, and only if at least one of them lands
    // on a FRESH node — a folded stutter is covered by its dominator,
    // but a prefix with NO fresh target makes no progress, so skipping
    // the rest could defer the remaining transitions forever (the C3
    // discharge — see KarpMillerOptions::por). Keeping EVERY fresh
    // stutter (rather than just the first) matters empirically: the
    // parallel diagonals saturate each other's counters to ω sooner,
    // and the ω-rich full expansions then dominate what a serialized
    // staircase would re-explore at partially-saturated markings. A
    // prefix that already spans every edge reduces nothing, so it is
    // treated as 0.
    size_t ample = 0;
    if (options_.por) {
      int a = system_->AmplePrefix(state);
      if (a > 0 && static_cast<size_t>(a) < out.size()) {
        ample = static_cast<size_t>(a);
      }
    }
    // Every examined successor leaves at most one edge (a materialized
    // or a cover-edge; none for the marking-disabled ones), so the
    // node's block has room for all of them and keeps what was written.
    Edge* block = edge_store_.Reserve(out.size());
    size_t num_edges = 0;
    auto add_edge = [&](int target, bool cover, const VassEdge* source) {
      ::new (static_cast<void*>(block + num_edges++))
          Edge{target, cover, source};
    };
    bool ample_active = ample > 0;
    bool ample_fresh = false;
    for (size_t i = 0; i < out.size(); ++i) {
      if (ample_active && i == ample) {
        if (ample_fresh) {
          // Some prefix edge made progress: skip the remaining
          // successors — the ample set stands in for them.
          ample_reduced_successors_ += out.size() - ample;
          break;
        }
        // Every stutter folded or was disabled: expand fully.
        ample_active = false;
        ++ample_full_expansions_;
      }
      const VassEdge& e = out[i];
      if (!SuccessorMarking(n, e.target, e.delta, &next)) {
        // A disabled prefix edge (impossible for insert-only stutters
        // by the AmplePrefix contract) simply contributes no fresh
        // node.
        continue;
      }
      if (prune) {
        int dom = DominatorOf(e.target, MarkingView(next));
        if (dom >= 0) {
          if (ample_active &&
              !marking::Equal(MarkingView(next), nodes_[dom].marking)) {
            // A STRICTLY dominated stutter is progress too: deferring
            // to the strictly larger node ascends the marking order,
            // so no deferral cycle can form (only equal folds — the
            // saturation points — can close one and force the full
            // expansion below).
            ample_fresh = true;
          }
          // Dropped successor: keep the transition as a cover-edge to
          // the dominating node — the action is real, only its target
          // marking was folded into the (larger) antichain entry. A
          // folded PREFIX edge stays covered the same way: the
          // dominator's expansion stands in for the stutter target's.
          add_edge(dom, /*cover=*/true, &e);
          ++cover_edges_;
          ++pruned_successors_;
          continue;
        }
        int child = make_node(e.target, next, n, e.label);
        if (ample_active) ample_fresh = true;
        add_edge(child, /*cover=*/false, &e);
        continue;
      }
      bool created = false;
      int child = InternNode(e.target, next, n, e.label, &created);
      add_edge(child, /*cover=*/false, &e);
      if (created && ample_active) ample_fresh = true;
    }
    edge_store_.Commit(num_edges);
    nodes_[cursor].edges = block;
    nodes_[cursor].num_edges = static_cast<uint32_t>(num_edges);
    total_edges_ += num_edges;
  }
}

int KarpMiller::FindNode(const std::function<bool(int)>& pred) const {
  for (size_t n = 0; n < nodes_.size(); ++n) {
    if (pred(nodes_[n].state)) return static_cast<int>(n);
  }
  return -1;
}

std::vector<int64_t> KarpMiller::PathLabels(int n) const {
  std::vector<int64_t> labels;
  for (int cur = n; cur != -1 && nodes_[cur].parent != -1;
       cur = nodes_[cur].parent) {
    labels.push_back(nodes_[cur].parent_label);
  }
  std::reverse(labels.begin(), labels.end());
  return labels;
}

}  // namespace has
