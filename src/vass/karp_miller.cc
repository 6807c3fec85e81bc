#include "vass/karp_miller.h"

#include <algorithm>
#include <cassert>
#include <deque>

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
  if (static_cast<size_t>(state) >= antichain_.size()) return -1;
  // Ascending node id: the first dominator is the minimum-id one.
  for (const AntichainEntry& e : antichain_[static_cast<size_t>(state)]) {
    ++antichain_probes_;
    if (DominanceLeq(marking, e.marking)) return e.node;
  }
  return -1;
}

void KarpMiller::AntichainAbsorb(int node) {
  const auto state = static_cast<size_t>(nodes_[node].state);
  if (antichain_.size() <= state) antichain_.resize(state + 1);
  std::vector<AntichainEntry>& chain = antichain_[state];
  const MarkingView m = nodes_[node].marking;
  // Entries ≤ m are strictly covered (an entry equal to m would have
  // dominated the candidate before it was created). One stable pass
  // drops them, so the survivors keep ascending node id.
  size_t kept = 0;
  for (const AntichainEntry& e : chain) {
    ++antichain_probes_;
    if (!DominanceLeq(e.marking, m)) {
      chain[kept++] = e;
      continue;
    }
    const auto victim = static_cast<size_t>(e.node);
    if (victim >= round_first_new_id_) {
      // A same-round newcomer: unexpanded, so deactivation cuts its
      // entire would-be subtree. Older covered entries are either
      // already expanded or sit in the round's frontier (their
      // expansion proceeds — deactivation is round-granular); they
      // only leave the antichain.
      deactivated_[victim] = 1;
      ++deactivated_count_;
      // The retired node never expands, so walks entering it would
      // dead-end; a label-less cover-edge to the (strictly larger)
      // coverer keeps the closed-walk structure: anything the victim
      // could do, the coverer's subtree over-approximates.
      nodes_[victim].edges.push_back(
          Edge{node, /*cover=*/true, /*source=*/nullptr});
      ++cover_edges_;
    }
  }
  chain.resize(kept);
  chain.push_back(AntichainEntry{node, m});
  antichain_peak_ = std::max(antichain_peak_, chain.size());
}

const std::vector<VassEdge>& KarpMiller::Successors(int state) {
  const auto index = static_cast<size_t>(state);
  if (successors_.size() <= index) successors_.resize(index + 1);
  SuccessorList& list = successors_[index];
  if (list.filled) {
    ++cache_hits_;
  } else {
    ++cache_misses_;
    system_->Successors(state, &list.edges);
    list.filled = true;
  }
  return list.edges;
}

void KarpMiller::Build(const std::vector<int>& initial_states) {
  const bool prune = options_.prune_coverability;
  std::deque<int> worklist;
  // Per-node BFS round (pruning only): newcomers of the round being
  // processed may still be deactivated; everything older expands.
  std::vector<int> round;
  // The pruned path creates nodes directly: an exact duplicate is
  // always dominated and dropped before a node is made, so the
  // exact-match index_ could never hit — maintaining it would be a
  // dead marking-vector copy per node.
  auto make_node = [&](int state, const std::vector<int64_t>& marking,
                       int parent, int64_t parent_label) {
    int id = AddNode(state, marking, parent, parent_label);
    deactivated_.resize(nodes_.size(), 0);
    AntichainAbsorb(id);
    return id;
  };
  for (int s : initial_states) {
    int id;
    if (prune) {
      if (DominatorOf(s, MarkingView()) >= 0) continue;  // duplicate root
      id = make_node(s, {}, -1, -1);
      round.resize(nodes_.size(), 0);
    } else {
      bool created = false;
      id = InternNode(s, {}, -1, -1, &created);
      if (!created) continue;
    }
    worklist.push_back(id);
  }
  int cur_round = -1;
  // Successor-marking scratch, reused across all candidates: the
  // surviving value is copied into the arena, so nothing here needs an
  // owning vector per candidate.
  std::vector<int64_t> next;
  while (!worklist.empty()) {
    if (nodes_.size() > options_.max_nodes) {
      truncated_ = true;
      return;
    }
    int n = worklist.front();
    worklist.pop_front();
    if (prune) {
      if (round[static_cast<size_t>(n)] != cur_round) {
        // First node of a new round: everything interned from here on
        // is a next-round newcomer, eligible for deactivation.
        cur_round = round[static_cast<size_t>(n)];
        round_first_new_id_ = nodes_.size();
      }
      if (deactivated_[static_cast<size_t>(n)]) continue;
    }
    const int state = nodes_[n].state;
    // Nothing below asks for another state's list, so `out` stays
    // valid through the loop.
    const std::vector<VassEdge>& out = Successors(state);
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
    // Every examined successor leaves one edge (a materialized or a
    // cover-edge), except the marking-disabled ones: room for the ample
    // prefix, or for every successor once the node expands fully.
    nodes_[n].edges.reserve(ample > 0 ? ample : out.size());
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
        nodes_[n].edges.reserve(out.size());
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
          nodes_[n].edges.push_back(Edge{dom, /*cover=*/true, &e});
          ++cover_edges_;
          ++pruned_successors_;
          continue;
        }
        int child = make_node(e.target, next, n, e.label);
        if (ample_active) ample_fresh = true;
        round.resize(nodes_.size(), cur_round + 1);
        nodes_[n].edges.push_back(Edge{child, /*cover=*/false, &e});
        worklist.push_back(child);
        continue;
      }
      bool created = false;
      int child = InternNode(e.target, next, n, e.label, &created);
      nodes_[n].edges.push_back(Edge{child, /*cover=*/false, &e});
      if (created) {
        if (ample_active) ample_fresh = true;
        worklist.push_back(child);
      }
    }
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

size_t KarpMiller::TotalEdges() const {
  size_t total = 0;
  for (const Node& n : nodes_) total += n.edges.size();
  return total;
}

}  // namespace has
