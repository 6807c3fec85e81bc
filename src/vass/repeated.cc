#include "vass/repeated.h"

#include <algorithm>
#include <utility>

#include "common/hashing.h"
#include "common/id_index.h"

namespace has {

namespace {

/// Tarjan SCCs over the coverability graph (iterative to avoid deep
/// recursion on long chains).
std::vector<int> ComputeSccs(const KarpMiller& g, int* num_sccs) {
  const int n = g.num_nodes();
  struct Visit {
    int disc = -1;
    int low = 0;
    bool on_stack = false;
  };
  std::vector<int> scc(n, -1), stack;
  std::vector<Visit> visit(static_cast<size_t>(n));
  int time = 0, count = 0;

  struct Frame {
    int node;
    size_t edge_index;
  };
  std::vector<Frame> frames;
  for (int start = 0; start < n; ++start) {
    if (visit[start].disc != -1) continue;
    frames.push_back(Frame{start, 0});
    visit[start] = Visit{time, time, true};
    ++time;
    stack.push_back(start);
    while (!frames.empty()) {
      Frame& f = frames.back();
      const KarpMiller::EdgeRange edges = g.edges(f.node);
      if (f.edge_index < edges.size()) {
        int next = edges[f.edge_index++].target;
        if (visit[next].disc == -1) {
          visit[next] = Visit{time, time, true};
          ++time;
          stack.push_back(next);
          frames.push_back(Frame{next, 0});
        } else if (visit[next].on_stack) {
          visit[f.node].low = std::min(visit[f.node].low, visit[next].disc);
        }
      } else {
        if (visit[f.node].low == visit[f.node].disc) {
          while (true) {
            int w = stack.back();
            stack.pop_back();
            visit[w].on_stack = false;
            scc[w] = count;
            if (w == f.node) break;
          }
          ++count;
        }
        int done = f.node;
        frames.pop_back();
        if (!frames.empty()) {
          Visit& parent = visit[frames.back().node];
          parent.low = std::min(parent.low, visit[done].low);
        }
      }
    }
  }
  *num_sccs = count;
  return scc;
}

/// Dimensions the closed-walk search must track through an SCC with
/// cover-edges: every dimension touched by an intra-SCC edge delta.
/// ω-dimensions of the start node come first (pumpable: dips are
/// covered by pumping the stem, only the net matters); the rest are
/// exact everywhere in the SCC (cover-edges and real edges only ever
/// ADD ω-coordinates, so the ω-set is constant around any cycle) and
/// carry a feasibility floor: the start node's counter value, below
/// which a prefix of the walk is simply not enabled.
struct TrackedDims {
  std::vector<int> dims;
  size_t num_omega = 0;            // dims[0..num_omega) are ω at start
  std::vector<int64_t> floors;     // parallel; ω dims hold kOmega
};

/// Sets `out` to the start node's ω-dimensions (the cover-free
/// criterion tracks only those).
void OmegaDims(const MarkingView& marking, TrackedDims* out) {
  out->dims.clear();
  out->floors.clear();
  for (size_t d = 0; d < marking.size(); ++d) {
    if (marking[d] == kOmega) {
      out->dims.push_back(static_cast<int>(d));
      out->floors.push_back(kOmega);
    }
  }
  out->num_omega = out->dims.size();
}

/// Partitions the SCC's precollected `touched` dimensions around the
/// start node `start` into `out`: ω-dims first (no floor), exact dims
/// with their feasibility floor from the start marking. The touched set
/// itself is SCC-invariant and collected once, alongside the cover-edge
/// scan.
void PartitionTrackedDims(const KarpMiller& g,
                          const std::vector<int>& touched, int start,
                          TrackedDims* out) {
  const MarkingView m = g.node_marking(start);
  out->dims.clear();
  out->floors.clear();
  for (int d : touched) {
    if (marking::Get(m, d) == kOmega) {
      out->dims.push_back(d);
      out->floors.push_back(kOmega);
    }
  }
  out->num_omega = out->dims.size();
  for (int d : touched) {
    int64_t v = marking::Get(m, d);
    if (v != kOmega) {
      out->dims.push_back(d);
      out->floors.push_back(v);
    }
  }
}

/// Buffers that every search of one FindAcceptingLasso call reuses.
struct LassoScratch {
  // FindAnyLoop's BFS, per graph node (seen is reset after each
  // search; the parent entries are only read where seen was set).
  std::vector<int> parent_node;
  std::vector<int64_t> parent_label;
  std::vector<char> seen;
  std::vector<int> queue;
  // FindNonNegLoop's DFS over (node, effect) search states: state i's
  // effect is effects[i * k, (i + 1) * k) for k tracked dimensions.
  struct SearchState {
    int node;
    int parent;     ///< the state it was first reached from; -1 at start
    int64_t label;  ///< label of the edge from `parent`
  };
  std::vector<SearchState> states;
  std::vector<int64_t> effects;
  IdIndex index;  ///< hash of (node, effect) -> state
  std::vector<int> stack;
  std::vector<int64_t> cur_eff;
  std::vector<int64_t> eff;
  // Per SCC and per accepting node.
  std::vector<int> touched;
  TrackedDims td;
};

/// BFS within one SCC for any closed walk start → start; returns its
/// label sequence. Only valid for cover-free SCCs (full graphs), where
/// a cycle's mere existence already certifies marking return.
std::optional<std::vector<int64_t>> FindAnyLoop(const KarpMiller& g,
                                                const std::vector<int>& scc,
                                                int target, int start,
                                                LassoScratch* scratch) {
  const auto num_nodes = static_cast<size_t>(g.num_nodes());
  if (scratch->seen.size() < num_nodes) {
    scratch->parent_node.resize(num_nodes, -1);
    scratch->parent_label.resize(num_nodes, -1);
    scratch->seen.resize(num_nodes, 0);
  }
  std::vector<int>& parent_node = scratch->parent_node;
  std::vector<int64_t>& parent_label = scratch->parent_label;
  std::vector<char>& seen = scratch->seen;
  std::vector<int>& queue = scratch->queue;
  queue.assign(1, start);
  std::optional<std::vector<int64_t>> loop;
  for (size_t qi = 0; qi < queue.size() && !loop.has_value(); ++qi) {
    int u = queue[qi];
    for (const KarpMiller::Edge& e : g.edges(u)) {
      if (scc[e.target] != target) continue;
      if (e.target == start) {
        // Label-less cover hops (label -1) are walk steps but not
        // transitions; they can appear here only in the delta-free
        // cover-SCC case.
        std::vector<int64_t> labels;
        if (e.label() >= 0) labels.push_back(e.label());
        for (int w = u; w != start; w = parent_node[w]) {
          if (parent_label[w] >= 0) labels.push_back(parent_label[w]);
        }
        std::reverse(labels.begin(), labels.end());
        loop = std::move(labels);
        break;
      }
      if (!seen[e.target]) {
        seen[e.target] = 1;
        parent_node[e.target] = u;
        parent_label[e.target] = e.label();
        queue.push_back(e.target);
      }
    }
  }
  for (int u : queue) seen[u] = 0;
  return loop;
}

/// DFS within one SCC for a closed walk start → start whose net delta
/// effect is ≥ 0 on every tracked dimension. For cover-free SCCs only
/// the ω-dimensions are tracked (exact coordinates return to the same
/// value around any closed walk of a full coverability graph by
/// construction); SCCs with cover-edges track every touched dimension,
/// with feasibility floors on the exact ones (see TrackedDims).
/// Effects saturate at +effect_bound and KILL below -effect_bound; the
/// search is exhaustive within the clamp and step budget. Stored
/// values are therefore always lower bounds of the true effect (top
/// saturation under-reports, downward excursions past the bound end
/// the path instead of saturating), so an accepted walk's net really
/// is ≥ 0 on every tracked dimension — the clamp costs completeness
/// within a deepening round, never soundness.
std::optional<std::vector<int64_t>> FindNonNegLoop(
    const KarpMiller& g, const std::vector<int>& scc, int target, int start,
    const TrackedDims& td, const RepeatedReachabilityOptions& options,
    LassoScratch* scratch, bool* out_of_steps, bool* clamp_cut) {
  const int64_t bound = options.effect_bound;
  const size_t k = td.dims.size();
  std::vector<LassoScratch::SearchState>& states = scratch->states;
  std::vector<int64_t>& effects = scratch->effects;
  IdIndex& index = scratch->index;
  std::vector<int>& stack = scratch->stack;
  std::vector<int64_t>& cur_eff = scratch->cur_eff;
  std::vector<int64_t>& eff = scratch->eff;
  auto hash_of = [k](int node, const int64_t* effect) {
    size_t seed = static_cast<size_t>(node);
    for (size_t i = 0; i < k; ++i) HashMix(&seed, effect[i]);
    return seed;
  };
  states.clear();
  index.Clear();
  stack.clear();
  states.push_back(LassoScratch::SearchState{start, -1, -1});
  effects.assign(k, 0);
  index.Insert(hash_of(start, effects.data()), 0);
  stack.push_back(0);
  size_t steps = 0;
  while (!stack.empty()) {
    if (++steps > options.max_steps) {
      *out_of_steps = true;
      break;
    }
    const int cur = stack.back();
    stack.pop_back();
    const auto cur_at = effects.begin() + static_cast<ptrdiff_t>(cur * k);
    cur_eff.assign(cur_at, cur_at + static_cast<ptrdiff_t>(k));
    for (const KarpMiller::Edge& e : g.edges(states[cur].node)) {
      if (scc[e.target] != target) continue;
      eff = cur_eff;
      bool feasible = true;
      for (const auto& [dim, change] : e.delta()) {
        for (size_t i = 0; feasible && i < k; ++i) {
          if (td.dims[i] != dim) continue;
          int64_t v = eff[i] + change;
          if (i < td.num_omega) {
            // Pumpable dimension: dips are covered by pumping the
            // stem, only the net matters — but a dip beyond -bound
            // kills the path rather than saturating. Bottom-saturation
            // would turn the stored value into an OVERestimate of the
            // true effect and let a negative-net loop slip through the
            // ≥ 0 acceptance (false VIOLATED); killing only costs
            // completeness within the round, and the cut is reported
            // so a verdict-deciding caller can degrade rather than
            // silently hold.
            if (v < -bound) {
              feasible = false;
              *clamp_cut = true;
            }
            v = std::min(v, bound);
          } else {
            // Exact dimension: a prefix below the start node's counter
            // value is not enabled (a genuine infeasibility, nothing
            // to report); below -bound it merely cannot be tracked
            // this round, which is a clamp artifact like the ω case.
            if (v < -td.floors[i]) {
              feasible = false;
            } else if (v < -bound) {
              feasible = false;
              *clamp_cut = true;
            }
            v = std::min(v, bound);
          }
          eff[i] = v;
        }
        if (!feasible) break;
      }
      if (!feasible) continue;
      if (e.target == start &&
          std::all_of(eff.begin(), eff.end(),
                      [](int64_t v) { return v >= 0; })) {
        // Reconstruct the label sequence; label-less cover hops are
        // walk steps but contribute no transition.
        std::vector<int64_t> labels;
        if (e.label() >= 0) labels.push_back(e.label());
        for (int s = cur; s != 0; s = states[s].parent) {
          if (states[s].label >= 0) labels.push_back(states[s].label);
        }
        std::reverse(labels.begin(), labels.end());
        return labels;
      }
      const size_t hash = hash_of(e.target, eff.data());
      const int found = index.Find(hash, [&](int id) {
        return states[id].node == e.target &&
               std::equal(eff.begin(), eff.end(),
                          effects.begin() + static_cast<ptrdiff_t>(id * k));
      });
      if (found == -1) {
        const int id = static_cast<int>(states.size());
        states.push_back(LassoScratch::SearchState{e.target, cur, e.label()});
        effects.insert(effects.end(), eff.begin(), eff.end());
        index.Insert(hash, id);
        stack.push_back(id);
      }
    }
  }
  return std::nullopt;
}

}  // namespace

std::optional<LassoWitness> FindAcceptingLasso(
    const KarpMiller& graph, const std::function<bool(int)>& accepting,
    const RepeatedReachabilityOptions& options, bool* budget_exhausted) {
  if (budget_exhausted != nullptr) *budget_exhausted = false;
  bool any_search_cut = false;
  int num_sccs = 0;
  const std::vector<int> scc = ComputeSccs(graph, &num_sccs);

  // Nodes grouped per SCC, ascending within each: SCC c's members are
  // members[offsets[c], offsets[c + 1]). Counting sort: offsets[c]
  // starts one past SCC c's last slot and is filled downward from the
  // highest node id.
  std::vector<int> offsets(static_cast<size_t>(num_sccs) + 1, 0);
  for (int c : scc) ++offsets[c];
  for (int c = 1; c <= num_sccs; ++c) offsets[c] += offsets[c - 1];
  std::vector<int> members(scc.size());
  for (int n = graph.num_nodes() - 1; n >= 0; --n) {
    members[--offsets[scc[n]]] = n;
  }

  LassoScratch scratch;
  for (int target = 0; target < num_sccs; ++target) {
    const int* first = members.data() + offsets[target];
    const int* last = members.data() + offsets[target + 1];
    // Cheapest filter first: an SCC without an accepting node can be
    // skipped before any cycle test touches its edge lists (on
    // task-VASS graphs most SCCs are accepting-free singletons).
    bool has_accepting = false;
    for (const int* n = first; n != last; ++n) {
      if (accepting(graph.node_state(*n))) {
        has_accepting = true;
        break;
      }
    }
    if (!has_accepting) continue;

    bool has_cycle = last - first > 1;
    if (!has_cycle) {
      for (const KarpMiller::Edge& e : graph.edges(*first)) {
        if (e.target == *first) {
          has_cycle = true;
          break;
        }
      }
    }
    if (!has_cycle) continue;

    // Does the SCC's cycle structure cross cover-edges? On a full
    // graph never (the whole sweep is skipped — graphs without any
    // cover-edge can't have one in an SCC); on a pruned graph always
    // (real pruned edges run parent → freshly interned child, strictly
    // id-increasing, so every pruned cycle closes through a
    // cover-edge). The same sweep collects the touched-dimension set
    // the cover criterion tracks — SCC-invariant, so gathered once,
    // not per accepting node.
    bool has_cover = false;
    std::vector<int>& touched = scratch.touched;
    touched.clear();
    if (graph.cover_edges() > 0) {
      for (const int* u = first; u != last; ++u) {
        for (const KarpMiller::Edge& e : graph.edges(*u)) {
          if (scc[e.target] != target) continue;
          if (e.cover) has_cover = true;
          for (const auto& [dim, change] : e.delta()) {
            (void)change;
            if (std::find(touched.begin(), touched.end(), dim) ==
                touched.end()) {
              touched.push_back(dim);
            }
          }
        }
      }
    }

    for (const int* it = first; it != last; ++it) {
      const int n = *it;
      if (!accepting(graph.node_state(n))) continue;
      TrackedDims& td = scratch.td;
      if (has_cover) {
        PartitionTrackedDims(graph, touched, n, &td);
      } else {
        OmegaDims(graph.node_marking(n), &td);
      }
      std::optional<std::vector<int64_t>> loop;
      if (td.dims.empty()) {
        // Nothing to track: cover-free with no ω-dimensions (any cycle
        // returns the marking exactly), or a cover SCC none of whose
        // edges touches a counter (every walk has zero net effect).
        loop = FindAnyLoop(graph, scc, target, n, &scratch);
      } else {
        // Iterative deepening on the effect clamp: short loops (the
        // common case) are found without saturating the full effect
        // lattice; the final round is exhaustive up to the configured
        // bound. Start no wider than the configured bound, so a
        // bound < 2 never runs a round with a LARGER clamp than asked.
        bool final_steps_cut = false;
        bool final_clamp_cut = false;
        for (int64_t bound = std::min<int64_t>(2, options.effect_bound);
             !loop.has_value();) {
          RepeatedReachabilityOptions round = options;
          round.effect_bound = bound;
          final_steps_cut = false;
          final_clamp_cut = false;
          loop = FindNonNegLoop(graph, scc, target, n, td, round, &scratch,
                                &final_steps_cut, &final_clamp_cut);
          if (bound >= options.effect_bound) break;
          bound = std::min(bound * 4, options.effect_bound);
        }
        // Only the last (widest) round's verdict is authoritative: if
        // IT ran out of steps, or killed a path purely because the
        // effect clamp could not track it, without finding a loop,
        // then "no lasso here" is unproven.
        if (!loop.has_value() && (final_steps_cut || final_clamp_cut)) {
          any_search_cut = true;
        }
      }
      if (loop.has_value()) {
        return LassoWitness{n, graph.PathLabels(n), std::move(*loop)};
      }
    }
  }
  if (budget_exhausted != nullptr) *budget_exhausted = any_search_cut;
  return std::nullopt;
}

}  // namespace has
