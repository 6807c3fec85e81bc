#include "vass/repeated.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/hashing.h"
#include "common/status.h"

namespace has {

namespace {

/// Tarjan SCCs over the coverability graph (iterative to avoid deep
/// recursion on long chains).
std::vector<int> ComputeSccs(const KarpMiller& g, int* num_sccs) {
  const int n = g.num_nodes();
  std::vector<int> scc(n, -1), low(n, 0), disc(n, -1), stack;
  std::vector<bool> on_stack(n, false);
  int time = 0, count = 0;

  struct Frame {
    int node;
    size_t edge_index;
  };
  for (int start = 0; start < n; ++start) {
    if (disc[start] != -1) continue;
    std::vector<Frame> frames{{start, 0}};
    disc[start] = low[start] = time++;
    stack.push_back(start);
    on_stack[start] = true;
    while (!frames.empty()) {
      Frame& f = frames.back();
      const auto& edges = g.edges(f.node);
      if (f.edge_index < edges.size()) {
        int next = edges[f.edge_index++].target;
        if (disc[next] == -1) {
          disc[next] = low[next] = time++;
          stack.push_back(next);
          on_stack[next] = true;
          frames.push_back(Frame{next, 0});
        } else if (on_stack[next]) {
          low[f.node] = std::min(low[f.node], disc[next]);
        }
      } else {
        if (low[f.node] == disc[f.node]) {
          while (true) {
            int w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            scc[w] = count;
            if (w == f.node) break;
          }
          ++count;
        }
        int done = f.node;
        frames.pop_back();
        if (!frames.empty()) {
          low[frames.back().node] =
              std::min(low[frames.back().node], low[done]);
        }
      }
    }
  }
  *num_sccs = count;
  return scc;
}

std::vector<int> OmegaDims(const MarkingView& marking) {
  std::vector<int> out;
  for (size_t d = 0; d < marking.size(); ++d) {
    if (marking[d] == kOmega) out.push_back(static_cast<int>(d));
  }
  return out;
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

/// Partitions the SCC's precollected `touched` dimensions around the
/// start node `start`: ω-dims first (no floor), exact dims with their
/// feasibility floor from the start marking. The touched set itself is
/// SCC-invariant and collected once, alongside the cover-edge scan.
TrackedDims PartitionTrackedDims(const KarpMiller& g,
                                 const std::vector<int>& touched,
                                 int start) {
  const MarkingView m = g.node_marking(start);
  TrackedDims out;
  for (int d : touched) {
    if (marking::Get(m, d) == kOmega) {
      out.dims.push_back(d);
      out.floors.push_back(kOmega);
    }
  }
  out.num_omega = out.dims.size();
  for (int d : touched) {
    int64_t v = marking::Get(m, d);
    if (v != kOmega) {
      out.dims.push_back(d);
      out.floors.push_back(v);
    }
  }
  return out;
}

/// BFS within one SCC for any closed walk start → start; returns its
/// label sequence. Only valid for cover-free SCCs (full graphs), where
/// a cycle's mere existence already certifies marking return.
std::optional<std::vector<int64_t>> FindAnyLoop(const KarpMiller& g,
                                                const std::vector<int>& scc,
                                                int target, int start) {
  std::vector<int> parent_node(g.num_nodes(), -1);
  std::vector<int64_t> parent_label(g.num_nodes(), -1);
  std::vector<bool> seen(g.num_nodes(), false);
  std::vector<int> queue{start};
  for (size_t qi = 0; qi < queue.size(); ++qi) {
    int u = queue[qi];
    for (const KarpMiller::Edge& e : g.edges(u)) {
      if (scc[e.target] != target) continue;
      if (e.target == start) {
        // Label-less cover hops (label -1) are walk steps but not
        // transitions; they can appear here only in the delta-free
        // cover-SCC case.
        std::vector<int64_t> labels;
        if (e.label >= 0) labels.push_back(e.label);
        for (int w = u; w != start; w = parent_node[w]) {
          if (parent_label[w] >= 0) labels.push_back(parent_label[w]);
        }
        std::reverse(labels.begin(), labels.end());
        return labels;
      }
      if (!seen[e.target]) {
        seen[e.target] = true;
        parent_node[e.target] = u;
        parent_label[e.target] = e.label;
        queue.push_back(e.target);
      }
    }
  }
  return std::nullopt;
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
    bool* out_of_steps, bool* clamp_cut) {
  using Key = std::pair<int, std::vector<int64_t>>;  // (node, effect)
  const int64_t bound = options.effect_bound;
  // key -> (prev key, label)
  std::unordered_map<Key, std::pair<Key, int64_t>, IdVectorHash> parent;
  std::unordered_set<Key, IdVectorHash> seen;
  std::vector<Key> stack;
  Key init{start, std::vector<int64_t>(td.dims.size(), 0)};
  stack.push_back(init);
  seen.insert(init);
  size_t steps = 0;
  while (!stack.empty()) {
    if (++steps > options.max_steps) {
      *out_of_steps = true;
      break;
    }
    Key cur = stack.back();
    stack.pop_back();
    for (const KarpMiller::Edge& e : g.edges(cur.first)) {
      if (scc[e.target] != target) continue;
      std::vector<int64_t> eff = cur.second;
      bool feasible = true;
      for (const auto& [dim, change] : e.delta) {
        for (size_t k = 0; feasible && k < td.dims.size(); ++k) {
          if (td.dims[k] != dim) continue;
          int64_t v = eff[k] + change;
          if (k < td.num_omega) {
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
            if (v < -td.floors[k]) {
              feasible = false;
            } else if (v < -bound) {
              feasible = false;
              *clamp_cut = true;
            }
            v = std::min(v, bound);
          }
          eff[k] = v;
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
        if (e.label >= 0) labels.push_back(e.label);
        Key key = cur;
        while (key != init) {
          auto it = parent.find(key);
          HAS_CHECK(it != parent.end());
          if (it->second.second >= 0) labels.push_back(it->second.second);
          key = it->second.first;
        }
        std::reverse(labels.begin(), labels.end());
        return labels;
      }
      Key key{e.target, std::move(eff)};
      if (seen.insert(key).second) {
        parent[key] = {cur, e.label};
        stack.push_back(std::move(key));
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
  std::vector<int> scc = ComputeSccs(graph, &num_sccs);

  // Group nodes per SCC and detect which SCCs contain a cycle.
  std::vector<std::vector<int>> members(num_sccs);
  for (int n = 0; n < graph.num_nodes(); ++n) members[scc[n]].push_back(n);

  for (int target = 0; target < num_sccs; ++target) {
    // Cheapest filter first: an SCC without an accepting node can be
    // skipped before any cycle test touches its edge lists (on
    // task-VASS graphs most SCCs are accepting-free singletons).
    bool has_accepting = false;
    for (int n : members[target]) {
      if (accepting(graph.node_state(n))) {
        has_accepting = true;
        break;
      }
    }
    if (!has_accepting) continue;

    bool has_cycle = members[target].size() > 1;
    if (!has_cycle) {
      int only = members[target][0];
      for (const KarpMiller::Edge& e : graph.edges(only)) {
        if (e.target == only) {
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
    std::vector<int> touched;
    if (graph.cover_edges() > 0) {
      for (int u : members[target]) {
        for (const KarpMiller::Edge& e : graph.edges(u)) {
          if (scc[e.target] != target) continue;
          if (e.cover) has_cover = true;
          for (const auto& [dim, change] : e.delta) {
            (void)change;
            if (std::find(touched.begin(), touched.end(), dim) ==
                touched.end()) {
              touched.push_back(dim);
            }
          }
        }
      }
    }

    for (int n : members[target]) {
      if (!accepting(graph.node_state(n))) continue;
      TrackedDims td;
      if (has_cover) {
        td = PartitionTrackedDims(graph, touched, n);
      } else {
        td.dims = OmegaDims(graph.node_marking(n));
        td.num_omega = td.dims.size();
        td.floors.assign(td.dims.size(), kOmega);
      }
      std::optional<std::vector<int64_t>> loop;
      if (td.dims.empty()) {
        // Nothing to track: cover-free with no ω-dimensions (any cycle
        // returns the marking exactly), or a cover SCC none of whose
        // edges touches a counter (every walk has zero net effect).
        loop = FindAnyLoop(graph, scc, target, n);
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
          loop = FindNonNegLoop(graph, scc, target, n, td, round,
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
