// Karp–Miller coverability graph with ω-acceleration. Provides exact
// state (repeated) reachability for VASS per Section 4.2:
//   - a task VASS state q is reachable iff some coverability-graph node
//     carries q (state reachability / returning & blocking paths of
//     Lemma 21);
//   - repeated reachability (lasso paths) reduces to finding a
//     reachable accepting node lying on a closed walk of the graph
//     whose net effect is ≥ 0 on ω-coordinates (see repeated.h).
//
// The pumping property of Karp–Miller trees makes both directions
// sound: node markings are exact on non-ω coordinates and arbitrarily
// pumpable on ω ones.
//
// Exploration is a single-threaded BFS, so the produced graph (node
// numbering, markings, edges, labels) is a deterministic function of
// the system and the options.
//
// With KarpMillerOptions::prune_coverability the explorer applies
// antichain subsumption (minimal-coverability-set pruning): dominated
// successors are discarded and strictly-covered active nodes retired.
// The pruned graph preserves exactly the reachable VASS states (state
// reachability is unaffected), and it records a COVER-EDGE at each of
// the two prune points — a dropped successor becomes an edge from its
// parent to the antichain node that dominated it (keeping the dropped
// transition's label and delta), and a retired node gets a label-less
// edge to its coverer — so the pruned forest plus cover-edges carries
// the closed-walk structure repeated-reachability (lasso) consumers
// need: see vass/repeated.h for the criterion and why traversing
// cover-edges is sound.
#ifndef HAS_VASS_KARP_MILLER_H_
#define HAS_VASS_KARP_MILLER_H_

#include <functional>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hashing.h"
#include "vass/marking.h"
#include "vass/vass.h"

namespace has {

struct KarpMillerOptions {
  /// Hard cap on coverability-graph nodes; exceeded => truncated().
  size_t max_nodes = 1 << 18;
  /// Unread: the explorer keeps every state's successor list for the
  /// graph's lifetime. The perfbench replica (perfbench/replica.cc) is
  /// the sole writer; the field goes together with it.
  size_t succ_cache_capacity = 1 << 14;
  /// Antichain subsumption pruning (minimal-coverability-set style, à
  /// la Reynier–Servais): a successor whose marking is ≤ an active
  /// node's marking (same VASS state, ω-aware compare) is dropped
  /// before interning, and an active node strictly covered by a
  /// newcomer is deactivated — retired from the antichain and, if it
  /// has not been expanded yet, excluded from the frontier, cutting its
  /// entire would-be subtree. The pruned graph carries exactly the
  /// REACHABLE VASS STATES of the full graph (coverability-preserving),
  /// so state-reachability consumers (returning/blocking detection,
  /// FindNode) are unaffected. Both prune points additionally record a
  /// cover-edge (Edge::cover) so closed-walk (lasso) analysis runs
  /// directly on the pruned graph — see the file comment and
  /// vass/repeated.h. Deactivation is round-granular: a node already
  /// in the BFS round's frontier when it is covered still expands.
  bool prune_coverability = false;
  /// Ample-prefix partial-order reduction: when the system reports a
  /// positive AmplePrefix(state) (see VassSystem::AmplePrefix), expand
  /// only those leading edges of the state — PROVIDED at least one
  /// prefix edge makes PROGRESS: it lands on a fresh node, or folds
  /// into an antichain entry whose marking is STRICTLY larger than the
  /// edge's target. If every prefix edge folds into an EQUAL marking
  /// (an already-interned duplicate, or a dominator that adds nothing)
  /// the node reverts to full expansion, which discharges the
  /// ample-set ignoring condition (C3): deferred transitions ride a
  /// chain of progress witnesses that either creates fresh nodes
  /// (acyclic by creation order, finite — ω-acceleration saturates
  /// strictly growing markings) or strictly ascends the marking order
  /// (acyclic by strictness), and every chain therefore ends at a
  /// fully-expanded node whose configuration and marking cover the
  /// deferring state's. Default OFF here so
  /// direct KarpMiller consumers (unit tests, explicit VASSes) are
  /// unaffected; the verifier sets it from VerifierOptions::por.
  bool por = false;
};

class KarpMiller {
 public:
  explicit KarpMiller(VassSystem* system, KarpMillerOptions options = {});
  /// Edges point into the graph's own successor lists, so a copy's
  /// edges would point into the original's.
  KarpMiller(const KarpMiller&) = delete;
  KarpMiller& operator=(const KarpMiller&) = delete;

  /// Explores the coverability graph from (s, 0̄) for each initial
  /// state s.
  void Build(const std::vector<int>& initial_states);

  bool truncated() const { return truncated_; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int node_state(int n) const { return nodes_[n].state; }
  /// Packed view of node n's marking. Payloads live in the graph's
  /// arena (struct-of-arrays, appended in node-creation order — see
  /// vass/marking.h); the view is valid for the graph's lifetime.
  MarkingView node_marking(int n) const { return nodes_[n].marking; }

  /// A coverability-graph edge. Refers to the successor-list entry it
  /// came from, which the graph keeps for its lifetime: closed-walk
  /// effects on ω-coordinates need the raw action delta, which the
  /// markings alone do not recover.
  ///
  /// With pruning, `cover` marks a subsumption edge recorded at a prune
  /// point instead of a materialized successor:
  ///   - a DROPPED successor (marking dominated by an antichain node)
  ///     becomes a cover-edge from its parent to the dominator, keeping
  ///     the dropped transition's label and delta — the transition is
  ///     real, only its target was folded into a larger node;
  ///   - a RETIRED (deactivated) node gets a cover-edge with no source
  ///     (label -1, empty delta) to the newcomer that strictly covers
  ///     it, so walks entering the retired node continue through the
  ///     coverer's subtree.
  /// Both jumps land on a marking ≥ the one the unpruned graph would
  /// have carried (effect-widening), which is what makes them sound for
  /// the lasso criterion in vass/repeated.cc.
  struct Edge {
    int target = -1;
    bool cover = false;
    /// Entry of the source state's successor list; null for a retired
    /// node's cover-edge.
    const VassEdge* source = nullptr;

    int64_t label() const { return source != nullptr ? source->label : -1; }
    const Delta& delta() const {
      static const Delta kNone;
      return source != nullptr ? source->delta : kNone;
    }
  };

  /// Graph edges out of node n.
  const std::vector<Edge>& edges(int n) const { return nodes_[n].edges; }

  /// Spanning-tree parent of node n (-1 for roots).
  int node_parent(int n) const { return nodes_[n].parent; }

  /// First node (in creation order) whose VASS state satisfies `pred`;
  /// -1 if none.
  int FindNode(const std::function<bool(int)>& pred) const;

  /// Action labels along the spanning-tree path from a root to node n.
  std::vector<int64_t> PathLabels(int n) const;

  /// Statistics for the benchmark harness.
  size_t TotalEdges() const;
  /// Successor-list accounting: one hit or miss per processed node;
  /// misses equal the distinct states expanded.
  size_t succ_cache_hits() const { return cache_hits_; }
  size_t succ_cache_misses() const { return cache_misses_; }

  /// Pruning accounting (all 0 unless prune_coverability).
  /// Successor candidates dropped by the antichain domination check.
  size_t pruned_successors() const { return pruned_successors_; }
  /// Nodes retired before expansion (their subtrees were never built).
  size_t deactivated_nodes() const { return deactivated_count_; }
  /// Largest per-state antichain observed.
  size_t antichain_peak() const { return antichain_peak_; }
  /// Cover-edges recorded at the prune points (one per dropped
  /// successor plus one per retired node; included in TotalEdges).
  size_t cover_edges() const { return cover_edges_; }
  /// Antichain entries compared across all domination probes: one
  /// DominanceLeq per entry visited, by DominatorOf's scan up to its
  /// first hit and by every absorb pass.
  size_t antichain_probes() const { return antichain_probes_; }
  /// Always 0: the antichain is one flat list per state, with no
  /// summary buckets. Kept solely because the perfbench replica
  /// (perfbench/replica.cc) still reads them.
  size_t antichain_bucket_probes() const { return 0; }
  size_t antichain_skipped_by_summary() const { return 0; }
  size_t antichain_buckets_peak() const { return 0; }
  /// Always 0: markings are stored dense only. Kept solely because the
  /// perfbench replica (perfbench/replica.cc) still reads it.
  size_t sparse_markings() const { return 0; }
  /// Partial-order-reduction accounting (both 0 unless options.por and
  /// the system reports ample prefixes).
  /// Successors skipped because an ample prefix expanded in their
  /// place.
  size_t ample_reduced_successors() const {
    return ample_reduced_successors_;
  }
  /// Nodes whose ample prefix was abandoned because a prefix edge
  /// folded into an existing node (the C3 full-expansion rule).
  size_t ample_full_expansions() const { return ample_full_expansions_; }
  /// Whether node n was deactivated (always false without pruning).
  bool node_deactivated(int n) const {
    return static_cast<size_t>(n) < deactivated_.size() &&
           deactivated_[static_cast<size_t>(n)] != 0;
  }

 private:
  struct Node {
    int state = -1;
    /// Packed payload in marking_arena_ (canonical form).
    MarkingView marking;
    int parent = -1;          // spanning-tree parent
    int64_t parent_label = -1;
    std::vector<Edge> edges;
  };

  /// (VASS state, marking) — the interned identity of a node. States
  /// are already pool-interned ids upstream, so hashing the pair is a
  /// flat integer mix with no serialization.
  using NodeKey = std::pair<int, std::vector<int64_t>>;

  /// One VASS state's successor list, filled on the state's first
  /// expansion and kept unchanged for the graph's lifetime (edges point
  /// into it).
  struct SuccessorList {
    std::vector<VassEdge> edges;
    bool filled = false;
  };

  /// One active antichain entry: a node and its marking's view.
  struct AntichainEntry {
    int node;
    MarkingView marking;
  };

  /// Appends a node with `marking` copied into the arena; returns its
  /// id.
  int AddNode(int state, const std::vector<int64_t>& marking, int parent,
              int64_t parent_label);

  /// The unpruned path's node constructor: returns the node already
  /// carrying (state, marking), or adds and indexes a new one.
  int InternNode(int state, const std::vector<int64_t>& marking, int parent,
                 int64_t parent_label, bool* created);

  /// Accelerated successor marking of `parent_node` under `delta` into
  /// state `target`: marking apply, ω-acceleration against the
  /// spanning-tree ancestry, canonical trailing-zero strip. False if
  /// the delta is not enabled.
  bool SuccessorMarking(int parent_node, int target, const Delta& delta,
                        std::vector<int64_t>* out) const;

  /// `state`'s successor list, asking the system on its first call.
  /// The returned reference stays valid until the next call (the table
  /// may grow); the entries it holds live as long as the graph.
  const std::vector<VassEdge>& Successors(int state);

  /// MINIMUM-id active antichain node of `state` whose marking
  /// dominates `marking` (ω-aware, 0-padded compare); -1 if none. The
  /// antichain is kept in ascending node id, so the scan's first hit is
  /// that minimum — a pure function of the antichain CONTENT, which the
  /// pruned build and the POR progress test both rely on. Non-const for
  /// the probe accounting.
  int DominatorOf(int state, const MarkingView& marking);

  /// Appends freshly created `node` to its state's antichain after one
  /// stable pass that retires every entry its marking strictly covers.
  /// Retired entries with id >= round_first_new_id_ (same-round
  /// newcomers, hence not yet expanded) are deactivated: flagged so
  /// they never reach a frontier, and given a cover-edge to `node` so
  /// walks entering them continue through the coverer's subtree.
  void AntichainAbsorb(int node);

  VassSystem* system_;
  KarpMillerOptions options_;
  std::vector<Node> nodes_;
  /// Packed marking payloads, appended in node-creation order (a
  /// node's marking is adjacent to its round neighbours — the entries
  /// antichain probes walk together).
  MarkingArena marking_arena_;
  std::unordered_map<NodeKey, int, IdVectorHash> index_;
  /// Indexed by VASS state. Moving a list on table growth keeps its
  /// heap buffer, so Edge::source pointers stay valid.
  std::vector<SuccessorList> successors_;
  size_t cache_hits_ = 0;
  size_t cache_misses_ = 0;
  bool truncated_ = false;

  // --- antichain pruning state (prune_coverability only) ---------------
  /// Indexed by VASS state: the state's maximal active markings
  /// (pairwise incomparable), in ascending node id. Grown on a state's
  /// first node; empty for states without one.
  std::vector<std::vector<AntichainEntry>> antichain_;
  /// Per node: retired before expansion (parallel to nodes_).
  std::vector<char> deactivated_;
  /// First node id of the current round's newcomers: entries at or
  /// beyond it are unexpanded and may still be deactivated; older
  /// covered entries only leave the antichain (round-granular
  /// deactivation — see KarpMillerOptions::prune_coverability).
  size_t round_first_new_id_ = 0;
  size_t pruned_successors_ = 0;
  size_t deactivated_count_ = 0;
  size_t antichain_peak_ = 0;
  size_t cover_edges_ = 0;
  size_t antichain_probes_ = 0;

  // --- partial-order reduction accounting (options.por only) -----------
  size_t ample_reduced_successors_ = 0;
  size_t ample_full_expansions_ = 0;
};

}  // namespace has

#endif  // HAS_VASS_KARP_MILLER_H_
