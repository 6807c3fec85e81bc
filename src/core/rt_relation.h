// Demand-driven computation of the relations R_T (Section 4.2,
// Lemma 21): for a task T, input type τ_in (plus input cell) and truth
// assignment β to Φ_T, the set of possible outputs — returning output
// types, and whether a non-returning run (lasso through a Büchi-
// accepting state, or a blocking run with a ⊥ child) exists. Queries
// recurse down the hierarchy through the RtOracle interface and are
// memoized per (task, τ_in, cell, β) — the key holds pool-interned ids,
// so the memo is a flat hash table over integer tuples instead of a
// tree of serialized signatures.
#ifndef HAS_CORE_RT_RELATION_H_
#define HAS_CORE_RT_RELATION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/task_vass.h"
#include "core/type_pool.h"
#include "vass/karp_miller.h"
#include "vass/repeated.h"

namespace has {

/// Cumulative statistics across all RT queries.
struct RtStats {
  size_t queries = 0;
  size_t cov_nodes = 0;
  size_t cov_edges = 0;
  size_t product_states = 0;
  size_t counter_dims = 0;
  /// Canonical types / cells hash-consed in the engine's shared pool.
  size_t pooled_types = 0;
  size_t pooled_cells = 0;
  /// Successor-list accounting across all coverability explorations:
  /// one hit or miss per processed coverability node, one miss per
  /// distinct product state an exploration expands.
  size_t succ_cache_hits = 0;
  size_t succ_cache_misses = 0;
  /// Antichain-pruning accounting (0 unless prune_coverability):
  /// successor candidates dropped by domination, nodes retired before
  /// expansion, largest per-state antichain seen, and cover-edges
  /// recorded at the prune points (one per drop, one per retirement).
  size_t pruned_successors = 0;
  size_t deactivated_nodes = 0;
  size_t antichain_peak = 0;
  size_t cover_edges = 0;
  /// Antichain entries compared by domination probes, one DominanceLeq
  /// per entry visited (deterministic).
  size_t antichain_probes = 0;
  /// Always 0 (the antichain has no summary buckets). Kept solely
  /// because the perfbench replica (perfbench/replica.cc) still
  /// accumulates them.
  size_t antichain_bucket_probes = 0;
  size_t antichain_skipped_by_summary = 0;
  size_t antichain_buckets_peak = 0;
  /// Always 0 (markings are stored dense only). Kept solely because the
  /// perfbench replica (perfbench/replica.cc) still accumulates it.
  size_t sparse_markings = 0;
  /// Partial-order reduction accounting (0 unless VerifierOptions::por):
  /// successors never generated because an ample prefix covered the
  /// state (deterministic), and ample attempts
  /// that reverted to full expansion because NO prefix edge made
  /// progress — every stutter folded into an antichain entry with an
  /// EQUAL marking, i.e. the diagonal is saturated (informational: the
  /// revert itself is deterministic but the count depends on fold
  /// timing).
  size_t ample_reduced_successors = 0;
  size_t ample_full_expansions = 0;
  /// Successor-enumeration memo accounting (EnumMemo in
  /// core/successor.h), summed over the engine's tasks: entries filled,
  /// one per distinct (configuration, service / child / child outcome)
  /// key and so deterministic; and lookups an already-filled entry
  /// answered, deterministic too: each exploration prepares each product
  /// state once.
  size_t enum_memo_misses = 0;
  size_t enum_memo_hits = 0;
  /// Internal-service bodies the memo filled: one per distinct (input
  /// base, service), so deterministic. Each is one EnumerateInternal
  /// run, shared by every configuration with that input base.
  size_t enum_body_fills = 0;
  /// Static analysis / slicing accounting (filled by Verify, not the
  /// engine; deterministic functions of the spec+property, invariant
  /// under POR and pruning): internal services dropped by
  /// the cone-of-influence slice, dimensions removed (dropped artifact
  /// relations + dropped variables), and diagnostics the analyzer
  /// emitted. The slice counters are 0 with VerifierOptions::slice off;
  /// diagnostics_emitted counts whenever the analyzer runs (always).
  size_t sliced_services = 0;
  size_t sliced_dims = 0;
  size_t diagnostics_emitted = 0;
  bool truncated = false;
};

class RtEngine : public RtOracle {
 public:
  /// `property` must already be the negated property ([¬ξ]_T1).
  /// `hcd` is null in no-arithmetic mode.
  RtEngine(const ArtifactSystem* system, const HltlProperty* property,
           const VerifierOptions& options, const Hcd* hcd);
  ~RtEngine() override;

  const ChildResult& Query(TaskId task, const PartialIsoType& input_iso,
                           const Cell& input_cell,
                           Assignment beta) override;
  RtQueryKey KeyOf(TaskId task, const PartialIsoType& input_iso,
                   const Cell& input_cell, Assignment beta) override {
    return EntryKey(task, input_iso, input_cell, beta);
  }
  /// Batched per-child query: interns the input ONCE and reuses the
  /// interned ids for every β's key and memo lookup (the per-β loop
  /// previously interned the input twice per assignment).
  BatchedChildResult QueryAll(TaskId task, const PartialIsoType& input_iso,
                              const Cell& input_cell,
                              Assignment num_assignments) override;

  struct RootWitness {
    bool satisfiable = false;
    /// The memo entry holding the witnessing root exploration.
    RtQueryKey entry_key;
    /// Lasso witness (empty loop = blocking witness).
    std::vector<int64_t> stem_labels;
    std::vector<int64_t> loop_labels;
    int final_node = -1;
    bool blocking = false;
  };

  /// Satisfiability of the (negated) property: does some symbolic tree
  /// of runs of the system satisfy it? (Lemma 21 at the root.)
  RootWitness CheckRoot();

  const RtStats& stats() const { return stats_; }
  const TaskContext& context(TaskId t) const { return *contexts_.at(t); }
  /// The engine-wide interning pool (shared by every per-task product).
  const TypePool& pool() const { return pool_; }

  /// Access to a memo entry's exploration artifacts (counterexample
  /// rendering).
  struct Entry {
    ChildResult result;
    std::unique_ptr<TaskVass> vass;
    /// Reachability graph: pruned when VerifierOptions::
    /// prune_coverability is set, the one (full) graph otherwise.
    /// returning_nodes / blocking_node index into THIS graph.
    std::unique_ptr<KarpMiller> graph;
    /// Per returning outcome: a coverability node realizing it.
    std::vector<int> returning_nodes;
    /// Blocking witness node (-1 if none) and lasso witness. The lasso
    /// analysis runs on `graph` itself — pruned graphs carry the
    /// closed-walk structure in their cover-edges — so `lasso->node`
    /// always indexes into `graph`; the witness LABEL sequences are
    /// transition-record ids valid independent of any graph.
    int blocking_node = -1;
    std::optional<LassoWitness> lasso;
    TaskId task = kNoTask;
    /// Computed on first demand. Child queries only go down the task
    /// tree, so an entry under construction is never queried again.
    enum class Build : uint8_t { kPending, kBuilding, kReady };
    Build build = Build::kPending;
  };
  const Entry* FindEntry(const RtQueryKey& key) const;
  /// Interns the query input into the pool and returns the memo key.
  RtQueryKey EntryKey(TaskId task, const PartialIsoType& input_iso,
                      const Cell& input_cell, Assignment beta);

 private:
  /// Memoized lookup by precomputed key; computes the entry on first
  /// demand.
  const ChildResult& QueryByKey(const RtQueryKey& key,
                                const PartialIsoType& input_iso,
                                const Cell& input_cell);
  /// Runs the exploration for `key` and fills `entry`.
  void ComputeEntry(const RtQueryKey& key, const PartialIsoType& input_iso,
                    const Cell& input_cell, Entry* entry);

  const ArtifactSystem* system_;
  const HltlProperty* property_;
  VerifierOptions options_;
  const Hcd* hcd_;
  TypePool pool_;
  std::unique_ptr<PropertyAutomata> automata_;
  std::map<TaskId, std::unique_ptr<TaskContext>> contexts_;
  std::map<TaskId, const TaskContext*> context_ptrs_;
  /// Entries are heap-owned, so references survive the insertions of
  /// nested child queries.
  std::unordered_map<RtQueryKey, std::unique_ptr<Entry>, RtQueryKeyHash>
      memo_;
  RtStats stats_;
};

}  // namespace has

#endif  // HAS_CORE_RT_RELATION_H_
