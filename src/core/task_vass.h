// The per-task product VASS V(T, β) of Section 4.2. States are tuples
//   (iso type τ, cell, current service σ, Büchi state q of B(T,β),
//    child stages ō, input-bound bits c̄_ib)
// and the counter dimensions are the (non-input-bound) TS-isomorphism
// types discovered during exploration. Transitions implement the
// symbolic successor relation; opening a child guesses an entry
// (τ_in, τ_out, β_c) of the child's R_Tc relation through the RtOracle.
//
// All symbolic state is hash-consed through a TypePool shared across
// every product of one engine: states, counter dimensions and child
// outcomes are keyed by interned TypeId/CellId handles, never by
// serialized signatures.
#ifndef HAS_CORE_TASK_VASS_H_
#define HAS_CORE_TASK_VASS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/hashing.h"
#include "common/id_index.h"
#include "core/successor.h"
#include "core/type_pool.h"
#include "hltl/assignments.h"
#include "vass/vass.h"

namespace has {

/// A returning child output (⊥ is ChildResult::has_bottom).
struct ChildOutcome {
  PartialIsoType iso;  ///< over the child scope, projected to in ∪ ret
  Cell cell;
};

/// Results of a child R_Tc query for one (input, β_c).
struct ChildResult {
  std::vector<ChildOutcome> returning;  ///< distinct outputs
  bool has_bottom = false;              ///< lasso or blocking run exists
};

/// Memo key of one R_T query: all components are pool-interned ids, so
/// key equality is a handful of integer compares.
struct RtQueryKey {
  TaskId task = kNoTask;
  TypeId iso = kNoTypeId;
  CellId cell = kNoCellId;
  Assignment beta = 0;

  bool valid() const { return task != kNoTask; }
  bool operator==(const RtQueryKey& o) const {
    return task == o.task && iso == o.iso && cell == o.cell && beta == o.beta;
  }
  bool operator!=(const RtQueryKey& o) const { return !(*this == o); }
};

struct RtQueryKeyHash {
  size_t operator()(const RtQueryKey& k) const {
    size_t seed = static_cast<size_t>(k.task);
    HashMix(&seed, k.iso);
    HashMix(&seed, k.cell);
    HashMix(&seed, k.beta);
    return seed;
  }
};

/// Interface the product uses to query children (implemented by the
/// RtEngine with memoization; Lemma 21's recursion).
class RtOracle {
 public:
  virtual ~RtOracle() = default;
  virtual const ChildResult& Query(TaskId child,
                                   const PartialIsoType& input_iso,
                                   const Cell& input_cell,
                                   Assignment beta) = 0;
  /// Memo key of the query (for counterexample expansion). Interns the
  /// input into the oracle's pool, hence non-const.
  virtual RtQueryKey KeyOf(TaskId child, const PartialIsoType& input_iso,
                           const Cell& input_cell, Assignment beta) = 0;

  /// One child's queries for EVERY assignment in [0, num_assignments),
  /// batched: result pointers and memo keys are parallel, indexed by β.
  /// Result references stay valid for the oracle's lifetime. The
  /// product's opening loop uses the batched form so the engine interns
  /// the input once instead of twice per β (Query + KeyOf).
  struct BatchedChildResult {
    std::vector<const ChildResult*> results;  ///< indexed by β
    std::vector<RtQueryKey> keys;             ///< indexed by β
  };
  virtual BatchedChildResult QueryAll(TaskId child,
                                      const PartialIsoType& input_iso,
                                      const Cell& input_cell,
                                      Assignment num_assignments) = 0;
};

/// Child stage within the current segment.
struct ChildStage {
  enum class Kind : uint8_t { kInit, kActive, kActiveBottom, kClosed };
  Kind kind = Kind::kInit;
  int outcome = -1;         ///< TaskVass outcome id (kActive only)
  Assignment beta = 0;      ///< β_c guessed at the opening

  bool operator==(const ChildStage& o) const {
    return kind == o.kind && outcome == o.outcome && beta == o.beta;
  }
  bool operator<(const ChildStage& o) const {
    if (kind != o.kind) return kind < o.kind;
    if (outcome != o.outcome) return outcome < o.outcome;
    return beta < o.beta;
  }
};

/// What the transitions into one product state did — used to decode
/// counterexample paths. A product state holds the service it was
/// entered by and, for an opening, the opened child's stage (its β_c
/// and outcome, or ⊥) at an unchanged configuration, so every edge into
/// a state did the same thing: the record belongs to the target state,
/// and an edge's label is its target state's id.
struct TransitionRecord {
  ServiceRef service;
  /// Memo key of the child query (invalid when the transition opened no
  /// child) and the index into its returning set (-1 for ⊥ outcomes);
  /// used to expand the child's witness run.
  RtQueryKey child_key;
  int child_result_index = -1;
  /// One of the product's note strings or a service name, so it lives
  /// as long as the product and the system it was built from.
  std::string_view note;
};

/// The root product decides its query on the fly (the root cut): the
/// root's R_T query only asks whether ⊥ is reachable, so once the
/// product knows that a blocking state has a node in the explorer's
/// graph it emits no more successors. A root product's successor lists
/// are therefore pure functions of the state only until the cut; child
/// products never cut, so their returning sets stay exact.
class TaskVass : public VassSystem {
 public:
  /// `opening_filter` (nullable) must hold at opening configurations —
  /// the verifier passes Π for the root task. `pool` is the engine's
  /// shared interning pool and must outlive the product.
  TaskVass(const TaskContext* ctx,
           const std::map<TaskId, const TaskContext*>* child_ctxs,
           PropertyAutomata* automata, TypePool* pool, Assignment beta,
           PartialIsoType input_iso, Cell input_cell, RtOracle* oracle,
           const Condition* opening_filter);
  /// Records point into the product's note strings.
  TaskVass(const TaskVass&) = delete;
  TaskVass& operator=(const TaskVass&) = delete;

  /// Builds and interns the initial states; returns their ids.
  std::vector<int> InitialStates();

  /// Appends `state`'s successors in one pass: (A) the ample stutters
  /// and every internal service in ascending order, (B) child openings,
  /// (C) child returns and (D) closing the task. Each step's delta, ib
  /// bits, child stages and target state are resolved as it is emitted;
  /// a step whose input-bound retrieve finds nothing is dropped before
  /// anything is allocated for it. The root cut is set when the pass
  /// emits an edge with no negative delta into a blocking state (such
  /// an edge is enabled at every marking; the pass then records
  /// AmplePrefix 0, so the explorer cannot defer it), or when it is
  /// asked to expand a blocking state (the explorer only expands states
  /// that have a node); after the cut no state has successors. A warm
  /// call allocates only the growth of `out` and the non-empty deltas.
  void Successors(int state, std::vector<VassEdge>* out) override;
  /// Successors split in two, so that a profiler can time the pass and
  /// the hand-over apart: Prepare runs the whole pass into a Prepared
  /// list, and Commit appends that list to `out`. Several prepared
  /// lists may be outstanding at once.
  std::unique_ptr<Prepared> PrepareSuccessors(int state);
  void CommitSuccessors(int state, std::unique_ptr<Prepared> prepared,
                        std::vector<VassEdge>* out);
  /// Frees the successor scratch (the Büchi successor lists, the cached
  /// child-query batches and the pass's buffers). The engine calls it
  /// once the product's exploration is built; a later Successors call
  /// rebuilds what it needs.
  void ReleaseScratch();
  /// Length of `state`'s ample prefix (0 = no reduction): the leading
  /// ample stutter edges of its last Successors pass. A pure function
  /// of the state's configuration, except that the root product's
  /// cutting pass records 0.
  int AmplePrefix(int state) const override;

  // --- state inspection (used by the RT computation) -------------------
  int num_states() const { return static_cast<int>(states_.size()); }
  bool IsReturning(int state) const;   ///< σ = σ^c_T and q ∈ Qfin
  bool IsBlocking(int state) const;    ///< q ∈ Qfin and some child ⊥
  bool IsBuchiAccepting(int state) const;
  /// Output type of a returning state: projection onto x̄_in ∪ x̄_ret.
  ChildOutcome OutputOf(int state) const;

  /// The record of the edges labelled `label`, i.e. of the edges into
  /// state `label` (empty for an initial state, which no edge enters).
  const TransitionRecord& record(int64_t label) const {
    return records_[static_cast<size_t>(label)];
  }
  const PartialIsoType& state_iso(int state) const;
  ServiceRef state_service(int state) const {
    return states_[state].service;
  }

  /// Whether any successor enumeration hit the branch budget.
  bool truncated() const { return truncated_; }
  /// Counter dimensions allocated so far: one per discovered
  /// (artifact relation, TS-type) pair — each relation owns its own
  /// dimension group, interleaved by discovery order.
  int num_dimensions() const { return static_cast<int>(dim_types_.size()); }

 private:
  friend class TaskVassTestPeer;

  /// A product state's fixed-size part. Its child stages (one per task
  /// child) and its ib bits (the sorted ib-type ids set to 1) live in
  /// the product's flat stores: stage_store_ at id * num_children_, and
  /// ib_store_[ib_begin, ib_end).
  struct State {
    TypeId iso = kNoTypeId;
    CellId cell = kNoCellId;
    ServiceRef service;
    int q = -1;
    uint32_t ib_begin = 0;
    uint32_t ib_end = 0;
  };

  /// A state with its stages and ib bits, wherever they are stored (the
  /// stores, or the probe's buffers).
  struct StateView {
    const State* state;
    const ChildStage* stages;
    const int* ib_begin;
    const int* ib_end;
  };
  /// The view of state `id`, or of the probe for kProbe.
  StateView View(int id) const;
  size_t HashState(int id) const;
  bool SameState(int a, int b) const;
  /// Child stages of state `state`, parallel to the task's children.
  const ChildStage* stages(int state) const {
    return stage_store_.data() + static_cast<size_t>(state) * num_children_;
  }

  /// An interned child outcome: its pooled (type, cell).
  struct OutcomeKey {
    TypeId iso = kNoTypeId;
    CellId cell = kNoCellId;

    bool operator==(const OutcomeKey& o) const {
      return iso == o.iso && cell == o.cell;
    }
  };
  struct OutcomeKeyHash {
    size_t operator()(const OutcomeKey& k) const {
      size_t seed = static_cast<size_t>(k.iso);
      HashMix(&seed, k.cell);
      return seed;
    }
  };

  /// Id of the state held in `probe_` (with `probe_stages_` and
  /// `probe_ib_`), copying it into the stores only when it is new.
  int InternProbe();
  /// A (relation, TS-type) key: the SAME normalized projection arising
  /// for two different relations must map to two different counter
  /// dimensions / ib bits — tuples of S_T,i and S_T,j are never
  /// interchangeable.
  static uint64_t RelTypeKey(int relation, TypeId ts) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(relation)) << 32) |
           static_cast<uint32_t>(ts);
  }
  /// Counter dimension of a (relation, TS-type) (allocating on first
  /// sight).
  int DimOf(int relation, TypeId ts);
  /// Input-bound bit id of a (relation, TS-type) (allocating on first
  /// sight).
  int IbIdOf(int relation, TypeId ts);
  /// Outcome id of `src`, an oracle-owned (hence stable) child output:
  /// keyed by the pointer first, and by its pooled (type, cell) the
  /// first time a pointer is seen.
  int InternOutcome(const ChildOutcome* src);

  /// Letter of a configuration for the Büchi product.
  std::vector<bool> MakeLetter(const SymbolicConfig& config,
                               const ServiceRef& service, TaskId opened_child,
                               Assignment child_beta) const;

  /// Fill the enumeration-memo entries of configuration `cur` (see
  /// EnumMemo): internal service `service` (its head, and its body at
  /// the input base whose pool ids `base` holds; the first call that
  /// needs them interns them), opening child `child` (an index into the
  /// task's children), and that child's return with `outcome`. Fills
  /// intern the configurations and TS-types they produce.
  void FillInternal(const SymbolicConfig& cur, int service,
                    EnumMemo::Key* base, EnumMemo::Internal* head) const;
  /// Fills the body of internal service `key.slot` at the input base
  /// whose pool ids `key` holds.
  void FillBody(const EnumMemo::Key& key, EnumMemo::InternalBody* body) const;
  void FillOpening(const SymbolicConfig& cur, int child,
                   EnumMemo::Opening* entry) const;
  void FillReturn(const SymbolicConfig& cur, int child,
                  const OutcomeKey& outcome, EnumMemo::Return* entry) const;

  /// The Büchi successors of `q` compatible with `letter`, as a range
  /// of q2_store_. Letters are memo-owned and never move, so the range
  /// is keyed by the letter's address; it lives until ReleaseScratch.
  std::pair<uint32_t, uint32_t> BuchiSuccessors(
      int q, const std::vector<bool>& letter);

  /// Appends to edges_ one edge per Büchi successor of `q` compatible
  /// with `letter`, into (`next_iso`, `next_cell`) with the probe's
  /// stages and ib bits and the delta delta_; a new target state gets
  /// `record`.
  void Emit(int q, TypeId next_iso, CellId next_cell,
            const std::vector<bool>& letter, const TransitionRecord& record);
  /// Successors' pass: fills edges_ with `state`'s successors and
  /// returns the length of their ample prefix.
  int BuildSuccessors(int state);

  const TaskContext* ctx_;
  const std::map<TaskId, const TaskContext*>* child_ctxs_;
  PropertyAutomata* all_automata_;
  TaskAutomata* automata_;
  TypePool* pool_;
  Assignment beta_;
  PartialIsoType input_iso_;
  Cell input_cell_;
  RtOracle* oracle_;
  const Condition* opening_filter_;
  const BuchiAutomaton* buchi_ = nullptr;

  /// The state index holds ids and hashes/compares through the stores,
  /// so each state is stored once. The id kProbe stands for the probe,
  /// the candidate being looked up.
  static constexpr int kProbe = -1;

  size_t num_children_ = 0;
  std::vector<State> states_;
  std::vector<ChildStage> stage_store_;
  std::vector<int> ib_store_;
  State probe_;
  std::vector<ChildStage> probe_stages_;
  std::vector<int> probe_ib_;
  IdIndex state_index_;
  /// Dimension / ib-bit registries, keyed by RelTypeKey(relation, ts).
  std::vector<std::pair<int, TypeId>> dim_types_;
  std::unordered_map<uint64_t, int> dim_index_;
  std::vector<std::pair<int, TypeId>> ib_types_;
  std::unordered_map<uint64_t, int> ib_index_;
  std::vector<OutcomeKey> outcome_keys_;  ///< indexed by outcome id
  std::unordered_map<OutcomeKey, int, OutcomeKeyHash> outcome_index_;
  std::unordered_map<const ChildOutcome*, int> outcome_by_src_;
  /// Indexed by state id (record(); parallel to states_).
  std::vector<TransitionRecord> records_;
  /// Per-state ample-prefix length (AmplePrefix); indexed by state id,
  /// lazily grown in Successors.
  std::vector<int> ample_prefix_;
  bool truncated_ = false;
  /// The root cut: set once a root product knows a blocking state has a
  /// node in the explorer's graph (see Successors). Never set in
  /// a child product.
  bool root_decided_ = false;

  /// Transition notes, built once: per child, "open X", "open X
  /// (non-returning)" and "close X"; and "close self".
  std::vector<std::string> open_notes_;
  std::vector<std::string> open_bottom_notes_;
  std::vector<std::string> close_notes_;
  std::string close_self_note_ = "close self";

  // --- successor scratch (ReleaseScratch frees it) -----------------------
  /// BuchiSuccessors' lists: one per (letter address, Büchi state),
  /// indexed by q2_index_, each a range of q2_store_.
  struct Q2List {
    const std::vector<bool>* letter = nullptr;
    int q = -1;
    uint32_t begin = 0;
    uint32_t end = 0;
  };
  std::vector<Q2List> q2_lists_;
  IdIndex q2_index_;
  std::vector<int> q2_store_;
  /// The oracle's batched answers per opening memo entry: the entry
  /// fixes the child, its input and the number of assignments, and the
  /// oracle's answers never change.
  std::unordered_map<const EnumMemo::Opening*, RtOracle::BatchedChildResult>
      child_batches_;
  /// The pass's per-service memo heads, the delta of the step it is
  /// emitting, and the edges it has built.
  std::vector<const EnumMemo::Internal*> heads_;
  Delta delta_;
  std::vector<VassEdge> edges_;
};

}  // namespace has

#endif  // HAS_CORE_TASK_VASS_H_
