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
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/hashing.h"
#include "core/successor.h"
#include "core/type_pool.h"
#include "hltl/assignments.h"
#include "vass/vass.h"

namespace has {

/// A child output option: either a returning output (iso/cell) or ⊥.
struct ChildOutcome {
  bool bottom = false;  ///< the child call never returns
  PartialIsoType iso;   ///< over the child scope, projected to in ∪ ret
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
  int outcome = -1;         ///< index into TaskVass outcome registry
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

/// What a transition did — used to decode counterexample paths.
struct TransitionRecord {
  ServiceRef service;
  int target_state = -1;
  /// For child openings: the guessed β_c and outcome index (-1 = ⊥).
  Assignment child_beta = 0;
  int child_outcome = -1;
  /// Memo key of the child query (invalid when the transition opened no
  /// child) and the index into its returning set (-1 for ⊥ outcomes);
  /// used to expand the child's witness run.
  RtQueryKey child_key;
  int child_result_index = -1;
  std::string note;
};

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

  /// Builds and interns the initial states; returns their ids.
  std::vector<int> InitialStates();

  /// Equivalent to CommitSuccessors(state, PrepareSuccessors(state)).
  void Successors(int state, std::vector<VassEdge>* out) override;

  // --- successor computation in two steps --------------------------------
  // Prepare runs the expensive symbolic work (successor enumeration,
  // condition evaluation, child-oracle queries, pool interning) and
  // only reads product state. Commit applies the cheap mutations
  // (state/dimension/ib-bit/outcome/record interning). Successors runs
  // both; they are public so profilers can time them separately.
  //
  // Commit hands the Prepared object back to the product, and the next
  // Prepare reuses it (and its buffers' capacity), so a warm
  // Successors call allocates only the output list and the non-empty
  // deltas. Several prepared objects may be outstanding at once.
  std::unique_ptr<Prepared> PrepareSuccessors(int state);
  void CommitSuccessors(int state, std::unique_ptr<Prepared> prepared,
                        std::vector<VassEdge>* out);
  /// Frees the successor scratch (the Büchi successor lists, the cached
  /// child-query batches, the spare Prepared and the commit buffers).
  /// The engine calls it once the product's exploration is built; a
  /// later Successors call rebuilds what it needs. Must not be called
  /// while a Prepared object is outstanding.
  void ReleaseScratch();
  /// Committed length of `state`'s ample prefix (0 = no reduction): the
  /// leading edges produced by the ample service selected in
  /// PrepareSuccessors. Written only inside the commit; a pure function
  /// of the state's configuration.
  int AmplePrefix(int state) const override;

  // --- state inspection (used by the RT computation) -------------------
  int num_states() const { return static_cast<int>(states_.size()); }
  bool IsReturning(int state) const;   ///< σ = σ^c_T and q ∈ Qfin
  bool IsBlocking(int state) const;    ///< q ∈ Qfin and some child ⊥
  bool IsBuchiAccepting(int state) const;
  /// Output type of a returning state: projection onto x̄_in ∪ x̄_ret.
  ChildOutcome OutputOf(int state) const;

  const TransitionRecord& record(int64_t label) const {
    return records_[static_cast<size_t>(label)];
  }
  const PartialIsoType& state_iso(int state) const;
  ServiceRef state_service(int state) const {
    return states_[state].service;
  }
  int state_buchi(int state) const { return states_[state].q; }
  const std::vector<ChildStage>& state_stages(int state) const {
    return states_[state].stages;
  }

  /// Whether any successor enumeration hit the branch budget.
  bool truncated() const { return truncated_; }
  /// Counter dimensions allocated so far: one per discovered
  /// (artifact relation, TS-type) pair — each relation owns its own
  /// dimension group, interleaved by discovery order.
  int num_dimensions() const { return static_cast<int>(dim_types_.size()); }
  size_t num_outcomes() const { return outcomes_.size(); }
  const ChildOutcome& outcome(int i) const { return outcomes_[i]; }

 private:
  friend class TaskVassTestPeer;

  struct State {
    TypeId iso = kNoTypeId;
    CellId cell = kNoCellId;
    ServiceRef service;
    int q = -1;
    std::vector<ChildStage> stages;       // parallel to task children
    std::vector<int> ib_bits;             // sorted ib-type ids set to 1

    bool operator==(const State& o) const {
      return iso == o.iso && cell == o.cell && service == o.service &&
             q == o.q && stages == o.stages && ib_bits == o.ib_bits;
    }
  };

  struct StateHash {
    size_t operator()(const State& s) const {
      size_t seed = static_cast<size_t>(s.iso);
      HashMix(&seed, s.cell);
      HashCombine(&seed, s.service.Hash());
      HashMix(&seed, s.q);
      for (const ChildStage& st : s.stages) {
        HashMix(&seed, static_cast<int>(st.kind));
        HashMix(&seed, st.outcome);
        HashMix(&seed, st.beta);
      }
      for (int b : s.ib_bits) HashMix(&seed, b);
      return seed;
    }
  };

  /// Key of an interned child outcome (all components pool ids).
  struct OutcomeKey {
    bool bottom = false;
    TypeId iso = kNoTypeId;
    CellId cell = kNoCellId;

    bool operator==(const OutcomeKey& o) const {
      return bottom == o.bottom && iso == o.iso && cell == o.cell;
    }
  };
  struct OutcomeKeyHash {
    size_t operator()(const OutcomeKey& k) const {
      size_t seed = k.bottom ? 1 : 0;
      HashMix(&seed, k.iso);
      HashMix(&seed, k.cell);
      return seed;
    }
  };

  /// Identity of a TransitionRecord: everything decoding needs. The
  /// note string is derived from the service identity, so it is not
  /// part of the key. Records are interned so that every source state
  /// taking the same transition shares one record (and one label), and
  /// a commit reuses existing records instead of allocating new ones.
  struct RecordKey {
    ServiceRef service;
    int target = -1;
    Assignment child_beta = 0;
    RtQueryKey child_key;
    int child_result_index = -1;

    bool operator==(const RecordKey& o) const {
      return service == o.service && target == o.target &&
             child_beta == o.child_beta && child_key == o.child_key &&
             child_result_index == o.child_result_index;
    }
  };
  struct RecordKeyHash {
    size_t operator()(const RecordKey& k) const {
      size_t seed = k.service.Hash();
      HashMix(&seed, k.target);
      HashMix(&seed, k.child_beta);
      HashCombine(&seed, RtQueryKeyHash{}(k.child_key));
      HashMix(&seed, k.child_result_index);
      return seed;
    }
  };

  /// Interns an already-normalized iso type (the enumeration emits
  /// normalized configurations); a pool hit is copy-free.
  TypeId InternIso(const PartialIsoType& iso);
  CellId InternCell(const Cell& cell);
  /// Id of the state held in `probe_`, copying it into `states_` only
  /// when it is new.
  int InternProbe();
  /// Label of the transition record `key` (allocating it, with a copy
  /// of `note`, on first sight).
  int64_t InternRecord(const RecordKey& key, const std::string& note);
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

  /// A configuration's input base (TaskContext::InputBase) and its
  /// body table, computed on the first internal head miss of a prepare
  /// and shared by all of the configuration's services.
  struct InputBodies {
    SymbolicConfig base;
    EnumMemo::Bodies* bodies = nullptr;
  };

  /// Fill the enumeration-memo entries of configuration `cur` (see
  /// EnumMemo): internal service `service` (its head, and its body
  /// through `input`, which the call sets when still empty), opening
  /// child `child` (an index into the task's children), and that
  /// child's return with `outcome`. Fills intern nothing into the pool.
  void FillInternal(const SymbolicConfig& cur, int service,
                    std::optional<InputBodies>* input,
                    EnumMemo::Internal* head) const;
  /// Fills the body of internal service `service` at input base `base`.
  void FillBody(const SymbolicConfig& base, int service,
                EnumMemo::InternalBody* body) const;
  void FillOpening(const SymbolicConfig& cur, int child,
                   EnumMemo::Opening* entry) const;
  void FillReturn(const SymbolicConfig& cur, int child,
                  const ChildOutcome& outcome, EnumMemo::Return* entry) const;

  /// One prepared (not yet committed) product transition: the target
  /// configuration is already pool-interned and the Büchi-compatible
  /// successor states of the memoized letter are precomputed; everything
  /// that allocates product-local ids (counter dimensions, ib bits,
  /// outcomes, states, records) is deferred to the commit. An edge owns
  /// no heap memory: its successor list and note point into the
  /// product, its set ops into the PendingSuccessors.
  struct PendingEdge {
    TypeId next_iso = kNoTypeId;
    CellId next_cell = kNoCellId;
    ServiceRef service;
    Assignment child_beta = 0;
    /// Compatible Büchi successors of from.q (BuchiSuccessors).
    const std::vector<int>* q2s = nullptr;
    /// Artifact-relation bookkeeping ((A) transitions), one entry per
    /// relation the service updates (ascending relation index),
    /// resolved to counter dimensions / ib bits at commit time.
    struct PendingSetOp {
      int relation = 0;
      bool inserts = false;
      bool insert_input_bound = false;
      TypeId insert_ts = kNoTypeId;
      bool retrieves = false;
      bool retrieve_input_bound = false;
      TypeId retrieve_ts = kNoTypeId;
    };
    /// The edge's set ops: PendingSuccessors::set_ops[begin, end).
    uint32_t set_ops_begin = 0;
    uint32_t set_ops_end = 0;
    /// Child-stage rewrite: (A) resets all stages, (B)/(C) rewrite one
    /// child's stage; a kActive outcome is interned at commit from
    /// `outcome_src` (a pointer into the oracle's immutable result).
    bool fresh_stages = false;
    int stage_child = -1;
    ChildStage::Kind stage_kind = ChildStage::Kind::kInit;
    const ChildOutcome* outcome_src = nullptr;
    RtQueryKey child_key;
    int child_result_index = -1;
    /// The transition's note (one of the product's note strings or a
    /// service name).
    const std::string* note = nullptr;
  };
  struct PendingSuccessors : Prepared {
    std::vector<PendingEdge> edges;
    std::vector<PendingEdge::PendingSetOp> set_ops;  ///< all edges' ops
    bool truncated = false;
    /// Count of LEADING edges that are ample identity stutters, one
    /// per eligible service (0 = no ample set selected — the state
    /// expands fully).
    int ample_pending = 0;
  };

  /// The Büchi successors of `q` compatible with `letter`. Letters are
  /// memo-owned and never move, so the list is keyed by the letter's
  /// address; it lives until ReleaseScratch.
  const std::vector<int>& BuchiSuccessors(int q,
                                          const std::vector<bool>& letter);

  /// Appends a PendingEdge for the transition from Büchi state `q` into
  /// (`next_iso`, `next_cell`) reading `letter`; the caller fills in the
  /// transition-specific bookkeeping on the returned edge.
  PendingEdge* EmitPending(int q, TypeId next_iso, CellId next_cell,
                           const std::vector<bool>& letter,
                           const ServiceRef& service, Assignment child_beta,
                           const std::string* note,
                           PendingSuccessors* pending);

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

  /// The state index keys by id and hashes/compares through states_,
  /// so each State (with its stages/ib_bits vectors) is stored once.
  /// The id kProbe stands for `probe_`, the candidate being looked up.
  static constexpr int kProbe = -1;
  struct StateIndexHash {
    const std::vector<State>* states;
    const State* probe;
    size_t operator()(int id) const {
      return StateHash{}(id == kProbe ? *probe
                                      : (*states)[static_cast<size_t>(id)]);
    }
  };
  struct StateIndexEq {
    const std::vector<State>* states;
    const State* probe;
    bool operator()(int a, int b) const {
      return (a == kProbe ? *probe : (*states)[static_cast<size_t>(a)]) ==
             (b == kProbe ? *probe : (*states)[static_cast<size_t>(b)]);
    }
  };

  std::vector<State> states_;
  State probe_;
  std::unordered_set<int, StateIndexHash, StateIndexEq> state_index_;
  /// Dimension / ib-bit registries, keyed by RelTypeKey(relation, ts).
  std::vector<std::pair<int, TypeId>> dim_types_;
  std::unordered_map<uint64_t, int> dim_index_;
  std::vector<std::pair<int, TypeId>> ib_types_;
  std::unordered_map<uint64_t, int> ib_index_;
  std::vector<ChildOutcome> outcomes_;
  std::vector<OutcomeKey> outcome_keys_;  ///< parallel to outcomes_
  std::unordered_map<OutcomeKey, int, OutcomeKeyHash> outcome_index_;
  std::unordered_map<const ChildOutcome*, int> outcome_by_src_;
  std::vector<TransitionRecord> records_;
  std::unordered_map<RecordKey, int64_t, RecordKeyHash> record_index_;
  /// Per-state committed ample-prefix length (AmplePrefix); indexed by
  /// state id, lazily grown in CommitSuccessors.
  std::vector<int> ample_prefix_;
  bool truncated_ = false;

  /// Transition notes, built once: per child, "open X", "open X
  /// (non-returning)" and "close X"; and "close self".
  std::vector<std::string> open_notes_;
  std::vector<std::string> open_bottom_notes_;
  std::vector<std::string> close_notes_;
  std::string close_self_note_ = "close self";

  // --- successor scratch (ReleaseScratch frees it) -----------------------
  /// BuchiSuccessors' lists, keyed by (letter address, Büchi state).
  struct LetterKey {
    const std::vector<bool>* letter = nullptr;
    int q = -1;
    bool operator==(const LetterKey& o) const {
      return letter == o.letter && q == o.q;
    }
  };
  struct LetterKeyHash {
    size_t operator()(const LetterKey& k) const {
      size_t seed = std::hash<const void*>{}(k.letter);
      HashMix(&seed, k.q);
      return seed;
    }
  };
  std::unordered_map<LetterKey, std::vector<int>, LetterKeyHash>
      buchi_successors_;
  /// The oracle's batched answers per opening memo entry: the entry
  /// fixes the child, its input and the number of assignments, and the
  /// oracle's answers never change.
  std::unordered_map<const EnumMemo::Opening*, RtOracle::BatchedChildResult>
      child_batches_;
  /// The Prepared object the last commit handed back.
  std::unique_ptr<PendingSuccessors> spare_;
  /// Prepare's per-service memo heads and ample services.
  std::vector<const EnumMemo::Internal*> heads_;
  std::vector<int> ample_;
  std::vector<TypeId> insert_ts_;
  /// Commit's copies of the source state's stages and ib bits (`states_`
  /// may grow during the commit), and the delta being built.
  std::vector<ChildStage> from_stages_;
  std::vector<int> from_ib_;
  Delta delta_;
};

}  // namespace has

#endif  // HAS_CORE_TASK_VASS_H_
