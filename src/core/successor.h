// The symbolic successor relation (Section 4.1's transition relation on
// symbolic instances, in partial-isomorphism-type form), together with
// the arithmetic cell component of Section 5.
//
// Invariant maintained by the enumeration: every symbolic state decides
// every atom of the task's atom family A_T (all atoms of the task's
// services, its children's opening pre-conditions, its own closing
// pre-condition, the property conditions over the task, plus null-check
// atoms for every variable taking part in child input/output passing
// and in the artifact relation). In arithmetic mode every basis
// polynomial of the task's Hierarchical Cell Decomposition carries a
// definite sign. Pre/post-conditions therefore evaluate two-valued.
#ifndef HAS_CORE_SUCCESSOR_H_
#define HAS_CORE_SUCCESSOR_H_

#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "arith/cell.h"
#include "arith/hcd.h"
#include "common/hashing.h"
#include "core/iso_type.h"
#include "core/type_pool.h"
#include "hltl/hltl.h"
#include "model/artifact_system.h"

namespace has {

class EnumMemo;

struct VerifierOptions {
  /// Navigation depth of partial isomorphism types, the same for every
  /// task (the paper's per-task bound h(T) is core/nav.h).
  int max_nav_depth = 2;
  /// Coverability graph node budget per (task, β, input) query.
  size_t max_cov_nodes = 1 << 17;
  /// Budget for successor enumeration branches per transition.
  size_t max_branches = 1 << 12;
  /// Repeated-reachability search knobs (see vass/repeated.h).
  int64_t lasso_effect_bound = 128;
  size_t lasso_max_steps = 1 << 20;
  /// When a blocking witness has already settled a query's ⊥-bit, the
  /// lasso search is pure counterexample polish — a lasso reads nicer
  /// than a blocking run — so it only runs if the coverability graph
  /// has fewer nodes than this, with pruning on or off.
  size_t lasso_witness_max_nodes = 20000;
  /// The engine is single-threaded: every coverability exploration
  /// runs on the calling thread. Not an option; the constant remains
  /// only because the perfbench replica checks it, and goes together
  /// with that check.
  static constexpr int num_shards = 1;
  /// Not an option either: every exploration keeps each product
  /// state's successor list for the graph's lifetime. Remains only
  /// because the perfbench replica reads it, and goes together with it.
  static constexpr size_t succ_cache_capacity = 1 << 14;
  /// Antichain subsumption pruning for the coverability explorations
  /// (minimal-coverability-set style; VERIFAS' biggest practical win
  /// over the naive Karp–Miller construction). Every consumer reads
  /// the pruned graph: returning outputs and blocking detection are
  /// per-state predicates (pruning preserves exactly the reachable
  /// states), and repeated reachability (lasso search) traverses the
  /// cover-edges the pruned build records at its prune points — no
  /// unpruned graph is ever rebuilt (see RtEngine::ComputeEntry and
  /// vass/repeated.h). Default ON since the cover-edge lasso path
  /// landed; verdicts are identical with the knob on or off, but
  /// counterexample TEXT may differ (the graphs find different —
  /// equally valid — witnesses).
  bool prune_coverability = true;
  /// Ample-set partial-order reduction over internal services (the
  /// OTHER structural VERIFAS optimization; multiplies with, not
  /// against, the antichain pruning above). At a symbolic state with no
  /// active child, a statically eligible service — insert-only
  /// δ targets (model/independence.h), never observed by the property,
  /// X-free task skeletons — whose pre- AND post-condition hold at the
  /// current configuration (so the identity stutter step is among its
  /// successors) becomes the ample set, and the explorer expands only
  /// its successors as long as every one of them lands on a fresh node
  /// (the C3 discharge; see docs/ARCHITECTURE.md "Partial-order
  /// reduction"). Verdicts are identical with the knob on or off, on
  /// every family, but counter counts (cov_nodes, cov_edges, ...)
  /// shrink.
  bool por = true;
  /// Property-directed cone-of-influence slicing (analysis/slice.h):
  /// after validation and static analysis, drop services that can never
  /// fire, artifact relations no kept service retrieves from, and
  /// variables outside the property's cone before the product VASS is
  /// built. Verdicts are identical with the knob on or off, on every
  /// family (differential-gated like POR), but
  /// counter dimensions and node counts shrink on sliceable specs.
  /// Counterexample TEXT may omit sliced variables.
  bool slice = true;
  /// Werror-style escalation for the static analyzer: any diagnostic
  /// (dead service, unreachable service, write-never-read variable,
  /// unread relation, vacuous property atom) aborts verification
  /// instead of being reported in VerifyResult::diagnostics.
  bool strict_analysis = false;
};

/// A symbolic configuration of one task: equality component + cell.
/// The cell is empty (size 0) in no-arithmetic mode.
struct SymbolicConfig {
  PartialIsoType iso;
  Cell cell;
};

/// Canonical TS-type of one artifact relation at a configuration, with
/// its input-bound bit (TaskContext::TsTypeOf).
struct TsType {
  PartialIsoType type;
  bool input_bound = false;
};

/// Per-task precomputation shared by the verifier.
class TaskContext {
 public:
  TaskContext(const ArtifactSystem* system, const HltlProperty* property,
              TaskId task, const VerifierOptions& options, const Hcd* hcd);
  ~TaskContext();

  /// The task's successor-enumeration memo, shared by every product of
  /// this task (one context per task per engine). It is the context's
  /// only mutable part.
  EnumMemo& memo() const { return *memo_; }

  const ArtifactSystem& system() const { return *system_; }
  const Task& task() const { return system_->task(task_); }
  TaskId task_id() const { return task_; }
  int nav_depth() const { return options_->max_nav_depth; }
  bool arithmetic() const { return basis_ != nullptr; }
  const PolyBasis* basis() const { return basis_; }
  size_t max_branches() const { return options_->max_branches; }
  const VerifierOptions& options() const { return *options_; }

  /// The distinct equality atoms of the task's conditions and its
  /// synthesized null checks (pointers into their owners).
  const std::vector<const Condition*>& eq_atoms() const { return eq_atoms_; }
  const std::set<int>& input_vars() const { return input_vars_; }
  /// Union of every relation's tuple variables (null-check/atom
  /// collection granularity).
  const std::set<int>& set_vars() const { return set_vars_; }
  /// Number of artifact relations S_T,1 … S_T,k of this task.
  int num_set_relations() const {
    return static_cast<int>(rel_vars_.size());
  }
  /// Tuple variables s̄_T,rel of one relation.
  const std::set<int>& rel_vars(int rel) const { return rel_vars_[rel]; }
  /// Basis polynomials over numeric input variables (preserved across
  /// internal transitions).
  const std::vector<int>& preserved_polys() const { return preserved_polys_; }
  /// What a returning state's output keeps (TaskVass::OutputOf): the
  /// variables x̄_in ∪ x̄_ret and, in arithmetic mode, the basis
  /// polynomials over the numeric ones.
  const std::set<int>& output_vars() const { return output_vars_; }
  const std::vector<int>& output_polys() const { return output_polys_; }

  /// A polynomial of this task's basis and its counterpart in the
  /// parent's basis (equal up to a positive scaling, or a negative one
  /// if `negated`).
  struct PolyTransfer {
    int child_poly = 0;
    int parent_poly = 0;
    bool negated = false;
  };
  /// What passes between this task's cell and its parent's, fixed by
  /// the two bases and f_in/f_out alone (set in arithmetic mode for a
  /// non-root task; `parent_basis` is null otherwise).
  struct ParentLink {
    const PolyBasis* parent_basis = nullptr;
    /// Polynomials over the numeric inputs, renamed through f_in
    /// (ChildInputCell).
    std::vector<PolyTransfer> input;
    /// Parent polynomials over a numeric f_out target, whose signs a
    /// return resets (ApplyChildReturn).
    std::vector<int> return_resets;
    /// Polynomials over variables that still map to the parent on
    /// return (f_in minus the inputs whose parent variable a return
    /// overwrites, plus f_out's numeric pairs) (ApplyChildReturn).
    std::vector<PolyTransfer> output;
  };
  const ParentLink& parent_link() const { return parent_link_; }

  /// Linear equalities implied by the equality component: numeric
  /// variables in one class are equal; const tags fix values. Used to
  /// couple the cell's satisfiability checks with the iso type.
  LinearSystem NumericEqualities(const PartialIsoType& iso) const;

  /// Two-valued-when-decided evaluation over both components.
  Truth EvalSym(const Condition& cond, const PartialIsoType& iso,
                const Cell& cell) const;
  Truth EvalSym(const Condition& cond, const SymbolicConfig& s) const {
    return EvalSym(cond, s.iso, s.cell);
  }

  /// Canonical TS-type of relation `rel`: projection of the iso type
  /// onto x̄_in ∪ s̄_T,rel (Section 4.1), normalized. The product
  /// interns it into a counter dimension id in relation `rel`'s
  /// dimension group, or into an ib-bit id when it is input-bound:
  /// every non-null variable of s̄_T,rel is forced equal to an
  /// input-anchored element.
  TsType TsTypeOf(const PartialIsoType& iso, int rel = 0) const;

  /// What an internal service reads of configuration `cur`: the
  /// projection onto x̄_in and, in arithmetic mode, a cell carrying only
  /// the signs of the preserved polynomials. Restriction 1 (only input
  /// variables propagate across internal transitions) makes every
  /// internal successor a function of this base alone.
  SymbolicConfig InputBase(const SymbolicConfig& cur) const;

  /// Fresh task configuration at opening time: inputs constrained by
  /// `input` (already over this task's scope), all other ID variables
  /// null, numeric variables 0 — in arithmetic mode the numeric-zero
  /// initialization is carried by the enumerated initial cells.
  PartialIsoType OpeningIso(const PartialIsoType& input) const;

  // --- partial-order reduction (VerifierOptions::por) ---------------------
  /// Whether internal service `svc` is statically ample-eligible: every
  /// skeleton of the task's property nodes is X-free, no service
  /// proposition of those nodes names the service, and its δ targets are
  /// insert-only (model/independence.h) — so firing it only grows the
  /// marking and it can anchor an ample set wherever its post-condition
  /// already holds (the dynamic half, checked at expansion time in
  /// task_vass.cc).
  bool PorServiceEligible(int svc) const {
    return por_service_ok_[static_cast<size_t>(svc)] != 0;
  }
  /// Whether `s` occurs as a kService proposition in any property node
  /// of this task — an ample stutter must not sit on an observed
  /// service letter, so states ENTERED by such a service expand fully.
  bool PorServiceIsProp(const ServiceRef& s) const;

 private:
  /// A harvested arithmetic atom's polynomial in the basis (-1 if
  /// absent), resolved once at construction.
  struct ArithAtom {
    const Condition* atom = nullptr;
    int poly = -1;
    bool negated = false;
  };

  void CollectAtoms();
  void ComputePor();
  void LinkParent(const Hcd& hcd);
  /// Index of `atom`'s polynomial in the basis (or -1), from the atom
  /// table, or PolyBasis::Find for an atom the task did not harvest.
  int ArithPoly(const Condition& atom, bool* negated) const;

  const ArtifactSystem* system_;
  const HltlProperty* property_;
  TaskId task_;
  const VerifierOptions* options_;
  const PolyBasis* basis_;  // null in no-arithmetic mode
  std::vector<const Condition*> eq_atoms_;
  /// Sorted by atom address (arithmetic mode only).
  std::vector<ArithAtom> arith_atoms_;
  ParentLink parent_link_;
  /// Owns the synthesized `var = null` atoms eq_atoms_ points into.
  std::vector<CondPtr> null_checks_;
  std::set<int> input_vars_;
  std::set<int> set_vars_;
  std::vector<std::set<int>> rel_vars_;
  std::vector<int> preserved_polys_;
  std::set<int> output_vars_;
  std::vector<int> output_polys_;
  std::vector<char> por_service_ok_;
  std::vector<ServiceRef> por_service_props_;
  std::unique_ptr<EnumMemo> memo_;
};

/// Set-update bookkeeping of one successor on ONE artifact relation.
/// The retrieved tuple's canonical TS-type (meaningful iff `retrieves`)
/// varies per successor; the inserted tuple's TS-type and input-bound
/// bit are the per-relation projection of the PRE-state, which the
/// input base does not determine, so the product computes them once per
/// (configuration, service, relation) (TaskContext::TsTypeOf) instead
/// of carrying a copy here.
struct SetOpEffect {
  int relation = 0;
  bool inserts = false;
  bool retrieves = false;
  TsType retrieve_ts;  ///< set iff `retrieves`
};

/// One successor of an internal service application.
struct InternalSuccessor {
  SymbolicConfig next;
  /// One entry per relation the service updates, in ascending relation
  /// index order; empty for services without set updates.
  std::vector<SetOpEffect> set_ops;
};

/// Enumerates the symbolic successors under internal service `svc` of
/// every configuration whose input base (TaskContext::InputBase) is
/// `base` and where `svc`'s pre-condition holds. All atoms of A_T are
/// decided in each result; `truncated` is set if the branch budget was
/// exhausted.
std::vector<InternalSuccessor> EnumerateInternal(const TaskContext& ctx,
                                                 const SymbolicConfig& base,
                                                 const InternalService& svc,
                                                 bool* truncated);

/// Enumerates the fully-decided opening configurations of a task given
/// a (partial) input type/cell — the τ_0 states of Definition 17.
std::vector<SymbolicConfig> EnumerateOpening(const TaskContext& ctx,
                                             const PartialIsoType& input_iso,
                                             const Cell& input_cell,
                                             bool* truncated);

/// The satisfiable completions of `partial`, a cell over the task's
/// basis, under `extra`, the numeric equalities of the configuration
/// being completed (TaskContext::NumericEqualities): every kSignAny
/// position receives a sign, in EnumerateCells' order. The list comes
/// from the task's memo (EnumMemo::GetCompletions) and holds at most
/// max_branches + 1 cells, which is as far as any enumeration reads.
const std::vector<Cell>& CellCompletions(const TaskContext& ctx, Cell partial,
                                         LinearSystem extra);

/// The input type a child receives when opened from `parent_state`:
/// projection onto the passed variables, renamed into the child scope,
/// clipped to the child's navigation depth.
PartialIsoType ChildInputIso(const TaskContext& parent_ctx,
                             const TaskContext& child_ctx,
                             const SymbolicConfig& parent_state);

/// The child's input cell: signs of the child's basis polynomials over
/// its input variables, read off the parent's cell through the variable
/// renaming (the HCD guarantees the renamed polynomials are in the
/// parent's basis).
Cell ChildInputCell(const TaskContext& parent_ctx,
                    const TaskContext& child_ctx,
                    const SymbolicConfig& parent_state);

/// Applies a child's return to the parent state: null ID targets take
/// the child's returned values, non-null ID targets keep theirs,
/// numeric targets are overwritten; the child's output constraints on
/// shared variables are conjoined. Returns every fully-decided parent
/// successor (the overwritten numerics force re-enumeration of cell
/// signs in arithmetic mode).
std::vector<SymbolicConfig> ApplyChildReturn(
    const TaskContext& parent_ctx, const TaskContext& child_ctx,
    const SymbolicConfig& parent_state, const PartialIsoType& child_out_iso,
    const Cell& child_out_cell, bool* truncated);

// --- enumeration memo ----------------------------------------------------
//
// A symbolic step depends only on the task's configuration (iso type and
// cell) and on what fires: an internal service, a child opening, or a
// child's return with one outcome. The product VASS multiplies that
// configuration by the Büchi state, the child stages, the input-bound
// bits and β, so one step recurs across product states and across R_T
// queries. The memo computes each step once per key and keeps it for the
// engine's lifetime (docs/ARCHITECTURE.md, "Enumeration memo").
//
// An internal service's step is split in two. Its HEAD is keyed by the
// configuration like every other step and holds what reads the whole
// configuration: pre/post truth, the inserted TS-types with their
// input-bound bits, and the POR stutter letter. Its BODY holds the
// successor list. By restriction 1 that list is a function of the
// configuration's input base (TaskContext::InputBase) alone, so bodies
// are keyed by (input base, service) and shared by every configuration
// with that base.
//
// Entries hold successor configurations and TS-types as pool ids: a
// fill interns what it produces. A pool id identifies a type together
// with its scope, so every id in a task's memo stands for a type of
// that task, and pool.type(id) is a representative to fill from.
//
// Every step that decides a configuration ends by completing its cell.
// The completions depend only on the partial cell and the numeric
// equalities of the iso type, not on its ID equalities, so the memo
// keeps them per (partial cell, numeric equalities) and every step of
// the task shares them (CellCompletions).

/// The successor-enumeration memo of one task. Every table but the
/// completions keys on pool ids, so the memo is bound to one TypePool.
/// Entries are filled by the caller's callback (the product computes
/// letters, which need its automata) and never change afterwards.
class EnumMemo {
 public:
  /// The configuration's pool ids (a body's: its input base's), the
  /// service or child index, and for child returns the outcome's pool
  /// ids.
  struct Key {
    TypeId iso = kNoTypeId;
    CellId cell = kNoCellId;
    int slot = -1;
    TypeId out_iso = kNoTypeId;
    CellId out_cell = kNoCellId;

    bool operator==(const Key& o) const {
      return iso == o.iso && cell == o.cell && slot == o.slot &&
             out_iso == o.out_iso && out_cell == o.out_cell;
    }
  };

  /// One successor configuration and the letter the Büchi product reads
  /// on the step into it.
  struct Step {
    TypeId iso = kNoTypeId;
    CellId cell = kNoCellId;
    std::vector<bool> letter;
  };

  /// (A) body: the successors of an internal service at every
  /// configuration with one input base.
  struct InternalBody {
    bool truncated = false;  ///< the branch budget cut the enumeration
    /// EnumerateInternal's SetOpEffect with the retrieved TS-type pooled.
    struct SetOp {
      int relation = 0;
      bool inserts = false;
      bool retrieves = false;
      bool retrieve_input_bound = false;
      TypeId retrieve_ts = kNoTypeId;  ///< set iff `retrieves`
    };
    struct Successor {
      Step step;
      std::vector<SetOp> set_ops;
    };
    std::vector<Successor> successors;
  };

  /// (A) head: an internal service fired at a configuration.
  struct Internal {
    bool pre = false;   ///< pre-condition holds (else nothing below)
    bool post = false;  ///< post-condition holds (the POR stutter test)
    /// Indexed by relation, set for the relations the service inserts
    /// into: the pre-state's TS-type and input-bound bit, shared by every
    /// successor's insert and by the POR stutter.
    std::vector<TypeId> insert_ts;
    std::vector<char> insert_input_bound;
    /// Letter of the identity stutter; set only for POR-eligible
    /// services whose post-condition holds.
    std::vector<bool> stutter_letter;
    /// The successors, shared with every configuration of the same
    /// input base; set iff `pre`.
    const InternalBody* body = nullptr;
  };

  /// (B) A child opened at a configuration.
  struct Opening {
    bool enabled = false;  ///< the child's opening pre-condition holds
    PartialIsoType child_iso;
    Cell child_cell;
    std::vector<std::vector<bool>> letters;  ///< indexed by β_c
  };

  /// (C) A child's return with one outcome at a configuration.
  struct Return {
    bool truncated = false;
    std::vector<Step> steps;
  };

  /// (D) The task closing itself at a configuration.
  struct CloseSelf {
    bool enabled = false;  ///< the task's closing pre-condition holds
    std::vector<bool> letter;  ///< set iff `enabled`
  };

  /// (F) The task opened on one input: EnumerateOpening's
  /// configurations, in its order, and its truncation flag. Every
  /// product V(T, β) of the input starts from the same list.
  struct Opened {
    bool truncated = false;
    std::vector<SymbolicConfig> configs;
  };

  EnumMemo() = default;
  EnumMemo(const EnumMemo&) = delete;
  EnumMemo& operator=(const EnumMemo&) = delete;

  /// Binds the memo to the pool its keys and ids come from; every later
  /// bind must name the same pool.
  void Bind(const TypePool* pool);

  /// The entry of `key`, filled by `fill(Value*)` on first demand. Each
  /// key is filled exactly once.
  template <typename Fill>
  const Internal& GetInternal(const Key& key, const Fill& fill) {
    return internal_.Get(key, fill, &counts_);
  }
  template <typename Fill>
  const Opening& GetOpening(const Key& key, const Fill& fill) {
    return opening_.Get(key, fill, &counts_);
  }
  template <typename Fill>
  const Return& GetReturn(const Key& key, const Fill& fill) {
    return return_.Get(key, fill, &counts_);
  }
  /// Close-self entries are not counted in misses() or hits(): they
  /// cache a condition and a letter, no enumeration.
  template <typename Fill>
  const CloseSelf& GetCloseSelf(const Key& key, const Fill& fill) {
    Counts uncounted;
    return close_self_.Get(key, fill, &uncounted);
  }

  /// Opened entries are keyed by the input's pool ids and not counted
  /// in misses() or hits(): they replay an enumeration per β, which the
  /// counters never saw as a step.
  template <typename Fill>
  const Opened& GetOpened(const Key& key, const Fill& fill) {
    Counts uncounted;
    return opened_.Get(key, fill, &uncounted);
  }

  /// (E) The completions of a partial cell under numeric equalities
  /// (CellCompletions), in EnumerateCells' order.
  using Completions = std::vector<Cell>;
  /// The completions of `partial` under `extra`, filled by
  /// `fill(partial, extra, Completions*)` on first demand. Not counted
  /// in misses() or hits(): a step's entry already counts the
  /// enumeration it belongs to. The reference stays valid for the
  /// memo's lifetime.
  template <typename Fill>
  const Completions& GetCompletions(Cell partial, LinearSystem extra,
                                    const Fill& fill) {
    CompletionKey key{std::move(partial), std::move(extra)};
    auto it = completions_.find(key);
    if (it != completions_.end()) return it->second;
    Completions cells;
    fill(key.partial, key.extra, &cells);
    ++completion_fills_;
    return completions_.emplace(std::move(key), std::move(cells))
        .first->second;
  }

  /// Bodies are keyed by their input base and service, and counted in
  /// body_fills() only: the head that asks for a body counts the step.
  template <typename Fill>
  const InternalBody& GetBody(const Key& key, const Fill& fill) {
    return body_.Get(key, fill, &body_counts_);
  }

  /// Head and opening/return entries filled: one per distinct key, so
  /// deterministic.
  size_t misses() const { return counts_.misses; }
  /// Lookups answered by an entry that was already filled.
  size_t hits() const { return counts_.hits; }
  /// Internal bodies filled: one per distinct (input base, service), so
  /// deterministic.
  size_t body_fills() const { return body_counts_.misses; }
  /// Completion lists filled: one per distinct (partial cell, numeric
  /// equalities), so deterministic.
  size_t completion_fills() const { return completion_fills_; }

 private:
  friend class EnumMemoTestPeer;

  struct KeyHash {
    size_t operator()(const Key& k) const {
      size_t seed = static_cast<size_t>(k.iso);
      HashMix(&seed, k.cell);
      HashMix(&seed, k.slot);
      HashMix(&seed, k.out_iso);
      HashMix(&seed, k.out_cell);
      return seed;
    }
  };
  struct Counts {
    size_t hits = 0;
    size_t misses = 0;
  };

  /// A partial cell and the numeric equalities it is completed under.
  struct CompletionKey {
    Cell partial;
    LinearSystem extra;

    bool operator==(const CompletionKey& o) const {
      return partial == o.partial && extra == o.extra;
    }
  };
  struct CompletionKeyHash {
    size_t operator()(const CompletionKey& k) const {
      size_t seed = k.partial.Hash();
      HashCombine(&seed, k.extra.Hash());
      return seed;
    }
  };

  /// Entries are heap-owned, so a returned reference survives later
  /// insertions. A miss fills the value before publishing it.
  template <typename Value>
  class Table {
   public:
    template <typename Fill>
    const Value& Get(const Key& key, const Fill& fill, Counts* counts) {
      auto it = entries_.find(key);
      if (it != entries_.end()) {
        ++counts->hits;
        return *it->second;
      }
      auto value = std::make_unique<Value>();
      fill(value.get());
      ++counts->misses;
      return *entries_.emplace(key, std::move(value)).first->second;
    }

   private:
    std::unordered_map<Key, std::unique_ptr<Value>, KeyHash> entries_;
  };

  const TypePool* pool_ = nullptr;
  Counts counts_;
  Table<Internal> internal_;
  Table<Opening> opening_;
  Table<Return> return_;
  Table<CloseSelf> close_self_;
  Table<Opened> opened_;
  Table<InternalBody> body_;
  Counts body_counts_;
  std::unordered_map<CompletionKey, Completions, CompletionKeyHash>
      completions_;
  size_t completion_fills_ = 0;
};

}  // namespace has

#endif  // HAS_CORE_SUCCESSOR_H_
