// Conservative satisfiability for conjunctions of quantifier-free
// spec conditions — the decision oracle behind the dead-service and
// vacuous-atom diagnostics and the service-enablement reachability
// graph (analysis/analyzer.cc).
//
// The check is COMPLETE for UNSAT claims within its budget and
// conservative everywhere else: a `true` answer means "maybe
// satisfiable" (the analyzer then stays silent / keeps the service),
// while `false` is a proof of unsatisfiability over the HAS semantics —
// ID variables range over an infinite domain plus null, numeric
// variables over Q (never null), relation atoms over arbitrary
// key-consistent instances, arithmetic over Q via Fourier–Motzkin.
// Every gap (atom budget exceeded, negative relation atoms) errs toward
// `true`, so no diagnostic and no slice decision ever rests on an
// approximation.
#ifndef HAS_ANALYSIS_SAT_H_
#define HAS_ANALYSIS_SAT_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <utility>
#include <vector>

#include "arith/linear.h"
#include "common/id_index.h"
#include "common/union_find.h"
#include "expr/condition.h"

namespace has {

/// The satisfiability oracle with its memo and scratch. One analysis
/// pass owns one oracle and asks it every question, so that
///   - each condition is compiled once (by address, then by structure:
///     a condition rebuilt by MapVars finds its structural twin) into
///     its deduplicated atom list and a pre-order program over atoms
///     interned oracle-wide;
///   - each question (the conjuncts' structures and the sort vector) is
///     decided once;
///   - every theory check reuses one set of union-find, disequality,
///     relation and constraint buffers.
/// The oracle holds the conditions it has seen, so their addresses stay
/// unique for its lifetime.
class SatOracle {
 public:
  explicit SatOracle(int max_atoms = 16);
  SatOracle(const SatOracle&) = delete;
  SatOracle& operator=(const SatOracle&) = delete;

  /// Decides whether the conjunction of `conjuncts` may be satisfiable.
  /// `sorts` gives the sort of every variable index the conditions may
  /// mention (a task scope, possibly extended with renamed post-state
  /// variables — see analyzer.cc's joint pre/post check). Enumerates
  /// truth assignments to the distinct atoms (equality logic via
  /// union-find, linear arithmetic over Q by Fourier–Motzkin when an
  /// assignment has any, positive relation atoms contribute non-null
  /// arguments and the key dependency); returns true ("unknown")
  /// outright when there are more than `max_atoms` distinct atoms. Null
  /// conjuncts are ignored.
  bool MaybeSatisfiable(std::initializer_list<CondPtr> conjuncts,
                        const std::vector<VarSort>& sorts) {
    return Check(conjuncts, sorts) != Answer::kUnsat;
  }
  bool MaybeSatisfiable(const std::vector<CondPtr>& conjuncts,
                        const std::vector<VarSort>& sorts) {
    return Ask(conjuncts.data(), conjuncts.data() + conjuncts.size(),
               sorts) != Answer::kUnsat;
  }

  /// The oracle's answer with "satisfiable" kept apart from "too large
  /// to decide".
  enum class Answer : char {
    /// No truth assignment passes the theory check: a proof.
    kUnsat,
    /// Some truth assignment within the atom cap passes the theory
    /// check. The check only loses constraints when literals are
    /// dropped, so every sub-conjunction of the question, and every
    /// renaming of one that keeps sorts and is injective, is kSat too.
    kSat,
    /// More distinct atoms than the cap: not decided.
    kOverCap,
  };
  /// MaybeSatisfiable's question, answered with the reason.
  Answer Check(std::initializer_list<CondPtr> conjuncts,
               const std::vector<VarSort>& sorts) {
    return Ask(conjuncts.begin(), conjuncts.end(), sorts);
  }

  /// Questions asked, and those answered from the memo.
  size_t calls() const { return calls_; }
  size_t memo_hits() const { return memo_hits_; }

 private:
  /// One node of a compiled condition, in pre-order; `end` is the index
  /// one past the node's subtree, so a node's children are j = i + 1,
  /// then j = nodes[j].end while j < end.
  struct Node {
    CondKind kind = CondKind::kTrue;
    int atom = -1;  ///< oracle-wide atom id (atoms only)
    uint32_t end = 0;
  };
  /// A condition's compiled form: its distinct atoms are
  /// cond_atoms_[atoms_begin, atoms_end), its root node nodes_[root].
  struct Compiled {
    const Condition* cond = nullptr;
    uint32_t atoms_begin = 0, atoms_end = 0;
    uint32_t root = 0;
  };
  /// A call's atom with its equality terms resolved to union-find
  /// elements.
  struct CallAtom {
    const Condition* atom = nullptr;
    int id = -1;             ///< oracle-wide atom id
    int lhs = -1, rhs = -1;  ///< kEq: elements of the two terms
    bool numeric = false;    ///< kEq: both terms are numeric
  };

  Answer Ask(const CondPtr* first, const CondPtr* last,
             const std::vector<VarSort>& sorts);
  int CompiledId(const CondPtr& c);
  /// Appends c's nodes, and its atoms not yet listed, for the compiled
  /// entry being built (id compiled_.size()).
  void EmitNodes(const Condition& c);
  int SortsId(const std::vector<VarSort>& sorts);
  Answer Decide(const std::vector<VarSort>& sorts);
  bool Eval(uint32_t node, uint32_t mask) const;
  bool TheoryConsistent(uint32_t mask, const std::vector<VarSort>& sorts);
  /// The arithmetic as one linear system for Fourier–Motzkin: the
  /// arithmetic atoms and numeric disequalities in atom order, then the
  /// class equalities.
  bool LinearSatisfiable(uint32_t mask, int num_elems);

  const int max_atoms_;
  size_t calls_ = 0;
  size_t memo_hits_ = 0;

  // Compiled conditions and oracle-wide atoms.
  /// Every condition asked about, with its compiled id, indexed by
  /// address.
  std::vector<std::pair<CondPtr, int>> seen_;
  IdIndex seen_index_;
  std::vector<Compiled> compiled_;
  IdIndex compiled_index_;  ///< structural hash -> compiled id
  std::vector<int> cond_atoms_;
  std::vector<Node> nodes_;
  std::vector<const Condition*> atoms_;
  IdIndex atom_index_;  ///< structural hash -> atom id
  /// Per atom: the compiled entry that last listed it.
  static constexpr size_t kNoMark = ~size_t{0};
  std::vector<size_t> atom_mark_;

  // Memo: interned sort vectors, and questions as (sorts id, compiled
  // ids...) ranges of `question_store_`.
  std::vector<VarSort> sort_store_;
  std::vector<uint32_t> sort_ranges_;  ///< sorts id i: [r[i], r[i+1])
  IdIndex sort_index_;
  std::vector<int> question_;  ///< the current question
  std::vector<int> question_store_;
  std::vector<uint32_t> question_ranges_;
  std::vector<Answer> answers_;
  IdIndex question_index_;

  // Per-call scratch.
  std::vector<int> local_of_;  ///< atom id -> bit in the call's mask, or -1
  std::vector<CallAtom> call_atoms_;
  std::vector<const Rational*> consts_;
  UnionFind uf_;
  std::vector<std::pair<int, int>> disequal_;
  std::vector<const Condition*> pos_rels_;
  LinearSystem system_;
  std::vector<LinearExpr> arith_diseqs_;
  /// Per union-find element of a theory check: its root; at a root, the
  /// class's constant (index into consts_), flags and first numeric
  /// member; `next` threads a class's numeric members in ascending
  /// order.
  struct Elem {
    int root = -1;
    int konst = -1;
    int head = -1;
    int next = -1;
    char flags = 0;
  };
  std::vector<Elem> elems_;
};

/// One-shot form of SatOracle::MaybeSatisfiable (a fresh oracle).
bool MaybeSatisfiable(const std::vector<CondPtr>& conjuncts,
                      const std::vector<VarSort>& sorts,
                      int max_atoms = 16);

}  // namespace has

#endif  // HAS_ANALYSIS_SAT_H_
