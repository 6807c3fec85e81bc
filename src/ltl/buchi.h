// Büchi automaton construction from LTL (the standard declarative
// tableau of Vardi–Wolper / Sistla–Vardi–Wolper, as used in Section 3).
// States are maximal consistent subsets of the closure; generalized
// Büchi acceptance (one set per Until) is degeneralized with a counter.
// As noted in the paper, a subset Qfin of states makes the same
// automaton accept exactly the finite words satisfying the formula
// under the finite-word semantics.
#ifndef HAS_LTL_BUCHI_H_
#define HAS_LTL_BUCHI_H_

#include <string>
#include <vector>

#include "ltl/formula.h"

namespace has {

/// An explicit-state Büchi automaton over letters that are truth
/// assignments to propositions 0..num_props-1.
///
/// A state "reads" the letter of its own position: a run on word
/// a_0 a_1 ... is a sequence q_0 q_1 ... with q_i compatible with a_i
/// (CompatibleWith) and q_{i+1} ∈ successors(q_i); q_0 must be initial.
/// Infinite acceptance: some q_i ∈ accepting for infinitely many i.
/// Finite acceptance: the state reading the last letter is in
/// finite_accepting.
class BuchiAutomaton {
 public:
  int num_states() const { return static_cast<int>(succ_.size()); }
  int num_props() const { return num_props_; }

  const std::vector<int>& initial() const { return initial_; }
  const std::vector<int>& successors(int q) const { return succ_[q]; }
  bool accepting(int q) const { return accepting_[q]; }
  bool finite_accepting(int q) const { return finite_accepting_[q]; }

  /// True iff state q's required proposition literals match `letter`.
  bool CompatibleWith(int q, const std::vector<bool>& letter) const;

  /// Runs the automaton on an explicit finite word; true iff some run
  /// ends in a finite-accepting state (finite-word satisfaction).
  bool AcceptsFinite(const std::vector<std::vector<bool>>& word) const;

  /// Accepts the ultimately periodic word prefix · loop^ω.
  bool AcceptsLasso(const std::vector<std::vector<bool>>& prefix,
                    const std::vector<std::vector<bool>>& loop) const;

  std::string Stats() const;

 private:
  friend BuchiAutomaton BuildBuchi(const LtlPtr&, int);

  int num_props_ = 0;
  std::vector<int> initial_;
  std::vector<std::vector<int>> succ_;
  std::vector<bool> accepting_;
  std::vector<bool> finite_accepting_;
  /// props_[q][p]: truth of proposition p required by state q.
  std::vector<std::vector<bool>> props_;
  /// constrained_[p]: proposition p occurs in the formula; unmentioned
  /// propositions are don't-care for CompatibleWith.
  std::vector<bool> constrained_;
};

/// Builds the automaton for `formula` over propositions 0..num_props-1.
BuchiAutomaton BuildBuchi(const LtlPtr& formula, int num_props);

}  // namespace has

#endif  // HAS_LTL_BUCHI_H_
