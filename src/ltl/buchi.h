// Büchi automaton construction from LTL (the standard declarative
// tableau of Vardi–Wolper / Sistla–Vardi–Wolper, as used in Section 3).
// States are maximal consistent subsets of the closure; generalized
// Büchi acceptance (one set per Until) is degeneralized with a counter.
// As noted in the paper, a subset Qfin of states makes the same
// automaton accept exactly the finite words satisfying the formula
// under the finite-word semantics.
#ifndef HAS_LTL_BUCHI_H_
#define HAS_LTL_BUCHI_H_

#include <cstddef>
#include <cstdint>
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
///
/// States are (tableau atom a, counter c) pairs numbered a·(k+1)+c, with
/// k the number of untils in the closure. Everything but the successor
/// lists is kept per atom: a state's proposition row and finite
/// acceptance are its atom's, and it is accepting iff c == k.
class BuchiAutomaton {
 public:
  /// A read-only run of state ids.
  class StateSpan {
   public:
    StateSpan(const int* first, const int* last) : first_(first), last_(last) {}
    const int* begin() const { return first_; }
    const int* end() const { return last_; }
    size_t size() const { return static_cast<size_t>(last_ - first_); }
    bool empty() const { return first_ == last_; }

   private:
    const int* first_;
    const int* last_;
  };

  int num_states() const { return num_atoms_ * counters_; }
  int num_props() const { return num_props_; }

  const std::vector<int>& initial() const { return initial_; }
  /// Successors of q in ascending target atom; all share one counter.
  StateSpan successors(int q) const {
    return StateSpan(succ_.data() + succ_begin_[q],
                     succ_.data() + succ_begin_[q + 1]);
  }
  bool accepting(int q) const { return q % counters_ == counters_ - 1; }
  bool finite_accepting(int q) const {
    return can_end_[static_cast<size_t>(q / counters_)] != 0;
  }

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
  int num_atoms_ = 0;
  int counters_ = 1;  ///< k + 1
  std::vector<int> initial_;
  /// CSR successor lists: state q's are succ_[succ_begin_[q],
  /// succ_begin_[q + 1]).
  std::vector<uint32_t> succ_begin_;
  std::vector<int> succ_;
  /// can_end_[a]: atom a may label the last position of a finite word.
  std::vector<char> can_end_;
  /// Atom a's proposition row: bit p of words [a·prop_words_,
  /// (a+1)·prop_words_) is the truth it requires of proposition p.
  int prop_words_ = 0;
  std::vector<uint64_t> prop_rows_;
  /// Propositions the formula mentions, ascending; the others are
  /// don't-care for CompatibleWith.
  std::vector<int> constrained_;
};

/// Builds the automaton for `formula` over propositions 0..num_props-1.
BuchiAutomaton BuildBuchi(const LtlPtr& formula, int num_props);

}  // namespace has

#endif  // HAS_LTL_BUCHI_H_
