// The automaton family B(T, β) of Section 3: for each task T and truth
// assignment β to Φ_T (the [ψ]_T subformulas of the property over T),
// the Büchi automaton of   ∧_{β(ψ)=1} ψ ∧ ∧_{β(ψ)=0} ¬ψ
// over a unified proposition table for T. The verifier's per-task VASS
// product feeds letters (τ', σ', guessed child assignments) to these
// automata.
#ifndef HAS_HLTL_ASSIGNMENTS_H_
#define HAS_HLTL_ASSIGNMENTS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "hltl/hltl.h"
#include "ltl/buchi.h"

namespace has {

/// Truth assignment to Φ_T, one bit per element (bit i corresponds to
/// phi_nodes()[i]).
using Assignment = uint32_t;

class TaskAutomata {
 public:
  TaskAutomata(const ArtifactSystem* system, const HltlProperty* property,
               TaskId task);

  TaskId task() const { return task_; }

  /// Φ_T: property-node indices over this task, in node order.
  const std::vector<int>& phi_nodes() const { return phi_nodes_; }
  int num_assignments() const { return 1 << phi_nodes_.size(); }

  /// Position of property node `node` within phi_nodes(), or -1.
  int AssignmentBit(int node) const;

  /// The unified proposition table shared by all assignments of T.
  const std::vector<HltlProp>& props() const { return props_; }

  /// B(T, β); built on first use and cached. A returned reference
  /// stays valid for the automata's lifetime.
  const BuchiAutomaton& automaton(Assignment beta);

 private:
  int InternProp(const HltlProp& p);
  LtlPtr RemapSkeleton(const HltlNode& node);

  const ArtifactSystem* system_;
  const HltlProperty* property_;
  TaskId task_;
  std::vector<int> phi_nodes_;
  std::vector<HltlProp> props_;
  std::vector<LtlPtr> remapped_;  // parallel to phi_nodes_
  std::map<Assignment, std::unique_ptr<BuchiAutomaton>> cache_;
};

/// All per-task automata of a property.
class PropertyAutomata {
 public:
  PropertyAutomata(const ArtifactSystem* system,
                   const HltlProperty* property);

  TaskAutomata& ForTask(TaskId t) { return *tasks_[t]; }
  const HltlProperty& property() const { return *property_; }

 private:
  const HltlProperty* property_;
  std::vector<std::unique_ptr<TaskAutomata>> tasks_;
};

}  // namespace has

#endif  // HAS_HLTL_ASSIGNMENTS_H_
