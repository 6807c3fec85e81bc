#include "hltl/assignments.h"

#include "common/status.h"

namespace has {

TaskAutomata::TaskAutomata(const ArtifactSystem* system,
                           const HltlProperty* property, TaskId task)
    : system_(system), property_(property), task_(task) {
  phi_nodes_ = property->NodesOfTask(task);
  HAS_CHECK_MSG(phi_nodes_.size() <= 20, "too many subformulas per task");
  remapped_.reserve(phi_nodes_.size());
  for (int n : phi_nodes_) {
    remapped_.push_back(RemapSkeleton(property->node(n)));
  }
}

int TaskAutomata::AssignmentBit(int node) const {
  for (size_t i = 0; i < phi_nodes_.size(); ++i) {
    if (phi_nodes_[i] == node) return static_cast<int>(i);
  }
  return -1;
}

int TaskAutomata::InternProp(const HltlProp& p) {
  for (size_t i = 0; i < props_.size(); ++i) {
    const HltlProp& q = props_[i];
    if (q.kind != p.kind) continue;
    switch (p.kind) {
      case HltlProp::Kind::kCondition:
        if (q.condition->Equals(*p.condition)) return static_cast<int>(i);
        break;
      case HltlProp::Kind::kService:
        if (q.service == p.service) return static_cast<int>(i);
        break;
      case HltlProp::Kind::kChildFormula:
        if (q.child_node == p.child_node) return static_cast<int>(i);
        break;
    }
  }
  props_.push_back(p);
  return static_cast<int>(props_.size() - 1);
}

LtlPtr TaskAutomata::RemapSkeleton(const HltlNode& node) {
  std::vector<int> remap(node.props.size());
  for (size_t p = 0; p < node.props.size(); ++p) {
    remap[p] = InternProp(node.props[p]);
  }
  std::function<LtlPtr(const LtlPtr&)> walk =
      [&](const LtlPtr& f) -> LtlPtr {
    switch (f->kind()) {
      case LtlKind::kTrue:
        return LtlFormula::True();
      case LtlKind::kFalse:
        return LtlFormula::False();
      case LtlKind::kProp: {
        HAS_CHECK(f->prop() >= 0 &&
                  f->prop() < static_cast<int>(remap.size()));
        return LtlFormula::Prop(remap[f->prop()]);
      }
      case LtlKind::kNot:
        return LtlFormula::Not(walk(f->left()));
      case LtlKind::kAnd:
        return LtlFormula::And(walk(f->left()), walk(f->right()));
      case LtlKind::kOr:
        return LtlFormula::Or(walk(f->left()), walk(f->right()));
      case LtlKind::kNext:
        return LtlFormula::Next(walk(f->left()));
      case LtlKind::kUntil:
        return LtlFormula::Until(walk(f->left()), walk(f->right()));
    }
    return LtlFormula::True();
  };
  return walk(node.skeleton);
}

const BuchiAutomaton& TaskAutomata::automaton(Assignment beta) {
  // Automata are heap-owned, so returned references survive later
  // insertions.
  auto it = cache_.find(beta);
  if (it != cache_.end()) return *it->second;
  LtlPtr combined = LtlFormula::True();
  bool first = true;
  for (size_t i = 0; i < phi_nodes_.size(); ++i) {
    LtlPtr piece = remapped_[i];
    if (((beta >> i) & 1) == 0) piece = LtlFormula::Not(piece);
    combined = first ? piece : LtlFormula::And(combined, piece);
    first = false;
  }
  auto automaton = std::make_unique<BuchiAutomaton>(
      BuildBuchi(combined, static_cast<int>(props_.size())));
  const BuchiAutomaton& ref = *automaton;
  cache_[beta] = std::move(automaton);
  return ref;
}

PropertyAutomata::PropertyAutomata(const ArtifactSystem* system,
                                   const HltlProperty* property)
    : property_(property) {
  tasks_.reserve(system->num_tasks());
  for (TaskId t = 0; t < system->num_tasks(); ++t) {
    tasks_.push_back(std::make_unique<TaskAutomata>(system, property, t));
  }
}

}  // namespace has
