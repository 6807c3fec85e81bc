// Task schemas (Definitions 2-3), generalized to a FAMILY of artifact
// relations per task. A task owns a scope of artifact variables, a list
// of named artifact relations S_T,1 … S_T,k — each over its own tuple
// s̄_T,i of distinct ID variables — declared input variables x̄_in, its
// services, and the opening/closing machinery connecting it to its
// parent. The paper's single S_T is the k = 1 special case (relation
// name "S", see DeclareSet).
#ifndef HAS_MODEL_TASK_H_
#define HAS_MODEL_TASK_H_

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "expr/condition.h"

namespace has {

using TaskId = int;
inline constexpr TaskId kNoTask = -1;

/// One artifact relation S_T,i of a task: a (task-unique) name and the
/// tuple s̄_T,i of distinct ID variables whose values it stores.
struct SetRelation {
  std::string name;
  std::vector<int> vars;
};

/// Default name of the artifact relation declared through the
/// single-relation sugar (`set (x̄);` in specs, Task::DeclareSet in
/// code); the paper's S_T.
inline constexpr char kDefaultSetName[] = "S";

/// An internal service σ = (π, ψ, δ) of a task (Definition 5). The
/// pre-condition is evaluated on the current artifact tuple, the
/// post-condition on the next one; δ is a set of per-relation updates
/// {+S_T,i(s̄_T,i), -S_T,j(s̄_T,j), ...} identified by relation index.
struct InternalService {
  std::string name;
  CondPtr pre;
  CondPtr post;
  std::vector<int> insert_rels;   ///< relations i with +S_T,i(s̄_T,i) ∈ δ
  std::vector<int> retrieve_rels; ///< relations i with -S_T,i(s̄_T,i) ∈ δ

  bool InsertsInto(int rel) const {
    return std::find(insert_rels.begin(), insert_rels.end(), rel) !=
           insert_rels.end();
  }
  bool RetrievesFrom(int rel) const {
    return std::find(retrieve_rels.begin(), retrieve_rels.end(), rel) !=
           retrieve_rels.end();
  }
  bool HasSetOps() const {
    return !insert_rels.empty() || !retrieve_rels.empty();
  }
  /// Single-relation sugar: +S_T(s̄_T) / -S_T(s̄_T) on relation 0.
  void MarkInsert(int rel = 0) {
    if (!InsertsInto(rel)) insert_rels.push_back(rel);
  }
  void MarkRetrieve(int rel = 0) {
    if (!RetrievesFrom(rel)) retrieve_rels.push_back(rel);
  }
};

/// A task schema plus its interaction contract with the parent.
class Task {
 public:
  Task(std::string name, TaskId id, TaskId parent)
      : name_(std::move(name)),
        id_(id),
        parent_(parent),
        opening_pre_(Condition::True()),
        closing_pre_(Condition::False()) {}

  const std::string& name() const { return name_; }
  TaskId id() const { return id_; }
  TaskId parent() const { return parent_; }
  bool is_root() const { return parent_ == kNoTask; }

  const std::vector<TaskId>& children() const { return children_; }
  void AddChild(TaskId child) { children_.push_back(child); }

  VarScope& vars() { return vars_; }
  const VarScope& vars() const { return vars_; }

  // --- artifact relations -------------------------------------------------
  /// Declares artifact relation S_T,i = `name` over tuple `vars`
  /// (distinct ID vars); returns its index i. Re-declaring an existing
  /// name replaces that relation's tuple in place (the per-relation
  /// analogue of restriction 7's fixed tuple).
  int AddSetRelation(std::string name, std::vector<int> vars) {
    for (size_t i = 0; i < set_relations_.size(); ++i) {
      if (set_relations_[i].name == name) {
        set_relations_[i].vars = std::move(vars);
        return static_cast<int>(i);
      }
    }
    set_relations_.push_back(SetRelation{std::move(name), std::move(vars)});
    return static_cast<int>(set_relations_.size() - 1);
  }
  /// Single-relation sugar (the paper's one S_T): declares/replaces the
  /// relation named kDefaultSetName.
  void DeclareSet(std::vector<int> set_vars) {
    AddSetRelation(kDefaultSetName, std::move(set_vars));
  }
  const std::vector<SetRelation>& set_relations() const {
    return set_relations_;
  }
  int num_set_relations() const {
    return static_cast<int>(set_relations_.size());
  }
  /// Index of the relation named `name`; -1 if absent.
  int FindSetRelation(const std::string& name) const {
    for (size_t i = 0; i < set_relations_.size(); ++i) {
      if (set_relations_[i].name == name) return static_cast<int>(i);
    }
    return -1;
  }
  bool has_set() const { return !set_relations_.empty(); }
  /// Tuple of the FIRST artifact relation (single-relation sugar; empty
  /// when the task has none).
  const std::vector<int>& set_vars() const {
    static const std::vector<int> kEmpty;
    return set_relations_.empty() ? kEmpty : set_relations_[0].vars;
  }

  // --- input / return wiring ---------------------------------------------
  /// f_in pairs (child_var, parent_var); dom(f_in) = x̄_in of this task.
  /// For the root, parent_var is ignored and the pairs just declare the
  /// input variables receiving the initial external valuation.
  void AddInput(int own_var, int parent_var) {
    fin_.emplace_back(own_var, parent_var);
  }
  const std::vector<std::pair<int, int>>& fin() const { return fin_; }
  /// The input variables x̄_in (dom f_in), in declaration order.
  std::vector<int> InputVars() const;

  /// f_out pairs (parent_var, own_var): when this task closes, parent
  /// variable `parent_var` receives the value of this task's `own_var`.
  void AddOutput(int parent_var, int own_var) {
    fout_.emplace_back(parent_var, own_var);
  }
  const std::vector<std::pair<int, int>>& fout() const { return fout_; }
  /// The to-be-returned variables x̄_ret (range f_out) in this task.
  std::vector<int> ReturnVars() const;

  // --- services ------------------------------------------------------------
  int AddInternalService(InternalService service) {
    services_.push_back(std::move(service));
    return static_cast<int>(services_.size() - 1);
  }
  const std::vector<InternalService>& services() const { return services_; }
  const InternalService& service(int i) const { return services_[i]; }
  InternalService& mutable_service(int i) { return services_[i]; }

  /// Opening pre-condition π of σ^o_T, a condition over the PARENT's
  /// variable scope (Definition 6(i)). True for the root.
  void SetOpeningPre(CondPtr pre) { opening_pre_ = std::move(pre); }
  const CondPtr& opening_pre() const { return opening_pre_; }

  /// Closing pre-condition π of σ^c_T, over this task's scope
  /// (Definition 6(ii)). False for the root (the root never returns).
  void SetClosingPre(CondPtr pre) { closing_pre_ = std::move(pre); }
  const CondPtr& closing_pre() const { return closing_pre_; }

 private:
  std::string name_;
  TaskId id_;
  TaskId parent_;
  std::vector<TaskId> children_;
  VarScope vars_;
  std::vector<SetRelation> set_relations_;
  std::vector<std::pair<int, int>> fin_;
  std::vector<std::pair<int, int>> fout_;
  std::vector<InternalService> services_;
  CondPtr opening_pre_;
  CondPtr closing_pre_;
};

}  // namespace has

#endif  // HAS_MODEL_TASK_H_
