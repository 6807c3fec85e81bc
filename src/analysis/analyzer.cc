#include "analysis/analyzer.h"

#include <algorithm>
#include <string>

#include "analysis/sat.h"
#include "common/strings.h"

namespace has {
namespace {

std::vector<VarSort> ScopeSorts(const VarScope& scope) {
  std::vector<VarSort> sorts(static_cast<size_t>(scope.size()));
  for (int v = 0; v < scope.size(); ++v) sorts[v] = scope.var(v).sort;
  return sorts;
}

/// Variable sets are flags per variable of the task's scope.
void Mark(int v, std::vector<char>* out) {
  if (v >= 0 && v < static_cast<int>(out->size())) (*out)[v] = 1;
}

void AddVars(const std::vector<int>& vs, std::vector<char>* out) {
  for (int v : vs) Mark(v, out);
}

/// The task state right after opening: every non-input ID variable is
/// null and every non-input numeric variable is 0 (run semantics); the
/// root additionally starts under the global pre-condition. Input
/// variables are left unconstrained — conservative, since the parent
/// (or the external instance, for the root) chooses them.
CondPtr InitCondition(const ArtifactSystem& system, TaskId t) {
  const Task& task = system.task(t);
  const std::vector<int> inputs = task.InputVars();
  std::vector<CondPtr> cs;
  cs.reserve(static_cast<size_t>(task.vars().size()) + 1);
  for (int v = 0; v < task.vars().size(); ++v) {
    if (std::find(inputs.begin(), inputs.end(), v) != inputs.end()) continue;
    if (task.vars().var(v).sort == VarSort::kId) {
      cs.push_back(Condition::IsNull(v));
    } else {
      cs.push_back(
          Condition::Arith(LinearConstraint{LinearExpr::Var(v), Relop::kEq}));
    }
  }
  if (task.is_root()) cs.push_back(system.global_pre());
  return Condition::AndAll(cs);
}

SourceLoc ServiceLoc(const SpecLocations* locs, const Task& task,
                     const std::string& service) {
  return locs == nullptr ? SourceLoc{} : locs->Service(task.name(), service);
}

}  // namespace

AnalysisResult AnalyzeSystem(
    const ArtifactSystem& system,
    const std::vector<std::pair<std::string, const HltlProperty*>>& properties,
    const SpecLocations* locs) {
  AnalysisResult res;
  res.tasks.resize(static_cast<size_t>(system.num_tasks()));
  std::vector<int> vars_scratch;
  auto add_cond_vars = [&vars_scratch](const CondPtr& c,
                                       std::vector<char>* out) {
    if (c == nullptr) return;
    vars_scratch.clear();
    c->CollectVars(&vars_scratch);
    AddVars(vars_scratch, out);
  };

  // Variables each task's property nodes condition on (union over all
  // given properties) — reads for the write-never-read check and roots
  // of the slicing cone.
  std::vector<std::vector<char>> prop_vars(
      static_cast<size_t>(system.num_tasks()));
  for (TaskId t = 0; t < system.num_tasks(); ++t) {
    prop_vars[t].assign(static_cast<size_t>(system.task(t).vars().size()), 0);
  }
  for (const auto& [name, prop] : properties) {
    (void)name;
    for (int i = 0; i < prop->num_nodes(); ++i) {
      const HltlNode& node = prop->node(i);
      for (const HltlProp& p : node.props) {
        if (p.kind == HltlProp::Kind::kCondition) {
          add_cond_vars(p.condition, &prop_vars[node.task]);
        }
      }
    }
  }

  // Whether each task is openable in its parent's enablement graph
  // (filled while analyzing the parent; pre-order guarantees the flag is
  // ready when the child is analyzed).
  std::vector<char> openable(static_cast<size_t>(system.num_tasks()), 0);
  openable[system.root()] = 1;

  // Every satisfiability question goes through one oracle, which
  // memoizes answers and compiles each condition once.
  SatOracle oracle;
  const CondPtr unconstrained = Condition::True();
  std::vector<std::vector<VarSort>> task_sorts;
  task_sorts.reserve(static_cast<size_t>(system.num_tasks()));
  for (TaskId t = 0; t < system.num_tasks(); ++t) {
    task_sorts.push_back(ScopeSorts(system.task(t).vars()));
  }

  for (TaskId t : system.PreOrder()) {
    const Task& task = system.task(t);
    TaskFacts& f = res.tasks[t];
    const int num_services = static_cast<int>(task.services().size());
    const int num_rels = task.num_set_relations();
    f.service_dead.assign(static_cast<size_t>(num_services), 0);
    f.service_unreachable.assign(static_cast<size_t>(num_services), 0);
    f.relation_inserted.assign(static_cast<size_t>(num_rels), 0);
    f.relation_retrieved.assign(static_cast<size_t>(num_rels), 0);
    f.var_read.assign(static_cast<size_t>(task.vars().size()), 0);
    f.task_open =
        openable[t] != 0 &&
        (task.is_root() || res.tasks[task.parent()].task_open);

    const std::vector<VarSort>& sorts = task_sorts[t];
    const std::vector<int> inputs = task.InputVars();
    auto is_input = [&](int v) {
      return std::find(inputs.begin(), inputs.end(), v) != inputs.end();
    };

    // --- intrinsically dead services: unsatisfiable conditions --------
    // The joint check reads pre on the current tuple and post on the
    // next one. Input variables are stable under internal services
    // (shared index); every other variable is re-decided, so the post
    // reads a fresh copy.
    std::vector<int> rename(static_cast<size_t>(task.vars().size()));
    std::vector<VarSort> joint_sorts = sorts;
    for (int v = 0; v < task.vars().size(); ++v) {
      if (is_input(v)) {
        rename[v] = v;
      } else {
        rename[v] = static_cast<int>(joint_sorts.size());
        joint_sorts.push_back(sorts[static_cast<size_t>(v)]);
      }
    }
    std::vector<std::string> dead_reason(static_cast<size_t>(num_services));
    for (int s = 0; s < num_services; ++s) {
      const InternalService& svc = task.service(s);
      if (!oracle.MaybeSatisfiable({svc.pre}, sorts)) {
        f.service_dead[s] = 1;
        dead_reason[s] = "pre-condition is unsatisfiable";
        continue;
      }
      if (!oracle.MaybeSatisfiable({svc.post}, sorts)) {
        f.service_dead[s] = 1;
        dead_reason[s] = "post-condition is unsatisfiable";
        continue;
      }
      if (!oracle.MaybeSatisfiable({svc.pre, svc.post->MapVars(rename)},
                                   joint_sorts)) {
        f.service_dead[s] = 1;
        dead_reason[s] = "pre- and post-conditions are jointly unsatisfiable";
      }
    }

    // --- reachability / relation-starvation fixpoint ------------------
    // Removing a starved service can disconnect the enablement graph or
    // starve further relations, so iterate to a fixpoint (monotone in
    // the dead set; at most num_services rounds).
    const CondPtr init = InitCondition(system, t);
    std::vector<CondPtr> contexts;
    contexts.reserve(1 + static_cast<size_t>(num_services) +
                     task.children().size());
    std::vector<char> reached(static_cast<size_t>(num_services), 0);
    std::vector<char> child_open(
        static_cast<size_t>(task.children().size()), 0);
    for (;;) {
      std::fill(reached.begin(), reached.end(), 0);
      std::fill(child_open.begin(), child_open.end(), 0);
      if (f.task_open) {
        // Enablement contexts: the opening state, the post-condition of
        // any service that already fired (same-state conjunction — a
        // sound single-step over-approximation), and the unconstrained
        // state after a child task returned.
        bool grew = true;
        while (grew) {
          grew = false;
          contexts.assign(1, init);
          for (int s = 0; s < num_services; ++s) {
            if (reached[s] && !f.service_dead[s]) {
              contexts.push_back(task.service(s).post);
            }
          }
          for (size_t ci = 0; ci < task.children().size(); ++ci) {
            const Task& child = system.task(task.children()[ci]);
            if (child_open[ci] &&
                oracle.MaybeSatisfiable({child.closing_pre()},
                                        task_sorts[task.children()[ci]])) {
              contexts.push_back(unconstrained);
            }
          }
          for (int s = 0; s < num_services; ++s) {
            if (reached[s] || f.service_dead[s]) continue;
            for (const CondPtr& c : contexts) {
              if (oracle.MaybeSatisfiable({c, task.service(s).pre}, sorts)) {
                reached[s] = 1;
                grew = true;
                break;
              }
            }
          }
          for (size_t ci = 0; ci < task.children().size(); ++ci) {
            if (child_open[ci]) continue;
            const Task& child = system.task(task.children()[ci]);
            for (const CondPtr& c : contexts) {
              if (oracle.MaybeSatisfiable({c, child.opening_pre()}, sorts)) {
                child_open[ci] = 1;
                grew = true;
                break;
              }
            }
          }
        }
      }
      std::fill(f.relation_inserted.begin(), f.relation_inserted.end(), 0);
      for (int s = 0; s < num_services; ++s) {
        if (f.service_dead[s] || !reached[s]) continue;
        for (int r : task.service(s).insert_rels) f.relation_inserted[r] = 1;
      }
      bool changed = false;
      for (int s = 0; s < num_services; ++s) {
        if (f.service_dead[s] || !reached[s]) continue;
        for (int r : task.service(s).retrieve_rels) {
          if (!f.relation_inserted[r]) {
            f.service_dead[s] = 1;
            dead_reason[s] =
                StrCat("retrieves from relation ", task.set_relations()[r].name,
                       ", which no live service inserts into");
            changed = true;
            break;
          }
        }
      }
      if (!changed) break;
    }
    for (size_t ci = 0; ci < task.children().size(); ++ci) {
      openable[task.children()[ci]] = child_open[ci];
    }
    for (int s = 0; s < num_services; ++s) {
      if (!f.service_dead[s]) f.service_unreachable[s] = reached[s] ? 0 : 1;
    }
    for (int s = 0; s < num_services; ++s) {
      if (!f.ServiceLive(s)) continue;
      for (int r : task.service(s).retrieve_rels) f.relation_retrieved[r] = 1;
    }

    // --- diagnostics: services ----------------------------------------
    for (int s = 0; s < num_services; ++s) {
      const std::string& name = task.service(s).name;
      if (f.service_dead[s]) {
        res.diagnostics.push_back(
            Diagnostic{DiagSeverity::kWarning, kDiagDeadService, task.name(),
                       ServiceLoc(locs, task, name),
                       StrCat("service ", name, " can never fire: ",
                              dead_reason[s])});
      } else if (f.service_unreachable[s]) {
        res.diagnostics.push_back(Diagnostic{
            DiagSeverity::kWarning, kDiagUnreachableService, task.name(),
            ServiceLoc(locs, task, name),
            f.task_open
                ? StrCat("service ", name,
                         " is never enabled from any reachable task state")
                : StrCat("service ", name,
                         " is never enabled (task never opens)")});
      }
    }

    // --- diagnostics: relations inserted but never read ---------------
    for (int r = 0; r < num_rels; ++r) {
      if (f.relation_inserted[r] && !f.relation_retrieved[r]) {
        res.diagnostics.push_back(Diagnostic{
            DiagSeverity::kWarning, kDiagUnreadRelation, task.name(),
            locs == nullptr
                ? SourceLoc{}
                : locs->Relation(task.name(), task.set_relations()[r].name),
            StrCat("relation ", task.set_relations()[r].name,
                   " is inserted into but never retrieved; its contents "
                   "cannot affect the property")});
      }
    }

    // --- diagnostics: write-never-read variables -----------------------
    // Read positions: pre-conditions of live services; input variables
    // in their post-conditions (an input keeps its value, so a post
    // mention reads it; any other post mention constrains the freshly
    // decided value — a write); the closing pre-condition; the opening
    // pre-conditions of children (over this scope); the global
    // pre-condition (root); property conditions of this task's nodes;
    // parent-side f_in variables of children; own-side f_out variables
    // (returned on close); and tuple variables of relations inserted by
    // live services (an insert reads the tuple at the pre-state).
    const size_t num_vars = static_cast<size_t>(task.vars().size());
    std::vector<char> read(num_vars, 0);
    std::vector<char> mentioned(num_vars, 0);
    std::vector<char> post_vars(num_vars, 0);
    for (int s = 0; s < num_services; ++s) {
      const InternalService& svc = task.service(s);
      add_cond_vars(svc.pre, &mentioned);
      add_cond_vars(svc.post, &mentioned);
      for (int r : svc.insert_rels) {
        AddVars(task.set_relations()[r].vars, &mentioned);
      }
      for (int r : svc.retrieve_rels) {
        AddVars(task.set_relations()[r].vars, &mentioned);
      }
      if (!f.ServiceLive(s)) continue;
      add_cond_vars(svc.pre, &read);
      std::fill(post_vars.begin(), post_vars.end(), 0);
      add_cond_vars(svc.post, &post_vars);
      for (int v : inputs) {
        if (v >= 0 && static_cast<size_t>(v) < num_vars && post_vars[v]) {
          read[v] = 1;
        }
      }
      for (int r : svc.insert_rels) {
        AddVars(task.set_relations()[r].vars, &read);
      }
    }
    add_cond_vars(task.closing_pre(), &read);
    add_cond_vars(task.closing_pre(), &mentioned);
    if (task.is_root()) {
      add_cond_vars(system.global_pre(), &read);
      add_cond_vars(system.global_pre(), &mentioned);
    }
    for (TaskId c : task.children()) {
      const Task& child = system.task(c);
      add_cond_vars(child.opening_pre(), &read);
      add_cond_vars(child.opening_pre(), &mentioned);
      for (const auto& [own, parent_var] : child.fin()) {
        (void)own;
        Mark(parent_var, &read);
        Mark(parent_var, &mentioned);
      }
      for (const auto& [parent_var, own] : child.fout()) {
        (void)own;
        Mark(parent_var, &mentioned);
      }
    }
    for (const auto& [own, parent_var] : task.fin()) {
      (void)parent_var;
      Mark(own, &mentioned);
    }
    for (const auto& [parent_var, own] : task.fout()) {
      (void)parent_var;
      Mark(own, &read);
      Mark(own, &mentioned);
    }
    for (size_t v = 0; v < num_vars; ++v) {
      if (prop_vars[t][v]) read[v] = mentioned[v] = 1;
    }
    for (int v = 0; v < task.vars().size(); ++v) {
      if (read[v]) {
        f.var_read[v] = 1;
        continue;
      }
      const std::string& name = task.vars().var(v).name;
      res.diagnostics.push_back(Diagnostic{
          DiagSeverity::kWarning, kDiagWriteNeverRead, task.name(),
          locs == nullptr ? SourceLoc{} : locs->Var(task.name(), name),
          mentioned[v]
              ? StrCat("variable ", name, " is written but never read")
              : StrCat("variable ", name, " is never used")});
    }
  }

  // --- diagnostics: vacuous property atoms -----------------------------
  for (const auto& [name, prop] : properties) {
    for (int i = 0; i < prop->num_nodes(); ++i) {
      const HltlNode& node = prop->node(i);
      const Task& task = system.task(node.task);
      const std::vector<VarSort>& sorts = task_sorts[node.task];
      for (const HltlProp& p : node.props) {
        if (p.kind != HltlProp::Kind::kCondition) continue;
        const char* verdict = nullptr;
        if (!oracle.MaybeSatisfiable({p.condition}, sorts)) {
          verdict = "always false";
        } else if (!oracle.MaybeSatisfiable({Condition::Not(p.condition)},
                                            sorts)) {
          verdict = "always true";
        }
        if (verdict != nullptr) {
          res.diagnostics.push_back(Diagnostic{
              DiagSeverity::kWarning, kDiagVacuousAtom, task.name(),
              locs == nullptr ? SourceLoc{} : locs->Property(name),
              StrCat("property ", name, ": atom {",
                     p.condition->ToString(task.vars(), &system.schema()),
                     "} is ", verdict)});
        }
      }
    }
  }

  return res;
}

}  // namespace has
