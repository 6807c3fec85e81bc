#include "model/validate.h"

#include <set>

#include "common/strings.h"
#include "model/independence.h"

namespace has {

namespace {

void CheckTask(const ArtifactSystem& system, const Task& t,
               const SpecLocations* locs, std::vector<std::string>* errors) {
  // Every message is anchored at the most specific declaration whose
  // location is known: the relation or service at fault where there is
  // one, the task header otherwise. Without locations the wording is
  // byte-identical to the historical output.
  auto error_at = [&](SourceLoc loc, const std::string& msg) {
    std::string where = locs == nullptr ? std::string() : locs->Render(loc);
    errors->push_back(StrCat(where.empty() ? "" : StrCat(where, ": "),
                             "task ", t.name(), ": ", msg));
  };
  auto error = [&](const std::string& msg) {
    error_at(locs == nullptr ? SourceLoc{} : locs->Task(t.name()), msg);
  };
  auto rel_loc = [&](const std::string& rel) {
    return locs == nullptr ? SourceLoc{} : locs->Relation(t.name(), rel);
  };
  auto svc_loc = [&](const std::string& svc) {
    return locs == nullptr ? SourceLoc{} : locs->Service(t.name(), svc);
  };
  const DatabaseSchema& schema = system.schema();

  // Variables and services resolve by name (spec references, source
  // locations), so each name is declared once per task.
  {
    std::set<std::string> names;
    for (int v = 0; v < t.vars().size(); ++v) {
      const std::string& name = t.vars().var(v).name;
      if (!names.insert(name).second) {
        error_at(locs == nullptr ? SourceLoc{} : locs->Var(t.name(), name),
                 StrCat("duplicate variable ", name));
      }
    }
    names.clear();
    for (const InternalService& s : t.services()) {
      if (!names.insert(s.name).second) {
        error_at(svc_loc(s.name), StrCat("duplicate service ", s.name));
      }
    }
  }

  // Artifact relations S_T,1 … S_T,k: per relation, a distinct name,
  // arity ≥ 1, and a tuple of distinct ID variables of the task
  // (Definition 2 requires each s̄_T,i to consist of distinct ID vars;
  // the per-relation fixed tuple is restriction 7's analogue).
  {
    std::set<std::string> names;
    for (const SetRelation& rel : t.set_relations()) {
      if (!names.insert(rel.name).second) {
        error_at(rel_loc(rel.name),
                 StrCat("duplicate artifact relation name ", rel.name));
      }
      std::set<int> seen;
      for (int v : rel.vars) {
        if (v < 0 || v >= t.vars().size()) {
          error_at(rel_loc(rel.name),
                   StrCat("relation ", rel.name, ": set variable index ", v,
                          " out of scope"));
          continue;
        }
        if (!seen.insert(v).second) {
          error_at(rel_loc(rel.name),
                   StrCat("relation ", rel.name, ": duplicate set variable ",
                          t.vars().var(v).name));
        }
        if (t.vars().var(v).sort != VarSort::kId) {
          error_at(rel_loc(rel.name),
                   StrCat("relation ", rel.name, ": set variable ",
                          t.vars().var(v).name, " must be an ID variable"));
        }
      }
      if (rel.vars.empty()) {
        error_at(rel_loc(rel.name),
                 StrCat("artifact relation ", rel.name, " of arity 0"));
      }
    }
  }

  // Internal services: conditions over the task's scope; every set
  // update must target a declared relation (the generalized form of
  // restriction 5), at most once per relation (CheckDeltaTargets,
  // shared with the POR eligibility bits).
  for (const InternalService& s : t.services()) {
    Status pre = s.pre->CheckWellFormed(t.vars(), schema);
    if (!pre.ok()) {
      error_at(svc_loc(s.name),
               StrCat("service ", s.name, " pre: ", pre.message()));
    }
    Status post = s.post->CheckWellFormed(t.vars(), schema);
    if (!post.ok()) {
      error_at(svc_loc(s.name),
               StrCat("service ", s.name, " post: ", post.message()));
    }
  }
  {
    std::vector<std::string> delta_errors;
    for (const InternalService& s : t.services()) {
      CheckDeltaTargets(t, s, &delta_errors);
    }
    for (const std::string& msg : delta_errors) error(msg);
  }

  // Input mapping f_in: partial 1-1, sort-preserving.
  {
    std::set<int> own, parent_vars;
    for (const auto& [own_var, parent_var] : t.fin()) {
      if (own_var < 0 || own_var >= t.vars().size()) {
        error(StrCat("input variable index ", own_var, " out of scope"));
        continue;
      }
      if (!own.insert(own_var).second) {
        error(StrCat("variable ", t.vars().var(own_var).name,
                     " is an input target twice (f_in must be 1-1)"));
      }
      if (!t.is_root()) {
        const Task& p = system.task(t.parent());
        if (parent_var < 0 || parent_var >= p.vars().size()) {
          error(StrCat("input source index ", parent_var,
                       " out of parent scope"));
          continue;
        }
        if (!parent_vars.insert(parent_var).second) {
          error(StrCat("parent variable ", p.vars().var(parent_var).name,
                       " passed twice (f_in must be 1-1)"));
        }
        if (p.vars().var(parent_var).sort != t.vars().var(own_var).sort) {
          error(StrCat("input ", t.vars().var(own_var).name,
                       " has a different sort than its source"));
        }
      }
    }
  }

  // Output mapping f_out: partial 1-1, sort-preserving, and the parent
  // return targets must be disjoint from the task's input sources --
  // restriction 3 / Definition 6(ii): x̄^T_{Tc↑} ∩ x̄^T_in = ∅, where
  // x̄^T_in are the parent's own input variables.
  if (!t.is_root()) {
    const Task& p = system.task(t.parent());
    std::set<int> targets, own;
    std::set<int> parent_inputs;
    for (const auto& [pv_own, pv_parent] : p.fin()) {
      (void)pv_parent;
      parent_inputs.insert(pv_own);
    }
    for (const auto& [parent_var, own_var] : t.fout()) {
      if (parent_var < 0 || parent_var >= p.vars().size()) {
        error(StrCat("return target index ", parent_var,
                     " out of parent scope"));
        continue;
      }
      if (own_var < 0 || own_var >= t.vars().size()) {
        error(StrCat("return source index ", own_var, " out of scope"));
        continue;
      }
      if (!targets.insert(parent_var).second) {
        error(StrCat("parent variable ", p.vars().var(parent_var).name,
                     " is a return target twice (f_out must be 1-1)"));
      }
      if (!own.insert(own_var).second) {
        error(StrCat("variable ", t.vars().var(own_var).name,
                     " returned twice (f_out must be 1-1)"));
      }
      if (p.vars().var(parent_var).sort != t.vars().var(own_var).sort) {
        error(StrCat("return ", t.vars().var(own_var).name,
                     " has a different sort than its target"));
      }
      if (parent_inputs.count(parent_var) > 0) {
        error(StrCat("parent variable ", p.vars().var(parent_var).name,
                     " is both an input of the parent and a return target "
                     "(violates restriction 3)"));
      }
    }
    // Opening pre-condition lives in the parent's scope.
    Status open = t.opening_pre()->CheckWellFormed(p.vars(), schema);
    if (!open.ok()) error(StrCat("opening pre: ", open.message()));
  } else {
    if (!t.fout().empty()) error("root task cannot return variables");
    if (t.closing_pre()->kind() != CondKind::kFalse) {
      error("root task must have closing pre-condition false");
    }
  }

  Status close = t.closing_pre()->CheckWellFormed(t.vars(), schema);
  if (!close.ok()) error(StrCat("closing pre: ", close.message()));
}

}  // namespace

std::vector<std::string> ValidateSystemAll(const ArtifactSystem& system,
                                           const SpecLocations* locs) {
  std::vector<std::string> errors;
  Status schema = system.schema().Validate();
  if (!schema.ok()) errors.push_back(schema.message());
  if (system.num_tasks() == 0) {
    errors.push_back("artifact system has no tasks");
    return errors;
  }
  // Tasks resolve by name across the whole hierarchy (properties'
  // [φ]@T and open(T), source locations), so names are global.
  std::set<std::string> task_names;
  for (TaskId t = 0; t < system.num_tasks(); ++t) {
    const std::string& name = system.task(t).name();
    if (!task_names.insert(name).second) {
      std::string where = locs == nullptr ? std::string()
                                          : locs->Render(locs->Task(name));
      errors.push_back(StrCat(where.empty() ? "" : StrCat(where, ": "),
                              "duplicate task ", name));
    }
  }
  for (TaskId t = 0; t < system.num_tasks(); ++t) {
    CheckTask(system, system.task(t), locs, &errors);
  }
  // Global pre-condition Π over the root's variables (the paper scopes
  // it to the root's input variables; we check the variables mentioned
  // are indeed inputs).
  const Task& root = system.task(system.root());
  Status pre = system.global_pre()->CheckWellFormed(root.vars(),
                                                    system.schema());
  if (!pre.ok()) {
    errors.push_back(StrCat("global pre-condition: ", pre.message()));
  } else {
    std::set<int> inputs;
    for (const auto& [own, parent] : root.fin()) {
      (void)parent;
      inputs.insert(own);
    }
    std::vector<int> vars;
    system.global_pre()->CollectVars(&vars);
    for (int v : vars) {
      if (inputs.count(v) == 0) {
        errors.push_back(
            StrCat("global pre-condition mentions non-input variable ",
                   root.vars().var(v).name));
      }
    }
  }
  return errors;
}

Status ValidateSystem(const ArtifactSystem& system,
                      const SpecLocations* locs) {
  std::vector<std::string> errors = ValidateSystemAll(system, locs);
  if (errors.empty()) return Status::Ok();
  return Status::InvalidArgument(errors.front());
}

}  // namespace has
