#include "model/independence.h"

#include "common/strings.h"

namespace has {

namespace {

void CollectDbRelations(const Condition& c, std::set<RelationId>* out) {
  std::vector<const Condition*> atoms;
  c.CollectAtoms(&atoms);
  for (const Condition* atom : atoms) {
    if (atom->kind() == CondKind::kRel) out->insert(atom->relation());
  }
}

}  // namespace

TaskIndependence TaskIndependence::Analyze(const Task& task,
                                           std::vector<std::string>* errors) {
  TaskIndependence out;
  out.n_ = static_cast<int>(task.services().size());
  out.footprints_.reserve(task.services().size());

  std::set<int> inputs;
  for (int v : task.InputVars()) inputs.insert(v);

  for (const InternalService& svc : task.services()) {
    ServiceFootprint fp;
    {
      std::vector<int> vars;
      if (svc.pre) svc.pre->CollectVars(&vars);
      fp.pre_vars.insert(vars.begin(), vars.end());
      vars.clear();
      if (svc.post) svc.post->CollectVars(&vars);
      fp.post_vars.insert(vars.begin(), vars.end());
    }
    if (svc.pre) CollectDbRelations(*svc.pre, &fp.db_relations);
    if (svc.post) CollectDbRelations(*svc.post, &fp.db_relations);

    auto touch_var = [&](int v) {
      (inputs.count(v) != 0 ? fp.input_reads : fp.noninput_vars).insert(v);
    };
    for (int v : fp.pre_vars) touch_var(v);
    for (int v : fp.post_vars) touch_var(v);

    // δ targets, validated as they are harvested: an out-of-range or
    // repeated relation index is a spec error (the generalized form of
    // restriction 5) and contributes nothing to the footprint.
    auto add_targets = [&](const std::vector<int>& rels, bool is_insert,
                           const char* verb) {
      std::set<int> seen;
      for (int r : rels) {
        if (r < 0 || r >= task.num_set_relations()) {
          if (errors != nullptr) {
            errors->push_back(
                StrCat("service ", svc.name, " ", verb,
                       "s an artifact relation the task does not declare"));
          }
          continue;
        }
        if (!seen.insert(r).second) {
          if (errors != nullptr) {
            errors->push_back(StrCat("service ", svc.name, " ", verb,
                                     "s relation ",
                                     task.set_relations()[r].name, " twice"));
          }
          continue;
        }
        (is_insert ? fp.insert_rels : fp.retrieve_rels).push_back(r);
        for (int v : task.set_relations()[r].vars) touch_var(v);
      }
    };
    add_targets(svc.insert_rels, /*is_insert=*/true, "insert");
    add_targets(svc.retrieve_rels, /*is_insert=*/false, "retrieve");

    out.footprints_.push_back(std::move(fp));
  }

  return out;
}

}  // namespace has
