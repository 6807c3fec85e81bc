#include "model/independence.h"

#include <algorithm>

#include "common/strings.h"

namespace has {

DeltaTargets CheckDeltaTargets(const Task& task, const InternalService& svc,
                               std::vector<std::string>* errors) {
  DeltaTargets out;
  auto add_targets = [&](const std::vector<int>& rels, const char* verb,
                         std::vector<int>* kept) {
    for (int r : rels) {
      if (r < 0 || r >= task.num_set_relations()) {
        if (errors != nullptr) {
          errors->push_back(
              StrCat("service ", svc.name, " ", verb,
                     "s an artifact relation the task does not declare"));
        }
        continue;
      }
      if (std::find(kept->begin(), kept->end(), r) != kept->end()) {
        if (errors != nullptr) {
          errors->push_back(StrCat("service ", svc.name, " ", verb,
                                   "s relation ",
                                   task.set_relations()[r].name, " twice"));
        }
        continue;
      }
      kept->push_back(r);
    }
  };
  add_targets(svc.insert_rels, "insert", &out.insert_rels);
  add_targets(svc.retrieve_rels, "retrieve", &out.retrieve_rels);
  return out;
}

}  // namespace has
