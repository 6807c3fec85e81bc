#include "model/task.h"

namespace has {

std::vector<int> Task::InputVars() const {
  std::vector<int> out;
  out.reserve(fin_.size());
  for (const auto& [own, parent] : fin_) out.push_back(own);
  return out;
}

std::vector<int> Task::ReturnVars() const {
  std::vector<int> out;
  out.reserve(fout_.size());
  for (const auto& [parent, own] : fout_) out.push_back(own);
  return out;
}

}  // namespace has
