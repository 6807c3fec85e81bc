// Static independence between internal services (the VERIFAS
// optimization, arXiv 1705.10007), the raw material of partial-order
// reduction: a service's validated δ targets tell whether it only grows
// artifact relations. Validation and the successor pipeline share this
// one check (CheckDeltaTargets); the pipeline's eligibility bits
// (core/successor.cc) need nothing else to pick ample services during
// expansion (core/task_vass.cc, vass/karp_miller.cc).
#ifndef HAS_MODEL_INDEPENDENCE_H_
#define HAS_MODEL_INDEPENDENCE_H_

#include <string>
#include <vector>

#include "model/task.h"

namespace has {

/// A service's validated δ targets: its +S_T,i and -S_T,i relation
/// indices in declaration order, without the out-of-range and repeated
/// ones (spec errors: the generalized form of restriction 5).
struct DeltaTargets {
  std::vector<int> insert_rels;
  std::vector<int> retrieve_rels;

  /// σ only grows artifact relations: its counter deltas are all
  /// non-negative, so it can never be marking-disabled. The key
  /// left-mover ingredient of the ample-set reduction.
  bool insert_only() const {
    return !insert_rels.empty() && retrieve_rels.empty();
  }
};

/// The δ-target check shared by validation (model/validate.cc) and the
/// POR eligibility bits (core/successor.cc). When `errors` is non-null,
/// each dropped target appends its validation error, inserts before
/// retrieves.
DeltaTargets CheckDeltaTargets(const Task& task, const InternalService& svc,
                               std::vector<std::string>* errors = nullptr);

}  // namespace has

#endif  // HAS_MODEL_INDEPENDENCE_H_
