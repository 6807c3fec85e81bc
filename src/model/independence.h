// Static independence analysis between internal services (the VERIFAS
// optimization, arXiv 1705.10007): per-service read/write footprints,
// the raw material of partial-order reduction. Validation computes them
// once per task (model/validate.cc), and the successor pipeline reads
// the derived eligibility bits (core/successor.cc) to pick ample
// services during expansion (core/task_vass.cc, vass/karp_miller.cc).
#ifndef HAS_MODEL_INDEPENDENCE_H_
#define HAS_MODEL_INDEPENDENCE_H_

#include <set>
#include <string>
#include <vector>

#include "model/task.h"

namespace has {

/// The static footprint of one internal service σ = (π, ψ, δ): which
/// variables its conditions read/write, split by input-boundness, which
/// database relations its atoms query, and which artifact relations its
/// δ inserts into / retrieves from. Artifact-relation tuple variables
/// count toward the variable footprint too (an insert reads s̄_T,i at
/// the pre-state, a retrieve writes it at the post-state).
struct ServiceFootprint {
  std::set<int> pre_vars;       ///< variables mentioned by π
  std::set<int> post_vars;      ///< variables mentioned by ψ
  std::set<int> input_reads;    ///< footprint ∩ x̄_in (stable under σ)
  std::set<int> noninput_vars;  ///< footprint \ x̄_in (re-decided by σ)
  std::set<RelationId> db_relations;  ///< DB relations in π/ψ atoms
  std::vector<int> insert_rels;       ///< validated +S_T,i targets
  std::vector<int> retrieve_rels;     ///< validated -S_T,i targets

  /// σ only grows artifact relations: its counter deltas are all
  /// non-negative, so it can never be marking-disabled. The key
  /// left-mover ingredient of the ample-set reduction.
  bool insert_only() const {
    return !insert_rels.empty() && retrieve_rels.empty();
  }
};

/// Per-task independence: footprints for every internal service.
class TaskIndependence {
 public:
  /// Analyzes `task`. Malformed δ targets (out-of-range or duplicate
  /// relation indices) are skipped from the footprint and, when
  /// `errors` is non-null, reported with the exact validation-error
  /// wording (validate.cc routes its service δ checks through here so
  /// the footprints are computed where the checks already walk the data).
  static TaskIndependence Analyze(const Task& task,
                                  std::vector<std::string>* errors = nullptr);

  int num_services() const { return n_; }
  const ServiceFootprint& footprint(int i) const {
    return footprints_[static_cast<size_t>(i)];
  }

 private:
  std::vector<ServiceFootprint> footprints_;
  int n_ = 0;
};

}  // namespace has

#endif  // HAS_MODEL_INDEPENDENCE_H_
