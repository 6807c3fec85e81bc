// Foreign-key graph analysis (Definition 1 and Appendix C.3): schema
// class detection (acyclic / linearly-cyclic / cyclic), counting of FK
// paths F(n), and the navigation-depth bound h(T) used by the symbolic
// representation (Section 4.1).
//
// All counts saturate at kSaturated: for cyclic schemas h(T) is a tower
// of exponentials, far beyond any value the verifier could instantiate.
// The verifier runs at the fixed VerifierOptions::max_nav_depth;
// core/nav.h reports the unclamped bound per task.
#ifndef HAS_SCHEMA_FK_GRAPH_H_
#define HAS_SCHEMA_FK_GRAPH_H_

#include <cstdint>
#include <vector>

#include "schema/schema.h"

namespace has {

/// Saturation value for path/depth counts that exceed any practical
/// bound.
inline constexpr uint64_t kSaturated = UINT64_C(1) << 40;

/// Analysis of the labeled graph FK whose nodes are relations and whose
/// edges Ri -F-> Rj are foreign keys.
class FkGraph {
 public:
  explicit FkGraph(const DatabaseSchema& schema);

  /// The schema class per Definition 1 (acyclicity of FK; linear
  /// cyclicity: each relation on at most one simple cycle).
  SchemaClass Classify() const;

  /// Number of distinct FK paths of length at most n starting from
  /// relation r (the empty path counts). Saturates at kSaturated.
  uint64_t CountPaths(RelationId r, uint64_t n) const;

  /// F(n) of the paper: max over all relations of CountPaths(r, n).
  uint64_t MaxPaths(uint64_t n) const;

  /// True iff relation `to` is reachable from `from` via FK edges
  /// (including the trivial path).
  bool Reachable(RelationId from, RelationId to) const;

  /// Out-neighbours of r (FK targets, with multiplicity).
  const std::vector<RelationId>& Successors(RelationId r) const {
    return succ_[r];
  }

  int num_relations() const { return static_cast<int>(succ_.size()); }

 private:
  bool HasCycle() const;
  /// Number of simple cycles through each relation, capped at 2.
  std::vector<int> SimpleCycleMembership() const;

  std::vector<std::vector<RelationId>> succ_;
};

/// Computes the paper's navigation depth bound
///   h(T) = 1 + |x̄T| · F(δ),  δ = 1 for leaves, max child h(T) otherwise,
/// bottom-up over a task tree described by (num_vars, children) pairs.
/// Saturates at kSaturated.
uint64_t NavigationDepthBound(const FkGraph& fk, uint64_t num_vars,
                              const std::vector<uint64_t>& child_depths);

}  // namespace has

#endif  // HAS_SCHEMA_FK_GRAPH_H_
