// Parameterized HAS families, each with a canonical property: the
// workloads of the counter-gated benches (bench_pruning, bench_multirel,
// bench_por, bench_slice) and of the tests, and, through
// MakeDeepHierarchy, of perfbench's deep_h4.
//
// MakeWorkload spans the schema classes of the paper's Tables 1 and 2
// ({acyclic, linearly-cyclic, cyclic} × {without, with artifact
// relations} × {without, with arithmetic}). At the default
// max_nav_depth of 2 neither `size` nor the schema class changes the
// exploration: for sizes 2–5 and all three classes at depth 2, slicing
// on or off, (cov_nodes, product_states) is (9, 9) without sets,
// (47, 51) with sets, and (15, 15) and (67, 73) with arithmetic. Only
// the navigation bound h(T) grows with the class (tests/nav_test.cc).
//
// Every family's own property is VIOLATED, so its root exploration
// ends soon after the first blocking state (the root cut,
// core/task_vass.h); WithHoldingProperty gives the same system a
// property that holds, whose root and children explore in full.
#ifndef HAS_BENCH_WORKLOADS_H_
#define HAS_BENCH_WORKLOADS_H_

#include "hltl/hltl.h"
#include "model/artifact_system.h"

namespace has {
namespace bench {

struct Workload {
  ArtifactSystem system;
  HltlProperty property;
  std::string name;
};

/// Schema builders per class. `size` scales the number of relations.
DatabaseSchema AcyclicSchema(int size);
DatabaseSchema LinearlyCyclicSchema(int size);
DatabaseSchema CyclicSchema(int size);

/// A depth-`depth` chain of tasks over the given schema; every task has
/// `width` extra ID variables navigating the schema, and optionally an
/// artifact relation and/or a linear-arithmetic guard. The property is
/// a hierarchical safety formula spanning all levels.
Workload MakeWorkload(SchemaClass schema_class, int size, int depth,
                      bool with_sets, bool with_arith);

/// Deeper-hierarchy family (beyond the Tables 1–2 rows): a chain of
/// `depth` (≥ 3 is the interesting regime) tasks over an acyclic
/// schema, with TWO relation-bound work services and an artifact
/// relation per level — the per-level branching widens the product and
/// every level of the recursion triggers child R_T queries, which is
/// what stresses the explorer's oracle path.
Workload MakeDeepHierarchy(int depth, int size);

/// Adversarial cyclic-schema family: every relation sits on two dense
/// foreign-key cycles and tasks run work services over TWO distinct
/// relations plus an artifact relation, so navigation-closed iso types
/// blow up combinatorially — the worst case for the interning layer.
Workload MakeAdversarialCyclic(int size, int depth);

/// Multi-variable-set family (ROADMAP "wider artifact relations"):
/// every task's artifact relation S_T ranges over a TUPLE of
/// `set_width` distinct ID variables (the model's s̄_T), each bound to
/// a different relation by its own work service. Wider tuples mean
/// wider TS-isomorphism types — more counter dimensions per product —
/// and more set-insert/retrieve interleavings, which is what stresses
/// the coverability layer's antichain pruning and counter machinery.
/// (Width is one axis; the NUMBER of relations is the other — see
/// MakeMultiRelation.)
Workload MakeMultiSet(int size, int depth, int set_width);

/// Multi-relation family: every task declares `num_rels` artifact
/// relations A0 … A{k-1} (the model's S_T,1 … S_T,k), each over its own
/// ID variable with its own bind/store/load services, plus — from two
/// relations up — a `rotate` service retrieving from A0 and inserting
/// into A1 in ONE delta. Each relation contributes its own counter-
/// dimension group to every product VASS, so this family scales the
/// number of independent counter groups (where MakeMultiSet scales the
/// width of a single group).
Workload MakeMultiRelation(int size, int depth, int num_rels);

/// Sliceable multi-relation family (the cone-of-influence-slicing
/// showcase): MakeMultiRelation plus, per task, an insert-only audit
/// relation nothing ever retrieves, two never-mentioned variables, and
/// a statically dead service — all invisible to the property, so the
/// slicer (VerifierOptions::slice) strips them before the product VASS
/// is built. Slice-on rows must show strictly fewer counter_dims and
/// cov_nodes than their slice-off siblings at identical verdicts
/// (bench_slice and its CI counter gate).
Workload MakeSlicedMultiRelation(int size, int depth, int num_rels);

/// Commuting-services family (the partial-order-reduction showcase):
/// every task declares `width` artifact relations, each with ONE
/// insert-only store service over its own ID variable — pairwise
/// disjoint footprints, so all stores commute and every one is
/// statically ample-eligible (insert-only, unobserved by the property).
/// Without reduction the per-state fan-out grows with `width`; with
/// VerifierOptions::por the explorer follows a single store per state
/// until the inserts saturate, collapsing the interleaving lattice to
/// one diagonal. The retrieve-free design is deliberate: it isolates
/// the reduction from the antichain-pruning effects retrieves trigger.
Workload MakeCommutingServices(int width, int depth);

/// The same system with a property that HOLDS: G(close(T1) → amount =
/// 1) on the root T0. In every family here except MakeWorkload with
/// arithmetic, T1 closes only with amount = 1 and returns it into the
/// root's amount (variable 1), so no run violates the property, the
/// root product never reaches a blocking state, and the root and every
/// child explore in full. The name gains "/holds".
Workload WithHoldingProperty(Workload w);

}  // namespace bench
}  // namespace has

#endif  // HAS_BENCH_WORKLOADS_H_
