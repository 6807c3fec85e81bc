// Antichain subsumption pruning (KarpMillerOptions::prune_coverability
// / VerifierOptions::prune_coverability).
//
// Correctness bar (ISSUE 3): verifier verdicts must be IDENTICAL with
// pruning on vs. off — across the Table-1 workloads, the travel specs,
// the deep-hierarchy / adversarial-cyclic families and the
// multi-variable-set family. On top of that the pruned build itself
// must be deterministic (node-for-node equality and equal pruning
// counters across repeated builds), preserve exactly the reachable
// VASS states, and actually prune (strictly fewer nodes on
// subsumption-heavy systems).
#include <gtest/gtest.h>

#include <set>

#include "builders.h"
#include "core/verifier.h"
#include "spec/parser.h"
#include "test_paths.h"
#include "vass/karp_miller.h"
#include "workloads.h"

namespace has {
namespace {

/// A VASS with heavy subsumption: the hub keeps re-entering pump states
/// with ever-larger counters, so most successors are dominated by an
/// earlier (accelerated) node.
ExplicitVass PumpVass(int width) {
  ExplicitVass v(2 * width + 2);
  for (int i = 0; i < width; ++i) {
    v.AddAction(0, {{i, +1}}, 1 + i);             // fan out, pump counter i
    v.AddAction(1 + i, {{i, +1}}, 1 + i);         // keep pumping (→ ω)
    v.AddAction(1 + i, {{i, -1}}, 1 + width + i); // spend
    v.AddAction(1 + width + i, {}, 0);            // back to the hub
  }
  Delta all_spend;
  for (int i = 0; i < width; ++i) all_spend.emplace_back(i, -1);
  v.AddAction(0, all_spend, 2 * width + 1);       // gated target
  return v;
}

/// A VASS whose distinct markings are genuinely COMPARABLE (no exact
/// duplicates), so domination does work plain dedup cannot. Left wing:
/// three openings into one chain with markings (3) > (2) > (1), the
/// generous one first — the dominated two are dropped before interning
/// and their whole chains never exist. Right wing: the poor opening
/// first, so the rich newcomer must DEACTIVATE it, cutting its
/// not-yet-built chain.
ExplicitVass SubsumptionVass(int len) {
  // States: 0 = root; 1..len = left chain; len+1..2*len = right chain.
  ExplicitVass v(2 * len + 1);
  v.AddAction(0, {{0, +3}}, 1);
  v.AddAction(0, {{0, +2}}, 1);
  v.AddAction(0, {{0, +1}}, 1);
  for (int i = 1; i < len; ++i) v.AddAction(i, {}, i + 1);
  v.AddAction(0, {{1, +1}}, len + 1);
  v.AddAction(0, {{1, +2}}, len + 1);
  for (int i = len + 1; i < 2 * len; ++i) v.AddAction(i, {}, i + 1);
  return v;
}

std::set<int> StatesOf(const KarpMiller& g) {
  std::set<int> states;
  for (int n = 0; n < g.num_nodes(); ++n) states.insert(g.node_state(n));
  return states;
}

TEST(PrunedKarpMillerTest, PreservesReachableStates) {
  for (bool subsumption : {false, true}) {
    ExplicitVass v1 = subsumption ? SubsumptionVass(4) : PumpVass(3);
    KarpMiller full(&v1, {});
    full.Build({0});
    ExplicitVass v2 = subsumption ? SubsumptionVass(4) : PumpVass(3);
    KarpMillerOptions options;
    options.prune_coverability = true;
    KarpMiller pruned(&v2, options);
    pruned.Build({0});
    // State reachability is exactly preserved, and pruning never grows
    // the graph.
    EXPECT_EQ(StatesOf(full), StatesOf(pruned)) << subsumption;
    EXPECT_LE(pruned.num_nodes(), full.num_nodes()) << subsumption;
    EXPECT_GT(pruned.pruned_successors(), 0u) << subsumption;
    EXPECT_FALSE(pruned.truncated());
  }
}

TEST(PrunedKarpMillerTest, DominationPrunesAndDeactivates) {
  const int len = 5;
  ExplicitVass v1 = SubsumptionVass(len);
  KarpMiller full(&v1, {});
  full.Build({0});
  ExplicitVass v2 = SubsumptionVass(len);
  KarpMillerOptions options;
  options.prune_coverability = true;
  KarpMiller pruned(&v2, options);
  pruned.Build({0});

  // Full: root + three left chains + two right chains = 1 + 5*len.
  EXPECT_EQ(full.num_nodes(), 1 + 5 * len);
  // Pruned: root + one left chain + the retired right opening + one
  // right chain — the dominated chains were never built.
  EXPECT_EQ(pruned.num_nodes(), 2 * len + 2);
  // The two dominated left openings were dropped before interning...
  EXPECT_EQ(pruned.pruned_successors(), 2u);
  // ...and the poor right opening was retired by the rich newcomer.
  EXPECT_EQ(pruned.deactivated_nodes(), 1u);
  // Each prune point left a cover-edge: two drops plus one retirement.
  EXPECT_EQ(pruned.cover_edges(), 3u);
  EXPECT_GE(full.num_nodes(), 2 * pruned.num_nodes());
}

TEST(PrunedKarpMillerTest, NodesFormAnAntichainPerState) {
  // No node's marking may be ≤ any EARLIER node's marking of the same
  // VASS state — the invariant behind both termination and the
  // coverage argument (every dropped candidate sits below some
  // retained, eventually-expanded node).
  ExplicitVass v = PumpVass(3);
  KarpMillerOptions options;
  options.prune_coverability = true;
  KarpMiller g(&v, options);
  g.Build({0});
  for (int j = 0; j < g.num_nodes(); ++j) {
    for (int i = 0; i < j; ++i) {
      if (g.node_state(i) != g.node_state(j)) continue;
      EXPECT_FALSE(marking::LessEq(g.node_marking(j), g.node_marking(i)))
          << "node " << j << " dominated by earlier node " << i;
    }
  }
}

TEST(PrunedKarpMillerTest, RealEdgesFormAForestCoverEdgesCloseWalks) {
  // Every surviving successor creates a NEW node, so the pruned
  // graph's REAL edges are exactly its spanning forest; the closed-
  // walk structure lasso analysis needs lives in the cover-edges
  // recorded at the prune points (one per dropped successor, one per
  // retired node).
  ExplicitVass v = PumpVass(3);
  KarpMillerOptions options;
  options.prune_coverability = true;
  KarpMiller g(&v, options);
  g.Build({0});
  size_t roots = 0, real = 0, cover = 0;
  for (int n = 0; n < g.num_nodes(); ++n) {
    if (g.node_parent(n) == -1) ++roots;
    for (const KarpMiller::Edge& e : g.edges(n)) {
      if (e.cover) {
        ++cover;
        // Drop cover-edges keep the dropped transition's label; retire
        // cover-edges are label-less with an empty delta.
        if (e.label < 0) EXPECT_TRUE(e.delta.empty());
      } else {
        ++real;
        // A real pruned edge always points at a strictly newer node.
        EXPECT_GT(e.target, n);
      }
    }
  }
  EXPECT_EQ(real, static_cast<size_t>(g.num_nodes()) - roots);
  EXPECT_EQ(cover, g.cover_edges());
  EXPECT_EQ(cover, g.pruned_successors() + g.deactivated_nodes());
  EXPECT_EQ(g.TotalEdges(), real + cover);
  EXPECT_GT(cover, 0u);
}

TEST(PrunedKarpMillerTest, RepeatedPrunedBuildIsNodeIdentical) {
  for (int variant = 0; variant < 3; ++variant) {
    auto make = [&]() {
      return variant == 0 ? PumpVass(2)
             : variant == 1 ? PumpVass(4)
                            : SubsumptionVass(5);
    };
    KarpMillerOptions options;
    options.prune_coverability = true;
    ExplicitVass v1 = make();
    KarpMiller first(&v1, options);
    first.Build({0});
    ExplicitVass v2 = make();
    KarpMiller again(&v2, options);
    again.Build({0});
    const std::string what = "variant=" + std::to_string(variant);
    ASSERT_EQ(first.num_nodes(), again.num_nodes()) << what;
    for (int n = 0; n < first.num_nodes(); ++n) {
      EXPECT_EQ(first.node_state(n), again.node_state(n))
          << what << " " << n;
      EXPECT_EQ(first.node_marking(n), again.node_marking(n))
          << what << " " << n;
      EXPECT_EQ(first.node_parent(n), again.node_parent(n))
          << what << " " << n;
      ASSERT_EQ(first.edges(n).size(), again.edges(n).size())
          << what << " " << n;
      for (size_t i = 0; i < first.edges(n).size(); ++i) {
        EXPECT_EQ(first.edges(n)[i].target, again.edges(n)[i].target)
            << what << " " << n << " edge " << i;
        EXPECT_EQ(first.edges(n)[i].label, again.edges(n)[i].label)
            << what << " " << n << " edge " << i;
        EXPECT_EQ(first.edges(n)[i].cover, again.edges(n)[i].cover)
            << what << " " << n << " edge " << i;
      }
      EXPECT_EQ(first.node_deactivated(n), again.node_deactivated(n))
          << what << " " << n;
    }
    // Pruning counters are part of the determinism contract —
    // cover-edges included (same targets, same interleaved order).
    EXPECT_EQ(first.pruned_successors(), again.pruned_successors()) << what;
    EXPECT_EQ(first.deactivated_nodes(), again.deactivated_nodes()) << what;
    EXPECT_EQ(first.antichain_peak(), again.antichain_peak()) << what;
    EXPECT_EQ(first.cover_edges(), again.cover_edges()) << what;
  }
}

/// Cross-validation core: verdict equality pruned vs. unpruned.
void ExpectPruningEquivalence(const ArtifactSystem& system,
                              const HltlProperty& property,
                              const std::string& what,
                              VerifierOptions base = {}) {
  base.prune_coverability = false;
  VerifyResult reference = Verify(system, property, base);
  VerifierOptions options = base;
  options.prune_coverability = true;
  VerifyResult pruned = Verify(system, property, options);
  EXPECT_EQ(pruned.verdict, reference.verdict) << what;
  // Lasso analysis runs on the pruned graph itself (cover-edges);
  // the full-graph fallback is gone for good.
  EXPECT_EQ(pruned.stats.full_graph_builds, 0u) << what;
  // Without fallback rebuilds, pruning never explores more nodes
  // than the full build.
  EXPECT_LE(pruned.stats.cov_nodes, reference.stats.cov_nodes) << what;
}

TEST(PruningCrossValidation, BuilderSystems) {
  ExpectPruningEquivalence(testing::FlatSystem(true),
                           testing::AlwaysProperty(0, Condition::IsNull(0)),
                           "flat/sets");
  {
    ArtifactSystem system = testing::ParentChildSystem();
    LinearExpr e = LinearExpr::Var(1);
    HltlProperty property = testing::AlwaysProperty(
        0, Condition::Arith(LinearConstraint{e, Relop::kEq}));
    ExpectPruningEquivalence(system, property, "parent-child");
  }
}

TEST(PruningCrossValidation, Table1Workloads) {
  for (SchemaClass sc : {SchemaClass::kAcyclic, SchemaClass::kCyclic}) {
    bench::Workload w = bench::MakeWorkload(sc, /*size=*/3, /*depth=*/2,
                                            /*with_sets=*/true,
                                            /*with_arith=*/false);
    ExpectPruningEquivalence(w.system, w.property, w.name);
  }
}

TEST(PruningCrossValidation, DeepHierarchy) {
  bench::Workload w = bench::MakeDeepHierarchy(/*depth=*/3, /*size=*/3);
  ExpectPruningEquivalence(w.system, w.property, w.name);
}

TEST(PruningCrossValidation, AdversarialCyclic) {
  bench::Workload w = bench::MakeAdversarialCyclic(/*size=*/3, /*depth=*/2);
  ExpectPruningEquivalence(w.system, w.property, w.name);
}

TEST(PruningCrossValidation, MultiVariableSet) {
  bench::Workload w = bench::MakeMultiSet(/*size=*/3, /*depth=*/2,
                                          /*set_width=*/2);
  ExpectPruningEquivalence(w.system, w.property, w.name);
}

TEST(PruningCrossValidation, MultiRelation) {
  // Two artifact relations per task (each its own counter-dimension
  // group), including the cross-relation rotate delta.
  bench::Workload w = bench::MakeMultiRelation(/*size=*/3, /*depth=*/2,
                                               /*num_rels=*/2);
  ExpectPruningEquivalence(w.system, w.property, w.name);
}

TEST(PruningCrossValidation, TravelMini) {
  std::string text = LoadSpec("travel_mini.has");
  ASSERT_FALSE(text.empty()) << "travel_mini.has not found";
  auto parsed = ParseSpec(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  VerifierOptions base;
  base.max_nav_depth = 2;
  for (const char* prop : {"discount_policy", "cancel_closes_cancelled"}) {
    const HltlProperty* p = parsed->FindProperty(prop);
    ASSERT_NE(p, nullptr) << prop;
    ExpectPruningEquivalence(parsed->system, *p,
                             std::string("travel_mini/") + prop, base);
  }
}

}  // namespace
}  // namespace has
