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

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

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

TEST(PrunedKarpMillerTest, DroppedSuccessorCoversToMinimumIdDominator) {
  // State 1 holds two incomparable entries, (2,0) and (0,2); the zero
  // marking arriving through state 2 is dominated by both, and its
  // cover-edge must target the smaller node id whichever marking that
  // node carries.
  for (bool swap : {false, true}) {
    ExplicitVass v(3);
    v.AddAction(0, {{swap ? 1 : 0, +2}}, 1);
    v.AddAction(0, {{swap ? 0 : 1, +2}}, 1);
    v.AddAction(0, {}, 2);
    const int64_t fold = v.AddAction(2, {}, 1);
    KarpMillerOptions options;
    options.prune_coverability = true;
    KarpMiller g(&v, options);
    g.Build({0});
    ASSERT_EQ(g.num_nodes(), 4) << swap;
    const std::vector<int64_t> first =
        swap ? std::vector<int64_t>{0, 2} : std::vector<int64_t>{2};
    EXPECT_EQ(g.node_marking(1), MarkingView(first)) << swap;
    EXPECT_EQ(g.node_state(3), 2) << swap;
    ASSERT_EQ(g.edges(3).size(), 1u) << swap;
    const KarpMiller::Edge& e = g.edges(3)[0];
    EXPECT_TRUE(e.cover) << swap;
    EXPECT_EQ(e.target, 1) << swap;
    EXPECT_EQ(e.label(), fold) << swap;
    EXPECT_EQ(g.pruned_successors(), 1u) << swap;
    EXPECT_EQ(g.deactivated_nodes(), 0u) << swap;
  }
}

TEST(PrunedKarpMillerTest, NewcomerRetiresEveryEntryItStrictlyCovers) {
  // One round creates (1,0) and (0,1) in state 1, then (1,1), which
  // strictly covers both: both are retired by that one absorb, each
  // with one label-less cover-edge to the newcomer.
  ExplicitVass v(2);
  v.AddAction(0, {{0, +1}}, 1);
  v.AddAction(0, {{1, +1}}, 1);
  v.AddAction(0, {{0, +1}, {1, +1}}, 1);
  KarpMillerOptions options;
  options.prune_coverability = true;
  KarpMiller g(&v, options);
  g.Build({0});
  ASSERT_EQ(g.num_nodes(), 4);
  EXPECT_EQ(g.node_marking(3), MarkingView(std::vector<int64_t>{1, 1}));
  for (int victim : {1, 2}) {
    EXPECT_TRUE(g.node_deactivated(victim)) << victim;
    ASSERT_EQ(g.edges(victim).size(), 1u) << victim;
    const KarpMiller::Edge& e = g.edges(victim)[0];
    EXPECT_TRUE(e.cover) << victim;
    EXPECT_EQ(e.target, 3) << victim;
    EXPECT_EQ(e.label(), -1) << victim;
    EXPECT_TRUE(e.delta().empty()) << victim;
  }
  EXPECT_FALSE(g.node_deactivated(3));
  EXPECT_EQ(g.deactivated_nodes(), 2u);
  EXPECT_EQ(g.cover_edges(), 2u);
  EXPECT_EQ(g.pruned_successors(), 0u);
  EXPECT_EQ(g.antichain_peak(), 2u);
}

/// The graph's edge storage against its counters: TotalEdges() is the
/// sum of the nodes' edge counts, and a node has a source-less edge iff
/// it was retired, in which case that is its only edge: a label-less
/// cover-edge to a node of the same state with a strictly larger
/// marking.
void ExpectEdgeStorageConsistent(const KarpMiller& g,
                                 const std::string& what) {
  size_t total = 0;
  size_t retired = 0;
  for (int n = 0; n < g.num_nodes(); ++n) {
    const KarpMiller::EdgeRange edges = g.edges(n);
    total += edges.size();
    if (!g.node_deactivated(n)) {
      for (const KarpMiller::Edge& e : edges) {
        EXPECT_NE(e.source, nullptr) << what << " node " << n;
      }
      continue;
    }
    ++retired;
    ASSERT_EQ(edges.size(), 1u) << what << " node " << n;
    const KarpMiller::Edge& e = edges[0];
    EXPECT_TRUE(e.cover) << what << " node " << n;
    EXPECT_EQ(e.source, nullptr) << what << " node " << n;
    EXPECT_EQ(e.label(), -1) << what << " node " << n;
    EXPECT_EQ(g.node_state(e.target), g.node_state(n)) << what;
    EXPECT_TRUE(DominanceLeq(g.node_marking(n), g.node_marking(e.target)))
        << what << " node " << n;
    EXPECT_NE(g.node_marking(n), g.node_marking(e.target))
        << what << " node " << n;
  }
  EXPECT_EQ(g.TotalEdges(), total) << what;
  EXPECT_EQ(g.deactivated_nodes(), retired) << what;
}

TEST(PrunedKarpMillerTest, EdgeStorageAccountsForEveryEdge) {
  for (bool prune : {false, true}) {
    for (int family = 0; family < 2; ++family) {
      ExplicitVass v = family == 0 ? PumpVass(3) : SubsumptionVass(4);
      KarpMillerOptions options;
      options.prune_coverability = prune;
      KarpMiller g(&v, options);
      g.Build({0});
      const std::string what = "prune=" + std::to_string(prune) +
                               " family=" + std::to_string(family);
      ExpectEdgeStorageConsistent(g, what);
      // The right wing's poor opening is retired by the rich one.
      if (prune && family == 1) {
        EXPECT_GT(g.deactivated_nodes(), 0u);
      }
    }
  }
  // Product graphs large enough to span several edge chunks (the
  // property holds, so the roots explore in full), with and without
  // POR's ample prefixes.
  bench::Workload w = bench::WithHoldingProperty(
      bench::MakeCommutingServices(/*width=*/3, /*depth=*/2));
  HltlProperty negated = w.property.Negated();
  for (bool por : {false, true}) {
    VerifierOptions options;
    options.por = por;
    RtEngine engine(&w.system, &negated, options, nullptr);
    engine.CheckRoot();
    const TaskId root = w.system.root();
    PartialIsoType empty_input(&w.system.schema(),
                               &w.system.task(root).vars(),
                               engine.context(root).nav_depth());
    size_t edges = 0;
    for (Assignment beta = 0; beta < 8; ++beta) {
      const RtEngine::Entry* entry =
          engine.FindEntry(engine.EntryKey(root, empty_input, Cell(), beta));
      if (entry == nullptr) continue;
      ExpectEdgeStorageConsistent(
          *entry->graph,
          "por=" + std::to_string(por) + " beta=" + std::to_string(beta));
      edges += entry->graph->TotalEdges();
    }
    EXPECT_GT(edges, 1000u) << "por=" << por;
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
        if (e.label() < 0) {
          EXPECT_TRUE(e.delta().empty());
        }
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
        EXPECT_EQ(first.edges(n)[i].label(), again.edges(n)[i].label())
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

TEST(SuccessorListTest, OneHitOrMissPerProcessedNode) {
  // Every processed (expanded, never a retired) node charges exactly
  // one hit or one miss, and each state's list is computed once: the
  // misses are the distinct states among the processed nodes.
  for (bool prune : {false, true}) {
    for (bool subsumption : {false, true}) {
      ExplicitVass v = subsumption ? SubsumptionVass(4) : PumpVass(3);
      KarpMillerOptions options;
      options.prune_coverability = prune;
      KarpMiller g(&v, options);
      g.Build({0});
      ASSERT_FALSE(g.truncated());
      size_t processed = 0;
      std::set<int> states;
      for (int n = 0; n < g.num_nodes(); ++n) {
        if (g.node_deactivated(n)) continue;
        ++processed;
        states.insert(g.node_state(n));
      }
      const std::string what = "prune=" + std::to_string(prune) +
                               " subsumption=" + std::to_string(subsumption);
      EXPECT_EQ(g.succ_cache_hits() + g.succ_cache_misses(), processed)
          << what;
      EXPECT_EQ(g.succ_cache_misses(), states.size()) << what;
      // PumpVass re-enters its pump states at new markings.
      if (!subsumption) {
        EXPECT_GT(g.succ_cache_hits(), 0u) << what;
      }
    }
  }
}

TEST(SuccessorListTest, EdgesReadTheirStatesSuccessorLists) {
  // Edges point into per-state successor lists held in a table that
  // grows with the state ids; a list moved on growth must keep its
  // entries in place. Every edge of an expanded node must read the
  // (label, delta, target state) of an entry of its state's list, in
  // list order, as recomputed from the product after the build. A
  // dangling pointer reads freed memory here (an ASan report). The
  // property holds, so the root products are never cut
  // (core/task_vass.h): they explore in full, and recomputing a state's
  // successors on them after the build gives its list again.
  bench::Workload w = bench::WithHoldingProperty(
      bench::MakeCommutingServices(/*width=*/3, /*depth=*/2));
  HltlProperty negated = w.property.Negated();
  struct Mode {
    bool prune;
    bool por;
  };
  for (Mode mode : {Mode{false, false}, Mode{true, false}, Mode{true, true}}) {
    const std::string what = "prune=" + std::to_string(mode.prune) +
                             " por=" + std::to_string(mode.por);
    VerifierOptions options;
    options.prune_coverability = mode.prune;
    options.por = mode.por;
    RtEngine engine(&w.system, &negated, options, nullptr);
    engine.CheckRoot();
    const TaskId root = w.system.root();
    PartialIsoType empty_input(&w.system.schema(),
                               &w.system.task(root).vars(),
                               engine.context(root).nav_depth());
    int max_states = 0;
    size_t checked = 0;
    for (Assignment beta = 0; beta < 8; ++beta) {
      const RtEngine::Entry* entry =
          engine.FindEntry(engine.EntryKey(root, empty_input, Cell(), beta));
      if (entry == nullptr) continue;
      const KarpMiller& g = *entry->graph;
      max_states = std::max(max_states, entry->vass->num_states());
      std::map<int, std::vector<VassEdge>> fresh;
      for (int n = 0; n < g.num_nodes(); ++n) {
        const std::string where =
            what + " beta=" + std::to_string(beta) + " node " +
            std::to_string(n);
        if (g.node_deactivated(n)) {
          ASSERT_EQ(g.edges(n).size(), 1u) << where;
          EXPECT_EQ(g.edges(n)[0].source, nullptr) << where;
          EXPECT_EQ(g.edges(n)[0].label(), -1) << where;
          EXPECT_TRUE(g.edges(n)[0].delta().empty()) << where;
          continue;
        }
        const int state = g.node_state(n);
        auto it = fresh.find(state);
        if (it == fresh.end()) {
          it = fresh.emplace(state, std::vector<VassEdge>()).first;
          entry->vass->Successors(state, &it->second);
        }
        const std::vector<VassEdge>& list = it->second;
        size_t k = 0;
        for (const KarpMiller::Edge& e : g.edges(n)) {
          ASSERT_NE(e.source, nullptr) << where;
          while (k < list.size() &&
                 !(list[k].label == e.label() && list[k].delta == e.delta() &&
                   list[k].target == g.node_state(e.target))) {
            ++k;
          }
          ASSERT_LT(k, list.size()) << where << ": edge matches no entry";
          ++k;
          ++checked;
        }
      }
    }
    EXPECT_GT(checked, 0u) << what;
    // Enough states that the table was reallocated several times.
    EXPECT_GE(max_states, 64) << what;
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
  // Lasso analysis runs on the pruned graph itself (cover-edges), so
  // pruning never explores more nodes than the full build.
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
