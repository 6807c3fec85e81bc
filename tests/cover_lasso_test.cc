// The cover-edge lasso path (ISSUE 4): repeated reachability runs
// DIRECTLY on the antichain-pruned coverability graph, traversing the
// cover-edges recorded at the two prune points, instead of rebuilding
// an unpruned graph. Covered here:
//   - a loop that exists in the pruned graph only through cover-edges
//     (every pruned cycle does — real pruned edges are id-increasing);
//   - soundness: cover-jump slack on exact counters must NOT fabricate
//     a lasso the real system does not have (the exact-dimension
//     feasibility floors of vass/repeated.cc);
//   - retire (label-less) cover-edges of deactivated nodes;
//   - witness replay: stem + loop label sequences stay executable;
//   - the old full-graph fallback as a TEST ORACLE: per root memo
//     entry, an unpruned graph built from the same TaskVass must agree
//     with the pruned graph's lasso verdict.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "builders.h"
#include "core/rt_relation.h"
#include "core/verifier.h"
#include "spec/parser.h"
#include "test_paths.h"
#include "vass/karp_miller.h"
#include "vass/repeated.h"
#include "workloads.h"

namespace has {
namespace {

/// An explicit VASS that remembers its actions so witness label
/// sequences can be replayed semantically.
struct ReplayableVass {
  explicit ReplayableVass(int num_states) : vass(num_states) {}
  int64_t Add(int from, Delta delta, int to) {
    int64_t label = vass.AddAction(from, delta, to);
    actions[label] = {from, delta, to};
    return label;
  }
  struct Action {
    int from;
    Delta delta;
    int to;
  };
  ExplicitVass vass;
  std::map<int64_t, Action> actions;
};

/// Replays stem+loop from the all-zero root marking, treating ω-pumped
/// coordinates as "large" (the stem of a Karp–Miller witness may elide
/// pumping repetitions, so a coordinate that went ω is creditable with
/// an arbitrarily high value). Checks state continuity, per-step
/// enabledness and, for the loop, a non-negative net effect on every
/// dimension — together these make the lasso executable forever.
void ExpectWitnessReplays(const ReplayableVass& rv, const KarpMiller& g,
                          const LassoWitness& w) {
  constexpr int64_t kPumped = 1'000'000'000;
  std::vector<int64_t> m;
  int state = 0;
  auto step = [&](int64_t label, const char* phase) {
    auto it = rv.actions.find(label);
    ASSERT_NE(it, rv.actions.end()) << phase << " label " << label;
    EXPECT_EQ(it->second.from, state) << phase << " label " << label;
    for (const auto& [d, c] : it->second.delta) {
      int64_t v = marking::Get(m, d) + c;
      ASSERT_GE(v, 0) << phase << " label " << label << " dim " << d;
      marking::Set(&m, d, v);
    }
    state = it->second.to;
  };
  for (int64_t label : w.stem_labels) step(label, "stem");
  // Credit the pumping the stem elided: the witness node's ω
  // coordinates are reachable at any height.
  for (size_t d = 0; d < g.node_marking(w.node).size(); ++d) {
    if (g.node_marking(w.node)[d] == kOmega) {
      marking::Set(&m, static_cast<int>(d), kPumped);
    }
  }
  EXPECT_EQ(state, g.node_state(w.node));
  std::vector<int64_t> before_loop = m;
  int state_before_loop = state;
  for (int64_t label : w.loop_labels) step(label, "loop");
  EXPECT_EQ(state, state_before_loop);
  size_t dims = std::max(m.size(), before_loop.size());
  for (size_t d = 0; d < dims; ++d) {
    EXPECT_GE(marking::Get(m, static_cast<int>(d)),
              marking::Get(before_loop, static_cast<int>(d)))
        << "loop drains dim " << d;
  }
}

/// Lasso-existence agreement between the pruned graph (cover-edge
/// criterion) and a full graph of the same system (classical
/// criterion), plus witness replay and determinism of the pruned
/// graph's cover structure across repeated builds.
void ExpectPrunedLassoMatchesFull(
    const std::function<ReplayableVass()>& make,
    const std::function<bool(int)>& accepting, const std::string& what) {
  ReplayableVass full_sys = make();
  KarpMiller full(&full_sys.vass, {});
  full.Build({0});
  std::optional<LassoWitness> full_lasso = FindAcceptingLasso(full, accepting);

  ReplayableVass pruned_sys = make();
  KarpMillerOptions options;
  options.prune_coverability = true;
  KarpMiller pruned(&pruned_sys.vass, options);
  pruned.Build({0});
  std::optional<LassoWitness> pruned_lasso =
      FindAcceptingLasso(pruned, accepting);

  EXPECT_EQ(full_lasso.has_value(), pruned_lasso.has_value()) << what;
  if (full_lasso.has_value()) {
    ExpectWitnessReplays(full_sys, full, *full_lasso);
  }
  if (pruned_lasso.has_value()) {
    ExpectWitnessReplays(pruned_sys, pruned, *pruned_lasso);
  }
  // The pruned graph's lasso answer is deterministic because the graph
  // itself is (cover-edges included).
  ReplayableVass again_sys = make();
  KarpMiller again(&again_sys.vass, options);
  again.Build({0});
  ASSERT_EQ(again.num_nodes(), pruned.num_nodes()) << what;
  EXPECT_EQ(again.cover_edges(), pruned.cover_edges()) << what;
  std::optional<LassoWitness> again_lasso =
      FindAcceptingLasso(again, accepting);
  ASSERT_EQ(again_lasso.has_value(), pruned_lasso.has_value()) << what;
  if (again_lasso.has_value()) {
    EXPECT_EQ(again_lasso->node, pruned_lasso->node) << what;
    EXPECT_EQ(again_lasso->stem_labels, pruned_lasso->stem_labels) << what;
    EXPECT_EQ(again_lasso->loop_labels, pruned_lasso->loop_labels) << what;
  }
}

TEST(CoverLassoTest, LoopExistsOnlyThroughCoverEdges) {
  // A --t1(+2)--> B, A --t2(+1)--> B, B --t3(-2)--> A. The pruned
  // graph folds (B,1) into (B,2) and the return to (A,0) into the
  // root, so its ONLY cycle runs through cover-edges; the real system
  // loops forever via t1/t3.
  auto make = []() {
    ReplayableVass rv(2);
    rv.Add(0, {{0, +2}}, 1);
    rv.Add(0, {{0, +1}}, 1);
    rv.Add(1, {{0, -2}}, 0);
    return rv;
  };
  ExpectPrunedLassoMatchesFull(make, [](int s) { return s == 1; },
                               "drop-cover loop");

  // Structure check: the pruned graph has no real cycle at all.
  ReplayableVass rv = make();
  KarpMillerOptions options;
  options.prune_coverability = true;
  KarpMiller g(&rv.vass, options);
  g.Build({0});
  size_t cover = 0;
  for (int n = 0; n < g.num_nodes(); ++n) {
    for (const KarpMiller::Edge& e : g.edges(n)) {
      if (e.cover) ++cover;
      else EXPECT_GT(e.target, n) << "real pruned edges are forward-only";
    }
  }
  EXPECT_GE(cover, 2u);
  auto lasso = FindAcceptingLasso(g, [](int s) { return s == 1; });
  ASSERT_TRUE(lasso.has_value());
  ExpectWitnessReplays(rv, g, *lasso);
}

TEST(CoverLassoTest, CoverSlackDoesNotFabricateLasso) {
  // S --s1(+2)--> B, S --s2--> A, A --a1(+1)--> B, B --b1(-2)--> A.
  // Every run of the real system terminates, and the full graph is
  // acyclic. The pruned graph folds A's successor (B,1) into (B,2)
  // and B's return (A,0) into the existing (A,0): a cover-edge CYCLE
  // with net -1 on an exact counter. The exact-dimension feasibility
  // floors must refuse it — a naive "any cycle" check would report a
  // bogus lasso here.
  auto make = []() {
    ReplayableVass rv(3);
    rv.Add(0, {{0, +2}}, 2);
    rv.Add(0, {}, 1);
    rv.Add(1, {{0, +1}}, 2);
    rv.Add(2, {{0, -2}}, 1);
    return rv;
  };
  for (int accept_state : {1, 2}) {
    ExpectPrunedLassoMatchesFull(
        make, [accept_state](int s) { return s == accept_state; },
        "slack soundness accept=" + std::to_string(accept_state));
  }
  // And explicitly: the pruned graph DOES contain a graph-level cycle
  // (so the agreement above is the criterion's doing, not luck).
  ReplayableVass rv = make();
  KarpMillerOptions options;
  options.prune_coverability = true;
  KarpMiller g(&rv.vass, options);
  g.Build({0});
  EXPECT_GE(g.cover_edges(), 2u);
  EXPECT_FALSE(
      FindAcceptingLasso(g, [](int) { return true; }).has_value());
}

TEST(CoverLassoTest, RetiredNodeKeepsLabelLessCoverEdge) {
  // R --r1--> C and R --r2(+1)--> C in the same round: (C,0) is
  // interned first, then (C,1) strictly covers and DEACTIVATES it, so
  // (C,0) carries a label-less cover-edge to (C,1). The real lasso
  // (r2 then c1, net 0) must be found; the walk through the retired
  // node (r1 then c1, net -1 from an empty counter) must not.
  auto make = []() {
    ReplayableVass rv(2);
    rv.Add(0, {}, 1);
    rv.Add(0, {{0, +1}}, 1);
    rv.Add(1, {{0, -1}}, 0);
    return rv;
  };
  ExpectPrunedLassoMatchesFull(make, [](int s) { return s == 1; },
                               "retired-node epsilon");

  ReplayableVass rv = make();
  KarpMillerOptions options;
  options.prune_coverability = true;
  KarpMiller g(&rv.vass, options);
  g.Build({0});
  EXPECT_EQ(g.deactivated_nodes(), 1u);
  bool found_epsilon = false;
  for (int n = 0; n < g.num_nodes(); ++n) {
    if (!g.node_deactivated(n)) continue;
    ASSERT_EQ(g.edges(n).size(), 1u);
    const KarpMiller::Edge& e = g.edges(n)[0];
    EXPECT_TRUE(e.cover);
    EXPECT_EQ(e.label(), -1);
    EXPECT_TRUE(e.delta().empty());
    // The coverer strictly dominates the retired node.
    EXPECT_EQ(g.node_state(e.target), g.node_state(n));
    EXPECT_TRUE(marking::LessEq(g.node_marking(n), g.node_marking(e.target)));
    found_epsilon = true;
  }
  EXPECT_TRUE(found_epsilon);
}

TEST(CoverLassoTest, PumpFamilySweepMatchesFull) {
  // Pump/spend hubs with ω-acceleration and subsumption-heavy chains:
  // lasso existence must agree between pruned and full graphs for
  // every state taken as the accepting one.
  for (int width : {2, 3}) {
    auto make = [width]() {
      ReplayableVass rv(2 * width + 2);
      for (int i = 0; i < width; ++i) {
        rv.Add(0, {{i, +1}}, 1 + i);
        rv.Add(1 + i, {{i, +1}}, 1 + i);
        rv.Add(1 + i, {{i, -1}}, 1 + width + i);
        rv.Add(1 + width + i, {}, 0);
      }
      Delta all_spend;
      for (int i = 0; i < width; ++i) all_spend.emplace_back(i, -1);
      rv.Add(0, all_spend, 2 * width + 1);
      return rv;
    };
    for (int accept = 0; accept < 2 * width + 2; ++accept) {
      ExpectPrunedLassoMatchesFull(
          make, [accept](int s) { return s == accept; },
          "pump width=" + std::to_string(width) + " accept=" +
              std::to_string(accept));
    }
  }
}

TEST(CoverLassoTest, OmegaDipBeyondBoundDoesNotFabricateLasso) {
  // 2 --(+1)--> 2 (pump, d0 goes ω), 2 --()--> 0, 0 --(-3)--> 1,
  // 1 --(+2)--> 0, accepting state 0. Every lap of the only cycle
  // nets -1 on d0, so state 0 is NOT repeatedly reachable. With
  // bottom-SATURATION of ω-dimension effects the first deepening
  // round (clamp 2) would store the -3 dip as -2, recover to 0 with
  // the +2, and accept a bogus loop; dips beyond the clamp must kill
  // the path instead.
  auto make = []() {
    ReplayableVass rv(3);
    rv.Add(2, {{0, +1}}, 2);
    rv.Add(2, {}, 0);
    rv.Add(0, {{0, -3}}, 1);
    rv.Add(1, {{0, +2}}, 0);
    return rv;
  };
  for (bool prune : {false, true}) {
    ReplayableVass rv = make();
    KarpMillerOptions options;
    options.prune_coverability = prune;
    KarpMiller g(&rv.vass, options);
    g.Build({2});
    EXPECT_FALSE(
        FindAcceptingLasso(g, [](int s) { return s == 0; }).has_value())
        << "prune=" << prune;
    // The sibling system whose loop nets exactly 0 IS a lasso — the
    // kill must not over-prune legitimate deep-recovery loops at the
    // configured bound.
    ReplayableVass ok(3);
    ok.Add(2, {{0, +1}}, 2);
    ok.Add(2, {}, 0);
    ok.Add(0, {{0, -3}}, 1);
    ok.Add(1, {{0, +3}}, 0);
    KarpMiller g2(&ok.vass, options);
    g2.Build({2});
    EXPECT_TRUE(
        FindAcceptingLasso(g2, [](int s) { return s == 0; }).has_value())
        << "prune=" << prune;
  }
}

TEST(CoverLassoTest, ExhaustedStepBudgetIsReportedNotSilentlyHolds) {
  // With an absurd step budget the cover-SCC search cannot prove
  // anything: FindAcceptingLasso must say "budget exhausted" instead
  // of letting the caller read nullopt as "no lasso exists". The same
  // system with the default budget finds its lasso and reports a
  // clean (non-exhausted) search.
  ReplayableVass rv(2);
  rv.Add(0, {{0, +2}}, 1);
  rv.Add(0, {{0, +1}}, 1);
  rv.Add(1, {{0, -2}}, 0);
  KarpMillerOptions options;
  options.prune_coverability = true;
  KarpMiller g(&rv.vass, options);
  g.Build({0});
  const auto accepting = [](int s) { return s == 1; };
  RepeatedReachabilityOptions starved;
  starved.max_steps = 1;
  bool exhausted = false;
  EXPECT_FALSE(
      FindAcceptingLasso(g, accepting, starved, &exhausted).has_value());
  EXPECT_TRUE(exhausted);
  exhausted = true;
  EXPECT_TRUE(FindAcceptingLasso(g, accepting, {}, &exhausted).has_value());
  EXPECT_FALSE(exhausted);
}

TEST(CoverLassoTest, StarvedVerifierDegradesToInconclusive) {
  // End-to-end: a property violated only through a lasso, verified
  // with a starved lasso step budget, must come back INCONCLUSIVE —
  // never HOLDS.
  bench::Workload w = bench::MakeWorkload(SchemaClass::kAcyclic, /*size=*/3,
                                          /*depth=*/2, /*with_sets=*/true,
                                          /*with_arith=*/false);
  VerifyResult reference = Verify(w.system, w.property);
  ASSERT_EQ(reference.verdict, Verdict::kViolated);
  VerifierOptions starved;
  starved.lasso_max_steps = 1;
  VerifyResult result = Verify(w.system, w.property, starved);
  // The one unacceptable outcome is a silent HOLDS: either the lasso
  // is still found within the tiny budget (VIOLATED), or the cut
  // search must surface as truncation (INCONCLUSIVE).
  EXPECT_NE(result.verdict, Verdict::kHolds);
  if (result.verdict != Verdict::kViolated) {
    EXPECT_EQ(result.verdict, Verdict::kInconclusive);
    EXPECT_TRUE(result.stats.truncated);
  }
}

// ---------------------------------------------------------------------
// Engine-level: the retired full-graph fallback as a test oracle.

/// For every memo entry of a pruned engine run whose product explored in
/// full, rebuild the full (unpruned) graph from the SAME TaskVass —
/// exactly what the old RtEngine fallback did — and demand
/// lasso-existence agreement with the entry's cover-edge lasso, plus
/// valid (replayable) record ids in the recorded witness. The entries
/// are the root entries and every child entry their graphs opened,
/// transitively. A root entry with a blocking node is skipped: its
/// product is cut (core/task_vass.h) and emits nothing more, so there
/// is no full graph to rebuild. Sets `*lassos` to how many compared
/// entries have a lasso.
void ExpectEntriesMatchFallbackOracle(const ArtifactSystem& system,
                                      const HltlProperty& property,
                                      const std::string& what,
                                      VerifierOptions options = {},
                                      int* lassos = nullptr) {
  options.prune_coverability = true;
  HltlProperty negated = property.Negated();
  std::optional<Hcd> hcd;
  if (SystemUsesArithmetic(system, property)) {
    hcd = BuildSystemHcd(system, negated);
  }
  RtEngine engine(&system, &negated, options,
                  hcd.has_value() ? &*hcd : nullptr);
  engine.CheckRoot();
  EXPECT_GT(engine.stats().cover_edges, 0u) << what;

  const Task& root_task = system.task(system.root());
  PartialIsoType empty_input(&system.schema(), &root_task.vars(),
                             engine.context(system.root()).nav_depth());
  Cell empty_cell;
  std::vector<RtQueryKey> keys;
  std::unordered_set<RtQueryKey, RtQueryKeyHash> seen;
  for (Assignment beta = 0; beta < 8; ++beta) {
    RtQueryKey key = engine.EntryKey(system.root(), empty_input, empty_cell,
                                     beta);
    if (engine.FindEntry(key) != nullptr && seen.insert(key).second) {
      keys.push_back(key);
    }
  }
  int compared = 0;
  int with_lasso = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    const RtEngine::Entry* entry = engine.FindEntry(keys[i]);
    const KarpMiller& graph = *entry->graph;
    for (int n = 0; n < graph.num_nodes(); ++n) {
      for (const KarpMiller::Edge& e : graph.edges(n)) {
        if (e.label() < 0) continue;
        const RtQueryKey& child = entry->vass->record(e.label()).child_key;
        if (child.valid() && engine.FindEntry(child) != nullptr &&
            seen.insert(child).second) {
          keys.push_back(child);
        }
      }
    }
    if (entry->task == system.root() && entry->blocking_node >= 0) continue;
    const std::string where = what + " entry " + std::to_string(i) +
                              " (task " + std::to_string(entry->task) +
                              ", beta " + std::to_string(keys[i].beta) + ")";
    const auto accepting = [&](int state) {
      return entry->vass->IsBuchiAccepting(state);
    };
    KarpMillerOptions full_options;
    full_options.prune_coverability = false;
    KarpMiller full(entry->vass.get(), full_options);
    full.Build(entry->vass->InitialStates());
    std::optional<LassoWitness> oracle = FindAcceptingLasso(full, accepting);
    std::optional<LassoWitness> cover = FindAcceptingLasso(graph, accepting);
    EXPECT_EQ(oracle.has_value(), cover.has_value()) << where;
    if (cover.has_value()) {
      // Replayable for counterexample.cc: every label resolves to a
      // transition record (the cover path never leaks label-less hops
      // into the witness).
      for (int64_t label : cover->stem_labels) {
        ASSERT_GE(label, 0) << where;
        (void)entry->vass->record(label);
      }
      ASSERT_FALSE(cover->loop_labels.empty()) << where;
      for (int64_t label : cover->loop_labels) {
        ASSERT_GE(label, 0) << where;
        (void)entry->vass->record(label);
      }
      ++with_lasso;
    }
    ++compared;
  }
  EXPECT_GT(compared, 0) << what;
  if (lassos != nullptr) *lassos = with_lasso;
}

TEST(CoverLassoOracleTest, Table1Workload) {
  bench::Workload w = bench::MakeWorkload(SchemaClass::kAcyclic, /*size=*/3,
                                          /*depth=*/2, /*with_sets=*/true,
                                          /*with_arith=*/false);
  // The child's ⊥ is a lasso: the comparison must meet one.
  int lassos = 0;
  ExpectEntriesMatchFallbackOracle(w.system, w.property, w.name, {}, &lassos);
  EXPECT_GT(lassos, 0) << w.name;
  // A property that holds leaves the root uncut, so it is compared too.
  const bench::Workload holds = bench::WithHoldingProperty(w);
  ExpectEntriesMatchFallbackOracle(holds.system, holds.property, holds.name);
}

TEST(CoverLassoOracleTest, MultiSetWorkload) {
  // The family whose node count the old fallback dominated.
  bench::Workload w = bench::MakeMultiSet(/*size=*/2, /*depth=*/2,
                                          /*set_width=*/2);
  ExpectEntriesMatchFallbackOracle(w.system, w.property, w.name);
}

TEST(CoverLassoOracleTest, AdversarialCyclicWorkload) {
  bench::Workload w = bench::MakeAdversarialCyclic(/*size=*/3, /*depth=*/2);
  ExpectEntriesMatchFallbackOracle(w.system, w.property, w.name);
  const bench::Workload holds = bench::WithHoldingProperty(w);
  ExpectEntriesMatchFallbackOracle(holds.system, holds.property, holds.name);
}

TEST(CoverLassoOracleTest, TravelMiniSpecs) {
  std::string text = LoadSpec("travel_mini.has");
  ASSERT_FALSE(text.empty()) << "travel_mini.has not found";
  auto parsed = ParseSpec(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  VerifierOptions base;
  base.max_nav_depth = 2;
  for (const char* prop : {"discount_policy", "cancel_closes_cancelled"}) {
    const HltlProperty* p = parsed->FindProperty(prop);
    ASSERT_NE(p, nullptr) << prop;
    ExpectEntriesMatchFallbackOracle(parsed->system, *p,
                                     std::string("travel_mini/") + prop,
                                     base);
  }
}

TEST(CoverLassoOracleTest, PrunedVerdictMatchesUnprunedOnMultiSet) {
  // End-to-end: with pruning (now the default) the lasso search runs on
  // cover-edges, and verdicts match the pruning-off reference.
  bench::Workload w = bench::MakeMultiSet(/*size=*/2, /*depth=*/2,
                                          /*set_width=*/2);
  VerifierOptions reference_options;
  reference_options.prune_coverability = false;
  VerifyResult reference = Verify(w.system, w.property, reference_options);
  VerifyResult result = Verify(w.system, w.property);
  EXPECT_EQ(result.verdict, reference.verdict);
  EXPECT_GT(result.stats.cover_edges, 0u);
}

}  // namespace
}  // namespace has
