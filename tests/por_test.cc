// Soundness and determinism of the ample-set partial-order reduction
// (VerifierOptions::por): verdicts must be IDENTICAL with the reduction
// on and off — on every committed workload family (lasso/kViolated
// verdicts included) and on the parsed example specs — and where both
// explore in full (HOLDS verdicts), the reduced graph must never be
// larger than the full one. Plus unit coverage of
// the insert-only bit (model/independence.h) the reduction's
// eligibility test is built on.
#include <gtest/gtest.h>

#include <string>

#include "core/verifier.h"
#include "model/independence.h"
#include "spec/parser.h"
#include "test_paths.h"
#include "workloads.h"

namespace has {
namespace {

/// POR on vs. off must agree on everything user-visible. Returns the
/// POR-off verdict so callers can pin the expected outcome. On a HOLDS
/// verdict both runs explore every product in full, and the reduced
/// graph must be no larger. A VIOLATED root stops at its first blocking
/// state (the root cut, core/task_vass.h), which ample stutters can
/// delay: Deep(4, 3) decides in 340 nodes with POR and 319 without.
Verdict ExpectPorEquivalence(const ArtifactSystem& system,
                             const HltlProperty& property,
                             const std::string& what,
                             VerifierOptions base = {}) {
  base.por = false;
  VerifyResult reference = Verify(system, property, base);
  EXPECT_EQ(reference.stats.ample_reduced_successors, 0u) << what;
  EXPECT_EQ(reference.stats.ample_full_expansions, 0u) << what;
  VerifierOptions options = base;
  options.por = true;
  VerifyResult por = Verify(system, property, options);
  EXPECT_EQ(por.verdict, reference.verdict) << what;
  // NOTE: the counterexample itself may legitimately differ from the
  // POR-off one (the reduced graph keeps a witness, not THE witness),
  // and so may the child-query count — stutter targets can carry
  // input-bound bits the POR-off opening states lack, so some opens
  // key new oracle queries.
  if (reference.verdict == Verdict::kHolds) {
    EXPECT_LE(por.stats.cov_nodes, reference.stats.cov_nodes) << what;
  }
  return reference.verdict;
}

/// ExpectPorEquivalence on the family's property and on its HOLDS
/// variant (bench::WithHoldingProperty), which pins the node bound on a
/// full exploration of the same system. Returns the family property's
/// POR-off verdict.
Verdict ExpectFamilyPorEquivalence(const bench::Workload& w,
                                   VerifierOptions base = {}) {
  const Verdict verdict =
      ExpectPorEquivalence(w.system, w.property, w.name, base);
  const bench::Workload holds = bench::WithHoldingProperty(w);
  EXPECT_EQ(ExpectPorEquivalence(holds.system, holds.property, holds.name,
                                 base),
            Verdict::kHolds)
      << holds.name;
  return verdict;
}

TEST(PorEquivalenceTest, Table1Workloads) {
  for (SchemaClass sc : {SchemaClass::kAcyclic, SchemaClass::kCyclic}) {
    bench::Workload w = bench::MakeWorkload(sc, /*size=*/3, /*depth=*/2,
                                            /*with_sets=*/true,
                                            /*with_arith=*/false);
    // kViolated here: the root decides at a blocking state whose ⊥
    // child is settled by the child's accepting lasso over cover-edges.
    EXPECT_EQ(ExpectFamilyPorEquivalence(w), Verdict::kViolated) << w.name;
  }
}

TEST(PorEquivalenceTest, DeepHierarchy) {
  bench::Workload w = bench::MakeDeepHierarchy(/*depth=*/4, /*size=*/3);
  ExpectFamilyPorEquivalence(w);
}

TEST(PorEquivalenceTest, AdversarialCyclic) {
  bench::Workload w = bench::MakeAdversarialCyclic(/*size=*/4, /*depth=*/2);
  ExpectFamilyPorEquivalence(w);
}

TEST(PorEquivalenceTest, MultiVariableSet) {
  bench::Workload w = bench::MakeMultiSet(/*size=*/3, /*depth=*/2,
                                          /*set_width=*/2);
  ExpectFamilyPorEquivalence(w);
}

TEST(PorEquivalenceTest, MultiRelation) {
  // k = 2 keeps Debug/TSan runtimes sane; the k = 3 blow-up row is
  // exercised by bench_por and its CI counter gate.
  bench::Workload w = bench::MakeMultiRelation(/*size=*/3, /*depth=*/2,
                                               /*num_rels=*/2);
  ExpectFamilyPorEquivalence(w);
}

TEST(PorEquivalenceTest, CommutingServicesReduces) {
  bench::Workload w = bench::MakeCommutingServices(/*width=*/3, /*depth=*/2);
  VerifierOptions base;
  base.slice = false;
  ExpectFamilyPorEquivalence(w, base);
  // The family exists to show the reduction actually bites: all stores
  // are pairwise-independent and ample-eligible, so POR must both skip
  // successors and shrink the graph. Slicing is held off here — the
  // stores insert into never-retrieved relations, so the slicer strips
  // exactly the insert ops whose insert-only δ targets make the
  // stores ample-eligible, and POR would (correctly) never fire.
  VerifierOptions off;
  off.por = false;
  off.slice = false;
  VerifyResult full = Verify(w.system, w.property, off);
  VerifierOptions on;
  on.slice = false;
  VerifyResult reduced = Verify(w.system, w.property, on);
  EXPECT_GT(reduced.stats.ample_reduced_successors, 0u);
  EXPECT_LT(reduced.stats.cov_nodes, full.stats.cov_nodes);
  EXPECT_LT(reduced.stats.cov_edges, full.stats.cov_edges);
}

TEST(PorEquivalenceTest, TravelMiniSpec) {
  std::string text = LoadSpec("travel_mini.has");
  ASSERT_FALSE(text.empty()) << "travel_mini.has not found";
  auto parsed = ParseSpec(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const HltlProperty* policy = parsed->FindProperty("discount_policy");
  ASSERT_NE(policy, nullptr);
  VerifierOptions base;
  base.max_nav_depth = 2;
  ExpectPorEquivalence(parsed->system, *policy, "travel_mini/discount", base);
  const HltlProperty* closes = parsed->FindProperty("cancel_closes_cancelled");
  ASSERT_NE(closes, nullptr);
  EXPECT_EQ(ExpectPorEquivalence(parsed->system, *closes,
                                 "travel_mini/cancel_closes_cancelled", base),
            Verdict::kHolds);
}

TEST(PorEquivalenceTest, MultiRelationSpec) {
  // A parsed spec with retrieve services and a service-observing
  // property: most services are POR-ineligible here, so this guards
  // the "reduction must not fire where it is unsound" side.
  std::string text = LoadSpec("multirel.has");
  ASSERT_FALSE(text.empty()) << "multirel.has not found";
  auto parsed = ParseSpec(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const HltlProperty* p = parsed->FindProperty("orders_drain");
  ASSERT_NE(p, nullptr);
  ExpectPorEquivalence(parsed->system, *p, "multirel-spec/orders_drain");
}

// --- δ targets: the insert-only bit -----------------------------------

TEST(DeltaTargetsTest, MultiRelationServices) {
  bench::Workload w = bench::MakeMultiRelation(/*size=*/3, /*depth=*/2,
                                               /*num_rels=*/2);
  const Task& task = w.system.task(w.system.root());
  // Service layout: work, store0, load0, store1, load1, rotate.
  int work = -1, store0 = -1, load0 = -1, store1 = -1, rotate = -1;
  for (size_t i = 0; i < task.services().size(); ++i) {
    const std::string& n = task.service(static_cast<int>(i)).name;
    if (n == "work") work = static_cast<int>(i);
    if (n == "store0") store0 = static_cast<int>(i);
    if (n == "load0") load0 = static_cast<int>(i);
    if (n == "store1") store1 = static_cast<int>(i);
    if (n == "rotate") rotate = static_cast<int>(i);
  }
  ASSERT_GE(work, 0);
  ASSERT_GE(store0, 0);
  ASSERT_GE(load0, 0);
  ASSERT_GE(store1, 0);
  ASSERT_GE(rotate, 0);

  auto insert_only = [&](int svc) {
    return CheckDeltaTargets(task, task.service(svc)).insert_only();
  };
  EXPECT_TRUE(insert_only(store0));
  EXPECT_TRUE(insert_only(store1));
  EXPECT_FALSE(insert_only(load0));   // retrieves
  EXPECT_FALSE(insert_only(work));    // no set ops
  EXPECT_FALSE(insert_only(rotate));  // mixed delta
}

TEST(DeltaTargetsTest, CommutingFamilyStoresAreInsertOnly) {
  bench::Workload w = bench::MakeCommutingServices(/*width=*/3, /*depth=*/1);
  const Task& task = w.system.task(w.system.root());
  std::vector<int> stores;
  for (size_t i = 0; i < task.services().size(); ++i) {
    if (task.service(static_cast<int>(i)).name.rfind("store", 0) == 0) {
      stores.push_back(static_cast<int>(i));
    }
  }
  ASSERT_EQ(stores.size(), 3u);
  for (int a : stores) {
    EXPECT_TRUE(CheckDeltaTargets(task, task.service(a)).insert_only());
  }
}

}  // namespace
}  // namespace has
