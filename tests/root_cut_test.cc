// The root cut (TaskVass): the root product stops emitting successors
// once it knows that a blocking state has a node in the explorer's
// graph, because the root query only asks whether ⊥ is reachable.
// Covered here:
//   - Deep(4, 3) decides after 7 R_T entries with POR on and off, with
//     a blocking witness;
//   - a spec whose only route into ⊥ retrieves from an artifact
//     relation stays VIOLATED, and HOLDS once the relation is never
//     filled;
//   - after the cut, no root state emits an edge, while child
//     products still do;
//   - HOLDS properties never cut, so their exploration counters are
//     the ones a full exploration records.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/rt_relation.h"
#include "core/verifier.h"
#include "spec/parser.h"
#include "workloads.h"

namespace has {
namespace {

TEST(RootCutTest, DeepDecidesAfterSevenEntries) {
  const bench::Workload w = bench::MakeDeepHierarchy(/*depth=*/4, /*size=*/3);
  const HltlProperty negated = w.property.Negated();
  for (bool por : {false, true}) {
    const std::string what = w.name + " por=" + std::to_string(por);
    VerifierOptions options;
    options.por = por;
    const VerifyResult result = Verify(w.system, w.property, options);
    EXPECT_EQ(result.verdict, Verdict::kViolated) << what;
    // Without the cut the POR root explores 1,447 nodes and the engine
    // computes 31 entries (27 without POR). A cutting commit that kept
    // its ample prefix would let POR skip the blocking edge for good,
    // and the verdict would turn HOLDS.
    EXPECT_EQ(result.stats.queries, 7u) << what;
    RtEngine engine(&w.system, &negated, options, /*hcd=*/nullptr);
    const RtEngine::RootWitness witness = engine.CheckRoot();
    ASSERT_TRUE(witness.satisfiable) << what;
    EXPECT_TRUE(witness.blocking) << what;
    EXPECT_TRUE(witness.loop_labels.empty()) << what;
  }
}

// The root can open the never-returning Worker only at stage 3, which
// only `fetch` reaches, and `fetch` retrieves from Stash: every route
// into a blocking state passes a transition with a negative delta.
constexpr char kRetrieveIntoBottom[] = R"(
system {
  relation ITEMS { price: num; }
  task Main {
    ids: item;  nums: stage;
    set Stash (item);
    service make {
      pre: stage == 0;
      post: item != null && stage == 1;
    }
    service stash {
      pre: stage == 1 && item != null;
      post: stage == 2;
      insert into Stash;
    }
    service fetch {
      pre: stage == 2;
      post: item != null && stage == 3;
      retrieve from Stash;
    }
    task Worker {
      ids: w;
      input: w <- item;
      open when stage == 3;
      close when w == null;
      service spin { pre: true; post: true; }
    }
  }
}
property never_fetched { G {stage != 3} }
)";

TEST(RootCutTest, RetrieveRouteIntoBottomStaysViolated) {
  const std::string violated = kRetrieveIntoBottom;
  // The same system with Stash never filled: `fetch` is disabled at
  // every marking, so no run reaches stage 3.
  std::string holds = violated;
  const std::string insert = "      insert into Stash;\n";
  ASSERT_NE(holds.find(insert), std::string::npos);
  holds.erase(holds.find(insert), insert.size());
  for (bool prune : {false, true}) {
    for (bool por : {false, true}) {
      const std::string what =
          "prune=" + std::to_string(prune) + " por=" + std::to_string(por);
      VerifierOptions options;
      options.prune_coverability = prune;
      options.por = por;
      auto parsed = ParseSpec(violated);
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      const HltlProperty* property = parsed->FindProperty("never_fetched");
      ASSERT_NE(property, nullptr);
      const VerifyResult result = Verify(parsed->system, *property, options);
      EXPECT_EQ(result.verdict, Verdict::kViolated) << what;
      EXPECT_NE(result.counterexample.find("fetch"), std::string::npos)
          << what << "\n" << result.counterexample;
      EXPECT_NE(result.counterexample.find("open Worker (non-returning)"),
                std::string::npos)
          << what << "\n" << result.counterexample;
      auto control = ParseSpec(holds);
      ASSERT_TRUE(control.ok()) << control.status().ToString();
      const HltlProperty* control_property =
          control->FindProperty("never_fetched");
      ASSERT_NE(control_property, nullptr);
      EXPECT_EQ(Verify(control->system, *control_property, options).verdict,
                Verdict::kHolds)
          << what;
    }
  }
}

TEST(RootCutTest, CutRootEmitsNothingWhileChildrenDo) {
  const bench::Workload w = bench::MakeDeepHierarchy(/*depth=*/4, /*size=*/3);
  const HltlProperty negated = w.property.Negated();
  RtEngine engine(&w.system, &negated, VerifierOptions{}, /*hcd=*/nullptr);
  const RtEngine::RootWitness witness = engine.CheckRoot();
  ASSERT_TRUE(witness.satisfiable);
  const RtEngine::Entry* root = engine.FindEntry(witness.entry_key);
  ASSERT_NE(root, nullptr);
  TaskVass& vass = *root->vass;
  RtQueryKey child_key;
  for (int s = 0; s < vass.num_states(); ++s) {
    std::vector<VassEdge> out;
    vass.Successors(s, &out);
    EXPECT_TRUE(out.empty()) << "root state " << s;
  }
  for (int n = 0; n < root->graph->num_nodes() && !child_key.valid(); ++n) {
    for (const KarpMiller::Edge& e : root->graph->edges(n)) {
      if (e.label() < 0) continue;
      const TransitionRecord& rec = vass.record(e.label());
      if (rec.child_key.valid()) child_key = rec.child_key;
    }
  }
  ASSERT_TRUE(child_key.valid()) << "the root opened no child";
  const RtEngine::Entry* child = engine.FindEntry(child_key);
  ASSERT_NE(child, nullptr);
  size_t child_edges = 0;
  for (int s = 0; s < child->vass->num_states(); ++s) {
    std::vector<VassEdge> out;
    child->vass->Successors(s, &out);
    child_edges += out.size();
  }
  EXPECT_GT(child_edges, 0u);
}

// Counters of HOLDS verifications, as the engine recorded them before
// it had the root cut: a root that never reaches a blocking state is
// never cut, so its full exploration must stay node for node the same.
// `pooled_types` counts the types of each task scope (core/type_pool.h).
struct HoldingCase {
  bench::Workload workload;
  bool slice;
  size_t queries, cov_nodes, cov_edges, product_states, pooled_types,
      antichain_probes, enum_memo_misses;
};

TEST(RootCutTest, HoldingPropertiesKeepTheirStats) {
  const HoldingCase cases[] = {
      {bench::WithHoldingProperty(bench::MakeDeepHierarchy(4, 3)),
       /*slice=*/true, 14, 1401, 7145, 902, 124, 10747, 495},
      {bench::WithHoldingProperty(bench::MakeMultiRelation(3, 2, 2)),
       /*slice=*/true, 3, 738, 19057, 275, 83, 21148, 419},
      {bench::WithHoldingProperty(bench::MakeCommutingServices(3, 2)),
       /*slice=*/false, 3, 3378, 100894, 475, 138, 165440, 573},
  };
  for (const HoldingCase& c : cases) {
    VerifierOptions options;
    options.slice = c.slice;
    const VerifyResult r =
        Verify(c.workload.system, c.workload.property, options);
    const std::string& what = c.workload.name;
    EXPECT_EQ(r.verdict, Verdict::kHolds) << what;
    EXPECT_FALSE(r.stats.truncated) << what;
    EXPECT_EQ(r.stats.queries, c.queries) << what;
    EXPECT_EQ(r.stats.cov_nodes, c.cov_nodes) << what;
    EXPECT_EQ(r.stats.cov_edges, c.cov_edges) << what;
    EXPECT_EQ(r.stats.product_states, c.product_states) << what;
    EXPECT_EQ(r.stats.pooled_types, c.pooled_types) << what;
    EXPECT_EQ(r.stats.antichain_probes, c.antichain_probes) << what;
    EXPECT_EQ(r.stats.enum_memo_misses, c.enum_memo_misses) << what;
  }
}

}  // namespace
}  // namespace has
