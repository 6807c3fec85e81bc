// Determinism of the sharded Karp–Miller explorer: for num_shards ∈
// {2, 4} the coverability graph must equal the single-shard graph NODE
// FOR NODE (numbering, states, markings, spanning-tree parents, edges,
// labels), and end-to-end verification must produce identical verdicts,
// counterexamples and exploration statistics — on raw VASS systems, on
// the travel spec, and on the Table 1 workload family.
#include <gtest/gtest.h>

#include <string>

#include "builders.h"
#include "core/rt_relation.h"
#include "core/verifier.h"
#include "spec/parser.h"
#include "test_paths.h"
#include "vass/karp_miller.h"
#include "workloads.h"

namespace has {
namespace {

/// Node-for-node graph equality (EXPECTs with context on divergence).
void ExpectSameGraph(const KarpMiller& a, const KarpMiller& b,
                     const std::string& what) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes()) << what;
  ASSERT_EQ(a.truncated(), b.truncated()) << what;
  for (int n = 0; n < a.num_nodes(); ++n) {
    EXPECT_EQ(a.node_state(n), b.node_state(n)) << what << " node " << n;
    EXPECT_EQ(a.node_marking(n), b.node_marking(n)) << what << " node " << n;
    EXPECT_EQ(a.node_parent(n), b.node_parent(n)) << what << " node " << n;
    const auto& ea = a.edges(n);
    const auto& eb = b.edges(n);
    ASSERT_EQ(ea.size(), eb.size()) << what << " node " << n;
    for (size_t i = 0; i < ea.size(); ++i) {
      EXPECT_EQ(ea[i].target, eb[i].target)
          << what << " node " << n << " edge " << i;
      EXPECT_EQ(ea[i].label, eb[i].label)
          << what << " node " << n << " edge " << i;
      EXPECT_EQ(ea[i].delta, eb[i].delta)
          << what << " node " << n << " edge " << i;
      EXPECT_EQ(ea[i].cover, eb[i].cover)
          << what << " node " << n << " edge " << i;
    }
  }
}

/// A VASS with pumping, gating and enough width to spread over shards.
ExplicitVass WideVass(int width) {
  ExplicitVass v(2 * width + 2);
  for (int i = 0; i < width; ++i) {
    v.AddAction(0, {{i, +1}}, 1 + i);            // fan out, pump counter i
    v.AddAction(1 + i, {{i, +1}}, 1 + i);        // keep pumping (→ ω)
    v.AddAction(1 + i, {{i, -1}}, 1 + width + i); // spend
    v.AddAction(1 + width + i, {}, 0);            // back to the hub
  }
  Delta all_spend;
  for (int i = 0; i < width; ++i) all_spend.emplace_back(i, -1);
  v.AddAction(0, all_spend, 2 * width + 1);      // gated target
  return v;
}

TEST(ShardedKarpMillerTest, ExplicitVassNodeForNodeEquality) {
  for (int width : {1, 3, 5}) {
    ExplicitVass v1 = WideVass(width);
    KarpMiller seq(&v1, {});
    seq.Build({0});
    for (int shards : {2, 4}) {
      ExplicitVass v2 = WideVass(width);
      KarpMillerOptions options;
      options.num_shards = shards;
      KarpMiller par(&v2, options);
      par.Build({0});
      ExpectSameGraph(seq, par,
                      "width=" + std::to_string(width) + " shards=" +
                          std::to_string(shards));
      EXPECT_EQ(seq.TotalEdges(), par.TotalEdges());
      EXPECT_EQ(seq.PathLabels(seq.num_nodes() - 1),
                par.PathLabels(par.num_nodes() - 1));
    }
  }
}

TEST(ShardedKarpMillerTest, TinySuccCacheStaysDeterministic) {
  // A pathological cache bound forces eviction and recomputation; the
  // graph must not change shape.
  ExplicitVass v1 = WideVass(4);
  KarpMiller seq(&v1, {});
  seq.Build({0});
  ExplicitVass v2 = WideVass(4);
  KarpMillerOptions options;
  options.num_shards = 2;
  options.succ_cache_capacity = 2;
  KarpMiller par(&v2, options);
  par.Build({0});
  ExpectSameGraph(seq, par, "tiny cache");
  EXPECT_GT(par.succ_cache_misses(), 0u);
}

void ExpectSameVerification(const ArtifactSystem& system,
                            const HltlProperty& property,
                            const std::string& what,
                            VerifierOptions base = {},
                            bool compare_cache_stats = true) {
  VerifyResult reference = Verify(system, property, base);
  for (int shards : {2, 4}) {
    VerifierOptions options = base;
    options.num_shards = shards;
    VerifyResult sharded = Verify(system, property, options);
    EXPECT_EQ(sharded.verdict, reference.verdict) << what;
    EXPECT_EQ(sharded.counterexample, reference.counterexample) << what;
    EXPECT_EQ(sharded.stats.queries, reference.stats.queries) << what;
    EXPECT_EQ(sharded.stats.cov_nodes, reference.stats.cov_nodes) << what;
    EXPECT_EQ(sharded.stats.cov_edges, reference.stats.cov_edges) << what;
    EXPECT_EQ(sharded.stats.product_states, reference.stats.product_states)
        << what;
    EXPECT_EQ(sharded.stats.counter_dims, reference.stats.counter_dims)
        << what;
    if (compare_cache_stats) {
      EXPECT_EQ(sharded.stats.succ_cache_hits,
                reference.stats.succ_cache_hits)
          << what;
      EXPECT_EQ(sharded.stats.succ_cache_misses,
                reference.stats.succ_cache_misses)
          << what;
    }
  }
}

TEST(ShardedVerifierTest, BuilderSystemsIdenticalAcrossShardCounts) {
  ExpectSameVerification(
      testing::FlatSystem(true),
      testing::AlwaysProperty(0, Condition::IsNull(0)), "flat/sets");
  {
    ArtifactSystem system = testing::ParentChildSystem();
    LinearExpr e = LinearExpr::Var(1);
    HltlProperty property = testing::AlwaysProperty(
        0, Condition::Arith(LinearConstraint{e, Relop::kEq}));
    ExpectSameVerification(system, property, "parent-child");
  }
}

TEST(ShardedVerifierTest, Table1WorkloadIdenticalAcrossShardCounts) {
  for (SchemaClass sc : {SchemaClass::kAcyclic, SchemaClass::kCyclic}) {
    bench::Workload w = bench::MakeWorkload(sc, /*size=*/3, /*depth=*/2,
                                            /*with_sets=*/true,
                                            /*with_arith=*/false);
    ExpectSameVerification(w.system, w.property, w.name);
  }
}

TEST(ShardedVerifierTest, MultiRelationIdenticalAcrossShardCounts) {
  // Two artifact relations per task: each relation's counter-dimension
  // group must come out in the same (discovery) order at every shard
  // count for the graphs to match.
  bench::Workload w = bench::MakeMultiRelation(/*size=*/3, /*depth=*/2,
                                               /*num_rels=*/2);
  ExpectSameVerification(w.system, w.property, w.name);
}

TEST(ShardedVerifierTest, MultiRelationSpecIdenticalAcrossShardCounts) {
  // The same guarantee on a PARSED multi-relation spec (named set
  // blocks, cross-relation delta in `finish`).
  constexpr char spec[] = R"(
system {
  relation R { }
  task Main {
    ids: x, y;
    set Pending (x);
    set Done (x, y);
    service bind { pre: x == null; post: R(x) && R(y); }
    service enqueue { pre: x != null; post: true; insert into Pending; }
    service finish {
      pre: y != null;
      post: x != null && y != null;
      retrieve from Pending;
      insert into Done;
    }
  }
}
property drains { G ! svc(finish) }
)";
  auto parsed = ParseSpec(spec);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const HltlProperty* p = parsed->FindProperty("drains");
  ASSERT_NE(p, nullptr);
  ExpectSameVerification(parsed->system, *p, "multirel-spec/drains");
}

TEST(ShardedVerifierTest, EvictingSuccCacheKeepsVerdictsIdentical) {
  // A cache bound that actually evicts forces successor recomputation;
  // interned transition records keep labels (and hence the graph and
  // the counterexample) identical. Hit/miss counters legitimately
  // differ across shard counts once eviction kicks in.
  bench::Workload w = bench::MakeWorkload(SchemaClass::kAcyclic, 3, 2,
                                          /*with_sets=*/true,
                                          /*with_arith=*/false);
  VerifierOptions base;
  base.succ_cache_capacity = 3;
  ExpectSameVerification(w.system, w.property, "tiny-cache", base,
                         /*compare_cache_stats=*/false);
}

TEST(ShardedVerifierTest, TaskVassGraphsNodeForNode) {
  // Compare the per-entry coverability graphs of two engines (1 vs 4
  // shards) on the Table 1 acyclic family — the strongest form of the
  // determinism guarantee, at the product level.
  bench::Workload w = bench::MakeWorkload(SchemaClass::kAcyclic, 3, 2,
                                          /*with_sets=*/true,
                                          /*with_arith=*/false);
  HltlProperty negated = w.property.Negated();
  VerifierOptions seq_options;
  RtEngine seq_engine(&w.system, &negated, seq_options, nullptr);
  seq_engine.CheckRoot();
  VerifierOptions par_options;
  par_options.num_shards = 4;
  RtEngine par_engine(&w.system, &negated, par_options, nullptr);
  par_engine.CheckRoot();

  const Task& root_task = w.system.task(w.system.root());
  PartialIsoType empty_input(&w.system.schema(), &root_task.vars(),
                             seq_engine.context(w.system.root()).nav_depth());
  Cell empty_cell;
  int compared = 0;
  for (Assignment beta = 0; beta < 8; ++beta) {
    RtQueryKey seq_key = seq_engine.EntryKey(w.system.root(), empty_input,
                                             empty_cell, beta);
    RtQueryKey par_key = par_engine.EntryKey(w.system.root(), empty_input,
                                             empty_cell, beta);
    const RtEngine::Entry* seq_entry = seq_engine.FindEntry(seq_key);
    const RtEngine::Entry* par_entry = par_engine.FindEntry(par_key);
    ASSERT_EQ(seq_entry == nullptr, par_entry == nullptr) << "beta " << beta;
    if (seq_entry == nullptr) continue;
    ExpectSameGraph(*seq_entry->graph, *par_entry->graph,
                    "root beta=" + std::to_string(beta));
    ++compared;
  }
  EXPECT_GT(compared, 0);
}

TEST(ShardedVerifierTest, TravelMiniIdenticalAcrossShardCounts) {
  std::string text = LoadSpec("travel_mini.has");
  ASSERT_FALSE(text.empty()) << "travel_mini.has not found";
  auto parsed = ParseSpec(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const HltlProperty* policy = parsed->FindProperty("discount_policy");
  ASSERT_NE(policy, nullptr);
  VerifierOptions base;
  base.max_nav_depth = 2;
  ExpectSameVerification(parsed->system, *policy, "travel_mini/discount",
                         base);
}

}  // namespace
}  // namespace has
