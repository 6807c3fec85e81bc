// Edge cases of the explorer's bounded LRU successor cache
// (KarpMillerOptions::succ_cache_capacity): capacities 0 and 1, the
// entry being expanded surviving its own insertion, the hit/miss
// counter accounting contract (exactly one hit or miss per processed
// coverability node), and eviction never changing graphs, verdicts or
// counterexamples.
#include <gtest/gtest.h>

#include <string>

#include "core/rt_relation.h"
#include "core/verifier.h"
#include "vass/karp_miller.h"
#include "workloads.h"

namespace has {
namespace {

/// s0 fans out to three pump states A, B, A' where A and A' share VASS
/// state 1 — so one BFS round holds the state sequence [1, 2, 1] and a
/// capacity-1 cache evicts state 1 before it recurs.
ExplicitVass FanVass() {
  ExplicitVass v(4);
  v.AddAction(0, {{0, +1}}, 1);  // -> state 1, marking (1)
  v.AddAction(0, {{1, +1}}, 2);  // -> state 2, marking (0,1)
  v.AddAction(0, {{2, +1}}, 1);  // -> state 1, marking (0,0,1)
  v.AddAction(1, {{0, +1}}, 3);
  v.AddAction(2, {{1, +1}}, 3);
  return v;
}

/// A VASS with pumping, gating and several multi-edge states.
ExplicitVass WideVass(int width) {
  ExplicitVass v(2 * width + 2);
  for (int i = 0; i < width; ++i) {
    v.AddAction(0, {{i, +1}}, 1 + i);              // fan out, pump counter i
    v.AddAction(1 + i, {{i, +1}}, 1 + i);          // keep pumping (→ ω)
    v.AddAction(1 + i, {{i, -1}}, 1 + width + i);  // spend
    v.AddAction(1 + width + i, {}, 0);             // back to the hub
  }
  Delta all_spend;
  for (int i = 0; i < width; ++i) all_spend.emplace_back(i, -1);
  v.AddAction(0, all_spend, 2 * width + 1);  // gated target
  return v;
}

/// Node-for-node graph equality (EXPECTs with context on divergence).
void ExpectSameGraph(const KarpMiller& a, const KarpMiller& b,
                     const std::string& what = "") {
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

TEST(SuccCacheTest, CapacityOneProducesTheSameGraph) {
  ExplicitVass v1 = FanVass();
  KarpMiller unbounded(&v1, {});
  unbounded.Build({0});
  ExplicitVass v2 = FanVass();
  KarpMillerOptions options;
  options.succ_cache_capacity = 1;
  KarpMiller tiny(&v2, options);
  tiny.Build({0});
  ExpectSameGraph(unbounded, tiny);
}

TEST(SuccCacheTest, OneHitOrMissPerProcessedNode) {
  // The accounting contract: every processed (expanded) node charges
  // exactly one hit or one miss, regardless of capacity.
  for (size_t capacity : {size_t{1}, size_t{2}, size_t{1} << 14}) {
    ExplicitVass v = FanVass();
    KarpMillerOptions options;
    options.succ_cache_capacity = capacity;
    KarpMiller g(&v, options);
    g.Build({0});
    EXPECT_EQ(g.succ_cache_hits() + g.succ_cache_misses(),
              static_cast<size_t>(g.num_nodes()))
        << "capacity=" << capacity;
  }
}

TEST(SuccCacheTest, CapacityZeroKeepsTheExpandingEntry) {
  // At capacity 0 every insertion overflows the cap, yet the entry just
  // inserted is the one whose edges the explorer is walking: evicting it
  // would leave a dangling edge list (caught under ASan). The hub state
  // 0 of WideVass(3) has four edges, three of them enabled at the root
  // and each creating a node, so the walk outlives several interning
  // steps. Capacity 0 behaves exactly like capacity 1.
  ExplicitVass v1 = WideVass(3);
  KarpMiller unbounded(&v1, {});
  unbounded.Build({0});
  ExplicitVass v0 = WideVass(3);
  KarpMillerOptions zero_options;
  zero_options.succ_cache_capacity = 0;
  KarpMiller zero(&v0, zero_options);
  zero.Build({0});
  ExplicitVass v2 = WideVass(3);
  KarpMillerOptions one_options;
  one_options.succ_cache_capacity = 1;
  KarpMiller one(&v2, one_options);
  one.Build({0});
  ASSERT_EQ(unbounded.edges(0).size(), 3u);
  ExpectSameGraph(unbounded, zero, "capacity 0");
  EXPECT_EQ(zero.succ_cache_hits(), one.succ_cache_hits());
  EXPECT_EQ(zero.succ_cache_misses(), one.succ_cache_misses());
  EXPECT_EQ(zero.succ_cache_hits() + zero.succ_cache_misses(),
            static_cast<size_t>(zero.num_nodes()));
}

TEST(SuccCacheTest, UnpinnedEntriesEvictAtCapacityOne) {
  // Revisiting an old state after another state was inserted must
  // re-miss at capacity 1 (the entry was evicted), while an unbounded
  // cache hits. Chain: s0 -> s1 -> s2 -> s1' where s1' re-enters state
  // 1 with a bigger marking (distinct node, same VASS state, different
  // round).
  ExplicitVass v(3);
  v.AddAction(0, {{0, +1}}, 1);
  v.AddAction(1, {{0, +1}}, 2);
  v.AddAction(2, {{0, +1}}, 1);  // back to state 1, next round
  KarpMillerOptions tiny_options;
  tiny_options.succ_cache_capacity = 1;
  ExplicitVass v1 = v;
  KarpMiller tiny(&v1, tiny_options);
  tiny.Build({0});
  ExplicitVass v2 = v;
  KarpMiller big(&v2, {});
  big.Build({0});
  ExpectSameGraph(big, tiny);
  // The unbounded cache hits when state 1 recurs; the capacity-1 cache
  // has evicted it by then and misses strictly more often.
  EXPECT_GT(tiny.succ_cache_misses(), big.succ_cache_misses());
  EXPECT_EQ(tiny.succ_cache_hits() + tiny.succ_cache_misses(),
            static_cast<size_t>(tiny.num_nodes()));
}

TEST(SuccCacheTest, TinySuccCacheStaysDeterministic) {
  // Pathological cache bounds force eviction and recomputation; the
  // graph must not change shape, pruned or not.
  for (bool prune : {false, true}) {
    KarpMillerOptions reference_options;
    reference_options.prune_coverability = prune;
    ExplicitVass v1 = WideVass(4);
    KarpMiller reference(&v1, reference_options);
    reference.Build({0});
    for (size_t capacity : {size_t{0}, size_t{1}, size_t{2}}) {
      ExplicitVass v2 = WideVass(4);
      KarpMillerOptions options = reference_options;
      options.succ_cache_capacity = capacity;
      KarpMiller tiny(&v2, options);
      tiny.Build({0});
      ExpectSameGraph(reference, tiny,
                      "prune=" + std::to_string(prune) +
                          " capacity=" + std::to_string(capacity));
      EXPECT_GT(tiny.succ_cache_misses(), reference.succ_cache_misses());
    }
  }
}

TEST(SuccCacheTest, EvictingSuccCacheKeepsVerdictsIdentical) {
  // A cache bound that actually evicts forces successor recomputation;
  // interned transition records keep labels (and hence the graphs and
  // the counterexample) identical. Hit/miss counters legitimately
  // differ once eviction kicks in.
  bench::Workload w = bench::MakeWorkload(SchemaClass::kAcyclic, 3, 2,
                                          /*with_sets=*/true,
                                          /*with_arith=*/false);
  VerifyResult reference = Verify(w.system, w.property);
  HltlProperty negated = w.property.Negated();
  RtEngine reference_engine(&w.system, &negated, VerifierOptions{}, nullptr);
  reference_engine.CheckRoot();
  for (size_t capacity : {size_t{0}, size_t{1}}) {
    const std::string what = "capacity=" + std::to_string(capacity);
    VerifierOptions options;
    options.succ_cache_capacity = capacity;
    VerifyResult tiny = Verify(w.system, w.property, options);
    EXPECT_EQ(tiny.verdict, reference.verdict) << what;
    EXPECT_EQ(tiny.counterexample, reference.counterexample) << what;
    EXPECT_EQ(tiny.stats.queries, reference.stats.queries) << what;
    EXPECT_EQ(tiny.stats.cov_nodes, reference.stats.cov_nodes) << what;
    EXPECT_EQ(tiny.stats.cov_edges, reference.stats.cov_edges) << what;
    EXPECT_EQ(tiny.stats.product_states, reference.stats.product_states)
        << what;
    EXPECT_EQ(tiny.stats.counter_dims, reference.stats.counter_dims) << what;
    EXPECT_GT(tiny.stats.succ_cache_misses, reference.stats.succ_cache_misses)
        << what;

    // The root entries' product graphs, node for node.
    RtEngine engine(&w.system, &negated, options, nullptr);
    engine.CheckRoot();
    const Task& root_task = w.system.task(w.system.root());
    PartialIsoType empty_input(
        &w.system.schema(), &root_task.vars(),
        reference_engine.context(w.system.root()).nav_depth());
    Cell empty_cell;
    int compared = 0;
    for (Assignment beta = 0; beta < 8; ++beta) {
      const RtEngine::Entry* expected = reference_engine.FindEntry(
          reference_engine.EntryKey(w.system.root(), empty_input, empty_cell,
                                    beta));
      const RtEngine::Entry* actual = engine.FindEntry(
          engine.EntryKey(w.system.root(), empty_input, empty_cell, beta));
      ASSERT_EQ(expected == nullptr, actual == nullptr) << what << " " << beta;
      if (expected == nullptr) continue;
      ExpectSameGraph(*expected->graph, *actual->graph,
                      what + " root beta=" + std::to_string(beta));
      ++compared;
    }
    EXPECT_GT(compared, 0) << what;
  }
}

}  // namespace
}  // namespace has
