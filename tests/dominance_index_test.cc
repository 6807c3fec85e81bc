// Differential tests for the summary-bucketed dominance index
// (vass/dominance_index.h) against a retained FLAT reference scan: the
// index must return the identical minimum-id dominator and remove the
// identical victim set as a linear walk over the same antichain, on
// randomized explorer-like insert/probe/absorb sequences mixing ω
// lanes (wild-bucket routing), widths past the 32-dimension group wrap
// (inexact summaries), sparse pair-payload markings (AddAuto), and
// tie-rank cases with several simultaneous dominators. A second part
// pins the end-to-end guarantee the index must preserve: verdict and
// every exploration counter of the MakeMultiRelation k=3 family are
// identical across repeated runs with the index on.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <vector>

#include "core/verifier.h"
#include "vass/dominance_index.h"
#include "vass/marking.h"
#include "workloads.h"

namespace has {
namespace {

/// Flat reference antichain: the pre-index representation, scanned
/// linearly with the scalar-reference order (marking::LessEq on the
/// owned vectors, independent of the packed kernels under test).
struct FlatEntry {
  int node;
  std::vector<int64_t> values;  // owned canonical marking
  MarkingView view;
};

int ReferenceDominatorOf(const std::vector<FlatEntry>& flat,
                         const std::vector<int64_t>& m) {
  int best = -1;
  for (const FlatEntry& e : flat) {
    if (marking::LessEq(m, e.values) && (best < 0 || e.node < best)) {
      best = e.node;
    }
  }
  return best;
}

std::set<int> ReferenceCoveredBy(const std::vector<FlatEntry>& flat,
                                 const std::vector<int64_t>& m) {
  std::set<int> victims;
  for (const FlatEntry& e : flat) {
    if (marking::LessEq(e.values, m)) victims.insert(e.node);
  }
  return victims;
}

std::vector<int64_t> Canonical(std::vector<int64_t> m) {
  while (!m.empty() && m.back() == 0) m.pop_back();
  return m;
}

/// Random canonical marking. `max_dims` up to 40 crosses the 32-dim
/// group wrap (inexact summaries, no ω-cover fast accept); a high zero
/// probability at large widths makes AddAuto pick the sparse pair
/// representation for a healthy fraction of the corpus.
std::vector<int64_t> RandomMarking(std::mt19937* rng, int max_dims) {
  std::vector<int64_t> m(static_cast<size_t>((*rng)() % (max_dims + 1)), 0);
  for (auto& v : m) {
    const uint32_t r = (*rng)() % 12;
    if (r < 6) continue;             // 0 with p = 0.5
    if (r >= 10) {
      v = kOmega;                    // ω with p = 1/6 → wild entries
    } else {
      v = static_cast<int64_t>(r - 5);  // 1..4 crosses both magnitude bits
    }
  }
  return Canonical(std::move(m));
}

void RunExplorerLikeSequence(int max_dims, uint32_t seed) {
  std::mt19937 rng(seed);
  MarkingArena arena;
  DominanceIndex index;
  std::vector<FlatEntry> flat;
  int next_node = 0;
  size_t fast_accepts_possible = 0;
  for (int step = 0; step < 3000; ++step) {
    const std::vector<int64_t> m = RandomMarking(&rng, max_dims);
    const MarkingView probe(m);

    DominanceIndex::Stats stats;
    const int got = index.DominatorOf(probe, &stats);
    const int expected = ReferenceDominatorOf(flat, m);
    ASSERT_EQ(got, expected)
        << "step " << step << " marking " << marking::ToString(m);
    if (expected >= 0) {
      // Accounting identity: every examined entry was either resolved
      // by a summary test or payload-compared (rank-cutoff entries are
      // simply not examined).
      EXPECT_GT(stats.bucket_probes + stats.payload_probes + stats.skipped,
                0u);
      continue;  // the explorer folds into the dominator; no insert
    }

    std::set<int> victims;
    DominanceIndex::Stats absorb_stats;
    index.RemoveCoveredBy(probe, &absorb_stats,
                          [&victims](int node) { victims.insert(node); });
    EXPECT_EQ(victims, ReferenceCoveredBy(flat, m))
        << "step " << step << " marking " << marking::ToString(m);
    std::vector<FlatEntry> kept;
    for (FlatEntry& e : flat) {
      if (!victims.count(e.node)) kept.push_back(std::move(e));
    }
    flat = std::move(kept);

    // Store through AddAuto so sparse pair payloads enter the index;
    // the flat reference keeps the owned vector.
    const MarkingView stored = arena.AddAuto(m.data(), m.size());
    index.Insert(next_node, stored);
    flat.push_back(FlatEntry{next_node, m, stored});
    ++next_node;
    ASSERT_EQ(index.size(), flat.size()) << "step " << step;
    if (m.size() <= 32) ++fast_accepts_possible;
  }
  // The sequence actually exercised the interesting paths.
  EXPECT_GT(index.num_buckets(), 1u);
  EXPECT_GT(fast_accepts_possible, 0u);
  if (max_dims >= static_cast<int>(MarkingArena::kSparseMinWidth)) {
    EXPECT_GT(arena.sparse_markings(), 0u);
  }
}

TEST(DominanceIndexTest, MatchesFlatReferenceNarrow) {
  // Widths <= 6 mirror the real product VASSes: exact summaries, the
  // ω-cover fast accept live on every bucket, no sparse payloads.
  RunExplorerLikeSequence(/*max_dims=*/6, /*seed=*/20260808u);
}

TEST(DominanceIndexTest, MatchesFlatReferenceWideWithSparsePayloads) {
  // Widths up to 40: group wrap disables the fast accept for part of
  // the corpus (exact and inexact entries share buckets), and AddAuto
  // stores the sparse half of the corpus as pair payloads.
  RunExplorerLikeSequence(/*max_dims=*/40, /*seed=*/0xd0117e5u);
}

TEST(DominanceIndexTest, TieRankPicksMinimumNodeAcrossBuckets) {
  // Three dominators of {1, 1} living in THREE different buckets
  // (different magnitude words and one wild entry): the minimum id
  // must win regardless of bucket enumeration order.
  MarkingArena arena;
  DominanceIndex index;
  const std::vector<int64_t> small{1, 1};
  const std::vector<int64_t> medium{2, 2};
  const std::vector<int64_t> omegas{kOmega, kOmega};
  const std::vector<int64_t> disjoint{0, 0, 5};
  index.Insert(3, arena.Add(medium));
  index.Insert(5, arena.Add(omegas));   // wild bucket
  index.Insert(7, arena.Add(small));    // equality also dominates
  index.Insert(9, arena.Add(disjoint)); // never a dominator of {1,1}
  DominanceIndex::Stats stats;
  EXPECT_EQ(index.DominatorOf(MarkingView(small), &stats), 3);
  // A probe only the wild entry covers.
  const std::vector<int64_t> tall{100, 100};
  EXPECT_EQ(index.DominatorOf(MarkingView(tall), &stats), 5);
  // Absorbing {ω, ω, ω} covers every entry including the wild one.
  const std::vector<int64_t> top{kOmega, kOmega, kOmega};
  std::set<int> victims;
  index.RemoveCoveredBy(MarkingView(top), &stats,
                        [&victims](int node) { victims.insert(node); });
  EXPECT_EQ(victims, (std::set<int>{3, 5, 7, 9}));
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.num_buckets(), 0u);
}

TEST(DominanceIndexTest, MultiRelationK3Deterministic) {
  // End-to-end: the bucketed index's probe decisions depend on the
  // antichain content alone, so EVERY exploration counter — including
  // the index counters — must be identical across repeated runs on the
  // k=3 family the acceptance numbers are pinned on.
  bench::Workload w = bench::MakeMultiRelation(/*size=*/3, /*depth=*/2,
                                               /*num_rels=*/3);
  VerifyResult reference = Verify(w.system, w.property, {});
  VerifyResult again = Verify(w.system, w.property, {});
  EXPECT_EQ(again.verdict, reference.verdict);
  EXPECT_EQ(again.counterexample, reference.counterexample);
  EXPECT_EQ(again.stats.cov_nodes, reference.stats.cov_nodes);
  EXPECT_EQ(again.stats.cov_edges, reference.stats.cov_edges);
  EXPECT_EQ(again.stats.cover_edges, reference.stats.cover_edges);
  EXPECT_EQ(again.stats.pruned_successors,
            reference.stats.pruned_successors);
  EXPECT_EQ(again.stats.deactivated_nodes,
            reference.stats.deactivated_nodes);
  EXPECT_EQ(again.stats.antichain_peak, reference.stats.antichain_peak);
  EXPECT_EQ(again.stats.antichain_probes,
            reference.stats.antichain_probes);
  EXPECT_EQ(again.stats.antichain_bucket_probes,
            reference.stats.antichain_bucket_probes);
  EXPECT_EQ(again.stats.antichain_skipped_by_summary,
            reference.stats.antichain_skipped_by_summary);
  EXPECT_EQ(again.stats.antichain_buckets_peak,
            reference.stats.antichain_buckets_peak);
  EXPECT_EQ(again.stats.sparse_markings,
            reference.stats.sparse_markings);
  EXPECT_EQ(again.stats.ample_reduced_successors,
            reference.stats.ample_reduced_successors);
}

}  // namespace
}  // namespace has
