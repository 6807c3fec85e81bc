// The paper's navigation-depth bound h(T) (Section 4.1) per schema
// class, on the bench/workloads.h chains at size 3 (Appendix C.3,
// Theorems 56-58): polynomial for acyclic schemas, exponential in the
// hierarchy depth for linearly-cyclic ones, and a tower that saturates
// at once for cyclic ones.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/nav.h"
#include "schema/fk_graph.h"
#include "workloads.h"

namespace has {
namespace {

/// h(T) of the root task for the size-3 chain of each depth in 1..4.
std::vector<uint64_t> RootDepths(SchemaClass cls) {
  std::vector<uint64_t> out;
  for (int depth = 1; depth <= 4; ++depth) {
    bench::Workload w = bench::MakeWorkload(cls, /*size=*/3, depth,
                                            /*with_sets=*/false,
                                            /*with_arith=*/false);
    std::vector<uint64_t> depths = PaperNavigationDepths(w.system);
    EXPECT_EQ(depths.size(), static_cast<size_t>(w.system.num_tasks()));
    out.push_back(depths[w.system.root()]);
  }
  return out;
}

TEST(NavDepthTest, AcyclicIsPolynomial) {
  EXPECT_EQ(RootDepths(SchemaClass::kAcyclic),
            (std::vector<uint64_t>{7, 10, 10, 10}));
}

TEST(NavDepthTest, LinearlyCyclicIsExponentialInDepth) {
  EXPECT_EQ(RootDepths(SchemaClass::kLinearlyCyclic),
            (std::vector<uint64_t>{9, 41, 169, 681}));
}

TEST(NavDepthTest, CyclicSaturates) {
  EXPECT_EQ(RootDepths(SchemaClass::kCyclic),
            (std::vector<uint64_t>{16, 655356, kSaturated, kSaturated}));
}

TEST(NavDepthTest, ParentBoundCoversEveryChild) {
  // h(T) = 1 + |x̄T|·F(max child h): a parent's bound is never below a
  // child's, so the root carries the largest value of the chain.
  for (SchemaClass cls : {SchemaClass::kAcyclic, SchemaClass::kLinearlyCyclic,
                          SchemaClass::kCyclic}) {
    bench::Workload w = bench::MakeWorkload(cls, /*size=*/3, /*depth=*/3,
                                            false, false);
    std::vector<uint64_t> depths = PaperNavigationDepths(w.system);
    for (TaskId t = 0; t < w.system.num_tasks(); ++t) {
      for (TaskId c : w.system.task(t).children()) {
        EXPECT_GE(depths[t], depths[c]) << w.name;
      }
    }
  }
}

TEST(NavDepthTest, CyclicPathCountDoesNotGrowWithSize) {
  // F(12) on the cyclic family is 2^13 - 1 for every size: the number
  // of relations does not change the longest FK path count.
  for (int size = 2; size <= 6; ++size) {
    EXPECT_EQ(FkGraph(bench::CyclicSchema(size)).MaxPaths(12), 8191u)
        << "size " << size;
  }
}

}  // namespace
}  // namespace has
