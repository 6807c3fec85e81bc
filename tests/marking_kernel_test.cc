// Differential tests for the packed marking kernels (vass/marking.h):
// the std::vector overloads in namespace marking are the scalar
// REFERENCE semantics (0-padded, per-dimension ω branches); the
// MarkingView kernels (DominanceLeq, operator==, ApplyView) are the
// packed reimplementations the explorer actually runs. Every property
// here quantifies over a fixed-seed random corpus plus hand-picked ω
// edge cases.
#include <cstdint>
#include <random>
#include <vector>

#include "gtest/gtest.h"
#include "vass/marking.h"

namespace has {
namespace {

std::vector<int64_t> Canonical(std::vector<int64_t> m) {
  while (!m.empty() && m.back() == 0) m.pop_back();
  return m;
}

// Random canonical marking mixing zeros, small values and ω. Raw
// mt19937 draws (standard-specified) keep the corpus identical across
// standard libraries.
std::vector<int64_t> RandomMarking(std::mt19937* rng, int max_dims) {
  std::vector<int64_t> m(static_cast<size_t>((*rng)() % (max_dims + 1)), 0);
  for (auto& v : m) {
    const uint32_t r = (*rng)() % 10;
    if (r < 4) continue;            // 0 with p = 0.4
    v = r == 9 ? kOmega : static_cast<int64_t>(r - 3);  // ω with p = 0.1
  }
  return Canonical(std::move(m));
}

Delta RandomDelta(std::mt19937* rng, int max_dims) {
  Delta delta(static_cast<size_t>((*rng)() % 4));
  for (auto& [d, change] : delta) {
    d = static_cast<int>((*rng)() % static_cast<uint32_t>(max_dims));
    change = static_cast<int64_t>((*rng)() % 7) - 3;  // -3..+3
  }
  return delta;
}

TEST(MarkingKernelTest, DominanceMatchesScalarReferenceOnRandomPairs) {
  std::mt19937 rng(20260808u);
  for (int trial = 0; trial < 20000; ++trial) {
    const int max_dims = 1 + trial % 40;  // cross the 32-dim group wrap
    std::vector<int64_t> a = RandomMarking(&rng, max_dims);
    std::vector<int64_t> b = RandomMarking(&rng, max_dims);
    const bool expected = marking::LessEq(a, b);
    EXPECT_EQ(DominanceLeq(MarkingView(a), MarkingView(b)), expected)
        << marking::ToString(a) << " vs " << marking::ToString(b);
    EXPECT_EQ(MarkingView(a) == MarkingView(b), marking::Equal(a, b));
  }
}

TEST(MarkingKernelTest, DominanceOmegaEdgeCases) {
  const std::vector<int64_t> empty;
  const std::vector<int64_t> ones{1, 1, 1, 1, 1};
  const std::vector<int64_t> omegas{kOmega, kOmega, kOmega, kOmega, kOmega};
  std::vector<int64_t> omega_then_finite{kOmega, 1};
  // ω ≤ ω, finite ≤ ω, ω ≰ finite.
  EXPECT_TRUE(DominanceLeq(MarkingView(omegas), MarkingView(omegas)));
  EXPECT_TRUE(DominanceLeq(MarkingView(ones), MarkingView(omegas)));
  EXPECT_FALSE(DominanceLeq(MarkingView(omegas), MarkingView(ones)));
  EXPECT_TRUE(DominanceLeq(MarkingView(empty), MarkingView(omegas)));
  EXPECT_FALSE(DominanceLeq(MarkingView(omega_then_finite),
                            MarkingView(ones)));
  // Failure in the FIRST lane group vs the scalar tail: widths 5 and 9
  // with the offending dimension first resp. last (width 9 exercises
  // the 4-lane body + tail split).
  for (size_t width : {5u, 9u}) {
    for (size_t bad : {size_t{0}, width - 1}) {
      std::vector<int64_t> a(width, 1), b(width, 1);
      a[bad] = 2;
      EXPECT_FALSE(DominanceLeq(MarkingView(a), MarkingView(b)))
          << "width " << width << " bad dim " << bad;
      b[bad] = kOmega;  // ω in b absorbs the excess
      EXPECT_TRUE(DominanceLeq(MarkingView(a), MarkingView(b)));
    }
  }
  // Canonical-width mismatch: wider a can never be ≤ shorter b (a's
  // last dimension is nonzero against b's implicit 0 there).
  std::vector<int64_t> wide{0, 0, 0, 0, 0, 1};
  EXPECT_FALSE(DominanceLeq(MarkingView(wide), MarkingView(ones)));
  EXPECT_TRUE(DominanceLeq(MarkingView(empty), MarkingView(empty)));
}

TEST(MarkingKernelTest, ApplyViewMatchesScalarReference) {
  std::mt19937 rng(0xabcdef1u);
  std::vector<int64_t> ref_out;
  std::vector<int64_t> view_out;
  for (int trial = 0; trial < 20000; ++trial) {
    const int max_dims = 1 + trial % 12;
    std::vector<int64_t> m = RandomMarking(&rng, max_dims);
    Delta delta = RandomDelta(&rng, max_dims + 2);
    const bool ref_enabled = marking::Apply(m, delta, &ref_out);
    const bool view_enabled = marking::ApplyView(MarkingView(m), delta,
                                                 &view_out);
    ASSERT_EQ(view_enabled, ref_enabled)
        << marking::ToString(m) << " + delta[" << delta.size() << "]";
    if (ref_enabled) {
      ASSERT_EQ(view_out, ref_out) << marking::ToString(m);
      // Canonical form is preserved.
      ASSERT_TRUE(view_out.empty() || view_out.back() != 0);
    }
  }
}

TEST(MarkingKernelTest, ApplyViewOmegaAbsorbsAndRepeatedDimsRunInOrder) {
  std::vector<int64_t> out;
  // ω absorbs a negative delta (never disables, never leaves ω).
  std::vector<int64_t> m{kOmega, 1};
  EXPECT_TRUE(marking::ApplyView(MarkingView(m), {{0, -5}}, &out));
  EXPECT_EQ(out, (std::vector<int64_t>{kOmega, 1}));
  // Repeated dimensions apply in order: 0 -1 is disabled even when a
  // later entry restores it...
  std::vector<int64_t> zero_one{0, 1};
  EXPECT_FALSE(
      marking::ApplyView(MarkingView(zero_one), {{0, -1}, {0, 2}}, &out));
  // ...while +1 then -1 stays enabled and nets to the canonical trim.
  EXPECT_TRUE(
      marking::ApplyView(MarkingView(zero_one), {{1, 1}, {1, -2}}, &out));
  EXPECT_TRUE(out.empty());
  // Writing past the current width grows it.
  EXPECT_TRUE(marking::ApplyView(MarkingView(zero_one), {{3, 2}}, &out));
  EXPECT_EQ(out, (std::vector<int64_t>{0, 1, 0, 2}));
}

TEST(MarkingKernelTest, ArenaViewsAreStableAndStructurallyEqual) {
  MarkingArena arena;
  std::mt19937 rng(7u);
  std::vector<std::vector<int64_t>> originals;
  std::vector<MarkingView> views;
  // Enough values to force several chunk rollovers, plus one marking
  // larger than a whole chunk (the oversized-splice path).
  for (int i = 0; i < 5000; ++i) {
    originals.push_back(RandomMarking(&rng, 16));
    views.push_back(arena.Add(originals.back()));
  }
  std::vector<int64_t> huge(size_t{1} << 14, 1);
  originals.push_back(huge);
  views.push_back(arena.Add(huge));
  originals.push_back(RandomMarking(&rng, 16));
  views.push_back(arena.Add(originals.back()));
  for (size_t i = 0; i < views.size(); ++i) {
    ASSERT_TRUE(views[i] == MarkingView(originals[i])) << i;
  }
}

}  // namespace
}  // namespace has
