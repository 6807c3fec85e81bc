#include <gtest/gtest.h>

#include <random>

#include "ltl/buchi.h"

namespace has {
namespace {

using W = std::vector<std::vector<bool>>;

TEST(BuchiTest, EventuallyAcceptsLassos) {
  BuchiAutomaton b = BuildBuchi(LtlFormula::Eventually(LtlFormula::Prop(0)),
                                1);
  EXPECT_TRUE(b.AcceptsLasso({{true}}, {{false}}));
  EXPECT_TRUE(b.AcceptsLasso({{false}, {false}}, {{true}}));
  EXPECT_FALSE(b.AcceptsLasso({{false}}, {{false}}));
}

TEST(BuchiTest, AlwaysAcceptsOnlyConstantTrue) {
  BuchiAutomaton b =
      BuildBuchi(LtlFormula::Always(LtlFormula::Prop(0)), 1);
  EXPECT_TRUE(b.AcceptsLasso({}, {{true}}));
  EXPECT_FALSE(b.AcceptsLasso({{true}}, {{true}, {false}}));
}

TEST(BuchiTest, GFRequiresRecurrence) {
  BuchiAutomaton b = BuildBuchi(
      LtlFormula::Always(LtlFormula::Eventually(LtlFormula::Prop(0))), 1);
  EXPECT_TRUE(b.AcceptsLasso({}, {{false}, {true}}));
  EXPECT_FALSE(b.AcceptsLasso({{true}}, {{false}}));
}

TEST(BuchiTest, FiniteAcceptance) {
  BuchiAutomaton b = BuildBuchi(LtlFormula::Eventually(LtlFormula::Prop(0)),
                                1);
  EXPECT_TRUE(b.AcceptsFinite({{false}, {true}}));
  EXPECT_FALSE(b.AcceptsFinite({{false}, {false}}));
  // X at the last position is false under the strong-next semantics.
  BuchiAutomaton bx =
      BuildBuchi(LtlFormula::Next(LtlFormula::Prop(0)), 1);
  EXPECT_FALSE(bx.AcceptsFinite({{true}}));
  EXPECT_TRUE(bx.AcceptsFinite({{false}, {true}}));
}

TEST(BuchiTest, ClosureWiderThanOneWord) {
  // (pad ∧ p0) U X p1, with pad a chain of 66 boolean nodes over true
  // and false: the closure lists pad's entries first, so every entry the
  // tableau branches on or checks lies past bit 63 of an atom's row.
  LtlPtr pad = LtlFormula::True();
  for (int i = 0; i < 66; ++i) {
    pad = i % 2 == 0 ? LtlFormula::Or(pad, LtlFormula::False())
                     : LtlFormula::And(pad, LtlFormula::True());
  }
  const LtlPtr f =
      LtlFormula::Until(LtlFormula::And(pad, LtlFormula::Prop(0)),
                        LtlFormula::Next(LtlFormula::Prop(1)));
  const BuchiAutomaton b = BuildBuchi(f, 2);
  std::mt19937 rng(11);
  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_int_distribution<int> len(1, 4);
  for (int round = 0; round < 40; ++round) {
    W prefix, loop;
    for (int i = len(rng); i > 0; --i) {
      prefix.push_back({coin(rng) == 1, coin(rng) == 1});
    }
    for (int i = len(rng); i > 0; --i) {
      loop.push_back({coin(rng) == 1, coin(rng) == 1});
    }
    EXPECT_EQ(b.AcceptsFinite(prefix), f->EvalFinite(prefix)) << round;
    EXPECT_EQ(b.AcceptsLasso(prefix, loop), f->EvalLasso(prefix, loop))
        << round;
  }
}

class BuchiRandomCrossCheck : public ::testing::TestWithParam<int> {};

TEST_P(BuchiRandomCrossCheck, AgreesWithDirectEvaluation) {
  // Random small formulas on random lassos and finite words: the
  // automaton must agree with the direct semantics evaluators.
  std::mt19937 rng(GetParam());
  auto random_formula = [&](auto&& self, int depth) -> LtlPtr {
    std::uniform_int_distribution<int> pick(0, depth <= 0 ? 1 : 6);
    switch (pick(rng)) {
      case 0:
        return LtlFormula::Prop(0);
      case 1:
        return LtlFormula::Prop(1);
      case 2:
        return LtlFormula::Not(self(self, depth - 1));
      case 3:
        return LtlFormula::And(self(self, depth - 1), self(self, depth - 1));
      case 4:
        return LtlFormula::Next(self(self, depth - 1));
      case 5:
        return LtlFormula::Until(self(self, depth - 1),
                                 self(self, depth - 1));
      default:
        return LtlFormula::Or(self(self, depth - 1), self(self, depth - 1));
    }
  };
  std::uniform_int_distribution<int> coin(0, 1);
  for (int round = 0; round < 25; ++round) {
    LtlPtr f = random_formula(random_formula, 2);
    BuchiAutomaton b = BuildBuchi(f, 2);
    // Finite word.
    W word;
    std::uniform_int_distribution<int> len(1, 4);
    int n = len(rng);
    for (int i = 0; i < n; ++i) {
      word.push_back({coin(rng) == 1, coin(rng) == 1});
    }
    EXPECT_EQ(b.AcceptsFinite(word), f->EvalFinite(word))
        << f->ToString() << " on finite word, round " << round;
    // Lasso.
    W prefix = word;
    W loop;
    int m = len(rng);
    for (int i = 0; i < m; ++i) {
      loop.push_back({coin(rng) == 1, coin(rng) == 1});
    }
    EXPECT_EQ(b.AcceptsLasso(prefix, loop), f->EvalLasso(prefix, loop))
        << f->ToString() << " on lasso, round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuchiRandomCrossCheck,
                         ::testing::Range(1, 9));

}  // namespace
}  // namespace has
