#include <gtest/gtest.h>

#include "builders.h"
#include "core/successor.h"

namespace has {
namespace {

TEST(TaskContextTest, CollectsAtomsAndNullChecks) {
  ArtifactSystem system = testing::ParentChildSystem();
  VerifierOptions options;
  TaskContext parent(&system, nullptr, 0, options, nullptr);
  // pick's atoms + child's opening pre + null checks for passed var.
  EXPECT_GE(parent.eq_atoms().size(), 2u);
  TaskContext child(&system, nullptr, 1, options, nullptr);
  EXPECT_FALSE(child.input_vars().empty());
}

TEST(EnumerateOpeningTest, InitializesNonInputs) {
  ArtifactSystem system = testing::ParentChildSystem();
  VerifierOptions options;
  TaskContext child(&system, nullptr, 1, options, nullptr);
  // Input: cx is non-null (from an anchored parent x).
  PartialIsoType input(&system.schema(), &system.task(1).vars(),
                       options.max_nav_depth);
  ASSERT_TRUE(input.DecideAtom(*Condition::IsNull(0), false));
  bool truncated = false;
  std::vector<SymbolicConfig> opens =
      EnumerateOpening(child, input, Cell(), &truncated);
  EXPECT_FALSE(truncated);
  ASSERT_FALSE(opens.empty());
  for (const SymbolicConfig& s : opens) {
    EXPECT_FALSE(s.iso.VarIsNull(0) && true) << "input must stay non-null";
    // flag (numeric, non-input) starts at 0.
    int e = s.iso.LookupVar(1);
    ASSERT_NE(e, -1);
    EXPECT_EQ(*s.iso.ConstOf(e), Rational(0));
  }
}

TEST(EnumerateInternalTest, PostConditionEnforced) {
  ArtifactSystem system = testing::FlatSystem(false);
  VerifierOptions options;
  TaskContext ctx(&system, nullptr, 0, options, nullptr);
  PartialIsoType start(&system.schema(), &system.task(0).vars(),
                       options.max_nav_depth);
  ASSERT_TRUE(start.DecideAtom(*Condition::IsNull(0), true));
  ASSERT_TRUE(start.DecideAtom(*Condition::IsNull(1), true));
  SymbolicConfig cur{start, Cell()};
  bool truncated = false;
  // pick: post R(x, y): every successor anchors x at R and relates y.
  std::vector<InternalSuccessor> succs = EnumerateInternal(
      ctx, ctx.InputBase(cur), system.task(0).service(0), &truncated);
  ASSERT_FALSE(succs.empty());
  CondPtr atom = Condition::Rel(1, {0, 1});
  for (const InternalSuccessor& s : succs) {
    EXPECT_EQ(s.next.iso.EvalAtom(*atom), Truth::kTrue);
    EXPECT_TRUE(s.set_ops.empty());
  }
}

TEST(EnumerateInternalTest, SetUpdatesProduceSignatures) {
  ArtifactSystem system = testing::FlatSystem(true);
  VerifierOptions options;
  TaskContext ctx(&system, nullptr, 0, options, nullptr);
  PartialIsoType start(&system.schema(), &system.task(0).vars(),
                       options.max_nav_depth);
  ASSERT_TRUE(start.DecideAtom(*Condition::IsNull(0), true));
  ASSERT_TRUE(start.DecideAtom(*Condition::IsNull(1), true));
  SymbolicConfig cur{start, Cell()};
  bool truncated = false;
  std::vector<InternalSuccessor> succs = EnumerateInternal(
      ctx, ctx.InputBase(cur), system.task(0).service(0), &truncated);
  ASSERT_FALSE(succs.empty());
  for (const InternalSuccessor& s : succs) {
    ASSERT_EQ(s.set_ops.size(), 1u);
    EXPECT_EQ(s.set_ops[0].relation, 0);
    EXPECT_TRUE(s.set_ops[0].inserts);
    EXPECT_FALSE(s.set_ops[0].retrieves);
  }
  // The inserted tuple's TS-type is the canonical projection of the
  // shared pre-state (Signature retained as the debug/printing path);
  // both tuple variables are null there, so it is input-bound.
  const TsType ts = ctx.TsTypeOf(cur.iso);
  EXPECT_FALSE(ts.type.Signature().empty());
  EXPECT_TRUE(ts.input_bound);
}

TEST(ChildInterfaceTest, InputProjectionAndRename) {
  ArtifactSystem system = testing::ParentChildSystem();
  VerifierOptions options;
  TaskContext parent(&system, nullptr, 0, options, nullptr);
  TaskContext child(&system, nullptr, 1, options, nullptr);
  PartialIsoType piso(&system.schema(), &system.task(0).vars(),
                      options.max_nav_depth);
  ASSERT_TRUE(piso.DecideAtom(*Condition::IsNull(0), false));
  SymbolicConfig pstate{piso, Cell()};
  PartialIsoType input = ChildInputIso(parent, child, pstate);
  // Child's cx (var 0 in child scope) inherits non-nullness.
  EXPECT_EQ(input.EvalAtom(*Condition::IsNull(0)), Truth::kFalse);
}

TEST(ChildInterfaceTest, ReturnOverwritesNumericTarget) {
  ArtifactSystem system = testing::ParentChildSystem();
  VerifierOptions options;
  TaskContext parent(&system, nullptr, 0, options, nullptr);
  TaskContext child(&system, nullptr, 1, options, nullptr);
  // Parent state: got == 0.
  PartialIsoType piso(&system.schema(), &system.task(0).vars(),
                      options.max_nav_depth);
  ASSERT_TRUE(piso.AssertEq(piso.VarElement(1),
                            piso.ConstElement(Rational(0))));
  SymbolicConfig pstate{piso, Cell()};
  // Child output: flag == 1.
  PartialIsoType out(&system.schema(), &system.task(1).vars(),
                     options.max_nav_depth);
  ASSERT_TRUE(out.AssertEq(out.VarElement(1), out.ConstElement(Rational(1))));
  bool truncated = false;
  std::vector<SymbolicConfig> nexts =
      ApplyChildReturn(parent, child, pstate, out, Cell(), &truncated);
  ASSERT_FALSE(nexts.empty());
  for (const SymbolicConfig& s : nexts) {
    int e = s.iso.LookupVar(1);
    ASSERT_NE(e, -1);
    EXPECT_EQ(*s.iso.ConstOf(e), Rational(1));  // got overwritten to 1
  }
}

}  // namespace
}  // namespace has
