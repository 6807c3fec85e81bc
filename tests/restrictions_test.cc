// Coverage of the eight decidability restrictions of Section 6: the
// statically checkable ones are rejected by the validator; the
// operational ones are enforced by the run semantics (CheckRunTree) and
// by the symbolic successor relation.
#include <gtest/gtest.h>

#include "builders.h"
#include "core/successor.h"
#include "model/validate.h"
#include "runs/run_tree.h"

namespace has {
namespace {

// Restriction 1: only input parameters propagate across internal
// transitions — non-input variables of the symbolic successor are
// unconstrained unless the post-condition pins them.
TEST(Restrictions, R1_OnlyInputsPropagate) {
  ArtifactSystem system = testing::FlatSystem(false);
  VerifierOptions options;
  TaskContext ctx(&system, nullptr, 0, options, nullptr);
  PartialIsoType start(&system.schema(), &system.task(0).vars(),
                       options.max_nav_depth);
  // x non-null before drop; after drop x must be null (post), and no
  // residue of the old anchoring may survive.
  ASSERT_TRUE(start.DecideAtom(*Condition::IsNull(0), false));
  ASSERT_TRUE(start.DecideAtom(*Condition::IsNull(1), false));
  SymbolicConfig cur{start, Cell()};
  bool truncated = false;
  std::vector<InternalSuccessor> succs = EnumerateInternal(
      ctx, ctx.InputBase(cur), system.task(0).service(1), &truncated);
  ASSERT_FALSE(succs.empty());
  for (const InternalSuccessor& s : succs) {
    EXPECT_TRUE(s.next.iso.VarIsNull(0));
    EXPECT_TRUE(s.next.iso.VarIsNull(1));
  }
}

// Restriction 2: a child may overwrite only null ID variables of the
// parent.
TEST(Restrictions, R2_OnlyNullIdTargetsOverwritten) {
  ArtifactSystem system;
  system.schema().AddRelation("R");
  TaskId root = system.AddTask("Root", kNoTask);
  int rx = system.task(root).vars().AddVar("rx", VarSort::kId);
  TaskId child_id = system.AddTask("Child", root);
  Task& child = system.task(child_id);
  int cx = child.vars().AddVar("cx", VarSort::kId);
  child.AddOutput(rx, cx);
  child.SetOpeningPre(Condition::True());
  child.SetClosingPre(Condition::True());
  ASSERT_TRUE(ValidateSystem(system).ok());
  VerifierOptions options;
  TaskContext pctx(&system, nullptr, root, options, nullptr);
  TaskContext cctx(&system, nullptr, child_id, options, nullptr);
  // Parent rx non-null: the child's returned value must be DISCARDED.
  PartialIsoType piso(&system.schema(), &system.task(root).vars(),
                      options.max_nav_depth);
  ASSERT_TRUE(piso.DecideAtom(*Condition::IsNull(rx), false));
  PartialIsoType out(&system.schema(), &child.vars(),
                     options.max_nav_depth);
  ASSERT_TRUE(out.DecideAtom(*Condition::IsNull(cx), true));
  bool truncated = false;
  std::vector<SymbolicConfig> nexts = ApplyChildReturn(
      pctx, cctx, SymbolicConfig{piso, Cell()}, out, Cell(), &truncated);
  ASSERT_FALSE(nexts.empty());
  for (const SymbolicConfig& s : nexts) {
    EXPECT_FALSE(s.iso.VarIsNull(rx)) << "non-null target was overwritten";
  }
}

// Restriction 3: return targets disjoint from the parent's input
// variables (statically checked).
TEST(Restrictions, R3_ReturnIntoInputRejected) {
  ArtifactSystem system;
  system.schema().AddRelation("R");
  TaskId root = system.AddTask("Root", kNoTask);
  int rx = system.task(root).vars().AddVar("rx", VarSort::kId);
  system.task(root).AddInput(rx, -1);
  TaskId child = system.AddTask("Child", root);
  int cx = system.task(child).vars().AddVar("cx", VarSort::kId);
  system.task(child).AddOutput(rx, cx);
  EXPECT_FALSE(ValidateSystem(system).ok());
}

// Restriction 4: internal transitions require all active subtasks to
// have returned — enforced by the run-tree checker.
TEST(Restrictions, R4_InternalWithActiveChildRejected) {
  ArtifactSystem system = testing::ParentChildSystem();
  DatabaseSchema& schema = system.schema();
  DatabaseInstance db(&schema);
  ASSERT_TRUE(db.Insert(0, {Value::Id(0, 1)}).ok());
  RunTree tree;
  LocalRun parent;
  parent.task = 0;
  parent.input = Valuation(2);
  Valuation nu0 = OpeningValuation(system.task(0), parent.input);
  parent.steps.push_back(RunStep{ServiceRef::Opening(0), nu0, {}, -1});
  // pick: x := R(1)
  Valuation nu1 = nu0;
  nu1[0] = Value::Id(0, 1);
  parent.steps.push_back(RunStep{ServiceRef::Internal(0, 0), nu1, {}, -1});
  // open child, then fire an internal service while the child is open.
  LocalRun child;
  child.task = 1;
  child.input = Valuation(2);
  child.input[0] = Value::Id(0, 1);
  Valuation cnu = OpeningValuation(system.task(1), child.input);
  child.steps.push_back(RunStep{ServiceRef::Opening(1), cnu, {}, -1});
  child.returning = false;
  int child_node = 1;
  parent.steps.push_back(RunStep{ServiceRef::Opening(1), nu1, {},
                                 child_node});
  Valuation nu2 = nu1;
  nu2[0] = Value::Id(0, 1);
  parent.steps.push_back(RunStep{ServiceRef::Internal(0, 0), nu2, {}, -1});
  tree.runs.push_back(parent);
  tree.runs.push_back(child);
  Status s = CheckRunTree(system, db, tree);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("restriction 4"), std::string::npos);
}

// Restrictions 5 and 7, per-relation form: each relation S_T,i has a
// FIXED tuple (re-declaring a name replaces its tuple in place rather
// than growing the family) and every set update targets a declared
// relation through its index.
TEST(Restrictions, R5_R7_PerRelationFixedTuple) {
  ArtifactSystem system = testing::FlatSystem(true);
  EXPECT_TRUE(system.task(0).has_set());
  EXPECT_EQ(system.task(0).num_set_relations(), 1);
  EXPECT_EQ(system.task(0).set_vars().size(), 1u);
  // Re-declaring the default relation replaces its tuple in place.
  system.task(0).DeclareSet({0, 1});
  EXPECT_EQ(system.task(0).num_set_relations(), 1);
  EXPECT_EQ(system.task(0).set_vars().size(), 2u);
  // A second NAMED relation genuinely extends the family.
  int r = system.task(0).AddSetRelation("Aux", {1});
  EXPECT_EQ(r, 1);
  EXPECT_EQ(system.task(0).num_set_relations(), 2);
  EXPECT_EQ(system.task(0).FindSetRelation("Aux"), 1);
}

// Per-relation validation (generalized restrictions 5/7): every
// relation of the family is checked on its own.
TEST(Restrictions, PerRelationValidationErrors) {
  {
    // Arity 0.
    ArtifactSystem system = testing::FlatSystem(false);
    system.task(0).AddSetRelation("Empty", {});
    EXPECT_FALSE(ValidateSystem(system).ok());
  }
  {
    // Repeated ID variable within one relation's tuple.
    ArtifactSystem system = testing::FlatSystem(false);
    system.task(0).AddSetRelation("Dup", {0, 0});
    EXPECT_FALSE(ValidateSystem(system).ok());
  }
  {
    // A numeric variable in a SECOND relation (the first is fine).
    ArtifactSystem system = testing::FlatSystem(true);
    Task& t = system.task(0);
    int n = t.vars().AddVar("n", VarSort::kNumeric);
    t.AddSetRelation("Nums", {n});
    EXPECT_FALSE(ValidateSystem(system).ok());
  }
  {
    // Update targeting an undeclared relation index.
    ArtifactSystem system = testing::FlatSystem(true);
    InternalService bad;
    bad.name = "bad";
    bad.pre = Condition::True();
    bad.post = Condition::True();
    bad.MarkInsert(/*rel=*/1);  // only relation 0 exists
    system.task(0).AddInternalService(std::move(bad));
    EXPECT_FALSE(ValidateSystem(system).ok());
  }
  {
    // Duplicate update of one relation in a single service delta.
    ArtifactSystem system = testing::FlatSystem(true);
    InternalService bad;
    bad.name = "bad";
    bad.pre = Condition::True();
    bad.post = Condition::True();
    bad.insert_rels = {0, 0};
    system.task(0).AddInternalService(std::move(bad));
    EXPECT_FALSE(ValidateSystem(system).ok());
  }
  {
    // A well-formed TWO-relation task validates.
    ArtifactSystem system = testing::FlatSystem(true);
    Task& t = system.task(0);
    t.AddSetRelation("Aux", {1});
    InternalService move;
    move.name = "move";
    move.pre = Condition::True();
    move.post = Condition::True();
    move.MarkRetrieve(0);
    move.MarkInsert(1);
    t.AddInternalService(std::move(move));
    EXPECT_TRUE(ValidateSystem(system).ok())
        << ValidateSystem(system).ToString();
  }
}

// Restriction 6: the artifact relation resets when a task (re)opens —
// opening configurations always carry an empty set (S_0 = ∅,
// Definition 9) and the product's counters start at 0̄.
TEST(Restrictions, R6_SetResetsOnOpen) {
  ArtifactSystem system = testing::FlatSystem(true);
  Valuation input(2);
  Valuation nu = OpeningValuation(system.task(0), input);
  RunTree tree;
  LocalRun run;
  run.task = 0;
  run.input = input;
  SetContents nonempty;
  nonempty.insert({Value::Id(1, 1)});
  run.steps.push_back(
      RunStep{ServiceRef::Opening(0), nu, TaskSets{nonempty}, -1});
  tree.runs.push_back(run);
  DatabaseInstance db(&system.schema());
  EXPECT_FALSE(CheckRunTree(system, db, tree).ok());
}

// Restriction 8: each subtask opens at most once per segment.
TEST(Restrictions, R8_DoubleOpenRejected) {
  ArtifactSystem system = testing::ParentChildSystem();
  DatabaseInstance db(&system.schema());
  ASSERT_TRUE(db.Insert(0, {Value::Id(0, 1)}).ok());
  RunTree tree;
  LocalRun parent;
  parent.task = 0;
  parent.input = Valuation(2);
  Valuation nu0 = OpeningValuation(system.task(0), parent.input);
  parent.steps.push_back(RunStep{ServiceRef::Opening(0), nu0, {}, -1});
  Valuation nu1 = nu0;
  nu1[0] = Value::Id(0, 1);
  parent.steps.push_back(RunStep{ServiceRef::Internal(0, 0), nu1, {}, -1});
  // Child opens, returns, then opens AGAIN in the same segment.
  LocalRun child;
  child.task = 1;
  child.input = Valuation(2);
  child.input[0] = Value::Id(0, 1);
  Valuation cnu = OpeningValuation(system.task(1), child.input);
  child.steps.push_back(RunStep{ServiceRef::Opening(1), cnu, {}, -1});
  Valuation cnu1 = cnu;
  cnu1[1] = Value::Real(1);
  child.steps.push_back(RunStep{ServiceRef::Internal(1, 0), cnu1, {}, -1});
  child.steps.push_back(RunStep{ServiceRef::Closing(1), cnu1, {}, -1});
  child.returning = true;
  child.output = cnu1;
  tree.runs.push_back(parent);
  tree.runs.push_back(child);
  tree.runs.push_back(child);  // second identical call
  LocalRun& p = tree.runs[0];
  p.steps.push_back(RunStep{ServiceRef::Opening(1), nu1, {}, 1});
  Valuation nu2 = nu1;
  nu2[1] = Value::Real(1);
  p.steps.push_back(RunStep{ServiceRef::Closing(1), nu2, {}, -1});
  p.steps.push_back(RunStep{ServiceRef::Opening(1), nu2, {}, 2});
  Status s = CheckRunTree(system, db, tree);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("restriction 8"), std::string::npos);
}

}  // namespace
}  // namespace has
