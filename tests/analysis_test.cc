// Static spec analyzer and property-directed slicer (src/analysis/):
// unit coverage of the conservative satisfiability oracle, directed
// tests for every diagnostic code (dead services via infeasible
// arithmetic, unreachable chains, retrieve starvation, write-never-read,
// vacuous atoms), slice keep-set tests (including the variable that
// feeds the property only transitively through a retrieve), and the
// slice-on/off differential: verdicts must be IDENTICAL with slicing on
// and off — on every committed workload family and on the parsed
// example specs (mirroring tests/por_test.cc's POR gate).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/sat.h"
#include "analysis/slice.h"
#include "arith/fourier_motzkin.h"
#include "builders.h"
#include "core/verifier.h"
#include "spec/parser.h"
#include "spec/printer.h"
#include "test_paths.h"
#include "workloads.h"

namespace has {
namespace {

// --- helpers ----------------------------------------------------------

/// v - c `op` 0, e.g. Cmp(n, Relop::kLt, 0) is n < 0.
CondPtr Cmp(int v, Relop op, int c) {
  LinearExpr e = LinearExpr::Var(v);
  e.AddConstant(Rational(-c));
  return Condition::Arith(LinearConstraint{std::move(e), op});
}

/// v > c as c - v < 0.
CondPtr Gt(int v, int c) {
  LinearExpr e = -LinearExpr::Var(v);
  e.AddConstant(Rational(c));
  return Condition::Arith(LinearConstraint{std::move(e), Relop::kLt});
}

int CountCode(const std::vector<Diagnostic>& diags, const char* code) {
  int n = 0;
  for (const Diagnostic& d : diags) {
    if (std::string(d.code) == code) ++n;
  }
  return n;
}

bool HasDiag(const std::vector<Diagnostic>& diags, const char* code,
             const std::string& substr) {
  for (const Diagnostic& d : diags) {
    if (std::string(d.code) == code &&
        d.message.find(substr) != std::string::npos) {
      return true;
    }
  }
  return false;
}

/// Slicing on vs. off must agree on the verdict. Returns the slice-off
/// verdict so callers can pin the expected outcome.
Verdict ExpectSliceEquivalence(const ArtifactSystem& system,
                               const HltlProperty& property,
                               const std::string& what,
                               VerifierOptions base = {}) {
  base.slice = false;
  VerifyResult reference = Verify(system, property, base);
  // With slicing off the slice counters must stay zero; the analyzer
  // still runs (diagnostics are unconditional).
  EXPECT_EQ(reference.stats.sliced_services, 0u) << what;
  EXPECT_EQ(reference.stats.sliced_dims, 0u) << what;
  VerifierOptions options = base;
  options.slice = true;
  VerifyResult on = Verify(system, property, options);
  EXPECT_EQ(on.verdict, reference.verdict) << what;
  EXPECT_EQ(on.stats.diagnostics_emitted, reference.stats.diagnostics_emitted)
      << what;
  return reference.verdict;
}

// --- satisfiability oracle --------------------------------------------

TEST(SatOracleTest, InfeasibleArithmetic) {
  std::vector<VarSort> sorts = {VarSort::kNumeric};
  EXPECT_FALSE(MaybeSatisfiable({Cmp(0, Relop::kLt, 0), Gt(0, 0)}, sorts));
  EXPECT_TRUE(MaybeSatisfiable({Gt(0, 0), Cmp(0, Relop::kLt, 5)}, sorts));
  // Conjunction folded into one condition behaves the same.
  EXPECT_FALSE(MaybeSatisfiable(
      {Condition::And(Cmp(0, Relop::kLt, 0), Gt(0, 0))}, sorts));
}

TEST(SatOracleTest, EqualityNullAndRelationAtoms) {
  std::vector<VarSort> sorts = {VarSort::kId, VarSort::kId};
  CondPtr null0 = Condition::IsNull(0);
  EXPECT_FALSE(MaybeSatisfiable({null0, Condition::Not(null0)}, sorts));
  // A positive relation atom forces its ID arguments non-null.
  EXPECT_FALSE(
      MaybeSatisfiable({Condition::Rel(0, {0}), Condition::IsNull(0)}, sorts));
  EXPECT_TRUE(
      MaybeSatisfiable({Condition::Rel(0, {0}), Condition::IsNull(1)}, sorts));
}

TEST(SatOracleTest, AtomBudgetErrsTowardSat) {
  // The same UNSAT pair must come back "maybe satisfiable" when the
  // distinct-atom budget is exceeded: no diagnostic ever rests on an
  // approximation.
  std::vector<VarSort> sorts = {VarSort::kNumeric};
  std::vector<CondPtr> unsat = {Cmp(0, Relop::kLt, 0), Gt(0, 0)};
  EXPECT_FALSE(MaybeSatisfiable(unsat, sorts));
  EXPECT_TRUE(MaybeSatisfiable(unsat, sorts, /*max_atoms=*/1));
}

TEST(SatOracleTest, DefaultCapIsSixteenDistinctAtoms) {
  // x0 = null ∧ x0 ≠ null is UNSAT; padding atoms x_i = x_{i+1} keep it
  // so. With 16 distinct atoms the oracle decides it; a 17th makes it
  // "unknown", and a repeated atom does not count twice.
  std::vector<VarSort> sorts(17, VarSort::kId);
  CondPtr null0 = Condition::IsNull(0);
  std::vector<CondPtr> conj = {null0, Condition::Not(null0)};
  for (int i = 0; i < 15; ++i) conj.push_back(Condition::VarEq(i, i + 1));
  EXPECT_FALSE(MaybeSatisfiable(conj, sorts));
  conj.push_back(Condition::VarEq(0, 1));  // repeats the first padding atom
  EXPECT_FALSE(MaybeSatisfiable(conj, sorts));
  conj.push_back(Condition::VarEq(15, 16));
  EXPECT_TRUE(MaybeSatisfiable(conj, sorts));
}

TEST(SatOracleTest, CheckKeepsSatApartFromOverCap) {
  // MaybeSatisfiable's "maybe" is either a satisfying truth assignment
  // found within the cap or a question over the cap; Check tells them
  // apart, also when the answer comes from the memo.
  std::vector<VarSort> sorts(18, VarSort::kId);
  CondPtr null0 = Condition::IsNull(0);
  std::vector<CondPtr> wide;
  for (int i = 0; i < 17; ++i) wide.push_back(Condition::VarEq(i, i + 1));
  CondPtr over = Condition::AndAll(wide);
  SatOracle oracle;
  for (int round = 0; round < 2; ++round) {
    EXPECT_EQ(oracle.Check({null0}, sorts), SatOracle::Answer::kSat);
    EXPECT_EQ(oracle.Check({null0, Condition::Not(null0)}, sorts),
              SatOracle::Answer::kUnsat);
    EXPECT_EQ(oracle.Check({over}, sorts), SatOracle::Answer::kOverCap);
    EXPECT_TRUE(oracle.MaybeSatisfiable({over}, sorts));
  }
  EXPECT_GE(oracle.memo_hits(), 3u);
}

TEST(SatOracleTest, KeyDependencyMergesNonKeyColumns) {
  // R(k, a) ∧ R(k2, b) ∧ k = k2 ∧ a ≠ b: equal keys name one tuple, so
  // a = b. Without the key equality both tuples may coexist.
  std::vector<VarSort> sorts(4, VarSort::kId);
  const CondPtr r1 = Condition::Rel(0, {0, 2});
  const CondPtr r2 = Condition::Rel(0, {1, 3});
  const CondPtr a_neq_b = Condition::Not(Condition::VarEq(2, 3));
  EXPECT_FALSE(
      MaybeSatisfiable({r1, r2, Condition::VarEq(0, 1), a_neq_b}, sorts));
  EXPECT_TRUE(MaybeSatisfiable({r1, r2, a_neq_b}, sorts));
  // Different relations share no key dependency.
  EXPECT_TRUE(MaybeSatisfiable(
      {r1, Condition::Rel(1, {1, 3}), Condition::VarEq(0, 1), a_neq_b},
      sorts));
  // The merge chains: equal keys make a = b, and b is null-free.
  EXPECT_FALSE(MaybeSatisfiable(
      {r1, r2, Condition::VarEq(0, 1), Condition::IsNull(2)}, sorts));
}

TEST(SatOracleTest, MemoAnswersAConditionRebuiltByMapVars) {
  std::vector<VarSort> sorts = {VarSort::kNumeric, VarSort::kId};
  const CondPtr pre = Condition::And(Gt(0, 3), Condition::IsNull(1));
  const std::vector<int> identity = {0, 1};
  SatOracle oracle;
  EXPECT_TRUE(oracle.MaybeSatisfiable({pre}, sorts));
  EXPECT_EQ(oracle.memo_hits(), 0u);
  // A structurally equal tree at a new address is the same question.
  EXPECT_TRUE(oracle.MaybeSatisfiable({pre->MapVars(identity)}, sorts));
  EXPECT_EQ(oracle.memo_hits(), 1u);
  // A different sort vector or conjunct order is another question.
  EXPECT_TRUE(oracle.MaybeSatisfiable(
      {pre}, {VarSort::kNumeric, VarSort::kId, VarSort::kId}));
  EXPECT_EQ(oracle.memo_hits(), 1u);
  const CondPtr low = Cmp(0, Relop::kLt, 2);
  EXPECT_FALSE(oracle.MaybeSatisfiable({pre, low}, sorts));
  EXPECT_FALSE(oracle.MaybeSatisfiable({low->MapVars(identity), pre}, sorts));
  EXPECT_EQ(oracle.memo_hits(), 1u);
  EXPECT_FALSE(oracle.MaybeSatisfiable({pre->MapVars(identity), low}, sorts));
  EXPECT_EQ(oracle.memo_hits(), 2u);
  EXPECT_EQ(oracle.calls(), 6u);
}

TEST(SatOracleTest, UnivariateArithmeticAgreesWithFourierMotzkin) {
  // Conjunctions of literals over two numeric variables, some of them
  // equated: the oracle's translation of negated literals, disequalities
  // and class equalities must give Fourier–Motzkin's answer on the
  // constraints written out directly. Only one truth assignment
  // satisfies a conjunction of literals, so the oracle's answer is the
  // theory's.
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> pick(0, 5);
  std::uniform_int_distribution<int> value(-2, 2);
  const std::vector<VarSort> sorts = {VarSort::kNumeric, VarSort::kNumeric};
  int unsat = 0;
  for (int round = 0; round < 400; ++round) {
    std::vector<CondPtr> conj;
    LinearSystem system;
    std::vector<LinearExpr> diseqs;
    const int n = 1 + pick(rng);
    for (int i = 0; i < n; ++i) {
      const int v = pick(rng) % 2;
      const int c = value(rng);
      // coef·v - c (op) 0, with coef ±1 or 2.
      const int coef = pick(rng) % 3 == 0 ? -1 : (pick(rng) % 2 == 0 ? 1 : 2);
      LinearExpr e = LinearExpr::Var(v) * Rational(coef);
      e.AddConstant(Rational(-c));
      const Relop op = static_cast<Relop>(pick(rng) % 3);
      const bool negate = pick(rng) % 2 == 0;
      conj.push_back(Condition::Arith(LinearConstraint{e, op}));
      if (negate) conj.back() = Condition::Not(conj.back());
      if (!negate) {
        system.Add(e, op);
      } else if (op == Relop::kEq) {
        diseqs.push_back(e);
      } else {
        system.Add(-e, op == Relop::kLe ? Relop::kLt : Relop::kLe);
      }
    }
    switch (pick(rng) % 3) {
      case 0:  // v0 = v1
        conj.push_back(Condition::VarEq(0, 1));
        system.Add(LinearExpr::Var(0) - LinearExpr::Var(1), Relop::kEq);
        break;
      case 1:  // v0 ≠ v1
        conj.push_back(Condition::Not(Condition::VarEq(0, 1)));
        diseqs.push_back(LinearExpr::Var(0) - LinearExpr::Var(1));
        break;
      default:
        break;
    }
    const bool want =
        FourierMotzkin::IsSatisfiableWithDisequalities(system, diseqs);
    if (!want) ++unsat;
    EXPECT_EQ(MaybeSatisfiable({Condition::AndAll(conj)}, sorts), want)
        << "round " << round;
  }
  EXPECT_GT(unsat, 40);
  EXPECT_LT(unsat, 360);
}

// --- dead / unreachable services --------------------------------------

TEST(AnalyzerTest, DeadServiceViaInfeasibleArithmetic) {
  ArtifactSystem system;
  TaskId root = system.AddTask("T", kNoTask);
  Task& t = system.task(root);
  int n = t.vars().AddVar("n", VarSort::kNumeric);
  {
    InternalService dead;
    dead.name = "dead";
    dead.pre = Condition::And(Cmp(n, Relop::kLt, 0), Gt(n, 0));
    dead.post = Condition::True();
    t.AddInternalService(std::move(dead));
  }
  {
    InternalService ok;
    ok.name = "ok";
    ok.pre = Condition::True();
    ok.post = Gt(n, 0);
    t.AddInternalService(std::move(ok));
  }
  AnalysisResult r = AnalyzeSystem(system, {});
  EXPECT_TRUE(r.tasks[root].service_dead[0]);
  EXPECT_FALSE(r.tasks[root].service_dead[1]);
  EXPECT_TRUE(r.tasks[root].ServiceLive(1));
  EXPECT_TRUE(
      HasDiag(r.diagnostics, kDiagDeadService, "pre-condition is unsatisfiable"));
}

TEST(AnalyzerTest, JointPrePostDeadOnlyForInputVariables) {
  // pre x == null ∧ post x != null is dead for an INPUT variable (it is
  // identity across the transition) but fine for a writable one.
  ArtifactSystem system;
  TaskId root = system.AddTask("T", kNoTask);
  Task& t = system.task(root);
  int a = t.vars().AddVar("a", VarSort::kId);
  int x = t.vars().AddVar("x", VarSort::kId);
  t.AddInput(a, 0);
  {
    InternalService dead;
    dead.name = "dead_joint";
    dead.pre = Condition::IsNull(a);
    dead.post = Condition::Not(Condition::IsNull(a));
    t.AddInternalService(std::move(dead));
  }
  {
    InternalService flip;
    flip.name = "flip";
    flip.pre = Condition::IsNull(x);
    flip.post = Condition::Not(Condition::IsNull(x));
    t.AddInternalService(std::move(flip));
  }
  AnalysisResult r = AnalyzeSystem(system, {});
  EXPECT_TRUE(r.tasks[root].service_dead[0]);
  EXPECT_FALSE(r.tasks[root].service_dead[1]);
  EXPECT_TRUE(HasDiag(r.diagnostics, kDiagDeadService,
                      "jointly unsatisfiable"));
}

/// A service's dead reason as the analyzer asked it before the joint
/// question went first: pre, then post, then the joint pre/post check,
/// each on a fresh oracle; empty if the service is live.
std::string ReasonInReportingOrder(const Task& task,
                                   const InternalService& svc) {
  std::vector<VarSort> sorts;
  for (int v = 0; v < task.vars().size(); ++v) {
    sorts.push_back(task.vars().var(v).sort);
  }
  const std::vector<int> inputs = task.InputVars();
  std::vector<int> rename(sorts.size());
  std::vector<VarSort> joint_sorts = sorts;
  for (int v = 0; v < task.vars().size(); ++v) {
    if (std::find(inputs.begin(), inputs.end(), v) != inputs.end()) {
      rename[v] = v;
    } else {
      rename[v] = static_cast<int>(joint_sorts.size());
      joint_sorts.push_back(sorts[static_cast<size_t>(v)]);
    }
  }
  if (!MaybeSatisfiable({svc.pre}, sorts)) {
    return "pre-condition is unsatisfiable";
  }
  if (!MaybeSatisfiable({svc.post}, sorts)) {
    return "post-condition is unsatisfiable";
  }
  if (!MaybeSatisfiable({svc.pre, svc.post->MapVars(rename)}, joint_sorts)) {
    return "pre- and post-conditions are jointly unsatisfiable";
  }
  return "";
}

TEST(AnalyzerTest, JointQuestionFirstKeepsEveryDeadReason) {
  // One service per outcome of the dead-service questions. The joint
  // question is asked first and settles a live service alone; every
  // other service falls back to pre, post, joint, so a service whose
  // pre (or post) is unsatisfiable, which makes the joint question
  // unsatisfiable too, still reports its pre (or post).
  ArtifactSystem system;
  TaskId root = system.AddTask("T", kNoTask);
  Task& t = system.task(root);
  int a = t.vars().AddVar("a", VarSort::kId);
  int n = t.vars().AddVar("n", VarSort::kNumeric);
  std::vector<int> xs;
  for (int i = 0; i < 9; ++i) {
    xs.push_back(t.vars().AddVar("x" + std::to_string(i), VarSort::kId));
  }
  t.AddInput(a, 0);
  const CondPtr infeasible = Condition::And(Cmp(n, Relop::kLt, 0), Gt(n, 0));
  // Nine distinct atoms over the x's; the joint question of two such
  // conditions has eighteen, over the oracle's cap of sixteen.
  auto nine_atoms = [&](bool satisfiable) {
    std::vector<CondPtr> cs;
    const CondPtr null0 = Condition::IsNull(xs[0]);
    cs.push_back(null0);
    cs.push_back(satisfiable ? Condition::IsNull(xs[8])
                             : Condition::Not(null0));
    for (int i = 0; i < 7; ++i) cs.push_back(Condition::VarEq(xs[i], xs[i + 1]));
    return Condition::AndAll(cs);
  };
  struct Case {
    const char* name;
    CondPtr pre, post;
    const char* reason;
  };
  const std::vector<Case> cases = {
      {"pre_unsat", infeasible, Condition::True(),
       "pre-condition is unsatisfiable"},
      {"post_unsat", Condition::True(), infeasible,
       "post-condition is unsatisfiable"},
      {"joint_unsat", Condition::IsNull(a),
       Condition::Not(Condition::IsNull(a)),
       "pre- and post-conditions are jointly unsatisfiable"},
      {"live", Condition::IsNull(xs[0]), Condition::Not(Condition::IsNull(xs[0])),
       ""},
      {"over_cap_pre_unsat", nine_atoms(false), nine_atoms(true),
       "pre-condition is unsatisfiable"},
      {"over_cap_live", nine_atoms(true), nine_atoms(true), ""},
  };
  for (const Case& c : cases) {
    InternalService svc;
    svc.name = c.name;
    svc.pre = c.pre;
    svc.post = c.post;
    t.AddInternalService(std::move(svc));
  }
  AnalysisResult r = AnalyzeSystem(system, {});
  for (size_t s = 0; s < cases.size(); ++s) {
    const InternalService& svc = t.service(static_cast<int>(s));
    const std::string reason = ReasonInReportingOrder(t, svc);
    EXPECT_EQ(reason, cases[s].reason) << svc.name;
    EXPECT_EQ(r.tasks[root].service_dead[s] != 0, !reason.empty())
        << svc.name;
    const std::string message =
        "service " + svc.name + " can never fire: " + reason;
    EXPECT_EQ(HasDiag(r.diagnostics, kDiagDeadService, message),
              !reason.empty())
        << svc.name;
  }
  EXPECT_EQ(CountCode(r.diagnostics, kDiagDeadService), 4);
}

TEST(AnalyzerTest, UnreachableServiceChain) {
  // Numeric variables start at 0 and no live post ever makes n == 5, so
  // step1 is unreachable — and step2, enabled only through step1's
  // post, transitively so.
  ArtifactSystem system;
  TaskId root = system.AddTask("T", kNoTask);
  Task& t = system.task(root);
  int n = t.vars().AddVar("n", VarSort::kNumeric);
  {
    InternalService work;
    work.name = "work";
    work.pre = Condition::True();
    work.post = Cmp(n, Relop::kEq, 1);
    t.AddInternalService(std::move(work));
  }
  {
    InternalService step1;
    step1.name = "step1";
    step1.pre = Cmp(n, Relop::kEq, 5);
    step1.post = Cmp(n, Relop::kEq, 6);
    t.AddInternalService(std::move(step1));
  }
  {
    InternalService step2;
    step2.name = "step2";
    step2.pre = Cmp(n, Relop::kEq, 6);
    step2.post = Condition::True();
    t.AddInternalService(std::move(step2));
  }
  AnalysisResult r = AnalyzeSystem(system, {});
  EXPECT_FALSE(r.tasks[root].service_unreachable[0]);
  EXPECT_TRUE(r.tasks[root].service_unreachable[1]);
  EXPECT_TRUE(r.tasks[root].service_unreachable[2]);
  EXPECT_EQ(CountCode(r.diagnostics, kDiagUnreachableService), 2);
}

TEST(AnalyzerTest, UnconstrainedPostKeepsServicesReachable) {
  // A live service with post `true` constrains nothing, so every
  // satisfiable pre-condition is considered enabled after it: the
  // n == 5 guard must NOT be flagged (the enablement graph must stay an
  // over-approximation of reachability).
  ArtifactSystem system;
  TaskId root = system.AddTask("T", kNoTask);
  Task& t = system.task(root);
  int n = t.vars().AddVar("n", VarSort::kNumeric);
  {
    InternalService churn;
    churn.name = "churn";
    churn.pre = Condition::True();
    churn.post = Condition::True();
    t.AddInternalService(std::move(churn));
  }
  {
    InternalService guarded;
    guarded.name = "guarded";
    guarded.pre = Cmp(n, Relop::kEq, 5);
    guarded.post = Condition::True();
    t.AddInternalService(std::move(guarded));
  }
  AnalysisResult r = AnalyzeSystem(system, {});
  EXPECT_FALSE(r.tasks[root].service_unreachable[1]);
  EXPECT_EQ(CountCode(r.diagnostics, kDiagUnreachableService), 0);
}

TEST(AnalyzerTest, RetrieveStarvationNeedsLiveInserter) {
  // A retrieve from a relation nobody inserts into can never fire; a
  // DEAD inserter does not help; a live one does.
  auto build = [](bool with_inserter, bool inserter_dead) {
    ArtifactSystem system;
    TaskId root = system.AddTask("T", kNoTask);
    Task& t = system.task(root);
    int s = t.vars().AddVar("s", VarSort::kId);
    int rel = t.AddSetRelation("A", {s});
    if (with_inserter) {
      InternalService store;
      store.name = "store";
      store.pre = inserter_dead
                      ? Condition::And(Condition::IsNull(s),
                                       Condition::Not(Condition::IsNull(s)))
                      : Condition::True();
      store.post = Condition::True();
      store.MarkInsert(rel);
      t.AddInternalService(std::move(store));
    }
    InternalService load;
    load.name = "load";
    load.pre = Condition::True();
    load.post = Condition::True();
    load.MarkRetrieve(rel);
    t.AddInternalService(std::move(load));
    return system;
  };
  {
    ArtifactSystem sys = build(false, false);
    AnalysisResult r = AnalyzeSystem(sys, {});
    EXPECT_TRUE(r.tasks[0].service_dead[0]);
    EXPECT_TRUE(HasDiag(r.diagnostics, kDiagDeadService,
                        "no live service inserts"));
  }
  {
    ArtifactSystem sys = build(true, true);
    AnalysisResult r = AnalyzeSystem(sys, {});
    EXPECT_TRUE(r.tasks[0].service_dead[0]);  // store: unsat pre
    EXPECT_TRUE(r.tasks[0].service_dead[1]);  // load: starved anyway
  }
  {
    ArtifactSystem sys = build(true, false);
    AnalysisResult r = AnalyzeSystem(sys, {});
    EXPECT_TRUE(r.tasks[0].ServiceLive(0));
    EXPECT_TRUE(r.tasks[0].ServiceLive(1));
    EXPECT_EQ(CountCode(r.diagnostics, kDiagDeadService), 0);
  }
}

// --- variable reads and vacuous atoms ---------------------------------

TEST(AnalyzerTest, WriteNeverReadDistinguishesNeverUsed) {
  ArtifactSystem system;
  TaskId root = system.AddTask("T", kNoTask);
  Task& t = system.task(root);
  int n = t.vars().AddVar("n", VarSort::kNumeric);
  int w = t.vars().AddVar("w", VarSort::kNumeric);
  int ghost = t.vars().AddVar("ghost", VarSort::kId);
  (void)ghost;
  {
    InternalService work;
    work.name = "work";
    work.pre = Gt(n, -1);  // reads n
    work.post = Condition::And(Cmp(n, Relop::kEq, 1), Cmp(w, Relop::kEq, 2));
    t.AddInternalService(std::move(work));
  }
  AnalysisResult r = AnalyzeSystem(system, {});
  EXPECT_TRUE(r.tasks[root].var_read[n]);
  EXPECT_FALSE(r.tasks[root].var_read[w]);
  EXPECT_TRUE(HasDiag(r.diagnostics, kDiagWriteNeverRead,
                      "variable w is written but never read"));
  EXPECT_TRUE(HasDiag(r.diagnostics, kDiagWriteNeverRead,
                      "variable ghost is never used"));
}

TEST(AnalyzerTest, VacuousAtomsBothDirections) {
  ArtifactSystem system;
  TaskId root = system.AddTask("T", kNoTask);
  Task& t = system.task(root);
  int n = t.vars().AddVar("n", VarSort::kNumeric);
  {
    InternalService work;
    work.name = "work";
    work.pre = Gt(n, -1);
    work.post = Cmp(n, Relop::kEq, 1);
    t.AddInternalService(std::move(work));
  }
  HltlProperty property;
  HltlNode node;
  node.task = root;
  // Prop 0 always false, prop 1 always true, prop 2 contingent.
  node.props.push_back(HltlProp::Cond(
      Condition::And(Cmp(n, Relop::kLt, 0), Gt(n, 0))));
  node.props.push_back(HltlProp::Cond(
      Condition::Or(Cmp(n, Relop::kLe, 3), Gt(n, 2))));
  node.props.push_back(HltlProp::Cond(Gt(n, 0)));
  node.skeleton = LtlFormula::Always(LtlFormula::Or(
      LtlFormula::Or(LtlFormula::Prop(0), LtlFormula::Prop(1)),
      LtlFormula::Prop(2)));
  property.AddNode(std::move(node));
  AnalysisResult r = AnalyzeSystem(system, {{"p", &property}});
  EXPECT_EQ(CountCode(r.diagnostics, kDiagVacuousAtom), 2);
  EXPECT_TRUE(HasDiag(r.diagnostics, kDiagVacuousAtom, "always false"));
  EXPECT_TRUE(HasDiag(r.diagnostics, kDiagVacuousAtom, "always true"));
}

// --- lint_demo spec: every code, with locations ------------------------

TEST(AnalyzerTest, LintDemoExercisesEveryCodeWithLocations) {
  std::string text = LoadSpec("lint_demo.has");
  ASSERT_FALSE(text.empty()) << "lint_demo.has not found";
  auto parsed = ParseSpec(text, "examples/specs/lint_demo.has");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  std::vector<std::pair<std::string, const HltlProperty*>> props;
  for (const auto& [name, prop] : parsed->properties) {
    props.emplace_back(name, &prop);
  }
  AnalysisResult r = AnalyzeSystem(parsed->system, props, &parsed->locations);
  EXPECT_EQ(CountCode(r.diagnostics, kDiagDeadService), 3);
  EXPECT_EQ(CountCode(r.diagnostics, kDiagUnreachableService), 2);
  EXPECT_EQ(CountCode(r.diagnostics, kDiagUnreadRelation), 1);
  EXPECT_EQ(CountCode(r.diagnostics, kDiagWriteNeverRead), 2);
  EXPECT_EQ(CountCode(r.diagnostics, kDiagVacuousAtom), 2);
  EXPECT_EQ(r.diagnostics.size(), 10u);
  // Source locations render end-to-end: file:line of the declaration.
  std::string rendered = RenderDiagnostics(r.diagnostics, &parsed->locations);
  EXPECT_NE(rendered.find("examples/specs/lint_demo.has:23: warning: "
                          "[dead-service] task LintDemo: service dead_pre"),
            std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("lint_demo.has:12: warning: [unread-relation]"),
            std::string::npos)
      << rendered;
}

TEST(AnalyzerTest, PrintParseAnalyzeRoundTrip) {
  // PrintSystemSource must reconstruct a system the analyzer judges
  // identically — name-for-name, message-for-message (locations aside).
  std::string text = LoadSpec("lint_demo.has");
  ASSERT_FALSE(text.empty()) << "lint_demo.has not found";
  auto parsed = ParseSpec(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  std::vector<std::pair<std::string, const HltlProperty*>> props;
  for (const auto& [name, prop] : parsed->properties) {
    props.emplace_back(name, &prop);
  }
  AnalysisResult first = AnalyzeSystem(parsed->system, props);

  std::string printed = PrintSystemSource(parsed->system);
  auto reparsed = ParseSpec(printed);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  // Declaration order (and hence every index) is print-stable, so the
  // ORIGINAL properties remain well-formed against the reparsed system.
  AnalysisResult second = AnalyzeSystem(reparsed->system, props);
  EXPECT_EQ(RenderDiagnostics(first.diagnostics, nullptr),
            RenderDiagnostics(second.diagnostics, nullptr));
}

// --- slicing: keep-sets ------------------------------------------------

TEST(SliceTest, KeepsTupleVariableFeedingPropertyThroughRetrieve) {
  // The property observes only service `load`; `s` appears in NO
  // condition anywhere — it feeds the property exclusively as the tuple
  // variable of the relation load retrieves from, and must be kept.
  // `junk` is mentioned nowhere and must be dropped.
  ArtifactSystem system;
  TaskId root = system.AddTask("T", kNoTask);
  Task& t = system.task(root);
  int s = t.vars().AddVar("s", VarSort::kId);
  int junk = t.vars().AddVar("junk", VarSort::kId);
  int rel = t.AddSetRelation("A", {s});
  {
    InternalService store;
    store.name = "store";
    store.pre = Condition::True();
    store.post = Condition::True();
    store.MarkInsert(rel);
    t.AddInternalService(std::move(store));
  }
  int load_idx;
  {
    InternalService load;
    load.name = "load";
    load.pre = Condition::True();
    load.post = Condition::True();
    load.MarkRetrieve(rel);
    load_idx = static_cast<int>(t.services().size());
    t.AddInternalService(std::move(load));
  }
  HltlProperty property;
  HltlNode node;
  node.task = root;
  node.props.push_back(
      HltlProp::Service(ServiceRef::Internal(root, load_idx)));
  node.skeleton = LtlFormula::Always(LtlFormula::Not(LtlFormula::Prop(0)));
  property.AddNode(std::move(node));

  AnalysisResult analysis = AnalyzeSystem(system, {{"p", &property}});
  SlicePlan plan = BuildSlicePlan(system, property, analysis);
  EXPECT_EQ(plan.tasks[root].keep_var[s], 1);
  EXPECT_EQ(plan.tasks[root].keep_var[junk], 0);
  EXPECT_EQ(plan.tasks[root].keep_relation[0], 1);
  EXPECT_EQ(plan.dropped_vars, 1);
  EXPECT_EQ(plan.dropped_relations, 0);
  EXPECT_EQ(plan.dropped_services, 0);
  EXPECT_EQ(ExpectSliceEquivalence(system, property, "transitive-keep"),
            Verdict::kViolated);
}

TEST(SliceTest, MultirelSpecPlanDropsOnlyInvisibleRelations) {
  std::string text = LoadSpec("multirel.has");
  ASSERT_FALSE(text.empty()) << "multirel.has not found";
  auto parsed = ParseSpec(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const HltlProperty* p = parsed->FindProperty("orders_drain");
  ASSERT_NE(p, nullptr);
  AnalysisResult analysis = AnalyzeSystem(parsed->system, {{"orders_drain", p}});
  SlicePlan plan = BuildSlicePlan(parsed->system, *p, analysis);
  // Done (root) and Audit's S are inserted into but never retrieved and
  // invisible to the property; everything else must survive.
  EXPECT_EQ(plan.dropped_relations, 2);
  EXPECT_EQ(plan.dropped_services, 0);
  EXPECT_EQ(plan.dropped_vars, 0);
}

TEST(SliceTest, LintDemoCountersAndReducedDims) {
  std::string text = LoadSpec("lint_demo.has");
  ASSERT_FALSE(text.empty()) << "lint_demo.has not found";
  auto parsed = ParseSpec(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const HltlProperty* p = parsed->FindProperty("demo");
  ASSERT_NE(p, nullptr);
  VerifierOptions off;
  off.slice = false;
  VerifyResult ref = Verify(parsed->system, *p, off);
  EXPECT_EQ(ref.stats.sliced_services, 0u);
  EXPECT_EQ(ref.stats.sliced_dims, 0u);
  EXPECT_EQ(ref.stats.diagnostics_emitted, 10u);
  EXPECT_EQ(ref.diagnostics.size(), 10u);

  VerifyResult on = Verify(parsed->system, *p);
  EXPECT_EQ(on.verdict, ref.verdict);
  // 5 dead/unreachable services; Vault + Stash + ghost = 3 dims.
  EXPECT_EQ(on.stats.sliced_services, 5u);
  EXPECT_EQ(on.stats.sliced_dims, 3u);
  EXPECT_EQ(on.stats.diagnostics_emitted, 10u);
  // Dropping both artifact relations must shrink the product VASS.
  EXPECT_LT(on.stats.counter_dims, ref.stats.counter_dims);
  EXPECT_LE(on.stats.cov_nodes, ref.stats.cov_nodes);
}

// --- slice-on/off differential over every family and spec --------------

TEST(SliceEquivalenceTest, Table1Workloads) {
  for (SchemaClass sc : {SchemaClass::kAcyclic, SchemaClass::kCyclic}) {
    bench::Workload w = bench::MakeWorkload(sc, /*size=*/3, /*depth=*/2,
                                            /*with_sets=*/true,
                                            /*with_arith=*/false);
    // kViolated: the sliced runs must reproduce the accepting lasso.
    EXPECT_EQ(ExpectSliceEquivalence(w.system, w.property, w.name),
              Verdict::kViolated)
        << w.name;
  }
}

TEST(SliceEquivalenceTest, ArithmeticWorkload) {
  bench::Workload w = bench::MakeWorkload(SchemaClass::kAcyclic, /*size=*/2,
                                          /*depth=*/2, /*with_sets=*/true,
                                          /*with_arith=*/true);
  ExpectSliceEquivalence(w.system, w.property, w.name);
}

TEST(SliceEquivalenceTest, DeepHierarchy) {
  bench::Workload w = bench::MakeDeepHierarchy(/*depth=*/4, /*size=*/3);
  ExpectSliceEquivalence(w.system, w.property, w.name);
}

TEST(SliceEquivalenceTest, AdversarialCyclic) {
  bench::Workload w = bench::MakeAdversarialCyclic(/*size=*/4, /*depth=*/2);
  ExpectSliceEquivalence(w.system, w.property, w.name);
}

TEST(SliceEquivalenceTest, MultiVariableSet) {
  bench::Workload w = bench::MakeMultiSet(/*size=*/3, /*depth=*/2,
                                          /*set_width=*/2);
  ExpectSliceEquivalence(w.system, w.property, w.name);
}

TEST(SliceEquivalenceTest, MultiRelation) {
  bench::Workload w = bench::MakeMultiRelation(/*size=*/3, /*depth=*/2,
                                               /*num_rels=*/2);
  ExpectSliceEquivalence(w.system, w.property, w.name);
}

TEST(SliceEquivalenceTest, SlicedMultiRelationReduces) {
  // The family built to show slicing bites: per task an insert-only
  // audit relation, two never-mentioned variables, and a dead service.
  // Same verdict, strictly smaller product. k = 1 keeps Debug/TSan
  // runtimes sane (the slice-off side pays for every audit dimension);
  // the k = 2 rows are exercised by bench_slice and its CI counter
  // gate.
  bench::Workload w = bench::MakeSlicedMultiRelation(/*size=*/3, /*depth=*/2,
                                                     /*num_rels=*/1);
  ExpectSliceEquivalence(w.system, w.property, w.name);
  VerifierOptions off;
  off.slice = false;
  VerifyResult full = Verify(w.system, w.property, off);
  VerifyResult sliced = Verify(w.system, w.property);
  EXPECT_EQ(sliced.verdict, full.verdict);
  // One dead service, one audit relation, three variables per task.
  EXPECT_EQ(sliced.stats.sliced_services, 2u);
  EXPECT_EQ(sliced.stats.sliced_dims, 8u);
  EXPECT_GT(sliced.stats.diagnostics_emitted, 0u);
  EXPECT_LT(sliced.stats.counter_dims, full.stats.counter_dims);
  EXPECT_LT(sliced.stats.cov_nodes, full.stats.cov_nodes);
}

TEST(SliceEquivalenceTest, CommutingServices) {
  // The one family the slicer rewrites heavily: every store inserts
  // into a never-retrieved relation, so slicing strips all relations.
  // The verdict must survive that; POR is left at its default on both
  // sides (it correctly never fires on the sliced system).
  bench::Workload w = bench::MakeCommutingServices(/*width=*/3, /*depth=*/2);
  ExpectSliceEquivalence(w.system, w.property, w.name);
}

TEST(SliceEquivalenceTest, TravelMiniSpec) {
  std::string text = LoadSpec("travel_mini.has");
  ASSERT_FALSE(text.empty()) << "travel_mini.has not found";
  auto parsed = ParseSpec(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const HltlProperty* policy = parsed->FindProperty("discount_policy");
  ASSERT_NE(policy, nullptr);
  VerifierOptions base;
  base.max_nav_depth = 2;
  ExpectSliceEquivalence(parsed->system, *policy, "travel_mini/discount",
                         base);
}

TEST(SliceEquivalenceTest, MultiRelationSpec) {
  std::string text = LoadSpec("multirel.has");
  ASSERT_FALSE(text.empty()) << "multirel.has not found";
  auto parsed = ParseSpec(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const HltlProperty* p = parsed->FindProperty("orders_drain");
  ASSERT_NE(p, nullptr);
  ExpectSliceEquivalence(parsed->system, *p, "multirel-spec/orders_drain");
}

TEST(SliceEquivalenceTest, LintDemoSpec) {
  // The heaviest slice of any committed spec (5 services, 2 relations,
  // 1 variable dropped) must still be verdict-preserving.
  std::string text = LoadSpec("lint_demo.has");
  ASSERT_FALSE(text.empty()) << "lint_demo.has not found";
  auto parsed = ParseSpec(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const HltlProperty* p = parsed->FindProperty("demo");
  ASSERT_NE(p, nullptr);
  ExpectSliceEquivalence(parsed->system, *p, "lint_demo/demo");
}

// --- strict mode -------------------------------------------------------

#if GTEST_HAS_DEATH_TEST
TEST(AnalyzerDeathTest, StrictAnalysisAbortsOnFindings) {
  ArtifactSystem system;
  TaskId root = system.AddTask("T", kNoTask);
  Task& t = system.task(root);
  int n = t.vars().AddVar("n", VarSort::kNumeric);
  int w = t.vars().AddVar("w", VarSort::kNumeric);
  {
    InternalService work;
    work.name = "work";
    work.pre = Gt(n, -1);
    work.post = Cmp(w, Relop::kEq, 2);
    t.AddInternalService(std::move(work));
  }
  HltlProperty property = testing::AlwaysProperty(root, Gt(n, -1));
  VerifierOptions strict;
  strict.strict_analysis = true;
  EXPECT_DEATH(Verify(system, property, strict), "strict_analysis");
}
#endif

}  // namespace
}  // namespace has
