// The cell-completion table of the enumeration memo (EnumMemo in
// core/successor.h, read through CellCompletions): its lists are
// EnumerateCells' output in EnumerateCells' order; a key is filled once
// however often it is asked for, also when the asking configurations
// differ in ID equalities; and with a small branch budget a context
// whose table other enumerations filled emits exactly what a fresh one
// emits, while no list holds more than max_branches + 1 cells.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/successor.h"
#include "core/verifier.h"
#include "spec/parser.h"
#include "test_paths.h"

namespace has {

/// Reads the memo's completion lists.
class EnumMemoTestPeer {
 public:
  static size_t LongestCompletions(const EnumMemo& memo) {
    size_t longest = 0;
    for (const auto& [key, cells] : memo.completions_) {
      longest = std::max(longest, cells.size());
    }
    return longest;
  }
};

namespace {

/// travel.has with an HCD over its negated first property, and fresh
/// task contexts on demand.
class Travel {
 public:
  Travel() {
    auto parsed = ParseSpec(LoadSpec("travel.has"));
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    spec_ = std::move(*parsed);
    negated_ = spec_.properties[0].second.Negated();
    hcd_ = std::make_unique<Hcd>(BuildSystemHcd(spec_.system, negated_));
  }

  const ArtifactSystem& system() const { return spec_.system; }

  std::unique_ptr<TaskContext> Context(TaskId task,
                                       const VerifierOptions& options) const {
    return std::make_unique<TaskContext>(&spec_.system, &negated_, task,
                                         options, hcd_.get());
  }

  /// An input type that constrains nothing.
  PartialIsoType FreeInput(const TaskContext& ctx) const {
    return PartialIsoType(&spec_.system.schema(), &ctx.task().vars(),
                          ctx.nav_depth());
  }

 private:
  ParsedSpec spec_;
  HltlProperty negated_;
  std::unique_ptr<Hcd> hcd_;
};

std::vector<Cell> DirectCells(const PolyBasis& basis, const Cell& partial,
                              const LinearSystem& extra) {
  std::vector<int> todo;
  for (int p = 0; p < partial.size(); ++p) {
    if (partial.sign(p) == kSignAny) todo.push_back(p);
  }
  std::vector<Cell> out;
  EnumerateCells(basis, partial, todo, extra, [&](const Cell& c) {
    out.push_back(c);
    return true;
  });
  return out;
}

std::string Describe(const TaskContext& ctx, const SymbolicConfig& c) {
  return c.iso.Signature() + " | " + c.cell.ToString(*ctx.basis()) + "\n";
}

/// One enumeration: the openings of a task from a free input
/// (`service` null), or an internal service at an input base.
struct Call {
  TaskId task = kNoTask;
  const InternalService* service = nullptr;
  SymbolicConfig base;
};

/// Every task's openings, then every internal service at the input base
/// of every opening configuration (found with contexts of their own).
std::vector<Call> Calls(const Travel& travel, const VerifierOptions& options) {
  std::vector<Call> calls;
  for (TaskId t = 0; t < travel.system().num_tasks(); ++t) {
    const std::unique_ptr<TaskContext> ctx = travel.Context(t, options);
    calls.push_back(Call{t, nullptr, {}});
    bool truncated = false;
    for (const SymbolicConfig& c : EnumerateOpening(
             *ctx, travel.FreeInput(*ctx), Cell(), &truncated)) {
      for (const InternalService& svc : ctx->task().services()) {
        calls.push_back(Call{t, &svc, ctx->InputBase(c)});
      }
    }
  }
  return calls;
}

/// Runs `calls` on `ctxs` (indexed by task), last call first if
/// `reverse`; returns each call's result as text, in call order.
std::vector<std::string> RunCalls(
    const std::vector<std::unique_ptr<TaskContext>>& ctxs,
    const Travel& travel, const std::vector<Call>& calls, bool reverse) {
  std::vector<std::string> out(calls.size());
  for (size_t n = 0; n < calls.size(); ++n) {
    const size_t i = reverse ? calls.size() - 1 - n : n;
    const Call& call = calls[i];
    const TaskContext& ctx = *ctxs[static_cast<size_t>(call.task)];
    bool truncated = false;
    std::vector<SymbolicConfig> next;
    if (call.service == nullptr) {
      next = EnumerateOpening(ctx, travel.FreeInput(ctx), Cell(), &truncated);
    } else {
      for (InternalSuccessor& s :
           EnumerateInternal(ctx, call.base, *call.service, &truncated)) {
        next.push_back(std::move(s.next));
      }
    }
    out[i] = "truncated " + std::to_string(truncated) + "\n";
    for (const SymbolicConfig& c : next) out[i] += Describe(ctx, c);
  }
  return out;
}

TEST(CellCompletionTest, ListsEqualDirectEnumerationInOrder) {
  Travel travel;
  const TaskId task = travel.system().FindTask("ProcessFlight");
  ASSERT_NE(task, kNoTask);
  const VerifierOptions options;
  const std::unique_ptr<TaskContext> ctx = travel.Context(task, options);
  ASSERT_TRUE(ctx->arithmetic());
  const PolyBasis& basis = *ctx->basis();
  ASSERT_GE(basis.size(), 2);

  // Partial cells: nothing fixed, and each of the first two polynomials
  // fixed at each sign.
  std::vector<Cell> partials{Cell(basis.size())};
  for (int p = 0; p < 2; ++p) {
    for (Sign s : {kSignNeg, kSignZero, kSignPos}) {
      Cell c(basis.size());
      c.set_sign(p, s);
      partials.push_back(c);
    }
  }
  // Equality systems: none, the opening's numeric zeros, and two
  // numeric variables forced equal.
  const std::vector<int> nums = ctx->task().vars().NumericVars();
  ASSERT_GE(nums.size(), 2u);
  LinearSystem pair;
  LinearExpr diff = LinearExpr::Var(nums[0]);
  diff.AddTerm(nums[1], Rational(-1));
  pair.Add(std::move(diff), Relop::kEq);
  const std::vector<LinearSystem> systems{
      LinearSystem(), ctx->NumericEqualities(ctx->OpeningIso(
                          travel.FreeInput(*ctx))),
      pair};
  ASSERT_FALSE(systems[1].empty());

  size_t nonempty = 0;
  for (const Cell& partial : partials) {
    for (const LinearSystem& extra : systems) {
      const std::vector<Cell> want = DirectCells(basis, partial, extra);
      ASSERT_LE(want.size(), options.max_branches);
      const size_t fills = ctx->memo().completion_fills();
      const std::vector<Cell>& got = CellCompletions(*ctx, partial, extra);
      EXPECT_EQ(ctx->memo().completion_fills(), fills + 1);
      EXPECT_EQ(got, want);
      if (!want.empty()) ++nonempty;

      // A repeated key fills nothing and returns the same list.
      const std::vector<Cell>& again = CellCompletions(*ctx, partial, extra);
      EXPECT_EQ(&again, &got);
      EXPECT_EQ(ctx->memo().completion_fills(), fills + 1);
    }
  }
  EXPECT_GT(nonempty, partials.size());
}

TEST(CellCompletionTest, LeavesDifferingInAnIdEqualityShareOneFill) {
  Travel travel;
  const TaskId task = travel.system().FindTask("BookFlight");
  ASSERT_NE(task, kNoTask);
  const VerifierOptions options;
  const std::unique_ptr<TaskContext> ctx = travel.Context(task, options);
  ASSERT_TRUE(ctx->arithmetic());
  const int bk = ctx->task().vars().Find("bk");
  ASSERT_GE(bk, 0);

  // From a free input the equality search decides `bk == null` both
  // ways; both leaves complete one cell under the same numeric
  // equalities.
  bool truncated = false;
  const std::vector<SymbolicConfig> openings = EnumerateOpening(
      *ctx, travel.FreeInput(*ctx), Cell(), &truncated);
  EXPECT_FALSE(truncated);
  std::vector<Cell> null_cells;
  std::vector<Cell> set_cells;
  for (const SymbolicConfig& c : openings) {
    (c.iso.VarIsNull(bk) ? null_cells : set_cells).push_back(c.cell);
  }
  ASSERT_FALSE(null_cells.empty());
  EXPECT_EQ(null_cells, set_cells);
  EXPECT_EQ(ctx->memo().completion_fills(), 1u);

  // The same holds across enumerations: an input that fixes `bk` asks
  // for the key already filled.
  for (bool is_null : {true, false}) {
    PartialIsoType input = travel.FreeInput(*ctx);
    ASSERT_TRUE(input.DecideAtom(*Condition::IsNull(bk), is_null));
    const std::vector<SymbolicConfig> fixed =
        EnumerateOpening(*ctx, input, Cell(), &truncated);
    std::vector<Cell> cells;
    for (const SymbolicConfig& c : fixed) cells.push_back(c.cell);
    EXPECT_EQ(cells, null_cells);
  }
  EXPECT_EQ(ctx->memo().completion_fills(), 1u);
}

TEST(CellCompletionTest, SmallBudgetWarmContextMatchesColdContext) {
  Travel travel;
  for (size_t max_branches : {2u, 5u}) {
    SCOPED_TRACE("max_branches " + std::to_string(max_branches));
    VerifierOptions options;
    options.max_branches = max_branches;
    std::vector<std::unique_ptr<TaskContext>> cold;
    std::vector<std::unique_ptr<TaskContext>> warm;
    for (TaskId t = 0; t < travel.system().num_tasks(); ++t) {
      cold.push_back(travel.Context(t, options));
      warm.push_back(travel.Context(t, options));
    }
    const std::vector<Call> calls = Calls(travel, options);
    const std::vector<std::string> want =
        RunCalls(cold, travel, calls, /*reverse=*/false);
    // With the last call run first, lists are filled by other calls, at
    // other branch counts, than in the forward run.
    EXPECT_EQ(RunCalls(warm, travel, calls, /*reverse=*/true), want);
    std::vector<size_t> fills;
    for (const auto& ctx : warm) {
      fills.push_back(ctx->memo().completion_fills());
    }
    // A second run reads every list and fills none.
    EXPECT_EQ(RunCalls(warm, travel, calls, /*reverse=*/false), want);
    size_t truncated = 0;
    for (const std::string& w : want) {
      truncated += w.rfind("truncated 1", 0) == 0;
    }
    EXPECT_GT(truncated, 0u);
    EXPECT_LT(truncated, want.size());
    for (size_t i = 0; i < warm.size(); ++i) {
      EXPECT_EQ(warm[i]->memo().completion_fills(), fills[i]);
      EXPECT_LE(EnumMemoTestPeer::LongestCompletions(cold[i]->memo()),
                max_branches + 1);
      EXPECT_LE(EnumMemoTestPeer::LongestCompletions(warm[i]->memo()),
                max_branches + 1);
    }

    // The cap keeps exactly the first max_branches + 1 completions.
    const TaskContext& flight =
        *cold[static_cast<size_t>(travel.system().FindTask("ProcessFlight"))];
    const Cell free(flight.basis()->size());
    std::vector<Cell> all = DirectCells(*flight.basis(), free, LinearSystem());
    ASSERT_GT(all.size(), max_branches + 1);
    all.resize(max_branches + 1);
    EXPECT_EQ(CellCompletions(flight, free, LinearSystem()), all);
  }
}

}  // namespace
}  // namespace has
