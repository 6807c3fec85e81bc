// The successor-enumeration memo (EnumMemo in core/successor.h): a
// product state must get exactly the same successor list from a warm
// memo as from a fresh, cold one; the internal-service body a state
// reads must equal EnumerateInternal run fresh at that state's own
// configuration; bodies are shared by exactly the configurations with
// one input base; a second β product of a task must add no memo entries
// for the configurations it shares with the first; the count of filled
// entries must be the same on every run; and every product state's
// pooled type must be over its own task's scope.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/rt_relation.h"
#include "core/verifier.h"
#include "fuzz/generator.h"
#include "spec/parser.h"
#include "test_paths.h"
#include "vass/karp_miller.h"
#include "workloads.h"

namespace has {

/// Reads TaskVass internals the memo test compares.
class TaskVassTestPeer {
 public:
  /// Copies a product's whole state (its states and their index, child
  /// outcomes, counter dimensions, ib bits, records and ample prefixes)
  /// from `from` into `to`, leaving `to` uncut.
  static void CopyProduct(const TaskVass& from, TaskVass* to) {
    to->states_ = from.states_;
    to->stage_store_ = from.stage_store_;
    to->ib_store_ = from.ib_store_;
    to->state_index_ = from.state_index_;
    to->dim_types_ = from.dim_types_;
    to->dim_index_ = from.dim_index_;
    to->ib_types_ = from.ib_types_;
    to->ib_index_ = from.ib_index_;
    to->outcome_keys_ = from.outcome_keys_;
    to->outcome_index_ = from.outcome_index_;
    to->outcome_by_src_ = from.outcome_by_src_;
    to->records_ = from.records_;
    to->ample_prefix_ = from.ample_prefix_;
  }

  /// `state`'s successor list and ample prefix: every edge's target,
  /// delta and label, and the record of each target by its contents.
  static std::string Describe(TaskVass* vass, int state) {
    std::vector<VassEdge> edges;
    vass->Successors(state, &edges);
    std::ostringstream out;
    out << "truncated " << vass->truncated() << " ample "
        << vass->AmplePrefix(state) << " dims "
        << vass->num_dimensions() << " ibs " << vass->ib_types_.size()
        << "\n";
    for (const VassEdge& e : edges) {
      const TransitionRecord& r = vass->record(e.label);
      out << "to " << e.target << " label " << e.label << " delta";
      for (const auto& [dim, d] : e.delta) out << " " << dim << ":" << d;
      out << " service " << static_cast<int>(r.service.kind) << ":"
          << r.service.task << ":" << r.service.index << " child "
          << r.child_key.task << ":" << r.child_key.iso << ":"
          << r.child_key.cell << ":" << r.child_key.beta << ":"
          << r.child_result_index << " [" << r.note << "]\n";
    }
    return out.str();
  }

  /// The configuration of `state`.
  static SymbolicConfig Config(const TaskVass& vass, int state) {
    const TaskVass::State& s = vass.states_[static_cast<size_t>(state)];
    return SymbolicConfig{vass.pool_->type(s.iso), vass.pool_->cell(s.cell)};
  }

  /// The memo head of internal service `service` at `state`'s
  /// configuration, filled as Successors fills it on a miss.
  static const EnumMemo::Internal& Head(const TaskVass& vass, int state,
                                        int service) {
    const TaskVass::State& s = vass.states_[static_cast<size_t>(state)];
    const SymbolicConfig cur = Config(vass, state);
    EnumMemo::Key base;
    return vass.ctx_->memo().GetInternal(
        {s.iso, s.cell, service}, [&](EnumMemo::Internal* e) {
          vass.FillInternal(cur, service, &base, e);
        });
  }

  /// The letter the product reads on a step of internal service
  /// `service` into `next`.
  static std::vector<bool> Letter(const TaskVass& vass,
                                  const SymbolicConfig& next, int service) {
    return vass.MakeLetter(
        next, ServiceRef::Internal(vass.ctx_->task_id(), service), kNoTask, 0);
  }

  static TypeId Iso(const TaskVass& vass, int state) {
    return vass.states_[static_cast<size_t>(state)].iso;
  }

  /// What a state's memo keys are made of: its configuration's pool ids
  /// and, per child, the stage kind and the active outcome's pool ids.
  static std::vector<int> ConfigKey(const TaskVass& vass, int state) {
    const TaskVass::State& s = vass.states_[static_cast<size_t>(state)];
    std::vector<int> key{s.iso, s.cell};
    const ChildStage* stages = vass.stages(state);
    for (size_t c = 0; c < vass.num_children_; ++c) {
      const ChildStage& st = stages[c];
      key.push_back(static_cast<int>(st.kind));
      if (st.kind == ChildStage::Kind::kActive) {
        const TaskVass::OutcomeKey& o =
            vass.outcome_keys_[static_cast<size_t>(st.outcome)];
        key.push_back(o.iso);
        key.push_back(o.cell);
      }
    }
    return key;
  }
};

namespace {

/// One R_T query, as the product asked the oracle.
struct QueryRec {
  TaskId task = kNoTask;
  PartialIsoType iso;
  Cell cell;
  Assignment beta = 0;
};

/// Answers child queries from an RtEngine and records each distinct one,
/// so the test can build the same child products over its own contexts.
class RecordingOracle : public RtOracle {
 public:
  explicit RecordingOracle(RtEngine* engine) : engine_(engine) {}

  const ChildResult& Query(TaskId child, const PartialIsoType& iso,
                           const Cell& cell, Assignment beta) override {
    Record(child, iso, cell, beta);
    return engine_->Query(child, iso, cell, beta);
  }
  RtQueryKey KeyOf(TaskId child, const PartialIsoType& iso, const Cell& cell,
                   Assignment beta) override {
    return engine_->KeyOf(child, iso, cell, beta);
  }
  BatchedChildResult QueryAll(TaskId child, const PartialIsoType& iso,
                              const Cell& cell,
                              Assignment num_assignments) override {
    for (Assignment beta = 0; beta < num_assignments; ++beta) {
      Record(child, iso, cell, beta);
    }
    return engine_->QueryAll(child, iso, cell, num_assignments);
  }

  void Record(TaskId task, const PartialIsoType& iso, const Cell& cell,
              Assignment beta) {
    if (seen_.insert(engine_->KeyOf(task, iso, cell, beta)).second) {
      queries_.push_back(QueryRec{task, iso, cell, beta});
    }
  }
  const std::vector<QueryRec>& queries() const { return queries_; }

 private:
  RtEngine* engine_;
  std::unordered_set<RtQueryKey, RtQueryKeyHash> seen_;
  std::vector<QueryRec> queries_;
};

/// The verifier's engine set-up over an unsliced system, plus a second
/// pool, automata and set of (warm) task contexts for products the test
/// builds itself; child queries go to the engine.
class Harness {
 public:
  Harness(const ArtifactSystem& system, const HltlProperty& property)
      : system_(system), negated_(property.Negated()) {
    if (SystemUsesArithmetic(system, property)) {
      hcd_ = BuildSystemHcd(system, negated_);
    }
    const Hcd* hcd = hcd_.has_value() ? &*hcd_ : nullptr;
    engine_ = std::make_unique<RtEngine>(&system_, &negated_, options_, hcd);
    oracle_ = std::make_unique<RecordingOracle>(engine_.get());
    automata_ = std::make_unique<PropertyAutomata>(&system_, &negated_);
    for (TaskId t = 0; t < system_.num_tasks(); ++t) {
      contexts_[t] = NewContext(t);
      context_ptrs_[t] = contexts_[t].get();
    }
    const TaskId root = system_.root();
    TaskAutomata& root_automata = automata_->ForTask(root);
    const int root_bit = root_automata.AssignmentBit(negated_.root_node());
    for (Assignment beta = 0;
         beta < static_cast<Assignment>(root_automata.num_assignments());
         ++beta) {
      if (((beta >> root_bit) & 1) == 0) continue;
      oracle_->Record(root,
                      PartialIsoType(&system_.schema(),
                                     &system_.task(root).vars(),
                                     contexts_[root]->nav_depth()),
                      Cell(), beta);
    }
  }

  std::unique_ptr<TaskContext> NewContext(TaskId task) const {
    return std::make_unique<TaskContext>(
        &system_, &negated_, task, options_,
        hcd_.has_value() ? &*hcd_ : nullptr);
  }
  TaskContext* context(TaskId task) { return contexts_.at(task).get(); }
  const RecordingOracle& oracle() const { return *oracle_; }
  TypePool* pool() { return &pool_; }

  std::unique_ptr<TaskVass> Product(const QueryRec& q,
                                    const TaskContext* ctx) {
    const Condition* filter =
        q.task == system_.root() ? system_.global_pre().get() : nullptr;
    return std::make_unique<TaskVass>(ctx, &context_ptrs_, automata_.get(),
                                      &pool_, q.beta, q.iso, q.cell,
                                      oracle_.get(), filter);
  }

  /// Explores `vass` the way the engine does (sequentially).
  void Explore(TaskVass* vass) {
    KarpMillerOptions km;
    km.max_nodes = options_.max_cov_nodes;
    km.prune_coverability = options_.prune_coverability;
    km.por = options_.por;
    KarpMiller graph(vass, km);
    graph.Build(vass->InitialStates());
  }

 private:
  const ArtifactSystem& system_;
  HltlProperty negated_;
  VerifierOptions options_;
  std::optional<Hcd> hcd_;
  std::unique_ptr<RtEngine> engine_;
  std::unique_ptr<RecordingOracle> oracle_;
  TypePool pool_;
  std::unique_ptr<PropertyAutomata> automata_;
  std::map<TaskId, std::unique_ptr<TaskContext>> contexts_;
  std::map<TaskId, const TaskContext*> context_ptrs_;
};

/// Explores every product the verification builds (the root queries and
/// every child query they reach) over shared warm contexts, then
/// expands each product state from the warm context and from a fresh
/// one: the successor lists (targets, deltas, labels, the targets'
/// records) and ample prefixes must be identical. Both sides are
/// fresh, undecided copies of the explored product — an explored root
/// product may be cut (core/task_vass.h) and expand to nothing.
/// Returns the number of states compared.
size_t ExpectWarmEqualsCold(const ArtifactSystem& system,
                            const HltlProperty& property,
                            const std::string& what) {
  Harness h(system, property);
  size_t compared = 0;
  for (size_t i = 0; i < h.oracle().queries().size(); ++i) {
    const QueryRec q = h.oracle().queries()[i];
    std::unique_ptr<TaskVass> warm = h.Product(q, h.context(q.task));
    h.Explore(warm.get());
    for (int s = 0; s < warm->num_states(); ++s) {
      std::unique_ptr<TaskContext> cold_ctx = h.NewContext(q.task);
      std::unique_ptr<TaskVass> cold = h.Product(q, cold_ctx.get());
      TaskVassTestPeer::CopyProduct(*warm, cold.get());
      std::unique_ptr<TaskVass> warm_fresh = h.Product(q, h.context(q.task));
      TaskVassTestPeer::CopyProduct(*warm, warm_fresh.get());
      const std::string want = TaskVassTestPeer::Describe(cold.get(), s);
      const std::string got = TaskVassTestPeer::Describe(warm_fresh.get(), s);
      EXPECT_EQ(got, want) << what << ": query " << i << " (task " << q.task
                           << ", beta " << q.beta << "), state " << s;
      ++compared;
    }
  }
  return compared;
}

/// Explores every product the verification builds over shared warm
/// contexts, then checks at every product state and internal service
/// whose pre-condition holds that the memoized body equals
/// EnumerateInternal run fresh at the state's own input base: the same
/// successors in the same order, with the same target type, cell,
/// letter and set ops. Returns the number of (state, service) pairs
/// compared.
size_t ExpectBodiesMatchFreshEnumeration(const ArtifactSystem& system,
                                         const HltlProperty& property,
                                         const std::string& what) {
  Harness h(system, property);
  TypePool* pool = h.pool();
  size_t compared = 0;
  for (size_t i = 0; i < h.oracle().queries().size(); ++i) {
    const QueryRec q = h.oracle().queries()[i];
    const TaskContext& ctx = *h.context(q.task);
    std::unique_ptr<TaskVass> vass = h.Product(q, &ctx);
    h.Explore(vass.get());
    for (int s = 0; s < vass->num_states(); ++s) {
      const SymbolicConfig cur = TaskVassTestPeer::Config(*vass, s);
      for (int svc = 0; svc < static_cast<int>(ctx.task().services().size());
           ++svc) {
        const EnumMemo::Internal& head = TaskVassTestPeer::Head(*vass, s, svc);
        if (!head.pre) continue;
        const std::string where = what + ": query " + std::to_string(i) +
                                  ", state " + std::to_string(s) +
                                  ", service " + std::to_string(svc);
        if (head.body == nullptr) {
          ADD_FAILURE() << where << ": no body";
          continue;
        }
        const EnumMemo::InternalBody& body = *head.body;
        bool truncated = false;
        std::vector<InternalSuccessor> fresh = EnumerateInternal(
            ctx, ctx.InputBase(cur), ctx.task().service(svc), &truncated);
        EXPECT_EQ(body.truncated, truncated) << where;
        EXPECT_EQ(body.successors.size(), fresh.size()) << where;
        if (body.successors.size() != fresh.size()) continue;
        for (size_t k = 0; k < fresh.size(); ++k) {
          const EnumMemo::InternalBody::Successor& got = body.successors[k];
          const InternalSuccessor& want = fresh[k];
          EXPECT_EQ(got.step.iso, pool->InternNormalized(want.next.iso))
              << where << ", successor " << k;
          EXPECT_EQ(got.step.cell, pool->InternCell(want.next.cell))
              << where << ", successor " << k;
          EXPECT_EQ(got.step.letter,
                    TaskVassTestPeer::Letter(*vass, want.next, svc))
              << where << ", successor " << k;
          EXPECT_EQ(got.set_ops.size(), want.set_ops.size()) << where;
          if (got.set_ops.size() != want.set_ops.size()) continue;
          for (size_t o = 0; o < want.set_ops.size(); ++o) {
            const EnumMemo::InternalBody::SetOp& a = got.set_ops[o];
            const SetOpEffect& b = want.set_ops[o];
            EXPECT_EQ(a.relation, b.relation) << where;
            EXPECT_EQ(a.inserts, b.inserts) << where;
            EXPECT_EQ(a.retrieves, b.retrieves) << where;
            if (!b.retrieves) continue;
            EXPECT_EQ(a.retrieve_input_bound, b.retrieve_ts.input_bound)
                << where;
            EXPECT_EQ(a.retrieve_ts,
                      pool->InternNormalized(b.retrieve_ts.type))
                << where;
          }
        }
        ++compared;
      }
    }
  }
  return compared;
}

constexpr char kArithmeticSpec[] = R"(
system {
  relation R0 { }
  relation R1 { }
  task T0 {
    ids: x0;
    nums: n0;
    input: n0;
    service s0 {
      pre: true;
      post: true;
    }
    service s1 {
      pre: n0 + -3 < 0;
      post: n0 == 2;
    }
    task T1 {
      ids: x0, x1, x2;
      nums: n0, n1;
      set (x0, x1, x2);
      set P1 (x0, x1);
      input: x1 <- x0;
      open when ((R0(x0) || 3*n0 + 3 <= 0) && R1(x0));
      close when (!(x1 == null) && 2*n1 + 4 <= 0);
      service s0 {
        pre: ((n0 == n1 && n0 == 3) || x2 == null);
        post: ((R1(x1) || !(x2 == null)) || R0(x0));
        insert into S;
      }
      service s1 {
        pre: (!(x0 == null) || 2*n1 == 0);
        post: x2 == null;
      }
    }
  }
}
property p0 {
  (true U [ ! (! (svc(s1) U svc(s1)) || svc(s0)) ]@T1)
}
)";

TEST(EnumMemoTest, WarmMemoExpandsWhatAColdOneDoes) {
  const bench::Workload deep = bench::MakeDeepHierarchy(/*depth=*/4,
                                                        /*size=*/3);
  EXPECT_GT(ExpectWarmEqualsCold(deep.system, deep.property, "Deep"), 0u);
  const bench::Workload multirel =
      bench::MakeMultiRelation(/*size=*/3, /*depth=*/2, /*num_rels=*/2);
  EXPECT_GT(
      ExpectWarmEqualsCold(multirel.system, multirel.property, "MultiRel"),
      0u);
  const bench::Workload commuting =
      bench::MakeCommutingServices(/*width=*/3, /*depth=*/2);
  EXPECT_GT(
      ExpectWarmEqualsCold(commuting.system, commuting.property, "Commuting"),
      0u);

  StatusOr<ParsedSpec> spec = ParseSpec(kArithmeticSpec);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  ASSERT_TRUE(SystemUsesArithmetic(spec->system, spec->properties[0].second));
  EXPECT_GT(ExpectWarmEqualsCold(spec->system, spec->properties[0].second,
                                 "arithmetic"),
            0u);
}

TEST(EnumMemoTest, SharedBodiesMatchFreshEnumeration) {
  const bench::Workload deep = bench::MakeDeepHierarchy(/*depth=*/4,
                                                        /*size=*/3);
  EXPECT_GT(
      ExpectBodiesMatchFreshEnumeration(deep.system, deep.property, "Deep"),
      0u);
  const bench::Workload multirel =
      bench::MakeMultiRelation(/*size=*/3, /*depth=*/2, /*num_rels=*/2);
  EXPECT_GT(ExpectBodiesMatchFreshEnumeration(multirel.system,
                                              multirel.property, "MultiRel"),
            0u);

  StatusOr<ParsedSpec> travel = ParseSpec(LoadSpec("travel_mini.has"));
  ASSERT_TRUE(travel.ok()) << travel.status().ToString();
  for (const auto& [name, property] : travel->properties) {
    EXPECT_GT(ExpectBodiesMatchFreshEnumeration(travel->system, property,
                                                "travel_mini " + name),
              0u);
  }

  // Numeric input n0 of T0: its polynomials are preserved, so the body
  // key carries their signs.
  StatusOr<ParsedSpec> spec = ParseSpec(kArithmeticSpec);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_GT(ExpectBodiesMatchFreshEnumeration(
                spec->system, spec->properties[0].second, "arithmetic"),
            0u);
}

TEST(EnumMemoTest, BodiesAreSharedByInputBaseOnly) {
  // Deep: configurations whose types differ only outside x̄_in (the
  // same input projection, no arithmetic) share their bodies.
  const bench::Workload deep = bench::MakeDeepHierarchy(/*depth=*/4,
                                                        /*size=*/3);
  Harness h(deep.system, deep.property);
  size_t shared_pairs = 0;
  for (size_t i = 0; i < h.oracle().queries().size(); ++i) {
    const QueryRec q = h.oracle().queries()[i];
    const TaskContext& ctx = *h.context(q.task);
    std::unique_ptr<TaskVass> vass = h.Product(q, &ctx);
    h.Explore(vass.get());
    std::vector<std::string> projections;
    for (int s = 0; s < vass->num_states(); ++s) {
      projections.push_back(
          ctx.InputBase(TaskVassTestPeer::Config(*vass, s)).iso.Signature());
    }
    for (int a = 0; a < vass->num_states(); ++a) {
      for (int b = a + 1; b < vass->num_states(); ++b) {
        if (TaskVassTestPeer::Iso(*vass, a) ==
                TaskVassTestPeer::Iso(*vass, b) ||
            projections[a] != projections[b]) {
          continue;
        }
        for (int svc = 0; svc < static_cast<int>(ctx.task().services().size());
             ++svc) {
          const EnumMemo::Internal& ha = TaskVassTestPeer::Head(*vass, a, svc);
          const EnumMemo::Internal& hb = TaskVassTestPeer::Head(*vass, b, svc);
          if (!ha.pre || !hb.pre) continue;
          EXPECT_EQ(ha.body, hb.body) << "query " << i << ", states " << a
                                      << "/" << b << ", service " << svc;
          ++shared_pairs;
        }
      }
    }
  }
  EXPECT_GT(shared_pairs, 0u) << "no two configurations share an input base";

  // Arithmetic: in T0 every basis polynomial is over the numeric input
  // n0, so two root states with one type and different cells differ
  // only in a preserved polynomial's sign, and must not share a body.
  StatusOr<ParsedSpec> spec = ParseSpec(kArithmeticSpec);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  Harness arith(spec->system, spec->properties[0].second);
  const TaskContext& ctx = *arith.context(spec->system.root());
  ASSERT_EQ(ctx.preserved_polys().size(),
            static_cast<size_t>(ctx.basis()->size()));
  const std::vector<QueryRec> roots = arith.oracle().queries();
  size_t split_pairs = 0;
  for (const QueryRec& q : roots) {
    std::unique_ptr<TaskVass> vass = arith.Product(q, &ctx);
    arith.Explore(vass.get());
    for (int a = 0; a < vass->num_states(); ++a) {
      for (int b = a + 1; b < vass->num_states(); ++b) {
        if (TaskVassTestPeer::Iso(*vass, a) !=
                TaskVassTestPeer::Iso(*vass, b) ||
            TaskVassTestPeer::Config(*vass, a).cell ==
                TaskVassTestPeer::Config(*vass, b).cell) {
          continue;
        }
        // Service s0 (pre: true) fires everywhere.
        const EnumMemo::Internal& head_a = TaskVassTestPeer::Head(*vass, a, 0);
        const EnumMemo::Internal& head_b = TaskVassTestPeer::Head(*vass, b, 0);
        ASSERT_TRUE(head_a.pre && head_b.pre);
        EXPECT_NE(head_a.body, head_b.body) << "states " << a << "/" << b;
        ++split_pairs;
      }
    }
  }
  EXPECT_GT(split_pairs, 0u) << "no two root states differ only in the cell";
}

TEST(EnumMemoTest, SecondBetaProductAddsNoMissesForSharedStates) {
  const bench::Workload w = bench::MakeDeepHierarchy(/*depth=*/4, /*size=*/3);
  Harness h(w.system, w.property);
  // Explore the root products so the oracle records the child queries,
  // then pick a child query input asked under two assignments.
  for (size_t i = 0; i < h.oracle().queries().size(); ++i) {
    const QueryRec q = h.oracle().queries()[i];
    if (q.task != w.system.root()) continue;
    std::unique_ptr<TaskVass> root = h.Product(q, h.context(q.task));
    h.Explore(root.get());
  }
  std::optional<QueryRec> first;
  std::optional<QueryRec> second;
  for (const QueryRec& a : h.oracle().queries()) {
    for (const QueryRec& b : h.oracle().queries()) {
      if (a.task != w.system.root() && a.task == b.task && a.beta < b.beta &&
          a.iso.Signature() == b.iso.Signature() && a.cell == b.cell) {
        first = a;
        second = b;
        break;
      }
    }
    if (first.has_value()) break;
  }
  ASSERT_TRUE(first.has_value()) << "no child input queried under two betas";

  // Both products share one fresh context, so its memo starts cold.
  std::unique_ptr<TaskContext> ctx = h.NewContext(first->task);
  std::unique_ptr<TaskVass> p1 = h.Product(*first, ctx.get());
  h.Explore(p1.get());
  std::set<std::vector<int>> p1_configs;
  for (int s = 0; s < p1->num_states(); ++s) {
    p1_configs.insert(TaskVassTestPeer::ConfigKey(*p1, s));
  }
  const size_t p1_misses = ctx->memo().misses();
  EXPECT_GT(p1_misses, 0u);

  std::unique_ptr<TaskVass> p2 = h.Product(*second, ctx.get());
  std::vector<int> order = p2->InitialStates();
  std::set<int> seen(order.begin(), order.end());
  size_t shared = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    const int s = order[i];
    const size_t before = ctx->memo().misses();
    std::vector<VassEdge> edges;
    p2->Successors(s, &edges);
    if (p1_configs.count(TaskVassTestPeer::ConfigKey(*p2, s)) > 0) {
      ++shared;
      EXPECT_EQ(ctx->memo().misses(), before) << "state " << s;
    }
    for (const VassEdge& e : edges) {
      if (seen.insert(e.target).second) order.push_back(e.target);
    }
  }
  EXPECT_GT(shared, 0u);
}

TEST(EnumMemoTest, MissesAreDeterministic) {
  for (const bench::Workload& w :
       {bench::MakeDeepHierarchy(/*depth=*/4, /*size=*/3),
        bench::MakeCommutingServices(/*width=*/3, /*depth=*/2)}) {
    const VerifyResult first = Verify(w.system, w.property);
    EXPECT_GT(first.stats.enum_memo_misses, 0u) << w.name;
    const VerifyResult again = Verify(w.system, w.property);
    EXPECT_EQ(again.stats.enum_memo_misses, first.stats.enum_memo_misses)
        << w.name;
    EXPECT_GT(first.stats.enum_body_fills, 0u) << w.name;
    EXPECT_EQ(again.stats.enum_body_fills, first.stats.enum_body_fills)
        << w.name;
    EXPECT_EQ(again.stats.pooled_types, first.stats.pooled_types) << w.name;
  }
}

TEST(EnumMemoTest, ProductStatesHaveTheirTasksScope) {
  // In these generated specs, tasks with one variable layout reach
  // canonically equal configurations. A state's pooled type (the
  // representative its memo entries are filled from) must still be
  // over its own task's scope.
  for (uint64_t seed : {23, 39}) {
    const StatusOr<GeneratedSpec> gen = GenerateSpec(seed);
    ASSERT_TRUE(gen.ok()) << "seed " << seed;
    StatusOr<ParsedSpec> spec = ParseSpec(gen->source);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    size_t checked = 0;
    for (const auto& [name, property] : spec->properties) {
      Harness h(spec->system, property);
      for (size_t i = 0; i < h.oracle().queries().size(); ++i) {
        const QueryRec q = h.oracle().queries()[i];
        std::unique_ptr<TaskVass> vass = h.Product(q, h.context(q.task));
        h.Explore(vass.get());
        const VarScope* scope = &spec->system.task(q.task).vars();
        for (int s = 0; s < vass->num_states(); ++s) {
          EXPECT_EQ(vass->state_iso(s).scope(), scope)
              << "seed " << seed << " " << name << ": query " << i
              << " (task " << q.task << "), state " << s;
          ++checked;
        }
      }
    }
    EXPECT_GT(checked, 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace has
