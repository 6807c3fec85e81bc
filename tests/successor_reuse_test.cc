// Successor recomputation under buffer reuse. A TaskVass builds every
// successor list in one reused edge buffer, keeps its Büchi successor
// lists and child-query batches per product, and frees them once the
// exploration is built (ReleaseScratch). Recomputing a state's
// successors after that must reproduce the exploration's own lists:
// the tests re-run Successors for every expanded product state in
// reverse order, each interleaved with another state's outstanding
// Prepared list (the profiler's PrepareSuccessors/CommitSuccessors
// split) and, once per product, with a whole nested exploration of
// another query's product. A counting operator new bounds what a warm
// re-run allocates, and what one warm Verify call allocates. A VIOLATED
// root product is cut once it reaches a blocking state
// (core/task_vass.h) and re-runs to nothing, so re-runs cover child
// products and the roots of HOLDS properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/rt_relation.h"
#include "core/verifier.h"
#include "fuzz/generator.h"
#include "spec/parser.h"
#include "vass/karp_miller.h"
#include "workloads.h"

namespace {

bool g_count_allocs = false;
size_t g_allocs = 0;

}  // namespace

// Counting global allocation functions (the array and aligned forms
// keep their defaults, which forward here or pair among themselves).
// GCC flags free() on what it takes for a builtin new's pointer; these
// deletes only ever see this file's malloc-backed new.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  if (g_count_allocs) ++g_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace has {
namespace {

/// Heap blocks allocated while `fn` runs.
template <typename Fn>
size_t CountAllocs(const Fn& fn) {
  const size_t before = g_allocs;
  g_count_allocs = true;
  fn();
  g_count_allocs = false;
  return g_allocs - before;
}

/// One R_T query, as a product asked the oracle.
struct QueryRec {
  TaskId task = kNoTask;
  PartialIsoType iso;
  Cell cell;
  Assignment beta = 0;
};

/// Answers child queries from an RtEngine and records each distinct
/// one, so the test can build the same products over its own contexts.
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

/// Each state's successor list and ample prefix from its first
/// Successors call.
struct FirstRun {
  std::map<int, std::vector<VassEdge>> edges;
  std::map<int, int> ample;
};

/// The product as the explorer sees it, recording first runs.
class RecordingVass : public VassSystem {
 public:
  RecordingVass(TaskVass* inner, FirstRun* first)
      : inner_(inner), first_(first) {}

  void Successors(int state, std::vector<VassEdge>* out) override {
    const size_t begin = out->size();
    inner_->Successors(state, out);
    if (first_->edges.count(state) == 0) {
      first_->edges[state].assign(out->begin() + begin, out->end());
      first_->ample[state] = inner_->AmplePrefix(state);
    }
  }
  int AmplePrefix(int state) const override {
    return inner_->AmplePrefix(state);
  }

 private:
  TaskVass* inner_;
  FirstRun* first_;
};

/// Every product of one verification, built over the test's own pool,
/// automata and task contexts; child queries go to an RtEngine.
class Harness {
 public:
  Harness(const ArtifactSystem& system, const HltlProperty& property)
      : system_(system), negated_(property.Negated()) {
    engine_ = std::make_unique<RtEngine>(&system_, &negated_, options_,
                                         /*hcd=*/nullptr);
    oracle_ = std::make_unique<RecordingOracle>(engine_.get());
    automata_ = std::make_unique<PropertyAutomata>(&system_, &negated_);
    for (TaskId t = 0; t < system_.num_tasks(); ++t) {
      contexts_[t] = std::make_unique<TaskContext>(&system_, &negated_, t,
                                                   options_, nullptr);
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

  const std::vector<QueryRec>& queries() const { return oracle_->queries(); }
  TaskId root() const { return system_.root(); }

  /// Builds query `i`'s product and explores it the way the engine
  /// does, releasing the product's scratch afterwards.
  std::unique_ptr<TaskVass> Explore(size_t i, FirstRun* first) {
    const QueryRec q = queries()[i];
    const Condition* filter =
        q.task == system_.root() ? system_.global_pre().get() : nullptr;
    auto vass = std::make_unique<TaskVass>(
        contexts_.at(q.task).get(), &context_ptrs_, automata_.get(), &pool_,
        q.beta, q.iso, q.cell, oracle_.get(), filter);
    RecordingVass recording(vass.get(), first);
    KarpMillerOptions km;
    km.max_nodes = options_.max_cov_nodes;
    km.prune_coverability = options_.prune_coverability;
    km.por = options_.por;
    KarpMiller graph(&recording, km);
    graph.Build(vass->InitialStates());
    vass->ReleaseScratch();
    return vass;
  }

 private:
  const ArtifactSystem& system_;
  HltlProperty negated_;
  VerifierOptions options_;
  std::unique_ptr<RtEngine> engine_;
  std::unique_ptr<RecordingOracle> oracle_;
  TypePool pool_;
  std::unique_ptr<PropertyAutomata> automata_;
  std::map<TaskId, std::unique_ptr<TaskContext>> contexts_;
  std::map<TaskId, const TaskContext*> context_ptrs_;
};

struct Explored {
  std::unique_ptr<TaskVass> vass;
  FirstRun first;
  bool root = false;
};

/// Explores every product of the verification; child products are
/// discovered as their parents explore.
std::vector<Explored> ExploreAll(Harness* h) {
  std::vector<Explored> products;
  for (size_t i = 0; i < h->queries().size(); ++i) {
    Explored p;
    p.vass = h->Explore(i, &p.first);
    p.root = h->queries()[i].task == h->root();
    products.push_back(std::move(p));
  }
  return products;
}

void ExpectSameEdges(const std::vector<VassEdge>& got,
                     const std::vector<VassEdge>& want,
                     const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k].target, want[k].target) << where << ", edge " << k;
    EXPECT_EQ(got[k].delta, want[k].delta) << where << ", edge " << k;
    EXPECT_EQ(got[k].label, want[k].label) << where << ", edge " << k;
  }
}

/// Re-runs every expanded state of every product (of every child
/// product unless `rerun_roots`), last product and highest state first.
/// Each re-run holds another state's prepared successors across it, and
/// the middle one of each product also explores a fresh product of
/// another query (whose first run must equal that query's). Returns the
/// number of states re-run.
size_t ExpectRerunsMatch(Harness* h, std::vector<Explored>* products,
                         bool rerun_roots, const std::string& what) {
  size_t rerun = 0;
  for (size_t i = products->size(); i-- > 0;) {
    Explored& p = (*products)[i];
    if (p.root && !rerun_roots) continue;
    std::vector<int> states;
    for (const auto& [s, edges] : p.first.edges) states.push_back(s);
    std::reverse(states.begin(), states.end());
    for (size_t k = 0; k < states.size(); ++k) {
      const int s = states[k];
      const int other = states[(k + 1) % states.size()];
      const std::string where = what + ": product " + std::to_string(i) +
                                ", state " + std::to_string(s);
      std::unique_ptr<VassSystem::Prepared> held =
          p.vass->PrepareSuccessors(other);
      if (k == states.size() / 2) {
        const size_t j = (i + 1) % products->size();
        FirstRun nested;
        std::unique_ptr<TaskVass> fresh = h->Explore(j, &nested);
        EXPECT_EQ(nested.ample, (*products)[j].first.ample) << where;
        for (const auto& [ns, edges] : nested.edges) {
          ExpectSameEdges(edges, (*products)[j].first.edges[ns],
                          where + ", nested product " + std::to_string(j) +
                              " state " + std::to_string(ns));
        }
      }
      std::vector<VassEdge> got;
      p.vass->Successors(s, &got);
      ExpectSameEdges(got, p.first.edges[s], where);
      EXPECT_EQ(p.vass->AmplePrefix(s), p.first.ample[s]) << where;
      std::vector<VassEdge> got_other;
      p.vass->CommitSuccessors(other, std::move(held), &got_other);
      ExpectSameEdges(got_other, p.first.edges[other],
                      where + ", held state " + std::to_string(other));
      EXPECT_EQ(p.vass->AmplePrefix(other), p.first.ample[other]) << where;
      ++rerun;
    }
  }
  return rerun;
}

TEST(SuccessorReuseTest, RerunsAfterReleaseReproduceTheExploration) {
  const bench::Workload families[] = {
      bench::MakeDeepHierarchy(/*depth=*/4, /*size=*/3),
      bench::MakeMultiRelation(/*size=*/3, /*depth=*/2, /*num_rels=*/2),
      bench::MakeCommutingServices(/*width=*/3, /*depth=*/2),
  };
  for (const bench::Workload& violated : families) {
    // The VIOLATED property's child products, then every product of
    // the HOLDS one.
    const bench::Workload holds = bench::WithHoldingProperty(violated);
    for (const bench::Workload* w : {&violated, &holds}) {
      Harness h(w->system, w->property);
      std::vector<Explored> products = ExploreAll(&h);
      ASSERT_GT(products.size(), 1u) << w->name;
      EXPECT_GT(ExpectRerunsMatch(&h, &products, /*rerun_roots=*/w == &holds,
                                  w->name),
                0u)
          << w->name;
    }
  }
}

TEST(SuccessorReuseTest, WarmRerunAllocatesOnlyOutputsAndDeltas) {
  // A HOLDS property, so that every product, the root included,
  // re-runs its exploration's lists.
  const bench::Workload w = bench::WithHoldingProperty(
      bench::MakeDeepHierarchy(/*depth=*/4, /*size=*/3));
  Harness h(w.system, w.property);
  std::vector<Explored> products = ExploreAll(&h);
  // The first pass after the release refills the product's scratch;
  // the second one is warm.
  size_t allocs = 0;
  size_t ceiling = 0;
  size_t edges = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (Explored& p : products) {
      for (const auto& [s, first] : p.first.edges) {
        std::vector<VassEdge> out;
        const size_t n = CountAllocs([&] { p.vass->Successors(s, &out); });
        ExpectSameEdges(out, first, w.name + ": state " + std::to_string(s));
        if (pass == 0) continue;
        allocs += n;
        ceiling += 1;  // the output list
        for (const VassEdge& e : out) ceiling += e.delta.empty() ? 0 : 1;
        edges += out.size();
      }
    }
  }
  EXPECT_LE(allocs, ceiling);
  std::printf("warm re-run: %zu allocations for %zu edges (ceiling %zu)\n",
              allocs, edges, ceiling);
}

/// Heap blocks one warm Verify call of `property` allocates.
size_t AllocsPerVerify(const ArtifactSystem& system,
                       const HltlProperty& property,
                       const VerifierOptions& options) {
  const VerifyResult warmup = Verify(system, property, options);
  VerifyResult result;
  const size_t allocs =
      CountAllocs([&] { result = Verify(system, property, options); });
  EXPECT_EQ(result.verdict, warmup.verdict);
  return allocs;
}

TEST(SuccessorReuseTest, VerifyAllocationCeilings) {
  // The deep family's own (VIOLATED) property: 17,724 allocations
  // before the symbolic types and product states were made flat, 6,349
  // before the analyzer's oracle and the Büchi tableau reused their
  // storage, 4,832 before Karp–Miller and the lasso search kept their
  // nodes' edges, successor lists, antichains and search state in
  // per-graph storage, 3,630 after; the ceiling is about 5% above
  // that.
  const bench::Workload deep =
      bench::MakeDeepHierarchy(/*depth=*/4, /*size=*/3);
  const size_t deep_allocs =
      AllocsPerVerify(deep.system, deep.property, VerifierOptions{});
  EXPECT_LE(deep_allocs, 3800u);
  std::printf("allocations per Verify (deep, depth 4, size 3): %zu\n",
              deep_allocs);

  // The slowest generated-corpus item, at the corpus's node budget:
  // 83,412 allocations before the flat types, 14,373 before the
  // per-graph Karp–Miller storage, 13,871 before linear expressions
  // kept flat terms and the cell checks dense rows, 9,428 after; the
  // ceiling is about 9% above that.
  const StatusOr<GeneratedSpec> gen = GenerateSpec(115);
  ASSERT_TRUE(gen.ok());
  StatusOr<ParsedSpec> parsed = ParseSpec(gen->source);
  ASSERT_TRUE(parsed.ok());
  ASSERT_FALSE(parsed->properties.empty());
  VerifierOptions options;
  options.max_cov_nodes = 1 << 12;
  const size_t gen_allocs = AllocsPerVerify(
      parsed->system, parsed->properties[0].second, options);
  EXPECT_LE(gen_allocs, 10280u);
  std::printf("allocations per Verify (GenerateSpec(115) p0): %zu\n",
              gen_allocs);
}

}  // namespace
}  // namespace has
