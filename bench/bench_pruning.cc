// Antichain-pruning benchmark: end-to-end verification with
// VerifierOptions::prune_coverability off (arg 0) vs. on (arg 1, the
// default) per workload family, reporting the DETERMINISTIC
// exploration counters — coverability nodes/edges, dropped successors,
// deactivated nodes, antichain peak, recorded cover-edges, product
// states and interned types. The counters are deterministic and
// host-independent, so bench/baselines/bench_pruning.json doubles
// as a perf-regression oracle: scripts/check_bench_counters.py fails
// CI on unexplained counter growth while wall-clock stays
// informational (the recording host has 1 vCPU — see ROADMAP).
//
// Every family's own property is VIOLATED, so its root exploration
// stops at the first blocking state (the root cut, core/task_vass.h);
// the *Holds rows verify a property that holds, so their counters
// measure a full exploration of the root and of every child.
#include <benchmark/benchmark.h>

#include "bench_options.h"
#include "bench_stats.h"
#include "core/verifier.h"
#include "workloads.h"

namespace {

using has::bench::ApplyCommonOptions;
using has::bench::BenchToggles;
using has::bench::ExportStats;
using has::bench::MakeAdversarialCyclic;
using has::bench::MakeDeepHierarchy;
using has::bench::MakeMultiRelation;
using has::bench::MakeMultiSet;
using has::bench::MakeWorkload;
using has::bench::WithHoldingProperty;
using has::bench::Workload;

void RunVerification(benchmark::State& state, const Workload& w) {
  const bool prune = state.range(0) != 0;
  has::RtStats stats;
  size_t states = 0;
  for (auto _ : state) {
    BenchToggles toggles;
    toggles.prune_coverability = prune;
    has::VerifierOptions options = ApplyCommonOptions(toggles);
    has::VerifyResult result = has::Verify(w.system, w.property, options);
    benchmark::DoNotOptimize(result.verdict);
    stats = result.stats;
    states += result.stats.cov_nodes + result.stats.product_states;
  }
  state.counters["states_per_sec"] = benchmark::Counter(
      static_cast<double>(states), benchmark::Counter::kIsRate);
  state.counters["prune"] = prune ? 1 : 0;
  ExportStats(stats, &state);
}

const Workload& Table1Workload() {
  static auto* w = new Workload(MakeWorkload(
      has::SchemaClass::kAcyclic, /*size=*/3, /*depth=*/2,
      /*with_sets=*/true, /*with_arith=*/false));
  return *w;
}
const Workload& Table2Workload() {
  static auto* w = new Workload(MakeWorkload(
      has::SchemaClass::kAcyclic, /*size=*/3, /*depth=*/2,
      /*with_sets=*/true, /*with_arith=*/true));
  return *w;
}
const Workload& Table1CyclicWorkload() {
  static auto* w = new Workload(MakeWorkload(
      has::SchemaClass::kCyclic, /*size=*/3, /*depth=*/2,
      /*with_sets=*/true, /*with_arith=*/false));
  return *w;
}
const Workload& DeepWorkload() {
  static auto* w = new Workload(MakeDeepHierarchy(/*depth=*/4, /*size=*/3));
  return *w;
}
const Workload& AdversarialWorkload() {
  static auto* w =
      new Workload(MakeAdversarialCyclic(/*size=*/4, /*depth=*/2));
  return *w;
}
const Workload& MultiSetWorkload() {
  static auto* w = new Workload(MakeMultiSet(/*size=*/3, /*depth=*/2,
                                             /*set_width=*/2));
  return *w;
}

const Workload& DeepHoldsWorkload() {
  static auto* w = new Workload(
      WithHoldingProperty(MakeDeepHierarchy(/*depth=*/4, /*size=*/3)));
  return *w;
}
const Workload& MultiRelationHoldsWorkload() {
  static auto* w = new Workload(WithHoldingProperty(
      MakeMultiRelation(/*size=*/3, /*depth=*/2, /*num_rels=*/2)));
  return *w;
}

void BM_Pruning_Table1(benchmark::State& s) {
  RunVerification(s, Table1Workload());
}
void BM_Pruning_Table2(benchmark::State& s) {
  RunVerification(s, Table2Workload());
}
void BM_Pruning_Table1Cyclic(benchmark::State& s) {
  RunVerification(s, Table1CyclicWorkload());
}
void BM_Pruning_Deep(benchmark::State& s) {
  RunVerification(s, DeepWorkload());
}
void BM_Pruning_AdversarialCyclic(benchmark::State& s) {
  RunVerification(s, AdversarialWorkload());
}
void BM_Pruning_MultiSet(benchmark::State& s) {
  RunVerification(s, MultiSetWorkload());
}
void BM_Pruning_DeepHolds(benchmark::State& s) {
  RunVerification(s, DeepHoldsWorkload());
}
void BM_Pruning_MultiRelationHolds(benchmark::State& s) {
  RunVerification(s, MultiRelationHoldsWorkload());
}

}  // namespace

BENCHMARK(BM_Pruning_Table1)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_Pruning_Table1Cyclic)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_Pruning_Deep)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_Pruning_AdversarialCyclic)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_Pruning_MultiSet)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
// Registered last so the families above keep their recorded indexes.
BENCHMARK(BM_Pruning_Table2)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_Pruning_DeepHolds)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_Pruning_MultiRelationHolds)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

BENCHMARK_MAIN();
