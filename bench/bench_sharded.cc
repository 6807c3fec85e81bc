// Sharded-exploration benchmark: end-to-end verification throughput
// (coverability nodes + product states per second) as a function of
// VerifierOptions::num_shards (1/2/4/8) on the Table 1/Table 2 workload
// families and on the two post-Tables families (deep hierarchy,
// adversarial cyclic schema). The sharded explorer is deterministic and
// node-identical to the sequential one, so every row of one family does
// exactly the same symbolic work — the ratio between shard counts is a
// pure parallel-efficiency measurement. Recorded baselines live in
// bench/baselines/bench_sharded.json (per-shard-count rows; note the
// recording host's core count — speedups need real cores).
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
using has::bench::MakeWorkload;
using has::bench::Workload;

void RunVerification(benchmark::State& state, const Workload& w) {
  const int num_shards = static_cast<int>(state.range(0));
  size_t states = 0;
  bool violated = false;
  has::RtStats stats;
  for (auto _ : state) {
    BenchToggles toggles;
    toggles.num_shards = num_shards;
    has::VerifierOptions options = ApplyCommonOptions(toggles);
    has::VerifyResult result = has::Verify(w.system, w.property, options);
    violated = result.verdict == has::Verdict::kViolated;
    benchmark::DoNotOptimize(violated);
    stats = result.stats;
    states += result.stats.cov_nodes + result.stats.product_states;
  }
  state.counters["states_per_sec"] = benchmark::Counter(
      static_cast<double>(states), benchmark::Counter::kIsRate);
  state.counters["shards"] = static_cast<double>(num_shards);
  // The sharded build is node-identical to the sequential one, so the
  // exploration counters must agree ACROSS shard counts as well as
  // across hosts — scripts/check_bench_counters.py gates them per row,
  // which catches sharded-determinism regressions in the Release CI job
  // (not just in tests). Antichain probes and the ample-prefix replay
  // run in the serial replay of the sequential decision order, and the
  // enumeration memo fills one entry per distinct key, so those
  // counters are shard-count-invariant too.
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
const Workload& DeepWorkload() {
  static auto* w = new Workload(MakeDeepHierarchy(/*depth=*/4, /*size=*/3));
  return *w;
}
const Workload& AdversarialWorkload() {
  static auto* w =
      new Workload(MakeAdversarialCyclic(/*size=*/4, /*depth=*/2));
  return *w;
}

void BM_Sharded_Table1(benchmark::State& s) {
  RunVerification(s, Table1Workload());
}
void BM_Sharded_Table2(benchmark::State& s) {
  RunVerification(s, Table2Workload());
}
void BM_Sharded_Deep(benchmark::State& s) { RunVerification(s, DeepWorkload()); }
void BM_Sharded_AdversarialCyclic(benchmark::State& s) {
  RunVerification(s, AdversarialWorkload());
}

}  // namespace

BENCHMARK(BM_Sharded_Table1)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_Sharded_Table2)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_Sharded_Deep)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_Sharded_AdversarialCyclic)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

BENCHMARK_MAIN();
