// Cone-of-influence-slicing benchmark: end-to-end verification with
// VerifierOptions::slice off (arg0 = 0) vs. on (arg0 = 1, the default)
// on the MakeSlicedMultiRelation family — MakeMultiRelation carrying an
// insert-only audit relation, never-mentioned variables, and a dead
// service per task, all invisible to the property. Reported counters
// are the DETERMINISTIC exploration payload the CI gate checks
// (scripts/check_bench_counters.py against
// bench/baselines/bench_slice.json): the slice-on rows must show
// sliced_services/sliced_dims > 0 and strictly fewer counter_dims and
// cov_nodes than their slice-off siblings, and both rows of a pair must
// reach the same verdict. Wall-clock stays informational (1-vCPU
// recording host).
#include <benchmark/benchmark.h>

#include "bench_options.h"
#include "bench_stats.h"
#include "core/verifier.h"
#include "workloads.h"

namespace {

using has::bench::ApplyCommonOptions;
using has::bench::BenchToggles;
using has::bench::ExportStats;
using has::bench::MakeSlicedMultiRelation;
using has::bench::Workload;

void RunVerification(benchmark::State& state, const Workload& w) {
  const bool slice = state.range(0) != 0;
  has::RtStats stats;
  size_t states = 0;
  for (auto _ : state) {
    BenchToggles toggles;
    toggles.slice = slice;
    has::VerifierOptions options = ApplyCommonOptions(toggles);
    has::VerifyResult result = has::Verify(w.system, w.property, options);
    benchmark::DoNotOptimize(result.verdict);
    stats = result.stats;
    states += result.stats.cov_nodes + result.stats.product_states;
  }
  state.counters["states_per_sec"] = benchmark::Counter(
      static_cast<double>(states), benchmark::Counter::kIsRate);
  state.counters["slice"] = slice ? 1 : 0;
  ExportStats(stats, &state);
}

const Workload& SlicedWorkload(int num_rels) {
  static auto* workloads = new std::vector<Workload>{
      MakeSlicedMultiRelation(/*size=*/3, /*depth=*/2, /*num_rels=*/1),
      MakeSlicedMultiRelation(/*size=*/3, /*depth=*/2, /*num_rels=*/2),
  };
  return (*workloads)[static_cast<size_t>(num_rels - 1)];
}

// range(0) = slice, range(1) = num_rels.
void BM_Slice_MultiRelation(benchmark::State& s) {
  s.counters["num_rels"] = static_cast<double>(s.range(1));
  RunVerification(s, SlicedWorkload(static_cast<int>(s.range(1))));
}

}  // namespace

BENCHMARK(BM_Slice_MultiRelation)
    ->Args({0, 1})->Args({1, 1})
    ->Args({0, 2})->Args({1, 2})
    ->Unit(benchmark::kMillisecond)->UseRealTime();

BENCHMARK_MAIN();
