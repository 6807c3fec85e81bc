// Multi-relation benchmark: end-to-end verification of the
// MakeMultiRelation family as a function of the number of artifact
// relations per task (S_T,1 … S_T,k at k = 1/2/3), reporting the
// DETERMINISTIC exploration counters — coverability nodes/edges,
// product states, interned types and recorded cover-edges — that feed
// the CI counter gate (scripts/check_bench_counters.py against
// bench/baselines/bench_multirel.json). Each relation owns its own
// counter-dimension group in every product VASS, so k scales the
// number of independent counter groups; wall-clock stays
// informational (1-vCPU recording host — see ROADMAP).
#include <benchmark/benchmark.h>

#include "bench_options.h"
#include "bench_stats.h"
#include "core/verifier.h"
#include "workloads.h"

namespace {

using has::bench::ApplyCommonOptions;
using has::bench::ExportStats;
using has::bench::MakeMultiRelation;
using has::bench::Workload;

void RunVerification(benchmark::State& state, const Workload& w) {
  has::RtStats stats;
  size_t states = 0;
  for (auto _ : state) {
    has::VerifierOptions options = ApplyCommonOptions();
    has::VerifyResult result = has::Verify(w.system, w.property, options);
    benchmark::DoNotOptimize(result.verdict);
    stats = result.stats;
    states += result.stats.cov_nodes + result.stats.product_states;
  }
  state.counters["states_per_sec"] = benchmark::Counter(
      static_cast<double>(states), benchmark::Counter::kIsRate);
  ExportStats(stats, &state);
}

void BM_MultiRelation(benchmark::State& s) {
  static auto* workloads = new std::vector<Workload>{
      MakeMultiRelation(/*size=*/3, /*depth=*/2, /*num_rels=*/1),
      MakeMultiRelation(/*size=*/3, /*depth=*/2, /*num_rels=*/2),
      MakeMultiRelation(/*size=*/3, /*depth=*/2, /*num_rels=*/3),
  };
  const auto& w = (*workloads)[static_cast<size_t>(s.range(0)) - 1];
  s.counters["num_rels"] = static_cast<double>(s.range(0));
  RunVerification(s, w);
}

}  // namespace

BENCHMARK(BM_MultiRelation)->Arg(1)->Arg(2)->Arg(3)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

BENCHMARK_MAIN();
