// Export of the verifier's exploration counters (RtStats) into a Google
// Benchmark row. Every counter-gated bench binary exports through
// ExportStats, so a new RtStats field reaches all of their rows at once;
// scripts/check_bench_counters.py decides which of these names are gated
// and which are informational.
#ifndef HAS_BENCH_BENCH_STATS_H_
#define HAS_BENCH_BENCH_STATS_H_

#include <benchmark/benchmark.h>

#include <cstddef>
#include <utility>

#include "core/rt_relation.h"

namespace has {
namespace bench {

/// Writes the per-verification counters of `stats` into `state`. They
/// are identical every iteration and on every host, which makes them
/// the regression-gate payload.
inline void ExportStats(const RtStats& stats, benchmark::State* state) {
  const std::pair<const char*, size_t> fields[] = {
      {"cov_nodes", stats.cov_nodes},
      {"cov_edges", stats.cov_edges},
      {"product_states", stats.product_states},
      {"pooled_types", stats.pooled_types},
      {"counter_dims", stats.counter_dims},
      {"pruned_successors", stats.pruned_successors},
      {"deactivated_nodes", stats.deactivated_nodes},
      {"antichain_peak", stats.antichain_peak},
      {"cover_edges", stats.cover_edges},
      {"antichain_probes", stats.antichain_probes},
      {"ample_reduced_successors", stats.ample_reduced_successors},
      {"ample_full_expansions", stats.ample_full_expansions},
      {"sliced_services", stats.sliced_services},
      {"sliced_dims", stats.sliced_dims},
      {"diagnostics_emitted", stats.diagnostics_emitted},
      {"enum_memo_misses", stats.enum_memo_misses},
      {"enum_memo_hits", stats.enum_memo_hits},
      {"enum_body_fills", stats.enum_body_fills},
  };
  for (const auto& [name, value] : fields) {
    state->counters[name] = static_cast<double>(value);
  }
}

}  // namespace bench
}  // namespace has

#endif  // HAS_BENCH_BENCH_STATS_H_
