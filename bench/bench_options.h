// Shared VerifierOptions construction for the counter-gated benchmark
// binaries. Every bench that feeds scripts/check_bench_counters.py MUST
// build its options through ApplyCommonOptions so a new verifier toggle
// lands in every bench row and in the CI gate at the same time — the
// bench_multirel/bench_pruning pair once drifted apart on exactly such
// a toggle, and the gate silently compared rows recorded under
// different configurations.
#ifndef HAS_BENCH_BENCH_OPTIONS_H_
#define HAS_BENCH_BENCH_OPTIONS_H_

#include "core/verifier.h"

namespace has {
namespace bench {

/// The toggles a bench row may vary; everything else stays at the
/// VerifierOptions default so rows are comparable across binaries.
struct BenchToggles {
  bool prune_coverability = true;
  bool por = true;
  bool slice = true;
};

inline VerifierOptions ApplyCommonOptions(const BenchToggles& toggles = {}) {
  VerifierOptions options;
  options.prune_coverability = toggles.prune_coverability;
  options.por = toggles.por;
  options.slice = toggles.slice;
  return options;
}

}  // namespace bench
}  // namespace has

#endif  // HAS_BENCH_BENCH_OPTIONS_H_
