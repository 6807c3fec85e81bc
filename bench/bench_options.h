// Shared VerifierOptions construction for the counter-gated benchmark
// binaries. Every bench that feeds scripts/check_bench_counters.py MUST
// build its options through ApplyCommonOptions so a new verifier toggle
// lands in every bench row and in the CI gate at the same time — the
// bench_multirel/bench_pruning pair once drifted apart on exactly such
// a toggle, and the gate silently compared rows recorded under
// different configurations.
//
// The HAS_BENCH_POR environment variable ("0" forces partial-order
// reduction off) exists for the CI differential job: a POR-off run of
// the same binaries must reproduce the pre-POR baselines
// (bench/baselines/*_por_off.json) counter for counter.
// HAS_BENCH_SLICE works the same way for the property-directed slicer:
// "0" forces VerifierOptions::slice off so the slice-off run must
// reproduce the pre-slicer baselines (bench/baselines/*_slice_off.json).
#ifndef HAS_BENCH_BENCH_OPTIONS_H_
#define HAS_BENCH_BENCH_OPTIONS_H_

#include <cstdlib>
#include <cstring>

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
  const char* env = std::getenv("HAS_BENCH_POR");
  if (env != nullptr && std::strcmp(env, "0") == 0) {
    options.por = false;
  }
  env = std::getenv("HAS_BENCH_SLICE");
  if (env != nullptr && std::strcmp(env, "0") == 0) {
    options.slice = false;
  }
  return options;
}

}  // namespace bench
}  // namespace has

#endif  // HAS_BENCH_BENCH_OPTIONS_H_
