// Shared pieces of the verification benchmark's runners: the workload
// registry, input generation (the timed set-up step), known-answer
// checking, and the small statistics and JSON helpers both runners
// print their results with.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/verifier.h"
#include "spec/parser.h"

namespace perfbench {

enum class WorkloadId { kDeepH4, kGenCorpus };

const char* WorkloadName(WorkloadId w);

/// The recorder examines the generator seeds [1, kCorpusRecorded]. A
/// spec joins gen_corpus's pool if its answers cross-check and each of
/// its properties verifies within kMaxCorpusVerifyMs under the
/// workload's budget on the recording host. Every run verifies the whole
/// pool in whole passes and times each property by its best call, which
/// needs about ten passes per run; the eleven slower specs of seeds
/// 1-120 (0.7-9 s each, about 40 s together) would leave room for one.
/// The cap sits in the gap between gen60 (0.45-0.5 s across recordings;
/// pooled, the arithmetic-heavy top of best_verify_ms_tail's tail) and
/// gen7 (0.7-0.8 s), so host noise at recording does not move a spec
/// across it. answers.tsv lists exactly
/// the pool.
constexpr uint64_t kCorpusRecorded = 120;
constexpr double kMaxCorpusVerifyMs = 600;
/// Every run verifies the whole pool; the workload seed picks the spec
/// it starts at (the order wraps around).
std::vector<uint64_t> CorpusSeeds(uint64_t workload_seed,
                                  const std::vector<uint64_t>& pool);

/// Name of one generated spec in item keys ("gen<seed>").
std::string CorpusSpecName(uint64_t spec_seed);

/// The default VerifierOptions, except on gen_corpus, which caps each
/// query at the node budget the differential harness uses
/// (DiffOptions::max_cov_nodes) so adversarial random specs end in
/// INCONCLUSIVE instead of running for minutes.
has::VerifierOptions OptionsFor(WorkloadId w);

/// The inputs of one run. deep_h4's family is built here; gen_corpus keeps
/// .has sources, which the timed loop parses.
struct Inputs {
  WorkloadId workload = WorkloadId::kDeepH4;
  /// gen_corpus: (spec name, .has source), in verification order.
  std::vector<std::pair<std::string, std::string>> sources;
  /// deep_h4: the built spec, holding one property named "property".
  std::vector<std::pair<std::string, has::ParsedSpec>> built;
};

/// The set-up step: builds the family, or generates the corpus from
/// `pool` (ascending generator seeds; unused by deep_h4).
Inputs MakeInputs(WorkloadId w, uint64_t seed,
                  const std::vector<uint64_t>& pool);

/// Number of specs in the inputs.
size_t NumSpecs(const Inputs& in);

/// Spec `i` ready to verify: the built family, or `scratch` filled by
/// parsing the source. Exits with a message if a source fails to parse
/// (generated specs are valid by construction).
const has::ParsedSpec& LoadSpec(const Inputs& in, size_t i,
                                has::ParsedSpec* scratch);
const std::string& SpecName(const Inputs& in, size_t i);

/// Known answers, one "item<TAB>VERDICT" line each; an item is
/// "<spec name>/<property name>".
class Answers {
 public:
  /// Returns false (with a message in `error`) on an unreadable file or
  /// a malformed line.
  bool Load(const std::string& path, std::string* error);

  /// Checks one verdict: it must equal the recorded answer, except that
  /// INCONCLUSIVE is always accepted (it is counted, not judged). An
  /// item with no recorded answer fails. Returns an empty string when
  /// the verdict is accepted, otherwise the reason.
  std::string Check(const std::string& item, has::Verdict got) const;

  /// Generator seeds of the corpus specs with answers, ascending.
  std::vector<uint64_t> CorpusPool() const;

 private:
  std::map<std::string, has::Verdict> answers_;
};

/// Median of `v` (the mean of the middle pair for even sizes).
double Median(std::vector<double> v);

/// The highest order statistic of `v` with at least ten samples above
/// it; `percentile` receives its rank as a percentage of the samples.
/// With ten or fewer samples no such statistic exists and the maximum
/// is returned (percentile 100).
double Tail(std::vector<double> v, double* percentile);

/// Peak resident set of this process, in MiB.
double PeakRssMb();

using Clock = std::chrono::steady_clock;
inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Common command line of both runners.
struct Args {
  WorkloadId workload = WorkloadId::kDeepH4;
  uint64_t seed = 1;
  double seconds = 10;
  std::string answers;
  /// Traced runner only: where the spans are written at exit.
  std::string trace_out;
};
/// Parses --workload --seed --seconds --answers [--trace-out]; returns
/// false (with a message on stderr) on a bad command line.
bool ParseArgs(int argc, char** argv, Args* args);

/// One metric of the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Prints the result as one JSON object on the last line of stdout.
void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
