// Timed runner of the verification benchmark: builds one workload's
// inputs, then verifies its properties in a closed loop (one Verify
// call at a time, single-threaded, default VerifierOptions) for the
// requested wall time, checking every verdict against the known-answer
// file. Prints the end-to-end metrics as the last line of stdout.
//
//   perfbench_timed --workload deep_h4 --seed 1 --seconds 10
//                   --answers perfbench/answers.tsv
#include <algorithm>
#include <iostream>

#include "common.h"

namespace {

using perfbench::Clock;
using perfbench::SecondsSince;

/// Set-up is timed in kSetupSamples samples and their median reported.
/// A sample repeats the build until kMinSampleS has passed and gives the
/// time per build: deep_h4's family builds in well under a millisecond,
/// too short to time once. The first sample builds the inputs before the
/// timed loop; the others are spread over it, between specs. Other work
/// on the host slows this one by up to 2x for seconds at a time, so
/// samples taken back to back would all land in the same such period.
constexpr size_t kSetupSamples = 15;
constexpr double kMinSampleS = 0.05;

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) return 2;
  perfbench::Answers answers;
  std::string error;
  if (!answers.Load(args.answers, &error)) {
    std::cerr << "perfbench: " << error << "\n";
    return 2;
  }

  std::vector<double> setup_s;
  perfbench::Inputs in;
  const std::vector<uint64_t> pool = answers.CorpusPool();
  size_t builds = 0;
  auto time_setup = [&](perfbench::Inputs* out) {
    const Clock::time_point t0 = Clock::now();
    size_t n = 0;
    double elapsed = 0;
    do {
      *out = perfbench::MakeInputs(args.workload, args.seed, pool);
      ++n;
      elapsed = SecondsSince(t0);
    } while (elapsed < kMinSampleS);
    setup_s.push_back(elapsed / static_cast<double>(n));
    builds += n;
  };
  time_setup(&in);

  const has::VerifierOptions options = perfbench::OptionsFor(args.workload);
  // Per pass position: the best (minimum) wall time of each property's
  // Verify call and of each spec's parse over the run's passes. Other
  // work on the host slows this one for seconds at a time; the best
  // time of a repeated item is the estimate such periods move least.
  std::vector<double> best_verify_ms;
  std::vector<double> best_parse_ms;
  std::vector<double> call_ms;  // every call, for the informational lines
  size_t attempted = 0;
  size_t inconclusive = 0;
  std::vector<std::string> failures;

  const Clock::time_point start = Clock::now();
  // Whole passes over the inputs only, so every run of one seed
  // measures the same mix of specs.
  for (size_t pass = 0; pass == 0 || SecondsSince(start) < args.seconds;
       ++pass) {
    size_t position = 0;
    for (size_t i = 0; i < perfbench::NumSpecs(in); ++i) {
      has::ParsedSpec scratch;
      const Clock::time_point t_parse = Clock::now();
      const has::ParsedSpec& spec = perfbench::LoadSpec(in, i, &scratch);
      const double parse_ms = 1e3 * SecondsSince(t_parse);
      if (pass == 0) best_parse_ms.push_back(parse_ms);
      best_parse_ms[i] = std::min(best_parse_ms[i], parse_ms);
      for (const auto& [prop_name, property] : spec.properties) {
        const Clock::time_point t0 = Clock::now();
        has::VerifyResult r = has::Verify(spec.system, property, options);
        const double ms = 1e3 * SecondsSince(t0);
        call_ms.push_back(ms);
        if (pass == 0) best_verify_ms.push_back(ms);
        best_verify_ms[position] = std::min(best_verify_ms[position], ms);
        ++position;
        ++attempted;
        if (r.verdict == has::Verdict::kInconclusive) ++inconclusive;
        const std::string item = perfbench::SpecName(in, i) + "/" + prop_name;
        std::string why = answers.Check(item, r.verdict);
        if (why.empty() && r.verdict == has::Verdict::kViolated &&
            r.counterexample.empty()) {
          why = item + ": VIOLATED without a counterexample";
        }
        if (!why.empty()) failures.push_back(why);
      }
      const double due = args.seconds * static_cast<double>(setup_s.size()) /
                         kSetupSamples;
      if (setup_s.size() < kSetupSamples && SecondsSince(start) >= due) {
        perfbench::Inputs spare;
        time_setup(&spare);
      }
    }
  }
  const double wall_s = SecondsSince(start);
  while (setup_s.size() < kSetupSamples) {
    perfbench::Inputs spare;
    time_setup(&spare);
  }

  double best_ms = 0;
  for (double ms : best_verify_ms) best_ms += ms;
  for (double ms : best_parse_ms) best_ms += ms;
  double tail_pct = 0;
  const double best_tail_ms = perfbench::Tail(best_verify_ms, &tail_pct);
  double call_tail_pct = 0;
  const double call_tail_ms = perfbench::Tail(call_ms, &call_tail_pct);
  std::cout << "workload " << perfbench::WorkloadName(args.workload)
            << " seed " << args.seed << "\n"
            << "setup_s is the median of " << kSetupSamples
            << " samples over " << builds << " builds of the inputs\n"
            << "verified " << attempted << " properties (" << inconclusive
            << " INCONCLUSIVE, " << failures.size() << " wrong) in "
            << wall_s << " s: " << best_verify_ms.size()
            << " per pass, best_verify_ms_tail is p" << tail_pct << " of "
            << best_verify_ms.size() << " best times\n"
            << "every call: p50 " << perfbench::Median(call_ms) << " ms, p"
            << call_tail_pct << " " << call_tail_ms << " ms over "
            << call_ms.size() << " calls, " << attempted / wall_s
            << " properties/s\n";
  for (const std::string& f : failures) std::cout << "WRONG " << f << "\n";

  const double n = static_cast<double>(attempted);
  perfbench::PrintResult(
      failures.empty(), attempted, failures.size(),
      {{"best_verify_ms_p50", perfbench::Median(best_verify_ms), "ms"},
       {"best_verify_ms_tail", best_tail_ms, "ms"},
       {"best_props_per_s",
        1e3 * static_cast<double>(best_verify_ms.size()) / best_ms, "1/s"},
       {"decided_share", (n - static_cast<double>(inconclusive)) / n,
        "ratio"},
       {"peak_rss_mb", perfbench::PeakRssMb(), "MiB"},
       {"setup_s", perfbench::Median(setup_s), "s"}});
  return 0;
}
