// Records the known answers of the verification benchmark. Run once
// when the workloads change; its stdout is answers.tsv.
//
//   perfbench_record > perfbench/answers.tsv
//
// deep_h4's answer is its Verify verdict. Each gen_corpus
// property is verified under the workload's node budget; a budget-cut
// INCONCLUSIVE is re-verified with the default budget so the file holds
// a definite answer. Every corpus answer is then cross-checked with the
// three-way differential (fuzz/differential.h): the symbolic
// configuration matrix must agree (a matrix cut short by the
// differential's node budget is retried with the default budget), and a
// VIOLATED answer must come with a concrete witness (the randomized
// search is retried wider). A spec with a property that fails either
// check, or that is still cut short after its retry, is left out of the
// pool (reported on stderr); stderr also lists the per-property verify
// time under the budget and how many properties needed each retry.
#include <iostream>

#include "common.h"
#include "fuzz/differential.h"
#include "fuzz/generator.h"

namespace {

using perfbench::Clock;
using perfbench::SecondsSince;
using perfbench::WorkloadId;

/// Properties whose cross-check needed a retry.
struct Retries {
  size_t default_budget = 0;
  size_t wider_witness_search = 0;
};

/// Prints the answers of one generated spec; false (and nothing
/// printed) if any of its properties fails a check.
bool RecordCorpusSpec(uint64_t spec_seed, Retries* retries) {
  perfbench::Inputs in;
  in.workload = WorkloadId::kGenCorpus;
  has::StatusOr<has::GeneratedSpec> gen = has::GenerateSpec(spec_seed);
  if (!gen.ok()) {
    std::cerr << "GenerateSpec(" << spec_seed << "): " << gen.status().ToString()
              << "\n";
    return false;
  }
  in.sources.emplace_back(perfbench::CorpusSpecName(spec_seed), gen->source);
  has::ParsedSpec scratch;
  const has::ParsedSpec& spec = perfbench::LoadSpec(in, 0, &scratch);
  const has::VerifierOptions budget = perfbench::OptionsFor(in.workload);
  bool ok = true;
  std::string lines;
  for (const auto& [prop_name, property] : spec.properties) {
    const std::string item = in.sources[0].first + "/" + prop_name;
    const Clock::time_point t0 = Clock::now();
    const has::VerifyResult under_budget =
        has::Verify(spec.system, property, budget);
    const double budget_ms = 1e3 * SecondsSince(t0);
    if (budget_ms > perfbench::kMaxCorpusVerifyMs) {
      std::cerr << item << " " << budget_ms
                << " ms: too slow, spec left out\n";
      return false;
    }
    has::Verdict verdict = under_budget.verdict;
    const bool cut = verdict == has::Verdict::kInconclusive;
    if (cut) verdict = has::Verify(spec.system, property).verdict;
    has::DiffOptions diff_options;
    has::DiffReport diff =
        has::RunDifferential(spec.system, property, diff_options);
    if (diff.kind == has::DiffReport::Kind::kInconclusive) {
      // Some configuration of the matrix ran past the differential's
      // node budget: rerun the whole check with the verifier's default.
      ++retries->default_budget;
      diff_options.max_cov_nodes = has::VerifierOptions().max_cov_nodes;
      diff = has::RunDifferential(spec.system, property, diff_options);
    }
    if (diff.kind == has::DiffReport::Kind::kMissingWitness) {
      // The bounded concrete search is randomized and incomplete: retry
      // it wider before calling the answer unwitnessed.
      ++retries->wider_witness_search;
      diff_options.concrete_databases = 8;
      diff_options.concrete_attempts = 400;
      diff_options.tuples_per_relation = 4;
      diff = has::RunDifferential(spec.system, property, diff_options);
    }
    std::string problem;
    if (verdict == has::Verdict::kInconclusive) {
      problem = "INCONCLUSIVE even with the default budget";
    } else if (diff.kind == has::DiffReport::Kind::kInconclusive) {
      problem = "differential INCONCLUSIVE even with the default budget";
    } else if (diff.kind == has::DiffReport::Kind::kSymbolicMismatch ||
               diff.kind == has::DiffReport::Kind::kConcreteMismatch) {
      problem = std::string("differential: ") + has::DiffKindName(diff.kind) +
                " " + diff.detail;
    } else if (diff.verdict != verdict) {
      problem = std::string("differential verdict ") +
                has::VerdictName(diff.verdict);
    } else if (verdict == has::Verdict::kViolated && !diff.witness_found) {
      problem = "VIOLATED without a concrete witness";
    }
    std::cerr << item << " " << has::VerdictName(verdict)
              << (cut ? " (INCONCLUSIVE under budget)" : "") << " "
              << budget_ms << " ms, differential "
              << has::DiffKindName(diff.kind)
              << (problem.empty() ? "" : " PROBLEM: " + problem) << "\n";
    ok = ok && problem.empty();
    lines += item + "\t" + has::VerdictName(verdict) + "\n";
  }
  if (ok) std::cout << lines;
  return ok;
}

}  // namespace

int main() {
  std::cout << "# item\tverdict (written by perfbench_record)\n";
  perfbench::Inputs in = perfbench::MakeInputs(WorkloadId::kDeepH4, 0, {});
  const has::ParsedSpec& spec = in.built[0].second;
  for (const auto& [prop_name, property] : spec.properties) {
    has::Verdict v = has::Verify(spec.system, property).verdict;
    std::cout << in.built[0].first << "/" << prop_name << "\t"
              << has::VerdictName(v) << "\n";
  }
  Retries retries;
  size_t pooled = 0;
  for (uint64_t s = 1; s <= perfbench::kCorpusRecorded; ++s) {
    pooled += RecordCorpusSpec(s, &retries) ? 1 : 0;
  }
  std::cerr << pooled << " of " << perfbench::kCorpusRecorded
            << " specs pooled; retried " << retries.default_budget
            << " properties with the default budget and "
            << retries.wider_witness_search
            << " with a wider witness search\n";
  return 0;
}
