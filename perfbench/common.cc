#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "fuzz/generator.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr char kCorpusPrefix[] = "gen";

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

has::ParsedSpec FamilySpec(has::bench::Workload w) {
  has::ParsedSpec spec;
  spec.system = std::move(w.system);
  spec.properties.emplace_back("property", std::move(w.property));
  return spec;
}

[[noreturn]] void Die(const std::string& message) {
  std::cerr << "perfbench: " << message << "\n";
  std::exit(2);
}

std::optional<has::Verdict> ParseVerdict(const std::string& name) {
  for (has::Verdict v : {has::Verdict::kHolds, has::Verdict::kViolated,
                         has::Verdict::kInconclusive}) {
    if (name == has::VerdictName(v)) return v;
  }
  return std::nullopt;
}

std::optional<WorkloadId> ParseWorkload(const std::string& name) {
  for (WorkloadId w : {WorkloadId::kDeepH4, WorkloadId::kGenCorpus}) {
    if (name == WorkloadName(w)) return w;
  }
  return std::nullopt;
}

}  // namespace

const char* WorkloadName(WorkloadId w) {
  switch (w) {
    case WorkloadId::kDeepH4:
      return "deep_h4";
    case WorkloadId::kGenCorpus:
      return "gen_corpus";
  }
  return "?";
}

std::vector<uint64_t> CorpusSeeds(uint64_t workload_seed,
                                  const std::vector<uint64_t>& pool) {
  std::vector<uint64_t> seeds;
  if (pool.empty()) return seeds;
  const size_t start = SplitMix64(workload_seed) % pool.size();
  for (size_t i = 0; i < pool.size(); ++i) {
    seeds.push_back(pool[(start + i) % pool.size()]);
  }
  return seeds;
}

std::string CorpusSpecName(uint64_t spec_seed) {
  return kCorpusPrefix + std::to_string(spec_seed);
}

has::VerifierOptions OptionsFor(WorkloadId w) {
  has::VerifierOptions options;
  if (w == WorkloadId::kGenCorpus) options.max_cov_nodes = 1 << 12;
  return options;
}

Inputs MakeInputs(WorkloadId w, uint64_t seed,
                  const std::vector<uint64_t>& pool) {
  Inputs in;
  in.workload = w;
  switch (w) {
    case WorkloadId::kDeepH4:
      in.built.emplace_back(
          WorkloadName(w),
          FamilySpec(has::bench::MakeDeepHierarchy(/*depth=*/4, /*size=*/3)));
      break;
    case WorkloadId::kGenCorpus:
      for (uint64_t spec_seed : CorpusSeeds(seed, pool)) {
        has::StatusOr<has::GeneratedSpec> gen = has::GenerateSpec(spec_seed);
        if (!gen.ok()) {
          Die("GenerateSpec(" + std::to_string(spec_seed) +
              "): " + gen.status().ToString());
        }
        in.sources.emplace_back(CorpusSpecName(spec_seed),
                                std::move(gen->source));
      }
      break;
  }
  return in;
}

size_t NumSpecs(const Inputs& in) {
  return in.workload == WorkloadId::kGenCorpus ? in.sources.size()
                                               : in.built.size();
}

const has::ParsedSpec& LoadSpec(const Inputs& in, size_t i,
                                has::ParsedSpec* scratch) {
  if (in.workload != WorkloadId::kGenCorpus) return in.built[i].second;
  has::StatusOr<has::ParsedSpec> parsed = has::ParseSpec(in.sources[i].second);
  if (!parsed.ok()) {
    Die(in.sources[i].first + ": " + parsed.status().ToString());
  }
  *scratch = std::move(*parsed);
  return *scratch;
}

const std::string& SpecName(const Inputs& in, size_t i) {
  return in.workload == WorkloadId::kGenCorpus ? in.sources[i].first
                                               : in.built[i].first;
}

bool Answers::Load(const std::string& path, std::string* error) {
  std::ifstream file(path);
  if (!file) {
    *error = "cannot open answers file " + path;
    return false;
  }
  std::string line;
  int line_no = 0;
  while (std::getline(file, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    const size_t tab = line.find('\t');
    std::optional<has::Verdict> verdict =
        tab == std::string::npos ? std::nullopt
                                 : ParseVerdict(line.substr(tab + 1));
    if (!verdict.has_value()) {
      *error = path + ":" + std::to_string(line_no) + ": malformed line";
      return false;
    }
    answers_[line.substr(0, tab)] = *verdict;
  }
  return true;
}

std::string Answers::Check(const std::string& item, has::Verdict got) const {
  auto it = answers_.find(item);
  if (it == answers_.end()) return item + ": no recorded answer";
  if (got == it->second || got == has::Verdict::kInconclusive) return "";
  return item + ": got " + has::VerdictName(got) + ", expected " +
         has::VerdictName(it->second);
}

std::vector<uint64_t> Answers::CorpusPool() const {
  const std::string prefix = kCorpusPrefix;
  std::vector<uint64_t> pool;
  for (const auto& [item, verdict] : answers_) {
    if (item.compare(0, prefix.size(), prefix) != 0) continue;
    pool.push_back(std::strtoull(item.c_str() + prefix.size(), nullptr, 10));
  }
  std::sort(pool.begin(), pool.end());
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
  return pool;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Tail(std::vector<double> v, double* percentile) {
  if (v.empty()) {
    *percentile = 0;
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  const size_t index = n > 10 ? n - 11 : n - 1;
  *percentile = 100.0 * static_cast<double>(index + 1) / static_cast<double>(n);
  return v[index];
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  bool have_answers = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << flag << "\n";
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      std::optional<WorkloadId> w = ParseWorkload(value);
      if (!w.has_value()) {
        std::cerr << "unknown workload " << value << "\n";
        return false;
      }
      args->workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') {
        std::cerr << "bad --seed " << value << "\n";
        return false;
      }
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args->seconds > 0)) {
        std::cerr << "bad --seconds " << value << "\n";
        return false;
      }
    } else if (flag == "--answers") {
      args->answers = value;
      have_answers = true;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      std::cerr << "unknown flag " << flag << "\n";
      return false;
    }
  }
  if (!have_workload || !have_answers) {
    std::cerr << "usage: " << argv[0]
              << " --workload NAME --answers FILE [--seed N] [--seconds S]"
                 " [--trace-out FILE]\n";
    return false;
  }
  return true;
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    out << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
        << "\": {\"value\": " << value << ", \"unit\": \"" << metrics[i].unit
        << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

}  // namespace perfbench
