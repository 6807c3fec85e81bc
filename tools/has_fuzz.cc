// Generative spec fuzzer + three-way differential harness CLI.
//
//   has_fuzz [--seed N] [--count N] [--time-budget-s S]
//            [--corpus-dir DIR] [--no-shrink] [--no-write]
//            [--require-witness] [--max-nodes N] [--dump]
//   has_fuzz --replay-dir DIR [--require-witness] [--max-nodes N]
//
// Generate mode (default): derives `count` specs from consecutive
// seeds. Every spec is (1) generated as the print->parse->print
// fixpoint (the generator itself fails otherwise), (2) analyzed, with
// the diagnostics re-derived from a fresh parse and compared — the
// machine check that generated specs carry stable expected
// diagnostics, (3) run through the differential matrix: symbolic
// verdicts across POR on/off x slice on/off, the
// concrete simulator (CheckRunTree legality), the bounded checker,
// and the exact verdict-algebra relations of fuzz/metamorphic.h.
// Symbolic spreads, CheckRunTree failures and algebra violations are
// hard disagreements; missing and suspect witnesses are soft findings
// (counted, escalatable via --require-witness / --strict-witness) —
// fuzz/differential.h explains why. On a disagreement the spec is
// delta-debugged to a minimal case and written to the corpus
// directory as a .has + .txt (report) + .xfail (pinned kind) triple,
// plus a .diag when the shrunk spec is not analyzer-clean.
//
// Replay mode: re-checks every committed .has under --replay-dir —
// round-trip fixpoint, analyzer diagnostics against the sibling .diag
// (byte-for-byte, or clean when absent), and the full differential. A
// sibling .xfail marks a corpus entry whose disagreement is still
// unfixed: replay then REQUIRES the disagreement to reproduce (the
// pin disappears when the engine bug is fixed and the .xfail removed).
//
// Exit codes: 0 clean, 1 disagreement / replay failure, 2 internal
// error (generator bug, unreadable input) or a bad command line.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "common/strings.h"
#include "fuzz/differential.h"
#include "fuzz/generator.h"
#include "fuzz/metamorphic.h"
#include "fuzz/shrink.h"
#include "model/validate.h"
#include "spec/parser.h"
#include "spec/printer.h"

namespace {

using has::DiffKindName;
using has::DiffOptions;
using has::DiffReport;
using has::IsDisagreement;
using has::ParsedSpec;
using has::StrCat;

struct Flags {
  uint64_t seed = 1;
  int count = 50;
  double time_budget_s = 0;  // 0 = no budget
  std::string corpus_dir = "tests/fuzz_corpus";
  std::string replay_dir;
  bool shrink = true;
  bool write = true;
  bool require_witness = false;
  bool strict_witness = false;
  size_t max_nodes = 1 << 12;
  bool dump = false;
};

int Usage() {
  std::cerr
      << "usage: has_fuzz [--seed N] [--count N] [--time-budget-s S]\n"
         "                [--corpus-dir DIR] [--no-shrink] [--no-write]\n"
         "                [--require-witness] [--strict-witness]\n"
         "                [--max-nodes N] [--dump]\n"
         "       has_fuzz --replay-dir DIR [--require-witness] "
         "[--strict-witness] [--max-nodes N]\n";
  return 2;
}

/// The whole of `text` as a decimal integer in [0, max]; nullopt on a
/// sign, stray characters or overflow.
std::optional<uint64_t> ParseUnsigned(const std::string& text,
                                      uint64_t max) {
  const char* end = text.data() + text.size();
  uint64_t value = 0;
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value > max) return std::nullopt;
  return value;
}

/// The whole of `text` as a finite, non-negative number of seconds.
std::optional<double> ParseSeconds(const std::string& text) {
  const char* end = text.data() + text.size();
  double value = 0;
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value) ||
      value < 0) {
    return std::nullopt;
  }
  return value;
}

/// Parses + validates; nullopt (with a message) when the spec is not
/// legal — callers treat that as a hard failure, since both generated
/// and committed specs are legal by construction.
std::optional<ParsedSpec> LoadSpec(const std::string& source,
                                   const std::string& name,
                                   std::string* error) {
  has::StatusOr<ParsedSpec> parsed = has::ParseSpec(source, name);
  if (!parsed.ok()) {
    *error = StrCat("parse: ", parsed.status().message());
    return std::nullopt;
  }
  has::Status valid = has::ValidateSystem(parsed->system, &parsed->locations);
  if (!valid.ok()) {
    *error = StrCat("validate: ", valid.message());
    return std::nullopt;
  }
  for (const auto& [prop_name, property] : parsed->properties) {
    has::Status pv = property.Validate(parsed->system);
    if (!pv.ok()) {
      *error = StrCat("property ", prop_name, ": ", pv.message());
      return std::nullopt;
    }
  }
  return std::move(*parsed);
}

std::string RenderAnalysis(const ParsedSpec& spec) {
  std::vector<std::pair<std::string, const has::HltlProperty*>> props;
  props.reserve(spec.properties.size());
  for (const auto& [name, prop] : spec.properties) {
    props.emplace_back(name, &prop);
  }
  has::AnalysisResult analysis =
      has::AnalyzeSystem(spec.system, props, &spec.locations);
  return has::RenderDiagnostics(analysis.diagnostics, &spec.locations);
}

/// The worst (most actionable) outcome across the per-property
/// differentials AND the spec-level metamorphic check. `kind_name` is
/// a DiffKindName or "metamorphic".
struct SpecOutcome {
  std::string kind_name = "agreed";
  int severity = 0;
  std::string property;  ///< the property (or relation) behind the kind
  std::string detail;
  int inconclusive = 0;
  int missing_witness = 0;
  int suspect_witness = 0;
};

int Severity(DiffReport::Kind kind) {
  switch (kind) {
    case DiffReport::Kind::kAgreed:
      return 0;
    case DiffReport::Kind::kInconclusive:
      return 1;
    case DiffReport::Kind::kMissingWitness:
      return 2;
    case DiffReport::Kind::kSuspectWitness:
      return 3;
    case DiffReport::Kind::kSymbolicMismatch:
    case DiffReport::Kind::kConcreteMismatch:
      return 4;
  }
  return 0;
}

constexpr int kHardSeverity = 4;

std::vector<std::pair<std::string, const has::HltlProperty*>> PropPtrs(
    const ParsedSpec& spec) {
  std::vector<std::pair<std::string, const has::HltlProperty*>> props;
  props.reserve(spec.properties.size());
  for (const auto& [name, prop] : spec.properties) {
    props.emplace_back(name, &prop);
  }
  return props;
}

has::AlgebraReport RunAlgebra(const ParsedSpec& spec,
                              const DiffOptions& options) {
  has::VerifierOptions vo;
  vo.max_cov_nodes = options.max_cov_nodes;
  return has::CheckPropertyAlgebra(spec.system, PropPtrs(spec), vo);
}

SpecOutcome CheckSpec(const ParsedSpec& spec, const DiffOptions& options) {
  SpecOutcome outcome;
  for (const auto& [name, property] : spec.properties) {
    DiffReport report =
        has::RunDifferential(spec.system, property, options);
    if (report.kind == DiffReport::Kind::kInconclusive) {
      ++outcome.inconclusive;
    }
    if (report.kind == DiffReport::Kind::kMissingWitness) {
      ++outcome.missing_witness;
    }
    if (report.kind == DiffReport::Kind::kSuspectWitness) {
      ++outcome.suspect_witness;
    }
    if (Severity(report.kind) > outcome.severity) {
      outcome.severity = Severity(report.kind);
      outcome.kind_name = DiffKindName(report.kind);
      outcome.property = name;
      outcome.detail = report.detail;
    }
  }
  // Exact verdict-algebra relations (fuzz/metamorphic.h): a violation
  // outranks everything — it is a genuine engine bug with no run-set
  // caveat.
  has::AlgebraReport algebra = RunAlgebra(spec, options);
  if (!algebra.ok()) {
    const has::AlgebraFinding& f = algebra.findings.front();
    outcome.severity = kHardSeverity;
    outcome.kind_name = "metamorphic";
    outcome.property = f.relation;
    outcome.detail = f.detail;
  }
  return outcome;
}

/// Shrink predicate: the same kind of finding reproduces on the
/// candidate.
bool OutcomeReproduces(const ParsedSpec& spec, const DiffOptions& options,
                       const std::string& kind_name) {
  if (kind_name == "metamorphic") return !RunAlgebra(spec, options).ok();
  for (const auto& [name, property] : spec.properties) {
    DiffReport report =
        has::RunDifferential(spec.system, property, options);
    if (DiffKindName(report.kind) == kind_name) return true;
  }
  return false;
}

void WriteFile(const std::filesystem::path& path,
               const std::string& contents) {
  std::ofstream out(path);
  out << contents;
}

/// Shrinks a disagreeing spec and commits it to the corpus. Returns
/// the minimal source (the input source when shrinking is disabled or
/// fails).
std::string ShrinkAndCommit(const std::string& source, uint64_t seed,
                            const SpecOutcome& outcome, const Flags& flags,
                            const DiffOptions& diff) {
  std::string minimal = source;
  if (flags.shrink) {
    has::ShrinkStats stats;
    has::StatusOr<std::string> shrunk = has::ShrinkSpec(
        source,
        [&diff, &outcome](const ParsedSpec& spec) {
          return OutcomeReproduces(spec, diff, outcome.kind_name);
        },
        has::ShrinkOptions{}, &stats);
    if (shrunk.ok()) {
      minimal = *shrunk;
      std::cerr << "  shrink: " << stats.accepted << "/" << stats.tried
                << " steps accepted, " << source.size() << " -> "
                << minimal.size() << " bytes\n";
    } else {
      std::cerr << "  shrink failed: " << shrunk.status().message() << "\n";
    }
  }
  if (!flags.write) return minimal;

  std::error_code ec;
  std::filesystem::create_directories(flags.corpus_dir, ec);
  std::string stem = StrCat("seed", seed, "_", outcome.kind_name);
  std::filesystem::path base =
      std::filesystem::path(flags.corpus_dir) / stem;
  WriteFile(base.replace_extension(".has"), minimal);
  std::string note = StrCat("kind: ", outcome.kind_name, "\nseed: ", seed,
                            "\nproperty: ", outcome.property, "\n\n",
                            outcome.detail, "\n--- original source ---\n",
                            source);
  WriteFile(base.replace_extension(".txt"), note);
  // Unfixed disagreements replay as expected-failures until the engine
  // bug is resolved and the .xfail removed alongside the fix. The file
  // pins the exact kind replay must reproduce.
  WriteFile(base.replace_extension(".xfail"),
            StrCat(outcome.kind_name, "\n"));
  std::string err;
  std::optional<ParsedSpec> parsed = LoadSpec(minimal, stem, &err);
  if (parsed.has_value()) {
    std::string diags = RenderAnalysis(*parsed);
    if (!diags.empty()) WriteFile(base.replace_extension(".diag"), diags);
  }
  std::cerr << "  committed " << base.replace_extension(".has").string()
            << "\n";
  return minimal;
}

int RunGenerate(const Flags& flags) {
  DiffOptions diff;
  diff.require_witness = flags.require_witness;
  diff.strict_witness = flags.strict_witness;
  diff.max_cov_nodes = flags.max_nodes;

  auto start = std::chrono::steady_clock::now();
  auto elapsed_s = [&start]() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  int checked = 0, agreed = 0, inconclusive = 0, missing_witness = 0;
  int suspect_witness = 0, disagreements = 0;
  for (int i = 0; i < flags.count; ++i) {
    if (flags.time_budget_s > 0 && elapsed_s() > flags.time_budget_s) {
      std::cerr << "time budget exhausted after " << checked << " specs\n";
      break;
    }
    uint64_t seed = flags.seed + static_cast<uint64_t>(i);
    has::StatusOr<has::GeneratedSpec> generated = has::GenerateSpec(seed);
    if (!generated.ok()) {
      std::cerr << "generator error: " << generated.status().message()
                << "\n";
      return 2;
    }
    if (flags.dump) {
      std::cout << "# seed " << seed << "\n" << generated->source << "\n";
      continue;
    }

    std::string err;
    std::optional<ParsedSpec> spec =
        LoadSpec(generated->source, StrCat("<seed ", seed, ">"), &err);
    if (!spec.has_value()) {
      std::cerr << "seed " << seed << ": canonical source rejected: " << err
                << "\n";
      return 2;
    }
    // Analyzer stability: diagnostics re-derived from an independent
    // parse of the same source must render identically (the
    // machine-checked "expected diagnostics" of generated specs).
    std::string diags_once = RenderAnalysis(*spec);
    std::optional<ParsedSpec> again =
        LoadSpec(generated->source, StrCat("<seed ", seed, ">"), &err);
    if (!again.has_value() || RenderAnalysis(*again) != diags_once) {
      std::cerr << "seed " << seed
                << ": analyzer diagnostics are not reparse-stable\n";
      return 2;
    }

    SpecOutcome outcome = CheckSpec(*spec, diff);
    ++checked;
    inconclusive += outcome.inconclusive;
    missing_witness += outcome.missing_witness;
    suspect_witness += outcome.suspect_witness;
    bool disagreement =
        outcome.severity >= kHardSeverity ||
        (outcome.kind_name == "missing-witness" && flags.require_witness) ||
        (outcome.kind_name == "suspect-witness" && flags.strict_witness);
    if (disagreement) {
      ++disagreements;
      std::cerr << "seed " << seed << ": " << outcome.kind_name << " on "
                << outcome.property << "\n"
                << outcome.detail << "\n";
      ShrinkAndCommit(generated->source, seed, outcome, flags, diff);
    } else if (outcome.severity == 0) {
      ++agreed;
    }
  }

  // Dump mode writes spec sources to stdout for piping; the summary
  // would corrupt them (and is all zeros anyway — nothing is checked).
  if (flags.dump) return 0;
  std::cout << "checked=" << checked << " agreed=" << agreed
            << " inconclusive-props=" << inconclusive
            << " missing-witness-props=" << missing_witness
            << " suspect-witness-props=" << suspect_witness
            << " disagreements=" << disagreements << "\n";
  return disagreements > 0 ? 1 : 0;
}

int RunReplay(const Flags& flags) {
  DiffOptions diff;
  diff.require_witness = flags.require_witness;
  diff.strict_witness = flags.strict_witness;
  diff.max_cov_nodes = flags.max_nodes;

  std::vector<std::filesystem::path> specs;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(flags.replay_dir, ec)) {
    if (entry.path().extension() == ".has") specs.push_back(entry.path());
  }
  if (ec) {
    std::cerr << "cannot read " << flags.replay_dir << ": " << ec.message()
              << "\n";
    return 2;
  }
  std::sort(specs.begin(), specs.end());

  int failures = 0;
  for (const std::filesystem::path& path : specs) {
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string source = buf.str();

    std::string err;
    std::optional<ParsedSpec> spec = LoadSpec(source, path.string(), &err);
    if (!spec.has_value()) {
      std::cerr << path.string() << ": " << err << "\n";
      ++failures;
      continue;
    }
    // Committed corpus entries are canonical: print == file contents.
    std::string printed =
        has::PrintSpecSource(spec->system, spec->properties);
    if (printed != source) {
      std::cerr << path.string()
                << ": not a print fixpoint (re-canonicalize with "
                   "has_fuzz)\n";
      ++failures;
      continue;
    }
    std::filesystem::path diag_path = path;
    diag_path.replace_extension(".diag");
    std::string expected_diags;
    if (std::filesystem::exists(diag_path)) {
      std::ifstream d(diag_path);
      std::ostringstream dbuf;
      dbuf << d.rdbuf();
      expected_diags = dbuf.str();
    }
    std::string diags = RenderAnalysis(*spec);
    if (diags != expected_diags) {
      std::cerr << path.string() << ": analyzer diagnostics drifted\n"
                << "--- expected ---\n"
                << expected_diags << "--- got ---\n"
                << diags;
      ++failures;
      continue;
    }

    SpecOutcome outcome = CheckSpec(*spec, diff);
    std::filesystem::path xfail_path = path;
    xfail_path.replace_extension(".xfail");
    if (std::filesystem::exists(xfail_path)) {
      // The .xfail pins the exact finding kind the case must still
      // reproduce (deterministic: fixed seeds throughout).
      std::ifstream x(xfail_path);
      std::string expected_kind;
      std::getline(x, expected_kind);
      if (outcome.kind_name != expected_kind) {
        std::cerr << path.string() << ": expected " << expected_kind
                  << " but got " << outcome.kind_name
                  << " — if the bug is fixed, delete the .xfail and keep "
                     "the spec as a regression case\n";
        ++failures;
      } else {
        std::cout << path.filename().string() << ": ok (still "
                  << outcome.kind_name << ", pinned by .xfail)\n";
      }
    } else if (outcome.severity >= kHardSeverity) {
      std::cerr << path.string() << ": " << outcome.kind_name << " on "
                << outcome.property << "\n"
                << outcome.detail << "\n";
      ++failures;
    } else {
      std::cout << path.filename().string() << ": ok ("
                << outcome.kind_name << ")\n";
    }
  }
  std::cout << "replayed " << specs.size() << " spec(s), " << failures
            << " failure(s)\n";
  return failures > 0 ? 1 : 0;
}

int Run(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    auto invalid = [&arg](const std::string& value) {
      std::cerr << "has_fuzz: invalid value for " << arg << ": " << value
                << "\n";
      return Usage();
    };
    if (arg == "--seed") {
      auto v = next();
      if (!v) return Usage();
      auto seed = ParseUnsigned(*v, UINT64_MAX);
      if (!seed) return invalid(*v);
      flags.seed = *seed;
    } else if (arg == "--count") {
      auto v = next();
      if (!v) return Usage();
      auto count = ParseUnsigned(*v, INT_MAX);
      if (!count) return invalid(*v);
      flags.count = static_cast<int>(*count);
    } else if (arg == "--time-budget-s") {
      auto v = next();
      if (!v) return Usage();
      auto seconds = ParseSeconds(*v);
      if (!seconds) return invalid(*v);
      flags.time_budget_s = *seconds;
    } else if (arg == "--corpus-dir") {
      auto v = next();
      if (!v) return Usage();
      flags.corpus_dir = *v;
    } else if (arg == "--replay-dir") {
      auto v = next();
      if (!v) return Usage();
      flags.replay_dir = *v;
    } else if (arg == "--max-nodes") {
      auto v = next();
      if (!v) return Usage();
      auto max_nodes = ParseUnsigned(*v, SIZE_MAX);
      if (!max_nodes) return invalid(*v);
      flags.max_nodes = static_cast<size_t>(*max_nodes);
    } else if (arg == "--strict-witness") {
      flags.strict_witness = true;
    } else if (arg == "--no-shrink") {
      flags.shrink = false;
    } else if (arg == "--no-write") {
      flags.write = false;
    } else if (arg == "--require-witness") {
      flags.require_witness = true;
    } else if (arg == "--dump") {
      flags.dump = true;
    } else {
      std::cerr << "unknown argument " << arg << "\n";
      return Usage();
    }
  }
  return flags.replay_dir.empty() ? RunGenerate(flags) : RunReplay(flags);
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
