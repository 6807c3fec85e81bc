// Standalone spec analyzer CLI — the --analyze-only fast path CI uses
// to lint every committed spec without building any product VASS.
//
//   has_analyze [--strict] [--verify] [--expect FILE] spec.has
//
// Default mode parses, validates, and runs the static analyzer over the
// spec's system and ALL its properties, printing one diagnostic per
// line (file:line-anchored). Exit codes: 0 clean / expectations met,
// 1 diagnostics under --strict or an --expect mismatch, 2 parse or
// validation failure or a usage error (an unknown flag, a flag missing
// its value, or more than one spec file).
//
//   --strict       fail (exit 1) on any diagnostic — the CLI face of
//                  VerifierOptions::strict_analysis.
//   --expect FILE  compare the rendered diagnostics against FILE
//                  byte-for-byte; CI pins each spec's expected findings
//                  to a committed *.diag file this way.
//   --analyze-only accepted no-op (the default; kept so CI invocations
//                  self-document).
//   --verify       additionally model-check every property of the spec
//                  (NOT analyze-only; builds the VASS).
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "core/verifier.h"
#include "model/validate.h"
#include "spec/parser.h"

namespace {

int Run(int argc, char** argv) {
  bool strict = false;
  bool verify = false;
  std::string expect_file;
  std::string spec_file;
  const char* const kUsage =
      "usage: has_analyze [--strict] [--verify] [--expect FILE] spec.has\n";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--strict") {
      strict = true;
    } else if (arg == "--verify") {
      verify = true;
    } else if (arg == "--analyze-only") {
      // Default behavior; accepted for explicitness.
    } else if (arg == "--expect") {
      if (i + 1 == argc) {
        std::cerr << "missing value for --expect\n" << kUsage;
        return 2;
      }
      expect_file = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown flag " << arg << "\n" << kUsage;
      return 2;
    } else if (!spec_file.empty()) {
      std::cerr << "more than one spec file: " << spec_file << ", " << arg
                << "\n" << kUsage;
      return 2;
    } else {
      spec_file = arg;
    }
  }
  if (spec_file.empty()) {
    std::cerr << kUsage;
    return 2;
  }

  std::ifstream in(spec_file);
  if (!in) {
    std::cerr << "cannot read " << spec_file << "\n";
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();

  has::StatusOr<has::ParsedSpec> parsed =
      has::ParseSpec(buf.str(), spec_file);
  if (!parsed.ok()) {
    std::cerr << spec_file << ": " << parsed.status().message() << "\n";
    return 2;
  }
  const has::ParsedSpec& spec = *parsed;

  std::vector<std::string> errors =
      has::ValidateSystemAll(spec.system, &spec.locations);
  for (const std::string& e : errors) std::cerr << "error: " << e << "\n";
  if (!errors.empty()) return 2;

  std::vector<std::pair<std::string, const has::HltlProperty*>> props;
  props.reserve(spec.properties.size());
  for (const auto& [name, prop] : spec.properties) {
    props.emplace_back(name, &prop);
  }
  has::AnalysisResult analysis =
      has::AnalyzeSystem(spec.system, props, &spec.locations);
  const std::string rendered =
      has::RenderDiagnostics(analysis.diagnostics, &spec.locations);
  std::cout << rendered;

  if (!expect_file.empty()) {
    std::ifstream exp(expect_file);
    if (!exp) {
      std::cerr << "cannot read expectations " << expect_file << "\n";
      return 2;
    }
    std::ostringstream expected;
    expected << exp.rdbuf();
    if (expected.str() != rendered) {
      std::cerr << "diagnostics differ from " << expect_file
                << "; expected:\n"
                << expected.str();
      return 1;
    }
  } else if (strict && !analysis.diagnostics.empty()) {
    std::cerr << analysis.diagnostics.size()
              << " diagnostic(s) under --strict\n";
    return 1;
  }

  if (verify) {
    for (const auto& [name, prop] : spec.properties) {
      has::VerifyResult r = has::Verify(spec.system, prop);
      std::cout << "property " << name << ": " << has::VerdictName(r.verdict)
                << "\n";
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
