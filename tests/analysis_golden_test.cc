// Pins the static analyzer's output byte for byte: for GenerateSpec
// seeds 1-200 and every committed example spec, the validation errors
// and the rendered diagnostics of AnalyzeSystem, once over all of the
// spec's properties (as has_analyze runs it, with source locations) and
// once per property (as Verify runs it). The expected output lives in
// tests/analysis_golden.txt.
//
// After an intended change of output, regenerate the file with
//   HAS_UPDATE_GOLDEN=1 ./analysis_golden_test
// and review its diff.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analyzer.h"
#include "fuzz/generator.h"
#include "model/validate.h"
#include "spec/parser.h"
#include "test_paths.h"

namespace has {
namespace {

const char kGoldenPath[] = "/tests/analysis_golden.txt";

std::string Describe(const std::string& name, const std::string& source) {
  std::string out = "== " + name + "\n";
  auto parsed = ParseSpec(source);
  if (!parsed.ok()) return out + "parse error\n";
  const ParsedSpec& spec = *parsed;
  const std::vector<std::string> errors =
      ValidateSystemAll(spec.system, &spec.locations);
  for (const std::string& e : errors) out += "error: " + e + "\n";
  if (!errors.empty()) return out;

  std::vector<std::pair<std::string, const HltlProperty*>> all;
  for (const auto& [prop_name, prop] : spec.properties) {
    all.emplace_back(prop_name, &prop);
  }
  out += "-- all\n";
  out += RenderDiagnostics(
      AnalyzeSystem(spec.system, all, &spec.locations).diagnostics,
      &spec.locations);
  for (const auto& [prop_name, prop] : spec.properties) {
    out += "-- " + prop_name + "\n";
    out += RenderDiagnostics(
        AnalyzeSystem(spec.system, {{"property", &prop}}).diagnostics,
        nullptr);
  }
  return out;
}

std::string DescribeAll() {
  std::string out;
  for (const std::string& path : SpecFiles("examples/specs")) {
    out += Describe(path.substr(path.find_last_of('/') + 1), ReadFile(path));
  }
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    const StatusOr<GeneratedSpec> gen = GenerateSpec(seed);
    EXPECT_TRUE(gen.ok()) << "seed " << seed;
    if (!gen.ok()) continue;
    out += Describe("GenerateSpec(" + std::to_string(seed) + ")", gen->source);
  }
  return out;
}

TEST(AnalysisGoldenTest, MatchesGoldenFile) {
  const std::string path = std::string(HAS_SOURCE_DIR) + kGoldenPath;
  const std::string got = DescribeAll();
  if (std::getenv("HAS_UPDATE_GOLDEN") != nullptr) {
    std::ofstream(path) << got;
    GTEST_SKIP() << "rewrote " << path;
  }
  const std::string want = ReadFile(path);
  ASSERT_FALSE(want.empty()) << path << " is missing";
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace has
