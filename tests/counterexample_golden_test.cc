// Pins the verifier's observable output byte for byte: for every
// property of the committed specs, for four bench families, and for six
// specs of the generated corpus (the three heaviest arithmetic ones and
// three whose tasks share variable layouts), the verdict, the
// exploration counters `queries`, `cov_nodes` and `product_states`, and
// the full counterexample text `Verify` renders (including the expanded
// child runs). The expected output lives in
// tests/counterexample_golden.txt.
//
// After an intended change of output, regenerate the file with
//   HAS_UPDATE_GOLDEN=1 ./counterexample_golden_test
// and review its diff.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>

#include "core/verifier.h"
#include "fuzz/generator.h"
#include "spec/parser.h"
#include "test_paths.h"
#include "workloads.h"

namespace has {
namespace {

const char kGoldenPath[] = "/tests/counterexample_golden.txt";

std::string Describe(const std::string& name, const ArtifactSystem& system,
                     const HltlProperty& property) {
  const VerifyResult r = Verify(system, property);
  std::string out = "== " + name + "\n";
  out += std::string("verdict ") + VerdictName(r.verdict) + "\n";
  out += "queries " + std::to_string(r.stats.queries) + " cov_nodes " +
         std::to_string(r.stats.cov_nodes) + " product_states " +
         std::to_string(r.stats.product_states) + "\n";
  out += r.counterexample;
  if (!out.empty() && out.back() != '\n') out += "\n";
  return out;
}

/// Every case's description, in a fixed order.
std::string DescribeAll() {
  std::string out;
  for (const std::string& path : SpecFiles("examples/specs")) {
    auto parsed = ParseSpec(ReadFile(path));
    EXPECT_TRUE(parsed.ok()) << path << ": " << parsed.status().ToString();
    if (!parsed.ok()) continue;
    const std::string file = path.substr(path.find_last_of('/') + 1);
    for (const auto& [name, property] : parsed->properties) {
      out += Describe(file + ":" + name, parsed->system, property);
    }
  }
  const bench::Workload deep =
      bench::MakeDeepHierarchy(/*depth=*/4, /*size=*/3);
  out += Describe("MakeDeepHierarchy(4,3)", deep.system, deep.property);
  const bench::Workload multiset =
      bench::MakeMultiSet(/*size=*/3, /*depth=*/2, /*set_width=*/2);
  out += Describe("MakeMultiSet(3,2,2)", multiset.system, multiset.property);
  const bench::Workload adversarial =
      bench::MakeAdversarialCyclic(/*size=*/4, /*depth=*/2);
  out += Describe("MakeAdversarialCyclic(4,2)", adversarial.system,
                  adversarial.property);
  const bench::Workload commuting =
      bench::MakeCommutingServices(/*width=*/3, /*depth=*/2);
  out += Describe("MakeCommutingServices(3,2)", commuting.system,
                  commuting.property);
  // The generated specs that spend the most time in cell enumeration,
  // then three whose tasks share variable layouts, so that their types
  // are canonically equal across task scopes.
  for (uint64_t seed : {70, 92, 115, 5, 8, 19}) {
    const StatusOr<GeneratedSpec> gen = GenerateSpec(seed);
    EXPECT_TRUE(gen.ok()) << "seed " << seed;
    if (!gen.ok()) continue;
    auto parsed = ParseSpec(gen->source);
    EXPECT_TRUE(parsed.ok()) << "seed " << seed;
    if (!parsed.ok()) continue;
    for (const auto& [name, property] : parsed->properties) {
      out += Describe("GenerateSpec(" + std::to_string(seed) + "):" + name,
                      parsed->system, property);
    }
  }
  return out;
}

TEST(CounterexampleGoldenTest, MatchesGoldenFile) {
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

TEST(CounterexampleGoldenTest, PinsChildLassoExpansion) {
  const std::string want =
      ReadFile(std::string(HAS_SOURCE_DIR) + kGoldenPath);
  EXPECT_NE(want.find("child run (never returns; loops)"), std::string::npos);
  EXPECT_NE(want.find("child run (returns)"), std::string::npos);
  EXPECT_NE(want.find("verdict HOLDS"), std::string::npos);
}

}  // namespace
}  // namespace has
