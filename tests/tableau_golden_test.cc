// Pins the Büchi tableaux B(T, β) byte for byte: for every property of
// the committed example specs and of GenerateSpec seeds 1-200, every
// task and every assignment β of the negated property (the automata the
// engine builds are among these), the automaton's Stats() and an
// FNV-1a hash of its initial states, each state's successor list,
// acceptance, finite acceptance and compatibility with eight fixed
// letters. A change of state numbering, successor order or acceptance
// fails here by name. The expected output lives in
// tests/tableau_golden.txt.
//
// After an intended change of output, regenerate the file with
//   HAS_UPDATE_GOLDEN=1 ./tableau_golden_test
// and review its diff.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "fuzz/generator.h"
#include "hltl/assignments.h"
#include "spec/parser.h"
#include "test_paths.h"

namespace has {
namespace {

const char kGoldenPath[] = "/tests/tableau_golden.txt";

void Fnv1a(uint64_t* h, const std::string& bytes) {
  for (unsigned char c : bytes) {
    *h ^= c;
    *h *= 1099511628211ull;
  }
}

/// All-false, all-true and six pseudo-random letters over `num_props`.
std::vector<std::vector<bool>> ProbeLetters(int num_props) {
  std::vector<std::vector<bool>> out;
  out.emplace_back(num_props, false);
  out.emplace_back(num_props, true);
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 6; ++i) {
    std::vector<bool> letter(num_props);
    for (int p = 0; p < num_props; ++p) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      letter[p] = (x >> 33) & 1u;
    }
    out.push_back(std::move(letter));
  }
  return out;
}

std::string DescribeAutomaton(const BuchiAutomaton& b) {
  const std::vector<std::vector<bool>> letters = ProbeLetters(b.num_props());
  uint64_t h = 1469598103934665603ull;
  std::string init = "init";
  for (int q : b.initial()) init += " " + std::to_string(q);
  Fnv1a(&h, init + "\n");
  for (int q = 0; q < b.num_states(); ++q) {
    std::string line = std::to_string(q) + ":";
    for (int q2 : b.successors(q)) line += " " + std::to_string(q2);
    line += b.accepting(q) ? " A" : " -";
    line += b.finite_accepting(q) ? "F " : "- ";
    for (const std::vector<bool>& letter : letters) {
      line += b.CompatibleWith(q, letter) ? '1' : '0';
    }
    Fnv1a(&h, line + "\n");
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, h);
  return b.Stats() + " " + hex;
}

std::string Describe(const std::string& name, const std::string& source) {
  std::string out;
  auto parsed = ParseSpec(source);
  EXPECT_TRUE(parsed.ok()) << name;
  if (!parsed.ok()) return out;
  for (const auto& [prop_name, prop] : parsed->properties) {
    const HltlProperty negated = prop.Negated();
    PropertyAutomata automata(&parsed->system, &negated);
    for (TaskId t = 0; t < parsed->system.num_tasks(); ++t) {
      TaskAutomata& ta = automata.ForTask(t);
      for (int beta = 0; beta < ta.num_assignments(); ++beta) {
        out += name + ":" + prop_name + " T" + std::to_string(t) + " b" +
               std::to_string(beta) + " " +
               DescribeAutomaton(ta.automaton(static_cast<Assignment>(beta))) +
               "\n";
      }
    }
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

TEST(TableauGoldenTest, MatchesGoldenFile) {
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
