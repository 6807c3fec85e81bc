// Pins the canonical forms the engine interns: for two bench families
// and every property of three generated specs, the number of pooled
// types and cells after the root query, and an FNV-1a hash of every
// pooled type's Signature() in id order. A change to a canonical form
// (what CanonicalEncode emits, how Normalize drops elements) or to the
// order in which types are interned fails here by name, even where the
// exploration counters happen to agree.
//
// After an intended change, run the test, review the printed lines and
// paste them into kGolden.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "core/rt_relation.h"
#include "core/verifier.h"
#include "fuzz/generator.h"
#include "spec/parser.h"
#include "workloads.h"

namespace has {
namespace {

uint64_t Fnv1a(uint64_t h, const std::string& bytes) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// One line: the pool's sizes and signature hash after the root query
/// of `property` under default options.
std::string Describe(const std::string& name, const ArtifactSystem& system,
                     const HltlProperty& property) {
  const HltlProperty negated = property.Negated();
  std::optional<Hcd> hcd;
  if (SystemUsesArithmetic(system, property)) {
    hcd = BuildSystemHcd(system, negated);
  }
  const VerifierOptions options;
  RtEngine engine(&system, &negated, options,
                  hcd.has_value() ? &*hcd : nullptr);
  engine.CheckRoot();
  const TypePool& pool = engine.pool();
  uint64_t hash = 1469598103934665603ull;
  for (size_t id = 0; id < pool.num_types(); ++id) {
    hash = Fnv1a(hash, pool.type(static_cast<TypeId>(id)).Signature());
    hash = Fnv1a(hash, "\n");
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, hash);
  return name + " pooled_types " + std::to_string(pool.num_types()) +
         " pooled_cells " + std::to_string(pool.num_cells()) + " signatures " +
         hex;
}

std::vector<std::string> DescribeAll() {
  std::vector<std::string> out;
  const bench::Workload deep =
      bench::MakeDeepHierarchy(/*depth=*/4, /*size=*/3);
  out.push_back(Describe("Deep(4,3)", deep.system, deep.property));
  const bench::Workload multirel =
      bench::MakeMultiRelation(/*size=*/3, /*depth=*/2, /*num_rels=*/2);
  out.push_back(
      Describe("MultiRelation(3,2,2)", multirel.system, multirel.property));
  for (uint64_t seed : {5, 70, 115}) {
    const StatusOr<GeneratedSpec> gen = GenerateSpec(seed);
    EXPECT_TRUE(gen.ok()) << "seed " << seed;
    if (!gen.ok()) continue;
    auto parsed = ParseSpec(gen->source);
    EXPECT_TRUE(parsed.ok()) << "seed " << seed;
    if (!parsed.ok()) continue;
    for (const auto& [name, property] : parsed->properties) {
      out.push_back(Describe("GenerateSpec(" + std::to_string(seed) +
                                 "):" + name,
                             parsed->system, property));
    }
  }
  return out;
}

const char* const kGolden[] = {
    "Deep(4,3) pooled_types 36 pooled_cells 1 signatures 6a5e340d0f40d173",
    "MultiRelation(3,2,2) pooled_types 44 pooled_cells 1 signatures "
    "13e393a15604cae4",
    "GenerateSpec(5):p0 pooled_types 22 pooled_cells 11 signatures "
    "a8c56038822d9301",
    "GenerateSpec(5):p1 pooled_types 22 pooled_cells 11 signatures "
    "a8c56038822d9301",
    "GenerateSpec(70):p0 pooled_types 1 pooled_cells 1 signatures "
    "44bd31d473cd01cb",
    "GenerateSpec(70):p1 pooled_types 111 pooled_cells 26 signatures "
    "e8655633b6b3456c",
    "GenerateSpec(115):p0 pooled_types 156 pooled_cells 23 signatures "
    "485791546189cb18",
    "GenerateSpec(115):p1 pooled_types 156 pooled_cells 19 signatures "
    "485791546189cb18",
};

TEST(CanonicalGoldenTest, PooledSignaturesMatch) {
  const std::vector<std::string> got = DescribeAll();
  const size_t want_size = sizeof(kGolden) / sizeof(kGolden[0]);
  EXPECT_EQ(got.size(), want_size);
  for (size_t i = 0; i < got.size(); ++i) {
    std::printf("    \"%s\",\n", got[i].c_str());
    if (i < want_size) {
      EXPECT_EQ(got[i], kGolden[i]);
    }
  }
}

}  // namespace
}  // namespace has
