// Hostile input: fixed-seed byte- and token-level mutants of every
// committed spec (examples/specs/*.has and tests/fuzz_corpus/*.has) go
// through the public pipeline ParseSpec -> ValidateSystemAll -> Verify,
// the last under small search budgets. Every stage must return, either
// with an error or with a verdict (INCONCLUSIVE included): malformed
// input may never abort, crash or hang the program. Under the
// sanitizer build the same mutants also check for memory errors and
// undefined behaviour.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <iostream>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/verifier.h"
#include "model/validate.h"
#include "spec/lexer.h"
#include "spec/parser.h"
#include "test_paths.h"

namespace has {
namespace {

constexpr uint32_t kSeed = 17;
constexpr int kByteMutantsPerSpec = 300;
constexpr int kTokenMutantsPerSpec = 300;

/// Bytes the insert mutation draws from half of the time: the
/// language's punctuation, digits and keyword starts, so inserts reach
/// past the lexer; the other half is an arbitrary byte.
constexpr char kSpecAlphabet[] = "{}()[],;:@!<>=-+*&|.#/ \n0123456789xyTSRU";

/// Draws in [0, n) from raw mt19937 output, which (unlike the standard
/// distributions) is the same on every standard library.
size_t Draw(std::mt19937& rng, size_t n) { return rng() % n; }

/// One byte-level edit: flip a bit, insert a byte, delete a byte, or
/// truncate.
std::string MutateBytes(std::string source, std::mt19937& rng) {
  if (source.empty()) return source;
  const size_t pos = Draw(rng, source.size());
  switch (Draw(rng, 4)) {
    case 0:
      source[pos] = static_cast<char>(source[pos] ^ (1 << Draw(rng, 8)));
      break;
    case 1: {
      const char c =
          Draw(rng, 2) == 0
              ? kSpecAlphabet[Draw(rng, sizeof(kSpecAlphabet) - 1)]
              : static_cast<char>(Draw(rng, 256));
      source.insert(pos, 1, c);
      break;
    }
    case 2:
      source.erase(pos, 1);
      break;
    default:
      source.resize(pos);
      break;
  }
  return source;
}

/// One token-level edit of the lexed spec, printed back with single
/// spaces: drop a token, duplicate one, or swap two.
std::string MutateTokens(const std::vector<Token>& tokens,
                         std::mt19937& rng) {
  std::vector<std::string> texts;
  for (const Token& t : tokens) {
    if (t.kind != TokKind::kEnd) texts.push_back(t.text);
  }
  if (texts.empty()) return "";
  const size_t i = Draw(rng, texts.size());
  switch (Draw(rng, 3)) {
    case 0:
      texts.erase(texts.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    case 1:
      texts.insert(texts.begin() + static_cast<std::ptrdiff_t>(i), texts[i]);
      break;
    default:
      std::swap(texts[i], texts[Draw(rng, texts.size())]);
      break;
  }
  std::string out;
  for (const std::string& text : texts) {
    out += text;
    out += ' ';
  }
  return out;
}

/// How far the mutants got: rejected by the parser, rejected by the
/// validator, or verified (one count per property).
struct Tally {
  int parse_errors = 0;
  int invalid = 0;
  int verdicts = 0;
};

void RunPipeline(const std::string& source, Tally* tally) {
  StatusOr<ParsedSpec> parsed = ParseSpec(source);
  if (!parsed.ok()) {
    EXPECT_FALSE(parsed.status().message().empty());
    ++tally->parse_errors;
    return;
  }
  if (!ValidateSystemAll(parsed->system, &parsed->locations).empty()) {
    ++tally->invalid;
    return;
  }
  VerifierOptions options;
  options.max_cov_nodes = 256;
  options.max_branches = 256;
  for (const auto& [name, property] : parsed->properties) {
    VerifyResult result = Verify(parsed->system, property, options);
    EXPECT_TRUE(result.verdict == Verdict::kHolds ||
                result.verdict == Verdict::kViolated ||
                result.verdict == Verdict::kInconclusive)
        << name;
    ++tally->verdicts;
  }
}

TEST(HostileInputTest, EveryStageReturnsOnMutatedSpecs) {
  std::vector<std::string> specs = SpecFiles("examples/specs");
  for (const std::string& path : SpecFiles("tests/fuzz_corpus")) {
    specs.push_back(path);
  }
  ASSERT_GE(specs.size(), 7u);

  std::mt19937 rng(kSeed);
  Tally tally;
  for (const std::string& path : specs) {
    SCOPED_TRACE(path);
    const std::string source = ReadFile(path);
    ASSERT_FALSE(source.empty());
    StatusOr<std::vector<Token>> tokens = Tokenize(source);
    ASSERT_TRUE(tokens.ok()) << tokens.status().message();
    for (int i = 0; i < kByteMutantsPerSpec; ++i) {
      RunPipeline(MutateBytes(source, rng), &tally);
    }
    for (int i = 0; i < kTokenMutantsPerSpec; ++i) {
      RunPipeline(MutateTokens(*tokens, rng), &tally);
    }
  }
  // Every stage saw mutants, so none of the three is vacuous.
  EXPECT_GT(tally.parse_errors, 0);
  EXPECT_GT(tally.invalid, 0);
  EXPECT_GT(tally.verdicts, 0);
  std::cout << "parse errors " << tally.parse_errors << ", invalid systems "
            << tally.invalid << ", verdicts " << tally.verdicts << "\n";
}

// Reduced forms of mutants from other seeds.

TEST(HostileInputTest, GroundAtomsAreDecidedInEveryState) {
  // An atom over null and constants only has no element in the
  // symbolic state, yet the product's letters need every property atom
  // decided: its terms alone decide it.
  const std::string system = R"(
system {
  relation R { v: num; }
  task Main {
    ids: x;
    nums: n;
    service s { pre: 1 < 2 && null == null; post: R(x, n) && 0 == 0; }
    task C {
      ids: y;
      input: y <- x;
      open when 3 == 3;
      close when null == null;
    }
  }
}
)";
  const std::pair<const char*, Verdict> cases[] = {
      {"{ null == null }", Verdict::kHolds},
      {"{ null != null }", Verdict::kViolated},
      {"{ 1 < 2 }", Verdict::kHolds},
      {"{ 2 < 1 }", Verdict::kViolated},
      {"{ 0 + 1 == 1 }", Verdict::kHolds},
  };
  for (const auto& [atom, expected] : cases) {
    StatusOr<ParsedSpec> parsed = ParseSpec(
        system + "property p { G(" + atom + ") }");
    ASSERT_TRUE(parsed.ok()) << atom << ": " << parsed.status().message();
    ASSERT_TRUE(ValidateSystemAll(parsed->system).empty()) << atom;
    EXPECT_EQ(Verify(parsed->system, parsed->properties[0].second).verdict,
              expected)
        << atom;
  }
}

TEST(HostileInputTest, ParserRejectsPropertiesVerifyWouldReject) {
  // The grammar admits a [φ]@T or open(T) whose T the enclosing task
  // cannot observe; ParseSpec has to turn it into an error instead of
  // leaving Verify to abort on it.
  const std::string system = R"(
system {
  task Main {
    ids: x;
    task C {
      ids: y;
      input: y <- x;
      task D { ids: z; input: z <- y; }
    }
  }
}
)";
  const std::pair<const char*, const char*> cases[] = {
      {"G([ F { x == null } ]@Main)", "not a child of Main"},
      {"G(open(D))", "not observable by task Main"},
  };
  for (const auto& [formula, reason] : cases) {
    StatusOr<ParsedSpec> parsed =
        ParseSpec(system + "property p { " + formula + " }");
    ASSERT_FALSE(parsed.ok()) << formula;
    const std::string& message = parsed.status().message();
    EXPECT_EQ(message.rfind("line 12: property p:", 0), 0u) << message;
    EXPECT_NE(message.find(reason), std::string::npos) << message;
  }
}

TEST(HostileInputTest, DuplicateNamesAreInputErrors) {
  // Each declaration kind resolves by name, so a second declaration of
  // a name would silently shadow or be shadowed by the first; every
  // one is an input error naming the duplicate.
  const std::pair<const char*, const char*> systems[] = {
      {R"(
system {
  task Main { ids: x0, x0; }
}
)",
       "duplicate variable x0"},
      {R"(
system {
  task Main {
    ids: x;
    service s0 { pre: true; post: true; }
    service s0 { pre: true; post: x == null; }
  }
}
)",
       "duplicate service s0"},
      {R"(
system {
  task Main {
    ids: x;
    task T1 { ids: y; input: y <- x; }
    task T1 { ids: z; input: z <- x; }
  }
}
)",
       "duplicate task T1"},
  };
  for (const auto& [source, reason] : systems) {
    StatusOr<ParsedSpec> parsed = ParseSpec(source);
    ASSERT_TRUE(parsed.ok()) << reason << ": " << parsed.status().message();
    Status valid = ValidateSystem(parsed->system);
    ASSERT_FALSE(valid.ok()) << reason;
    EXPECT_EQ(valid.code(), StatusCode::kInvalidArgument) << reason;
    EXPECT_NE(valid.message().find(reason), std::string::npos)
        << valid.message();
  }

  StatusOr<ParsedSpec> parsed = ParseSpec(R"(
system {
  task Main { ids: x; }
}
property p { G({ x == null }) }
property p { F({ x != null }) }
)");
  ASSERT_FALSE(parsed.ok());
  const std::string& message = parsed.status().message();
  EXPECT_EQ(message.rfind("line 6:", 0), 0u) << message;
  EXPECT_NE(message.find("duplicate property p"), std::string::npos)
      << message;
}

}  // namespace
}  // namespace has
