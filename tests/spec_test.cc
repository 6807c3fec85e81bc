#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "model/validate.h"
#include "spec/lexer.h"
#include "spec/parser.h"
#include "spec/printer.h"

namespace has {
namespace {

TEST(LexerTest, TokenKinds) {
  auto tokens = Tokenize("task T { x <- y; a -> b; n <= 3.5 && !p }");
  ASSERT_TRUE(tokens.ok());
  std::vector<TokKind> kinds;
  for (const Token& t : *tokens) kinds.push_back(t.kind);
  EXPECT_EQ(kinds.front(), TokKind::kIdent);
  EXPECT_NE(std::find(kinds.begin(), kinds.end(), TokKind::kLArrow),
            kinds.end());
  EXPECT_NE(std::find(kinds.begin(), kinds.end(), TokKind::kArrow),
            kinds.end());
  EXPECT_NE(std::find(kinds.begin(), kinds.end(), TokKind::kLe),
            kinds.end());
  EXPECT_EQ(kinds.back(), TokKind::kEnd);
}

TEST(LexerTest, CommentsSkipped) {
  auto tokens = Tokenize("a # comment\nb // another\nc");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens->size(), 4u);  // a b c END
}

TEST(LexerTest, BadCharacterRejected) {
  EXPECT_FALSE(Tokenize("a $ b").ok());
}

// Strict UTF-8 check written from the code-point side (shortest form,
// no surrogates, at most U+10FFFF), independent of the lexer's lead-byte
// table.
bool IsValidUtf8(const std::string& s) {
  for (size_t i = 0; i < s.size();) {
    const unsigned char lead = static_cast<unsigned char>(s[i]);
    size_t len = lead < 0x80 ? 1 : lead >> 5 == 0x6 ? 2
                                 : lead >> 4 == 0xE ? 3
                                 : lead >> 3 == 0x1E ? 4 : 0;
    if (len == 0 || i + len > s.size()) return false;
    uint32_t cp = len == 1 ? lead : lead & (0x7F >> len);
    for (size_t k = 1; k < len; ++k) {
      const unsigned char b = static_cast<unsigned char>(s[i + k]);
      if (b >> 6 != 0x2) return false;
      cp = (cp << 6) | (b & 0x3F);
    }
    const uint32_t min_cp[] = {0, 0, 0x80, 0x800, 0x10000};
    if (cp < min_cp[len] || cp > 0x10FFFF ||
        (cp >= 0xD800 && cp <= 0xDFFF)) {
      return false;
    }
    i += len;
  }
  return true;
}

TEST(LexerTest, BadCharacterMessageIsValidUtf8AndNamesTheCharacter) {
  const struct {
    std::string source;
    std::string shown;
  } cases[] = {
      {"a \xC3\xA9 b", "'\xC3\xA9'"},                  // é, 2 bytes
      {"a \xF0\x9F\x98\x80 b", "'\xF0\x9F\x98\x80'"},  // 😀, 4 bytes
      {"a \xFF b", "'\\xFF'"},                          // never UTF-8
      {"a \xC3", "'\\xC3'"},        // lead byte truncated by end of input
      {"a \xE2\x82 b", "'\\xE2'"},  // 3-byte lead, continuation missing
      {"a \xED\xA0\x80 b", "'\\xED'"},  // UTF-16 surrogate U+D800
      {"a \x01 b", "'\\x01'"},  // ASCII control character
  };
  for (const auto& c : cases) {
    auto tokens = Tokenize(c.source);
    ASSERT_FALSE(tokens.ok()) << c.shown;
    const std::string message = tokens.status().ToString();
    EXPECT_TRUE(IsValidUtf8(message)) << message;
    EXPECT_NE(message.find("unexpected character " + c.shown),
              std::string::npos)
        << message;
  }
}

constexpr char kTinySpec[] = R"(
system {
  relation R { v: num; }
  task Main {
    ids: x; nums: n;
    input: ;
    service go { pre: x == null; post: R(x, n) && n >= 0; }
  }
}
property p1 { G {x == null} }
property p2 { F svc(go) }
)";

TEST(ParserTest, ParsesTinySpec) {
  auto parsed = ParseSpec(kTinySpec);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(ValidateSystem(parsed->system).ok());
  EXPECT_EQ(parsed->system.num_tasks(), 1);
  EXPECT_EQ(parsed->properties.size(), 2u);
  ASSERT_NE(parsed->FindProperty("p1"), nullptr);
  EXPECT_TRUE(parsed->FindProperty("p1")->Validate(parsed->system).ok());
  EXPECT_TRUE(parsed->FindProperty("p2")->Validate(parsed->system).ok());
  EXPECT_EQ(parsed->FindProperty("zzz"), nullptr);
}

TEST(ParserTest, ConditionKinds) {
  DatabaseSchema schema;
  RelationId r = schema.AddRelation("R");
  schema.relation(r).AddNumericAttribute("v");
  VarScope scope;
  scope.AddVar("x", VarSort::kId);
  scope.AddVar("n", VarSort::kNumeric);
  auto c1 = ParseCondition("x != null && n == 3", scope, schema);
  ASSERT_TRUE(c1.ok()) << c1.status().ToString();
  EXPECT_TRUE((*c1)->CheckWellFormed(scope, schema).ok());
  auto c2 = ParseCondition("2*n - 1 <= n + 4", scope, schema);
  ASSERT_TRUE(c2.ok());
  EXPECT_TRUE((*c2)->UsesArithmetic());
  auto c3 = ParseCondition("R(x, n)", scope, schema);
  ASSERT_TRUE(c3.ok());
  EXPECT_EQ((*c3)->kind(), CondKind::kRel);
  // ID compared with a number is rejected.
  EXPECT_FALSE(ParseCondition("x == 3", scope, schema).ok());
  EXPECT_FALSE(ParseCondition("x <= x", scope, schema).ok());
}

TEST(ParserTest, NestedTasksAndMappings) {
  constexpr char spec[] = R"(
system {
  relation R { }
  task Root {
    ids: x; nums: amount;
    service init { pre: x == null; post: R(x); }
    task Sub {
      ids: sx; nums: flag;
      input: sx <- x;
      output: flag -> amount;
      open when x != null;
      close when flag == 1;
      service work { pre: true; post: flag == 1; }
    }
  }
}
)";
  auto parsed = ParseSpec(spec);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(ValidateSystem(parsed->system).ok());
  const Task& sub = parsed->system.task(1);
  EXPECT_EQ(sub.fin().size(), 1u);
  EXPECT_EQ(sub.fout().size(), 1u);
  EXPECT_EQ(parsed->system.Depth(), 2);
}

TEST(ParserTest, ChildFormulaNodes) {
  constexpr char spec[] = R"(
system {
  relation R { }
  task Root {
    ids: x;
    task Sub {
      ids: sx;
      input: sx <- x;
      open when x != null;
      close when true;
      service noop { pre: true; post: true; }
    }
    service init { pre: x == null; post: R(x); }
  }
}
property nested { G ( open(Sub) -> [ F {sx != null} ]@Sub ) }
)";
  auto parsed = ParseSpec(spec);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const HltlProperty* p = parsed->FindProperty("nested");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->num_nodes(), 2);
  EXPECT_TRUE(p->Validate(parsed->system).ok());
  EXPECT_FALSE(PrintProperty(parsed->system, *p).empty());
}

TEST(ParserTest, ErrorsCarryLineNumbers) {
  auto bad = ParseSpec("system { task T { ids: x }");
  EXPECT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line"), std::string::npos);
}

TEST(PrinterTest, SystemRoundTripsTextually) {
  auto parsed = ParseSpec(kTinySpec);
  ASSERT_TRUE(parsed.ok());
  std::string printed = PrintSystem(parsed->system);
  EXPECT_NE(printed.find("Main"), std::string::npos);
  EXPECT_NE(printed.find("go"), std::string::npos);
}

constexpr char kMultiRelSpec[] = R"(
system {
  relation R { next -> R2; }
  relation R2 { price: num; }
  task Main {
    ids: x, y;  nums: n;
    set Pending (x);
    set Done (x, y);
    init when true;
    service bind {
      pre: x == null && y == null;
      post: R(x, y) && n == 0;
    }
    service enqueue {
      pre: x != null;
      post: true;
      insert into Pending;
    }
    service finish {
      pre: true;
      post: x != null && y != null;
      retrieve from Pending;
      insert into Done;
    }
    task Audit {
      ids: ax;
      input: ax <- x;
      set (ax);
      open when x != null;
      close when ax != null;
      service log { pre: ax != null; post: true; insert; }
    }
  }
}
property drains { G ! svc(finish) }
)";

TEST(ParserTest, MultiRelationSpecParsesAndValidates) {
  auto parsed = ParseSpec(kMultiRelSpec);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(ValidateSystem(parsed->system).ok())
      << ValidateSystem(parsed->system).ToString();
  const Task& main = parsed->system.task(0);
  ASSERT_EQ(main.num_set_relations(), 2);
  EXPECT_EQ(main.set_relations()[0].name, "Pending");
  EXPECT_EQ(main.set_relations()[1].name, "Done");
  EXPECT_EQ(main.set_relations()[0].vars.size(), 1u);
  EXPECT_EQ(main.set_relations()[1].vars.size(), 2u);
  // enqueue: +Pending; finish: -Pending +Done in ONE delta.
  EXPECT_TRUE(main.service(1).InsertsInto(0));
  EXPECT_FALSE(main.service(1).HasSetOps() &&
               main.service(1).RetrievesFrom(0));
  EXPECT_TRUE(main.service(2).RetrievesFrom(0));
  EXPECT_TRUE(main.service(2).InsertsInto(1));
  // The child uses the single-relation sugar: relation named "S".
  const Task& audit = parsed->system.task(1);
  ASSERT_EQ(audit.num_set_relations(), 1);
  EXPECT_EQ(audit.set_relations()[0].name, "S");
  EXPECT_TRUE(audit.service(0).InsertsInto(0));
}

TEST(ParserTest, MultiRelationErrors) {
  // Unknown relation in a service update.
  EXPECT_FALSE(ParseSpec(R"(
system {
  relation R { }
  task T {
    ids: x;
    set A (x);
    service s { pre: true; post: true; insert into Nope; }
  }
})")
                   .ok());
  // Bare insert is ambiguous with two relations declared.
  auto ambiguous = ParseSpec(R"(
system {
  relation R { }
  task T {
    ids: x, y;
    set A (x);
    set B (y);
    service s { pre: true; post: true; insert; }
  }
})");
  ASSERT_FALSE(ambiguous.ok());
  EXPECT_NE(ambiguous.status().message().find("ambiguous"),
            std::string::npos);
  // Bare retrieve without any relation.
  EXPECT_FALSE(ParseSpec(R"(
system {
  relation R { }
  task T {
    ids: x;
    service s { pre: true; post: true; retrieve; }
  }
})")
                   .ok());
  // Duplicate relation name.
  EXPECT_FALSE(ParseSpec(R"(
system {
  relation R { }
  task T {
    ids: x, y;
    set A (x);
    set A (y);
  }
})")
                   .ok());
  // `set` blocks may FOLLOW the services that update them.
  auto late = ParseSpec(R"(
system {
  relation R { }
  task T {
    ids: x;
    service s { pre: true; post: true; insert into A; }
    set A (x);
  }
})");
  ASSERT_TRUE(late.ok()) << late.status().ToString();
  EXPECT_TRUE(late->system.task(0).service(0).InsertsInto(0));
}

TEST(PrinterTest, MultiRelationSourceRoundTrips) {
  auto parsed = ParseSpec(kMultiRelSpec);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  std::string printed = PrintSystemSource(parsed->system);
  auto reparsed = ParseSpec(printed);
  ASSERT_TRUE(reparsed.ok())
      << reparsed.status().ToString() << "\nprinted:\n" << printed;
  EXPECT_TRUE(ValidateSystem(reparsed->system).ok());
  // Parse → print → parse → print reaches a fixpoint, and the debug
  // dump (which covers scopes, relations and service deltas) agrees.
  EXPECT_EQ(PrintSystemSource(reparsed->system), printed);
  EXPECT_EQ(PrintSystem(reparsed->system), PrintSystem(parsed->system));
  const Task& main = reparsed->system.task(0);
  ASSERT_EQ(main.num_set_relations(), 2);
  EXPECT_EQ(main.set_relations()[0].name, "Pending");
  EXPECT_TRUE(main.service(2).RetrievesFrom(0));
  EXPECT_TRUE(main.service(2).InsertsInto(1));
  EXPECT_EQ(reparsed->system.task(1).set_relations()[0].name, "S");
}

TEST(PrinterTest, DecimalLiteralsRoundTrip) {
  // Non-integer rationals must print as decimals, not "num/den" (the
  // lexer has no '/'): 0.5 parses to 1/2 and must come back out as a
  // parseable literal.
  constexpr char spec[] = R"(
system {
  relation R { v: num; }
  task Main {
    ids: x; nums: n;
    service go { pre: n < 0.5; post: 2.25*n - 0.5 <= n && n == 0.125; }
  }
}
)";
  auto parsed = ParseSpec(spec);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  std::string printed = PrintSystemSource(parsed->system);
  EXPECT_EQ(printed.find('/'), std::string::npos) << printed;
  auto reparsed = ParseSpec(printed);
  ASSERT_TRUE(reparsed.ok())
      << reparsed.status().ToString() << "\nprinted:\n" << printed;
  EXPECT_EQ(PrintSystemSource(reparsed->system), printed);
  EXPECT_EQ(PrintSystem(reparsed->system), PrintSystem(parsed->system));
}

TEST(PrinterTest, TinySpecSourceRoundTrips) {
  auto parsed = ParseSpec(kTinySpec);
  ASSERT_TRUE(parsed.ok());
  std::string printed = PrintSystemSource(parsed->system);
  auto reparsed = ParseSpec(printed);
  ASSERT_TRUE(reparsed.ok())
      << reparsed.status().ToString() << "\nprinted:\n" << printed;
  EXPECT_EQ(PrintSystemSource(reparsed->system), printed);
  EXPECT_EQ(PrintSystem(reparsed->system), PrintSystem(parsed->system));
}

}  // namespace
}  // namespace has
