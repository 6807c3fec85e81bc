#include <cstddef>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "arith/rational.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/union_find.h"

namespace has {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesMessage) {
  Status s = Status::InvalidArgument("bad things");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.ToString().find("bad things"), std::string::npos);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v(Status::NotFound("nope"));
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StringsTest, StrCatAndJoin) {
  EXPECT_EQ(StrCat("a", 1, "b"), "a1b");
  EXPECT_EQ(StrJoin({"x", "y", "z"}, ", "), "x, y, z");
  EXPECT_EQ(StrJoin({}, ","), "");
}

/// What StrCat wrote before it skipped the stream: operator<< on a
/// default std::ostringstream.
template <typename T>
std::string Streamed(const T& value) {
  std::ostringstream oss;
  oss << value;
  return oss.str();
}

TEST(StringsTest, StrCatMatchesStreamRendering) {
  const int8_t small = -7;  // a character type: streams as a char
  const uint8_t letter = 'A';
  const int64_t negative = std::numeric_limits<int64_t>::min();
  const size_t big = std::numeric_limits<size_t>::max();
  const Rational third(BigInt(-1), BigInt(3));
  const std::string_view view = "view";
  const char* chars = "chars";
  EXPECT_EQ(StrCat(small), Streamed(small));
  EXPECT_EQ(StrCat(letter), Streamed(letter));
  EXPECT_EQ(StrCat(true, false), Streamed(true) + Streamed(false));
  EXPECT_EQ(StrCat(0.1), Streamed(0.1));
  EXPECT_EQ(StrCat(1e300), Streamed(1e300));
  EXPECT_EQ(StrCat(negative), Streamed(negative));
  EXPECT_EQ(StrCat(big), Streamed(big));
  EXPECT_EQ(StrCat(third), Streamed(third));
  EXPECT_EQ(StrCat(third), "-1/3");
  EXPECT_EQ(StrCat(view), Streamed(view));
  EXPECT_EQ(StrCat(chars), Streamed(chars));
  EXPECT_EQ(StrCat('x', short{-3}, 42u, -5L, 7ULL, std::string("s")),
            "x-3" "42" "-5" "7" "s");
}

TEST(StringsTest, SplitAndStrip) {
  EXPECT_EQ(StrSplit("a,b,,c", ',').size(), 4u);
  EXPECT_EQ(StripWhitespace("  hi \n"), "hi");
  EXPECT_TRUE(StartsWith("hello", "he"));
  EXPECT_FALSE(StartsWith("he", "hello"));
}

TEST(UnionFindTest, BasicMerging) {
  UnionFind uf(5);
  EXPECT_EQ(uf.NumClasses(), 5);
  uf.Union(0, 1);
  uf.Union(3, 4);
  EXPECT_TRUE(uf.Same(0, 1));
  EXPECT_FALSE(uf.Same(1, 2));
  EXPECT_EQ(uf.NumClasses(), 3);
  uf.Union(1, 4);
  EXPECT_TRUE(uf.Same(0, 3));
}

TEST(UnionFindTest, CanonicalLabelsStable) {
  UnionFind a(4), b(4);
  a.Union(0, 2);
  b.Union(2, 0);  // same partition, different merge order
  EXPECT_EQ(a.CanonicalLabels(), b.CanonicalLabels());
}

TEST(UnionFindTest, AddElement) {
  UnionFind uf;
  int x = uf.AddElement();
  int y = uf.AddElement();
  EXPECT_FALSE(uf.Same(x, y));
  uf.Union(x, y);
  EXPECT_TRUE(uf.Same(x, y));
}

}  // namespace
}  // namespace has
