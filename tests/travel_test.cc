// End-to-end verification of the travel-booking example (Appendix A):
// the mini variant's discount-cancellation policy must be VIOLATED (the
// bug the paper describes) and the sanity property must HOLD. The full
// spec must parse and validate.
#include <gtest/gtest.h>

#include <string>

#include "core/verifier.h"
#include "model/validate.h"
#include "spec/parser.h"
#include "test_paths.h"

namespace has {
namespace {

TEST(TravelTest, FullSpecParsesAndValidates) {
  std::string text = LoadSpec("travel.has");
  ASSERT_FALSE(text.empty()) << "travel.has not found";
  auto parsed = ParseSpec(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(ValidateSystem(parsed->system).ok());
  EXPECT_EQ(parsed->system.num_tasks(), 6);
  EXPECT_EQ(parsed->system.Depth(), 3);
  const HltlProperty* p = parsed->FindProperty("discount_policy");
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(p->Validate(parsed->system).ok());
  EXPECT_TRUE(SystemUsesArithmetic(parsed->system, *p));
}

TEST(TravelTest, MiniDiscountPolicyViolated) {
  std::string text = LoadSpec("travel_mini.has");
  ASSERT_FALSE(text.empty()) << "travel_mini.has not found";
  auto parsed = ParseSpec(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(ValidateSystem(parsed->system).ok());
  const HltlProperty* p = parsed->FindProperty("discount_policy");
  ASSERT_NE(p, nullptr);
  VerifierOptions options;
  options.max_nav_depth = 2;
  VerifyResult result = Verify(parsed->system, *p, options);
  EXPECT_EQ(result.verdict, Verdict::kViolated);
  EXPECT_NE(result.counterexample.find("CancelFlight"), std::string::npos);
}

TEST(TravelTest, MiniSanityPropertyHolds) {
  std::string text = LoadSpec("travel_mini.has");
  ASSERT_FALSE(text.empty());
  auto parsed = ParseSpec(text);
  ASSERT_TRUE(parsed.ok());
  const HltlProperty* p = parsed->FindProperty("cancel_closes_cancelled");
  ASSERT_NE(p, nullptr);
  VerifierOptions options;
  options.max_nav_depth = 2;
  VerifyResult result = Verify(parsed->system, *p, options);
  EXPECT_EQ(result.verdict, Verdict::kHolds);
}

}  // namespace
}  // namespace has
