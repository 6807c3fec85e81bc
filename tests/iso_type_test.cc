#include <gtest/gtest.h>

#include <map>

#include "core/iso_type.h"
#include "core/type_pool.h"

namespace has {

/// Reads a type's union-find.
class IsoTypeTestPeer {
 public:
  static int Find(const PartialIsoType& t, int e) { return t.Find(e); }
};

namespace {

struct Fixture {
  DatabaseSchema schema;
  VarScope scope;
  RelationId r2, r;
  int x, y, n;

  Fixture() {
    r2 = schema.AddRelation("R2");
    r = schema.AddRelation("R");
    schema.relation(r).AddForeignKey("fk", r2);
    schema.relation(r).AddNumericAttribute("val");
    x = scope.AddVar("x", VarSort::kId);
    y = scope.AddVar("y", VarSort::kId);
    n = scope.AddVar("n", VarSort::kNumeric);
  }

  PartialIsoType Fresh() { return PartialIsoType(&schema, &scope, 3); }
};

TEST(IsoTypeTest, EqualityAndDisequality) {
  Fixture f;
  PartialIsoType t = f.Fresh();
  int ex = t.VarElement(f.x);
  int ey = t.VarElement(f.y);
  EXPECT_TRUE(t.AssertEq(ex, ey));
  EXPECT_TRUE(t.Same(ex, ey));
  EXPECT_FALSE(t.AssertNeq(ex, ey));  // contradiction
}

TEST(IsoTypeTest, NullTagPropagates) {
  Fixture f;
  PartialIsoType t = f.Fresh();
  int ex = t.VarElement(f.x);
  ASSERT_TRUE(t.AssertEq(ex, t.NullElement()));
  EXPECT_TRUE(t.IsNullTagged(ex));
  // A null variable cannot be anchored.
  EXPECT_FALSE(t.AssertAnchor(ex, f.r));
}

TEST(IsoTypeTest, AnchorConflicts) {
  Fixture f;
  PartialIsoType t = f.Fresh();
  int ex = t.VarElement(f.x);
  ASSERT_TRUE(t.AssertAnchor(ex, f.r));
  EXPECT_FALSE(t.AssertAnchor(ex, f.r2));
  // Anchored variables can't be null.
  EXPECT_FALSE(t.AssertEq(ex, t.NullElement()));
}

TEST(IsoTypeTest, ConstTags) {
  Fixture f;
  PartialIsoType t = f.Fresh();
  int en = t.VarElement(f.n);
  ASSERT_TRUE(t.AssertEq(en, t.ConstElement(Rational(5))));
  EXPECT_EQ(*t.ConstOf(en), Rational(5));
  EXPECT_FALSE(t.AssertEq(en, t.ConstElement(Rational(6))));
}

TEST(IsoTypeTest, CongruenceClosure) {
  // x ~ y and both anchored at R forces x.fk ~ y.fk (the key
  // dependency of Definition 15).
  Fixture f;
  PartialIsoType t = f.Fresh();
  int ex = t.VarElement(f.x);
  int ey = t.VarElement(f.y);
  ASSERT_TRUE(t.AssertAnchor(ex, f.r));
  ASSERT_TRUE(t.AssertAnchor(ey, f.r));
  int cx = t.NavChild(ex, 1);  // x.fk
  int cy = t.NavChild(ey, 1);  // y.fk
  ASSERT_NE(cx, -1);
  ASSERT_NE(cy, -1);
  EXPECT_FALSE(t.Same(cx, cy));
  ASSERT_TRUE(t.AssertEq(ex, ey));
  EXPECT_TRUE(t.Same(cx, cy));  // congruence fired
}

TEST(IsoTypeTest, CongruenceDetectsContradiction) {
  Fixture f;
  PartialIsoType t = f.Fresh();
  int ex = t.VarElement(f.x);
  int ey = t.VarElement(f.y);
  ASSERT_TRUE(t.AssertAnchor(ex, f.r));
  ASSERT_TRUE(t.AssertAnchor(ey, f.r));
  int cx = t.NavChild(ex, 1);
  int cy = t.NavChild(ey, 1);
  ASSERT_TRUE(t.AssertNeq(cx, cy));  // children differ
  EXPECT_FALSE(t.AssertEq(ex, ey));  // so parents can't be equal
}

TEST(IsoTypeTest, DecideRelAtom) {
  Fixture f;
  PartialIsoType t = f.Fresh();
  CondPtr atom = Condition::Rel(f.r, {f.x, f.y, f.n});
  ASSERT_TRUE(t.DecideAtom(*atom, true));
  EXPECT_EQ(t.EvalAtom(*atom), Truth::kTrue);
  // Negative atom on the same pattern now contradicts.
  PartialIsoType t2 = f.Fresh();
  ASSERT_TRUE(t2.DecideAtom(*atom, false));
  EXPECT_FALSE(t2.DecideAtom(*atom, true));
}

TEST(IsoTypeTest, EvalUnknownWhenUndecided) {
  Fixture f;
  PartialIsoType t = f.Fresh();
  CondPtr eq = Condition::VarEq(f.x, f.y);
  EXPECT_EQ(t.EvalAtom(*eq), Truth::kUnknown);
  ASSERT_TRUE(t.DecideAtom(*eq, false));
  EXPECT_EQ(t.EvalAtom(*eq), Truth::kFalse);
}

TEST(IsoTypeTest, SignatureCanonicalAcrossOrder) {
  Fixture f;
  PartialIsoType a = f.Fresh();
  PartialIsoType b = f.Fresh();
  // Same constraints in different creation orders.
  ASSERT_TRUE(a.AssertEq(a.VarElement(f.x), a.VarElement(f.y)));
  ASSERT_TRUE(a.AssertEq(a.VarElement(f.n), a.ConstElement(Rational(2))));
  ASSERT_TRUE(b.AssertEq(b.VarElement(f.n), b.ConstElement(Rational(2))));
  ASSERT_TRUE(b.AssertEq(b.VarElement(f.y), b.VarElement(f.x)));
  a.Normalize();
  b.Normalize();
  EXPECT_EQ(a.Signature(), b.Signature());
}

TEST(IsoTypeTest, ProjectionForgetsOtherVars) {
  Fixture f;
  PartialIsoType t = f.Fresh();
  ASSERT_TRUE(t.DecideAtom(*Condition::VarEq(f.x, f.y), true));
  ASSERT_TRUE(t.DecideAtom(*Condition::IsNull(f.y), false));
  PartialIsoType p = t.Project({f.x}, 3);
  // y is gone; x's class survives.
  EXPECT_EQ(p.LookupVar(f.y), -1);
  EXPECT_NE(p.LookupVar(f.x), -1);
}

TEST(IsoTypeTest, RenameMovesConstraints) {
  Fixture f;
  PartialIsoType t = f.Fresh();
  ASSERT_TRUE(t.DecideAtom(*Condition::IsNull(f.x), true));
  VarScope other;
  int z = other.AddVar("z", VarSort::kId);
  PartialIsoType r = t.Rename({{f.x, z}}, &other);
  EXPECT_TRUE(r.VarIsNull(z));
}

TEST(IsoTypeTest, MergeDetectsConflicts) {
  Fixture f;
  PartialIsoType a = f.Fresh();
  PartialIsoType b = f.Fresh();
  ASSERT_TRUE(a.DecideAtom(*Condition::IsNull(f.x), true));
  ASSERT_TRUE(b.DecideAtom(*Condition::IsNull(f.x), false));
  EXPECT_FALSE(a.MergeFrom(b));
}

TEST(IsoTypeTest, ForgetVarDropsConstraints) {
  Fixture f;
  PartialIsoType t = f.Fresh();
  ASSERT_TRUE(t.DecideAtom(*Condition::IsNull(f.x), true));
  t.ForgetVar(f.x);
  EXPECT_EQ(t.EvalAtom(*Condition::IsNull(f.x)), Truth::kUnknown);
}

TEST(IsoTypeTest, NormalizeDropsUnconstrainedNav) {
  Fixture f;
  PartialIsoType t = f.Fresh();
  int ex = t.VarElement(f.x);
  ASSERT_TRUE(t.AssertAnchor(ex, f.r));
  t.NavChild(ex, 1);  // singleton nav child, no info
  int before = t.num_elements();
  t.Normalize();
  EXPECT_LT(t.num_elements(), before);
}

/// A cyclic schema: N's attributes `next` and `prev` both reference N.
struct CyclicFixture {
  DatabaseSchema schema;
  VarScope scope;
  RelationId n;
  AttrId next, prev;
  int x, y, z;

  CyclicFixture() {
    n = schema.AddRelation("N");
    next = schema.relation(n).AddForeignKey("next", n);
    prev = schema.relation(n).AddForeignKey("prev", n);
    x = scope.AddVar("x", VarSort::kId);
    y = scope.AddVar("y", VarSort::kId);
    z = scope.AddVar("z", VarSort::kId);
  }

  PartialIsoType Fresh(int depth) {
    return PartialIsoType(&schema, &scope, depth);
  }
};

TEST(IsoTypeTest, NormalizeDropsAChainLeafFirst) {
  // x.next.next is unconstrained, so it goes; that leaves x.next
  // without children, so it goes too. The result is the type that
  // never had either element.
  CyclicFixture f;
  PartialIsoType t = f.Fresh(3);
  const int ex = t.VarElement(f.x);
  ASSERT_TRUE(t.AssertAnchor(ex, f.n));
  const int xa = t.NavChild(ex, f.next);
  ASSERT_NE(xa, -1);
  ASSERT_NE(t.NavChild(xa, f.next), -1);
  ASSERT_EQ(t.num_elements(), 3);
  t.Normalize();
  EXPECT_EQ(t.num_elements(), 1);

  PartialIsoType never = f.Fresh(3);
  ASSERT_TRUE(never.AssertAnchor(never.VarElement(f.x), f.n));
  never.Normalize();
  EXPECT_EQ(t.Signature(), never.Signature());
}

TEST(IsoTypeTest, NormalizeKeepsAPinnedChain) {
  // The leaf sits in a class with y, so the whole chain stays.
  CyclicFixture f;
  PartialIsoType t = f.Fresh(3);
  const int ex = t.VarElement(f.x);
  ASSERT_TRUE(t.AssertAnchor(ex, f.n));
  const int leaf = t.NavChild(t.NavChild(ex, f.next), f.prev);
  ASSERT_NE(leaf, -1);
  ASSERT_TRUE(t.AssertEq(leaf, t.VarElement(f.y)));
  const std::string before = t.Signature();
  t.Normalize();
  EXPECT_EQ(t.num_elements(), 4);
  EXPECT_EQ(t.Signature(), before);
}

/// A type over N with navigation paths up to depth 8: x.next^8 equals
/// y, x.prev.next is disequal to z, and ¬N(x.prev, ...) is recorded.
PartialIsoType DeepType(CyclicFixture* f, bool reversed) {
  PartialIsoType t = f->Fresh(8);
  const int ex = t.VarElement(f->x);
  const int ey = t.VarElement(f->y);
  const int ez = t.VarElement(f->z);
  EXPECT_TRUE(t.AssertAnchor(ex, f->n));
  // The two branches in either creation order, so that element indices
  // differ between the two builds.
  int deep = -1;
  int side = -1;
  for (int branch : reversed ? std::vector<int>{1, 0}
                             : std::vector<int>{0, 1}) {
    if (branch == 0) {
      deep = ex;
      for (int d = 0; d < 8; ++d) deep = t.NavChild(deep, f->next);
    } else {
      side = t.NavChild(t.NavChild(ex, f->prev), f->next);
    }
  }
  EXPECT_NE(deep, -1);
  EXPECT_NE(side, -1);
  EXPECT_EQ(t.NavChild(deep, f->next), -1);  // beyond the depth bound
  EXPECT_TRUE(t.AssertEq(deep, ey));
  EXPECT_TRUE(t.AssertNeq(side, ez));
  EXPECT_TRUE(t.DecideAtom(*Condition::Rel(f->n, {f->z, f->x, f->y}), false));
  t.Normalize();
  return t;
}

TEST(IsoTypeTest, DeepPathsSurviveEveryOperation) {
  CyclicFixture f;
  const PartialIsoType t = DeepType(&f, /*reversed=*/false);
  const std::string sig = t.Signature();
  // 3 variables, 8 + 2 navigation elements.
  EXPECT_EQ(t.num_elements(), 13);
  EXPECT_EQ(DeepType(&f, /*reversed=*/true).Signature(), sig);

  PartialIsoType copy = t;
  EXPECT_EQ(copy.Signature(), sig);
  copy.Normalize();
  EXPECT_EQ(copy.Signature(), sig);
  EXPECT_EQ(t.Project({f.x, f.y, f.z}, 8).Signature(), sig);
  // One level shallower drops x.next^8 and with it y's only tie to x.
  EXPECT_NE(t.Project({f.x, f.y, f.z}, 7).Signature(), sig);

  VarScope other;
  std::map<int, int> identity;
  for (int v : {f.x, f.y, f.z}) {
    identity[v] = other.AddVar(f.scope.var(v).name, VarSort::kId);
  }
  EXPECT_EQ(t.Rename(identity, &other).Signature(), sig);

  PartialIsoType merged = f.Fresh(8);
  ASSERT_TRUE(merged.MergeFrom(t));
  merged.Normalize();
  EXPECT_EQ(merged.Signature(), sig);

  TypePool pool;
  const TypeId id = pool.Intern(t);
  EXPECT_EQ(pool.type(id).Signature(), sig);
  EXPECT_EQ(pool.InternNormalized(DeepType(&f, /*reversed=*/true)), id);
  EXPECT_EQ(pool.InternNormalized(copy), id);
}

TEST(IsoTypeTest, TagsSurviveOnNonMinimalRepresentatives) {
  Fixture f;
  PartialIsoType t = f.Fresh();
  const int ex = t.VarElement(f.x);
  const int ey = t.VarElement(f.y);
  const int en = t.VarElement(f.n);
  // Union merges the second argument's class into the first's, so y
  // (not x, the lower index) represents {x, y}.
  ASSERT_TRUE(t.AssertEq(ey, ex));
  ASSERT_TRUE(t.AssertAnchor(ex, f.r));
  ASSERT_EQ(IsoTypeTestPeer::Find(t, ex), ey);
  // The constant 7 represents {n, 7}.
  ASSERT_TRUE(t.AssertEq(t.ConstElement(Rational(7)), en));
  ASSERT_NE(IsoTypeTestPeer::Find(t, en), en);
  const std::string sig = t.Signature();

  auto expect_tags = [&](const PartialIsoType& u, const std::string& what) {
    const int ux = u.LookupVar(f.x);
    const int un = u.LookupVar(f.n);
    ASSERT_NE(ux, -1) << what;
    ASSERT_NE(un, -1) << what;
    EXPECT_EQ(u.AnchorOf(ux), std::optional<RelationId>(f.r)) << what;
    EXPECT_EQ(u.AnchorOf(u.LookupVar(f.y)), std::optional<RelationId>(f.r))
        << what;
    EXPECT_EQ(u.ConstOf(un), std::optional<Rational>(Rational(7))) << what;
    EXPECT_EQ(u.Signature(), sig) << what;
  };
  expect_tags(PartialIsoType(t), "copy");
  expect_tags(t.Project({f.x, f.y, f.n}, 3), "projection");
  PartialIsoType merged = f.Fresh();
  ASSERT_TRUE(merged.MergeFrom(t));
  expect_tags(merged, "merge");

  // A null tag on a non-minimal representative.
  PartialIsoType u = f.Fresh();
  const int ux = u.VarElement(f.x);
  const int uy = u.VarElement(f.y);
  ASSERT_TRUE(u.AssertEq(uy, ux));
  ASSERT_TRUE(u.AssertEq(uy, u.NullElement()));
  ASSERT_EQ(IsoTypeTestPeer::Find(u, ux), uy);
  for (const PartialIsoType& w :
       {PartialIsoType(u), u.Project({f.x, f.y}, 3)}) {
    EXPECT_TRUE(w.VarIsNull(f.x));
    EXPECT_TRUE(w.VarIsNull(f.y));
    EXPECT_EQ(w.Signature(), u.Signature());
  }
  PartialIsoType merged_null = f.Fresh();
  ASSERT_TRUE(merged_null.MergeFrom(u));
  EXPECT_TRUE(merged_null.VarIsNull(f.x));
  EXPECT_EQ(merged_null.Signature(), u.Signature());
}

}  // namespace
}  // namespace has
