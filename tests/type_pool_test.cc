#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "core/type_pool.h"
#include "data/generator.h"

namespace has {
namespace {

struct Fixture {
  DatabaseSchema schema;
  VarScope scope;
  RelationId r2, r;
  int x, y, z, n;

  Fixture() {
    r2 = schema.AddRelation("R2");
    r = schema.AddRelation("R");
    schema.relation(r).AddForeignKey("fk", r2);
    schema.relation(r).AddNumericAttribute("val");
    x = scope.AddVar("x", VarSort::kId);
    y = scope.AddVar("y", VarSort::kId);
    z = scope.AddVar("z", VarSort::kId);
    n = scope.AddVar("n", VarSort::kNumeric);
  }

  PartialIsoType Fresh() { return PartialIsoType(&schema, &scope, 3); }
};

TEST(TypePoolTest, InternTwiceReturnsSameId) {
  Fixture f;
  TypePool pool;
  PartialIsoType a = f.Fresh();
  ASSERT_TRUE(a.AssertEq(a.VarElement(f.x), a.VarElement(f.y)));
  PartialIsoType b = f.Fresh();
  ASSERT_TRUE(b.AssertEq(b.VarElement(f.y), b.VarElement(f.x)));
  TypeId ia = pool.Intern(a);
  TypeId ib = pool.Intern(b);
  EXPECT_EQ(ia, ib);
  EXPECT_EQ(pool.num_types(), 1u);
  EXPECT_EQ(pool.stats().iso_hits, 1u);
  // A different constraint set gets a different id.
  PartialIsoType c = f.Fresh();
  ASSERT_TRUE(c.AssertNeq(c.VarElement(f.x), c.VarElement(f.y)));
  EXPECT_NE(pool.Intern(c), ia);
  EXPECT_EQ(pool.num_types(), 2u);
}

TEST(TypePoolTest, InternNormalizesFirst) {
  Fixture f;
  TypePool pool;
  // `raw` carries an unconstrained navigation element that Normalize
  // drops; interning must canonicalize it to the same id as the
  // pre-normalized twin.
  PartialIsoType raw = f.Fresh();
  int ex = raw.VarElement(f.x);
  ASSERT_TRUE(raw.AssertAnchor(ex, f.r));
  ASSERT_NE(raw.NavChild(ex, 1), -1);  // x.fk, unconstrained
  PartialIsoType normalized = raw;
  normalized.Normalize();
  EXPECT_EQ(pool.Intern(raw), pool.Intern(normalized));
  EXPECT_EQ(pool.num_types(), 1u);
}

TEST(TypePoolTest, ProjectRoundTripsToInternedId) {
  Fixture f;
  TypePool pool;
  PartialIsoType t = f.Fresh();
  ASSERT_TRUE(t.AssertEq(t.VarElement(f.x), t.VarElement(f.y)));
  ASSERT_TRUE(t.AssertNeq(t.VarElement(f.x), t.NullElement()));
  ASSERT_TRUE(t.AssertEq(t.VarElement(f.n), t.ConstElement(Rational(7))));
  // Direct construction of the projection onto {x, n}.
  PartialIsoType direct = f.Fresh();
  ASSERT_TRUE(direct.AssertNeq(direct.VarElement(f.x),
                               direct.NullElement()));
  ASSERT_TRUE(direct.AssertEq(direct.VarElement(f.n),
                              direct.ConstElement(Rational(7))));
  TypeId direct_id = pool.Intern(direct);
  PartialIsoType projected = t.Project({f.x, f.n}, 3);
  EXPECT_EQ(pool.Intern(projected), direct_id);
  // Projecting the projection again is the identity on ids.
  EXPECT_EQ(pool.Intern(projected.Project({f.x, f.n}, 3)), direct_id);
}

TEST(TypePoolTest, RenameRoundTripsToInternedId) {
  Fixture f;
  TypePool pool;
  PartialIsoType t = f.Fresh();
  ASSERT_TRUE(t.AssertAnchor(t.VarElement(f.x), f.r));
  ASSERT_TRUE(t.AssertNeq(t.VarElement(f.x), t.VarElement(f.y)));
  TypeId original = pool.Intern(t);
  // Swap x and y, then swap back: same canonical type, same id.
  std::map<int, int> swap{{f.x, f.y}, {f.y, f.x}, {f.z, f.z}, {f.n, f.n}};
  PartialIsoType swapped = t.Rename(swap, &f.scope);
  PartialIsoType back = swapped.Rename(swap, &f.scope);
  EXPECT_EQ(pool.Intern(back), original);
  // The swapped type itself differs (the anchor moved from x to y).
  EXPECT_NE(pool.Intern(swapped), original);
}

TEST(TypePoolTest, CanonicallyEqualTypesOfTwoScopesGetDistinctIds) {
  // Two tasks with the same variable layout: the canonical encoding
  // names variables by index only, so it cannot tell their types apart.
  Fixture f;
  VarScope other;
  other.AddVar("x", VarSort::kId);
  other.AddVar("y", VarSort::kId);
  PartialIsoType mine = f.Fresh();
  ASSERT_TRUE(mine.AssertEq(mine.VarElement(f.x), mine.VarElement(f.y)));
  PartialIsoType theirs(&f.schema, &other, 3);
  ASSERT_TRUE(theirs.AssertEq(theirs.VarElement(f.x), theirs.VarElement(f.y)));
  mine.Normalize();
  theirs.Normalize();
  ASSERT_TRUE(mine.CanonicalEquals(theirs));

  TypePool pool;
  const TypeId mine_id = pool.InternNormalized(mine);
  const TypeId theirs_id = pool.InternNormalized(theirs);
  EXPECT_NE(mine_id, theirs_id);
  EXPECT_EQ(pool.type(mine_id).scope(), &f.scope);
  EXPECT_EQ(pool.type(theirs_id).scope(), &other);
  // Each scope keeps its own id.
  EXPECT_EQ(pool.Intern(theirs), theirs_id);
  EXPECT_EQ(pool.Intern(mine), mine_id);
  EXPECT_EQ(pool.num_types(), 2u);

  // The navigation depth is part of the identity too.
  PartialIsoType shallow(&f.schema, &f.scope, 2);
  ASSERT_TRUE(
      shallow.AssertEq(shallow.VarElement(f.x), shallow.VarElement(f.y)));
  shallow.Normalize();
  ASSERT_TRUE(shallow.CanonicalEquals(mine));
  const TypeId shallow_id = pool.InternNormalized(shallow);
  EXPECT_NE(shallow_id, mine_id);
  EXPECT_EQ(pool.type(shallow_id).max_depth(), 2);
}

/// Random type built from constraints sampled out of a generated
/// database instance (data/generator): equalities, disequalities,
/// anchors and constant tags drawn from the instance's values.
PartialIsoType RandomType(const Fixture& f, const DatabaseInstance& db,
                          std::mt19937_64* rng) {
  PartialIsoType t(&f.schema, &f.scope, 3);
  std::uniform_int_distribution<int> var_pick(0, 2);  // x, y, z
  std::uniform_int_distribution<int> op_pick(0, 4);
  std::uniform_int_distribution<int> steps_pick(1, 6);
  const std::vector<Tuple>& tuples = db.tuples(f.r);
  int steps = steps_pick(*rng);
  for (int i = 0; i < steps; ++i) {
    int a = t.VarElement(var_pick(*rng));
    switch (op_pick(*rng)) {
      case 0:
        (void)t.AssertEq(a, t.VarElement(var_pick(*rng)));
        break;
      case 1:
        (void)t.AssertNeq(a, t.VarElement(var_pick(*rng)));
        break;
      case 2:
        (void)t.AssertAnchor(a, (*rng)() % 2 == 0 ? f.r : f.r2);
        break;
      case 3:
        (void)t.AssertEq(a, t.NullElement());
        break;
      case 4: {
        // Tag n with a numeric value from the generated instance.
        if (tuples.empty()) break;
        const Tuple& tuple = tuples[(*rng)() % tuples.size()];
        Rational value = Rational::FromDouble(tuple.back().real());
        (void)t.AssertEq(t.VarElement(f.n), t.ConstElement(value));
        break;
      }
    }
  }
  t.Normalize();
  return t;
}

TEST(TypePoolTest, DifferentialIdEqualityMatchesSignatureEquality) {
  Fixture f;
  GeneratorOptions gen;
  gen.tuples_per_relation = 5;
  gen.seed = 7;
  DatabaseInstance db = GenerateInstance(f.schema, gen);

  TypePool pool;
  std::mt19937_64 rng(20260730);
  std::vector<PartialIsoType> types;
  std::vector<TypeId> ids;
  std::vector<std::string> sigs;
  for (int i = 0; i < 200; ++i) {
    PartialIsoType t = RandomType(f, db, &rng);
    ids.push_back(pool.Intern(t));
    sigs.push_back(t.Signature());
    types.push_back(std::move(t));
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    for (size_t j = i + 1; j < ids.size(); ++j) {
      bool sig_equal = sigs[i] == sigs[j];
      EXPECT_EQ(ids[i] == ids[j], sig_equal)
          << "id/signature equality diverged for pair (" << i << ", " << j
          << "):\n  " << sigs[i] << "\n  " << sigs[j];
      EXPECT_EQ(types[i].CanonicalEquals(types[j]), sig_equal);
      if (sig_equal) {
        EXPECT_EQ(types[i].CanonicalHash(), types[j].CanonicalHash());
      }
    }
  }
  // Sanity: the random pool exercised both hits and fresh interns.
  EXPECT_GT(pool.stats().iso_hits, 0u);
  EXPECT_GT(pool.num_types(), 1u);
}

TEST(TypePoolTest, CellInterning) {
  TypePool pool;
  Cell a(3);
  a.set_sign(0, kSignPos);
  Cell b(3);
  b.set_sign(0, kSignPos);
  Cell c(3);
  c.set_sign(0, kSignNeg);
  CellId ia = pool.InternCell(a);
  EXPECT_EQ(pool.InternCell(b), ia);
  EXPECT_NE(pool.InternCell(c), ia);
  EXPECT_EQ(pool.num_cells(), 2u);
  EXPECT_EQ(pool.cell(ia).sign(0), kSignPos);
}

TEST(TypePoolTest, PooledAddressesSurviveArenaGrowth) {
  // Consumers key on &pool.type(id) / &pool.cell(id), so interning past
  // several arena chunks must never move an earlier element.
  TypePool pool;
  const Sign signs[] = {kSignNeg, kSignZero, kSignPos};
  std::vector<const Cell*> addresses;
  for (int code = 0; code < 2187; ++code) {  // 3^7 distinct sign vectors
    Cell cell(7);
    for (int i = 0, rest = code; i < 7; ++i, rest /= 3) {
      cell.set_sign(i, signs[rest % 3]);
    }
    CellId id = pool.InternCell(cell);
    ASSERT_EQ(id, code);
    addresses.push_back(&pool.cell(id));
  }
  for (int code = 0; code < 2187; ++code) {
    EXPECT_EQ(&pool.cell(code), addresses[static_cast<size_t>(code)]);
    EXPECT_EQ(pool.cell(code).sign(0), signs[code % 3]) << code;
  }
}

/// Counts live instances.
struct Counted {
  static int live;
  int value = -1;
  explicit Counted(int v) : value(v) { ++live; }
  Counted(const Counted& o) : value(o.value) { ++live; }
  Counted(Counted&& o) noexcept : value(o.value) { ++live; }
  Counted& operator=(const Counted&) = default;
  Counted& operator=(Counted&&) = default;
  ~Counted() { --live; }
};
int Counted::live = 0;

TEST(ChunkedArenaTest, ConstructsAndDestroysOnlyWhatWasAppended) {
  Counted::live = 0;
  {
    ChunkedArena<Counted> arena;
    // The first Append allocates a whole chunk but constructs one slot.
    EXPECT_EQ(arena.Append(Counted(0)), 0u);
    EXPECT_EQ(Counted::live, 1);
    // Past one chunk boundary: the second chunk holds a single element.
    const int n = static_cast<int>(ChunkedArena<Counted>::kChunkSize) + 1;
    for (int i = 1; i < n; ++i) {
      EXPECT_EQ(arena.Append(Counted(i)), static_cast<size_t>(i));
      EXPECT_EQ(Counted::live, i + 1);
    }
    EXPECT_EQ(arena.size(), static_cast<size_t>(n));
    EXPECT_EQ(arena[0].value, 0);
    EXPECT_EQ(arena[static_cast<size_t>(n - 1)].value, n - 1);
  }
  // The arena destroyed exactly its n elements.
  EXPECT_EQ(Counted::live, 0);
}

}  // namespace
}  // namespace has
