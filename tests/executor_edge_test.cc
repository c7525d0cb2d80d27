// Executor edge cases, each cross-checked against the independent naive
// evaluators in src/testing/reference_eval.h (satellite of the differential
// testing subsystem; the fuzzer covers the same pairs on random inputs).

#include <initializer_list>
#include <iterator>
#include <limits>
#include <string>

#include "gtest/gtest.h"
#include "query/executor.h"
#include "query/join_executor.h"
#include "query/normalize.h"
#include "storage/column.h"
#include "test_util.h"
#include "testing/reference_eval.h"

namespace qfcard::query {
namespace {

using testing::ReferenceCount;
using testing::ReferenceJoinCount;
using testutil::AddCompound;
using testutil::AddPredicate;
using testutil::IntColumn;
using testutil::SingleTableQuery;
using testutil::SmallTable;

// Engine and reference must agree exactly; returns the agreed count.
int64_t AgreedCount(const storage::Table& t, const Query& q) {
  const auto engine = Executor::Count(t, q);
  const auto ref = ReferenceCount(t, q);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_TRUE(ref.ok()) << ref.status().ToString();
  if (!engine.ok() || !ref.ok()) return -1;
  EXPECT_EQ(engine.value(), ref.value());
  return engine.value();
}

TEST(ExecutorEdgeTest, EmptyInListMatchesNoRows) {
  // `a IN ()` — a compound with zero disjuncts. ValidateQuery rejects it at
  // the API boundary, but both evaluators must still agree on the SQL
  // semantics (an empty disjunction is false) for shrunken reproducers.
  const storage::Table t = SmallTable();
  Query q = SingleTableQuery("small");
  CompoundPredicate cp;
  cp.col = ColumnRef{0, 0};
  q.predicates.push_back(cp);  // no disjuncts
  EXPECT_EQ(AgreedCount(t, q), 0);
}

TEST(ExecutorEdgeTest, InvertedRangeMatchesNoRows) {
  // a >= 8 AND a <= 2: lo > hi, statically empty.
  const storage::Table t = SmallTable();
  Query q = SingleTableQuery("small");
  AddCompound(q, 0, {{{CmpOp::kGe, 8}, {CmpOp::kLe, 2}}});
  EXPECT_EQ(AgreedCount(t, q), 0);
}

TEST(ExecutorEdgeTest, ConstantColumnAllOrNothing) {
  // A column where every row holds the same value (the engine has no NULLs;
  // a constant column is the degenerate single-value case).
  storage::Table t("constant");
  QFCARD_CHECK_OK(
      t.AddColumn(IntColumn("c", {7, 7, 7, 7, 7, 7})));
  Query q = SingleTableQuery("constant");
  AddPredicate(q, 0, CmpOp::kEq, 7);
  EXPECT_EQ(AgreedCount(t, q), 6);

  Query q_ne = SingleTableQuery("constant");
  AddPredicate(q_ne, 0, CmpOp::kNe, 7);
  EXPECT_EQ(AgreedCount(t, q_ne), 0);

  Query q_lt = SingleTableQuery("constant");
  AddPredicate(q_lt, 0, CmpOp::kLt, 7);
  EXPECT_EQ(AgreedCount(t, q_lt), 0);

  Query q_range = SingleTableQuery("constant");
  AddCompound(q_range, 0, {{{CmpOp::kGe, 7}, {CmpOp::kLe, 7}}});
  EXPECT_EQ(AgreedCount(t, q_range), 6);
}

TEST(ExecutorEdgeTest, GroupByOnConstantColumnIsOneGroup) {
  storage::Table t("constant");
  QFCARD_CHECK_OK(t.AddColumn(IntColumn("c", {7, 7, 7, 7})));
  QFCARD_CHECK_OK(t.AddColumn(IntColumn("d", {1, 2, 1, 2})));
  Query q = SingleTableQuery("constant");
  q.group_by.push_back(ColumnRef{0, 0});
  EXPECT_EQ(AgreedCount(t, q), 1);
  q.group_by.push_back(ColumnRef{0, 1});
  EXPECT_EQ(AgreedCount(t, q), 2);
}

TEST(ExecutorEdgeTest, GroupByWithEmptySelectionHasZeroGroups) {
  const storage::Table t = SmallTable();
  Query q = SingleTableQuery("small");
  AddPredicate(q, 0, CmpOp::kLt, -100);  // matches nothing
  q.group_by.push_back(ColumnRef{0, 1});
  EXPECT_EQ(AgreedCount(t, q), 0);
}

TEST(ExecutorEdgeTest, JoinProducingZeroRows) {
  // Disjoint key domains: every probe misses.
  storage::Catalog catalog;
  {
    storage::Table fact("fact");
    QFCARD_CHECK_OK(fact.AddColumn(IntColumn("id", {1, 2, 3, 4})));
    QFCARD_CHECK_OK(catalog.AddTable(std::move(fact)));
    storage::Table dim("dim");
    QFCARD_CHECK_OK(dim.AddColumn(IntColumn("fk", {10, 20, 30})));
    QFCARD_CHECK_OK(catalog.AddTable(std::move(dim)));
  }
  Query q;
  q.tables.push_back(TableRef{"fact", "fact"});
  q.tables.push_back(TableRef{"dim", "dim"});
  q.joins.push_back(JoinPredicate{ColumnRef{0, 0}, ColumnRef{1, 0}});

  const auto engine = JoinExecutor::Count(catalog, q);
  const auto ref = ReferenceJoinCount(catalog, q);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  EXPECT_EQ(engine.value(), 0);
  EXPECT_EQ(ref.value(), 0);
}

TEST(ExecutorEdgeTest, JoinWithSelectiveAndEmptyPredicates) {
  storage::Catalog catalog;
  {
    storage::Table fact("fact");
    QFCARD_CHECK_OK(fact.AddColumn(IntColumn("id", {1, 1, 2, 3})));
    QFCARD_CHECK_OK(catalog.AddTable(std::move(fact)));
    storage::Table dim("dim");
    QFCARD_CHECK_OK(dim.AddColumn(IntColumn("fk", {1, 2, 2, 5})));
    QFCARD_CHECK_OK(catalog.AddTable(std::move(dim)));
  }
  Query q;
  q.tables.push_back(TableRef{"fact", "fact"});
  q.tables.push_back(TableRef{"dim", "dim"});
  q.joins.push_back(JoinPredicate{ColumnRef{0, 0}, ColumnRef{1, 0}});

  // fact.id=1 matches dim.fk=1 once per fact row -> 2; id=2 matches twice.
  {
    const auto engine = JoinExecutor::Count(catalog, q);
    const auto ref = ReferenceJoinCount(catalog, q);
    ASSERT_TRUE(engine.ok() && ref.ok());
    EXPECT_EQ(engine.value(), ref.value());
    EXPECT_EQ(engine.value(), 4);
  }

  // A predicate that empties one side empties the join.
  CompoundPredicate cp;
  cp.col = ColumnRef{1, 0};
  ConjunctiveClause clause;
  clause.preds.push_back(SimplePredicate{ColumnRef{1, 0}, CmpOp::kGt, 100});
  cp.disjuncts.push_back(std::move(clause));
  q.predicates.push_back(std::move(cp));
  {
    const auto engine = JoinExecutor::Count(catalog, q);
    const auto ref = ReferenceJoinCount(catalog, q);
    ASSERT_TRUE(engine.ok() && ref.ok());
    EXPECT_EQ(engine.value(), 0);
    EXPECT_EQ(ref.value(), 0);
  }
}

// ---- join semantics pinned against the nested-loop reference -------------

// Engine and reference join counts must agree exactly; returns the agreed
// count.
int64_t AgreedJoinCount(const storage::Catalog& catalog, const Query& q) {
  const auto engine = JoinExecutor::Count(catalog, q);
  const auto ref = ReferenceJoinCount(catalog, q);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_TRUE(ref.ok()) << ref.status().ToString();
  if (!engine.ok() || !ref.ok()) return -1;
  EXPECT_EQ(engine.value(), ref.value());
  return engine.value();
}

Query FromTables(std::initializer_list<const char*> names) {
  Query q;
  for (const char* name : names) q.tables.push_back(TableRef{name, name});
  return q;
}

void AddJoin(Query& q, int left_table, int left_col, int right_table,
             int right_col) {
  q.joins.push_back(JoinPredicate{ColumnRef{left_table, left_col},
                                  ColumnRef{right_table, right_col}});
}

TEST(JoinSemanticsTest, NanMatchesNothingAndSignedZerosMatch) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  storage::Catalog catalog;
  {
    storage::Table a("a");
    QFCARD_CHECK_OK(
        a.AddColumn(testutil::FloatColumn("k", {nan, 0.0, -0.0, 1, nan})));
    QFCARD_CHECK_OK(catalog.AddTable(std::move(a)));
    storage::Table b("b");
    QFCARD_CHECK_OK(
        b.AddColumn(testutil::FloatColumn("k", {-0.0, nan, 0.0, 1, 1, 3})));
    QFCARD_CHECK_OK(catalog.AddTable(std::move(b)));
  }
  Query q = FromTables({"a", "b"});
  AddJoin(q, 0, 0, 1, 0);
  // Each of a's two zeros meets b's two zeros (4); a's 1 meets two 1s (2).
  EXPECT_EQ(AgreedJoinCount(catalog, q), 6);
  Query flipped = FromTables({"b", "a"});
  AddJoin(flipped, 0, 0, 1, 0);
  EXPECT_EQ(AgreedJoinCount(catalog, flipped), 6);
}

TEST(JoinSemanticsTest, TwoPredicatesBetweenOnePair) {
  storage::Catalog catalog;
  {
    storage::Table a("a");
    QFCARD_CHECK_OK(a.AddColumn(IntColumn("x", {1, 1, 2, 2, 3})));
    QFCARD_CHECK_OK(a.AddColumn(IntColumn("y", {1, 2, 1, 2, 3})));
    QFCARD_CHECK_OK(catalog.AddTable(std::move(a)));
    storage::Table b("b");
    QFCARD_CHECK_OK(b.AddColumn(IntColumn("x", {1, 1, 1, 2, 3, 3})));
    QFCARD_CHECK_OK(b.AddColumn(IntColumn("y", {1, 1, 2, 3, 3, 4})));
    QFCARD_CHECK_OK(catalog.AddTable(std::move(b)));
  }
  Query q = FromTables({"a", "b"});
  AddJoin(q, 0, 0, 1, 0);  // hashed
  AddJoin(q, 1, 1, 0, 1);  // verified after the probe
  // (1,1) x2, (1,2) x1, (3,3) x1; the x-only join would give 10.
  EXPECT_EQ(AgreedJoinCount(catalog, q), 4);
}

TEST(JoinSemanticsTest, Triangle) {
  // a(ab, ac), b(ab, bc), c(bc, ac): a-b, b-c and c-a close a cycle, so the
  // last table joined meets two earlier tables.
  storage::Catalog catalog;
  {
    storage::Table a("a");
    QFCARD_CHECK_OK(a.AddColumn(IntColumn("ab", {0, 0, 1, 2})));
    QFCARD_CHECK_OK(a.AddColumn(IntColumn("ac", {0, 1, 1, 2})));
    QFCARD_CHECK_OK(catalog.AddTable(std::move(a)));
    storage::Table b("b");
    QFCARD_CHECK_OK(b.AddColumn(IntColumn("ab", {0, 0, 1, 1, 2})));
    QFCARD_CHECK_OK(b.AddColumn(IntColumn("bc", {0, 1, 0, 1, 2})));
    QFCARD_CHECK_OK(catalog.AddTable(std::move(b)));
    storage::Table c("c");
    QFCARD_CHECK_OK(c.AddColumn(IntColumn("bc", {0, 0, 1, 1, 2})));
    QFCARD_CHECK_OK(c.AddColumn(IntColumn("ac", {0, 1, 0, 1, 0})));
    QFCARD_CHECK_OK(catalog.AddTable(std::move(c)));
  }
  Query q = FromTables({"a", "b", "c"});
  AddJoin(q, 0, 0, 1, 0);  // a.ab = b.ab
  AddJoin(q, 2, 1, 0, 1);  // c.ac = a.ac
  AddJoin(q, 1, 1, 2, 0);  // b.bc = c.bc
  const int64_t count = AgreedJoinCount(catalog, q);
  EXPECT_GT(count, 0);
  // The cycle's closing predicate must prune: dropping it counts more.
  Query open = q;
  open.joins.pop_back();
  EXPECT_GT(AgreedJoinCount(catalog, open), count);
}

TEST(JoinSemanticsTest, ForeignKeyTableFirstChain) {
  // FROM b, a, c with b-a and b-c: the first table is the one holding both
  // foreign keys, and both later tables hang off it.
  storage::Catalog catalog;
  {
    storage::Table a("a");
    QFCARD_CHECK_OK(a.AddColumn(IntColumn("id", {0, 1, 1, 2})));
    QFCARD_CHECK_OK(catalog.AddTable(std::move(a)));
    storage::Table b("b");
    QFCARD_CHECK_OK(b.AddColumn(IntColumn("a_id", {0, 1, 1, 2, 5})));
    QFCARD_CHECK_OK(b.AddColumn(IntColumn("c_id", {7, 7, 8, 9, 7})));
    QFCARD_CHECK_OK(catalog.AddTable(std::move(b)));
    storage::Table c("c");
    QFCARD_CHECK_OK(c.AddColumn(IntColumn("id", {7, 7, 8})));
    QFCARD_CHECK_OK(catalog.AddTable(std::move(c)));
  }
  Query q = FromTables({"b", "a", "c"});
  AddJoin(q, 0, 0, 1, 0);  // b.a_id = a.id
  AddJoin(q, 2, 0, 0, 1);  // c.id = b.c_id
  // b0: 1*2, b1: 2*2, b2: 2*1, b3: c misses, b4: a misses.
  EXPECT_EQ(AgreedJoinCount(catalog, q), 8);
}

TEST(JoinSemanticsTest, WeightCarriesIntoALaterLiveSlot) {
  // FROM h, s, c, d with h-s, h-c, c-d: s folds into h's weights, then c
  // stays live for d while h dies, so c's tuples must carry those weights.
  storage::Catalog catalog;
  {
    storage::Table h("h");
    QFCARD_CHECK_OK(h.AddColumn(IntColumn("id", {0, 1, 2})));
    QFCARD_CHECK_OK(catalog.AddTable(std::move(h)));
    storage::Table s("s");
    QFCARD_CHECK_OK(s.AddColumn(IntColumn("h_id", {0, 0, 0, 1, 1, 2})));
    QFCARD_CHECK_OK(catalog.AddTable(std::move(s)));
    storage::Table c("c");
    QFCARD_CHECK_OK(c.AddColumn(IntColumn("h_id", {0, 1, 1, 2})));
    QFCARD_CHECK_OK(c.AddColumn(IntColumn("d_id", {5, 5, 6, 7})));
    QFCARD_CHECK_OK(catalog.AddTable(std::move(c)));
    storage::Table d("d");
    QFCARD_CHECK_OK(d.AddColumn(IntColumn("id", {5, 5, 6, 7, 7, 7})));
    QFCARD_CHECK_OK(catalog.AddTable(std::move(d)));
  }
  Query q = FromTables({"h", "s", "c", "d"});
  AddJoin(q, 1, 0, 0, 0);  // s.h_id = h.id
  AddJoin(q, 2, 0, 0, 0);  // c.h_id = h.id
  AddJoin(q, 2, 1, 3, 0);  // c.d_id = d.id
  // h0: 3 s * (c0 -> 2 d) = 6; h1: 2 s * (c1 -> 2 d + c2 -> 1 d) = 6;
  // h2: 1 s * (c3 -> 3 d) = 3.
  EXPECT_EQ(AgreedJoinCount(catalog, q), 15);
}

TEST(JoinSemanticsTest, GroupedJoinCountsDistinctKeys) {
  storage::Catalog catalog;
  {
    storage::Table dim("dim");
    QFCARD_CHECK_OK(dim.AddColumn(IntColumn("id", {0, 1, 2})));
    QFCARD_CHECK_OK(dim.AddColumn(IntColumn("region", {10, 20, 10})));
    QFCARD_CHECK_OK(catalog.AddTable(std::move(dim)));
    storage::Table fact("fact");
    QFCARD_CHECK_OK(fact.AddColumn(IntColumn("dim_id", {0, 0, 1, 1, 2, 2})));
    QFCARD_CHECK_OK(fact.AddColumn(IntColumn("kind", {1, 2, 1, 1, 2, 2})));
    QFCARD_CHECK_OK(catalog.AddTable(std::move(fact)));
  }
  Query q = FromTables({"dim", "fact"});
  AddJoin(q, 1, 0, 0, 0);
  EXPECT_EQ(AgreedJoinCount(catalog, q), 6);
  q.group_by.push_back(ColumnRef{0, 1});  // dim.region: {10, 20}
  EXPECT_EQ(AgreedJoinCount(catalog, q), 2);
  q.group_by.push_back(ColumnRef{1, 1});  // (region, kind): 3 pairs
  EXPECT_EQ(AgreedJoinCount(catalog, q), 3);
  q.group_by = {ColumnRef{1, 1}};  // fact.kind only, the dead-last slot
  EXPECT_EQ(AgreedJoinCount(catalog, q), 2);
}

TEST(JoinSemanticsTest, GroupedSingleTableMatchesExecutor) {
  storage::Catalog catalog;
  {
    storage::Table t("t");
    QFCARD_CHECK_OK(t.AddColumn(IntColumn("g", {1, 1, 2, 2, 3, 3})));
    QFCARD_CHECK_OK(t.AddColumn(IntColumn("v", {5, 6, 7, 8, 9, 10})));
    QFCARD_CHECK_OK(catalog.AddTable(std::move(t)));
  }
  Query q = SingleTableQuery("t");
  AddPredicate(q, 1, CmpOp::kLe, 8);  // rows 0..3 -> groups {1, 2}
  q.group_by.push_back(ColumnRef{0, 0});
  const auto engine = JoinExecutor::Count(catalog, q);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ(engine.value(), 2);
  EXPECT_EQ(engine.value(), AgreedCount(catalog.table(0), q));
}

TEST(JoinSemanticsTest, CountAboveInt64IsOutOfRange) {
  // A hub and four satellites of 10^4 rows sharing one key: 10^20 results.
  storage::Catalog catalog;
  const std::vector<double> ones(10000, 1.0);
  for (const char* name : {"t0", "t1", "t2", "t3", "t4"}) {
    storage::Table t(name);
    QFCARD_CHECK_OK(t.AddColumn(IntColumn("k", ones)));
    QFCARD_CHECK_OK(catalog.AddTable(std::move(t)));
  }
  Query q = FromTables({"t0", "t1", "t2", "t3", "t4"});
  for (int t = 1; t < 5; ++t) AddJoin(q, t, 0, 0, 0);
  EXPECT_EQ(JoinExecutor::Count(catalog, q).status().code(),
            common::StatusCode::kOutOfRange);
  // Four tables stay representable: 10^16.
  q.tables.pop_back();
  q.joins.pop_back();
  EXPECT_EQ(JoinExecutor::Count(catalog, q).value(), 10000000000000000LL);
}

// ---- LIKE metamorphic invariants -----------------------------------------
// Prefix LIKE desugars to dictionary-code ranges (query/normalize +
// Dictionary::PrefixCodeRange). These invariants hold for ANY data, so they
// catch desugaring bugs without golden counts; every count is additionally
// cross-checked against the naive reference evaluator.

storage::Catalog LikeCatalog() {
  storage::Catalog catalog;
  storage::Table t("fruits");
  storage::Dictionary dict = storage::Dictionary::FromValues(
      {"apple", "applet", "apricot", "banana", "band", "bandana", "cherry"});
  storage::Column nm("nm", storage::ColumnType::kDictString);
  for (const char* v : {"apple", "applet", "applet", "apricot", "banana",
                        "band", "band", "bandana", "cherry", "apple"}) {
    nm.Append(static_cast<double>(dict.Code(v).value()));
  }
  nm.SetDictionary(std::move(dict));
  QFCARD_CHECK_OK(t.AddColumn(std::move(nm)));
  QFCARD_CHECK_OK(
      t.AddColumn(IntColumn("n", {1, 2, 3, 4, 5, 6, 7, 8, 9, 10})));
  QFCARD_CHECK_OK(catalog.AddTable(std::move(t)));
  return catalog;
}

int64_t LikeCount(const storage::Catalog& catalog, const std::string& sql) {
  const auto q = ParseQuery(sql, catalog);
  EXPECT_TRUE(q.ok()) << sql << ": " << q.status().ToString();
  if (!q.ok()) return -1;
  return AgreedCount(catalog.table(0), q.value());
}

TEST(LikeMetamorphicTest, LongerPrefixNeverMatchesMore) {
  const storage::Catalog catalog = LikeCatalog();
  // Each extension of the prefix can only shrink the match set.
  const char* chain[] = {
      "SELECT count(*) FROM fruits WHERE nm LIKE '%';",
      "SELECT count(*) FROM fruits WHERE nm LIKE 'a%';",
      "SELECT count(*) FROM fruits WHERE nm LIKE 'ap%';",
      "SELECT count(*) FROM fruits WHERE nm LIKE 'app%';",
      "SELECT count(*) FROM fruits WHERE nm LIKE 'apple%';",
      "SELECT count(*) FROM fruits WHERE nm LIKE 'applet%';",
  };
  int64_t prev = LikeCount(catalog, chain[0]);
  EXPECT_EQ(prev, 10);  // LIKE '%' matches every row
  for (size_t i = 1; i < std::size(chain); ++i) {
    const int64_t count = LikeCount(catalog, chain[i]);
    EXPECT_LE(count, prev) << chain[i];
    prev = count;
  }
  EXPECT_EQ(prev, 2);  // "applet" rows
}

TEST(LikeMetamorphicTest, PrefixCountIsSumOfDisjointRefinements) {
  const storage::Catalog catalog = LikeCatalog();
  // "ban%" splits exactly into banana-rows plus band-rows (band, bandana
  // both extend "band"; banana does not).
  const int64_t ban =
      LikeCount(catalog, "SELECT count(*) FROM fruits WHERE nm LIKE 'ban%';");
  const int64_t banana = LikeCount(
      catalog, "SELECT count(*) FROM fruits WHERE nm LIKE 'banana%';");
  const int64_t band =
      LikeCount(catalog, "SELECT count(*) FROM fruits WHERE nm LIKE 'band%';");
  EXPECT_EQ(ban, banana + band);
}

TEST(LikeMetamorphicTest, NoWildcardEqualsEquality) {
  const storage::Catalog catalog = LikeCatalog();
  for (const char* value : {"apple", "band", "cherry"}) {
    const int64_t via_like = LikeCount(
        catalog, std::string("SELECT count(*) FROM fruits WHERE nm LIKE '") +
                     value + "';");
    const int64_t via_eq = LikeCount(
        catalog, std::string("SELECT count(*) FROM fruits WHERE nm = '") +
                     value + "';");
    EXPECT_EQ(via_like, via_eq) << value;
  }
}

TEST(LikeMetamorphicTest, UnmatchedPrefixMatchesNothing) {
  const storage::Catalog catalog = LikeCatalog();
  EXPECT_EQ(
      LikeCount(catalog, "SELECT count(*) FROM fruits WHERE nm LIKE 'zz%';"),
      0);
  // A prefix lexicographically below every value is also empty.
  EXPECT_EQ(
      LikeCount(catalog, "SELECT count(*) FROM fruits WHERE nm LIKE 'aa%';"),
      0);
}

TEST(LikeMetamorphicTest, LikeComposesWithConjunctsMonotonically) {
  const storage::Catalog catalog = LikeCatalog();
  const int64_t alone =
      LikeCount(catalog, "SELECT count(*) FROM fruits WHERE nm LIKE 'ap%';");
  const int64_t conjoined = LikeCount(
      catalog,
      "SELECT count(*) FROM fruits WHERE nm LIKE 'ap%' AND n <= 3;");
  EXPECT_LE(conjoined, alone);
  EXPECT_EQ(conjoined, 3);  // rows 1..3 all carry ap-prefixed names
}

}  // namespace
}  // namespace qfcard::query
