#include "query/query.h"

#include <limits>

#include "gtest/gtest.h"
#include "query/normalize.h"
#include "test_util.h"

namespace qfcard::query {
namespace {

using testutil::AddCompound;
using testutil::AddPredicate;
using testutil::SingleTableQuery;
using testutil::SmallCatalog;
using testutil::SmallTable;

class EvalCmpTest : public ::testing::TestWithParam<
                        std::tuple<CmpOp, double, double, bool>> {};

TEST_P(EvalCmpTest, Evaluates) {
  const auto& [op, value, literal, expected] = GetParam();
  EXPECT_EQ(EvalCmp(op, value, literal), expected);
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, EvalCmpTest,
    ::testing::Values(
        std::make_tuple(CmpOp::kEq, 5.0, 5.0, true),
        std::make_tuple(CmpOp::kEq, 5.0, 6.0, false),
        std::make_tuple(CmpOp::kNe, 5.0, 6.0, true),
        std::make_tuple(CmpOp::kNe, 5.0, 5.0, false),
        std::make_tuple(CmpOp::kLt, 4.0, 5.0, true),
        std::make_tuple(CmpOp::kLt, 5.0, 5.0, false),
        std::make_tuple(CmpOp::kLe, 5.0, 5.0, true),
        std::make_tuple(CmpOp::kLe, 6.0, 5.0, false),
        std::make_tuple(CmpOp::kGt, 6.0, 5.0, true),
        std::make_tuple(CmpOp::kGt, 5.0, 5.0, false),
        std::make_tuple(CmpOp::kGe, 5.0, 5.0, true),
        std::make_tuple(CmpOp::kGe, 4.0, 5.0, false)));

TEST(CmpOpTest, ToStringRoundtripNames) {
  EXPECT_STREQ(CmpOpToString(CmpOp::kEq), "=");
  EXPECT_STREQ(CmpOpToString(CmpOp::kNe), "<>");
  EXPECT_STREQ(CmpOpToString(CmpOp::kLe), "<=");
  EXPECT_STREQ(CmpOpToString(CmpOp::kGe), ">=");
}

TEST(QueryTest, CountsPredicatesAndAttributes) {
  Query q = SingleTableQuery("small");
  AddPredicate(q, 0, CmpOp::kGe, 2);
  AddCompound(q, 1,
              {{{CmpOp::kGe, 10}, {CmpOp::kLe, 50}}, {{CmpOp::kEq, 90}}});
  EXPECT_EQ(q.NumAttributes(), 2);
  EXPECT_EQ(q.NumSimplePredicates(), 4);
  EXPECT_FALSE(q.IsConjunctive());
}

TEST(QueryTest, ConjunctiveDetection) {
  Query q = SingleTableQuery("small");
  AddPredicate(q, 0, CmpOp::kGe, 2);
  AddPredicate(q, 1, CmpOp::kLe, 50);
  EXPECT_TRUE(q.IsConjunctive());
}

TEST(EvalCompoundTest, DisjunctionSemantics) {
  const storage::Table t = SmallTable();
  Query q = SingleTableQuery("small");
  // a <= 2 OR a >= 8
  AddCompound(q, 0, {{{CmpOp::kLe, 2}}, {{CmpOp::kGe, 8}}});
  const CompoundPredicate& cp = q.predicates[0];
  int matches = 0;
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    if (EvalCompoundOnRow(t, r, cp)) ++matches;
  }
  EXPECT_EQ(matches, 5);  // {0,1,2,8,9}
}

TEST(EvalCompoundTest, ConjunctionWithinClause) {
  const storage::Table t = SmallTable();
  Query q = SingleTableQuery("small");
  // 3 <= a <= 7 AND a <> 5
  AddCompound(q, 0,
              {{{CmpOp::kGe, 3}, {CmpOp::kLe, 7}, {CmpOp::kNe, 5}}});
  int matches = 0;
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    if (EvalCompoundOnRow(t, r, q.predicates[0])) ++matches;
  }
  EXPECT_EQ(matches, 4);  // {3,4,6,7}
}

TEST(ValidateQueryTest, AcceptsWellFormed) {
  const storage::Catalog cat = SmallCatalog();
  Query q = SingleTableQuery("small");
  AddPredicate(q, 0, CmpOp::kGe, 2);
  EXPECT_TRUE(ValidateQuery(q, cat).ok());
}

TEST(ValidateQueryTest, RejectsNoTables) {
  const storage::Catalog cat = SmallCatalog();
  Query q;
  EXPECT_FALSE(ValidateQuery(q, cat).ok());
}

TEST(ValidateQueryTest, RejectsMixedAttributeCompound) {
  const storage::Catalog cat = SmallCatalog();
  Query q = SingleTableQuery("small");
  CompoundPredicate cp;
  cp.col = ColumnRef{0, 0};
  ConjunctiveClause clause;
  clause.preds.push_back(SimplePredicate{ColumnRef{0, 0}, CmpOp::kGe, 1});
  clause.preds.push_back(SimplePredicate{ColumnRef{0, 1}, CmpOp::kLe, 5});
  cp.disjuncts.push_back(clause);
  q.predicates.push_back(cp);
  EXPECT_EQ(ValidateQuery(q, cat).code(),
            common::StatusCode::kInvalidArgument);
}

TEST(ValidateQueryTest, RejectsDuplicateCompoundPerAttribute) {
  const storage::Catalog cat = SmallCatalog();
  Query q = SingleTableQuery("small");
  AddPredicate(q, 0, CmpOp::kGe, 1);
  AddPredicate(q, 0, CmpOp::kLe, 5);
  EXPECT_EQ(ValidateQuery(q, cat).code(),
            common::StatusCode::kInvalidArgument);
}

TEST(ValidateQueryTest, RejectsColumnOutOfRange) {
  const storage::Catalog cat = SmallCatalog();
  Query q = SingleTableQuery("small");
  AddPredicate(q, 7, CmpOp::kGe, 1);
  EXPECT_EQ(ValidateQuery(q, cat).code(), common::StatusCode::kOutOfRange);
}

TEST(ValidateQueryTest, RejectsEmptyDisjunct) {
  const storage::Catalog cat = SmallCatalog();
  Query q = SingleTableQuery("small");
  CompoundPredicate cp;
  cp.col = ColumnRef{0, 0};
  q.predicates.push_back(cp);
  EXPECT_EQ(ValidateQuery(q, cat).code(),
            common::StatusCode::kInvalidArgument);
}

TEST(ValidateQueryTest, RejectsNonFiniteLiterals) {
  const storage::Catalog cat = SmallCatalog();
  for (const double literal : {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()}) {
    Query q = SingleTableQuery("small");
    AddPredicate(q, 0, CmpOp::kLt, literal);
    EXPECT_EQ(ValidateLiterals(q).code(), common::StatusCode::kInvalidArgument)
        << literal;
    EXPECT_EQ(ValidateQuery(q, cat).code(),
              common::StatusCode::kInvalidArgument)
        << literal;
  }
}

TEST(QueryToSqlTest, RendersMixedQuery) {
  const storage::Catalog cat = SmallCatalog();
  Query q = SingleTableQuery("small");
  AddCompound(q, 0, {{{CmpOp::kGe, 2}, {CmpOp::kLe, 8}}, {{CmpOp::kEq, 0}}});
  AddPredicate(q, 1, CmpOp::kLt, 50);
  const auto sql_or = QueryToSql(q, cat);
  ASSERT_TRUE(sql_or.ok()) << sql_or.status();
  EXPECT_EQ(sql_or.value(),
            "SELECT count(*) FROM small WHERE "
            "(a >= 2 AND a <= 8 OR a = 0) AND b < 50;");
}

TEST(QueryToSqlTest, RendersJoinQueriesWithQualifiedColumns) {
  storage::Catalog cat;
  storage::Table a("a");
  QFCARD_CHECK_OK(a.AddColumn(testutil::IntColumn("id", {0, 1})));
  QFCARD_CHECK_OK(a.AddColumn(testutil::IntColumn("x", {5, 6})));
  QFCARD_CHECK_OK(cat.AddTable(std::move(a)));
  storage::Table b("b");
  QFCARD_CHECK_OK(b.AddColumn(testutil::IntColumn("a_id", {0, 0, 1})));
  QFCARD_CHECK_OK(cat.AddTable(std::move(b)));

  Query q;
  q.tables.push_back(TableRef{"a", "a"});
  q.tables.push_back(TableRef{"b", "b"});
  q.joins.push_back(JoinPredicate{ColumnRef{0, 0}, ColumnRef{1, 0}});
  CompoundPredicate cp;
  cp.col = ColumnRef{0, 1};
  ConjunctiveClause clause;
  clause.preds.push_back(SimplePredicate{cp.col, CmpOp::kGt, 5});
  cp.disjuncts.push_back(clause);
  q.predicates.push_back(cp);

  const auto sql_or = QueryToSql(q, cat);
  ASSERT_TRUE(sql_or.ok()) << sql_or.status();
  EXPECT_EQ(sql_or.value(),
            "SELECT count(*) FROM a, b WHERE a.id = b.a_id AND a.x > 5;");
  // And it parses back.
  const auto reparsed_or = ParseQuery(sql_or.value(), cat);
  ASSERT_TRUE(reparsed_or.ok()) << reparsed_or.status();
  EXPECT_EQ(reparsed_or.value().joins.size(), 1u);
  EXPECT_EQ(reparsed_or.value().predicates.size(), 1u);
}

TEST(QueryToSqlTest, RendersDictionaryLiteralsAsStrings) {
  storage::Catalog cat;
  storage::Table t("t");
  storage::Dictionary dict = storage::Dictionary::FromValues({"x", "y"});
  storage::Column col("s", storage::ColumnType::kDictString);
  col.Append(0);
  col.Append(1);
  col.SetDictionary(std::move(dict));
  QFCARD_CHECK_OK(t.AddColumn(std::move(col)));
  QFCARD_CHECK_OK(cat.AddTable(std::move(t)));

  Query q = testutil::SingleTableQuery("t");
  testutil::AddPredicate(q, 0, CmpOp::kEq, 1);
  const auto sql_or = QueryToSql(q, cat);
  ASSERT_TRUE(sql_or.ok());
  EXPECT_EQ(sql_or.value(), "SELECT count(*) FROM t WHERE s = 'y';");
}

TEST(QueryToSqlTest, RoundTripsThroughParser) {
  const storage::Catalog cat = SmallCatalog();
  Query q = SingleTableQuery("small");
  AddCompound(q, 0, {{{CmpOp::kGe, 2}, {CmpOp::kNe, 5}}, {{CmpOp::kEq, 9}}});
  AddPredicate(q, 1, CmpOp::kGt, 30);
  const auto sql_or = QueryToSql(q, cat);
  ASSERT_TRUE(sql_or.ok());
  const auto reparsed_or = ParseQuery(sql_or.value(), cat);
  ASSERT_TRUE(reparsed_or.ok()) << reparsed_or.status();
  const auto sql2_or = QueryToSql(reparsed_or.value(), cat);
  ASSERT_TRUE(sql2_or.ok());
  EXPECT_EQ(sql_or.value(), sql2_or.value());
}

}  // namespace
}  // namespace qfcard::query
