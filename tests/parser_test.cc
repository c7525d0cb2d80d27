#include "query/parser.h"

#include "gtest/gtest.h"
#include "query/executor.h"
#include "query/normalize.h"
#include "storage/catalog.h"
#include "test_util.h"

namespace qfcard::query {
namespace {

using testutil::IntColumn;

TEST(ParserTest, MinimalSelect) {
  const auto raw_or = ParseSql("SELECT count(*) FROM t");
  ASSERT_TRUE(raw_or.ok()) << raw_or.status();
  const RawQuery& raw = raw_or.value();
  ASSERT_EQ(raw.tables.size(), 1u);
  EXPECT_EQ(raw.tables[0].name, "t");
  EXPECT_FALSE(raw.has_where);
}

TEST(ParserTest, CaseInsensitiveKeywords) {
  EXPECT_TRUE(ParseSql("select COUNT ( * ) from t;").ok());
}

TEST(ParserTest, TableAliases) {
  const auto raw_or =
      ParseSql("SELECT count(*) FROM title t, cast_info AS ci");
  ASSERT_TRUE(raw_or.ok());
  const RawQuery& raw = raw_or.value();
  ASSERT_EQ(raw.tables.size(), 2u);
  EXPECT_EQ(raw.tables[0].alias, "t");
  EXPECT_EQ(raw.tables[1].alias, "ci");
}

TEST(ParserTest, WherePrecedenceAndBindsTighterThanOr) {
  const auto raw_or =
      ParseSql("SELECT count(*) FROM t WHERE a > 1 AND a < 5 OR a = 9");
  ASSERT_TRUE(raw_or.ok());
  const BoolExpr& where = raw_or.value().where;
  ASSERT_EQ(where.kind, BoolExpr::Kind::kOr);
  ASSERT_EQ(where.children.size(), 2u);
  EXPECT_EQ(where.children[0].kind, BoolExpr::Kind::kAnd);
  EXPECT_EQ(where.children[1].kind, BoolExpr::Kind::kLeaf);
}

TEST(ParserTest, ParenthesesOverridePrecedence) {
  const auto raw_or =
      ParseSql("SELECT count(*) FROM t WHERE a > 1 AND (a < 5 OR a = 9)");
  ASSERT_TRUE(raw_or.ok());
  const BoolExpr& where = raw_or.value().where;
  ASSERT_EQ(where.kind, BoolExpr::Kind::kAnd);
  EXPECT_EQ(where.children[1].kind, BoolExpr::Kind::kOr);
}

TEST(ParserTest, AllComparisonOperators) {
  const auto raw_or = ParseSql(
      "SELECT count(*) FROM t WHERE a = 1 AND b != 2 AND c <> 3 AND d < 4 "
      "AND e <= 5 AND f > 6 AND g >= 7");
  ASSERT_TRUE(raw_or.ok()) << raw_or.status();
  EXPECT_EQ(raw_or.value().where.children.size(), 7u);
}

TEST(ParserTest, NegativeAndDecimalLiterals) {
  const auto raw_or =
      ParseSql("SELECT count(*) FROM t WHERE a > -2.5 AND b < 1e3");
  ASSERT_TRUE(raw_or.ok()) << raw_or.status();
  const BoolExpr& where = raw_or.value().where;
  EXPECT_DOUBLE_EQ(where.children[0].leaf.num, -2.5);
  EXPECT_DOUBLE_EQ(where.children[1].leaf.num, 1000.0);
}

TEST(ParserTest, StringLiterals) {
  const auto raw_or =
      ParseSql("SELECT count(*) FROM orders WHERE o_orderstatus = 'P'");
  ASSERT_TRUE(raw_or.ok());
  const BoolExpr& where = raw_or.value().where;
  EXPECT_TRUE(where.leaf.is_string);
  EXPECT_EQ(where.leaf.str, "P");
}

TEST(ParserTest, JoinPredicateDetected) {
  const auto raw_or = ParseSql(
      "SELECT count(*) FROM a, b WHERE a.id = b.a_id AND a.x > 3");
  ASSERT_TRUE(raw_or.ok());
  const BoolExpr& where = raw_or.value().where;
  ASSERT_EQ(where.kind, BoolExpr::Kind::kAnd);
  EXPECT_EQ(where.children[0].kind, BoolExpr::Kind::kJoin);
  EXPECT_EQ(where.children[0].join.left, "a.id");
  EXPECT_EQ(where.children[0].join.right, "b.a_id");
}

TEST(ParserTest, NonEquiJoinRejected) {
  EXPECT_EQ(ParseSql("SELECT count(*) FROM a, b WHERE a.id < b.id")
                .status()
                .code(),
            common::StatusCode::kUnimplemented);
}

TEST(ParserTest, GroupBy) {
  const auto raw_or =
      ParseSql("SELECT count(*) FROM t WHERE a > 1 GROUP BY b, c");
  ASSERT_TRUE(raw_or.ok());
  ASSERT_EQ(raw_or.value().group_by.size(), 2u);
  EXPECT_EQ(raw_or.value().group_by[0], "b");
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseSql("SELECT * FROM t").ok());
  EXPECT_FALSE(ParseSql("SELECT count(*) FROM").ok());
  EXPECT_FALSE(ParseSql("SELECT count(*) FROM t WHERE a >").ok());
  EXPECT_FALSE(ParseSql("SELECT count(*) FROM t WHERE a > 'x").ok());
  EXPECT_FALSE(ParseSql("SELECT count(*) FROM t WHERE (a > 1").ok());
  EXPECT_FALSE(ParseSql("SELECT count(*) FROM t extra junk").ok());
  // Literals that overflow to infinity are not numbers.
  EXPECT_FALSE(ParseSql("SELECT count(*) FROM t WHERE a > 1e999").ok());
  EXPECT_FALSE(ParseSql("SELECT count(*) FROM t WHERE a < -1e999").ok());
}

// ---------------------------------------------------------------------------
// Binding + normalization
// ---------------------------------------------------------------------------

storage::Catalog MakeCatalogWithStrings() {
  storage::Catalog cat;
  storage::Table t("orders");
  QFCARD_CHECK_OK(t.AddColumn(IntColumn("price", {10, 20, 30, 40, 50})));
  QFCARD_CHECK_OK(t.AddColumn(IntColumn("qty", {1, 2, 3, 4, 5})));
  storage::Dictionary dict =
      storage::Dictionary::FromValues({"F", "O", "P"});
  storage::Column status("status", storage::ColumnType::kDictString);
  for (const char* s : {"P", "O", "F", "P", "O"}) {
    status.Append(static_cast<double>(dict.Code(s).value()));
  }
  status.SetDictionary(std::move(dict));
  QFCARD_CHECK_OK(t.AddColumn(std::move(status)));
  QFCARD_CHECK_OK(cat.AddTable(std::move(t)));
  return cat;
}

TEST(NormalizeTest, BindsSimpleConjunction) {
  const storage::Catalog cat = MakeCatalogWithStrings();
  const auto q_or = ParseQuery(
      "SELECT count(*) FROM orders WHERE price >= 20 AND qty < 4", cat);
  ASSERT_TRUE(q_or.ok()) << q_or.status();
  const Query& q = q_or.value();
  EXPECT_EQ(q.NumAttributes(), 2);
  EXPECT_TRUE(q.IsConjunctive());
}

TEST(NormalizeTest, MergesMultipleConjunctsOnOneAttribute) {
  const storage::Catalog cat = MakeCatalogWithStrings();
  const auto q_or = ParseQuery(
      "SELECT count(*) FROM orders WHERE price >= 20 AND price <= 40 AND "
      "price <> 30",
      cat);
  ASSERT_TRUE(q_or.ok()) << q_or.status();
  const Query& q = q_or.value();
  ASSERT_EQ(q.predicates.size(), 1u);
  ASSERT_EQ(q.predicates[0].disjuncts.size(), 1u);
  EXPECT_EQ(q.predicates[0].disjuncts[0].preds.size(), 3u);
}

TEST(NormalizeTest, PerAttributeDisjunctionToDnf) {
  const storage::Catalog cat = MakeCatalogWithStrings();
  const auto q_or = ParseQuery(
      "SELECT count(*) FROM orders WHERE "
      "(price >= 10 AND price <= 20 OR price >= 40) AND qty > 1",
      cat);
  ASSERT_TRUE(q_or.ok()) << q_or.status();
  const Query& q = q_or.value();
  ASSERT_EQ(q.predicates.size(), 2u);
  EXPECT_EQ(q.predicates[0].disjuncts.size(), 2u);
  EXPECT_EQ(q.predicates[1].disjuncts.size(), 1u);
}

TEST(NormalizeTest, RejectsCrossAttributeDisjunction) {
  const storage::Catalog cat = MakeCatalogWithStrings();
  EXPECT_EQ(ParseQuery(
                "SELECT count(*) FROM orders WHERE price > 30 OR qty < 2", cat)
                .status()
                .code(),
            common::StatusCode::kInvalidArgument);
}

TEST(NormalizeTest, StringEqualityUsesDictionaryCode) {
  const storage::Catalog cat = MakeCatalogWithStrings();
  const auto q_or = ParseQuery(
      "SELECT count(*) FROM orders WHERE status = 'P'", cat);
  ASSERT_TRUE(q_or.ok()) << q_or.status();
  const SimplePredicate& p = q_or.value().predicates[0].disjuncts[0].preds[0];
  EXPECT_EQ(p.op, CmpOp::kEq);
  EXPECT_EQ(p.value, 2.0);  // codes: F=0, O=1, P=2
}

TEST(NormalizeTest, MissingStringEqualityMatchesNothing) {
  const storage::Catalog cat = MakeCatalogWithStrings();
  const auto q_or = ParseQuery(
      "SELECT count(*) FROM orders WHERE status = 'ZZZ'", cat);
  ASSERT_TRUE(q_or.ok());
  const SimplePredicate& p = q_or.value().predicates[0].disjuncts[0].preds[0];
  EXPECT_EQ(p.op, CmpOp::kEq);
  EXPECT_EQ(p.value, -1.0);  // no code is -1 -> selects nothing
}

TEST(NormalizeTest, StringRangeMapsToCodeRange) {
  const storage::Catalog cat = MakeCatalogWithStrings();
  // 'G' is absent; values >= 'G' are O(1) and P(2), i.e. code >= 1.
  const auto q_or = ParseQuery(
      "SELECT count(*) FROM orders WHERE status >= 'G'", cat);
  ASSERT_TRUE(q_or.ok());
  const SimplePredicate& p = q_or.value().predicates[0].disjuncts[0].preds[0];
  EXPECT_EQ(p.op, CmpOp::kGe);
  EXPECT_EQ(p.value, 1.0);
}

TEST(NormalizeTest, StringLessThanMapsToLowerBound) {
  const storage::Catalog cat = MakeCatalogWithStrings();
  // status < 'P' keeps F(0) and O(1): op kLt with lower-bound code 2.
  const auto q_or = ParseQuery(
      "SELECT count(*) FROM orders WHERE status < 'P'", cat);
  ASSERT_TRUE(q_or.ok());
  const SimplePredicate& p = q_or.value().predicates[0].disjuncts[0].preds[0];
  EXPECT_EQ(p.op, CmpOp::kLt);
  EXPECT_EQ(p.value, 2.0);
}

TEST(NormalizeTest, UnknownColumnRejected) {
  const storage::Catalog cat = MakeCatalogWithStrings();
  EXPECT_EQ(ParseQuery("SELECT count(*) FROM orders WHERE nope > 1", cat)
                .status()
                .code(),
            common::StatusCode::kNotFound);
}

TEST(NormalizeTest, StringComparedToNumericColumnRejected) {
  const storage::Catalog cat = MakeCatalogWithStrings();
  EXPECT_EQ(ParseQuery("SELECT count(*) FROM orders WHERE price = 'x'", cat)
                .status()
                .code(),
            common::StatusCode::kInvalidArgument);
}

TEST(NormalizeTest, GroupByBound) {
  const storage::Catalog cat = MakeCatalogWithStrings();
  const auto q_or = ParseQuery(
      "SELECT count(*) FROM orders WHERE price > 10 GROUP BY status", cat);
  ASSERT_TRUE(q_or.ok()) << q_or.status();
  ASSERT_EQ(q_or.value().group_by.size(), 1u);
  EXPECT_EQ(q_or.value().group_by[0].column, 2);
}

TEST(NormalizeTest, LikePrefixBindsToCodeRange) {
  const storage::Catalog cat = MakeCatalogWithStrings();
  // Dictionary: F=0, O=1, P=2. 'O%' keeps exactly code 1: [1, 2).
  const auto q_or =
      ParseQuery("SELECT count(*) FROM orders WHERE status LIKE 'O%'", cat);
  ASSERT_TRUE(q_or.ok()) << q_or.status();
  const ConjunctiveClause& clause = q_or.value().predicates[0].disjuncts[0];
  ASSERT_EQ(clause.preds.size(), 2u);
  EXPECT_EQ(clause.preds[0].op, CmpOp::kGe);
  EXPECT_EQ(clause.preds[0].value, 1.0);
  EXPECT_EQ(clause.preds[1].op, CmpOp::kLt);
  EXPECT_EQ(clause.preds[1].value, 2.0);
}

TEST(NormalizeTest, LikeWithoutWildcardIsEquality) {
  const storage::Catalog cat = MakeCatalogWithStrings();
  const auto q_or =
      ParseQuery("SELECT count(*) FROM orders WHERE status LIKE 'P'", cat);
  ASSERT_TRUE(q_or.ok()) << q_or.status();
  const SimplePredicate& p = q_or.value().predicates[0].disjuncts[0].preds[0];
  EXPECT_EQ(p.op, CmpOp::kEq);
  EXPECT_EQ(p.value, 2.0);
}

TEST(NormalizeTest, LikePercentOnlyMatchesAll) {
  const storage::Catalog cat = MakeCatalogWithStrings();
  const auto q_or =
      ParseQuery("SELECT count(*) FROM orders WHERE status LIKE '%'", cat);
  ASSERT_TRUE(q_or.ok()) << q_or.status();
  const SimplePredicate& p = q_or.value().predicates[0].disjuncts[0].preds[0];
  EXPECT_EQ(p.op, CmpOp::kGe);
  EXPECT_EQ(p.value, 0.0);
}

TEST(NormalizeTest, LikeCountMatchesStringSemantics) {
  // Multi-character dictionary: prefix ranges must count exactly.
  storage::Catalog cat;
  storage::Table t("people");
  std::vector<std::string> names{"alice", "albert", "bob",
                                 "alfred", "carol", "al"};
  storage::Dictionary dict = storage::Dictionary::FromValues(names);
  storage::Column name("name", storage::ColumnType::kDictString);
  for (const std::string& n : names) {
    name.Append(static_cast<double>(dict.Code(n).value()));
  }
  name.SetDictionary(std::move(dict));
  QFCARD_CHECK_OK(t.AddColumn(std::move(name)));
  QFCARD_CHECK_OK(cat.AddTable(std::move(t)));
  const storage::Table& people = *cat.GetTable("people").value();

  const auto count_like = [&](const std::string& pattern) {
    const auto q_or = ParseQuery(
        "SELECT count(*) FROM people WHERE name LIKE '" + pattern + "'", cat);
    QFCARD_CHECK_OK(q_or.status());
    return query::Executor::Count(people, q_or.value()).value();
  };
  EXPECT_EQ(count_like("al%"), 4);    // al, albert, alfred, alice
  EXPECT_EQ(count_like("ali%"), 1);   // alice
  EXPECT_EQ(count_like("b%"), 1);     // bob
  EXPECT_EQ(count_like("z%"), 0);
  EXPECT_EQ(count_like("%"), 6);
  EXPECT_EQ(count_like("al"), 1);     // exact match
}

TEST(NormalizeTest, LikeKeywordIsCaseInsensitive) {
  const storage::Catalog cat = MakeCatalogWithStrings();
  EXPECT_TRUE(
      ParseQuery("SELECT count(*) FROM orders WHERE status like 'O%'", cat)
          .ok());
  EXPECT_TRUE(
      ParseQuery("SELECT count(*) FROM orders WHERE status LiKe 'O%'", cat)
          .ok());
}

TEST(NormalizeTest, DnfExpansionCapRejectsHugeDisjunctions) {
  const storage::Catalog cat = MakeCatalogWithStrings();
  // 300 OR'd equality predicates on one attribute exceed the 256-clause cap.
  std::string sql = "SELECT count(*) FROM orders WHERE (price = 0";
  for (int i = 1; i < 300; ++i) {
    sql += " OR price = " + std::to_string(i);
  }
  sql += ")";
  EXPECT_EQ(ParseQuery(sql, cat).status().code(),
            common::StatusCode::kOutOfRange);
}

TEST(NormalizeTest, NestedParenthesesNormalize) {
  const storage::Catalog cat = MakeCatalogWithStrings();
  const auto q_or = ParseQuery(
      "SELECT count(*) FROM orders WHERE "
      "((price >= 10 AND (price <= 30 OR price >= 40)) AND qty > 1)",
      cat);
  ASSERT_TRUE(q_or.ok()) << q_or.status();
  const Query& q = q_or.value();
  ASSERT_EQ(q.predicates.size(), 2u);
  // (p>=10) AND (p<=30 OR p>=40) distributes into 2 clauses of 2 preds.
  EXPECT_EQ(q.predicates[0].disjuncts.size(), 2u);
  EXPECT_EQ(q.predicates[0].disjuncts[0].preds.size(), 2u);
}

TEST(NormalizeTest, LikeRejectsUnsupportedPatterns) {
  const storage::Catalog cat = MakeCatalogWithStrings();
  EXPECT_EQ(ParseQuery("SELECT count(*) FROM orders WHERE status LIKE '%P'",
                       cat)
                .status()
                .code(),
            common::StatusCode::kUnimplemented);
  EXPECT_EQ(ParseQuery("SELECT count(*) FROM orders WHERE status LIKE 'P_'",
                       cat)
                .status()
                .code(),
            common::StatusCode::kUnimplemented);
  EXPECT_EQ(ParseQuery("SELECT count(*) FROM orders WHERE price LIKE 'P%'",
                       cat)
                .status()
                .code(),
            common::StatusCode::kInvalidArgument);
}

TEST(NormalizeTest, LikeInsideDisjunction) {
  const storage::Catalog cat = MakeCatalogWithStrings();
  const auto q_or = ParseQuery(
      "SELECT count(*) FROM orders WHERE (status LIKE 'F%' OR status = 'P')",
      cat);
  ASSERT_TRUE(q_or.ok()) << q_or.status();
  EXPECT_EQ(q_or.value().predicates[0].disjuncts.size(), 2u);
}

TEST(NormalizeTest, PaperMixedQueryExampleParses) {
  // Shape of the Section 3.3 TPC-H example, adapted to this schema.
  const storage::Catalog cat = MakeCatalogWithStrings();
  const auto q_or = ParseQuery(
      "SELECT count(*) FROM orders WHERE "
      "(price >= 10 AND price <= 20 AND price <> 15 OR "
      " price >= 40 AND price <= 50 AND price <> 45) AND "
      "(status = 'P' OR status = 'F') AND "
      "(qty > 1 AND qty < 5);",
      cat);
  ASSERT_TRUE(q_or.ok()) << q_or.status();
  const Query& q = q_or.value();
  EXPECT_EQ(q.predicates.size(), 3u);
  EXPECT_EQ(q.predicates[0].disjuncts.size(), 2u);
  EXPECT_EQ(q.predicates[1].disjuncts.size(), 2u);
  EXPECT_EQ(q.predicates[2].disjuncts.size(), 1u);
}

}  // namespace
}  // namespace qfcard::query
