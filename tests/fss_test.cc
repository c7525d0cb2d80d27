#include "serve/fss.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "query/query.h"
#include "test_util.h"

// Feature-space hash tests (src/serve/fss.h): a pinned corpus of mixed
// predicate shapes — the hash is the router's persistent route id, so its
// values must never drift across refactors, platforms, or processes — plus
// the structural guarantees: invariance under clause/predicate/join/table
// reordering and literal changes, sensitivity to everything else.

namespace qfcard::serve {
namespace {

using query::CmpOp;

// --- Corpus builders -------------------------------------------------------

query::Query EqualityQuery(double v = 5.0) {
  query::Query q = testutil::SingleTableQuery("small");
  testutil::AddPredicate(q, 0, CmpOp::kEq, v);
  return q;
}

query::Query RangeQuery(double lo = 2.0, double hi = 8.0) {
  query::Query q = testutil::SingleTableQuery("small");
  testutil::AddCompound(q, 0, {{{CmpOp::kGe, lo}, {CmpOp::kLe, hi}}});
  return q;
}

query::Query InListQuery() {
  query::Query q = testutil::SingleTableQuery("small");
  testutil::AddCompound(q, 1, {{{CmpOp::kEq, 10.0}},
                               {{CmpOp::kEq, 30.0}},
                               {{CmpOp::kEq, 50.0}}});
  return q;
}

/// A mixed disjunction (range-clause OR point-clause) next to a simple
/// predicate on another attribute.
query::Query MixedQuery() {
  query::Query q = testutil::SingleTableQuery("small");
  testutil::AddCompound(q, 0, {{{CmpOp::kGe, 2.0}, {CmpOp::kLe, 4.0}},
                               {{CmpOp::kEq, 7.0}}});
  testutil::AddPredicate(q, 1, CmpOp::kGe, 20.0);
  return q;
}

query::Query JoinQuery() {
  query::Query q;
  q.tables.push_back(query::TableRef{"orders", "o"});
  q.tables.push_back(query::TableRef{"lineitem", "l"});
  q.joins.push_back(
      query::JoinPredicate{query::ColumnRef{0, 0}, query::ColumnRef{1, 1}});
  query::CompoundPredicate cp;
  cp.col = query::ColumnRef{1, 2};
  query::ConjunctiveClause clause;
  clause.preds.push_back(
      query::SimplePredicate{cp.col, CmpOp::kLt, 100.0});
  cp.disjuncts.push_back(std::move(clause));
  q.predicates.push_back(std::move(cp));
  return q;
}

query::Query GroupByQuery() {
  query::Query q = EqualityQuery();
  q.group_by.push_back(query::ColumnRef{0, 1});
  return q;
}

// --- Pinned corpus ---------------------------------------------------------
// These values are the on-the-wire route ids. If one of these expectations
// fails, the hash function changed and every persisted route id (metrics
// labels, logs, saved route tables) silently remaps — treat that as an
// incompatible change, not a test to update casually.

TEST(FeatureSpaceHash, PinnedCorpus) {
  EXPECT_EQ(FeatureSpaceHash(EqualityQuery()), 0xac1093503a66a935ull);
  EXPECT_EQ(FeatureSpaceHash(RangeQuery()), 0xb96febe4e7175ddcull);
  EXPECT_EQ(FeatureSpaceHash(InListQuery()), 0xeef84f73d8059412ull);
  EXPECT_EQ(FeatureSpaceHash(MixedQuery()), 0x102fe2f9b1f63f95ull);
  EXPECT_EQ(FeatureSpaceHash(JoinQuery()), 0x0e1f7a27e16eaf7cull);
  EXPECT_EQ(FeatureSpaceHash(GroupByQuery()), 0xbe3f240b0e9f1e3aull);
}

TEST(FeatureSpaceHash, NeverReturnsTheSentinel) {
  // 0 is reserved as the forced-mode default route id; even the empty query
  // hashes off it.
  EXPECT_NE(FeatureSpaceHash(query::Query{}), 0u);
}

// --- Literal insensitivity (the defining property of a feature space) ------

TEST(FeatureSpaceHash, IgnoresLiteralValues) {
  EXPECT_EQ(FeatureSpaceHash(EqualityQuery(5.0)),
            FeatureSpaceHash(EqualityQuery(-3.25)));
  EXPECT_EQ(FeatureSpaceHash(RangeQuery(2.0, 8.0)),
            FeatureSpaceHash(RangeQuery(500.0, 501.0)));
}

// --- Order invariance ------------------------------------------------------

TEST(FeatureSpaceHash, InvariantUnderPredicateOrder) {
  query::Query ab = testutil::SingleTableQuery("small");
  testutil::AddPredicate(ab, 0, CmpOp::kLe, 4.0);
  testutil::AddPredicate(ab, 1, CmpOp::kGe, 20.0);
  query::Query ba = testutil::SingleTableQuery("small");
  testutil::AddPredicate(ba, 1, CmpOp::kGe, 20.0);
  testutil::AddPredicate(ba, 0, CmpOp::kLe, 4.0);
  EXPECT_EQ(FeatureSpaceHash(ab), FeatureSpaceHash(ba));
  EXPECT_EQ(FeatureSpaceSignature(ab), FeatureSpaceSignature(ba));
}

TEST(FeatureSpaceHash, InvariantUnderOperatorOrderWithinClause) {
  query::Query fwd = testutil::SingleTableQuery("small");
  testutil::AddCompound(fwd, 0, {{{CmpOp::kGe, 2.0}, {CmpOp::kLe, 8.0}}});
  query::Query rev = testutil::SingleTableQuery("small");
  testutil::AddCompound(rev, 0, {{{CmpOp::kLe, 8.0}, {CmpOp::kGe, 2.0}}});
  EXPECT_EQ(FeatureSpaceHash(fwd), FeatureSpaceHash(rev));
}

TEST(FeatureSpaceHash, InvariantUnderDisjunctOrder) {
  query::Query fwd = testutil::SingleTableQuery("small");
  testutil::AddCompound(fwd, 0, {{{CmpOp::kGe, 2.0}, {CmpOp::kLe, 4.0}},
                                 {{CmpOp::kEq, 7.0}}});
  query::Query rev = testutil::SingleTableQuery("small");
  testutil::AddCompound(rev, 0, {{{CmpOp::kEq, 7.0}},
                                 {{CmpOp::kGe, 2.0}, {CmpOp::kLe, 4.0}}});
  EXPECT_EQ(FeatureSpaceHash(fwd), FeatureSpaceHash(rev));
  EXPECT_EQ(FeatureSpaceSignature(fwd), FeatureSpaceSignature(rev));
}

TEST(FeatureSpaceHash, InvariantUnderJoinDirectionAndTableOrder) {
  const query::Query fwd = JoinQuery();

  // Same join written right-to-left.
  query::Query flipped = fwd;
  std::swap(flipped.joins[0].left, flipped.joins[0].right);
  EXPECT_EQ(FeatureSpaceHash(fwd), FeatureSpaceHash(flipped));

  // Same query with the FROM order reversed: ColumnRef.table indices
  // renumber, but identity follows table *names*, so the space is the same.
  query::Query reordered;
  reordered.tables.push_back(query::TableRef{"lineitem", "l"});
  reordered.tables.push_back(query::TableRef{"orders", "o"});
  reordered.joins.push_back(
      query::JoinPredicate{query::ColumnRef{1, 0}, query::ColumnRef{0, 1}});
  query::CompoundPredicate cp;
  cp.col = query::ColumnRef{0, 2};
  query::ConjunctiveClause clause;
  clause.preds.push_back(query::SimplePredicate{cp.col, CmpOp::kLt, 999.0});
  cp.disjuncts.push_back(std::move(clause));
  reordered.predicates.push_back(std::move(cp));
  EXPECT_EQ(FeatureSpaceHash(fwd), FeatureSpaceHash(reordered));
  EXPECT_EQ(FeatureSpaceSignature(fwd), FeatureSpaceSignature(reordered));
}

// --- Structure sensitivity -------------------------------------------------

TEST(FeatureSpaceHash, DistinguishesOperators) {
  query::Query ge = testutil::SingleTableQuery("small");
  testutil::AddPredicate(ge, 0, CmpOp::kGe, 5.0);
  query::Query gt = testutil::SingleTableQuery("small");
  testutil::AddPredicate(gt, 0, CmpOp::kGt, 5.0);
  EXPECT_NE(FeatureSpaceHash(ge), FeatureSpaceHash(gt));
  EXPECT_NE(FeatureSpaceHash(ge), FeatureSpaceHash(EqualityQuery(5.0)));
}

TEST(FeatureSpaceHash, DistinguishesColumnsTablesAndArity) {
  query::Query col0 = testutil::SingleTableQuery("small");
  testutil::AddPredicate(col0, 0, CmpOp::kEq, 5.0);
  query::Query col1 = testutil::SingleTableQuery("small");
  testutil::AddPredicate(col1, 1, CmpOp::kEq, 5.0);
  EXPECT_NE(FeatureSpaceHash(col0), FeatureSpaceHash(col1));

  query::Query other_table = testutil::SingleTableQuery("large");
  testutil::AddPredicate(other_table, 0, CmpOp::kEq, 5.0);
  EXPECT_NE(FeatureSpaceHash(col0), FeatureSpaceHash(other_table));

  // IN-lists of different lengths are different shapes (one model per
  // feature-vector layout).
  query::Query in2 = testutil::SingleTableQuery("small");
  testutil::AddCompound(in2, 1, {{{CmpOp::kEq, 10.0}}, {{CmpOp::kEq, 30.0}}});
  EXPECT_NE(FeatureSpaceHash(InListQuery()), FeatureSpaceHash(in2));

  EXPECT_NE(FeatureSpaceHash(EqualityQuery()),
            FeatureSpaceHash(GroupByQuery()));
}

// --- Formatting ------------------------------------------------------------

TEST(FeatureSpaceHash, FormatFssIsSixteenLowercaseHexDigits) {
  EXPECT_EQ(FormatFss(0x3f62a91c0b44d17eull), "3f62a91c0b44d17e");
  EXPECT_EQ(FormatFss(0x1ull), "0000000000000001");
}

TEST(FeatureSpaceHash, SignatureReadsLikeTheShape) {
  EXPECT_EQ(FeatureSpaceSignature(RangeQuery()), "small|small.c0:{<=,>=}");
  EXPECT_EQ(FeatureSpaceSignature(InListQuery()),
            "small|small.c1:{=}+{=}+{=}");
  EXPECT_EQ(FeatureSpaceSignature(JoinQuery()),
            "lineitem,orders|lineitem.c1=orders.c0|lineitem.c2:{<}");
}

}  // namespace
}  // namespace qfcard::serve
