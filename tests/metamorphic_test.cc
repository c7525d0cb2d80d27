// Unit tests for the metamorphic invariant checkers (src/testing/
// metamorphic.h): each checker passes on estimators that honor the
// invariant and produces a FailedPrecondition violation on planted
// estimators that break it.

#include "testing/metamorphic.h"

#include <algorithm>
#include <vector>

#include "common/random.h"
#include "estimators/estimator.h"
#include "estimators/true_card.h"
#include "featurize/extensions.h"
#include "featurize/feature_schema.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace qfcard::testing {
namespace {

using testutil::AddCompound;
using testutil::AddPredicate;
using testutil::SingleTableQuery;
using testutil::SmallCatalog;

// Deliberately broken estimators used to verify the checkers detect
// violations.

// Answers each query with Card(query).
class PerQueryEstimator : public est::CardinalityEstimator {
 public:
  common::Status EstimateInto(
      std::span<const query::Query> queries,
      std::span<est::EstimateResponse> out) const override {
    return est::EstimateEach(*this, queries, out,
                             [&](size_t i) { return Card(queries[i]); });
  }

 private:
  virtual double Card(const query::Query& q) const = 0;
};

// Anti-monotone in range width: estimate is the negated sum of literals, so
// widening an upper bound (literal grows) shrinks the estimate.
class NegatedLiteralSumEstimator : public PerQueryEstimator {
 public:
  std::string name() const override { return "negated-literal-sum"; }

 private:
  double Card(const query::Query& q) const override {
    double sum = 0.0;
    for (const query::CompoundPredicate& cp : q.predicates) {
      for (const query::ConjunctiveClause& clause : cp.disjuncts) {
        for (const query::SimplePredicate& p : clause.preds) sum -= p.value;
      }
    }
    return sum;
  }
};

// Grows with predicate count: adding a conjunct increases the estimate.
class PredicateCountEstimator : public PerQueryEstimator {
 public:
  std::string name() const override { return "predicate-count"; }

 private:
  double Card(const query::Query& q) const override {
    return static_cast<double>(q.predicates.size()) * 10.0;
  }
};

// Shrinks as IN-lists grow: superset gets a smaller estimate.
class NegatedDisjunctCountEstimator : public PerQueryEstimator {
 public:
  std::string name() const override { return "negated-disjunct-count"; }

 private:
  double Card(const query::Query& q) const override {
    double disjuncts = 0.0;
    for (const query::CompoundPredicate& cp : q.predicates) {
      disjuncts += static_cast<double>(cp.disjuncts.size());
    }
    return 1000.0 - disjuncts;
  }
};

// Order-sensitive: the estimate depends on which predicate comes first.
class FirstPredicateEstimator : public PerQueryEstimator {
 public:
  std::string name() const override { return "first-predicate"; }

 private:
  double Card(const query::Query& q) const override {
    if (q.predicates.empty()) return 1.0;
    return static_cast<double>(q.predicates.front().col.column + 1);
  }
};

query::Query RangeQuery() {
  query::Query q = SingleTableQuery("small");
  AddCompound(q, 0, {{{query::CmpOp::kGe, 2}, {query::CmpOp::kLe, 7}}});
  return q;
}

TEST(MetamorphicTest, WideningHoldsForTrueEstimator) {
  const storage::Catalog catalog = SmallCatalog();
  const est::TrueCardEstimator oracle(&catalog);
  for (uint64_t seed = 0; seed < 20; ++seed) {
    common::Rng rng(seed);
    QFCARD_CHECK_OK(CheckWideningMonotone(oracle, RangeQuery(), rng));
  }
}

TEST(MetamorphicTest, WideningViolationDetected) {
  const NegatedLiteralSumEstimator broken;
  query::Query q = SingleTableQuery("small");
  AddPredicate(q, 0, query::CmpOp::kLe, 5);  // widening raises the literal
  common::Rng rng(1);
  const common::Status status = CheckWideningMonotone(broken, q, rng);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), common::StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("widening-monotone"), std::string::npos)
      << status.ToString();
}

TEST(MetamorphicTest, WideningVacuousWithoutRangePredicates) {
  const NegatedLiteralSumEstimator broken;
  query::Query q = SingleTableQuery("small");
  AddPredicate(q, 0, query::CmpOp::kEq, 5);  // no pure-range clause
  common::Rng rng(1);
  QFCARD_CHECK_OK(CheckWideningMonotone(broken, q, rng));
}

TEST(MetamorphicTest, ConjunctHoldsForTrueEstimator) {
  const storage::Catalog catalog = SmallCatalog();
  const est::TrueCardEstimator oracle(&catalog);
  for (uint64_t seed = 0; seed < 20; ++seed) {
    common::Rng rng(seed);
    QFCARD_CHECK_OK(
        CheckConjunctMonotone(oracle, catalog, RangeQuery(), rng));
  }
}

TEST(MetamorphicTest, ConjunctViolationDetected) {
  const storage::Catalog catalog = SmallCatalog();
  const PredicateCountEstimator broken;
  common::Rng rng(1);
  const common::Status status =
      CheckConjunctMonotone(broken, catalog, RangeQuery(), rng);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), common::StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("conjunct-monotone"), std::string::npos);
}

TEST(MetamorphicTest, InListHoldsForTrueEstimator) {
  const storage::Catalog catalog = SmallCatalog();
  const est::TrueCardEstimator oracle(&catalog);
  query::Query q = SingleTableQuery("small");
  AddCompound(q, 0, {{{query::CmpOp::kEq, 1}}, {{query::CmpOp::kEq, 4}}});
  for (uint64_t seed = 0; seed < 20; ++seed) {
    common::Rng rng(seed);
    QFCARD_CHECK_OK(CheckInListMonotone(oracle, q, rng));
  }
}

TEST(MetamorphicTest, InListViolationDetected) {
  const NegatedDisjunctCountEstimator broken;
  query::Query q = SingleTableQuery("small");
  AddCompound(q, 0, {{{query::CmpOp::kEq, 1}}, {{query::CmpOp::kEq, 4}}});
  common::Rng rng(1);
  const common::Status status = CheckInListMonotone(broken, q, rng);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("in-list-monotone"), std::string::npos);
}

TEST(MetamorphicTest, PermutationHoldsForTrueEstimator) {
  const storage::Catalog catalog = SmallCatalog();
  const est::TrueCardEstimator oracle(&catalog);
  query::Query q = RangeQuery();
  AddPredicate(q, 1, query::CmpOp::kLe, 70);
  q.group_by.push_back(query::ColumnRef{0, 0});
  q.group_by.push_back(query::ColumnRef{0, 1});
  for (uint64_t seed = 0; seed < 20; ++seed) {
    common::Rng rng(seed);
    QFCARD_CHECK_OK(CheckPermutationInvariance(oracle, q, rng));
  }
}

TEST(MetamorphicTest, PermutationViolationDetected) {
  const FirstPredicateEstimator broken;
  query::Query q = SingleTableQuery("small");
  AddPredicate(q, 0, query::CmpOp::kLe, 5);
  AddPredicate(q, 1, query::CmpOp::kLe, 50);
  // Some shuffle will swap the two predicates; any seed whose shuffle is the
  // identity is a vacuous pass, so scan a few.
  bool detected = false;
  for (uint64_t seed = 0; seed < 20 && !detected; ++seed) {
    common::Rng rng(seed);
    const common::Status status = CheckPermutationInvariance(broken, q, rng);
    if (!status.ok()) {
      EXPECT_EQ(status.code(), common::StatusCode::kFailedPrecondition);
      EXPECT_NE(status.message().find("permutation-invariance"),
                std::string::npos);
      detected = true;
    }
  }
  EXPECT_TRUE(detected) << "no shuffle in 20 seeds swapped two predicates";
}

TEST(MetamorphicTest, PermuteQueryPreservesComponents) {
  query::Query q = RangeQuery();
  AddCompound(q, 1, {{{query::CmpOp::kEq, 10}}, {{query::CmpOp::kEq, 30}}});
  q.group_by.push_back(query::ColumnRef{0, 0});
  common::Rng rng(7);
  const query::Query permuted = PermuteQuery(q, rng);
  EXPECT_EQ(permuted.tables.size(), q.tables.size());
  EXPECT_EQ(permuted.predicates.size(), q.predicates.size());
  EXPECT_EQ(permuted.group_by.size(), q.group_by.size());
  // Same compounds as a set (keyed by column).
  auto cols = [](const query::Query& query) {
    std::vector<int> out;
    for (const query::CompoundPredicate& cp : query.predicates) {
      out.push_back(cp.col.column);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(cols(permuted), cols(q));
}

TEST(MetamorphicTest, FeaturizationPermutationInvariant) {
  const storage::Catalog catalog = SmallCatalog();
  const storage::Table& table = catalog.table(0);
  for (const featurize::QftKind kind :
       {featurize::QftKind::kConjunctive, featurize::QftKind::kComplex}) {
    const auto featurizer = featurize::MakeFeaturizer(
        kind, featurize::FeatureSchema::FromTable(table), {});
    query::Query q = RangeQuery();
    AddCompound(q, 1, {{{query::CmpOp::kEq, 10}}, {{query::CmpOp::kEq, 30}}});
    for (uint64_t seed = 0; seed < 10; ++seed) {
      common::Rng rng(seed);
      QFCARD_CHECK_OK(
          CheckFeaturizationPermutationInvariance(*featurizer, q, rng));
    }
  }
}

TEST(MetamorphicTest, TrueCardExactOnSmallCatalog) {
  const storage::Catalog catalog = SmallCatalog();
  QFCARD_CHECK_OK(CheckTrueCardExact(catalog, RangeQuery()));
  query::Query grouped = SingleTableQuery("small");
  grouped.group_by.push_back(query::ColumnRef{0, 0});
  QFCARD_CHECK_OK(CheckTrueCardExact(catalog, grouped));
}

}  // namespace
}  // namespace qfcard::testing
