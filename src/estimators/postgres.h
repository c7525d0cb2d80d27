#ifndef QFCARD_ESTIMATORS_POSTGRES_H_
#define QFCARD_ESTIMATORS_POSTGRES_H_

#include <vector>

#include "estimators/estimator.h"
#include "storage/catalog.h"

namespace qfcard::est {

/// Per-column statistics in the style of PostgreSQL's pg_stats: an
/// equi-depth histogram over the value distribution, a most-common-values
/// list, and the distinct count.
struct ColumnSynopsis {
  std::vector<double> hist_bounds;  ///< ascending equi-depth bucket bounds
  std::vector<std::pair<double, double>> mcv;  ///< (value, frequency)
  double mcv_total_freq = 0.0;
  int64_t distinct = 1;
  int64_t rows = 0;
  double min = 0.0;
  double max = 0.0;
  bool integral = true;

  /// Estimated fraction of rows with value <= v.
  double FractionLe(double v) const;
  /// Estimated fraction of rows with value == v.
  double FractionEq(double v) const;
};

/// Options for PostgresStyleEstimator.
struct PostgresOptions {
  int histogram_buckets = 100;
  int mcv_entries = 20;
};

/// The Selinger/Postgres-style baseline (Section 7: "Postgres implements
/// this estimator"): per-predicate selectivities from 1-D synopses,
/// independence across attributes, s1 + s2 - s1*s2 for disjunctions, and
/// System R formulas (1 / max(ndv_left, ndv_right)) for equi-joins.
class PostgresStyleEstimator : public CardinalityEstimator {
 public:
  /// Builds synopses for every column of every table. `catalog` is not
  /// owned and must outlive this object.
  static common::StatusOr<PostgresStyleEstimator> Build(
      const storage::Catalog* catalog, const PostgresOptions& options = {});

  common::Status EstimateInto(
      std::span<const query::Query> queries,
      std::span<EstimateResponse> out) const override;
  std::string name() const override { return "postgres"; }
  size_t SizeBytes() const override;

  /// Estimated selectivity of one compound predicate against its column's
  /// synopsis (exposed for tests and the optimizer).
  double CompoundSelectivity(const ColumnSynopsis& synopsis,
                             const query::CompoundPredicate& cp) const;

  const ColumnSynopsis& synopsis(int table, int column) const {
    return synopses_[static_cast<size_t>(table)][static_cast<size_t>(column)];
  }

 private:
  PostgresStyleEstimator() = default;

  common::StatusOr<double> EstimateOne(const query::Query& q) const;

  double ClauseSelectivity(const ColumnSynopsis& synopsis,
                           const query::ConjunctiveClause& clause) const;

  const storage::Catalog* catalog_ = nullptr;
  // synopses_[table][column]
  std::vector<std::vector<ColumnSynopsis>> synopses_;
};

}  // namespace qfcard::est

#endif  // QFCARD_ESTIMATORS_POSTGRES_H_
