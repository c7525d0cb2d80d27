#ifndef QFCARD_ESTIMATORS_TRUE_CARD_H_
#define QFCARD_ESTIMATORS_TRUE_CARD_H_

#include "estimators/estimator.h"
#include "storage/catalog.h"

namespace qfcard::est {

/// Oracle estimator: executes the query and returns the exact cardinality.
/// Used as the "true cardinalities" arm of the end-to-end experiment
/// (Table 4) and as the labeling source for training workloads.
class TrueCardEstimator : public CardinalityEstimator {
 public:
  /// `catalog` is not owned and must outlive this object.
  explicit TrueCardEstimator(const storage::Catalog* catalog)
      : catalog_(catalog) {}

  common::Status EstimateInto(
      std::span<const query::Query> queries,
      std::span<EstimateResponse> out) const override;
  std::string name() const override { return "true"; }

 private:
  common::StatusOr<double> EstimateOne(const query::Query& q) const;

  const storage::Catalog* catalog_;
};

}  // namespace qfcard::est

#endif  // QFCARD_ESTIMATORS_TRUE_CARD_H_
