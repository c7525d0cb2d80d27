#include "estimators/true_card.h"

#include <algorithm>

#include "query/executor.h"
#include "query/join_executor.h"

namespace qfcard::est {

common::Status TrueCardEstimator::EstimateInto(
    std::span<const query::Query> queries,
    std::span<EstimateResponse> out) const {
  return EstimateEach(*this, queries, out,
                      [&](size_t i) { return EstimateOne(queries[i]); });
}

common::StatusOr<double> TrueCardEstimator::EstimateOne(
    const query::Query& q) const {
  // Returns the raw count (possibly 0): q-error computation clamps to >= 1
  // itself, and exact counts must stay exact for consumers like the
  // IEP identity and the optimizer's cost model.
  if (q.tables.size() == 1 && q.joins.empty()) {
    QFCARD_ASSIGN_OR_RETURN(const storage::Table* table,
                            catalog_->GetTable(q.tables[0].name));
    QFCARD_ASSIGN_OR_RETURN(const int64_t count,
                            query::Executor::Count(*table, q));
    return static_cast<double>(count);
  }
  QFCARD_ASSIGN_OR_RETURN(const int64_t count,
                          query::JoinExecutor::Count(*catalog_, q));
  return static_cast<double>(count);
}

}  // namespace qfcard::est
