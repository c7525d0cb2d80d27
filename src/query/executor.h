#ifndef QFCARD_QUERY_EXECUTOR_H_
#define QFCARD_QUERY_EXECUTOR_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "query/query.h"
#include "storage/table.h"

namespace qfcard::query {

/// Single-table selection executor. Produces exact counts; serves as the
/// ground-truth oracle that labels training/test queries (the paper's
/// "query -> cardinality" function for fixed data).
class Executor {
 public:
  /// Returns the row ids of `table` satisfying all compound predicates of
  /// `q`. `q` must be a single-table query whose ColumnRefs point into
  /// `table`.
  static common::StatusOr<std::vector<int32_t>> Filter(
      const storage::Table& table, const Query& q);

  /// Selection pushdown for one slot of a multi-table query: returns the row
  /// ids of `table` (the table of slot `slot` of `q`) satisfying the compound
  /// predicates of `q` that reference that slot. Join predicates and the
  /// predicates of other slots are ignored.
  static common::StatusOr<std::vector<int32_t>> FilterSlot(
      const storage::Table& table, const Query& q, int slot);

  /// Returns count(*) of `q` over `table`. If the query has a GROUP BY
  /// clause, returns the number of groups (the result size of the grouped
  /// count query, per Section 6).
  static common::StatusOr<int64_t> Count(const storage::Table& table,
                                         const Query& q);
};

}  // namespace qfcard::query

#endif  // QFCARD_QUERY_EXECUTOR_H_
