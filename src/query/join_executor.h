#ifndef QFCARD_QUERY_JOIN_EXECUTOR_H_
#define QFCARD_QUERY_JOIN_EXECUTOR_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "query/query.h"
#include "query/schema_graph.h"
#include "storage/catalog.h"

namespace qfcard::query {

/// Multi-table execution: exact counts for join queries and materialization
/// of sub-schema joins for local models (Section 2.1.2 / 4.1).
class JoinExecutor {
 public:
  /// Returns the exact count(*) of the (possibly joined) query `q` against
  /// `catalog`; with GROUP BY, the number of groups, as Executor::Count
  /// does. Selections are pushed below the joins; hash joins start from
  /// `q.tables[0]` and each step adds the lowest-indexed table that joins an
  /// already joined one (a disconnected join graph is InvalidArgument). A
  /// count above INT64_MAX is OutOfRange.
  static common::StatusOr<int64_t> Count(const storage::Catalog& catalog,
                                         const Query& q);

  /// Materializes the join of `table_names` along the key/foreign-key edges
  /// of `graph`. The result's columns are named `<table>.<column>` for every
  /// column of every input table, so the result can be queried as a single
  /// table by Executor. Local models train on such materializations.
  static common::StatusOr<storage::Table> Materialize(
      const storage::Catalog& catalog,
      const std::vector<std::string>& table_names, const SchemaGraph& graph);
};

}  // namespace qfcard::query

#endif  // QFCARD_QUERY_JOIN_EXECUTOR_H_
