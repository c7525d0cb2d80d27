#include "optimizer/plan_executor.h"

#include <unordered_map>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/exec_feedback.h"
#include "query/executor.h"

namespace qfcard::opt {

namespace {

// Intermediate result: tuples of base-table row ids, flat with stride =
// slots.size(); slots[i] is the Query::tables slot of tuple position i.
struct TupleSet {
  std::vector<int> slots;
  std::vector<int32_t> rows;

  size_t stride() const { return slots.size(); }
  size_t count() const { return slots.empty() ? 0 : rows.size() / stride(); }
  int PosOf(int slot) const {
    for (size_t i = 0; i < slots.size(); ++i) {
      if (slots[i] == slot) return static_cast<int>(i);
    }
    return -1;
  }
};

struct ExecContext {
  const storage::Catalog* catalog;
  const query::Query* q;
  std::vector<const storage::Table*> tables;  // per query slot
  double intermediate_rows = 0.0;
};

common::StatusOr<TupleSet> ExecNode(ExecContext& ctx, const JoinPlan& plan,
                                    int node_id);

common::StatusOr<TupleSet> ExecLeaf(ExecContext& ctx, int slot) {
  // Push the selections on this table below the join.
  QFCARD_ASSIGN_OR_RETURN(
      std::vector<int32_t> rows,
      query::Executor::FilterSlot(*ctx.tables[static_cast<size_t>(slot)],
                                  *ctx.q, slot));
  TupleSet out;
  out.slots.push_back(slot);
  out.rows = std::move(rows);
  return out;
}

common::StatusOr<TupleSet> ExecJoin(ExecContext& ctx, TupleSet left,
                                    TupleSet right) {
  // Join keys: all query join predicates with one endpoint on each side.
  struct Key {
    int pos_left;
    int col_left;
    int pos_right;
    int col_right;
  };
  std::vector<Key> keys;
  for (const query::JoinPredicate& j : ctx.q->joins) {
    const int pl = left.PosOf(j.left.table);
    const int pr = right.PosOf(j.right.table);
    if (pl >= 0 && pr >= 0) {
      keys.push_back({pl, j.left.column, pr, j.right.column});
      continue;
    }
    const int pl2 = left.PosOf(j.right.table);
    const int pr2 = right.PosOf(j.left.table);
    if (pl2 >= 0 && pr2 >= 0) {
      keys.push_back({pl2, j.right.column, pr2, j.left.column});
    }
  }
  if (keys.empty()) {
    return common::Status::InvalidArgument(
        "plan joins disconnected sub-plans (cross product)");
  }

  // Build on the smaller side.
  const bool build_left = left.count() <= right.count();
  TupleSet& build = build_left ? left : right;
  TupleSet& probe = build_left ? right : left;

  const auto key_value = [&](const TupleSet& side, size_t tuple_begin,
                             int pos, int col) {
    const int slot = side.slots[static_cast<size_t>(pos)];
    const int32_t row = side.rows[tuple_begin + static_cast<size_t>(pos)];
    return ctx.tables[static_cast<size_t>(slot)]->column(col).Get(row);
  };

  // qfcard-lint: ok(unordered-container): lookup-only hash-join build side. Output
  // order is probe-side scan order; per-key match lists append in build scan
  // order; the map itself is never iterated.
  std::unordered_map<double, std::vector<int32_t>> table;  // key -> tuple begins
  const size_t bstride = build.stride();
  for (size_t i = 0; i < build.rows.size(); i += bstride) {
    const double k = build_left
                         ? key_value(build, i, keys[0].pos_left, keys[0].col_left)
                         : key_value(build, i, keys[0].pos_right, keys[0].col_right);
    table[k].push_back(static_cast<int32_t>(i));
  }

  TupleSet out;
  out.slots = probe.slots;
  out.slots.insert(out.slots.end(), build.slots.begin(), build.slots.end());
  const size_t pstride = probe.stride();
  for (size_t i = 0; i < probe.rows.size(); i += pstride) {
    const double k = build_left
                         ? key_value(probe, i, keys[0].pos_right, keys[0].col_right)
                         : key_value(probe, i, keys[0].pos_left, keys[0].col_left);
    const auto it = table.find(k);
    if (it == table.end()) continue;
    for (const int32_t bbegin : it->second) {
      bool ok = true;
      for (size_t ki = 1; ki < keys.size(); ++ki) {
        const Key& key = keys[ki];
        const double lv = build_left
                              ? key_value(build, static_cast<size_t>(bbegin),
                                          key.pos_left, key.col_left)
                              : key_value(probe, i, key.pos_left, key.col_left);
        const double rv = build_left
                              ? key_value(probe, i, key.pos_right, key.col_right)
                              : key_value(build, static_cast<size_t>(bbegin),
                                          key.pos_right, key.col_right);
        if (lv != rv) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      out.rows.insert(out.rows.end(), probe.rows.begin() + static_cast<long>(i),
                      probe.rows.begin() + static_cast<long>(i + pstride));
      out.rows.insert(out.rows.end(),
                      build.rows.begin() + bbegin,
                      build.rows.begin() + bbegin + static_cast<long>(bstride));
    }
  }
  ctx.intermediate_rows += static_cast<double>(out.count());
  return out;
}

common::StatusOr<TupleSet> ExecNode(ExecContext& ctx, const JoinPlan& plan,
                                    int node_id) {
  const JoinPlan::Node& node = plan.nodes[static_cast<size_t>(node_id)];
  if (node.table >= 0) return ExecLeaf(ctx, node.table);
  QFCARD_ASSIGN_OR_RETURN(TupleSet left, ExecNode(ctx, plan, node.left));
  QFCARD_ASSIGN_OR_RETURN(TupleSet right, ExecNode(ctx, plan, node.right));
  return ExecJoin(ctx, std::move(left), std::move(right));
}

}  // namespace

common::StatusOr<ExecResult> ExecutePlan(const storage::Catalog& catalog,
                                         const query::Query& q,
                                         const JoinPlan& plan) {
  ExecContext ctx;
  ctx.catalog = &catalog;
  ctx.q = &q;
  for (const query::TableRef& ref : q.tables) {
    QFCARD_ASSIGN_OR_RETURN(const storage::Table* t, catalog.GetTable(ref.name));
    ctx.tables.push_back(t);
  }
  obs::TraceSpan span("plan.execute");
  obs::ScopedTimer timer("plan.execute_seconds");
  QFCARD_ASSIGN_OR_RETURN(const TupleSet result, ExecNode(ctx, plan, plan.root));
  ExecResult out;
  out.result_rows = static_cast<int64_t>(result.count());
  out.seconds = timer.Stop();
  out.intermediate_rows = ctx.intermediate_rows;
  query::PublishExecutionFeedback(q, static_cast<double>(out.result_rows));
  return out;
}

}  // namespace qfcard::opt
