#include "query/join_executor.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <span>

#include "query/executor.h"

namespace qfcard::query {

namespace {

common::Status CountOverflow() {
  return common::Status::OutOfRange("join count exceeds the int64 range");
}

// One join predicate as seen from the step that applies it: column
// `col_new` of the step's table equals column `col_old` of the earlier
// table `table_old`.
struct JoinKey {
  int col_new;
  int table_old;
  int col_old;
};

// Joins Query::tables[table] to the tables joined before it. keys[0] is
// hashed; the other keys are checked on each candidate match.
struct JoinStep {
  int table = -1;
  std::vector<JoinKey> keys;
};

// Join order: q.tables[0] first, then repeatedly the lowest-indexed table
// that shares a join predicate with an already joined one.
common::StatusOr<std::vector<JoinStep>> PlanJoins(const Query& q) {
  const size_t n = q.tables.size();
  std::vector<bool> joined(n, false);
  joined[0] = true;
  std::vector<JoinStep> steps;
  for (size_t k = 1; k < n; ++k) {
    JoinStep step;
    for (size_t t = 0; t < n && step.keys.empty(); ++t) {
      if (joined[t]) continue;
      step.table = static_cast<int>(t);
      for (const JoinPredicate& j : q.joins) {
        if (j.left.table == step.table &&
            joined[static_cast<size_t>(j.right.table)]) {
          step.keys.push_back({j.left.column, j.right.table, j.right.column});
        } else if (j.right.table == step.table &&
                   joined[static_cast<size_t>(j.left.table)]) {
          step.keys.push_back({j.right.column, j.left.table, j.left.column});
        }
      }
    }
    if (step.keys.empty()) {
      return common::Status::InvalidArgument(
          "join graph is disconnected (cross products unsupported)");
    }
    joined[static_cast<size_t>(step.table)] = true;
    steps.push_back(std::move(step));
  }
  return steps;
}

// Hash-join build side without per-key allocation: open addressing maps
// each distinct key to a group, and a CSR array lists each group's rows in
// ascending row order. Keys keep `==` semantics: NaN is never inserted, so
// it matches nothing, and -0.0 is looked up as 0.0.
class BuildSide {
 public:
  // Indexes `rows` (ascending) of `key` by value. Without `keep_rows` only
  // the per-key match counts are kept.
  BuildSide(const storage::Column& key, const std::vector<int32_t>& rows,
            bool keep_rows) {
    // At most rows.size() keys, so the table stays at most half full.
    size_t capacity = 64;
    while (capacity < 2 * rows.size()) capacity <<= 1;
    slots_.resize(capacity);
    mask_ = capacity - 1;
    std::vector<int32_t> group_of(keep_rows ? rows.size() : 0, -1);
    for (size_t i = 0; i < rows.size(); ++i) {
      const double k = Normalize(key.Get(rows[i]));
      if (std::isnan(k)) continue;
      Slot& slot = slots_[SlotOf(k)];
      if (slot.group < 0) {
        slot = {k, static_cast<int32_t>(offsets_.size() - 1)};
        offsets_.push_back(0);
      }
      ++offsets_[static_cast<size_t>(slot.group) + 1];
      if (keep_rows) group_of[i] = slot.group;
    }
    std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());
    if (!keep_rows) return;
    rows_.resize(static_cast<size_t>(offsets_.back()));
    std::vector<int32_t> cursor(offsets_.begin(), offsets_.end() - 1);
    for (size_t i = 0; i < rows.size(); ++i) {
      if (group_of[i] < 0) continue;
      rows_[static_cast<size_t>(cursor[static_cast<size_t>(group_of[i])]++)] =
          rows[i];
    }
  }

  // Returns the group holding `key`, or -1 if no build row has it.
  int32_t Find(double key) const {
    if (std::isnan(key)) return -1;
    return slots_[SlotOf(Normalize(key))].group;
  }
  int64_t Size(int32_t group) const {
    return offsets_[static_cast<size_t>(group) + 1] -
           offsets_[static_cast<size_t>(group)];
  }
  // The group's rows, ascending; requires `keep_rows`.
  std::span<const int32_t> Rows(int32_t group) const {
    return std::span<const int32_t>(rows_).subspan(
        static_cast<size_t>(offsets_[static_cast<size_t>(group)]),
        static_cast<size_t>(Size(group)));
  }

 private:
  struct Slot {
    double key = 0.0;
    int32_t group = -1;  // -1: empty
  };

  static double Normalize(double key) { return key == 0.0 ? 0.0 : key; }

  size_t SlotOf(double key) const {
    uint64_t h = std::bit_cast<uint64_t>(key);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    size_t i = static_cast<size_t>(h) & mask_;
    while (slots_[i].group >= 0 && slots_[i].key != key) i = (i + 1) & mask_;
    return i;
  }

  std::vector<Slot> slots_;       // power-of-two open-addressing table
  size_t mask_ = 0;
  std::vector<int32_t> offsets_{0};  // CSR: rows_[offsets_[g], offsets_[g + 1])
  std::vector<int32_t> rows_;
};

// Intermediate join result over weighted tuples. A tuple holds the row ids
// of the live slots (`tables`, Query::tables indices, in join order) and
// the number of join results it stands for.
struct Tuples {
  std::vector<int> tables;
  std::vector<int32_t> rows;  // flat, stride = tables.size()
  std::vector<int64_t> weights;

  size_t SlotOf(int table) const {
    return static_cast<size_t>(
        std::find(tables.begin(), tables.end(), table) - tables.begin());
  }
  // Appends `src`'s `carried` slots plus `new_row` (skipped when < 0).
  void Add(const int32_t* src, const std::vector<size_t>& carried,
           int32_t new_row, int64_t weight) {
    for (const size_t c : carried) rows.push_back(src[c]);
    if (new_row >= 0) rows.push_back(new_row);
    weights.push_back(weight);
  }
};

// The one join loop behind Count and Materialize. `rows[t]` are the
// qualifying rows of Query::tables[t]. A slot stays live while a later
// step's predicates read it or `pinned[t]` holds. When the joined table's
// slot is dead after its step, a probe multiplies the tuple's weight by the
// match count instead of emitting a tuple per match.
common::StatusOr<Tuples> JoinWeighted(
    const std::vector<const storage::Table*>& tables,
    const std::vector<std::vector<int32_t>>& rows,
    const std::vector<JoinStep>& steps, const std::vector<bool>& pinned) {
  // last_use[t]: the last step reading table t, where step s >= 1 is
  // steps[s - 1] and step 0 seeds the first table.
  std::vector<size_t> last_use(tables.size(), 0);
  for (size_t s = 1; s <= steps.size(); ++s) {
    last_use[static_cast<size_t>(steps[s - 1].table)] = s;
    for (const JoinKey& key : steps[s - 1].keys) {
      last_use[static_cast<size_t>(key.table_old)] = s;
    }
  }
  const auto live_after = [&](int t, size_t s) {
    return pinned[static_cast<size_t>(t)] ||
           last_use[static_cast<size_t>(t)] > s;
  };

  Tuples cur;
  if (live_after(0, 0)) {
    cur.tables.push_back(0);
    cur.rows = rows[0];
    cur.weights.assign(rows[0].size(), 1);
  } else {  // an ungrouped single-table count
    cur.weights.push_back(static_cast<int64_t>(rows[0].size()));
  }

  for (size_t s = 1; s <= steps.size(); ++s) {
    const JoinStep& step = steps[s - 1];
    const bool new_live = live_after(step.table, s);
    Tuples next;
    std::vector<size_t> carried;
    for (size_t i = 0; i < cur.tables.size(); ++i) {
      if (!live_after(cur.tables[i], s)) continue;
      carried.push_back(i);
      next.tables.push_back(cur.tables[i]);
    }
    if (new_live) next.tables.push_back(step.table);
    if (cur.weights.empty()) {
      cur = std::move(next);
      continue;
    }

    const storage::Table& new_tab = *tables[static_cast<size_t>(step.table)];
    struct ProbeKey {
      const storage::Column* col_new;
      size_t slot;  // of the earlier table in `cur`
      const storage::Column* col_old;
    };
    std::vector<ProbeKey> keys;
    for (const JoinKey& key : step.keys) {
      keys.push_back(
          {&new_tab.column(key.col_new), cur.SlotOf(key.table_old),
           &tables[static_cast<size_t>(key.table_old)]->column(key.col_old)});
    }
    const bool per_row = new_live || keys.size() > 1;
    const BuildSide build(*keys[0].col_new,
                          rows[static_cast<size_t>(step.table)], per_row);

    const size_t stride = cur.tables.size();
    for (size_t i = 0; i < cur.weights.size(); ++i) {
      const int32_t* tuple = cur.rows.data() + i * stride;
      const int32_t group =
          build.Find(keys[0].col_old->Get(tuple[keys[0].slot]));
      if (group < 0) continue;
      const int64_t weight = cur.weights[i];
      int64_t matches = 0;
      if (!per_row) {
        matches = build.Size(group);
      } else {
        for (const int32_t new_row : build.Rows(group)) {
          const bool match = std::all_of(
              keys.begin() + 1, keys.end(), [&](const ProbeKey& k) {
                return k.col_new->Get(new_row) ==
                       k.col_old->Get(tuple[k.slot]);
              });
          if (!match) continue;
          if (new_live) {
            next.Add(tuple, carried, new_row, weight);
          } else {
            ++matches;
          }
        }
      }
      if (matches == 0) continue;
      int64_t product = 0;
      if (__builtin_mul_overflow(weight, matches, &product)) {
        return CountOverflow();
      }
      next.Add(tuple, carried, -1, product);
    }
    cur = std::move(next);
  }
  return cur;
}

common::StatusOr<std::vector<const storage::Table*>> ResolveTables(
    const storage::Catalog& catalog, const Query& q) {
  std::vector<const storage::Table*> tables;
  for (const TableRef& ref : q.tables) {
    QFCARD_ASSIGN_OR_RETURN(const storage::Table* t,
                            catalog.GetTable(ref.name));
    tables.push_back(t);
  }
  return tables;
}

}  // namespace

common::StatusOr<int64_t> JoinExecutor::Count(const storage::Catalog& catalog,
                                              const Query& q) {
  QFCARD_RETURN_IF_ERROR(ValidateQuery(q, catalog));
  QFCARD_ASSIGN_OR_RETURN(const std::vector<const storage::Table*> tables,
                          ResolveTables(catalog, q));
  QFCARD_ASSIGN_OR_RETURN(const std::vector<JoinStep> steps, PlanJoins(q));

  // Push selections below the joins.
  std::vector<std::vector<int32_t>> rows(tables.size());
  for (size_t t = 0; t < tables.size(); ++t) {
    QFCARD_ASSIGN_OR_RETURN(
        rows[t], Executor::FilterSlot(*tables[t], q, static_cast<int>(t)));
    if (rows[t].empty()) return 0;
  }

  std::vector<bool> grouped(tables.size(), false);
  for (const ColumnRef& g : q.group_by) {
    grouped[static_cast<size_t>(g.table)] = true;
  }
  QFCARD_ASSIGN_OR_RETURN(const Tuples result,
                          JoinWeighted(tables, rows, steps, grouped));
  if (q.group_by.empty()) {
    int64_t count = 0;
    for (const int64_t w : result.weights) {
      if (__builtin_add_overflow(count, w, &count)) return CountOverflow();
    }
    return count;
  }

  // GROUP BY: the result size is the number of distinct grouping keys,
  // compared exactly as Executor::Count compares them.
  const size_t stride = result.tables.size();
  std::vector<std::vector<double>> keys(result.weights.size());
  for (const ColumnRef& g : q.group_by) {
    const size_t slot = result.SlotOf(g.table);
    const storage::Column& col =
        tables[static_cast<size_t>(g.table)]->column(g.column);
    for (size_t i = 0; i < keys.size(); ++i) {
      keys[i].push_back(col.Get(result.rows[i * stride + slot]));
    }
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return static_cast<int64_t>(keys.size());
}

common::StatusOr<storage::Table> JoinExecutor::Materialize(
    const storage::Catalog& catalog,
    const std::vector<std::string>& table_names, const SchemaGraph& graph) {
  if (table_names.empty()) {
    return common::Status::InvalidArgument("no tables to materialize");
  }
  if (!graph.IsConnected(table_names) && table_names.size() > 1) {
    return common::Status::InvalidArgument(
        "tables are not connected by key/foreign-key edges");
  }
  Query q;
  for (const std::string& name : table_names) {
    q.tables.push_back(TableRef{name, name});
  }
  QFCARD_RETURN_IF_ERROR(graph.PopulateJoins(catalog, q));
  QFCARD_ASSIGN_OR_RETURN(const std::vector<const storage::Table*> tables,
                          ResolveTables(catalog, q));
  QFCARD_ASSIGN_OR_RETURN(const std::vector<JoinStep> steps, PlanJoins(q));

  // Join all rows of every table, keeping every slot live (weights stay 1).
  std::vector<std::vector<int32_t>> rows(tables.size());
  for (size_t t = 0; t < tables.size(); ++t) {
    rows[t].resize(static_cast<size_t>(tables[t]->num_rows()));
    std::iota(rows[t].begin(), rows[t].end(), 0);
  }
  const std::vector<bool> all_live(tables.size(), true);
  QFCARD_ASSIGN_OR_RETURN(const Tuples tuples,
                          JoinWeighted(tables, rows, steps, all_live));

  // Gather columns. Output column order follows table_names; names are
  // "<table>.<column>".
  storage::Table result(SubSchemaKey(table_names));
  const size_t stride = tuples.tables.size();
  const size_t n_out = tuples.weights.size();
  for (size_t t = 0; t < tables.size(); ++t) {
    const size_t slot = tuples.SlotOf(static_cast<int>(t));
    const storage::Table& src = *tables[t];
    for (int c = 0; c < src.num_columns(); ++c) {
      const storage::Column& src_col = src.column(c);
      storage::Column col(table_names[t] + "." + src_col.name(),
                          src_col.type());
      col.Reserve(n_out);
      for (size_t i = 0; i < n_out; ++i) {
        col.Append(src_col.Get(tuples.rows[i * stride + slot]));
      }
      if (src_col.has_dictionary()) col.SetDictionary(src_col.dictionary());
      QFCARD_RETURN_IF_ERROR(result.AddColumn(std::move(col)));
    }
  }
  QFCARD_RETURN_IF_ERROR(result.Validate());
  return result;
}

}  // namespace qfcard::query
