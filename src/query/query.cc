#include "query/query.h"

#include <cmath>
#include <set>
#include <sstream>

#include "common/str_util.h"

namespace qfcard::query {

const char* CmpOpToString(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "<>";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

bool EvalCmp(CmpOp op, double value, double literal) {
  switch (op) {
    case CmpOp::kEq:
      return value == literal;
    case CmpOp::kNe:
      return value != literal;
    case CmpOp::kLt:
      return value < literal;
    case CmpOp::kLe:
      return value <= literal;
    case CmpOp::kGt:
      return value > literal;
    case CmpOp::kGe:
      return value >= literal;
  }
  return false;
}

int Query::NumSimplePredicates() const {
  int n = 0;
  for (const CompoundPredicate& cp : predicates) {
    for (const ConjunctiveClause& clause : cp.disjuncts) {
      n += static_cast<int>(clause.preds.size());
    }
  }
  return n;
}

bool Query::IsConjunctive() const {
  for (const CompoundPredicate& cp : predicates) {
    if (cp.disjuncts.size() != 1) return false;
  }
  return true;
}

bool EvalCompoundOnRow(const storage::Table& table, int64_t row,
                       const CompoundPredicate& cp) {
  for (const ConjunctiveClause& clause : cp.disjuncts) {
    bool clause_ok = true;
    for (const SimplePredicate& p : clause.preds) {
      const double v = table.column(p.col.column).Get(row);
      if (!EvalCmp(p.op, v, p.value)) {
        clause_ok = false;
        break;
      }
    }
    if (clause_ok) return true;
  }
  return false;
}

namespace {

// Formats a literal for column `col`: dictionary values as quoted strings,
// integral values without decimals.
std::string FormatLiteral(const storage::Column& col, double value) {
  if (col.has_dictionary()) {
    const int64_t code = static_cast<int64_t>(value);
    if (code >= 0 && code < col.dictionary().size()) {
      return "'" + col.dictionary().Value(code) + "'";
    }
    return common::StrFormat("'<code %lld>'", static_cast<long long>(code));
  }
  if (col.type() == storage::ColumnType::kInt64) {
    return common::StrFormat("%lld", static_cast<long long>(value));
  }
  return common::StrFormat("%g", value);
}

}  // namespace

common::StatusOr<std::string> QueryToSql(const Query& q,
                                         const storage::Catalog& catalog) {
  QFCARD_RETURN_IF_ERROR(ValidateQuery(q, catalog));
  std::ostringstream out;
  out << "SELECT count(*) FROM ";
  std::vector<const storage::Table*> tables;
  for (size_t i = 0; i < q.tables.size(); ++i) {
    QFCARD_ASSIGN_OR_RETURN(const storage::Table* t,
                            catalog.GetTable(q.tables[i].name));
    tables.push_back(t);
    if (i > 0) out << ", ";
    out << q.tables[i].name;
    if (!q.tables[i].alias.empty() && q.tables[i].alias != q.tables[i].name) {
      out << " " << q.tables[i].alias;
    }
  }
  const auto col_name = [&](const ColumnRef& ref) {
    const std::string& prefix = q.tables[static_cast<size_t>(ref.table)].alias.empty()
                                    ? q.tables[static_cast<size_t>(ref.table)].name
                                    : q.tables[static_cast<size_t>(ref.table)].alias;
    const std::string base =
        tables[static_cast<size_t>(ref.table)]->column(ref.column).name();
    if (q.tables.size() == 1) return base;
    return prefix + "." + base;
  };

  bool have_where = false;
  const auto begin_term = [&]() {
    out << (have_where ? " AND " : " WHERE ");
    have_where = true;
  };
  for (const JoinPredicate& j : q.joins) {
    begin_term();
    out << col_name(j.left) << " = " << col_name(j.right);
  }
  for (const CompoundPredicate& cp : q.predicates) {
    begin_term();
    const storage::Column& col =
        tables[static_cast<size_t>(cp.col.table)]->column(cp.col.column);
    const bool parens = cp.disjuncts.size() > 1 ||
                        (cp.disjuncts.size() == 1 && q.predicates.size() > 1 &&
                         cp.disjuncts[0].preds.size() > 1);
    if (parens) out << "(";
    for (size_t d = 0; d < cp.disjuncts.size(); ++d) {
      if (d > 0) out << " OR ";
      const ConjunctiveClause& clause = cp.disjuncts[d];
      for (size_t i = 0; i < clause.preds.size(); ++i) {
        if (i > 0) out << " AND ";
        out << col_name(cp.col) << " " << CmpOpToString(clause.preds[i].op)
            << " " << FormatLiteral(col, clause.preds[i].value);
      }
    }
    if (parens) out << ")";
  }
  if (!q.group_by.empty()) {
    out << " GROUP BY ";
    for (size_t i = 0; i < q.group_by.size(); ++i) {
      if (i > 0) out << ", ";
      out << col_name(q.group_by[i]);
    }
  }
  out << ";";
  return out.str();
}

common::Status ValidateLiterals(const Query& q) {
  for (const CompoundPredicate& cp : q.predicates) {
    for (const ConjunctiveClause& clause : cp.disjuncts) {
      for (const SimplePredicate& p : clause.preds) {
        if (!std::isfinite(p.value)) {
          return common::Status::InvalidArgument(
              "predicate literal is not a finite number");
        }
      }
    }
  }
  return common::Status::Ok();
}

common::Status ValidateQuery(const Query& q, const storage::Catalog& catalog) {
  if (q.tables.empty()) {
    return common::Status::InvalidArgument("query has no tables");
  }
  QFCARD_RETURN_IF_ERROR(ValidateLiterals(q));
  std::vector<const storage::Table*> tables;
  for (const TableRef& ref : q.tables) {
    QFCARD_ASSIGN_OR_RETURN(const storage::Table* t, catalog.GetTable(ref.name));
    tables.push_back(t);
  }
  const auto check_ref = [&](const ColumnRef& ref) -> common::Status {
    if (ref.table < 0 || ref.table >= static_cast<int>(q.tables.size())) {
      return common::Status::OutOfRange(
          common::StrFormat("table index %d out of range", ref.table));
    }
    const storage::Table* t = tables[static_cast<size_t>(ref.table)];
    if (ref.column < 0 || ref.column >= t->num_columns()) {
      return common::Status::OutOfRange(common::StrFormat(
          "column index %d out of range for table '%s'", ref.column,
          t->name().c_str()));
    }
    return common::Status::Ok();
  };
  std::set<std::pair<int, int>> seen_attrs;
  for (const CompoundPredicate& cp : q.predicates) {
    QFCARD_RETURN_IF_ERROR(check_ref(cp.col));
    if (cp.disjuncts.empty()) {
      return common::Status::InvalidArgument(
          "compound predicate has no disjuncts");
    }
    for (const ConjunctiveClause& clause : cp.disjuncts) {
      if (clause.preds.empty()) {
        return common::Status::InvalidArgument(
            "conjunctive clause has no predicates");
      }
      for (const SimplePredicate& p : clause.preds) {
        if (!(p.col == cp.col)) {
          return common::Status::InvalidArgument(
              "compound predicate mixes attributes; not a mixed query "
              "(Definition 3.3)");
        }
      }
    }
    if (!seen_attrs.insert({cp.col.table, cp.col.column}).second) {
      return common::Status::InvalidArgument(
          "multiple compound predicates on one attribute; merge them first");
    }
  }
  for (const JoinPredicate& j : q.joins) {
    QFCARD_RETURN_IF_ERROR(check_ref(j.left));
    QFCARD_RETURN_IF_ERROR(check_ref(j.right));
    if (j.left.table == j.right.table) {
      return common::Status::InvalidArgument("self-join predicates unsupported");
    }
  }
  for (const ColumnRef& g : q.group_by) {
    QFCARD_RETURN_IF_ERROR(check_ref(g));
  }
  return common::Status::Ok();
}

}  // namespace qfcard::query
