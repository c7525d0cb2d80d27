#ifndef QFCARD_QUERY_QUERY_H_
#define QFCARD_QUERY_QUERY_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "storage/catalog.h"

namespace qfcard::query {

/// Comparison operators of a simple predicate (Section 3: {=, >, <, >=, <=, <>}).
enum class CmpOp {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
};

const char* CmpOpToString(CmpOp op);

/// Evaluates `value <op> literal`.
bool EvalCmp(CmpOp op, double value, double literal);

/// Reference to a column of one of the query's tables: `table` indexes
/// Query::tables, `column` indexes that table's schema.
struct ColumnRef {
  int table = 0;
  int column = 0;

  bool operator==(const ColumnRef& other) const {
    return table == other.table && column == other.column;
  }
};

/// A simple predicate `A op literal` (Section 3).
struct SimplePredicate {
  ColumnRef col;
  CmpOp op = CmpOp::kEq;
  double value = 0.0;

  bool operator==(const SimplePredicate&) const = default;
};

/// A conjunction of simple predicates over one attribute
/// (e.g. `A > 3 AND A <= 9 AND A <> 5`).
struct ConjunctiveClause {
  std::vector<SimplePredicate> preds;

  bool operator==(const ConjunctiveClause&) const = default;
};

/// A compound predicate per Definition 3.3: a disjunction of conjunctive
/// clauses of simple predicates, all over the same attribute `col`.
struct CompoundPredicate {
  ColumnRef col;
  std::vector<ConjunctiveClause> disjuncts;

  bool operator==(const CompoundPredicate&) const = default;
};

/// A table occurrence in the FROM clause.
struct TableRef {
  std::string name;   ///< catalog table name
  std::string alias;  ///< alias used in the query text (may equal name)

  bool operator==(const TableRef&) const = default;
};

/// An equi-join predicate `left = right` between two tables of the query.
struct JoinPredicate {
  ColumnRef left;
  ColumnRef right;

  bool operator==(const JoinPredicate&) const = default;
};

/// A mixed query (Definition 3.3): a conjunction of per-attribute compound
/// predicates over a (possibly joined) set of tables, optionally grouped.
/// Purely conjunctive queries are the special case where every compound
/// predicate has exactly one disjunct.
struct Query {
  std::vector<TableRef> tables;
  std::vector<JoinPredicate> joins;
  std::vector<CompoundPredicate> predicates;
  std::vector<ColumnRef> group_by;  ///< Section 6 extension; empty = plain count

  /// Number of simple predicates summed over all compound predicates.
  int NumSimplePredicates() const;
  /// Number of distinct attributes mentioned (== predicates.size(); compound
  /// predicates are per-attribute by construction).
  int NumAttributes() const { return static_cast<int>(predicates.size()); }
  /// True if every compound predicate has a single disjunct (pure AND query).
  bool IsConjunctive() const;

  /// Structural equality: same tables, joins, predicates (in order, with
  /// exact literal values) and grouping. The testing subsystem's parser
  /// round-trip checks rely on this (src/testing/query_fuzzer.h).
  bool operator==(const Query&) const = default;
};

/// Evaluates a compound predicate against a row of a table. The compound's
/// ColumnRefs must reference columns of `table`.
bool EvalCompoundOnRow(const storage::Table& table, int64_t row,
                       const CompoundPredicate& cp);

/// Renders a query back to SQL text (against `catalog` for table/column
/// names). Inverse of the parser up to whitespace and parenthesization.
common::StatusOr<std::string> QueryToSql(const Query& q,
                                         const storage::Catalog& catalog);

/// Validates structural invariants: table indices in range, compound
/// predicates reference a single attribute each, at most one compound per
/// attribute, join refs in range, and (via ValidateLiterals) finite literals.
common::Status ValidateQuery(const Query& q, const storage::Catalog& catalog);

/// Catalog-free half of ValidateQuery: rejects NaN and +/-inf predicate
/// literals with InvalidArgument. No column holds them, and estimators and
/// the executor disagree on how they compare (a < NaN matches no row).
common::Status ValidateLiterals(const Query& q);

}  // namespace qfcard::query

#endif  // QFCARD_QUERY_QUERY_H_
