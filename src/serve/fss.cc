#include "serve/fss.h"

#include <algorithm>
#include <string>
#include <vector>

#include "common/str_util.h"

namespace qfcard::serve {

namespace {

// FNV-1a over bytes, the platform-independent workhorse; splitmix64's
// finalizer adds avalanche so structurally close queries (one extra
// predicate, one operator changed) land far apart.
constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

uint64_t FnvBytes(uint64_t h, const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

uint64_t FnvString(uint64_t h, const std::string& s) {
  return FnvBytes(h, s.data(), s.size());
}

uint64_t FnvU64(uint64_t h, uint64_t v) { return FnvBytes(h, &v, sizeof(v)); }

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Domain separators so e.g. a join edge can never collide with a predicate
// that happens to hash to the same bytes.
enum Tag : uint64_t {
  kTagRelation = 1,
  kTagJoin = 2,
  kTagPredicate = 3,
  kTagClause = 4,
  kTagOp = 5,
  kTagGroupBy = 6,
};

/// Position-independent identity of a column: the table's *name* (two
/// queries listing the same tables in a different FROM order renumber their
/// ColumnRef.table indices but keep the same feature space) plus the column
/// index within that table.
uint64_t ColumnIdentity(const query::Query& q, const query::ColumnRef& col) {
  uint64_t h = kFnvOffset;
  if (col.table >= 0 && static_cast<size_t>(col.table) < q.tables.size()) {
    h = FnvString(h, q.tables[col.table].name);
  } else {
    h = FnvU64(h, static_cast<uint64_t>(col.table));  // malformed: still hash
  }
  h = FnvU64(h, static_cast<uint64_t>(col.column));
  return Mix64(h);
}

/// One conjunctive clause: the multiset of its comparison operators.
/// Commutative sum over per-op hashes, so `A > 3 AND A <= 9` and
/// `A <= 9 AND A > 3` are the same clause shape.
uint64_t ClauseShape(const query::ConjunctiveClause& clause) {
  uint64_t acc = 0;
  for (const query::SimplePredicate& pred : clause.preds) {
    acc += Mix64(FnvU64(FnvU64(kFnvOffset, kTagOp),
                        static_cast<uint64_t>(pred.op)));
  }
  return Mix64(FnvU64(FnvU64(kFnvOffset, kTagClause), acc));
}

}  // namespace

uint64_t FeatureSpaceHash(const query::Query& q) {
  // Each component class is reduced with a commutative sum of per-item
  // mixed hashes (order-invariant, multiset-sensitive), then the class
  // accumulators are folded in a fixed order.
  uint64_t relations = 0;
  for (const query::TableRef& table : q.tables) {
    relations += Mix64(FnvString(FnvU64(kFnvOffset, kTagRelation), table.name));
  }

  uint64_t joins = 0;
  for (const query::JoinPredicate& join : q.joins) {
    const uint64_t left = ColumnIdentity(q, join.left);
    const uint64_t right = ColumnIdentity(q, join.right);
    // Symmetric endpoint pair: a = b and b = a are the same edge.
    uint64_t h = FnvU64(kFnvOffset, kTagJoin);
    h = FnvU64(h, std::min(left, right));
    h = FnvU64(h, std::max(left, right));
    joins += Mix64(h);
  }

  uint64_t predicates = 0;
  for (const query::CompoundPredicate& cp : q.predicates) {
    uint64_t disjuncts = 0;  // multiset of clause shapes
    for (const query::ConjunctiveClause& clause : cp.disjuncts) {
      disjuncts += ClauseShape(clause);
    }
    uint64_t h = FnvU64(kFnvOffset, kTagPredicate);
    h = FnvU64(h, ColumnIdentity(q, cp.col));
    h = FnvU64(h, disjuncts);
    predicates += Mix64(h);
  }

  uint64_t group_by = 0;
  for (const query::ColumnRef& col : q.group_by) {
    group_by +=
        Mix64(FnvU64(FnvU64(kFnvOffset, kTagGroupBy), ColumnIdentity(q, col)));
  }

  uint64_t h = kFnvOffset;
  h = FnvU64(h, relations);
  h = FnvU64(h, joins);
  h = FnvU64(h, predicates);
  h = FnvU64(h, group_by);
  const uint64_t fss = Mix64(h);
  // 0 is reserved as the forced-mode default route id.
  return fss == 0 ? 1 : fss;
}

std::string FeatureSpaceSignature(const query::Query& q) {
  std::vector<std::string> tables;
  for (const query::TableRef& table : q.tables) tables.push_back(table.name);
  std::sort(tables.begin(), tables.end());

  auto column_name = [&q](const query::ColumnRef& col) {
    std::string name = "t?";
    if (col.table >= 0 && static_cast<size_t>(col.table) < q.tables.size()) {
      name = q.tables[col.table].name;
    }
    return name + ".c" + std::to_string(col.column);
  };

  std::vector<std::string> parts;
  for (const query::CompoundPredicate& cp : q.predicates) {
    std::vector<std::string> clauses;
    for (const query::ConjunctiveClause& clause : cp.disjuncts) {
      std::vector<std::string> ops;
      for (const query::SimplePredicate& pred : clause.preds) {
        ops.push_back(query::CmpOpToString(pred.op));
      }
      std::sort(ops.begin(), ops.end());
      clauses.push_back("{" + common::Join(ops, ",") + "}");
    }
    std::sort(clauses.begin(), clauses.end());
    parts.push_back(column_name(cp.col) + ":" + common::Join(clauses, "+"));
  }
  for (const query::JoinPredicate& join : q.joins) {
    std::string left = column_name(join.left);
    std::string right = column_name(join.right);
    if (right < left) std::swap(left, right);
    parts.push_back(left + "=" + right);
  }
  for (const query::ColumnRef& col : q.group_by) {
    parts.push_back("g{" + column_name(col) + "}");
  }
  std::sort(parts.begin(), parts.end());

  std::string out = common::Join(tables, ",");
  if (!parts.empty()) out += "|" + common::Join(parts, "|");
  return out;
}

std::string FormatFss(uint64_t fss) {
  return common::StrFormat("%016llx", static_cast<unsigned long long>(fss));
}

}  // namespace qfcard::serve
