// Query intermediate representation: the select-project-join-order-group
// subset the paper's workload uses (Section VI-A), produced either by the
// SQL parser or the QueryBuilder.
#ifndef PINUM_QUERY_QUERY_H_
#define PINUM_QUERY_QUERY_H_

#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/types.h"
#include "stats/selectivity.h"

namespace pinum {

/// `column <op> constant` restriction.
struct FilterPredicate {
  ColumnRef column;
  CompareOp op = CompareOp::kEq;
  Value constant = 0;

  bool operator==(const FilterPredicate&) const = default;
};

/// `left = right` equijoin predicate between two tables.
struct JoinPredicate {
  ColumnRef left;
  ColumnRef right;

  bool operator==(const JoinPredicate&) const = default;

  /// True if the predicate touches `table`.
  bool Touches(TableId table) const {
    return left.table == table || right.table == table;
  }
  /// The side of the predicate on `table`; requires Touches(table).
  ColumnRef SideOn(TableId table) const {
    return left.table == table ? left : right;
  }
  /// The side of the predicate NOT on `table`; requires Touches(table).
  ColumnRef OtherSide(TableId table) const {
    return left.table == table ? right : left;
  }
};

/// ORDER BY key. Only ascending order matters for plan-coverage purposes
/// (a B-tree covers both directions via backward scans), but the flag is
/// kept for faithful SQL round-tripping.
struct SortKey {
  ColumnRef column;
  bool ascending = true;

  bool operator==(const SortKey&) const = default;
};

/// Aggregate applied to non-grouping select columns when GROUP BY is
/// present.
enum class AggKind { kNone, kSum, kCount, kMin, kMax };

/// One query in the workload.
struct Query {
  std::string name;
  /// FROM list; position in this vector is the query-local table position
  /// used by the optimizer's RelSet bitmaps.
  std::vector<TableId> tables;
  std::vector<ColumnRef> select;
  std::vector<FilterPredicate> filters;
  std::vector<JoinPredicate> joins;
  std::vector<ColumnRef> group_by;
  AggKind aggregate = AggKind::kNone;
  std::vector<SortKey> order_by;

  /// Query-local position of a table; -1 when the table is not referenced.
  int PosOfTable(TableId t) const {
    for (size_t i = 0; i < tables.size(); ++i) {
      if (tables[i] == t) return static_cast<int>(i);
    }
    return -1;
  }

  /// All columns of `table` the query touches (select, filters, joins,
  /// group-by, order-by) — determines index-only-scan eligibility.
  std::vector<ColumnIdx> NeededColumns(TableId table) const;

  /// Filter predicates restricted to `table`, in (column, op, constant)
  /// order rather than statement order, so two statements listing the
  /// same filters in different orders get equal lists: their
  /// selectivity products then multiply in one order and agree bit for
  /// bit.
  std::vector<FilterPredicate> FiltersOn(TableId table) const;

  /// True when `other` is the same statement: every field but the name
  /// is equal, positions included (the fields ComputeQueryStamp folds).
  bool SameStatement(const Query& other) const;

  /// Renders the query as SQL text (parseable by the parser module).
  std::string ToSql(const Catalog& catalog) const;
};

/// Fluent builder for Query objects with name-based column resolution.
class QueryBuilder {
 public:
  explicit QueryBuilder(const Catalog* catalog) : catalog_(catalog) {}

  QueryBuilder& Named(std::string name);
  QueryBuilder& From(const std::string& table_name);
  QueryBuilder& Select(const std::string& table_name,
                       const std::string& column);
  QueryBuilder& Where(const std::string& table_name, const std::string& column,
                      CompareOp op, Value constant);
  QueryBuilder& Join(const std::string& left_table, const std::string& left_col,
                     const std::string& right_table,
                     const std::string& right_col);
  QueryBuilder& GroupBy(const std::string& table_name,
                        const std::string& column);
  QueryBuilder& Aggregate(AggKind kind);
  QueryBuilder& OrderBy(const std::string& table_name,
                        const std::string& column, bool ascending = true);

  /// Validates and returns the built query.
  StatusOr<Query> Build();

 private:
  StatusOr<ColumnRef> Resolve(const std::string& table_name,
                              const std::string& column);

  const Catalog* catalog_;
  Query query_;
  Status deferred_error_;
};

}  // namespace pinum

#endif  // PINUM_QUERY_QUERY_H_
