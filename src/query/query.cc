#include "query/query.h"

#include <algorithm>
#include <set>
#include <sstream>

namespace pinum {

std::vector<ColumnIdx> Query::NeededColumns(TableId table) const {
  std::set<ColumnIdx> cols;
  for (const auto& c : select) {
    if (c.table == table) cols.insert(c.column);
  }
  for (const auto& f : filters) {
    if (f.column.table == table) cols.insert(f.column.column);
  }
  for (const auto& j : joins) {
    if (j.left.table == table) cols.insert(j.left.column);
    if (j.right.table == table) cols.insert(j.right.column);
  }
  for (const auto& g : group_by) {
    if (g.table == table) cols.insert(g.column);
  }
  for (const auto& o : order_by) {
    if (o.column.table == table) cols.insert(o.column.column);
  }
  return {cols.begin(), cols.end()};
}

std::vector<FilterPredicate> Query::FiltersOn(TableId table) const {
  std::vector<FilterPredicate> out;
  for (const auto& f : filters) {
    if (f.column.table == table) out.push_back(f);
  }
  std::sort(out.begin(), out.end(),
            [](const FilterPredicate& a, const FilterPredicate& b) {
              if (a.column != b.column) return a.column < b.column;
              if (a.op != b.op) return a.op < b.op;
              return a.constant < b.constant;
            });
  return out;
}

bool Query::SameStatement(const Query& other) const {
  return tables == other.tables && select == other.select &&
         filters == other.filters && joins == other.joins &&
         group_by == other.group_by && aggregate == other.aggregate &&
         order_by == other.order_by;
}

namespace {
std::string Qualify(const Catalog& catalog, ColumnRef c) {
  const TableDef* t = catalog.FindTable(c.table);
  if (t == nullptr) return "?.?";
  return t->name + "." + t->columns[static_cast<size_t>(c.column)].name;
}
}  // namespace

std::string Query::ToSql(const Catalog& catalog) const {
  std::ostringstream sql;
  sql << "SELECT ";
  for (size_t i = 0; i < select.size(); ++i) {
    if (i > 0) sql << ", ";
    const bool grouped =
        std::find(group_by.begin(), group_by.end(), select[i]) !=
        group_by.end();
    if (aggregate != AggKind::kNone && !group_by.empty() && !grouped) {
      const char* fn = aggregate == AggKind::kSum     ? "SUM"
                       : aggregate == AggKind::kCount ? "COUNT"
                       : aggregate == AggKind::kMin   ? "MIN"
                                                      : "MAX";
      sql << fn << "(" << Qualify(catalog, select[i]) << ")";
    } else {
      sql << Qualify(catalog, select[i]);
    }
  }
  sql << " FROM ";
  for (size_t i = 0; i < tables.size(); ++i) {
    if (i > 0) sql << ", ";
    const TableDef* t = catalog.FindTable(tables[i]);
    sql << (t != nullptr ? t->name : "?");
  }
  bool first_pred = true;
  auto pred_sep = [&]() -> const char* {
    const char* sep = first_pred ? " WHERE " : " AND ";
    first_pred = false;
    return sep;
  };
  for (const auto& j : joins) {
    sql << pred_sep() << Qualify(catalog, j.left) << " = "
        << Qualify(catalog, j.right);
  }
  for (const auto& f : filters) {
    sql << pred_sep() << Qualify(catalog, f.column) << " "
        << CompareOpName(f.op) << " " << f.constant;
  }
  if (!group_by.empty()) {
    sql << " GROUP BY ";
    for (size_t i = 0; i < group_by.size(); ++i) {
      if (i > 0) sql << ", ";
      sql << Qualify(catalog, group_by[i]);
    }
  }
  if (!order_by.empty()) {
    sql << " ORDER BY ";
    for (size_t i = 0; i < order_by.size(); ++i) {
      if (i > 0) sql << ", ";
      sql << Qualify(catalog, order_by[i].column)
          << (order_by[i].ascending ? "" : " DESC");
    }
  }
  return sql.str();
}

QueryBuilder& QueryBuilder::Named(std::string name) {
  query_.name = std::move(name);
  return *this;
}

StatusOr<ColumnRef> QueryBuilder::Resolve(const std::string& table_name,
                                          const std::string& column) {
  const TableDef* t = catalog_->FindTableByName(table_name);
  if (t == nullptr) {
    return Status::NotFound("unknown table '" + table_name + "'");
  }
  const ColumnIdx c = t->FindColumn(column);
  if (c < 0) {
    return Status::NotFound("unknown column '" + table_name + "." + column +
                            "'");
  }
  return ColumnRef{t->id, c};
}

QueryBuilder& QueryBuilder::From(const std::string& table_name) {
  const TableDef* t = catalog_->FindTableByName(table_name);
  if (t == nullptr) {
    deferred_error_ = Status::NotFound("unknown table '" + table_name + "'");
    return *this;
  }
  query_.tables.push_back(t->id);
  return *this;
}

QueryBuilder& QueryBuilder::Select(const std::string& table_name,
                                   const std::string& column) {
  auto ref = Resolve(table_name, column);
  if (!ref.ok()) {
    deferred_error_ = ref.status();
    return *this;
  }
  query_.select.push_back(*ref);
  return *this;
}

QueryBuilder& QueryBuilder::Where(const std::string& table_name,
                                  const std::string& column, CompareOp op,
                                  Value constant) {
  auto ref = Resolve(table_name, column);
  if (!ref.ok()) {
    deferred_error_ = ref.status();
    return *this;
  }
  query_.filters.push_back({*ref, op, constant});
  return *this;
}

QueryBuilder& QueryBuilder::Join(const std::string& left_table,
                                 const std::string& left_col,
                                 const std::string& right_table,
                                 const std::string& right_col) {
  auto l = Resolve(left_table, left_col);
  auto r = Resolve(right_table, right_col);
  if (!l.ok() || !r.ok()) {
    deferred_error_ = !l.ok() ? l.status() : r.status();
    return *this;
  }
  query_.joins.push_back({*l, *r});
  return *this;
}

QueryBuilder& QueryBuilder::GroupBy(const std::string& table_name,
                                    const std::string& column) {
  auto ref = Resolve(table_name, column);
  if (!ref.ok()) {
    deferred_error_ = ref.status();
    return *this;
  }
  query_.group_by.push_back(*ref);
  return *this;
}

QueryBuilder& QueryBuilder::Aggregate(AggKind kind) {
  query_.aggregate = kind;
  return *this;
}

QueryBuilder& QueryBuilder::OrderBy(const std::string& table_name,
                                    const std::string& column,
                                    bool ascending) {
  auto ref = Resolve(table_name, column);
  if (!ref.ok()) {
    deferred_error_ = ref.status();
    return *this;
  }
  query_.order_by.push_back({*ref, ascending});
  return *this;
}

StatusOr<Query> QueryBuilder::Build() {
  if (!deferred_error_.ok()) return deferred_error_;
  if (query_.tables.empty()) {
    return Status::InvalidArgument("query has no FROM tables");
  }
  if (query_.select.empty()) {
    return Status::InvalidArgument("query has empty select list");
  }
  // Every referenced table must appear in FROM.
  auto check_ref = [&](ColumnRef c) {
    return query_.PosOfTable(c.table) >= 0;
  };
  for (const auto& c : query_.select) {
    if (!check_ref(c)) {
      return Status::InvalidArgument("select references table not in FROM");
    }
  }
  for (const auto& f : query_.filters) {
    if (!check_ref(f.column)) {
      return Status::InvalidArgument("filter references table not in FROM");
    }
  }
  for (const auto& j : query_.joins) {
    if (!check_ref(j.left) || !check_ref(j.right) ||
        j.left.table == j.right.table) {
      return Status::InvalidArgument("malformed join predicate");
    }
  }
  return query_;
}

}  // namespace pinum
