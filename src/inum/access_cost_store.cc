#include "inum/access_cost_store.h"

#include <algorithm>
#include <sstream>
#include <vector>

namespace pinum {

std::string TableContextSignature(const Query& query, TableId table) {
  std::vector<ColumnIdx> needed = query.NeededColumns(table);
  std::sort(needed.begin(), needed.end());

  auto sorted_unique = [](std::vector<ColumnIdx>* cols) {
    std::sort(cols->begin(), cols->end());
    cols->erase(std::unique(cols->begin(), cols->end()), cols->end());
  };
  std::vector<ColumnIdx> join_cols;
  for (const JoinPredicate& j : query.joins) {
    if (j.Touches(table)) join_cols.push_back(j.SideOn(table).column);
  }
  sorted_unique(&join_cols);
  // The rest of the table's interesting orders: the collector truncates
  // every delivered order to them, so they shape the answer as much as
  // the join columns do.
  std::vector<ColumnIdx> order_cols;
  for (const ColumnRef& g : query.group_by) {
    if (g.table == table) order_cols.push_back(g.column);
  }
  for (const SortKey& o : query.order_by) {
    if (o.column.table == table) order_cols.push_back(o.column.column);
  }
  sorted_unique(&order_cols);

  std::ostringstream sig;
  sig << "t" << table << "|n";
  for (ColumnIdx c : needed) sig << c << ",";
  sig << "|f";
  for (const FilterPredicate& f : query.FiltersOn(table)) {
    sig << f.column.column << ":" << static_cast<int>(f.op) << ":"
        << f.constant << ",";
  }
  sig << "|j";
  for (ColumnIdx c : join_cols) sig << c << ",";
  sig << "|o";
  for (ColumnIdx c : order_cols) sig << c << ",";
  return sig.str();
}

bool SharedAccessCostStore::LookupTable(const std::string& signature,
                                        TableAccessInfo* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_table_.find(signature);
  if (it == by_table_.end()) return false;
  *out = it->second;
  return true;
}

void SharedAccessCostStore::StoreTable(const std::string& signature,
                                       const TableAccessInfo& info) {
  std::lock_guard<std::mutex> lock(mu_);
  by_table_.emplace(signature, info);
}

size_t SharedAccessCostStore::InvalidateTables(
    const std::vector<TableId>& tables) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t erased = 0;
  for (auto it = by_table_.begin(); it != by_table_.end();) {
    if (std::find(tables.begin(), tables.end(), it->second.table) !=
        tables.end()) {
      it = by_table_.erase(it);
      ++erased;
    } else {
      ++it;
    }
  }
  return erased;
}

}  // namespace pinum
