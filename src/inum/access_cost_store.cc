#include "inum/access_cost_store.h"

#include <algorithm>
#include <sstream>
#include <vector>

namespace pinum {

std::string TableContextSignature(const Query& query, TableId table) {
  std::vector<ColumnIdx> needed = query.NeededColumns(table);
  std::sort(needed.begin(), needed.end());

  std::vector<FilterPredicate> filters = query.FiltersOn(table);
  std::sort(filters.begin(), filters.end(),
            [](const FilterPredicate& a, const FilterPredicate& b) {
              if (a.column != b.column) return a.column < b.column;
              if (a.op != b.op) return a.op < b.op;
              return a.constant < b.constant;
            });

  std::vector<ColumnIdx> join_cols;
  for (const JoinPredicate& j : query.joins) {
    if (j.Touches(table)) join_cols.push_back(j.SideOn(table).column);
  }
  std::sort(join_cols.begin(), join_cols.end());
  join_cols.erase(std::unique(join_cols.begin(), join_cols.end()),
                  join_cols.end());

  std::ostringstream sig;
  sig << "t" << table << "|n";
  for (ColumnIdx c : needed) sig << c << ",";
  sig << "|f";
  for (const FilterPredicate& f : filters) {
    sig << f.column.column << ":" << static_cast<int>(f.op) << ":"
        << f.constant << ",";
  }
  sig << "|j";
  for (ColumnIdx c : join_cols) sig << c << ",";
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
