#include "inum/access_cost_store.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "optimizer/interesting_orders.h"

namespace pinum {

std::string TableContextSignature(const Query& query, TableId table) {
  std::vector<ColumnIdx> needed = query.NeededColumns(table);
  std::sort(needed.begin(), needed.end());

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
  for (const FilterPredicate& f : query.FiltersOn(table)) {
    sig << f.column.column << ":" << static_cast<int>(f.op) << ":"
        << f.constant << ",";
  }
  sig << "|j";
  for (ColumnIdx c : join_cols) sig << c << ",";
  // The table's interesting orders, sorted and unique: the collector
  // truncates every delivered order to them, so they shape the answer
  // as much as the join columns do.
  sig << "|o";
  const int pos = query.PosOfTable(table);
  if (pos >= 0) {
    const auto orders = PerTableInterestingOrders(query);
    for (const ColumnRef& c : orders[static_cast<size_t>(pos)]) {
      sig << c.column << ",";
    }
  }
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

}  // namespace pinum
