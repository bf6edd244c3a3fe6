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
  ++hits_;
  *out = it->second;
  return true;
}

void SharedAccessCostStore::StoreTable(const std::string& signature,
                                       const TableAccessInfo& info) {
  std::lock_guard<std::mutex> lock(mu_);
  by_table_.emplace(signature, info);
  // The universe-visible answer is authoritative for the fallback tier:
  // it must replace any narrower answer stored earlier under the same
  // signature, never be masked by it.
  fallback_.insert_or_assign(signature, info);
}

bool SharedAccessCostStore::LookupCandidate(IndexId candidate,
                                            const std::string& signature,
                                            TableAccessInfo* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_candidate_.find({candidate, signature});
  if (it == by_candidate_.end()) return false;
  ++hits_;
  *out = it->second;
  return true;
}

void SharedAccessCostStore::StoreCandidate(IndexId candidate,
                                           const std::string& signature,
                                           const TableAccessInfo& info) {
  std::lock_guard<std::mutex> lock(mu_);
  // Candidate-specific answers never reach the fallback tier: the info
  // carries one candidate's access paths, and a first-wins write here
  // would permanently mask the base-table answer for this signature.
  by_candidate_.emplace(std::make_pair(candidate, signature), info);
}

void SharedAccessCostStore::StoreFallback(const std::string& signature,
                                          const TableAccessInfo& info) {
  std::lock_guard<std::mutex> lock(mu_);
  fallback_.emplace(signature, info);
}

bool SharedAccessCostStore::LookupFallback(const std::string& signature,
                                           TableAccessInfo* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = fallback_.find(signature);
  if (it == fallback_.end()) return false;
  *out = it->second;
  return true;
}

size_t SharedAccessCostStore::InvalidateTables(
    const std::vector<TableId>& tables) {
  std::lock_guard<std::mutex> lock(mu_);
  auto hit = [&](const TableAccessInfo& info) {
    return std::find(tables.begin(), tables.end(), info.table) !=
           tables.end();
  };
  size_t erased = 0;
  auto sweep = [&](auto* map) {
    for (auto it = map->begin(); it != map->end();) {
      if (hit(it->second)) {
        it = map->erase(it);
        ++erased;
      } else {
        ++it;
      }
    }
  };
  sweep(&by_table_);
  sweep(&by_candidate_);
  sweep(&fallback_);
  return erased;
}

int64_t SharedAccessCostStore::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

}  // namespace pinum
