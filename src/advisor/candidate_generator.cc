#include "advisor/candidate_generator.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "whatif/whatif_index.h"

namespace pinum {

namespace {

/// Stable dedup key for (table, key column list).
std::string KeyOf(TableId table, const std::vector<ColumnIdx>& cols) {
  std::ostringstream key;
  key << table << ":";
  for (ColumnIdx c : cols) key << c << ",";
  return key.str();
}

}  // namespace

std::vector<IndexDef> GenerateCandidates(const std::vector<Query>& workload,
                                         const Catalog& catalog,
                                         const StatsCatalog& stats,
                                         const CandidateOptions& options) {
  std::vector<IndexDef> out;
  std::set<std::string> seen;
  int counter = 0;

  auto emit = [&](TableId table, const std::vector<ColumnIdx>& cols) {
    if (cols.empty()) return;
    if (options.max_candidates > 0 && out.size() >= options.max_candidates) {
      return;
    }
    const std::string key = KeyOf(table, cols);
    if (!seen.insert(key).second) return;
    const TableDef* def = catalog.FindTable(table);
    const TableStats* tstats = stats.Find(table);
    if (def == nullptr || tstats == nullptr) return;
    out.push_back(MakeWhatIfIndex("cand_" + std::to_string(counter++) + "_" +
                                      def->name,
                                  *def, cols, tstats->row_count));
  };

  for (const Query& q : workload) {
    for (TableId table : q.tables) {
      // Interesting columns: filters, joins, order-by, group-by.
      std::vector<ColumnIdx> interesting;
      auto add_interesting = [&](ColumnRef c) {
        if (c.table == table &&
            std::find(interesting.begin(), interesting.end(), c.column) ==
                interesting.end()) {
          interesting.push_back(c.column);
        }
      };
      for (const auto& f : q.filters) add_interesting(f.column);
      for (const auto& j : q.joins) {
        if (j.Touches(table)) add_interesting(j.SideOn(table));
      }
      for (const auto& o : q.order_by) add_interesting(o.column);
      for (const auto& g : q.group_by) add_interesting(g);

      const std::vector<ColumnIdx> needed = q.NeededColumns(table);

      for (ColumnIdx lead : interesting) {
        emit(table, {lead});
        std::vector<ColumnIdx> cols = {lead};
        for (ColumnIdx c : needed) {
          if (c != lead) cols.push_back(c);
        }
        if (cols.size() > 1) emit(table, cols);
      }
      // Pure covering index (index-only scans without a useful order).
      if (!needed.empty()) emit(table, needed);
    }
  }

  // Workload-covering candidates: per table, each filter column leading
  // the union of all columns the workload reads from the table.
  std::map<TableId, std::set<ColumnIdx>> unions;
  std::map<TableId, std::set<ColumnIdx>> filter_cols;
  for (const Query& q : workload) {
    for (TableId table : q.tables) {
      const auto needed = q.NeededColumns(table);
      unions[table].insert(needed.begin(), needed.end());
    }
    for (const auto& f : q.filters) {
      filter_cols[f.column.table].insert(f.column.column);
    }
  }
  for (const auto& [table, cols] : unions) {
    for (ColumnIdx lead : filter_cols[table]) {
      std::vector<ColumnIdx> key = {lead};
      for (ColumnIdx c : cols) {
        if (c != lead) key.push_back(c);
      }
      if (key.size() > 1) emit(table, key);
    }
  }
  return out;
}

}  // namespace pinum
