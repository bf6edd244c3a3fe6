// Cross-query sharing of access-cost optimizer calls (the workload-scale
// extension of Section V-B/V-C): per-table access costs depend only on
// the table's statistics and the query's column footprint on that table
// (filters, needed columns, interesting orders — see
// BuildTableAccessInfo and the collector's order truncation), so two
// workload queries with the same footprint on a table can share one
// optimizer call's answer instead of paying for two.
#ifndef PINUM_INUM_ACCESS_COST_STORE_H_
#define PINUM_INUM_ACCESS_COST_STORE_H_

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "catalog/types.h"
#include "optimizer/scan_builder.h"
#include "query/query.h"

namespace pinum {

/// Canonical signature of `query`'s access-cost context on `table`: the
/// exact inputs the access-path collector consumes — sorted needed
/// columns, the filter predicates in Query::FiltersOn's canonical order
/// (the order BuildTableAccessInfo multiplies their selectivities in),
/// and the table's sorted interesting orders: join columns plus
/// GROUP BY/ORDER BY columns, to which the collector truncates every
/// delivered order. Queries with equal signatures receive bit-identical
/// TableAccessInfo from the collector, by construction.
std::string TableContextSignature(const Query& query, TableId table);

/// Thread-safe store of access-cost answers shared by every per-query
/// PINUM build of one workload (fixed catalog, candidate universe, and
/// statistics — callers must not mix workloads in one store). One entry
/// per table signature: the keep-all-access-paths answer with the whole
/// candidate universe visible.
///
/// Values for equal keys are identical, so concurrent builders may
/// compute the same entry twice without affecting results — first writer
/// wins, and duplicated work only shows up in the call accounting.
/// WorkloadCacheBuilder builds each distinct statement once, so within
/// one BuildAll a query skips its call only when other statements cover
/// every one of its table footprints. In the generated workload families
/// no statement is covered that way, so their BuildAll call counts do
/// not depend on scheduling. RebuildQueries' counts still can: after a
/// drift invalidates a table, stale statements rebuilt together in one
/// pool share its re-stored entries, and which of them pays the call
/// depends on which finishes first.
class SharedAccessCostStore {
 public:
  /// Universe-visible info for (table, signature). Returns true and
  /// copies into `out` on hit; `out->pos` is the stored query's position
  /// and must be remapped by the caller.
  bool LookupTable(const std::string& signature, TableAccessInfo* out) const;
  void StoreTable(const std::string& signature, const TableAccessInfo& info);

  /// Drops every stored answer whose table is in `tables`, returning how
  /// many entries were erased. The incremental reseal path calls this
  /// with exactly the tables whose statistics / schema / index slice
  /// drifted, so answers for unchanged tables keep serving later
  /// rebuilds — the "still-valid cross-query shared access costs" half
  /// of the reseal contract. Entries for unchanged tables are exactly
  /// the ones whose values a fresh optimizer call would reproduce, so
  /// keeping them never changes rebuilt caches.
  size_t InvalidateTables(const std::vector<TableId>& tables);

 private:
  mutable std::mutex mu_;
  std::map<std::string, TableAccessInfo> by_table_;
};

}  // namespace pinum

#endif  // PINUM_INUM_ACCESS_COST_STORE_H_
