// Cross-query sharing of access-cost optimizer calls (the workload-scale
// extension of Section V-B/V-C): per-table access costs depend only on
// the table's statistics and the query's column footprint on that table
// (filters, needed columns, interesting orders — see
// BuildTableAccessInfo and the collector's order truncation), so two
// queries of one build batch with the same footprint on a table can
// share one optimizer call's answer instead of paying for two.
#ifndef PINUM_INUM_ACCESS_COST_STORE_H_
#define PINUM_INUM_ACCESS_COST_STORE_H_

#include <map>
#include <mutex>
#include <string>

#include "catalog/types.h"
#include "optimizer/scan_builder.h"
#include "query/query.h"

namespace pinum {

/// Canonical signature of `query`'s access-cost context on `table`: the
/// exact inputs the access-path collector consumes — sorted needed
/// columns, the filter predicates in Query::FiltersOn's canonical order
/// (the order BuildTableAccessInfo multiplies their selectivities in),
/// the sorted join columns (which shape the probe options), and the
/// table's interesting orders from PerTableInterestingOrders, the set
/// the collector truncates every delivered order to. Queries with equal
/// signatures receive bit-identical TableAccessInfo from the collector,
/// by construction.
std::string TableContextSignature(const Query& query, TableId table);

/// Thread-safe store of access-cost answers shared by the PINUM builds
/// of one batch (fixed catalog, candidate universe, and statistics —
/// callers must not mix worlds in one store). WorkloadCacheBuilder makes
/// one per BuildAll or RebuildQueries batch and drops it when the batch
/// ends, so no answer outlives the world it was computed in. One entry
/// per table signature: the keep-all-access-paths answer with the whole
/// candidate universe visible.
///
/// Values for equal keys are identical, so concurrent builders may
/// compute the same entry twice without affecting results — first writer
/// wins, and duplicated work only shows up in the call accounting.
/// WorkloadCacheBuilder builds each distinct statement once, so a
/// statement skips its call only when other statements of its batch
/// cover every one of its table footprints (a reordered SELECT list, for
/// one). In the generated workload families no statement is covered
/// that way, so their call counts do not depend on scheduling.
class SharedAccessCostStore {
 public:
  /// Universe-visible info for (table, signature). Returns true and
  /// copies into `out` on hit; `out->pos` is the stored query's position
  /// and must be remapped by the caller.
  bool LookupTable(const std::string& signature, TableAccessInfo* out) const;
  void StoreTable(const std::string& signature, const TableAccessInfo& info);

 private:
  mutable std::mutex mu_;
  std::map<std::string, TableAccessInfo> by_table_;
};

}  // namespace pinum

#endif  // PINUM_INUM_ACCESS_COST_STORE_H_
