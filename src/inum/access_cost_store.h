// Cross-query sharing of access-cost optimizer calls (the workload-scale
// extension of Section V-B/V-C): per-table access costs depend only on
// the table's statistics and the query's column footprint on that table
// (filters, needed columns, join columns — see BuildTableAccessInfo), so
// two workload queries with the same footprint on a table can share one
// optimizer call's answer instead of paying for two.
#ifndef PINUM_INUM_ACCESS_COST_STORE_H_
#define PINUM_INUM_ACCESS_COST_STORE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "catalog/types.h"
#include "optimizer/scan_builder.h"
#include "query/query.h"

namespace pinum {

/// Canonical signature of `query`'s access-cost context on `table`: the
/// exact inputs BuildTableAccessInfo consumes — sorted needed columns,
/// sorted filter predicates, and sorted join columns on the table.
/// Queries with equal signatures receive numerically identical
/// TableAccessInfo from the optimizer, by construction.
std::string TableContextSignature(const Query& query, TableId table);

/// Thread-safe store of access-cost answers shared by every per-query
/// cache build of one workload (fixed catalog, candidate universe, and
/// statistics — callers must not mix workloads in one store).
///
/// Two granularities, matching the two build procedures:
///  - per-table (PINUM): the keep-all-access-paths answer with the whole
///    candidate universe visible;
///  - per-candidate (classic INUM): the answer for the candidate's table
///    with only that candidate (plus base indexes) visible.
/// A heap-only tier serves sequential-scan costs for tables whose every
/// candidate call was deduplicated away.
///
/// Values for equal keys are identical, so concurrent builders may
/// compute the same entry twice without affecting results — first writer
/// wins, and duplicated work only shows up in the call accounting.
class SharedAccessCostStore {
 public:
  /// Universe-visible info for (table, signature). Returns true and
  /// copies into `out` on hit; `out->pos` is the stored query's position
  /// and must be remapped by the caller.
  bool LookupTable(const std::string& signature, TableAccessInfo* out) const;
  void StoreTable(const std::string& signature, const TableAccessInfo& info);

  /// Single-candidate info for (candidate, table signature).
  bool LookupCandidate(IndexId candidate, const std::string& signature,
                       TableAccessInfo* out) const;
  void StoreCandidate(IndexId candidate, const std::string& signature,
                      const TableAccessInfo& info);

  /// Fallback info for a table signature. Serves tables none of whose
  /// candidate calls ran (classic builds with every call shared): under
  /// equal footprints the stored answer — heap plus whatever indexes its
  /// call saw — is exactly what an unshared build would have absorbed for
  /// the table. Write ordering: StoreTable's universe-visible answer is
  /// authoritative (overwrites); StoreFallback's base-only answers are
  /// first-wins (equal keys carry identical values); StoreCandidate never
  /// writes this tier, so a candidate-specific answer can never mask the
  /// base-table one.
  bool LookupFallback(const std::string& signature,
                      TableAccessInfo* out) const;
  /// Registers `info` under `signature` (classic builds call this for
  /// every table of every un-shared answer, since their per-candidate
  /// entries only cover the candidate's own table).
  void StoreFallback(const std::string& signature,
                     const TableAccessInfo& info);

  /// Drops every stored answer (all three tiers) whose table is in
  /// `tables`, returning how many entries were erased. The incremental
  /// reseal path calls this with exactly the tables whose statistics /
  /// schema / index slice drifted, so answers for unchanged tables keep
  /// serving later rebuilds — the "still-valid cross-query shared
  /// access costs" half of the reseal contract. Entries for unchanged
  /// tables are exactly the ones whose values a fresh optimizer call
  /// would reproduce, so keeping them never changes rebuilt caches.
  size_t InvalidateTables(const std::vector<TableId>& tables);

  int64_t hits() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, TableAccessInfo> by_table_;
  std::map<std::pair<IndexId, std::string>, TableAccessInfo> by_candidate_;
  std::map<std::string, TableAccessInfo> fallback_;
  mutable int64_t hits_ = 0;
};

}  // namespace pinum

#endif  // PINUM_INUM_ACCESS_COST_STORE_H_
