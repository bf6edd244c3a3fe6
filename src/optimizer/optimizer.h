// Optimizer facade: the entry point equivalent to PostgreSQL's
// planner(), with the PINUM hooks of Figure 3.
#ifndef PINUM_OPTIMIZER_OPTIMIZER_H_
#define PINUM_OPTIMIZER_OPTIMIZER_H_

#include <cstdint>
#include <vector>

#include "catalog/catalog.h"
#include "optimizer/knobs.h"
#include "optimizer/path.h"
#include "optimizer/scan_builder.h"
#include "query/query.h"
#include "stats/table_stats.h"

namespace pinum {

/// Result of one optimizer call.
struct OptimizeResult {
  /// The winning plan (always set).
  PathPtr best;
  /// With hooks.export_all_plans: one optimal finalized plan per useful
  /// interesting-order combination (Section V-D). Contains only `best`
  /// otherwise.
  std::vector<PathPtr> exported;
  /// Planning-effort proxy: number of paths offered to add_path.
  int64_t paths_considered = 0;
};

/// Bottom-up, dynamic-programming query optimizer.
class Optimizer {
 public:
  Optimizer(const Catalog* catalog, const StatsCatalog* stats)
      : catalog_(catalog), stats_(stats) {}

  /// Optimizes `query` under `knobs`.
  StatusOr<OptimizeResult> Optimize(const Query& query,
                                    const PlannerKnobs& knobs) const;

  /// Runs only the Access Path Collector (Figure 3's access-cost export,
  /// Section V-C): one TableAccessInfo per query table position, holding
  /// every visible index's scan and probe options — not just the
  /// cheapest per order — with delivered orders truncated to the query's
  /// interesting orders exactly as Optimize sees them. No join or
  /// grouping planning runs, so no plan is built. Both cache builders
  /// take their access costs from here; each use counts as one
  /// optimizer call.
  StatusOr<std::vector<TableAccessInfo>> CollectAccessPaths(
      const Query& query, const PlannerKnobs& knobs) const;

 private:
  const Catalog* catalog_;
  const StatsCatalog* stats_;
};

}  // namespace pinum

#endif  // PINUM_OPTIMIZER_OPTIMIZER_H_
