// Classic INUM cache construction (the paper's baseline): one optimizer
// call per interesting-order combination for the plan cache, plus one
// optimizer call per candidate index for access costs.
#ifndef PINUM_INUM_INUM_BUILDER_H_
#define PINUM_INUM_INUM_BUILDER_H_

#include <cstdint>

#include "inum/cache.h"
#include "optimizer/interesting_orders.h"
#include "optimizer/knobs.h"
#include "query/query.h"
#include "stats/table_stats.h"
#include "whatif/candidate_set.h"

namespace pinum {

/// Knobs for the classic build.
struct InumBuildOptions {
  PlannerKnobs base_knobs;
};

/// Build-time accounting, the quantities plotted in Figure 4/5.
struct InumBuildStats {
  int64_t plan_cache_calls = 0;
  int64_t access_cost_calls = 0;
  double plan_cache_ms = 0;
  double access_cost_ms = 0;
  uint64_t iocs_enumerated = 0;
  size_t plans_cached = 0;
};

/// Fills an InumCache for `query` the classic way:
///  - enumerate every IOC; for each, create single-column what-if indexes
///    covering it and invoke the optimizer twice, with NLJ off and on
///    (the paper: "INUM caches two optimal plans for each interesting
///    order combination, one with nested loop joins and one without"),
///    caching each winning plan; base_knobs.enable_nestloop = false
///    skips the second call;
///  - for every candidate index on the query's tables, invoke the
///    optimizer once with only that index visible to learn its access
///    costs; a query with no such candidate makes one call over
///    `base_catalog` instead, so its plans still price the heap.
StatusOr<InumCache> BuildInumCacheClassic(const Query& query,
                                          const Catalog& base_catalog,
                                          const CandidateSet& candidates,
                                          const StatsCatalog& stats,
                                          const InumBuildOptions& options,
                                          InumBuildStats* build_stats);

/// Creates single-column covering what-if indexes for each non-Phi entry
/// of `ioc` (shared with the PINUM builder, which covers all interesting
/// orders at once).
StatusOr<Catalog> CatalogCoveringIoc(const Catalog& base, const Ioc& ioc,
                                     const Query& query,
                                     const StatsCatalog& stats);

}  // namespace pinum

#endif  // PINUM_INUM_INUM_BUILDER_H_
