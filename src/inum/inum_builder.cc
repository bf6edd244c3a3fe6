#include "inum/inum_builder.h"

#include <string>

#include "common/failpoint.h"
#include "common/stopwatch.h"
#include "optimizer/interesting_orders.h"
#include "optimizer/optimizer.h"
#include "whatif/whatif_index.h"

namespace pinum {

StatusOr<Catalog> CatalogCoveringIoc(const Catalog& base, const Ioc& ioc,
                                     const Query& query,
                                     const StatsCatalog& stats) {
  std::vector<IndexDef> covering;
  for (size_t pos = 0; pos < ioc.size(); ++pos) {
    const ColumnRef col = ioc[pos];
    if (!col.valid()) continue;
    const TableDef* table = base.FindTable(col.table);
    const TableStats* tstats = stats.Find(col.table);
    if (table == nullptr || tstats == nullptr) {
      return Status::NotFound("missing table/stats while covering IOC");
    }
    covering.push_back(MakeWhatIfIndex(
        "__cov_" + query.name + "_" + std::to_string(pos) + "_" +
            std::to_string(col.column),
        *table, {col.column}, tstats->row_count));
  }
  return CatalogWithIndexes(base, covering, nullptr);
}

StatusOr<InumCache> BuildInumCacheClassic(const Query& query,
                                          const Catalog& base_catalog,
                                          const CandidateSet& candidates,
                                          const StatsCatalog& stats,
                                          const InumBuildOptions& options,
                                          InumBuildStats* build_stats) {
  InumCache cache;
  InumBuildStats local;

  // ---- Phase 1: plan cache, one (or two) optimizer calls per IOC. ----
  Stopwatch plan_timer;
  IocEnumerator iocs(PerTableInterestingOrders(query));
  Ioc ioc;
  while (iocs.Next(&ioc)) {
    ++local.iocs_enumerated;
    PINUM_ASSIGN_OR_RETURN(
        Catalog covering,
        CatalogCoveringIoc(base_catalog, ioc, query, stats));
    Optimizer opt(&covering, &stats);

    PlannerKnobs knobs = options.base_knobs;
    knobs.hooks = PlannerHooks{};  // stock optimizer: no hooks
    knobs.enable_nestloop = false;
    // Fault injection: one hit per plan-cache optimizer invocation, so a
    // test can fail or stall exactly the k-th call of a (re)build.
    PINUM_RETURN_IF_ERROR(FailPoint::Check("inum.plan_optimizer_call"));
    PINUM_ASSIGN_OR_RETURN(OptimizeResult no_nlj, opt.Optimize(query, knobs));
    cache.AddPlan(*no_nlj.best, covering, !query.order_by.empty());
    ++local.plan_cache_calls;

    if (options.base_knobs.enable_nestloop) {
      knobs.enable_nestloop = true;
      PINUM_RETURN_IF_ERROR(FailPoint::Check("inum.plan_optimizer_call"));
      PINUM_ASSIGN_OR_RETURN(OptimizeResult with_nlj,
                             opt.Optimize(query, knobs));
      cache.AddPlan(*with_nlj.best, covering, !query.order_by.empty());
      ++local.plan_cache_calls;
    }
  }
  local.plan_cache_ms = plan_timer.ElapsedMillis();

  // ---- Phase 2: access costs, one optimizer call per candidate index
  // on the query's tables ("the optimizer can be queried with a single
  // index per each table and the access cost determined by parsing the
  // generated plan", Section V-B). Every call also answers the heap
  // (and base indexes) of every table; a query with no such candidate
  // makes that call once over the base catalog. ----
  Stopwatch access_timer;
  auto collect_access = [&](const Catalog& visible) -> Status {
    Optimizer opt(&visible, &stats);
    // The collector's output stands in for parsing the generated plan.
    PINUM_RETURN_IF_ERROR(FailPoint::Check("inum.access_optimizer_call"));
    PINUM_ASSIGN_OR_RETURN(std::vector<TableAccessInfo> access,
                           opt.CollectAccessPaths(query, options.base_knobs));
    for (const auto& info : access) cache.mutable_access()->Absorb(info);
    ++local.access_cost_calls;
    return Status::OK();
  };
  for (IndexId candidate : candidates.candidate_ids) {
    const IndexDef* def = candidates.universe.FindIndex(candidate);
    if (def == nullptr || query.PosOfTable(def->table) < 0) continue;
    PINUM_RETURN_IF_ERROR(collect_access(candidates.Subset({candidate})));
  }
  if (local.access_cost_calls == 0) {
    PINUM_RETURN_IF_ERROR(collect_access(base_catalog));
  }
  local.access_cost_ms = access_timer.ElapsedMillis();

  local.plans_cached = cache.NumPlans();
  if (build_stats != nullptr) *build_stats = local;
  return cache;
}

}  // namespace pinum
