#include "optimizer/optimizer.h"

#include <algorithm>

#include "optimizer/grouping_planner.h"
#include "optimizer/interesting_orders.h"
#include "optimizer/join_planner.h"
#include "optimizer/planner_context.h"

namespace pinum {

namespace {

/// Truncates each scan option's delivered order to its useful prefix:
/// PostgreSQL keeps index pathkeys only when they match an interesting
/// order of the query (the Access Path Collector filtering of
/// Section III). For the paper's single-column interesting orders this
/// reduces to: keep the leading column iff it is interesting.
void TruncateToUsefulOrders(PlannerContext* ctx) {
  const auto interesting = PerTableInterestingOrders(*ctx->query);
  for (auto& rel : ctx->rels) {
    const auto& useful = interesting[static_cast<size_t>(rel.pos)];
    for (auto& opt : rel.options) {
      if (opt.order.empty()) continue;
      const ColumnRef lead = opt.order.Leading();
      const bool is_useful =
          std::find(useful.begin(), useful.end(), lead) != useful.end();
      opt.order = is_useful ? OrderSpec::Single(lead) : OrderSpec::None();
    }
  }
}

/// BuildPlannerContext plus the collector's order filtering: everything
/// the planners start from.
StatusOr<PlannerContext> CollectorContext(const Query& query,
                                          const Catalog& catalog,
                                          const StatsCatalog& stats,
                                          const PlannerKnobs& knobs) {
  PINUM_ASSIGN_OR_RETURN(PlannerContext ctx,
                         BuildPlannerContext(query, catalog, stats, knobs));
  TruncateToUsefulOrders(&ctx);
  return ctx;
}

}  // namespace

StatusOr<OptimizeResult> Optimizer::Optimize(const Query& query,
                                             const PlannerKnobs& knobs) const {
  PINUM_ASSIGN_OR_RETURN(PlannerContext ctx,
                         CollectorContext(query, *catalog_, *stats_, knobs));

  JoinPlanner joiner(&ctx);
  PINUM_ASSIGN_OR_RETURN(std::vector<PathPtr> tops, joiner.Run());
  PINUM_ASSIGN_OR_RETURN(std::vector<PathPtr> finals,
                         FinalizePlans(ctx, tops));

  OptimizeResult result;
  result.paths_considered = joiner.paths_considered();
  result.best = finals[0];
  for (const auto& p : finals) {
    if (p->cost.total < result.best->cost.total) result.best = p;
  }
  if (knobs.hooks.export_all_plans) {
    result.exported = std::move(finals);
  } else {
    result.exported = {result.best};
  }
  return result;
}

StatusOr<std::vector<TableAccessInfo>> Optimizer::CollectAccessPaths(
    const Query& query, const PlannerKnobs& knobs) const {
  PINUM_ASSIGN_OR_RETURN(PlannerContext ctx,
                         CollectorContext(query, *catalog_, *stats_, knobs));
  return std::move(ctx.rels);
}

}  // namespace pinum
