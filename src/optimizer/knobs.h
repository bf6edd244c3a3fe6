// Planner configuration: the GUC-style switches the paper manipulates
// (enable_nestloop, Section V-B) plus the PINUM hooks (Sections V-C/V-D).
#ifndef PINUM_OPTIMIZER_KNOBS_H_
#define PINUM_OPTIMIZER_KNOBS_H_

#include "optimizer/cost_model.h"

namespace pinum {

/// The optimizer hooks PINUM adds (the dotted/dashed arrows of Figure 3).
/// Section V-C's access-cost export is not a hook here: it is its own
/// entry point, Optimizer::CollectAccessPaths, which stops after the
/// Access Path Collector and so skips the plan search whose result the
/// access-cost call would discard.
struct PlannerHooks {
  /// Section V-D: the join planner retains one optimal plan per useful
  /// interesting-order combination (dominance-pruned) and the grouping
  /// planner exports all of them instead of only the winner.
  bool export_all_plans = false;
  /// Ablation A1: skip the Section V-D dominance pruning (plans are still
  /// deduplicated per (order, requirement) key). Exports the raw per-IOC
  /// plan set — larger and slower, measuring what the pruning buys.
  bool disable_dominance_pruning = false;
};

/// Planner switches and cost constants.
struct PlannerKnobs {
  /// When false, nested-loop joins are *removed* from the search space
  /// (the paper tweaks the join planner beyond the usual cost-penalty
  /// semantics of PostgreSQL's enable_nestloop; Section V-B).
  bool enable_nestloop = true;
  bool enable_hashjoin = true;
  bool enable_mergejoin = true;
  CostParams cost;
  PlannerHooks hooks;
};

}  // namespace pinum

#endif  // PINUM_OPTIMIZER_KNOBS_H_
