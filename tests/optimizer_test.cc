#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <ostream>

#include "optimizer/interesting_orders.h"
#include "optimizer/join_planner.h"
#include "optimizer/optimizer.h"
#include "pinum/pinum_builder.h"
#include "test_util.h"
#include "whatif/whatif_index.h"

namespace pinum {
namespace {

/// Collects every node kind appearing in a plan tree.
void CollectKinds(const Path& p, std::vector<PathKind>* kinds) {
  kinds->push_back(p.kind);
  if (p.outer) CollectKinds(*p.outer, kinds);
  if (p.inner) CollectKinds(*p.inner, kinds);
}

bool ContainsKind(const Path& p, PathKind kind) {
  std::vector<PathKind> kinds;
  CollectKinds(p, &kinds);
  return std::find(kinds.begin(), kinds.end(), kind) != kinds.end();
}

class OptimizerTest : public ::testing::Test {
 protected:
  OptimizerTest() : mini_() {}
  MiniStar mini_;
};

TEST_F(OptimizerTest, SingleTableScanPlan) {
  QueryBuilder qb(&mini_.db.catalog());
  auto q = qb.From("d1").Select("d1", "c1").Build();
  ASSERT_TRUE(q.ok());
  Optimizer opt(&mini_.db.catalog(), &mini_.db.stats());
  auto r = opt.Optimize(*q, PlannerKnobs{});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->best->kind, PathKind::kSeqScan);
  EXPECT_GT(r->best->cost.total, 0);
}

TEST_F(OptimizerTest, JoinQueryProducesJoinWithSortForOrderBy) {
  const Query q = mini_.JoinQuery();
  Optimizer opt(&mini_.db.catalog(), &mini_.db.stats());
  auto r = opt.Optimize(q, PlannerKnobs{});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // No index covers d1.c1, so the order-by requires a Sort somewhere.
  EXPECT_TRUE(ContainsKind(*r->best, PathKind::kSort));
  EXPECT_TRUE(ContainsKind(*r->best, PathKind::kHashJoin) ||
              ContainsKind(*r->best, PathKind::kMergeJoin) ||
              ContainsKind(*r->best, PathKind::kNestLoop));
}

TEST_F(OptimizerTest, EnableNestloopFalseRemovesNlj) {
  // NLJ-friendly setting: a tiny outer (0.01% filter on fact) probing a
  // large dimension through an index on its key — rescanning the
  // dimension any other way is costlier.
  MiniStar big_dim(/*fact_rows=*/1'000'000, /*dim_rows=*/100'000);
  const TableDef* d1 = big_dim.db.catalog().FindTable(big_dim.d1);
  std::vector<IndexDef> hypo = {
      MakeWhatIfIndex("d1_id", *d1, {0}, 100'000)};
  auto catalog = CatalogWithIndexes(big_dim.db.catalog(), hypo, nullptr);
  ASSERT_TRUE(catalog.ok());
  Optimizer opt(&*catalog, &big_dim.db.stats());
  QueryBuilder qb(&big_dim.db.catalog());
  auto q = qb.Named("nlj_friendly")
               .From("fact")
               .From("d1")
               .Select("fact", "c2")
               .Select("d1", "c1")
               .Join("fact", "fk_d1", "d1", "id")
               .Where("fact", "c1", CompareOp::kLe, 100)  // ~100 rows
               .Build();
  ASSERT_TRUE(q.ok());

  PlannerKnobs with_nlj;
  auto r1 = opt.Optimize(*q, with_nlj);
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(ContainsKind(*r1->best, PathKind::kNestLoop))
      << r1->best->Explain(*catalog);

  PlannerKnobs no_nlj;
  no_nlj.enable_nestloop = false;
  auto r2 = opt.Optimize(*q, no_nlj);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(ContainsKind(*r2->best, PathKind::kNestLoop));
  // Removing a join method can only increase the winner's cost.
  EXPECT_GE(r2->best->cost.total, r1->best->cost.total - 1e-6);
}

TEST_F(OptimizerTest, DisablingAllJoinsFailsGracefully) {
  PlannerKnobs none;
  none.enable_nestloop = false;
  none.enable_hashjoin = false;
  none.enable_mergejoin = false;
  Optimizer opt(&mini_.db.catalog(), &mini_.db.stats());
  auto r = opt.Optimize(mini_.JoinQuery(), none);
  EXPECT_FALSE(r.ok());
}

TEST_F(OptimizerTest, DisconnectedJoinGraphRejected) {
  QueryBuilder qb(&mini_.db.catalog());
  auto q = qb.From("d1").From("d2").Select("d1", "c1").Build();
  ASSERT_TRUE(q.ok());
  Optimizer opt(&mini_.db.catalog(), &mini_.db.stats());
  auto r = opt.Optimize(*q, PlannerKnobs{});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(OptimizerTest, CoveringOrderIndexAvoidsTopSort) {
  // Single-table ORDER BY: an index leading with the order column lets
  // the planner skip the Sort entirely.
  const TableDef* d1 = mini_.db.catalog().FindTable(mini_.d1);
  std::vector<IndexDef> hypo = {
      MakeWhatIfIndex("d1_c1_cov", *d1, {1, 2}, 10'000)};  // (c1, c2)
  auto catalog = CatalogWithIndexes(mini_.db.catalog(), hypo, nullptr);
  ASSERT_TRUE(catalog.ok());
  Optimizer opt(&*catalog, &mini_.db.stats());
  QueryBuilder qb(&mini_.db.catalog());
  auto q = qb.From("d1")
               .Select("d1", "c1")
               .Select("d1", "c2")
               .OrderBy("d1", "c1")
               .Build();
  ASSERT_TRUE(q.ok());
  auto r = opt.Optimize(*q, PlannerKnobs{});
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(ContainsKind(*r->best, PathKind::kSort))
      << r->best->Explain(*catalog);
  EXPECT_EQ(r->best->kind, PathKind::kIndexScan);

  // The exported per-IOC set of the join query contains a plan whose d1
  // leaf delivers the ORDER BY column's order and probes fact through an
  // fk index — the plan shape that avoids the top-level sort. (An
  // id-ordered merge-join leaf is correctly dominance-pruned here: it can
  // never beat hash join + sort under any configuration.)
  const TableDef* fact = mini_.db.catalog().FindTable(mini_.fact);
  std::vector<IndexDef> nlj_idx = {
      MakeWhatIfIndex("d1_c1", *d1, {1}, 10'000),
      MakeWhatIfIndex("fact_fk_d1", *fact, {1}, 1'000'000)};
  auto catalog2 = CatalogWithIndexes(mini_.db.catalog(), nlj_idx, nullptr);
  ASSERT_TRUE(catalog2.ok());
  Optimizer opt2(&*catalog2, &mini_.db.stats());
  PlannerKnobs hooks;
  hooks.hooks.export_all_plans = true;
  auto r2 = opt2.Optimize(mini_.JoinQuery(), hooks);
  ASSERT_TRUE(r2.ok());
  bool ordered_leaf = false;
  for (const auto& p : r2->exported) {
    for (const auto& slot : p->leaves) {
      if (slot.req == LeafReqKind::kOrdered && slot.table == mini_.d1) {
        ordered_leaf = true;
      }
    }
  }
  EXPECT_TRUE(ordered_leaf);
}

TEST_F(OptimizerTest, ExportedPlansHaveDistinctRequirementKeys) {
  Optimizer opt(&mini_.db.catalog(), &mini_.db.stats());
  PlannerKnobs knobs;
  knobs.hooks.export_all_plans = true;
  knobs.enable_nestloop = false;
  auto r = opt.Optimize(mini_.ThreeWayQuery(), knobs);
  ASSERT_TRUE(r.ok());
  std::set<std::string> keys;
  for (const auto& p : r->exported) {
    EXPECT_TRUE(keys.insert(p->RequirementOrderKey()).second);
  }
  EXPECT_GE(r->exported.size(), 1u);
}

TEST_F(OptimizerTest, CollectAccessPathsStopsAtTheCollector) {
  // d1(c1) leads with the ORDER BY column; d1(c2) leads with nothing
  // the query finds interesting, so its scans deliver no order.
  const TableDef* d1 = mini_.db.catalog().FindTable(mini_.d1);
  std::vector<IndexId> ids;
  auto catalog = CatalogWithIndexes(
      mini_.db.catalog(),
      {MakeWhatIfIndex("d1_c1", *d1, {1}, 10'000),
       MakeWhatIfIndex("d1_c2", *d1, {2}, 10'000)},
      &ids);
  ASSERT_TRUE(catalog.ok());
  Optimizer opt(&*catalog, &mini_.db.stats());
  const Query q = mini_.JoinQuery();
  auto access = opt.CollectAccessPaths(q, PlannerKnobs{});
  ASSERT_TRUE(access.ok()) << access.status().ToString();
  ASSERT_EQ(access->size(), q.tables.size());
  for (size_t pos = 0; pos < access->size(); ++pos) {
    EXPECT_EQ((*access)[pos].pos, static_cast<int>(pos));
    EXPECT_EQ((*access)[pos].table, q.tables[pos]);
    EXPECT_EQ((*access)[pos].options[0].index, kInvalidIndexId);
  }
  const TableAccessInfo& d1_info = (*access)[1];
  int ordered = 0;
  int unordered = 0;
  for (const ScanOption& opt_scan : d1_info.options) {
    if (opt_scan.index == ids[0]) {
      EXPECT_EQ(opt_scan.order, OrderSpec::Single({mini_.d1, 1}));
      ++ordered;
    } else if (opt_scan.index == ids[1]) {
      EXPECT_TRUE(opt_scan.order.empty());
      ++unordered;
    }
  }
  EXPECT_GT(ordered, 0);
  EXPECT_GT(unordered, 0);

  // No plan search runs: a query the join planner rejects still has
  // its access paths collected.
  QueryBuilder qb(&mini_.db.catalog());
  auto disconnected = qb.From("d1").From("d2").Select("d1", "c1").Build();
  ASSERT_TRUE(disconnected.ok());
  EXPECT_FALSE(opt.Optimize(*disconnected, PlannerKnobs{}).ok());
  auto collected = opt.CollectAccessPaths(*disconnected, PlannerKnobs{});
  ASSERT_TRUE(collected.ok());
  EXPECT_EQ(collected->size(), 2u);
}

TEST_F(OptimizerTest, MergeJoinOnOrderedOuterKeepsItsOrderWithoutSort) {
  // Index scans on both join columns let some merge joins consume an
  // input that is already ordered; others must sort. Ablation A1 keeps
  // every per-key plan, so both shapes reach the exported set.
  const TableDef* fact = mini_.db.catalog().FindTable(mini_.fact);
  const TableDef* d1 = mini_.db.catalog().FindTable(mini_.d1);
  auto catalog = CatalogWithIndexes(
      mini_.db.catalog(),
      {MakeWhatIfIndex("fact_fk_d1", *fact, {1}, 1'000'000),
       MakeWhatIfIndex("d1_id", *d1, {0}, 10'000)},
      nullptr);
  ASSERT_TRUE(catalog.ok());
  Optimizer opt(&*catalog, &mini_.db.stats());
  PlannerKnobs knobs;
  knobs.enable_nestloop = false;
  knobs.hooks.export_all_plans = true;
  knobs.hooks.disable_dominance_pruning = true;
  const Query q = mini_.JoinQuery();
  auto r = opt.Optimize(q, knobs);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  std::vector<const Path*> merges;
  std::function<void(const Path&)> collect = [&](const Path& p) {
    if (p.kind == PathKind::kMergeJoin) merges.push_back(&p);
    if (p.outer) collect(*p.outer);
    if (p.inner) collect(*p.inner);
  };
  for (const PathPtr& p : r->exported) collect(*p);

  int presorted_outers = 0;
  for (const Path* mj : merges) {
    ASSERT_EQ(mj->join_preds.size(), 1u);
    const JoinPredicate& jp = mj->join_preds[0];
    const ColumnRef outer_col =
        mj->outer->rels.Contains(q.PosOfTable(jp.left.table)) ? jp.left
                                                              : jp.right;
    // The outer delivers the merge column and the join passes that
    // order through.
    ASSERT_FALSE(mj->outer->order.empty());
    EXPECT_EQ(mj->outer->order.Leading(), outer_col);
    EXPECT_EQ(mj->order, mj->outer->order);
    if (mj->outer->kind == PathKind::kSort) {
      // A Sort only where the child did not already deliver the order.
      EXPECT_TRUE(mj->outer->outer->order.empty() ||
                  !(mj->outer->outer->order.Leading() == outer_col));
      EXPECT_EQ(mj->outer->order, OrderSpec::Single(outer_col));
    } else {
      EXPECT_EQ(mj->outer->kind, PathKind::kIndexScan);
      ++presorted_outers;
    }
  }
  EXPECT_GT(presorted_outers, 0);
}

TEST_F(OptimizerTest, GroupByProducesAggregation) {
  QueryBuilder qb(&mini_.db.catalog());
  auto q = qb.From("fact")
               .From("d1")
               .Select("d1", "c1")
               .Select("fact", "c2")
               .Join("fact", "fk_d1", "d1", "id")
               .GroupBy("d1", "c1")
               .Aggregate(AggKind::kSum)
               .Build();
  ASSERT_TRUE(q.ok());
  Optimizer opt(&mini_.db.catalog(), &mini_.db.stats());
  auto r = opt.Optimize(*q, PlannerKnobs{});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(ContainsKind(*r->best, PathKind::kHashAgg) ||
              ContainsKind(*r->best, PathKind::kGroupAgg));
  // Output rows bounded by the group count.
  EXPECT_LE(r->best->rows,
            mini_.db.stats().FindColumn({mini_.d1, 1})->n_distinct + 1);
}

TEST_F(OptimizerTest, ExplainRendersTree) {
  Optimizer opt(&mini_.db.catalog(), &mini_.db.stats());
  auto r = opt.Optimize(mini_.JoinQuery(), PlannerKnobs{});
  ASSERT_TRUE(r.ok());
  const std::string text = r->best->Explain(mini_.db.catalog());
  EXPECT_NE(text.find("fact"), std::string::npos);
  EXPECT_NE(text.find("cost="), std::string::npos);
  EXPECT_FALSE(r->best->Signature(mini_.db.catalog()).empty());
}

TEST(InterestingOrdersTest, PerTableOrdersFromClauses) {
  MiniStar mini;
  const Query q = mini.JoinQuery();  // join fact.fk_d1=d1.id, order d1.c1
  const auto orders = PerTableInterestingOrders(q);
  ASSERT_EQ(orders.size(), 2u);
  EXPECT_EQ(orders[0].size(), 1u);  // fact: fk_d1
  EXPECT_EQ(orders[1].size(), 2u);  // d1: id (join), c1 (order by)
  EXPECT_EQ(CountIocs(orders), 6u);  // (1+1)*(1+2)
}

TEST(InterestingOrdersTest, EnumeratorVisitsAllCombinations) {
  MiniStar mini;
  const Query q = mini.ThreeWayQuery();
  const auto orders = PerTableInterestingOrders(q);
  IocEnumerator it(orders);
  Ioc ioc;
  uint64_t n = 0;
  std::set<std::string> seen;
  while (it.Next(&ioc)) {
    ++n;
    seen.insert(IocToString(ioc, mini.db.catalog()));
  }
  EXPECT_EQ(n, CountIocs(orders));
  EXPECT_EQ(seen.size(), n);  // all distinct
  // First combination is all-Phi.
  it.Reset();
  ASSERT_TRUE(it.Next(&ioc));
  for (const auto& c : ioc) EXPECT_FALSE(c.valid());
}

PathPtr CostOrderPath(double total, double startup, OrderSpec order) {
  auto p = std::make_shared<Path>();
  p->kind = PathKind::kSeqScan;
  p->cost = {startup, total};
  p->order = std::move(order);
  return p;
}

TEST(AddPathTest, StandardModePrunesDominated) {
  std::vector<PathPtr> paths;
  AddPath(&paths, CostOrderPath(100, 0, OrderSpec::None()), false);
  // Strictly worse: dropped.
  AddPath(&paths, CostOrderPath(200, 10, OrderSpec::None()), false);
  EXPECT_EQ(paths.size(), 1u);
  // Better order survives despite higher cost.
  AddPath(&paths, CostOrderPath(150, 0, OrderSpec::Single({0, 1})), false);
  EXPECT_EQ(paths.size(), 2u);
  // Cheaper with the same order evicts.
  AddPath(&paths, CostOrderPath(120, 0, OrderSpec::Single({0, 1})), false);
  EXPECT_EQ(paths.size(), 2u);
  double best_ordered = 1e18;
  for (const auto& p : paths) {
    if (!p->order.empty()) best_ordered = p->cost.total;
  }
  EXPECT_EQ(best_ordered, 120);
}

TEST(AddPathTest, PrecheckFollowsNonTransitiveFuzz) {
  // Within kCostFuzz, dominance is not transitive: the newcomer N
  // dominates A (equal cost, better order) and is dominated by B
  // (B costs 1.8 fuzz more, within fuzz of N's 0.9), yet B does not
  // dominate A (1.8 fuzz apart), so A and B coexist.
  const OrderSpec x = OrderSpec::Single({0, 1});
  const PathPtr a = CostOrderPath(1.0, 0, OrderSpec::None());
  const PathPtr b = CostOrderPath(1.0 + 1.8 * kCostFuzz, 0, x);
  const Cost n_cost{0, 1.0 + 0.9 * kCostFuzz};

  // A first: AddPath evicts A before B rejects N, so the precheck must
  // not reject — the walk has an effect even though N is dropped.
  std::vector<PathPtr> paths;
  AddPath(&paths, a, false);
  AddPath(&paths, b, false);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_FALSE(AddPathRejects(paths, n_cost, x));
  AddPath(&paths, CostOrderPath(n_cost.total, n_cost.startup, x), false);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0], b);

  // B first: B rejects N before N reaches A, so nothing changes and the
  // precheck may drop N unbuilt.
  paths = {b, a};
  EXPECT_TRUE(AddPathRejects(paths, n_cost, x));
  AddPath(&paths, CostOrderPath(n_cost.total, n_cost.startup, x), false);
  EXPECT_EQ(paths, (std::vector<PathPtr>{b, a}));

  // Neither side dominates: the precheck keeps the newcomer.
  EXPECT_FALSE(AddPathRejects(paths, Cost{0, 0.5}, OrderSpec::None()));
}

TEST(AddPathTest, ExportReplacesOnlyWhenCheaperByMoreThanFuzz) {
  EXPECT_FALSE(ReplacesSameKey(100.0, 100.0));
  EXPECT_FALSE(ReplacesSameKey(101.0, 100.0));
  EXPECT_FALSE(ReplacesSameKey(100.0 - 0.5 * kCostFuzz, 100.0));
  EXPECT_TRUE(ReplacesSameKey(100.0 - 2 * kCostFuzz, 100.0));
  EXPECT_TRUE(ReplacesSameKey(99.0, 100.0));
}

/// Optimizer work per PINUM call shape, summed over one family's seed-1
/// queries: paths offered to the join planner and plans returned.
struct CallShapeWork {
  /// The one hooked plan call (NLJ removed, every order covered).
  int64_t export_paths = 0;
  int64_t export_plans = 0;
  /// The same call with NLJ kept (the nlj_export_all ablation), so
  /// export-mode keys see probe requirements; queries of at most four
  /// tables, which keeps the suite fast under sanitizers.
  int64_t export_nlj_paths = 0;
  int64_t export_nlj_plans = 0;
  /// Winner-only NLJ calls: every candidate visible / none visible.
  int64_t universe_paths = 0;
  int64_t base_paths = 0;
  /// The probe sweep: one winner-only call per join predicate that leads
  /// some candidate.
  int64_t probe_paths = 0;
  int64_t probe_calls = 0;

  bool operator==(const CallShapeWork&) const = default;
};

std::ostream& operator<<(std::ostream& os, const CallShapeWork& w) {
  return os << "{" << w.export_paths << ", " << w.export_plans << ", "
            << w.export_nlj_paths << ", " << w.export_nlj_plans << ", "
            << w.universe_paths << ", " << w.base_paths << ", "
            << w.probe_paths << ", " << w.probe_calls << "}";
}

CallShapeWork MeasureCallShapes(const FamilyFixture& fx) {
  CallShapeWork w;
  const auto optimize = [&](const Catalog& catalog, const Query& q,
                            const PlannerKnobs& knobs) {
    StatusOr<OptimizeResult> r =
        Optimizer(&catalog, &fx.stats()).Optimize(q, knobs);
    EXPECT_TRUE(r.ok()) << q.name << ": " << r.status().ToString();
    return r.ok() ? *std::move(r) : OptimizeResult{};
  };
  for (const Query& q : fx.queries()) {
    StatusOr<Catalog> covering =
        CatalogCoveringAllOrders(fx.catalog(), q, fx.stats());
    EXPECT_TRUE(covering.ok());
    if (!covering.ok()) continue;
    PlannerKnobs knobs;
    knobs.hooks.export_all_plans = true;
    knobs.enable_nestloop = false;
    OptimizeResult r = optimize(*covering, q, knobs);
    w.export_paths += r.paths_considered;
    w.export_plans += static_cast<int64_t>(r.exported.size());
    if (q.tables.size() <= 4) {
      knobs.enable_nestloop = true;
      r = optimize(*covering, q, knobs);
      w.export_nlj_paths += r.paths_considered;
      w.export_nlj_plans += static_cast<int64_t>(r.exported.size());
    }

    w.universe_paths +=
        optimize(fx.set.universe, q, PlannerKnobs{}).paths_considered;
    w.base_paths += optimize(fx.catalog(), q, PlannerKnobs{}).paths_considered;
    for (const JoinPredicate& jp : q.joins) {
      std::vector<IndexId> visible;
      for (IndexId id : fx.set.candidate_ids) {
        const IndexDef* def = fx.set.universe.FindIndex(id);
        const ColumnRef lead{def->table, def->leading_column()};
        if (q.PosOfTable(def->table) >= 0 &&
            (lead == jp.left || lead == jp.right)) {
          visible.push_back(id);
        }
      }
      if (visible.empty()) continue;
      w.probe_paths +=
          optimize(fx.set.Subset(visible), q, PlannerKnobs{}).paths_considered;
      ++w.probe_calls;
    }
  }
  return w;
}

/// Work per call shape recorded before the join planner priced
/// alternatives before allocating them: the search space is unchanged,
/// only its bookkeeping.
const std::map<std::string, CallShapeWork>& PinnedCallShapeWork() {
  static const std::map<std::string, CallShapeWork> pinned = {
      {"star", {10818, 95, 12276, 174, 11186, 2565, 11917, 15}},
      {"chain", {67769, 913, 12814, 227, 57164, 16843, 87004, 33}},
      {"skew", {12860, 24, 7451, 83, 14942, 3297, 17782, 19}},
      {"fact_pair", {885, 110, 2325, 256, 1720, 312, 1222, 11}},
  };
  return pinned;
}

class OptimizerWorkCountTest : public ::testing::TestWithParam<std::string> {};

TEST_P(OptimizerWorkCountTest, CallShapesKeepTheirSearchSpace) {
  WorkloadFamilyOptions options;
  options.seed = 1;
  auto fx = MakeFamilyFixture(GetParam(), options);
  ASSERT_NE(fx, nullptr);
  SCOPED_TRACE(fx->trace());
  EXPECT_EQ(MeasureCallShapes(*fx), PinnedCallShapeWork().at(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloadFamilies, OptimizerWorkCountTest,
    ::testing::ValuesIn(WorkloadFamilyNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
}  // namespace pinum
