#include <gtest/gtest.h>

#include "advisor/candidate_generator.h"
#include "common/rng.h"
#include "inum/inum_builder.h"
#include "optimizer/optimizer.h"
#include "pinum/pinum_builder.h"
#include "test_util.h"
#include "whatif/candidate_set.h"

namespace pinum {
namespace {

class PinumTest : public ::testing::Test {
 protected:
  PinumTest() : mini_() {
    CandidateOptions copt;
    auto cands =
        GenerateCandidates({mini_.JoinQuery(), mini_.ThreeWayQuery()},
                           mini_.db.catalog(), mini_.db.stats(), copt);
    set_ = *MakeCandidateSet(mini_.db.catalog(), cands);
  }

  InumCache BuildPinum(const Query& q, PinumBuildStats* stats = nullptr,
                       PinumBuildOptions opts = PinumBuildOptions{}) {
    auto cache = BuildInumCachePinum(q, mini_.db.catalog(), set_,
                                     mini_.db.stats(), opts, stats);
    EXPECT_TRUE(cache.ok()) << cache.status().ToString();
    return *cache;
  }

  /// Random atomic configuration (at most one index per table).
  IndexConfig RandomAtomicConfig(const Query& q, Rng* rng) {
    return ::pinum::RandomAtomicConfig(q, set_, rng);
  }

  MiniStar mini_;
  CandidateSet set_;
};

TEST_F(PinumTest, UsesConstantNumberOfOptimizerCalls) {
  PinumBuildStats stats;
  BuildPinum(mini_.ThreeWayQuery(), &stats);
  // 1 hooked plan call + 2 NLJ extremes + 2 probe-sweep calls (one per
  // join) + 1 access-cost call — independent of the IOC count: fact has
  // interesting orders {fk_d1, fk_d2}, d1 {id}, d2 {id, c2}, so
  // (1+2)(1+1)(1+2) = 18 IOCs.
  EXPECT_EQ(stats.plan_cache_calls, 5);
  EXPECT_EQ(stats.access_cost_calls, 1);
  EXPECT_EQ(stats.iocs_total, 18u);
  EXPECT_GT(stats.plans_cached, 0u);
}

TEST_F(PinumTest, CostModelExactWithoutNestedLoops) {
  // With NLJ disabled the exported per-IOC plan set is provably complete:
  // the derived cost must equal a direct optimizer call for any config.
  const Query q = mini_.ThreeWayQuery();
  PinumBuildOptions opts;
  opts.base_knobs.enable_nestloop = false;
  InumCache cache = BuildPinum(q, nullptr, opts);
  Rng rng(23);
  for (int trial = 0; trial < 30; ++trial) {
    const IndexConfig config = RandomAtomicConfig(q, &rng);
    Catalog sub = set_.Subset(config);
    Optimizer opt(&sub, &mini_.db.stats());
    PlannerKnobs knobs;
    knobs.enable_nestloop = false;
    auto direct = opt.Optimize(q, knobs);
    ASSERT_TRUE(direct.ok());
    EXPECT_NEAR(cache.Cost(config), direct->best->cost.total,
                direct->best->cost.total * 1e-9)
        << "config size " << config.size();
  }
}

TEST_F(PinumTest, CostModelNeverUnderestimatesWithNlj) {
  // With NLJ the cache holds plans from two extreme calls; the derived
  // cost is an upper bound on the optimizer's (it prices real plans) and
  // is close in practice (Section VI-C).
  const Query q = mini_.JoinQuery();
  InumCache cache = BuildPinum(q);
  Rng rng(29);
  for (int trial = 0; trial < 30; ++trial) {
    const IndexConfig config = RandomAtomicConfig(q, &rng);
    Catalog sub = set_.Subset(config);
    Optimizer opt(&sub, &mini_.db.stats());
    auto direct = opt.Optimize(q, PlannerKnobs{});
    ASSERT_TRUE(direct.ok());
    EXPECT_GE(cache.Cost(config),
              direct->best->cost.total * (1 - 1e-9));
  }
}

TEST_F(PinumTest, MatchesClassicInumOnSharedConfigs) {
  // Both caches price from the same access-cost math; PINUM's plan set is
  // a superset, so its derived cost is never higher.
  const Query q = mini_.ThreeWayQuery();
  InumCache pinum_cache = BuildPinum(q);
  InumBuildOptions iopts;
  InumBuildStats istats;
  auto classic = BuildInumCacheClassic(q, mini_.db.catalog(), set_,
                                       mini_.db.stats(), iopts, &istats);
  ASSERT_TRUE(classic.ok());
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    const IndexConfig config = RandomAtomicConfig(q, &rng);
    EXPECT_LE(pinum_cache.Cost(config), classic->Cost(config) + 1e-6);
  }
}

TEST_F(PinumTest, FewerCallsThanClassic) {
  PinumBuildStats pstats;
  BuildPinum(mini_.ThreeWayQuery(), &pstats);
  InumBuildOptions iopts;
  InumBuildStats istats;
  auto classic =
      BuildInumCacheClassic(mini_.ThreeWayQuery(), mini_.db.catalog(), set_,
                            mini_.db.stats(), iopts, &istats);
  ASSERT_TRUE(classic.ok());
  EXPECT_LT(pstats.plan_cache_calls + pstats.access_cost_calls,
            (istats.plan_cache_calls + istats.access_cost_calls) / 5);
}

TEST_F(PinumTest, ClassicWithoutCandidatesPricesTheHeap) {
  // With no candidate on the query's tables, classic INUM makes no
  // per-candidate access call. It must still price every table's heap
  // (regression: its cache then held no access costs, so every plan
  // priced +inf).
  auto empty = MakeCandidateSet(mini_.db.catalog(), {});
  ASSERT_TRUE(empty.ok());
  const Query q = mini_.ThreeWayQuery();
  InumBuildStats istats;
  auto classic = BuildInumCacheClassic(q, mini_.db.catalog(), *empty,
                                       mini_.db.stats(), {}, &istats);
  ASSERT_TRUE(classic.ok()) << classic.status().ToString();
  auto pinum = BuildInumCachePinum(q, mini_.db.catalog(), *empty,
                                   mini_.db.stats(), {}, nullptr);
  ASSERT_TRUE(pinum.ok()) << pinum.status().ToString();
  EXPECT_EQ(istats.access_cost_calls, 1);
  EXPECT_LT(classic->Cost({}), kInfiniteCost);
  EXPECT_EQ(classic->Cost({}), pinum->Cost({}));
}

TEST_F(PinumTest, NljCallCountKnob) {
  PinumBuildOptions opts;
  opts.nlj_extreme_calls = 0;
  PinumBuildStats stats0;
  InumCache cache0 = BuildPinum(mini_.JoinQuery(), &stats0, opts);
  EXPECT_EQ(stats0.plan_cache_calls, 1);
  for (const auto& plan : cache0.plans()) EXPECT_FALSE(plan.has_nlj);

  opts.nlj_extreme_calls = 2;
  PinumBuildStats stats2;
  InumCache cache2 = BuildPinum(mini_.JoinQuery(), &stats2, opts);
  EXPECT_EQ(stats2.plan_cache_calls, 3);
  EXPECT_GE(cache2.NumPlans(), cache0.NumPlans());

  // nlj_extreme_calls >= 3 adds one probe-sweep call per join predicate
  // (JoinQuery has one join).
  opts.nlj_extreme_calls = 3;
  PinumBuildStats stats3;
  InumCache cache3 = BuildPinum(mini_.JoinQuery(), &stats3, opts);
  EXPECT_EQ(stats3.plan_cache_calls, 4);
  EXPECT_GE(cache3.NumPlans(), cache2.NumPlans());
}

TEST_F(PinumTest, DominanceExportSmallerThanIocCount) {
  // The Section IV/V-D claim: the per-IOC plan set after dominance
  // pruning is much smaller than the IOC count.
  PinumBuildStats stats;
  BuildPinum(mini_.ThreeWayQuery(), &stats);
  EXPECT_LT(stats.plans_cached, stats.iocs_total);
}

TEST_F(PinumTest, NljExportAblationGrowsCache) {
  PinumBuildOptions normal;
  PinumBuildStats s1;
  InumCache c1 = BuildPinum(mini_.JoinQuery(), &s1, normal);
  PinumBuildOptions exported;
  exported.nlj_export_all = true;
  PinumBuildStats s2;
  InumCache c2 = BuildPinum(mini_.JoinQuery(), &s2, exported);
  EXPECT_GE(c2.NumPlans(), c1.NumPlans());
  // The bigger cache can only improve (lower) derived costs.
  Rng rng(37);
  for (int trial = 0; trial < 10; ++trial) {
    const IndexConfig config = RandomAtomicConfig(mini_.JoinQuery(), &rng);
    EXPECT_LE(c2.Cost(config), c1.Cost(config) + 1e-6);
  }
}

}  // namespace
}  // namespace pinum
