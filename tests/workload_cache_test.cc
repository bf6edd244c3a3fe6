// Workload-scale cache construction: WorkloadCacheBuilder correctness
// (its PINUM caches against classic INUM's per-query baseline, single-
// vs multi-threaded determinism), cross-query access-cost-call
// deduplication accounting, and the batched advisor costing path.
#include <gtest/gtest.h>

#include "advisor/candidate_generator.h"
#include "advisor/greedy_advisor.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "optimizer/optimizer.h"
#include "test_util.h"
#include "whatif/candidate_set.h"
#include "workload/cache_manager.h"

namespace pinum {
namespace {

class WorkloadCacheTest : public ::testing::Test {
 protected:
  // The MiniStar workload + candidates + build helper live in the
  // shared fixture (tests/test_util.h) — the reseal suite uses the same
  // setup. References keep the test bodies unchanged.
  WorkloadCacheTest()
      : mini_(fixture_.mini), queries_(fixture_.queries), set_(fixture_.set) {}

  WorkloadCacheResult Build(WorkloadCacheOptions opts,
                            std::vector<InumCache>* caches = nullptr) {
    return fixture_.Build(opts, caches);
  }

  /// Classic INUM's caches for the workload, sealed as BuildAll seals.
  std::vector<SealedCache> SealedClassic(const InumBuildOptions& opts) {
    return SealCaches(BuildClassicCaches(mini_.db.catalog(), set_,
                                         mini_.db.stats(), queries_, opts),
                      set_);
  }

  /// Random atomic configuration (at most one index per table).
  IndexConfig RandomAtomicConfig(const Query& q, Rng* rng) {
    return ::pinum::RandomAtomicConfig(q, set_, rng);
  }

  MiniWorkloadFixture fixture_;
  MiniStar& mini_;
  std::vector<Query>& queries_;
  CandidateSet& set_;
};

TEST_F(WorkloadCacheTest, PinumAndClassicAgreeOnConfigCosts) {
  // With NLJ disabled PINUM's exported plan set is provably complete, so
  // its derived cost equals a direct optimizer call on every config;
  // classic's per-IOC winners price the same configs never lower (its
  // plan set is a subset — the seed's pinum_test documents the same
  // relation).
  WorkloadCacheOptions popts;
  popts.num_threads = 1;
  popts.pinum.base_knobs.enable_nestloop = false;
  const WorkloadCacheResult pinum = Build(popts);

  InumBuildOptions copts;
  copts.base_knobs.enable_nestloop = false;
  const std::vector<SealedCache> classic = SealedClassic(copts);

  Rng rng(7);
  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    for (int trial = 0; trial < 25; ++trial) {
      const IndexConfig config = RandomAtomicConfig(queries_[qi], &rng);
      const double p = pinum.sealed[qi].Cost(config);
      const double c = classic[qi].Cost(config);
      Catalog sub = set_.Subset(config);
      Optimizer opt(&sub, &mini_.db.stats());
      PlannerKnobs knobs;
      knobs.enable_nestloop = false;
      auto direct = opt.Optimize(queries_[qi], knobs);
      ASSERT_TRUE(direct.ok());
      EXPECT_NEAR(p, direct->best->cost.total,
                  direct->best->cost.total * 1e-9)
          << "query " << qi << " config size " << config.size();
      EXPECT_LE(p, c + 1e-6)
          << "query " << qi << " config size " << config.size();
    }
  }
}

TEST_F(WorkloadCacheTest, PinumNeverWorseThanClassicWithNlj) {
  // With NLJ, PINUM's plan set is a superset of what its extreme calls
  // would win individually; its derived cost never exceeds classic's.
  WorkloadCacheOptions popts;
  popts.num_threads = 1;
  const WorkloadCacheResult pinum = Build(popts);
  const std::vector<SealedCache> classic = SealedClassic({});

  Rng rng(11);
  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    for (int trial = 0; trial < 25; ++trial) {
      const IndexConfig config = RandomAtomicConfig(queries_[qi], &rng);
      EXPECT_LE(pinum.sealed[qi].Cost(config),
                classic[qi].Cost(config) + 1e-6);
    }
  }
}

TEST_F(WorkloadCacheTest, ConcurrentBuildsAreDeterministic) {
  // Same workload, same options, 1 thread vs 4 threads: every cache must
  // price every configuration identically (sharing makes the *call
  // counts* scheduling-dependent, never the cache contents).
  WorkloadCacheOptions serial;
  serial.num_threads = 1;
  const WorkloadCacheResult a = Build(serial);

  WorkloadCacheOptions parallel = serial;
  parallel.num_threads = 4;
  const WorkloadCacheResult b = Build(parallel);

  ASSERT_EQ(a.sealed.size(), b.sealed.size());
  EXPECT_EQ(a.totals.plans_cached, b.totals.plans_cached);
  Rng rng(13);
  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    EXPECT_EQ(a.sealed[qi].NumPlans(), b.sealed[qi].NumPlans());
    for (int trial = 0; trial < 40; ++trial) {
      const IndexConfig config = RandomAtomicConfig(queries_[qi], &rng);
      EXPECT_EQ(a.sealed[qi].Cost(config), b.sealed[qi].Cost(config))
          << "query " << qi;
    }
  }
}

TEST_F(WorkloadCacheTest, SharingDoesNotChangeCosts) {
  WorkloadCacheOptions shared;
  shared.num_threads = 1;
  shared.share_access_costs = true;
  const WorkloadCacheResult a = Build(shared);

  WorkloadCacheOptions unshared = shared;
  unshared.share_access_costs = false;
  const WorkloadCacheResult b = Build(unshared);

  Rng rng(17);
  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    for (int trial = 0; trial < 40; ++trial) {
      const IndexConfig config = RandomAtomicConfig(queries_[qi], &rng);
      EXPECT_EQ(a.sealed[qi].Cost(config), b.sealed[qi].Cost(config))
          << "query " << qi;
    }
  }
}

TEST_F(WorkloadCacheTest, SharingPreservesBaseIndexCosts) {
  // Configurations may name real (base-catalog) indexes too. A shared
  // answer must carry the base-index options verbatim — not just the
  // heap cost (regression: a shared tier once stripped non-heap options,
  // making shared and unshared builds price base-index configs
  // differently).
  MiniStar mini;
  const TableDef* d1_def = mini.db.catalog().FindTable(mini.d1);
  IndexDef base_idx = MakeWhatIfIndex("d1_id_real", *d1_def, {0}, 10'000);
  auto base_id = mini.db.catalog().AddIndex(base_idx);
  ASSERT_TRUE(base_id.ok());

  // One candidate, on fact only, so the base index is d1's only index
  // and the clone's d1 info comes from the store.
  const TableDef* fact_def = mini.db.catalog().FindTable(mini.fact);
  std::vector<IndexDef> cand_defs = {
      MakeWhatIfIndex("cand_fact_c1", *fact_def, {3}, 1'000'000)};
  auto set = MakeCandidateSet(mini.db.catalog(), cand_defs);
  ASSERT_TRUE(set.ok());

  std::vector<Query> repeated = {mini.JoinQuery(), mini.JoinQuery()};
  repeated[1].name = "mini_q_clone";

  WorkloadCacheOptions opts;
  opts.num_threads = 1;
  WorkloadCacheBuilder shared_b(&mini.db.catalog(), &*set, &mini.db.stats(),
                                opts);
  auto shared = shared_b.BuildAll(repeated);
  ASSERT_TRUE(shared.ok());
  // The clone's access-cost call must have been deduplicated.
  EXPECT_EQ(shared->per_query[1].access_calls_saved, 1);

  opts.share_access_costs = false;
  WorkloadCacheBuilder unshared_b(&mini.db.catalog(), &*set,
                                  &mini.db.stats(), opts);
  auto unshared = unshared_b.BuildAll(repeated);
  ASSERT_TRUE(unshared.ok());

  const std::vector<IndexConfig> configs = {
      {*base_id},
      {*base_id, set->candidate_ids[0]},
      {set->candidate_ids[0]},
  };
  for (size_t qi = 0; qi < repeated.size(); ++qi) {
    for (const IndexConfig& config : configs) {
      EXPECT_EQ(shared->sealed[qi].Cost(config),
                unshared->sealed[qi].Cost(config))
          << "query " << qi << " config size " << config.size();
    }
  }

  // Pin the invariant at the access table itself (stronger than Cost,
  // which can mask a missing entry when the affected plan loses the
  // min anyway): the clone's d1 entries — served from the store — must
  // match the unshared build's, including the base index's probe and
  // scan costs.
  const int d1_pos = repeated[1].PosOfTable(mini.d1);
  const ColumnRef d1_id{mini.d1, 0};
  const IndexConfig base_only = {*base_id};
  auto shared_clone = shared_b.BuildQueryCache(repeated[1]);
  auto unshared_clone = unshared_b.BuildQueryCache(repeated[1]);
  ASSERT_TRUE(shared_clone.ok() && unshared_clone.ok());
  const AccessCostTable& shared_acc = shared_clone->access();
  const AccessCostTable& unshared_acc = unshared_clone->access();
  EXPECT_LT(unshared_acc.Probe(d1_pos, d1_id, base_only), kInfiniteCost);
  EXPECT_EQ(shared_acc.Probe(d1_pos, d1_id, base_only),
            unshared_acc.Probe(d1_pos, d1_id, base_only));
  EXPECT_EQ(shared_acc.Unordered(d1_pos, base_only),
            unshared_acc.Unordered(d1_pos, base_only));
  EXPECT_EQ(shared_acc.Ordered(d1_pos, d1_id, base_only),
            unshared_acc.Ordered(d1_pos, d1_id, base_only));
}

TEST_F(WorkloadCacheTest, SharedStoreDropsAccessCostCalls) {
  // Two queries with identical table footprints (renamed clones): the
  // second query's access costs must be served entirely from the store.
  std::vector<Query> repeated = {mini_.JoinQuery(), mini_.JoinQuery()};
  repeated[1].name = "mini_q_clone";

  // One keep-all call for the first query, zero for the second.
  WorkloadCacheOptions opts;
  opts.num_threads = 1;
  WorkloadCacheBuilder builder(&mini_.db.catalog(), &set_,
                               &mini_.db.stats(), opts);
  auto result = builder.BuildAll(repeated);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->per_query[0].access_cost_calls, 1);
  EXPECT_EQ(result->per_query[0].access_calls_saved, 0);
  EXPECT_EQ(result->per_query[1].access_cost_calls, 0);
  EXPECT_EQ(result->per_query[1].access_calls_saved, 1);

  opts.share_access_costs = false;
  WorkloadCacheBuilder unshared(&mini_.db.catalog(), &set_,
                                &mini_.db.stats(), opts);
  auto baseline = unshared.BuildAll(repeated);
  ASSERT_TRUE(baseline.ok());
  EXPECT_LT(result->totals.access_cost_calls,
            baseline->totals.access_cost_calls);
  // Plan-cache calls are per query and unaffected by sharing.
  EXPECT_EQ(result->totals.plan_cache_calls,
            baseline->totals.plan_cache_calls);
}

TEST_F(WorkloadCacheTest, BatchedAdvisorMatchesSerialAdvisor) {
  WorkloadCacheOptions opts;
  opts.num_threads = 1;
  std::vector<InumCache> caches;
  const WorkloadCacheResult built = Build(opts, &caches);

  AdvisorOptions aopts;
  aopts.budget_bytes = 512LL * 1024 * 1024;
  // Serial pricing over the oracle caches, sealed here, must agree
  // exactly with batched pricing over the builder's own sealed vector.
  const AdvisorResult serial =
      RunGreedyAdvisor(SealCaches(caches, set_), set_, aopts);

  ThreadPool pool(4);
  const WorkloadCostEvaluator evaluator(&built.sealed, &pool);
  const AdvisorResult batched = RunGreedyAdvisor(evaluator, set_, aopts);

  EXPECT_EQ(serial.chosen, batched.chosen);
  EXPECT_EQ(serial.workload_cost_before, batched.workload_cost_before);
  EXPECT_EQ(serial.workload_cost_after, batched.workload_cost_after);
  EXPECT_EQ(serial.evaluations, batched.evaluations);
  EXPECT_EQ(serial.total_size_bytes, batched.total_size_bytes);
}

TEST_F(WorkloadCacheTest, BuilderSealsEveryCacheIdentically) {
  // Every cache BuildAll sealed inside its pooled build task must price
  // every configuration bit-identically to its build-time source.
  WorkloadCacheOptions opts;
  opts.num_threads = 4;
  std::vector<InumCache> caches;
  const WorkloadCacheResult built = Build(opts, &caches);
  ASSERT_EQ(built.sealed.size(), caches.size());

  Rng rng(23);
  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    EXPECT_EQ(built.sealed[qi].NumPlans() + built.sealed[qi].NumPlansPruned(),
              caches[qi].NumPlans());
    for (int trial = 0; trial < 40; ++trial) {
      const IndexConfig config = RandomAtomicConfig(queries_[qi], &rng);
      EXPECT_EQ(built.sealed[qi].Cost(config), caches[qi].Cost(config))
          << "query " << qi;
    }
  }
}

TEST_F(WorkloadCacheTest, BatchCostMatchesSingleCost) {
  WorkloadCacheOptions opts;
  opts.num_threads = 1;
  const WorkloadCacheResult built = Build(opts);

  ThreadPool pool(3);
  const WorkloadCostEvaluator parallel_eval(&built.sealed, &pool);
  const WorkloadCostEvaluator serial_eval(&built.sealed);

  Rng rng(19);
  std::vector<IndexConfig> configs;
  for (int i = 0; i < 64; ++i) {
    configs.push_back(RandomAtomicConfig(queries_[i % 2], &rng));
  }
  const std::vector<double> batched = parallel_eval.BatchCost(configs);
  ASSERT_EQ(batched.size(), configs.size());
  for (size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(batched[i], serial_eval.Cost(configs[i])) << "config " << i;
  }
}

}  // namespace
}  // namespace pinum
