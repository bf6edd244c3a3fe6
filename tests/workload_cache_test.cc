// Workload-scale cache construction: WorkloadCacheBuilder correctness
// (its PINUM caches against classic INUM's per-query baseline, single-
// vs multi-threaded determinism), cross-query sharing within a build
// batch (one build per statement, access-cost-call deduplication)
// against the unshared per-query builds, its accounting, a builder
// reused across drift, and the batched advisor costing path.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "advisor/candidate_generator.h"
#include "advisor/greedy_advisor.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "optimizer/optimizer.h"
#include "test_util.h"
#include "whatif/candidate_set.h"
#include "workload/cache_manager.h"
#include "workload/drift.h"

namespace pinum {
namespace {

/// The unshared per-query baseline: every query's own BuildQueryCache on
/// `builder`'s pool, sealed over `set`'s universe as BuildAll seals, with
/// its optimizer calls in per_query and their sums in totals. Returns
/// the first failed build's status.
StatusOr<WorkloadCacheResult> BuildUnshared(WorkloadCacheBuilder* builder,
                                            const std::vector<Query>& queries,
                                            const CandidateSet& set) {
  const size_t n = queries.size();
  WorkloadCacheResult result;
  result.sealed.resize(n);
  result.per_query.resize(n);
  std::vector<Status> statuses(n);
  builder->pool()->ParallelFor(static_cast<int64_t>(n), [&](int64_t i) {
    const size_t at = static_cast<size_t>(i);
    auto cache = builder->BuildQueryCache(queries[at], &result.per_query[at]);
    if (!cache.ok()) {
      statuses[at] = cache.status();
      return;
    }
    result.sealed[at] = SealedCache::Seal(*cache, set.NumIndexIds());
  });
  for (size_t i = 0; i < n; ++i) {
    PINUM_RETURN_IF_ERROR(statuses[i]);
    result.totals.plan_cache_calls += result.per_query[i].plan_cache_calls;
    result.totals.access_cost_calls += result.per_query[i].access_cost_calls;
    result.totals.access_calls_saved +=
        result.per_query[i].access_calls_saved;
  }
  return result;
}

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
  const WorkloadCacheResult a = Build(shared);

  WorkloadCacheBuilder builder(&mini_.db.catalog(), &set_,
                               &mini_.db.stats(), shared);
  auto unshared = BuildUnshared(&builder, queries_, set_);
  ASSERT_TRUE(unshared.ok()) << unshared.status().ToString();
  const WorkloadCacheResult& b = *unshared;

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

  // The clone reorders the SELECT list: the same table footprints, so
  // the store serves it, but a different statement, so it is built.
  std::vector<Query> repeated = {mini.JoinQuery(), mini.JoinQuery()};
  repeated[1].name = "mini_q_clone";
  std::reverse(repeated[1].select.begin(), repeated[1].select.end());

  WorkloadCacheOptions opts;
  opts.num_threads = 1;
  WorkloadCacheBuilder builder(&mini.db.catalog(), &*set, &mini.db.stats(),
                               opts);
  auto shared = builder.BuildAll(repeated);
  ASSERT_TRUE(shared.ok());
  // The clone's access-cost call must have been deduplicated.
  EXPECT_EQ(shared->per_query[1].access_calls_saved, 1);

  auto unshared = BuildUnshared(&builder, repeated, *set);
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
  // min anyway): the clone's d1 entries — served from a store the twin
  // filled — must match the unshared build's, including the base
  // index's probe and scan costs.
  const int d1_pos = repeated[1].PosOfTable(mini.d1);
  const ColumnRef d1_id{mini.d1, 0};
  const IndexConfig base_only = {*base_id};
  SharedAccessCostStore store;
  PinumBuildOptions popts = opts.pinum;
  popts.shared_access = &store;
  PinumBuildStats twin_stats;
  PinumBuildStats clone_stats;
  ASSERT_TRUE(BuildInumCachePinum(repeated[0], mini.db.catalog(), *set,
                                  mini.db.stats(), popts, &twin_stats)
                  .ok());
  auto shared_clone = BuildInumCachePinum(
      repeated[1], mini.db.catalog(), *set, mini.db.stats(), popts,
      &clone_stats);
  EXPECT_EQ(clone_stats.access_calls_saved, 1);
  auto unshared_clone = builder.BuildQueryCache(repeated[1]);
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
  // Two statements with identical table footprints (the clone reorders
  // the SELECT list): the second query's access costs must be served
  // entirely from the store.
  std::vector<Query> repeated = {mini_.JoinQuery(), mini_.JoinQuery()};
  repeated[1].name = "mini_q_clone";
  std::reverse(repeated[1].select.begin(), repeated[1].select.end());

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

  auto baseline = BuildUnshared(&builder, repeated, set_);
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

// Every workload family (src/workload/workload_family.h): sharing work
// across the queries of a batch (whole builds for repeated statements,
// access-cost answers for equal table footprints) never changes what a
// cache prices, and neither does reusing a builder across drift. The
// trace line prints (family, seed) so a failure reproduces alone.
class FamilySharingTest : public ::testing::TestWithParam<std::string> {
 protected:
  /// `a[i]` and `b[i]` price every sampled configuration bit-identically.
  static void ExpectSamePricing(const std::vector<Query>& queries,
                                const CandidateSet& set,
                                const WorkloadCacheResult& a,
                                const WorkloadCacheResult& b, uint64_t seed) {
    ASSERT_EQ(a.sealed.size(), queries.size());
    ASSERT_EQ(b.sealed.size(), queries.size());
    Rng rng(seed);
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(a.sealed[i].ArenaBytes(), b.sealed[i].ArenaBytes())
          << queries[i].name;
      for (int trial = 0; trial < 16; ++trial) {
        const IndexConfig config =
            trial % 2 == 0 ? RandomAtomicConfig(queries[i], set, &rng)
                           : RandomSubsetConfig(set, &rng, 0.3);
        EXPECT_EQ(a.sealed[i].Cost(config), b.sealed[i].Cost(config))
            << queries[i].name << " trial " << trial;
      }
    }
  }
};

TEST_P(FamilySharingTest, RepeatsShareOneBuildPerStatement) {
  auto fix = MakeFamilyFixture(GetParam());
  ASSERT_NE(fix, nullptr);
  SCOPED_TRACE(fix->trace());
  // Three renamed replicas, the way production workloads repeat their
  // templates. first[i] is the first query with the same SQL text
  // (families may repeat statements before replication too).
  std::vector<Query> queries;
  for (int r = 0; r < 3; ++r) {
    for (const Query& q : fix->queries()) {
      queries.push_back(q);
      queries.back().name += "_r" + std::to_string(r);
    }
  }
  std::vector<size_t> first;
  std::map<std::string, size_t> first_by_sql;
  for (size_t i = 0; i < queries.size(); ++i) {
    first.push_back(
        first_by_sql.emplace(queries[i].ToSql(fix->catalog()), i)
            .first->second);
  }

  CandidateSet set = fix->set;
  StatsCatalog stats = fix->stats();
  WorkloadCacheOptions opts;
  opts.num_threads = 4;
  WorkloadCacheBuilder builder(&fix->catalog(), &set, &stats, opts);
  auto shared = builder.BuildAll(queries);
  ASSERT_TRUE(shared.ok()) << shared.status().ToString();
  auto unshared = BuildUnshared(&builder, queries, set);
  ASSERT_TRUE(unshared.ok()) << unshared.status().ToString();

  // One build per statement; a repeat holds its twin's seal (one arena)
  // and records no optimizer call.
  for (size_t i = 0; i < queries.size(); ++i) {
    const QueryBuildStats& row = shared->per_query[i];
    if (first[i] == i) {
      EXPECT_EQ(row.shared_builds, 0) << queries[i].name;
      EXPECT_EQ(row.plan_cache_calls,
                unshared->per_query[i].plan_cache_calls)
          << queries[i].name;
    } else {
      EXPECT_EQ(row.shared_builds, 1) << queries[i].name;
      EXPECT_EQ(row.plan_cache_calls, 0) << queries[i].name;
      EXPECT_EQ(row.access_cost_calls, 0) << queries[i].name;
      EXPECT_EQ(row.access_calls_saved, 0) << queries[i].name;
      EXPECT_EQ(shared->sealed[i].seal_id(),
                shared->sealed[first[i]].seal_id())
          << queries[i].name;
    }
  }
  const int64_t statements = static_cast<int64_t>(first_by_sql.size());
  EXPECT_EQ(shared->totals.shared_builds,
            static_cast<int64_t>(queries.size()) - statements);
  EXPECT_EQ(unshared->totals.shared_builds, 0);
  // Every query, repeat or not, prices like its own unshared build.
  ExpectSamePricing(queries, set, *shared, *unshared, 97);

  // A drift stales every replica of the statements it touches; the
  // rebuild builds each stale statement once and serves like a cold
  // unshared build of the drifted world.
  auto drift = ApplyDrift(queries, &set, &stats, queries.size() / 2, 101);
  ASSERT_TRUE(drift.ok()) << drift.status().ToString();
  ASSERT_FALSE(drift->stale_queries.empty());
  std::set<std::string> stale_sql;
  int64_t stale_repeats = 0;
  for (const std::string& name : drift->stale_queries) {
    for (const Query& q : queries) {
      if (q.name == name && !stale_sql.insert(q.ToSql(fix->catalog())).second) {
        ++stale_repeats;
      }
    }
  }
  ASSERT_GT(stale_repeats, 0);
  WorkloadCacheStats rebuild;
  auto resealed =
      builder.RebuildQueries(drift->stale_queries, queries, *shared, &rebuild);
  ASSERT_TRUE(resealed.ok()) << resealed.status().ToString();
  EXPECT_EQ(rebuild.shared_builds, stale_repeats);
  int64_t builds = 0;
  for (const std::string& name : drift->stale_queries) {
    for (size_t i = 0; i < queries.size(); ++i) {
      if (queries[i].name != name) continue;
      const QueryBuildStats& row = resealed->per_query[i];
      if (row.shared_builds == 0) {
        ++builds;
        EXPECT_GT(row.plan_cache_calls, 0) << name;
      } else {
        EXPECT_EQ(row.plan_cache_calls, 0) << name;
        EXPECT_EQ(resealed->sealed[i].seal_id(),
                  resealed->sealed[first[i]].seal_id())
            << name;
      }
    }
  }
  EXPECT_EQ(builds, static_cast<int64_t>(stale_sql.size()));
  WorkloadCacheBuilder cold(&fix->catalog(), &set, &stats, opts);
  auto rebuilt = BuildUnshared(&cold, queries, set);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  ExpectSamePricing(queries, set, *resealed, *rebuilt, 103);
}

TEST_P(FamilySharingTest, OrderedStatementsPriceLikeTheirOwnBuilds) {
  // Each statement with GROUP BY or ORDER BY is built right after its
  // plain twin: the same statement without them, the dropped columns
  // kept in the select list so every table's needed columns match. The
  // twin's access-cost answers carry orders truncated to the twin's
  // interesting orders, so the shared store must not serve them to the
  // ordered statement. Two seeds: a pair misprices on some seeds only.
  for (const uint64_t seed : {42, 1}) {
    WorkloadFamilyOptions family;
    family.seed = seed;
    auto fix = MakeFamilyFixture(GetParam(), family);
    ASSERT_NE(fix, nullptr);
    SCOPED_TRACE(fix->trace());
    std::vector<Query> queries;
    for (const Query& q : fix->queries()) {
      if (q.group_by.empty() && q.order_by.empty()) continue;
      Query plain = q;
      plain.name += "_plain";
      auto keep = [&plain](ColumnRef c) {
        if (std::find(plain.select.begin(), plain.select.end(), c) ==
            plain.select.end()) {
          plain.select.push_back(c);
        }
      };
      for (const ColumnRef& g : q.group_by) keep(g);
      for (const SortKey& k : q.order_by) keep(k.column);
      plain.group_by.clear();
      plain.order_by.clear();
      plain.aggregate = AggKind::kNone;
      queries.push_back(plain);
      queries.push_back(q);
    }
    ASSERT_FALSE(queries.empty());

    // Serial, so each twin stores its answers before its ordered
    // statement looks them up.
    WorkloadCacheOptions opts;
    opts.num_threads = 1;
    WorkloadCacheBuilder builder(&fix->catalog(), &fix->set, &fix->stats(),
                                 opts);
    auto shared = builder.BuildAll(queries);
    ASSERT_TRUE(shared.ok()) << shared.status().ToString();
    auto unshared = BuildUnshared(&builder, queries, fix->set);
    ASSERT_TRUE(unshared.ok()) << unshared.status().ToString();
    ExpectSamePricing(queries, fix->set, *shared, *unshared, 107);
  }
}

TEST_P(FamilySharingTest, ReusedBuilderPricesLikeAFreshOneAfterDrift) {
  // A builder keeps nothing but its pool between calls, so after a
  // drift its per-query builds, its reseal and its whole-workload build
  // all price like a fresh builder's under the drifted world. The
  // per-query builds run first, before any batch could refresh what
  // the pre-drift BuildAll learned.
  auto fix = MakeFamilyFixture(GetParam());
  ASSERT_NE(fix, nullptr);
  SCOPED_TRACE(fix->trace());
  std::vector<Query> queries;
  for (int r = 0; r < 2; ++r) {
    for (const Query& q : fix->queries()) {
      queries.push_back(q);
      queries.back().name += "_r" + std::to_string(r);
    }
  }
  CandidateSet set = fix->set;
  StatsCatalog stats = fix->stats();
  WorkloadCacheOptions opts;
  opts.num_threads = 2;
  WorkloadCacheBuilder reused(&fix->catalog(), &set, &stats, opts);
  auto built = reused.BuildAll(queries);
  ASSERT_TRUE(built.ok()) << built.status().ToString();

  auto drift = ApplyDrift(queries, &set, &stats, queries.size() / 2, 109);
  ASSERT_TRUE(drift.ok()) << drift.status().ToString();
  ASSERT_FALSE(drift->stale_queries.empty());
  WorkloadCacheBuilder fresh(&fix->catalog(), &set, &stats, opts);
  auto want = fresh.BuildAll(queries);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  auto want_each = BuildUnshared(&fresh, queries, set);
  ASSERT_TRUE(want_each.ok()) << want_each.status().ToString();

  auto each = BuildUnshared(&reused, queries, set);
  ASSERT_TRUE(each.ok()) << each.status().ToString();
  ExpectSamePricing(queries, set, *each, *want_each, 113);
  auto resealed =
      reused.RebuildQueries(drift->stale_queries, queries, *built);
  ASSERT_TRUE(resealed.ok()) << resealed.status().ToString();
  ExpectSamePricing(queries, set, *resealed, *want, 127);
  auto rebuilt = reused.BuildAll(queries);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  ExpectSamePricing(queries, set, *rebuilt, *want, 131);
  EXPECT_EQ(rebuilt->totals.plan_cache_calls, want->totals.plan_cache_calls);
  EXPECT_EQ(rebuilt->totals.access_cost_calls,
            want->totals.access_cost_calls);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloadFamilies, FamilySharingTest,
    ::testing::ValuesIn(WorkloadFamilyNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
}  // namespace pinum
