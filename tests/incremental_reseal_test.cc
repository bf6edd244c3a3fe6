// Differential rebuild-equivalence property suite for incremental
// reseal: after drifting the world for k of N queries (statistics
// re-ANALYZEd and/or candidates appended to the universe),
// WorkloadCacheBuilder::RebuildQueries over exactly the stale set must
// make k queries' worth of optimizer calls and leave the serving layer
// — BatchCost over random configurations and RunGreedyAdvisor across
// both cost paths, pooled and serial — *bitwise identical* to a cold
// BuildAll under the drifted world. Every case is seeded through the
// drift generator (src/workload/drift.h) and prints its seed on
// failure, so any divergence reproduces from the log line alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "advisor/greedy_advisor.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "test_util.h"
#include "whatif/candidate_set.h"
#include "workload/cache_manager.h"
#include "workload/drift.h"

namespace pinum {
namespace {

/// One differential case, fully seeded: copy the pristine world,
/// build, drift to >= `target` stale queries, reseal incrementally,
/// cold-rebuild, compare everything bitwise.
void RunDifferentialCase(const Catalog& catalog,
                         const CandidateSet& pristine_set,
                         const StatsCatalog& pristine_stats,
                         const std::vector<Query>& queries, size_t target,
                         uint64_t seed, const WorkloadCacheOptions& opts,
                         const DriftOptions& dopts = {}) {
  SCOPED_TRACE("reseal case: seed " + std::to_string(seed) + ", target " +
               std::to_string(target) + " of " +
               std::to_string(queries.size()) + " queries, " +
               std::to_string(opts.num_threads) + " threads, add_candidates " +
               std::to_string(dopts.add_candidates));
  // Per-case world copies: drift mutates them, the fixture's pristine
  // originals serve the next case.
  CandidateSet set = pristine_set;
  StatsCatalog stats = pristine_stats;

  WorkloadCacheBuilder incremental(&catalog, &set, &stats, opts);
  auto built = incremental.BuildAll(queries);
  ASSERT_TRUE(built.ok()) << built.status().ToString();

  auto drift = ApplyDrift(queries, &set, &stats, target, seed, dopts);
  ASSERT_TRUE(drift.ok()) << drift.status().ToString();
  if (target > 0) {
    ASSERT_GE(drift->stale_queries.size(),
              std::min(target, queries.size()));
  }

  WorkloadCacheStats rebuild_totals;
  auto rebuilt = incremental.RebuildQueries(drift->stale_queries, queries,
                                            *built, &rebuild_totals);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  *built = std::move(*rebuilt);

  // The comparator: a cold whole-workload build under the drifted
  // world, from a fresh builder.
  WorkloadCacheBuilder cold_builder(&catalog, &set, &stats, opts);
  auto cold = cold_builder.BuildAll(queries);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();

  // O(k) optimizer calls, not O(N): plan-cache calls are per query
  // and unaffected by sharing, so the rebuild must have paid exactly
  // the stale queries' share of the cold build's.
  int64_t stale_plan_calls = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (std::find(drift->stale_queries.begin(), drift->stale_queries.end(),
                  queries[i].name) != drift->stale_queries.end()) {
      stale_plan_calls += cold->per_query[i].plan_cache_calls;
    }
  }
  EXPECT_EQ(rebuild_totals.plan_cache_calls, stale_plan_calls);
  if (drift->stale_queries.size() < queries.size()) {
    EXPECT_LT(rebuild_totals.plan_cache_calls +
                  rebuild_totals.access_cost_calls,
              cold->totals.plan_cache_calls +
                  cold->totals.access_cost_calls);
  }

  // Evaluator identity: random configurations over the (possibly
  // grown) universe — empty, atomic, multi-index, appended ids,
  // out-of-universe ids — priced through the pooled batch path on the
  // incremental caches and the serial path on the cold ones.
  ThreadPool pool(4);
  const WorkloadCostEvaluator inc_eval(&built->sealed, &pool);
  const WorkloadCostEvaluator cold_eval(&cold->sealed);
  Rng rng(seed * 7919 + target);
  std::vector<IndexConfig> configs;
  configs.push_back({});
  for (int t = 0; t < 24; ++t) {
    IndexConfig config =
        RandomSubsetConfig(set, &rng, rng.NextDouble() * 0.2);
    for (IndexId added : drift->added_candidates) {
      if (rng.Chance(0.5)) config.push_back(added);
    }
    if (rng.Chance(0.3)) config.push_back(set.NumIndexIds() + 17);
    configs.push_back(std::move(config));
  }
  const std::vector<double> incremental_costs = inc_eval.BatchCost(configs);
  ASSERT_EQ(incremental_costs.size(), configs.size());
  for (size_t c = 0; c < configs.size(); ++c) {
    EXPECT_EQ(incremental_costs[c], cold_eval.Cost(configs[c]))
        << "config " << c << " size " << configs[c].size();
  }

  // Advisor identity: both cost paths, pooled and serial, field for
  // field against the cold build's serial batched run.
  AdvisorOptions aopts;
  aopts.budget_bytes = 512LL * 1024 * 1024;
  for (const AdvisorCostPath path :
       {AdvisorCostPath::kDelta, AdvisorCostPath::kBatched}) {
    SCOPED_TRACE(path == AdvisorCostPath::kDelta ? "delta path"
                                                 : "batched path");
    AdvisorOptions popts = aopts;
    popts.cost_path = path;
    const AdvisorResult want = RunGreedyAdvisor(cold->sealed, set, popts);
    const AdvisorResult serial =
        RunGreedyAdvisor(WorkloadCostEvaluator(&built->sealed), set, popts);
    ExpectSameAdvisorResult(want, serial);
    const AdvisorResult pooled = RunGreedyAdvisor(inc_eval, set, popts);
    ExpectSameAdvisorResult(want, pooled);
  }
}

// RunDifferentialCase's callers below share the expensive star fixture.
class IncrementalResealTest : public ::testing::Test {
 protected:
  static std::unique_ptr<StarFixture> fix_;

  static void SetUpTestSuite() {
    fix_ = MakeStarFixture();
    ASSERT_NE(fix_, nullptr);
  }
  static void TearDownTestSuite() { fix_.reset(); }

  static void RunStarCase(size_t target, uint64_t seed,
                          const DriftOptions& dopts = {},
                          const WorkloadCacheOptions& opts = {}) {
    RunDifferentialCase(fix_->catalog(), fix_->set, fix_->stats(),
                        fix_->queries(), target, seed, opts, dopts);
  }
};

std::unique_ptr<StarFixture> IncrementalResealTest::fix_ = nullptr;

TEST_F(IncrementalResealTest, NoDriftRebuildsNothing) {
  // k = 0: the empty reseal is a no-op and the world stays bitwise
  // identical to a cold rebuild of the unchanged world.
  RunStarCase(0, 11);
}

TEST_F(IncrementalResealTest, SingleQueryDrift) {
  // k = 1-ish: the generator drifts the smallest-radius table, so the
  // stale set is as small as the topology allows. The last case runs
  // serial (num_threads = 1) to pin the pool-free path.
  RunStarCase(1, 13);
  RunStarCase(1, 17);
  WorkloadCacheOptions serial;
  serial.num_threads = 1;
  RunStarCase(1, 61, {}, serial);
}

TEST_F(IncrementalResealTest, HalfWorkloadDrift) {
  RunStarCase(fix_->queries().size() / 2, 19);
  RunStarCase(fix_->queries().size() / 2, 23);
}

TEST_F(IncrementalResealTest, FullWorkloadDrift) {
  // k = N: every query stale — incremental and cold converge to the
  // same full rebuild, bit for bit.
  RunStarCase(fix_->queries().size(), 29);
}

TEST_F(IncrementalResealTest, UniverseGrowthDrift) {
  // Candidates appended to the universe: rebuilt queries reseal against
  // the grown universe, untouched queries keep serving their narrower
  // seal (new ids price at base), and both must agree bitwise with a
  // cold build over the grown universe — including advisor runs that
  // may *choose* an appended candidate.
  DriftOptions dopts;
  dopts.add_candidates = 2;
  RunStarCase(1, 31, dopts);
  RunStarCase(fix_->queries().size(), 37, dopts);
}

TEST_F(IncrementalResealTest, GrowthOnlyDriftWithoutStatsChange) {
  // Growth with no stats perturbation at all (target 0 + appends): only
  // queries touching the appended candidates' tables go stale.
  DriftOptions dopts;
  dopts.add_candidates = 1;
  dopts.factor_min = dopts.factor_max = 1.0;
  RunStarCase(0, 41, dopts);
}

TEST_F(IncrementalResealTest, VariedQueryMix) {
  // Workload churn between rounds: a seeded subset + clones of the star
  // queries, then the same differential property.
  for (const uint64_t seed : {43u, 47u}) {
    const std::vector<Query> mix =
        VaryQueryMix(fix_->queries(), seed, /*min_keep=*/2);
    ASSERT_GE(mix.size(), 2u);
    WorkloadCacheOptions opts;
    RunDifferentialCase(fix_->catalog(), fix_->set, fix_->stats(), mix,
                        mix.size() / 2, seed, opts);
  }
}

TEST_F(IncrementalResealTest, UntouchedQueriesKeepTheirSealedForm) {
  CandidateSet set = fix_->set;
  StatsCatalog stats = fix_->stats();
  const std::vector<Query>& queries = fix_->queries();
  WorkloadCacheOptions opts;
  WorkloadCacheBuilder builder(&fix_->catalog(), &set, &stats, opts);
  auto built = builder.BuildAll(queries);
  ASSERT_TRUE(built.ok());

  DriftOptions dopts;
  dopts.add_candidates = 1;
  auto drift = ApplyDrift(queries, &set, &stats, 1, 53, dopts);
  ASSERT_TRUE(drift.ok());
  ASSERT_FALSE(drift->stale_queries.empty());
  ASSERT_LT(drift->stale_queries.size(), queries.size());

  // Record the untouched queries' per-query accounting and a sampled
  // cost before the reseal; both must come through unchanged.
  Rng rng(59);
  std::vector<double> before(queries.size());
  const IndexConfig probe = RandomSubsetConfig(set, &rng, 0.1);
  for (size_t i = 0; i < queries.size(); ++i) {
    before[i] = built->sealed[i].Cost(probe);
  }
  const std::vector<QueryBuildStats> per_query_before = built->per_query;

  auto rebuilt = builder.RebuildQueries(drift->stale_queries, queries, *built);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  *built = std::move(*rebuilt);
  const IndexId grown_universe = set.NumIndexIds();
  for (size_t i = 0; i < queries.size(); ++i) {
    const bool stale =
        std::find(drift->stale_queries.begin(), drift->stale_queries.end(),
                  queries[i].name) != drift->stale_queries.end();
    if (stale) {
      // Rebuilt queries sealed against the grown universe.
      EXPECT_EQ(built->sealed[i].UniverseSize(),
                static_cast<size_t>(grown_universe));
    } else {
      EXPECT_EQ(built->sealed[i].Cost(probe), before[i]) << "query " << i;
      EXPECT_EQ(built->per_query[i].plan_cache_calls,
                per_query_before[i].plan_cache_calls);
      EXPECT_LT(built->sealed[i].UniverseSize(),
                static_cast<size_t>(grown_universe));
    }
  }
}

TEST_F(IncrementalResealTest, ScratchReuseAcrossResealServesLiveCosts) {
  // Regression: BatchCostWithExtras reuses pinned contexts whenever the
  // scratch shape and base match, but assigning RebuildQueries' result
  // over the evaluator's vector replaces sealed caches — before the
  // seal-id check, a scratch pinned before the reseal kept serving the
  // *old* generation's term layout (silently wrong or out-of-range
  // costs). Every post-reseal answer must be bit-identical to a
  // fresh-scratch evaluation.
  CandidateSet set = fix_->set;
  StatsCatalog stats = fix_->stats();
  const std::vector<Query>& queries = fix_->queries();
  WorkloadCacheOptions opts;
  WorkloadCacheBuilder builder(&fix_->catalog(), &set, &stats, opts);
  auto built = builder.BuildAll(queries);
  ASSERT_TRUE(built.ok()) << built.status().ToString();

  const WorkloadCostEvaluator evaluator(&built->sealed);
  std::vector<IndexId> extras = set.candidate_ids;

  // Two scratches pinned to the empty base against the pre-drift seals:
  // after the reseal, one is asked the same base again (the `reuse` fast
  // path) and one is asked base + one id (the advisor's `extend` fast
  // path) — both fast paths must notice the dead seals and re-prepare.
  WorkloadCostEvaluator::EvalScratch reuse_scratch;
  WorkloadCostEvaluator::EvalScratch extend_scratch;
  const std::vector<double> pre =
      evaluator.BatchCostWithExtras({}, extras, &reuse_scratch);
  ASSERT_EQ(pre.size(), extras.size());
  (void)evaluator.BatchCostWithExtras({}, extras, &extend_scratch);
  IndexConfig grown;
  grown.push_back(extras[0]);

  // Drift hard enough that every query's costs actually move, then
  // reseal over the evaluator's vector — the scratches' contexts now
  // point at dead seals.
  auto drift = ApplyDrift(queries, &set, &stats, queries.size(), 61);
  ASSERT_TRUE(drift.ok()) << drift.status().ToString();
  auto rebuilt = builder.RebuildQueries(drift->stale_queries, queries, *built);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  *built = std::move(*rebuilt);

  struct Case {
    const char* name;
    IndexConfig base;
    WorkloadCostEvaluator::EvalScratch* scratch;
  };
  Case cases[] = {{"reuse-on-stale", {}, &reuse_scratch},
                  {"extend-on-stale", grown, &extend_scratch}};
  for (Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::vector<double> stale_scratch_costs =
        evaluator.BatchCostWithExtras(c.base, extras, c.scratch);
    WorkloadCostEvaluator::EvalScratch fresh;
    const std::vector<double> fresh_costs =
        evaluator.BatchCostWithExtras(c.base, extras, &fresh);
    ASSERT_EQ(stale_scratch_costs.size(), fresh_costs.size());
    bool any_moved = false;
    for (size_t e = 0; e < extras.size(); ++e) {
      EXPECT_EQ(stale_scratch_costs[e], fresh_costs[e]) << "extra " << e;
      // And both match the from-scratch configuration price.
      IndexConfig config = c.base;
      config.push_back(extras[e]);
      EXPECT_EQ(fresh_costs[e], evaluator.Cost(config)) << "extra " << e;
      any_moved = any_moved || fresh_costs[e] != pre[e];
    }
    // The drift really changed the answers, so the identity above is not
    // vacuously comparing pre-drift values.
    EXPECT_TRUE(any_moved);
  }
}

TEST_F(IncrementalResealTest, ScratchBoundToOneCacheVectorAssertsInDebug) {
  // The header's contract — "a scratch belongs to one evaluator's cache
  // vector" — is now enforced: the first BatchCostWithExtras records the
  // vector's identity in the scratch and debug builds assert on any
  // later call through a different vector. (Release builds stay safe
  // regardless: the foreign vector's seal ids never match the pinned
  // contexts', so every context is re-prepared — but that silent full
  // re-prepare storm is exactly the misuse worth catching loudly.)
  CandidateSet set = fix_->set;
  StatsCatalog stats = fix_->stats();
  WorkloadCacheBuilder builder(&fix_->catalog(), &set, &stats,
                               WorkloadCacheOptions{});
  auto built_a = builder.BuildAll(fix_->queries());
  ASSERT_TRUE(built_a.ok()) << built_a.status().ToString();
  auto built_b = builder.BuildAll(fix_->queries());
  ASSERT_TRUE(built_b.ok()) << built_b.status().ToString();

  const WorkloadCostEvaluator eval_a(&built_a->sealed);
  const WorkloadCostEvaluator eval_b(&built_b->sealed);
  const std::vector<IndexId>& extras = set.candidate_ids;
  WorkloadCostEvaluator::EvalScratch scratch;
  (void)eval_a.BatchCostWithExtras({}, extras, &scratch);
  EXPECT_EQ(scratch.bound_caches, &built_a->sealed);
  EXPECT_DEBUG_DEATH(
      (void)eval_b.BatchCostWithExtras({}, extras, &scratch),
      "EvalScratch reused with a different evaluator's cache vector");

  // Same-vector reuse stays allowed — including after a reseal is
  // assigned over the vector, which
  // ScratchReuseAcrossResealServesLiveCosts pins above.
  const std::vector<double> again =
      eval_a.BatchCostWithExtras({}, extras, &scratch);
  EXPECT_EQ(again.size(), extras.size());
}

TEST_F(IncrementalResealTest, MovedCachesKeepTheirSealAndPinnedContexts) {
  // Regression: SealedCache's move operations transfer the arena handle
  // but KEEP the seal id — a move is the same immutable seal changing
  // address, not a reseal. Vector reallocation (a growing cache
  // vector, a generation copy reserving capacity) move-constructs
  // every element; if moves drew fresh seal ids, every pinned
  // EvalScratch context would look stale afterwards and the reuse/extend
  // fast paths would silently degrade into a full re-prepare storm.
  CandidateSet set = fix_->set;
  StatsCatalog stats = fix_->stats();
  const std::vector<Query>& queries = fix_->queries();
  WorkloadCacheBuilder builder(&fix_->catalog(), &set, &stats,
                               WorkloadCacheOptions{});
  auto built = builder.BuildAll(queries);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const std::vector<IndexId>& extras = set.candidate_ids;

  // Direct move ctor + move assignment: the context prepared before the
  // moves stays pinned to the live seal and keeps answering the delta
  // path bit-identically (the arena is shared, so its spans never dangle).
  SealedCache cache = built->sealed[0];
  const uint64_t seal_before = cache.seal_id();
  SealedCache::CostContext ctx;
  IndexConfig base;
  base.push_back(extras[0]);
  cache.PrepareContext(base, &ctx);
  ASSERT_EQ(ctx.seal_id(), seal_before);
  std::vector<double> expected;
  {
    SealedCache::CostContext fresh_ctx;
    built->sealed[0].PrepareContext(base, &fresh_ctx);
    for (IndexId extra : extras) {
      expected.push_back(built->sealed[0].CostWithExtra(&fresh_ctx, extra));
    }
  }
  SealedCache moved(std::move(cache));
  EXPECT_EQ(moved.seal_id(), seal_before);
  EXPECT_EQ(cache.ArenaBytes(), 0u);  // moved-from is an empty husk
  SealedCache assigned;
  assigned = std::move(moved);
  EXPECT_EQ(assigned.seal_id(), seal_before);
  for (size_t e = 0; e < extras.size(); ++e) {
    EXPECT_EQ(assigned.CostWithExtra(&ctx, extras[e]), expected[e])
        << "extra " << e;
  }

  // Whole-vector reallocation: every cache move-constructs to a new
  // address, every seal id survives, and a scratch pinned beforehand is
  // still recognized as live (no context re-prepared, same bits out).
  WorkloadCostEvaluator evaluator(&built->sealed);
  WorkloadCostEvaluator::EvalScratch scratch;
  const std::vector<double> pre =
      evaluator.BatchCostWithExtras({}, extras, &scratch);
  std::vector<uint64_t> ids_before;
  for (const SealedCache& c : built->sealed) ids_before.push_back(c.seal_id());
  built->sealed.reserve(built->sealed.capacity() * 2 + 1);
  for (size_t i = 0; i < built->sealed.size(); ++i) {
    EXPECT_EQ(built->sealed[i].seal_id(), ids_before[i]) << "query " << i;
    EXPECT_EQ(scratch.per_query[i].seal_id(), ids_before[i]) << "query " << i;
  }
  const std::vector<double> post =
      evaluator.BatchCostWithExtras({}, extras, &scratch);
  EXPECT_EQ(pre, post);
}

TEST_F(IncrementalResealTest, UnknownNameIsInvalidArgument) {
  CandidateSet set = fix_->set;
  StatsCatalog stats = fix_->stats();
  WorkloadCacheOptions opts;
  WorkloadCacheBuilder builder(&fix_->catalog(), &set, &stats, opts);
  auto built = builder.BuildAll(fix_->queries());
  ASSERT_TRUE(built.ok());
  const Status st =
      builder.RebuildQueries({"no_such_query"}, fix_->queries(), *built)
          .status();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);

  WorkloadCacheResult truncated = std::move(*built);
  truncated.sealed.pop_back();
  const Status parallel_st =
      builder.RebuildQueries({}, fix_->queries(), truncated).status();
  EXPECT_EQ(parallel_st.code(), StatusCode::kInvalidArgument);
}

// Every workload family (src/workload/workload_family.h) upholds the
// same differential contract: small drift, half-workload drift, and
// full drift with universe growth, each bit-identical to a cold build.
// The trace line prints (family, seed) so a failure reproduces alone.
class FamilyResealTest : public ::testing::TestWithParam<std::string> {};

TEST_P(FamilyResealTest, DifferentialResealBitIdentical) {
  auto fix = MakeFamilyFixture(GetParam());
  ASSERT_NE(fix, nullptr);
  SCOPED_TRACE(fix->trace());
  WorkloadCacheOptions opts;
  const size_t n = fix->queries().size();
  RunDifferentialCase(fix->catalog(), fix->set, fix->stats(),
                      fix->queries(), 1, 71, opts);
  RunDifferentialCase(fix->catalog(), fix->set, fix->stats(),
                      fix->queries(), n / 2, 73, opts);
  DriftOptions dopts;
  dopts.add_candidates = 2;
  RunDifferentialCase(fix->catalog(), fix->set, fix->stats(),
                      fix->queries(), n, 79, opts, dopts);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloadFamilies, FamilyResealTest,
    ::testing::ValuesIn(WorkloadFamilyNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

TEST(IncrementalResealMiniTest, VaryQueryMixComposesWithUniqueNames) {
  // Rounds compose: feeding one round's mix (clones included) into the
  // next must never produce duplicate names — reseal targeting is
  // name-keyed, so a collision would silently rebuild the wrong query.
  MiniWorkloadFixture mini;
  std::vector<Query> mix = mini.queries;
  for (uint64_t round = 1; round <= 6; ++round) {
    mix = VaryQueryMix(mix, round, /*min_keep=*/1);
    ASSERT_FALSE(mix.empty());
    std::set<std::string> names;
    for (const Query& q : mix) {
      EXPECT_TRUE(names.insert(q.name).second)
          << "duplicate name '" << q.name << "' in round " << round;
    }
  }
}

}  // namespace
}  // namespace pinum
