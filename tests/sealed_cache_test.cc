// SealedCache: the serve-time form must price every configuration
// bit-identically to the build-time InumCache it was sealed from —
// including empty configurations, duplicate ids, ids outside the
// universe, and ids the access-cost table never saw — while pruning
// dominated plans and early-exiting on the internal-cost lower bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "advisor/candidate_generator.h"
#include "advisor/greedy_advisor.h"
#include "common/rng.h"
#include "inum/sealed_cache.h"
#include "test_util.h"
#include "whatif/candidate_set.h"
#include "whatif/whatif_index.h"
#include "workload/cache_manager.h"
#include "workload/star_schema.h"

namespace pinum {
namespace {

/// Sealed-vs-build bit identity for one built workload: every sealed
/// cache must price every configuration — empty, atomic, random
/// subsets, duplicate ids, out-of-universe ids, the invalid sentinel —
/// bitwise equal to the InumCache it was sealed from (`caches`, the
/// BuildQueryCache oracle). Free function so both the shared-star suite
/// and the family-parameterized suite drive it; callers SCOPED_TRACE
/// their (family, seed).
void ExpectSealedBitIdentical(const FamilyFixture& fix,
                              const std::vector<InumCache>& caches,
                              const WorkloadCacheResult& built,
                              uint64_t seed) {
  const std::vector<Query>& queries = fix.queries();
  Rng rng(seed);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const InumCache& cache = caches[qi];
    const SealedCache& sealed = built.sealed[qi];
    // Empty configuration.
    EXPECT_EQ(sealed.Cost({}), cache.Cost({})) << "query " << qi;
    for (int trial = 0; trial < 30; ++trial) {
      IndexConfig config =
          trial % 2 == 0
              ? RandomAtomicConfig(queries[qi], fix.set, &rng)
              : RandomSubsetConfig(fix.set, &rng, rng.NextDouble() * 0.2);
      // Duplicate an id.
      if (!config.empty() && rng.Chance(0.5)) {
        config.push_back(config[rng.Index(config.size())]);
      }
      // Name ids the per-query access-cost table has no entry for:
      // valid universe ids on unrelated tables (atomic sampling already
      // restricts to the query's tables only on even trials), ids past
      // the universe, and the invalid sentinel.
      if (rng.Chance(0.5)) {
        config.push_back(fix.set.NumIndexIds() + 100);
      }
      if (rng.Chance(0.5)) config.push_back(kInvalidIndexId);
      EXPECT_EQ(sealed.Cost(config), cache.Cost(config))
          << "query " << qi << " trial " << trial << " config size "
          << config.size();
    }
  }
}

/// The delta-costing property: with any base pinned into a context,
/// CostWithExtra(ctx, id) must equal Cost(base + {id}) bitwise for
/// every id — candidates on the query's tables (posting-bearing),
/// candidates on unrelated tables (empty postings), ids past the
/// universe, the invalid sentinel, and ids already in the base — and
/// the context must come back restored after every overlay. Bases
/// cover the same corners the Cost() suite pins: empty, duplicated
/// ids, out-of-universe ids, and configurations under which some
/// terms stay infeasible.
void ExpectDeltaBitIdentical(const FamilyFixture& fix,
                             const WorkloadCacheResult& built,
                             uint64_t seed) {
  const std::vector<Query>& queries = fix.queries();
  const IndexId universe = fix.set.NumIndexIds();
  Rng rng(seed);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const SealedCache& sealed = built.sealed[qi];
    SealedCache::CostContext ctx;
    for (int trial = 0; trial < 6; ++trial) {
      IndexConfig base;
      if (trial > 0) {
        base = trial % 2 == 1
                   ? RandomAtomicConfig(queries[qi], fix.set, &rng)
                   : RandomSubsetConfig(fix.set, &rng, rng.NextDouble() * 0.15);
        if (!base.empty() && rng.Chance(0.5)) {
          base.push_back(base[rng.Index(base.size())]);
        }
        if (rng.Chance(0.3)) base.push_back(universe + 50);
        if (rng.Chance(0.3)) base.push_back(kInvalidIndexId);
      }
      sealed.PrepareContext(base, &ctx);
      EXPECT_EQ(ctx.base_cost(), sealed.Cost(base))
          << "query " << qi << " trial " << trial;

      std::vector<IndexId> extras = fix.set.candidate_ids;
      extras.push_back(universe + 3);
      extras.push_back(kInvalidIndexId);
      if (!base.empty()) extras.push_back(base[0]);
      for (IndexId extra : extras) {
        IndexConfig full = base;
        full.push_back(extra);
        EXPECT_EQ(sealed.CostWithExtra(&ctx, extra), sealed.Cost(full))
            << "query " << qi << " trial " << trial << " extra " << extra;
      }
      // The overlays must have restored the pinned values exactly.
      EXPECT_EQ(sealed.CostWithExtra(&ctx, kInvalidIndexId),
                sealed.Cost(base))
          << "query " << qi << " trial " << trial;
    }
  }
}

/// The shared star fixture (tests/test_util.h — the paper's workload
/// capped at 5-way joins: the classic fixture build is one optimizer
/// call per IOC and the 6/7-way queries alone have 384 + 960 IOCs,
/// minutes under sanitizers for no added coverage) with PINUM and
/// classic caches — shared across the suite because cache construction
/// is the expensive part.
class SealedCacheTest : public ::testing::Test {
 protected:
  struct Fixture {
    std::unique_ptr<StarFixture> star;
    WorkloadCacheResult pinum;
    WorkloadCacheResult classic;
    /// The build-time oracles (BuildQueryCache) for the two results.
    std::vector<InumCache> pinum_caches;
    std::vector<InumCache> classic_caches;

    const std::vector<Query>& queries() const { return star->queries(); }
    const CandidateSet& set() const { return star->set; }
  };
  static Fixture* fix_;

  static void SetUpTestSuite() {
    auto star = MakeStarFixture();
    ASSERT_NE(star, nullptr);
    fix_ = new Fixture{std::move(star), {}, {}, {}, {}};

    WorkloadCacheOptions copts;
    copts.mode = CacheBuildMode::kClassic;
    Build({}, &fix_->pinum, &fix_->pinum_caches);
    Build(copts, &fix_->classic, &fix_->classic_caches);
  }
  /// BuildAll with `opts` into `result`, plus the BuildQueryCache
  /// oracle from the same builder into `caches`.
  static void Build(WorkloadCacheOptions opts, WorkloadCacheResult* result,
                    std::vector<InumCache>* caches) {
    WorkloadCacheBuilder builder(&fix_->star->catalog(), &fix_->star->set,
                                 &fix_->star->stats(), opts);
    auto built = builder.BuildAll(fix_->star->queries());
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    *result = std::move(*built);
    *caches = BuildQueryCaches(&builder, fix_->star->queries());
  }
  static void TearDownTestSuite() {
    delete fix_;
    fix_ = nullptr;
  }

  /// Uniformly random subset of the candidate universe (not atomic: any
  /// number of indexes per table) with probability `p` per candidate.
  static IndexConfig RandomSubset(Rng* rng, double p) {
    return RandomSubsetConfig(fix_->star->set, rng, p);
  }

  static void ExpectIdentical(const std::vector<InumCache>& caches,
                              const WorkloadCacheResult& built,
                              uint64_t seed) {
    ExpectSealedBitIdentical(*fix_->star, caches, built, seed);
  }

  static void ExpectDeltaIdentical(const WorkloadCacheResult& built,
                                   uint64_t seed) {
    ExpectDeltaBitIdentical(*fix_->star, built, seed);
  }
};

SealedCacheTest::Fixture* SealedCacheTest::fix_ = nullptr;

TEST_F(SealedCacheTest, PinumSealedCostBitIdentical) {
  ExpectIdentical(fix_->pinum_caches, fix_->pinum, 101);
}

TEST_F(SealedCacheTest, ClassicSealedCostBitIdentical) {
  ExpectIdentical(fix_->classic_caches, fix_->classic, 103);
}

TEST_F(SealedCacheTest, PinumCostWithExtraBitIdentical) {
  ExpectDeltaIdentical(fix_->pinum, 107);
}

TEST_F(SealedCacheTest, ClassicCostWithExtraBitIdentical) {
  ExpectDeltaIdentical(fix_->classic, 109);
}

TEST_F(SealedCacheTest, SweepEntryPointsMatchSingleExtraCalls) {
  // The batch sweeps (the evaluator's BatchCostWithExtras over this one
  // cache, and the raw inverted CostActiveExtrasInto) must price exactly
  // like per-id CostWithExtra calls — including a duplicate swept id for
  // the evaluator, which aliases it to its first slot.
  Rng rng(113);
  const IndexId universe = fix_->star->set.NumIndexIds();
  for (size_t qi = 0; qi < fix_->pinum.sealed.size(); ++qi) {
    const SealedCache& sealed = fix_->pinum.sealed[qi];
    const IndexConfig base =
        RandomAtomicConfig(fix_->star->queries()[qi], fix_->star->set, &rng);
    SealedCache::CostContext ctx;
    sealed.PrepareContext(base, &ctx);

    std::vector<IndexId> extras = fix_->star->set.candidate_ids;
    extras.push_back(universe + 9);
    extras.push_back(kInvalidIndexId);
    extras.push_back(extras[0]);  // duplicate
    std::vector<double> expected(extras.size());
    for (size_t e = 0; e < extras.size(); ++e) {
      expected[e] = sealed.CostWithExtra(&ctx, extras[e]);
    }

    const std::vector<SealedCache> one = {sealed};
    const WorkloadCostEvaluator evaluator(&one);
    WorkloadCostEvaluator::EvalScratch scratch;
    const std::vector<double>& dense =
        evaluator.BatchCostWithExtras(base, extras, &scratch);
    EXPECT_EQ(dense, expected) << "query " << qi;

    // Inverted sweep over the unique prefix (its contract requires an
    // injective id -> slot map).
    const size_t unique = extras.size() - 1;
    std::vector<uint32_t> position_of_id(
        static_cast<size_t>(universe) + 10, SealedCache::kNotSwept);
    for (size_t e = 0; e < unique; ++e) {
      if (extras[e] >= 0) {
        position_of_id[static_cast<size_t>(extras[e])] =
            static_cast<uint32_t>(e);
      }
    }
    std::vector<double> inverted(unique, ctx.base_cost());
    sealed.CostActiveExtrasInto(&ctx, position_of_id.data(),
                                position_of_id.size(), inverted.data());
    for (size_t e = 0; e < unique; ++e) {
      EXPECT_EQ(inverted[e], expected[e]) << "query " << qi << " slot " << e;
    }
  }
}

TEST_F(SealedCacheTest, ContextExtensionMatchesFreshPreparation) {
  // Growing a context one winner at a time (the advisor's
  // iteration-to-iteration step) must leave it indistinguishable from a
  // context freshly prepared on the grown configuration.
  Rng rng(127);
  for (size_t qi = 0; qi < fix_->pinum.sealed.size(); ++qi) {
    const SealedCache& sealed = fix_->pinum.sealed[qi];
    SealedCache::CostContext grown;
    sealed.PrepareContext({}, &grown);
    IndexConfig config;
    for (int step = 0; step < 6; ++step) {
      const IndexId id =
          fix_->star->set.candidate_ids[rng.Index(fix_->star->set.candidate_ids.size())];
      config.push_back(id);
      sealed.ExtendContext(&grown, id);
      EXPECT_EQ(grown.base_cost(), sealed.Cost(config))
          << "query " << qi << " step " << step;
      SealedCache::CostContext fresh;
      sealed.PrepareContext(config, &fresh);
      EXPECT_EQ(grown.base_cost(), fresh.base_cost());
      for (int probe = 0; probe < 8; ++probe) {
        const IndexId extra = fix_->star->set.candidate_ids[rng.Index(
            fix_->star->set.candidate_ids.size())];
        EXPECT_EQ(sealed.CostWithExtra(&grown, extra),
                  sealed.CostWithExtra(&fresh, extra))
            << "query " << qi << " step " << step << " extra " << extra;
      }
    }
  }
}

TEST_F(SealedCacheTest, SealNeverGrowsThePlanSet) {
  for (const auto& [built, caches] :
       {std::pair{&fix_->pinum, &fix_->pinum_caches},
        std::pair{&fix_->classic, &fix_->classic_caches}}) {
    ASSERT_EQ(built->sealed.size(), caches->size());
    for (size_t qi = 0; qi < caches->size(); ++qi) {
      EXPECT_EQ(built->sealed[qi].NumPlans() +
                    built->sealed[qi].NumPlansPruned(),
                (*caches)[qi].NumPlans());
      EXPECT_GT(built->sealed[qi].NumPlans(), 0u);
      EXPECT_GT(built->sealed[qi].NumTerms(), 0u);
    }
  }
}

TEST_F(SealedCacheTest, BuilderCachesAreAlreadyIrredundant) {
  // Both builders eliminate the paper's Section IV redundancy at build
  // time (export-call dominance pruning, requirement relaxation, key
  // dedup), so on the star workload — whose uncapped candidate universe
  // serves every ordered requirement — the seal's exact pruning must
  // find nothing left. If this ever starts failing, a builder has begun
  // exporting removable plans. (The never-feasible rule is universe-
  // dependent, not builder redundancy: the chain and fact_pair families
  // below prune > 0 without contradicting this.)
  for (const WorkloadCacheResult* built : {&fix_->pinum, &fix_->classic}) {
    for (const SealedCache& sealed : built->sealed) {
      EXPECT_EQ(sealed.NumPlansPruned(), 0u);
    }
  }
}

TEST_F(SealedCacheTest, AdvisorDeltaPathMatchesBatchedPath) {
  // The advisor equivalence the ISSUE pins: the delta path (pinned
  // contexts + posting overlays, extended winner by winner) must return
  // the PR-2 batched path's AdvisorResult bit for bit, across stopping
  // regimes (budget-bound, count-bound, benefit-bound) and with a
  // thread pool sharding the delta evaluation across queries.
  const WorkloadCostEvaluator evaluator(&fix_->pinum.sealed);
  std::vector<AdvisorOptions> variants(4);
  variants[1].budget_bytes = 64 * 1024 * 1024;
  variants[2].max_indexes = 3;
  variants[3].min_relative_benefit = 0;
  for (size_t v = 0; v < variants.size(); ++v) {
    AdvisorOptions batched = variants[v];
    batched.cost_path = AdvisorCostPath::kBatched;
    AdvisorOptions delta = variants[v];
    delta.cost_path = AdvisorCostPath::kDelta;
    const AdvisorResult b = RunGreedyAdvisor(evaluator, fix_->star->set, batched);
    const AdvisorResult d = RunGreedyAdvisor(evaluator, fix_->star->set, delta);
    SCOPED_TRACE("variant " + std::to_string(v));
    ExpectSameAdvisorResult(b, d, /*same_cost_path=*/false);
    EXPECT_FALSE(b.chosen.empty());

    ThreadPool pool(0);
    const WorkloadCostEvaluator pooled(&fix_->pinum.sealed, &pool);
    const AdvisorResult dp = RunGreedyAdvisor(pooled, fix_->star->set, delta);
    ExpectSameAdvisorResult(b, dp, /*same_cost_path=*/false);
  }
}

TEST_F(SealedCacheTest, GrownUniverseIdsPriceAtBaseOnOldSeal) {
  // Incremental reseal's serving contract: after append-only universe
  // growth, an *old* sealed cache (narrower universe) must price the
  // appended ids exactly as a reseal over the wider universe would —
  // at their base cost, since the build-time cache never saw their
  // access costs — so un-resealed queries keep serving bit-identically.
  CandidateSet grown = fix_->star->set;
  const TableDef* fact =
      grown.universe.FindTable(fix_->star->primary_table());
  ASSERT_NE(fact, nullptr);
  auto added = grown.Append(
      {MakeWhatIfIndex("growth_a", *fact, {0}, 1000),
       MakeWhatIfIndex("growth_b", *fact, {1, 2}, 1000)});
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  ASSERT_GT(grown.NumIndexIds(), fix_->star->set.NumIndexIds());

  Rng rng(131);
  for (size_t qi = 0; qi < fix_->pinum.sealed.size(); ++qi) {
    const SealedCache& narrow = fix_->pinum.sealed[qi];
    const SealedCache wide =
        SealedCache::Seal(fix_->pinum_caches[qi], grown.NumIndexIds());
    EXPECT_EQ(narrow.UniverseSize(),
              static_cast<size_t>(fix_->star->set.NumIndexIds()));
    EXPECT_EQ(wide.UniverseSize(), static_cast<size_t>(grown.NumIndexIds()));

    for (int trial = 0; trial < 10; ++trial) {
      IndexConfig config = RandomSubset(&rng, rng.NextDouble() * 0.15);
      const double without = narrow.Cost(config);
      IndexConfig with = config;
      for (IndexId id : *added) {
        if (rng.Chance(0.7)) with.push_back(id);
      }
      // New ids price as absent on the narrow seal and at base on the
      // wide one — the same bits either way.
      EXPECT_EQ(narrow.Cost(with), without) << "query " << qi;
      EXPECT_EQ(wide.Cost(with), without) << "query " << qi;
      EXPECT_EQ(wide.Cost(config), without) << "query " << qi;
    }

    // The delta path agrees: an appended id short-circuits to the base
    // cost on the narrow seal and overlays empty postings on the wide
    // one.
    SealedCache::CostContext narrow_ctx;
    SealedCache::CostContext wide_ctx;
    const IndexConfig base = RandomSubset(&rng, 0.1);
    narrow.PrepareContext(base, &narrow_ctx);
    wide.PrepareContext(base, &wide_ctx);
    EXPECT_EQ(narrow_ctx.base_cost(), wide_ctx.base_cost());
    for (IndexId id : *added) {
      EXPECT_EQ(narrow.CostWithExtra(&narrow_ctx, id),
                narrow_ctx.base_cost());
      EXPECT_EQ(wide.CostWithExtra(&wide_ctx, id), wide_ctx.base_cost());
    }
  }
}

/// The same bit-identity properties, over every registered workload
/// family (src/workload/workload_family.h): the sealed serve-time form
/// must answer like its InumCache on many-join chains, skewed stats,
/// and pruning-heavy capped universes exactly as it does on the star
/// schema. Each case builds its own instance (fast: family builds are
/// sub-second even under sanitizers) and SCOPED_TRACEs its (family,
/// seed) so a failure reproduces from the printed pair.
class FamilySealedCacheTest : public ::testing::TestWithParam<std::string> {};

TEST_P(FamilySealedCacheTest, SealedAndDeltaCostsBitIdentical) {
  auto fix = MakeFamilyFixture(GetParam());
  ASSERT_NE(fix, nullptr);
  SCOPED_TRACE(fix->trace());
  WorkloadCacheBuilder builder(&fix->catalog(), &fix->set, &fix->stats());
  auto built = builder.BuildAll(fix->queries());
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ExpectSealedBitIdentical(*fix, BuildQueryCaches(&builder, fix->queries()),
                           *built, 211);
  ExpectDeltaBitIdentical(*fix, *built, 223);
}

TEST_P(FamilySealedCacheTest, SealTimePruningFiresWherePinned) {
  // The ISSUE's pruning coverage: the chain family's merge-order
  // requirements and the fact_pair family's capped candidate universe
  // leave some ordered requirements with no serving index, so sealing
  // must discard plans (never-feasible rule) — pruning is NOT a no-op
  // outside the star workload — while the bit-identity test above holds
  // on the very same pruned caches. Star (uncapped) must stay at zero,
  // matching BuilderCachesAreAlreadyIrredundant.
  auto fix = MakeFamilyFixture(GetParam());
  ASSERT_NE(fix, nullptr);
  SCOPED_TRACE(fix->trace());
  auto built =
      WorkloadCacheBuilder(&fix->catalog(), &fix->set, &fix->stats(), {})
          .BuildAll(fix->queries());
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  size_t pruned = 0;
  for (const SealedCache& sealed : built->sealed) {
    pruned += sealed.NumPlansPruned();
  }
  const std::string& family = GetParam();
  if (family == "chain" || family == "fact_pair") {
    EXPECT_GT(pruned, 0u);
  } else if (family == "star") {
    EXPECT_EQ(pruned, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloadFamilies, FamilySealedCacheTest,
    ::testing::ValuesIn(WorkloadFamilyNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

TEST(SealedCacheUnitTest, PrunesHandCraftedDominatedPlan) {
  // Two plans, identical single unordered slot, the second with a larger
  // internal cost: the second can never win and must be pruned, without
  // changing any priced cost.
  MiniStar mini;
  InumCache cache;
  Path plan;
  plan.kind = PathKind::kSeqScan;
  plan.table_pos = 0;
  plan.cost = {0, 100};
  LeafSlot slot;
  slot.table_pos = 0;
  slot.req = LeafReqKind::kUnordered;
  slot.unit_cost = 40;
  plan.leaves = {slot};
  cache.AddPlan(plan, mini.db.catalog());  // internal 60, unordered

  // Ordered requirement on c1 with a higher internal cost: the unordered
  // plan dominates it (unordered <= ordered pointwise). kIndexScan with a
  // delivered order keeps the requirement load-bearing under a top-level
  // ORDER BY, so AddPlan does not relax it away.
  Path ordered = plan;
  ordered.kind = PathKind::kIndexScan;
  ordered.cost = {0, 140};
  ordered.leaves[0].req = LeafReqKind::kOrdered;
  ordered.leaves[0].column = {mini.fact, 3};
  ordered.order = OrderSpec::Single({mini.fact, 3});
  cache.AddPlan(ordered, mini.db.catalog(), /*top_order_matters=*/true);
  ASSERT_EQ(cache.NumPlans(), 2u);

  TableAccessInfo info;
  info.pos = 0;
  info.table = mini.fact;
  ScanOption seq;
  seq.index = kInvalidIndexId;
  seq.cost = {0, 50};
  info.options.push_back(seq);
  ScanOption idx;
  idx.index = 3;
  idx.cost = {0, 20};
  idx.order = OrderSpec::Single({mini.fact, 3});
  info.options.push_back(idx);
  cache.mutable_access()->Absorb(info);

  const SealedCache sealed = SealedCache::Seal(cache, 8);
  EXPECT_EQ(sealed.NumPlans(), 1u);
  EXPECT_EQ(sealed.NumPlansPruned(), 1u);
  for (const IndexConfig& config :
       {IndexConfig{}, IndexConfig{3}, IndexConfig{3, 3}, IndexConfig{5}}) {
    EXPECT_EQ(sealed.Cost(config), cache.Cost(config));
  }
}

TEST(SealedCacheUnitTest, PrunesNeverFeasiblePlan) {
  // A plan requiring an order no index in the sealed universe delivers
  // prices infinite under every configuration: pruned at seal time.
  MiniStar mini;
  InumCache cache;
  Path plan;
  plan.kind = PathKind::kSeqScan;
  plan.table_pos = 0;
  plan.cost = {0, 100};
  LeafSlot slot;
  slot.table_pos = 0;
  slot.req = LeafReqKind::kUnordered;
  slot.unit_cost = 40;
  plan.leaves = {slot};
  cache.AddPlan(plan, mini.db.catalog());

  Path dead = plan;
  dead.kind = PathKind::kIndexScan;
  dead.cost = {0, 10};  // cheapest internal cost, but unservable
  dead.leaves[0].req = LeafReqKind::kOrdered;
  dead.leaves[0].column = {mini.fact, 4};
  dead.order = OrderSpec::Single({mini.fact, 4});
  cache.AddPlan(dead, mini.db.catalog(), true);
  ASSERT_EQ(cache.NumPlans(), 2u);

  TableAccessInfo info;
  info.pos = 0;
  info.table = mini.fact;
  ScanOption seq;
  seq.index = kInvalidIndexId;
  seq.cost = {0, 50};
  info.options.push_back(seq);
  ScanOption idx;  // index 3 orders c3, nothing orders c4
  idx.index = 3;
  idx.cost = {0, 20};
  idx.order = OrderSpec::Single({mini.fact, 3});
  info.options.push_back(idx);
  cache.mutable_access()->Absorb(info);

  const SealedCache sealed = SealedCache::Seal(cache, 8);
  EXPECT_EQ(sealed.NumPlans(), 1u);
  EXPECT_EQ(sealed.NumPlansPruned(), 1u);
  for (const IndexConfig& config : {IndexConfig{}, IndexConfig{3}}) {
    EXPECT_EQ(sealed.Cost(config), cache.Cost(config));
  }
}

TEST(SealedCacheUnitTest, KeepsIncomparablePlans) {
  // An ordered plan with *smaller* internal cost is not dominated by the
  // unordered one (and cannot dominate it either): both must survive.
  MiniStar mini;
  InumCache cache;
  Path plan;
  plan.kind = PathKind::kSeqScan;
  plan.table_pos = 0;
  plan.cost = {0, 100};
  LeafSlot slot;
  slot.table_pos = 0;
  slot.req = LeafReqKind::kUnordered;
  slot.unit_cost = 40;
  plan.leaves = {slot};
  cache.AddPlan(plan, mini.db.catalog());  // internal 60, unordered

  Path ordered = plan;
  ordered.kind = PathKind::kIndexScan;
  ordered.cost = {0, 70};  // internal 30: cheaper when an index orders
  ordered.leaves[0].req = LeafReqKind::kOrdered;
  ordered.leaves[0].column = {mini.fact, 3};
  ordered.order = OrderSpec::Single({mini.fact, 3});
  cache.AddPlan(ordered, mini.db.catalog(), true);
  ASSERT_EQ(cache.NumPlans(), 2u);

  TableAccessInfo info;
  info.pos = 0;
  info.table = mini.fact;
  ScanOption seq;
  seq.index = kInvalidIndexId;
  seq.cost = {0, 50};
  info.options.push_back(seq);
  ScanOption idx;
  idx.index = 3;
  idx.cost = {0, 45};
  idx.order = OrderSpec::Single({mini.fact, 3});
  info.options.push_back(idx);
  cache.mutable_access()->Absorb(info);

  const SealedCache sealed = SealedCache::Seal(cache, 8);
  EXPECT_EQ(sealed.NumPlans(), 2u);
  EXPECT_EQ(sealed.NumPlansPruned(), 0u);
  // Without the index the unordered plan wins (60 + 50 vs infeasible);
  // with it the ordered plan wins (30 + 45 < 60 + 45).
  EXPECT_EQ(sealed.Cost({}), cache.Cost({}));
  EXPECT_EQ(sealed.Cost({}), 110);
  EXPECT_EQ(sealed.Cost({3}), cache.Cost({3}));
  EXPECT_EQ(sealed.Cost({3}), 75);
}

}  // namespace
}  // namespace pinum
