#include <gtest/gtest.h>

#include "advisor/candidate_generator.h"
#include "advisor/greedy_advisor.h"
#include "optimizer/path.h"
#include "optimizer/scan_builder.h"
#include "pinum/pinum_builder.h"
#include "test_util.h"
#include "whatif/candidate_set.h"
#include "whatif/whatif_index.h"

namespace pinum {
namespace {

class AdvisorTest : public ::testing::Test {
 protected:
  AdvisorTest() : mini_() {
    workload_ = {mini_.JoinQuery(), mini_.ThreeWayQuery()};
    CandidateOptions copt;
    candidates_ = GenerateCandidates(workload_, mini_.db.catalog(),
                                     mini_.db.stats(), copt);
    set_ = *MakeCandidateSet(mini_.db.catalog(), candidates_);
    for (const Query& q : workload_) {
      PinumBuildOptions opts;
      auto cache = BuildInumCachePinum(q, mini_.db.catalog(), set_,
                                       mini_.db.stats(), opts, nullptr);
      EXPECT_TRUE(cache.ok());
      caches_.push_back(std::move(*cache));
      sealed_.push_back(SealedCache::Seal(caches_.back(), set_.NumIndexIds()));
    }
  }

  MiniStar mini_;
  std::vector<Query> workload_;
  std::vector<IndexDef> candidates_;
  CandidateSet set_;
  std::vector<InumCache> caches_;
  /// caches_ sealed once: the advisor's only input form.
  std::vector<SealedCache> sealed_;
};

TEST_F(AdvisorTest, CandidatesCoverInterestingColumns) {
  EXPECT_GT(candidates_.size(), 5u);
  // Every candidate indexes a table referenced by the workload and has a
  // nonempty key.
  for (const auto& c : candidates_) {
    EXPECT_TRUE(c.hypothetical);
    EXPECT_FALSE(c.key_columns.empty());
    EXPECT_GT(c.leaf_pages, 0);
    bool referenced = false;
    for (const auto& q : workload_) {
      if (q.PosOfTable(c.table) >= 0) referenced = true;
    }
    EXPECT_TRUE(referenced);
  }
  // Covering candidates exist (multi-column keys).
  bool has_covering = false;
  for (const auto& c : candidates_) {
    if (c.key_columns.size() > 1) has_covering = true;
  }
  EXPECT_TRUE(has_covering);
}

TEST_F(AdvisorTest, CandidatesDeduplicated) {
  std::set<std::string> keys;
  for (const auto& c : candidates_) {
    std::string key = std::to_string(c.table);
    for (ColumnIdx k : c.key_columns) key += "," + std::to_string(k);
    EXPECT_TRUE(keys.insert(key).second) << "duplicate candidate " << key;
  }
}

TEST_F(AdvisorTest, MaxCandidatesRespected) {
  CandidateOptions capped;
  capped.max_candidates = 3;
  auto some = GenerateCandidates(workload_, mini_.db.catalog(),
                                 mini_.db.stats(), capped);
  EXPECT_LE(some.size(), 3u);
}

TEST_F(AdvisorTest, GreedyImprovesWorkloadCost) {
  AdvisorOptions opts;
  const AdvisorResult result = RunGreedyAdvisor(sealed_, set_, opts);
  EXPECT_FALSE(result.chosen.empty());
  EXPECT_LT(result.workload_cost_after, result.workload_cost_before);
  EXPECT_GT(result.evaluations, 0);
}

TEST_F(AdvisorTest, StepsHaveNonIncreasingBenefit) {
  AdvisorOptions opts;
  const AdvisorResult result = RunGreedyAdvisor(sealed_, set_, opts);
  for (size_t i = 1; i < result.steps.size(); ++i) {
    EXPECT_LE(result.steps[i].benefit, result.steps[i - 1].benefit + 1e-6);
  }
  // Steps' final costs are consistent with the overall result.
  if (!result.steps.empty()) {
    EXPECT_NEAR(result.steps.back().workload_cost_after,
                result.workload_cost_after, 1e-6);
  }
}

TEST_F(AdvisorTest, BudgetRespected) {
  AdvisorOptions tight;
  tight.budget_bytes = 2 * 1024 * 1024;  // 2 MB
  const AdvisorResult result = RunGreedyAdvisor(sealed_, set_, tight);
  EXPECT_LE(result.total_size_bytes, tight.budget_bytes);
  int64_t recomputed = 0;
  for (IndexId id : result.chosen) {
    recomputed += IndexSizeBytes(*set_.universe.FindIndex(id));
  }
  EXPECT_EQ(recomputed, result.total_size_bytes);
}

TEST_F(AdvisorTest, ZeroBudgetChoosesNothing) {
  AdvisorOptions zero;
  zero.budget_bytes = 0;
  const AdvisorResult result = RunGreedyAdvisor(sealed_, set_, zero);
  EXPECT_TRUE(result.chosen.empty());
  EXPECT_EQ(result.workload_cost_after, result.workload_cost_before);
}

TEST_F(AdvisorTest, MaxIndexesCapsSelection) {
  AdvisorOptions capped;
  capped.max_indexes = 1;
  const AdvisorResult result = RunGreedyAdvisor(sealed_, set_, capped);
  EXPECT_LE(result.chosen.size(), 1u);
}

TEST_F(AdvisorTest, LargerBudgetNeverHurts) {
  AdvisorOptions small;
  small.budget_bytes = 4 * 1024 * 1024;
  AdvisorOptions large;
  large.budget_bytes = 4LL * 1024 * 1024 * 1024;
  const AdvisorResult r_small = RunGreedyAdvisor(sealed_, set_, small);
  const AdvisorResult r_large = RunGreedyAdvisor(sealed_, set_, large);
  EXPECT_LE(r_large.workload_cost_after, r_small.workload_cost_after + 1e-6);
}

TEST_F(AdvisorTest, DeltaAndBatchedPathsReturnIdenticalResults) {
  // The delta path (pinned per-query contexts + posting overlays) and
  // the PR-2 batched path must agree on every field, bit for bit,
  // across budgets tight enough to trigger the permanent drop of
  // over-budget candidates mid-run.
  for (int64_t budget :
       {int64_t{0}, int64_t{2} * 1024 * 1024, int64_t{64} * 1024 * 1024,
        int64_t{4} * 1024 * 1024 * 1024}) {
    AdvisorOptions batched;
    batched.budget_bytes = budget;
    batched.cost_path = AdvisorCostPath::kBatched;
    AdvisorOptions delta = batched;
    delta.cost_path = AdvisorCostPath::kDelta;
    const AdvisorResult b = RunGreedyAdvisor(sealed_, set_, batched);
    const AdvisorResult d = RunGreedyAdvisor(sealed_, set_, delta);
    SCOPED_TRACE("budget " + std::to_string(budget));
    ExpectSameAdvisorResult(b, d, /*same_cost_path=*/false);
  }
}

TEST_F(AdvisorTest, EvaluationCountersSplitConfigsPricedFromFullWork) {
  // Regression: the delta path used to report sweep_ids.size() as if
  // every extra were a full configuration evaluation. The split pins
  // both semantics: `evaluations` counts configurations priced (each an
  // optimizer call avoided — path-independent), `full_evaluations`
  // counts configurations actually resolved through the full pricing
  // path (the delta path's sweeps are O(postings) overlays, so only the
  // per-iteration pinned base counts there).
  AdvisorOptions delta;  // default kDelta
  AdvisorOptions batched;
  batched.cost_path = AdvisorCostPath::kBatched;
  const AdvisorResult d = RunGreedyAdvisor(sealed_, set_, delta);
  const AdvisorResult b = RunGreedyAdvisor(sealed_, set_, batched);
  ASSERT_FALSE(d.chosen.empty());

  // Configurations priced: path-independent, and exactly one initial
  // Cost plus one per swept candidate. The default budget never drops a
  // candidate mid-run, so sweep i prices (num_candidates - i) survivors
  // and there are steps + 1 sweeps (the last finds nothing above the
  // floor).
  EXPECT_EQ(d.evaluations, b.evaluations);
  const int64_t n = static_cast<int64_t>(set_.candidate_ids.size());
  const int64_t sweeps = static_cast<int64_t>(d.steps.size()) + 1;
  int64_t expected_priced = 1;
  for (int64_t i = 0; i < sweeps; ++i) expected_priced += n - i;
  EXPECT_EQ(d.evaluations, expected_priced);

  // Full-path work: the batched path pays one full resolution per
  // priced configuration; the delta path pays the initial Cost plus one
  // pinned base per sweep and nothing else.
  EXPECT_EQ(b.full_evaluations, b.evaluations);
  EXPECT_EQ(d.full_evaluations, 1 + sweeps);
  EXPECT_LT(d.full_evaluations, d.evaluations);
}

TEST_F(AdvisorTest, AllOutOfUniverseExtrasPriceAsBase) {
  // Regression sweep for the max_id == -1 edge: when every extra is
  // negative (or there are none), there is nothing to overlay — every
  // row must come back as exactly Cost(base), the call must leave the
  // pinned contexts coherent, and the next real sweep must reuse them
  // warm with unchanged bits.
  std::vector<SealedCache> sealed;
  for (const InumCache& cache : caches_) {
    sealed.push_back(SealedCache::Seal(cache, set_.NumIndexIds()));
  }
  const WorkloadCostEvaluator evaluator(&sealed);
  WorkloadCostEvaluator::EvalScratch scratch;

  IndexConfig base;
  base.push_back(set_.candidate_ids[0]);
  const double base_cost = evaluator.Cost(base);

  const std::vector<IndexId> bogus = {kInvalidIndexId, -2, -7};
  const std::vector<double> all_negative =
      evaluator.BatchCostWithExtras(base, bogus, &scratch);
  ASSERT_EQ(all_negative.size(), bogus.size());
  for (size_t e = 0; e < all_negative.size(); ++e) {
    EXPECT_EQ(all_negative[e], base_cost) << "extra " << e;
  }

  const std::vector<double> none =
      evaluator.BatchCostWithExtras(base, {}, &scratch);
  EXPECT_TRUE(none.empty());

  // The empty sweeps above still pinned/extended contexts: a real sweep
  // on a base grown by one id must take the extend fast path and match
  // the from-scratch batch bit for bit.
  IndexConfig grown = base;
  grown.push_back(set_.candidate_ids[1]);
  const std::vector<double>& real =
      evaluator.BatchCostWithExtras(grown, set_.candidate_ids, &scratch);
  std::vector<IndexConfig> configs;
  for (IndexId id : set_.candidate_ids) {
    IndexConfig config = grown;
    config.push_back(id);
    configs.push_back(std::move(config));
  }
  const std::vector<double> expected = evaluator.BatchCost(configs);
  ASSERT_EQ(real.size(), expected.size());
  for (size_t e = 0; e < expected.size(); ++e) {
    EXPECT_EQ(real[e], expected[e]) << "extra " << e;
  }
}

TEST_F(AdvisorTest, FarOutOfUniverseExtraDoesNotSizeTheSweepMap) {
  // Regression: the id -> slot map used to be sized by the largest
  // extra id, so one extra of 50,000,000 made every call fill a 200 MB
  // map. Such an id bears no postings in any seal and prices as
  // Cost(base); the map must stay within the universe.
  const WorkloadCostEvaluator evaluator(&sealed_);
  WorkloadCostEvaluator::EvalScratch scratch;
  IndexConfig base;
  base.push_back(set_.candidate_ids[0]);

  std::vector<IndexId> extras = set_.candidate_ids;
  extras.push_back(50000000);
  const std::vector<double>& got =
      evaluator.BatchCostWithExtras(base, extras, &scratch);
  ASSERT_EQ(got.size(), extras.size());
  EXPECT_EQ(got.back(), evaluator.Cost(base));
  EXPECT_LE(scratch.position_of_id.size(),
            static_cast<size_t>(set_.NumIndexIds()));
  for (size_t e = 0; e + 1 < extras.size(); ++e) {
    IndexConfig config = base;
    config.push_back(extras[e]);
    EXPECT_EQ(got[e], evaluator.Cost(config)) << "extra " << e;
  }
}

TEST(AdvisorStoppingRuleTest, RelativeRuleStaysRelativeBelowUnitCost) {
  // Regression: the stopping rule used to scale by
  // max(1.0, workload_cost_before), silently turning the threshold
  // absolute for workloads whose total cost sits below 1.0 — a winner
  // worth 6e-7 on a 0.5-cost workload (relative benefit 1.2e-6, above
  // the 1e-6 default) was dropped. Hand-build such a workload: one
  // seq-scan plan costing 0.5, one candidate shaving 6e-7 off.
  MiniStar mini;
  const IndexDef def = MakeWhatIfIndex(
      "tiny_cand", *mini.db.catalog().FindTable(mini.fact), {3}, 100.0);
  CandidateSet set = *MakeCandidateSet(mini.db.catalog(), {def});
  const IndexId cand = set.candidate_ids[0];

  InumCache cache;
  Path plan;
  plan.kind = PathKind::kSeqScan;
  plan.table_pos = 0;
  plan.cost = {0, 0.5};
  LeafSlot slot;
  slot.table_pos = 0;
  slot.req = LeafReqKind::kUnordered;
  slot.unit_cost = 0.4;
  plan.leaves = {slot};
  cache.AddPlan(plan, mini.db.catalog());
  TableAccessInfo info;
  info.pos = 0;
  info.table = mini.fact;
  ScanOption seq;
  seq.index = kInvalidIndexId;
  seq.cost = {0, 0.4};
  info.options.push_back(seq);
  ScanOption idx;
  idx.index = cand;
  idx.cost = {0, 0.4 - 6e-7};
  info.options.push_back(idx);
  cache.mutable_access()->Absorb(info);

  std::vector<SealedCache> sealed;
  sealed.push_back(SealedCache::Seal(cache, set.NumIndexIds()));

  AdvisorOptions opts;  // min_relative_benefit = 1e-6, floor disabled
  const AdvisorResult kept = RunGreedyAdvisor(sealed, set, opts);
  ASSERT_LT(kept.workload_cost_before, 1.0);
  EXPECT_EQ(kept.chosen, std::vector<IndexId>{cand})
      << "a benefit above min_relative_benefit * cost_before must be kept "
         "even when cost_before < 1.0";

  // The documented absolute floor reproduces the old cutoff on demand.
  AdvisorOptions absolute = opts;
  absolute.min_absolute_benefit = 1e-6;
  const AdvisorResult dropped = RunGreedyAdvisor(sealed, set, absolute);
  EXPECT_TRUE(dropped.chosen.empty());
  EXPECT_EQ(dropped.workload_cost_after, dropped.workload_cost_before);
}

TEST_F(AdvisorTest, BatchCostWithExtrasMatchesBatchCost) {
  // The evaluator's delta batch must price base + {extra} exactly like
  // the from-scratch batch, including extras already in the base and
  // ids outside the universe, and context reuse across calls (same
  // base, then base grown by one) must not change anything.
  std::vector<SealedCache> sealed;
  for (const InumCache& cache : caches_) {
    sealed.push_back(SealedCache::Seal(cache, set_.NumIndexIds()));
  }
  const WorkloadCostEvaluator evaluator(&sealed);
  WorkloadCostEvaluator::EvalScratch scratch;

  std::vector<IndexId> extras = set_.candidate_ids;
  extras.push_back(set_.NumIndexIds() + 7);
  extras.push_back(kInvalidIndexId);

  IndexConfig base;
  for (int round = 0; round < 3; ++round) {
    std::vector<IndexConfig> configs;
    for (IndexId extra : extras) {
      IndexConfig config = base;
      config.push_back(extra);
      configs.push_back(std::move(config));
    }
    const std::vector<double> expected = evaluator.BatchCost(configs);
    // Twice with the same scratch: first call prepares (round 0) or
    // extends (later rounds), second reuses the pinned contexts.
    for (int pass = 0; pass < 2; ++pass) {
      const std::vector<double>& got =
          evaluator.BatchCostWithExtras(base, extras, &scratch);
      ASSERT_EQ(got.size(), expected.size());
      for (size_t e = 0; e < expected.size(); ++e) {
        EXPECT_EQ(got[e], expected[e])
            << "round " << round << " pass " << pass << " extra " << e;
      }
    }
    base.push_back(set_.candidate_ids[round]);  // next round extends
  }
}

}  // namespace
}  // namespace pinum
