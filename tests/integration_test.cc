// End-to-end integration: workload -> candidates -> PINUM caches ->
// greedy advisor -> build chosen indexes for real -> re-optimize ->
// execute, verifying identical results and improved runtimes. This is the
// Figure 6/7 pipeline at test scale.
#include <gtest/gtest.h>

#include "advisor/candidate_generator.h"
#include "advisor/greedy_advisor.h"
#include "executor/executor.h"
#include "optimizer/optimizer.h"
#include "pinum/pinum_builder.h"
#include "whatif/candidate_set.h"
#include "workload/star_schema.h"

namespace pinum {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static StarSchemaWorkload* workload_;

  static void SetUpTestSuite() {
    StarSchemaSpec spec;
    spec.scale = 0.001;  // fact: 60k rows — test scale
    spec.query_sizes = {2, 3, 4};
    auto w = StarSchemaWorkload::Create(spec);
    ASSERT_TRUE(w.ok());
    workload_ = new StarSchemaWorkload(std::move(*w));
    ASSERT_TRUE(workload_->Materialize(1.0).ok());
  }
  static void TearDownTestSuite() {
    delete workload_;
    workload_ = nullptr;
  }
};

StarSchemaWorkload* IntegrationTest::workload_ = nullptr;

TEST_F(IntegrationTest, AdvisorPipelineSpeedsUpExecution) {
  Database& db = workload_->db();
  const std::vector<Query>& queries = workload_->queries();

  // 1. Baseline: optimize + execute without indexes.
  Optimizer base_opt(&db.catalog(), &db.stats());
  PlanExecutor exec(&db);
  std::vector<ExecResult> before;
  for (const Query& q : queries) {
    auto r = base_opt.Optimize(q, PlannerKnobs{});
    ASSERT_TRUE(r.ok()) << q.name;
    auto e = exec.Execute(q, *r->best);
    ASSERT_TRUE(e.ok()) << q.name << ": " << e.status().ToString();
    before.push_back(*e);
  }

  // 2. Candidates + PINUM caches + greedy advisor.
  CandidateOptions copt;
  auto cands =
      GenerateCandidates(queries, db.catalog(), db.stats(), copt);
  ASSERT_FALSE(cands.empty());
  auto set = MakeCandidateSet(db.catalog(), cands);
  ASSERT_TRUE(set.ok());
  std::vector<SealedCache> caches;
  for (const Query& q : queries) {
    PinumBuildOptions opts;
    auto cache = BuildInumCachePinum(q, db.catalog(), *set, db.stats(),
                                     opts, nullptr);
    ASSERT_TRUE(cache.ok()) << q.name;
    caches.push_back(SealedCache::Seal(*cache, set->NumIndexIds()));
  }
  AdvisorOptions aopts;
  aopts.budget_bytes = 1LL << 30;
  const AdvisorResult advice = RunGreedyAdvisor(caches, *set, aopts);
  ASSERT_FALSE(advice.chosen.empty());
  EXPECT_LT(advice.workload_cost_after, advice.workload_cost_before);

  // 3. Build the suggested indexes for real.
  for (IndexId id : advice.chosen) {
    const IndexDef* def = set->universe.FindIndex(id);
    ASSERT_NE(def, nullptr);
    auto built = db.BuildIndex("built_" + def->name, def->table,
                               def->key_columns);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
  }

  // 4. Re-optimize + execute; results must match, runtime should drop.
  Optimizer indexed_opt(&db.catalog(), &db.stats());
  double total_before = 0, total_after = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    auto r = indexed_opt.Optimize(queries[i], PlannerKnobs{});
    ASSERT_TRUE(r.ok());
    auto e = exec.Execute(queries[i], *r->best);
    ASSERT_TRUE(e.ok()) << queries[i].name << ": "
                        << e.status().ToString();
    EXPECT_EQ(e->rows, before[i].rows) << queries[i].name;
    EXPECT_EQ(e->checksum, before[i].checksum) << queries[i].name;
    EXPECT_TRUE(e->ordered_ok);
    total_before += before[i].millis;
    total_after += e->millis;
  }
  // The suggested indexes must help overall (the Figure 7 claim; exact
  // ratios are measured by the benchmark, not asserted here).
  EXPECT_LT(total_after, total_before);
}

TEST_F(IntegrationTest, PinumCostPredictsRealIndexBenefitDirection) {
  // The cache's predicted improvement direction matches reality: cost
  // with all candidates <= cost with none.
  Database& db = workload_->db();
  const Query& q = workload_->queries()[1];
  CandidateOptions copt;
  auto cands = GenerateCandidates({q}, db.catalog(), db.stats(), copt);
  auto set = MakeCandidateSet(db.catalog(), cands);
  ASSERT_TRUE(set.ok());
  PinumBuildOptions opts;
  auto cache =
      BuildInumCachePinum(q, db.catalog(), *set, db.stats(), opts, nullptr);
  ASSERT_TRUE(cache.ok());
  EXPECT_LE(cache->Cost(set->candidate_ids), cache->Cost({}) + 1e-6);
}

}  // namespace
}  // namespace pinum
