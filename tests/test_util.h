// Shared test fixtures: a miniature star schema (fact + two dimensions)
// with synthetic statistics and helpers to materialize it, the paper's
// star-schema workload + candidate universe (the expensive fixture the
// serving suites share), and seeded drift wrappers for the differential
// reseal suite.
#ifndef PINUM_TESTS_TEST_UTIL_H_
#define PINUM_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "advisor/candidate_generator.h"
#include "advisor/greedy_advisor.h"
#include "common/rng.h"
#include "inum/access_cost_table.h"
#include "inum/inum_builder.h"
#include "query/query.h"
#include "stats/table_stats.h"
#include "storage/database.h"
#include "whatif/candidate_set.h"
#include "workload/cache_manager.h"
#include "workload/star_schema.h"
#include "workload/workload_family.h"

namespace pinum {

/// The build-time oracle: every query's InumCache, rebuilt by `builder`
/// with the knobs and shared store its BuildAll used (call it after
/// that BuildAll, under the same world). EXPECTs every build to
/// succeed; a failed query gets an empty cache.
inline std::vector<InumCache> BuildQueryCaches(
    WorkloadCacheBuilder* builder, const std::vector<Query>& queries) {
  std::vector<InumCache> caches;
  caches.reserve(queries.size());
  for (const Query& q : queries) {
    auto cache = builder->BuildQueryCache(q);
    EXPECT_TRUE(cache.ok()) << q.name << ": " << cache.status().ToString();
    caches.push_back(cache.ok() ? std::move(*cache) : InumCache{});
  }
  return caches;
}

/// Classic INUM, the paper's per-query baseline: every query's
/// BuildInumCacheClassic cache. EXPECTs every build to succeed; a failed
/// query gets an empty cache.
inline std::vector<InumCache> BuildClassicCaches(
    const Catalog& catalog, const CandidateSet& set,
    const StatsCatalog& stats, const std::vector<Query>& queries,
    const InumBuildOptions& options = {}) {
  std::vector<InumCache> caches;
  caches.reserve(queries.size());
  for (const Query& q : queries) {
    auto cache =
        BuildInumCacheClassic(q, catalog, set, stats, options, nullptr);
    EXPECT_TRUE(cache.ok()) << q.name << ": " << cache.status().ToString();
    caches.push_back(cache.ok() ? std::move(*cache) : InumCache{});
  }
  return caches;
}

/// Seals `caches` over `set`'s universe, as BuildAll seals each build.
inline std::vector<SealedCache> SealCaches(const std::vector<InumCache>& caches,
                                           const CandidateSet& set) {
  std::vector<SealedCache> sealed;
  sealed.reserve(caches.size());
  for (const InumCache& cache : caches) {
    sealed.push_back(SealedCache::Seal(cache, set.NumIndexIds()));
  }
  return sealed;
}

/// Every field of two advisor runs, compared exactly — costs are
/// doubles compared with ==, because the delta path's contract (and the
/// batched/serial pricing contract before it) is bitwise equality, not
/// approximate agreement. Any new AdvisorResult field belongs here so
/// every equivalence suite enforces it. `full_evaluations` is the one
/// deliberately path-DEPENDENT field (it counts full-path resolutions,
/// which the delta path avoids); pass same_cost_path = false when `a`
/// and `b` ran different cost paths so everything else is still pinned.
inline void ExpectSameAdvisorResult(const AdvisorResult& a,
                                    const AdvisorResult& b,
                                    bool same_cost_path = true) {
  EXPECT_EQ(a.chosen, b.chosen);
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].chosen, b.steps[i].chosen) << "step " << i;
    EXPECT_EQ(a.steps[i].benefit, b.steps[i].benefit) << "step " << i;
    EXPECT_EQ(a.steps[i].size_bytes, b.steps[i].size_bytes) << "step " << i;
    EXPECT_EQ(a.steps[i].workload_cost_after, b.steps[i].workload_cost_after)
        << "step " << i;
  }
  EXPECT_EQ(a.workload_cost_before, b.workload_cost_before);
  EXPECT_EQ(a.workload_cost_after, b.workload_cost_after);
  EXPECT_EQ(a.total_size_bytes, b.total_size_bytes);
  EXPECT_EQ(a.evaluations, b.evaluations);
  if (same_cost_path) {
    EXPECT_EQ(a.full_evaluations, b.full_evaluations);
  }
}

/// Random atomic configuration over the candidates relevant to `q` (at
/// most one index per table, each table filled with prob. `p_fill`) —
/// the sampling the cache-accuracy tests price configurations with.
inline IndexConfig RandomAtomicConfig(const Query& q, const CandidateSet& set,
                                      Rng* rng, double p_fill = 0.6) {
  std::map<TableId, std::vector<IndexId>> per_table;
  for (IndexId id : set.candidate_ids) {
    const IndexDef* def = set.universe.FindIndex(id);
    if (q.PosOfTable(def->table) >= 0) per_table[def->table].push_back(id);
  }
  IndexConfig config;
  for (auto& [table, ids] : per_table) {
    (void)table;
    if (rng->Chance(p_fill)) config.push_back(ids[rng->Index(ids.size())]);
  }
  return config;
}

/// Family-parameterized workload fixture: one generated WorkloadInstance
/// (src/workload/workload_family.h) behind the accessor surface the
/// serving suites share. The default "star" family reproduces the old
/// hand-rolled fixture exactly — the paper's star schema capped at 5-way
/// joins (6/7-way queries add minutes under sanitizers but no new slot
/// shapes) with its generated candidate universe. Property suites
/// parameterized over WorkloadFamilyNames() construct one per family and
/// SCOPED_TRACE `trace()` so failures print their (family, seed).
struct FamilyFixture {
  explicit FamilyFixture(std::unique_ptr<WorkloadInstance> inst)
      : instance(std::move(inst)), set(instance->set) {}

  std::unique_ptr<WorkloadInstance> instance;
  /// The candidate universe, aliasing instance->set (drift appends to it
  /// through either name).
  CandidateSet& set;

  const std::vector<Query>& queries() const { return instance->queries; }
  const Catalog& catalog() const { return instance->catalog(); }
  const StatsCatalog& stats() const { return instance->stats(); }
  const std::vector<TableId>& tables() const { return instance->tables; }
  TableId primary_table() const { return instance->primary_table(); }
  const std::string& family() const { return instance->family; }

  /// Failure-reproduction tag: "family=chain seed=42".
  std::string trace() const {
    return "family=" + instance->family +
           " seed=" + std::to_string(instance->options.seed);
  }
};

/// Returns nullptr on failure; callers ASSERT at SetUpTestSuite time.
inline std::unique_ptr<FamilyFixture> MakeFamilyFixture(
    const std::string& family, const WorkloadFamilyOptions& options = {}) {
  auto inst = MakeWorkloadInstance(family, options);
  if (!inst.ok()) return nullptr;
  return std::make_unique<FamilyFixture>(std::move(*inst));
}

/// The star-family specialization the pre-family suites were written
/// against (identical catalog, queries, and universe to the old
/// StarFixture).
using StarFixture = FamilyFixture;

inline std::unique_ptr<StarFixture> MakeStarFixture() {
  return MakeFamilyFixture("star");
}

/// Uniformly random subset of `set`'s candidates (any number of indexes
/// per table) with probability `p` per candidate — the non-atomic
/// sampling the sealed-cache and reseal equivalence suites mix in.
inline IndexConfig RandomSubsetConfig(const CandidateSet& set, Rng* rng,
                                      double p) {
  IndexConfig config;
  for (IndexId id : set.candidate_ids) {
    if (rng->Chance(p)) config.push_back(id);
  }
  return config;
}

/// Builds `fact(id, fk_d1, fk_d2, c1, c2)`, `d1(id, c1, c2)`,
/// `d2(id, c1, c2)` with uniform synthetic statistics.
///
/// fact: `fact_rows` rows; dims: `dim_rows` rows. Payload columns are
/// uniform in [1, payload_max].
class MiniStar {
 public:
  explicit MiniStar(double fact_rows = 1'000'000, double dim_rows = 10'000,
                    Value payload_max = 1'000'000) {
    auto add_table = [&](const std::string& name, bool is_fact) {
      TableDef def;
      def.name = name;
      def.columns.push_back({"id", TypeId::kInt64});
      if (is_fact) {
        def.columns.push_back({"fk_d1", TypeId::kInt64});
        def.columns.push_back({"fk_d2", TypeId::kInt64});
      }
      def.columns.push_back({"c1", TypeId::kInt64});
      def.columns.push_back({"c2", TypeId::kInt64});
      return *db.catalog().AddTable(def);
    };
    fact = add_table("fact", true);
    d1 = add_table("d1", false);
    d2 = add_table("d2", false);
    (void)db.catalog().AddForeignKey(
        {fact, 1, d1, 0});
    (void)db.catalog().AddForeignKey(
        {fact, 2, d2, 0});

    auto put_stats = [&](TableId t, double rows, bool is_fact) {
      const TableDef* def = db.catalog().FindTable(t);
      TableStats stats;
      stats.row_count = rows;
      stats.RecomputePages(*def);
      stats.columns.resize(def->columns.size());
      for (size_t c = 0; c < def->columns.size(); ++c) {
        ColumnStats& cs = stats.columns[c];
        const std::string& name = def->columns[c].name;
        if (name == "id") {
          cs.n_distinct = rows;
          cs.min = 0;
          cs.max = static_cast<Value>(rows) - 1;
          cs.correlation = 1.0;
          cs.histogram = Histogram::Uniform(cs.min, cs.max);
        } else if (name.rfind("fk_", 0) == 0) {
          cs.n_distinct = std::min(rows, dim_rows_);
          cs.min = 0;
          cs.max = static_cast<Value>(dim_rows_) - 1;
          cs.correlation = 0.0;
          cs.histogram = Histogram::Uniform(cs.min, cs.max);
        } else {
          cs.n_distinct = std::min(rows, static_cast<double>(payload_max_));
          cs.min = 1;
          cs.max = payload_max_;
          cs.correlation = 0.0;
          cs.histogram = Histogram::Uniform(cs.min, cs.max);
        }
      }
      db.stats().Put(t, std::move(stats));
      (void)is_fact;
    };
    dim_rows_ = dim_rows;
    payload_max_ = payload_max;
    put_stats(fact, fact_rows, true);
    put_stats(d1, dim_rows, false);
    put_stats(d2, dim_rows, false);
  }

  /// Generates rows matching the synthetic distributions and re-ANALYZEs.
  Status Materialize(int64_t fact_rows, int64_t dim_rows,
                     uint64_t seed = 99) {
    Rng rng(seed);
    auto fill = [&](TableId t, int64_t n) -> Status {
      PINUM_RETURN_IF_ERROR(db.CreateTableStorage(t));
      TableData* data = db.MutableData(t);
      const TableDef* def = db.catalog().FindTable(t);
      std::vector<Value> row(def->columns.size());
      for (int64_t r = 0; r < n; ++r) {
        for (size_t c = 0; c < def->columns.size(); ++c) {
          const std::string& name = def->columns[c].name;
          if (name == "id") {
            row[c] = r;
          } else if (name.rfind("fk_", 0) == 0) {
            row[c] = rng.Uniform(0, dim_rows - 1);
          } else {
            row[c] = rng.Uniform(1, payload_max_);
          }
        }
        data->AppendRow(row);
      }
      return Status::OK();
    };
    PINUM_RETURN_IF_ERROR(fill(fact, fact_rows));
    PINUM_RETURN_IF_ERROR(fill(d1, dim_rows));
    PINUM_RETURN_IF_ERROR(fill(d2, dim_rows));
    return db.AnalyzeAll();
  }

  /// Two-table join with a 1% filter on fact.c1 and ORDER BY d1.c1.
  Query JoinQuery() const {
    QueryBuilder qb(&db.catalog());
    auto q = qb.Named("mini_q")
                 .From("fact")
                 .From("d1")
                 .Select("fact", "c2")
                 .Select("d1", "c1")
                 .Join("fact", "fk_d1", "d1", "id")
                 .Where("fact", "c1", CompareOp::kLe, payload_max_ / 100)
                 .OrderBy("d1", "c1")
                 .Build();
    return *q;
  }

  /// Three-table join with filters on fact.
  Query ThreeWayQuery() const {
    QueryBuilder qb(&db.catalog());
    auto q = qb.Named("mini_q3")
                 .From("fact")
                 .From("d1")
                 .From("d2")
                 .Select("fact", "c2")
                 .Select("d1", "c1")
                 .Select("d2", "c2")
                 .Join("fact", "fk_d1", "d1", "id")
                 .Join("fact", "fk_d2", "d2", "id")
                 .Where("fact", "c1", CompareOp::kLe, payload_max_ / 100)
                 .OrderBy("d2", "c2")
                 .Build();
    return *q;
  }

  Database db;
  TableId fact, d1, d2;

 private:
  double dim_rows_;
  Value payload_max_;
};

/// MiniStar plus its two-query workload and candidate universe — the
/// fast build fixture WorkloadCacheTest and the IncrementalResealMiniTest
/// cases share.
struct MiniWorkloadFixture {
  MiniWorkloadFixture() {
    queries = {mini.JoinQuery(), mini.ThreeWayQuery()};
    CandidateOptions copt;
    auto cands = GenerateCandidates(queries, mini.db.catalog(),
                                    mini.db.stats(), copt);
    set = *MakeCandidateSet(mini.db.catalog(), cands);
  }

  /// Builds the workload with `opts` (EXPECTs success); `caches`, when
  /// given, receives the build-time oracle from the same builder.
  WorkloadCacheResult Build(WorkloadCacheOptions opts,
                            std::vector<InumCache>* caches = nullptr) {
    WorkloadCacheBuilder builder(&mini.db.catalog(), &set, &mini.db.stats(),
                                 opts);
    auto result = builder.BuildAll(queries);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (caches != nullptr) *caches = BuildQueryCaches(&builder, queries);
    return std::move(*result);
  }

  MiniStar mini;
  std::vector<Query> queries;
  CandidateSet set;
};

}  // namespace pinum

#endif  // PINUM_TESTS_TEST_UTIL_H_
