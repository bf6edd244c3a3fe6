// Workload-family generator contract (src/workload/workload_family.h):
// the registry is stable, every family is bit-deterministic under a
// fixed (seed, options) — the property the golden plan-stability corpus
// (tests/corpus/) rests on — seeds actually matter, the option knobs are
// honored, and each family's structural signature (schema shape, join
// shapes, candidate cap) holds. Failures print (family, seed).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "advisor/candidate_generator.h"
#include "test_util.h"
#include "workload/star_schema.h"
#include "workload/workload_family.h"

namespace pinum {
namespace {

/// Renders everything observable about an instance into one string:
/// query SQL (name, joins, filter constants, order/group keys via
/// Query::ToSql), the candidate universe (names + key columns), and the
/// statistics digest (row counts, per-column n_distinct and histogram
/// bounds). Two generator runs are "the same workload" iff these bytes
/// are equal.
std::string Render(const WorkloadInstance& inst) {
  std::ostringstream out;
  out.precision(17);
  for (const Query& q : inst.queries) {
    out << q.name << ": " << q.ToSql(inst.catalog()) << "\n";
  }
  for (IndexId id : inst.set.candidate_ids) {
    const IndexDef* def = inst.set.universe.FindIndex(id);
    out << "index " << def->name << " table=" << def->table << " cols=";
    for (ColumnIdx c : def->key_columns) out << c << ",";
    out << " leaf_pages=" << def->leaf_pages << "\n";
  }
  for (TableId t : inst.tables) {
    const TableStats* ts = inst.stats().Find(t);
    out << "table " << t << " rows=" << ts->row_count;
    for (const ColumnStats& cs : ts->columns) {
      out << " [nd=" << cs.n_distinct << " corr=" << cs.correlation;
      for (double b : cs.histogram.bounds()) out << " " << b;
      out << "]";
    }
    out << "\n";
  }
  return out.str();
}

std::unique_ptr<WorkloadInstance> Make(const std::string& family,
                                       WorkloadFamilyOptions options = {}) {
  auto inst = MakeWorkloadInstance(family, options);
  EXPECT_TRUE(inst.ok()) << family << ": " << inst.status().ToString();
  return inst.ok() ? std::move(*inst) : nullptr;
}

TEST(WorkloadFamilyTest, RegistryListsAllFamiliesStarFirst) {
  const std::vector<std::string> names = WorkloadFamilyNames();
  EXPECT_EQ(names, (std::vector<std::string>{"star", "chain", "skew",
                                             "fact_pair"}));
}

TEST(WorkloadFamilyTest, UnknownFamilyIsInvalidArgument) {
  auto inst = MakeWorkloadInstance("no_such_family");
  ASSERT_FALSE(inst.ok());
  EXPECT_EQ(inst.status().code(), StatusCode::kInvalidArgument);
}

TEST(WorkloadFamilyTest, SameSeedReproducesBitIdenticalWorkload) {
  // The seeding contract (docs/WORKLOADS.md): (family, options) is the
  // complete input — two runs in one process, or on two machines, emit
  // the same catalog, statistics, queries, and candidate universe.
  for (const std::string& family : WorkloadFamilyNames()) {
    SCOPED_TRACE("family=" + family);
    auto a = Make(family);
    auto b = Make(family);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(Render(*a), Render(*b));
  }
}

TEST(WorkloadFamilyTest, StarAtPaperSizeIsThePaperWorkload) {
  // The benches' paper workload (bench::MakePaperInstance) is the star
  // family at ten queries. The floor-gated benches' CI floors were set
  // on StarSchemaWorkload::Create({}) with default candidates, so the
  // two must be the same workload, byte for byte.
  WorkloadFamilyOptions options;
  options.num_queries = 10;
  auto family = Make("star", options);
  ASSERT_NE(family, nullptr);

  auto star = StarSchemaWorkload::Create(StarSchemaSpec{});
  ASSERT_TRUE(star.ok()) << star.status().ToString();
  const auto cands = GenerateCandidates(star->queries(), star->db().catalog(),
                                        star->db().stats(), CandidateOptions{});
  auto set = MakeCandidateSet(star->db().catalog(), cands);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  WorkloadInstance paper;
  paper.queries = star->queries();
  paper.tables = star->tables();
  paper.db = std::move(star->db());
  paper.set = std::move(*set);
  EXPECT_EQ(paper.queries.size(), 10u);
  EXPECT_EQ(Render(*family), Render(paper));
}

TEST(WorkloadFamilyTest, DifferentSeedsProduceDifferentQueries) {
  for (const std::string& family : WorkloadFamilyNames()) {
    SCOPED_TRACE("family=" + family);
    WorkloadFamilyOptions one, two;
    one.seed = 1;
    two.seed = 2;
    auto a = Make(family, one);
    auto b = Make(family, two);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_NE(Render(*a), Render(*b));
  }
}

TEST(WorkloadFamilyTest, NumQueriesKnobIsHonored) {
  for (const std::string& family : WorkloadFamilyNames()) {
    SCOPED_TRACE("family=" + family);
    WorkloadFamilyOptions options;
    options.num_queries = 3;
    auto inst = Make(family, options);
    ASSERT_NE(inst, nullptr);
    // fact_pair churns the base mix through VaryQueryMix (a seeded
    // subset plus renamed clones), so its count floats around the base
    // — bounded by 2x — while every other family emits exactly N.
    if (family == "fact_pair") {
      EXPECT_GE(inst->queries.size(), 1u);
      EXPECT_LE(inst->queries.size(), 6u);
    } else {
      EXPECT_EQ(inst->queries.size(), 3u);
    }
  }
}

TEST(WorkloadFamilyTest, MaxCandidatesCapsTheUniversePrefix) {
  for (const std::string& family : WorkloadFamilyNames()) {
    SCOPED_TRACE("family=" + family);
    WorkloadFamilyOptions capped;
    capped.max_candidates = 12;
    auto inst = Make(family, capped);
    ASSERT_NE(inst, nullptr);
    EXPECT_LE(inst->set.candidate_ids.size(), 12u);
    // The cap keeps a prefix of the uncapped emission order, so the
    // capped universe is the uncapped one truncated.
    WorkloadFamilyOptions uncapped;
    uncapped.max_candidates = 10'000;
    auto full = Make(family, uncapped);
    ASSERT_NE(full, nullptr);
    ASSERT_LE(inst->set.candidate_ids.size(), full->set.candidate_ids.size());
    for (size_t i = 0; i < inst->set.candidate_ids.size(); ++i) {
      EXPECT_EQ(
          inst->set.universe.FindIndex(inst->set.candidate_ids[i])->name,
          full->set.universe.FindIndex(full->set.candidate_ids[i])->name)
          << "candidate " << i;
    }
  }
}

TEST(WorkloadFamilyTest, EveryFamilyIsWellFormed) {
  // Cross-family invariants the serving stack depends on: a non-empty
  // seeded workload, fact-first table order, every query naming only
  // cataloged tables with stats, unique query names, and a non-empty
  // candidate universe whose ids resolve.
  for (const std::string& family : WorkloadFamilyNames()) {
    SCOPED_TRACE("family=" + family);
    auto inst = Make(family);
    ASSERT_NE(inst, nullptr);
    EXPECT_EQ(inst->family, family);
    ASSERT_FALSE(inst->tables.empty());
    ASSERT_FALSE(inst->queries.empty());
    ASSERT_FALSE(inst->set.candidate_ids.empty());
    EXPECT_EQ(inst->primary_table(), inst->tables.front());
    std::set<std::string> names;
    for (const Query& q : inst->queries) {
      EXPECT_TRUE(names.insert(q.name).second) << "duplicate " << q.name;
      ASSERT_GE(q.tables.size(), 2u) << q.name;
      EXPECT_EQ(q.joins.size() + 1, q.tables.size())
          << q.name << ": families emit acyclic join trees";
      for (TableId t : q.tables) {
        EXPECT_NE(inst->catalog().FindTable(t), nullptr) << q.name;
        EXPECT_NE(inst->stats().Find(t), nullptr) << q.name;
      }
    }
    for (IndexId id : inst->set.candidate_ids) {
      EXPECT_NE(inst->set.universe.FindIndex(id), nullptr);
    }
  }
}

TEST(WorkloadFamilyTest, ChainQueriesAreManyJoinChains) {
  auto inst = Make("chain");
  ASSERT_NE(inst, nullptr);
  size_t max_tables = 0;
  for (const Query& q : inst->queries) {
    max_tables = std::max(max_tables, q.tables.size());
  }
  // At least one ad-hoc chain reaches 4+ joined tables.
  EXPECT_GE(max_tables, 4u);
}

TEST(WorkloadFamilyTest, SkewFamilyCarriesNonUniformHistograms) {
  // The skewed family's reason to exist: at least one fact payload
  // column's equi-depth histogram is visibly non-uniform (bucket widths
  // spread by >4x) and at least one column carries correlation.
  auto inst = Make("skew");
  ASSERT_NE(inst, nullptr);
  const TableStats* fact = inst->stats().Find(inst->primary_table());
  ASSERT_NE(fact, nullptr);
  bool skewed = false, correlated = false;
  for (const ColumnStats& cs : fact->columns) {
    const std::vector<Value>& b = cs.histogram.bounds();
    if (b.size() >= 3) {
      double min_w = 1e300, max_w = 0;
      for (size_t i = 0; i + 1 < b.size(); ++i) {
        const double w = b[i + 1] - b[i];
        if (w <= 0) continue;
        min_w = std::min(min_w, w);
        max_w = std::max(max_w, w);
      }
      if (max_w > 4 * min_w) skewed = true;
    }
    if (std::abs(cs.correlation) > 0.5) correlated = true;
  }
  EXPECT_TRUE(skewed);
  EXPECT_TRUE(correlated);
}

TEST(WorkloadFamilyTest, FactPairQueriesJoinTheTwoFacts) {
  auto inst = Make("fact_pair");
  ASSERT_NE(inst, nullptr);
  ASSERT_GE(inst->tables.size(), 2u);
  const TableId fa = inst->tables[0];
  const TableId fb = inst->tables[1];
  for (const Query& q : inst->queries) {
    bool fact_to_fact = false;
    for (const JoinPredicate& j : q.joins) {
      fact_to_fact |= j.Touches(fa) && j.Touches(fb);
    }
    EXPECT_TRUE(fact_to_fact) << q.name << " lacks the wide fa=fb join";
  }
}

TEST(WorkloadFamilyTest, BuildsCleanlyThroughTheWorkloadCacheBuilder) {
  // The integration handshake behind every parameterized suite: each
  // family's instance feeds WorkloadCacheBuilder and seals every query.
  for (const std::string& family : WorkloadFamilyNames()) {
    SCOPED_TRACE("family=" + family);
    auto fix = MakeFamilyFixture(family);
    ASSERT_NE(fix, nullptr);
    auto built =
        WorkloadCacheBuilder(&fix->catalog(), &fix->set, &fix->stats(), {})
            .BuildAll(fix->queries());
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    ASSERT_EQ(built->sealed.size(), fix->queries().size());
    for (size_t qi = 0; qi < built->sealed.size(); ++qi) {
      EXPECT_GT(built->sealed[qi].NumPlans(), 0u)
          << fix->queries()[qi].name;
      EXPECT_LT(built->sealed[qi].Cost({}), kInfiniteCost)
          << fix->queries()[qi].name;
    }
  }
}

}  // namespace
}  // namespace pinum
