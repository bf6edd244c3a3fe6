// Zero-copy (mmap) snapshot serving: a mapped snapshot must answer
// every cost question bit-identically to the heap-built caches it was
// saved from — across Cost, the pinned-context delta path, the batched
// evaluator sweeps, and whole advisor runs — and restart a serving
// engine as its first generation, while every hostile input
// (truncation, bit flips, old format versions, incompatible epochs) is
// rejected with the right Status before any cache view is handed out.
// (snapshot_test.cc's failure-taxonomy cases run the same inputs, and
// the crafted arena images, through both readers.) Lifetime is part of
// the contract: caches borrow the mapping, so they must keep serving
// after the snapshot that produced them and even the file's directory
// entry are gone.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "advisor/greedy_advisor.h"
#include "common/rng.h"
#include "inum/snapshot.h"
#include "serving/serving_engine.h"
#include "test_util.h"
#include "workload/cache_manager.h"
#include "workload/drift.h"
#include "workload/star_schema.h"

namespace pinum {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

class SnapshotMmapTest : public ::testing::Test {
 protected:
  struct Fixture {
    std::unique_ptr<StarFixture> star;
    std::unique_ptr<WorkloadCacheBuilder> builder;
    WorkloadCacheResult built;
    std::string path;
  };
  static Fixture* fix_;

  static void SetUpTestSuite() {
    auto star = MakeStarFixture();
    ASSERT_NE(star, nullptr);
    fix_ = new Fixture{std::move(star), nullptr, {},
                       TempPath("pinum_mmap_test.snap")};
    fix_->builder = std::make_unique<WorkloadCacheBuilder>(
        &fix_->star->catalog(), &fix_->star->set, &fix_->star->stats());
    auto built = fix_->builder->BuildAll(fix_->star->queries());
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    fix_->built = std::move(*built);
    ASSERT_TRUE(fix_->builder
                    ->SaveSnapshot(fix_->path, fix_->built,
                                   fix_->star->queries())
                    .ok());
  }
  static void TearDownTestSuite() {
    std::remove(fix_->path.c_str());
    delete fix_;
    fix_ = nullptr;
  }

  static std::string SnapshotBytes() { return ReadFile(fix_->path); }

  /// Pid-qualified temp paths: ctest -j shards suites across processes.
  static std::string TempPath(const std::string& name) {
    return ::testing::TempDir() + std::to_string(getpid()) + "_" + name;
  }

  static SnapshotEpoch LiveEpoch() {
    return ComputeSnapshotEpoch(fix_->star->set);
  }
};

SnapshotMmapTest::Fixture* SnapshotMmapTest::fix_ = nullptr;

TEST_F(SnapshotMmapTest, MappedCostsBitIdenticalToHeapBuilt) {
  // The acceptance property: a mapped cache IS the sealed original as
  // far as any cost question can tell — same bits on the dense path,
  // the sentinel/out-of-range edges, and the pinned-context delta path.
  auto mapped = MapSnapshot(fix_->path, LiveEpoch());
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  const std::vector<Query>& queries = fix_->star->queries();
  ASSERT_EQ(mapped->sealed.size(), queries.size());
  const IndexId universe = fix_->star->set.NumIndexIds();
  EXPECT_EQ(mapped->universe, universe);

  Rng rng(613);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const SealedCache& original = fix_->built.sealed[qi];
    const SealedCache& view = mapped->sealed[qi];
    EXPECT_EQ(view.NumPlans(), original.NumPlans());
    EXPECT_EQ(view.NumTerms(), original.NumTerms());
    EXPECT_EQ(view.NumPostings(), original.NumPostings());
    EXPECT_EQ(view.ArenaBytes(), original.ArenaBytes());
    EXPECT_EQ(view.Cost({}), original.Cost({})) << "query " << qi;
    for (int trial = 0; trial < 20; ++trial) {
      IndexConfig config =
          RandomAtomicConfig(queries[qi], fix_->star->set, &rng);
      if (!config.empty() && rng.Chance(0.5)) {
        config.push_back(config[rng.Index(config.size())]);
      }
      if (rng.Chance(0.5)) config.push_back(universe + 100);
      if (rng.Chance(0.5)) config.push_back(kInvalidIndexId);
      EXPECT_EQ(view.Cost(config), original.Cost(config))
          << "query " << qi << " trial " << trial;
    }

    SealedCache::CostContext view_ctx;
    SealedCache::CostContext original_ctx;
    const IndexConfig base =
        RandomAtomicConfig(queries[qi], fix_->star->set, &rng);
    view.PrepareContext(base, &view_ctx);
    original.PrepareContext(base, &original_ctx);
    EXPECT_EQ(view_ctx.base_cost(), original_ctx.base_cost());
    for (IndexId extra : fix_->star->set.candidate_ids) {
      EXPECT_EQ(view.CostWithExtra(&view_ctx, extra),
                original.CostWithExtra(&original_ctx, extra))
          << "query " << qi << " extra " << extra;
    }
  }
}

TEST_F(SnapshotMmapTest, MappedEvaluatorSweepsBitIdentical) {
  // The evaluator's batch paths (what the advisor and the serving
  // engine actually call) over mapped caches, against the heap-built
  // vector: BatchCost and the delta-path BatchCostWithExtras.
  auto mapped = MapSnapshot(fix_->path, LiveEpoch());
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  const WorkloadCostEvaluator heap_eval(&fix_->built.sealed);
  const WorkloadCostEvaluator mapped_eval(&mapped->sealed);

  Rng rng(617);
  std::vector<IndexConfig> configs;
  for (int i = 0; i < 24; ++i) {
    configs.push_back(RandomSubsetConfig(fix_->star->set, &rng, 0.3));
  }
  const std::vector<double> heap_batch = heap_eval.BatchCost(configs);
  const std::vector<double> mapped_batch = mapped_eval.BatchCost(configs);
  EXPECT_EQ(heap_batch, mapped_batch);

  WorkloadCostEvaluator::EvalScratch heap_scratch;
  WorkloadCostEvaluator::EvalScratch mapped_scratch;
  const std::vector<IndexId>& extras = fix_->star->set.candidate_ids;
  IndexConfig base;
  for (int round = 0; round < 3; ++round) {
    const std::vector<double>& heap_costs =
        heap_eval.BatchCostWithExtras(base, extras, &heap_scratch);
    const std::vector<double>& mapped_costs =
        mapped_eval.BatchCostWithExtras(base, extras, &mapped_scratch);
    EXPECT_EQ(heap_costs, mapped_costs) << "round " << round;
    // Extend the base by this round's winner — the advisor's pinned-
    // context fast path.
    const size_t best = static_cast<size_t>(
        std::min_element(heap_costs.begin(), heap_costs.end()) -
        heap_costs.begin());
    base.push_back(extras[best]);
  }
}

TEST_F(SnapshotMmapTest, AdvisorOutputBitIdenticalFromMappedCaches) {
  auto mapped = MapSnapshot(fix_->path, LiveEpoch());
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  AdvisorOptions opts;
  const AdvisorResult fresh =
      RunGreedyAdvisor(fix_->built.sealed, fix_->star->set, opts);
  const AdvisorResult from_mapped =
      RunGreedyAdvisor(mapped->sealed, fix_->star->set, opts);
  ExpectSameAdvisorResult(fresh, from_mapped);
  EXPECT_FALSE(fresh.chosen.empty());
}

TEST_F(SnapshotMmapTest, MappedCachesOutliveHandleAndFile) {
  // Lifetime contract: a cache copied out of the snapshot keeps serving
  // after (1) the snapshot that produced it is destroyed and (2) the
  // file's directory entry is unlinked — the arena's owner handle alone
  // pins the pages (POSIX keeps a mapping alive past unlink).
  const std::string path = TempPath("unlink.snap");
  WriteFile(path, SnapshotBytes());
  SealedCache survivor;
  {
    auto mapped = MapSnapshot(path, LiveEpoch());
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    survivor = mapped->sealed[0];
    std::remove(path.c_str());
  }
  const SealedCache& original = fix_->built.sealed[0];
  Rng rng(619);
  EXPECT_EQ(survivor.Cost({}), original.Cost({}));
  for (int trial = 0; trial < 10; ++trial) {
    const IndexConfig config =
        RandomAtomicConfig(fix_->star->queries()[0], fix_->star->set, &rng);
    EXPECT_EQ(survivor.Cost(config), original.Cost(config));
  }
}

TEST_F(SnapshotMmapTest, MissingFileIsNotFound) {
  auto mapped = MapSnapshot(TempPath("no_such.snap"), LiveEpoch());
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kNotFound);
}

TEST_F(SnapshotMmapTest, TruncationSweepIsOutOfRange) {
  // LoadSnapshot's truncation sweep, pointed at MapSnapshot: every
  // cut — inside the header, the section table, mid-payload, one byte
  // short — must be kOutOfRange with no crash and no view handed out.
  const std::string bytes = SnapshotBytes();
  const std::string path = TempPath("truncated.snap");
  for (size_t keep :
       {size_t{0}, size_t{4}, size_t{12}, size_t{39}, size_t{96},
        bytes.size() / 2, bytes.size() - 1}) {
    WriteFile(path, bytes.substr(0, keep));
    auto mapped = MapSnapshot(path, LiveEpoch());
    ASSERT_FALSE(mapped.ok()) << "kept " << keep << " bytes";
    EXPECT_EQ(mapped.status().code(), StatusCode::kOutOfRange)
        << "kept " << keep << " bytes: " << mapped.status().ToString();
  }
  std::remove(path.c_str());
}

TEST_F(SnapshotMmapTest, PayloadBitFlipsAreInternal) {
  // LoadSnapshot's bit-flip sweep against MapSnapshot: any flipped
  // payload bit — section table, epoch, arena images — trips the
  // checksum before the bytes are believed.
  const std::string pristine = SnapshotBytes();
  const std::string path = TempPath("corrupt.snap");
  for (size_t at : {size_t{40}, size_t{64}, pristine.size() / 2,
                    pristine.size() - 1}) {
    std::string bytes = pristine;
    bytes[at] = static_cast<char>(bytes[at] ^ 0x40);
    WriteFile(path, bytes);
    auto mapped = MapSnapshot(path, LiveEpoch());
    ASSERT_FALSE(mapped.ok()) << "flip at " << at;
    EXPECT_EQ(mapped.status().code(), StatusCode::kInternal)
        << "flip at " << at << ": " << mapped.status().ToString();
  }
  std::remove(path.c_str());
}

TEST_F(SnapshotMmapTest, V2FormatIsUnimplemented) {
  // Older formats cannot be mapped (v3's checksum is byte-wise, v2's
  // caches section a per-field encoding); v3, v2 and v1 all come back
  // kUnimplemented, on the version field alone.
  for (uint32_t old_version : {uint32_t{3}, uint32_t{2}, uint32_t{1}}) {
    std::string bytes = SnapshotBytes();
    std::memcpy(bytes.data() + 12, &old_version, sizeof(old_version));
    const std::string path = TempPath("old.snap");
    WriteFile(path, bytes);
    auto mapped = MapSnapshot(path, LiveEpoch());
    ASSERT_FALSE(mapped.ok()) << "version " << old_version;
    EXPECT_EQ(mapped.status().code(), StatusCode::kUnimplemented)
        << "version " << old_version << ": " << mapped.status().ToString();
    std::remove(path.c_str());
  }
}

TEST_F(SnapshotMmapTest, FutureFormatIsUnimplemented) {
  std::string bytes = SnapshotBytes();
  const uint32_t future = kSnapshotFormatVersion + 1;
  std::memcpy(bytes.data() + 12, &future, sizeof(future));
  const std::string path = TempPath("future.snap");
  WriteFile(path, bytes);
  auto mapped = MapSnapshot(path, LiveEpoch());
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kUnimplemented);
  std::remove(path.c_str());
}

TEST_F(SnapshotMmapTest, EpochMismatchIsFailedPrecondition) {
  // Same compatibility rule as LoadSnapshot: a permuted candidate
  // vocabulary is not a prefix of the live chain.
  SnapshotEpoch permuted = LiveEpoch();
  ASSERT_GE(permuted.candidate_ids.size(), 2u);
  std::swap(permuted.candidate_ids[0], permuted.candidate_ids[1]);
  auto mapped = MapSnapshot(fix_->path, permuted);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(SnapshotMmapTest, LoadSnapshotMappedStalenessAndResealAfterDrift) {
  // The mapped restart path end to end: LoadSnapshotMapped under a
  // drifted world succeeds (stats drift is staleness, not an epoch
  // break), StaleQueries over the returned names/stamps names exactly
  // the touched queries, and RebuildQueries over the mapped result
  // reseals them — heap caches replacing borrowed views — with
  // every answer bit-identical to a cold build of the drifted world.
  const std::vector<Query>& queries = fix_->star->queries();
  CandidateSet set = fix_->star->set;
  StatsCatalog stats = fix_->star->stats();
  const TableId victim = fix_->star->tables().back();
  DriftTableStats(fix_->star->catalog(), victim, 2.0, &stats);

  WorkloadCacheBuilder drifted_builder(&fix_->star->catalog(), &set, &stats);
  std::vector<std::string> names;
  auto mapped = drifted_builder.LoadSnapshotMapped(fix_->path, &names);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ASSERT_EQ(mapped->sealed.size(), queries.size());

  const std::vector<size_t> stale =
      drifted_builder.StaleQueries(names, mapped->stamps, queries);
  std::vector<std::string> got;
  for (size_t i : stale) got.push_back(queries[i].name);
  EXPECT_EQ(got, QueriesTouchingTables(queries, {victim}));
  ASSERT_FALSE(got.empty());

  auto rebuilt = drifted_builder.RebuildQueries(got, queries, *mapped);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  *mapped = std::move(*rebuilt);
  auto cold = drifted_builder.BuildAll(queries);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  Rng rng(631);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    for (int trial = 0; trial < 5; ++trial) {
      const IndexConfig config = RandomAtomicConfig(queries[qi], set, &rng);
      EXPECT_EQ(mapped->sealed[qi].Cost(config),
                cold->sealed[qi].Cost(config))
          << "query " << qi << " trial " << trial;
    }
  }
}

TEST_F(SnapshotMmapTest, ServingEngineStartsFromMappedGenerationZero) {
  // The always-on restart: an engine constructed from a mapped result
  // answers traffic immediately (no build ran), bit-identically to the
  // heap-built evaluator, and a later drift-reseal publishes the next
  // generation while the mapped one keeps pinned readers valid.
  const std::vector<Query>& queries = fix_->star->queries();
  CandidateSet set = fix_->star->set;
  StatsCatalog stats = fix_->star->stats();
  WorkloadCacheBuilder builder(&fix_->star->catalog(), &set, &stats);
  auto mapped = builder.LoadSnapshotMapped(fix_->path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  ServingEngine engine(&builder, &queries, std::move(*mapped));
  const WorkloadCostEvaluator evaluator(&fix_->built.sealed);
  Rng rng(641);
  std::vector<IndexConfig> probes;
  for (int i = 0; i < 8; ++i) {
    probes.push_back(RandomSubsetConfig(fix_->star->set, &rng, 0.3));
  }
  for (const IndexConfig& config : probes) {
    const CostAnswer answer = engine.Cost(config);
    EXPECT_EQ(answer.cost, evaluator.Cost(config));
    EXPECT_EQ(answer.generation, 1u);
  }

  // Pin the mapped generation, drift, reseal: the published generation
  // answers the drifted world while the pinned mapped one still serves
  // its original bits.
  auto pinned = engine.Pin();
  const double pre_drift = engine.Cost(probes[0]).cost;
  const TableId victim = fix_->star->tables().back();
  engine.WithWorld([&] {
    DriftTableStats(fix_->star->catalog(), victim, 2.0, &stats);
  });
  auto resealed = engine.CheckAndReseal();
  ASSERT_TRUE(resealed.ok()) << resealed.status().ToString();
  EXPECT_TRUE(*resealed);
  EXPECT_EQ(engine.CurrentGenerationId(), 2u);

  auto cold = builder.BuildAll(queries);
  ASSERT_TRUE(cold.ok());
  const WorkloadCostEvaluator drifted_eval(&cold->sealed);
  for (const IndexConfig& config : probes) {
    EXPECT_EQ(engine.Cost(config).cost, drifted_eval.Cost(config));
  }
  const WorkloadCostEvaluator pinned_eval(&pinned->sealed());
  EXPECT_EQ(pinned_eval.Cost(probes[0]), pre_drift);
}

}  // namespace
}  // namespace pinum
