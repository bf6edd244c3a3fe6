// Snapshot persistence: a save→load round trip must hand back caches
// that answer every cost question bit-identically to the sealed
// originals (infinity sentinels included), and every failure path —
// missing file, truncation, bad magic, old/future format version,
// payload corruption, crafted arena images, incompatible epoch — must
// return its own distinct Status, from both readers (LoadSnapshot and
// MapSnapshot) alike, instead of crashing or serving wrong costs. v2 epoch
// semantics: statistics drift and append-only universe growth do NOT
// reject the load — they surface as per-query staleness (the
// incremental-reseal restart path) — while any non-prefix universe
// mutation or base-schema change is still kFailedPrecondition.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "advisor/candidate_generator.h"
#include "advisor/greedy_advisor.h"
#include "common/rng.h"
#include "inum/snapshot.h"
#include "test_util.h"
#include "whatif/candidate_set.h"
#include "whatif/whatif_index.h"
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

/// Recomputes the header checksum as docs/SNAPSHOT_FORMAT.md defines it
/// — the FNV-1a step over native u64 words of [40, EOF), h = (h ^ w) *
/// prime, then any trailing bytes one at a time — so a crafted payload
/// is what the reader actually trips on: the checksum is unkeyed, so a
/// crafted file can always carry a valid one.
void Rechecksum(std::string* bytes) {
  const uint64_t prime = 1099511628211ULL;
  uint64_t h = 14695981039346656037ULL;
  size_t i = 40;
  for (; i + 8 <= bytes->size(); i += 8) {
    uint64_t word = 0;
    std::memcpy(&word, bytes->data() + i, 8);
    h = (h ^ word) * prime;
  }
  for (; i < bytes->size(); ++i) {
    h ^= static_cast<unsigned char>((*bytes)[i]);
    h *= prime;
  }
  std::memcpy(bytes->data() + 32, &h, 8);
}

/// File offset of the section tagged `tag` (0 if absent).
uint64_t SectionOffset(const std::string& bytes, uint32_t tag) {
  uint32_t section_count = 0;
  std::memcpy(&section_count, bytes.data() + 16, 4);
  for (uint32_t i = 0; i < section_count; ++i) {
    const char* entry = bytes.data() + 40 + i * 24;
    uint32_t t = 0;
    std::memcpy(&t, entry, 4);
    if (t == tag) {
      uint64_t offset = 0;
      std::memcpy(&offset, entry + 8, 8);
      return offset;
    }
  }
  return 0;
}

/// File offset of the first cache record's arena image: the caches
/// section starts u32 count, u32 reserved, u64 length-count, u64
/// lengths[count], then the records back-to-back.
uint64_t FirstRecordOffset(const std::string& bytes) {
  const uint64_t section = SectionOffset(bytes, 3);
  EXPECT_NE(section, 0u);
  uint32_t count = 0;
  std::memcpy(&count, bytes.data() + section, 4);
  return section + 16 + 8 * static_cast<uint64_t>(count);
}

/// The two snapshot readers. They share one reader body, so every
/// failure case runs through both and must get the same answer.
struct Reader {
  const char* name;
  StatusOr<WorkloadSnapshot> (*read)(const std::string& path,
                                     const SnapshotEpoch& expected);
};
const Reader kReaders[] = {{"LoadSnapshot", &LoadSnapshot},
                           {"MapSnapshot", &MapSnapshot}};

/// The shared star fixture (tests/test_util.h — capped at 5-way joins,
/// like the sealed-cache suite) plus one PINUM build and a snapshot of
/// it on disk — shared across the suite because the build is the
/// expensive part.
class SnapshotTest : public ::testing::Test {
 protected:
  struct Fixture {
    std::unique_ptr<StarFixture> star;
    /// Pointer because the builder (with its thread pool) is neither
    /// copyable nor movable.
    std::unique_ptr<WorkloadCacheBuilder> builder;
    WorkloadCacheResult built;
    std::string path;

    const CandidateSet& set() const { return star->set; }
  };
  static Fixture* fix_;

  static void SetUpTestSuite() {
    auto star = MakeStarFixture();
    ASSERT_NE(star, nullptr);
    fix_ = new Fixture{std::move(star),
                       nullptr,
                       {},
                       TempPath("pinum_snapshot_test.snap")};
    fix_->builder = std::make_unique<WorkloadCacheBuilder>(
        &fix_->star->catalog(), &fix_->star->set, &fix_->star->stats());
    auto built = fix_->builder->BuildAll(fix_->star->queries());
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    fix_->built = std::move(*built);
    Status st = fix_->builder->SaveSnapshot(fix_->path, fix_->built,
                                            fix_->star->queries());
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  static void TearDownTestSuite() {
    std::remove(fix_->path.c_str());
    delete fix_;
    fix_ = nullptr;
  }

  /// A pristine copy of the snapshot bytes for patch-and-reject tests.
  static std::string SnapshotBytes() { return ReadFile(fix_->path); }

  /// Test-file paths embed the pid: ctest -j runs every TEST as its
  /// own process, and each process re-runs SetUpTestSuite — two
  /// concurrent shards sharing one literal path would race on the suite
  /// snapshot (one shard's TearDownTestSuite removing the file another
  /// is still reading).
  static std::string TempPath(const std::string& name) {
    return ::testing::TempDir() + std::to_string(getpid()) + "_" + name;
  }

  static SnapshotEpoch LiveEpoch() {
    return ComputeSnapshotEpoch(fix_->star->set);
  }

  /// The failure taxonomy's one check: both readers reject `path` read
  /// against `expected` with `code`, and with a message containing
  /// `needle` when one is given.
  static void ExpectRejectedAt(const std::string& path,
                               const SnapshotEpoch& expected,
                               StatusCode code,
                               const std::string& needle = "") {
    for (const Reader& reader : kReaders) {
      SCOPED_TRACE(reader.name);
      auto read = reader.read(path, expected);
      ASSERT_FALSE(read.ok());
      EXPECT_EQ(read.status().code(), code) << read.status().ToString();
      EXPECT_NE(read.status().message().find(needle), std::string::npos)
          << read.status().ToString();
    }
  }

  /// ExpectRejectedAt over `bytes` written to a scratch file, against
  /// the live epoch.
  static void ExpectRejected(const std::string& bytes, StatusCode code,
                             const std::string& needle = "") {
    const std::string path = TempPath("rejected.snap");
    WriteFile(path, bytes);
    ExpectRejectedAt(path, LiveEpoch(), code, needle);
    std::remove(path.c_str());
  }
};

SnapshotTest::Fixture* SnapshotTest::fix_ = nullptr;

TEST_F(SnapshotTest, RoundTripCostBitIdentical) {
  auto loaded = fix_->builder->LoadSnapshot(fix_->path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const std::vector<Query>& queries = fix_->star->queries();
  ASSERT_EQ(loaded->sealed.size(), queries.size());
  ASSERT_EQ(loaded->query_names.size(), queries.size());
  ASSERT_EQ(loaded->query_stamps.size(), queries.size());
  const IndexId universe = fix_->star->set.NumIndexIds();
  EXPECT_EQ(loaded->universe, universe);

  Rng rng(211);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    EXPECT_EQ(loaded->query_names[qi], queries[qi].name);
    // Stored stamps are the live ones (nothing drifted), so nothing is
    // stale.
    EXPECT_EQ(loaded->query_stamps[qi],
              fix_->builder->QueryStamp(queries[qi]));
    const SealedCache& original = fix_->built.sealed[qi];
    const SealedCache& restored = loaded->sealed[qi];
    // Structure round-trips exactly, the stored posting-id list
    // included — and so does the whole arena image, byte for byte (the
    // record on disk IS the image, so anything else is a codec bug).
    EXPECT_EQ(restored.NumPlans(), original.NumPlans());
    EXPECT_EQ(restored.NumPlansPruned(), original.NumPlansPruned());
    EXPECT_EQ(restored.NumTerms(), original.NumTerms());
    EXPECT_EQ(restored.NumPostings(), original.NumPostings());
    const ArenaSpan<IndexId> restored_ids = restored.PostingBearingIds();
    const ArenaSpan<IndexId> original_ids = original.PostingBearingIds();
    EXPECT_TRUE(std::equal(restored_ids.begin(), restored_ids.end(),
                           original_ids.begin(), original_ids.end()));
    EXPECT_EQ(restored.ArenaBytes(), original.ArenaBytes());

    // Costs round-trip bitwise — including the empty configuration,
    // duplicate ids, ids outside the universe, and configurations whose
    // terms stay at the kInfiniteCost sentinel.
    EXPECT_EQ(restored.Cost({}), original.Cost({})) << "query " << qi;
    for (int trial = 0; trial < 20; ++trial) {
      IndexConfig config =
          RandomAtomicConfig(queries[qi], fix_->star->set, &rng);
      if (!config.empty() && rng.Chance(0.5)) {
        config.push_back(config[rng.Index(config.size())]);
      }
      if (rng.Chance(0.5)) config.push_back(universe + 100);
      if (rng.Chance(0.5)) config.push_back(kInvalidIndexId);
      EXPECT_EQ(restored.Cost(config), original.Cost(config))
          << "query " << qi << " trial " << trial;
    }

    // The delta path serves from restored postings bit-identically too.
    SealedCache::CostContext restored_ctx;
    SealedCache::CostContext original_ctx;
    const IndexConfig base =
        RandomAtomicConfig(queries[qi], fix_->star->set, &rng);
    restored.PrepareContext(base, &restored_ctx);
    original.PrepareContext(base, &original_ctx);
    EXPECT_EQ(restored_ctx.base_cost(), original_ctx.base_cost());
    for (IndexId extra : fix_->star->set.candidate_ids) {
      EXPECT_EQ(restored.CostWithExtra(&restored_ctx, extra),
                original.CostWithExtra(&original_ctx, extra))
          << "query " << qi << " extra " << extra;
    }
  }
}

TEST_F(SnapshotTest, AdvisorOutputBitIdenticalFromRestoredCaches) {
  // The acceptance property behind `advisor_tool --load`: the greedy
  // advisor over restored caches must return the fresh build's result
  // field for field, cost bits included.
  auto loaded = fix_->builder->LoadSnapshot(fix_->path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  AdvisorOptions opts;
  const AdvisorResult fresh =
      RunGreedyAdvisor(fix_->built.sealed, fix_->star->set, opts);
  const AdvisorResult restored =
      RunGreedyAdvisor(loaded->sealed, fix_->star->set, opts);
  ExpectSameAdvisorResult(fresh, restored);
  EXPECT_FALSE(fresh.chosen.empty());
}

TEST_F(SnapshotTest, ReadSnapshotEpochMatchesLiveEpoch) {
  auto stored = ReadSnapshotEpoch(fix_->path);
  ASSERT_TRUE(stored.ok()) << stored.status().ToString();
  const SnapshotEpoch live = ComputeSnapshotEpoch(fix_->star->set);
  EXPECT_TRUE(*stored == live);
  EXPECT_EQ(stored->universe, fix_->star->set.NumIndexIds());
  EXPECT_EQ(stored->candidate_ids, fix_->star->set.candidate_ids);
  // The live chain's final entry is the persisted prefix hash.
  ASSERT_EQ(live.prefix_chain.size(), live.candidate_ids.size() + 1);
  EXPECT_EQ(stored->universe_prefix_hash, live.prefix_chain.back());
}

TEST_F(SnapshotTest, MissingFileIsNotFound) {
  ExpectRejectedAt(TempPath("no_such.snap"), LiveEpoch(),
                   StatusCode::kNotFound);
}

TEST_F(SnapshotTest, TruncationIsOutOfRange) {
  const std::string bytes = SnapshotBytes();
  // Every truncation point — inside the header, inside the section
  // table, mid-payload, one byte short — must report kOutOfRange with
  // no crash (ASan-clean), never garbage costs.
  for (size_t keep :
       {size_t{0}, size_t{4}, size_t{12}, size_t{39}, size_t{96},
        bytes.size() / 2, bytes.size() - 1}) {
    SCOPED_TRACE("kept " + std::to_string(keep) + " bytes");
    ExpectRejected(bytes.substr(0, keep), StatusCode::kOutOfRange);
  }
}

TEST_F(SnapshotTest, BadMagicIsInvalidArgument) {
  std::string bytes = SnapshotBytes();
  bytes[0] = 'X';
  ExpectRejected(bytes, StatusCode::kInvalidArgument);
}

TEST_F(SnapshotTest, FutureFormatVersionIsUnimplemented) {
  std::string bytes = SnapshotBytes();
  // The format version lives at byte 12 (docs/SNAPSHOT_FORMAT.md) and is
  // deliberately outside the checksummed region, so a newer writer's
  // file fails on the version, not on a checksum it may compute
  // differently.
  const uint32_t future = kSnapshotFormatVersion + 1;
  std::memcpy(bytes.data() + 12, &future, sizeof(future));
  ExpectRejected(bytes, StatusCode::kUnimplemented);
}

TEST_F(SnapshotTest, PayloadCorruptionIsInternal) {
  const std::string pristine = SnapshotBytes();
  // Any flipped payload bit — section table, epoch, arena images — trips
  // the checksum before the bytes are believed.
  for (size_t at : {size_t{40}, size_t{64}, pristine.size() / 2,
                    pristine.size() - 1}) {
    SCOPED_TRACE("flip at " + std::to_string(at));
    std::string bytes = pristine;
    bytes[at] = static_cast<char>(bytes[at] ^ 0x40);
    ExpectRejected(bytes, StatusCode::kInternal);
  }
}

TEST_F(SnapshotTest, StatsDriftLoadsAndReportsStaleQueries) {
  // v2 semantics: statistics drift no longer rejects the load — the
  // epoch binds the universe, not the stats — it surfaces as per-query
  // staleness. Drift one dimension table's row count: the load
  // succeeds, and StaleQueries names exactly the queries touching that
  // table (the set RebuildQueries would be handed).
  StatsCatalog drifted = fix_->star->stats();
  // The last dimension table: drifting fact would stale everything.
  const TableId victim = fix_->star->tables().back();
  DriftTableStats(fix_->star->catalog(), victim, 2.0, &drifted);

  WorkloadCacheBuilder drifted_builder(&fix_->star->catalog(),
                                       &fix_->star->set, &drifted);
  auto loaded = drifted_builder.LoadSnapshot(fix_->path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  const std::vector<Query>& queries = fix_->star->queries();
  const std::vector<size_t> stale = drifted_builder.StaleQueries(
      loaded->query_names, loaded->query_stamps, queries);
  const std::vector<std::string> want =
      QueriesTouchingTables(queries, {victim});
  std::vector<std::string> got;
  for (size_t i : stale) got.push_back(queries[i].name);
  EXPECT_EQ(got, want);
  // Against the unchanged world the same snapshot reports nothing
  // stale.
  EXPECT_TRUE(fix_->builder
                  ->StaleQueries(loaded->query_names, loaded->query_stamps,
                                 queries)
                  .empty());
}

TEST_F(SnapshotTest, GrownUniverseLoadsAsPrefixAndStalesTouchedQueries) {
  // v2 semantics: append-only growth keeps the snapshot loadable — the
  // stored vocabulary is a strict prefix of the live one, every stored
  // subscript still means the same index — and queries touching the new
  // candidate's table come back stale (their keep-all access answer now
  // has one more index to see).
  CandidateSet grown = fix_->star->set;
  const TableDef* fact =
      grown.universe.FindTable(fix_->star->primary_table());
  ASSERT_NE(fact, nullptr);
  auto added = grown.Append(
      {MakeWhatIfIndex("snapshot_test_extra", *fact, {0}, 1000)});
  ASSERT_TRUE(added.ok()) << added.status().ToString();

  WorkloadCacheBuilder grown_builder(&fix_->star->catalog(), &grown,
                                     &fix_->star->stats());
  auto loaded = grown_builder.LoadSnapshot(fix_->path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->universe, fix_->star->set.NumIndexIds());
  EXPECT_LT(loaded->universe, grown.NumIndexIds());

  const std::vector<Query>& queries = fix_->star->queries();
  const std::vector<size_t> stale = grown_builder.StaleQueries(
      loaded->query_names, loaded->query_stamps, queries);
  std::vector<std::string> got;
  for (size_t i : stale) got.push_back(queries[i].name);
  EXPECT_EQ(got, QueriesTouchingTables(
                     queries, {fix_->star->primary_table()}));
  // Restored caches for fresh queries keep serving: sampled costs agree
  // with the fixture build (the new id prices at base on both sides).
  Rng rng(401);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    IndexConfig config = RandomAtomicConfig(queries[qi], fix_->star->set, &rng);
    EXPECT_EQ(loaded->sealed[qi].Cost(config),
              fix_->built.sealed[qi].Cost(config));
    config.push_back(added->front());
    EXPECT_EQ(loaded->sealed[qi].Cost(config),
              fix_->built.sealed[qi].Cost(config));
  }
}

TEST_F(SnapshotTest, ShrunkUniverseIsFailedPrecondition) {
  // The reverse direction must still reject: a live universe with FEWER
  // candidates than the snapshot (a drop is not append-only) leaves
  // stored subscripts pointing at nothing.
  const Catalog& base = fix_->star->catalog();
  std::vector<IndexDef> fewer;
  for (size_t i = 0; i + 1 < fix_->star->set.candidate_ids.size(); ++i) {
    fewer.push_back(
        *fix_->star->set.universe.FindIndex(fix_->star->set.candidate_ids[i]));
  }
  auto shrunk = MakeCandidateSet(base, fewer);
  ASSERT_TRUE(shrunk.ok());
  ExpectRejectedAt(fix_->path, ComputeSnapshotEpoch(*shrunk),
                   StatusCode::kFailedPrecondition, "prefix");
}

TEST_F(SnapshotTest, BaseSchemaDriftIsFailedPrecondition) {
  // A base-catalog change (here: a new real table) is not expressible
  // as per-query staleness — the world the universe is layered onto
  // moved — so the load must reject even though candidates are intact.
  Catalog changed = fix_->star->catalog();
  TableDef extra_table;
  extra_table.name = "snapshot_test_new_table";
  extra_table.columns.push_back({"id", TypeId::kInt64});
  ASSERT_TRUE(changed.AddTable(extra_table).ok());
  std::vector<IndexDef> candidates;
  for (IndexId id : fix_->star->set.candidate_ids) {
    candidates.push_back(*fix_->star->set.universe.FindIndex(id));
  }
  auto rebased = MakeCandidateSet(changed, candidates);
  ASSERT_TRUE(rebased.ok());
  ExpectRejectedAt(fix_->path, ComputeSnapshotEpoch(*rebased),
                   StatusCode::kFailedPrecondition, "schema");
}

TEST_F(SnapshotTest, CandidateVocabularyDriftIsFailedPrecondition) {
  // Same universe size, same candidate count, different id assignment
  // (candidates regenerated in another order): not a prefix of the live
  // vocabulary, so the sealed subscripts cannot be trusted.
  SnapshotEpoch permuted = LiveEpoch();
  ASSERT_GE(permuted.candidate_ids.size(), 2u);
  std::swap(permuted.candidate_ids[0], permuted.candidate_ids[1]);
  ExpectRejectedAt(fix_->path, permuted, StatusCode::kFailedPrecondition,
                   "prefix");
}

TEST_F(SnapshotTest, IncrementalSavePatchesOnlyResealedSections) {
  // The incremental-reseal save path: after drifting and resealing k
  // queries, re-saving over the old snapshot yields a file
  // byte-identical to a save of the same state at a fresh path (a save
  // writes the caches it is given, whatever the path held), and it
  // round-trips into the resealed serving state.
  const std::vector<Query>& queries = fix_->star->queries();
  CandidateSet set = fix_->star->set;
  StatsCatalog stats = fix_->star->stats();
  WorkloadCacheBuilder builder(&fix_->star->catalog(), &set, &stats);
  auto built = builder.BuildAll(queries);
  ASSERT_TRUE(built.ok());

  const std::string resaved_path = TempPath("resaved.snap");
  ASSERT_TRUE(builder.SaveSnapshot(resaved_path, *built, queries).ok());

  auto drift = ApplyDrift(queries, &set, &stats, 1, 503);
  ASSERT_TRUE(drift.ok());
  const size_t k = drift->stale_queries.size();
  ASSERT_GT(k, 0u);
  ASSERT_LT(k, queries.size());
  auto rebuilt = builder.RebuildQueries(drift->stale_queries, queries, *built);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  *built = std::move(*rebuilt);

  ASSERT_TRUE(builder.SaveSnapshot(resaved_path, *built, queries).ok());

  const std::string fresh_path = TempPath("fresh.snap");
  ASSERT_TRUE(builder.SaveSnapshot(fresh_path, *built, queries).ok());
  EXPECT_EQ(ReadFile(resaved_path), ReadFile(fresh_path));

  // And the re-saved file round-trips into the resealed serving state.
  auto loaded = builder.LoadSnapshot(resaved_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(
      builder.StaleQueries(loaded->query_names, loaded->query_stamps, queries)
          .empty());
  Rng rng(509);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const IndexConfig config = RandomAtomicConfig(queries[qi], set, &rng);
    EXPECT_EQ(loaded->sealed[qi].Cost(config), built->sealed[qi].Cost(config))
        << "query " << qi;
  }
  std::remove(resaved_path.c_str());
  std::remove(fresh_path.c_str());
}

TEST_F(SnapshotTest, DriftBetweenBuildAndSaveStillReadsAsStale) {
  // Stamps are captured at build time and carried in the result — NOT
  // recomputed at save time. A drift landing after the build but before
  // the save must therefore still surface as staleness on reload;
  // save-time recomputation would stamp pre-drift caches with the
  // post-drift world and mask the drift forever.
  const std::vector<Query>& queries = fix_->star->queries();
  CandidateSet set = fix_->star->set;
  StatsCatalog stats = fix_->star->stats();
  WorkloadCacheBuilder builder(&fix_->star->catalog(), &set, &stats);
  auto built = builder.BuildAll(queries);
  ASSERT_TRUE(built.ok());

  const TableId victim = fix_->star->tables().back();
  DriftTableStats(fix_->star->catalog(), victim, 2.0, &stats);

  const std::string path = TempPath("late_drift.snap");
  ASSERT_TRUE(builder.SaveSnapshot(path, *built, queries).ok());
  auto loaded = builder.LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::vector<std::string> got;
  for (size_t i : builder.StaleQueries(loaded->query_names,
                                       loaded->query_stamps, queries)) {
    got.push_back(queries[i].name);
  }
  EXPECT_EQ(got, QueriesTouchingTables(queries, {victim}));
  std::remove(path.c_str());
}

TEST_F(SnapshotTest, GrowthReEncodesWidenedRecordsOnSave) {
  // After an append plus a cold rebuild, even never-stale queries'
  // caches widened, so a re-save over the old snapshot must carry the
  // wider records: byte-identical to a save at a fresh path.
  const std::vector<Query>& queries = fix_->star->queries();
  CandidateSet set = fix_->star->set;
  StatsCatalog stats = fix_->star->stats();
  WorkloadCacheBuilder builder(&fix_->star->catalog(), &set, &stats);
  auto built = builder.BuildAll(queries);
  ASSERT_TRUE(built.ok());
  const std::string path = TempPath("growth_patch.snap");
  ASSERT_TRUE(builder.SaveSnapshot(path, *built, queries).ok());

  const TableDef* fact =
      set.universe.FindTable(fix_->star->primary_table());
  ASSERT_TRUE(
      set.Append({MakeWhatIfIndex("growth_patch_extra", *fact, {0}, 1000)})
          .ok());
  auto cold = builder.BuildAll(queries);
  ASSERT_TRUE(cold.ok());

  ASSERT_TRUE(builder.SaveSnapshot(path, *cold, queries).ok());

  const std::string fresh_path = TempPath("growth_fresh.snap");
  ASSERT_TRUE(builder.SaveSnapshot(fresh_path, *cold, queries).ok());
  EXPECT_EQ(ReadFile(path), ReadFile(fresh_path));
  std::remove(path.c_str());
  std::remove(fresh_path.c_str());
}

TEST_F(SnapshotTest, OldFormatVersionIsUnimplemented) {
  // Older formats — v3's byte-wise checksum, v2's per-field cache
  // encoding, v1's global epoch without per-query stamps — are not
  // migrated; they must be rejected on the version field alone, loudly
  // and distinctly, with the reason in the message.
  const std::pair<uint32_t, const char*> old_versions[] = {
      {3, "checksum"}, {2, "arena"}, {1, "stamps"}};
  for (const auto& [old_version, reason] : old_versions) {
    SCOPED_TRACE("version " + std::to_string(old_version));
    std::string bytes = SnapshotBytes();
    std::memcpy(bytes.data() + 12, &old_version, sizeof(old_version));
    ExpectRejected(bytes, StatusCode::kUnimplemented, reason);
  }
}

TEST_F(SnapshotTest, CraftedHugeCountIsRejectedWithoutAllocating) {
  // Count fields must be bounded by the bytes actually present before
  // anything is allocated: a 0xFFFFFFFF query count in a checksum-valid
  // file must come back as corruption, not as a multi-gigabyte reserve
  // / bad_alloc.
  std::string bytes = SnapshotBytes();
  const uint64_t queries_offset = SectionOffset(bytes, 2);
  ASSERT_NE(queries_offset, 0u);
  const uint32_t huge = 0xFFFFFFFFu;
  std::memcpy(bytes.data() + queries_offset, &huge, 4);
  Rechecksum(&bytes);
  ExpectRejected(bytes, StatusCode::kInternal);
}

TEST_F(SnapshotTest, MisalignedArenaOffsetIsInternal) {
  // A checksum-valid image whose directory points an array at a
  // non-8-aligned offset: ValidateImage must reject it (kInternal)
  // before any typed view exists — this is the UB the validation
  // exists to prevent, not just a wrong answer.
  std::string bytes = SnapshotBytes();
  const uint64_t record = FirstRecordOffset(bytes);
  // First directory entry's offset field (record + 16).
  uint64_t offset = 0;
  std::memcpy(&offset, bytes.data() + record + 16, 8);
  offset += 4;
  std::memcpy(bytes.data() + record + 16, &offset, 8);
  Rechecksum(&bytes);
  ExpectRejected(bytes, StatusCode::kInternal, "misaligned");
}

TEST_F(SnapshotTest, OutOfBoundsArenaOffsetIsInternal) {
  // A checksum-valid image whose directory points outside the image:
  // rejected before any view, with no out-of-bounds read (ASan-clean).
  std::string bytes = SnapshotBytes();
  const uint64_t record = FirstRecordOffset(bytes);
  const uint64_t huge = uint64_t{1} << 40;
  std::memcpy(bytes.data() + record + 16, &huge, 8);
  Rechecksum(&bytes);
  ExpectRejected(bytes, StatusCode::kInternal, "out of bounds");
}

TEST_F(SnapshotTest, CountedArrayOverrunIsInternal) {
  // In-bounds offset, crafted count overrunning the image: the third
  // arena rejection class (offset OK, extent not).
  std::string bytes = SnapshotBytes();
  const uint64_t record = FirstRecordOffset(bytes);
  const uint64_t huge_count = uint64_t{1} << 32;
  std::memcpy(bytes.data() + record + 24, &huge_count, 8);
  Rechecksum(&bytes);
  ExpectRejected(bytes, StatusCode::kInternal, "overruns");
}

TEST_F(SnapshotTest, EveryStructuralRuleRejectsItsViolation) {
  // One crafted, checksum-valid file per structural rule of the reader:
  // each of ValidateImage's rules on the first cache record, and each
  // framing rule of the header, section table, query section and caches
  // section. Every file must be rejected by both readers with the
  // rule's own code and message, so a rule that silently stopped firing
  // (or got shadowed by an earlier one) fails here by name.
  const std::string pristine = SnapshotBytes();
  auto get64 = [](const std::string& b, uint64_t at) {
    uint64_t v = 0;
    std::memcpy(&v, b.data() + at, 8);
    return v;
  };
  auto get32 = [](const std::string& b, uint64_t at) {
    uint32_t v = 0;
    std::memcpy(&v, b.data() + at, 4);
    return v;
  };
  auto put = [](std::string* b, uint64_t at, auto v) {
    std::memcpy(b->data() + at, &v, sizeof(v));
  };

  // The caches section: u32 count, u32 reserved, vec<u64> lengths, then
  // the records; the first record is an arena image whose directory
  // entry i is {u64 offset, u64 count} at record + 16 + 16 * i.
  const uint64_t caches = SectionOffset(pristine, 3);
  const uint64_t queries = SectionOffset(pristine, 2);
  const uint32_t num_caches = get32(pristine, caches);
  ASSERT_GE(num_caches, 2u);
  auto length_at = [&](uint64_t i) { return caches + 16 + 8 * i; };
  const uint64_t record = FirstRecordOffset(pristine);
  auto dir_offset = [&](uint64_t i) { return record + 16 + 16 * i; };
  auto dir_count = [&](uint64_t i) { return dir_offset(i) + 8; };
  auto array_at = [&](uint64_t i) {
    return record + get64(pristine, dir_offset(i));
  };
  auto count_of = [&](uint64_t i) { return get64(pristine, dir_count(i)); };
  const uint64_t universe = get64(pristine, record);
  const uint32_t num_terms = static_cast<uint32_t>(count_of(0));
  // Record 0 must exercise every array the rules below corrupt.
  ASSERT_GE(universe, 2u);
  ASSERT_GT(num_terms, 0u);
  ASSERT_GT(count_of(3), 0u);  // postings
  ASSERT_GE(count_of(6), 2u);  // plans
  ASSERT_GT(count_of(8), 0u);  // plan slots
  const double kInf = std::numeric_limits<double>::infinity();

  struct Rule {
    const char* name;
    std::function<void(std::string*)> craft;
    StatusCode code;
    const char* message;
  };
  const Rule rules[] = {
      // ---- SealedCache::ValidateImage, on cache record 0 ----
      {"image smaller than its directory",
       [&](std::string* b) {
         const uint64_t len0 = get64(*b, length_at(0));
         put(b, length_at(0), uint64_t{152});
         put(b, length_at(1), get64(*b, length_at(1)) + len0 - 152);
       },
       StatusCode::kInternal,
       "cache image is smaller than its header and directory"},
      {"image size not a multiple of 8",
       [&](std::string* b) {
         put(b, length_at(0), get64(*b, length_at(0)) - 4);
         put(b, length_at(1), get64(*b, length_at(1)) + 4);
       },
       StatusCode::kInternal, "cache image size is not 8-byte aligned"},
      {"universe wider than IndexId",
       [&](std::string* b) { put(b, record, uint64_t{1} << 40); },
       StatusCode::kInternal, "universe size does not fit IndexId"},
      {"term matrix not universe x terms",
       [&](std::string* b) { put(b, dir_count(1), count_of(1) - 1); },
       StatusCode::kInternal, "term matrix is not universe x terms"},
      {"posting offsets short of the universe",
       [&](std::string* b) { put(b, dir_count(2), count_of(2) - 1); },
       StatusCode::kInternal, "posting offsets do not cover the universe"},
      {"posting lists not closed by their offsets",
       [&](std::string* b) { put(b, dir_count(3), count_of(3) + 1); },
       StatusCode::kInternal,
       "posting lists are not closed by their offsets"},
      {"posting offsets not monotone",
       [&](std::string* b) {
         const uint32_t last = get32(*b, array_at(2) + 4 * universe);
         put(b, array_at(2) + 4, last + 1);
       },
       StatusCode::kInternal, "posting offsets are not monotone"},
      {"posting term out of range",
       [&](std::string* b) { put(b, array_at(3), num_terms); },
       StatusCode::kInternal, "posting names a term out of range"},
      {"posting not a strict improvement",
       [&](std::string* b) { put(b, array_at(4), kInf); },
       StatusCode::kInternal,
       "posting is not a strict improvement over its base"},
      {"posting-bearing id list names a wrong id",
       [&](std::string* b) { put(b, array_at(5), IndexId{-1}); },
       StatusCode::kInternal,
       "posting-bearing id list does not match the offsets"},
      {"posting-bearing id list too long",
       [&](std::string* b) { put(b, dir_count(5), count_of(5) + 1); },
       StatusCode::kInternal,
       "posting-bearing id list does not match the offsets"},
      {"plans out of internal-cost order",
       [&](std::string* b) { put(b, array_at(6), kInf); },
       StatusCode::kInternal, "plans are not sorted by internal cost"},
      {"plan slots past the slot arrays",
       [&](std::string* b) {
         put(b, array_at(6) + 12, static_cast<uint32_t>(count_of(7) + 1));
       },
       StatusCode::kInternal, "plan slots overrun the slot arrays"},
      {"slot arrays of different lengths",
       [&](std::string* b) { put(b, dir_count(8), count_of(8) - 1); },
       StatusCode::kInternal, "plan slot arrays disagree in length"},
      {"plan term out of range",
       [&](std::string* b) { put(b, array_at(7), num_terms); },
       StatusCode::kInternal, "plan names a term out of range"},
      // ---- File framing (src/inum/snapshot.cc) ----
      {"cache record misaligned in the file",
       [&](std::string* b) {
         // Shift the caches section (the last one) by 4 bytes: only a
         // crafted section offset can misalign a record, since a record
         // length that is not a multiple of 8 fails its own image check
         // before the next record is bound.
         b->insert(caches, 4, '\0');
         for (uint32_t i = 0; i < get32(*b, 16); ++i) {
           const uint64_t entry = 40 + 24 * uint64_t{i};
           if (get32(*b, entry) == 3) put(b, entry + 8, caches + 4);
         }
         put(b, 24, uint64_t{b->size()});
       },
       StatusCode::kInternal, "cache record is misaligned"},
      {"foreign byte order",
       [&](std::string* b) { put(b, 8, uint32_t{0x04030201}); },
       StatusCode::kInvalidArgument, "byte order differs"},
      {"bytes past the declared file size",
       [&](std::string* b) { b->append(8, '\0'); },
       StatusCode::kInternal, "trailing bytes past the declared file size"},
      {"section table past the file",
       [&](std::string* b) { put(b, 16, uint32_t{1} << 28); },
       StatusCode::kInternal, "section table overruns the file"},
      {"section payload past the file",
       [&](std::string* b) { put(b, 40 + 16, uint64_t{1} << 40); },
       StatusCode::kInternal, "overruns the file (offset"},
      {"query name past its section",
       [&](std::string* b) { put(b, queries + 4, uint32_t{0xFFFFFFFF}); },
       StatusCode::kInternal, "query name overruns its section"},
      {"cache count differs from query count",
       [&](std::string* b) { put(b, caches, num_caches + 1); },
       StatusCode::kInternal, "cache count does not match query count"},
      {"record-length count differs from cache count",
       [&](std::string* b) { put(b, caches + 8, uint64_t{num_caches} - 1); },
       StatusCode::kInternal,
       "cache record-length count does not match cache count"},
      {"record past its section",
       [&](std::string* b) { put(b, length_at(0), uint64_t{1} << 40); },
       StatusCode::kInternal, "cache record 0 overruns its section"},
      {"bytes after the last record",
       [&](std::string* b) {
         const uint64_t last = length_at(num_caches - 1u);
         put(b, last, get64(*b, last) - 8);
       },
       StatusCode::kInternal, "trailing bytes in caches section"},
  };
  for (const Rule& rule : rules) {
    SCOPED_TRACE(rule.name);
    std::string bytes = pristine;
    rule.craft(&bytes);
    Rechecksum(&bytes);
    ExpectRejected(bytes, rule.code, rule.message);
  }
}

TEST_F(SnapshotTest, IndexSizeDriftIsFailedPrecondition) {
  // Same tables, same candidate key columns, but one candidate's size
  // estimate changed (stats drift reflected into the what-if sizer):
  // the advisor prices bytes from IndexDef sizes, so this is an epoch
  // change even though the id vocabulary is identical.
  CandidateSet resized = fix_->star->set;
  IndexDef* def = resized.universe.MutableIndex(resized.candidate_ids[0]);
  ASSERT_NE(def, nullptr);
  def->leaf_pages += 1;
  ExpectRejectedAt(fix_->path, ComputeSnapshotEpoch(resized),
                   StatusCode::kFailedPrecondition, "candidate");
}

TEST_F(SnapshotTest, CostModelChangeStalesEveryQuery) {
  // Every planner knob shapes the caches a build seals, so a builder
  // whose cost constants or hooks differ from the saving builder's must
  // find every stored cache stale: a restart must never serve caches
  // priced under another cost model.
  const std::vector<Query>& queries = fix_->star->queries();
  auto loaded = fix_->builder->LoadSnapshot(fix_->path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(fix_->builder
                  ->StaleQueries(loaded->query_names, loaded->query_stamps,
                                 queries)
                  .empty());
  std::vector<size_t> every(queries.size());
  for (size_t i = 0; i < every.size(); ++i) every[i] = i;

  const std::pair<const char*, void (*)(PlannerKnobs*)> changes[] = {
      {"random_page_cost",
       [](PlannerKnobs* k) { k->cost.random_page_cost = 4.5; }},
      {"work_mem_bytes",
       [](PlannerKnobs* k) { k->cost.work_mem_bytes *= 2; }},
      {"hooks.disable_dominance_pruning",
       [](PlannerKnobs* k) { k->hooks.disable_dominance_pruning = true; }},
  };
  for (const auto& [name, change] : changes) {
    SCOPED_TRACE(name);
    WorkloadCacheOptions options;
    change(&options.pinum.base_knobs);
    WorkloadCacheBuilder changed(&fix_->star->catalog(), &fix_->star->set,
                                 &fix_->star->stats(), options);
    EXPECT_EQ(changed.StaleQueries(loaded->query_names, loaded->query_stamps,
                                   queries),
              every);
  }
}

TEST_F(SnapshotTest, LongerSnapshotStalesEveryQuery) {
  // A snapshot of a longer workload whose names begin with this one's is
  // not this workload's snapshot (its restored result sums every stored
  // cache), so every query reads as stale, through both readers, and
  // RebuildQueries rejects the restored result; the caller rebuilds.
  const std::vector<Query>& all = fix_->star->queries();
  const std::vector<Query> shorter(all.begin(), all.end() - 1);
  std::vector<size_t> every(shorter.size());
  std::vector<std::string> every_name;
  for (size_t i = 0; i < every.size(); ++i) {
    every[i] = i;
    every_name.push_back(shorter[i].name);
  }
  auto expect_every_query_stale = [&](const WorkloadCacheResult& restored,
                                      const std::vector<std::string>& names) {
    EXPECT_EQ(fix_->builder->StaleQueries(names, restored.stamps, shorter),
              every);
    auto resealed =
        fix_->builder->RebuildQueries(every_name, shorter, restored);
    ASSERT_FALSE(resealed.ok());
    EXPECT_EQ(resealed.status().code(), StatusCode::kInvalidArgument);
  };
  {
    SCOPED_TRACE("LoadSnapshot");
    auto loaded = fix_->builder->LoadSnapshot(fix_->path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    std::vector<std::string> names;
    const WorkloadCacheResult restored =
        WorkloadCacheBuilder::ResultFromSnapshot(std::move(*loaded), &names);
    expect_every_query_stale(restored, names);
  }
  {
    SCOPED_TRACE("LoadSnapshotMapped");
    std::vector<std::string> names;
    auto mapped = fix_->builder->LoadSnapshotMapped(fix_->path, &names);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    expect_every_query_stale(*mapped, names);
  }
}

TEST_F(SnapshotTest, QueryStampIsStableAcrossBuilds) {
  // Snapshots on disk carry these stamps: a change to the recipe (what
  // QueryStamp folds, or in what order) stales every stored snapshot.
  // Change this constant only together with such a deliberate change.
  EXPECT_EQ(fix_->builder->QueryStamp(fix_->star->queries()[0]),
            0xde47547d9f7fe2f2ULL);
}

TEST_F(SnapshotTest, SaveWritesTheCachesItIsGiven) {
  // A save writes the caches it is handed, never the previous file's
  // records. Swap two queries' caches but not their stamps, so every
  // name, stamp and universe still matches the file already at the
  // path; after saving over it, each reloaded cache must price like the
  // in-memory one at its position.
  const std::vector<Query>& queries = fix_->star->queries();
  const std::string path = TempPath("given.snap");
  WorkloadCacheResult result = fix_->built;
  ASSERT_TRUE(fix_->builder->SaveSnapshot(path, result, queries).ok());
  ASSERT_GE(result.sealed.size(), 2u);
  // The swap must be visible to a pricing question.
  ASSERT_NE(result.sealed[0].Cost({}), result.sealed[1].Cost({}));
  std::swap(result.sealed[0], result.sealed[1]);
  ASSERT_TRUE(fix_->builder->SaveSnapshot(path, result, queries).ok());

  auto loaded = fix_->builder->LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->sealed.size(), result.sealed.size());
  Rng rng(709);
  for (size_t qi = 0; qi < result.sealed.size(); ++qi) {
    const SealedCache& given = result.sealed[qi];
    const SealedCache& restored = loaded->sealed[qi];
    EXPECT_EQ(restored.ArenaBytes(), given.ArenaBytes()) << "query " << qi;
    EXPECT_EQ(restored.Cost({}), given.Cost({})) << "query " << qi;
    for (int trial = 0; trial < 10; ++trial) {
      const IndexConfig config =
          RandomSubsetConfig(fix_->star->set, &rng, 0.3);
      EXPECT_EQ(restored.Cost(config), given.Cost(config))
          << "query " << qi << " trial " << trial;
    }
  }
  std::remove(path.c_str());
}

TEST_F(SnapshotTest, LoadedCachesOutliveSnapshotAndFile) {
  // LoadSnapshot's twin of SnapshotMmapTest.MappedCachesOutliveHandleAndFile:
  // every loaded cache binds in place over one heap buffer holding the
  // file, so a cache copied out keeps serving after (1) the snapshot
  // that produced it is destroyed and (2) the file is unlinked — its
  // arena's owner handle alone keeps the buffer alive.
  const std::string path = TempPath("outlive.snap");
  WriteFile(path, SnapshotBytes());
  SealedCache survivor;
  {
    auto loaded = LoadSnapshot(path, LiveEpoch());
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    survivor = loaded->sealed.back();
    std::remove(path.c_str());
  }
  const SealedCache& original = fix_->built.sealed.back();
  EXPECT_EQ(survivor.ArenaBytes(), original.ArenaBytes());
  Rng rng(719);
  EXPECT_EQ(survivor.Cost({}), original.Cost({}));
  for (int trial = 0; trial < 10; ++trial) {
    const IndexConfig config = RandomAtomicConfig(
        fix_->star->queries().back(), fix_->star->set, &rng);
    EXPECT_EQ(survivor.Cost(config), original.Cost(config));
  }
}

TEST_F(SnapshotTest, WriterFollowsTheSpec) {
  // snapshot.h keeps docs/SNAPSHOT_FORMAT.md and the code in lockstep
  // through kSnapshotFormatVersion: the spec's title must name the
  // version the writer stamps, and the checksum written from the spec
  // (Rechecksum) must reproduce a freshly saved file byte for byte.
  std::ifstream spec(std::string(PINUM_SOURCE_DIR) +
                     "/docs/SNAPSHOT_FORMAT.md");
  ASSERT_TRUE(spec.good());
  std::string title;
  std::getline(spec, title);
  EXPECT_TRUE(title.ends_with(", version " +
                              std::to_string(kSnapshotFormatVersion)))
      << title;

  const std::string saved = SnapshotBytes();
  uint32_t version = 0;
  std::memcpy(&version, saved.data() + 12, sizeof(version));
  EXPECT_EQ(version, kSnapshotFormatVersion);
  std::string rewritten = saved;
  std::memset(rewritten.data() + 32, 0, 8);
  Rechecksum(&rewritten);
  EXPECT_EQ(rewritten, saved);
}

// Every workload family (src/workload/workload_family.h) round-trips
// through the snapshot codec: save→load hands back caches answering
// sampled cost questions — pruning counters included — and the greedy
// advisor bit-identically to the sealed originals. The trace line
// prints (family, seed) so a failure reproduces alone.
class FamilySnapshotTest : public ::testing::TestWithParam<std::string> {};

TEST_P(FamilySnapshotTest, RoundTripAndAdvisorBitIdentical) {
  auto fix = MakeFamilyFixture(GetParam());
  ASSERT_NE(fix, nullptr);
  SCOPED_TRACE(fix->trace());
  WorkloadCacheBuilder builder(&fix->catalog(), &fix->set, &fix->stats());
  auto built = builder.BuildAll(fix->queries());
  ASSERT_TRUE(built.ok()) << built.status().ToString();

  const std::string path = ::testing::TempDir() + std::to_string(getpid()) +
                           "_family_" + GetParam() + ".snap";
  ASSERT_TRUE(builder.SaveSnapshot(path, *built, fix->queries()).ok());
  auto loaded = builder.LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->sealed.size(), fix->queries().size());
  EXPECT_TRUE(builder
                  .StaleQueries(loaded->query_names, loaded->query_stamps,
                                fix->queries())
                  .empty());

  Rng rng(601);
  for (size_t qi = 0; qi < fix->queries().size(); ++qi) {
    const SealedCache& original = built->sealed[qi];
    const SealedCache& restored = loaded->sealed[qi];
    EXPECT_EQ(restored.NumPlans(), original.NumPlans());
    EXPECT_EQ(restored.NumPlansPruned(), original.NumPlansPruned());
    EXPECT_EQ(restored.NumTerms(), original.NumTerms());
    EXPECT_EQ(restored.NumPostings(), original.NumPostings());
    EXPECT_EQ(restored.Cost({}), original.Cost({})) << "query " << qi;
    for (int trial = 0; trial < 12; ++trial) {
      IndexConfig config =
          RandomSubsetConfig(fix->set, &rng, rng.NextDouble() * 0.3);
      if (rng.Chance(0.3)) config.push_back(fix->set.NumIndexIds() + 5);
      EXPECT_EQ(restored.Cost(config), original.Cost(config))
          << "query " << qi << " trial " << trial;
    }
  }

  AdvisorOptions opts;
  const AdvisorResult fresh = RunGreedyAdvisor(built->sealed, fix->set, opts);
  const AdvisorResult from_snapshot =
      RunGreedyAdvisor(loaded->sealed, fix->set, opts);
  ExpectSameAdvisorResult(fresh, from_snapshot);
  std::remove(path.c_str());
}

TEST_P(FamilySnapshotTest, RestoredTotalsMatchTheSavingBuild) {
  // A restored result reports the saving build's plan, pruning, term
  // and posting totals, whichever reader restored it and after a reseal
  // too: every count comes from the sealed caches, which a restart has,
  // not from per-query build rows, which it does not.
  auto fix = MakeFamilyFixture(GetParam());
  ASSERT_NE(fix, nullptr);
  SCOPED_TRACE(fix->trace());
  WorkloadCacheBuilder builder(&fix->catalog(), &fix->set, &fix->stats());
  auto built = builder.BuildAll(fix->queries());
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const std::string path = ::testing::TempDir() + std::to_string(getpid()) +
                           "_totals_" + GetParam() + ".snap";
  ASSERT_TRUE(builder.SaveSnapshot(path, *built, fix->queries()).ok());

  const WorkloadCacheStats& want = built->totals;
  ASSERT_GT(want.plans_cached, want.plans_pruned);
  auto expect_totals = [&want](const WorkloadCacheStats& got) {
    EXPECT_EQ(got.plans_cached, want.plans_cached);
    EXPECT_EQ(got.plans_pruned, want.plans_pruned);
    EXPECT_EQ(got.terms, want.terms);
    EXPECT_EQ(got.postings, want.postings);
  };
  auto mapped = builder.LoadSnapshotMapped(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  {
    SCOPED_TRACE("mapped");
    expect_totals(mapped->totals);
  }
  auto loaded = builder.LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  {
    SCOPED_TRACE("loaded");
    expect_totals(
        WorkloadCacheBuilder::ResultFromSnapshot(std::move(*loaded)).totals);
  }
  // Nothing drifted, so the rebuilt caches equal the restored ones.
  const std::vector<std::string> names = {fix->queries().front().name,
                                          fix->queries().back().name};
  auto resealed = builder.RebuildQueries(names, fix->queries(), *mapped);
  ASSERT_TRUE(resealed.ok()) << resealed.status().ToString();
  {
    SCOPED_TRACE("mapped, then resealed");
    expect_totals(resealed->totals);
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloadFamilies, FamilySnapshotTest,
    ::testing::ValuesIn(WorkloadFamilyNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

TEST(SnapshotUnitTest, EmptyWorkloadRoundTrips) {
  // Zero queries is a valid (if degenerate) snapshot: the framing,
  // epoch, and empty sections must round-trip.
  const std::string path =
      ::testing::TempDir() + std::to_string(getpid()) + "_empty.snap";
  SnapshotEpoch epoch;
  epoch.base_schema_hash = 7;
  Status st = SaveSnapshot(path, {}, {}, {}, epoch);
  ASSERT_TRUE(st.ok()) << st.ToString();
  auto loaded = LoadSnapshot(path, epoch);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->sealed.empty());
  EXPECT_TRUE(loaded->query_names.empty());
  std::remove(path.c_str());
}

TEST(SnapshotUnitTest, DefaultSealedCacheRoundTrips) {
  // A default-constructed SealedCache (universe 0, no plans) is what an
  // unbuildable query would pin; it must survive the trip too.
  const std::string path = ::testing::TempDir() + "default.snap";
  std::vector<SealedCache> caches(2);
  Status st = SaveSnapshot(path, {"a", "b"}, {21, 22}, caches,
                           SnapshotEpoch{});
  ASSERT_TRUE(st.ok()) << st.ToString();
  auto loaded = LoadSnapshot(path, SnapshotEpoch{});
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->sealed.size(), 2u);
  EXPECT_EQ(loaded->sealed[0].Cost({}), kInfiniteCost);
  EXPECT_EQ(loaded->sealed[0].Cost({1, 2}), kInfiniteCost);
  EXPECT_EQ(loaded->query_names, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(loaded->query_stamps, (std::vector<uint64_t>{21, 22}));
  std::remove(path.c_str());
}

TEST(SnapshotUnitTest, MismatchedStampVectorIsInvalidArgument) {
  const std::string path = ::testing::TempDir() + "bad_parallel.snap";
  std::vector<SealedCache> caches(2);
  const Status st =
      SaveSnapshot(path, {"a", "b"}, {21}, caches, SnapshotEpoch{});
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace pinum
