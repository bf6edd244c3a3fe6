// Fault-injection suite: the FailPoint framework itself (modes, seeded
// reproducibility, scoped restore, concurrent checks) and the
// self-healing serving contract under injected faults — an optimizer
// that fails mid-reseal never disturbs serving, tortured snapshot
// saves never destroy the previous good snapshot, expired SubmitCost
// futures answer kDeadlineExceeded instead of hanging, a persistently
// failing reseal degrades health while serving the last good
// generation bit-identically and auto-recovers when the fault clears,
// and a seeded randomized fault schedule leaves every OK answer
// bitwise equal to the generation that produced it. The schedule seed
// comes from PINUM_FAULT_SEED (default 1) so the CI fault matrix runs
// distinct schedules under ASan and TSan.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "advisor/greedy_advisor.h"
#include "common/failpoint.h"
#include "common/rng.h"
#include "common/status.h"
#include "inum/snapshot.h"
#include "serving/serving_engine.h"
#include "test_util.h"
#include "whatif/candidate_set.h"
#include "workload/cache_manager.h"
#include "workload/drift.h"

namespace pinum {
namespace {

/// The CI fault matrix varies this (PINUM_FAULT_SEED=1..3) so each
/// sanitizer job exercises a different injected-fault schedule.
uint64_t FaultSeed() {
  const char* env = std::getenv("PINUM_FAULT_SEED");
  if (env == nullptr || *env == '\0') return 1;
  return std::strtoull(env, nullptr, 10);
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

bool FileExists(const std::string& path) {
  return std::ifstream(path).good();
}

// ---------------------------------------------------------------------
// FailPoint framework unit tests (no workload fixture needed).
// ---------------------------------------------------------------------

class FailPointTest : public ::testing::Test {
 protected:
  void TearDown() override { FailPoint::DisarmAll(); }
};

TEST_F(FailPointTest, DisarmedChecksAreOkAndUncounted) {
  EXPECT_TRUE(FailPoint::Check("fp.never_armed").ok());
  EXPECT_EQ(FailPoint::HitCount("fp.never_armed"), 0);
  EXPECT_EQ(FailPoint::FireCount("fp.never_armed"), 0);
}

TEST_F(FailPointTest, AlwaysModeFiresEveryHit) {
  FailPoint::Config config;
  config.mode = FailPoint::Mode::kAlways;
  config.status = Status::NotFound("injected");
  FailPoint::Arm("fp.always", config);
  for (int i = 0; i < 3; ++i) {
    const Status st = FailPoint::Check("fp.always");
    EXPECT_EQ(st.code(), StatusCode::kNotFound);
    EXPECT_EQ(st.message(), "injected");
  }
  EXPECT_EQ(FailPoint::HitCount("fp.always"), 3);
  EXPECT_EQ(FailPoint::FireCount("fp.always"), 3);
  FailPoint::Disarm("fp.always");
  EXPECT_TRUE(FailPoint::Check("fp.always").ok());
}

TEST_F(FailPointTest, OffModeCountsHitsButNeverFires) {
  FailPoint::Config config;
  config.mode = FailPoint::Mode::kOff;
  FailPoint::Arm("fp.off", config);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(FailPoint::Check("fp.off").ok());
  }
  EXPECT_EQ(FailPoint::HitCount("fp.off"), 5);
  EXPECT_EQ(FailPoint::FireCount("fp.off"), 0);
}

TEST_F(FailPointTest, NthHitFiresExactlyOnce) {
  FailPoint::Config config;
  config.mode = FailPoint::Mode::kNthHit;
  config.nth_hit = 3;
  config.status = Status::Unavailable("third hit");
  FailPoint::Arm("fp.nth", config);
  EXPECT_TRUE(FailPoint::Check("fp.nth").ok());
  EXPECT_TRUE(FailPoint::Check("fp.nth").ok());
  EXPECT_EQ(FailPoint::Check("fp.nth").code(), StatusCode::kUnavailable);
  EXPECT_TRUE(FailPoint::Check("fp.nth").ok());
  EXPECT_TRUE(FailPoint::Check("fp.nth").ok());
  EXPECT_EQ(FailPoint::HitCount("fp.nth"), 5);
  EXPECT_EQ(FailPoint::FireCount("fp.nth"), 1);
}

TEST_F(FailPointTest, SeededProbabilityScheduleIsReproducible) {
  FailPoint::Config config;
  config.mode = FailPoint::Mode::kProbability;
  config.probability = 0.5;
  config.seed = FaultSeed();

  auto draw_schedule = [&] {
    FailPoint::Arm("fp.prob", config);
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(!FailPoint::Check("fp.prob").ok());
    }
    return fired;
  };

  const std::vector<bool> first = draw_schedule();
  // Re-arming with the same seed replays the identical decision stream.
  EXPECT_EQ(draw_schedule(), first);

  // A different seed yields a different stream (64 fair coin flips
  // colliding is a 2^-64 event, not a flake).
  config.seed = FaultSeed() + 1;
  EXPECT_NE(draw_schedule(), first);

  // The schedule actually mixes fires and passes at p = 0.5.
  const int fires = static_cast<int>(
      std::count(first.begin(), first.end(), true));
  EXPECT_GT(fires, 0);
  EXPECT_LT(fires, 64);
}

TEST_F(FailPointTest, DelayStallsTheCaller) {
  FailPoint::Config config;
  config.mode = FailPoint::Mode::kAlways;
  config.status = Status::OK();  // delay-only: stall but proceed
  config.delay = std::chrono::milliseconds(20);
  FailPoint::Arm("fp.delay", config);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(FailPoint::Check("fp.delay").ok());
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, std::chrono::milliseconds(20));
  EXPECT_EQ(FailPoint::FireCount("fp.delay"), 1);
}

TEST_F(FailPointTest, ScopedFailPointRestoresPriorState) {
  // Scope over an unarmed name: disarmed again afterwards.
  {
    ScopedFailPoint scoped("fp.scoped", FailPoint::Config{});
    EXPECT_FALSE(FailPoint::Check("fp.scoped").ok());
  }
  EXPECT_TRUE(FailPoint::Check("fp.scoped").ok());

  // Scope over an armed name: the outer config comes back.
  FailPoint::Config outer;
  outer.status = Status::NotFound("outer");
  FailPoint::Arm("fp.scoped", outer);
  {
    FailPoint::Config inner;
    inner.status = Status::Unavailable("inner");
    ScopedFailPoint scoped("fp.scoped", inner);
    EXPECT_EQ(FailPoint::Check("fp.scoped").code(),
              StatusCode::kUnavailable);
  }
  EXPECT_EQ(FailPoint::Check("fp.scoped").code(), StatusCode::kNotFound);
}

TEST_F(FailPointTest, DisarmAllClearsEveryPoint) {
  FailPoint::Arm("fp.a", FailPoint::Config{});
  FailPoint::Arm("fp.b", FailPoint::Config{});
  EXPECT_FALSE(FailPoint::Check("fp.a").ok());
  FailPoint::DisarmAll();
  EXPECT_TRUE(FailPoint::Check("fp.a").ok());
  EXPECT_TRUE(FailPoint::Check("fp.b").ok());
  EXPECT_EQ(FailPoint::HitCount("fp.a"), 0);
}

TEST_F(FailPointTest, ConcurrentChecksCountEveryHit) {
  FailPoint::Config config;
  config.mode = FailPoint::Mode::kProbability;
  config.probability = 0.5;
  config.seed = FaultSeed();
  FailPoint::Arm("fp.concurrent", config);
  constexpr int kThreads = 4;
  constexpr int kChecksPerThread = 1000;
  std::atomic<int64_t> observed_fires{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kChecksPerThread; ++i) {
        if (!FailPoint::Check("fp.concurrent").ok()) observed_fires++;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(FailPoint::HitCount("fp.concurrent"),
            kThreads * kChecksPerThread);
  EXPECT_EQ(FailPoint::FireCount("fp.concurrent"), observed_fires.load());
}

// ---------------------------------------------------------------------
// Engine + snapshot fault injection over the shared star fixture.
// ---------------------------------------------------------------------

class FaultInjectionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { star_ = MakeStarFixture().release(); }
  static void TearDownTestSuite() {
    delete star_;
    star_ = nullptr;
  }

  void SetUp() override {
    ASSERT_NE(star_, nullptr);
    // Per-test world copies: drift mutates them in place.
    set_ = star_->set;
    stats_ = star_->stats();
  }
  void TearDown() override { FailPoint::DisarmAll(); }

  const std::vector<Query>& queries() const { return star_->queries(); }
  const Catalog& catalog() const { return star_->catalog(); }

  std::unique_ptr<WorkloadCacheBuilder> MakeBuilder(
      WorkloadCacheResult* result) {
    WorkloadCacheOptions opts;
    auto builder = std::make_unique<WorkloadCacheBuilder>(
        &catalog(), &set_, &stats_, opts);
    auto built = builder->BuildAll(queries());
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    *result = std::move(*built);
    return builder;
  }

  std::vector<std::string> Drift(uint64_t seed, int add_candidates = 1) {
    DriftOptions dopts;
    dopts.add_candidates = add_candidates;
    auto drift = ApplyDrift(queries(), &set_, &stats_, queries().size(),
                            seed, dopts);
    EXPECT_TRUE(drift.ok()) << drift.status().ToString();
    return drift->stale_queries;
  }

  /// Expects every config to price bitwise-equal between the engine and
  /// a cold rebuild under the engine's current world.
  void ExpectMatchesColdRebuild(const ServingEngine& engine,
                                const std::vector<IndexConfig>& configs) {
    WorkloadCacheBuilder cold(&catalog(), &set_, &stats_,
                              WorkloadCacheOptions{});
    auto cold_built = cold.BuildAll(queries());
    ASSERT_TRUE(cold_built.ok()) << cold_built.status().ToString();
    WorkloadCostEvaluator cold_eval(&cold_built->sealed);
    for (const IndexConfig& config : configs) {
      EXPECT_EQ(engine.Cost(config).cost, cold_eval.Cost(config));
    }
  }

  static std::string TempPath(const std::string& name) {
    return ::testing::TempDir() + std::to_string(getpid()) + "_" + name;
  }

  static StarFixture* star_;
  CandidateSet set_;
  StatsCatalog stats_;
};

StarFixture* FaultInjectionTest::star_ = nullptr;

TEST_F(FaultInjectionTest, OptimizerFaultMidResealLeavesServingUntouched) {
  WorkloadCacheResult built;
  auto builder = MakeBuilder(&built);
  ServingEngine engine(builder.get(), &queries(), std::move(built));

  Rng rng(FaultSeed() * 31 + 1);
  std::vector<IndexConfig> configs;
  for (int i = 0; i < 6; ++i) {
    configs.push_back(RandomSubsetConfig(set_, &rng, 0.3));
  }
  std::vector<double> before;
  for (const IndexConfig& config : configs) {
    before.push_back(engine.Cost(config).cost);
  }

  std::vector<std::string> stale;
  engine.WithWorld([&] { stale = Drift(/*seed=*/FaultSeed() * 100 + 7); });
  ASSERT_FALSE(stale.empty());

  // Fail the 5th optimizer call of the rebuild — mid-reseal, after some
  // queries already rebuilt into the side copy.
  {
    FailPoint::Config fault;
    fault.mode = FailPoint::Mode::kNthHit;
    fault.nth_hit = 5;
    fault.status = Status::Unavailable("optimizer process died");
    ScopedFailPoint scoped("inum.plan_optimizer_call", fault);
    const Status st = engine.Reseal(stale);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(FailPoint::FireCount("inum.plan_optimizer_call"), 1);
  }

  // Nothing was published; serving still answers generation 1's bits.
  EXPECT_EQ(engine.CurrentGenerationId(), 1u);
  for (size_t i = 0; i < configs.size(); ++i) {
    const CostAnswer answer = engine.Cost(configs[i]);
    EXPECT_EQ(answer.generation, 1u);
    EXPECT_EQ(answer.cost, before[i]);
  }
  EXPECT_FALSE(engine.StaleNames().empty());
  EXPECT_FALSE(engine.Health().last_error.ok());

  // Fault cleared: the retried reseal publishes a cold rebuild's bits.
  auto resealed = engine.CheckAndReseal();
  ASSERT_TRUE(resealed.ok()) << resealed.status().ToString();
  EXPECT_TRUE(*resealed);
  EXPECT_EQ(engine.CurrentGenerationId(), 2u);
  EXPECT_TRUE(engine.Health().last_error.ok());
  ExpectMatchesColdRebuild(engine, configs);
}

TEST_F(FaultInjectionTest, SaveTortureNeverDestroysPreviousSnapshot) {
  WorkloadCacheResult built;
  auto builder = MakeBuilder(&built);
  const std::string path = TempPath("fault_save_torture.snap");
  const std::string tmp = path + ".tmp";

  ASSERT_TRUE(builder->SaveSnapshot(path, built, queries()).ok());
  const std::string good_bytes = ReadFileBytes(path);
  ASSERT_FALSE(good_bytes.empty());

  for (const char* name :
       {"snapshot.save.open", "snapshot.save.short_write",
        "snapshot.save.fsync", "snapshot.save.rename"}) {
    FailPoint::Config fault;
    fault.status = Status::Internal("injected I/O fault");
    ScopedFailPoint scoped(name, fault);

    const Status st = builder->SaveSnapshot(path, built, queries());
    ASSERT_FALSE(st.ok()) << name;
    // Diagnosable: the error names the file it happened on.
    EXPECT_NE(st.message().find(" [file: "), std::string::npos) << name;
    EXPECT_NE(st.message().find(path), std::string::npos) << name;
    // No torn tmp file left behind, previous snapshot byte-identical.
    EXPECT_FALSE(FileExists(tmp)) << name;
    EXPECT_EQ(ReadFileBytes(path), good_bytes) << name;
  }

  // The surviving snapshot still loads, and a fault-free save succeeds.
  ASSERT_TRUE(builder->LoadSnapshot(path).ok());
  EXPECT_TRUE(builder->SaveSnapshot(path, built, queries()).ok());
  std::remove(path.c_str());
}

TEST_F(FaultInjectionTest, ShortWriteFaultReportsByteOffset) {
  WorkloadCacheResult built;
  auto builder = MakeBuilder(&built);
  const std::string path = TempPath("fault_save_offset.snap");

  FailPoint::Config fault;
  fault.status = Status::Internal("disk full");
  ScopedFailPoint scoped("snapshot.save.short_write", fault);
  const Status st = builder->SaveSnapshot(path, built, queries());
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find(" at byte offset "), std::string::npos)
      << st.ToString();
  EXPECT_FALSE(FileExists(path + ".tmp"));
  EXPECT_FALSE(FileExists(path));
}

TEST_F(FaultInjectionTest, LoadAndMapFaultsReportThePath) {
  WorkloadCacheResult built;
  auto builder = MakeBuilder(&built);
  const std::string path = TempPath("fault_load.snap");
  ASSERT_TRUE(builder->SaveSnapshot(path, built, queries()).ok());

  {
    FailPoint::Config fault;
    fault.status = Status::Internal("read returned EIO");
    ScopedFailPoint scoped("snapshot.load.read", fault);
    auto loaded = builder->LoadSnapshot(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find(path), std::string::npos);
  }
  {
    FailPoint::Config fault;
    fault.status = Status::Internal("mmap refused");
    ScopedFailPoint scoped("snapshot.mmap.map", fault);
    auto mapped = MapSnapshot(path, ComputeSnapshotEpoch(set_));
    ASSERT_FALSE(mapped.ok());
    if (mapped.status().code() != StatusCode::kUnimplemented) {
      EXPECT_EQ(mapped.status().code(), StatusCode::kInternal);
      EXPECT_NE(mapped.status().message().find(path), std::string::npos);
      EXPECT_NE(mapped.status().message().find("mmap refused"),
                std::string::npos);
    }
  }

  // Both paths work again once disarmed.
  EXPECT_TRUE(builder->LoadSnapshot(path).ok());
  std::remove(path.c_str());
}

TEST_F(FaultInjectionTest, ExpiredRequestsAnswerDeadlineExceeded) {
  WorkloadCacheResult built;
  auto builder = MakeBuilder(&built);
  ServingEngine engine(builder.get(), &queries(), std::move(built));

  // One request with a tiny deadline, one without. After the deadline
  // passes, a pump answers the expired one with kDeadlineExceeded and
  // still prices the live one — the batch is never poisoned.
  auto expired = engine.SubmitCost(IndexConfig{},
                                   std::chrono::milliseconds(1));
  auto live = engine.SubmitCost(IndexConfig{});
  ASSERT_TRUE(expired.ok());
  ASSERT_TRUE(live.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(engine.PumpOnce(), 2u);

  const CostAnswer expired_answer = expired.value().get();
  EXPECT_EQ(expired_answer.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(expired_answer.generation, 0u);

  const CostAnswer live_answer = live.value().get();
  ASSERT_TRUE(live_answer.status.ok());
  WorkloadCostEvaluator eval(&engine.Pin()->sealed());
  EXPECT_EQ(live_answer.cost, eval.Cost(IndexConfig{}));

  const ServingStats stats = engine.Stats();
  EXPECT_EQ(stats.deadline_expired, 1u);
  EXPECT_EQ(stats.answered, 1u);
  EXPECT_EQ(stats.submitted, 2u);
}

TEST_F(FaultInjectionTest, DefaultDeadlineAppliesAndDestructorHonorsIt) {
  WorkloadCacheResult built;
  auto builder = MakeBuilder(&built);
  ServingOptions options;
  options.default_deadline = std::chrono::milliseconds(1);
  std::future<CostAnswer> orphan;
  {
    ServingEngine engine(builder.get(), &queries(), std::move(built),
                         options);
    auto submitted = engine.SubmitCost(IndexConfig{});
    ASSERT_TRUE(submitted.ok());
    orphan = std::move(submitted.value());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    // No pump: the destructor drain must still answer the future —
    // expired by then, so with kDeadlineExceeded, not a stale price.
  }
  EXPECT_EQ(orphan.get().status.code(), StatusCode::kDeadlineExceeded);
}

TEST_F(FaultInjectionTest, ShedRequestsAreCountedUnavailable) {
  WorkloadCacheResult built;
  auto builder = MakeBuilder(&built);
  ServingOptions options;
  options.max_queue_depth = 1;
  ServingEngine engine(builder.get(), &queries(), std::move(built), options);

  auto admitted = engine.SubmitCost(IndexConfig{});
  ASSERT_TRUE(admitted.ok());
  auto shed = engine.SubmitCost(IndexConfig{});
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);
  const ServingStats stats = engine.Stats();
  EXPECT_EQ(stats.shed_unavailable, 1u);
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(engine.PumpOnce(), 1u);
  EXPECT_TRUE(admitted.value().get().status.ok());
}

TEST_F(FaultInjectionTest, PoolFaultDuringPumpYieldsErrorAnswers) {
  WorkloadCacheResult built;
  auto builder = MakeBuilder(&built);
  ServingOptions options;
  options.pool = builder->pool();
  ServingEngine engine(builder.get(), &queries(), std::move(built), options);

  std::vector<std::future<CostAnswer>> futures;
  for (int i = 0; i < 3; ++i) {
    auto submitted = engine.SubmitCost(IndexConfig{});
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(submitted.value()));
  }

  {
    FailPoint::Config fault;
    fault.status = Status::Internal("injected pool fault");
    ScopedFailPoint scoped("thread_pool.task", fault);
    // The faulting sweep fulfils every promise with an error answer —
    // no future is abandoned, the pumping thread survives.
    EXPECT_EQ(engine.PumpOnce(), 3u);
  }
  for (auto& future : futures) {
    const CostAnswer answer = future.get();
    EXPECT_EQ(answer.status.code(), StatusCode::kInternal);
    EXPECT_EQ(answer.generation, 0u);
  }
  EXPECT_GE(engine.Stats().pricing_failures, 1u);

  // Disarmed, the engine prices normally again on the same pool.
  auto retry = engine.SubmitCost(IndexConfig{});
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(engine.PumpOnce(), 1u);
  const CostAnswer answer = retry.value().get();
  ASSERT_TRUE(answer.status.ok());
  WorkloadCostEvaluator eval(&engine.Pin()->sealed());
  EXPECT_EQ(answer.cost, eval.Cost(IndexConfig{}));
}

TEST_F(FaultInjectionTest, OverBudgetResealIsDiscardedNotPublished) {
  WorkloadCacheResult built;
  auto builder = MakeBuilder(&built);
  ServingOptions options;
  options.maintenance.reseal_deadline = std::chrono::milliseconds(1);
  ServingEngine engine(builder.get(), &queries(), std::move(built), options);

  Rng rng(FaultSeed() * 31 + 2);
  std::vector<IndexConfig> configs;
  for (int i = 0; i < 4; ++i) {
    configs.push_back(RandomSubsetConfig(set_, &rng, 0.3));
  }
  std::vector<double> before;
  for (const IndexConfig& config : configs) {
    before.push_back(engine.Cost(config).cost);
  }

  std::vector<std::string> stale;
  engine.WithWorld([&] { stale = Drift(/*seed=*/FaultSeed() * 100 + 8); });

  // Stall one per-query rebuild well past the 1ms budget. The rebuild
  // completes (it cannot be aborted) but its result must be discarded.
  FailPoint::Config stall;
  stall.mode = FailPoint::Mode::kNthHit;
  stall.nth_hit = 1;
  stall.status = Status::OK();
  stall.delay = std::chrono::milliseconds(20);
  ScopedFailPoint scoped("workload.build_query", stall);

  const Status st = engine.Reseal(stale);
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded) << st.ToString();
  EXPECT_EQ(engine.CurrentGenerationId(), 1u);
  EXPECT_FALSE(engine.StaleNames().empty());
  EXPECT_EQ(engine.Health().last_error.code(),
            StatusCode::kDeadlineExceeded);
  // Serving never saw the discarded result.
  for (size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(engine.Cost(configs[i]).cost, before[i]);
  }
}

TEST_F(FaultInjectionTest, PersistentFaultDegradesThenAutoRecovers) {
  WorkloadCacheResult built;
  auto builder = MakeBuilder(&built);
  ServingOptions options;
  options.maintenance.max_retries = 2;
  options.maintenance.initial_backoff = std::chrono::milliseconds(1);
  options.maintenance.jitter_seed = FaultSeed();
  ServingEngine engine(builder.get(), &queries(), std::move(built), options);

  Rng rng(FaultSeed() * 31 + 3);
  std::vector<IndexConfig> configs;
  for (int i = 0; i < 6; ++i) {
    configs.push_back(RandomSubsetConfig(set_, &rng, 0.3));
  }
  std::vector<double> before;
  for (const IndexConfig& config : configs) {
    before.push_back(engine.Cost(config).cost);
  }

  // Every per-query rebuild fails while armed: the watcher retries
  // with backoff, crosses max_retries, and degrades.
  FailPoint::Config fault;
  fault.status = Status::Unavailable("stats store offline");
  FailPoint::Arm("workload.build_query", fault);

  engine.StartDriftWatcher(std::chrono::milliseconds(2));
  engine.WithWorld([&] { Drift(/*seed=*/FaultSeed() * 100 + 9); });

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (engine.Health().state != HealthState::kDegraded &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(engine.Health().state, HealthState::kDegraded);

  // Degraded, not down: the last good generation keeps answering its
  // exact bits (stale-while-revalidate).
  EXPECT_EQ(engine.CurrentGenerationId(), 1u);
  for (size_t i = 0; i < configs.size(); ++i) {
    const CostAnswer answer = engine.Cost(configs[i]);
    EXPECT_EQ(answer.generation, 1u);
    EXPECT_EQ(answer.cost, before[i]);
  }
  {
    const HealthReport report = engine.Health();
    EXPECT_EQ(report.last_error.code(), StatusCode::kUnavailable);
    EXPECT_GE(report.consecutive_failures, 2);
    EXPECT_EQ(report.generation, 1u);
  }

  // Fault clears: the watcher's next attempt publishes and the health
  // flips back to kHealthy with no intervention.
  FailPoint::Disarm("workload.build_query");
  while ((engine.Health().state != HealthState::kHealthy ||
          engine.CurrentGenerationId() < 2) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  engine.StopDriftWatcher();
  ASSERT_EQ(engine.Health().state, HealthState::kHealthy);
  ASSERT_GE(engine.CurrentGenerationId(), 2u);
  EXPECT_TRUE(engine.StaleNames().empty());

  // The recovered generation is a cold rebuild's bits.
  ExpectMatchesColdRebuild(engine, configs);

  // The event ring tells the whole story, and the stats agree.
  bool saw_failed = false, saw_retry = false, saw_degraded = false,
       saw_recovered = false, saw_succeeded = false;
  for (const MaintenanceEvent& event : engine.MaintenanceEvents()) {
    switch (event.kind) {
      case MaintenanceEvent::Kind::kResealFailed:
        saw_failed = true;
        EXPECT_FALSE(event.status.ok());
        break;
      case MaintenanceEvent::Kind::kRetryScheduled:
        saw_retry = true;
        EXPECT_GT(event.backoff.count(), 0);
        break;
      case MaintenanceEvent::Kind::kDegraded:
        saw_degraded = true;
        EXPECT_GE(event.consecutive_failures, 2);
        break;
      case MaintenanceEvent::Kind::kRecovered:
        saw_recovered = true;
        break;
      case MaintenanceEvent::Kind::kResealSucceeded:
        saw_succeeded = true;
        EXPECT_TRUE(event.status.ok());
        break;
    }
  }
  EXPECT_TRUE(saw_failed);
  EXPECT_TRUE(saw_retry);
  EXPECT_TRUE(saw_degraded);
  EXPECT_TRUE(saw_recovered);
  EXPECT_TRUE(saw_succeeded);
  EXPECT_LE(engine.MaintenanceEvents().size(),
            ServingEngine::kMaxMaintenanceEvents);

  const ServingStats stats = engine.Stats();
  EXPECT_GE(stats.reseal_failures, 2u);
  EXPECT_GE(stats.recoveries, 1u);
  EXPECT_GT(stats.reseal_attempts, stats.reseal_failures);
}

TEST_F(FaultInjectionTest, RetryBackoffDoublesUpToTheRetryCap) {
  WorkloadCacheResult built;
  auto builder = MakeBuilder(&built);
  ServingOptions options;
  options.maintenance.max_retries = 2;
  options.maintenance.initial_backoff = std::chrono::milliseconds(8);
  options.maintenance.jitter_seed = FaultSeed();
  ServingEngine engine(builder.get(), &queries(), std::move(built), options);

  FailPoint::Config fault;
  fault.status = Status::Unavailable("stats store offline");
  FailPoint::Arm("workload.build_query", fault);
  engine.StartDriftWatcher(std::chrono::milliseconds(2));
  engine.WithWorld([&] { Drift(/*seed=*/FaultSeed() * 100 + 17); });

  auto retries = [&] {
    std::vector<MaintenanceEvent> out;
    for (const MaintenanceEvent& event : engine.MaintenanceEvents()) {
      if (event.kind == MaintenanceEvent::Kind::kRetryScheduled) {
        out.push_back(event);
      }
    }
    return out;
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (retries().size() < 4 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  engine.StopDriftWatcher();

  // The k-th consecutive failure waits 8 ms * 2^min(k - 1, max_retries)
  // scaled by a jitter factor in [0.75, 1.25), truncated to whole ms.
  const std::vector<MaintenanceEvent> events = retries();
  ASSERT_GE(events.size(), 4u);
  int most_failures = 0;
  for (const MaintenanceEvent& event : events) {
    ASSERT_GE(event.consecutive_failures, 1);
    const int exponent = std::min(event.consecutive_failures - 1, 2);
    const double b = 8.0 * static_cast<double>(1 << exponent);
    EXPECT_GE(event.backoff.count(), static_cast<int64_t>(0.75 * b))
        << "after " << event.consecutive_failures << " failures";
    EXPECT_LE(event.backoff.count(), static_cast<int64_t>(1.25 * b))
        << "after " << event.consecutive_failures << " failures";
    most_failures = std::max(most_failures, event.consecutive_failures);
  }
  // Four retries reach past the cap: the fourth failure waits as long as
  // the third.
  EXPECT_GE(most_failures, 4);
}

TEST_F(FaultInjectionTest, RecoversWhenTheWorldRevertsAfterAFailedReseal) {
  // A check that finds nothing stale recovers the same way a successful
  // reseal does: the world drifts, the reseal fails and degrades health,
  // then the world drifts back to what the serving generation was built
  // from — nothing needs doing any more.
  WorkloadCacheResult built;
  auto builder = MakeBuilder(&built);
  ServingOptions options;
  options.maintenance.max_retries = 1;
  ServingEngine engine(builder.get(), &queries(), std::move(built), options);

  const StatsCatalog saved = stats_;
  engine.WithWorld(
      [&] { Drift(/*seed=*/FaultSeed() * 100 + 21, /*add_candidates=*/0); });
  {
    FailPoint::Config fault;
    fault.status = Status::Unavailable("stats store offline");
    ScopedFailPoint scoped("workload.build_query", fault);
    const StatusOr<bool> failed = engine.CheckAndReseal();
    ASSERT_FALSE(failed.ok());
  }
  ASSERT_EQ(engine.Health().state, HealthState::kDegraded);

  engine.WithWorld([&] { stats_ = saved; });
  const StatusOr<bool> outcome = engine.CheckAndReseal();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_FALSE(*outcome);

  const HealthReport report = engine.Health();
  EXPECT_EQ(report.state, HealthState::kHealthy);
  EXPECT_EQ(report.consecutive_failures, 0);
  EXPECT_TRUE(report.last_error.ok());
  EXPECT_EQ(report.generation, 1u);
  EXPECT_EQ(engine.Stats().recoveries, 1u);
  const std::vector<MaintenanceEvent> events = engine.MaintenanceEvents();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().kind, MaintenanceEvent::Kind::kRecovered);
  EXPECT_EQ(events.back().generation, 1u);
}

TEST_F(FaultInjectionTest, MaintenanceRingKeepsTheNewestEvents) {
  // Overflowing the bounded ring drops the oldest events: with every
  // reseal failing, what is left is the newest kMaxMaintenanceEvents
  // failures in push order, their failure counts consecutive.
  WorkloadCacheResult built;
  auto builder = MakeBuilder(&built);
  ServingEngine engine(builder.get(), &queries(), std::move(built));

  FailPoint::Config fault;
  fault.status = Status::Unavailable("stats store offline");
  ScopedFailPoint scoped("workload.build_query", fault);
  const int rounds =
      static_cast<int>(ServingEngine::kMaxMaintenanceEvents) + 6;
  for (int i = 0; i < rounds; ++i) {
    ASSERT_FALSE(engine.Reseal({queries()[0].name}).ok());
  }

  const std::vector<MaintenanceEvent> events = engine.MaintenanceEvents();
  ASSERT_EQ(events.size(), ServingEngine::kMaxMaintenanceEvents);
  const int first = rounds - static_cast<int>(events.size()) + 1;
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].kind, MaintenanceEvent::Kind::kResealFailed)
        << "event " << i;
    EXPECT_EQ(events[i].consecutive_failures, first + static_cast<int>(i))
        << "event " << i;
  }
  EXPECT_EQ(events.back().consecutive_failures, rounds);
  EXPECT_EQ(engine.Stats().reseal_failures, static_cast<uint64_t>(rounds));
}

// The randomized fault-schedule stress case (the CI fault matrix runs
// it under ASan and TSan across seeds): readers hammer every serving
// entry point while maintenance drifts and reseals through a seeded
// probabilistic fault on the per-query rebuild. Every OK answer must
// be bitwise what its named generation computes; every future must
// resolve (OK, kDeadlineExceeded, or a shed at submission); the final
// generation must equal a cold rebuild once the faults clear.
TEST_F(FaultInjectionTest, RandomizedFaultScheduleStress) {
  const uint64_t seed = FaultSeed();
  WorkloadCacheResult built;
  auto builder = MakeBuilder(&built);
  ServingOptions options;
  // Readers price serially: pool faults are maintenance's problem in
  // this test (PoolFaultDuringPumpYieldsErrorAnswers covers the pump).
  options.pool = nullptr;
  options.maintenance.max_retries = 2;
  options.maintenance.initial_backoff = std::chrono::milliseconds(1);
  options.maintenance.jitter_seed = seed;
  ServingEngine engine(builder.get(), &queries(), std::move(built), options);
  engine.StartDispatcher();

  Rng rng(seed * 31 + 4);
  std::vector<IndexConfig> configs;
  for (int i = 0; i < 12; ++i) {
    configs.push_back(RandomSubsetConfig(set_, &rng, 0.3));
  }

  // Every generation ever published, id -> generation (maintenance is
  // the only publisher; it records right after each publish).
  std::map<uint64_t, std::shared_ptr<const ServingGeneration>> published;
  published[1] = engine.Pin();

  // The fault schedule: each per-query rebuild fails with p = 0.2,
  // decided by a stream seeded from PINUM_FAULT_SEED. Armed for the
  // whole stress run — reseals fail and retry while readers serve.
  FailPoint::Config fault;
  fault.mode = FailPoint::Mode::kProbability;
  fault.probability = 0.2;
  fault.seed = seed;
  fault.status = Status::Unavailable("injected rebuild fault");
  FailPoint::Arm("workload.build_query", fault);

  struct Observation {
    size_t config_idx;
    double cost;
    uint64_t generation;
  };
  constexpr int kReaders = 4;
  constexpr int kReaderIters = 60;
  constexpr int kDriftRounds = 5;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> expired{0};
  std::vector<std::vector<Observation>> observed(kReaders);

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng thread_rng(seed * 1000 + static_cast<uint64_t>(r));
      for (int it = 0; it < kReaderIters && !stop.load(); ++it) {
        const size_t idx = thread_rng.Next() % configs.size();
        switch (it % 3) {
          case 0: {
            const CostAnswer answer = engine.Cost(configs[idx]);
            ASSERT_TRUE(answer.status.ok());
            observed[r].push_back({idx, answer.cost, answer.generation});
            break;
          }
          case 1: {
            const size_t idx2 = thread_rng.Next() % configs.size();
            const std::vector<CostAnswer> answers =
                engine.BatchCost({configs[idx], configs[idx2]});
            ASSERT_EQ(answers[0].generation, answers[1].generation);
            observed[r].push_back(
                {idx, answers[0].cost, answers[0].generation});
            observed[r].push_back(
                {idx2, answers[1].cost, answers[1].generation});
            break;
          }
          case 2: {
            auto submitted = engine.SubmitCost(
                configs[idx], std::chrono::milliseconds(500));
            if (!submitted.ok()) {
              ASSERT_EQ(submitted.status().code(),
                        StatusCode::kUnavailable);
              break;
            }
            const CostAnswer answer = submitted.value().get();
            if (answer.status.ok()) {
              observed[r].push_back({idx, answer.cost, answer.generation});
            } else {
              // The only non-OK resolution a queued request may see
              // here is its own deadline expiring.
              ASSERT_EQ(answer.status.code(),
                        StatusCode::kDeadlineExceeded);
              expired++;
            }
            break;
          }
        }
      }
    });
  }

  std::thread maintenance([&] {
    for (int round = 0; round < kDriftRounds; ++round) {
      engine.WithWorld([&] {
        Drift(seed * 100 + static_cast<uint64_t>(round),
              /*add_candidates=*/round % 2);
      });
      // Retry through the injected faults until this round publishes;
      // p(all queries rebuild clean) ≈ 0.8^|queries| per attempt, so a
      // couple hundred attempts cannot flake.
      bool published_this_round = false;
      for (int attempt = 0; attempt < 500 && !published_this_round;
           ++attempt) {
        auto resealed = engine.CheckAndReseal();
        ASSERT_TRUE(resealed.ok() ||
                    resealed.status().code() == StatusCode::kUnavailable)
            << resealed.status().ToString();
        if (resealed.ok()) {
          ASSERT_TRUE(*resealed);
          published_this_round = true;
          published[engine.CurrentGenerationId()] = engine.Pin();
        }
      }
      ASSERT_TRUE(published_this_round)
          << "round " << round << " never published through the faults";
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    stop.store(true);
  });

  maintenance.join();
  for (std::thread& reader : readers) reader.join();
  engine.StopDispatcher();
  FailPoint::DisarmAll();

  // Bit-identity audit: every OK answer is exactly what the generation
  // it names computes.
  size_t audited = 0;
  for (const auto& per_reader : observed) {
    for (const Observation& obs : per_reader) {
      auto it = published.find(obs.generation);
      ASSERT_NE(it, published.end())
          << "answer names unpublished generation " << obs.generation;
      WorkloadCostEvaluator eval(&it->second->sealed());
      ASSERT_EQ(obs.cost, eval.Cost(configs[obs.config_idx]))
          << "generation " << obs.generation << ", config "
          << obs.config_idx;
      ++audited;
    }
  }
  EXPECT_GT(audited, 0u);

  // Faults cleared: the engine reseals whatever is left and the final
  // generation equals a cold rebuild under the final world, bitwise.
  auto final_reseal = engine.CheckAndReseal();
  ASSERT_TRUE(final_reseal.ok()) << final_reseal.status().ToString();
  EXPECT_EQ(engine.Health().state, HealthState::kHealthy);
  EXPECT_TRUE(engine.StaleNames().empty());
  ExpectMatchesColdRebuild(engine, configs);

  const ServingStats stats = engine.Stats();
  EXPECT_GE(stats.reseal_attempts,
            static_cast<uint64_t>(kDriftRounds));
  EXPECT_EQ(stats.deadline_expired, expired.load());
}

}  // namespace
}  // namespace pinum
