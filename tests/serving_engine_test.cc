// Always-on serving suite: generation lifecycle (pinned generations
// answer bit-identically across reseals, last pin dropped reclaims),
// admission control (full queue sheds kUnavailable, never hangs), the
// async front end (coalesced pumps, dispatcher thread, destructor
// drain), the drift watcher, and a seeded concurrent stress case in
// which readers hammer every serving entry point while a maintenance
// thread drifts the world and publishes reseals — afterwards EVERY
// recorded answer must be bitwise equal to the recorded generation
// that produced it, and the final generation must match a cold rebuild
// under the final world. The stress case is the one the TSan CI job
// runs; keep it free of benign races by construction.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "advisor/greedy_advisor.h"
#include "common/rng.h"
#include "common/status.h"
#include "serving/serving_engine.h"
#include "test_util.h"
#include "whatif/candidate_set.h"
#include "workload/cache_manager.h"
#include "workload/drift.h"

namespace pinum {
namespace {

class ServingEngineTest : public ::testing::Test {
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

  const std::vector<Query>& queries() const { return star_->queries(); }
  const Catalog& catalog() const { return star_->catalog(); }

  /// A builder over this test's world copy plus its BuildAll result.
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

  /// Drifts this test's world (all queries stale) and returns the
  /// stale names. Callers inside an engine must wrap in WithWorld.
  std::vector<std::string> Drift(uint64_t seed, int add_candidates = 1) {
    DriftOptions dopts;
    dopts.add_candidates = add_candidates;
    auto drift = ApplyDrift(queries(), &set_, &stats_, queries().size(),
                            seed, dopts);
    EXPECT_TRUE(drift.ok()) << drift.status().ToString();
    return drift->stale_queries;
  }

  static StarFixture* star_;
  CandidateSet set_;
  StatsCatalog stats_;
};

StarFixture* ServingEngineTest::star_ = nullptr;

TEST_F(ServingEngineTest, PinnedGenerationIsBitIdenticalAcrossReseal) {
  WorkloadCacheResult built;
  auto builder = MakeBuilder(&built);
  ServingEngine engine(builder.get(), &queries(), std::move(built));

  Rng rng(11);
  std::vector<IndexConfig> configs;
  for (int i = 0; i < 8; ++i) {
    configs.push_back(RandomSubsetConfig(set_, &rng, 0.3));
  }

  // Pin generation 1 and record its answers before any drift.
  auto pinned = engine.Pin();
  EXPECT_EQ(pinned->id, 1u);
  std::vector<double> before;
  for (const IndexConfig& config : configs) {
    const CostAnswer answer = engine.Cost(config);
    EXPECT_EQ(answer.generation, 1u);
    before.push_back(answer.cost);
  }

  std::vector<std::string> stale;
  engine.WithWorld([&] { stale = Drift(/*seed=*/77); });
  ASSERT_EQ(stale.size(), queries().size());
  ASSERT_TRUE(engine.Reseal(stale).ok());
  EXPECT_EQ(engine.CurrentGenerationId(), 2u);

  // The pinned old generation still answers exactly what it answered
  // before publication — immutability, not luck.
  WorkloadCostEvaluator old_eval(&pinned->sealed());
  bool any_moved = false;
  for (size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(old_eval.Cost(configs[i]), before[i]);
    const CostAnswer now = engine.Cost(configs[i]);
    EXPECT_EQ(now.generation, 2u);
    any_moved |= now.cost != before[i];
  }
  // Sanity: the drift actually changed answers, so the equalities
  // above were not vacuous.
  EXPECT_TRUE(any_moved);

  // And generation 2 is bitwise a cold rebuild under the drifted world.
  WorkloadCacheBuilder cold(&catalog(), &set_, &stats_,
                            WorkloadCacheOptions{});
  auto cold_built = cold.BuildAll(queries());
  ASSERT_TRUE(cold_built.ok()) << cold_built.status().ToString();
  WorkloadCostEvaluator cold_eval(&cold_built->sealed);
  for (const IndexConfig& config : configs) {
    EXPECT_EQ(engine.Cost(config).cost, cold_eval.Cost(config));
  }
}

TEST_F(ServingEngineTest, LastPinDroppedReclaimsTheGeneration) {
  WorkloadCacheResult built;
  auto builder = MakeBuilder(&built);
  ServingEngine engine(builder.get(), &queries(), std::move(built));

  std::shared_ptr<const ServingGeneration> pinned = engine.Pin();
  std::weak_ptr<const ServingGeneration> probe = pinned;

  std::vector<std::string> stale;
  engine.WithWorld([&] { stale = Drift(/*seed=*/78); });
  ASSERT_TRUE(engine.Reseal(stale).ok());

  // The reseal replaced the engine's reference, but the reader's pin
  // keeps generation 1 alive...
  EXPECT_FALSE(probe.expired());
  EXPECT_EQ(probe.lock()->id, 1u);

  // ...and dropping the last pin reclaims it immediately.
  pinned.reset();
  EXPECT_TRUE(probe.expired());
}

TEST_F(ServingEngineTest, FullQueueShedsUnavailableInsteadOfHanging) {
  WorkloadCacheResult built;
  auto builder = MakeBuilder(&built);
  ServingOptions options;
  options.max_queue_depth = 2;
  ServingEngine engine(builder.get(), &queries(), std::move(built), options);

  auto a = engine.SubmitCost(IndexConfig{});
  auto b = engine.SubmitCost(IndexConfig{});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(engine.Pending(), 2u);

  // Admission control: the bounded queue rejects rather than queues
  // unboundedly or blocks the caller.
  auto shed = engine.SubmitCost(IndexConfig{});
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);

  // The queued two still get answered, in one coalesced sweep.
  EXPECT_EQ(engine.PumpOnce(), 2u);
  EXPECT_EQ(engine.Pending(), 0u);
  WorkloadCostEvaluator eval(&engine.Pin()->sealed());
  const double expected = eval.Cost(IndexConfig{});
  CostAnswer answer_a = a.value().get();
  CostAnswer answer_b = b.value().get();
  EXPECT_EQ(answer_a.cost, expected);
  EXPECT_EQ(answer_b.cost, expected);
  EXPECT_EQ(answer_a.generation, 1u);

  // And the queue is usable again after the drain.
  auto c = engine.SubmitCost(IndexConfig{});
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(engine.PumpOnce(), 1u);
  EXPECT_EQ(c.value().get().cost, expected);
}

TEST_F(ServingEngineTest, OnePumpDrainsAtMostKMaxBatch) {
  WorkloadCacheResult built;
  auto builder = MakeBuilder(&built);
  ServingEngine engine(builder.get(), &queries(), std::move(built));

  // No dispatcher: only the explicit pumps below drain the queue.
  const size_t submitted = ServingEngine::kMaxBatch + 7;
  std::vector<std::future<CostAnswer>> futures;
  for (size_t i = 0; i < submitted; ++i) {
    auto future = engine.SubmitCost(IndexConfig{});
    ASSERT_TRUE(future.ok()) << future.status().ToString();
    futures.push_back(std::move(future.value()));
  }
  EXPECT_EQ(engine.Pending(), submitted);

  EXPECT_EQ(engine.PumpOnce(), ServingEngine::kMaxBatch);
  EXPECT_EQ(engine.Pending(), 7u);
  EXPECT_EQ(engine.PumpOnce(), 7u);
  EXPECT_EQ(engine.Pending(), 0u);

  WorkloadCostEvaluator eval(&engine.Pin()->sealed());
  const double expected = eval.Cost(IndexConfig{});
  for (std::future<CostAnswer>& future : futures) {
    EXPECT_EQ(future.get().cost, expected);
  }
}

TEST_F(ServingEngineTest, DispatcherAnswersSubmissionsInBackground) {
  WorkloadCacheResult built;
  auto builder = MakeBuilder(&built);
  ServingEngine engine(builder.get(), &queries(), std::move(built));
  engine.StartDispatcher();

  Rng rng(13);
  std::vector<IndexConfig> configs;
  std::vector<std::future<CostAnswer>> futures;
  for (int i = 0; i < 16; ++i) {
    configs.push_back(RandomSubsetConfig(set_, &rng, 0.25));
    auto submitted = engine.SubmitCost(configs.back());
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    futures.push_back(std::move(submitted.value()));
  }

  WorkloadCostEvaluator eval(&engine.Pin()->sealed());
  for (size_t i = 0; i < futures.size(); ++i) {
    const CostAnswer answer = futures[i].get();
    EXPECT_EQ(answer.cost, eval.Cost(configs[i]));
    EXPECT_EQ(answer.generation, 1u);
  }
  engine.StopDispatcher();
  EXPECT_EQ(engine.Pending(), 0u);
}

TEST_F(ServingEngineTest, DestructorDrainsUnpumpedSubmissions) {
  WorkloadCacheResult built;
  auto builder = MakeBuilder(&built);
  std::future<CostAnswer> orphan;
  double expected = 0;
  {
    ServingEngine engine(builder.get(), &queries(), std::move(built));
    WorkloadCostEvaluator eval(&engine.Pin()->sealed());
    expected = eval.Cost(IndexConfig{});
    auto submitted = engine.SubmitCost(IndexConfig{});
    ASSERT_TRUE(submitted.ok());
    orphan = std::move(submitted.value());
    // No dispatcher, no pump: the destructor must answer it.
  }
  EXPECT_EQ(orphan.get().cost, expected);
}

TEST_F(ServingEngineTest, StaleNamesTracksDriftAndResealClearsIt) {
  WorkloadCacheResult built;
  auto builder = MakeBuilder(&built);
  ServingEngine engine(builder.get(), &queries(), std::move(built));

  EXPECT_TRUE(engine.StaleNames().empty());
  auto first = engine.CheckAndReseal();
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(*first);
  EXPECT_EQ(engine.CurrentGenerationId(), 1u);

  std::vector<std::string> stale;
  engine.WithWorld([&] { stale = Drift(/*seed=*/79); });
  EXPECT_EQ(engine.StaleNames(), stale);

  auto resealed = engine.CheckAndReseal();
  ASSERT_TRUE(resealed.ok()) << resealed.status().ToString();
  EXPECT_TRUE(*resealed);
  EXPECT_EQ(engine.CurrentGenerationId(), 2u);
  EXPECT_TRUE(engine.StaleNames().empty());
  EXPECT_TRUE(engine.Health().last_error.ok());
}

TEST_F(ServingEngineTest, StaleNamesCoversAResultShorterThanTheWorkload) {
  // A result built for all but the last query, or for the workload
  // plus its first query again, is not parallel to the engine's queries
  // (a shorter or longer snapshot's mapped result is the same case):
  // every query reads as stale, a reseal cannot repair it (regression:
  // the stamp diff read past the end of the result's stamps), and every
  // pricing request fails instead of summing caches that do not belong
  // to the workload's queries (regression: Cost summed 5 of 6).
  const std::vector<Query>& all = queries();
  std::vector<Query> longer = all;
  longer.push_back(all.front());
  longer.back().name += "_extra";
  const std::vector<std::vector<Query>> workloads = {
      std::vector<Query>(all.begin(), all.end() - 1), longer};
  std::vector<std::string> every;
  for (const Query& q : all) every.push_back(q.name);
  WorkloadCacheBuilder builder(&catalog(), &set_, &stats_);
  for (const std::vector<Query>& built_for : workloads) {
    SCOPED_TRACE("result built for " + std::to_string(built_for.size()) +
                 " of " + std::to_string(all.size()) + " queries");
    auto built = builder.BuildAll(built_for);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    ServingEngine engine(&builder, &all, std::move(*built));

    EXPECT_EQ(engine.StaleNames(), every);
    auto resealed = engine.CheckAndReseal();
    ASSERT_FALSE(resealed.ok());
    EXPECT_EQ(resealed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(engine.CurrentGenerationId(), 1u);

    const std::string sizes = std::to_string(built_for.size()) +
                              " caches, " +
                              std::to_string(built_for.size()) + " stamps";
    const std::string count = std::to_string(all.size()) + " queries";
    auto expect_rejected = [&](const Status& status) {
      EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
          << status.ToString();
      EXPECT_NE(status.message().find(sizes), std::string::npos)
          << status.ToString();
      EXPECT_NE(status.message().find(count), std::string::npos)
          << status.ToString();
    };
    const IndexConfig config = {set_.candidate_ids.front()};
    const CostAnswer answer = engine.Cost(config);
    expect_rejected(answer.status);
    EXPECT_EQ(answer.generation, 0u);
    const std::vector<CostAnswer> batch = engine.BatchCost({config, {}});
    ASSERT_EQ(batch.size(), 2u);
    for (const CostAnswer& a : batch) expect_rejected(a.status);
    auto submitted = engine.SubmitCost(config);
    ASSERT_FALSE(submitted.ok());
    expect_rejected(submitted.status());
    EXPECT_EQ(engine.Pending(), 0u);
    expect_rejected(engine.Health().last_error);
  }
}

TEST_F(ServingEngineTest, DriftWatcherPublishesInBackground) {
  WorkloadCacheResult built;
  auto builder = MakeBuilder(&built);
  ServingEngine engine(builder.get(), &queries(), std::move(built));
  engine.StartDriftWatcher(std::chrono::milliseconds(2));

  engine.WithWorld([&] { Drift(/*seed=*/80); });

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (engine.CurrentGenerationId() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  engine.StopDriftWatcher();
  ASSERT_GE(engine.CurrentGenerationId(), 2u);
  EXPECT_TRUE(engine.Health().last_error.ok())
      << engine.Health().last_error.ToString();
  EXPECT_TRUE(engine.StaleNames().empty());

  // The watcher-published generation is a cold rebuild's bits.
  WorkloadCacheBuilder cold(&catalog(), &set_, &stats_,
                            WorkloadCacheOptions{});
  auto cold_built = cold.BuildAll(queries());
  ASSERT_TRUE(cold_built.ok()) << cold_built.status().ToString();
  WorkloadCostEvaluator cold_eval(&cold_built->sealed);
  Rng rng(14);
  for (int i = 0; i < 6; ++i) {
    const IndexConfig config = RandomSubsetConfig(set_, &rng, 0.3);
    EXPECT_EQ(engine.Cost(config).cost, cold_eval.Cost(config));
  }
}

// The concurrency stress case (the TSan job's main subject): readers
// hammer Cost / BatchCost / SubmitCost while a maintenance thread
// drifts the world and publishes reseals. Every published generation
// is retained; after the join, every recorded (config, cost,
// generation) triple must satisfy cost == that generation's evaluator
// cost, bit for bit, and the final generation must equal a cold
// rebuild under the final world.
TEST_F(ServingEngineTest, ConcurrentResealServesOnlyPublishedGenerations) {
  WorkloadCacheResult built;
  auto builder = MakeBuilder(&built);
  ServingOptions options;
  options.pool = builder->pool();
  ServingEngine engine(builder.get(), &queries(), std::move(built), options);
  engine.StartDispatcher();

  Rng rng(15);
  std::vector<IndexConfig> configs;
  for (int i = 0; i < 12; ++i) {
    configs.push_back(RandomSubsetConfig(set_, &rng, 0.3));
  }

  // Every generation the engine ever publishes, id -> generation.
  // Maintenance is the only publisher and records right after each
  // publish, so the map is complete by the time readers are verified.
  std::map<uint64_t, std::shared_ptr<const ServingGeneration>> published;
  published[1] = engine.Pin();

  struct Observation {
    size_t config_idx;
    double cost;
    uint64_t generation;
  };

  constexpr int kReaders = 4;
  constexpr int kReaderIters = 60;
  constexpr int kResealRounds = 5;
  std::atomic<bool> stop{false};
  std::vector<std::vector<Observation>> observed(kReaders);

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng thread_rng(100 + static_cast<uint64_t>(r));
      for (int it = 0; it < kReaderIters && !stop.load(); ++it) {
        const size_t idx = thread_rng.Next() % configs.size();
        switch (it % 3) {
          case 0: {
            const CostAnswer answer = engine.Cost(configs[idx]);
            observed[r].push_back({idx, answer.cost, answer.generation});
            break;
          }
          case 1: {
            const size_t idx2 = thread_rng.Next() % configs.size();
            const std::vector<CostAnswer> answers =
                engine.BatchCost({configs[idx], configs[idx2]});
            // A batch never splits across generations.
            ASSERT_EQ(answers[0].generation, answers[1].generation);
            observed[r].push_back(
                {idx, answers[0].cost, answers[0].generation});
            observed[r].push_back(
                {idx2, answers[1].cost, answers[1].generation});
            break;
          }
          case 2: {
            auto submitted = engine.SubmitCost(configs[idx]);
            if (!submitted.ok()) {
              // Admission control under load is allowed; the status
              // must be the retryable shed, nothing else.
              ASSERT_EQ(submitted.status().code(),
                        StatusCode::kUnavailable);
              break;
            }
            const CostAnswer answer = submitted.value().get();
            observed[r].push_back({idx, answer.cost, answer.generation});
            break;
          }
        }
      }
    });
  }

  std::thread maintenance([&] {
    for (int round = 0; round < kResealRounds; ++round) {
      engine.WithWorld([&] {
        Drift(/*seed=*/200 + static_cast<uint64_t>(round),
              /*add_candidates=*/round % 2);
      });
      auto resealed = engine.CheckAndReseal();
      ASSERT_TRUE(resealed.ok()) << resealed.status().ToString();
      ASSERT_TRUE(*resealed);
      published[engine.CurrentGenerationId()] = engine.Pin();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    stop.store(true);
  });

  maintenance.join();
  for (std::thread& reader : readers) reader.join();
  engine.StopDispatcher();

  // Bit-identity audit: every answer ever handed out is exactly what
  // the generation it names computes.
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

  // Final generation == cold rebuild under the final world, bitwise.
  EXPECT_EQ(engine.CurrentGenerationId(),
            1u + static_cast<uint64_t>(kResealRounds));
  WorkloadCacheBuilder cold(&catalog(), &set_, &stats_,
                            WorkloadCacheOptions{});
  auto cold_built = cold.BuildAll(queries());
  ASSERT_TRUE(cold_built.ok()) << cold_built.status().ToString();
  WorkloadCostEvaluator cold_eval(&cold_built->sealed);
  for (const IndexConfig& config : configs) {
    EXPECT_EQ(engine.Cost(config).cost, cold_eval.Cost(config));
  }
}

}  // namespace
}  // namespace pinum
