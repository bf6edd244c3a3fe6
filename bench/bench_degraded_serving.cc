// Degraded-mode serving: when every reseal fails (injected via the
// workload.build_query failpoint) the engine must keep answering from
// the last good generation at close to healthy throughput — degraded
// means "maintenance is behind", never "serving is down". The harness
// measures steady-state throughput healthy, then throughput while the
// drift watcher is retrying a persistently failing reseal with
// backoff (health kDegraded), then verifies automatic recovery once
// the fault clears. It doubles as a correctness guard: every degraded
// answer must be bitwise what the last good generation computes, the
// recovered generation must equal a cold rebuild under the drifted
// world, and the health/stat transitions must actually happen.
//
//   $ ./bench_degraded_serving [replicas] [--smoke] [--json out.json]
//                              [--min-ratio X] [--seed S]
//
// --min-ratio X fails the run (exit 1) when degraded throughput falls
// below X * healthy throughput — the floor CI enforces so a future
// regression cannot quietly make degraded mode unserving.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "advisor/greedy_advisor.h"
#include "bench_util.h"
#include "common/failpoint.h"
#include "common/stopwatch.h"
#include "serving/serving_engine.h"
#include "workload/cache_manager.h"
#include "workload/drift.h"

namespace pinum {
namespace {

struct ServePhase {
  double qps = 0;
  double max_latency_ms = 0;
};

/// Serves `iters` requests round-robin; when `expect` is non-null,
/// every answer is checked bitwise against it (exit-on-divergence via
/// the returned ok flag).
bool ServePhaseRun(const ServingEngine& engine,
                   const std::vector<IndexConfig>& configs, int iters,
                   const WorkloadCostEvaluator* expect, const char* where,
                   ServePhase* out) {
  Stopwatch phase_timer;
  for (int i = 0; i < iters; ++i) {
    const IndexConfig& config = configs[static_cast<size_t>(i) %
                                        configs.size()];
    Stopwatch request_timer;
    const CostAnswer answer = engine.Cost(config);
    out->max_latency_ms =
        std::max(out->max_latency_ms, request_timer.ElapsedMillis());
    if (!answer.status.ok()) {
      std::fprintf(stderr, "FAIL (%s): serving answered %s\n", where,
                   answer.status.ToString().c_str());
      return false;
    }
    if (expect != nullptr && answer.cost != expect->Cost(config)) {
      std::fprintf(stderr,
                   "FAIL (%s): answer diverges from the last good "
                   "generation on request %d\n",
                   where, i);
      return false;
    }
  }
  out->qps = iters / (phase_timer.ElapsedMillis() / 1000.0);
  return true;
}

/// Polls until `pred` holds or `budget` elapses.
template <typename Pred>
bool WaitFor(Pred pred, std::chrono::seconds budget) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

int Run(int replicas, bool smoke, const std::string& json_path,
        double min_ratio, uint64_t seed) {
  auto setup = bench::MakeServingSetup(replicas);
  if (setup == nullptr) return 1;
  const std::vector<Query>& queries = setup->queries;
  CandidateSet& set = setup->world->set;
  std::printf("# degraded serving: %zu queries (%dx replication), "
              "%zu candidates, fault seed %llu\n",
              queries.size(), replicas, set.candidate_ids.size(),
              static_cast<unsigned long long>(seed));

  ServingOptions options;
  options.pool = setup->builder->pool();
  options.maintenance.max_retries = 2;
  options.maintenance.initial_backoff = std::chrono::milliseconds(1);
  options.maintenance.jitter_seed = seed;
  ServingEngine engine(setup->builder.get(), &queries,
                       std::move(setup->built), options);

  Rng rng(521 + seed);
  std::vector<IndexConfig> configs;
  const int num_configs = smoke ? 8 : 24;
  for (int i = 0; i < num_configs; ++i) {
    configs.push_back(bench::RandomAtomicConfig(
        queries[static_cast<size_t>(i) % queries.size()], set, &rng));
  }
  const int iters = smoke ? 200 : 2000;

  // ---- Phase A: healthy steady state ----
  ServePhase healthy;
  if (!ServePhaseRun(engine, configs, iters, nullptr, "healthy", &healthy)) {
    return 1;
  }

  // ---- Phase B: drift lands while every reseal fails ----
  // The watcher retries with backoff, health degrades after
  // max_retries consecutive failures, and serving keeps answering the
  // last good generation's exact bits throughout.
  FailPoint::Config fault;
  fault.status = Status::Unavailable("injected: stats store offline");
  FailPoint::Arm("workload.build_query", fault);
  engine.StartDriftWatcher(std::chrono::milliseconds(1));
  {
    // The watcher is already polling: every world mutation must go
    // through WithWorld to serialize against its stamp reads.
    Status drift_status;
    engine.WithWorld([&] {
      auto drift = ApplyDrift(queries, &set,
                              &setup->world->mutable_stats(),
                              queries.size(), seed);
      drift_status = drift.ok() ? Status::OK() : drift.status();
    });
    if (!drift_status.ok()) {
      std::fprintf(stderr, "%s\n", drift_status.ToString().c_str());
      return 1;
    }
  }
  if (!WaitFor([&] {
        return engine.Health().state == HealthState::kDegraded;
      }, std::chrono::seconds(30))) {
    std::fprintf(stderr, "FAIL: engine never reported kDegraded\n");
    return 1;
  }
  const auto last_good = engine.Pin();
  WorkloadCostEvaluator last_good_eval(&last_good->sealed());
  ServePhase degraded;
  if (!ServePhaseRun(engine, configs, iters, &last_good_eval, "degraded",
                     &degraded)) {
    return 1;
  }
  if (engine.CurrentGenerationId() != last_good->id) {
    std::fprintf(stderr, "FAIL: a failing reseal published generation"
                 " %llu\n",
                 static_cast<unsigned long long>(
                     engine.CurrentGenerationId()));
    return 1;
  }

  // ---- Phase C: fault clears, the watcher recovers on its own ----
  FailPoint::DisarmAll();
  if (!WaitFor([&] {
        return engine.Health().state == HealthState::kHealthy &&
               engine.CurrentGenerationId() > last_good->id;
      }, std::chrono::seconds(30))) {
    std::fprintf(stderr, "FAIL: engine never recovered to kHealthy\n");
    return 1;
  }
  engine.StopDriftWatcher();
  ServePhase recovered;
  if (!ServePhaseRun(engine, configs, iters, nullptr, "recovered",
                     &recovered)) {
    return 1;
  }

  // Recovered generation == cold rebuild under the drifted world.
  if (!bench::ServesColdRebuild(engine, *setup, configs, "recovered")) {
    return 1;
  }

  const ServingStats stats = engine.Stats();
  if (stats.reseal_failures < 2 || stats.recoveries < 1) {
    std::fprintf(stderr,
                 "FAIL: expected >=2 reseal failures and >=1 recovery, "
                 "got %llu / %llu\n",
                 static_cast<unsigned long long>(stats.reseal_failures),
                 static_cast<unsigned long long>(stats.recoveries));
    return 1;
  }

  const double degraded_ratio =
      healthy.qps > 0 ? degraded.qps / healthy.qps : 0;
  std::printf("%-28s %12s %14s\n", "phase", "qps", "worst-req-ms");
  std::printf("%-28s %12.0f %14.3f\n", "healthy", healthy.qps,
              healthy.max_latency_ms);
  std::printf("%-28s %12.0f %14.3f   (%.2fx of healthy)\n",
              "degraded (reseals failing)", degraded.qps,
              degraded.max_latency_ms, degraded_ratio);
  std::printf("%-28s %12.0f %14.3f\n", "recovered", recovered.qps,
              recovered.max_latency_ms);
  std::printf("# reseal attempts %llu, failures %llu, recoveries %llu; "
              "final generation %llu\n",
              static_cast<unsigned long long>(stats.reseal_attempts),
              static_cast<unsigned long long>(stats.reseal_failures),
              static_cast<unsigned long long>(stats.recoveries),
              static_cast<unsigned long long>(
                  engine.CurrentGenerationId()));

  if (!json_path.empty()) {
    bench::JsonSummary summary;
    summary.Set("bench", std::string("degraded_serving"));
    summary.Set("replicas", static_cast<int64_t>(replicas));
    summary.Set("queries", static_cast<int64_t>(queries.size()));
    summary.Set("fault_seed", static_cast<int64_t>(seed));
    summary.Set("healthy_qps", healthy.qps);
    summary.Set("healthy_max_latency_ms", healthy.max_latency_ms);
    summary.Set("degraded_qps", degraded.qps);
    summary.Set("degraded_max_latency_ms", degraded.max_latency_ms);
    summary.Set("degraded_ratio", degraded_ratio);
    summary.Set("recovered_qps", recovered.qps);
    summary.Set("reseal_attempts",
                static_cast<int64_t>(stats.reseal_attempts));
    summary.Set("reseal_failures",
                static_cast<int64_t>(stats.reseal_failures));
    summary.Set("recoveries", static_cast<int64_t>(stats.recoveries));
    summary.Set("min_ratio", min_ratio);
    summary.Set("final_generation",
                static_cast<int64_t>(engine.CurrentGenerationId()));
    if (!summary.WriteTo(json_path)) return 1;
  }

  const bool met = bench::MeetsFloor("degraded/healthy throughput",
                                     degraded_ratio, min_ratio);
  return met ? 0 : 1;
}

}  // namespace
}  // namespace pinum

int main(int argc, char** argv) {
  pinum::bench::BenchFlags flags;
  const auto& spec = pinum::bench::kDegradedServingFlags;
  if (!pinum::bench::ParseBenchFlags(argc, argv, spec, &flags)) return 2;
  return pinum::Run(flags.replicas, flags.smoke, flags.json_path,
                    flags.floors.at("--min-ratio"), flags.seed);
}
