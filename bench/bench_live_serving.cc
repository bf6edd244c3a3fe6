// Always-on serving vs stop-the-world reseal: when the world drifts,
// a serving layer without generation swaps must stall every request
// for the full reseal (nothing can be priced while the caches are
// being rebuilt in place), while the ServingEngine keeps answering
// from the pinned old generation and publishes the new one with an
// atomic swap. The headline number is the stall shrink: the worst
// request latency observed across a reseal window, stop-the-world over
// concurrent. Throughput parity is NOT the metric — on a single core
// the reseal and the readers share cycles either way — the stall is.
//
//   $ ./bench_live_serving [replicas] [--smoke] [--json out.json]
//                          [--min-speedup X] [--seed S]
//
// --smoke shrinks replication to 1x for CI/sanitizer runs but still
// exercises serve -> drift -> concurrent reseal -> verify end to end,
// failing (exit 1) on any divergence. --min-speedup X additionally
// fails the run when the stall shrink is below X. Like
// bench_incremental_reseal, the harness doubles as a CI guard: every
// post-reseal generation must answer sampled configurations bitwise
// identically to a cold rebuild under the drifted world.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "advisor/greedy_advisor.h"
#include "bench_util.h"
#include "common/stopwatch.h"
#include "serving/serving_engine.h"
#include "workload/cache_manager.h"
#include "workload/drift.h"

namespace pinum {
namespace {

/// Serves `configs` round-robin until `stop`, recording the worst
/// single-request latency and the request count.
struct ServeStats {
  double max_latency_ms = 0;
  int64_t requests = 0;
};

ServeStats ServeUntil(const ServingEngine& engine,
                      const std::vector<IndexConfig>& configs,
                      const std::atomic<bool>& stop) {
  ServeStats stats;
  size_t i = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    Stopwatch request_timer;
    (void)engine.Cost(configs[i % configs.size()]);
    stats.max_latency_ms =
        std::max(stats.max_latency_ms, request_timer.ElapsedMillis());
    ++stats.requests;
    ++i;
  }
  return stats;
}

int Run(int replicas, bool smoke, const std::string& json_path,
        double min_speedup, uint64_t seed) {
  auto setup = bench::MakeServingSetup(replicas);
  if (setup == nullptr) return 1;
  const std::vector<Query>& queries = setup->queries;
  CandidateSet& set = setup->world->set;
  std::printf("# live serving: %zu queries (%dx replication), "
              "%zu candidates, drift seed %llu\n",
              queries.size(), replicas, set.candidate_ids.size(),
              static_cast<unsigned long long>(seed));

  ServingOptions options;
  options.pool = setup->builder->pool();
  ServingEngine engine(setup->builder.get(), &queries,
                       std::move(setup->built), options);

  Rng rng(433);
  std::vector<IndexConfig> configs;
  const int num_configs = smoke ? 8 : 24;
  for (int i = 0; i < num_configs; ++i) {
    configs.push_back(bench::RandomAtomicConfig(
        queries[static_cast<size_t>(i) % queries.size()], set, &rng));
  }

  // ---- Phase A: steady state, no reseals (the latency baseline) ----
  const int warm_iters = smoke ? 50 : 400;
  Stopwatch warm_timer;
  double baseline_max_ms = 0;
  for (int i = 0; i < warm_iters; ++i) {
    Stopwatch request_timer;
    (void)engine.Cost(configs[static_cast<size_t>(i) % configs.size()]);
    baseline_max_ms =
        std::max(baseline_max_ms, request_timer.ElapsedMillis());
  }
  const double warm_ms = warm_timer.ElapsedMillis();
  const double baseline_qps = warm_iters / (warm_ms / 1000.0);

  // ---- Phase B: stop-the-world reseal ----
  // Without generation swaps a reseal rebuilds the served caches in
  // place: no request can be answered while it runs, so the request
  // that arrives as the drift lands waits out the whole rebuild. That
  // serialization is exactly a blocking Reseal on the serving thread.
  auto drift_b = ApplyDrift(queries, &set,
                            &setup->world->mutable_stats(), queries.size(),
                            seed);
  if (!drift_b.ok()) {
    std::fprintf(stderr, "%s\n", drift_b.status().ToString().c_str());
    return 1;
  }
  double stop_world_max_ms = 0;
  {
    Stopwatch stalled_request;
    const Status resealed = engine.Reseal(drift_b->stale_queries);
    if (!resealed.ok()) {
      std::fprintf(stderr, "%s\n", resealed.ToString().c_str());
      return 1;
    }
    (void)engine.Cost(configs[0]);
    stop_world_max_ms = stalled_request.ElapsedMillis();
  }
  if (!bench::ServesColdRebuild(engine, *setup, configs, "stop-the-world")) {
    return 1;
  }

  // ---- Phase C: the same reseal concurrent with serving ----
  auto drift_c = ApplyDrift(queries, &set,
                            &setup->world->mutable_stats(), queries.size(),
                            seed + 1);
  if (!drift_c.ok()) {
    std::fprintf(stderr, "%s\n", drift_c.status().ToString().c_str());
    return 1;
  }
  std::atomic<bool> reseal_done{false};
  Status concurrent_status = Status::OK();
  Stopwatch concurrent_timer;
  std::thread maintenance([&] {
    concurrent_status = engine.Reseal(drift_c->stale_queries);
    reseal_done.store(true, std::memory_order_relaxed);
  });
  const ServeStats live = ServeUntil(engine, configs, reseal_done);
  maintenance.join();
  const double concurrent_reseal_ms = concurrent_timer.ElapsedMillis();
  if (!concurrent_status.ok()) {
    std::fprintf(stderr, "%s\n", concurrent_status.ToString().c_str());
    return 1;
  }
  if (live.requests == 0) {
    std::fprintf(stderr, "FAIL: no requests served during the concurrent"
                 " reseal window\n");
    return 1;
  }
  if (!bench::ServesColdRebuild(engine, *setup, configs, "concurrent")) {
    return 1;
  }

  const double stall_shrink =
      stop_world_max_ms /
      (live.max_latency_ms > 0 ? live.max_latency_ms : 1e-9);
  const uint64_t generation = engine.CurrentGenerationId();

  std::printf("%-34s %14s %14s\n", "regime", "worst-req-ms", "served-reqs");
  std::printf("%-34s %14.3f %14d\n", "steady state (no reseal)",
              baseline_max_ms, warm_iters);
  std::printf("%-34s %14.1f %14s\n", "stop-the-world reseal",
              stop_world_max_ms, "0 (stalled)");
  std::printf("%-34s %14.3f %14lld   (stall shrunk %.1fx)\n",
              "concurrent reseal (gen swap)", live.max_latency_ms,
              static_cast<long long>(live.requests), stall_shrink);
  std::printf("# reseal wall: %.1f ms concurrent; final generation %llu\n",
              concurrent_reseal_ms,
              static_cast<unsigned long long>(generation));

  if (!json_path.empty()) {
    bench::JsonSummary summary;
    summary.Set("bench", std::string("live_serving"));
    summary.Set("replicas", static_cast<int64_t>(replicas));
    summary.Set("queries", static_cast<int64_t>(queries.size()));
    summary.Set("candidates",
                static_cast<int64_t>(set.candidate_ids.size()));
    summary.Set("drift_seed", static_cast<int64_t>(seed));
    summary.Set("baseline_qps", baseline_qps);
    summary.Set("baseline_max_latency_ms", baseline_max_ms);
    summary.Set("stop_world_stall_ms", stop_world_max_ms);
    summary.Set("concurrent_max_latency_ms", live.max_latency_ms);
    summary.Set("concurrent_requests_served", live.requests);
    summary.Set("concurrent_reseal_ms", concurrent_reseal_ms);
    summary.Set("stall_shrink", stall_shrink);
    summary.Set("min_speedup", min_speedup);
    summary.Set("final_generation", static_cast<int64_t>(generation));
    if (!summary.WriteTo(json_path)) return 1;
  }

  return bench::MeetsFloor("stall shrink", stall_shrink, min_speedup) ? 0 : 1;
}

}  // namespace
}  // namespace pinum

int main(int argc, char** argv) {
  pinum::bench::BenchFlags flags;
  const auto& spec = pinum::bench::kLiveServingFlags;
  if (!pinum::bench::ParseBenchFlags(argc, argv, spec, &flags)) return 2;
  return pinum::Run(flags.replicas, flags.smoke, flags.json_path,
                    flags.floors.at("--min-speedup"), flags.seed);
}
