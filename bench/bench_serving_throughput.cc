// Serving throughput of the what-if arithmetic: naive InumCache::Cost
// (per-slot std::map probes over every cached plan) vs the sealed
// serving form (dominated plans pruned, shared terms, flat per-index
// vectors, internal-cost early exit), single-threaded and batched on a
// ThreadPool. This path answers every advisor evaluation — O(candidates
// x iterations x queries) calls — so its throughput is the system's
// serving throughput.
//
//   $ ./bench_serving_throughput [replicas] [--smoke] [--json out.json]
//
// --smoke shrinks the workload and trial counts for CI: it still
// exercises build -> seal -> serve end to end and fails (exit 1) if the
// sealed path disagrees with the naive path or fails to beat it.
// --json additionally writes the machine-readable summary CI records as
// an artifact (the BENCH_*.json perf trajectory).
#include <cstdio>
#include <string>

#include "advisor/greedy_advisor.h"
#include "bench_util.h"
#include "common/stopwatch.h"
#include "inum/sealed_cache.h"
#include "workload/cache_manager.h"

namespace pinum {
namespace {

int Run(int replicas, bool smoke, const std::string& json_path) {
  auto setup = bench::MakeServingSetup(replicas);
  if (setup == nullptr) return 1;
  CandidateSet& set = setup->world->set;
  const std::vector<Query>& queries = setup->queries;
  WorkloadCacheBuilder& builder = *setup->builder;
  WorkloadCacheResult* built = &setup->built;
  std::printf("# serving throughput: %zu queries (%dx replication), "
              "%zu candidates\n",
              queries.size(), replicas, set.candidate_ids.size());
  const double pruned_pct =
      built->totals.plans_cached == 0
          ? 0.0
          : 100.0 * static_cast<double>(built->totals.plans_pruned) /
                static_cast<double>(built->totals.plans_cached);
  std::printf("# build %.1f ms (seal %.1f ms); %zu plans cached, "
              "%zu pruned as dominated (%.1f%%)\n",
              built->totals.wall_ms, built->totals.seal_ms,
              built->totals.plans_cached, built->totals.plans_pruned,
              pruned_pct);
  if (built->totals.plans_pruned == 0) {
    std::printf("#   (0 pruned = the builders' Section V-D export "
                "dominance already left the cache\n"
                "#   irredundant; sealing re-checks exactly and catches "
                "merged/hand-built caches)\n");
  }

  // The advisor's configuration mix: random atomic configurations plus
  // growing multi-index sets, fixed seed for comparability.
  Rng rng(2026);
  std::vector<IndexConfig> configs;
  const int num_configs = smoke ? 64 : 512;
  for (int i = 0; i < num_configs; ++i) {
    if (i % 2 == 0) {
      configs.push_back(bench::RandomAtomicConfig(
          queries[static_cast<size_t>(i) % queries.size()], set, &rng));
    } else {
      IndexConfig config;
      const size_t size = 1 + rng.Index(16);
      for (size_t k = 0; k < size; ++k) {
        config.push_back(
            set.candidate_ids[rng.Index(set.candidate_ids.size())]);
      }
      configs.push_back(std::move(config));
    }
  }

  // The naive baseline: every query's build-time form, rebuilt on
  // request (BuildAll keeps only the sealed form).
  std::vector<InumCache> caches;
  for (const Query& q : queries) {
    auto cache = builder.BuildQueryCache(q);
    if (!cache.ok()) {
      std::fprintf(stderr, "%s\n", cache.status().ToString().c_str());
      return 1;
    }
    caches.push_back(std::move(*cache));
  }

  // Sanity: the sealed form must price every benchmark configuration
  // bit-identically to the naive form (the property suite covers this
  // exhaustively; re-checking here keeps the bench honest).
  for (const IndexConfig& config : configs) {
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      if (built->sealed[qi].Cost(config) != caches[qi].Cost(config)) {
        std::fprintf(stderr, "FAIL: sealed cost diverges on query %zu\n", qi);
        return 1;
      }
    }
  }

  const int passes = smoke ? 3 : 20;
  const int64_t calls_per_pass =
      static_cast<int64_t>(configs.size()) *
      static_cast<int64_t>(queries.size());

  // Checksum accumulator defeating dead-code elimination.
  double sink = 0;

  auto measure = [&](auto&& one_pass) {
    Stopwatch timer;
    for (int p = 0; p < passes; ++p) sink += one_pass();
    const double secs = timer.ElapsedMillis() / 1000.0;
    return static_cast<double>(calls_per_pass) * passes /
           (secs > 0 ? secs : 1e-9);
  };

  const double naive_rate = measure([&] {
    double total = 0;
    for (const IndexConfig& config : configs) {
      for (const InumCache& cache : caches) {
        total += cache.Cost(config);
      }
    }
    return total;
  });

  const double sealed_rate = measure([&] {
    double total = 0;
    for (const IndexConfig& config : configs) {
      for (const SealedCache& cache : built->sealed) {
        total += cache.Cost(config);
      }
    }
    return total;
  });

  const WorkloadCostEvaluator evaluator(&built->sealed, builder.pool());
  const double batched_rate = measure([&] {
    double total = 0;
    for (double c : evaluator.BatchCost(configs)) total += c;
    return total;
  });

  std::printf("%-26s %14s %10s\n", "path", "cost-calls/s", "speedup");
  std::printf("%-26s %14.0f %9.2fx\n", "naive (map scans)", naive_rate, 1.0);
  std::printf("%-26s %14.0f %9.2fx\n", "sealed (flat vectors)",
              sealed_rate, sealed_rate / naive_rate);
  std::printf("%-26s %14.0f %9.2fx\n", "sealed + thread pool",
              batched_rate, batched_rate / naive_rate);
  std::printf("# plans pruned: %.1f%%; checksum %.3e\n", pruned_pct, sink);

  if (!json_path.empty()) {
    bench::JsonSummary summary;
    summary.Set("bench", std::string("serving_throughput"));
    summary.Set("replicas", static_cast<int64_t>(replicas));
    summary.Set("queries", static_cast<int64_t>(queries.size()));
    summary.Set("candidates",
                static_cast<int64_t>(set.candidate_ids.size()));
    summary.Set("configs", static_cast<int64_t>(configs.size()));
    summary.Set("plans_cached",
                static_cast<int64_t>(built->totals.plans_cached));
    summary.Set("plans_pruned_pct", pruned_pct);
    summary.Set("build_ms", built->totals.wall_ms);
    summary.Set("seal_ms", built->totals.seal_ms);
    summary.Set("naive_calls_per_s", naive_rate);
    summary.Set("sealed_calls_per_s", sealed_rate);
    summary.Set("batched_calls_per_s", batched_rate);
    summary.Set("sealed_speedup", sealed_rate / naive_rate);
    summary.Set("batched_speedup", batched_rate / naive_rate);
    if (!summary.WriteTo(json_path)) return 1;
  }

  if (sealed_rate <= naive_rate) {
    std::fprintf(stderr,
                 "FAIL: sealed serving is not faster than the naive scan\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace pinum

int main(int argc, char** argv) {
  pinum::bench::BenchFlags flags;
  const auto& spec = pinum::bench::kServingThroughputFlags;
  if (!pinum::bench::ParseBenchFlags(argc, argv, spec, &flags)) return 2;
  return pinum::Run(flags.replicas, flags.smoke, flags.json_path);
}
