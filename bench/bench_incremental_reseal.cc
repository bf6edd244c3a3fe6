// Incremental reseal vs cold rebuild: after statistics drift for k of N
// queries, RebuildQueries re-pays only the stale queries' optimizer
// calls while a restart without incremental reseal re-pays all N. The
// k-of-N speedup is the point; the harness doubles as the CI guard that
// incremental serving state never diverges — sampled configuration
// costs and a full greedy-advisor run must be bit-identical to a cold
// BuildAll under the drifted world (the bench-side mirror of
// tests/incremental_reseal_test.cc).
//
//   $ ./bench_incremental_reseal [replicas] [--smoke] [--json out.json]
//                                [--min-speedup X] [--seed S]
//
// --smoke shrinks replication to 1x for CI/sanitizer runs but still
// exercises build -> drift -> reseal -> verify end to end, failing
// (exit 1) on any divergence. --min-speedup X additionally fails the
// run when the incremental reseal is not at least X times faster than
// the cold rebuild. The drift is seeded (--seed, default 1) through
// src/workload/drift.h and targets the smallest stale set the workload
// topology allows (k=1 query template before replication).
#include <cstdio>
#include <string>

#include "advisor/greedy_advisor.h"
#include "bench_util.h"
#include "common/stopwatch.h"
#include "workload/cache_manager.h"
#include "workload/drift.h"

namespace pinum {
namespace {

int Run(int replicas, bool smoke, const std::string& json_path,
        double min_speedup, uint64_t seed) {
  auto setup = bench::MakeServingSetup(replicas);
  if (setup == nullptr) return 1;
  const std::vector<Query>& queries = setup->queries;
  CandidateSet& set = setup->world->set;
  const size_t n = queries.size();
  std::printf("# incremental reseal: %zu queries (%dx replication), "
              "%zu candidates, drift seed %llu\n",
              n, replicas, set.candidate_ids.size(),
              static_cast<unsigned long long>(seed));
  const int64_t cold_calls = setup->built.totals.plan_cache_calls +
                             setup->built.totals.access_cost_calls;

  // Seeded drift targeting the smallest stale set the topology allows
  // (one query template; replication multiplies it by R).
  auto drift =
      ApplyDrift(queries, &set, &setup->world->mutable_stats(), 1, seed);
  if (!drift.ok()) {
    std::fprintf(stderr, "%s\n", drift.status().ToString().c_str());
    return 1;
  }
  const size_t k = drift->stale_queries.size();
  if (k == 0 || k >= n) {
    std::fprintf(stderr, "FAIL: drift staled %zu of %zu queries — no "
                 "incremental win to measure\n", k, n);
    return 1;
  }

  // Incremental path: reseal exactly the stale queries.
  WorkloadCacheStats reseal_totals;
  Stopwatch reseal_timer;
  auto resealed = setup->builder->RebuildQueries(
      drift->stale_queries, queries, setup->built, &reseal_totals);
  const double reseal_ms = reseal_timer.ElapsedMillis();
  if (!resealed.ok()) {
    std::fprintf(stderr, "%s\n", resealed.status().ToString().c_str());
    return 1;
  }
  setup->built = std::move(*resealed);
  const int64_t reseal_calls =
      reseal_totals.plan_cache_calls + reseal_totals.access_cost_calls;

  // Cold path: what a drift costs without incremental reseal — a fresh
  // builder re-paying every query's optimizer calls.
  WorkloadCacheBuilder cold_builder(&setup->world->catalog(), &set,
                                    &setup->world->stats());
  Stopwatch cold_timer;
  auto cold = cold_builder.BuildAll(queries);
  const double cold_ms = cold_timer.ElapsedMillis();
  if (!cold.ok()) {
    std::fprintf(stderr, "%s\n", cold.status().ToString().c_str());
    return 1;
  }
  const int64_t cold_rebuild_calls =
      cold->totals.plan_cache_calls + cold->totals.access_cost_calls;

  // Identity guard 1: sampled configurations, bitwise, per query.
  Rng rng(433);
  const int trials = smoke ? 10 : 40;
  for (size_t qi = 0; qi < n; ++qi) {
    for (int t = 0; t < trials; ++t) {
      const IndexConfig config =
          bench::RandomAtomicConfig(queries[qi], set, &rng);
      const double incremental = setup->built.sealed[qi].Cost(config);
      const double from_cold = cold->sealed[qi].Cost(config);
      if (incremental != from_cold) {
        std::fprintf(stderr,
                     "FAIL: incremental cost diverges on query %zu trial %d:"
                     " %.17g vs %.17g (seed %llu)\n",
                     qi, t, incremental, from_cold,
                     static_cast<unsigned long long>(seed));
        return 1;
      }
    }
  }

  // Identity guard 2: the full greedy advisor, field for field.
  AdvisorOptions aopts;
  const AdvisorResult incremental_advice =
      RunGreedyAdvisor(setup->built.sealed, set, aopts);
  const AdvisorResult cold_advice =
      RunGreedyAdvisor(cold->sealed, set, aopts);
  std::string why;
  if (!bench::SameAdvice(incremental_advice, cold_advice, &why)) {
    std::fprintf(stderr,
                 "FAIL: advisor output from incrementally resealed caches"
                 " diverges: %s (seed %llu)\n",
                 why.c_str(), static_cast<unsigned long long>(seed));
    return 1;
  }

  const double speedup = cold_ms / (reseal_ms > 0 ? reseal_ms : 1e-9);
  std::printf("# drift staled %zu of %zu queries (tables:", k, n);
  for (TableId t : drift->drifted_tables) {
    std::printf(" %d", static_cast<int>(t));
  }
  std::printf(")\n");
  std::printf("%-28s %12s %16s\n", "path", "wall-ms", "optimizer-calls");
  std::printf("%-28s %12.1f %16lld\n", "initial build (all N)",
              setup->build_ms, static_cast<long long>(cold_calls));
  std::printf("%-28s %12.1f %16lld\n", "cold rebuild (all N)", cold_ms,
              static_cast<long long>(cold_rebuild_calls));
  std::printf("%-28s %12.1f %16lld   (%.1fx faster than rebuilding)\n",
              "incremental reseal (k)", reseal_ms,
              static_cast<long long>(reseal_calls), speedup);

  if (!json_path.empty()) {
    bench::JsonSummary summary;
    summary.Set("bench", std::string("incremental_reseal"));
    summary.Set("replicas", static_cast<int64_t>(replicas));
    summary.Set("queries", static_cast<int64_t>(n));
    summary.Set("stale_queries", static_cast<int64_t>(k));
    summary.Set("candidates",
                static_cast<int64_t>(set.candidate_ids.size()));
    summary.Set("drift_seed", static_cast<int64_t>(seed));
    summary.Set("cold_rebuild_ms", cold_ms);
    summary.Set("cold_rebuild_calls", cold_rebuild_calls);
    summary.Set("reseal_ms", reseal_ms);
    summary.Set("reseal_calls", reseal_calls);
    summary.Set("reseal_speedup", speedup);
    summary.Set("min_speedup", min_speedup);
    summary.Set("chosen_indexes",
                static_cast<int64_t>(cold_advice.chosen.size()));
    summary.Set("workload_cost_after", cold_advice.workload_cost_after);
    if (!summary.WriteTo(json_path)) return 1;
  }

  const bool met =
      bench::MeetsFloor("incremental reseal speedup", speedup, min_speedup);
  return met ? 0 : 1;
}

}  // namespace
}  // namespace pinum

int main(int argc, char** argv) {
  pinum::bench::BenchFlags flags;
  const auto& spec = pinum::bench::kIncrementalResealFlags;
  if (!pinum::bench::ParseBenchFlags(argc, argv, spec, &flags)) return 2;
  return pinum::Run(flags.replicas, flags.smoke, flags.json_path,
                    flags.floors.at("--min-speedup"), flags.seed);
}
