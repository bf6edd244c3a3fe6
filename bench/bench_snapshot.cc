// Snapshot restart cost: cold workload build (optimizer calls + seal)
// vs re-loading the sealed caches from a snapshot file two ways —
// read-load (read the file into one heap buffer) and mmap-load (map the
// file read-only); both validate once and bind every arena in place —
// the what-if service's restart paths (docs/SNAPSHOT_FORMAT.md). Both
// restored forms must price bit-identically to the freshly built caches
// (sampled configurations per query AND a full greedy-advisor run are
// compared field for field); the load-vs-build and mmap-vs-read
// speedups are the point, and this harness doubles as the CI guard that
// restores never diverge.
//
//   $ ./bench_snapshot [replicas] [--smoke] [--json out.json]
//                      [--min-speedup X] [--min-mmap-speedup X]
//
// --smoke shrinks replication to 1x for CI/sanitizer runs but still
// exercises build -> save -> load -> map -> verify end to end, failing
// (exit 1) on any divergence or snapshot error. --min-speedup X
// additionally fails the run when snapshot-load is not at least X times
// faster than the cold build; --min-mmap-speedup X fails it when
// mmap-load is not at least X times faster than read-load.
#include <cstdio>
#include <string>

#include "advisor/greedy_advisor.h"
#include "bench_util.h"
#include "common/stopwatch.h"
#include "inum/snapshot.h"
#include "workload/cache_manager.h"

namespace pinum {
namespace {

int Run(int replicas, bool smoke, const std::string& json_path,
        double min_speedup, double min_mmap_speedup) {
  // Cold path: what every advisor session pays without persistence
  // (the shared serving preamble times the build).
  auto setup = bench::MakeServingSetup(replicas);
  if (setup == nullptr) return 1;
  CandidateSet& set = setup->world->set;
  const std::vector<Query>& queries = setup->queries;
  WorkloadCacheBuilder& builder = *setup->builder;
  WorkloadCacheResult* built = &setup->built;
  std::printf("# snapshot restart: %zu queries (%dx replication), "
              "%zu candidates\n",
              queries.size(), replicas, set.candidate_ids.size());
  const double build_ms = setup->build_ms;
  const int64_t optimizer_calls =
      built->totals.plan_cache_calls + built->totals.access_cost_calls;

  const std::string path = "bench_snapshot.tmp.snap";
  Stopwatch save_timer;
  Status saved = builder.SaveSnapshot(path, *built, queries);
  const double save_ms = save_timer.ElapsedMillis();
  if (!saved.ok()) {
    std::fprintf(stderr, "%s\n", saved.ToString().c_str());
    return 1;
  }
  int64_t file_bytes = 0;
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    std::fseek(f, 0, SEEK_END);
    file_bytes = std::ftell(f);
    std::fclose(f);
  }

  // Warm path: the restart. Best of a few passes (load is deterministic).
  const int passes = smoke ? 2 : 5;
  double load_ms = 0;
  WorkloadSnapshot snapshot;
  for (int p = 0; p < passes; ++p) {
    Stopwatch load_timer;
    auto loaded = builder.LoadSnapshot(path);
    const double ms = load_timer.ElapsedMillis();
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      std::remove(path.c_str());
      return 1;
    }
    snapshot = std::move(*loaded);
    if (p == 0 || ms < load_ms) load_ms = ms;
  }

  // Mapped path: same file, mapped instead of read. The second and
  // later passes are pure page-cache hits — exactly the always-on
  // restart this path exists for.
  double map_ms = 0;
  WorkloadCacheResult mapped;
  for (int p = 0; p < passes; ++p) {
    Stopwatch map_timer;
    auto m = builder.LoadSnapshotMapped(path);
    const double ms = map_timer.ElapsedMillis();
    if (!m.ok()) {
      std::fprintf(stderr, "%s\n", m.status().ToString().c_str());
      std::remove(path.c_str());
      return 1;
    }
    mapped = std::move(*m);
    if (p == 0 || ms < map_ms) map_ms = ms;
  }
  // Unlinked before any cost is asked: the mapping (not the directory
  // entry) is what keeps the arenas alive.
  std::remove(path.c_str());

  // Identity guard 1: sampled configurations per query, bitwise.
  Rng rng(331);
  const int trials = smoke ? 10 : 40;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    for (int t = 0; t < trials; ++t) {
      const IndexConfig config =
          bench::RandomAtomicConfig(queries[qi], set, &rng);
      const double fresh = built->sealed[qi].Cost(config);
      const double restored = snapshot.sealed[qi].Cost(config);
      const double mmapped = mapped.sealed[qi].Cost(config);
      // Bitwise identity; +inf == +inf, so the sentinel needs no case.
      if (fresh != restored || fresh != mmapped) {
        std::fprintf(stderr,
                     "FAIL: restored cost diverges on query %zu trial %d: "
                     "%.17g vs %.17g (read) vs %.17g (mmap)\n",
                     qi, t, fresh, restored, mmapped);
        return 1;
      }
    }
  }

  // Identity guard 2: the full greedy advisor, field for field.
  AdvisorOptions aopts;
  const AdvisorResult fresh = RunGreedyAdvisor(built->sealed, set, aopts);
  const AdvisorResult restored =
      RunGreedyAdvisor(snapshot.sealed, set, aopts);
  std::string why;
  if (!bench::SameAdvice(fresh, restored, &why)) {
    std::fprintf(stderr,
                 "FAIL: advisor output from restored caches diverges: %s\n",
                 why.c_str());
    return 1;
  }
  const AdvisorResult from_mapped =
      RunGreedyAdvisor(mapped.sealed, set, aopts);
  if (!bench::SameAdvice(fresh, from_mapped, &why)) {
    std::fprintf(stderr,
                 "FAIL: advisor output from mapped caches diverges: %s\n",
                 why.c_str());
    return 1;
  }

  const double speedup = build_ms / (load_ms > 0 ? load_ms : 1e-9);
  const double mmap_speedup = load_ms / (map_ms > 0 ? map_ms : 1e-9);
  std::printf("# snapshot file: %lld bytes for %zu sealed caches "
              "(%zu plans, %zu terms, %zu postings)\n",
              static_cast<long long>(file_bytes), snapshot.sealed.size(),
              built->totals.plans_cached - built->totals.plans_pruned,
              built->totals.terms, built->totals.postings);
  std::printf("%-28s %12s %16s\n", "path", "wall-ms", "optimizer-calls");
  std::printf("%-28s %12.1f %16lld\n", "cold build (PINUM + seal)",
              build_ms, static_cast<long long>(optimizer_calls));
  std::printf("%-28s %12.1f %16d\n", "snapshot save", save_ms, 0);
  std::printf("%-28s %12.2f %16d   (%.0fx faster than building)\n",
              "snapshot load (read)", load_ms, 0, speedup);
  std::printf("%-28s %12.2f %16d   (%.2fx faster than reading)\n",
              "snapshot load (mmap)", map_ms, 0, mmap_speedup);

  if (!json_path.empty()) {
    bench::JsonSummary summary;
    summary.Set("bench", std::string("snapshot"));
    summary.Set("replicas", static_cast<int64_t>(replicas));
    summary.Set("queries", static_cast<int64_t>(queries.size()));
    summary.Set("candidates", static_cast<int64_t>(set.candidate_ids.size()));
    summary.Set("snapshot_bytes", file_bytes);
    summary.Set("cold_build_ms", build_ms);
    summary.Set("optimizer_calls", optimizer_calls);
    summary.Set("snapshot_save_ms", save_ms);
    summary.Set("snapshot_load_ms", load_ms);
    summary.Set("snapshot_mmap_ms", map_ms);
    summary.Set("load_speedup", speedup);
    summary.Set("mmap_speedup", mmap_speedup);
    summary.Set("min_speedup", min_speedup);
    summary.Set("min_mmap_speedup", min_mmap_speedup);
    summary.Set("chosen_indexes", static_cast<int64_t>(restored.chosen.size()));
    summary.Set("workload_cost_after", restored.workload_cost_after);
    if (!summary.WriteTo(json_path)) return 1;
  }

  const bool met =
      bench::MeetsFloor("snapshot load speedup", speedup, min_speedup) &&
      bench::MeetsFloor("mmap-vs-read speedup", mmap_speedup,
                        min_mmap_speedup);
  return met ? 0 : 1;
}

}  // namespace
}  // namespace pinum

int main(int argc, char** argv) {
  pinum::bench::BenchFlags flags;
  const auto& spec = pinum::bench::kSnapshotFlags;
  if (!pinum::bench::ParseBenchFlags(argc, argv, spec, &flags)) return 2;
  return pinum::Run(flags.replicas, flags.smoke, flags.json_path,
                    flags.floors.at("--min-speedup"),
                    flags.floors.at("--min-mmap-speedup"));
}
