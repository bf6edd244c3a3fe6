// Search-advisor quality at equal wall-clock: on each workload family,
// time the greedy baseline, then give RunSearchAdvisor exactly that
// much wall-clock (time_budget_ms = greedy's measured wall) and compare
// configuration quality. Because restart 0 *is* greedy and always
// completes, quality_ratio = greedy_cost_after / search_cost_after is
// >= 1.0 by construction; the interesting output is how far above 1.0
// the randomized restarts and swap moves get within greedy's own
// budget, and whether the full (untimed) search finds more. A repeated
// untimed run double-checks the determinism contract end to end.
//
//   $ ./bench_advisor_search [--smoke] [--json out.json]
//                            [--min-quality-ratio X]
//
// --smoke shrinks the workloads for CI/sanitizer runs; it still
// exercises build -> seal -> greedy -> search end to end and fails
// (exit 1) on a determinism divergence or a quality ratio below the
// floor. --min-quality-ratio X fails the run when any family's
// equal-wall-clock ratio drops below X (CI pins 1.0: search must never
// lose to greedy).
#include <cstdio>
#include <string>
#include <vector>

#include "advisor/search_advisor.h"
#include "bench_util.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "workload/cache_manager.h"
#include "workload/workload_family.h"

namespace pinum {
namespace {

/// Everything under the determinism contract (wall_ms excluded).
bool SameSearch(const SearchResult& a, const SearchResult& b,
                std::string* why) {
  auto fail = [&](const char* reason) {
    *why = reason;
    return false;
  };
  if (a.chosen != b.chosen) return fail("chosen index sets differ");
  if (a.workload_cost_after != b.workload_cost_after) {
    return fail("final costs differ");
  }
  if (a.greedy_cost_after != b.greedy_cost_after) {
    return fail("greedy baselines differ");
  }
  if (a.evaluations != b.evaluations ||
      a.full_evaluations != b.full_evaluations) {
    return fail("evaluation counters differ");
  }
  if (a.restarts.size() != b.restarts.size() ||
      a.swaps.size() != b.swaps.size() ||
      a.swaps_accepted != b.swaps_accepted) {
    return fail("trajectories differ");
  }
  for (size_t i = 0; i < a.restarts.size(); ++i) {
    if (a.restarts[i].cost_after != b.restarts[i].cost_after ||
        a.restarts[i].prefix_size != b.restarts[i].prefix_size) {
      return fail("restart trajectories differ");
    }
  }
  return true;
}

struct FamilyRow {
  std::string family;
  double greedy_ms = 0;
  double greedy_cost = 0;
  double equal_cost = 0;       // search at time_budget_ms = greedy_ms
  double equal_ratio = 1.0;    // greedy_cost / equal_cost
  double full_cost = 0;        // untimed search
  double full_ratio = 1.0;
  double full_ms = 0;
  int64_t swaps_accepted = 0;
  int64_t pruned = 0;
  int64_t restarts_completed = 0;
};

int Run(bool smoke, const std::string& json_path, double min_quality) {
  const std::vector<std::string> families = {"chain", "fact_pair"};
  ThreadPool pool;
  std::vector<FamilyRow> rows;

  for (const std::string& family : families) {
    WorkloadFamilyOptions wopts;
    if (smoke) wopts.num_queries = 6;
    auto inst = MakeWorkloadInstance(family, wopts);
    if (!inst.ok()) {
      std::fprintf(stderr, "%s\n", inst.status().ToString().c_str());
      return 1;
    }
    WorkloadCacheOptions copts;
    WorkloadCacheBuilder builder(&(*inst)->catalog(), &(*inst)->set,
                                 &(*inst)->stats(), copts);
    auto built = builder.BuildAll((*inst)->queries);
    if (!built.ok()) {
      std::fprintf(stderr, "%s\n", built.status().ToString().c_str());
      return 1;
    }
    const WorkloadCostEvaluator evaluator(&built->sealed, &pool);

    FamilyRow row;
    row.family = family;

    // Greedy baseline wall-clock: best of a few passes, like the scale
    // bench — the search's equal-wall-clock budget should not inherit
    // one noisy outlier run.
    AdvisorOptions aopts;
    AdvisorResult greedy;
    row.greedy_ms = 1e300;
    for (int p = 0; p < (smoke ? 2 : 5); ++p) {
      Stopwatch timer;
      greedy = RunGreedyAdvisor(evaluator, (*inst)->set, aopts);
      row.greedy_ms = std::min(row.greedy_ms, timer.ElapsedMillis());
    }
    row.greedy_cost = greedy.workload_cost_after;

    // Equal wall-clock: the search gets exactly what greedy spent.
    // Restart 0 always completes, so the ratio is >= 1.0 even when the
    // deadline fires immediately.
    SearchOptions equal_opts;
    equal_opts.base = aopts;
    equal_opts.time_budget_ms = row.greedy_ms;
    const SearchResult equal =
        RunSearchAdvisor(evaluator, (*inst)->set, equal_opts);
    row.equal_cost = equal.workload_cost_after;
    row.equal_ratio =
        row.equal_cost > 0 ? row.greedy_cost / row.equal_cost : 1.0;

    // Full anytime horizon: untimed, and therefore deterministic — run
    // twice and require identical bits.
    SearchOptions full_opts;
    full_opts.base = aopts;
    Stopwatch full_timer;
    const SearchResult full =
        RunSearchAdvisor(evaluator, (*inst)->set, full_opts);
    row.full_ms = full_timer.ElapsedMillis();
    const SearchResult again =
        RunSearchAdvisor(evaluator, (*inst)->set, full_opts);
    std::string why;
    if (!SameSearch(full, again, &why)) {
      std::fprintf(stderr, "FAIL: %s search not deterministic: %s\n",
                   family.c_str(), why.c_str());
      return 1;
    }
    if (full.greedy_cost_after != greedy.workload_cost_after) {
      std::fprintf(stderr,
                   "FAIL: %s restart 0 diverges from RunGreedyAdvisor\n",
                   family.c_str());
      return 1;
    }
    row.full_cost = full.workload_cost_after;
    row.full_ratio =
        row.full_cost > 0 ? row.greedy_cost / row.full_cost : 1.0;
    row.swaps_accepted = full.swaps_accepted;
    row.pruned = full.swap_candidates_pruned;
    row.restarts_completed = full.restarts_completed;
    rows.push_back(row);
  }

  std::printf("# advisor search quality vs greedy at equal wall-clock\n");
  std::printf("%-12s %10s %12s %12s %8s %12s %8s %6s\n", "family",
              "greedy-ms", "greedy-cost", "equal-cost", "ratio",
              "full-cost", "ratio", "swaps");
  double worst_ratio = rows.front().equal_ratio;
  for (const FamilyRow& row : rows) {
    std::printf("%-12s %10.1f %12.6g %12.6g %8.4f %12.6g %8.4f %6lld\n",
                row.family.c_str(), row.greedy_ms, row.greedy_cost,
                row.equal_cost, row.equal_ratio, row.full_cost,
                row.full_ratio, static_cast<long long>(row.swaps_accepted));
    worst_ratio = std::min(worst_ratio, row.equal_ratio);
  }

  if (!json_path.empty()) {
    bench::JsonSummary summary;
    summary.Set("bench", std::string("advisor_search"));
    summary.Set("min_quality_ratio", min_quality);
    for (const FamilyRow& row : rows) {
      const std::string p = row.family + ".";
      summary.Set(p + "greedy_ms", row.greedy_ms);
      summary.Set(p + "greedy_cost", row.greedy_cost);
      summary.Set(p + "equal_wallclock_cost", row.equal_cost);
      summary.Set(p + "equal_wallclock_ratio", row.equal_ratio);
      summary.Set(p + "full_cost", row.full_cost);
      summary.Set(p + "full_ratio", row.full_ratio);
      summary.Set(p + "full_ms", row.full_ms);
      summary.Set(p + "swaps_accepted", row.swaps_accepted);
      summary.Set(p + "swap_candidates_pruned", row.pruned);
      summary.Set(p + "restarts_completed", row.restarts_completed);
    }
    if (!summary.WriteTo(json_path)) return 1;
  }

  const bool met = bench::MeetsFloor("equal-wall-clock quality ratio",
                                     worst_ratio, min_quality);
  return met ? 0 : 1;
}

}  // namespace
}  // namespace pinum

int main(int argc, char** argv) {
  pinum::bench::BenchFlags flags;
  const auto& spec = pinum::bench::kAdvisorSearchFlags;
  if (!pinum::bench::ParseBenchFlags(argc, argv, spec, &flags)) return 2;
  return pinum::Run(flags.smoke, flags.json_path,
                    flags.floors.at("--min-quality-ratio"));
}
