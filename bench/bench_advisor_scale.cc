// Greedy-advisor iteration throughput: the PR-2 batched path (every
// candidate's chosen + {cand} configuration re-resolved from scratch —
// O(|chosen| x terms) per candidate) vs the delta path (each query pins
// chosen into a CostContext once per iteration, then every candidate is
// a posting-list overlay — O(postings) per candidate). The two must
// return bit-identical AdvisorResults (same chosen ids, same step
// costs, same evaluation counts); the speedup is the point, and this
// harness doubles as the CI guard that it never silently regresses.
//
//   $ ./bench_advisor_scale [replicas] [--smoke] [--json out.json]
//                           [--min-speedup X]
//
// --smoke shrinks the workload (1x replication unless overridden) and
// the timing passes for CI/sanitizer runs; it still exercises
// build -> seal -> both advisor paths end to end and fails (exit 1) on
// any divergence. --min-speedup X additionally fails the run when the
// delta path's speedup over the batched path drops below X.
#include <cstdio>
#include <string>

#include "advisor/greedy_advisor.h"
#include "bench_util.h"
#include "common/stopwatch.h"
#include "workload/cache_manager.h"

namespace pinum {
namespace {

int Run(int replicas, bool smoke, const std::string& json_path,
        double min_speedup) {
  auto setup = bench::MakeServingSetup(replicas);
  if (setup == nullptr) return 1;
  CandidateSet& set = setup->world->set;
  const std::vector<Query>& queries = setup->queries;
  WorkloadCacheBuilder& builder = *setup->builder;
  WorkloadCacheResult* built = &setup->built;
  std::printf("# advisor scale: %zu queries (%dx replication), "
              "%zu candidates\n",
              queries.size(), replicas, set.candidate_ids.size());
  std::printf("# build %.1f ms (seal %.1f ms); %zu plans, %zu terms, "
              "%zu postings over %lld universe ids\n",
              built->totals.wall_ms, built->totals.seal_ms,
              built->totals.plans_cached, built->totals.terms,
              built->totals.postings,
              static_cast<long long>(set.NumIndexIds()));

  const WorkloadCostEvaluator evaluator(&built->sealed, builder.pool());
  // Full greedy sweep: no benefit floor, so the advisor keeps iterating
  // until no candidate strictly improves the workload (or the budget is
  // exhausted). This is the advisor's worst-case serving load — exactly
  // the regime the delta path exists for — and it keeps the measured
  // run dominated by candidate sweeps rather than by the stop check.
  AdvisorOptions batched_opts;
  batched_opts.min_relative_benefit = 0;
  batched_opts.cost_path = AdvisorCostPath::kBatched;
  AdvisorOptions delta_opts = batched_opts;
  delta_opts.cost_path = AdvisorCostPath::kDelta;

  // Both runs are deterministic; repeat each pass enough times to get
  // well above timer granularity and take the best per-run pass time.
  const int passes = smoke ? 2 : 5;
  auto measure = [&](const AdvisorOptions& options, AdvisorResult* result) {
    // Calibrate repetitions off one untimed run.
    Stopwatch calibrate;
    *result = RunGreedyAdvisor(evaluator, set, options);
    const double once_ms = calibrate.ElapsedMillis();
    const int reps =
        smoke ? 1 : std::max(1, static_cast<int>(100.0 / (once_ms + 0.01)));
    double best_ms = once_ms;
    for (int p = 0; p < passes; ++p) {
      Stopwatch timer;
      for (int r = 0; r < reps; ++r) {
        *result = RunGreedyAdvisor(evaluator, set, options);
      }
      const double ms = timer.ElapsedMillis() / reps;
      if (ms < best_ms) best_ms = ms;
    }
    return best_ms;
  };

  AdvisorResult batched;
  AdvisorResult delta;
  const double batched_ms = measure(batched_opts, &batched);
  const double delta_ms = measure(delta_opts, &delta);

  std::string why;
  if (!bench::SameAdvice(batched, delta, &why)) {
    std::fprintf(stderr, "FAIL: delta path diverges from batched path: %s\n",
                 why.c_str());
    return 1;
  }

  const int64_t iterations = static_cast<int64_t>(delta.steps.size()) + 1;
  const double speedup = batched_ms / (delta_ms > 0 ? delta_ms : 1e-9);
  auto rate = [&](double ms) {
    return static_cast<double>(iterations) / ((ms > 0 ? ms : 1e-9) / 1000.0);
  };
  std::printf("# %zu indexes chosen over %lld iterations "
              "(%lld cache evaluations); cost %.6g -> %.6g\n",
              delta.chosen.size(), static_cast<long long>(iterations),
              static_cast<long long>(delta.evaluations),
              delta.workload_cost_before, delta.workload_cost_after);
  std::printf("%-28s %12s %14s %10s\n", "path", "advisor-ms", "iters/s",
              "speedup");
  std::printf("%-28s %12.1f %14.1f %9.2fx\n", "batched (PR-2 sealed)",
              batched_ms, rate(batched_ms), 1.0);
  std::printf("%-28s %12.1f %14.1f %9.2fx\n",
              "delta (contexts + postings)", delta_ms, rate(delta_ms),
              speedup);

  if (!json_path.empty()) {
    bench::JsonSummary summary;
    summary.Set("bench", std::string("advisor_scale"));
    summary.Set("replicas", static_cast<int64_t>(replicas));
    summary.Set("queries", static_cast<int64_t>(queries.size()));
    summary.Set("candidates",
                static_cast<int64_t>(set.candidate_ids.size()));
    summary.Set("universe_ids", static_cast<int64_t>(set.NumIndexIds()));
    summary.Set("plans_cached",
                static_cast<int64_t>(built->totals.plans_cached));
    summary.Set("terms", static_cast<int64_t>(built->totals.terms));
    summary.Set("postings", static_cast<int64_t>(built->totals.postings));
    summary.Set("build_ms", built->totals.wall_ms);
    summary.Set("seal_ms", built->totals.seal_ms);
    summary.Set("chosen_indexes", static_cast<int64_t>(delta.chosen.size()));
    summary.Set("iterations", iterations);
    summary.Set("evaluations", delta.evaluations);
    summary.Set("workload_cost_before", delta.workload_cost_before);
    summary.Set("workload_cost_after", delta.workload_cost_after);
    summary.Set("batched_ms", batched_ms);
    summary.Set("delta_ms", delta_ms);
    summary.Set("batched_iters_per_s", rate(batched_ms));
    summary.Set("delta_iters_per_s", rate(delta_ms));
    summary.Set("speedup", speedup);
    summary.Set("min_speedup", min_speedup);
    if (!summary.WriteTo(json_path)) return 1;
  }

  return bench::MeetsFloor("delta speedup", speedup, min_speedup) ? 0 : 1;
}

}  // namespace
}  // namespace pinum

int main(int argc, char** argv) {
  pinum::bench::BenchFlags flags;
  const auto& spec = pinum::bench::kAdvisorScaleFlags;
  if (!pinum::bench::ParseBenchFlags(argc, argv, spec, &flags)) return 2;
  return pinum::Run(flags.replicas, flags.smoke, flags.json_path,
                    flags.floors.at("--min-speedup"));
}
